"""Tests for admissible actions, crossings, the deformation and the mirror."""

import pytest

from cogradedhopf.algebras import TensorElement
from cogradedhopf.cograded import (
    Action,
    adjoint_shuffle_action,
    check_admissible,
    check_cograded,
    check_crossing,
    deform,
    deformed_right_integral,
    mirror_check,
    trivial_action,
)
from cogradedhopf.exact import Matrix, ONE, ZERO
from cogradedhopf.groups import (
    GroupSelfAction,
    Window,
    cyclic_group,
    integers_group,
    s3_group,
    trivial_self_action,
)
from cogradedhopf.hopf import (
    check_integral_membership,
    full_suite,
    make_constant_family,
    make_kg,
    make_ungraded_group_algebra,
    solve_left_integral,
    solve_right_integral,
)


@pytest.fixture(scope="module")
def kg_s3():
    return make_kg(s3_group())


@pytest.fixture(scope="module")
def constant_cz2_s3():
    return make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())


def wfull(h):
    return Window.full(h.group)


# -- cograded structure checks -------------------------------------------------


def test_check_cograded_kg_s3(kg_s3):
    rep = check_cograded(kg_s3, wfull(kg_s3))
    assert rep.passed, rep.text()
    names = [e.name for e in rep.entries]
    assert "unit-coproduct" in names and "unit-antipode" in names


def test_check_cograded_constant_family(constant_cz2_s3):
    rep = check_cograded(constant_cz2_s3, wfull(constant_cz2_s3))
    assert rep.passed, rep.text()


def test_check_cograded_rejects_graded_mode():
    from cogradedhopf.hopf import make_group_algebra

    h = make_group_algebra(s3_group())
    rep = check_cograded(h, wfull(h))
    assert not rep.passed


# -- admissibility ---------------------------------------------------------------


def test_trivial_action_is_admissible(kg_s3):
    cert = check_admissible(trivial_action(kg_s3), wfull(kg_s3))
    assert cert.passed, cert.report.text()


def test_adjoint_action_is_admissible_and_crossing(kg_s3):
    act = adjoint_shuffle_action(kg_s3)
    w = wfull(kg_s3)
    assert check_admissible(act, w).passed
    assert check_crossing(act, w).passed


def test_trivial_action_is_not_crossing_on_nonabelian(kg_s3):
    rep = check_crossing(trivial_action(kg_s3), wfull(kg_s3))
    assert not rep.passed


def test_trivial_action_is_crossing_on_abelian():
    h = make_kg(cyclic_group(2))
    rep = check_crossing(trivial_action(h), wfull(h))
    assert rep.passed, rep.text()


def test_condition_three_failure_detected():
    # Fibrewise automorphisms with non-abelian image but trivial rho: the first
    # two admissibility conditions hold, condition (3) cannot.
    from cogradedhopf.groups import finite_group_from_table

    klein = finite_group_from_table(
        ["00", "01", "10", "11"],
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        name="Z2xZ2",
    )
    g = s3_group()
    b = make_constant_family(make_ungraded_group_algebra(klein), g)
    perms = {
        "e": (0, 1, 2),
        "(12)": (1, 0, 2),
        "(13)": (2, 1, 0),
        "(23)": (0, 2, 1),
        "(123)": (1, 2, 0),
        "(132)": (2, 0, 1),
    }

    def pi(p, q):
        # permute the three nonzero vectors of the Klein group by p
        t = perms[p]
        rows = [[ZERO] * 4 for _ in range(4)]
        rows[0][0] = ONE
        for k in range(3):
            rows[t[k] + 1][k + 1] = ONE
        return Matrix.from_rows(rows)

    bad = Action(base=b, rho=trivial_self_action(g), pi_fn=pi, label="fibrewise-s3")
    cert = check_admissible(bad, wfull(b))
    assert not cert.passed
    failing = {e.name for e in cert.report.failures()}
    assert failing == {"condition-3-compatibility"}


def test_adjoint_shuffle_on_constant_family(constant_cz2_s3):
    act = adjoint_shuffle_action(constant_cz2_s3)
    w = wfull(constant_cz2_s3)
    assert check_crossing(act, w).passed


def test_adjoint_action_on_kz_window():
    h = make_kg(integers_group())
    act = adjoint_shuffle_action(h)  # abelian: equals the trivial action
    w = Window.integer_range(h.group, -3, 3)
    assert check_admissible(act, w).passed


# -- deformation -----------------------------------------------------------------


def test_trivial_deformation_is_identity(kg_s3):
    w = wfull(kg_s3)
    d = deform(kg_s3, trivial_action(kg_s3), w)
    g = kg_s3.group
    for p, q in w.pairs():
        assert d.delta.source(p, q) == kg_s3.delta.source(p, q)
        assert d.delta.block_cols(p, q) == kg_s3.delta.block_cols(p, q)
    for p in g.elements:
        assert d.antipode.fn(p) == kg_s3.antipode.fn(p)


def test_deformed_source_indexing(kg_s3):
    g = kg_s3.group
    act = adjoint_shuffle_action(kg_s3)
    d = deform(kg_s3, act, wfull(kg_s3))
    for p, q in wfull(kg_s3).pairs():
        # source of the deformed block at (p, q) is rho_q(p) * q = q * p
        assert d.delta.source(p, q) == g.multiply(q, p)


def test_deform_requires_admissible(kg_s3):
    g = kg_s3.group
    minus = Matrix.from_rows([[-1]])

    def pi(p, q):
        return minus if p != g.identity else Matrix.identity(1)

    bad = Action(base=kg_s3, rho=trivial_self_action(g), pi_fn=pi, label="bad")
    with pytest.raises(ValueError):
        deform(kg_s3, bad, wfull(kg_s3))


def test_deformed_structure_passes_full_suite_kg_s3(kg_s3):
    w = wfull(kg_s3)
    d = deform(kg_s3, adjoint_shuffle_action(kg_s3), w)
    rep = full_suite(d, w)
    assert rep.passed, rep.text()


def test_deformed_structure_passes_full_suite_constant_family(constant_cz2_s3):
    w = wfull(constant_cz2_s3)
    d = deform(constant_cz2_s3, adjoint_shuffle_action(constant_cz2_s3), w)
    rep = full_suite(d, w)
    assert rep.passed, rep.text()


def test_deformed_cut_matches_direct_formula(kg_s3):
    # Delta~(b)(1 (x) b') = (pi_{q^-1} (x) id)(Delta(b)(1 (x) b')) for b' in B_q
    g = kg_s3.group
    act = adjoint_shuffle_action(kg_s3)
    w = wfull(kg_s3)
    d = deform(kg_s3, act, w)
    alg = kg_s3.algebra
    for r in g.elements:
        b_el = alg.basis_element(r, 0)
        for q in g.elements:
            b2 = alg.basis_element(q, 0)
            lhs = d.coproduct_right_cut(b_el, b2)
            rhs = kg_s3.coproduct_right_cut(b_el, b2).map_leg1(
                act.component_map(g.invert(q)).fn
            )
            assert lhs == rhs, (r, q)


def test_deformed_left_cut_matches_sweedler_formula(kg_s3):
    # (b' (x) 1) Delta~(b) = sum b' pi_{qp^-1}(b_(1)) (x) b_(2), b in B_p, b' in B_q
    g = kg_s3.group
    act = adjoint_shuffle_action(kg_s3)
    w = wfull(kg_s3)
    d = deform(kg_s3, act, w)
    alg = kg_s3.algebra
    for p in g.elements:
        b_el = alg.basis_element(p, 0)
        for q in g.elements:
            b2 = alg.basis_element(q, 0)
            lhs = d.coproduct_left_cut(b2, b_el)
            twist = g.multiply(q, g.invert(p))
            rhs = TensorElement(alg, alg)
            for u in g.elements:
                # original slice (u, u^-1 p), first leg twisted then multiplied
                part = kg_s3.delta_part_by_second(
                    b_el, [g.multiply(g.invert(u), p)]
                )
                moved = part.map_leg1(act.component_map(twist).fn).mul_leg1_left(b2)
                rhs = rhs.add(moved)
            assert lhs == rhs, (p, q)


def test_deformation_keeps_left_integral(kg_s3):
    w = wfull(kg_s3)
    act = adjoint_shuffle_action(kg_s3)
    d = deform(kg_s3, act, w)
    phi = solve_left_integral(kg_s3, w).functional
    rep = check_integral_membership(d, phi, "left", w)
    assert rep.passed, rep.text()


@pytest.mark.parametrize("make_action", [trivial_action, adjoint_shuffle_action])
def test_deformed_kz_integrals_are_one_dimensional(make_action):
    # the deformed second indices are solved in closed form, so an equation
    # whose partner leaves the window is skipped, as on the undeformed side
    h = make_kg(integers_group())
    w = Window.integer_range(h.group, -3, 3)
    deformed = deform(h, make_action(h), w)
    assert solve_left_integral(deformed, w).dimension == 1
    assert solve_right_integral(deformed, w).dimension == 1


def test_deformed_kz_second_indices_need_a_closed_form():
    # rho_p(q) = (-1)^p q is admissible with identity blocks, but its second
    # indices have no closed form, and no window scan may stand in for one
    h = make_kg(integers_group())
    w = Window.integer_range(h.group, -3, 3)
    sign = Action(
        base=h,
        rho=GroupSelfAction("sign", lambda p, q: q if p % 2 == 0 else -q),
        pi_fn=lambda p, q: Matrix.identity(1),
        label="sign",
    )
    assert check_admissible(sign, w).passed
    with pytest.raises(ValueError, match="no closed form"):
        solve_left_integral(deform(h, sign, w), w)


def test_twisted_right_integral_is_right_invariant(kg_s3):
    w = wfull(kg_s3)
    act = adjoint_shuffle_action(kg_s3)
    d = deform(kg_s3, act, w)
    psi = solve_right_integral(kg_s3, w).functional
    psi_t = deformed_right_integral(kg_s3, act, psi)
    rep = check_integral_membership(d, psi_t, "right", w)
    assert rep.passed, rep.text()
    # one-dimensional components: the twist fixes the sum functional
    for p in kg_s3.group.elements:
        assert psi_t.covector(p) == psi.covector(p)


def test_twisted_integral_on_constant_family(constant_cz2_s3):
    h = constant_cz2_s3
    w = wfull(h)
    act = adjoint_shuffle_action(h)
    d = deform(h, act, w)
    psi = solve_right_integral(h, w).functional
    psi_t = deformed_right_integral(h, act, psi)
    assert check_integral_membership(d, psi_t, "right", w).passed
    phi = solve_left_integral(h, w).functional
    assert check_integral_membership(d, phi, "left", w).passed


# -- mirror ----------------------------------------------------------------------


def test_mirror_check_kg_s3(kg_s3):
    rep = mirror_check(kg_s3, adjoint_shuffle_action(kg_s3), wfull(kg_s3))
    assert rep.passed, rep.text()


def test_mirror_check_constant_family(constant_cz2_s3):
    rep = mirror_check(
        constant_cz2_s3, adjoint_shuffle_action(constant_cz2_s3), wfull(constant_cz2_s3)
    )
    assert rep.passed, rep.text()


def test_mirror_check_trivial_on_abelian():
    h = make_kg(cyclic_group(2))
    rep = mirror_check(h, trivial_action(h), wfull(h))
    assert rep.passed, rep.text()


def test_mirror_requires_crossing(kg_s3):
    rep = mirror_check(kg_s3, trivial_action(kg_s3), wfull(kg_s3))
    assert not rep.passed

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
from cogradedhopf.double import build_double, double_crossing, make_group_function_pairing
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
from oracles import admissible_full_scan, dense_rows


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


# -- admissibility on a generating set -------------------------------------------


def _double_crossing(g, make_action):
    pairing = make_group_function_pairing(g)
    return double_crossing(build_double(pairing, make_action(pairing.b_side)))


ACTIONS = {
    "kg-s3 adjoint": lambda: adjoint_shuffle_action(make_kg(s3_group())),
    "kg-s3 trivial": lambda: trivial_action(make_kg(s3_group())),
    "cz2-s3 adjoint": lambda: adjoint_shuffle_action(
        make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())),
    "cz2-s3 trivial": lambda: trivial_action(
        make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())),
    "D(S3) adjoint crossing": lambda: _double_crossing(s3_group(), adjoint_shuffle_action),
    "D(Z6) trivial crossing": lambda: _double_crossing(cyclic_group(6), trivial_action),
}

# the whole group, the subgroups {e,(12)} and {e,(123),(132)}, and the non-closed {e,(12),(13)}
S3_WINDOWS = [None, ["(12)"], ["(123)"], ["(12)", "(13)"]]


def _windows(action):
    g = action.base.group
    if g.name != "S3":
        return [Window.full(g)]
    return [Window.full(g) if elements is None else Window.of(g, elements) for elements in S3_WINDOWS]


def _mutant(action, p, q, how):
    """The action with its block (p, q) scaled by 2 or with entry (0, 0) raised by 1."""
    def pi(r, s):
        m = action.block(r, s)
        if (r, s) != (p, q):
            return m
        rows = [[2 * c for c in row] if how == "scale" else list(row) for row in dense_rows(m)]
        if how == "bump":
            rows[0][0] += 1
        return Matrix.from_rows(rows)

    return Action(base=action.base, rho=action.rho, pi_fn=pi, label=action.label)


def _mutants(action, window):
    """Mutants at the last non-generator p of the window, and at a generator."""
    gens = window.generators or ()
    others = [p for p in window.elements if p not in gens and p != window.group.identity]
    ps = others[-1:] + list(gens[:1])
    q = window.elements[-1]
    return [(p, q, how) for p in ps for how in ("scale", "bump")]


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_admissibility_matches_the_full_scan(name):
    action = ACTIONS[name]()
    for w in _windows(action):
        assert check_admissible(action, w).report.to_dict() == admissible_full_scan(action, w).to_dict()
        for p, q, how in _mutants(action, w):
            mutant = _mutant(action, p, q, how)
            fast = check_admissible(mutant, w).report
            assert not fast.passed, (p, q, how, w.label)
            assert fast.to_dict() == admissible_full_scan(_mutant(action, p, q, how), w).to_dict()


def test_identity_mutant_takes_every_full_scan():
    action = ACTIONS["kg-s3 adjoint"]()
    w = Window.full(action.base.group)
    mutant = _mutant(action, "e", "(13)", "scale")
    fast = check_admissible(mutant, w).report
    assert [e.name for e in fast.failures()][0] == "action-identity"
    assert fast.to_dict() == admissible_full_scan(_mutant(action, "e", "(13)", "scale"), w).to_dict()


def test_window_left_by_rho_is_scanned_in_full():
    # rho_p = tau^(p mod 3) with tau the 3-cycle (e g1 g2) is a group action, but
    # rho_{g2}(g2) = g1 leaves the subgroup window {e, g2, g4}. Every generator
    # check passes; pi_{g4} pi_{g2} = 2 != pi_e on B_{g2} shows only at g4.
    g = cyclic_group(6)
    tau = {"e": "g1", "g1": "g2", "g2": "e"}

    def rho(p, q):
        for _ in range(g.index(p) % 3):
            q = tau.get(q, q)
        return q

    action = Action(base=make_kg(g), rho=GroupSelfAction("table", rho), label="tau",
                    pi_fn=lambda p, q: Matrix.from_rows([[2 if (p, q) == ("g4", "g1") else 1]]))
    w = Window.of(g, ["g2"])
    assert w.generators == ("g2",)
    fast = check_admissible(action, w).report
    assert fast.to_dict() == admissible_full_scan(action, w).to_dict()
    assert "action-group-law" in [e.name for e in fast.failures()]


def test_malformed_blocks_raise_in_full_scan_order(kg_s3):
    # the generator scan meets ((123), e) first, the full scan ((12), e)
    tall = Matrix.from_rows([[1], [1]])
    action = Action(base=kg_s3, rho=trivial_self_action(kg_s3.group), label="tall",
                    pi_fn=lambda p, q: tall if q == "e" and p in ("(12)", "(123)") else Matrix.identity(1))
    with pytest.raises(ValueError, match=r"action block \(\(12\), e\) has shape 2x1"):
        check_admissible(action, wfull(kg_s3))


def test_group_law_is_scanned_on_the_generators(monkeypatch):
    calls = []
    compose = Matrix.compose
    monkeypatch.setattr(Matrix, "compose", lambda self, other: calls.append(1) or compose(self, other))

    def products(action, window):
        for p, q in window.pairs():
            action.block(p, q)  # built first, so that only action-group-law's products count
        calls.clear()
        assert check_admissible(action, window).passed
        return len(calls)

    action = ACTIONS["kg-s3 adjoint"]()
    g = action.base.group
    assert products(action, Window.full(g)) == 2 * 6 * 6
    crossing = ACTIONS["D(Z6) trivial crossing"]()
    assert products(crossing, Window.full(crossing.base.group)) == 1 * 6 * 6
    assert products(action, Window.of(g, ["(12)", "(13)"])) == 3 * 3 * 3

"""Tests for pairings, module actions, twist maps, doubles and reduced duals."""

import gc
import weakref
from collections import Counter

import pytest

from cogradedhopf.algebras import TensorElement
from cogradedhopf.cograded import adjoint_shuffle_action, trivial_action
from cogradedhopf.double import (
    TwistCalculus,
    act_a_on_b,
    act_b_on_a,
    build_double,
    build_module_actions,
    check_double_axioms,
    check_pairing,
    check_twist,
    double_crossing,
    double_right_integral,
    induced_grading_check,
    make_group_function_pairing,
    reduced_dual,
)
from cogradedhopf.cograded import check_crossing
from cogradedhopf.exact import ONE, ZERO, Matrix
from cogradedhopf.groups import Window, cyclic_group, s3_group
from oracles import untwisted_double_product

from cogradedhopf.hopf import (
    check_coassociativity,
    check_counit,
    full_suite,
    make_constant_family,
    make_kg,
    make_ungraded_group_algebra,
    solve_left_integral,
    solve_right_integral,
)


@pytest.fixture(scope="module")
def pair_s3():
    return make_group_function_pairing(s3_group())


@pytest.fixture(scope="module")
def pair_z2():
    return make_group_function_pairing(cyclic_group(2))


def wfull(pairing):
    return Window.full(pairing.group)


# -- pairing and module actions ------------------------------------------------


def test_pairing_checks_s3(pair_s3):
    rep = check_pairing(pair_s3, wfull(pair_s3))
    assert rep.passed, rep.text()


def test_degenerate_form_is_witnessed():
    g = cyclic_group(2)
    base = make_group_function_pairing(g)
    from cogradedhopf.double import Pairing

    zero_at_g1 = Pairing(
        base.a_side,
        base.b_side,
        lambda p: Matrix.from_rows([[0]]) if p == "g1" else Matrix.from_rows([[1]]),
        label="degenerate",
    )
    rep = check_pairing(zero_at_g1, Window.full(g))
    assert not rep.passed
    assert any(e.name == "form-nondegenerate" for e in rep.failures())


def test_module_actions_on_basis(pair_s3):
    g = pair_s3.group
    A, B = pair_s3.a_side.algebra, pair_s3.b_side.algebra
    # delta_p |> u_h = [p = h] u_h and u_g |> delta_p = delta_p
    for p in g.elements:
        dp = B.basis_element(p, 0)
        for h in g.elements:
            uh = A.basis_element(h, 0)
            got = act_b_on_a(pair_s3, dp, uh)
            assert got == (uh if p == h else A.zero())
    for gg in g.elements:
        ug = A.basis_element(gg, 0)
        for p in g.elements:
            dp = B.basis_element(p, 0)
            # u_g |> delta_p = delta_{p g^-1}-slice paired: evaluates to delta_{pg^-1}
            got = act_a_on_b(pair_s3, ug, dp)
            expected = B.basis_element(g.multiply(p, g.invert(gg)), 0)
            assert got == expected


def test_module_action_tables_and_laws(pair_z2):
    tables, rep = build_module_actions(pair_z2, wfull(pair_z2))
    assert rep.passed, rep.text()
    assert tables.b_on_a[("e", 0)] == Matrix.identity(1)


def test_module_action_laws_s3(pair_s3):
    tables, rep = build_module_actions(pair_s3, wfull(pair_s3))
    assert rep.passed, rep.text()


def test_induced_grading_s3(pair_s3):
    rep = induced_grading_check(pair_s3, wfull(pair_s3))
    assert rep.passed, rep.text()


# -- twist maps ------------------------------------------------------------------


def test_twist_trivial_action_closed_form(pair_s3):
    # R(delta_r (x) u_h) = u_h (x) delta_{h^-1 r h} for the trivial action
    g = pair_s3.group
    tw = TwistCalculus(pair_s3, trivial_action(pair_s3.b_side))
    for r in g.elements:
        for h in g.elements:
            img = tw.r_basis(r, 0, h, 0)
            conj = g.multiply(g.multiply(g.invert(h), r), h)
            expected = TensorElement(pair_s3.a_side.algebra, pair_s3.b_side.algebra)
            expected.add_term(h, conj, 0, 0, ONE)
            assert img == expected, (r, h)


def test_twist_adjoint_action_closed_form(pair_s3):
    # with the conjugation shuffle the twist reduces to the flip
    g = pair_s3.group
    tw = TwistCalculus(pair_s3, adjoint_shuffle_action(pair_s3.b_side))
    for r in g.elements:
        for h in g.elements:
            img = tw.r_basis(r, 0, h, 0)
            expected = TensorElement(pair_s3.a_side.algebra, pair_s3.b_side.algebra)
            expected.add_term(h, r, 0, 0, ONE)
            assert img == expected, (r, h)


def test_twist_report_trivial(pair_s3):
    tw = TwistCalculus(pair_s3, trivial_action(pair_s3.b_side))
    rep = check_twist(tw, wfull(pair_s3))
    assert rep.passed, rep.text()


def test_twist_crossing_block_typing(pair_s3):
    g = pair_s3.group
    tw = TwistCalculus(pair_s3, adjoint_shuffle_action(pair_s3.b_side))
    for r in g.elements:
        for h in g.elements:
            img = tw.r_basis(r, 0, h, 0)
            assert all(key[1] == r for key in img.blocks)  # image inside A (x) B_r


# -- the double -------------------------------------------------------------------


def _classical_product_oracle(g, quadruple):
    # (u_g >< delta_p)(u_h >< delta_q) = [h^-1 p h = q] u_{gh} >< delta_q
    gg, p, h, q = quadruple
    conj = g.multiply(g.multiply(g.invert(h), p), h)
    if conj != q:
        return None
    return g.multiply(gg, h), q


def test_trivial_double_matches_closed_form(pair_s3):
    g = pair_s3.group
    d = build_double(pair_s3, trivial_action(pair_s3.b_side))
    assert not d.crossing
    for gg in g.elements:
        for p in g.elements:
            for h in g.elements:
                for q in g.elements:
                    prod = d._basis_product((gg, 0, p, 0, h, 0, q, 0))
                    expected = _classical_product_oracle(g, (gg, p, h, q))
                    if expected is None:
                        assert prod.is_zero(), (gg, p, h, q)
                    else:
                        t = TensorElement(
                            pair_s3.a_side.algebra, pair_s3.b_side.algebra
                        )
                        t.add_term(expected[0], expected[1], 0, 0, ONE)
                        assert prod == t, (gg, p, h, q)


def test_trivial_double_matches_def18_oracle(pair_z2):
    g = pair_z2.group
    d = build_double(pair_z2, trivial_action(pair_z2.b_side))
    for s1 in g.elements:
        for r1 in g.elements:
            for s2 in g.elements:
                for r2 in g.elements:
                    quadruple = (s1, 0, r1, 0, s2, 0, r2, 0)
                    assert d._basis_product(quadruple) == untwisted_double_product(
                        pair_z2, quadruple
                    )


def test_trivial_double_axioms_z2(pair_z2):
    d = build_double(pair_z2, trivial_action(pair_z2.b_side))
    rep = check_double_axioms(d)
    assert rep.passed, rep.text()


def test_adjoint_double_axioms_z2(pair_z2):
    d = build_double(pair_z2, adjoint_shuffle_action(pair_z2.b_side))
    assert d.crossing  # abelian: the trivial and adjoint shuffles agree
    rep = check_double_axioms(d)
    assert rep.passed, rep.text()


def test_adjoint_double_s3_is_graded(pair_s3):
    g = pair_s3.group
    d = build_double(pair_s3, adjoint_shuffle_action(pair_s3.b_side))
    assert d.crossing
    assert d.mha.algebra.mode == "cograded"
    for p in g.elements:
        assert d.mha.algebra.dim(p) == 6
    rep = full_suite(d.mha, Window.full(g))
    assert rep.passed, rep.text()


def test_double_images_are_computed_once_per_basis_tensor(monkeypatch):
    # each uncached R(b* (x) a*) stars one A basis vector, and each uncached
    # R((pi S)(b) (x) S^-1(a)) takes one component map of the action
    import cogradedhopf.double as double
    from cogradedhopf.cograded import Action, check_admissible
    from cogradedhopf.hopf import MhaStructure

    pairing = make_group_function_pairing(s3_group())
    act = adjoint_shuffle_action(pairing.b_side)
    check_admissible(act, wfull(pairing))  # certified before the counting starts
    counts = {"star": 0, "sbar": 0, "involution": 0}
    apply_star, component_map = MhaStructure.apply_star, Action.component_map
    involution_witness = double._star_involution_witness

    def count_star(self, x):
        counts["star"] += self is pairing.a_side
        return apply_star(self, x)

    def count_sbar(self, p):
        counts["sbar"] += self is act
        return component_map(self, p)

    def count_involution(*args):
        counts["involution"] += 1
        return involution_witness(*args)

    monkeypatch.setattr(MhaStructure, "apply_star", count_star)
    monkeypatch.setattr(Action, "component_map", count_sbar)
    monkeypatch.setattr(double, "_star_involution_witness", count_involution)
    d = build_double(pairing, act)
    rep = check_double_axioms(d)
    assert rep.passed, rep.text()
    assert len(d.a_basis) * len(d.b_basis) == 36
    assert counts == {"star": 36, "sbar": 36, "involution": 1}


def test_embedded_leg_products_are_computed_once_per_double(monkeypatch):
    # the coproduct and the reversed multiplier product meet the same embedded
    # legs many times; each (A basis, B basis, order) takes one dmul
    from cogradedhopf.double import DoubleStructure

    pairing = make_group_function_pairing(s3_group())
    calls = Counter()
    dmul = DoubleStructure.dmul

    def count_dmul(self, t1, t2):
        calls[(tuple(t1.terms()), tuple(t2.terms()))] += 1
        return dmul(self, t1, t2)

    monkeypatch.setattr(DoubleStructure, "dmul", count_dmul)
    d = build_double(pairing, adjoint_shuffle_action(pairing.b_side))
    assert check_double_axioms(d).passed
    assert calls and max(calls.values()) == 1
    assert sum(calls.values()) <= 2 * len(d.a_basis) * len(d.b_basis)


def test_double_is_freed_without_the_cyclic_collector():
    # the view and the crossing hold the double's tables, not the double, so
    # reference counting alone frees it once its last reference goes
    pairing = make_group_function_pairing(s3_group())
    act = adjoint_shuffle_action(pairing.b_side)
    w = wfull(pairing)
    phi_a = solve_left_integral(pairing.a_side, w).functional
    psi_b = solve_right_integral(pairing.b_side, w).functional
    gc.collect()
    gc.disable()
    try:
        d = build_double(pairing, act)
        assert check_double_axioms(d).passed
        crossing = double_crossing(d)
        assert check_crossing(crossing, Window.full(d.mha.group)).passed
        assert double_right_integral(d, phi_a, psi_b).report.passed
        ref = weakref.ref(d)
        del d, crossing
        assert ref() is None
    finally:
        gc.enable()
    # the view is whole on its own, when the double is not kept
    assert full_suite(build_double(pairing, act).mha, w).passed


def test_crossing_and_view_are_freed_without_the_cyclic_collector():
    # the crossing's component maps close over its parts, not over the action
    pairing = make_group_function_pairing(s3_group())
    d = build_double(pairing, adjoint_shuffle_action(pairing.b_side))
    gc.collect()
    gc.disable()
    try:
        crossing = double_crossing(d)
        assert check_crossing(crossing, Window.full(d.mha.group)).passed
        refs = [weakref.ref(crossing), weakref.ref(d.mha)]
        del d, crossing
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_build_double_rejects_an_action_on_another_copy_of_b():
    pairing = make_group_function_pairing(cyclic_group(2))
    other = make_kg(cyclic_group(2))
    with pytest.raises(ValueError, match="not on the pairing's B side"):
        build_double(pairing, trivial_action(other))


@pytest.mark.parametrize("make_action", [trivial_action, adjoint_shuffle_action])
def test_position_is_the_view_coordinate_map(pair_s3, make_action):
    # trivial: not a crossing, one view component; adjoint: graded over S3
    d = build_double(pair_s3, make_action(pair_s3.b_side))
    view = d.mha.algebra
    slots = {(P, k) for P in view.group.elements for k in range(view.dim(P))}
    assert len(d.position) == len(slots) == len(d.a_basis) * len(d.b_basis)
    assert set(d.position.values()) == slots
    for key, (P, k) in d.position.items():
        assert d.view_coords(d.basis_tensor(*key)) == view.basis_element(P, k)
    coproduct = d.dbar(*d.comp_basis[view.group.identity][0])
    assert coproduct.left is view and coproduct.right is view


def test_noncrossing_view_coassociativity_and_counit(pair_s3):
    # over the trivial group every leg of the coproduct lands in one block
    d = build_double(pair_s3, trivial_action(pair_s3.b_side))
    assert not d.crossing
    w = Window.full(d.mha.group)
    for rep in (check_coassociativity(d.mha, w), check_counit(d.mha, w)):
        assert rep.entries and rep.passed, rep.text()


def test_double_crossing_s3(pair_s3):
    d = build_double(pair_s3, adjoint_shuffle_action(pair_s3.b_side))
    act = double_crossing(d)
    rep = check_crossing(act, Window.full(d.mha.group))
    assert rep.passed, rep.text()


def test_double_crossing_transposed_action(pair_s3):
    # the transposed action sends u_h >< delta_{Q^-1} to u_{php^-1} >< delta_{pQ^-1p^-1}
    g = pair_s3.group
    d = build_double(pair_s3, adjoint_shuffle_action(pair_s3.b_side))
    act = double_crossing(d)
    view = d.mha
    for p in g.elements:
        for Q in g.elements:
            target = g.multiply(g.multiply(p, Q), g.invert(p))
            for h in g.elements:
                x = d.view_coords(d.basis_tensor(h, 0, g.invert(Q), 0))
                moved = act.component_map(p).apply(x)
                conj_h = g.multiply(g.multiply(p, h), g.invert(p))
                expected = d.view_coords(
                    d.basis_tensor(conj_h, 0, g.invert(target), 0)
                )
                assert moved == expected, (p, Q, h)


def test_double_right_integral_trivial(pair_s3):
    w = wfull(pair_s3)
    d = build_double(pair_s3, trivial_action(pair_s3.b_side))
    phi_a = solve_left_integral(pair_s3.a_side, w).functional
    psi_b = solve_right_integral(pair_s3.b_side, w).functional
    result = double_right_integral(d, phi_a, psi_b)
    assert result.report.passed, result.report.text()
    assert result.scalar == ONE


def test_double_right_integral_adjoint(pair_s3):
    w = wfull(pair_s3)
    d = build_double(pair_s3, adjoint_shuffle_action(pair_s3.b_side))
    phi_a = solve_left_integral(pair_s3.a_side, w).functional
    psi_b = solve_right_integral(pair_s3.b_side, w).functional
    result = double_right_integral(d, phi_a, psi_b)
    assert result.report.passed, result.report.text()
    assert result.scalar == ONE


def test_double_integral_rejects_bad_input(pair_z2):
    from cogradedhopf.hopf import GradedFunctional

    d = build_double(pair_z2, trivial_action(pair_z2.b_side))
    w = wfull(pair_z2)
    phi_a = solve_left_integral(pair_z2.a_side, w).functional
    bogus = GradedFunctional(
        pair_z2.b_side.algebra, lambda p: (ONE,) if p == "e" else (ZERO,), label="bogus"
    )
    with pytest.raises(ValueError):
        double_right_integral(d, phi_a, bogus)


def test_double_z2_gram_psd(pair_z2):
    w = wfull(pair_z2)
    d = build_double(pair_z2, trivial_action(pair_z2.b_side))
    phi_a = solve_left_integral(pair_z2.a_side, w).functional
    psi_b = solve_right_integral(pair_z2.b_side, w).functional
    result = double_right_integral(d, phi_a, psi_b)
    assert result.scalar == ONE
    names = [e.name for e in result.report.entries]
    assert "scaled-gram-psd" in names
    assert result.report.passed


# -- reduced duals ------------------------------------------------------------------


def test_reduced_dual_of_kg_is_group_algebra_shaped():
    g = s3_group()
    b = make_kg(g)
    rd = reduced_dual(b)
    dual = rd.structure
    assert dual.algebra.mode == "graded"
    # product dual to (Delta f)(p, q) = f(pq) is the group law
    x = dual.algebra.basis_element("(12)", 0)
    y = dual.algebra.basis_element("(123)", 0)
    assert (x * y) == dual.algebra.basis_element(g.multiply("(12)", "(123)"), 0)
    rep = full_suite(dual, Window.full(g))
    assert rep.passed, rep.text()
    rep = check_pairing(rd.pairing, Window.full(g))
    assert rep.passed, rep.text()


def test_reduced_dual_constant_family_pairing():
    g = s3_group()
    b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), g)
    rd = reduced_dual(b)
    assert all(rd.structure.algebra.dim(p) == 2 for p in g.elements)
    w = Window.full(g)
    assert full_suite(rd.structure, w).passed
    assert check_pairing(rd.pairing, w).passed
    assert induced_grading_check(rd.pairing, w).passed


def test_bidual_restores_structure_constants():
    g = cyclic_group(3)
    b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), g)
    once = reduced_dual(b)
    twice = reduced_dual(once.structure)
    again = twice.structure
    assert again.algebra.mode == "cograded"
    for p in g.elements:
        assert (
            again.algebra.component(p).structure_constants()
            == b.algebra.component(p).structure_constants()
        )
        assert again.algebra.component(p).unit == b.algebra.component(p).unit
    for p in g.elements:
        for q in g.elements:
            assert again.delta.block_cols(p, q) == b.delta.block_cols(p, q)


def test_dual_unit_is_counit():
    g = cyclic_group(2)
    b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), g)
    rd = reduced_dual(b)
    unit = rd.structure.unit_element()
    assert unit.support() == ("e",)
    assert unit.coeff("e") == b.counit_covector("e")


def test_dual_double_z2_over_z2():
    # small end-to-end: dual of the constant family over Z2, doubled
    g = cyclic_group(2)
    b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), g)
    act = adjoint_shuffle_action(b)
    rd = reduced_dual(b, action=act)
    assert rd.dual_action is not None
    d = build_double(rd.pairing, act)
    assert d.crossing
    rep = check_double_axioms(d)
    assert rep.passed, rep.text()
    act2 = double_crossing(d)
    assert check_crossing(act2, Window.full(d.mha.group)).passed

"""Tests for the multiplier Hopf axiom suite and the integral machinery."""

import os
import subprocess
import sys

import pytest

from cogradedhopf.cli import verify_structure
from cogradedhopf.cograded import adjoint_shuffle_action, check_cograded
from cogradedhopf.double import build_double, check_double_axioms, make_group_function_pairing
from cogradedhopf.exact import GR, ONE, ZERO, Matrix
from cogradedhopf.groups import Window, cyclic_group, integers_group, s3_group
import cogradedhopf.hopf as hopf
from cogradedhopf.hopf import (
    ComponentMap,
    GradedFunctional,
    MhaStructure,
    check_antipode,
    check_counit,
    check_faithful,
    check_integral_membership,
    check_positive_integral,
    check_t1_t2,
    full_suite,
    make_constant_family,
    make_group_algebra,
    make_kg,
    make_ungraded_group_algebra,
    modular_automorphism,
    modular_element,
    solve_left_integral,
    solve_right_integral,
)
from cogradedhopf.specfile import load_structure


@pytest.fixture(scope="module")
def kg_s3():
    return make_kg(s3_group())


@pytest.fixture(scope="module")
def ca_s3():
    return make_group_algebra(s3_group())


@pytest.fixture(scope="module")
def constant_cz2_s3():
    return make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())


def wfull(h):
    return Window.full(h.group)


# -- K(G) -------------------------------------------------------------------


def test_kg_delta_block_structure(kg_s3):
    # (Delta delta_r) is supported exactly on the pairs (p, q) with pq = r
    g = kg_s3.group
    for p in g.elements:
        for q in g.elements:
            src = kg_s3.delta.source(p, q)
            assert src == g.multiply(p, q)
            assert kg_s3.delta.block_cols(p, q) == [{0: ONE}]


def test_kg_unit_of_component_is_indicator(kg_s3):
    for p in kg_s3.group.elements:
        assert kg_s3.algebra.component(p).unit == (ONE,)


def test_kg_antipode_is_inversion_and_involutive(kg_s3):
    g = kg_s3.group
    for p in g.elements:
        assert kg_s3.antipode.target(p) == g.invert(p)
        x = kg_s3.algebra.basis_element(p, 0)
        assert kg_s3.antipode.apply(kg_s3.antipode.apply(x)) == x


def test_kg_s3_t1_t2_all_blocks_bijective(kg_s3):
    rep = check_t1_t2(kg_s3, wfull(kg_s3))
    assert rep.passed, rep.text()
    assert sum(1 for e in rep.entries if e.name.startswith("T1-block")) == 36
    assert sum(1 for e in rep.entries if e.name.startswith("T2-block")) == 36


def count_t1_t2(monkeypatch):
    """Count the calls of ``check_t1_t2`` through every module that imports it."""
    original, calls = hopf.check_t1_t2, []
    for name, module in list(sys.modules.items()):
        if name.startswith("cogradedhopf") and getattr(module, "check_t1_t2", None) is original:
            monkeypatch.setattr(module, "check_t1_t2", lambda *a: calls.append(a) or original(*a))
    return calls


def s3_adjoint_double():
    pairing = make_group_function_pairing(s3_group())
    return build_double(pairing, adjoint_shuffle_action(pairing.b_side))


def verify_kg_s3():
    return [verify_structure(load_structure("builtin:kg-s3"))]


def axioms_and_cograded_on_view():
    d = s3_adjoint_double()
    return [check_double_axioms(d), check_cograded(d.mha, Window.full(d.mha.group))]


def cograded_on_view():
    view = s3_adjoint_double().mha
    return [check_cograded(view, Window.full(view.group))]


@pytest.mark.parametrize("pipeline, runs", [(verify_kg_s3, 1), (axioms_and_cograded_on_view, 1),
                                            (cograded_on_view, 0)])
def test_t1_t2_has_one_owner(monkeypatch, pipeline, runs):
    calls = count_t1_t2(monkeypatch)
    reports = pipeline()
    assert all(rep.passed for rep in reports)
    assert len(calls) == runs


def test_double_axioms_and_cograded_laws_share_no_entry():
    names = [e.name for rep in axioms_and_cograded_on_view() for e in rep.entries]
    assert len(names) == len(set(names))


def test_kg_s3_full_suite(kg_s3):
    rep = full_suite(kg_s3, wfull(kg_s3))
    assert rep.passed, rep.text()


def test_kg_counit_perturbation_fails():
    g = cyclic_group(2)
    h = make_kg(g)
    broken = MhaStructure(
        algebra=h.algebra,
        delta=h.delta,
        counit_fn=lambda p: (GR(2),) if p == g.identity else (ZERO,),
        antipode=h.antipode,
        star=h.star,
        label="kg-z2-broken-counit",
    )
    rep = check_counit(broken, Window.full(g))
    assert not rep.passed
    assert any(e.witness for e in rep.failures())


def test_kg_antipode_identity_fails_for_identity_map():
    g = cyclic_group(3)
    h = make_kg(g)
    broken = MhaStructure(
        algebra=h.algebra,
        delta=h.delta,
        counit_fn=h.counit_fn,
        antipode=ComponentMap(
            h.algebra, h.algebra, lambda p: (p, Matrix.identity(1)), label="id"
        ),
        star=h.star,
        label="kg-z3-broken-antipode",
    )
    rep = check_antipode(broken, Window.full(g))
    assert not rep.passed


def test_zero_delta_block_fails_t1():
    g = cyclic_group(2)
    h = make_kg(g)
    zero = Matrix.zeros(1, 1)
    broken = MhaStructure(
        algebra=h.algebra,
        delta=type(h.delta)(h.algebra, lambda p, q: zero.sparse_columns()),
        counit_fn=h.counit_fn,
        antipode=h.antipode,
        star=h.star,
        label="kg-z2-zero-delta",
    )
    rep = check_t1_t2(broken, Window.full(g))
    assert not rep.passed


# -- group algebra ----------------------------------------------------------


def test_group_algebra_group_likes(ca_s3):
    g = ca_s3.group
    # Delta(u_p) = u_p (x) u_p, eps(u_p) = 1, S(u_p) u_p = u_e
    for p in g.elements:
        u = ca_s3.algebra.basis_element(p, 0)
        assert ca_s3.counit_value(u) == ONE
        su = ca_s3.antipode.apply(u)
        assert su * u == ca_s3.algebra.basis_element(g.identity, 0)


def test_group_algebra_t1_is_permutation_on_z2():
    h = make_group_algebra(cyclic_group(2))
    rep = check_t1_t2(h, wfull(h))
    assert rep.passed, rep.text()


def test_group_algebra_s3_full_suite(ca_s3):
    rep = full_suite(ca_s3, wfull(ca_s3))
    assert rep.passed, rep.text()


# -- constant family ---------------------------------------------------------


def test_constant_family_shape(constant_cz2_s3):
    h = constant_cz2_s3
    assert h.algebra.mode == "cograded"
    for p in h.group.elements:
        assert h.algebra.dim(p) == 2
    # counit vanishes off the identity component
    assert h.counit_covector("(12)") == (ZERO, ZERO)
    assert h.counit_covector("e") == (ONE, ONE)


def test_constant_family_full_suite(constant_cz2_s3):
    rep = full_suite(constant_cz2_s3, wfull(constant_cz2_s3))
    assert rep.passed, rep.text()


def test_constant_family_needs_single_component_fibre():
    with pytest.raises(ValueError):
        make_constant_family(make_kg(cyclic_group(2)), s3_group())


# -- integrals ----------------------------------------------------------------


def test_kg_s3_left_integral_is_sum(kg_s3):
    sol = solve_left_integral(kg_s3, wfull(kg_s3))
    assert sol.dimension == 1
    for p in kg_s3.group.elements:
        assert sol.functional.covector(p) == (ONE,)


def test_kg_s3_right_integral_same_as_left(kg_s3):
    sol = solve_right_integral(kg_s3, wfull(kg_s3))
    assert sol.dimension == 1
    for p in kg_s3.group.elements:
        assert sol.functional.covector(p) == (ONE,)


def test_group_algebra_s3_integral_is_evaluation_at_identity(ca_s3):
    g = ca_s3.group
    sol = solve_left_integral(ca_s3, wfull(ca_s3))
    assert sol.dimension == 1
    for p in g.elements:
        expected = (ONE,) if p == g.identity else (ZERO,)
        assert sol.functional.covector(p) == expected
    # same functional is right invariant (cocommutative)
    right = solve_right_integral(ca_s3, wfull(ca_s3))
    assert right.dimension == 1
    assert right.functional.covector(g.identity) == (ONE,)


def test_kg_integers_window_integral():
    h = make_kg(integers_group())
    w = Window.integer_range(h.group, -5, 5)
    sol = solve_left_integral(h, w)
    assert sol.dimension == 1
    for n in range(-5, 6):
        assert sol.functional.covector(n) == (ONE,)
    with pytest.raises(ValueError):
        sol.functional.covector(9)  # outside the verification window


def test_integral_membership_detects_noninvariant_functional(kg_s3):
    bogus = GradedFunctional(
        kg_s3.algebra, lambda p: (ONE,) if p == "e" else (ZERO,), label="bogus"
    )
    rep = check_integral_membership(kg_s3, bogus, "left", wfull(kg_s3))
    assert not rep.passed


def test_kg_s3_modular_element_is_unit(kg_s3):
    w = wfull(kg_s3)
    phi = solve_left_integral(kg_s3, w).functional
    delta = modular_element(kg_s3, phi, w)
    for p in kg_s3.group.elements:
        assert delta.component(p) == (ONE,)


def test_group_algebra_modular_element_is_unit(ca_s3):
    w = wfull(ca_s3)
    phi = solve_left_integral(ca_s3, w).functional
    delta = modular_element(ca_s3, phi, w)
    g = ca_s3.group
    assert delta.component(g.identity) == (ONE,)
    for p in g.elements:
        if p != g.identity:
            assert delta.component(p) == (ZERO,)


def test_modular_element_rejects_perturbed_functional(kg_s3):
    bogus = GradedFunctional(
        kg_s3.algebra,
        lambda p: (GR(2),) if p == "e" else (ONE,),
        label="perturbed",
    )
    with pytest.raises(ValueError):
        modular_element(kg_s3, bogus, wfull(kg_s3))


def test_kg_s3_modular_automorphism_is_identity(kg_s3):
    w = wfull(kg_s3)
    phi = solve_left_integral(kg_s3, w).functional
    family, rep = modular_automorphism(kg_s3, phi, w)
    assert rep.passed, rep.text()
    for p in kg_s3.group.elements:
        assert family[p] == Matrix.identity(1)


def test_group_algebra_modular_automorphism_is_identity(ca_s3):
    w = wfull(ca_s3)
    phi = solve_left_integral(ca_s3, w).functional
    family, rep = modular_automorphism(ca_s3, phi, w)
    assert rep.passed, rep.text()
    for p in ca_s3.group.elements:
        assert family[p] == Matrix.identity(1)


def test_faithfulness(kg_s3):
    w = wfull(kg_s3)
    phi = solve_left_integral(kg_s3, w).functional
    assert check_faithful(kg_s3, phi, w).passed
    zero = GradedFunctional(kg_s3.algebra, lambda p: (ZERO,), label="0")
    assert not check_faithful(kg_s3, zero, w).passed
    with pytest.raises(ValueError):
        modular_automorphism(kg_s3, zero, w)


def test_positive_integral_kg_s3(kg_s3):
    w = wfull(kg_s3)
    phi = solve_left_integral(kg_s3, w).functional
    rep = check_positive_integral(kg_s3, phi, w)
    assert rep.passed, rep.text()


def test_positive_integral_group_algebra(ca_s3):
    w = wfull(ca_s3)
    phi = solve_left_integral(ca_s3, w).functional
    rep = check_positive_integral(ca_s3, phi, w)
    assert rep.passed, rep.text()


def test_negative_weight_fails_positivity(kg_s3):
    w = wfull(kg_s3)
    phi = GradedFunctional(
        kg_s3.algebra,
        lambda p: (GR(-1),) if p == "(12)" else (ONE,),
        label="signed",
    )
    rep = check_positive_integral(kg_s3, phi, w)
    assert not rep.passed


# -- K(Z): infinite group window regression -----------------------------------


def test_kg_integers_suite_on_window():
    h = make_kg(integers_group())
    w = Window.integer_range(h.group, -3, 3)
    rep = full_suite(h, w)
    assert rep.passed, rep.text()
    assert rep.window == "-3..3"


def test_kg_integers_modular_data_on_window():
    h = make_kg(integers_group())
    w = Window.integer_range(h.group, -4, 4)
    phi = solve_left_integral(h, w).functional
    delta = modular_element(h, phi, w)
    assert delta.component(2) == (ONE,)
    family, rep = modular_automorphism(h, phi, w)
    assert rep.passed
    assert family[0] == Matrix.identity(1)


def test_failing_membership_report_does_not_depend_on_string_hashing():
    # equation numbers must not follow set order, which moves with the hash
    # seed; seeds 1 and 4 order these components differently
    code = (
        "from cogradedhopf.exact import GR\n"
        "from cogradedhopf.groups import Window, s3_group\n"
        "from cogradedhopf.hopf import GradedFunctional, check_integral_membership, "
        "make_group_algebra\n"
        "h = make_group_algebra(s3_group())\n"
        "f = GradedFunctional(h.algebra, lambda p: (GR(int(p in ('(12)', '(123)'))),))\n"
        "rep = check_integral_membership(h, f, 'left', Window.full(h.group))\n"
        "print(rep.passed, rep.digest())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = set()
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        outputs.add(result.stdout)
    assert len(outputs) == 1 and outputs.pop().startswith("False ")

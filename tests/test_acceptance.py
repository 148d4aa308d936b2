"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every check here is exact over Q(i); the runtime bounds are asserted with
``time.monotonic``. Each test prints a single PASS line on success (visible
with ``pytest -s``); a failure carries the offending report text.
"""

import time

from oracles import untwisted_double_product

from cogradedhopf.algebras import TensorElement
from cogradedhopf.cli import main, verify_structure
from cogradedhopf.cograded import (
    adjoint_shuffle_action,
    check_cograded,
    check_crossing,
    deform,
    deformed_right_integral,
    mirror_check,
    trivial_action,
)
from cogradedhopf.double import (
    build_double,
    check_double_axioms,
    check_pairing,
    double_crossing,
    double_right_integral,
    induced_grading_check,
    make_group_function_pairing,
    reduced_dual,
)
from cogradedhopf.exact import GR, ONE, Matrix
from cogradedhopf.groups import Window, cyclic_group, integers_group, s3_group
from cogradedhopf.hopf import (
    check_integral_membership,
    check_positive_integral,
    check_star,
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


class Timer:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _conclude(n, label, timer):
    assert timer.elapsed < timer.budget, (
        "criterion %d exceeded its %ss budget: %.1fs" % (n, timer.budget, timer.elapsed)
    )
    print("PASS criterion %2d (%.2fs): %s" % (n, timer.elapsed, label))


def test_criterion_01_kg_s3_full_star_suite():
    with Timer(10) as t:
        h = make_kg(s3_group())
        w = Window.full(h.group)
        rep = full_suite(h, w)
        assert rep.passed, rep.text()
        t1 = [e for e in rep.entries if e.name.startswith("T1-block")]
        t2 = [e for e in rep.entries if e.name.startswith("T2-block")]
        assert len(t1) == 36 and all(e.passed for e in t1)
        assert len(t2) == 36 and all(e.passed for e in t2)
        coassoc = [e for e in rep.entries if e.name.startswith("coassoc")]
        assert len(coassoc) == 216 and all(e.passed for e in coassoc)
        assert check_star(h, w).passed
        assert check_cograded(h, w).passed
    _conclude(1, "function algebra on S3 passes the full star suite", t)


def test_criterion_02_kg_s3_integral_machinery():
    with Timer(5) as t:
        h = make_kg(s3_group())
        w = Window.full(h.group)
        sol = solve_left_integral(h, w)
        assert sol.dimension == 1
        for p in h.group.elements:
            assert sol.functional.covector(p) == (ONE,)  # the summation functional
        delta = modular_element(h, sol.functional, w)
        for p in h.group.elements:
            assert delta.component(p) == (ONE,)  # unit multiplier
        family, rep = modular_automorphism(h, sol.functional, w)
        assert rep.passed, rep.text()
        for p in h.group.elements:
            assert family[p] == Matrix.identity(1)
        pos = check_positive_integral(h, sol.functional, w)
        assert pos.passed, pos.text()
    _conclude(2, "integral, modular multiplier, automorphism and positivity", t)


def test_criterion_03_group_algebra_s3():
    with Timer(5) as t:
        h = make_group_algebra(s3_group())
        w = Window.full(h.group)
        rep = full_suite(h, w)
        assert rep.passed, rep.text()
        sol = solve_left_integral(h, w)
        assert sol.dimension == 1
        g = h.group
        for p in g.elements:
            expected = (ONE,) if p == g.identity else (GR(0),)
            assert sol.functional.covector(p) == expected
    _conclude(3, "group algebra on S3 passes the suite with its integral", t)


def test_criterion_04_pairing_checks():
    with Timer(10) as t:
        pairing = make_group_function_pairing(s3_group())
        w = Window.full(pairing.group)
        rep = check_pairing(pairing, w)
        assert rep.passed, rep.text()
        rep = induced_grading_check(pairing, w)
        assert rep.passed, rep.text()
    _conclude(4, "group-algebra/function-algebra pairing and induced grading", t)


def test_criterion_05_trivial_double_structure_constants():
    with Timer(30) as t:
        pairing = make_group_function_pairing(s3_group())
        g = pairing.group
        d = build_double(pairing, trivial_action(pairing.b_side))
        checked = 0
        for gg in g.elements:
            for p in g.elements:
                for h in g.elements:
                    for q in g.elements:
                        quadruple = (gg, 0, p, 0, h, 0, q, 0)
                        built = d._basis_product(quadruple)
                        # independent slice-expansion oracle
                        assert built == untwisted_double_product(pairing, quadruple)
                        # closed form (u_g >< d_p)(u_h >< d_q) = [h^-1ph = q] u_gh >< d_q
                        conj = g.multiply(g.multiply(g.invert(h), p), h)
                        expected = TensorElement(
                            pairing.a_side.algebra, pairing.b_side.algebra
                        )
                        if conj == q:
                            expected.add_term(g.multiply(gg, h), q, 0, 0, ONE)
                        assert built == expected
                        checked += 1
        assert checked == 1296
    _conclude(5, "classical double matches the slice oracle and the closed form", t)


def test_criterion_06_adjoint_double_suite():
    with Timer(60) as t:
        pairing = make_group_function_pairing(s3_group())
        d = build_double(pairing, adjoint_shuffle_action(pairing.b_side))
        assert d.crossing
        rep = check_double_axioms(d)
        assert rep.passed, rep.text()
        assert any(e.name == "coproduct-twist-compatibility" for e in rep.entries)
        view_w = Window.full(d.mha.group)
        assert check_cograded(d.mha, view_w).passed
        crossing = check_crossing(double_crossing(d), view_w)
        assert crossing.passed, crossing.text()
    _conclude(6, "crossed double passes the suite, grading and its own crossing", t)


def _deformation_suite(h, label):
    w = Window.full(h.group)
    act = adjoint_shuffle_action(h)
    assert check_crossing(act, w).passed
    d = deform(h, act, w)
    rep = full_suite(d, w)
    assert rep.passed, rep.text()
    # the counit is untouched, the antipode picks up the action
    g = h.group
    for p in w.elements:
        assert d.counit_covector(p) == h.counit_covector(p)
        t_target, m = d.antipode.fn(p)
        pinv = g.invert(p)
        s_target, sm = h.antipode.fn(p)
        assert t_target == act.rho.apply(pinv, s_target)
        assert m == act.block(pinv, s_target).compose(sm)
    phi = solve_left_integral(h, w).functional
    assert check_integral_membership(d, phi, "left", w).passed
    psi = solve_right_integral(h, w).functional
    psi_t = deformed_right_integral(h, act, psi)
    assert check_integral_membership(d, psi_t, "right", w).passed
    assert d.star is h.star
    assert check_star(d, w).passed


def test_criterion_07_deformation_suite():
    with Timer(30) as t:
        _deformation_suite(make_kg(s3_group()), "kg-s3")
        _deformation_suite(
            make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group()),
            "constant-cz2-s3",
        )
    _conclude(7, "deformations keep the axioms and twist the right integral", t)


def test_criterion_08_mirror_involution():
    with Timer(10) as t:
        for h in (
            make_kg(s3_group()),
            make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group()),
        ):
            rep = mirror_check(h, adjoint_shuffle_action(h), Window.full(h.group))
            assert rep.passed, rep.text()
    _conclude(8, "double deformation restores both crossing examples bit for bit", t)


def test_criterion_09_integers_window_regression():
    with Timer(10) as t:
        h = make_kg(integers_group())
        w = Window.integer_range(h.group, -5, 5)
        rep = full_suite(h, w)
        assert rep.passed, rep.text()
        assert rep.window == "-5..5"
        assert check_cograded(h, w).passed
        sol = solve_left_integral(h, w)
        assert sol.dimension == 1
        for n in range(-5, 6):
            assert sol.functional.covector(n) == (ONE,)
        delta = modular_element(h, sol.functional, w)
        assert delta.component(0) == (ONE,)
        family, sigma_rep = modular_automorphism(h, sol.functional, w)
        assert sigma_rep.passed
        pos = check_positive_integral(h, sol.functional, w)
        assert pos.passed
        assert pos.window == "-5..5"
    _conclude(9, "integer-group window regression with lazy components", t)


def test_criterion_10_double_integrals():
    with Timer(30) as t:
        for group, action_name in ((s3_group(), "trivial"), (s3_group(), "adjoint")):
            pairing = make_group_function_pairing(group)
            act = (
                trivial_action(pairing.b_side)
                if action_name == "trivial"
                else adjoint_shuffle_action(pairing.b_side)
            )
            d = build_double(pairing, act)
            w = Window.full(group)
            phi_a = solve_left_integral(pairing.a_side, w).functional
            psi_b = solve_right_integral(pairing.b_side, w).functional
            result = double_right_integral(d, phi_a, psi_b)
            assert result.report.passed, result.report.text()
            assert result.scalar == ONE  # both sides unimodular
            names = {e.name for e in result.report.entries}
            assert "double-right-invariance" in names
            assert "integral-slice-identity" in names
            assert "positivity-scalar" in names
        # the small double: scaled Gram positivity, exactly
        pairing = make_group_function_pairing(cyclic_group(2))
        d = build_double(pairing, trivial_action(pairing.b_side))
        assert len(d.a_basis) * len(d.b_basis) == 4
        w = Window.full(pairing.group)
        phi_a = solve_left_integral(pairing.a_side, w).functional
        psi_b = solve_right_integral(pairing.b_side, w).functional
        result = double_right_integral(d, phi_a, psi_b)
        assert result.scalar == ONE
        assert result.report.passed, result.report.text()
        assert any(e.name == "scaled-gram-psd" and e.passed for e in result.report.entries)
    _conclude(10, "double integrals: membership, slice identity, scalar, positivity", t)


def test_criterion_11_reduced_dual_double():
    with Timer(60) as t:
        b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())
        act = adjoint_shuffle_action(b)
        rd = reduced_dual(b, action=act)
        assert rd.dual_action is not None
        w = Window.full(b.group)
        assert check_pairing(rd.pairing, w).passed
        assert induced_grading_check(rd.pairing, w).passed
        assert full_suite(rd.structure, w).passed
        d = build_double(rd.pairing, act)
        assert d.crossing
        rep = check_double_axioms(d)
        assert rep.passed, rep.text()
        view_w = Window.full(d.mha.group)
        assert check_cograded(d.mha, view_w).passed
        crossing = check_crossing(double_crossing(d), view_w)
        assert crossing.passed, crossing.text()
    _conclude(11, "finite-type dual double passes the suite with grading and crossing", t)


def test_criterion_12_cli_round_trip(tmp_path, capsys):
    with Timer(30) as t:
        out_path = tmp_path / "double-adjoint-s3.json"
        code = main([
            "double",
            "--pair", "builtin:pairing-gacs3",
            "--action", "adjoint",
            "--out", str(out_path),
        ])
        capsys.readouterr()
        assert code == 0
        first = verify_structure(load_structure(str(out_path)))
        assert first.passed, first.text()
        second = verify_structure(load_structure(str(out_path)))
        assert first.digest() == second.digest()
        assert first.to_json() == second.to_json()
    _conclude(12, "export, reload and re-verify agree digest for digest", t)

"""Pinned report digests of the built-in CLI pipelines and of failing reports.

A digest covers every entry's name, law, verdict and witness, so a change
that renames, reorders or rewords an entry, or flips a verdict, fails here.
A failing witness names the first basis tuple on which a law breaks, so the
failing pins also hold the order in which each checker walks the basis.
"""

import pytest

from cogradedhopf.algebras import COGRADED, GRADED, ComponentAlgebra, GradedAlgebra, check_graded_algebra
from cogradedhopf.cli import main
from cogradedhopf.cograded import (
    Action,
    check_admissible,
    check_cograded,
    check_crossing,
    mirror_check,
    trivial_action,
)
from cogradedhopf.double import (
    Pairing,
    TwistCalculus,
    build_module_actions,
    check_pairing,
    check_twist,
    make_group_function_pairing,
)
from cogradedhopf.exact import GR, ONE, ZERO, Matrix
from cogradedhopf.groups import Window, cyclic_group, finite_group_from_table, s3_group, trivial_self_action
from cogradedhopf.hopf import (
    ComponentMap,
    CogradedBlockDelta,
    GradedFunctional,
    MhaStructure,
    check_antipode,
    check_counit,
    check_faithful,
    check_positive_integral,
    check_star,
    check_t1_t2,
    make_constant_family,
    make_group_algebra,
    make_kg,
    make_ungraded_group_algebra,
)
from cogradedhopf.specfile import load_spec_file, spec_digest

VERIFY = {
    "kg-s3": "51ccd01fc47b871c350d5c95be6f7e1f9e872733e874db9525351bf4c3478fe3",
    "kg-z2": "c65b571cdad4c0ea3fdb9fcfbdc5150186bc000c8a8eadbf5b3cf2dfa03ee75e",
    "kg-z3": "08f0edf2f18ab7d04dcd1d6b0e01b51b4851045dad81d5af1caaeb23ff3715a2",
    "kg-integers": "a9d357559f98f38f307cbca75262b15c64bbb4305c354c7f25284394ca525f10",
    "group-algebra-s3": "392c60d76556ba974e88692951fff69c3191addf0b8325631ea623f1d4704857",
    "constant-cz2-s3": "af0501781c6b172667b7b55b490716780ec53a556eba3993289af4dc73e35496",
}

DUAL = {
    "kg-s3": "1238faa32068e73bafd37aeccb3e65d61fc46ea2d383648807101ed887ed71a3",
    "kg-z2": "a04b53c5bd919ebff4083c9faa6708153e6cbfa8ae00ce5e1840681e9b2d6790",
    "kg-z3": "d1e4d8dc23f0cd8077f3290f29c8f7b551fb85a5b7d5f0ffd7569b678a392afa",
    "group-algebra-s3": "1f2ee9058be765a9d1061cd3e9bd1dc4eaf6a1c111ce3b934e4caeff4ca7afee",
    "constant-cz2-s3": "8f1762bd6aaff0f8577c49dfd15fb8075676a78363f1f04c490fc9e2b68d4739",
}

# spec digests of the graded-mode exports written by ``dual builtin:<name> --out``
DUAL_EXPORT = {
    "kg-s3": "5c14894724a0c78ac5409f788c04f05559fb55adb27dcdb29d19feff4e667480",
    "kg-z2": "7524ab75cda3fcffcc4547f8ed563b38310b7c5745d86312b9b3bf92a67eb803",
    "kg-z3": "eb7b8f5b180c8948be46762ac61bc2e191d8d378aa4b81e02a4d2ceab0562a67",
    "group-algebra-s3": "353ef60c20c367589b1adc19957da3ec243069e24775703d669b019c04108d90",
    "constant-cz2-s3": "b24009fc1f0a1529d59127ebab1ad02c55cceb1be67fe0b7a021fd7ffd7a37cc",
}

# ``dual builtin:kg-integers --window=-2..2``: the dual of an infinite structure
DUAL_INTEGERS = "c3f1d051b6fc1050c084d00013bc6add77253743349a265b515c3f6042a5400f"

DOUBLE_GACS3_ADJOINT = "bac0b9f1dcf7ad3a042b9bfd180f019d50399cbdea08c3c2b4e537be7d1eb1f4"
VERIFY_DOUBLE_EXPORT = "ad4a6a3ba17bc19e1cab06b1913375e21cb65d031b882bf79fcaa640492de6bc"


def run_digest(capsys, argv):
    """Run the CLI; returns (exit status, the report digest it printed)."""
    status = main(argv)
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("report digest: ")]
    assert len(lines) == 1, out
    return status, lines[0].split(": ", 1)[1]


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_builtin_digest(capsys, name):
    assert run_digest(capsys, ["verify", "builtin:" + name]) == (0, VERIFY[name])


@pytest.mark.parametrize("name", sorted(DUAL))
def test_dual_builtin_digest(capsys, name):
    assert run_digest(capsys, ["dual", "builtin:" + name]) == (0, DUAL[name])


def test_dual_infinite_builtin_digest(capsys):
    argv = ["dual", "builtin:kg-integers", "--window=-2..2"]
    assert run_digest(capsys, argv) == (0, DUAL_INTEGERS)


@pytest.mark.parametrize("name", sorted(DUAL_EXPORT))
def test_dual_export_digest(capsys, tmp_path, name):
    path = str(tmp_path / "dual.json")
    assert run_digest(capsys, ["dual", "builtin:" + name, "--out", path]) == (0, DUAL[name])
    assert spec_digest(load_spec_file(path)) == DUAL_EXPORT[name]


def test_double_and_export_digests(capsys, tmp_path):
    path = str(tmp_path / "double-s3-adjoint.json")
    argv = ["double", "--pair", "builtin:pairing-gacs3", "--action", "adjoint", "--out", path]
    assert run_digest(capsys, argv) == (0, DOUBLE_GACS3_ADJOINT)
    assert run_digest(capsys, ["verify", path]) == (0, VERIFY_DOUBLE_EXPORT)


# -- failing reports ------------------------------------------------------------


S3 = Window.full(s3_group())
Z2 = Window.full(cyclic_group(2))
Z3 = Window.full(cyclic_group(3))


def with_parts(h, **parts):
    """The structure h with some of its maps replaced."""
    fields = dict(algebra=h.algebra, delta=h.delta, counit_fn=h.counit_fn,
                  antipode=h.antipode, star=h.star, label=h.label)
    fields.update(parts)
    return MhaStructure(**fields)


def scaled_pairing():
    """The S3 group-function pairing with its form set to 2 at (12)."""
    base = make_group_function_pairing(s3_group())
    return Pairing(base.a_side, base.b_side,
                   lambda p: Matrix.from_rows([[2 if p == "(12)" else 1]]), label="scaled")


def scale_action(b):
    """pi_p = 2 for p != e with the trivial self-action: no homomorphism."""
    g = b.group
    return Action(base=b, rho=trivial_self_action(g),
                  pi_fn=lambda p, q: Matrix.from_rows([[1 if p == g.identity else 2]]), label="scale")


def fibrewise_klein_action():
    """Automorphisms of the Klein fibre with non-abelian image but trivial rho."""
    klein = finite_group_from_table(
        ["00", "01", "10", "11"], [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], name="Z2xZ2")
    g = s3_group()
    b = make_constant_family(make_ungraded_group_algebra(klein), g)
    perms = {"e": (0, 1, 2), "(12)": (1, 0, 2), "(13)": (2, 1, 0), "(23)": (0, 2, 1),
             "(123)": (1, 2, 0), "(132)": (2, 0, 1)}

    def pi(p, q):
        rows = [[ZERO] * 4 for _ in range(4)]
        rows[0][0] = ONE
        for k in range(3):
            rows[perms[p][k] + 1][k + 1] = ONE
        return Matrix.from_rows(rows)

    return Action(base=b, rho=trivial_self_action(g), pi_fn=pi, label="fibrewise-s3")


def counit_two_kg_z2():
    g = cyclic_group(2)
    h = make_kg(g)
    return with_parts(h, counit_fn=lambda p: (GR(2),) if p == g.identity else (ZERO,),
                      label="kg-z2-broken-counit")


def identity_antipode_kg_z3():
    h = make_kg(cyclic_group(3))
    return with_parts(h, antipode=ComponentMap(h.algebra, h.algebra, lambda p: (p, Matrix.identity(1)),
                                               label="id"), label="kg-z3-broken-antipode")


def zero_delta_kg_z2():
    h = make_kg(cyclic_group(2))
    zero = Matrix.zeros(1, 1)
    return with_parts(h, delta=CogradedBlockDelta(h.algebra, lambda p, q: zero.sparse_columns()),
                      label="kg-z2-zero-delta")


def star_two_at_13_kg_s3():
    h = make_kg(s3_group())
    star = ComponentMap(h.algebra, h.algebra, lambda p: (p, Matrix.from_rows([[2 if p == "(13)" else 1]])),
                        antilinear=True, label="*")
    return with_parts(h, star=star, label="kg-bad-star")


def unit_two_at_23_kg_s3():
    g = s3_group()
    alg = GradedAlgebra(group=g, mode=COGRADED, label="bu", component_fn=lambda p: ComponentAlgebra.
                        from_structure_constants([[[1]]], unit=[2] if p == "(23)" else [1]))
    return MhaStructure(algebra=alg, delta=CogradedBlockDelta(alg, lambda p, q: [{0: ONE}]),
                        counit_fn=make_kg(g).counit_fn, label="bu",
                        antipode=ComponentMap(alg, alg, lambda p: (g.invert(p), Matrix.identity(1))))


def block_two_at_12_group_algebra():
    shared = ComponentAlgebra(1)
    return GradedAlgebra(group=s3_group(), mode=GRADED, component_fn=lambda p: shared,
                         block_fn=lambda p, q: {(0, 0): {0: GR(2) if p == "(12)" else ONE}},
                         unit_components={"e": (ONE,)}, label="bad-graded")


def broken_component_algebra():
    g = cyclic_group(2)
    broken = ComponentAlgebra.from_structure_constants([[[1, 0], [0, 1]], [[1, 0], [1, 0]]], unit=[1, 0])
    good = ComponentAlgebra.from_structure_constants([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], unit=[1, 0])
    return GradedAlgebra(group=g, mode=COGRADED, component_fn=lambda p: broken if p == "e" else good,
                         label="broken")


def degenerate_pairing():
    base = make_group_function_pairing(cyclic_group(2))
    return Pairing(base.a_side, base.b_side,
                   lambda p: Matrix.from_rows([[0 if p == "g1" else 1]]), label="degenerate")


def diag_i_action():
    """pi_p = diag(1, i) for p != e on the constant C[Z2] family: no star map."""
    b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())
    return Action(base=b, rho=trivial_self_action(b.group), label="i-cz",
                  pi_fn=lambda p, q: Matrix.from_rows([[1, 0], [0, GR.parse("1" if p == "e" else "i")]]))


def kg_s3_functional(values, label):
    h = make_kg(s3_group())
    return h, GradedFunctional(h.algebra, lambda p: (values(p),), label=label)


def kg_s3_trivial():
    h = make_kg(s3_group())
    return h, trivial_action(h)


def scale_twist():
    pairing = make_group_function_pairing(s3_group())
    return check_twist(TwistCalculus(pairing, scale_action(pairing.b_side)), S3)


FAILING = {
    "check_pairing scaled form": (
        lambda: check_pairing(scaled_pairing(), S3),
        "06ac964f771bd33c8d4894a8c9344601a7080b4a21b9096ad0fb7223f1680753"),
    "build_module_actions scaled form": (
        lambda: build_module_actions(scaled_pairing(), S3)[1],
        "dd8c251ab7fc59a88c900e84d8b23ed348df061184a2715c72e8964843195c2e"),
    "check_admissible scale on kg-s3": (
        lambda: check_admissible(scale_action(make_kg(s3_group())), S3).report,
        "9eb24b26c7fff3694e5692d9184169d7138798369d3e7402a603ff05ef46f254"),
    "check_twist scale on kg-s3": (
        scale_twist,
        "cbcda26a095a30b61f099a0d1b36b919dacf17bace7eb82a3684704293313790"),
    "check_counit counit 2 on kg-z2": (
        lambda: check_counit(counit_two_kg_z2(), Z2),
        "a7bc7671e0ddbc74e3956bd69be5ef739a3f0fdd17b54f7db0790e654e0df699"),
    "check_antipode identity on kg-z3": (
        lambda: check_antipode(identity_antipode_kg_z3(), Z3),
        "225c26799730ea46595df6645c1b2c47a03c1efdfb01933cdf5fc1b8d0ee43ce"),
    "check_t1_t2 zero delta on kg-z2": (
        lambda: check_t1_t2(zero_delta_kg_z2(), Z2),
        "043c6750ca07ad713c16620961fae5ac9c806ceb087516c3dea4929a1865162b"),
    "check_star star 2 at (13) on kg-s3": (
        lambda: check_star(star_two_at_13_kg_s3(), S3),
        "afdd112d02fd5fd2e392b37b1aea3a7c40f193578ad283874f25ed23f0a33447"),
    "check_faithful zero on kg-s3": (
        lambda: check_faithful(*kg_s3_functional(lambda p: ZERO, "0"), S3),
        "e9a35c8039406d466144d5b96b25ee22cd171045ad86d0ba05c234af1f539742"),
    "check_positive_integral signed on kg-s3": (
        lambda: check_positive_integral(
            *kg_s3_functional(lambda p: GR(-1) if p == "(12)" else ONE, "signed"), S3),
        "d1741f447e15c314748518966723c8c681dc2c51c32da01822f2c1c48e06fbec"),
    "check_graded_algebra broken component": (
        lambda: check_graded_algebra(broken_component_algebra(), Z2),
        "d4f9b6022d9f10cdf44a390c8a2e952e28bce1a971de15aa16a3a51ff90e1bc7"),
    "check_graded_algebra block 2 at (12)": (
        lambda: check_graded_algebra(block_two_at_12_group_algebra(), S3),
        "37d02d6efc7f4f74b4f2ad7c18df1865270b8f33b9f2f30e28316ec643ec7094"),
    "check_cograded group algebra": (
        lambda: check_cograded(make_group_algebra(s3_group()), S3),
        "11fc6ef3cb8a2fa6ba80175deab90ccd5f5e72e5c6290774817cc959bdaabaa9"),
    "check_cograded unit 2 at (23)": (
        lambda: check_cograded(unit_two_at_23_kg_s3(), S3),
        "7663edbe8b2a8596824f8736009ffe8e0c3ae2957b89412946028793a5090327"),
    "check_admissible condition three": (
        lambda: check_admissible(fibrewise_klein_action(), S3).report,
        "331a02cca70f402b0843b6f38746f6747ebcdc0e3c0036f2aeec04d812abc0ee"),
    "check_admissible diag(1, i) on cz2-s3": (
        lambda: check_admissible(diag_i_action(), S3).report,
        "f4eec2f141d55de40f233b252d7c89e2772c7603fdcdf005c12e417a49617d77"),
    "check_crossing trivial on kg-s3": (
        lambda: check_crossing(kg_s3_trivial()[1], S3),
        "284637b9d119f5915d1b1b6b5e979a262bb607883b7a4399b8c90c57f2ce01d5"),
    "mirror_check trivial on kg-s3": (
        lambda: mirror_check(*kg_s3_trivial(), S3),
        "7c02b3214e7163852bb8ecf77c7a4f177c49b58f6ccdce7152559dcb1a055fd5"),
    "check_pairing degenerate form": (
        lambda: check_pairing(degenerate_pairing(), Z2),
        "f69dc52f02f125ab43a8d753488b314e0ec26566a6c262fcb78f9d98c5b3bec1"),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_report_digest(name):
    build, digest = FAILING[name]
    rep = build()
    assert not rep.passed
    assert rep.digest() == digest, rep.text()

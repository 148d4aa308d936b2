"""The unit-reduced cut laws against the per-pair checkers they replaced.

``check_counit``, ``check_antipode`` and ``check_star`` test a cut law on a
component unit wherever the component is associative with a two-sided unit,
and skip the off-diagonal pairs of the product laws on which both sides
vanish. The oracles in ``oracles.py`` test every basis pair. Both must give
byte-identical reports, failing ones included, so the digests are compared.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogradedhopf.algebras import COGRADED, ComponentAlgebra, GradedAlgebra
from cogradedhopf.cograded import adjoint_shuffle_action, check_admissible, trivial_action
from cogradedhopf.double import build_double, make_group_function_pairing
from cogradedhopf.exact import GR, ONE, ZERO, Matrix
from cogradedhopf.groups import Window, cyclic_group, s3_group, trivial_group
from cogradedhopf.hopf import (
    CogradedBlockDelta,
    ComponentMap,
    DiagonalDelta,
    MhaStructure,
    check_antipode,
    check_counit,
    check_star,
    full_suite,
    make_constant_family,
)
from cogradedhopf.specfile import builtin_structure, structure_from_doc, structure_to_doc
from oracles import pair_action_morphism_witness, pair_check_antipode, pair_check_counit, pair_check_star
from test_digests import (
    counit_two_kg_z2,
    diag_i_action,
    fibrewise_klein_action,
    identity_antipode_kg_z3,
    scale_action,
    star_two_at_13_kg_s3,
    unit_two_at_23_kg_s3,
)

CHECKS = [(check_counit, pair_check_counit), (check_antipode, pair_check_antipode),
          (check_star, pair_check_star)]


def assert_matches_oracles(h, window):
    """Every checker's report equals its oracle's, digest and text."""
    for check, oracle in CHECKS:
        if check is check_star and h.star is None:
            continue
        got, want = check(h, window), oracle(h, window)
        assert got.digest() == want.digest(), got.text() + "\n---\n" + want.text()


def adjoint_view(g):
    pairing = make_group_function_pairing(g)
    return build_double(pairing, adjoint_shuffle_action(pairing.b_side)).mha


def idempotent_cz2(counit=(ONE, ZERO)):
    """C[Z2] in its idempotent basis f0, f1: the unit is f0 + f1, not e_0."""
    comp = ComponentAlgebra.from_structure_constants(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], unit=[1, 1], star=Matrix.identity(2))
    tg = trivial_group()
    alg = GradedAlgebra(group=tg, mode=COGRADED, component_fn=lambda p: comp, label="cz2-idempotent")
    cols = [{0: ONE, 3: ONE}, {1: ONE, 2: ONE}]  # Delta f_k = sum over i + j = k of f_i (x) f_j
    same = ComponentMap(alg, alg, lambda p: (p, Matrix.identity(2)), label="S")
    star = ComponentMap(alg, alg, lambda p: (p, Matrix.identity(2)), antilinear=True, label="*")
    return MhaStructure(algebra=alg, delta=DiagonalDelta(alg, lambda p: cols),
                        counit_fn=lambda p: counit, antipode=same, star=star, label="cz2-idempotent")


def nonassociative_at_e():
    """The constant C[Z2] family over Z2 with a non-associative, non-unital B_e."""
    g = cyclic_group(2)
    base = make_constant_family(idempotent_cz2(), g)
    broken = ComponentAlgebra.from_structure_constants([[[1, 0], [0, 1]], [[1, 0], [1, 0]]], unit=[1, 0])
    alg = GradedAlgebra(group=g, mode=COGRADED, label="broken-e",
                        component_fn=lambda p: broken if p == g.identity else base.algebra.component(p))
    return MhaStructure(
        algebra=alg, delta=CogradedBlockDelta(alg, base.delta.block_cols), counit_fn=base.counit_fn,
        antipode=ComponentMap(alg, alg, base.antipode.fn, label="S"),
        star=ComponentMap(alg, alg, base.star.fn, antilinear=True, label="*"), label="broken-e")


@pytest.mark.parametrize("name", ["kg-s3", "kg-z2", "kg-z3", "group-algebra-s3", "constant-cz2-s3"])
def test_builtins_match_the_per_pair_oracles(name):
    loaded = builtin_structure(name)
    assert_matches_oracles(loaded.structure, loaded.window)


@pytest.mark.parametrize("g", [cyclic_group(6), s3_group()], ids=["D(Z6)", "D(S3)"])
def test_adjoint_double_views_match_the_per_pair_oracles(g):
    view = adjoint_view(g)
    assert_matches_oracles(view, Window.full(view.group))


@pytest.mark.parametrize("build", [counit_two_kg_z2, identity_antipode_kg_z3, star_two_at_13_kg_s3,
                                   unit_two_at_23_kg_s3])
def test_failing_fixtures_match_the_per_pair_oracles(build):
    h = build()
    assert_matches_oracles(h, Window.full(h.group))


def test_idempotent_basis_takes_the_unit_from_the_unit_vector():
    h = make_constant_family(idempotent_cz2(), s3_group())
    w = Window.full(h.group)
    assert full_suite(h, w).passed
    assert h.cut_unit("(12)").comps == {"(12)": {0: ONE, 1: ONE}}
    assert_matches_oracles(h, w)
    mutant = make_constant_family(idempotent_cz2(counit=(ONE, GR(1, 1))), s3_group())
    assert not check_counit(mutant, w).passed
    assert_matches_oracles(mutant, w)


def test_nonassociative_component_takes_the_per_pair_walk():
    h = nonassociative_at_e()
    w = Window.full(h.group)
    assert h.cut_unit("e") is None and h.cut_unit("g1") is not None
    assert not check_counit(h, w).passed
    assert_matches_oracles(h, w)


@pytest.mark.parametrize("build", [
    lambda: trivial_action(builtin_structure("kg-s3").structure),
    lambda: adjoint_shuffle_action(builtin_structure("kg-s3").structure),
    lambda: adjoint_shuffle_action(builtin_structure("constant-cz2-s3").structure),
    lambda: scale_action(builtin_structure("kg-s3").structure),
    diag_i_action,
    fibrewise_klein_action,
])
def test_action_morphism_matches_the_per_pair_oracle(build):
    action = build()
    w = Window.full(action.base.group)
    entry = next(e for e in check_admissible(action, w).report.entries if e.name == "action-algebra-morphism")
    assert entry.witness == pair_action_morphism_witness(action, w)


def _leaves(doc):
    """Paths of every scalar in the five numeric sections of a spec document."""
    out = []

    def walk(value, path):
        if isinstance(value, str):
            out.append(path)
        elif isinstance(value, list):
            for k, item in enumerate(value):
                walk(item, path + (k,))
        elif isinstance(value, dict):
            for k in sorted(value):
                if k != "dim":
                    walk(value[k], path + (k,))

    for section in ("components", "delta", "counit", "antipode", "star"):
        walk(doc[section], (section,))
    return out


DOCS = {name: structure_to_doc(builtin_structure(name).structure) for name in ("kg-s3", "constant-cz2-s3")}
LEAVES = {name: _leaves(doc) for name, doc in DOCS.items()}


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(DOCS)), st.data(), st.sampled_from(["0", "1", "-1", "2", "i", "1/2"]))
def test_single_coefficient_mutants_match_the_per_pair_oracles(name, data, value):
    path = data.draw(st.sampled_from(LEAVES[name]))
    doc = json.loads(json.dumps(DOCS[name]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    loaded = structure_from_doc(doc)
    assert_matches_oracles(loaded.structure, loaded.window)


def test_counit_cuts_scale_with_basis_times_components(monkeypatch):
    view = adjoint_view(cyclic_group(6))
    w = Window.full(view.group)
    basis = view.algebra.basis_on(w)
    calls = []
    original = MhaStructure.coproduct_right_cut
    monkeypatch.setattr(MhaStructure, "coproduct_right_cut", lambda h, x, y: calls.append(1) or original(h, x, y))
    assert check_counit(view, w).passed
    assert len(calls) == len(basis) * len(w.elements) == 216  # not 36 * 36 basis pairs


def test_component_witnesses_are_computed_once_per_component(monkeypatch):
    # check_graded_algebra and the cut laws' unit reduction ask for the same
    # associativity and unit witnesses of every view component
    view = adjoint_view(s3_group())
    w = Window.full(view.group)
    scans = {"assoc": [], "unit": []}
    scan_assoc, scan_unit = ComponentAlgebra._scan_associativity, ComponentAlgebra._scan_unit
    monkeypatch.setattr(ComponentAlgebra, "_scan_associativity",
                        lambda comp: scans["assoc"].append(id(comp)) or scan_assoc(comp))
    monkeypatch.setattr(ComponentAlgebra, "_scan_unit", lambda comp: scans["unit"].append(id(comp)) or scan_unit(comp))
    assert full_suite(view, w).passed
    components = sorted(id(view.algebra.component(p)) for p in w.elements)
    assert sorted(scans["assoc"]) == sorted(scans["unit"]) == components

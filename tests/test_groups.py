"""Tests for group oracles, self-actions and windows."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cogradedhopf.groups import (
    GroupAxiomError,
    Window,
    adjoint_self_action,
    check_group_laws_on_window,
    check_self_action_on_window,
    cyclic_group,
    finite_group_from_table,
    integers_group,
    s3_group,
    trivial_group,
    trivial_self_action,
)


def test_z2_table():
    g = finite_group_from_table(["e", "a"], [[0, 1], [1, 0]], name="Z2")
    assert g.order == 2
    assert g.identity == "e"
    assert g.multiply("a", "a") == "e"
    assert g.invert("a") == "a"


def _s3_by_permutation_composition():
    # Independent oracle: compose permutation tuples directly (q first, then p).
    perms = {
        "e": (0, 1, 2),
        "(12)": (1, 0, 2),
        "(13)": (2, 1, 0),
        "(23)": (0, 2, 1),
        "(123)": (1, 2, 0),
        "(132)": (2, 0, 1),
    }
    by_perm = {v: k for k, v in perms.items()}

    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return by_perm[tuple(pa[pb[i]] for i in range(3))]

    return perms, mul


def test_s3_matches_permutation_composition_oracle():
    g = s3_group()
    assert g.order == 6
    perms, mul = _s3_by_permutation_composition()
    for a in perms:
        for b in perms:
            assert g.multiply(a, b) == mul(a, b)


def test_non_associative_table_names_triple():
    # Z3 table with one entry corrupted: breaks associativity (and more).
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
    with pytest.raises(GroupAxiomError):
        finite_group_from_table(["e", "a", "b"], table)


def test_table_without_identity_rejected():
    with pytest.raises(GroupAxiomError, match="identity"):
        finite_group_from_table(["a", "b"], [[0, 0], [0, 0]])


def test_integers_group():
    z = integers_group()
    assert z.multiply(2, 3) == 5
    assert z.invert(-4) == 4
    assert z.identity == 0
    assert not z.is_finite
    assert z.decode("-7") == -7


def test_adjoint_action_on_s3():
    g = s3_group()
    rho = adjoint_self_action(g)
    assert rho.apply("(12)", "(123)") == "(132)"
    for p in g.elements:
        assert rho.apply(p, "e") == "e"
        # defining property: rho_p(q) * p == p * q
        for q in g.elements:
            assert g.multiply(rho.apply(p, q), p) == g.multiply(p, q)


def test_adjoint_action_is_trivial_on_abelian():
    g = cyclic_group(4)
    rho = adjoint_self_action(g)
    for p in g.elements:
        for q in g.elements:
            assert rho.apply(p, q) == q


def test_trivial_action():
    g = s3_group()
    rho = trivial_self_action(g)
    assert all(rho.apply(p, q) == q for p in g.elements for q in g.elements)
    assert check_self_action_on_window(g, rho, Window.full(g)) is None


def test_action_composition_law_on_windows():
    g = s3_group()
    assert check_self_action_on_window(g, adjoint_self_action(g), Window.full(g)) is None
    z = integers_group()
    w = Window.integer_range(z, -3, 3)
    assert check_self_action_on_window(z, adjoint_self_action(z), w) is None


def test_window_normalization_adds_identity_and_inverses():
    z = integers_group()
    w = Window.of(z, [2, 5])
    assert 0 in w and -2 in w and -5 in w
    assert w.elements[0] == 0 or 0 in w.elements


def test_window_full_requires_finite():
    with pytest.raises(ValueError):
        Window.full(integers_group())
    g = trivial_group()
    assert Window.full(g).elements == ("e",)


def test_group_laws_on_integer_window():
    z = integers_group()
    assert check_group_laws_on_window(z, Window.integer_range(z, -4, 4)) is None


# -- generating sets -------------------------------------------------------------


def _permutation_table(n):
    """The symmetric group on n letters as (labels, index table); pq acts by q first."""
    perms = list(permutations(range(n)))
    index = {perm: i for i, perm in enumerate(perms)}
    return [str(perm) for perm in perms], [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]


def _table_of(g):
    return list(g.elements), [[g.index(g.multiply(a, b)) for b in g.elements] for a in g.elements]


CYCLIC = {"Z%d" % n: (["g%d" % k for k in range(n)], [[(i + j) % n for j in range(n)] for i in range(n)])
          for n in range(1, 13)}
TABLES = {
    **CYCLIC,
    "S3": _table_of(s3_group()),
    "Z2xZ2": (["00", "01", "10", "11"], [[i ^ j for j in range(4)] for i in range(4)]),
    "S4": _permutation_table(4),
}


@st.composite
def relabeled_groups(draw):
    """A table group from TABLES with its elements renamed and reordered."""
    name = draw(st.sampled_from(sorted(TABLES)))
    labels, table = TABLES[name]
    order = draw(st.permutations(range(len(labels))))
    position = {old: new for new, old in enumerate(order)}
    tag = draw(st.sampled_from(["x", "y_"]))
    relabeled = finite_group_from_table(
        ["%s%s" % (tag, labels[old]) for old in order],
        [[position[table[i][j]] for j in order] for i in order], name=name)
    return name, relabeled


def closure_from_identity(g, gens):
    """Every product of generators applied to e, by fixed-point iteration."""
    reached = {g.identity}
    while True:
        grown = reached | {g.multiply(s, p) for s in gens for p in reached}
        if grown == reached:
            return reached
        reached = grown


@given(relabeled_groups())
def test_generators_generate_the_window(named):
    name, g = named
    w = Window.full(g)
    gens = w.generators
    assert set(gens) <= set(w.elements)
    assert closure_from_identity(g, gens) == set(w.elements)
    assert Window.full(g).generators == gens == Window.of(g, g.elements).generators
    if name in CYCLIC:
        assert len(gens) == (g.order > 1)
    else:
        assert len(gens) == 2


@pytest.mark.parametrize("elements", [["(12)"], ["(123)"]])
def test_subgroup_window_generates_itself(elements):
    g = s3_group()
    w = Window.of(g, elements)
    assert w.generators is not None
    assert closure_from_identity(g, w.generators) == set(w.elements)


def test_non_closed_windows_have_no_generators():
    assert Window.of(s3_group(), ["(12)", "(13)"]).generators is None
    assert Window.integer_range(integers_group(), -5, 5).generators is None

"""Tests for graded algebras, elements, multipliers and tensor elements."""

import pytest

from cogradedhopf.algebras import (
    COGRADED,
    GRADED,
    ComponentAlgebra,
    GradedAlgebra,
    GradedMultiplier,
    TensorElement,
    check_graded_algebra,
)
from cogradedhopf.exact import GR, I, ONE, ZERO, Matrix
from cogradedhopf.groups import Window, cyclic_group, integers_group, s3_group


def one_dim_component():
    return ComponentAlgebra.from_structure_constants([[[1]]], unit=[1], star=Matrix.identity(1))


def kg_algebra(group):
    """Finitely supported functions on the group: one-dimensional components."""
    shared = one_dim_component()
    return GradedAlgebra(
        group=group, mode=COGRADED, component_fn=lambda p: shared, label="kg"
    )


def group_algebra(group):
    """Group algebra as a graded-mode algebra with one-dimensional components."""
    shared = ComponentAlgebra(1)  # no internal product; blocks carry it

    return GradedAlgebra(
        group=group,
        mode=GRADED,
        component_fn=lambda p: shared,
        block_fn=lambda p, q: Matrix.from_rows([[1]]),
        unit_components={group.identity: (ONE,)},
        label="group-algebra",
    )


def test_component_algebra_validates_z2_group_algebra():
    # C[Z2]: e0*e0=e0, e0*e1=e1*e0=e1, e1*e1=e0
    comp = ComponentAlgebra.from_structure_constants(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], unit=[1, 0], star=Matrix.identity(2)
    )
    assert comp.associativity_witness() is None
    assert comp.nondegeneracy_witness() is None
    assert comp.unit_witness() is None
    assert comp.star_witness() is None
    assert comp.product_vec((ZERO, ONE), (ZERO, ONE)) == {0: ONE}


def test_broken_associativity_is_witnessed():
    # oracle: (e1 e0) e1 = e0 e1 = e1 but e1 (e0 e1) = e1 e1 = e0
    comp = ComponentAlgebra.from_structure_constants(
        [[[1, 0], [0, 1]], [[1, 0], [1, 0]]]
    )
    assert comp.associativity_witness() is not None


def test_degenerate_component_is_witnessed():
    comp = ComponentAlgebra.from_structure_constants([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert comp.nondegeneracy_witness() is not None


def test_kg_multiplication_is_diagonal():
    g = s3_group()
    b = kg_algebra(g)
    dp = b.basis_element("(12)", 0)
    dq = b.basis_element("(123)", 0)
    assert (dp * dq).is_zero()  # distinct components annihilate
    assert dp * dp == dp  # idempotent indicator functions


def test_group_algebra_block_products():
    g = s3_group()
    a = group_algebra(g)
    u = a.basis_element("(12)", 0)
    v = a.basis_element("(123)", 0)
    assert (u * v) == a.basis_element(g.multiply("(12)", "(123)"), 0)
    unit = a.unit_element()
    assert unit * v == v and v * unit == v


def test_element_canonical_form_and_arithmetic():
    g = cyclic_group(3)
    b = kg_algebra(g)
    x = b.basis_element("e", 0) + b.basis_element("g1", 0).scale(GR(2))
    y = x - x
    assert y.is_zero() and y.comps == {}
    assert x.support() == ("e", "g1")
    assert (I * x).coeff("g1") == (GR(0, 2),)


def test_finite_support_closure_under_product():
    z = integers_group()
    b = kg_algebra(z)
    x = b.element({0: [1], 3: [2]})
    y = b.element({3: [1], 5: [1]})
    assert (x * y).support() == (3,)


def test_unit_multiplier_acts_as_identity():
    z = integers_group()
    b = kg_algebra(z)
    one = b.unit_multiplier()
    x = b.element({-2: [GR(1, 1)], 7: [3]})
    assert one.times(x, "left") == x
    assert one.times(x, "right") == x


def test_multiplier_cut_down_to_identity_component():
    g = s3_group()
    b = kg_algebra(g)
    cut = GradedMultiplier(
        b, lambda p: (ONE,) if p == "e" else (ZERO,), finite_support=frozenset(["e"])
    )
    x = b.element({"e": [5], "(12)": [1]})
    assert cut.times(x, "left") == b.element({"e": [5]})


def test_all_ones_multiplier_on_kz():
    z = integers_group()
    b = kg_algebra(z)
    ones = GradedMultiplier(b, lambda p: (ONE,))
    d3 = b.basis_element(3, 0)
    assert ones.times(d3, "left") == d3


def c2_algebra(group):
    """Cograded: every component is the group algebra of Z2."""
    shared = ComponentAlgebra.from_structure_constants(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], unit=[1, 0]
    )
    return GradedAlgebra(group=group, mode=COGRADED, component_fn=lambda p: shared)


def graded_c2_algebra(group):
    """Graded: (u_p (x) e_i)(u_q (x) e_j) = u_pq (x) e_(i+j mod 2)."""
    block = Matrix.from_rows([[1, 0, 0, 1], [0, 1, 1, 0]])
    return GradedAlgebra(
        group=group, mode=GRADED, component_fn=lambda p: ComponentAlgebra(2),
        block_fn=lambda p, q: block, unit_components={group.identity: (ONE, ZERO)},
    )


def assert_leg_routines(alg, window):
    """Every leg routine against its definition, on basis tensors and a sum."""
    g = alg.group
    basis = [x for (_, _, x) in alg.basis_on(window)]
    generic = basis[0].scale(GR(2, -1)) + basis[-1].scale(GR(-3, 4))
    factors = basis + [generic]
    cov = {p: (GR(1, 1), GR(-2))[:alg.dim(p)] for p in window.elements}

    def family(p):
        d = alg.dim(p)
        return g.invert(p), Matrix.from_rows(
            [[GR(r - c + 1, r * c - 1) for c in range(d)] for r in range(d)])

    def mapped(x):
        (p, v), = x.comps.items()
        target, m = family(p)
        return alg.element({target: m.apply(v)})

    def collapsed(x):
        (p, v), = x.comps.items()
        return sum((c * w for c, w in zip(cov[p], v)), ZERO)

    for x in basis:
        for z in basis:
            t = TensorElement.of_pair(x, z)
            for y in factors:
                assert t.mul_leg1_left(y) == TensorElement.of_pair(y * x, z)
                assert t.mul_leg1_right(y) == TensorElement.of_pair(x * y, z)
                assert t.mul_leg2_left(y) == TensorElement.of_pair(x, y * z)
                assert t.mul_leg2_right(y) == TensorElement.of_pair(x, z * y)
            assert t.apply_covector_leg1(cov.get) == z.scale(collapsed(x))
            assert t.apply_covector_leg2(cov.get) == x.scale(collapsed(z))
            assert t.map_leg1(family) == TensorElement.of_pair(mapped(x), z)
            assert t.map_leg2(family) == TensorElement.of_pair(x, mapped(z))
    # linearity in the tensor: a sum of basis tensors with complex weights
    t = TensorElement.of_pair(generic, basis[1]).add(TensorElement.of_pair(basis[2], generic))
    for y in factors:
        want = TensorElement.of_pair(generic, basis[1] * y).add(
            TensorElement.of_pair(basis[2], generic * y))
        assert t.mul_leg2_right(y) == want
        want = TensorElement.of_pair(y * generic, basis[1]).add(
            TensorElement.of_pair(y * basis[2], generic))
        assert t.mul_leg1_left(y) == want


def test_tensor_element_leg_operations():
    g = cyclic_group(2)
    b = kg_algebra(g)
    x = b.basis_element("e", 0)
    y = b.basis_element("g1", 0)
    t = TensorElement.of_pair(x, y)
    assert t.mul_leg2_right(y) == TensorElement.of_pair(x, y * y)
    assert t.flip() == TensorElement.of_pair(y, x)
    assert t.mul_leg2_right(x).is_zero()  # cograded: components clash
    assert (t - t).is_zero()
    s3 = s3_group()
    assert_leg_routines(c2_algebra(s3), Window.of(s3, ["e", "(12)", "(123)"]))
    assert_leg_routines(graded_c2_algebra(s3), Window.of(s3, ["e", "(12)", "(123)"]))
    assert_leg_routines(group_algebra(s3), Window.full(s3))
    with pytest.raises(ValueError):
        t.mul_leg1_left(c2_algebra(g).basis_element("e", 0))


def test_tensor_accumulate_never_stores_a_zero():
    b = c2_algebra(cyclic_group(2))
    x = b.element({"e": [1, 2], "g1": [0, 1]})
    y = b.element({"e": [GR(0, 1), 1]})
    t = TensorElement.of_pair(x, y)
    t.accumulate(TensorElement.of_pair(b.element({"e": [1, 0]}), y), GR(-1))
    # the (e, e) terms with first index 0 cancel; the block itself survives
    assert all(c for block in t.blocks.values() for c in block.values())
    assert t == TensorElement.of_pair(b.element({"e": [0, 2], "g1": [0, 1]}), y)
    t.accumulate_outer(x, y, GR(-1))
    t.accumulate_outer(b.element({"e": [1, 0]}), y)
    assert t.blocks == {} and t == TensorElement.zero(b, b)


def test_tensor_contract_product():
    g = cyclic_group(2)
    b = kg_algebra(g)
    x = b.basis_element("g1", 0)
    t = TensorElement.of_pair(x, x)
    assert t.contract_product() == x
    t2 = TensorElement.of_pair(x, b.basis_element("e", 0))
    assert t2.contract_product().is_zero()


def test_tensor_covector_collapse():
    g = cyclic_group(2)
    b = kg_algebra(g)
    x = b.basis_element("e", 0)
    y = b.basis_element("g1", 0)
    t = TensorElement.of_pair(x + y, y)

    def counit(p):
        return (ONE,) if p == "e" else (ZERO,)

    assert t.apply_covector_leg1(counit) == y


def test_check_graded_algebra_kg_s3_passes():
    g = s3_group()
    rep = check_graded_algebra(kg_algebra(g), Window.full(g))
    assert rep.passed, rep.text()


def test_check_graded_algebra_group_algebra_passes():
    g = s3_group()
    rep = check_graded_algebra(group_algebra(g), Window.full(g))
    assert rep.passed, rep.text()


def test_check_graded_algebra_catches_broken_component():
    g = cyclic_group(2)
    broken = ComponentAlgebra.from_structure_constants(
        [[[1, 0], [0, 1]], [[1, 0], [1, 0]]], unit=[1, 0]
    )
    good = ComponentAlgebra.from_structure_constants(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], unit=[1, 0]
    )
    b = GradedAlgebra(
        group=g,
        mode=COGRADED,
        component_fn=lambda p: broken if p == "e" else good,
        label="broken",
    )
    rep = check_graded_algebra(b, Window.full(g))
    assert not rep.passed
    failing = [e.name for e in rep.failures()]
    assert "component-associativity@e" in failing


def test_mismatched_parent_algebras_raise():
    g = cyclic_group(2)
    b1, b2 = kg_algebra(g), kg_algebra(g)
    with pytest.raises(ValueError):
        b1.multiply(b1.basis_element("e", 0), b2.basis_element("e", 0))

"""Tests for the exact Q(i) scalar and linear algebra kernel."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionGaussianRational
from cogradedhopf.exact import (
    GR,
    I,
    ONE,
    ZERO,
    Matrix,
    hermitian_psd,
    inverse,
    is_bijective,
    kernel,
    rank,
    rank_of_sparse_columns,
    rational_sqrt,
    rows_of_columns,
    solve_linear,
)

small_fractions = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=7
)
gr_strategy = st.builds(GR, small_fractions, small_fractions)
oracle_strategy = st.builds(FractionGaussianRational, small_fractions, small_fractions)


def _canonical(x) -> bool:
    """Each part is an int, or a Fraction that is not integral."""
    return all(type(part) is int or (type(part) is Fraction and part.denominator != 1)
               for part in (x.re, x.im))


# -- scalars ----------------------------------------------------------------


def _field_axioms(x, y, z, one):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if x:
        assert x * x.inverse() == one


def _conjugation_laws(x, y):
    assert x.conj().conj() == x
    assert (x * y).conj() == y.conj() * x.conj()


@given(gr_strategy, gr_strategy, gr_strategy)
@settings(max_examples=200)
def test_field_axioms_on_sampled_triples(x, y, z):
    _field_axioms(x, y, z, ONE)


@given(oracle_strategy, oracle_strategy, oracle_strategy)
@settings(max_examples=200)
def test_field_axioms_hold_for_the_fraction_pair_oracle(x, y, z):
    _field_axioms(x, y, z, FractionGaussianRational(1))


@given(gr_strategy, gr_strategy)
@settings(max_examples=200)
def test_conjugation_laws(x, y):
    _conjugation_laws(x, y)


@given(oracle_strategy, oracle_strategy)
@settings(max_examples=200)
def test_conjugation_laws_hold_for_the_fraction_pair_oracle(x, y):
    _conjugation_laws(x, y)


# small integers, the values the checkers meet most, beside general rationals
mixed_parts = st.one_of(st.integers(-3, 3), small_fractions)
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
scalar_ops = st.sampled_from(sorted(BINARY) + ["conj", "inverse"])


@given(mixed_parts, mixed_parts,
       st.lists(st.tuples(scalar_ops, mixed_parts, mixed_parts), max_size=12))
@settings(max_examples=300)
def test_operation_sequences_match_the_fraction_pair_oracle(re, im, steps):
    fast, slow = GR(re, im), FractionGaussianRational(re, im)
    for op, a, b in steps:
        if op in BINARY:
            # a bare int operand goes through coercion on both classes
            y_fast, y_slow = (a, a) if type(a) is int and b == 0 else (
                GR(a, b), FractionGaussianRational(a, b))
            if op == "/" and not y_slow:
                continue  # division by zero raises; tested below
            fast, slow = BINARY[op](fast, y_fast), BINARY[op](slow, y_slow)
        elif op == "inverse" and not slow:
            continue
        else:
            fast, slow = getattr(fast, op)(), getattr(slow, op)()
        assert str(fast) == str(slow)
        assert _canonical(fast), repr(fast)


def test_canonical_form_is_structural_equality():
    assert GR(Fraction(2, 4)) == GR(Fraction(1, 2))
    assert hash(GR(3)) == hash(GR(Fraction(6, 2)))
    assert GR(1, -1) != GR(1, 1)
    three = [GR(3), GR(Fraction(6, 2)), GR.parse("6/2"), GR._coerce(Fraction(6, 2))]
    assert len(set(three)) == 1 and all(x == GR(3) for x in three)
    assert {hash(x) for x in three} == {hash(GR(3))}
    for x in three + [GR(True), GR._coerce(True), GR.parse("6/2*i")]:
        assert _canonical(x) and type(x.re) is int, repr(x)
    assert GR(True) == ONE and GR.parse("6/2*i") == GR(0, 3)


def test_integral_results_are_stored_as_ints():
    half = GR(Fraction(1, 2), Fraction(-1, 2))
    assert half + half == GR(1, -1) and type((half + half).re) is int
    assert (GR(Fraction(2, 3)) * GR(Fraction(3, 2))).re == 1
    for x in (half, half * half, half - half, -half, half.conj(), half.inverse(), ONE / GR(3),
              GR.parse("1/2+3/4*i"), GR(Fraction(4, 2), Fraction(1, 3))):
        assert _canonical(x), repr(x)


def test_inverse_divides_exactly():
    # int parts: a plain "/" would give floats
    assert GR(2).inverse() == GR(Fraction(1, 2))
    assert GR(1, 1).inverse() == GR(Fraction(1, 2), Fraction(-1, 2))
    assert GR(0, 2).inverse() == GR(0, Fraction(-1, 2))
    assert ONE / GR(3) * GR(3) == ONE
    for x in (GR(2).inverse(), GR(1, 1).inverse(), GR(3) / GR(4)):
        assert type(x.re) is Fraction and _canonical(x)


@pytest.mark.parametrize(
    "text",
    ["0", "5", "-3/4", "i", "-i", "2/7*i", "1+1*i", "-2/3-5/9*i", "1/2+i"],
)
def test_scalar_string_round_trip(text):
    x = GR.parse(text)
    assert GR.parse(str(x)) == x


def test_scalar_rendering():
    assert str(GR(Fraction(4, 9))) == "4/9"
    assert str(GR(0, 1)) == "1*i"
    assert str(GR(1, Fraction(-1, 2))) == "1-1/2*i"
    assert str(GR(0)) == "0"


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


# -- solve / kernel / rank ---------------------------------------------------


def test_solve_identity_triple():
    m = Matrix.identity(3)
    sol = solve_linear(m.sparse_rows(), (ZERO, ONE, ZERO), 3)
    assert sol is not None
    assert sol.particular == (ZERO, ONE, ZERO)
    assert sol.kernel == ()


def test_solve_zero_map():
    m = Matrix.zeros(2, 2)
    sol = solve_linear(m.sparse_rows(), (ZERO, ZERO), 2)
    assert sol.particular == (ZERO, ZERO)
    assert sol.dimension == 2
    # explicit zero coefficients are the same zero map
    sol = solve_linear([{0: ZERO}, {0: ZERO, 1: ZERO}], (ZERO, ZERO), 2)
    assert sol.particular == (ZERO, ZERO)
    assert sol.dimension == 2


def test_solve_rank_one_complex_system():
    # Oracle (hand row-reduction): [[1, i], [-i, 1]] row-reduces to [[1, i], [0, 0]]
    # so rhs (1, -i) is consistent, the particular solution with the free
    # variable set to zero is (1, 0), and the kernel is spanned by (-i, 1).
    m = Matrix.from_rows([[ONE, I], [-I, ONE]])
    sol = solve_linear(m.sparse_rows(), (ONE, -I), 2)
    assert sol is not None
    assert sol.particular == (ONE, ZERO)
    assert len(sol.kernel) == 1
    assert sol.kernel[0] == (-I, ONE)
    # the same system with an explicit zero coefficient and a row of zeros
    rows = [{0: ONE, 1: I}, {0: -I, 1: ONE}, {0: ZERO}]
    assert solve_linear(rows, (ONE, -I, ZERO), 2) == sol


def test_solve_inconsistent_returns_none():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    assert solve_linear(m.sparse_rows(), (ONE, ZERO), 2) is None
    # an empty row, or one of explicit zeros, with a nonzero rhs reads 0 = rhs
    assert solve_linear([{0: ONE}, {}], (ONE, ONE), 2) is None
    assert solve_linear([{0: ONE}, {1: ZERO}], (ONE, I), 2) is None


def test_solve_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_linear(Matrix.identity(2).sparse_rows(), (ONE,), 2)


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(4)) == []
    assert len(kernel(Matrix.zeros(1, 3))) == 3


def test_kernel_rank_nullity_on_row():
    m = Matrix.from_rows([[1, 2, 3]])
    basis = kernel(m)
    assert len(basis) == 2  # rank-nullity: 3 columns, rank 1
    for v in basis:
        assert m.apply(v) == (ZERO,)


def _random_matrix(rng, rows, cols):
    def scalar():
        return GR(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), 1),
        )

    return Matrix.from_rows([[scalar() for _ in range(cols)] for _ in range(rows)])


def test_solve_then_remultiply_reproduces_rhs():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = tuple(GR(rng.randint(-3, 3)) for _ in range(cols))
        rhs = m.apply(x)
        sol = solve_linear(m.sparse_rows(), rhs, cols)
        assert sol is not None
        assert m.apply(sol.particular) == rhs
        for v in sol.kernel:
            assert m.apply(v) == (ZERO,) * rows
        # the kernel read from the augmented elimination matches a separate one
        assert sol.kernel == tuple(kernel(m))


def test_rank_plus_nullity_is_cols():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        assert rank(m) + len(kernel(m)) == cols


def _det2(m):
    return m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)


def test_is_bijective():
    assert is_bijective(Matrix.identity(2))
    assert not is_bijective(Matrix.zeros(2, 3))
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert bool(_det2(swap)) is True  # determinant oracle
    assert is_bijective(swap)
    assert not is_bijective(Matrix.from_rows([[1, 1], [1, 1]]))


def test_identity_is_one_shared_matrix_per_size():
    m = Matrix.identity(3)
    assert Matrix.identity(3) is m and Matrix.identity(2) is not m
    assert m.sparse_columns() is Matrix.identity(3).sparse_columns()
    assert m == Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AttributeError):
        m.rows = 2


def test_inverse_round_trip():
    m = Matrix.from_rows([[1, 1], [0, I]])
    assert m.matmul(inverse(m)) == Matrix.identity(2)
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 1], [1, 1]]))


def test_sparse_column_rank_matches_dense():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        sparse_cols = [
            {i: m.entry(i, j) for i in range(rows) if m.entry(i, j)} for j in range(cols)
        ]
        assert rank_of_sparse_columns(sparse_cols, rows) == rank(m)
        assert rows_of_columns(sparse_cols, rows) == m.sparse_rows()


# -- Hermitian PSD -----------------------------------------------------------


def _char_poly_coeffs(m):
    # Faddeev-LeVerrier: det(lambda*I - M) = lambda^n + c[1] lambda^(n-1) + ...
    n = m.rows
    coeffs = [ONE]
    mk = Matrix.zeros(n, n)
    for k in range(1, n + 1):
        mk = m.matmul(mk + Matrix.identity(n) * coeffs[-1]) if k > 1 else m
        trace = sum((mk.entry(i, i) for i in range(n)), ZERO)
        coeffs.append(trace * GR(Fraction(-1, k)))
    return coeffs


def _psd_by_char_poly(m):
    # PSD iff Hermitian and det(lambda I - M) = sum (-1)^j e_j lambda^(n-j)
    # with every principal-minor sum e_j >= 0.
    if m != m.conj_transpose():
        raise ValueError("not Hermitian")
    coeffs = _char_poly_coeffs(m)
    for j, c in enumerate(coeffs):
        e_j = c if j % 2 == 0 else -c
        if e_j.im != 0 or e_j.re < 0:
            return False
    return True


def test_hermitian_psd_basic_cases():
    assert hermitian_psd(Matrix.identity(3))
    assert hermitian_psd(Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 3]]))
    # eigenvalues 3 and -1 (oracle: trace 2, det -3)
    assert not hermitian_psd(Matrix.from_rows([[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        hermitian_psd(Matrix.from_rows([[0, 1], [0, 0]]))


def test_hermitian_psd_complex_entries():
    m = Matrix.from_rows([[GR(2), I], [-I, GR(2)]])  # eigenvalues 1 and 3
    assert hermitian_psd(m)
    m2 = Matrix.from_rows([[GR(1), 2 * I], [-2 * I, GR(1)]])  # eigenvalues -1, 3
    assert not hermitian_psd(m2)


def test_hermitian_psd_agrees_with_char_poly_oracle():
    rng = random.Random(19)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        raw = _random_matrix(rng, n, n)
        herm = raw + raw.conj_transpose()
        if rng.random() < 0.5:
            herm = herm.matmul(herm.conj_transpose())  # force a PSD sample
        assert hermitian_psd(herm) == _psd_by_char_poly(herm)
        checked += 1
    assert checked == 120


def test_hermitian_psd_integer_matrix_with_fraction_pivots():
    # pivots 2, 3/2, 4/3: positive definite, the tridiagonal [2 -1; -1 2 -1; -1 2]
    m = Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert hermitian_psd(m) and _psd_by_char_poly(m)
    # pivots 2, then 1/2 - 1 = -1/2: indefinite
    m = Matrix.from_rows([[2, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert not hermitian_psd(m) and not _psd_by_char_poly(m)


def test_psd_zero_diagonal_with_offdiagonal_is_refused():
    assert not hermitian_psd(Matrix.from_rows([[0, 1], [1, 0]]))


# -- tensor products ---------------------------------------------------------


def test_kron_dimensions_multiply():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1, 0], [1, 0, 0]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (4, 6)
    # spot-check the row-major index convention: k[(i1*2+i2),(j1*3+j2)] = a[i1][j1]*b[i2][j2]
    assert k.entry(0, 1) == GR(1)  # a[0][0]*b[0][1]
    assert k.entry(2, 4) == GR(4)  # a[1][1]*b[0][1]
    assert k.entry(3, 3) == GR(4)  # a[1][1]*b[1][0]


def test_kron_mixed_product_rule():
    rng = random.Random(23)
    for _ in range(10):
        a = _random_matrix(rng, 2, 2)
        b = _random_matrix(rng, 2, 3)
        c = _random_matrix(rng, 2, 2)
        d = _random_matrix(rng, 3, 2)
        left = a.kron(b).matmul(c.kron(d))
        right = a.matmul(c).kron(b.matmul(d))
        assert left == right


# -- rational square roots ---------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (GR(1), GR(1)),
        (GR(Fraction(4, 9)), GR(Fraction(2, 3))),
        (GR(0), GR(0)),
        (GR(Fraction(49, 16)), GR(Fraction(7, 4))),
    ],
)
def test_rational_sqrt_perfect_squares(value, expected):
    assert rational_sqrt(value) == expected


@pytest.mark.parametrize("value", [GR(2), GR(-1), GR(0, 1), GR(Fraction(1, 2))])
def test_rational_sqrt_not_representable(value):
    assert rational_sqrt(value) is None

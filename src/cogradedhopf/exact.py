"""Exact scalars in Q(i) and the dense/sparse linear algebra kernel.

Every layer above this one stores its coefficients as :class:`GaussianRational`
and does its linear algebra through the functions here: solving, kernels,
ranks, inverses, Kronecker products and an exact positive-semidefiniteness
decision.  There is no floating point anywhere; equality of scalars, vectors
and matrices is structural equality of canonical forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rationalish = Union[int, Fraction]


def _fraction_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), both parts arbitrary-precision rationals.

    Fraction keeps numerator/denominator reduced with positive denominator,
    so instances are canonical and ``==`` is structural.
    """

    re: Fraction
    im: Fraction

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))

    @staticmethod
    def _try_coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # fast constructor for arithmetic: arguments are already Fractions
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def __add__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        sim, oim = self.im, o.im
        if not sim and not oim:  # the dominant, purely real case
            return GaussianRational._raw(self.re * o.re, sim)
        return GaussianRational._raw(
            self.re * o.re - sim * oim, self.re * oim + sim * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return _fraction_str(self.re)
        imag = _fraction_str(abs(self.im)) + "*i"
        if self.re == 0:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return _fraction_str(self.re) + sign + imag

    def __repr__(self) -> str:
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse the canonical forms "a/b", "c/d*i", "a/b+c/d*i" (also bare "i")."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        if not s.endswith("i"):
            return GaussianRational(Fraction(s))
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        # split off a leading real part, if any
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/*":
                split = k
                break
        real = Fraction(0)
        if split > 0:
            real = Fraction(body[:split])
            body = body[split:]
        if body in ("", "+"):
            imag = Fraction(1)
        elif body == "-":
            imag = Fraction(-1)
        else:
            imag = Fraction(body)
        return GaussianRational(real, imag)


GR = GaussianRational
ZERO = GR(0)
ONE = GR(1)
I = GR(0, 1)


def as_scalar(x) -> GR:
    return GR._coerce(x)


Vector = tuple  # tuple of GaussianRational


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x: Vector) -> Vector:
    c = as_scalar(c)
    return tuple(c * a for a in x)


def vec_is_zero(x: Vector) -> bool:
    return all(not a for a in x)


def accumulate(acc: dict, row, scale=None) -> None:
    """Add ``scale`` times a sparse row into ``acc`` in place, pruning zeros.

    ``row`` is a dict or an iterable of (key, coefficient) pairs; ``scale``
    defaults to one. A key whose sum cancels is removed, so sparse results
    never hold a zero and compare as dicts.
    """
    if isinstance(row, dict):
        row = row.items()
    for k, c in row:
        if scale is not None:
            c = scale * c
        old = acc.get(k)
        if old is not None:
            c = old + c
        if c:
            acc[k] = c
        elif old is not None:
            del acc[k]


def kron_index(i: int, j: int, dim2: int) -> int:
    """Index of e_i (x) f_j in the row-major tensor basis."""
    return i * dim2 + j


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over Q(i)."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(as_scalar(e) for e in row) for row in rows)
        n = len(data)
        m = len(data[0]) if n else 0
        if any(len(row) != m for row in data):
            raise ValueError("ragged rows")
        return Matrix(n, m, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    @staticmethod
    def column(entries: Iterable) -> "Matrix":
        col = [as_scalar(e) for e in entries]
        return Matrix(len(col), 1, tuple((e,) for e in col))

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        cols = [vector(c) for c in cols]
        if not cols:
            return Matrix.zeros(0, 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged columns")
        return Matrix(n, len(cols), tuple(tuple(c[i] for c in cols) for i in range(n)))

    def entry(self, i: int, j: int) -> GR:
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def sparse_columns(self) -> list:
        """The columns as sparse dicts row -> nonzero entry."""
        return [
            {i: row[j] for i, row in enumerate(self.entries) if row[j]}
            for j in range(self.cols)
        ]

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(
            self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries)
        )

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        c = as_scalar(other)
        return Matrix(
            self.rows, self.cols, tuple(tuple(c * a for a in row) for row in self.entries)
        )

    def __rmul__(self, other):
        c = as_scalar(other)
        return self.__mul__(c)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        ot = other.transpose().entries
        out = []
        for row in self.entries:
            out_row = []
            for col in ot:
                acc = ZERO
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Vector) -> Vector:
        """Matrix times column vector, as tuples."""
        if len(vec) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vec), self.cols))
        nz = [(j, b) for j, b in enumerate(vec) if b]
        if not nz:
            return (ZERO,) * self.rows
        out = [ZERO] * self.rows
        for j, b in nz:
            for i, row in enumerate(self.entries):
                a = row[j]
                if a:
                    out[i] = out[i] + a * b
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def conj(self) -> "Matrix":
        return Matrix(
            self.rows, self.cols, tuple(tuple(a.conj() for a in row) for row in self.entries)
        )

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; tensor index (i,j) -> i*dim2 + j in both legs."""
        rows = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.entries[i][j]
                    if a:
                        row.extend(a * b for b in other.entries[k])
                    else:
                        row.extend((ZERO,) * other.cols)
                rows.append(tuple(row))
        return Matrix(self.rows * other.rows, self.cols * other.cols, tuple(rows))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(a) for a in row) for row in self.entries) + "]"


# ---------------------------------------------------------------------------
# Gaussian elimination on sparse rows.
#
# All rank/solve/kernel computations funnel through one reduction routine so
# that small dense matrices and the large, very sparse block maps built by the
# axiom checkers share the same exact code path.
# ---------------------------------------------------------------------------

def _sparse_rows_of(m: Matrix) -> list:
    rows = []
    for row in m.entries:
        rows.append({j: a for j, a in enumerate(row) if a})
    return rows


def _reduced_echelon(rows: list, ncols: int) -> "tuple[list, list]":
    """Gauss-Jordan on sparse rows; returns (reduced rows, pivot columns).

    Rows are inserted one at a time, reduced against the pivots found so far,
    and back-eliminated, so the output is the (unique) reduced row echelon
    form. Cost is proportional to fill-in, which keeps the very sparse block
    maps produced by the axiom checkers cheap.
    """
    pivot_rows: dict = {}  # pivot col -> normalized row dict
    occupancy: dict = {}  # col -> set of pivot cols whose rows contain col
    for incoming in rows:
        r = {j: a for j, a in incoming.items() if a}
        # eliminate existing pivot columns from the incoming row
        for c in sorted(r):
            if c in pivot_rows and c in r:
                factor = r[c]
                for j, a in pivot_rows[c].items():
                    val = r.get(j, ZERO) - factor * a
                    if val:
                        r[j] = val
                    else:
                        r.pop(j, None)
        if not r:
            continue
        p = min(r)
        inv = r[p].inverse()
        r = {j: inv * a for j, a in r.items()}
        # back-eliminate the new pivot column from stored rows
        for owner in list(occupancy.get(p, ())):
            row = pivot_rows[owner]
            factor = row[p]
            for j, a in r.items():
                val = row.get(j, ZERO) - factor * a
                if val:
                    if j not in row:
                        occupancy.setdefault(j, set()).add(owner)
                    row[j] = val
                else:
                    if j in row:
                        occupancy.get(j, set()).discard(owner)
                    row.pop(j, None)
        occupancy.pop(p, None)
        pivot_rows[p] = r
        for j in r:
            if j != p:
                occupancy.setdefault(j, set()).add(p)
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def rank(m: Matrix) -> int:
    _, pivots = _reduced_echelon(_sparse_rows_of(m), m.cols)
    return len(pivots)


def rank_of_sparse_columns(columns: list, nrows: int) -> int:
    """Rank of the matrix whose j-th column is the sparse dict columns[j]."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for i, a in col.items():
            if a:
                rows.setdefault(i, {})[j] = a
    _, pivots = _reduced_echelon(list(rows.values()), len(columns))
    return len(pivots)


def _kernel_from_echelon(red: list, pivots: list, ncols: int) -> list:
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for pcol, row in zip(pivots, red):
            a = row.get(f)
            if a:
                v[pcol] = -a
        basis.append(tuple(v))
    return basis


def kernel(m: Matrix) -> list:
    """Exact basis of the null space, as a list of tuple vectors."""
    red, pivots = _reduced_echelon(_sparse_rows_of(m), m.cols)
    return _kernel_from_echelon(red, pivots, m.cols)


def kernel_of_sparse_rows(rows: list, ncols: int) -> list:
    red, pivots = _reduced_echelon(rows, ncols)
    return _kernel_from_echelon(red, pivots, ncols)


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution together with a basis of the homogeneous kernel."""

    particular: Vector
    kernel: tuple

    @property
    def dimension(self) -> int:
        return len(self.kernel)


def solve_linear(m: Matrix, rhs) -> Optional[LinearSolution]:
    """Solve m*x = rhs exactly; None means the system is inconsistent.

    ``rhs`` may be a column Matrix or a tuple vector of length m.rows.
    """
    if isinstance(rhs, Matrix):
        if rhs.cols != 1:
            raise ValueError("rhs must be a single column")
        rhs = rhs.col(0)
    else:
        rhs = vector(rhs)
    if len(rhs) != m.rows:
        raise ValueError("rhs length %d, expected %d" % (len(rhs), m.rows))
    ncols = m.cols
    aug_rows = []
    for i in range(m.rows):
        r = {j: a for j, a in enumerate(m.entries[i]) if a}
        if rhs[i]:
            r[ncols] = rhs[i]
        if r:
            aug_rows.append(r)
    red, pivots = _reduced_echelon(aug_rows, ncols + 1)
    if ncols in pivots:
        return None
    particular = [ZERO] * ncols
    for pcol, row in zip(pivots, red):
        particular[pcol] = row.get(ncols, ZERO)
    return LinearSolution(tuple(particular), tuple(kernel(m)))


def is_bijective(m: Matrix) -> bool:
    return m.is_square() and rank(m) == m.rows


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on non-square or singular input."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [
        {j: a for j, a in enumerate(row) if a} for row in m.entries
    ]
    for i in range(n):
        aug[i][n + i] = ONE
    red, pivots = _reduced_echelon(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    rows = []
    for row in red[:n]:
        rows.append(tuple(row.get(n + j, ZERO) for j in range(n)))
    return Matrix(n, n, tuple(rows))


def hermitian_psd(m: Matrix) -> bool:
    """Exact PSD decision for a Hermitian matrix by pivoted LDL*.

    Raises ValueError when the input is not Hermitian. Diagonal pivoting over
    the rationals: a negative pivot, or a zero diagonal with a nonzero
    residual row, refutes positive semidefiniteness.
    """
    if not m.is_square():
        raise ValueError("hermitian_psd needs a square matrix")
    if m != m.conj_transpose():
        raise ValueError("matrix is not Hermitian")
    n = m.rows
    a = {
        (i, j): m.entries[i][j]
        for i in range(n)
        for j in range(n)
        if m.entries[i][j]
    }
    remaining = list(range(n))
    while remaining:
        pivot = None
        for i in remaining:
            d = a.get((i, i), ZERO)
            if d.im != 0:
                return False  # non-real diagonal cannot happen for Hermitian input
            if d.re > 0:
                pivot = i
                break
        if pivot is None:
            # all remaining diagonal entries are <= 0
            for i in remaining:
                d = a.get((i, i), ZERO)
                if d.re < 0:
                    return False
            # zero diagonal: PSD forces the whole residual block to vanish
            for i in remaining:
                for j in remaining:
                    if a.get((i, j), ZERO):
                        return False
            return True
        remaining.remove(pivot)
        d = a[(pivot, pivot)]
        col = {i: a[(i, pivot)] for i in remaining if (i, pivot) in a}
        for i in col:
            ci = col[i]
            for j in remaining:
                cj = col.get(j)
                if cj:
                    val = a.get((i, j), ZERO) - ci * cj.conj() / d
                    if val:
                        a[(i, j)] = val
                    else:
                        a.pop((i, j), None)
        for i in remaining:
            a.pop((i, pivot), None)
            a.pop((pivot, i), None)
    return True


def rational_sqrt(x: GR) -> Optional[GR]:
    """Exact square root of a nonnegative rational, when one exists in Q.

    Returns None ("not representable") for negative, non-real or non-square
    inputs; that outcome is a value, not an error.
    """
    x = as_scalar(x)
    if x.im != 0 or x.re < 0:
        return None
    num, den = x.re.numerator, x.re.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return GR(Fraction(rn, rd))

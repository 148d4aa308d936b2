"""Exact scalars in Q(i) and the sparse linear algebra kernel.

Every layer above this one stores its coefficients as :class:`GaussianRational`
and does its linear algebra through the functions here: sparse matrices and
their products, solving, kernels, ranks, inverses and an exact
positive-semidefiniteness decision.  There is no floating point anywhere; equality of scalars, vectors
and matrices is structural equality of canonical forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional, Sequence, Union

Rationalish = Union[int, Fraction]


def _fraction_str(x: Rationalish) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), both parts arbitrary-precision rationals.

    Each part is an ``int`` when it is integral and a reduced ``Fraction``
    otherwise, never a ``Fraction`` with denominator 1, so instances are
    canonical and ``==`` is structural. Most coefficients the checkers meet
    are small integers, and int arithmetic is several times cheaper.
    """

    re: Rationalish
    im: Rationalish

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        _set_re(self, _part(re))
        _set_im(self, _part(im))

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

    @staticmethod
    def _raw(re: Rationalish, im: Rationalish) -> "GaussianRational":
        # fast constructor for arithmetic: each part is an int or a Fraction,
        # and a Fraction that turned out integral becomes its numerator
        if type(re) is not int and re.denominator == 1:
            re = re.numerator
        if type(im) is not int and im.denominator == 1:
            im = im.numerator
        out = _new(GaussianRational)
        _set_re(out, re)
        _set_im(out, im)
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
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self

    def conj(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # through Fraction: int / int would be a float
        return GaussianRational._raw(Fraction(self.re, n), Fraction(-self.im, n))

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


_new = object.__new__
# the slot setters write past the frozen dataclass's __setattr__
_set_re = GaussianRational.__dict__["re"].__set__
_set_im = GaussianRational.__dict__["im"].__set__


def _part(x) -> Rationalish:
    """The canonical form of one part: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


GR = GaussianRational
ZERO = GR(0)
ONE = GR(1)
I = GR(0, 1)


def as_scalar(x) -> GR:
    return GR._coerce(x)


Vector = tuple  # tuple of GaussianRational


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


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


@dataclass(frozen=True)
class Matrix:
    """Immutable sparse matrix over Q(i), stored by its columns.

    ``columns[j]`` maps each row index to the nonzero entry of column j. No
    zero is ever stored, so ``==`` compares shapes and dicts. The column
    dicts are shared with every caller and must not be mutated.
    """

    rows: int
    cols: int
    columns: list  # of dicts row -> nonzero entry

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        """The matrix with the given dense rows, the form spec files use."""
        data = [vector(row) for row in rows]
        n = len(data)
        m = len(data[0]) if n else 0
        if any(len(row) != m for row in data):
            raise ValueError("ragged rows")
        return Matrix(n, m, [{i: row[j] for i, row in enumerate(data) if row[j]} for j in range(m)])

    @staticmethod
    def from_columns(cols: Iterable[dict], rows: int) -> "Matrix":
        """The matrix with ``rows`` rows and the given sparse columns, zeros dropped."""
        columns = [{i: a for i, a in col.items() if a} for col in cols]
        return Matrix(rows, len(columns), columns)

    @staticmethod
    @cache
    def identity(n: int) -> "Matrix":
        """The n x n identity: one shared immutable matrix per size."""
        return Matrix(n, n, [{j: ONE} for j in range(n)])

    def entry(self, i: int, j: int) -> GR:
        return self.columns[j].get(i, ZERO)

    def sparse_columns(self) -> list:
        return self.columns

    def sparse_rows(self) -> list:
        """The rows as sparse dicts column -> nonzero entry.

        Computed once per matrix and shared by every caller, so the dicts
        must not be mutated.
        """
        rows = self.__dict__.get("_sparse_rows")
        if rows is None:
            rows = rows_of_columns(self.columns, self.rows)
            object.__setattr__(self, "_sparse_rows", rows)
        return rows

    def apply(self, v: dict, antilinear: bool = False) -> dict:
        """The image of the sparse vector v {index: nonzero}: M v, or M conj(v)
        when ``antilinear``."""
        out: dict = {}
        cols = self.columns
        for k, c in v.items():
            if antilinear:
                c = c.conj()
            if out:
                accumulate(out, cols[k], c)
            else:  # nothing to add to yet, and Q(i) has no zero divisors
                out = {i: c * a for i, a in cols[k].items()}
        return out

    def compose(self, other: "Matrix") -> "Matrix":
        """The product self @ other, one sparse column of other at a time."""
        if self.cols != other.rows:
            raise ValueError(
                "cannot compose %dx%d with %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        return Matrix(self.rows, other.cols, [self.apply(col) for col in other.columns])

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.sparse_rows())

    def conj(self) -> "Matrix":
        return Matrix(
            self.rows, self.cols, [{i: a.conj() for i, a in col.items()} for col in self.columns]
        )

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()


# ---------------------------------------------------------------------------
# Gaussian elimination on sparse rows.
#
# All rank/solve/kernel computations funnel through one reduction routine so
# that small dense matrices and the large, very sparse block maps built by the
# axiom checkers share the same exact code path.
# ---------------------------------------------------------------------------

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
    _, pivots = _reduced_echelon(m.sparse_rows(), m.cols)
    return len(pivots)


def rows_of_columns(columns: list, nrows: int) -> list:
    """The sparse rows of the nrows-row matrix whose j-th column is columns[j]."""
    rows: list = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, a in col.items():
            rows[i][j] = a
    return rows


def rank_of_sparse_columns(columns: list, nrows: int) -> int:
    """Rank of the matrix whose j-th column is the sparse dict columns[j]."""
    _, pivots = _reduced_echelon(rows_of_columns(columns, nrows), len(columns))
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
    return kernel_of_sparse_rows(m.sparse_rows(), m.cols)


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


def solve_linear(rows: list, rhs, ncols: int) -> Optional[LinearSolution]:
    """Solve rows * x = rhs exactly; None means the system is inconsistent.

    ``rows`` are sparse dicts column -> coefficient over ``ncols`` unknowns,
    and ``rhs`` holds one right-hand side per row. The particular solution
    and the kernel are read from one reduced echelon form: its rhs column is
    not a pivot when the system is consistent, so its other columns are the
    reduced echelon form of the rows alone.
    """
    rhs = vector(rhs)
    if len(rhs) != len(rows):
        raise ValueError("rhs length %d, expected %d" % (len(rhs), len(rows)))
    aug_rows = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
    red, pivots = _reduced_echelon(aug_rows, ncols + 1)
    if ncols in pivots:
        return None
    particular = [ZERO] * ncols
    for pcol, row in zip(pivots, red):
        particular[pcol] = row.get(ncols, ZERO)
    return LinearSolution(tuple(particular), tuple(_kernel_from_echelon(red, pivots, ncols)))


def is_bijective(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on non-square or singular input.

    The columns of M are the rows of M^T, and reducing [M^T | I] to
    [I | (M^T)^-1] leaves column i of M^-1 in row i.
    """
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [{**col, n + i: ONE} for i, col in enumerate(m.columns)]
    red, pivots = _reduced_echelon(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, [{j - n: a for j, a in row.items() if j >= n} for row in red[:n]])


def hermitian_psd(m: Matrix) -> bool:
    """Exact PSD decision for a Hermitian matrix by pivoted LDL*.

    Raises ValueError when the input is not Hermitian. Diagonal pivoting over
    the rationals: a negative pivot, or a zero diagonal with a nonzero
    residual row, refutes positive semidefiniteness.
    """
    if m.rows != m.cols:
        raise ValueError("hermitian_psd needs a square matrix")
    if m != m.conj_transpose():
        raise ValueError("matrix is not Hermitian")
    n = m.rows
    a = {(i, j): x for j, col in enumerate(m.columns) for i, x in col.items()}
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

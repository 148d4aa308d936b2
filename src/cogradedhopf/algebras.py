"""Graded algebras over a group with exact structure-constant components.

A :class:`GradedAlgebra` is a family of finite-dimensional components indexed
by group elements, together with block product maps. Two modes exist:

* ``cograded``: components are unital algebras and the product is diagonal,
  components with distinct indices multiply to zero;
* ``graded``: the product of the p- and q-components lands in the
  (p*q)-component through explicit block matrices.

Elements have finite support; multipliers are lazy families of one component
vector per group element, compared only on explicit windows. Components are
instantiated lazily and memoized, so infinite index groups cost nothing until
a component is touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .exact import (
    GR,
    ONE,
    ZERO,
    Matrix,
    accumulate,
    as_scalar,
    kernel_of_sparse_rows,
    vector,
)
from .groups import GroupOracle, Window


def _nonzero(v) -> list:
    """The (index, coefficient) pairs of the nonzero entries of a vector."""
    return [(i, a) for i, a in enumerate(v) if a]


def _bilinear(table: dict, xs, ys) -> dict:
    """The sparse bilinear product: the sum of x_i y_j table[(i, j)].

    ``xs`` and ``ys`` are lists of (index, coefficient) pairs and ``table``
    maps index pairs to sparse rows {k: coeff}.
    """
    out: dict = {}
    for i, xi in xs:
        for j, yj in ys:
            entry = table.get((i, j))
            if entry:
                accumulate(out, entry, xi * yj)
    return out


class ComponentAlgebra:
    """A finite-dimensional algebra given by structure constants.

    ``products[(i, j)]`` maps basis-index pairs to the sparse expansion of
    e_i * e_j. ``unit`` is the coefficient vector of the unit when the
    component has one, ``star`` the matrix of an antilinear involution
    (apply as star_matrix @ conj(v)).
    """

    def __init__(self, dim, products=None, unit=None, star=None):
        self.dim = dim
        self.products = products if products is not None else {}
        self.unit = vector(unit) if unit is not None else None
        self.star = star
        if self.unit is not None and len(self.unit) != dim:
            raise ValueError("unit vector has wrong length")
        if star is not None and (star.rows != dim or star.cols != dim):
            raise ValueError("star matrix has wrong shape")

    @staticmethod
    def from_structure_constants(constants, unit=None, star=None) -> "ComponentAlgebra":
        """Build from dense c[i][j][k] with e_i e_j = sum_k c[i][j][k] e_k."""
        dim = len(constants)
        products = {}
        for i in range(dim):
            if len(constants[i]) != dim:
                raise ValueError("structure constants are not dim x dim x dim")
            for j in range(dim):
                row = [as_scalar(c) for c in constants[i][j]]
                if len(row) != dim:
                    raise ValueError("structure constants are not dim x dim x dim")
                entry = {k: c for k, c in enumerate(row) if c}
                if entry:
                    products[(i, j)] = entry
        return ComponentAlgebra(dim, products, unit=unit, star=star)

    def structure_constants(self):
        """Dense c[i][j][k] view (for serialization)."""
        return tuple(
            tuple(
                tuple(
                    self.products.get((i, j), {}).get(k, ZERO) for k in range(self.dim)
                )
                for j in range(self.dim)
            )
            for i in range(self.dim)
        )

    def product_vec(self, x, y) -> dict:
        """Sparse product of two coefficient vectors (dict k -> scalar)."""
        return _bilinear(self.products, _nonzero(x), _nonzero(y))

    def left_mult_matrix(self, x) -> Matrix:
        cols = []
        for j in range(self.dim):
            ej = tuple(ONE if t == j else ZERO for t in range(self.dim))
            prod = self.product_vec(x, ej)
            cols.append(tuple(prod.get(k, ZERO) for k in range(self.dim)))
        return Matrix.from_columns(cols)

    def right_mult_matrix(self, x) -> Matrix:
        cols = []
        for j in range(self.dim):
            ej = tuple(ONE if t == j else ZERO for t in range(self.dim))
            prod = self.product_vec(ej, x)
            cols.append(tuple(prod.get(k, ZERO) for k in range(self.dim)))
        return Matrix.from_columns(cols)

    def apply_star(self, v):
        if self.star is None:
            raise ValueError("component has no star structure")
        return self.star.apply(tuple(a.conj() for a in v))

    # -- invariant witnesses --------------------------------------------------

    def associativity_witness(self) -> Optional[str]:
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.products.get((i, j), {})
                for k in range(self.dim):
                    left: dict = {}
                    for t, c in ij.items():
                        accumulate(left, self.products.get((t, k), {}), c)
                    right: dict = {}
                    for t, c in self.products.get((j, k), {}).items():
                        accumulate(right, self.products.get((i, t), {}), c)
                    if left != right:
                        return "(e%d e%d) e%d != e%d (e%d e%d)" % (i, j, k, i, j, k)
        return None

    def nondegeneracy_witness(self) -> Optional[str]:
        # left annihilator: rows indexed by (j, k), unknowns x_i
        rows = {}
        for (i, j), entry in self.products.items():
            for k, c in entry.items():
                rows.setdefault((j, k), {})[i] = c
        if kernel_of_sparse_rows(list(rows.values()), self.dim):
            return "nonzero left annihilator"
        rows = {}
        for (i, j), entry in self.products.items():
            for k, c in entry.items():
                rows.setdefault((i, k), {})[j] = c
        if kernel_of_sparse_rows(list(rows.values()), self.dim):
            return "nonzero right annihilator"
        return None

    def unit_witness(self) -> Optional[str]:
        if self.unit is None:
            return "component has no unit"
        for j in range(self.dim):
            ej = tuple(ONE if t == j else ZERO for t in range(self.dim))
            left = self.product_vec(self.unit, ej)
            right = self.product_vec(ej, self.unit)
            expected = {j: ONE}
            if left != expected:
                return "unit * e%d != e%d" % (j, j)
            if right != expected:
                return "e%d * unit != e%d" % (j, j)
        return None

    def star_witness(self) -> Optional[str]:
        if self.star is None:
            return "component has no star"
        # involutive: star(star(v)) = v, i.e. S conj(S) = identity
        if self.star.matmul(self.star.conj()) != Matrix.identity(self.dim):
            return "star is not involutive"
        for i in range(self.dim):
            for j in range(self.dim):
                ei = tuple(ONE if t == i else ZERO for t in range(self.dim))
                ej = tuple(ONE if t == j else ZERO for t in range(self.dim))
                prod = self.product_vec(ei, ej)
                lhs = self.apply_star(tuple(prod.get(k, ZERO) for k in range(self.dim)))
                rhs = self.product_vec(self.apply_star(ej), self.apply_star(ei))
                if {k: c for k, c in enumerate(lhs) if c} != rhs:
                    return "(e%d e%d)* != e%d* e%d*" % (i, j, j, i)
        return None


COGRADED = "cograded"
GRADED = "graded"


@dataclass
class GradedAlgebra:
    """Group-indexed family of components with block products.

    In cograded mode the product is diagonal and taken inside each component.
    In graded mode ``block_fn(p, q)`` supplies the matrix of
    B_p (x) B_q -> B_{pq} (rows indexed by the target basis, columns by the
    row-major tensor basis).
    """

    group: GroupOracle
    mode: str
    component_fn: Callable
    block_fn: Optional[Callable] = None
    unit_components: Optional[Dict] = None  # graded mode: the global unit, p -> vec
    label: str = ""
    _components: dict = field(default_factory=dict, repr=False)
    _blocks: dict = field(default_factory=dict, repr=False)
    _block_sparse: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in (COGRADED, GRADED):
            raise ValueError("unknown mode %r" % self.mode)
        if self.mode == GRADED and self.block_fn is None:
            raise ValueError("graded mode needs block products")

    def component(self, p) -> ComponentAlgebra:
        if p not in self._components:
            self._components[p] = self.component_fn(p)
        return self._components[p]

    def dim(self, p) -> int:
        return self.component(p).dim

    def product_target(self, p, q):
        # cograded products stay inside the component; graded ones land in B_{pq}
        if self.mode == COGRADED:
            return p
        return self.group.multiply(p, q)

    def product_block_sparse(self, p, q) -> dict:
        """Sparse product block: (i, j) -> {k: coeff} into component p*q."""
        key = (p, q)
        if key in self._block_sparse:
            return self._block_sparse[key]
        if self.mode == COGRADED:
            table = self.component(p).products if p == q else {}
        else:
            m = self.block_fn(p, q)
            dp, dq = self.dim(p), self.dim(q)
            t = self.product_target(p, q)
            if m.rows != self.dim(t) or m.cols != dp * dq:
                raise ValueError(
                    "product block (%s, %s) has shape %dx%d, expected %dx%d"
                    % (self.group.encode(p), self.group.encode(q), m.rows, m.cols,
                       self.dim(t), dp * dq)
                )
            # column i*dq + j of the block is the product of e_i and e_j
            table = {divmod(n, dq): col for n, col in enumerate(m.sparse_columns()) if col}
        self._block_sparse[key] = table
        return table

    def product_block(self, p, q) -> Matrix:
        """Dense matrix of B_p (x) B_q -> B_{pq} (zero off-diagonal in cograded mode)."""
        key = (p, q)
        if key in self._blocks:
            return self._blocks[key]
        dp, dq = self.dim(p), self.dim(q)
        dt = self.dim(self.product_target(p, q))
        table = self.product_block_sparse(p, q)
        rows = [[ZERO] * (dp * dq) for _ in range(dt)]
        for (i, j), entry in table.items():
            for k, c in entry.items():
                rows[k][i * dq + j] = c
        m = Matrix.from_rows(rows)
        self._blocks[key] = m
        return m

    def multiply_vectors(self, p, q, x, y) -> "tuple[object, dict]":
        """Product of component vectors; returns (target element, sparse dict)."""
        table = self.product_block_sparse(p, q)
        return self.product_target(p, q), _bilinear(table, _nonzero(x), _nonzero(y))

    # -- elements -------------------------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def from_sparse(self, acc: dict) -> "GradedElement":
        """The element whose p-component is the sparse row acc[p] = {k: coeff}."""
        return GradedElement(
            self,
            {
                p: tuple(cur.get(k, ZERO) for k in range(self.dim(p)))
                for p, cur in acc.items()
                if cur
            },
        )

    def element(self, comps: dict) -> "GradedElement":
        cooked = {}
        for p, v in comps.items():
            vec = vector(v)
            if len(vec) != self.dim(p):
                raise ValueError(
                    "component %s has dim %d, got vector of length %d"
                    % (self.group.encode(p), self.dim(p), len(vec))
                )
            if any(vec):
                cooked[p] = vec
        return GradedElement(self, cooked)

    def basis_element(self, p, i: int) -> "GradedElement":
        d = self.dim(p)
        if not (0 <= i < d):
            raise ValueError("basis index %d out of range for dim %d" % (i, d))
        return GradedElement(self, {p: tuple(ONE if t == i else ZERO for t in range(d))})

    def basis_on(self, window) -> list:
        """All (p, i, element) triples over the window, in window order."""
        out = []
        for p in window.elements:
            for i in range(self.dim(p)):
                out.append((p, i, self.basis_element(p, i)))
        return out

    def multiply(self, x: "GradedElement", y: "GradedElement") -> "GradedElement":
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        acc: dict = {}
        for p, xv in x.comps.items():
            for q, yv in y.comps.items():
                if self.mode == COGRADED and p != q:
                    continue
                target, prod = self.multiply_vectors(p, q, xv, yv)
                if prod:
                    accumulate(acc.setdefault(target, {}), prod)
        return self.from_sparse(acc)

    def unit_multiplier(self) -> "GradedMultiplier":
        if self.mode != COGRADED:
            raise ValueError("unit multiplier family needs cograded mode")

        def comp(p):
            unit = self.component(p).unit
            if unit is None:
                raise ValueError("component %s has no unit" % self.group.encode(p))
            return unit

        return GradedMultiplier(self, comp, label="1")

    def unit_element(self) -> Optional["GradedElement"]:
        """The global unit as an element, when it exists inside the algebra."""
        if self.mode == GRADED:
            if self.unit_components is None:
                return None
            return self.element(dict(self.unit_components))
        if self.group.is_finite:
            return self.element(
                {p: self.component(p).unit for p in self.group.elements}
            )
        return None


@dataclass(frozen=True)
class GradedElement:
    """Finitely supported element; zero components are pruned (canonical)."""

    algebra: GradedAlgebra
    comps: dict

    def __post_init__(self):
        object.__setattr__(
            self, "comps", {p: v for p, v in self.comps.items() if any(v)}
        )

    def support(self) -> tuple:
        return tuple(sorted(self.comps, key=self.algebra.group.sort_key))

    def coeff(self, p):
        return self.comps.get(p, (ZERO,) * self.algebra.dim(p))

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.algebra is other.algebra and self.comps == other.comps

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")
        out = dict(self.comps)
        for p, v in other.comps.items():
            if p in out:
                out[p] = tuple(a + b for a, b in zip(out[p], v))
            else:
                out[p] = v
        return GradedElement(self.algebra, out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return GradedElement(
            self.algebra, {p: tuple(-a for a in v) for p, v in self.comps.items()}
        )

    def scale(self, c) -> "GradedElement":
        c = as_scalar(c)
        if not c:
            return GradedElement(self.algebra, {})
        return GradedElement(
            self.algebra, {p: tuple(c * a for a in v) for p, v in self.comps.items()}
        )

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def restrict(self, comps) -> "GradedElement":
        keep = set(comps)
        return GradedElement(
            self.algebra, {p: v for p, v in self.comps.items() if p in keep}
        )

    def describe(self) -> str:
        g = self.algebra.group
        parts = []
        for p in self.support():
            vec = self.comps[p]
            parts.append("%s:(%s)" % (g.encode(p), ", ".join(str(a) for a in vec)))
        return "{" + "; ".join(parts) + "}" if parts else "0"


@dataclass(frozen=True)
class GradedMultiplier:
    """A lazy family (m_p) of component vectors, a multiplier of the algebra.

    Left/right action on elements is the componentwise product (cograded
    mode). Equality with another multiplier is only decidable per window.
    """

    algebra: GradedAlgebra
    component_fn: Callable
    finite_support: Optional[frozenset] = None
    label: str = ""

    def component(self, p):
        if self.finite_support is not None and p not in self.finite_support:
            return (ZERO,) * self.algebra.dim(p)
        return vector(self.component_fn(p))

    def times(self, x: GradedElement, side: str = "left") -> GradedElement:
        if self.algebra.mode != COGRADED:
            raise ValueError("multiplier action needs cograded mode")
        if x.algebra is not self.algebra:
            raise ValueError("element belongs to a different algebra")
        out = {}
        for p, v in x.comps.items():
            mp = self.component(p)
            if side == "left":
                _, out[p] = self.algebra.multiply_vectors(p, p, mp, v)
            elif side == "right":
                _, out[p] = self.algebra.multiply_vectors(p, p, v, mp)
            else:
                raise ValueError("side must be 'left' or 'right'")
        return self.algebra.from_sparse(out)

    def equals_on(self, other: "GradedMultiplier", window) -> bool:
        return all(
            self.component(p) == other.component(p) for p in window.elements
        )

    def invertible_witness(self, window) -> Optional[str]:
        """Check invertibility on a window; returns a witness string or None.

        Cograded mode: each component vector must be invertible inside its
        component. Graded mode: the finite-support element assembled from the
        window components must multiply injectively on the window basis.
        """
        from .exact import is_bijective, rank_of_sparse_columns

        if self.algebra.mode == COGRADED:
            for p in window.elements:
                comp = self.algebra.component(p)
                mp = self.component(p)
                if not is_bijective(comp.left_mult_matrix(mp)):
                    return "component %s not left invertible" % self.algebra.group.encode(p)
                if not is_bijective(comp.right_mult_matrix(mp)):
                    return "component %s not right invertible" % self.algebra.group.encode(p)
            return None
        elem = self.algebra.element({p: self.component(p) for p in window.elements})
        if elem.is_zero():
            return "zero multiplier"
        basis = self.algebra.basis_on(window)
        for side in ("left", "right"):
            cols = []
            row_index: dict = {}
            for (_, _, x) in basis:
                prod = elem * x if side == "left" else x * elem
                col = {}
                for t, vec in prod.comps.items():
                    for k, c in enumerate(vec):
                        if c:
                            key = row_index.setdefault((t, k), len(row_index))
                            col[key] = c
                cols.append(col)
            if rank_of_sparse_columns(cols, len(row_index)) != len(cols):
                return "%s multiplication not injective on the window" % side
        return None

    def as_element(self) -> GradedElement:
        if self.finite_support is None:
            raise ValueError("multiplier has no declared finite support")
        return self.algebra.element(
            {p: self.component(p) for p in self.finite_support}
        )


class TensorElement:
    """A finitely supported element of (left algebra) (x) (right algebra).

    ``blocks[(p, q)]`` maps basis index pairs (i, j) to coefficients. Zero
    coefficients are never stored, so equality is dict equality.
    """

    __slots__ = ("left", "right", "blocks")

    def __init__(self, left: GradedAlgebra, right: GradedAlgebra, blocks=None):
        self.left = left
        self.right = right
        self.blocks: dict = blocks if blocks is not None else {}

    @staticmethod
    def zero(left, right) -> "TensorElement":
        return TensorElement(left, right)

    def copy(self) -> "TensorElement":
        return TensorElement(
            self.left, self.right, {k: dict(v) for k, v in self.blocks.items()}
        )

    def add_block(self, p, q, row, scale=None) -> None:
        """In place: add ``scale`` times the sparse row {(i, j): coeff} to block (p, q)."""
        block = self.blocks.setdefault((p, q), {})
        accumulate(block, row, scale)
        if not block:
            del self.blocks[(p, q)]

    def add_term(self, p, q, i, j, coeff):
        if coeff:
            self.add_block(p, q, (((i, j), coeff),))

    def accumulate(self, other: "TensorElement", c=None) -> None:
        """In place: self += c * other, with c one by default."""
        for (p, q), block in other.blocks.items():
            self.add_block(p, q, block, c)

    def accumulate_outer(self, x: GradedElement, y: GradedElement, c=None) -> None:
        """In place: self += c * (x (x) y), with c one by default."""
        for p, xv in x.comps.items():
            xs = [(i, a if c is None else c * a) for i, a in enumerate(xv) if a]
            for q, yv in y.comps.items():
                ys = _nonzero(yv)
                self.add_block(p, q, (((i, j), a * b) for i, a in xs for j, b in ys))

    def add(self, other: "TensorElement") -> "TensorElement":
        out = self.copy()
        out.accumulate(other)
        return out

    def scale(self, c) -> "TensorElement":
        c = as_scalar(c)
        out = TensorElement(self.left, self.right)
        if not c:
            return out
        for (p, q), block in self.blocks.items():
            out.blocks[(p, q)] = {ij: c * v for ij, v in block.items()}
        return out

    def conj_coefficients(self) -> "TensorElement":
        out = TensorElement(self.left, self.right)
        for (p, q), block in self.blocks.items():
            out.blocks[(p, q)] = {ij: v.conj() for ij, v in block.items()}
        return out

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.left is other.left
            and self.right is other.right
            and self.blocks == other.blocks
        )

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        out = self.copy()
        out.accumulate(other, GR(-1))
        return out

    def terms(self):
        for (p, q), block in sorted(
            self.blocks.items(),
            key=lambda kv: (
                self.left.group.sort_key(kv[0][0]),
                self.right.group.sort_key(kv[0][1]),
            ),
        ):
            for (i, j), c in sorted(block.items()):
                yield p, q, i, j, c

    @staticmethod
    def of_pair(x: GradedElement, y: GradedElement) -> "TensorElement":
        out = TensorElement(x.algebra, y.algebra)
        out.accumulate_outer(x, y)
        return out

    def flip(self) -> "TensorElement":
        out = TensorElement(self.right, self.left)
        for (p, q), block in self.blocks.items():
            out.blocks[(q, p)] = {(j, i): c for (i, j), c in block.items()}
        return out

    # -- leg operations -------------------------------------------------------

    def _on_leg(self, leg: int, images: Callable, algebra) -> "TensorElement":
        """The leg routine behind the leg products, leg maps and covectors.

        Replaces each basis vector of the chosen leg (1 or 2) by its image and
        keeps the other leg. ``images(r)`` yields, for component r of that
        leg, pairs (target, image) where ``image(m, c)`` is the sparse row
        {k: coeff} of c times basis vector m in the target component of
        ``algebra``.
        """
        first = leg == 1
        out = TensorElement(algebra, self.right) if first else TensorElement(self.left, algebra)
        for (p, q), block in self.blocks.items():
            for target, image in images(p if first else q):
                if first:
                    out.add_block(target, q, (
                        ((k, j), v) for (i, j), c in block.items() for k, v in image(i, c).items()
                    ))
                else:
                    out.add_block(p, target, (
                        ((i, k), v) for (i, j), c in block.items() for k, v in image(j, c).items()
                    ))
        return out

    def _mul_leg(self, leg: int, side: str, y: GradedElement) -> "TensorElement":
        """Multiply the chosen leg by y on the given side."""
        alg = self.left if leg == 1 else self.right
        if y.algebra is not alg:
            raise ValueError(
                "%s leg lives in a different algebra" % ("first" if leg == 1 else "second")
            )
        factors = [(s, _nonzero(yv)) for s, yv in y.comps.items()]

        def images(r):
            for s, ys in factors:
                if alg.mode == COGRADED and r != s:
                    continue
                if side == "left":
                    table = alg.product_block_sparse(s, r)
                    yield alg.product_target(s, r), (
                        lambda m, c, t=table, ys=ys: _bilinear(t, ys, ((m, c),)))
                else:
                    table = alg.product_block_sparse(r, s)
                    yield alg.product_target(r, s), (
                        lambda m, c, t=table, ys=ys: _bilinear(t, ((m, c),), ys))

        return self._on_leg(leg, images, alg)

    def mul_leg2_right(self, y: GradedElement) -> "TensorElement":
        """self * (1 (x) y): multiply second legs by y on the right."""
        return self._mul_leg(2, "right", y)

    def mul_leg2_left(self, y: GradedElement) -> "TensorElement":
        """(1 (x) y) * self: multiply second legs by y on the left."""
        return self._mul_leg(2, "left", y)

    def mul_leg1_right(self, y: GradedElement) -> "TensorElement":
        """self * (y (x) 1): multiply first legs by y on the right."""
        return self._mul_leg(1, "right", y)

    def mul_leg1_left(self, y: GradedElement) -> "TensorElement":
        """(y (x) 1) * self: multiply first legs by y on the left."""
        return self._mul_leg(1, "left", y)

    def _collapse(self, leg: int, fn: Callable) -> GradedElement:
        """Collapse the chosen leg with a per-component covector family."""

        def images(r):
            # a covector maps basis vector m to w[m] times a single scalar basis vector
            w = fn(r)
            yield None, lambda m, c: {0: w[m] * c} if w[m] else {}

        collapsed = self._on_leg(leg, images, None)
        keep = 2 - leg  # position of the kept leg in block keys and index pairs
        return (self.right if leg == 1 else self.left).from_sparse({
            key[keep]: {ij[keep]: c for ij, c in block.items()}
            for key, block in collapsed.blocks.items()
        })

    def apply_covector_leg1(self, fn: Callable) -> GradedElement:
        """Collapse the first leg with a per-component covector family."""
        return self._collapse(1, fn)

    def apply_covector_leg2(self, fn: Callable) -> GradedElement:
        """Collapse the second leg with a per-component covector family."""
        return self._collapse(2, fn)

    def map_leg1(self, family: Callable, target_algebra=None) -> "TensorElement":
        """Apply a linear family p -> (target component, Matrix) to first legs."""
        return self._on_leg(1, _matrix_images(family), target_algebra or self.left)

    def map_leg2(self, family: Callable, target_algebra=None) -> "TensorElement":
        """Apply a linear family q -> (target component, Matrix) to second legs."""
        return self._on_leg(2, _matrix_images(family), target_algebra or self.right)

    def contract_product(self) -> GradedElement:
        """Multiply the two legs together (both must live in one algebra)."""
        if self.left is not self.right:
            raise ValueError("cannot contract legs from different algebras")
        alg = self.left
        acc: dict = {}
        for (p, q), block in self.blocks.items():
            if alg.mode == COGRADED and p != q:
                continue
            table = alg.product_block_sparse(p, q)
            cur = acc.setdefault(alg.product_target(p, q), {})
            for ij, c in block.items():
                entry = table.get(ij)
                if entry:
                    accumulate(cur, entry, c)
        return alg.from_sparse(acc)


def _matrix_images(family: Callable) -> Callable:
    """Leg images of a linear family r -> (target component, Matrix)."""

    def images(r):
        target, m = family(r)
        rows = m.entries
        yield target, lambda j, c: {k: c * row[j] for k, row in enumerate(rows) if row[j]}

    return images


def check_graded_algebra(algebra: GradedAlgebra, window: Window) -> "CertificateReport":
    """Verify component invariants and cross-block associativity on a window."""
    from .report import CertificateReport

    g = algebra.group
    rep = CertificateReport(
        title="graded algebra checks (%s)" % (algebra.label or "unnamed"),
        window=window.label,
        subject_digest=algebra.label,
    )
    for p in window.elements:
        comp = algebra.component(p)
        tag = g.encode(p)
        if algebra.mode == COGRADED:
            w = comp.associativity_witness()
            rep.add("component-associativity@%s" % tag, "associative component product", w is None, w)
            w = comp.nondegeneracy_witness()
            rep.add("component-nondegeneracy@%s" % tag, "non-degenerate component product", w is None, w)
            w = comp.unit_witness()
            rep.add("component-unit@%s" % tag, "unital component", w is None, w)
        if comp.star is not None:
            w = comp.star_witness()
            rep.add("component-star@%s" % tag, "involutive anti-multiplicative star", w is None, w)

    if algebra.mode == GRADED:
        # cross-block associativity and windowed non-degeneracy
        witness = None
        for p, q, r in window.triples():
            for i in range(algebra.dim(p)):
                x = algebra.basis_element(p, i)
                for j in range(algebra.dim(q)):
                    y = algebra.basis_element(q, j)
                    xy = x * y
                    for k in range(algebra.dim(r)):
                        z = algebra.basis_element(r, k)
                        if (xy) * z != x * (y * z):
                            witness = "((%s,%d)(%s,%d))(%s,%d)" % (
                                g.encode(p), i, g.encode(q), j, g.encode(r), k,
                            )
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        rep.add("cross-block-associativity", "associative block products", witness is None, witness)

        witness = None
        for p in window.elements:
            dp = algebra.dim(p)
            rows = {}
            for q in window.elements:
                table = algebra.product_block_sparse(p, q)
                for (i, j), entry in table.items():
                    for k, c in entry.items():
                        rows.setdefault((q, j, k), {})[i] = c
            if kernel_of_sparse_rows(list(rows.values()), dp):
                witness = "left annihilator in component %s (window)" % g.encode(p)
                break
            rows = {}
            for q in window.elements:
                table = algebra.product_block_sparse(q, p)
                for (i, j), entry in table.items():
                    for k, c in entry.items():
                        rows.setdefault((q, i, k), {})[j] = c
            if kernel_of_sparse_rows(list(rows.values()), dp):
                witness = "right annihilator in component %s (window)" % g.encode(p)
                break
        rep.add("windowed-nondegeneracy", "no annihilators on the window", witness is None, witness)

        unit = algebra.unit_element()
        if unit is not None:
            witness = None
            for p in window.elements:
                for i in range(algebra.dim(p)):
                    x = algebra.basis_element(p, i)
                    if unit * x != x or x * unit != x:
                        witness = "unit fails on (%s, %d)" % (g.encode(p), i)
                        break
                if witness:
                    break
            rep.add("global-unit", "two-sided unit element", witness is None, witness)
    else:
        # diagonal product law: block products vanish off the diagonal
        rep.add(
            "diagonal-product",
            "components multiply to zero off the diagonal",
            True,
        )
    return rep

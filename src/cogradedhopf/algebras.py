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
from functools import cache
from itertools import chain, product
from typing import Callable, Dict, Optional

from .exact import (
    GR,
    ONE,
    ZERO,
    Matrix,
    accumulate,
    as_scalar,
    kernel_of_sparse_rows,
    rank_of_sparse_columns,
    vector,
)
from .groups import GroupOracle, Window, basis_label


def _bilinear(out: dict, table: dict, xs, ys) -> dict:
    """The sparse bilinear product: add the sum of x_i y_j table[(i, j)] to out.

    ``xs`` and ``ys`` are iterables of (index, coefficient) pairs and
    ``table`` maps index pairs to sparse rows {k: coeff}. Returns ``out``.
    """
    for i, xi in xs:
        for j, yj in ys:
            entry = table.get((i, j))
            if entry:
                accumulate(out, entry, xi * yj)
    return out


class ComponentAlgebra:
    """A finite-dimensional algebra given by structure constants.

    ``products[(i, j)]`` maps basis-index pairs to the sparse expansion of
    e_i * e_j. ``unit`` is the dense coefficient vector of the unit when the
    component has one, ``star`` the matrix S of an antilinear involution
    v -> S conj(v). Vectors passed to the products and the star are sparse
    rows {k: coeff}. The products and the unit never change, so their
    witnesses are memoized; the star may be set later.
    """

    def __init__(self, dim, products=None, unit=None, star=None):
        self.dim = dim
        self.products = products if products is not None else {}
        self.unit = vector(unit) if unit is not None else None
        self.star = star
        self._witnesses: dict = {}
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

    def product_vec(self, x: dict, y: dict) -> dict:
        """Sparse product of two sparse rows."""
        return _bilinear({}, self.products, x.items(), y.items())

    def apply_star(self, v: dict) -> dict:
        if self.star is None:
            raise ValueError("component has no star structure")
        return self.star.apply(v, antilinear=True)

    # -- invariant witnesses --------------------------------------------------

    def associativity_witness(self) -> Optional[str]:
        if "associativity" not in self._witnesses:
            self._witnesses["associativity"] = self._scan_associativity()
        return self._witnesses["associativity"]

    def _scan_associativity(self) -> Optional[str]:
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
        if "unit" not in self._witnesses:
            self._witnesses["unit"] = self._scan_unit()
        return self._witnesses["unit"]

    def _scan_unit(self) -> Optional[str]:
        if self.unit is None:
            return "component has no unit"
        unit = {k: c for k, c in enumerate(self.unit) if c}
        for j in range(self.dim):
            expected = {j: ONE}
            left = self.product_vec(unit, expected)
            right = self.product_vec(expected, unit)
            if left != expected:
                return "unit * e%d != e%d" % (j, j)
            if right != expected:
                return "e%d * unit != e%d" % (j, j)
        return None

    def star_witness(self) -> Optional[str]:
        if self.star is None:
            return "component has no star"
        # involutive: star(star(v)) = v, i.e. S conj(S) = identity
        if self.star.compose(self.star.conj()) != Matrix.identity(self.dim):
            return "star is not involutive"
        starred = self.star.sparse_columns()  # the star of e_j is column j
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = self.apply_star(self.products.get((i, j), {}))
                if lhs != self.product_vec(starred[j], starred[i]):
                    return "(e%d e%d)* != e%d* e%d*" % (i, j, j, i)
        return None


COGRADED = "cograded"
GRADED = "graded"


@dataclass
class GradedAlgebra:
    """Group-indexed family of components with block products.

    In cograded mode the product is diagonal and taken inside each component.
    In graded mode ``block_fn(p, q)`` supplies the sparse product table of
    B_p (x) B_q -> B_{pq}: entry (i, j) is the row {k: coeff} of e_i e_j,
    and pairs whose product vanishes may be left out.
    """

    group: GroupOracle
    mode: str
    component_fn: Callable
    block_fn: Optional[Callable] = None
    unit_components: Optional[Dict] = None  # graded mode: the global unit, p -> vec
    label: str = ""
    _components: dict = field(default_factory=dict, repr=False)
    _block_sparse: dict = field(default_factory=dict, repr=False)
    _basis: dict = field(default_factory=dict, repr=False)

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
            table = self.block_fn(p, q)
        self._block_sparse[key] = table
        return table

    # -- elements -------------------------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def from_sparse(self, acc: dict) -> "GradedElement":
        """The element whose p-component is the sparse row acc[p] = {k: coeff}.

        The rows must hold no zero coefficient; empty rows are dropped. The
        element takes the rows over, so the caller must not change them.
        """
        return GradedElement(self, {p: row for p, row in acc.items() if row})

    def element(self, comps: dict) -> "GradedElement":
        """The element with the given dense component vectors."""
        cooked = {}
        for p, v in comps.items():
            vec = vector(v)
            if len(vec) != self.dim(p):
                raise ValueError(
                    "component %s has dim %d, got vector of length %d"
                    % (self.group.encode(p), self.dim(p), len(vec))
                )
            cooked[p] = {k: c for k, c in enumerate(vec) if c}
        return self.from_sparse(cooked)

    def basis_element(self, p, i: int) -> "GradedElement":
        d = self.dim(p)
        if not (0 <= i < d):
            raise ValueError("basis index %d out of range for dim %d" % (i, d))
        return self._basis_of(p)[i][2]

    def _basis_of(self, p) -> list:
        """The (p, i, element) triples of component p, each element built once."""
        if p not in self._basis:
            self._basis[p] = [(p, i, GradedElement(self, {p: {i: ONE}})) for i in range(self.dim(p))]
        return self._basis[p]

    def basis_on(self, window) -> list:
        """All (p, i, element) triples over the window, in window order."""
        return [t for p in window.elements for t in self._basis_of(p)]

    def basis_pairs(self, window):
        """All pairs ((r, i, x), (q, j, y)) of window basis triples: component
        pairs in ``window.pairs()`` order, then i, then j."""
        for r, q in window.pairs():
            yield from product(self._basis_of(r), self._basis_of(q))

    def multiply(self, x: "GradedElement", y: "GradedElement") -> "GradedElement":
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        acc: dict = {}
        for p, xv in x.comps.items():
            for q, yv in y.comps.items():
                if self.mode == COGRADED and p != q:
                    continue
                _bilinear(acc.setdefault(self.product_target(p, q), {}),
                          self.product_block_sparse(p, q), xv.items(), yv.items())
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
    """Finitely supported element.

    ``comps[p]`` is the sparse row {k: coeff} of the p-component. No zero
    coefficient and no empty component is stored, so equality is dict
    equality. The rows are shared between elements and never mutated.
    """

    algebra: GradedAlgebra
    comps: dict

    def support(self) -> tuple:
        return tuple(sorted(self.comps, key=self.algebra.group.sort_key))

    def coeff(self, p) -> tuple:
        """The dense coefficient vector of the p-component."""
        row = self.comps.get(p, {})
        return tuple(row.get(k, ZERO) for k in range(self.algebra.dim(p)))

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
                row = out[p] = dict(out[p])
                accumulate(row, v)
            else:
                out[p] = v
        return self.algebra.from_sparse(out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return GradedElement(
            self.algebra, {p: {k: -a for k, a in v.items()} for p, v in self.comps.items()}
        )

    def scale(self, c) -> "GradedElement":
        c = as_scalar(c)
        if not c:
            return GradedElement(self.algebra, {})
        return GradedElement(
            self.algebra, {p: {k: c * a for k, a in v.items()} for p, v in self.comps.items()}
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
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        # cograded products are componentwise: only the components of x matter
        m = self.algebra.element({p: self.component(p) for p in x.comps})
        return m * x if side == "left" else x * m

    def invertible_witness(self, window) -> Optional[str]:
        """Check invertibility on a window; returns a witness string or None.

        Cograded mode: each component vector must be invertible inside its
        component. Graded mode: the finite-support element assembled from the
        window components must multiply injectively on the window basis.
        """
        elem = self.algebra.element({p: self.component(p) for p in window.elements})
        if self.algebra.mode == COGRADED:
            for p in window.elements:
                comp = self.algebra.component(p)
                mp = elem.comps.get(p, {})
                for side in ("left", "right"):
                    cols = [comp.product_vec(mp, {j: ONE}) if side == "left"
                            else comp.product_vec({j: ONE}, mp) for j in range(comp.dim)]
                    if rank_of_sparse_columns(cols, comp.dim) != comp.dim:
                        return "component %s not %s invertible" % (
                            self.algebra.group.encode(p), side)
            return None
        if elem.is_zero():
            return "zero multiplier"
        basis = self.algebra.basis_on(window)
        for side in ("left", "right"):
            cols = []
            row_index: dict = {}
            for (_, _, x) in basis:
                prod = elem * x if side == "left" else x * elem
                cols.append({
                    row_index.setdefault((t, k), len(row_index)): c
                    for t, row in prod.comps.items() for k, c in row.items()
                })
            if rank_of_sparse_columns(cols, len(row_index)) != len(cols):
                return "%s multiplication not injective on the window" % side
        return None


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
            xs = xv.items() if c is None else [(i, c * a) for i, a in xv.items()]
            for q, yv in y.comps.items():
                self.add_block(p, q, (((i, j), a * b) for i, a in xs for j, b in yv.items()))

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

        def images(r):
            for s, yv in y.comps.items():
                if alg.mode == COGRADED and r != s:
                    continue
                ys = yv.items()
                if side == "left":
                    table = alg.product_block_sparse(s, r)
                    yield alg.product_target(s, r), (
                        lambda m, c, t=table, ys=ys: _bilinear({}, t, ys, ((m, c),)))
                else:
                    table = alg.product_block_sparse(r, s)
                    yield alg.product_target(r, s), (
                        lambda m, c, t=table, ys=ys: _bilinear({}, t, ((m, c),), ys))

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
        yield target, lambda j, c: m.apply({j: c})

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
        basis = algebra._basis_of

        @cache
        def prod(xkey, ykey):  # each basis product once, when the walk first needs it
            return algebra.basis_element(*xkey) * algebra.basis_element(*ykey)

        witness = None
        for x, y, z in chain.from_iterable(
                product(basis(p), basis(q), basis(r)) for p, q, r in window.triples()):
            if prod(x[:2], y[:2]) * z[2] != x[2] * prod(y[:2], z[:2]):
                witness = "(%s%s)%s" % (basis_label(g, x), basis_label(g, y), basis_label(g, z))
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
            for p, i, x in algebra.basis_on(window):
                if unit * x != x or x * unit != x:
                    witness = "unit fails on (%s, %d)" % (g.encode(p), i)
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

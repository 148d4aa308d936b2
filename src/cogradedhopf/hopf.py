"""Multiplier Hopf structure on a graded algebra, with the full axiom suite.

An :class:`MhaStructure` couples a :class:`~cogradedhopf.algebras.GradedAlgebra`
with a block comultiplication, a counit, an antipode family and an optional
star. The comultiplication is stored blockwise: for the cograded side the
block at (p, q) maps the component of ``source(p, q)`` into B_p (x) B_q; for
the graded side (group-algebra-like partners) the coproduct of a basis vector
is a finite tensor supported on diagonal blocks.

The checkers verify, exactly and per window: bijectivity of the canonical
maps, blockwise coassociativity, the counit and antipode identities, star
compatibility, and the integral calculus (invariant functionals, modular
multiplier, modular automorphism, faithfulness, positivity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, NamedTuple, Optional

from .algebras import (
    COGRADED,
    GRADED,
    ComponentAlgebra,
    GradedAlgebra,
    GradedElement,
    GradedMultiplier,
    TensorElement,
)
from .exact import (
    GR,
    ONE,
    ZERO,
    Matrix,
    accumulate,
    hermitian_psd,
    inverse,
    is_bijective,
    kernel_of_sparse_rows,
    rank_of_sparse_columns,
    solve_linear,
    vector,
)
from .groups import GroupOracle, Window, basis_label
from .report import CertificateReport


@dataclass(frozen=True)
class ComponentMap:
    """A family of (anti)linear maps, one per component: p -> (target, matrix).

    Antilinear maps conjugate the coefficient vector before the matrix acts.
    """

    algebra_in: GradedAlgebra
    algebra_out: GradedAlgebra
    fn: Callable
    antilinear: bool = False
    label: str = ""

    def __post_init__(self):
        # memoize the family: lazily built blocks (doubles) are expensive
        raw = self.fn
        cache: dict = {}

        def cached(p):
            if p not in cache:
                cache[p] = raw(p)
            return cache[p]

        object.__setattr__(self, "fn", cached)

    def target(self, p):
        return self.fn(p)[0]

    def matrix(self, p) -> Matrix:
        return self.fn(p)[1]

    def apply(self, x: GradedElement) -> GradedElement:
        if x.algebra is not self.algebra_in:
            raise ValueError("element is not in the domain algebra")
        out: dict = {}
        for p, v in x.comps.items():
            t, m = self.fn(p)
            cols = m.sparse_columns()
            acc = out.setdefault(t, {})
            for k, c in v.items():
                accumulate(acc, cols[k], c.conj() if self.antilinear else c)
        return self.algebra_out.from_sparse(out)

    def inverse_on(self, candidates) -> "ComponentMap":
        """Invert the family on a finite candidate set of source components."""
        table = {}
        for p in candidates:
            t = self.target(p)
            if t in table:
                raise ValueError("component map is not injective on candidates")
            table[t] = (p, inverse(self.matrix(p)))
        if self.antilinear:
            # inverse of (M . conj) is (M^-1 conjugated) . conj
            table = {t: (p, m.conj()) for t, (p, m) in table.items()}

        def fn(t):
            if t not in table:
                raise ValueError("no preimage component for %r" % (t,))
            return table[t]

        return ComponentMap(
            self.algebra_out, self.algebra_in, fn, antilinear=self.antilinear,
            label=self.label + "^-1",
        )


class BlockComultiplication:
    """Blockwise comultiplication: the block at (p, q) maps B_{source(p,q)} to B_p (x) B_q.

    Blocks exist only as sparse columns: ``block_cols(p, q)`` holds one dict
    per source basis vector, mapping flattened tensor indices i*dim(q)+j to
    nonzero coefficients, or None when the block is absent.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self._cols_cache: dict = {}

    def block_cols(self, p, q) -> Optional[list]:
        key = (p, q)
        if key not in self._cols_cache:
            self._cols_cache[key] = self._compute_cols(p, q)
        return self._cols_cache[key]

    def _compute_cols(self, p, q) -> Optional[list]:
        raise NotImplementedError

    def source(self, p, q):
        raise NotImplementedError

    def firsts_for(self, r, q) -> list:
        """First indices p of blocks (p, q) whose source is r."""
        raise NotImplementedError

    def seconds_for(self, r, p) -> list:
        """Second indices q of blocks (p, q) whose source is r."""
        raise NotImplementedError

    @property
    def diagonal(self) -> bool:
        return False


class CogradedBlockDelta(BlockComultiplication):
    """Standard cograded indexing: the block at (p, q) has source p*q.

    ``block_fn(p, q)`` returns the block's sparse column list, or None.
    """

    def __init__(self, algebra: GradedAlgebra, block_fn: Callable):
        super().__init__(algebra)
        self.block_fn = block_fn

    def _compute_cols(self, p, q):
        return self.block_fn(p, q)

    def source(self, p, q):
        return self.algebra.group.multiply(p, q)

    def firsts_for(self, r, q):
        g = self.algebra.group
        return [g.multiply(r, g.invert(q))]

    def seconds_for(self, r, p):
        g = self.algebra.group
        return [g.multiply(g.invert(p), r)]


class DiagonalDelta(BlockComultiplication):
    """Graded-side comultiplication: Delta(B_p) lives in B_p (x) B_p.

    ``diag_fn(p)`` returns the sparse column list of the (p, p) block.
    """

    def __init__(self, algebra: GradedAlgebra, diag_fn: Callable):
        super().__init__(algebra)
        self.diag_fn = diag_fn

    def _compute_cols(self, p, q):
        return self.diag_fn(p) if p == q else None

    def source(self, p, q):
        return p

    def firsts_for(self, r, q):
        return [r] if q == r else []

    def seconds_for(self, r, p):
        return [r] if p == r else []

    @property
    def diagonal(self) -> bool:
        return True


@dataclass
class MhaStructure:
    """A graded algebra with comultiplication, counit, antipode and optional star."""

    algebra: GradedAlgebra
    delta: BlockComultiplication
    counit_fn: Callable  # p -> covector tuple on the component of p
    antipode: ComponentMap
    star: Optional[ComponentMap] = None
    label: str = ""
    _counit_cache: dict = field(default_factory=dict, repr=False)
    _cut_units: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def group(self) -> GroupOracle:
        return self.algebra.group

    def counit_covector(self, p):
        if p not in self._counit_cache:
            cov = vector(self.counit_fn(p))
            if len(cov) != self.algebra.dim(p):
                raise ValueError("counit covector has wrong length at %r" % (p,))
            self._counit_cache[p] = cov
        return self._counit_cache[p]

    def counit_value(self, x: GradedElement) -> GR:
        return _evaluate(self.counit_covector, x)

    # -- finite parts of Delta(x) ---------------------------------------------

    def accumulate_block(self, out: TensorElement, p, q, xv) -> None:
        """In place: add the (p, q) block of Delta(x) to ``out``; xv is x in the source component."""
        cols = self.delta.block_cols(p, q)
        if cols is None:
            return
        dq = self.algebra.dim(q)
        out.add_block(p, q, (
            (divmod(idx, dq), a * c) for i, a in xv.items() for idx, c in cols[i].items()
        ))

    def delta_part_by_second(self, x: GradedElement, seconds) -> TensorElement:
        """The blocks of Delta(x) whose second index lies in ``seconds``."""
        alg = self.algebra
        out = TensorElement(alg, alg)
        if self.delta.diagonal:
            for r, xv in x.comps.items():
                self.accumulate_block(out, r, r, xv)
            return out
        for r, xv in x.comps.items():
            for q in seconds:
                for p in self.delta.firsts_for(r, q):
                    self.accumulate_block(out, p, q, xv)
        return out

    def delta_part_by_first(self, x: GradedElement, firsts) -> TensorElement:
        """The blocks of Delta(x) whose first index lies in ``firsts``."""
        alg = self.algebra
        out = TensorElement(alg, alg)
        if self.delta.diagonal:
            return self.delta_part_by_second(x, None)
        for r, xv in x.comps.items():
            for p in firsts:
                for q in self.delta.seconds_for(r, p):
                    self.accumulate_block(out, p, q, xv)
        return out

    # -- multiplier cut-downs ---------------------------------------------------

    def coproduct_right_cut(self, x: GradedElement, y: GradedElement) -> TensorElement:
        """Delta(x) * (1 (x) y), a finite tensor element."""
        part = self.delta_part_by_second(x, y.support())
        return part.mul_leg2_right(y)

    def coproduct_left_cut(self, x: GradedElement, y: GradedElement) -> TensorElement:
        """(x (x) 1) * Delta(y), a finite tensor element."""
        part = self.delta_part_by_first(y, x.support())
        return part.mul_leg1_left(x)

    def coproduct_right_cut_first(self, x: GradedElement, y: GradedElement) -> TensorElement:
        """Delta(x) * (y (x) 1)."""
        part = self.delta_part_by_first(x, y.support())
        return part.mul_leg1_right(y)

    def coproduct_left_cut_second(self, y: GradedElement, x: GradedElement) -> TensorElement:
        """(1 (x) y) * Delta(x)."""
        part = self.delta_part_by_second(x, y.support())
        return part.mul_leg2_left(y)

    # -- helpers ----------------------------------------------------------------

    def unit_element(self) -> Optional[GradedElement]:
        return self.algebra.unit_element()

    def cut_unit(self, p, star: bool = False) -> Optional[GradedElement]:
        """1_p, built from the component's unit vector, when the cut laws may be
        tested against it: B_p is associative and 1_p is a two-sided unit; with
        ``star``, the star also maps B_p to itself as an involutive,
        anti-multiplicative antilinear map. None otherwise; decided once per p.
        """
        key = (p, star)
        if key not in self._cut_units:
            comp = self.algebra.component(p)
            if star:
                s = self.star
                ok = (self.cut_unit(p) is not None and s.antilinear and s.target(p) == p
                      and ComponentAlgebra(comp.dim, comp.products, star=s.matrix(p)).star_witness() is None)
            else:
                ok = comp.unit_witness() is None and comp.associativity_witness() is None
            self._cut_units[key] = self.algebra.element({p: comp.unit}) if ok else None
        return self._cut_units[key]

    def apply_star(self, x: GradedElement) -> GradedElement:
        if self.star is None:
            raise ValueError("structure has no star")
        return self.star.apply(x)


@dataclass(frozen=True)
class GradedFunctional:
    """A lazy family of covectors, one per component; evaluation is a finite sum.

    ``domain`` restricts the functional to a window (used for solutions over
    infinite groups); touching a component outside the domain is an error.
    """

    algebra: GradedAlgebra
    covector_fn: Callable
    label: str = ""
    domain: Optional[frozenset] = None

    def covector(self, p):
        if self.domain is not None and p not in self.domain:
            raise ValueError(
                "functional %s is only defined on the verification window" % self.label
            )
        cov = vector(self.covector_fn(p))
        if len(cov) != self.algebra.dim(p):
            raise ValueError("covector length mismatch at %r" % (p,))
        return cov

    def value(self, x: GradedElement) -> GR:
        return _evaluate(self.covector, x)


def _evaluate(covector: Callable, x: GradedElement) -> GR:
    """The value on x of the functional with dense covectors p -> covector(p)."""
    acc = ZERO
    for p, v in x.comps.items():
        cov = covector(p)
        for k, c in v.items():
            if cov[k]:
                acc = acc + cov[k] * c
    return acc


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def _flatten_tensor_block(t: TensorElement, p, q, dq: int) -> dict:
    """Sparse column of the (p, q) block of a tensor element."""
    block = t.blocks.get((p, q), {})
    return {i * dq + j: c for (i, j), c in block.items()}


def check_t1_t2(h: MhaStructure, window: Window) -> CertificateReport:
    """Decide bijectivity of every T1 and T2 block over the window by exact rank.

    This is the one owner of the canonical-map entries: ``full_suite`` runs it,
    and :func:`cograded.check_cograded` does not.
    """
    alg = h.algebra
    g = h.group
    rep = CertificateReport(
        title="canonical map bijectivity (%s)" % h.label, window=window.label,
        subject_digest=h.label,
    )
    # one delta part per (source basis vector, component), then one leg product per column
    for p, q in window.pairs():
        tag = "(%s,%s)" % (g.encode(p), g.encode(q))
        if h.delta.diagonal:
            # T1 on A_p (x) A_q -> A_p (x) A_{pq}; T2 on A_p (x) A_q -> A_{pq} (x) A_q
            t_target = g.multiply(p, q)
            dp, dq, dt = alg.dim(p), alg.dim(q), alg.dim(t_target)
            xs, ys = alg._basis_of(p), alg._basis_of(q)
            parts = [h.delta_part_by_second(x, (q,)) for _, _, x in xs]
            cols = [_flatten_tensor_block(part.mul_leg2_right(y), p, t_target, dt)
                    for part in parts for _, _, y in ys]
            ok = dp * dq == dp * dt and rank_of_sparse_columns(cols, dp * dt) == dp * dq
            rep.add("T1-block@%s" % tag, "bijectivity of a(x)b -> Delta(a)(1(x)b)", ok,
                    None if ok else "block is not bijective")
            parts = [h.delta_part_by_first(y, (p,)) for _, _, y in ys]
            cols = [_flatten_tensor_block(part.mul_leg1_left(x), t_target, q, dq)
                    for _, _, x in xs for part in parts]
            ok = dp * dq == dt * dq and rank_of_sparse_columns(cols, dt * dq) == dp * dq
            rep.add("T2-block@%s" % tag, "bijectivity of a(x)b -> (a(x)1)Delta(b)", ok,
                    None if ok else "block is not bijective")
        else:
            src = h.delta.source(p, q)
            block_cols = h.delta.block_cols(p, q)
            dp, dq, ds = alg.dim(p), alg.dim(q), alg.dim(src)
            xs, ys = alg._basis_of(p), alg._basis_of(q)
            if block_cols is None:
                cols = [{}] * (ds * dq)
            else:
                # T1: B_src (x) B_q -> B_p (x) B_q
                parts = [h.delta_part_by_second(x, (q,)) for _, _, x in alg._basis_of(src)]
                cols = [_flatten_tensor_block(part.mul_leg2_right(y), p, q, dq)
                        for part in parts for _, _, y in ys]
            ok = ds * dq == dp * dq and rank_of_sparse_columns(cols, dp * dq) == ds * dq
            rep.add("T1-block@%s" % tag, "bijectivity of a(x)b -> Delta(a)(1(x)b)", ok,
                    None if ok else "block from source %s is not bijective" % g.encode(src))
            # T2: B_p (x) B_src -> B_p (x) B_q
            if block_cols is None:
                cols = [{}] * (dp * ds)
            else:
                parts = []
                for col in block_cols:
                    part = TensorElement(alg, alg)
                    part.add_block(p, q, ((divmod(idx, dq), c) for idx, c in col.items()))
                    parts.append(part)
                cols = [_flatten_tensor_block(part.mul_leg1_left(x), p, q, dq)
                        for _, _, x in xs for part in parts]
            ok = dp * ds == dp * dq and rank_of_sparse_columns(cols, dp * dq) == dp * ds
            rep.add("T2-block@%s" % tag, "bijectivity of a(x)b -> (a(x)1)Delta(b)", ok,
                    None if ok else "block from source %s is not bijective" % g.encode(src))
    return rep


def check_coassociativity(h: MhaStructure, window: Window) -> CertificateReport:
    """Blockwise coassociativity with exactly zero residual."""
    alg = h.algebra
    g = h.group
    rep = CertificateReport(
        title="coassociativity (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    if h.delta.diagonal:
        witness = None
        for r, i, x in alg.basis_on(window):
            t = h.delta_part_by_second(x, None)
            left: dict = {}
            right: dict = {}
            for (p, q), block in t.blocks.items():
                cols_p = h.delta.block_cols(p, p)
                cols_q = h.delta.block_cols(q, q)
                d2 = alg.dim(p)
                d3 = alg.dim(q)
                for (a, b), c in block.items():
                    accumulate(left, (
                        (((p, p, q), divmod(idx, d2) + (b,)), cc) for idx, cc in cols_p[a].items()
                    ), c)
                    accumulate(right, (
                        (((p, q, q), (a,) + divmod(idx, d3)), cc) for idx, cc in cols_q[b].items()
                    ), c)
            if left != right:
                witness = "basis (%s, %d)" % (g.encode(r), i)
                break
        rep.add("coassociativity", "(Delta(x)id)Delta = (id(x)Delta)Delta", witness is None, witness)
        return rep

    for p, q, r in window.triples():
        tag = "(%s,%s,%s)" % (g.encode(p), g.encode(q), g.encode(r))
        s_pq = h.delta.source(p, q)
        s_qr = h.delta.source(q, r)
        src_left = h.delta.source(s_pq, r)
        src_right = h.delta.source(p, s_qr)
        if src_left != src_right:
            rep.add("coassoc-block@%s" % tag, "triple-slice sources agree", False,
                    "sources %s vs %s" % (g.encode(src_left), g.encode(src_right)))
            continue
        outer_l = h.delta.block_cols(s_pq, r)
        inner_l = h.delta.block_cols(p, q)
        outer_r = h.delta.block_cols(p, s_qr)
        inner_r = h.delta.block_cols(q, r)
        dq, dr = alg.dim(q), alg.dim(r)
        d_sqr = alg.dim(s_qr)
        witness = None
        for i in range(alg.dim(src_left)):
            left: dict = {}
            if outer_l is not None and inner_l is not None:
                for idx, c in outer_l[i].items():
                    a, b = divmod(idx, dr)
                    accumulate(left, (
                        (divmod(idx2, dq) + (b,), c2) for idx2, c2 in inner_l[a].items()
                    ), c)
            right: dict = {}
            if outer_r is not None and inner_r is not None:
                for idx, c in outer_r[i].items():
                    a, b = divmod(idx, d_sqr)
                    accumulate(right, (
                        ((a,) + divmod(idx2, dr), c2) for idx2, c2 in inner_r[b].items()
                    ), c)
            if left != right:
                witness = "basis %d of source %s" % (i, g.encode(src_left))
                break
        rep.add("coassoc-block@%s" % tag, "(Delta(x)id)Delta = (id(x)Delta)Delta", witness is None, witness)
    return rep


class _Law(NamedTuple):
    """One law on basis pairs: ``fails(xt, yt)`` decides a pair of (p, i, element)
    triples, and a component unit enters as (p, None, 1_p)."""

    fails: Callable
    side: Optional[str] = None  # "right" or "left": the cut side a unit may stand for
    apart: Optional[Callable] = None  # (r, q) -> both sides vanish on B_r x B_q, r != q
    star: bool = False  # the unit reduction also needs the star premise


def _law_witnesses(h: MhaStructure, window: Window, laws) -> list:
    """The first failing basis pair of each law, in ``basis_pairs`` order.

    In graded mode every basis pair is tested. In cograded mode, component
    pairs r != q with ``apart(r, q)`` are skipped: the two images land in
    different components. A cut law is B_q-linear in y, or B_r-linear in x
    (Van Daele, Trans. AMS 342 (1994)), so where :meth:`MhaStructure.cut_unit`
    certifies the component, side "right" tests each x in B_r against 1_q and
    side "left" tests 1_r against each y in B_q: L(x, y) = L(x, 1_q) y. Such a
    component pair fails exactly when one of its basis pairs fails, and it is
    rescanned per basis pair to name the same first witness.
    """
    alg = h.algebra
    cograded = alg.mode == COGRADED
    wits = [None] * len(laws)
    for r, q in window.pairs():
        xs, ys = alg._basis_of(r), alg._basis_of(q)
        for n, (fails, side, apart, star) in enumerate(laws):
            if wits[n] is not None or cograded and r != q and apart is not None and apart(r, q):
                continue
            unit = h.cut_unit(q if side == "right" else r, star) if cograded and side else None
            if unit is not None:
                cuts = product(xs, [(q, None, unit)]) if side == "right" else product([(r, None, unit)], ys)
                if not any(fails(x, y) for x, y in cuts):
                    continue
            wits[n] = next((basis_label(h.group, x[:2], y[:2]) for x, y in product(xs, ys) if fails(x, y)), None)
    return wits


def check_counit(h: MhaStructure, window: Window) -> CertificateReport:
    """Both counit identities on all window basis pairs, plus multiplicativity."""
    alg = h.algebra
    rep = CertificateReport(
        title="counit identities (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    eps = {(p, i): h.counit_value(x) for p, i, x in alg.basis_on(window)}

    def right(xt, yt):
        x, y = xt[2], yt[2]
        return h.coproduct_right_cut(x, y).apply_covector_leg1(h.counit_covector) != x * y

    def left(xt, yt):
        x, y = xt[2], yt[2]
        return h.coproduct_left_cut(x, y).apply_covector_leg2(h.counit_covector) != x * y

    def hom(xt, yt):
        (r, i, x), (q, j, y) = xt, yt
        # cograded components multiply to zero off the diagonal
        lhs = ZERO if r != q and alg.mode == COGRADED else h.counit_value(x * y)
        return lhs != eps[r, i] * eps[q, j]

    wit_right, wit_left, wit_hom = _law_witnesses(
        h, window, [_Law(right, "right"), _Law(left, "left"), _Law(hom)])
    rep.add("counit-right", "(eps(x)id)(Delta(a)(1(x)b)) = ab", wit_right is None, wit_right)
    rep.add("counit-left", "(id(x)eps)((a(x)1)Delta(b)) = ab", wit_left is None, wit_left)
    rep.add("counit-homomorphism", "eps(ab) = eps(a)eps(b)", wit_hom is None, wit_hom)
    return rep


def check_antipode(h: MhaStructure, window: Window) -> CertificateReport:
    """Antipode identities, anti-multiplicativity and bijectivity on the window."""
    alg = h.algebra
    g = h.group
    rep = CertificateReport(
        title="antipode identities (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    fam = h.antipode.fn
    basis = alg.basis_on(window)
    eps = {(p, i): h.counit_value(x) for p, i, x in basis}
    sa = {(p, i): h.antipode.apply(x) for p, i, x in basis}

    def right(xt, yt):
        (r, i, x), y = xt, yt[2]
        return h.coproduct_right_cut(x, y).map_leg1(fam).contract_product() != eps[r, i] * y

    def left(xt, yt):
        x, (q, j, y) = xt[2], yt
        return h.coproduct_left_cut(x, y).map_leg2(fam).contract_product() != eps[q, j] * x

    def anti(xt, yt):
        (r, i, x), (q, j, y) = xt, yt
        return h.antipode.apply(x * y) != sa[q, j] * sa[r, i]

    wit1, wit2, wit_anti = _law_witnesses(h, window, [
        _Law(right, "right"), _Law(left, "left"),
        _Law(anti, apart=lambda r, q: h.antipode.target(r) != h.antipode.target(q))])
    rep.add("antipode-right", "m((S(x)id)(Delta(a)(1(x)b))) = eps(a)b", wit1 is None, wit1)
    rep.add("antipode-left", "m((id(x)S)((a(x)1)Delta(b))) = eps(b)a", wit2 is None, wit2)
    rep.add("antipode-antihomomorphism", "S(ab) = S(b)S(a)", wit_anti is None, wit_anti)

    witness = None
    targets = {}
    for p in window.elements:
        t = h.antipode.target(p)
        if t in targets:
            witness = "components %s and %s share the antipode target %s" % (
                g.encode(targets[t]), g.encode(p), g.encode(t))
            break
        targets[t] = p
        m = h.antipode.matrix(p)
        if not is_bijective(m):
            witness = "antipode block at %s is singular" % g.encode(p)
            break
    rep.add("antipode-bijective", "the antipode is a bijection", witness is None, witness)

    if witness is None:
        inv = h.antipode.inverse_on(window.elements)
        wit_reg = None
        for p in window.elements:
            t = h.antipode.target(p)
            src, minv = inv.fn(t)
            if src != p or minv.matmul(h.antipode.matrix(p)) != Matrix.identity(alg.dim(p)):
                wit_reg = "S^-1 S != id at %s" % g.encode(p)
                break
        rep.add("antipode-regularity", "S^-1 composes to the identity", wit_reg is None, wit_reg)
    return rep


def check_star(h: MhaStructure, window: Window) -> CertificateReport:
    """Star structure: involution, anti-multiplicativity, Delta a *-homomorphism."""
    alg = h.algebra
    g = h.group
    if h.star is None:
        raise ValueError("structure %s has no star" % h.label)
    rep = CertificateReport(
        title="star structure (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    star = h.star
    wit_inv = None
    basis = alg.basis_on(window)
    starred = {(p, i): star.apply(x) for p, i, x in basis}
    for r, i, x in basis:
        if star.apply(starred[r, i]) != x:
            wit_inv = basis_label(g, (r, i))
            break

    def anti(xt, yt):
        (r, i, x), (q, j, y) = xt, yt
        return star.apply(x * y) != starred[q, j] * starred[r, i]

    def coproduct(xt, yt):
        (r, i, x), (q, j, y) = xt, yt
        if (q, j) not in starred:  # the unit 1_q
            starred[q, j] = star.apply(y)
        lhs = h.coproduct_right_cut(starred[r, i], y)
        inner = h.coproduct_left_cut_second(starred[q, j], x)
        return lhs != inner.conj_coefficients().map_leg1(star.fn).map_leg2(star.fn)

    wit_anti, wit_delta = _law_witnesses(h, window, [
        _Law(anti, apart=lambda r, q: star.target(r) != star.target(q)),
        _Law(coproduct, "right", star=True)])
    rep.add("star-involutive", "x** = x", wit_inv is None, wit_inv)
    rep.add("star-antimultiplicative", "(xy)* = y* x*", wit_anti is None, wit_anti)
    rep.add("star-coproduct", "Delta(x*) = Delta(x)*", wit_delta is None, wit_delta)
    return rep


def full_suite(h: MhaStructure, window: Window) -> CertificateReport:
    """Algebra checks plus the complete Hopf axiom suite on one window."""
    from .algebras import check_graded_algebra

    rep = CertificateReport(
        title="multiplier Hopf suite (%s)" % h.label, window=window.label,
        subject_digest=h.label,
    )
    rep.extend(check_graded_algebra(h.algebra, window))
    rep.extend(check_t1_t2(h, window))
    rep.extend(check_coassociativity(h, window))
    rep.extend(check_counit(h, window))
    rep.extend(check_antipode(h, window))
    if h.star is not None:
        rep.extend(check_star(h, window))
    return rep


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralSolution:
    functional: Optional[GradedFunctional]
    dimension: int
    basis: tuple
    window_label: str

    @property
    def unique(self) -> bool:
        return self.dimension == 1


def _invariance_rows(h: MhaStructure, window: Window, side: str):
    """Linear equations expressing one-sided invariance of a functional.

    Unknowns are the covector entries, indexed per (component, basis index) in
    window order. Returns (rows, var_index, var_list).
    """
    alg = h.algebra
    var_index = {}
    var_list = []
    for p in window.elements:
        for i in range(alg.dim(p)):
            var_index[(p, i)] = len(var_list)
            var_list.append((p, i))
    rows = []
    wset = set(window.elements)
    unit_elem = h.unit_element() if h.delta.diagonal else None
    if h.delta.diagonal and unit_elem is None:
        raise ValueError("graded-side integrals need a unit element")
    for r in window.elements:
        dr = alg.dim(r)
        for i in range(dr):
            if h.delta.diagonal:
                col = h.delta.block_cols(r, r)[i]
                d2 = alg.dim(r)
                # coefficient table of (id (x) f)Delta(a) resp. (f (x) id)Delta(a),
                # which lives in the r-component
                lhs: dict = {}
                for idx, c in col.items():
                    a, b = divmod(idx, d2)
                    keep, dual = (a, b) if side == "left" else (b, a)
                    cur = lhs.setdefault(keep, {})
                    cur[dual] = cur.get(dual, ZERO) + c
                # equations: lhs|_t - f(a) * unit_t = 0 for t = r and unit components
                # in group order, so that equation numbers do not depend on hashing
                targets = sorted(set(unit_elem.comps) | {r}, key=h.group.sort_key)
                for t in targets:
                    unit_row = unit_elem.comps.get(t, {})
                    for k in range(alg.dim(t)):
                        row = {}
                        if t == r:
                            for dual, c in lhs.get(k, {}).items():
                                if c:
                                    row[var_index[(r, dual)]] = c
                        u = unit_row.get(k)
                        if u:
                            key = var_index[(r, i)]
                            row[key] = row.get(key, ZERO) - u
                        if row:
                            rows.append(row)
            else:
                for out_comp in window.elements:
                    if side == "left":
                        # component of (id (x) f)Delta(a) at out_comp
                        partners = h.delta.seconds_for(r, out_comp)
                        blocks = [(out_comp, q, q) for q in partners]
                    else:
                        partners = h.delta.firsts_for(r, out_comp)
                        blocks = [(p, out_comp, p) for p in partners]
                    if any(dual not in wset for _, _, dual in blocks):
                        continue  # couples unknowns outside the window
                    d_out = alg.dim(out_comp)
                    acc = [dict() for _ in range(d_out)]
                    for (p, q, dual) in blocks:
                        cols = h.delta.block_cols(p, q)
                        if cols is None:
                            continue
                        dq = alg.dim(q)
                        for idx, c in cols[i].items():
                            a, b = divmod(idx, dq)
                            if side == "left":
                                keep, dualidx = a, b
                            else:
                                keep, dualidx = b, a
                            cur = acc[keep]
                            key = var_index[(dual, dualidx)]
                            cur[key] = cur.get(key, ZERO) + c
                    unit_vec = alg.component(out_comp).unit
                    if unit_vec is None:
                        raise ValueError("cograded integrals need unital components")
                    for k in range(d_out):
                        row = dict(acc[k])
                        u = unit_vec[k]
                        if u:
                            key = var_index[(r, i)]
                            row[key] = row.get(key, ZERO) - u
                        if row:
                            rows.append(row)
    return rows, var_index, var_list


def _solution_to_functional(h, window, vec, var_list, label):
    table: Dict = {}
    for (p, i), value in zip(var_list, vec):
        table.setdefault(p, {})[i] = value
    covs = {
        p: tuple(entries.get(i, ZERO) for i in range(h.algebra.dim(p)))
        for p, entries in table.items()
    }
    domain = None if h.group.is_finite else frozenset(window.elements)
    return GradedFunctional(
        h.algebra,
        lambda p: covs.get(p, (ZERO,) * h.algebra.dim(p)),
        label=label,
        domain=domain,
    )


def _solve_integral(h: MhaStructure, window: Window, side: str) -> IntegralSolution:
    rows, var_index, var_list = _invariance_rows(h, window, side)
    basis = kernel_of_sparse_rows(rows, len(var_list))
    normalized = []
    for vec in basis:
        lead = next((c for c in vec if c), None)
        normalized.append(tuple(c / lead for c in vec) if lead else vec)
    functional = None
    if normalized:
        functional = _solution_to_functional(
            h, window, normalized[0], var_list,
            "%s-integral(%s)" % (side, h.label),
        )
    return IntegralSolution(functional, len(normalized), tuple(normalized), window.label)


def solve_left_integral(h: MhaStructure, window: Window) -> IntegralSolution:
    """Solve (id (x) f)Delta(a) = f(a)1 componentwise over the window."""
    return _solve_integral(h, window, "left")


def solve_right_integral(h: MhaStructure, window: Window) -> IntegralSolution:
    """Solve (f (x) id)Delta(a) = f(a)1 componentwise over the window."""
    return _solve_integral(h, window, "right")


def check_integral_membership(
    h: MhaStructure, f: GradedFunctional, side: str, window: Window
) -> CertificateReport:
    """Verify that a given functional satisfies the invariance equations."""
    rep = CertificateReport(
        title="%s-invariance membership (%s)" % (side, h.label),
        window=window.label, subject_digest=h.label,
    )
    rows, var_index, var_list = _invariance_rows(h, window, side)
    values = [f.covector(p)[i] for (p, i) in var_list]
    witness = None
    for n, row in enumerate(rows):
        acc = ZERO
        for k, c in row.items():
            if values[k]:
                acc = acc + c * values[k]
        if acc:
            witness = "equation %d has residual %s" % (n, acc)
            break
    rep.add(
        "%s-invariance" % side,
        "(id(x)f)Delta(a) = f(a)1" if side == "left" else "(f(x)id)Delta(a) = f(a)1",
        witness is None,
        witness,
    )
    return rep


def modular_element(
    h: MhaStructure, phi: GradedFunctional, window: Window
) -> GradedMultiplier:
    """The invertible multiplier with (phi (x) id)Delta(a) = phi(a) delta."""
    alg = h.algebra
    g = h.group
    phi_domain = set(window.elements) if phi.domain is not None else None
    cache: dict = {}

    def solve_component(q):
        # stack the equations phi(a) * delta_q = (phi (x) id)(Delta(a))|_q
        dq = alg.dim(q)
        lhs_rows = []
        rhs = []
        for r, i, a in alg.basis_on(window):
            ps = h.delta.firsts_for(r, q)
            if phi_domain is not None and any(p not in phi_domain for p in ps):
                continue  # would touch the functional outside its window
            vec = [ZERO] * dq
            for p in ps:
                cols = h.delta.block_cols(p, q)
                if cols is None:
                    continue
                cov = phi.covector(p)
                for idx, c in cols[i].items():
                    aidx, b = divmod(idx, dq)
                    if cov[aidx]:
                        vec[b] = vec[b] + cov[aidx] * c
            coeff = phi.value(a)
            for k in range(dq):
                lhs_rows.append({k: coeff})
                rhs.append(vec[k])
        sol = solve_linear(lhs_rows, rhs, dq)
        if sol is None:
            raise ValueError(
                "inconsistent modular system at component %s: the functional is "
                "not left invariant on the window" % g.encode(q)
            )
        if sol.kernel:
            raise ValueError(
                "modular component at %s is undetermined (functional vanishes)"
                % g.encode(q)
            )
        return sol.particular

    def component(q):
        if q not in cache:
            cache[q] = solve_component(q)
        return cache[q]

    mult = GradedMultiplier(alg, component, label="modular(%s)" % phi.label)
    witness = mult.invertible_witness(window)
    if witness is not None:
        raise ValueError("modular multiplier not invertible: %s" % witness)
    return mult


def check_faithful(
    h: MhaStructure, phi: GradedFunctional, window: Window
) -> CertificateReport:
    """Zero kernel of a -> phi(a.) and a -> phi(.a) on window components."""
    alg = h.algebra
    g = h.group
    rep = CertificateReport(
        title="faithfulness (%s)" % phi.label, window=window.label, subject_digest=h.label
    )
    basis = alg.basis_on(window)
    for p in window.elements:
        dp = alg.dim(p)
        own = [(i, a) for q, i, a in basis if q == p]
        rows_left = []
        rows_right = []
        for _, _, b in basis:
            row_l = {}
            row_r = {}
            for i, a in own:
                val = phi.value(a * b)
                if val:
                    row_l[i] = val
                val = phi.value(b * a)
                if val:
                    row_r[i] = val
            if row_l:
                rows_left.append(row_l)
            if row_r:
                rows_right.append(row_r)
        ok_l = not kernel_of_sparse_rows(rows_left, dp)
        ok_r = not kernel_of_sparse_rows(rows_right, dp)
        tag = g.encode(p)
        rep.add("faithful-left@%s" % tag, "phi(ab) = 0 for all b forces a = 0",
                ok_l, None if ok_l else "kernel at %s" % tag)
        rep.add("faithful-right@%s" % tag, "phi(ba) = 0 for all b forces a = 0",
                ok_r, None if ok_r else "kernel at %s" % tag)
    return rep


def modular_automorphism(
    h: MhaStructure, phi: GradedFunctional, window: Window
) -> "tuple[dict, CertificateReport]":
    """Solve phi(ab) = phi(b sigma(a)) for per-component maps sigma_p."""
    alg = h.algebra
    g = h.group
    faith = check_faithful(h, phi, window)
    if not faith.passed:
        raise ValueError("functional is not faithful on the window; sigma undefined")
    var_index = {}
    var_list = []
    for p in window.elements:
        d = alg.dim(p)
        for k in range(d):
            for i in range(d):
                var_index[(p, k, i)] = len(var_list)
                var_list.append((p, k, i))
    rows = []
    rhs = []
    basis = alg.basis_on(window)
    for p in window.elements:
        own = [(i, a) for q, i, a in basis if q == p]
        for _, _, b in basis:
            precomp = [phi.value(b * ek) for _, ek in own]
            for i, a in own:
                row = {var_index[(p, k, i)]: c for k, c in enumerate(precomp) if c}
                target = phi.value(a * b)
                if row or target:
                    rows.append(row)
                    rhs.append(target)
    sol = solve_linear(rows, rhs, len(var_list))
    if sol is None:
        raise ValueError("no modular automorphism matches the functional")
    family = {}
    for p in window.elements:
        d = alg.dim(p)
        family[p] = Matrix.from_rows(
            [[sol.particular[var_index[(p, k, i)]] for i in range(d)] for k in range(d)]
        )
    rep = CertificateReport(
        title="modular automorphism (%s)" % phi.label, window=window.label,
        subject_digest=h.label,
    )
    if sol.kernel:
        rep.add("sigma-unique", "solution space is zero-dimensional", False,
                "kernel dimension %d" % len(sol.kernel))
    else:
        rep.add("sigma-unique", "solution space is zero-dimensional", True)
    sigma = ComponentMap(alg, alg, lambda p: (p, family[p]), label="sigma")
    wit_def = wit_hom = wit_bij = None
    sa = {(p, i): sigma.apply(a) for p, i, a in basis}
    for (p, i, a), (q, j, b) in alg.basis_pairs(window):
        if wit_def is None and phi.value(a * b) != phi.value(b * sa[p, i]):
            wit_def = basis_label(g, (p, i), (q, j))
        if wit_hom is None and sigma.apply(a * b) != sa[p, i] * sa[q, j]:
            wit_hom = basis_label(g, (p, i), (q, j))
    for p in window.elements:
        if not is_bijective(family[p]):
            wit_bij = "sigma block at %s singular" % g.encode(p)
            break
    rep.add("sigma-defining", "phi(ab) = phi(b sigma(a))", wit_def is None, wit_def)
    rep.add("sigma-homomorphism", "sigma(ab) = sigma(a)sigma(b)", wit_hom is None, wit_hom)
    rep.add("sigma-bijective", "each sigma block invertible", wit_bij is None, wit_bij)
    return family, rep


def check_positive_integral(
    h: MhaStructure, phi: GradedFunctional, window: Window
) -> CertificateReport:
    """Exact PSD decision for the Gram matrix phi(e_i* e_j) over the window."""
    alg = h.algebra
    if h.star is None:
        raise ValueError("positivity needs a star structure")
    rep = CertificateReport(
        title="integral positivity (%s)" % phi.label, window=window.label,
        subject_digest=h.label,
    )
    basis = alg.basis_on(window)
    starred = [h.star.apply(x) for (_, _, x) in basis]
    gram = Matrix.from_rows([[phi.value(sx * y) for _, _, y in basis] for sx in starred])
    if gram != gram.conj_transpose():
        rep.add("gram-hermitian", "Gram matrix of phi is Hermitian", False,
                "phi(x*y) != conj(phi(y*x)) somewhere")
        rep.add("gram-psd", "phi(a* a) >= 0", False, "not Hermitian")
        return rep
    rep.add("gram-hermitian", "Gram matrix of phi is Hermitian", True)
    ok = hermitian_psd(gram)
    rep.add("gram-psd", "phi(a* a) >= 0", ok, None if ok else "negative pivot in LDL*")
    return rep


# ---------------------------------------------------------------------------
# Constructors for the stock structures
# ---------------------------------------------------------------------------


def make_kg(g: GroupOracle) -> MhaStructure:
    """Finitely supported functions on the group, as a cograded structure.

    One-dimensional components, pointwise product, (Delta f)(p, q) = f(pq),
    counit f -> f(e), antipode f -> f . inv, star = pointwise conjugation.
    """
    shared = ComponentAlgebra.from_structure_constants([[[1]]], unit=[1])
    shared.star = Matrix.identity(1)
    algebra = GradedAlgebra(
        group=g, mode=COGRADED, component_fn=lambda p: shared, label="kg-%s" % g.name
    )
    one = Matrix.from_rows([[1]])
    delta = CogradedBlockDelta(algebra, lambda p, q: one.sparse_columns())
    antipode = ComponentMap(algebra, algebra, lambda p: (g.invert(p), one), label="S")
    star = ComponentMap(algebra, algebra, lambda p: (p, one), antilinear=True, label="*")
    return MhaStructure(
        algebra=algebra,
        delta=delta,
        counit_fn=lambda p: (ONE,) if p == g.identity else (ZERO,),
        antipode=antipode,
        star=star,
        label="kg-%s" % g.name,
    )


def make_group_algebra(g: GroupOracle) -> MhaStructure:
    """The group algebra as a graded Hopf side: A_p = span{u_p}, u_p u_q = u_{pq}."""
    shared = ComponentAlgebra(1)
    table = {(0, 0): {0: ONE}}  # u_p u_q = u_pq, one table for every block
    one = Matrix.from_rows([[1]])
    algebra = GradedAlgebra(
        group=g,
        mode=GRADED,
        component_fn=lambda p: shared,
        block_fn=lambda p, q: table,
        unit_components={g.identity: (ONE,)},
        label="group-algebra-%s" % g.name,
    )
    delta = DiagonalDelta(algebra, lambda p: one.sparse_columns())
    antipode = ComponentMap(algebra, algebra, lambda p: (g.invert(p), one), label="S")
    star = ComponentMap(
        algebra, algebra, lambda p: (g.invert(p), one), antilinear=True, label="*"
    )
    return MhaStructure(
        algebra=algebra,
        delta=delta,
        counit_fn=lambda p: (ONE,),
        antipode=antipode,
        star=star,
        label="group-algebra-%s" % g.name,
    )


def make_ungraded_group_algebra(g: GroupOracle) -> MhaStructure:
    """The group algebra of a finite group as an ordinary Hopf algebra.

    Single component over the trivial group; the standard input for
    :func:`make_constant_family`.
    """
    from .groups import trivial_group

    if not g.is_finite:
        raise ValueError("needs a finite group")
    n = g.order
    constants = [
        [
            [ONE if g.index(g.multiply(g.elements[i], g.elements[j])) == k else ZERO for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    unit = [ONE if p == g.identity else ZERO for p in g.elements]
    inv_perm = Matrix.from_rows(
        [
            [ONE if g.index(g.invert(g.elements[j])) == i else ZERO for j in range(n)]
            for i in range(n)
        ]
    )
    comp = ComponentAlgebra.from_structure_constants(constants, unit=unit, star=inv_perm)
    tg = trivial_group()
    e = tg.identity
    algebra = GradedAlgebra(
        group=tg, mode=COGRADED, component_fn=lambda p: comp,
        label="hopf-group-algebra-%s" % g.name,
    )
    # Delta(u_x) = u_x (x) u_x
    delta_cols = [{x * n + x: ONE} for x in range(n)]
    delta = DiagonalDelta(algebra, lambda p: delta_cols)
    antipode = ComponentMap(algebra, algebra, lambda p: (e, inv_perm), label="S")
    star = ComponentMap(algebra, algebra, lambda p: (e, inv_perm), antilinear=True, label="*")
    return MhaStructure(
        algebra=algebra,
        delta=delta,
        counit_fn=lambda p: (ONE,) * n,
        antipode=antipode,
        star=star,
        label="hopf-group-algebra-%s" % g.name,
    )


def make_constant_family(h: MhaStructure, g: GroupOracle) -> MhaStructure:
    """The constant family over g with fibre a single-component Hopf algebra.

    Every component is a copy of h, every comultiplication block is h's, the
    counit sits on the identity component and the antipode/star act fibrewise.
    """
    hg = h.algebra.group
    if not hg.is_finite or hg.order != 1:
        raise ValueError("fibre must be a single-component structure")
    e_h = hg.identity
    comp = h.algebra.component(e_h)
    if comp.unit is None:
        raise ValueError("fibre component must be unital")
    delta_cols = h.delta.block_cols(e_h, e_h)
    s_m = h.antipode.matrix(e_h)
    star_m = h.star.matrix(e_h) if h.star is not None else None
    eps = h.counit_covector(e_h)
    d = comp.dim
    algebra = GradedAlgebra(
        group=g, mode=COGRADED, component_fn=lambda p: comp,
        label="constant-%s-over-%s" % (h.label, g.name),
    )
    delta = CogradedBlockDelta(algebra, lambda p, q: delta_cols)
    antipode = ComponentMap(algebra, algebra, lambda p: (g.invert(p), s_m), label="S")
    star = None
    if star_m is not None:
        star = ComponentMap(
            algebra, algebra, lambda p: (p, star_m), antilinear=True, label="*"
        )
    return MhaStructure(
        algebra=algebra,
        delta=delta,
        counit_fn=lambda p: eps if p == g.identity else (ZERO,) * d,
        antipode=antipode,
        star=star,
        label="constant-%s-over-%s" % (h.label, g.name),
    )

"""Dual pairings, twist maps and the twisted-tensor-product double.

A :class:`Pairing` couples a graded side A (group-algebra-like, diagonal
comultiplication) with a cograded side B through per-component bilinear
forms; the four module actions, the twist maps R1, R2 and
R = R1 . R2^-1 . flip, and the double itself are all computed exactly from
block data. The double carries the product twisted by R, the coproduct
built from the co-opposite A-coproduct and the action-deformed B-coproduct,
the counit, the antipode and (in the star case) the involution; when the
action is a crossing the double is graded over the group with the component
at p spanned by A against the inverse component of B, and it inherits a
crossing of its own through the transposed action on A.

The reduced dual builds the component-wise dual structure with the
evaluation pairing, in both directions (cograded to graded and back), which
is what the finite-type double construction over a constant family needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, product
from typing import Callable, Dict, Optional

from .algebras import COGRADED, GRADED, ComponentAlgebra, GradedAlgebra, GradedElement, TensorElement
from .cograded import Action, DeformedBlockDelta, check_admissible, check_crossing, deformed_right_integral
from .exact import (
    GR,
    ONE,
    ZERO,
    Matrix,
    inverse,
    is_bijective,
    rank_of_sparse_columns,
    rational_sqrt,
    rows_of_columns,
    solve_linear,
)
from .groups import Window, basis_label
from .hopf import (
    CogradedBlockDelta,
    ComponentMap,
    DiagonalDelta,
    GradedFunctional,
    MhaStructure,
    check_integral_membership,
    full_suite,
    modular_element,
    solve_left_integral,
)
from .report import CertificateReport, CheckEntry


@dataclass
class Pairing:
    """A dual pairing of a graded side A with a cograded side B.

    ``form_fn(p)`` is the matrix of the pairing on A_p x B_p (rows indexed by
    the A-basis); components with distinct indices pair to zero, which the
    block storage makes structural.
    """

    a_side: MhaStructure
    b_side: MhaStructure
    form_fn: Callable
    label: str = ""
    _forms: dict = field(default_factory=dict, repr=False)

    def form(self, p) -> Matrix:
        if p not in self._forms:
            m = self.form_fn(p)
            if m.rows != self.a_side.algebra.dim(p) or m.cols != self.b_side.algebra.dim(p):
                raise ValueError("pairing form at %r has wrong shape" % (p,))
            self._forms[p] = m
        return self._forms[p]

    @property
    def group(self):
        return self.b_side.group

    def pair(self, a: GradedElement, b: GradedElement) -> GR:
        acc = ZERO
        for p, av in a.comps.items():
            bv = b.comps.get(p)
            if bv is None:
                continue
            rows = self.form(p).sparse_rows()
            for i, ai in av.items():
                row = rows[i]
                for j, bj in bv.items():
                    fij = row.get(j)
                    if fij is not None:
                        acc = acc + ai * fij * bj
        return acc

    def covector_on_a(self, p, brow: dict):
        """The functional <., b> restricted to A_p, as a covector; ``brow`` is
        the sparse p-row of b."""
        f = self.form(p)
        image = f.apply(brow)
        return tuple(image.get(i, ZERO) for i in range(f.rows))

    def covector_on_b(self, p, arow: dict):
        """The functional <a, .> restricted to B_p, as a covector; ``arow`` is
        the sparse p-row of a."""
        f = self.form(p).transpose()
        image = f.apply(arow)
        return tuple(image.get(j, ZERO) for j in range(f.rows))


def make_group_function_pairing(g) -> Pairing:
    """The canonical pairing of the group algebra with the function algebra."""
    from .hopf import make_group_algebra, make_kg

    a = make_group_algebra(g)
    b = make_kg(g)
    one = Matrix.from_rows([[1]])
    return Pairing(a, b, lambda p: one, label="group-function-%s" % g.name)


# ---------------------------------------------------------------------------
# Module actions (Def 1.7-style, computed from block data)
# ---------------------------------------------------------------------------


def _act_on_a(pairing: Pairing, b: GradedElement, a: GradedElement, leg: int) -> GradedElement:
    """Collapse coproduct leg ``leg`` (1 or 2) of a against b through the pairing."""
    aside = pairing.a_side
    t = aside.delta_part_by_second(a, None)

    def cov(q):
        bv = b.comps.get(q)
        if bv is None:
            return (ZERO,) * aside.algebra.dim(q)
        return pairing.covector_on_a(q, bv)

    return t.apply_covector_leg1(cov) if leg == 1 else t.apply_covector_leg2(cov)


def _act_on_b(pairing: Pairing, a: GradedElement, b: GradedElement, leg: int) -> GradedElement:
    """Collapse coproduct leg ``leg`` (1 or 2) of b against a through the pairing."""
    bside = pairing.b_side
    out = bside.algebra.zero()
    for s, av in a.comps.items():

        def cov(q, av=av, s=s):
            if q != s:
                return (ZERO,) * bside.algebra.dim(q)
            return pairing.covector_on_b(q, av)

        if leg == 1:
            out = out + bside.delta_part_by_first(b, [s]).apply_covector_leg1(cov)
        else:
            out = out + bside.delta_part_by_second(b, [s]).apply_covector_leg2(cov)
    return out


def act_b_on_a(pairing: Pairing, b: GradedElement, a: GradedElement) -> GradedElement:
    """b |> a: the pairing collapses the second coproduct leg of a."""
    return _act_on_a(pairing, b, a, 2)


def act_a_on_a(pairing: Pairing, a: GradedElement, b: GradedElement) -> GradedElement:
    """a <| b: the pairing collapses the first coproduct leg of a."""
    return _act_on_a(pairing, b, a, 1)


def act_a_on_b(pairing: Pairing, a: GradedElement, b: GradedElement) -> GradedElement:
    """a |> b: the pairing collapses the second coproduct leg of b."""
    return _act_on_b(pairing, a, b, 2)


def act_b_on_b(pairing: Pairing, b: GradedElement, a: GradedElement) -> GradedElement:
    """b <| a: the pairing collapses the first coproduct leg of b."""
    return _act_on_b(pairing, a, b, 1)


@dataclass(frozen=True)
class ModuleActionTables:
    """Matrices of the actions b |> a and a |> b on window basis vectors."""

    b_on_a: dict  # (p, j) -> Matrix on A_p, the action of b_j at p
    a_on_b: dict  # (s, i, r) -> Matrix B_r -> B_{r s^-1}


def build_module_actions(pairing: Pairing, window: Window):
    """Tabulate b |> a and a |> b on the window and verify the module laws of
    all four actions.

    Returns (tables, report).
    """
    aside, bside = pairing.a_side, pairing.b_side
    g = pairing.group
    rep = CertificateReport(
        title="module actions (%s)" % pairing.label, window=window.label,
        subject_digest=pairing.label,
    )
    a_basis = aside.algebra.basis_on(window)
    b_basis = bside.algebra.basis_on(window)
    b_on_a = {
        (p, j): Matrix.from_columns([act_b_on_a(pairing, bj, ai).comps.get(p, {}) for s, _, ai in a_basis
                                     if s == p], aside.algebra.dim(p))
        for p, j, bj in b_basis
    }
    a_on_b = {}
    for s, i, ai in a_basis:
        for r in window.elements:
            target = g.multiply(r, g.invert(s))
            a_on_b[(s, i, r)] = Matrix.from_columns(
                [act_a_on_b(pairing, ai, bj).comps.get(target, {}) for q, _, bj in b_basis if q == r],
                bside.algebra.dim(target))

    # module laws on window basis triples
    wit = {"assoc-ab": None, "assoc-ba": None, "alg-ba": None, "alg-ab": None}
    for (s, i, x), (t, k, y) in aside.algebra.basis_pairs(window):
        xy = x * y
        for r, j, bj in b_basis:
            if wit["assoc-ab"] is None:
                lhs = act_a_on_b(pairing, xy, bj)
                rhs = act_a_on_b(pairing, x, act_a_on_b(pairing, y, bj))
                if lhs != rhs:
                    wit["assoc-ab"] = basis_label(g, (s, i), (t, k), (r, j))
            if wit["assoc-ba"] is None:
                lhs = act_b_on_b(pairing, bj, xy)
                rhs = act_b_on_b(pairing, act_b_on_b(pairing, bj, x), y)
                if lhs != rhs:
                    wit["assoc-ba"] = basis_label(g, (s, i), (t, k), (r, j))
            if wit["alg-ba"] is None:
                # b |> (xy) = sum (b_(1) |> x)(b_(2) |> y): one slice
                lhs = act_b_on_a(pairing, bj, xy)
                slice_cols = bside.delta.block_cols(s, t)
                total = aside.algebra.zero()
                if slice_cols is not None and bside.delta.source(s, t) == r:
                    for idx, c in slice_cols[j].items():
                        j1, j2 = divmod(idx, bside.algebra.dim(t))
                        u = act_b_on_a(
                            pairing, bside.algebra.basis_element(s, j1), x
                        )
                        v = act_b_on_a(
                            pairing, bside.algebra.basis_element(t, j2), y
                        )
                        total = total + (u * v).scale(c)
                if lhs != total:
                    wit["alg-ba"] = basis_label(g, (s, i), (t, k), (r, j))
    for (r, j, bj), (r2, l, bl) in bside.algebra.basis_pairs(window):
        bb = bj * bl
        for s, i, x in a_basis:
            if wit["alg-ab"] is None:
                lhs = act_a_on_b(pairing, x, bb)
                cols = aside.delta.block_cols(s, s)
                total = bside.algebra.zero()
                for idx, c in cols[i].items():
                    i1, i2 = divmod(idx, aside.algebra.dim(s))
                    u = act_a_on_b(
                        pairing, aside.algebra.basis_element(s, i1), bj
                    )
                    v = act_a_on_b(
                        pairing, aside.algebra.basis_element(s, i2), bl
                    )
                    total = total + (u * v).scale(c)
                if lhs != total:
                    wit["alg-ab"] = basis_label(g, (r, j), (r2, l), (s, i))
    rep.add("module-law-a-on-b", "(aa') |> b = a |> (a' |> b)", wit["assoc-ab"] is None, wit["assoc-ab"])
    rep.add("module-law-b-on-b", "b <| (aa') = (b <| a) <| a'", wit["assoc-ba"] is None, wit["assoc-ba"])
    rep.add("module-algebra-b-on-a", "b |> (xy) expands along the coproduct of b", wit["alg-ba"] is None, wit["alg-ba"])
    rep.add("module-algebra-a-on-b", "a |> (bb') expands along the coproduct of a", wit["alg-ab"] is None, wit["alg-ab"])

    # unitality: the actions reach every basis vector on the window
    witness = None
    for r in window.elements:
        dr = bside.algebra.dim(r)
        cols = []
        for s, i, _ in a_basis:
            # a_i^(s) |> B_{rs} lands in B_r
            m = a_on_b.get((s, i, g.multiply(r, s)))
            if m is not None:
                cols.extend(m.sparse_columns())
        if rank_of_sparse_columns(cols, dr) != dr:
            witness = "component %s is not reached by the forward action" % g.encode(r)
            break
    rep.add("module-unital-b", "every B basis vector is in the span of a |> b",
            witness is None, witness)

    witness = None
    for s in window.elements:
        ds = aside.algebra.dim(s)
        cols = []
        for j in range(bside.algebra.dim(s)):
            cols.extend(b_on_a[(s, j)].sparse_columns())
        if rank_of_sparse_columns(cols, ds) != ds:
            witness = "component %s is not reached by b |> a" % g.encode(s)
            break
    rep.add("module-unital-a", "every A basis vector is in the span of b |> a",
            witness is None, witness)

    return ModuleActionTables(b_on_a, a_on_b), rep


# ---------------------------------------------------------------------------
# Pairing verification
# ---------------------------------------------------------------------------


def check_pairing(pairing: Pairing, window: Window) -> CertificateReport:
    """Non-degeneracy, product/coproduct duality, antipode and star laws."""
    aside, bside = pairing.a_side, pairing.b_side
    g = pairing.group
    rep = CertificateReport(
        title="pairing (%s)" % pairing.label, window=window.label,
        subject_digest=pairing.label,
    )
    witness = None
    for p in window.elements:
        if not is_bijective(pairing.form(p)):
            witness = "form at %s is singular" % g.encode(p)
            break
    rep.add("form-nondegenerate", "each component form is invertible", witness is None, witness)

    a_basis = aside.algebra.basis_on(window)
    b_basis = bside.algebra.basis_on(window)

    @cache
    def coproduct(s, i):  # the diagonal block of Delta(a), once per basis vector
        return aside.delta_part_by_second(aside.algebra.basis_element(s, i), None).blocks.get((s, s), {})

    wit_b = None  # <a, bb'> = <Delta(a), b (x) b'>
    wit_b_act = None
    for (s, i, a), ((u, j, b1), (v, k, b2)) in product(a_basis, bside.algebra.basis_pairs(window)):
        lhs = pairing.pair(a, b1 * b2)
        block = coproduct(s, i)
        rhs = ZERO
        if u == s and v == s:
            fj, fk = pairing.form(s).sparse_columns()[j], pairing.form(s).sparse_columns()[k]
            for (i1, i2), c in block.items():
                if i1 in fj and i2 in fk:
                    rhs = rhs + c * fj[i1] * fk[i2]
        if lhs != rhs and wit_b is None:
            wit_b = "a=%s b=%s b'=%s" % (
                basis_label(g, (s, i)), basis_label(g, (u, j)), basis_label(g, (v, k)))
        if wit_b_act is None:
            alt1 = pairing.pair(act_b_on_a(pairing, b2, a), b1)
            alt2 = pairing.pair(act_a_on_a(pairing, a, b1), b2)
            if lhs != alt1 or lhs != alt2:
                wit_b_act = "a=%s b=%s b'=%s" % (
                    basis_label(g, (s, i)), basis_label(g, (u, j)), basis_label(g, (v, k)))
    rep.add("duality-b-product", "<a, bb'> = <Delta(a), b (x) b'>", wit_b is None, wit_b)
    rep.add("duality-b-actions", "<a, bb'> = <b' |> a, b> = <a <| b, b'>",
            wit_b_act is None, wit_b_act)

    wit_a = None
    wit_a_act = None
    for (s, i, a1), (t, k, a2) in aside.algebra.basis_pairs(window):
        prod = a1 * a2
        for r, j, b in b_basis:
            lhs = pairing.pair(prod, b)
            cols = (
                bside.delta.block_cols(s, t)
                if bside.delta.source(s, t) == r
                else None
            )
            rhs = ZERO
            if cols is not None:
                fs, ft = pairing.form(s).sparse_rows()[i], pairing.form(t).sparse_rows()[k]
                dt = bside.algebra.dim(t)
                for idx, c in cols[j].items():
                    j1, j2 = divmod(idx, dt)
                    if j1 in fs and j2 in ft:
                        rhs = rhs + c * fs[j1] * ft[j2]
            if lhs != rhs and wit_a is None:
                wit_a = "a=%s a'=%s b=%s" % (
                    basis_label(g, (s, i)), basis_label(g, (t, k)), basis_label(g, (r, j)))
            if wit_a_act is None:
                alt1 = pairing.pair(a1, act_a_on_b(pairing, a2, b))
                alt2 = pairing.pair(a2, act_b_on_b(pairing, b, a1))
                if lhs != alt1 or lhs != alt2:
                    wit_a_act = "a=%s a'=%s b=%s" % (
                        basis_label(g, (s, i)), basis_label(g, (t, k)), basis_label(g, (r, j)))
    rep.add("duality-a-product", "<aa', b> = <a (x) a', Delta(b)>", wit_a is None, wit_a)
    rep.add("duality-a-actions", "<aa', b> = <a, a' |> b> = <a', b <| a>",
            wit_a_act is None, wit_a_act)

    # A_s pairs with B_s, so S(a) pairs with the inverse component, which an
    # integer window need not contain
    antipode_a = cache(lambda s, i: aside.antipode.apply(aside.algebra.basis_element(s, i)))
    witness = None
    for (s, i, a), (r, j, b) in (
            (x, y) for x in a_basis for y in bside.algebra._basis_of(g.invert(x[0]))):
        if pairing.pair(antipode_a(s, i), b) != pairing.pair(a, bside.antipode.apply(b)):
            witness = "a=%s b=%s" % (basis_label(g, (s, i)), basis_label(g, (r, j)))
            break
    rep.add("antipode-compatibility", "<S(a), b> = <a, S(b)>", witness is None, witness)

    if aside.star is not None and bside.star is not None:
        star_a = cache(lambda s, i: aside.apply_star(aside.algebra.basis_element(s, i)))
        witness = None
        for (s, i, a), (r, j, b) in product(a_basis, b_basis):
            astar = star_a(s, i)
            rhs = pairing.pair(
                a, bside.apply_star(bside.antipode.apply(b))
            ).conj()
            if pairing.pair(astar, b) != rhs:
                witness = "a=%s b=%s" % (basis_label(g, (s, i)), basis_label(g, (r, j)))
                break
        rep.add("star-pairing", "<a*, b> = conj(<a, S(b)*>)", witness is None, witness)

    unit_b = cache(lambda s: bside.algebra.element({s: bside.algebra.component(s).unit}))
    witness = None
    for s, i, a in a_basis:
        if pairing.pair(a, unit_b(s)) != aside.counit_value(a):
            witness = "a=%s" % basis_label(g, (s, i))
            break
    rep.add("counit-compatibility-a", "<a, 1_p> = eps(a) on A_p", witness is None, witness)

    unit_a = aside.unit_element()
    if unit_a is not None:
        witness = None
        for r, j, b in b_basis:
            if pairing.pair(unit_a, b) != bside.counit_value(b):
                witness = "b=%s" % basis_label(g, (r, j))
                break
        rep.add("counit-compatibility-b", "<1, b> = eps(b)", witness is None, witness)
    return rep


def induced_grading_check(pairing: Pairing, window: Window) -> CertificateReport:
    """The A-side grading induced by the component units of B.

    For each window basis vector of A an element e of B with e |> a = a is
    solved for; cutting e down to single components realizes the projections
    onto the graded pieces, whose spans are compared with the declared
    components.
    """
    aside, bside = pairing.a_side, pairing.b_side
    g = pairing.group
    rep = CertificateReport(
        title="induced grading (%s)" % pairing.label, window=window.label,
        subject_digest=pairing.label,
    )
    a_basis = aside.algebra.basis_on(window)
    b_basis = bside.algebra.basis_on(window)
    witness = None
    projections: Dict = {}
    for s, i, a in a_basis:
        cols = [act_b_on_a(pairing, b, a).comps.get(s, {}) for r, _, b in b_basis if r == s]
        sol = solve_linear(rows_of_columns(cols, aside.algebra.dim(s)), a.coeff(s), len(cols))
        if sol is None:
            witness = "no local unit for %s" % basis_label(g, (s, i))
            break
        e = bside.algebra.element({s: sol.particular})
        for p in window.elements:
            cut = e.restrict([p])
            image = act_b_on_a(pairing, cut, a) if not cut.is_zero() else aside.algebra.zero()
            projections.setdefault(p, []).append((s, i, image))
    rep.add("module-local-units", "every A basis vector has a local unit in B",
            witness is None, witness)
    if witness is None:
        for p in window.elements:
            dp = aside.algebra.dim(p)
            wrong = next(((s, i) for s, i, image in projections.get(p, []) if image != (
                aside.algebra.basis_element(p, i) if s == p else aside.algebra.zero())), None)
            if wrong is not None:
                witness = "unit cut at %s acts wrongly on %s" % (g.encode(p), basis_label(g, wrong))
                break
            cols = [image.comps.get(p, {}) for s, _, image in projections.get(p, []) if s == p]
            if rank_of_sparse_columns(cols, dp) != dp:
                witness = "projections do not span the %s component" % g.encode(p)
                break
        rep.add("induced-components", "the unit cut-downs project onto the graded pieces",
                witness is None, witness)

    witness = None
    for (p, i, x), (q, j, y) in aside.algebra.basis_pairs(window):
        target = g.multiply(p, q)
        if any(t != target for t in (x * y).support()):
            witness = "%s%s leaves the %s component" % (
                basis_label(g, (p, i)), basis_label(g, (q, j)), g.encode(target))
            break
    rep.add("graded-product", "the product multiplies the grading", witness is None, witness)

    witness = None
    for p, i, a in a_basis:
        t = aside.delta_part_by_second(a, None)
        if any(key != (p, p) for key in t.blocks):
            witness = "coproduct of %s leaves the diagonal" % basis_label(g, (p, i))
            break
    rep.add("graded-coproduct", "coproducts pair to zero off the diagonal",
            witness is None, witness)

    witness = None
    for p in window.elements:
        if aside.antipode.target(p) != g.invert(p):
            witness = "antipode sends %s to %s" % (
                g.encode(p), g.encode(aside.antipode.target(p)))
            break
        if not is_bijective(aside.antipode.matrix(p)):
            witness = "antipode block at %s singular" % g.encode(p)
            break
    rep.add("graded-antipode", "the antipode maps the p component onto the inverse one",
            witness is None, witness)

    witness = None
    for (p, j, b), (q, i, a) in chain.from_iterable(
            product(bside.algebra._basis_of(p), aside.algebra._basis_of(q))
            for p, q in window.pairs() if p != q):
        if not act_b_on_a(pairing, b, a).is_zero():
            witness = "b=%s a=%s" % (basis_label(g, (p, j)), basis_label(g, (q, i)))
            break
    rep.add("mixed-grading-annihilation", "b |> a vanishes on mismatched components",
            witness is None, witness)
    return rep


# ---------------------------------------------------------------------------
# Twist maps
# ---------------------------------------------------------------------------


class TwistCalculus:
    """The maps R1, R2, their inverses, and R = R1 . R2^-1 . flip.

    All maps are computed on basis tensors and extended linearly; R is
    computed both ways (composition and closed form) and a disagreement is a
    hard error, since it would mean the slice indexing is wrong.
    """

    def __init__(self, pairing: Pairing, action: Action):
        self.pairing = pairing
        self.action = action
        self.aside = pairing.a_side
        self.bside = pairing.b_side
        if not pairing.group.is_finite:
            raise ValueError("the twist maps need a finite group")
        self.scan = pairing.group.elements
        self._sinv = self.bside.antipode.inverse_on(self.scan)
        self._r_cache: dict = {}
        self._sbar_cache: dict = {}

    # -- Sweedler slices of the cograded side ---------------------------------

    def _slice2(self, r, j, u):
        """Terms of the (u, u^-1 r) slice of Delta(b) for the basis b=(r, j)."""
        g = self.pairing.group
        v = g.multiply(g.invert(u), r)
        cols = self.bside.delta.block_cols(u, v)
        if cols is None:
            return v, []
        dv = self.bside.algebra.dim(v)
        return v, [(idx // dv, idx % dv, c) for idx, c in cols[j].items()]

    def _slice3(self, r, j, u, w):
        """Terms of the (u, v, w) slice of the double coproduct, v = u^-1 r w^-1."""
        g = self.pairing.group
        v = g.multiply(g.multiply(g.invert(u), r), g.invert(w))
        uv = g.multiply(u, v)
        outer = self.bside.delta.block_cols(uv, w)
        inner = self.bside.delta.block_cols(u, v)
        if outer is None or inner is None:
            return v, []
        dw = self.bside.algebra.dim(w)
        dv = self.bside.algebra.dim(v)
        terms = []
        for idx, c in outer[j].items():
            a, k3 = divmod(idx, dw)
            for idx2, c2 in inner[a].items():
                k1, k2 = divmod(idx2, dv)
                terms.append((k1, k2, k3, c * c2))
        return v, terms

    # -- the four basic maps on basis tensors ---------------------------------

    def r1_basis(self, s, i, r, j) -> TensorElement:
        """R1 on a basis tensor of A_s (x) B_r."""
        g = self.pairing.group
        rho = self.action.rho
        twist = g.multiply(s, g.invert(r))
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        a = self.aside.algebra.basis_element(s, i)
        for u in self.scan:
            if rho.apply(twist, u) != s:
                continue
            v, terms = self._slice2(r, j, u)
            tw = self.action.block(twist, u).sparse_columns()
            for (k1, k2, c) in terms:
                moved = self.bside.algebra.from_sparse({s: tw[k1]})
                acted = act_b_on_a(self.pairing, moved, a)
                out.accumulate_outer(acted, self.bside.algebra.basis_element(v, k2), c)
        return out

    def r1_inv_basis(self, s, i, r, j) -> TensorElement:
        g = self.pairing.group
        rho = self.action.rho
        rinv = g.invert(r)
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        a = self.aside.algebra.basis_element(s, i)
        for u in self.scan:
            if rho.apply(rinv, g.invert(u)) != s:
                continue
            v, terms = self._slice2(r, j, u)
            src, sinv_m = self._sinv.fn(u)  # S^-1 : B_u -> B_{u^-1}
            # the twist after S^-1, column by column
            moved_cols = self.action.block(rinv, g.invert(u)).compose(sinv_m).sparse_columns()
            for (k1, k2, c) in terms:
                moved = self.bside.algebra.from_sparse({s: moved_cols[k1]})
                acted = act_b_on_a(self.pairing, moved, a)
                out.accumulate_outer(acted, self.bside.algebra.basis_element(v, k2), c)
        return out

    def r2_basis(self, s, i, r, j) -> TensorElement:
        g = self.pairing.group
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        a = self.aside.algebra.basis_element(s, i)
        u = g.multiply(r, g.invert(s))
        v, terms = self._slice2(r, j, u)  # v = s
        for (k1, k2, c) in terms:
            right_leg = self.bside.algebra.basis_element(v, k2)
            acted = act_a_on_a(self.pairing, a, right_leg)
            out.accumulate_outer(acted, self.bside.algebra.basis_element(u, k1), c)
        return out

    def r2_inv_basis(self, s, i, r, j) -> TensorElement:
        g = self.pairing.group
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        a = self.aside.algebra.basis_element(s, i)
        u = g.multiply(r, s)
        v, terms = self._slice2(r, j, u)  # v = s^-1
        src, sinv_m = self._sinv.fn(v)  # S^-1 : B_v -> B_{v^-1} = B_s
        sinv_cols = sinv_m.sparse_columns()
        for (k1, k2, c) in terms:
            acted = act_a_on_a(
                self.pairing, a, self.bside.algebra.from_sparse({s: sinv_cols[k2]})
            )
            out.accumulate_outer(acted, self.bside.algebra.basis_element(u, k1), c)
        return out

    def r_closed_basis(self, r, j, s, i) -> TensorElement:
        """R on a basis tensor of B_r (x) A_s, by the closed slice formula."""
        g = self.pairing.group
        rho = self.action.rho
        rinv = g.invert(r)
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        a = self.aside.algebra.basis_element(s, i)
        w = g.invert(s)
        for u in self.scan:
            if rho.apply(rinv, u) != s:
                continue
            v, terms = self._slice3(r, j, u, w)
            tw = self.action.block(rinv, u).sparse_columns()
            src, sinv_m = self._sinv.fn(w)  # S^-1 : B_w -> B_s
            sinv_cols = sinv_m.sparse_columns()
            for (k1, k2, k3, c) in terms:
                moved = self.bside.algebra.from_sparse({s: tw[k1]})
                acted = act_b_on_a(self.pairing, moved, a)
                acted = act_a_on_a(
                    self.pairing, acted, self.bside.algebra.from_sparse({s: sinv_cols[k3]})
                )
                out.accumulate_outer(acted, self.bside.algebra.basis_element(v, k2), c)
        return out

    # -- linear extension helpers ---------------------------------------------

    def apply_ab(self, fn, t: TensorElement) -> TensorElement:
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        for (s, r), block in t.blocks.items():
            for (i, j), c in block.items():
                out.accumulate(fn(s, i, r, j), c)
        return out

    def r1(self, t):
        return self.apply_ab(self.r1_basis, t)

    def r1_inv(self, t):
        return self.apply_ab(self.r1_inv_basis, t)

    def r2(self, t):
        return self.apply_ab(self.r2_basis, t)

    def r2_inv(self, t):
        return self.apply_ab(self.r2_inv_basis, t)

    def r_basis(self, r, j, s, i) -> TensorElement:
        """R on a basis tensor, memoized; composition and closed form must agree."""
        key = (r, j, s, i)
        if key not in self._r_cache:
            closed = self.r_closed_basis(r, j, s, i)
            flipped = TensorElement(self.aside.algebra, self.bside.algebra)
            flipped.add_term(s, r, i, j, ONE)
            composed = self.r1(self.r2_inv(flipped))
            if closed != composed:
                raise ValueError(
                    "twist map indexing error at b=(%s,%d), a=(%s,%d): composition "
                    "and closed form disagree"
                    % (self.pairing.group.encode(r), j, self.pairing.group.encode(s), i)
                )
            self._r_cache[key] = closed
        return self._r_cache[key]

    def r(self, t: TensorElement) -> TensorElement:
        """R on an element of B (x) A."""
        out = TensorElement(self.aside.algebra, self.bside.algebra)
        for (r, s), block in t.blocks.items():
            for (j, i), c in block.items():
                out.accumulate(self.r_basis(r, j, s, i), c)
        return out

    def r_inv(self, t: TensorElement) -> TensorElement:
        """R^-1 = flip . R2 . R1^-1 on an element of A (x) B."""
        return self.r2(self.r1_inv(t)).flip()

    def sbar_tensor(self, s, i, r, j) -> TensorElement:
        """The double's antipode on a basis tensor: R((pi S)(b) (x) S^-1(a)), memoized."""
        key = (s, i, r, j)
        if key not in self._sbar_cache:
            g = self.pairing.group
            sb = self.bside.antipode.apply(self.bside.algebra.basis_element(r, j))
            sb = self.action.component_map(g.invert(r)).apply(sb)
            sa_inv = self._a_antipode_inverse.apply(self.aside.algebra.basis_element(s, i))
            self._sbar_cache[key] = self.r(TensorElement.of_pair(sb, sa_inv))
        return self._sbar_cache[key]

    @cached_property
    def _a_antipode_inverse(self) -> ComponentMap:
        """The inverse of the A antipode on the scan, built once per twist."""
        return self.aside.antipode.inverse_on(self.scan)


def check_twist(twist: TwistCalculus, window: Window) -> CertificateReport:
    """Round trips, closed-form agreement, and the braid compatibilities."""
    pairing = twist.pairing
    aside, bside = twist.aside, twist.bside
    g = pairing.group
    rep = CertificateReport(
        title="twist maps (%s, %s)" % (pairing.label, twist.action.label),
        window=window.label, subject_digest=pairing.label,
    )

    a_basis = aside.algebra.basis_on(window)
    b_basis = bside.algebra.basis_on(window)
    wit_r1 = wit_r2 = wit_r = wit_closed = None
    for (s, i, _), (r, j, _) in product(a_basis, b_basis):
        t = TensorElement(aside.algebra, bside.algebra)
        t.add_term(s, r, i, j, ONE)
        if wit_r1 is None and twist.r1_inv(twist.r1(t)) != t:
            wit_r1 = "%s(x)%s" % (basis_label(g, (s, i)), basis_label(g, (r, j)))
        if wit_r2 is None and twist.r2_inv(twist.r2(t)) != t:
            wit_r2 = "%s(x)%s" % (basis_label(g, (s, i)), basis_label(g, (r, j)))
        try:
            img = twist.r_basis(r, j, s, i)
        except ValueError as exc:
            wit_closed = str(exc)
            break
        if wit_r is None:
            back = twist.r_inv(img)
            expected = TensorElement(bside.algebra, aside.algebra)
            expected.add_term(r, s, j, i, ONE)
            if back != expected:
                wit_r = "%s(x)%s" % (basis_label(g, (r, j)), basis_label(g, (s, i)))
    rep.add("twist-r1-roundtrip", "R1 composed with its inverse is the identity",
            wit_r1 is None, wit_r1)
    rep.add("twist-r2-roundtrip", "R2 composed with its inverse is the identity",
            wit_r2 is None, wit_r2)
    rep.add("twist-closed-form", "composition equals the closed slice formula",
            wit_closed is None, wit_closed)
    rep.add("twist-r-roundtrip", "R composed with its inverse is the identity",
            wit_r is None, wit_r)

    # braid compatibilities with the two multiplications
    wit1 = wit2 = None
    for (r1c, j1, b1), (r2c, j2, b2), (s, i, a) in product(b_basis, b_basis, a_basis):
        lhs = twist.r(TensorElement.of_pair(b1 * b2, a))
        step = twist.r(TensorElement.of_pair(b2, a))  # A (x) B
        rhs = TensorElement(aside.algebra, bside.algebra)
        for (s2, v2), block in step.blocks.items():
            for (i2, k2), c in block.items():
                part = TensorElement.of_pair(
                    b1, aside.algebra.basis_element(s2, i2))
                moved = twist.r(part).mul_leg2_right(
                    bside.algebra.basis_element(v2, k2)
                )
                rhs.accumulate(moved, c)
        if lhs != rhs:
            wit1 = "b=%s b'=%s a=%s" % (
                basis_label(g, (r1c, j1)), basis_label(g, (r2c, j2)), basis_label(g, (s, i)))
            break
    for (r1c, j1, b1), (s1, i1, a1), (s2, i2, a2) in product(b_basis, a_basis, a_basis):
        lhs = twist.r(TensorElement.of_pair(b1, a1 * a2))
        step = twist.r(TensorElement.of_pair(b1, a1))  # A (x) B
        rhs = TensorElement(aside.algebra, bside.algebra)
        for (sa, rb), block in step.blocks.items():
            for (ia, jb), c in block.items():
                part = TensorElement.of_pair(
                    bside.algebra.basis_element(rb, jb), a2)
                moved = twist.r(part).mul_leg1_left(
                    aside.algebra.basis_element(sa, ia)
                )
                rhs.accumulate(moved, c)
        if lhs != rhs:
            wit2 = "b=%s a=%s a'=%s" % (
                basis_label(g, (r1c, j1)), basis_label(g, (s1, i1)), basis_label(g, (s2, i2)))
            break
    rep.add("twist-braid-b", "R after the B product factors through R twice",
            wit1 is None, wit1)
    rep.add("twist-braid-a", "R after the A product factors through R twice",
            wit2 is None, wit2)

    # crossing case: the twist preserves the B-component of its legs
    from .cograded import check_crossing

    if check_crossing(twist.action, window).passed:
        witness = None
        for (s, i, _), (r, j, _) in product(a_basis, b_basis):
            img = twist.r_basis(r, j, s, i)
            if any(key[1] != r for key in img.blocks):
                witness = "R moves %s(x)%s off the %s leg" % (
                    basis_label(g, (r, j)), basis_label(g, (s, i)), g.encode(r))
                break
            back = TensorElement(aside.algebra, bside.algebra)
            back.add_term(s, r, i, j, ONE)
            if any(key[0] != r for key in twist.r_inv(back).blocks):
                witness = "R^-1 moves %s(x)%s off the %s leg" % (
                    basis_label(g, (s, i)), basis_label(g, (r, j)), g.encode(r))
                break
        rep.add("twist-component-typing",
                "the twist carries each B component onto itself",
                witness is None, witness)
    return rep


# ---------------------------------------------------------------------------
# The double
# ---------------------------------------------------------------------------


@dataclass
class DoubleStructure:
    """The twisted tensor product of the co-opposite A with the deformed B.

    Elements are represented as tensors in A (x) B; ``mha`` is the verified
    view: graded over the group with the p-component spanned by A against
    the inverse B-component when the action is a crossing, and over the
    trivial group otherwise. ``comp_basis`` lists the basis tensors of each
    view component in their local order, and ``position`` is the one map
    from A (x) B basis tensors to view coordinates.
    """

    pairing: Pairing
    action: Action
    twist: TwistCalculus
    mha: MhaStructure
    crossing: bool
    a_basis: list  # global A basis, (component, index) in group order
    b_basis: list
    comp_basis: dict  # view component P -> its (s, i, r, j) keys in local order
    label: str = ""
    deformed_delta: Optional[DeformedBlockDelta] = None
    _mul_cache: dict = field(default_factory=dict, repr=False)
    _leg_cache: dict = field(default_factory=dict, repr=False)
    _dbar_cache: dict = field(default_factory=dict, repr=False)
    _star_cache: dict = field(default_factory=dict, repr=False)

    # -- coordinates -------------------------------------------------------------

    @cached_property
    def position(self) -> dict:
        """The view coordinates of the basis tensors: (s, i, r, j) -> (P, k)."""
        return {key: (P, k) for P, basis in self.comp_basis.items() for k, key in enumerate(basis)}

    def view_coords(self, t: TensorElement) -> GradedElement:
        """The element of the certified view carried by an A (x) B tensor."""
        acc: dict = {}
        for s, r, i, j, c in t.terms():
            P, k = self.position[(s, i, r, j)]
            acc.setdefault(P, {})[k] = c  # distinct terms have distinct positions
        return self.mha.algebra.from_sparse(acc)

    def basis_tensor(self, s, i, r, j) -> TensorElement:
        t = TensorElement(self.pairing.a_side.algebra, self.pairing.b_side.algebra)
        t.add_term(s, r, i, j, ONE)
        return t

    # -- arithmetic --------------------------------------------------------------

    def _basis_product(self, key) -> TensorElement:
        if key not in self._mul_cache:
            (s1, i1, r1, j1, s2, i2, r2, j2) = key
            aside = self.pairing.a_side
            bside = self.pairing.b_side
            out = TensorElement(aside.algebra, bside.algebra)
            moved = self.twist.r_basis(r1, j1, s2, i2)
            b2 = bside.algebra.basis_element(r2, j2)
            a1 = aside.algebra.basis_element(s1, i1)
            for (sm, rm), block in moved.blocks.items():
                for (im, jm), c in block.items():
                    left = a1 * aside.algebra.basis_element(sm, im)
                    right = bside.algebra.basis_element(rm, jm) * b2
                    out.accumulate_outer(left, right, c)
            self._mul_cache[key] = out
        return self._mul_cache[key]

    def dmul(self, t1: TensorElement, t2: TensorElement) -> TensorElement:
        out = TensorElement(self.pairing.a_side.algebra, self.pairing.b_side.algebra)
        for s1, r1, i1, j1, c1 in t1.terms():
            for s2, r2, i2, j2, c2 in t2.terms():
                out.accumulate(self._basis_product((s1, i1, r1, j1, s2, i2, r2, j2)), c1 * c2)
        return out

    @cached_property
    def _units(self) -> tuple:
        """The units of A and B, built once per double."""
        return self.pairing.a_side.unit_element(), self.pairing.b_side.unit_element()

    def dbar(self, s, i, r, j) -> TensorElement:
        """The coproduct of a basis vector, a tensor over the view on both legs.

        Computed as the product of the embedded co-opposite A legs with the
        embedded deformed B legs inside the double, not from a shortcut.
        """
        key = (s, i, r, j)
        if key not in self._dbar_cache:
            self._dbar_cache[key] = self._leg_products(s, i, r, j, b_first=False)
        return self._dbar_cache[key]

    def _embedded_product(self, s, k, r, m, b_first: bool) -> GradedElement:
        """The double product of the embedded basis vectors a_(s,k) and b_(r,m),
        B first when ``b_first``, in view coordinates; memoized."""
        key = (s, k, r, m, b_first)
        if key not in self._leg_cache:
            unit_a, unit_b = self._units
            ea = TensorElement.of_pair(self.pairing.a_side.algebra.basis_element(s, k), unit_b)
            eb = TensorElement.of_pair(unit_a, self.pairing.b_side.algebra.basis_element(r, m))
            self._leg_cache[key] = self.view_coords(self.dmul(eb, ea) if b_first else self.dmul(ea, eb))
        return self._leg_cache[key]

    def _leg_products(self, s, i, r, j, b_first: bool) -> TensorElement:
        """Sum over the co-opposite A legs and the deformed B legs of the basis
        vector (s, i, r, j) of the double products of the embedded legs, in
        view coordinates on both legs; ``b_first`` puts each B leg before its
        A leg, which gives the reversed multiplier product."""
        aside = self.pairing.a_side
        bside = self.pairing.b_side
        g = self.pairing.group
        if self.deformed_delta is None:
            self.deformed_delta = DeformedBlockDelta(bside.delta, self.action)
        acop = aside.delta.block_cols(s, s)[i]
        da = aside.algebra.dim(s)
        view = self.mha.algebra
        out = TensorElement(view, view)
        for q2 in self.twist.scan:
            p2 = self.action.rho.apply(g.invert(q2), g.multiply(r, g.invert(q2)))
            cols = self.deformed_delta.block_cols(p2, q2)
            if cols is None:
                continue
            db2 = bside.algebra.dim(q2)
            for bidx, cb in cols[j].items():
                m1, m2 = divmod(bidx, db2)
                for aidx, ca in acop.items():
                    k1, k2 = divmod(aidx, da)
                    # co-opposite: the second A leg goes with the first B leg
                    out.accumulate_outer(self._embedded_product(s, k2, p2, m1, b_first),
                                         self._embedded_product(s, k1, q2, m2, b_first), ca * cb)
        return out

    def star_tensor(self, s, i, r, j) -> TensorElement:
        """The involution on a basis vector: R(b* (x) a*), memoized."""
        key = (s, i, r, j)
        if key not in self._star_cache:
            bside = self.pairing.b_side
            aside = self.pairing.a_side
            bstar = bside.apply_star(bside.algebra.basis_element(r, j))
            astar = aside.apply_star(aside.algebra.basis_element(s, i))
            self._star_cache[key] = self.twist.r(TensorElement.of_pair(bstar, astar))
        return self._star_cache[key]


class DoubleLawError(ValueError):
    """A failed law that stops ``build_double``; ``entry`` is its failing check."""

    def __init__(self, entry: CheckEntry):
        super().__init__("%s fails at %s" % (entry.law, entry.witness))
        self.entry = entry


def _star_involution_witness(d: DoubleStructure):
    """The twisted-tensor star condition: applying R(b* (x) a*) twice is the identity."""
    aside, bside = d.pairing.a_side, d.pairing.b_side
    g = d.pairing.group
    for (s, i), (r, j) in product(d.a_basis, d.b_basis):
        once = d.star_tensor(s, i, r, j)
        twice = TensorElement(aside.algebra, bside.algebra)
        for s2, r2, i2, j2, c in once.terms():
            twice.accumulate(d.star_tensor(s2, i2, r2, j2), c.conj())
        if twice != d.basis_tensor(s, i, r, j):
            return "basis %s(x)%s" % (basis_label(g, (s, i)), basis_label(g, (r, j)))
    return None


def build_double(pairing: Pairing, action: Action) -> DoubleStructure:
    """Assemble the double of a pairing along an admissible action.

    The product comes from the twist map (composition and closed form are
    required to agree), the coproduct from the embedded-leg products, and the
    grading plus the star are attached when available. The group must be
    finite; infinite-group doubles would need windowed carrier spaces.
    """
    g = pairing.group
    if not g.is_finite:
        raise ValueError("the double needs a finite group")
    if action.base.algebra is not pairing.b_side.algebra:
        raise ValueError("action %s acts on %s, not on the pairing's B side %s"
                         % (action.label, action.base.label, pairing.b_side.label))
    window = Window.full(g)
    cert = action._certified.get(window.label) or check_admissible(action, window)
    if not cert.passed:
        raise ValueError("action %s is not admissible" % action.label)
    aside, bside = pairing.a_side, pairing.b_side
    crossing = check_crossing(action, window).passed
    twist = TwistCalculus(pairing, action)

    a_basis = [(s, i) for s in g.elements for i in range(aside.algebra.dim(s))]
    b_basis = [(r, j) for r in g.elements for j in range(bside.algebra.dim(r))]

    # the one grading decision: a crossing grades the double over the group,
    # with A against B_{p^-1} at p; otherwise the view is over the trivial group
    if crossing:
        view_group = g
        comp_basis = {
            p: [(s, i, g.invert(p), j) for (s, i) in a_basis
                for j in range(bside.algebra.dim(g.invert(p)))]
            for p in g.elements
        }
    else:
        from .groups import trivial_group

        view_group = trivial_group()
        comp_basis = {
            view_group.identity: [
                (s, i, r, j) for (s, i) in a_basis for (r, j) in b_basis
            ]
        }

    label = "double(%s; %s)" % (pairing.label, action.label)
    d = DoubleStructure(
        pairing=pairing,
        action=action,
        twist=twist,
        mha=None,  # filled below
        crossing=crossing,
        a_basis=a_basis,
        b_basis=b_basis,
        comp_basis=comp_basis,
        label=label,
    )
    has_star = aside.star is not None and bside.star is not None
    if has_star:
        witness = _star_involution_witness(d)
        if witness is not None:
            raise DoubleLawError(CheckEntry(
                "star-involution", "star involution condition", False, witness))

    def dense(row: dict, n: int) -> list:
        return [row.get(k, ZERO) for k in range(n)]

    position = d.position

    def view_row(t: TensorElement, P) -> dict:
        """The sparse row of an A (x) B tensor that lies in view component P."""
        row = {}
        for s, r, i, j, c in t.terms():
            Q, k = position[(s, i, r, j)]
            if Q != P:
                raise ValueError("tensor leaves the view component %s" % view_group.encode(P))
            row[k] = c  # distinct terms have distinct positions
        return row

    # the view holds tables and the twist, never d, so a double is freed when
    # its last reference goes. The antipode stays lazy: S-bar applies the
    # action's component maps to elements of B, and a double built with an
    # action over an equal copy of B works as long as no one asks for it
    def antipode_fn(P):
        target = view_group.invert(P)
        dim = len(comp_basis[target])
        return target, Matrix.from_columns(
            [view_row(twist.sbar_tensor(*key), target) for key in comp_basis[P]], dim)

    components: dict = {}
    blocks: dict = {}
    view_alg = GradedAlgebra(
        group=view_group,
        mode=COGRADED,
        component_fn=components.__getitem__,
        label=label,
    )
    d.mha = MhaStructure(
        algebra=view_alg,
        delta=CogradedBlockDelta(view_alg, lambda P, Q: blocks[(P, Q)]),
        counit_fn=lambda P: tuple(aside.counit_covector(s)[i] * bside.counit_covector(r)[j]
                                  for (s, i, r, j) in comp_basis[P]),
        antipode=ComponentMap(view_alg, view_alg, antipode_fn, label="Sbar"),
        star=ComponentMap(view_alg, view_alg, lambda P: (P, components[P].star),
                          antilinear=True, label="*")
        if has_star
        else None,
        label=label,
    )

    # the unit of component p is the part of 1 (x) 1 that lies in it
    unit = d.view_coords(TensorElement.of_pair(*d._units)).comps
    for p, basis in comp_basis.items():
        dim = len(basis)
        products = {}
        for x, key1 in enumerate(basis):
            for y, key2 in enumerate(basis):
                entry = view_row(d._basis_product(key1 + key2), p)
                if entry:
                    products[(x, y)] = entry
        star = None
        if has_star:
            star = Matrix.from_columns([view_row(d.star_tensor(*key), p) for key in basis], dim)
        components[p] = ComponentAlgebra(dim, products, unit=dense(unit.get(p, {}), dim), star=star)
    for P, Q in product(comp_basis, repeat=2):
        # block (P, Q) of the coproduct of each basis vector of the source
        dq = len(comp_basis[Q])
        blocks[(P, Q)] = [
            {k1 * dq + k2: c for (k1, k2), c in d.dbar(*key).blocks.get((P, Q), {}).items()}
            for key in comp_basis[view_group.multiply(P, Q)]
        ]
    return d


# ---------------------------------------------------------------------------
# Double verification
# ---------------------------------------------------------------------------


def check_double_axioms(d: DoubleStructure) -> CertificateReport:
    """The full Hopf suite on the double plus its construction identities.

    Two facts follow from the other entries and are not checked again.

    * Both leg-resolved expressions of the product
      (a1 (x) b1)(a2 (x) b2) = a1 R(b1 (x) a2) b2 agree with it. By
      ``twist-r-roundtrip`` R^-1 R = id, and R maps B (x) A to A (x) B, spaces
      of the same finite dimension, so R R^-1 = id too. Resolve the left
      factor as a1 (x) b1 = sum R(b (x) a) over R^-1(a1 (x) b1) = sum b (x) a.
      By ``twist-braid-a``, R(b (x) a a2) = sum a' R(b' (x) a2) over
      R(b (x) a) = sum a' (x) b', so by linearity sum R(b (x) a a2) b2 is
      a1 R(b1 (x) a2) b2. The right factor resolves the same way through
      R^-1(a2 (x) b2) and ``twist-braid-b``.
    * The view's antipode is read off ``TwistCalculus.sbar_tensor``, and
      ``build_double`` raises unless the star meets the involution
      condition, so neither can fail on a built double.
    """
    g = d.pairing.group
    window = Window.full(g)
    view_window = Window.full(d.mha.group)
    rep = CertificateReport(
        title="double axioms (%s)" % d.label, window=window.label,
        subject_digest=d.label,
    )
    rep.extend(full_suite(d.mha, view_window))
    rep.extend(check_twist(d.twist, window))

    # coproduct compatibility with the twist, on all basis pairs
    witness = None
    for (r, j), (s, i) in product(d.b_basis, d.a_basis):
        moved = d.twist.r_basis(r, j, s, i)
        lhs = TensorElement(d.mha.algebra, d.mha.algebra)
        for sm, rm, im, jm, c in moved.terms():
            lhs.accumulate(d.dbar(sm, im, rm, jm), c)
        rhs = d._leg_products(s, i, r, j, b_first=True)
        if lhs != rhs:
            witness = "b=%s a=%s" % (basis_label(g, (r, j)), basis_label(g, (s, i)))
            break
    rep.add("coproduct-twist-compatibility",
            "the coproduct of R(b (x) a) equals the reversed multiplier product",
            witness is None, witness)

    if d.crossing:
        witness = None
        for P, Q in window.pairs():
            if P != Q and any(not d._basis_product(x + y).is_zero()
                              for x in d.comp_basis[P] for y in d.comp_basis[Q]):
                witness = "components %s and %s do not annihilate" % (g.encode(P), g.encode(Q))
                break
        rep.add("grading-diagonal", "distinct double components multiply to zero",
                witness is None, witness)
    return rep


@dataclass(frozen=True)
class DoubleIntegral:
    functional: GradedFunctional
    scalar: Optional[GR]
    report: CertificateReport


def double_right_integral(
    d: DoubleStructure, phi_a: GradedFunctional, psi_b: GradedFunctional
) -> DoubleIntegral:
    """The right integral of the double: the A integral against the twisted B one.

    Verifies right invariance through the membership test, the auxiliary
    slice identity against the inverse modular multiplier of B, and, when the
    square root of the modular pairing exists in the ground field, exact
    positivity of the scaled Gram matrix.
    """
    g = d.pairing.group
    window = Window.full(g)
    aside, bside = d.pairing.a_side, d.pairing.b_side
    if not check_integral_membership(aside, phi_a, "left", window).passed:
        raise ValueError("the A functional is not left invariant")
    if not check_integral_membership(bside, psi_b, "right", window).passed:
        raise ValueError("the B functional is not right invariant")
    rep = CertificateReport(
        title="double integral (%s)" % d.label, window=window.label,
        subject_digest=d.label,
    )
    psi_t = deformed_right_integral(bside, d.action, psi_b)

    view = d.mha
    comp_cov = {
        P: tuple(phi_a.covector(s)[i] * psi_t.covector(r)[j] for (s, i, r, j) in basis)
        for P, basis in d.comp_basis.items()
    }
    psi_d = GradedFunctional(
        view.algebra, lambda P: comp_cov[P], label="double-integral(%s)" % d.label
    )
    membership = check_integral_membership(view, psi_d, "right", Window.full(view.group))
    rep.extend(membership, prefix="double-")

    # auxiliary identity: collapsing the B leg of R(b (x) a) against the
    # twisted integral reproduces the inverse-modular action on a
    phi_b = solve_left_integral(bside, window).functional
    if phi_b is None:
        raise ValueError("the cograded side has no left integral on the window")
    delta_b = modular_element(bside, phi_b, window)
    delta_b_elem = bside.algebra.element({s: delta_b.component(s) for s in window.elements})
    # s -> the inverse of delta_b in B_s, the unique x with delta_b x = 1_s:
    # modular_element has checked that delta_b is invertible on this window
    inv_delta_b = {}
    for s in window.elements:
        comp = bside.algebra.component(s)
        delta_s = delta_b_elem.comps.get(s, {})
        cols = [comp.product_vec(delta_s, {j: ONE}) for j in range(comp.dim)]
        sol = solve_linear(rows_of_columns(cols, comp.dim), comp.unit, comp.dim)
        inv_delta_b[s] = bside.algebra.element({s: sol.particular})
    witness = None
    for (r, j, b), (s, i, a) in product(bside.algebra.basis_on(window), aside.algebra.basis_on(window)):
        img = d.twist.r_basis(r, j, s, i)
        got = img.apply_covector_leg2(psi_t.covector)
        expected = act_b_on_a(d.pairing, inv_delta_b[s], a).scale(psi_t.value(b))
        if got != expected:
            witness = "b=%s a=%s" % (basis_label(g, (r, j)), basis_label(g, (s, i)))
            break
    rep.add("integral-slice-identity",
            "collapsing the twist against the integral matches the modular action",
            witness is None, witness)

    delta_a = modular_element(aside, phi_a, window)
    value = d.pairing.pair(
        aside.algebra.element({p: delta_a.component(p) for p in window.elements}), delta_b_elem)
    scalar = rational_sqrt(value)
    if scalar is None:
        rep.add("positivity-scalar",
                "the square root of the modular pairing exists in the ground field",
                False, "pairing value %s has no rational square root" % value)
        return DoubleIntegral(psi_d, None, rep)
    rep.add("positivity-scalar",
            "the square root of the modular pairing exists in the ground field", True)
    if view.star is not None:
        scaled = GradedFunctional(
            view.algebra,
            lambda P: tuple(scalar * c for c in comp_cov[P]),
            label="scaled-double-integral",
        )
        from .hopf import check_positive_integral

        rep.extend(
            check_positive_integral(view, scaled, Window.full(view.group)),
            prefix="scaled-",
        )
    return DoubleIntegral(psi_d, scalar, rep)


def double_crossing(d: DoubleStructure) -> Action:
    """The crossing of the double: the transposed action on A against the action on B."""
    if not d.crossing:
        raise ValueError("the underlying action is not a crossing")
    # the closures hold the double's data, never d itself
    pairing, action, comp_basis, position = d.pairing, d.action, d.comp_basis, d.position
    g = pairing.group
    aside, bside = pairing.a_side, pairing.b_side

    prime_cache: dict = {}

    def a_prime(p, s) -> Matrix:
        # defined by pairing against the inverse action on B
        key = (p, s)
        if key not in prime_cache:
            t = g.multiply(g.multiply(p, s), g.invert(p))
            f_s = pairing.form(s)
            f_t = pairing.form(t)
            pm = action.block(g.invert(p), t)  # B_t -> B_s
            m = inverse(f_t.transpose()).compose(pm.transpose()).compose(f_s.transpose())
            if m.transpose().compose(f_t) != f_s.compose(pm):
                raise ValueError("transposed action does not satisfy its defining pairing")
            prime_cache[key] = m
        return prime_cache[key]

    def block(p, Q):
        basis_q = comp_basis[Q]
        target = g.multiply(g.multiply(p, Q), g.invert(p))
        pm = action.block(p, g.invert(Q)).sparse_columns()  # B_{Q^-1} -> B_{(pQp^-1)^-1}
        cols = []
        for s, i, rq, j in basis_q:
            s_target = g.multiply(g.multiply(p, s), g.invert(p))
            cols.append({position[(s_target, k, g.invert(target), l)][1]: ca * cb
                         for k, ca in a_prime(p, s).sparse_columns()[i].items()
                         for l, cb in pm[j].items()})
        return Matrix.from_columns(cols, len(comp_basis[target]))

    from .groups import adjoint_self_action

    return Action(
        base=d.mha,
        rho=adjoint_self_action(d.mha.group),
        pi_fn=block,
        label="double-crossing(%s)" % d.label,
    )


# ---------------------------------------------------------------------------
# Reduced duals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedDual:
    structure: MhaStructure
    pairing: Pairing
    dual_action: Optional[Action] = None


def reduced_dual(b: MhaStructure, window: Optional[Window] = None,
                 action: Optional[Action] = None) -> ReducedDual:
    """The component-wise dual with the evaluation pairing.

    A cograded structure dualizes to a graded side (products dual to the
    comultiplication blocks, diagonal coproducts dual to the component
    products); a graded side dualizes back to a cograded structure. When the
    input carries a crossing, the transposed action on the dual is returned
    as well.
    """
    alg = b.algebra
    g = b.group

    if alg.mode == COGRADED:
        dual_components: dict = {}

        def component(p):
            if p not in dual_components:
                dual_components[p] = ComponentAlgebra(alg.dim(p))
            return dual_components[p]

        def block_fn(p, q):
            # product of functionals, dual to the comultiplication block
            dq = alg.dim(q)
            table: dict = {}
            for k, col in enumerate(b.delta.block_cols(p, q)):
                for idx, c in col.items():
                    if c:
                        table.setdefault(divmod(idx, dq), {})[k] = c
            return dict(sorted(table.items()))  # in (i, j) order, as a spec block gives it

        dual_alg = GradedAlgebra(
            group=g,
            mode=GRADED,
            component_fn=component,
            block_fn=block_fn,
            unit_components={g.identity: b.counit_covector(g.identity)},
            label="dual(%s)" % alg.label,
        )

        def diag_fn(p):
            # coproduct of functionals, dual to the component product
            comp = alg.component(p)
            dp = comp.dim
            cols = [dict() for _ in range(dp)]
            for (i, j), entry in comp.products.items():
                for k, c in entry.items():
                    cols[k][i * dp + j] = c
            return cols

        def antipode_fn(p):
            pinv = g.invert(p)
            target, sm = b.antipode.fn(pinv)
            if target != p:
                raise ValueError("dualizing needs the standard antipode typing")
            return pinv, sm.transpose()

        star = None
        if b.star is not None:
            def star_fn(p):
                # f* = conj . f . (star after the antipode), landing in the
                # functionals on the inverse component
                pinv = g.invert(p)
                starget, stm = b.star.fn(p)
                if starget != p:
                    raise ValueError("cograded star must preserve components")
                target, sm = b.antipode.fn(pinv)
                return pinv, stm.conj().compose(sm).transpose()

            star = star_fn

        dual = MhaStructure(
            algebra=dual_alg,
            delta=DiagonalDelta(dual_alg, diag_fn),
            counit_fn=lambda p: alg.component(p).unit,
            antipode=ComponentMap(dual_alg, dual_alg, antipode_fn, label="S*"),
            star=ComponentMap(dual_alg, dual_alg, star, antilinear=True, label="*")
            if star is not None
            else None,
            label="dual(%s)" % b.label,
        )
        pairing = Pairing(
            dual, b, lambda p: Matrix.identity(alg.dim(p)),
            label="evaluation(%s)" % b.label,
        )
        dual_action = None
        if action is not None:
            def dual_block(p, q):
                t = action.rho.apply(p, q)
                return action.block(g.invert(p), t).transpose()

            dual_action = Action(
                base=dual, rho=action.rho, pi_fn=dual_block,
                label="dual(%s)" % action.label,
            )
        return ReducedDual(dual, pairing, dual_action)

    # graded side: dualize back to a cograded structure
    dual_components = {}

    def component(p):
        if p not in dual_components:
            cols = b.delta.block_cols(p, p)
            dp = alg.dim(p)
            products = {}
            for k in range(dp):
                for idx, c in cols[k].items():
                    i, j = divmod(idx, dp)
                    products.setdefault((i, j), {})[k] = c
            star_m = None
            if b.star is not None:
                starget, stm = b.star.fn(g.invert(p))
                target, sm = b.antipode.fn(p)
                star_m = stm.conj().compose(sm).transpose()
            dual_components[p] = ComponentAlgebra(
                dp, products, unit=b.counit_covector(p), star=star_m
            )
        return dual_components[p]

    dual_alg = GradedAlgebra(
        group=g, mode=COGRADED, component_fn=component, label="dual(%s)" % alg.label
    )

    def block_fn(p, q):
        src = g.multiply(p, q)
        table = alg.product_block_sparse(p, q)
        dq = alg.dim(q)
        cols = [dict() for _ in range(alg.dim(src))]
        for (i, j), entry in table.items():
            for k, c in entry.items():
                cols[k][i * dq + j] = c
        return cols

    def antipode_fn(p):
        pinv = g.invert(p)
        target, sm = b.antipode.fn(pinv)
        if target != p:
            raise ValueError("dualizing needs the standard antipode typing")
        return pinv, sm.transpose()

    unit_b = b.unit_element()
    if unit_b is None:
        raise ValueError("the graded side needs a unit to dualize")

    def counit_fn(p):
        return unit_b.coeff(p)

    dual = MhaStructure(
        algebra=dual_alg,
        delta=CogradedBlockDelta(dual_alg, block_fn),
        counit_fn=counit_fn,
        antipode=ComponentMap(dual_alg, dual_alg, antipode_fn, label="S*"),
        star=ComponentMap(
            dual_alg, dual_alg,
            lambda p: (p, component(p).star), antilinear=True, label="*",
        )
        if b.star is not None
        else None,
        label="dual(%s)" % b.label,
    )
    pairing = Pairing(
        b, dual, lambda p: Matrix.identity(alg.dim(p)),
        label="evaluation(%s)" % b.label,
    )
    return ReducedDual(dual, pairing, None)

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
from typing import Callable, Dict, Optional

from .algebras import COGRADED, GRADED, ComponentAlgebra, GradedAlgebra, GradedElement, TensorElement
from .cograded import Action, DeformedBlockDelta, check_admissible, check_crossing, deformed_right_integral
from .exact import (
    GR,
    ONE,
    ZERO,
    Matrix,
    accumulate,
    inverse,
    is_bijective,
    rank_of_sparse_columns,
    rational_sqrt,
    vector,
)
from .groups import Window
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
from .report import CertificateReport


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
            f = self.form(p)
            for i, ai in enumerate(av):
                if not ai:
                    continue
                for j, bj in enumerate(bv):
                    if bj and f.entries[i][j]:
                        acc = acc + ai * f.entries[i][j] * bj
        return acc

    def covector_on_a(self, p, bvec):
        """The functional <., b> restricted to A_p, as a covector."""
        f = self.form(p)
        return tuple(
            sum((f.entries[i][j] * bvec[j] for j in range(f.cols) if bvec[j]), ZERO)
            for i in range(f.rows)
        )

    def covector_on_b(self, p, avec):
        """The functional <a, .> restricted to B_p, as a covector."""
        f = self.form(p)
        return tuple(
            sum((avec[i] * f.entries[i][j] for i in range(f.rows) if avec[i]), ZERO)
            for j in range(f.cols)
        )


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


def act_b_on_a(pairing: Pairing, b: GradedElement, a: GradedElement) -> GradedElement:
    """b |> a: the pairing collapses the second coproduct leg of a."""
    aside = pairing.a_side
    t = aside.delta_part_by_second(a, None)

    def cov(q):
        bv = b.comps.get(q)
        if bv is None:
            return (ZERO,) * aside.algebra.dim(q)
        return pairing.covector_on_a(q, bv)

    return t.apply_covector_leg2(cov)


def act_a_on_a(pairing: Pairing, a: GradedElement, b: GradedElement) -> GradedElement:
    """a <| b: the pairing collapses the first coproduct leg of a."""
    aside = pairing.a_side
    t = aside.delta_part_by_second(a, None)

    def cov(q):
        bv = b.comps.get(q)
        if bv is None:
            return (ZERO,) * aside.algebra.dim(q)
        return pairing.covector_on_a(q, bv)

    return t.apply_covector_leg1(cov)


def act_a_on_b(pairing: Pairing, a: GradedElement, b: GradedElement) -> GradedElement:
    """a |> b: the pairing collapses the second coproduct leg of b."""
    bside = pairing.b_side
    out = bside.algebra.zero()
    for s, av in a.comps.items():
        part = bside.delta_part_by_second(b, [s])

        def cov(q, av=av, s=s):
            if q != s:
                return (ZERO,) * bside.algebra.dim(q)
            return pairing.covector_on_b(q, av)

        out = out + part.apply_covector_leg2(cov)
    return out


def act_b_on_b(pairing: Pairing, b: GradedElement, a: GradedElement) -> GradedElement:
    """b <| a: the pairing collapses the first coproduct leg of b."""
    bside = pairing.b_side
    out = bside.algebra.zero()
    scan = bside.scan_candidates()
    for s, av in a.comps.items():
        part = bside.delta_part_by_first(b, [s], scan)

        def cov(q, av=av, s=s):
            if q != s:
                return (ZERO,) * bside.algebra.dim(q)
            return pairing.covector_on_b(q, av)

        out = out + part.apply_covector_leg1(cov)
    return out


@dataclass(frozen=True)
class ModuleActionTables:
    """Dense matrices of the four module actions on window basis vectors."""

    b_on_a: dict  # (p, j) -> Matrix on A_p, the action of b_j at p
    a_on_a: dict  # (p, j) -> Matrix on A_p, the right action of b_j at p
    a_on_b: dict  # (s, i, r) -> Matrix B_r -> B_{r s^-1}
    b_on_b: dict  # (s, i, r) -> Matrix B_r -> B_{s^-1 r}


def build_module_actions(pairing: Pairing, window: Window):
    """Tabulate the four actions on the window and verify the module laws.

    Returns (tables, report).
    """
    aside, bside = pairing.a_side, pairing.b_side
    g = pairing.group
    rep = CertificateReport(
        title="module actions (%s)" % pairing.label, window=window.label,
        subject_digest=pairing.label,
    )
    b_on_a = {}
    a_on_a = {}
    a_on_b = {}
    b_on_b = {}
    for p in window.elements:
        da = aside.algebra.dim(p)
        for j in range(bside.algebra.dim(p)):
            bj = bside.algebra.basis_element(p, j)
            cols_fwd = []
            cols_bwd = []
            for i in range(da):
                ai = aside.algebra.basis_element(p, i)
                cols_fwd.append(act_b_on_a(pairing, bj, ai).coeff(p))
                cols_bwd.append(act_a_on_a(pairing, ai, bj).coeff(p))
            b_on_a[(p, j)] = Matrix.from_columns(cols_fwd)
            a_on_a[(p, j)] = Matrix.from_columns(cols_bwd)
    for s in window.elements:
        for i in range(aside.algebra.dim(s)):
            ai = aside.algebra.basis_element(s, i)
            for r in window.elements:
                target_fwd = g.multiply(r, g.invert(s))
                target_bwd = g.multiply(g.invert(s), r)
                cols_fwd = []
                cols_bwd = []
                for j in range(bside.algebra.dim(r)):
                    bj = bside.algebra.basis_element(r, j)
                    cols_fwd.append(act_a_on_b(pairing, ai, bj).coeff(target_fwd))
                    cols_bwd.append(act_b_on_b(pairing, bj, ai).coeff(target_bwd))
                a_on_b[(s, i, r)] = Matrix.from_columns(cols_fwd)
                b_on_b[(s, i, r)] = Matrix.from_columns(cols_bwd)

    # module laws on window basis triples
    wit = {"assoc-ab": None, "assoc-ba": None, "alg-ba": None, "alg-ab": None}
    for s, t in window.pairs():
        for i in range(aside.algebra.dim(s)):
            x = aside.algebra.basis_element(s, i)
            for k in range(aside.algebra.dim(t)):
                y = aside.algebra.basis_element(t, k)
                xy = x * y
                for r in window.elements:
                    for j in range(bside.algebra.dim(r)):
                        bj = bside.algebra.basis_element(r, j)
                        if wit["assoc-ab"] is None:
                            lhs = act_a_on_b(pairing, xy, bj)
                            rhs = act_a_on_b(pairing, x, act_a_on_b(pairing, y, bj))
                            if lhs != rhs:
                                wit["assoc-ab"] = "(%s,%d),(%s,%d),(%s,%d)" % (
                                    g.encode(s), i, g.encode(t), k, g.encode(r), j)
                        if wit["assoc-ba"] is None:
                            lhs = act_b_on_b(pairing, bj, xy)
                            rhs = act_b_on_b(pairing, act_b_on_b(pairing, bj, x), y)
                            if lhs != rhs:
                                wit["assoc-ba"] = "(%s,%d),(%s,%d),(%s,%d)" % (
                                    g.encode(s), i, g.encode(t), k, g.encode(r), j)
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
                                wit["alg-ba"] = "(%s,%d),(%s,%d),(%s,%d)" % (
                                    g.encode(s), i, g.encode(t), k, g.encode(r), j)
    for r, r2 in window.pairs():
        for j in range(bside.algebra.dim(r)):
            bj = bside.algebra.basis_element(r, j)
            for l in range(bside.algebra.dim(r2)):
                bl = bside.algebra.basis_element(r2, l)
                bb = bj * bl
                for s in window.elements:
                    for i in range(aside.algebra.dim(s)):
                        x = aside.algebra.basis_element(s, i)
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
                                wit["alg-ab"] = "(%s,%d),(%s,%d),(%s,%d)" % (
                                    g.encode(r), j, g.encode(r2), l, g.encode(s), i)
    rep.add("module-law-a-on-b", "(aa') |> b = a |> (a' |> b)", wit["assoc-ab"] is None, wit["assoc-ab"])
    rep.add("module-law-b-on-b", "b <| (aa') = (b <| a) <| a'", wit["assoc-ba"] is None, wit["assoc-ba"])
    rep.add("module-algebra-b-on-a", "b |> (xy) expands along the coproduct of b", wit["alg-ba"] is None, wit["alg-ba"])
    rep.add("module-algebra-a-on-b", "a |> (bb') expands along the coproduct of a", wit["alg-ab"] is None, wit["alg-ab"])

    # unitality: the actions reach every basis vector on the window
    witness = None
    for r in window.elements:
        dr = bside.algebra.dim(r)
        cols = []
        for s in window.elements:
            for i in range(aside.algebra.dim(s)):
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

    return ModuleActionTables(b_on_a, a_on_a, a_on_b, b_on_b), rep


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

    wit_b = None  # <a, bb'> = <Delta(a), b (x) b'>
    wit_b_act = None
    for s in window.elements:
        for i in range(aside.algebra.dim(s)):
            a = aside.algebra.basis_element(s, i)
            for u, v in window.pairs():
                for j in range(bside.algebra.dim(u)):
                    b1 = bside.algebra.basis_element(u, j)
                    for k in range(bside.algebra.dim(v)):
                        b2 = bside.algebra.basis_element(v, k)
                        lhs = pairing.pair(a, b1 * b2)
                        t = aside.delta_part_by_second(a, None)
                        rhs = ZERO
                        block = t.blocks.get((s, s), {})
                        if u == s and v == s:
                            fu = pairing.form(s)
                            for (i1, i2), c in block.items():
                                rhs = rhs + c * fu.entries[i1][j] * fu.entries[i2][k]
                        if lhs != rhs and wit_b is None:
                            wit_b = "a=(%s,%d) b=(%s,%d) b'=(%s,%d)" % (
                                g.encode(s), i, g.encode(u), j, g.encode(v), k)
                        if wit_b_act is None:
                            alt1 = pairing.pair(act_b_on_a(pairing, b2, a), b1)
                            alt2 = pairing.pair(act_a_on_a(pairing, a, b1), b2)
                            if lhs != alt1 or lhs != alt2:
                                wit_b_act = "a=(%s,%d) b=(%s,%d) b'=(%s,%d)" % (
                                    g.encode(s), i, g.encode(u), j, g.encode(v), k)
    rep.add("duality-b-product", "<a, bb'> = <Delta(a), b (x) b'>", wit_b is None, wit_b)
    rep.add("duality-b-actions", "<a, bb'> = <b' |> a, b> = <a <| b, b'>",
            wit_b_act is None, wit_b_act)

    wit_a = None
    wit_a_act = None
    scan = bside.scan_candidates(window)
    for s, t in window.pairs():
        for i in range(aside.algebra.dim(s)):
            a1 = aside.algebra.basis_element(s, i)
            for k in range(aside.algebra.dim(t)):
                a2 = aside.algebra.basis_element(t, k)
                prod = a1 * a2
                for r in window.elements:
                    for j in range(bside.algebra.dim(r)):
                        b = bside.algebra.basis_element(r, j)
                        lhs = pairing.pair(prod, b)
                        cols = (
                            bside.delta.block_cols(s, t)
                            if bside.delta.source(s, t) == r
                            else None
                        )
                        rhs = ZERO
                        if cols is not None:
                            fs, ft = pairing.form(s), pairing.form(t)
                            dt = bside.algebra.dim(t)
                            for idx, c in cols[j].items():
                                j1, j2 = divmod(idx, dt)
                                rhs = rhs + c * fs.entries[i][j1] * ft.entries[k][j2]
                        if lhs != rhs and wit_a is None:
                            wit_a = "a=(%s,%d) a'=(%s,%d) b=(%s,%d)" % (
                                g.encode(s), i, g.encode(t), k, g.encode(r), j)
                        if wit_a_act is None:
                            alt1 = pairing.pair(a1, act_a_on_b(pairing, a2, b))
                            alt2 = pairing.pair(a2, act_b_on_b(pairing, b, a1))
                            if lhs != alt1 or lhs != alt2:
                                wit_a_act = "a=(%s,%d) a'=(%s,%d) b=(%s,%d)" % (
                                    g.encode(s), i, g.encode(t), k, g.encode(r), j)
    rep.add("duality-a-product", "<aa', b> = <a (x) a', Delta(b)>", wit_a is None, wit_a)
    rep.add("duality-a-actions", "<aa', b> = <a, a' |> b> = <a', b <| a>",
            wit_a_act is None, wit_a_act)

    witness = None
    for s in window.elements:
        for i in range(aside.algebra.dim(s)):
            a = aside.algebra.basis_element(s, i)
            sa = aside.antipode.apply(a)
            for j in range(bside.algebra.dim(g.invert(s))):
                b = bside.algebra.basis_element(g.invert(s), j)
                if pairing.pair(sa, b) != pairing.pair(a, bside.antipode.apply(b)):
                    witness = "a=(%s,%d) b=(%s,%d)" % (
                        g.encode(s), i, g.encode(g.invert(s)), j)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("antipode-compatibility", "<S(a), b> = <a, S(b)>", witness is None, witness)

    if aside.star is not None and bside.star is not None:
        witness = None
        for s in window.elements:
            for i in range(aside.algebra.dim(s)):
                a = aside.algebra.basis_element(s, i)
                astar = aside.apply_star(a)
                for r in window.elements:
                    for j in range(bside.algebra.dim(r)):
                        b = bside.algebra.basis_element(r, j)
                        rhs = pairing.pair(
                            a, bside.apply_star(bside.antipode.apply(b))
                        ).conj()
                        if pairing.pair(astar, b) != rhs:
                            witness = "a=(%s,%d) b=(%s,%d)" % (
                                g.encode(s), i, g.encode(r), j)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        rep.add("star-pairing", "<a*, b> = conj(<a, S(b)*>)", witness is None, witness)

    witness = None
    for s in window.elements:
        unit_b = bside.algebra.element({s: bside.algebra.component(s).unit})
        for i in range(aside.algebra.dim(s)):
            a = aside.algebra.basis_element(s, i)
            if pairing.pair(a, unit_b) != aside.counit_value(a):
                witness = "a=(%s,%d)" % (g.encode(s), i)
                break
        if witness:
            break
    rep.add("counit-compatibility-a", "<a, 1_p> = eps(a) on A_p", witness is None, witness)

    unit_a = aside.unit_element()
    if unit_a is not None:
        witness = None
        for r in window.elements:
            for j in range(bside.algebra.dim(r)):
                b = bside.algebra.basis_element(r, j)
                if pairing.pair(unit_a, b) != bside.counit_value(b):
                    witness = "b=(%s,%d)" % (g.encode(r), j)
                    break
            if witness:
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
    witness = None
    projections: Dict = {}
    for s in window.elements:
        ds = aside.algebra.dim(s)
        db = bside.algebra.dim(s)
        for i in range(ds):
            a = aside.algebra.basis_element(s, i)
            cols = []
            for j in range(db):
                bj = bside.algebra.basis_element(s, j)
                cols.append(act_b_on_a(pairing, bj, a).coeff(s))
            m = Matrix.from_columns(cols)
            from .exact import solve_linear

            sol = solve_linear(m, a.coeff(s))
            if sol is None:
                witness = "no local unit for (%s,%d)" % (g.encode(s), i)
                break
            e = bside.algebra.element({s: sol.particular})
            for p in window.elements:
                cut = e.restrict([p])
                image = act_b_on_a(pairing, cut, a) if not cut.is_zero() else aside.algebra.zero()
                projections.setdefault(p, []).append((s, i, image))
        if witness:
            break
    rep.add("module-local-units", "every A basis vector has a local unit in B",
            witness is None, witness)
    if witness is None:
        witness = None
        for p in window.elements:
            dp = aside.algebra.dim(p)
            cols = []
            for (s, i, image) in projections.get(p, []):
                expected = (
                    aside.algebra.basis_element(p, i) if s == p else aside.algebra.zero()
                )
                if image != expected:
                    witness = "unit cut at %s acts wrongly on (%s,%d)" % (
                        g.encode(p), g.encode(s), i)
                    break
                if s == p:
                    cols.append({k: c for k, c in enumerate(image.coeff(p)) if c})
            if witness:
                break
            if rank_of_sparse_columns(cols, dp) != dp:
                witness = "projections do not span the %s component" % g.encode(p)
                break
        rep.add("induced-components", "the unit cut-downs project onto the graded pieces",
                witness is None, witness)

    witness = None
    for p, q in window.pairs():
        target = g.multiply(p, q)
        for i in range(aside.algebra.dim(p)):
            x = aside.algebra.basis_element(p, i)
            for j in range(aside.algebra.dim(q)):
                y = aside.algebra.basis_element(q, j)
                prod = x * y
                if any(t != target for t in prod.support()):
                    witness = "(%s,%d)(%s,%d) leaves the %s component" % (
                        g.encode(p), i, g.encode(q), j, g.encode(target))
                    break
            if witness:
                break
        if witness:
            break
    rep.add("graded-product", "the product multiplies the grading", witness is None, witness)

    witness = None
    for p in window.elements:
        for i in range(aside.algebra.dim(p)):
            a = aside.algebra.basis_element(p, i)
            t = aside.delta_part_by_second(a, None)
            if any(key != (p, p) for key in t.blocks):
                witness = "coproduct of (%s,%d) leaves the diagonal" % (g.encode(p), i)
                break
        if witness:
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
    for p, q in window.pairs():
        if p == q:
            continue
        for j in range(bside.algebra.dim(p)):
            b = bside.algebra.basis_element(p, j)
            for i in range(aside.algebra.dim(q)):
                a = aside.algebra.basis_element(q, i)
                if not act_b_on_a(pairing, b, a).is_zero():
                    witness = "b=(%s,%d) a=(%s,%d)" % (g.encode(p), j, g.encode(q), i)
                    break
            if witness:
                break
        if witness:
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

    def __init__(self, pairing: Pairing, action: Action, window: Window):
        self.pairing = pairing
        self.action = action
        self.window = window
        self.aside = pairing.a_side
        self.bside = pairing.b_side
        self.scan = self.bside.scan_candidates(window)
        self._sinv = self.bside.antipode.inverse_on(self.scan)
        self._r_cache: dict = {}

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
            tw = self.action.block(twist, u)
            for (k1, k2, c) in terms:
                moved = self.bside.algebra.element({s: tw.col(k1)})
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
            tw = self.action.block(rinv, g.invert(u))
            for (k1, k2, c) in terms:
                vec = sinv_m.col(k1)
                moved_vec = tw.apply(vec)
                moved = self.bside.algebra.element({s: moved_vec})
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
        for (k1, k2, c) in terms:
            vec = sinv_m.col(k2)
            acted = act_a_on_a(
                self.pairing, a, self.bside.algebra.element({s: vec})
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
            tw = self.action.block(rinv, u)
            src, sinv_m = self._sinv.fn(w)  # S^-1 : B_w -> B_s
            for (k1, k2, k3, c) in terms:
                moved = self.bside.algebra.element({s: tw.col(k1)})
                acted = act_b_on_a(self.pairing, moved, a)
                acted = act_a_on_a(
                    self.pairing, acted, self.bside.algebra.element({s: sinv_m.col(k3)})
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


def check_twist(twist: TwistCalculus, window: Window) -> CertificateReport:
    """Round trips, closed-form agreement, and the braid compatibilities."""
    pairing = twist.pairing
    aside, bside = twist.aside, twist.bside
    g = pairing.group
    rep = CertificateReport(
        title="twist maps (%s, %s)" % (pairing.label, twist.action.label),
        window=window.label, subject_digest=pairing.label,
    )

    def basis_tensors():
        for s in window.elements:
            for i in range(aside.algebra.dim(s)):
                for r in window.elements:
                    for j in range(bside.algebra.dim(r)):
                        yield s, i, r, j

    wit_r1 = wit_r2 = wit_r = wit_closed = None
    for s, i, r, j in basis_tensors():
        t = TensorElement(aside.algebra, bside.algebra)
        t.add_term(s, r, i, j, ONE)
        if wit_r1 is None and twist.r1_inv(twist.r1(t)) != t:
            wit_r1 = "(%s,%d)(x)(%s,%d)" % (g.encode(s), i, g.encode(r), j)
        if wit_r2 is None and twist.r2_inv(twist.r2(t)) != t:
            wit_r2 = "(%s,%d)(x)(%s,%d)" % (g.encode(s), i, g.encode(r), j)
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
                wit_r = "(%s,%d)(x)(%s,%d)" % (g.encode(r), j, g.encode(s), i)
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
    for r1c in window.elements:
        for j1 in range(bside.algebra.dim(r1c)):
            b1 = bside.algebra.basis_element(r1c, j1)
            for r2c in window.elements:
                for j2 in range(bside.algebra.dim(r2c)):
                    b2 = bside.algebra.basis_element(r2c, j2)
                    for s in window.elements:
                        for i in range(aside.algebra.dim(s)):
                            a = aside.algebra.basis_element(s, i)
                            if wit1 is not None:
                                break
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
                                wit1 = "b=(%s,%d) b'=(%s,%d) a=(%s,%d)" % (
                                    g.encode(r1c), j1, g.encode(r2c), j2, g.encode(s), i)
    for r1c in window.elements:
        for j1 in range(bside.algebra.dim(r1c)):
            b1 = bside.algebra.basis_element(r1c, j1)
            for s1 in window.elements:
                for i1 in range(aside.algebra.dim(s1)):
                    a1 = aside.algebra.basis_element(s1, i1)
                    for s2 in window.elements:
                        for i2 in range(aside.algebra.dim(s2)):
                            if wit2 is not None:
                                break
                            a2 = aside.algebra.basis_element(s2, i2)
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
                                wit2 = "b=(%s,%d) a=(%s,%d) a'=(%s,%d)" % (
                                    g.encode(r1c), j1, g.encode(s1), i1, g.encode(s2), i2)
    rep.add("twist-braid-b", "R after the B product factors through R twice",
            wit1 is None, wit1)
    rep.add("twist-braid-a", "R after the A product factors through R twice",
            wit2 is None, wit2)

    # crossing case: the twist preserves the B-component of its legs
    from .cograded import check_crossing

    if check_crossing(twist.action, window).passed:
        witness = None
        for s, i, r, j in basis_tensors():
            img = twist.r_basis(r, j, s, i)
            if any(key[1] != r for key in img.blocks):
                witness = "R moves (%s,%d)(x)(%s,%d) off the %s leg" % (
                    g.encode(r), j, g.encode(s), i, g.encode(r))
                break
            back = TensorElement(aside.algebra, bside.algebra)
            back.add_term(s, r, i, j, ONE)
            if any(key[0] != r for key in twist.r_inv(back).blocks):
                witness = "R^-1 moves (%s,%d)(x)(%s,%d) off the %s leg" % (
                    g.encode(s), i, g.encode(r), j, g.encode(r))
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
    trivial group otherwise.
    """

    pairing: Pairing
    action: Action
    twist: TwistCalculus
    mha: MhaStructure
    crossing: bool
    a_basis: list  # global A basis, (component, index) in group order
    b_basis: list
    label: str = ""
    deformed_delta: Optional[DeformedBlockDelta] = None
    _mul_cache: dict = field(default_factory=dict, repr=False)
    _dbar_cache: dict = field(default_factory=dict, repr=False)

    # -- bases and coordinates -------------------------------------------------

    def a_index(self, s, i) -> int:
        return self.a_basis.index((s, i))

    def b_index(self, r, j) -> int:
        return self.b_basis.index((r, j))

    def flat_index(self, s, i, r, j) -> int:
        return self.a_index(s, i) * len(self.b_basis) + self.b_index(r, j)

    def tensor_to_flat(self, t: TensorElement) -> dict:
        out = {}
        for s, r, i, j, c in t.terms():
            out[self.flat_index(s, i, r, j)] = c
        return out

    def view_coords(self, t: TensorElement) -> GradedElement:
        """The element of the certified view carried by an A (x) B tensor."""
        alg = self.mha.algebra
        g = self.pairing.group
        acc: dict = {}
        for s, r, i, j, c in t.terms():
            if self.crossing:
                comp = g.invert(r)
                db = self.pairing.b_side.algebra.dim(r)
                local = self.a_index(s, i) * db + self._local_b(r, j)
            else:
                comp = alg.group.identity
                local = self.flat_index(s, i, r, j)
            acc.setdefault(comp, {})[local] = c  # distinct terms have distinct indices
        return alg.from_sparse(acc)

    def _local_b(self, r, j) -> int:
        return j

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

    def embed_a(self, a: GradedElement) -> TensorElement:
        unit_b = self.pairing.b_side.unit_element()
        return TensorElement.of_pair(a, unit_b)

    def embed_b(self, b: GradedElement) -> TensorElement:
        unit_a = self.pairing.a_side.unit_element()
        return TensorElement.of_pair(unit_a, b)

    def unit_tensor(self) -> TensorElement:
        return TensorElement.of_pair(
            self.pairing.a_side.unit_element(), self.pairing.b_side.unit_element()
        )

    def dbar(self, s, i, r, j) -> dict:
        """The coproduct of a basis vector, as a dict over flat index pairs.

        Computed as the product of the embedded co-opposite A legs with the
        embedded deformed B legs inside the double, not from a shortcut.
        """
        key = (s, i, r, j)
        if key not in self._dbar_cache:
            self._dbar_cache[key] = self._leg_products(s, i, r, j, b_first=False)
        return self._dbar_cache[key]

    def _leg_products(self, s, i, r, j, b_first: bool) -> dict:
        """Sum over the co-opposite A legs and the deformed B legs of the basis
        vector (s, i, r, j) of the double products of the embedded legs, as a
        dict over flat index pairs; ``b_first`` puts each B leg before its A
        leg, which gives the reversed multiplier product."""
        aside = self.pairing.a_side
        bside = self.pairing.b_side
        g = self.pairing.group
        if self.deformed_delta is None:
            self.deformed_delta = DeformedBlockDelta(bside.delta, self.action)
        acop = aside.delta.block_cols(s, s)[i]
        da = aside.algebra.dim(s)

        def product(a, b):
            ea, eb = self.embed_a(a), self.embed_b(b)
            return self.dmul(eb, ea) if b_first else self.dmul(ea, eb)

        out: dict = {}
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
                    left = product(aside.algebra.basis_element(s, k2),
                                   bside.algebra.basis_element(p2, m1))
                    right = product(aside.algebra.basis_element(s, k1),
                                    bside.algebra.basis_element(q2, m2))
                    coeff = ca * cb
                    flat_right = self.tensor_to_flat(right)
                    for f1, c1 in self.tensor_to_flat(left).items():
                        accumulate(out, (((f1, f2), c2) for f2, c2 in flat_right.items()), coeff * c1)
        return out

    def sbar_tensor(self, s, i, r, j) -> TensorElement:
        """The antipode on a basis vector: R((pi S)(b) (x) S^-1(a))."""
        g = self.pairing.group
        bside = self.pairing.b_side
        aside = self.pairing.a_side
        b = bside.algebra.basis_element(r, j)
        sb = bside.antipode.apply(b)
        sb = self.action.component_map(g.invert(r)).apply(sb)
        a = aside.algebra.basis_element(s, i)
        sa_inv = aside.antipode.inverse_on(self.twist.scan).apply(a)
        return self.twist.r(TensorElement.of_pair(sb, sa_inv))

    def star_tensor(self, s, i, r, j) -> TensorElement:
        """The involution on a basis vector: R(b* (x) a*)."""
        bside = self.pairing.b_side
        aside = self.pairing.a_side
        bstar = bside.apply_star(bside.algebra.basis_element(r, j))
        astar = aside.apply_star(aside.algebra.basis_element(s, i))
        return self.twist.r(TensorElement.of_pair(bstar, astar))


def _star_involution_witness(d: DoubleStructure, window: Window):
    """The twisted-tensor star condition: applying R(b* (x) a*) twice is the identity."""
    aside, bside = d.pairing.a_side, d.pairing.b_side
    g = d.pairing.group
    for s, i in d.a_basis:
        for r, j in d.b_basis:
            once = d.star_tensor(s, i, r, j)
            twice = TensorElement(aside.algebra, bside.algebra)
            for s2, r2, i2, j2, c in once.terms():
                twice.accumulate(d.star_tensor(s2, i2, r2, j2), c.conj())
            if twice != d.basis_tensor(s, i, r, j):
                return "basis (%s,%d)(x)(%s,%d)" % (
                    g.encode(s), i, g.encode(r), j)
    return None


def build_double(pairing: Pairing, action: Action, window: Optional[Window] = None) -> DoubleStructure:
    """Assemble the double of a pairing along an admissible action.

    The product comes from the twist map (composition and closed form are
    required to agree), the coproduct from the embedded-leg products, and the
    grading plus the star are attached when available. The group must be
    finite; infinite-group doubles would need windowed carrier spaces.
    """
    g = pairing.group
    if not g.is_finite:
        raise ValueError("the double needs a finite group")
    window = window or Window.full(g)
    cert = action._certified.get(window.label) or check_admissible(action, window)
    if not cert.passed:
        raise ValueError("action %s is not admissible" % action.label)
    aside, bside = pairing.a_side, pairing.b_side
    crossing = check_crossing(action, window).passed
    twist = TwistCalculus(pairing, action, window)

    a_basis = [(s, i) for s in g.elements for i in range(aside.algebra.dim(s))]
    b_basis = [(r, j) for r in g.elements for j in range(bside.algebra.dim(r))]

    label = "double(%s; %s)" % (pairing.label, action.label)
    d = DoubleStructure(
        pairing=pairing,
        action=action,
        twist=twist,
        mha=None,  # filled below
        crossing=crossing,
        a_basis=a_basis,
        b_basis=b_basis,
        label=label,
    )

    na = len(a_basis)
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

    components: dict = {}

    def component(p):
        if p not in components:
            basis = comp_basis[p]
            dim = len(basis)
            products = {}
            for x, (s1, i1, r1, j1) in enumerate(basis):
                for y, (s2, i2, r2, j2) in enumerate(basis):
                    prod = d._basis_product((s1, i1, r1, j1, s2, i2, r2, j2))
                    entry = {}
                    for sp, rp, ip, jp, c in prod.terms():
                        entry[basis.index((sp, ip, rp, jp))] = c
                    if entry:
                        products[(x, y)] = entry
            unit_a = aside.unit_element()
            unit_vec = [ZERO] * dim
            if crossing:
                ub = bside.algebra.component(g.invert(p)).unit
                for (s, i) in a_basis:
                    ca = unit_a.coeff(s)[i]
                    if not ca:
                        continue
                    for jj, cb in enumerate(ub):
                        if cb:
                            unit_vec[basis.index((s, i, g.invert(p), jj))] = ca * cb
            else:
                for sp, rp, ip, jp, c in d.unit_tensor().terms():
                    unit_vec[basis.index((sp, ip, rp, jp))] = c
            star = None
            if aside.star is not None and bside.star is not None:
                cols = []
                for (s1, i1, r1, j1) in basis:
                    img = d.star_tensor(s1, i1, r1, j1)
                    col = [ZERO] * dim
                    for sp, rp, ip, jp, c in img.terms():
                        col[basis.index((sp, ip, rp, jp))] = c
                    cols.append(col)
                star = Matrix.from_columns(cols)
            components[p] = ComponentAlgebra(dim, products, unit=unit_vec, star=star)
        return components[p]

    view_alg = GradedAlgebra(
        group=view_group,
        mode=COGRADED,
        component_fn=component,
        label=label,
    )

    def delta_cols(P, Q):
        src = view_group.multiply(P, Q)
        basis_src = comp_basis[src]
        dq = len(comp_basis[Q])
        cols = []
        for (s, i, r, j) in basis_src:
            pair_dict = d.dbar(s, i, r, j)
            col = {}
            for (f1, f2), c in pair_dict.items():
                s1, i1, r1, j1 = _unflatten(d, f1)
                s2, i2, r2, j2 = _unflatten(d, f2)
                if crossing:
                    if g.invert(r1) != P or g.invert(r2) != Q:
                        continue
                    k1 = comp_basis[P].index((s1, i1, r1, j1))
                    k2 = comp_basis[Q].index((s2, i2, r2, j2))
                else:
                    k1 = comp_basis[view_group.identity].index((s1, i1, r1, j1))
                    k2 = comp_basis[view_group.identity].index((s2, i2, r2, j2))
                col[k1 * dq + k2] = c
            cols.append(col)
        return cols

    def counit_fn(P):
        out = []
        for (s, i, r, j) in comp_basis[P]:
            ca = aside.counit_covector(s)[i]
            cb = bside.counit_covector(r)[j]
            out.append(ca * cb)
        return tuple(out)

    def antipode_fn(P):
        target = view_group.invert(P)
        basis_t = comp_basis[target]
        cols = []
        for (s, i, r, j) in comp_basis[P]:
            img = d.sbar_tensor(s, i, r, j)
            col = [ZERO] * len(basis_t)
            for sp, rp, ip, jp, c in img.terms():
                col[basis_t.index((sp, ip, rp, jp))] = c
            cols.append(col)
        return target, Matrix.from_columns(cols)

    def star_fn(P):
        return P, component(P).star

    has_star = aside.star is not None and bside.star is not None
    if has_star:
        witness = _star_involution_witness(d, window)
        if witness is not None:
            raise ValueError("star involution condition fails at %s" % witness)

    view = MhaStructure(
        algebra=view_alg,
        delta=CogradedBlockDelta(view_alg, delta_cols),
        counit_fn=counit_fn,
        antipode=ComponentMap(view_alg, view_alg, antipode_fn, label="Sbar"),
        star=ComponentMap(view_alg, view_alg, star_fn, antilinear=True, label="*")
        if has_star
        else None,
        label=label,
    )
    d.mha = view
    return d


def _unflatten(d: DoubleStructure, flat: int):
    nb = len(d.b_basis)
    s, i = d.a_basis[flat // nb]
    r, j = d.b_basis[flat % nb]
    return s, i, r, j


# ---------------------------------------------------------------------------
# Double verification
# ---------------------------------------------------------------------------


def check_double_axioms(d: DoubleStructure, window: Optional[Window] = None) -> CertificateReport:
    """The full Hopf suite on the double plus its construction identities."""
    g = d.pairing.group
    window = window or Window.full(g)
    view_window = Window.full(d.mha.group)
    rep = CertificateReport(
        title="double axioms (%s)" % d.label, window=window.label,
        subject_digest=d.label,
    )
    rep.extend(full_suite(d.mha, view_window))
    rep.extend(check_twist(d.twist, window))

    aside, bside = d.pairing.a_side, d.pairing.b_side

    # coproduct compatibility with the twist, on all basis pairs
    witness = None
    for (r, j) in d.b_basis:
        if witness:
            break
        for (s, i) in d.a_basis:
            moved = d.twist.r_basis(r, j, s, i)
            lhs: dict = {}
            for sm, rm, im, jm, c in moved.terms():
                accumulate(lhs, d.dbar(sm, im, rm, jm), c)
            rhs = d._leg_products(s, i, r, j, b_first=True)
            if lhs != rhs:
                witness = "b=(%s,%d) a=(%s,%d)" % (g.encode(r), j, g.encode(s), i)
                break
    rep.add("coproduct-twist-compatibility",
            "the coproduct of R(b (x) a) equals the reversed multiplier product",
            witness is None, witness)

    # the alternate product expressions
    witness = None
    r_inv_cache = {
        key: d.twist.r_inv(d.basis_tensor(*key))
        for key in ((s, i, r, j) for (s, i) in d.a_basis for (r, j) in d.b_basis)
    }
    for (s1, i1) in d.a_basis:
        if witness:
            break
        for (r1, j1) in d.b_basis:
            if witness:
                break
            back1 = r_inv_cache[(s1, i1, r1, j1)]  # B (x) A
            for (s2, i2) in d.a_basis:
                if witness:
                    break
                a2 = aside.algebra.basis_element(s2, i2)
                mids1 = []
                for (rb, sa), block in back1.blocks.items():
                    for (jb, ia), c in block.items():
                        mid = aside.algebra.basis_element(sa, ia) * a2
                        part = TensorElement(bside.algebra, aside.algebra)
                        part.accumulate_outer(bside.algebra.basis_element(rb, jb), mid, c)
                        mids1.append(d.twist.r(part))
                for (r2, j2) in d.b_basis:
                    primary = d._basis_product((s1, i1, r1, j1, s2, i2, r2, j2))
                    # variant resolving the left factor through the inverse twist
                    b2 = bside.algebra.basis_element(r2, j2)
                    alt1 = TensorElement(aside.algebra, bside.algebra)
                    for moved in mids1:
                        alt1.accumulate(moved.mul_leg2_right(b2))
                    if alt1 != primary:
                        witness = "variant-1 at (%s,%d|%s,%d)(%s,%d|%s,%d)" % (
                            g.encode(s1), i1, g.encode(r1), j1,
                            g.encode(s2), i2, g.encode(r2), j2)
                        break
                    # variant resolving the right factor through the inverse twist
                    back2 = r_inv_cache[(s2, i2, r2, j2)]
                    alt2 = TensorElement(aside.algebra, bside.algebra)
                    b1 = bside.algebra.basis_element(r1, j1)
                    a1 = aside.algebra.basis_element(s1, i1)
                    for (rb, sa), block in back2.blocks.items():
                        for (jb, ia), c in block.items():
                            mid = b1 * bside.algebra.basis_element(rb, jb)
                            part = TensorElement(bside.algebra, aside.algebra)
                            part.accumulate_outer(mid, aside.algebra.basis_element(sa, ia), c)
                            alt2.accumulate(d.twist.r(part).mul_leg1_left(a1))
                    if alt2 != primary:
                        witness = "variant-2 at (%s,%d|%s,%d)(%s,%d|%s,%d)" % (
                            g.encode(s1), i1, g.encode(r1), j1,
                            g.encode(s2), i2, g.encode(r2), j2)
                        break
    rep.add("alternate-products", "both leg-resolved product expressions agree",
            witness is None, witness)

    if d.mha.star is not None:
        witness = _star_involution_witness(d, window)
        rep.add("star-involution-condition",
                "twisting the star twice is the identity", witness is None, witness)

    witness = None
    for (s, i) in d.a_basis:
        if witness:
            break
        for (r, j) in d.b_basis:
            direct = d.view_coords(d.sbar_tensor(s, i, r, j))
            x = d.view_coords(d.basis_tensor(s, i, r, j))
            via_matrix = d.mha.antipode.apply(x)
            if direct != via_matrix:
                witness = "(%s,%d|%s,%d)" % (g.encode(s), i, g.encode(r), j)
                break
    rep.add("antipode-twist-formula",
            "the stored antipode equals the twist-composed formula",
            witness is None, witness)

    if d.crossing:
        witness = None
        for P, Q in window.pairs():
            if P == Q or witness:
                continue
            for (s, i) in d.a_basis:
                for jp in range(bside.algebra.dim(g.invert(P))):
                    for (s2, i2) in d.a_basis:
                        for jq in range(bside.algebra.dim(g.invert(Q))):
                            prod = d._basis_product(
                                (s, i, g.invert(P), jp, s2, i2, g.invert(Q), jq)
                            )
                            if not prod.is_zero():
                                witness = "components %s and %s do not annihilate" % (
                                    g.encode(P), g.encode(Q))
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
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
    comp_cov = {}
    for P in view.group.elements:
        vals = []
        if d.crossing:
            rr = g.invert(P)
            for (s, i) in d.a_basis:
                pa = phi_a.covector(s)[i]
                for j in range(bside.algebra.dim(rr)):
                    vals.append(pa * psi_t.covector(rr)[j])
        else:
            for (s, i) in d.a_basis:
                pa = phi_a.covector(s)[i]
                for (r, j) in d.b_basis:
                    vals.append(pa * psi_t.covector(r)[j])
        comp_cov[P] = tuple(vals)
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
    witness = None
    for (r, j) in d.b_basis:
        if witness:
            break
        b = bside.algebra.basis_element(r, j)
        for (s, i) in d.a_basis:
            a = aside.algebra.basis_element(s, i)
            img = d.twist.r_basis(r, j, s, i)
            got = img.apply_covector_leg2(psi_t.covector)
            dvec = delta_b.component(s)
            comp = bside.algebra.component(s)
            inv_vec = inverse(comp.left_mult_matrix(dvec)).apply(comp.unit)
            expected = act_b_on_a(
                d.pairing, bside.algebra.element({s: inv_vec}), a
            ).scale(psi_t.value(b))
            if got != expected:
                witness = "b=(%s,%d) a=(%s,%d)" % (g.encode(r), j, g.encode(s), i)
                break
    rep.add("integral-slice-identity",
            "collapsing the twist against the integral matches the modular action",
            witness is None, witness)

    delta_a = modular_element(aside, phi_a, window)
    value = ZERO
    for p in window.elements:
        av = delta_a.component(p)
        bv = delta_b.component(p)
        f = d.pairing.form(p)
        for i, ca in enumerate(av):
            if not ca:
                continue
            for jj, cb in enumerate(bv):
                if cb and f.entries[i][jj]:
                    value = value + ca * f.entries[i][jj] * cb
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
    g = d.pairing.group
    aside, bside = d.pairing.a_side, d.pairing.b_side

    prime_cache: dict = {}

    def a_prime(p, s) -> Matrix:
        # defined by pairing against the inverse action on B
        key = (p, s)
        if key not in prime_cache:
            t = g.multiply(g.multiply(p, s), g.invert(p))
            f_s = d.pairing.form(s)
            f_t = d.pairing.form(t)
            pm = d.action.block(g.invert(p), t)  # B_t -> B_s
            m = inverse(f_t.transpose()).matmul(pm.transpose()).matmul(f_s.transpose())
            for i in range(aside.algebra.dim(s)):
                for jj in range(bside.algebra.dim(t)):
                    lhs = sum(
                        (m.entries[k][i] * f_t.entries[k][jj] for k in range(m.rows)),
                        ZERO,
                    )
                    rhs = sum(
                        (f_s.entries[i][l] * pm.entries[l][jj] for l in range(pm.rows)),
                        ZERO,
                    )
                    if lhs != rhs:
                        raise ValueError(
                            "transposed action does not satisfy its defining pairing"
                        )
            prime_cache[key] = m
        return prime_cache[key]

    view = d.mha

    def block(p, Q):
        basis_q = [
            (s, i, g.invert(Q), j)
            for (s, i) in d.a_basis
            for j in range(bside.algebra.dim(g.invert(Q)))
        ]
        target = g.multiply(g.multiply(p, Q), g.invert(p))
        basis_t = [
            (s, i, g.invert(target), j)
            for (s, i) in d.a_basis
            for j in range(bside.algebra.dim(g.invert(target)))
        ]
        index_t = {key: n for n, key in enumerate(basis_t)}
        pm = d.action.block(p, g.invert(Q))  # B_{Q^-1} -> B_{(pQp^-1)^-1}
        rows = [[ZERO] * len(basis_q) for _ in range(len(basis_t))]
        for col, (s, i, rq, j) in enumerate(basis_q):
            ap = a_prime(p, s)
            s_target = g.multiply(g.multiply(p, s), g.invert(p))
            for k in range(ap.rows):
                ca = ap.entries[k][i]
                if not ca:
                    continue
                for l in range(pm.rows):
                    cb = pm.entries[l][j]
                    if cb:
                        row = index_t[(s_target, k, g.invert(target), l)]
                        rows[row][col] = ca * cb
        return Matrix.from_rows(rows)

    from .groups import adjoint_self_action

    return Action(
        base=view,
        rho=adjoint_self_action(view.group),
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
            cols = b.delta.block_cols(p, q)
            dt = alg.dim(g.multiply(p, q))
            dq = alg.dim(q)
            rows = [[ZERO] * (alg.dim(p) * dq) for _ in range(dt)]
            for k in range(dt):
                for idx, c in cols[k].items():
                    rows[k][idx] = c
            return Matrix.from_rows(rows)

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
                dp = alg.dim(p)
                rows = []
                for jj in range(alg.dim(pinv)):
                    col = tuple(sm.entries[k][jj] for k in range(sm.rows))
                    tvec = stm.apply(tuple(c.conj() for c in col))
                    rows.append(tuple(tvec[i].conj() for i in range(dp)))
                return pinv, Matrix.from_rows(rows)

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
                rows = []
                for jj in range(dp):
                    col = tuple(sm.entries[k][jj] for k in range(sm.rows))
                    tvec = stm.apply(tuple(c.conj() for c in col))
                    rows.append(tuple(tvec[i].conj() for i in range(dp)))
                star_m = Matrix.from_rows(rows)
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

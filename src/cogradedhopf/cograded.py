"""Cograded structure verification, admissible actions and the deformation.

An :class:`Action` is a group homomorphism into the automorphisms of a
cograded structure, stored blockwise: ``block(p, q)`` is the matrix of the
p-action restricted to the q-component, landing in the rho_p(q)-component.
Admissibility couples the action with a self-action of the group; a crossing
is an admissible action whose self-action is conjugation.

``deform`` twists the comultiplication block at (p, q) into
(pi of the inverse of q (x) id) composed with the block at (rho_q(p), q),
keeping the algebra, the counit and the star; the antipode picks up the
action. The mirror checks regrade the deformed structure by inversion and
confirm that deforming twice restores the original blocks bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from .algebras import COGRADED, GradedAlgebra, GradedElement, TensorElement
from .exact import Matrix, ONE, ZERO, accumulate, is_bijective, vector
from .groups import GroupSelfAction, Window, adjoint_self_action, basis_label, trivial_self_action
from .hopf import (
    BlockComultiplication,
    ComponentMap,
    GradedFunctional,
    MhaStructure,
    _Law,
    _law_witnesses,
    check_t1_t2,
)
from .report import CertificateReport


@dataclass
class Action:
    """A blockwise action of the group on a cograded structure."""

    base: MhaStructure
    rho: GroupSelfAction
    pi_fn: Callable  # (p, q) -> Matrix of pi_p restricted to B_q
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False)
    _maps: dict = field(default_factory=dict, repr=False)
    _certified: dict = field(default_factory=dict, repr=False)

    def block(self, p, q) -> Matrix:
        return _action_block(self.base, self.rho, self.pi_fn, self._cache, p, q)

    def component_map(self, p) -> ComponentMap:
        if p not in self._maps:
            # close over the parts, never the action, so that reference counting frees it
            base, rho, pi_fn, cache = self.base, self.rho, self.pi_fn, self._cache
            self._maps[p] = ComponentMap(
                base.algebra, base.algebra,
                lambda q: (rho.apply(p, q), _action_block(base, rho, pi_fn, cache, p, q)),
                label="pi_%s" % base.group.encode(p),
            )
        return self._maps[p]

    def apply(self, p, x: GradedElement) -> GradedElement:
        return self.component_map(p).apply(x)


def _action_block(base: MhaStructure, rho: GroupSelfAction, pi_fn: Callable, cache: dict, p, q) -> Matrix:
    """The memoized block of pi_p on B_q, checked against its component dimensions."""
    key = (p, q)
    if key not in cache:
        m = pi_fn(p, q)
        alg = base.algebra
        target = rho.apply(p, q)
        if m.rows != alg.dim(target) or m.cols != alg.dim(q):
            raise ValueError(
                "action block (%s, %s) has shape %dx%d, expected %dx%d"
                % (base.group.encode(p), base.group.encode(q), m.rows, m.cols, alg.dim(target), alg.dim(q))
            )
        cache[key] = m
    return cache[key]


def trivial_action(b: MhaStructure) -> Action:
    alg = b.algebra
    return Action(
        base=b,
        rho=trivial_self_action(b.group),
        pi_fn=lambda p, q: Matrix.identity(alg.dim(q)),
        label="trivial",
    )


def adjoint_shuffle_action(b: MhaStructure) -> Action:
    """The conjugation shuffle: pi_p carries B_q identically onto B_{pqp^-1}.

    Needs matching component dimensions along conjugacy classes, which holds
    for function algebras and constant families.
    """
    alg = b.algebra
    g = b.group

    def block(p, q):
        target = g.multiply(g.multiply(p, q), g.invert(p))
        if alg.dim(target) != alg.dim(q):
            raise ValueError(
                "components %s and %s have different dimensions"
                % (g.encode(q), g.encode(target))
            )
        return Matrix.identity(alg.dim(q))

    return Action(base=b, rho=adjoint_self_action(g), pi_fn=block, label="adjoint")


@dataclass(frozen=True)
class AdmissibilityCertificate:
    window_label: str
    report: CertificateReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def _condition_one_witness(
    structure: MhaStructure, action: Action, window: Window
) -> Optional[str]:
    """Blockwise: Delta(pi_p(b)) = (pi_p (x) pi_p)(Delta(b)) on the window."""
    alg = structure.algebra
    g = structure.group
    rho = action.rho
    for p in window.elements:
        for q, r in window.pairs():
            src = structure.delta.source(q, r)
            cols = structure.delta.block_cols(q, r)
            if cols is None:
                continue
            tq, tr = rho.apply(p, q), rho.apply(p, r)
            src_t = structure.delta.source(tq, tr)
            if src_t != rho.apply(p, src):
                return "source typing at p=%s block (%s,%s)" % (
                    g.encode(p), g.encode(q), g.encode(r))
            tcols = structure.delta.block_cols(tq, tr)
            if tcols is None:
                return "missing image block at p=%s (%s,%s)" % (
                    g.encode(p), g.encode(q), g.encode(r))
            pi_src_cols = action.block(p, src).sparse_columns()
            pi_q_cols = action.block(p, q).sparse_columns()
            pi_r_cols = action.block(p, r).sparse_columns()
            dr = alg.dim(r)
            dtr = alg.dim(tr)
            for i in range(alg.dim(src)):
                lhs: dict = {}
                for k, c in pi_src_cols[i].items():
                    accumulate(lhs, tcols[k], c)
                rhs: dict = {}
                for idx, c in cols[i].items():
                    a, b = divmod(idx, dr)
                    for k, ck in pi_q_cols[a].items():
                        accumulate(rhs, ((k * dtr + l, cl) for l, cl in pi_r_cols[b].items()), c * ck)
                if lhs != rhs:
                    return "p=%s block (%s,%s) basis %d" % (
                        g.encode(p), g.encode(q), g.encode(r), i)
    return None


def check_admissible(action: Action, window: Window) -> AdmissibilityCertificate:
    """Verify the defining conditions of an admissible action on a window."""
    b = action.base
    alg = b.algebra
    g = b.group
    rep = CertificateReport(
        title="admissible action (%s on %s)" % (action.label, b.label),
        window=window.label,
        subject_digest=b.label,
    )
    # group homomorphism into automorphisms
    witness = None
    for q in window.elements:
        if action.rho.apply(g.identity, q) != q or action.block(
            g.identity, q
        ) != Matrix.identity(alg.dim(q)):
            witness = "pi_e is not the identity at %s" % g.encode(q)
            break
    rep.add("action-identity", "pi_e = id", witness is None, witness)

    witness = None
    for p, q, r in window.triples():
        lhs_target = action.rho.apply(g.multiply(p, q), r)
        rhs_target = action.rho.apply(p, action.rho.apply(q, r))
        if lhs_target != rhs_target:
            witness = "rho law fails at (%s,%s,%s)" % (
                g.encode(p), g.encode(q), g.encode(r))
            break
        lhs = action.block(g.multiply(p, q), r)
        rhs = action.block(p, action.rho.apply(q, r)).matmul(action.block(q, r))
        if lhs != rhs:
            witness = "pi_{pq} != pi_p pi_q at (%s,%s,%s)" % (
                g.encode(p), g.encode(q), g.encode(r))
            break
    rep.add("action-group-law", "pi is a group homomorphism", witness is None, witness)

    witness = None
    basis = alg.basis_on(window)
    for p in window.elements:
        pmap = action.component_map(p)
        images = {(q, i): pmap.apply(x) for q, i, x in basis}
        bad, = _law_witnesses(b, window, [_Law(
            lambda xt, yt: pmap.apply(xt[2] * yt[2]) != images[xt[:2]] * images[yt[:2]],
            apart=lambda q, r: action.rho.apply(p, q) != action.rho.apply(p, r))])
        if bad is not None:
            witness = "pi_%s not multiplicative at %s" % (g.encode(p), bad)
            break
    rep.add("action-algebra-morphism", "each pi_p is multiplicative", witness is None, witness)

    if b.star is not None:
        witness = None
        for p, (q, i, x) in product(window.elements, basis):
            pmap = action.component_map(p)
            if pmap.apply(b.apply_star(x)) != b.apply_star(pmap.apply(x)):
                witness = "pi_%s does not commute with star at %s" % (
                    g.encode(p), basis_label(g, (q, i)))
                break
        rep.add("action-star-morphism", "each pi_p is a star map", witness is None, witness)

    w1 = _condition_one_witness(b, action, window)
    rep.add(
        "condition-1-comultiplication",
        "pi_p intertwines the comultiplication",
        w1 is None,
        w1,
    )

    witness = None
    for p, q in window.pairs():
        m = action.block(p, q)
        if not is_bijective(m):
            witness = "pi_%s is singular on component %s" % (g.encode(p), g.encode(q))
            break
    rep.add(
        "condition-2-component-typing",
        "pi_p maps B_q isomorphically onto the rho_p(q) component",
        witness is None,
        witness,
    )

    witness = None
    for p, q in window.pairs():
        lhs_idx = action.rho.apply(p, q)
        rhs_idx = g.multiply(g.multiply(p, q), g.invert(p))
        for r in window.elements:
            if action.rho.apply(lhs_idx, r) != action.rho.apply(rhs_idx, r):
                witness = "rho mismatch at p=%s q=%s r=%s" % (
                    g.encode(p), g.encode(q), g.encode(r))
                break
            if action.block(lhs_idx, r) != action.block(rhs_idx, r):
                witness = "pi_{rho_p(q)} != pi_{pqp^-1} at p=%s q=%s on %s" % (
                    g.encode(p), g.encode(q), g.encode(r))
                break
        if witness:
            break
    rep.add(
        "condition-3-compatibility",
        "pi indexed by rho_p(q) equals pi indexed by pqp^-1",
        witness is None,
        witness,
    )
    cert = AdmissibilityCertificate(window.label, rep)
    action._certified[window.label] = cert
    return cert


def check_crossing(action: Action, window: Window) -> CertificateReport:
    """Admissible and the self-action is conjugation on the window."""
    g = action.base.group
    cert = action._certified.get(window.label) or check_admissible(action, window)
    rep = CertificateReport(
        title="crossing (%s on %s)" % (action.label, action.base.label),
        window=window.label,
        subject_digest=action.base.label,
    )
    rep.extend(cert.report)
    witness = None
    for p, q in window.pairs():
        expected = g.multiply(g.multiply(p, q), g.invert(p))
        if action.rho.apply(p, q) != expected:
            witness = "rho_%s(%s) = %s != %s" % (
                g.encode(p), g.encode(q),
                g.encode(action.rho.apply(p, q)), g.encode(expected))
            break
    rep.add("crossing-adjoint-rho", "rho is the conjugation action", witness is None, witness)
    return rep


class DeformedBlockDelta(BlockComultiplication):
    """Comultiplication blocks of the deformed structure.

    The block at (p, q) is (pi_{q^-1} (x) id) after the original block at
    (rho_q(p), q); its source component is rho_q(p) * q.
    """

    def __init__(self, base_delta: BlockComultiplication, action: Action):
        super().__init__(base_delta.algebra)
        self.base_delta = base_delta
        self.action = action

    def _compute_cols(self, p, q) -> Optional[list]:
        g = self.algebra.group
        rho = self.action.rho
        p0 = rho.apply(q, p)
        base = self.base_delta.block_cols(p0, q)
        if base is None:
            return None
        qinv = g.invert(q)
        twist = self.action.block(qinv, p0).sparse_columns()  # B_{p0} -> B_p
        dq = self.algebra.dim(q)
        out = []
        for col in base:
            new: dict = {}
            for idx, c in col.items():
                a, b = divmod(idx, dq)
                accumulate(new, ((k * dq + b, t) for k, t in twist[a].items()), c)
            out.append(new)
        return out

    def source(self, p, q):
        g = self.algebra.group
        return g.multiply(self.action.rho.apply(q, p), q)

    def firsts_for(self, r, q):
        g = self.algebra.group
        qinv = g.invert(q)
        return [self.action.rho.apply(qinv, g.multiply(r, qinv))]

    def seconds_for(self, r, p):
        g = self.algebra.group
        if g.is_finite:
            return [q for q in g.elements if self.source(p, q) == r]
        # solve rho_q(p) q = r: the source is pq for the trivial self-action
        # and qp for the adjoint one, the only two a spec allows on an
        # infinite group
        if self.action.rho.name == "trivial":
            return [g.multiply(g.invert(p), r)]
        if self.action.rho.name == "adjoint":
            return [g.multiply(r, g.invert(p))]
        raise ValueError("second indices of the %s self-action on the infinite group %s "
                         "have no closed form" % (self.action.rho.name, g.name))


def deform(b: MhaStructure, action: Action, window: Window) -> MhaStructure:
    """The deformed structure: same algebra, twisted comultiplication.

    Admissibility is verified on the window first (cached); the full axiom
    suite on the result is the caller's job, per the verification pipeline.
    """
    cert = action._certified.get(window.label) or check_admissible(action, window)
    if not cert.passed:
        raise ValueError(
            "action %s is not admissible on window %s" % (action.label, window.label)
        )
    alg = b.algebra
    g = b.group
    delta = DeformedBlockDelta(b.delta, action)

    def antipode_fn(p):
        pinv = g.invert(p)
        s_target, s_m = b.antipode.fn(p)
        twist = action.block(pinv, s_target)
        return action.rho.apply(pinv, s_target), twist.matmul(s_m)

    antipode = ComponentMap(alg, alg, antipode_fn, label="S~")
    return MhaStructure(
        algebra=alg,
        delta=delta,
        counit_fn=b.counit_fn,
        antipode=antipode,
        star=b.star,
        label="%s~(%s)" % (b.label, action.label),
    )


def deformed_right_integral(
    b: MhaStructure, action: Action, psi: GradedFunctional
) -> GradedFunctional:
    """psi composed with pi_{p^-1} on each component (the twisted integral)."""
    alg = b.algebra
    g = b.group

    def covector(p):
        pinv = g.invert(p)
        target = action.rho.apply(pinv, p)
        m = action.block(pinv, p)
        cov = psi.covector(target)
        return tuple(
            sum((cov[k] * m.entry(k, i) for k in range(m.rows)), ZERO)
            for i in range(m.cols)
        )

    domain = psi.domain
    return GradedFunctional(
        alg, covector, label="twisted(%s)" % psi.label, domain=domain
    )


# ---------------------------------------------------------------------------
# Cograded structure checks
# ---------------------------------------------------------------------------


def check_cograded(b: MhaStructure, window: Window) -> CertificateReport:
    """Cograded-specific laws: diagonal product, counit support, antipode
    typing, and the unit-family compatibilities. The canonical-map blocks
    belong to :func:`hopf.check_t1_t2`, which ``full_suite`` runs."""
    alg = b.algebra
    g = b.group
    rep = CertificateReport(
        title="cograded structure (%s)" % b.label, window=window.label,
        subject_digest=b.label,
    )
    rep.add("cograded-mode", "diagonal product with unital components",
            alg.mode == COGRADED,
            None if alg.mode == COGRADED else "algebra is in graded mode")
    if alg.mode != COGRADED:
        return rep

    witness = None
    for p in window.elements:
        if p == g.identity:
            continue
        if any(c for c in b.counit_covector(p)):
            witness = "counit does not vanish on component %s" % g.encode(p)
            break
    rep.add("counit-support", "the counit vanishes off the identity component",
            witness is None, witness)

    witness = None
    for p in window.elements:
        if b.antipode.target(p) != g.invert(p):
            witness = "antipode sends %s to %s" % (
                g.encode(p), g.encode(b.antipode.target(p)))
            break
    rep.add("antipode-typing", "the antipode maps B_p into the inverse component",
            witness is None, witness)

    # embedding of the function algebra: units, centrality, coproduct of units
    witness = None
    for p in window.elements:
        comp = alg.component(p)
        if comp.unit is None:
            witness = "component %s has no unit" % g.encode(p)
            break
    rep.add("unit-family", "every component is unital", witness is None, witness)
    if witness is not None:
        return rep

    witness = None
    units = {p: alg.element({p: alg.component(p).unit}) for p in window.elements}
    for p, (q, i, x) in product(window.elements, alg.basis_on(window)):
        expected = x if q == p else alg.zero()
        if units[p] * x != expected or x * units[p] != expected:
            witness = "unit of %s is not central against %s" % (g.encode(p), basis_label(g, (q, i)))
            break
    rep.add("unit-centrality", "each component unit is a central idempotent",
            witness is None, witness)

    witness = None
    for p, q in window.pairs():
        src = b.delta.source(p, q)
        if b.delta.block_cols(p, q) is None:
            witness = "missing block (%s,%s)" % (g.encode(p), g.encode(q))
            break
        expected = TensorElement.of_pair(units[p], units[q])
        got = TensorElement(alg, alg)
        unit_src = alg.element({src: alg.component(src).unit})
        b.accumulate_block(got, p, q, unit_src.comps.get(src, {}))
        if got != expected:
            witness = "block (%s,%s) of the unit family" % (g.encode(p), g.encode(q))
            break
    rep.add("unit-coproduct", "comultiplication carries 1_{pq} to 1_p (x) 1_q",
            witness is None, witness)

    eps_unit = b.counit_value(alg.element({g.identity: alg.component(g.identity).unit}))
    rep.add("unit-counit", "the counit of the identity-component unit is one",
            eps_unit == ONE, None if eps_unit == ONE else "eps(1_e) = %s" % eps_unit)

    witness = None
    for p in window.elements:
        s_img = b.antipode.apply(units[p])
        pinv = g.invert(p)
        if s_img != alg.element({pinv: alg.component(pinv).unit}):
            witness = "S(1_%s) != 1_%s" % (g.encode(p), g.encode(pinv))
            break
    rep.add("unit-antipode", "the antipode carries component units to component units",
            witness is None, witness)
    return rep


# ---------------------------------------------------------------------------
# Mirror involution
# ---------------------------------------------------------------------------


def mirror_view(structure: MhaStructure) -> MhaStructure:
    """Regrade by inversion: the new p-component is the old one at p^-1.

    For a crossing-deformed structure this produces a standard cograded
    indexing, since the deformed source at (p^-1, q^-1) is (pq)^-1.
    """
    alg = structure.algebra
    g = structure.group
    mirror_alg = GradedAlgebra(
        group=g,
        mode=COGRADED,
        component_fn=lambda p: alg.component(g.invert(p)),
        label="mirror(%s)" % alg.label,
    )

    from .hopf import CogradedBlockDelta

    def block_fn(p, q):
        return structure.delta.block_cols(g.invert(p), g.invert(q))

    def antipode_fn(p):
        target, m = structure.antipode.fn(g.invert(p))
        return g.invert(target), m

    def star_fn(p):
        target, m = structure.star.fn(g.invert(p))
        return g.invert(target), m

    return MhaStructure(
        algebra=mirror_alg,
        delta=CogradedBlockDelta(mirror_alg, block_fn),
        counit_fn=lambda p: structure.counit_fn(g.invert(p)),
        antipode=ComponentMap(mirror_alg, mirror_alg, antipode_fn, label="S~"),
        star=None
        if structure.star is None
        else ComponentMap(mirror_alg, mirror_alg, star_fn, antilinear=True, label="*"),
        label="mirror(%s)" % structure.label,
    )


def mirrored_action(action: Action, mirrored: MhaStructure) -> Action:
    """The same crossing viewed on the regraded structure."""
    g = mirrored.group
    return Action(
        base=mirrored,
        rho=action.rho,
        pi_fn=lambda p, q: action.block(p, g.invert(q)),
        label="mirror(%s)" % action.label,
    )


def mirror_check(b: MhaStructure, action: Action, window: Window) -> CertificateReport:
    """Regrade the deformation by inversion, re-check the cograded laws and
    the canonical-map blocks, keep the crossing, and confirm that deforming
    twice restores the original.

    The second deformation is taken with respect to the regraded
    decomposition (the one in which the deformed structure is cograded);
    afterwards everything is relabeled back and compared bit for bit."""
    g = b.group
    rep = CertificateReport(
        title="mirror involution (%s, %s)" % (b.label, action.label),
        window=window.label,
        subject_digest=b.label,
    )
    crossing = check_crossing(action, window)
    rep.add("mirror-precondition", "the action is a crossing", crossing.passed,
            None if crossing.passed else "crossing certificate failed")
    if not crossing.passed:
        return rep

    deformed = deform(b, action, window)

    # (i) regrading by inversion puts the deformation in standard indexing
    witness = None
    for p, q in window.pairs():
        src = deformed.delta.source(g.invert(p), g.invert(q))
        if src != g.invert(g.multiply(p, q)):
            witness = "regraded source at (%s,%s) is %s" % (
                g.encode(p), g.encode(q), g.encode(src))
            break
    rep.add("mirror-regrading", "deformed sources invert to the standard indexing",
            witness is None, witness)

    mirrored = mirror_view(deformed)
    rep.extend(check_cograded(mirrored, window), prefix="mirror-")
    rep.extend(check_t1_t2(mirrored, window), prefix="mirror-")

    # (ii) the action is still a crossing of the regraded deformation; this
    # admissibility runs against the deformed comultiplication
    act_m = mirrored_action(action, mirrored)
    crossing2 = check_crossing(act_m, window)
    rep.add("mirror-crossing", "the action is a crossing of the deformation",
            crossing2.passed,
            None if crossing2.passed else next(
                "%s: %s" % (e.name, e.witness) for e in crossing2.failures()))

    if not crossing2.passed:
        return rep

    # (iii) deforming the regraded deformation and relabeling restores b
    restored = mirror_view(deform(mirrored, act_m, window))
    witness = None
    for p, q in window.pairs():
        if b.delta.source(p, q) != g.multiply(p, q):
            witness = "original source at (%s,%s) is nonstandard" % (
                g.encode(p), g.encode(q))
            break
        if restored.delta.block_cols(p, q) != b.delta.block_cols(p, q):
            witness = "block mismatch at (%s,%s)" % (g.encode(p), g.encode(q))
            break
    rep.add("mirror-involution", "deforming twice restores the original blocks",
            witness is None, witness)

    witness = None
    for p in window.elements:
        t1, m1 = restored.antipode.fn(p)
        t2, m2 = b.antipode.fn(p)
        if t1 != t2 or m1 != m2:
            witness = "antipode mismatch at %s" % g.encode(p)
            break
        if vector(restored.counit_fn(p)) != vector(b.counit_fn(p)):
            witness = "counit mismatch at %s" % g.encode(p)
            break
    rep.add("mirror-antipode", "deforming twice restores the antipode and counit",
            witness is None, witness)
    return rep

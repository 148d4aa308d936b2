"""Independent brute-force oracles used by the test and acceptance suites.

These deliberately avoid the library's twist machinery: products are expanded
from raw comultiplication slices so that the construction under test is
checked against a second, dumber computation. The Fraction-pair scalar is the
slow Q(i) arithmetic the int-backed scalar replaced. The per-pair checkers
test every law of ``check_counit``, ``check_antipode``, ``check_star`` and the
multiplicativity of ``check_admissible`` on every basis pair of the window,
with no unit reduction and no skipped pair; the library's checkers must give
the same reports. ``alternate_products_witness`` is the check of the double's
two leg-resolved product expressions that ``check_double_axioms`` derives from
its twist entries instead of running.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Union

from cogradedhopf.algebras import TensorElement
from cogradedhopf.double import act_a_on_a, act_b_on_a
from cogradedhopf.exact import Matrix, is_bijective
from cogradedhopf.groups import Window, basis_label
from cogradedhopf.report import CertificateReport

Rationalish = Union[int, Fraction]


def untwisted_double_product(pairing, quadruple):
    """The classical double product from the raw triple-slice formula.

    Expands R(b (x) a) = sum (b_(1) |> a <| S^-1(b_(3))) (x) b_(2) by brute
    force over every slice factorization of b, with no action twist, then
    multiplies the outer legs.
    """
    g = pairing.group
    aside, bside = pairing.a_side, pairing.b_side
    (s1, i1, r1, j1, s2, i2, r2, j2) = quadruple
    out = TensorElement(aside.algebra, bside.algebra)
    sinv = bside.antipode.inverse_on(g.elements)
    a2 = aside.algebra.basis_element(s2, i2)
    for u in g.elements:
        for w in g.elements:
            v = g.multiply(g.multiply(g.invert(u), r1), g.invert(w))
            cols_outer = bside.delta.block_cols(g.multiply(u, v), w)
            cols_inner = bside.delta.block_cols(u, v)
            if cols_outer is None or cols_inner is None:
                continue
            dw = bside.algebra.dim(w)
            dv = bside.algebra.dim(v)
            for idx, c in cols_outer[j1].items():
                mid, k3 = divmod(idx, dw)
                for idx2, c2 in cols_inner[mid].items():
                    k1, k2 = divmod(idx2, dv)
                    acted = act_b_on_a(
                        pairing, bside.algebra.basis_element(u, k1), a2
                    )
                    src, sm = sinv.fn(w)
                    svec = sm.col(k3)
                    acted = act_a_on_a(
                        pairing, acted, bside.algebra.element({src: svec})
                    )
                    for sp in acted.comps:
                        left = aside.algebra.basis_element(s1, i1) * acted.restrict([sp])
                        right = bside.algebra.basis_element(
                            v, k2
                        ) * bside.algebra.basis_element(r2, j2)
                        for spp, avv in left.comps.items():
                            for rpp, bvv in right.comps.items():
                                for ii, ca in avv.items():
                                    for jj, cb in bvv.items():
                                        out.add_term(spp, rpp, ii, jj, c * c2 * ca * cb)
    return out


def _fraction_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class FractionGaussianRational:
    """The Fraction-pair scalar: Q(i) with both parts always ``Fraction``.

    The reference the int-backed :class:`cogradedhopf.exact.GaussianRational`
    is tested against. Fraction keeps numerator/denominator reduced with
    positive denominator, so instances are canonical and ``==`` is structural.
    """

    re: Fraction
    im: Fraction

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "FractionGaussianRational":
        if isinstance(x, FractionGaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionGaussianRational(x)
        raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))

    @staticmethod
    def _try_coerce(x):
        if isinstance(x, FractionGaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionGaussianRational(x)
        return None

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "FractionGaussianRational":
        # fast constructor for arithmetic: arguments are already Fractions
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def __add__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return FractionGaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return FractionGaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return FractionGaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        o = self._try_coerce(other)
        if o is None:
            return NotImplemented
        sim, oim = self.im, o.im
        if not sim and not oim:  # the dominant, purely real case
            return FractionGaussianRational._raw(self.re * o.re, sim)
        return FractionGaussianRational._raw(
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

    def conj(self) -> "FractionGaussianRational":
        return FractionGaussianRational(self.re, -self.im)

    def inverse(self) -> "FractionGaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionGaussianRational(self.re / n, -self.im / n)

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
        return "FractionGaussianRational(%r, %r)" % (str(self.re), str(self.im))

    @staticmethod
    def parse(text: str) -> "FractionGaussianRational":
        """Parse the canonical forms "a/b", "c/d*i", "a/b+c/d*i" (also bare "i")."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        if not s.endswith("i"):
            return FractionGaussianRational(Fraction(s))
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
        return FractionGaussianRational(real, imag)


# -- per-pair checkers ----------------------------------------------------------


def pair_check_counit(h, window):
    """Both counit identities on all window basis pairs, plus multiplicativity."""
    alg = h.algebra
    g = h.group
    rep = CertificateReport(
        title="counit identities (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    wit_right = wit_left = wit_hom = None
    for (r, i, x), (q, j, y) in alg.basis_pairs(window):
        xy = x * y
        if wit_right is None:
            t = h.coproduct_right_cut(x, y)
            if t.apply_covector_leg1(h.counit_covector) != xy:
                wit_right = basis_label(g, (r, i), (q, j))
        if wit_left is None:
            t = h.coproduct_left_cut(x, y)
            if t.apply_covector_leg2(h.counit_covector) != xy:
                wit_left = basis_label(g, (r, i), (q, j))
        if wit_hom is None:
            lhs = h.counit_value(xy)
            rhs = h.counit_value(x) * h.counit_value(y)
            if lhs != rhs:
                wit_hom = basis_label(g, (r, i), (q, j))
    rep.add("counit-right", "(eps(x)id)(Delta(a)(1(x)b)) = ab", wit_right is None, wit_right)
    rep.add("counit-left", "(id(x)eps)((a(x)1)Delta(b)) = ab", wit_left is None, wit_left)
    rep.add("counit-homomorphism", "eps(ab) = eps(a)eps(b)", wit_hom is None, wit_hom)
    return rep


def pair_check_antipode(h, window):
    """Antipode identities, anti-multiplicativity and bijectivity on the window."""
    alg = h.algebra
    g = h.group
    rep = CertificateReport(
        title="antipode identities (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    fam = h.antipode.fn
    wit1 = wit2 = wit_anti = None
    basis = alg.basis_on(window)
    eps = {(p, i): h.counit_value(x) for p, i, x in basis}
    sa = {(p, i): h.antipode.apply(x) for p, i, x in basis}
    for (r, i, x), (q, j, y) in alg.basis_pairs(window):
        if wit1 is None:
            t = h.coproduct_right_cut(x, y).map_leg1(fam)
            got = t.contract_product()
            want = eps[r, i] * y
            if got != want:
                wit1 = basis_label(g, (r, i), (q, j))
        if wit2 is None:
            t = h.coproduct_left_cut(x, y).map_leg2(fam)
            got = t.contract_product()
            want = eps[q, j] * x
            if got != want:
                wit2 = basis_label(g, (r, i), (q, j))
        if wit_anti is None:
            lhs = h.antipode.apply(x * y)
            rhs = sa[q, j] * sa[r, i]
            if lhs != rhs:
                wit_anti = basis_label(g, (r, i), (q, j))
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


def pair_check_star(h, window):
    """Star structure: involution, anti-multiplicativity, Delta a *-homomorphism."""
    alg = h.algebra
    g = h.group
    if h.star is None:
        raise ValueError("structure %s has no star" % h.label)
    rep = CertificateReport(
        title="star structure (%s)" % h.label, window=window.label, subject_digest=h.label
    )
    star = h.star
    wit_inv = wit_anti = wit_delta = None
    basis = alg.basis_on(window)
    starred = {(p, i): star.apply(x) for p, i, x in basis}
    for r, i, x in basis:
        if star.apply(starred[r, i]) != x:
            wit_inv = basis_label(g, (r, i))
            break
    for (r, i, x), (q, j, y) in alg.basis_pairs(window):
        if wit_anti is None:
            if star.apply(x * y) != starred[q, j] * starred[r, i]:
                wit_anti = basis_label(g, (r, i), (q, j))
        if wit_delta is None:
            lhs = h.coproduct_right_cut(starred[r, i], y)
            inner = h.coproduct_left_cut_second(starred[q, j], x)
            rhs = (
                inner.conj_coefficients()
                .map_leg1(star.fn)
                .map_leg2(star.fn)
            )
            if lhs != rhs:
                wit_delta = basis_label(g, (r, i), (q, j))
    rep.add("star-involutive", "x** = x", wit_inv is None, wit_inv)
    rep.add("star-antimultiplicative", "(xy)* = y* x*", wit_anti is None, wit_anti)
    rep.add("star-coproduct", "Delta(x*) = Delta(x)*", wit_delta is None, wit_delta)
    return rep


def pair_action_morphism_witness(action, window):
    """The witness of ``check_admissible``'s action-algebra-morphism, pair by pair."""
    alg = action.base.algebra
    g = action.base.group
    basis = alg.basis_on(window)
    for p in window.elements:
        pmap = action.component_map(p)
        images = {(q, i): pmap.apply(x) for q, i, x in basis}
        bad = next((basis_label(g, (q, i), (r, j)) for (q, i, x), (r, j, y) in alg.basis_pairs(window)
                    if pmap.apply(x * y) != images[q, i] * images[r, j]), None)
        if bad is not None:
            return "pi_%s not multiplicative at %s" % (g.encode(p), bad)
    return None


def alternate_products_witness(d):
    """The first basis quadruple on which a leg-resolved product expression
    differs from the double product, or None.

    Variant 1 resolves the left factor through R^-1, variant 2 the right one.
    """
    g = d.pairing.group
    window = Window.full(g)
    aside, bside = d.pairing.a_side, d.pairing.b_side
    r_inv_cache = {
        key: d.twist.r_inv(d.basis_tensor(*key))
        for key in ((s, i, r, j) for (s, i) in d.a_basis for (r, j) in d.b_basis)
    }

    @lru_cache(maxsize=1)  # the walk below asks for one left part at a time
    def left_parts(s1, i1, r1, j1, s2, i2):
        """R(b (x) a a2) for the terms b (x) a of R^-1 of the left factor."""
        a2 = aside.algebra.basis_element(s2, i2)
        parts = []
        for (rb, sa), block in r_inv_cache[(s1, i1, r1, j1)].blocks.items():
            for (jb, ia), c in block.items():
                mid = aside.algebra.basis_element(sa, ia) * a2
                part = TensorElement(bside.algebra, aside.algebra)
                part.accumulate_outer(bside.algebra.basis_element(rb, jb), mid, c)
                parts.append(d.twist.r(part))
        return parts

    a_basis = aside.algebra.basis_on(window)
    b_basis = bside.algebra.basis_on(window)
    witness = None
    for (s1, i1, a1), (r1, j1, b1), (s2, i2, _), (r2, j2, b2) in product(
            a_basis, b_basis, a_basis, b_basis):
        primary = d._basis_product((s1, i1, r1, j1, s2, i2, r2, j2))
        # variant resolving the left factor through the inverse twist
        alt1 = TensorElement(aside.algebra, bside.algebra)
        for moved in left_parts(s1, i1, r1, j1, s2, i2):
            alt1.accumulate(moved.mul_leg2_right(b2))
        if alt1 != primary:
            witness = "variant-1 at (%s,%d|%s,%d)(%s,%d|%s,%d)" % (
                g.encode(s1), i1, g.encode(r1), j1,
                g.encode(s2), i2, g.encode(r2), j2)
            break
        # variant resolving the right factor through the inverse twist
        back2 = r_inv_cache[(s2, i2, r2, j2)]
        alt2 = TensorElement(aside.algebra, bside.algebra)
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
    return witness

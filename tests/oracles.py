"""Independent brute-force oracles used by the test and acceptance suites.

These deliberately avoid the library's twist machinery: products are expanded
from raw comultiplication slices so that the construction under test is
checked against a second, dumber computation. The Fraction-pair scalar is the
slow Q(i) arithmetic the int-backed scalar replaced.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from cogradedhopf.algebras import TensorElement
from cogradedhopf.double import act_a_on_a, act_b_on_a

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

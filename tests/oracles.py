"""Independent brute-force oracles used by the test and acceptance suites.

These deliberately avoid the library's twist machinery: products are expanded
from raw comultiplication slices so that the construction under test is
checked against a second, dumber computation.
"""

from cogradedhopf.algebras import TensorElement
from cogradedhopf.double import act_a_on_a, act_b_on_a


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

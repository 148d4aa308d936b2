"""The leg-resolved product expressions of the double, derived and not checked.

``check_double_axioms`` derives both expressions from ``twist-r-roundtrip``,
``twist-braid-a`` and ``twist-braid-b`` (see its docstring), and the walk that
compared them on every basis quadruple is ``oracles.alternate_products_witness``.
The oracle finds nothing on the built doubles. On every mutant below,
``build_double`` raises or the oracle finds a witness, and wherever it finds
one, one of those three entries fails.
"""

from itertools import product

import pytest

import cogradedhopf.double as double
from cogradedhopf.cograded import adjoint_shuffle_action, trivial_action
from cogradedhopf.double import (
    Pairing,
    TwistCalculus,
    build_double,
    check_double_axioms,
    make_group_function_pairing,
    reduced_dual,
)
from cogradedhopf.exact import ONE
from cogradedhopf.groups import Window, cyclic_group, s3_group
from cogradedhopf.hopf import make_constant_family, make_ungraded_group_algebra
from oracles import alternate_products_witness
from test_digests import scale_action, scaled_pairing, with_parts

PREMISES = {"twist-r-roundtrip", "twist-braid-a", "twist-braid-b"}


def criterion_11_double():
    b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())
    act = adjoint_shuffle_action(b)
    return build_double(reduced_dual(b, action=act).pairing, act)


def function_double(g, action):
    pairing = make_group_function_pairing(g)
    return build_double(pairing, action(pairing.b_side))


@pytest.mark.parametrize("build", [
    lambda: function_double(cyclic_group(4), trivial_action),
    lambda: function_double(cyclic_group(6), adjoint_shuffle_action),
    lambda: function_double(s3_group(), adjoint_shuffle_action),
    criterion_11_double,
], ids=["D(Z4) trivial", "D(Z6) adjoint", "D(S3) adjoint", "criterion 11"])
def test_oracle_finds_nothing_on_built_doubles(build):
    assert alternate_products_witness(build()) is None


def starless(pairing):
    """The pairing with the star dropped from both sides, so that build_double
    does not reject a mutant for its star before the products are compared."""
    return Pairing(with_parts(pairing.a_side, star=None), with_parts(pairing.b_side, star=None),
                   pairing.form_fn, label=pairing.label)


def outcome(pairing, action):
    """'raised' when build_double rejects the mutant, 'caught' when the oracle
    finds a witness, after asserting that a premise of the derivation fails."""
    try:
        d = build_double(pairing, action(pairing.b_side))
    except ValueError:
        return "raised"
    witness = alternate_products_witness(d)
    failed = {e.name for e in check_double_axioms(d).failures()}
    assert witness is None or failed & PREMISES, (witness, sorted(failed))
    return "caught" if witness is not None else "missed"


@pytest.mark.parametrize("star", [True, False], ids=["star", "starless"])
def test_scaled_form_and_scaled_action_mutants(star):
    pairing = scaled_pairing() if star else starless(scaled_pairing())
    got = [outcome(pairing, act) for act in (trivial_action, adjoint_shuffle_action)]
    plain = make_group_function_pairing(s3_group())
    got.append(outcome(plain if star else starless(plain), scale_action))
    assert got == (["raised"] * 3 if star else ["caught", "caught", "raised"])


def perturbed_twist(key):
    """A twist whose memoized R image of the basis tensor ``key`` has its first
    coefficient raised by one before build_double reads it."""
    class Perturbed(TwistCalculus):
        def __init__(self, pairing, action):
            super().__init__(pairing, action)
            image = self.r_basis(*key).copy()
            s, r, i, j, _ = next(image.terms())
            image.add_term(s, r, i, j, ONE)
            self._r_cache[key] = image
    return Perturbed


@pytest.mark.parametrize("star", [True, False], ids=["star", "starless"])
@pytest.mark.parametrize("g, action", [(cyclic_group(4), trivial_action), (s3_group(), adjoint_shuffle_action)],
                         ids=["D(Z4) trivial", "D(S3) adjoint"])
def test_perturbed_twist_mutants(monkeypatch, g, action, star):
    w = Window.full(g)
    plain = make_group_function_pairing(g)
    keys = [(r, j, s, i) for (r, j, _), (s, i, _) in product(
        plain.b_side.algebra.basis_on(w), plain.a_side.algebra.basis_on(w))]
    got = []
    for key in keys:
        monkeypatch.setattr(double, "TwistCalculus", perturbed_twist(key))
        pairing = make_group_function_pairing(g)
        got.append(outcome(pairing if star else starless(pairing), action))
    assert len(keys) == len(g.elements) ** 2
    assert got == ["raised" if star else "caught"] * len(keys)

"""Operational group presentations and finite verification windows.

Finite groups are given by explicit multiplication tables and validated
exhaustively; infinite groups are named built-ins presented by callbacks.
Every check that runs over an infinite group does so on a :class:`Window`,
a finite subset containing the identity and closed under inversion, and the
window is recorded in the resulting report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence


class GroupAxiomError(ValueError):
    """A multiplication table failed one of the group laws."""


@dataclass(frozen=True)
class GroupOracle:
    """A group presented operationally: identity, product, inverse.

    ``elements`` is the ordered element tuple for finite groups and None for
    infinite ones; ``encode``/``decode`` translate elements to and from the
    strings used in spec files and reports.
    """

    name: str
    identity: object
    multiply: Callable
    invert: Callable
    elements: Optional[tuple] = None
    encode: Callable = str
    decode: Callable = field(default=lambda s: s)

    @property
    def is_finite(self) -> bool:
        return self.elements is not None

    @property
    def order(self) -> int:
        if self.elements is None:
            raise ValueError("group %s is infinite" % self.name)
        return len(self.elements)

    @cached_property
    def _positions(self) -> dict:
        return {p: i for i, p in enumerate(self.elements)}

    def index(self, p) -> int:
        return self._positions[p]

    def sort_key(self, p):
        """Deterministic ordering key: table position, or the encoded string."""
        if self.elements is not None:
            return self._positions[p]
        if isinstance(p, int):
            return p
        return self.encode(p)

    def __repr__(self) -> str:
        return "GroupOracle(%s)" % self.name


def finite_group_from_table(
    elements: Sequence, table: Sequence[Sequence[int]], name: str = ""
) -> GroupOracle:
    """Build and exhaustively validate a finite group from an index table.

    ``table[i][j]`` is the index of elements[i] * elements[j]. Any axiom
    violation raises :class:`GroupAxiomError` naming the offending elements.
    """
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise GroupAxiomError("duplicate element labels")
    if len(table) != n or any(len(row) != n for row in table):
        raise GroupAxiomError("table must be %dx%d" % (n, n))
    for row in table:
        for k in row:
            if not (0 <= k < n):
                raise GroupAxiomError("table index %r out of range" % (k,))
    prod = {
        (elements[i], elements[j]): elements[table[i][j]]
        for i in range(n)
        for j in range(n)
    }
    identity = None
    for e in elements:
        if all(prod[(e, x)] == x and prod[(x, e)] == x for x in elements):
            identity = e
            break
    if identity is None:
        raise GroupAxiomError("no identity element in table")
    inverses = {}
    for x in elements:
        inv = [y for y in elements if prod[(x, y)] == identity and prod[(y, x)] == identity]
        if not inv:
            raise GroupAxiomError("element %r has no inverse" % (x,))
        inverses[x] = inv[0]
    for a in elements:
        for b in elements:
            for c in elements:
                if prod[(prod[(a, b)], c)] != prod[(a, prod[(b, c)])]:
                    raise GroupAxiomError(
                        "non-associative triple (%r, %r, %r)" % (a, b, c)
                    )
    return GroupOracle(
        name=name or "table-group-%d" % n,
        identity=identity,
        multiply=lambda a, b: prod[(a, b)],
        invert=lambda a: inverses[a],
        elements=elements,
        encode=str,
        decode=lambda s: _decode_by_label(elements, s),
    )


def _decode_by_label(elements, s):
    for e in elements:
        if str(e) == s:
            return e
    raise KeyError("unknown group element %r" % s)


def integers_group() -> GroupOracle:
    """The additive group of integers."""
    return GroupOracle(
        name="integers",
        identity=0,
        multiply=lambda a, b: a + b,
        invert=lambda a: -a,
        elements=None,
        encode=str,
        decode=int,
    )


def trivial_group() -> GroupOracle:
    return finite_group_from_table(["e"], [[0]], name="trivial")


def cyclic_group(n: int) -> GroupOracle:
    elements = ["e"] + ["g%d" % k for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return finite_group_from_table(elements, table, name="Z%d" % n)


_S3_PERMS = {
    "e": (0, 1, 2),
    "(12)": (1, 0, 2),
    "(13)": (2, 1, 0),
    "(23)": (0, 2, 1),
    "(123)": (1, 2, 0),
    "(132)": (2, 0, 1),
}


def s3_group() -> GroupOracle:
    """The symmetric group on three letters, with cycle-notation labels.

    The product pq acts by q first, then p.
    """
    labels = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    perms = [_S3_PERMS[l] for l in labels]
    by_perm = {perm: i for i, perm in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composed = tuple(p[q[i]] for i in range(3))
            row.append(by_perm[composed])
        table.append(row)
    return finite_group_from_table(labels, table, name="S3")


@dataclass(frozen=True)
class GroupSelfAction:
    """An action of the group on itself: (p, q) -> rho_p(q)."""

    name: str
    rho: Callable

    def apply(self, p, q):
        return self.rho(p, q)


def adjoint_self_action(g: GroupOracle) -> GroupSelfAction:
    return GroupSelfAction(
        "adjoint", lambda p, q: g.multiply(g.multiply(p, q), g.invert(p))
    )


def trivial_self_action(g: GroupOracle) -> GroupSelfAction:
    return GroupSelfAction("trivial", lambda p, q: q)


@dataclass(frozen=True)
class Window:
    """A finite subset of a group on which lazily presented structures are
    checked; contains the identity and is closed under inversion."""

    group: GroupOracle
    elements: tuple
    label: str

    @staticmethod
    def full(g: GroupOracle) -> "Window":
        if not g.is_finite:
            raise ValueError("cannot take the full window of infinite %s" % g.name)
        return Window(g, g.elements, "all")

    @staticmethod
    def of(g: GroupOracle, elements: Sequence, label: str = "") -> "Window":
        """Normalize a window: keep order, append missing identity/inverses."""
        elems = list(dict.fromkeys(elements))
        if g.identity not in elems:
            elems.insert(0, g.identity)
        for x in list(elems):
            inv = g.invert(x)
            if inv not in elems:
                elems.append(inv)
        return Window(g, tuple(elems), label or ",".join(g.encode(x) for x in elems))

    @staticmethod
    def integer_range(g: GroupOracle, lo: int, hi: int) -> "Window":
        if lo > 0 or hi < 0:
            raise ValueError("integer window must contain 0")
        return Window(g, tuple(range(lo, hi + 1)), "%d..%d" % (lo, hi))

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def pairs(self):
        for p in self.elements:
            for q in self.elements:
                yield p, q

    def triples(self):
        for p in self.elements:
            for q in self.elements:
                for r in self.elements:
                    yield p, q, r


def basis_label(g: GroupOracle, *keys) -> str:
    """Report label "(p,i),(q,j),..." of basis keys; each key starts with a
    component and an index, as the triples of a basis walk do."""
    return ",".join("(%s,%d)" % (g.encode(key[0]), key[1]) for key in keys)


def check_group_laws_on_window(g: GroupOracle, w: Window) -> Optional[str]:
    """Spot-verify group laws on a window; returns a witness string or None.

    Finite groups are already validated exhaustively at construction; this is
    the honest finite certification for infinite oracles.
    """
    e = g.identity
    for p in w.elements:
        if g.multiply(p, e) != p or g.multiply(e, p) != p:
            return "identity law fails at %s" % g.encode(p)
        if g.multiply(p, g.invert(p)) != e:
            return "inverse law fails at %s" % g.encode(p)
    for p, q, r in w.triples():
        if g.multiply(g.multiply(p, q), r) != g.multiply(p, g.multiply(q, r)):
            return "associativity fails at (%s, %s, %s)" % (
                g.encode(p),
                g.encode(q),
                g.encode(r),
            )
    return None


def check_self_action_on_window(
    g: GroupOracle, action: GroupSelfAction, w: Window
) -> Optional[str]:
    """Verify the left-action laws of rho on a window; witness or None."""
    for q in w.elements:
        if action.apply(g.identity, q) != q:
            return "rho_e moves %s" % g.encode(q)
    for p, q, r in w.triples():
        lhs = action.apply(g.multiply(p, q), r)
        rhs = action.apply(p, action.apply(q, r))
        if lhs != rhs:
            return "rho_{pq} != rho_p rho_q at (%s, %s, %s)" % (
                g.encode(p),
                g.encode(q),
                g.encode(r),
            )
    for p in w.elements:
        images = [action.apply(p, q) for q in w.elements]
        if len(set(images)) != len(images):
            return "rho_%s is not injective on the window" % g.encode(p)
    return None

"""Finite closure of matrix generators, order spectra, and group recognition.

Closure is a breadth-first walk from the identity under right
multiplication by the generators, which gives a deterministic element
order (discovery order) for any fixed generator list.  The resulting
group is summarized by an isomorphism-invariant fingerprint: order,
multiset of element orders, abelian flag, and center size.  For the small
groups named in the recognition table the fingerprint identifies the
group; this is a lookup guarantee for table entries only, not a general
isomorphism test.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, InvariantViolation, MixedRings, NonInvertibleGenerator
from .mat3 import Mat3
from .rings import Ring

CLOSURE_CAP_DEFAULT = 10**6


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism-invariant summary of a finite group."""

    order: int
    spectrum: tuple[tuple[int, int], ...]  # sorted (element order, count)
    abelian: bool
    center_size: int

    def serialize(self) -> str:
        spec = ",".join(f"{d}:{c}" for d, c in self.spectrum)
        ab = "true" if self.abelian else "false"
        return f"order={self.order};spectrum={spec};abelian={ab};center={self.center_size}"


class GeneratedGroup:
    """The closure of a generator list: elements, generators, and Cayley edges.

    ``elements[0]`` is always the identity.  ``generators`` lists the
    generator matrices in column order, and ``cayley`` holds one column of
    element indices per generator: ``cayley[g][i]`` is the index of
    ``elements[i] * generators[g]``.  The map pipeline passes the rotations
    (rho_v, rho_e, rho_f) in this order, so ``cayley[0..2]`` are their
    columns.  ``index`` maps each element's entries to its position in
    ``elements``; ``generate`` passes the dict it built during the closure,
    and it is built here only when omitted.  Instances are immutable after
    construction.
    """

    def __init__(self, ring: Ring, elements: list[Mat3],
                 generators: list[Mat3],
                 cayley: list[list[int]],
                 index: dict[tuple, int] | None = None):
        self.ring = ring
        self.elements = elements
        self.generators = generators
        self.cayley = cayley
        if index is None:
            index = {m.vals: i for i, m in enumerate(elements)}
        self._index = index

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: Mat3) -> bool:
        return isinstance(m, Mat3) and m.ring == self.ring and m.vals in self._index


def generate(gens: Sequence[Mat3], cap: int = CLOSURE_CAP_DEFAULT) -> GeneratedGroup:
    """Breadth-first closure of the generators under right multiplication.

    Deterministic: the element order depends only on the generator list.
    Every edge i -> elements[i] * gens[g] is recorded in the Cayley table,
    one int per edge, for every group size.
    Raises CapExceeded (with the partial count) if the closure passes
    ``cap`` elements.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MixedRings("generators live in different rings")
        if not g.det().is_unit:
            raise NonInvertibleGenerator(f"generator determinant {g.det()} is not a unit")

    ident = Mat3.identity(ring)
    elements = [ident]
    index = {ident.vals: 0}
    cayley: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(elements):
        a = elements[i]
        for g, column in zip(gens, cayley):
            b = a * g
            j = index.get(b.vals)
            if j is None:
                j = len(elements)
                if j >= cap:
                    raise CapExceeded(partial_count=len(elements), cap=cap)
                index[b.vals] = j
                elements.append(b)
            column.append(j)
        i += 1
    return GeneratedGroup(ring, elements, list(gens), cayley, index)


def _cyclic_walk(G: GeneratedGroup, i: int) -> list[int]:
    """Indices of a, a^2, ..., a^n = identity for a = elements[i].

    Raises InvariantViolation when a power is not in the group or the walk
    passes |G| steps without reaching index 0 (so ``elements[0]`` is not the
    identity, or the element list is not closed).
    """
    a = G.elements[i]
    index = G._index
    limit = G.order
    walk = [i]
    power = a
    while walk[-1] != 0:
        if len(walk) >= limit:
            raise InvariantViolation(
                f"powers of element {i} do not reach the identity within |G| = {limit} steps")
        power = power * a
        j = index.get(power.vals)
        if j is None:
            raise InvariantViolation(
                f"power {len(walk) + 1} of element {i} is not in the group")
        walk.append(j)
    return walk


def order_spectrum(G: GeneratedGroup) -> GroupFingerprint:
    """Element-order multiset plus abelian flag and center size.

    Orders come from one walk per cyclic subgroup (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, section 3.1): for each element
    a whose order is still unknown, its powers a, a^2, ... are looked up in
    the element index until the identity (index 0) comes back after n steps;
    then a^k has order n / gcd(k, n), so every power gets its order from the
    one walk.  The generators were checked invertible by ``generate``, so no
    determinant is taken.  A power missing from the index, or a walk longer
    than |G|, raises InvariantViolation.

    The abelian flag tests generator pairs only (generators commuting
    pairwise forces the whole group abelian), reading both products a*b and
    b*a from the Cayley table; the center is the set of elements commuting
    with every generator; z*g is read from the table, so each test costs
    the one product g*z.
    """
    n_elems = G.order
    orders = [0] * n_elems
    for i in range(n_elems):
        if orders[i]:
            continue
        walk = _cyclic_walk(G, i)
        n = len(walk)
        for k, j in enumerate(walk, 1):
            orders[j] = n // math.gcd(k, n)
    counts = Counter(orders)

    cols = G.cayley
    abelian = all(cols[b][cols[a][0]] == cols[a][cols[b][0]]
                  for a in range(len(cols)) for b in range(a + 1, len(cols)))
    elements = G.elements
    center = sum(1 for z, *row in zip(elements, *cols)
                 if all(elements[j].vals == (g * z).vals for j, g in zip(row, G.generators)))
    return GroupFingerprint(n_elems, tuple(sorted(counts.items())), abelian, center)


# ---------------------------------------------------------------------------
# recognition

def _totient(n: int) -> int:
    out = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


def cyclic_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of the cyclic group C_n."""
    return tuple((d, _totient(d)) for d in _divisors(n))


def dihedral_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of the dihedral group D_n of order 2n (n >= 2)."""
    counts = Counter({d: _totient(d) for d in _divisors(n)})
    counts[2] += n  # the n reflections
    return tuple(sorted(counts.items()))


# spectra verified against brute-force permutation enumeration (see tests)
RECOGNITION_TABLE: dict[str, tuple[int, tuple[tuple[int, int], ...], bool]] = {
    "S3": (6, ((1, 1), (2, 3), (3, 2)), False),
    "A4": (12, ((1, 1), (2, 3), (3, 8)), False),
    "S4": (24, ((1, 1), (2, 9), (3, 8), (4, 6)), False),
    "A5": (60, ((1, 1), (2, 15), (3, 20), (5, 24)), False),
}


def recognize(fp: GroupFingerprint) -> str:
    """Name the group by exact fingerprint match, or "unrecognized".

    Checks the named table (S3, A4, S4, A5), then cyclic groups (abelian
    with an element of full order), then dihedral groups by spectrum.
    """
    for name, (order, spectrum, abelian) in RECOGNITION_TABLE.items():
        if fp.order == order and fp.spectrum == spectrum and fp.abelian == abelian:
            return name
    if fp.abelian and any(d == fp.order for d, _ in fp.spectrum):
        if fp.spectrum == cyclic_spectrum(fp.order):
            return f"C{fp.order}"
    if fp.order % 2 == 0 and fp.order >= 4:
        n = fp.order // 2
        if fp.spectrum == dihedral_spectrum(n) and fp.abelian == (n <= 2):
            return f"D{n}"
    return "unrecognized"

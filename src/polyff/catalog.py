"""Built-in parameter catalog: Platonic solids, planar tilings, bad primes.

The five classical solids carry their exact angle cosines

    tetrahedron   x = 1/2            y = 1/3
    cube          x = 0              y = 0
    octahedron    x = 1/2            y = -1/3
    dodecahedron  x = (1-sqrt5)/4    y = -sqrt5/5
    icosahedron   x = 1/2            y = -sqrt5/3

and the three planar tilings use the interior-angle cosine with dihedral
cosine -1 (square 0, triangular 1/2, hexagonal -1/2).

A prime is *bad* for an entry when it divides a parameter denominator, so
the specialization is undefined there.  Needing sqrt5 is classified
separately: when 5 has no square root mod p the parameters live in the
quadratic extension GF(p^2) instead, which is a feature rather than a
failure.  ``published_bad_primes`` records the classical claimed lists so
reports can show both; they disagree with the computed sets for the
dodecahedron ({2,5} computed vs {2,3,5} claimed) and the icosahedron
({2,3} computed vs {2,5} claimed) -- see ``bad_primes``.

Note on (p, q) ordering: p counts faces around a vertex (order of rho_v)
and q edges of a face (order of rho_f), so the icosahedron is (5, 3) and
the dodecahedron (3, 5); classical tables sometimes list both as (3, 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    BadPrime,
    ExtensionDisabled,
    NonInvertibleDenominator,
    SqrtNotInRing,
    UnknownName,
    UnsupportedRing,
)
from .rings import (
    GaloisField,
    QuadRational,
    Ring,
    is_prime,
    reduce_quadrational,
)
from .universal import PolyhedronParams

# bad_primes annotates the good primes below this bound that need GF(p^2)
EXTENSION_SCAN_LIMIT = 32


class TilingClass(enum.Enum):
    """Finiteness trichotomy for the (p, q) family."""

    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class NamedPolyhedron:
    """A catalog entry: exact parameters plus the expected classical data."""

    name: str
    x: QuadRational
    y: QuadRational
    expected_pq: tuple[int, int]
    expected_group: str  # recognition name, or "infinite"
    published_bad_primes: frozenset[int] | None  # classical claimed list, if any

    @property
    def needs_sqrt5(self) -> bool:
        return self.x.b != 0 or self.y.b != 0


_Q = QuadRational

CATALOG: dict[str, NamedPolyhedron] = {
    e.name: e for e in [
        NamedPolyhedron("tetrahedron", _Q(1, 0, 2), _Q(1, 0, 3),
                        (3, 3), "A4", frozenset({2, 3})),
        NamedPolyhedron("cube", _Q(0), _Q(0),
                        (3, 4), "S4", frozenset()),
        NamedPolyhedron("octahedron", _Q(1, 0, 2), _Q(-1, 0, 3),
                        (4, 3), "S4", frozenset({2, 3})),
        NamedPolyhedron("dodecahedron", _Q(1, -1, 4), _Q(0, -1, 5),
                        (3, 5), "A5", frozenset({2, 3, 5})),
        NamedPolyhedron("icosahedron", _Q(1, 0, 2), _Q(0, -1, 3),
                        (5, 3), "A5", frozenset({2, 5})),
        NamedPolyhedron("square_tiling", _Q(0), _Q(-1),
                        (4, 4), "infinite", None),
        NamedPolyhedron("triangular_tiling", _Q(1, 0, 2), _Q(-1),
                        (6, 3), "infinite", None),
        NamedPolyhedron("hexagonal_tiling", _Q(-1, 0, 2), _Q(-1),
                        (3, 6), "infinite", None),
    ]
}

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
TILINGS = ("square_tiling", "triangular_tiling", "hexagonal_tiling")


def platonic_params(name: str) -> NamedPolyhedron:
    """Look up a catalog entry by name."""
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownName(
            f"unknown polyhedron {name!r}; choose from {', '.join(CATALOG)}") from None


def classify_pq(p: int, q: int) -> TilingClass:
    """Spherical, Euclidean, or hyperbolic by exact comparison of p(q-2) with 2q."""
    if p < 2 or q < 2:
        raise ValueError(f"need p, q >= 2, got ({p}, {q})")
    lhs = p * (q - 2)
    rhs = 2 * q
    if lhs < rhs:
        return TilingClass.SPHERICAL
    if lhs == rhs:
        return TilingClass.EUCLIDEAN
    return TilingClass.HYPERBOLIC


def sqrt5_exists_mod(p: int) -> bool:
    """Whether 5 is a square in F_p."""
    if p in (2, 5):
        return True
    return pow(5 % p, (p - 1) // 2, p) == 1


@dataclass(frozen=True)
class BadPrimeReport:
    """Computed vs published bad primes, plus extension-needing primes."""

    name: str
    computed: frozenset[int]
    published: frozenset[int] | None
    needs_extension: frozenset[int]  # good primes where sqrt5 forces GF(p^2)

    @property
    def discrepancy(self) -> bool:
        return self.published is not None and self.published != self.computed


def bad_primes(entry: NamedPolyhedron | str) -> BadPrimeReport:
    """Primes dividing the parameter denominators, with extension annotations.

    The computed set is exact (denominator divisors).  When the parameters
    involve sqrt5, good primes p < EXTENSION_SCAN_LIMIT with no square root
    of 5 are annotated as needing the GF(p^2) extension.
    """
    if isinstance(entry, str):
        entry = platonic_params(entry)
    computed = frozenset(entry.x.denominator_primes() | entry.y.denominator_primes())
    needs = frozenset()
    if entry.needs_sqrt5:
        needs = frozenset(
            p for p in range(2, EXTENSION_SCAN_LIMIT)
            if is_prime(p) and p not in computed and not sqrt5_exists_mod(p))
    return BadPrimeReport(entry.name, computed, entry.published_bad_primes, needs)


def _offending_primes(q: QuadRational, ring: Ring) -> set[int]:
    # a GaloisField's modulus is its characteristic
    return {p for p in q.denominator_primes() if ring.modulus % p == 0}


def _reduce_both(entry: NamedPolyhedron, ring: Ring) -> PolyhedronParams:
    elems = []
    for param_name, q in (("x", entry.x), ("y", entry.y)):
        try:
            elems.append(reduce_quadrational(q, ring))
        except NonInvertibleDenominator:
            raise BadPrime(_offending_primes(q, ring), param_name) from None
    return PolyhedronParams(*elems)


def specialize(entry: NamedPolyhedron | str, ring: Ring,
               auto_extend: bool = False) -> tuple[PolyhedronParams, Ring]:
    """Reduce a catalog entry's parameters into a ring.

    When sqrt5 is missing from a prime field and ``auto_extend`` is set,
    the reduction is retried over GF(p^2) with extension polynomial t^2 - 5
    and the extension handle is returned alongside the parameters.  The
    ring is never changed silently: without ``auto_extend`` a missing
    sqrt5 raises ExtensionDisabled.
    """
    if isinstance(entry, str):
        entry = platonic_params(entry)
    try:
        return _reduce_both(entry, ring), ring
    except SqrtNotInRing as exc:
        if not auto_extend:
            raise ExtensionDisabled(
                f"{exc}; pass auto_extend to retry over the quadratic extension"
            ) from None
    # retry over the quadratic extension
    if not (ring.is_field and ring.cardinality == ring.modulus):
        raise UnsupportedRing(
            f"auto-extension is only defined from a prime field, not {ring}")
    p = ring.modulus
    ext = GaloisField(p, 2, (-5 % p, 0, 1))
    return _reduce_both(entry, ext), ext

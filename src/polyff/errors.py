"""Exception types shared across the package.

Every error raised by the library derives from :class:`PolyffError` so the
CLI can map failures onto stable exit codes.
"""

from __future__ import annotations


class PolyffError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# ring construction and arithmetic

class RingSpecError(PolyffError):
    """Malformed ring specification string."""


class ModulusTooSmall(RingSpecError):
    """Z/nZ requires n >= 2."""


class NonPrimeCharacteristic(RingSpecError):
    """GF(p^k) requires prime p."""


class ReduciblePolynomial(RingSpecError):
    """The supplied extension polynomial is not irreducible over F_p."""


class NotAUnit(PolyffError):
    """Multiplicative inverse requested for a non-invertible element."""


class MixedRings(PolyffError):
    """Operands belong to different rings."""


class UnsupportedRing(PolyffError):
    """Operation undefined for this ring kind (e.g. square roots mod composite n)."""


class NonInvertibleDenominator(PolyffError):
    """A parameter denominator is not a unit in the target ring."""


class SqrtNotInRing(PolyffError):
    """sqrt(5) does not exist in the target ring; a quadratic extension would."""


# ---------------------------------------------------------------------------
# matrices and group generation

class NotInvertible(PolyffError):
    """Matrix determinant is not a unit."""


class NonInvertibleGenerator(NotInvertible):
    """A closure generator is not invertible."""


class CapExceeded(PolyffError):
    """The group has more elements than the configured ``cap``.

    The closure may stop in its row pass, before it walks any element, and
    a closed-form group raises it from its order alone.
    """

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"closure exceeded cap {cap} (the group has more than {cap} elements)")


# ---------------------------------------------------------------------------
# map reconstruction

class InvariantViolation(PolyffError):
    """Internal consistency check failed; indicates a bug, not a user error."""


# ---------------------------------------------------------------------------
# catalog / specialization

class UnknownName(PolyffError):
    """No catalog entry with that name."""


class BadPrime(PolyffError):
    """Specialization undefined: a parameter denominator vanishes in the ring.

    ``primes`` are the offending characteristic primes, ``param`` names the
    parameter ("x" or "y") whose denominator failed.
    """

    def __init__(self, primes: set[int], param: str):
        self.primes = primes
        self.param = param
        plist = ",".join(str(p) for p in sorted(primes))
        super().__init__(f"bad prime(s) {{{plist}}} for parameter {param}")


class ExtensionDisabled(PolyffError):
    """sqrt(5) is absent from the field and automatic extension was not requested."""

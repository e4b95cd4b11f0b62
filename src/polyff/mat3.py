"""3x3 matrices over a finite ring: the element type of all generated groups.

Matrices are immutable, entrywise-canonical, and hashable.  The column
convention is used throughout: a matrix acts on column vectors, and the
columns are the images of the three basis vectors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import MixedRings, NotInvertible
from .rings import Ring, RingElem


class Mat3:
    """A 3x3 matrix over a ring: ``vals`` holds the nine entry codes, row-major."""

    __slots__ = ("ring", "vals")

    def __init__(self, ring: Ring, entries: Iterable):
        elems = [ring.elem(e) for e in entries]
        if len(elems) != 9:
            raise ValueError(f"expected 9 entries, got {len(elems)}")
        self.ring = ring
        self.vals = tuple(e.val for e in elems)

    @classmethod
    def _raw(cls, ring: Ring, vals: tuple) -> Mat3:
        m = object.__new__(cls)
        m.ring = ring
        m.vals = vals
        return m

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> Mat3:
        return cls(ring, [e for row in rows for e in row])

    @classmethod
    def identity(cls, ring: Ring) -> Mat3:
        one = ring._from_int(1)
        zero = ring._from_int(0)
        return cls._raw(ring, (one, zero, zero, zero, one, zero, zero, zero, one))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat3) and other.ring == self.ring
                and other.vals == self.vals)

    def __hash__(self) -> int:
        return hash(self.vals)

    def __mul__(self, other: Mat3) -> Mat3:
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise MixedRings("cannot multiply matrices over different rings")
        a = self.vals
        r0, r1, r2 = ring._rows_mul((a[0:3], a[3:6], a[6:9]), other.vals)
        return Mat3._raw(ring, r0 + r1 + r2)

    def det(self) -> RingElem:
        """Determinant by cofactor expansion along the first row."""
        ring = self.ring
        a = self.vals
        mul = ring._mul
        sub = ring._sub
        add = ring._add
        m0 = sub(mul(a[4], a[8]), mul(a[5], a[7]))
        m1 = sub(mul(a[3], a[8]), mul(a[5], a[6]))
        m2 = sub(mul(a[3], a[7]), mul(a[4], a[6]))
        d = add(sub(mul(a[0], m0), mul(a[1], m1)), mul(a[2], m2))
        return RingElem(ring, d)

    def order(self) -> int:
        """Least m >= 1 with self^m = I, by iterated multiplication.

        Finite for every invertible matrix over a finite ring.
        """
        if not self.det().is_unit:
            raise NotInvertible("matrix order undefined: determinant is not a unit")
        ident = Mat3.identity(self.ring).vals
        m = 1
        power = self
        while power.vals != ident:
            power = power * self
            m += 1
        return m

    def __repr__(self) -> str:
        fmt = self.ring._fmt
        rows = ";".join(",".join(map(fmt, self.vals[i:i + 3])) for i in (0, 3, 6))
        return f"Mat3({self.ring}, {rows!r})"


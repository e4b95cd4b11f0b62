"""Universal reflection and rotation matrices in two ring parameters.

Everything is written in the flag basis (vertex, edge midpoint, face
center).  The two parameters are the face-angle cosine x and the
dihedral-angle cosine y; substituting values from any ring yields the
fundamental reflections

    sigma0 = [[-1,0,0],[2,1,0],[0,0,1]]        (vertex reflection)
    sigma1 = [[1,1-x,0],[0,-1,0],[0,1+x,1]]    (edge reflection)
    sigma2 = [[1,0,0],[0,1,1-y],[0,0,-1]]      (face reflection)

and the rotations rho_v = sigma1*sigma2, rho_e = sigma0*sigma2,
rho_f = sigma0*sigma1 (matrix products, column convention).  These satisfy
the defining relations of the rank-2 reflection group

    sigma_i^2 = (sigma0*sigma2)^2 = I,    rho_v*rho_e*rho_f = rho_e^2 = I

identically in x and y, so every specialization yields a quotient group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import MixedRings
from .mat3 import Mat3
from .rings import Ring, RingElem


@dataclass(frozen=True)
class PolyhedronParams:
    """A specialization (x, y) of the two angle-cosine parameters."""

    x: RingElem
    y: RingElem

    def __post_init__(self):
        if self.x.ring != self.y.ring:
            raise MixedRings("x and y must live in the same ring")

    @property
    def ring(self) -> Ring:
        return self.x.ring


@dataclass(frozen=True)
class GeneratorSet:
    """The three rotations that the closure multiplies, for one parameter choice."""

    ring: Ring
    rho_v: Mat3
    rho_e: Mat3
    rho_f: Mat3

    @classmethod
    def from_params(cls, params: PolyhedronParams) -> GeneratorSet:
        return cls(params.ring, *make_rhos(params))


def make_sigmas(params: PolyhedronParams) -> tuple[Mat3, Mat3, Mat3]:
    """The three fundamental reflections for (x, y)."""
    ring = params.ring
    x = params.x
    one = ring.one
    s0 = Mat3.from_rows(ring, [[-1, 0, 0], [2, 1, 0], [0, 0, 1]])
    s1 = Mat3.from_rows(ring, [[1, one - x, 0], [0, -1, 0], [0, one + x, 1]])
    s2 = Mat3.from_rows(ring, [[1, 0, 0], [0, 1, one - params.y], [0, 0, -1]])
    return s0, s1, s2


def make_rhos(params: PolyhedronParams) -> tuple[Mat3, Mat3, Mat3]:
    """The rotations (rho_v, rho_e, rho_f) for (x, y), written out explicitly.

    The entries are computed on the ring's codes, since a scan builds the
    three matrices once per row.
    """
    ring = params.ring
    x, y = params.x.val, params.y.val
    add, sub, mul = ring._add, ring._sub, ring._mul
    zero, one, two, minus_one = map(ring._from_int, (0, 1, 2, -1))
    one_minus_x, one_plus_x, one_minus_y = sub(one, x), add(one, x), sub(one, y)
    rv = Mat3._raw(ring, (
        one, one_minus_x, mul(one_minus_x, one_minus_y),
        zero, minus_one, sub(y, one),
        zero, one_plus_x, sub(mul(one_plus_x, one_minus_y), one),
    ))
    re = Mat3._raw(ring, (
        minus_one, zero, zero,
        two, one, one_minus_y,
        zero, zero, minus_one,
    ))
    rf = Mat3._raw(ring, (
        minus_one, sub(x, one), zero,
        two, sub(one, add(x, x)), zero,
        zero, one_plus_x, one,
    ))
    return rv, re, rf


def invariant_form(params: PolyhedronParams) -> Mat3 | None:
    """The symmetric form B with g^T B g = B for each rotation g, or None.

    B = [[xy - x + y + 3, -2(x - 1), c], [-2(x - 1), -2(x - 1), c], [c, c, c]]
    with c = (x - 1)(y - 1), and det B = -(x - 1)^2 (x + 1)(y - 1)(y + 1)^2.
    Returns None unless the ring is a field of odd order and det B != 0
    (x, y != +-1): only then is the rotation group a subgroup of
    SO(3, B) = PGL(2, q).  The entries are computed on codes, once per row.
    """
    ring = params.ring
    if not ring.is_field or ring.cardinality % 2 == 0:
        return None
    x, y = params.x.val, params.y.val
    add, sub, mul = ring._add, ring._sub, ring._mul
    one = ring._from_int(1)
    x_minus_one, y_minus_one = sub(x, one), sub(y, one)
    if not (mul(x_minus_one, add(x, one)) and mul(y_minus_one, add(y, one))):
        return None
    b = mul(ring._from_int(-2), x_minus_one)
    c = mul(x_minus_one, y_minus_one)
    corner = add(sub(mul(x, y), x), add(y, ring._from_int(3)))
    return Mat3._raw(ring, (corner, b, c, b, b, c, c, c, c))


@dataclass(frozen=True)
class RelationReport:
    """Pass/fail results of the defining relations at one parameter pair."""

    x: str
    y: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def verify_relations(params: PolyhedronParams) -> RelationReport:
    """Check every defining relation and factorization at one (x, y)."""
    ring = params.ring
    ident = Mat3.identity(ring)
    s0, s1, s2 = make_sigmas(params)
    rv, re, rf = make_rhos(params)
    checks = (
        ("sigma0^2 = I", s0 * s0 == ident),
        ("sigma1^2 = I", s1 * s1 == ident),
        ("sigma2^2 = I", s2 * s2 == ident),
        ("(sigma0*sigma2)^2 = I", (s0 * s2) * (s0 * s2) == ident),
        ("rho_e^2 = I", re * re == ident),
        ("rho_v*rho_e*rho_f = I", rv * re * rf == ident),
        ("rho_v = sigma1*sigma2", rv == s1 * s2),
        ("rho_e = sigma0*sigma2", re == s0 * s2),
        ("rho_f = sigma0*sigma1", rf == s0 * s1),
    )
    form = invariant_form(params)
    if form is not None:  # det B = 0 has no form to check; g^T's rows are g's columns
        checks += tuple((f"{name}^T B {name} = B",
                         Mat3._raw(ring, g.vals[0::3] + g.vals[1::3] + g.vals[2::3]) * form * g
                         == form) for name, g in (("rho_v", rv), ("rho_e", re), ("rho_f", rf)))
    return RelationReport(str(params.x), str(params.y), checks)


@dataclass(frozen=True)
class RelationSurvey:
    """Aggregate of verify_relations over many parameter pairs."""

    ring_spec: str
    pairs_tested: int
    exhaustive: bool
    failures: tuple[tuple[str, str, str], ...]  # (x, y, relation name)

    @property
    def all_passed(self) -> bool:
        return not self.failures


# fixed sampling seed: scan reproducibility outranks statistical variety
SURVEY_SEED = 1729


def survey_relations(ring: Ring, trials: int) -> RelationSurvey:
    """Assert the relations over exhaustive or seeded-random parameter pairs.

    All pairs are checked when the ring has at most ``trials`` squared
    elements; otherwise ``trials`` pairs of codes are drawn with
    ``SURVEY_SEED``, without listing the ring's elements.
    """
    card = ring.cardinality
    exhaustive = card * card <= trials
    if exhaustive:
        pairs = [(x, y) for x in ring.elements() for y in ring.elements()]
    else:
        draw = random.Random(SURVEY_SEED).randrange
        pairs = [(RingElem(ring, draw(card)), RingElem(ring, draw(card)))
                 for _ in range(trials)]
    failures = []
    for x, y in pairs:
        report = verify_relations(PolyhedronParams(x, y))
        for name in report.failures():
            failures.append((report.x, report.y, name))
    return RelationSurvey(ring.spec_string(), len(pairs), exhaustive, tuple(failures))

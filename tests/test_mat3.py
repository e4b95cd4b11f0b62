"""Matrix product, determinant, multiplicative order."""

from __future__ import annotations

import random

import pytest

from polyff.errors import MixedRings, NotInvertible
from polyff.mat3 import Mat3
from polyff.rings import ZMod, ring_make
from polyff.universal import PolyhedronParams, make_rhos

from oracles import IDENT, mat_mul_mod, rotations_mod


def _random_mat(ring, rng):
    pool = list(ring.elements())
    return Mat3(ring, [rng.choice(pool) for _ in range(9)])


def test_identity_law():
    ring = ZMod(5)
    ident = Mat3.identity(ring)
    rng = random.Random(7)
    for _ in range(20):
        a = _random_mat(ring, rng)
        assert ident * a == a and a * ident == a


def test_cube_rotations_compose_to_identity():
    # x = y = 0 over Z/5Z
    ring = ZMod(5)
    rv = Mat3.from_rows(ring, [[1, 1, 1], [0, -1, -1], [0, 1, 0]])
    re = Mat3.from_rows(ring, [[-1, 0, 0], [2, 1, 1], [0, 0, -1]])
    rf = Mat3.from_rows(ring, [[-1, -1, 0], [2, 1, 0], [0, 1, 1]])
    assert rv * re * rf == Mat3.identity(ring)


def test_sigma0_sigma2_commute():
    ring = ZMod(101)
    rng = random.Random(3)
    for _ in range(10):
        x, y = ring.from_int(rng.randrange(101)), ring.from_int(rng.randrange(101))
        one = ring.one
        s0 = Mat3.from_rows(ring, [[-1, 0, 0], [2, 1, 0], [0, 0, 1]])
        s2 = Mat3.from_rows(ring, [[1, 0, 0], [0, 1, one - y], [0, 0, -1]])
        assert s0 * s2 == s2 * s0
        del x


def test_det_identity():
    for spec in ("zmod:12", "gf:7", "gf:2^2"):
        ring = ring_make(spec)
        assert Mat3.identity(ring).det() == ring.one


def test_det_of_generators_over_z7():
    ring = ZMod(7)
    minus_one, one = ring.from_int(-1), ring.one
    for xv in range(7):
        for yv in range(7):
            params = PolyhedronParams(ring.from_int(xv), ring.from_int(yv))
            x = params.x
            s1 = Mat3.from_rows(ring, [[1, one - x, 0], [0, -1, 0], [0, one + x, 1]])
            assert s1.det() == minus_one
            rv, re, rf = make_rhos(params)
            assert rv.det() == one and re.det() == one and rf.det() == one


def test_det_multiplicative():
    rng = random.Random(11)
    for spec in ("zmod:12", "gf:7", "gf:3^2"):
        ring = ring_make(spec)
        for _ in range(15):
            a, b = _random_mat(ring, rng), _random_mat(ring, rng)
            assert (a * b).det() == a.det() * b.det()


def test_order_identity():
    assert Mat3.identity(ZMod(7)).order() == 1


def test_order_rho_f_over_integers():
    # exact integer path: huge modulus exceeds any entry growth in 4 steps
    big = 10**9
    _, _, rf = rotations_mod(0, 0, big)
    sq = mat_mul_mod(rf, rf, big)
    assert sq == tuple(v % big for v in (-1, 0, 0, 0, -1, 0, 2, 2, 1))
    assert mat_mul_mod(sq, sq, big) == IDENT
    # and through the library over a ring large enough not to wrap
    ring = ZMod(big)
    rfm = Mat3(ring, rf)
    assert rfm.order() == 4


def test_order_rho_v_mod2_at_y1():
    ring = ZMod(2)
    params = PolyhedronParams(ring.from_int(0), ring.from_int(1))
    rv, _, _ = make_rhos(params)
    assert rv == Mat3.from_rows(ring, [[1, 1, 0], [0, 1, 0], [0, 1, 1]])
    assert rv.order() == 2


def test_order_requires_invertible():
    with pytest.raises(NotInvertible):
        Mat3(ZMod(4), [2, 0, 0, 0, 1, 0, 0, 0, 1]).order()


def test_mixed_rings_multiplication():
    a = Mat3.identity(ZMod(5))
    b = Mat3.identity(ZMod(7))
    with pytest.raises(MixedRings):
        a * b

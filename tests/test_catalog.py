"""Catalog data, bad primes, finiteness trichotomy, and specialization."""

from __future__ import annotations

import pytest

from polyff.catalog import (
    CATALOG,
    SOLIDS,
    TILINGS,
    TilingClass,
    bad_primes,
    classify_pq,
    platonic_params,
    specialize,
    sqrt5_exists_mod,
)
from polyff.errors import BadPrime, ExtensionDisabled, UnknownName, UnsupportedRing
from polyff.rings import GaloisField, QuadRational, ZMod, reduce_quadrational, ring_make


def test_table_values_exact():
    q = QuadRational
    assert (platonic_params("tetrahedron").x, platonic_params("tetrahedron").y) == \
        (q(1, 0, 2), q(1, 0, 3))
    assert (platonic_params("cube").x, platonic_params("cube").y) == (q(0), q(0))
    assert (platonic_params("octahedron").x, platonic_params("octahedron").y) == \
        (q(1, 0, 2), q(-1, 0, 3))
    assert (platonic_params("dodecahedron").x, platonic_params("dodecahedron").y) == \
        (q(1, -1, 4), q(0, -1, 5))
    assert (platonic_params("icosahedron").x, platonic_params("icosahedron").y) == \
        (q(1, 0, 2), q(0, -1, 3))


def test_tiling_values():
    q = QuadRational
    assert (platonic_params("square_tiling").x, platonic_params("square_tiling").y) == \
        (q(0), q(-1))
    assert (platonic_params("triangular_tiling").x, platonic_params("triangular_tiling").y) == \
        (q(1, 0, 2), q(-1))
    assert (platonic_params("hexagonal_tiling").x, platonic_params("hexagonal_tiling").y) == \
        (q(-1, 0, 2), q(-1))


def test_unknown_name():
    with pytest.raises(UnknownName):
        platonic_params("hosohedron")


def test_expected_pq_ordering():
    # p = rho_v order (faces at a vertex), q = rho_f order (edges of a face)
    assert platonic_params("dodecahedron").expected_pq == (3, 5)
    assert platonic_params("icosahedron").expected_pq == (5, 3)
    assert platonic_params("triangular_tiling").expected_pq == (6, 3)


@pytest.mark.parametrize("p, q, cls", [
    (3, 5, TilingClass.SPHERICAL),
    (5, 3, TilingClass.SPHERICAL),
    (3, 3, TilingClass.SPHERICAL),
    (4, 4, TilingClass.EUCLIDEAN),
    (3, 6, TilingClass.EUCLIDEAN),
    (6, 3, TilingClass.EUCLIDEAN),
    (3, 7, TilingClass.HYPERBOLIC),
    (7, 3, TilingClass.HYPERBOLIC),
    (5, 4, TilingClass.HYPERBOLIC),
])
def test_classify_pq(p, q, cls):
    assert classify_pq(p, q) is cls


def test_catalog_classifications():
    for name in SOLIDS:
        assert classify_pq(*CATALOG[name].expected_pq) is TilingClass.SPHERICAL
    for name in TILINGS:
        assert classify_pq(*CATALOG[name].expected_pq) is TilingClass.EUCLIDEAN


# ---------------------------------------------------------------------------
# bad primes

EXPECTED_COMPUTED = {
    "tetrahedron": {2, 3},
    "cube": set(),
    "octahedron": {2, 3},
    "dodecahedron": {2, 5},
    "icosahedron": {2, 3},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_COMPUTED))
def test_bad_primes_computed(name):
    assert bad_primes(name).computed == EXPECTED_COMPUTED[name]


def test_bad_primes_discrepancies():
    # the stored classical lists disagree with the denominator rule for the
    # two sqrt5 solids; reports carry both sets
    assert not bad_primes("tetrahedron").discrepancy
    assert not bad_primes("cube").discrepancy
    assert not bad_primes("octahedron").discrepancy
    dodeca = bad_primes("dodecahedron")
    assert dodeca.published == {2, 3, 5} and dodeca.discrepancy
    icosa = bad_primes("icosahedron")
    assert icosa.published == {2, 5} and icosa.discrepancy


def test_needs_extension_annotation():
    assert bad_primes("icosahedron").needs_extension == {7, 13, 17, 23}
    assert bad_primes("dodecahedron").needs_extension == {3, 7, 13, 17, 23}
    assert bad_primes("cube").needs_extension == set()


def test_sqrt5_quadratic_residues():
    # 5 is a square mod p exactly when p = 2, 5 or p = +-1 mod 5
    assert [p for p in (2, 3, 5, 7, 11, 13, 19, 29, 31) if sqrt5_exists_mod(p)] == \
        [2, 5, 11, 19, 29, 31]


# ---------------------------------------------------------------------------
# specialization

def test_specialize_icosahedron_gf11_stays():
    ring = ring_make("gf:11")
    params, used = specialize("icosahedron", ring)
    assert used is ring
    assert params.x == ring.from_int(6)
    assert params.y == ring.from_int(6)  # -4 * inv(3) = -16 = 6 mod 11


def test_specialize_icosahedron_gf7_auto_extends():
    params, used = specialize("icosahedron", ring_make("gf:7"), auto_extend=True)
    assert isinstance(used, GaloisField)
    assert used.cardinality == 49
    assert used.ext_poly == (2, 0, 1)  # t^2 - 5 over F_7
    assert params.x == used.from_int(4)  # 1/2 mod 7
    root = used.parse_elem("t")
    assert root * root == used.from_int(5)


def test_specialize_without_extension_raises():
    with pytest.raises(ExtensionDisabled):
        specialize("icosahedron", ring_make("gf:7"))


def test_specialize_bad_primes():
    with pytest.raises(BadPrime) as info:
        specialize("tetrahedron", ring_make("gf:3"))
    assert info.value.primes == {3} and info.value.param == "y"
    with pytest.raises(BadPrime) as info:
        specialize("tetrahedron", ring_make("gf:2"))
    assert info.value.primes == {2} and info.value.param == "x"
    with pytest.raises(BadPrime) as info:
        specialize("dodecahedron", ring_make("gf:2"))
    assert info.value.primes == {2} and info.value.param == "x"
    with pytest.raises(BadPrime) as info:
        specialize("dodecahedron", ring_make("gf:5"))
    assert info.value.primes == {5} and info.value.param == "y"


def test_specialize_over_composite_modulus():
    params, used = specialize("square_tiling", ZMod(6))
    assert used.cardinality == 6
    assert str(params.x) == "0" and str(params.y) == "5"
    with pytest.raises(BadPrime) as info:
        specialize("triangular_tiling", ZMod(6))
    assert info.value.primes == {2}
    # the offending primes come from the denominators, not from factoring n
    with pytest.raises(BadPrime) as info:
        specialize("tetrahedron", ZMod(2**20))
    assert (info.value.primes, info.value.param) == ({2}, "x")


def test_specialize_sqrt_over_composite_rejected():
    # denominators invertible mod 49, but sqrt5 parameters need a field
    with pytest.raises(UnsupportedRing):
        specialize("icosahedron", ZMod(49), auto_extend=True)
    # auto-extension is defined from prime fields only
    with pytest.raises(UnsupportedRing):
        specialize("icosahedron", GaloisField(7, 3), auto_extend=True)


def test_specialize_idempotent_in_returned_ring():
    for name in ("icosahedron", "dodecahedron"):
        entry = platonic_params(name)
        params, used = specialize(entry, ring_make("gf:13"), auto_extend=True)
        assert reduce_quadrational(entry.x, used) == params.x
        assert reduce_quadrational(entry.y, used) == params.y


PLATONIC_MAPS = {
    "tetrahedron": (3, 3, 4, 6, 4, "A4"),
    "cube": (3, 4, 8, 12, 6, "S4"),
    "octahedron": (4, 3, 6, 12, 8, "S4"),
    "dodecahedron": (3, 5, 20, 30, 12, "A5"),
    "icosahedron": (5, 3, 12, 30, 20, "A5"),
}


def test_every_good_prime_up_to_31_reproduces_the_solid():
    # the one exception: the cube collapses to S3 over GF(2)
    from polyff.cli import run_pipeline
    from polyff.rings import is_prime

    for name, expected in PLATONIC_MAPS.items():
        computed_bad = bad_primes(name).computed
        for p in (q for q in range(2, 32) if is_prime(q)):
            if p in computed_bad:
                continue
            params, _ = specialize(name, ring_make(f"gf:{p}"), auto_extend=True)
            _, report = run_pipeline(params)
            got = (report.p, report.q, report.V, report.E, report.F, report.recognized)
            if name == "cube" and p == 2:
                assert got == (3, 2, 2, 3, 3, "S3")
            else:
                assert got == expected, (name, p)
            assert report.genus == 0


@pytest.mark.parametrize("p", [983, 997, 1009, 1021, 1_000_039])
def test_large_primes_of_each_class_mod_5_reproduce_the_solids(p):
    # p = 983, 997 are 3, 2 mod 5 (sqrt5 lies in GF(p^2), below the search
    # cap); 1009, 1021 and 1,000,039 are 4, 1, 4 mod 5 (sqrt5 lies in GF(p))
    from polyff.cli import run_pipeline

    for name, expected in PLATONIC_MAPS.items():
        params, ring = specialize(name, ring_make(f"gf:{p}"), auto_extend=True)
        entry = platonic_params(name)
        extends = (entry.x.b or entry.y.b) and p % 5 in (2, 3)
        assert ring.cardinality == (p * p if extends else p)
        _, report = run_pipeline(params)
        got = (report.p, report.q, report.V, report.E, report.F, report.recognized)
        assert got == expected, (name, p)
        assert report.genus == 0

"""Ring construction, exact arithmetic, square roots, parameter reduction."""

from __future__ import annotations

import itertools
import math
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyff import rings
from polyff.errors import (
    MixedRings,
    ModulusTooSmall,
    NonInvertibleDenominator,
    NonPrimeCharacteristic,
    NotAUnit,
    ReduciblePolynomial,
    RingSpecError,
    SqrtNotInRing,
    UnsupportedRing,
)
from polyff.mat3 import Mat3
from polyff.rings import (
    GaloisField,
    QuadRational,
    _ExtensionField,
    _QuadraticField,
    _TableField,
    RingElem,
    ZMod,
    reduce_quadrational,
    ring_make,
    sqrt_in_field,
)

from oracles import (TupleField, mat_mul_mod, search_sqrt, trial_division_factor,
                     trial_division_irreducible, trial_division_prime)

RINGS = [
    ZMod(12),
    ZMod(7),
    GaloisField(2),
    GaloisField(5),
    GaloisField(2, 2),
    GaloisField(3, 2),
    GaloisField(7, 2, (2, 0, 1)),  # t^2 - 5 over F_7
]
_ELEMENTS = {r.spec_string(): list(r.elements()) for r in RINGS}


# ---------------------------------------------------------------------------
# construction

def test_ring_make_zmod():
    r = ring_make("zmod:12")
    assert isinstance(r, ZMod)
    assert r.cardinality == 12
    assert r.spec_string() == "zmod:12"


def test_ring_make_prime_field():
    r = ring_make("gf:7")
    assert isinstance(r, GaloisField)
    assert r.cardinality == 7
    assert r.ext_poly == (0, 1)  # degree-1 convention: quotient by t
    assert r.spec_string() == "gf:7"


def test_ring_make_gf4_finds_unique_irreducible():
    r = ring_make("gf:2^2")
    assert r.cardinality == 4
    assert r.ext_poly == (1, 1, 1)  # t^2 + t + 1
    assert r.spec_string() == "gf:2^2:t^2+t+1"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_find_irreducible_keeps_the_candidate_order(k):
    # the chosen polynomial names the field in spec strings and fixes its codes,
    # so it must stay the first in the order of itertools.product, constant term last
    def first_by_product(p):
        for lower in itertools.product(range(p), repeat=k):
            m = tuple(reversed(lower)) + (1,)
            if rings._poly_is_irreducible(m, p):
                return m
    for p in filter(rings.is_prime, range(2, 102)):
        assert rings._find_irreducible(p, k) == first_by_product(p), p


@pytest.mark.parametrize("p, k", [(1_000_000_007, 3), (1_000_000_007, 4), (10**18 + 3, 4)])
def test_find_irreducible_skips_binomials_over_a_large_prime(p, k):
    # k does not divide p - 1, so no binomial t^k + c is irreducible (Lidl & Niederreiter,
    # Theorem 3.75): the answer is the first irreducible among the candidates after them
    assert (p - 1) % k
    assert not any(rings._poly_is_irreducible((c,) + (0,) * (k - 1) + (1,), p)
                   for c in range(50))
    m = rings._find_irreducible(p, k)
    index = sum(c * p**j for j, c in enumerate(m[:k]))
    assert p <= index < p + 100
    for i in range(p, index):
        assert not rings._poly_is_irreducible((i - p, 1) + (0,) * (k - 2) + (1,), p)


def test_ring_make_explicit_poly():
    r = ring_make("gf:7^2:t^2+2")
    assert r.ext_poly == (2, 0, 1)
    assert r == GaloisField(7, 2, (-5, 0, 1))


@pytest.mark.parametrize("spec, exc", [
    ("zmod:1", ModulusTooSmall),
    ("zmod:0", ModulusTooSmall),
    ("gf:6", NonPrimeCharacteristic),
    ("gf:4", NonPrimeCharacteristic),
    ("gf:2^2:t^2+1", ReduciblePolynomial),  # (t+1)^2 over F_2
    ("gf:3^4:t^4+2t^2+1", ReduciblePolynomial),  # (t^2+1)^2 over F_3: no root
    ("gf:2^2:t+1", RingSpecError),  # degree mismatch
    ("nonsense", RingSpecError),
    ("zmod:x", RingSpecError),
])
def test_ring_make_rejects(spec, exc):
    with pytest.raises(exc):
        ring_make(spec)


def test_is_prime_matches_trial_division():
    # trial division by the primes 2 .. 41 below 43**2, Miller-Rabin from there on
    for n in itertools.chain(range(20_000), range(10**10 - 100, 10**10 + 200)):
        assert rings.is_prime(n) == trial_division_prime(n), n


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, a strong pseudoprime to the prime bases 2 .. 23, and
    # one to the bases 2 .. 37, which only base 41 rejects
    for n in (561, 41041, 3_825_123_056_546_413_051, 99_991 * 100_003, 100_003**2,
              318_665_857_834_031_151_167_461):
        assert not rings.is_prime(n), n


def test_is_prime_is_fast_on_large_moduli():
    start = time.perf_counter()
    assert ring_make("zmod:1000000000000000003").is_field
    assert not ring_make("zmod:1000000000000000001").is_field
    assert time.perf_counter() - start < 1.0


def test_is_prime_refuses_moduli_past_the_proven_bound():
    # passes Miller-Rabin to the bases 2 .. 41 above the bound where that is a proof;
    # confirming it by trial division would take about 10^12 steps
    n = 10_000_000_000_000_000_000_000_013
    assert n > rings.MILLER_RABIN_PROOF_BOUND
    start = time.perf_counter()
    with pytest.raises(UnsupportedRing, match="3,317,044,064,679,887,385,961,981"):
        ZMod(n)
    with pytest.raises(UnsupportedRing, match="cannot prove"):
        ring_make(f"gf:{n}")
    assert not rings.is_prime(n + 2)  # a composite still fails the test
    assert time.perf_counter() - start < 1.0


def test_factor_matches_trial_division():
    # past 127^2 some cofactors are products of two primes >= 131, which Pollard's rho splits
    for n in range(1, 20_001):
        assert rings._factor(n) == trial_division_factor(n), n


def test_factor_splits_large_composites():
    assert rings._factor(1) == {}
    assert rings._factor(2**80) == {2: 80}
    assert rings._factor(10_007**2 * 1_000_003) == {10_007: 2, 1_000_003: 1}
    p, q = 1_000_000_007, 1_000_000_009
    assert list(rings._factor(6 * q * p).items()) == [(2, 1), (3, 1), (p, 1), (q, 1)]


def test_cyclic_counts_match_brute_force_totient():
    phi = [0] + [sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(1, 2001)]
    for n in range(1, 2001):
        counts = rings._cyclic_counts(rings._factor(n))
        assert counts == [(d, phi[d]) for d in range(1, n + 1) if n % d == 0], n
        assert sum(c for _, c in counts) == n


def test_irreducibility_matches_trial_division():
    for p in (2, 3, 5, 7):
        for k in range(1, 5):
            if p**k > 2500:
                continue
            for lower in itertools.product(range(p), repeat=k):
                m = lower + (1,)
                assert rings._poly_is_irreducible(m, p) == trial_division_irreducible(m, p), m
    for p in filter(rings.is_prime, range(2000)):
        m = (-5 % p, 0, 1)
        assert rings._poly_is_irreducible(m, p) == trial_division_irreducible(m, p), p


def test_irreducibility_cost_follows_log_p(monkeypatch):
    calls = 0
    poly_mod = rings._poly_mod

    def counted(*args):
        nonlocal calls
        calls += 1
        return poly_mod(*args)

    monkeypatch.setattr(rings, "_poly_mod", counted)
    GaloisField(1913, 2, (-5 % 1913, 0, 1))
    # a search over the 1913 monic linear divisors would make one call each
    assert calls < 100


def test_gf_degree_cap():
    with pytest.raises(UnsupportedRing):
        GaloisField(2, 5)


def test_ring_equality():
    assert ring_make("gf:2^2") == GaloisField(2, 2, (1, 1, 1))
    assert ring_make("zmod:7") != ring_make("gf:7")


def test_rings_survive_pickling():
    # one ring above TABLE_FIELD_BOUND for each class the constructor picks there
    for ring in RINGS + [ring_make("gf:11^2"), ring_make("gf:5^3")]:
        copy = pickle.loads(pickle.dumps(ring))
        assert copy == ring and type(copy) is type(ring)
        assert copy.one + copy.one == copy.from_int(2)


def test_ring_spec_round_trip():
    for spec in ("zmod:12", "gf:7", "gf:2^2:t^2+t+1", "gf:7^2:t^2+2"):
        ring = ring_make(spec)
        assert ring_make(ring.spec_string()) == ring


# ---------------------------------------------------------------------------
# element arithmetic

def test_inv_in_prime_field():
    r = ring_make("gf:7")
    assert r.from_int(3).inv() == r.from_int(5)


def test_inv_of_zero_divisor():
    r = ring_make("zmod:4")
    with pytest.raises(NotAUnit):
        r.from_int(2).inv()


def test_gf4_squaring():
    r = ring_make("gf:2^2")
    t_plus_1 = r.parse_elem("t+1")
    assert t_plus_1 * t_plus_1 == r.parse_elem("t")


def test_mixed_rings_rejected():
    a = ring_make("zmod:7").from_int(1)
    b = ring_make("gf:7").from_int(1)
    with pytest.raises(MixedRings):
        a + b


def test_element_printing():
    gf8 = GaloisField(2, 3)
    elems = {str(e) for e in gf8.elements()}
    assert "t^2+t+1" in elems and "0" in elems and "t" in elems
    assert str(ring_make("zmod:12").from_int(-1)) == "11"


@settings(max_examples=150)
@given(st.data())
def test_unit_inverse_property(data):
    ring = data.draw(st.sampled_from(RINGS))
    elem = data.draw(st.sampled_from(_ELEMENTS[ring.spec_string()]))
    if elem.is_unit:
        assert elem.inv() * elem == ring.one
    else:
        with pytest.raises(NotAUnit):
            elem.inv()


@settings(max_examples=150)
@given(st.data())
def test_parse_format_round_trip(data):
    ring = data.draw(st.sampled_from(RINGS))
    elem = data.draw(st.sampled_from(_ELEMENTS[ring.spec_string()]))
    assert ring.parse_elem(str(elem)) == elem


@settings(max_examples=100)
@given(st.data())
def test_ring_axioms_spot_check(data):
    ring = data.draw(st.sampled_from(RINGS))
    pool = _ELEMENTS[ring.spec_string()]
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    c = data.draw(st.sampled_from(pool))
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + (-a) == ring.zero


@pytest.mark.parametrize("spec, cls", [
    # every pair, through the q x q tables
    ("gf:2^2", _TableField), ("gf:2^3", _TableField), ("gf:3^2", _TableField),
    ("gf:7^2", _TableField),
    # 2,000 seeded pairs and the all-(p-1) element, through two-digit products;
    # t^2 = -t - 1 is the one reduction here with a t term (-3 is not a square mod 101)
    ("gf:43^2", _QuadraticField), ("gf:503^2:t^2+498", _QuadraticField),
    ("gf:101^2:t^2+t+1", _QuadraticField),
    # the same, through Kronecker-packed polynomial products
    ("gf:5^3", _ExtensionField), ("gf:3^4", _ExtensionField),
])
def test_extension_arithmetic_matches_tuple_oracle(spec, cls):
    ring = ring_make(spec)
    oracle = TupleField(ring.modulus, ring.ext_poly)
    q = ring.cardinality
    rng = random.Random(spec)
    if cls is _TableField:
        assert [oracle.from_code(u) for u in range(q)] == list(oracle.tuples())
        pairs = [(u, v) for u in range(q) for v in range(q)]
    else:
        # q - 1 has every coefficient p - 1: the largest unreduced sums
        pairs = [(q - 1, q - 1)] + [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    tup, code = oracle.from_code, oracle.to_code

    def mat(codes):
        return Mat3(ring, [RingElem(ring, c) for c in codes])

    for u, v in pairs:
        x, y = RingElem(ring, u), RingElem(ring, v)
        assert (x + y).val == code(oracle.add(tup(u), tup(v)))
        assert (x - y).val == code(oracle.sub(tup(u), tup(v)))
        assert (x * y).val == code(oracle.mul(tup(u), tup(v)))
        a = (u, v) + tuple(rng.randrange(q) for _ in range(7))
        b = (v, u) + tuple(rng.randrange(q) for _ in range(7))
        expected = oracle.mat_mul([tup(c) for c in a], [tup(c) for c in b])
        assert (mat(a) * mat(b)).vals == tuple(code(e) for e in expected)
    top = (q - 1,) * 9
    expected = oracle.mat_mul([tup(c) for c in top], [tup(c) for c in top])
    assert (mat(top) * mat(top)).vals == tuple(code(e) for e in expected)
    for u in {u for u, _ in pairs}:
        x = RingElem(ring, u)
        assert (-x).val == code(oracle.neg(tup(u)))
        if u:
            assert x.inv().val == code(oracle.inv(tup(u)))
    assert type(ring) is cls


@pytest.mark.parametrize("spec", ["gf:2^2", "gf:2^3", "gf:2^4", "gf:3^2", "gf:3^3",
                                  "gf:5^2", "gf:7^2"])
def test_table_field_tables_match_coefficient_arithmetic(spec):
    # the tables come from digit sums and powers of a primitive code; the
    # coefficient operations they replace stay the reference
    ring = ring_make(spec)
    assert type(ring) is _TableField
    q = range(ring.cardinality)
    assert ring._add_rows == [[_ExtensionField._add(ring, u, v) for v in q] for u in q]
    assert ring._mul_rows == [[_ExtensionField._mul(ring, u, v) for v in q] for u in q]
    assert ring._negs == [_ExtensionField._neg(ring, u) for u in q]


@pytest.mark.parametrize("spec, cls", [
    ("zmod:12", ZMod), ("gf:7", GaloisField), ("gf:2^3", _TableField),
    ("gf:101^2", _QuadraticField), ("gf:5^3", _ExtensionField),
])
def test_pow_matches_repeated_mul(spec, cls):
    # the one square-and-multiply on codes, against n-fold products, n = 0 .. 2q
    ring = ring_make(spec)
    assert type(ring) is cls
    q = ring.cardinality
    for u in (0, 1, q - 1, random.Random(spec).randrange(q)):
        power = ring._from_int(1)
        for n in range(2 * q + 1):
            assert ring._pow(u, n) == power, (u, n)
            power = ring._mul(power, u)


@pytest.mark.parametrize("spec, cls", [
    ("zmod:15", ZMod), ("gf:7", GaloisField), ("gf:2^3", _TableField), ("gf:7^2", _TableField),
    ("gf:997^2", _QuadraticField), ("gf:3^4", _ExtensionField),
])
def test_rows_mul_matches_oracle(spec, cls):
    # each ring's one product kernel, on batches of every small size and one
    # large one, against the triple-loop product of the oracles
    ring = ring_make(spec)
    assert type(ring) is cls
    q = ring.cardinality
    if cls in (ZMod, GaloisField):
        def oracle(a, b):
            return mat_mul_mod(a, b, q)
    else:
        field = TupleField(ring.modulus, ring.ext_poly)

        def oracle(a, b):
            tup = field.from_code
            product = field.mat_mul([tup(c) for c in a], [tup(c) for c in b])
            return tuple(map(field.to_code, product))
    rng = random.Random(spec)
    # q - 1 in every entry gives the largest unreduced sums
    top = (q - 1,) * 9
    for n in (0, 1, 2, 3, 4, 200):
        rows = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n)]
        if rows:
            rows[0] = top[:3]
        for b in (tuple(rng.randrange(q) for _ in range(9)), top):
            # a row times b is the first row of the matrix with that row and two zero rows
            expected = [oracle(row + (0,) * 6, b)[:3] for row in rows]
            assert ring._rows_mul(rows, b) == expected
    for _ in range(20):
        a, b = (tuple(rng.randrange(q) for _ in range(9)) for _ in range(2))
        assert (Mat3._raw(ring, a) * Mat3._raw(ring, b)).vals == oracle(a, b)


def test_racing_table_builds_give_equal_products():
    # rings are immutable once built, so threads may share one and read its tables at once
    workers = 8
    ring, reference = ring_make("gf:7^2"), ring_make("gf:7^2")
    rng = random.Random(3)
    jobs = [([tuple(rng.randrange(49) for _ in range(3)) for _ in range(5)],
             tuple(rng.randrange(49) for _ in range(9))) for _ in range(workers)]
    start = threading.Barrier(workers, timeout=30)

    def first_product(job):
        start.wait()
        return ring._rows_mul(*job)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(first_product, jobs, timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert results == [reference._rows_mul(*job) for job in jobs]
    assert ring._rows_mul(*jobs[0]) == results[0]


# ---------------------------------------------------------------------------
# square roots

def test_sqrt5_in_gf11_smallest_root():
    r = ring_make("gf:11")
    root = sqrt_in_field(r.from_int(5))
    assert root == r.from_int(4)  # 4^2 = 16 = 5; the other root is 7


def test_sqrt5_absent_in_gf7():
    r = ring_make("gf:7")
    assert sqrt_in_field(r.from_int(5)) is None


@pytest.mark.parametrize("spec", ["gf:7", "gf:2^2", "zmod:5"])
def test_sqrt_of_zero(spec):
    r = ring_make(spec)
    assert sqrt_in_field(r.zero) == r.zero


def test_sqrt_squares_back():
    for spec in ("gf:13", "gf:3^2", "gf:2^2"):
        r = ring_make(spec)
        for d in r.elements():
            root = sqrt_in_field(d)
            if root is not None:
                assert root * root == d


def test_sqrt_rejects_composite_zmod():
    with pytest.raises(UnsupportedRing):
        sqrt_in_field(ZMod(12).from_int(1))


@pytest.mark.parametrize("p", [3, 5, 17, 41, 73, 97, 113])
def test_prime_field_sqrt_matches_search(p):
    # 17, 41, 73, 97 and 113 are 1 mod 8, so Tonelli-Shanks' inner loop runs
    for ring in (ZMod(p), GaloisField(p)):
        for d in ring.elements():
            root = sqrt_in_field(d)
            assert (None if root is None else root.val) == search_sqrt(d), (ring, d)


def test_sqrt5_matches_search_below_2000():
    for p in range(2, 2000):
        if rings.is_prime(p):
            five = GaloisField(p).from_int(5)
            root = sqrt_in_field(five)
            assert (None if root is None else root.val) == search_sqrt(five), p


def test_sqrt_search_cap():
    huge = GaloisField(1009, 2)  # q = 1,018,081: an extension field past the search cap
    with pytest.raises(UnsupportedRing, match="capped at cardinality 1000000"):
        sqrt_in_field(huge.from_int(2))


@pytest.mark.parametrize("ring", [ZMod(1_000_003), GaloisField(1_000_039), GaloisField(1_000_033)],
                         ids=repr)
def test_prime_field_sqrt_past_the_search_cap(ring):
    # 1,000,033 is 1 mod 8, so Tonelli-Shanks' inner loop runs
    p = ring.modulus
    rng = random.Random(p)
    for r in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(50)]:
        root = sqrt_in_field(ring.from_int(r * r))
        assert root * root == ring.from_int(r * r)
        assert root.val == min(r, p - r)
    # -1 is not a square modulo a prime that is 3 mod 4, and 5 is not a
    # square modulo a prime that is 2 or 3 mod 5, as 1,000,033 is
    non_residue = 5 if p % 4 == 1 else p - 1
    assert sqrt_in_field(ring.from_int(non_residue)) is None


# ---------------------------------------------------------------------------
# QuadRational and reduction

def test_quadrational_normalization():
    q = QuadRational(2, 0, 4)
    assert (q.a, q.b, q.c) == (1, 0, 2)
    q = QuadRational(1, -1, -4)
    assert (q.a, q.b, q.c) == (-1, 1, 4)
    assert QuadRational(0, 0, 7) == QuadRational(0)


def test_quadrational_str():
    assert str(QuadRational(1, 0, 2)) == "1/2"
    assert str(QuadRational(1, -1, 4)) == "(1-sqrt5)/4"
    assert str(QuadRational(0, -1, 3)) == "-sqrt5/3"
    assert str(QuadRational(0)) == "0"


def test_reduce_half_over_gf5():
    assert reduce_quadrational(QuadRational(1, 0, 2), ring_make("gf:5")) == \
        ring_make("gf:5").from_int(3)


def test_reduce_golden_entry_over_gf11():
    r = ring_make("gf:11")
    assert reduce_quadrational(QuadRational(1, -1, 4), r) == r.from_int(2)


def test_reduce_third_over_gf3():
    with pytest.raises(NonInvertibleDenominator):
        reduce_quadrational(QuadRational(1, 0, 3), ring_make("gf:3"))


def test_reduce_sqrt_needs_extension():
    with pytest.raises(SqrtNotInRing):
        reduce_quadrational(QuadRational(0, 1, 1), ring_make("gf:7"))
    r = ring_make("gf:7^2:t^2+2")
    root = reduce_quadrational(QuadRational(0, 1, 1), r)
    assert root * root == r.from_int(5)


def test_reduce_sqrt_over_composite_rejected():
    with pytest.raises(UnsupportedRing):
        reduce_quadrational(QuadRational(0, 1, 1), ZMod(12))


_SMALL_QUADS = st.builds(
    QuadRational,
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6),
)


@settings(max_examples=150)
@given(_SMALL_QUADS, _SMALL_QUADS, st.sampled_from(["gf:11", "gf:19", "gf:2^2", "zmod:29"]))
def test_reduction_is_ring_homomorphism(q1, q2, spec):
    ring = ring_make(spec)

    def try_reduce(q):
        try:
            return reduce_quadrational(q, ring)
        except (NonInvertibleDenominator, SqrtNotInRing):
            return None

    r1, r2 = try_reduce(q1), try_reduce(q2)
    rs, rp = try_reduce(q1 + q2), try_reduce(q1 * q2)
    if r1 is not None and r2 is not None:
        if rs is not None:
            assert rs == r1 + r2
        if rp is not None:
            assert rp == r1 * r2


def test_denominator_primes():
    assert QuadRational(1, 0, 12).denominator_primes() == {2, 3}
    assert QuadRational(0, -1, 5).denominator_primes() == {5}
    assert QuadRational(3).denominator_primes() == set()

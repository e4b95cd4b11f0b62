"""Generator matrices and the defining relations, across rings and parameters."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from polyff import universal
from polyff.errors import MixedRings
from polyff.mat3 import Mat3
from polyff.rings import ZMod, ring_make
from polyff.universal import (
    GeneratorSet,
    PolyhedronParams,
    make_rhos,
    make_sigmas,
    survey_relations,
    verify_relations,
)

from oracles import invariant_form, mat_mul_mod, reference_rhos, transpose

TEST_RINGS = ["zmod:2", "zmod:12", "gf:2", "gf:3", "gf:5", "gf:7^2:t^2+2", "gf:101"]


def _params(ring, x, y):
    return PolyhedronParams(ring.elem(x), ring.elem(y))


def _sample_params(spec, count, seed=5):
    ring = ring_make(spec)
    pool = list(ring.elements())
    rng = random.Random(seed)
    if len(pool) ** 2 <= count:
        return [(PolyhedronParams(x, y)) for x in pool for y in pool]
    return [PolyhedronParams(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


def test_sigma0_independent_of_parameters():
    ring = ZMod(101)
    expected = Mat3.from_rows(ring, [[-1, 0, 0], [2, 1, 0], [0, 0, 1]])
    for params in _sample_params("zmod:101", 10):
        s0, _, _ = make_sigmas(params)
        assert s0 == expected


def test_sigma1_at_x_zero():
    ring = ZMod(7)
    s0, s1, s2 = make_sigmas(_params(ring, 0, 3))
    assert s1 == Mat3.from_rows(ring, [[1, 1, 0], [0, -1, 0], [0, 1, 1]])


def test_sigma2_at_y_one():
    ring = ZMod(7)
    _, _, s2 = make_sigmas(_params(ring, 2, 1))
    assert s2 == Mat3.from_rows(ring, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_rhos_at_square_tiling_parameters():
    ring = ZMod(101)
    rv, re, rf = make_rhos(_params(ring, 0, -1))
    assert rv == Mat3.from_rows(ring, [[1, 1, 2], [0, -1, -2], [0, 1, 1]])
    assert rf == Mat3.from_rows(ring, [[-1, -1, 0], [2, 1, 0], [0, 1, 1]])
    assert re == Mat3.from_rows(ring, [[-1, 0, 0], [2, 1, 2], [0, 0, -1]])


@pytest.mark.parametrize("spec", ["zmod:6", "gf:5", "gf:2^3", "gf:3^2"])
def test_rhos_match_element_arithmetic(spec):
    ring = ring_make(spec)
    for x in ring.elements():
        for y in ring.elements():
            params = PolyhedronParams(x, y)
            rhos = make_rhos(params)
            assert all(m.ring is ring for m in rhos)
            assert [m.vals for m in rhos] == reference_rhos(params), (x, y)


def test_rho_v_at_cube_parameters():
    ring = ZMod(101)
    rv, _, _ = make_rhos(_params(ring, 0, 0))
    assert rv == Mat3.from_rows(ring, [[1, 1, 1], [0, -1, -1], [0, 1, 0]])


@pytest.mark.parametrize("spec", TEST_RINGS)
def test_rho_e_is_involution(spec):
    for params in _sample_params(spec, 20):
        _, re, _ = make_rhos(params)
        assert re * re == Mat3.identity(params.ring)


def test_relations_at_cube_over_z101():
    report = verify_relations(_params(ZMod(101), 0, 0))
    assert report.all_passed, report.failures()


def test_relations_random_over_gf49():
    for params in _sample_params("gf:7^2:t^2+2", 25):
        assert verify_relations(params).all_passed


def test_relations_exhaustive_over_z2():
    for params in _sample_params("zmod:2", 10**9):
        assert verify_relations(params).all_passed


def test_relations_check_the_invariant_form_where_it_exists(monkeypatch):
    ring = ring_make("gf:7")
    names = [f"{g}^T B {g} = B" for g in ("rho_v", "rho_e", "rho_f")]
    # x or y = +-1 makes det B = 0: no form, so no check
    for x, y, checked in ((2, 3, names), (0, 0, names), (1, 3, []), (2, 6, [])):
        report = verify_relations(_params(ring, x, y))
        assert report.all_passed and [n for n, _ in report.checks[9:]] == checked, (x, y)
    # a form the rotations do not preserve fails all three checks
    monkeypatch.setattr(universal, "invariant_form", lambda params: Mat3.identity(params.ring))
    assert verify_relations(_params(ring, 2, 3)).failures() == names


@pytest.mark.parametrize("spec", TEST_RINGS)
def test_factorizations_match_explicit_rhos(spec):
    for params in _sample_params(spec, 15):
        s0, s1, s2 = make_sigmas(params)
        rv, re, rf = make_rhos(params)
        assert rv == s1 * s2
        assert re == s0 * s2
        assert rf == s0 * s1


@pytest.mark.parametrize("n", [5, 7, 9, 15])
def test_rotations_preserve_the_invariant_form(n):
    ring = ZMod(n)
    for x in range(n):
        for y in range(n):
            form = invariant_form(x, y, n)
            for g in make_rhos(_params(ring, x, y)):
                assert mat_mul_mod(mat_mul_mod(transpose(g.vals), form, n), g.vals, n) == form, \
                    (n, x, y)


@pytest.mark.parametrize("spec", TEST_RINGS)
def test_generator_determinants(spec):
    for params in _sample_params(spec, 15):
        ring = params.ring
        minus_one, one = ring.from_int(-1), ring.one
        for s in make_sigmas(params):
            assert s.det() == minus_one
        for r in make_rhos(params):
            assert r.det() == one


def test_generator_set_bundles_consistently():
    params = _params(ZMod(5), 0, 0)
    gens = GeneratorSet.from_params(params)
    s0, s1, s2 = make_sigmas(params)
    # make_rhos returns (rho_v, rho_e, rho_f) in this order
    assert make_rhos(params) == (s1 * s2, s0 * s2, s0 * s1)
    assert make_rhos(params) == (gens.rho_v, gens.rho_e, gens.rho_f)


def test_params_require_one_ring():
    with pytest.raises(MixedRings):
        PolyhedronParams(ZMod(5).from_int(1), ZMod(7).from_int(1))


def test_survey_exhaustive_over_zmod12():
    survey = survey_relations(ring_make("zmod:12"), trials=144)
    assert survey.exhaustive and survey.pairs_tested == 144
    assert survey.all_passed


def test_survey_sampled_over_gf101():
    survey = survey_relations(ring_make("gf:101"), trials=50)
    assert not survey.exhaustive and survey.pairs_tested == 50
    assert survey.all_passed


def test_survey_is_deterministic():
    a = survey_relations(ring_make("gf:101"), trials=30)
    b = survey_relations(ring_make("gf:101"), trials=30)
    assert a == b


def test_sampled_survey_does_not_list_the_ring():
    # a million-element field: the sampled pairs must not cost O(|R|) memory
    ring = ring_make("gf:1000003")
    tracemalloc.start()
    try:
        survey = survey_relations(ring, trials=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert survey.pairs_tested == 5 and survey.all_passed
    assert peak < 2**20

"""Map reconstruction: counts, genus, dart permutations, map equivalence."""

from __future__ import annotations

from fractions import Fraction

import pytest

from polyff.errors import InvariantViolation
from polyff.groupgen import GeneratedGroup, GroupFingerprint, dihedral_spectrum, generate
from polyff.regmap import (
    DartModel,
    _map_report,
    analyze,
    dart_model,
    genus_formula,
    maps_equivalent,
)
from polyff.rings import ring_make
from polyff.universal import PolyhedronParams, make_rhos

from oracles import reference_equivalent, run_map_oracle


def _run(spec, x, y, **kw):
    ring = ring_make(spec)
    params = PolyhedronParams(ring.elem(x), ring.elem(y))
    group = generate(list(make_rhos(params)), **kw)
    return group, analyze(group)


# ---------------------------------------------------------------------------
# genus formula

@pytest.mark.parametrize("p, q, E, g", [
    (3, 4, 12, 0),   # cube
    (5, 3, 30, 0),   # icosahedron
    (3, 3, 6, 0),    # tetrahedron
    (4, 4, 8, 1),
    (4, 4, 18, 1),   # any E: the bracket vanishes
    (3, 7, 42, 2),
])
def test_genus_formula(p, q, E, g):
    assert genus_formula(p, q, E) == g


def test_genus_formula_fractional():
    # 13 edges: bracket is -1/6, so 2g - 2 = -13/6 and g = -1/12
    assert genus_formula(3, 4, 13) == Fraction(-1, 12)


def test_genus_formula_rejects_bad_arguments():
    with pytest.raises(ValueError):
        genus_formula(1, 4, 12)


# ---------------------------------------------------------------------------
# analyze

def test_cube_over_gf5_report():
    _, report = _run("gf:5", 0, 0)
    assert (report.p, report.q, report.e_order) == (3, 4, 2)
    assert (report.V, report.E, report.F) == (8, 12, 6)
    assert report.genus == 0 and report.euler == 2
    assert report.group_order == 24 and report.recognized == "S4"
    assert not report.degenerate


def test_square_tiling_over_z3_report():
    _, report = _run("zmod:3", 0, -1)
    assert (report.p, report.q) == (4, 4)
    assert (report.V, report.E, report.F) == (9, 18, 9)
    assert report.genus == 1 and report.euler == 0
    assert report.group_order == 36


def test_icosahedron_over_gf11_report():
    # sqrt5 = 4: x = 6, y = 6
    _, report = _run("gf:11", 6, 6)
    assert (report.p, report.q) == (5, 3)
    assert (report.V, report.E, report.F) == (12, 30, 20)
    assert report.genus == 0
    assert report.recognized == "A5"


def test_reports_match_oracle():
    for spec, x, y, n in (("zmod:3", 0, 2, 3), ("zmod:4", 0, 3, 4), ("gf:7", 4, 5, 7)):
        _, report = _run(spec, x, y)
        oracle = run_map_oracle(x, y % n, n)
        assert report.group_order == oracle["order"]
        assert (report.p, report.q, report.e_order) == (oracle["p"], oracle["q"], oracle["e"])
        if not report.degenerate:
            assert (report.V, report.E, report.F) == (oracle["V"], oracle["E"], oracle["F"])
            assert report.genus == oracle["genus"]


# Hurwitz groups: M. Conder, "Hurwitz groups: a brief survey", Bull. AMS 23 (1990);
# a Hurwitz map has (p, q) = (7, 3) and genus 1 + |G|/84
@pytest.mark.parametrize("spec, x, y, order, pq, genus, vef", [
    ("gf:7", "4", "3", 168, (7, 3), 3, (24, 84, 56)),  # Klein quartic
    ("zmod:14", "11", "3", 168, (7, 3), 3, (24, 84, 56)),  # Klein quartic
    ("gf:13", "7", "3", 1092, (7, 3), 14, (156, 546, 364)),  # Hurwitz
    ("gf:29", "15", "7", 12180, (7, 3), 146, (1740, 6090, 4060)),  # Hurwitz
    ("gf:41", "21", "4", 34440, (7, 3), 411, (4920, 17220, 11480)),  # Hurwitz
    ("gf:5", "0", "2", 120, (5, 4), 4, (24, 60, 30)),  # Bring's surface
    ("gf:3^2", "t+1", "t", 60, (5, 5), 4, (12, 30, 12)),  # great dodecahedron
    ("gf:11", "2", "3", 60, (5, 5), 4, (12, 30, 12)),  # great dodecahedron
])
def test_literature_anchors(spec, x, y, order, pq, genus, vef):
    ring = ring_make(spec)
    group = generate(list(make_rhos(PolyhedronParams(ring.parse_elem(x), ring.parse_elem(y)))))
    report = analyze(group)
    assert not report.degenerate
    assert (report.group_order, (report.p, report.q), report.genus) == (order, pq, genus)
    assert (report.V, report.E, report.F) == vef


def test_square_tiling_over_z2_degenerate():
    _, report = _run("zmod:2", 0, -1)
    assert report.degenerate
    assert "rho_e" in report.degeneracy_reason
    assert report.V is None and report.genus is None


def test_trivial_parameters_degenerate():
    _, report = _run("zmod:2", 1, 1)
    assert report.degenerate and report.group_order == 1


def test_counts_with_no_closed_surface_raise():
    # only rho_e or rho_f = I can make a map degenerate; other bad counts are a bug upstream
    d15 = GroupFingerprint(30, dihedral_spectrum(15), 1)
    with pytest.raises(InvariantViolation, match="no closed surface"):
        _map_report(30, 4, 2, 3, d15)  # p = 4 does not divide |G| = 30
    s3 = GroupFingerprint(6, ((1, 1), (2, 3), (3, 2)), 1)
    with pytest.raises(InvariantViolation, match="no closed surface"):
        _map_report(6, 3, 2, 3, s3)  # V = F = 2, E = 3: 2g = 1


def test_counts_satisfy_group_identities():
    for spec, x, y in (("gf:5", 0, 0), ("zmod:5", 0, -1), ("gf:11", 6, 6)):
        _, report = _run(spec, x, y)
        assert report.p * report.V == report.group_order
        assert report.q * report.F == report.group_order
        assert 2 * report.E == report.group_order
        assert report.euler == 2 - 2 * report.genus


def test_analyze_stops_on_a_column_that_does_not_return():
    group, _ = _run("gf:5", 0, 0)
    # 0 -> 1 -> 2 -> 2: rho_v's walk from index 0 never comes back to it
    broken = GeneratedGroup(group.generators, [[1, 2, 2], [0, 1, 2], [0, 1, 2]])
    with pytest.raises(InvariantViolation, match="does not return to index 0"):
        analyze(broken)


def test_analyze_needs_three_rotations():
    ring = ring_make("gf:5")
    params = PolyhedronParams(ring.from_int(0), ring.from_int(0))
    rho_v, rho_e, _ = make_rhos(params)
    group = generate([rho_v, rho_e])
    with pytest.raises(ValueError):
        analyze(group)
    with pytest.raises(ValueError):
        dart_model(group)


@pytest.mark.parametrize("spec", ["gf:3", "gf:2^2", "zmod:6"])
def test_rotation_orders_match_matrix_orders(spec):
    # Mat3.order multiplies matrices and shares no code with the table reads;
    # zmod:6 and the x, y = +-1 pairs give degenerate groups
    ring = ring_make(spec)
    for x in ring.elements():
        for y in ring.elements():
            group, report = _run(spec, x, y)
            assert (report.p, report.e_order, report.q) \
                == tuple(g.order() for g in group.generators), (spec, x, y)


# ---------------------------------------------------------------------------
# dart model

def test_trivial_dart_model():
    group, _ = _run("zmod:2", 1, 1)
    model = dart_model(group)
    assert model.degree == 1
    assert model.perms() == ((0,), (0,), (0,))
    assert model.to_text() == "darts 1\nv:\ne:\nf:\n"


def test_cube_gf2_dart_model():
    group, _ = _run("gf:2", 0, 0)
    model = dart_model(group)
    assert model.degree == 6
    pv, pe, pf = model.perms()
    assert all(pf[pe[pv[i]]] == i for i in range(6))
    assert model.to_text() == "darts 6\nv: (0 1 4)(2 5 3)\ne: (0 2)(1 3)(4 5)\nf: (0 3)(1 5)(2 4)\n"


def test_square_tiling_z4_dart_involution():
    group, _ = _run("zmod:4", 0, -1)
    model = dart_model(group)
    assert model.degree == 16
    pe = model.perm_e
    assert all(pe[pe[i]] == i and pe[i] != i for i in range(16))


def test_dart_model_rejects_a_table_out_of_discovery_order():
    group, _ = _run("gf:5", 0, 0)
    n = group.order
    # swapping two nonzero indices conjugates every column by one bijection:
    # the action stays transitive and regular, but the darts are no longer
    # numbered in breadth-first discovery order
    swap = list(range(n))
    swap[1], swap[n - 1] = n - 1, 1
    cayley = [[0] * n for _ in group.cayley]
    for old, new in zip(group.cayley, cayley):
        for i, j in enumerate(old):
            new[swap[i]] = swap[j]
    with pytest.raises(InvariantViolation, match="discovery order"):
        dart_model(GeneratedGroup(group.generators, cayley))


def test_dart_export_round_trip():
    for spec, x, y in (("gf:2", 0, 0), ("zmod:4", 0, -1), ("gf:5", 0, 0)):
        group, _ = _run(spec, x, y)
        model = dart_model(group)
        text = model.to_text()
        parsed = DartModel.from_text(text)
        assert parsed == model
        assert parsed.to_text() == text


# ---------------------------------------------------------------------------
# map equivalence

def test_maps_equivalent_reflexive():
    group, _ = _run("gf:2", 0, 0)
    model = dart_model(group)
    assert maps_equivalent(model, model)


def test_cube_over_two_fields_equivalent():
    a = dart_model(_run("gf:5", 0, 0)[0])
    b = dart_model(_run("gf:7", 0, 0)[0])
    assert maps_equivalent(a, b)
    assert maps_equivalent(b, a)


def test_cube_vs_octahedron_not_equivalent():
    cube = dart_model(_run("gf:5", 0, 0)[0])
    # octahedron: x = 1/2 = 3, y = -1/3 = 3 mod 5
    octa = dart_model(_run("gf:5", 3, 3)[0])
    assert not maps_equivalent(cube, octa)


def test_equivalent_maps_have_equal_fingerprints():
    from polyff.groupgen import order_spectrum
    ga, _ = _run("gf:5", 0, 0)
    gb, _ = _run("gf:7", 0, 0)
    if maps_equivalent(dart_model(ga), dart_model(gb)):
        assert order_spectrum(ga) == order_spectrum(gb)


# every same-degree pair, so pairs with different cycle types or different
# fingerprints reach the search too
@pytest.mark.parametrize("spec", ["zmod:5", "zmod:6"])
def test_one_candidate_agrees_with_reference_search(spec):
    ring = ring_make(spec)
    by_degree = {}
    for x in ring.elements():
        for y in ring.elements():
            group, _ = _run(spec, x, y)
            by_degree.setdefault(group.order, []).append(dart_model(group))
    outcomes = set()
    for models in by_degree.values():
        for a in models:
            for b in models:
                expected = reference_equivalent(a.perms(), b.perms())
                assert maps_equivalent(a, b) == expected
                # walk-numbered models are equivalent exactly when equal
                assert expected == (a.perms() == b.perms())
                assert maps_equivalent(b, a) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_intransitive_model_not_equivalent_to_regular_one():
    # equal cycle types, but b's darts split into orbits {0, 1} and {2, 3}
    a = DartModel(4, (1, 0, 3, 2), (2, 3, 0, 1), (0, 1, 2, 3))
    b = DartModel(4, (1, 0, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3))
    assert not reference_equivalent(a.perms(), b.perms())
    assert not maps_equivalent(a, b)
    assert not maps_equivalent(b, a)


def _shift(n, k):
    return tuple((i + k) % n for i in range(n))


def test_equivalence_verdicts_above_former_degree_bound():
    # the regular action of C_n, and a triple with the same cycle types
    # (two n-cycles, n odd) that no bijection conjugates to it
    n = 10_001
    cyclic = DartModel(n, _shift(n, 1), _shift(n, 0), _shift(n, -1))
    other = DartModel(n, _shift(n, 1), _shift(n, 0), _shift(n, 2))
    assert reference_equivalent(cyclic.perms(), cyclic.perms())
    assert not reference_equivalent(cyclic.perms(), other.perms())
    assert maps_equivalent(cyclic, cyclic)
    assert not maps_equivalent(cyclic, other)
    assert not maps_equivalent(other, cyclic)

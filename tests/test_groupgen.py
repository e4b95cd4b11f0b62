"""Closure generation, order spectra, fingerprints, and group recognition."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import tracemalloc
from array import array
from contextlib import redirect_stdout

import pytest

from polyff import cli, groupgen
from polyff.catalog import TilingClass, classify_pq
from polyff.cli import SCAN_COLUMNS, _row, main, report_dict, run_pipeline
from polyff.errors import CapExceeded, InvariantViolation, MixedRings, NonInvertibleGenerator
from polyff.groupgen import (
    CLOSURE_CAP_DEFAULT,
    RECOGNITION_TABLE,
    FactTable,
    GeneratedGroup,
    GroupFingerprint,
    closed_form,
    dihedral_spectrum,
    generate,
    order_spectrum,
    recognize,
)
from polyff.mat3 import Mat3
from polyff.regmap import dart_model
from polyff.rings import GaloisField, ZMod, ring_make
from polyff.universal import (GeneratorSet, PolyhedronParams, invariant_form, make_rhos,
                              make_sigmas)

from oracles import (
    TupleField,
    alternating_spectrum,
    cartan_rhos,
    cayley_table,
    closure_elements,
    closure_mod,
    closure_spectrum,
    reference_fingerprint,
    rotations_mod,
    symmetric_spectrum,
    table_mat_mul,
)


def _rotation_group(spec, x, y, **kw):
    ring = ring_make(spec)
    params = PolyhedronParams(ring.elem(x), ring.elem(y))
    return generate(list(make_rhos(params)), **kw)


def test_cube_over_gf5_has_order_24():
    assert _rotation_group("gf:5", 0, 0).order == 24


def test_cube_over_gf2_has_order_6():
    group = _rotation_group("gf:2", 0, 0)
    assert group.order == 6
    fp = order_spectrum(group)
    assert fp.spectrum == ((1, 1), (2, 3), (3, 2))
    assert recognize(fp) == "S3"


def test_single_identity_generator():
    group = generate([Mat3.identity(ZMod(5))])
    assert group.order == 1
    fp = order_spectrum(group)
    assert fp == GroupFingerprint(1, ((1, 1),), True, 1)
    assert recognize(fp) == "C1"


def test_tetrahedron_over_gf7_spectrum():
    # x = 1/2 = 4, y = 1/3 = 5 mod 7
    group = _rotation_group("gf:7", 4, 5)
    fp = order_spectrum(group)
    assert fp.order == 12
    assert fp.spectrum == ((1, 1), (2, 3), (3, 8))
    assert fp.spectrum == alternating_spectrum(4)
    assert recognize(fp) == "A4"


def test_recognition_table_matches_permutation_oracle():
    oracle = {
        "S3": symmetric_spectrum(3),
        "A4": alternating_spectrum(4),
        "S4": symmetric_spectrum(4),
        "A5": alternating_spectrum(5),
    }
    for name, (order, spectrum, abelian) in RECOGNITION_TABLE.items():
        assert spectrum == oracle[name]
        assert order == sum(count for _, count in spectrum)
        assert not abelian


def test_recognize_named_fingerprints():
    assert recognize(GroupFingerprint(60, ((1, 1), (2, 15), (3, 20), (5, 24)), False, 1)) == "A5"
    assert recognize(GroupFingerprint(6, ((1, 1), (2, 3), (3, 2)), False, 1)) == "S3"
    assert recognize(GroupFingerprint(24, ((1, 1), (2, 9), (3, 8), (4, 6)), False, 1)) == "S4"


def test_recognize_cyclic_and_dihedral():
    assert recognize(GroupFingerprint(6, ((1, 1), (2, 1), (3, 2), (6, 2)), True, 6)) == "C6"
    assert recognize(GroupFingerprint(8, dihedral_spectrum(4), False, 2)) == "D4"
    assert recognize(GroupFingerprint(4, dihedral_spectrum(2), True, 4)) == "D2"
    # order 8 with maximal element order 2 but wrong profile
    assert recognize(GroupFingerprint(8, ((1, 1), (2, 7)), True, 8)) == "unrecognized"


def test_recognize_cyclic_from_matrix_group():
    # the rho_f of the cube alone generates C4
    ring = GaloisField(5)
    _, _, rf = make_rhos(PolyhedronParams(ring.from_int(0), ring.from_int(0)))
    fp = order_spectrum(generate([rf]))
    assert fp.order == 4 and fp.abelian
    assert recognize(fp) == "C4"


def test_spectrum_counts_sum_to_order():
    for spec, x, y in (("gf:5", 0, 0), ("zmod:4", 0, -1), ("gf:2", 0, 0)):
        fp = order_spectrum(_rotation_group(spec, x, y))
        assert sum(c for _, c in fp.spectrum) == fp.order
        assert (1, 1) in fp.spectrum


def test_lagrange_on_generated_groups():
    for spec, x, y in (("gf:5", 0, 0), ("zmod:3", 0, -1), ("gf:7", 4, 5)):
        group = _rotation_group(spec, x, y)
        for d, _ in order_spectrum(group).spectrum:
            assert group.order % d == 0


def test_closure_idempotent():
    group = _rotation_group("gf:5", 0, 0)
    regenerated = generate(closure_elements(group))
    assert regenerated.order == group.order


def test_closure_is_closed_and_contains_identity():
    group = _rotation_group("zmod:4", 0, -1)
    elements = closure_elements(group)
    members = {m.vals for m in elements}
    assert elements[0] == Mat3.identity(ZMod(4))
    assert len(members) == group.order
    assert [len(column) for column in group.cayley] == [group.order] * 3
    for i, m in enumerate(elements):
        for column, g in zip(group.cayley, group.generators):
            assert (m * g).vals in members
            assert elements[column[i]] == m * g


def test_closure_matches_oracle_elements():
    gens = rotations_mod(0, 0, 5)
    oracle_elems = closure_mod(list(gens), 5)
    group = _rotation_group("gf:5", 0, 0)
    assert group.order == len(oracle_elems)
    assert {m.vals for m in closure_elements(group)} == set(oracle_elems)


def _code_tables(ring):
    """The ring's sum and product tables on codes, and the code of one."""
    if isinstance(ring, ZMod):
        n = ring.modulus
        add = [[(u + v) % n for v in range(n)] for u in range(n)]
        mul = [[u * v % n for v in range(n)] for u in range(n)]
        return add, mul, 1
    field = TupleField(ring.modulus, ring.ext_poly)
    return *field.code_tables(), field.to_code((1,) + (0,) * (field.k - 1))


def _matrix_bfs_inputs(ring):
    """The identity and a table-driven matrix product for ``cayley_table``."""
    add, mul, one = _code_tables(ring)
    ident = tuple(one if i % 4 == 0 else 0 for i in range(9))
    return ident, table_mat_mul(add, mul)


@pytest.mark.parametrize("spec", ["zmod:4", "zmod:6", "zmod:8", "zmod:9",
                                  "gf:5", "gf:7", "gf:2^2", "gf:3^2"])
def test_cayley_table_matches_plain_matrix_bfs(spec):
    # the closure keys elements by row numbers; the oracle walks whole
    # matrices, over composite moduli too
    ring = ring_make(spec)
    ident, product = _matrix_bfs_inputs(ring)
    for x in ring.elements():
        for y in ring.elements():
            group = _rotation_group(spec, x, y)
            gens = [g.vals for g in group.generators]
            assert group.cayley == cayley_table(gens, ident, product), (spec, x, y)


@pytest.mark.parametrize("spec", ["gf:5", "gf:7", "gf:3^2", "zmod:9"])
def test_cartan_reflections_give_the_same_cayley_table(spec):
    # a second construction of the rotations; see cartan_rhos for why the
    # tables agree where 2 and 1 + x are units
    ring = ring_make(spec)
    ident, product = _matrix_bfs_inputs(ring)
    add, mul, one = _code_tables(ring)
    two = add[one][one]
    for x in ring.elements():
        if one not in mul[two] or one not in mul[add[one][x.val]]:
            continue
        for y in ring.elements():
            group = _rotation_group(spec, x, y)
            assert group.cayley == cayley_table(cartan_rhos(x.val, y.val, add, mul, one),
                                                ident, product), (spec, x, y)


@pytest.mark.parametrize("picks", [(0,), (0, 1), (0, 1, 2, 3)],
                         ids=["rho_v", "rho_v,rho_e", "rhos,sigma0"])
@pytest.mark.parametrize("spec", ["zmod:8", "gf:3^2"])
def test_cayley_table_matches_plain_matrix_bfs_for_other_generator_counts(spec, picks):
    # one closure path serves any number of generators
    ring = ring_make(spec)
    ident, product = _matrix_bfs_inputs(ring)
    for x in ring.elements():
        for y in ring.elements():
            params = PolyhedronParams(x, y)
            pool = list(make_rhos(params)) + [make_sigmas(params)[0]]
            gens = [pool[i] for i in picks]
            group = generate(gens)
            assert len(group.cayley) == len(gens)
            assert group.cayley == cayley_table([g.vals for g in gens], ident, product), \
                (spec, picks, x, y)


def test_spectrum_matches_oracle_spectrum():
    gens = rotations_mod(0, -1, 4)
    oracle = closure_spectrum(closure_mod(list(gens), 4), 4)
    fp = order_spectrum(_rotation_group("zmod:4", 0, -1))
    assert fp.spectrum == oracle


@pytest.mark.parametrize("spec", ["gf:3", "gf:2^2", "gf:5", "zmod:6", "zmod:8", "zmod:9"],
                         ids=lambda spec: f"table-{spec}")
def test_spectrum_matches_per_element_reference(spec):
    # zmod:6, zmod:8 and zmod:9 are not fields and give degenerate groups
    ring = ring_make(spec)
    for x in ring.elements():
        for y in ring.elements():
            group = _rotation_group(spec, x, y)
            fp = order_spectrum(group)
            assert (fp.order, fp.spectrum, fp.abelian, fp.center_size) \
                == reference_fingerprint(group), (spec, x, y)


@pytest.fixture(scope="module")
def walked():
    """spec -> {(x, y): (the walk's report, its dart key)} for every row, each ring walked once.

    Each Frobenius orbit of pairs is walked once, at its least pair, which
    comes first in ``itertools.product`` order: (x^p, y^p) has the Cayley
    table of (x, y) (``cli.cmd_scan``; ``test_scan_rows_invariant_under_frobenius``).
    Over a prime field every orbit is one pair.  The dart key is a digest
    of the bytes ``cli._scan_row`` keys a walked row by.
    """
    rings: dict[str, dict] = {}

    def rows(spec):
        if spec not in rings:
            ring = ring_make(spec)
            walks, out = {}, {}
            for x, y in itertools.product(ring.elements(), repeat=2):
                orbit = [(x.val, y.val)]
                while (image := tuple(ring._pow(u, ring.modulus) for u in orbit[-1])) \
                        != orbit[0]:
                    orbit.append(image)
                if min(orbit) not in walks:
                    group, report = run_pipeline(PolyhedronParams(x, y))
                    darts = b"".join(array("l", perm).tobytes()
                                     for perm in dart_model(group).perms())
                    walks[min(orbit)] = report, hashlib.sha256(darts).digest()
                out[x, y] = walks[min(orbit)]
            rings[spec] = out
        return rings[spec]
    return rows


DIFFERENTIAL_RINGS = ["gf:3", "gf:5", "gf:7", "gf:11", "gf:13", "gf:3^2", "gf:5^2", "zmod:7"]
CHAR_2_RINGS = ["zmod:2", "gf:2", "gf:2^2", "gf:2^3", "gf:2^4"]


def _closed_form(params: PolyhedronParams, cap: int = CLOSURE_CAP_DEFAULT):
    return closed_form(params, GeneratorSet.from_params(params), cap)


def _det_b_zero(x, y) -> bool:
    return bool({x, y} & {x.ring.one, -x.ring.one})


@pytest.mark.parametrize("spec", DIFFERENTIAL_RINGS)
def test_trace_spectrum_matches_class_spectrum(spec, walked):
    # the closed form against the walk and its class-path spectrum on every
    # row with an invariant form: it declines such a row exactly when its
    # group is a quotient of a spherical triangle group (2, p, q), or A5 at
    # (5, 5) (the great dodecahedron; the other (5, 5) rows are PSL(2, 9) over
    # gf:3^2 and PSL(2, 11) over gf:11); each answer is the walk's report:
    # order, p, q, V/E/F, genus, fingerprint
    ring = ring_make(spec)
    psl = 0
    for (x, y), (walk, _) in walked(spec).items():
        params = PolyhedronParams(x, y)
        if invariant_form(params) is None:
            continue
        # no rotation has order 2: trace -1 needs x or y = +-1
        assert 2 not in (walk.p, walk.q), (spec, x, y)
        walks = (classify_pq(walk.p, walk.q) is TilingClass.SPHERICAL
                 or walk.recognized == "A5")
        answer = _closed_form(params)
        assert (answer is None) == walks, (spec, x, y, walk.p, walk.q)
        if walks:
            continue
        psl += 1
        assert _row(params, CLOSURE_CAP_DEFAULT) == (walk, None, answer[4]), (spec, x, y)
    assert psl >= ring.cardinality or spec == "gf:3"  # gf:3's one row with a form is S4


@pytest.mark.parametrize("spec", DIFFERENTIAL_RINGS)
def test_translation_point_group_matches_the_walk(spec, walked):
    # the closed form answers every row with x or y = +-1 (det B = 0), which
    # over an odd field are exactly the rows with no invariant form, and each
    # of those answers is the walk's report
    ring = ring_make(spec)
    flat = 0
    for (x, y), (walk, _) in walked(spec).items():
        params = PolyhedronParams(x, y)
        assert _det_b_zero(x, y) == (invariant_form(params) is None), (spec, x, y)
        if not _det_b_zero(x, y):
            continue
        flat += 1
        answer = _closed_form(params)
        assert answer is not None, (spec, x, y)
        assert _row(params, CLOSURE_CAP_DEFAULT) == (walk, None, answer[4]), (spec, x, y)
    assert flat == 4 * ring.cardinality - 4


@pytest.mark.parametrize("spec", DIFFERENTIAL_RINGS + CHAR_2_RINGS)
def test_closed_form_keys_split_rows_as_the_dart_keys_do(spec, walked):
    # row by row, (fingerprint, closed-form key or dart key) and (fingerprint,
    # dart key) give the same partition; then a scan's classes are those of a
    # reference scan that walks every row and keys it by its darts
    ring = ring_make(spec)
    scan_keys, dart_keys = [], []
    rows, classes, numbers = [], {}, {}
    for (x, y), (walk, darts) in walked(spec).items():
        params = PolyhedronParams(x, y)
        key = _row(params, CLOSURE_CAP_DEFAULT)[2]
        fp = walk.fingerprint.serialize()
        scan_keys.append((fp, darts if key is None else key))
        dart_keys.append((fp, darts))
        row = {column: value for column, value in report_dict(ring, params, walk).items()
               if column in SCAN_COLUMNS}
        rows.append({**row, "cap_exceeded": False})
        known = numbers.setdefault(fp, {})
        name = f"{fp}#{known.setdefault(darts, len(known))}"
        cls = classes.setdefault(name, {"fingerprint": fp, "count": 0,
                                        "recognized": walk.recognized,
                                        "first_x": str(x), "first_y": str(y), "p": walk.p,
                                        "q": walk.q, "genus": walk.genus, "class": name})
        cls["count"] += 1
    assert len(set(scan_keys)) == len(set(dart_keys)) == len(set(zip(scan_keys, dart_keys)))

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["scan", "--ring", spec, "--format", "json", "--exact-dedupe"]) == 0
    assert json.loads(out.getvalue()) == {"schema": 1, "ring": ring.spec_string(), "rows": rows,
                                          "classes": [classes[k] for k in sorted(classes)]}


def test_closed_form_caps_as_the_walk_does(walked):
    # |G| > cap raises CapExceeded(cap) at once, exactly where the walk would,
    # for rows with det B = 0 and for PSL(2, q') and PGL(2, q') rows
    for spec in ("gf:5", "gf:7"):
        kinds = set()
        for (x, y), (walk, _) in walked(spec).items():
            params = PolyhedronParams(x, y)
            if _closed_form(params) is None:
                continue
            kinds.add(_det_b_zero(x, y))
            order = walk.group_order
            assert _closed_form(params, order)[0].order == order
            rhos = list(make_rhos(params))
            for attempt in (lambda: _closed_form(params, order - 1),
                            lambda: generate(rhos, cap=order - 1)):
                with pytest.raises(CapExceeded) as info:
                    attempt()
                assert info.value.cap == order - 1, (spec, x, y)
        assert kinds == {False, True}, spec


@pytest.mark.parametrize("spec", CHAR_2_RINGS)
def test_characteristic_2_rows_match_the_walk(spec, walked):
    # every row of characteristic 2 has a closed form, D_p, C2 or 1, which is
    # the walk's report; and |G| > cap raises CapExceeded(cap) at once,
    # exactly where the walk would
    ring = ring_make(spec)
    one = ring.one
    kinds = set()
    for (x, y), (walk, _) in walked(spec).items():
        params = PolyhedronParams(x, y)
        assert _row(params, CLOSURE_CAP_DEFAULT)[:2] == (walk, None), (spec, x, y)
        order = walk.group_order
        if one in (x, y):
            kinds.add((walk.p, walk.e_order, walk.q))
        else:
            assert (walk.p % 2, walk.e_order, walk.q) == (1, 2, 2), (spec, x, y)
            assert walk.recognized == ("S3" if walk.p == 3 else f"D{walk.p}")
        assert _closed_form(params, order)[0] == walk.fingerprint
        rhos = list(make_rhos(params))
        for attempt in (lambda: _closed_form(params, order - 1),
                        lambda: generate(rhos, cap=order - 1)):
            with pytest.raises(CapExceeded) as info:
                attempt()
            assert info.value.cap == order - 1, (spec, x, y)
    assert kinds == {(2, 2, 1), (2, 1, 2), (1, 1, 1)}, spec


@pytest.mark.parametrize("exact", [[], ["--exact-dedupe"]])
def test_characteristic_2_scan_walks_no_row(monkeypatch, exact):
    closures = []

    def closure(*args, **kwargs):
        closures.append(args)
        return generate(*args, **kwargs)
    monkeypatch.setattr(cli, "generate", closure)
    with redirect_stdout(io.StringIO()):
        assert main(["scan", "--ring", "gf:2^4", "--format", "json", *exact]) == 0
    assert closures == []


def test_scan_works_out_each_trace_and_factorization_once(monkeypatch):
    # scan gf:41 has 1,681 rows but 41 traces and one q': its FactTable orders each
    # (trace, q') once and factors each n once (a table per row made 3,180
    # _trace_order and 3,376 _factor calls)
    calls: dict[str, list] = {"_trace_order": [], "_factor": []}
    for name, seen in calls.items():
        def spy(*args, real=getattr(groupgen, name), seen=seen):
            seen.append(args)
            return real(*args)
        monkeypatch.setattr(groupgen, name, spy)
    with redirect_stdout(io.StringIO()):
        assert main(["scan", "--ring", "gf:41", "--format", "json"]) == 0
    orders, factors = calls["_trace_order"], calls["_factor"]
    assert len(set(orders)) == len(orders) <= 41
    assert len(set(factors)) == len(factors) <= 41


def test_fact_table_of_another_ring_raises():
    # two fields with equal codes and other arithmetic must not share facts
    ring, other = ring_make("gf:3^2:t^2+1"), ring_make("gf:3^2:t^2+t+2")
    params = PolyhedronParams(ring.parse_elem("t"), ring.parse_elem("t+1"))
    with pytest.raises(MixedRings):
        closed_form(params, GeneratorSet.from_params(params), facts=FactTable(other))
    assert closed_form(params, GeneratorSet.from_params(params), facts=FactTable(ring)) \
        == closed_form(params, GeneratorSet.from_params(params))


def test_characteristic_2_certificate_raises(capsys, monkeypatch):
    # the closed form checks rho_e^2 = rho_f^2 = I and rho_v = rho_f rho_e
    # before it answers: the reflections, or one rotation of another row, fail
    ring = ring_make("gf:2^2")
    t = ring.parse_elem("t")
    params = PolyhedronParams(ring.zero, t)
    gens = GeneratorSet.from_params(params)
    other = GeneratorSet.from_params(PolyhedronParams(t, ring.zero))
    for bad in (GeneratorSet(ring, *make_sigmas(params)),
                dataclasses.replace(gens, rho_v=other.rho_v),
                dataclasses.replace(gens, rho_e=gens.rho_v)):
        with pytest.raises(InvariantViolation, match="involutions"):
            closed_form(params, bad)
    fp, p, e_order, q, _ = closed_form(params, gens)
    assert (fp.order, p, e_order, q) == (10, 5, 2, 2)  # D5
    # exit 5 from the CLI
    monkeypatch.setattr(GeneratorSet, "from_params",
                        classmethod(lambda cls, params: cls(params.ring, *make_sigmas(params))))
    assert main(["analyze", "--ring", "gf:2^2", "--x", "0", "--y", "t"]) == 5
    assert "involutions" in capsys.readouterr().err


def test_closed_form_declines_other_rings():
    # composite moduli have no closed form: every row walks
    for spec in ("zmod:9", "zmod:15"):
        ring = ring_make(spec)
        for x, y in itertools.product(ring.elements(), repeat=2):
            assert _closed_form(PolyhedronParams(x, y)) is None, (spec, x, y)


def test_certified_order_must_divide_pgl2_order():
    # fields too large to walk every row: each closed-form group with det B != 0
    # lies in SO(3, B) = PGL(2, q), its spectrum counts |G| elements, and its
    # orders divide |G|, including p and q
    for spec in ("gf:3^3", "gf:3^4", "gf:5^3", "gf:7^2"):
        ring = ring_make(spec)
        q = ring.cardinality
        for x, y in itertools.islice(itertools.product(ring.elements(), repeat=2), 0, None, 31):
            answer = None if _det_b_zero(x, y) else _closed_form(PolyhedronParams(x, y), q ** 3)
            if answer is None:
                continue
            fp, p, _, q_f, _ = answer
            assert q * (q * q - 1) % fp.order == 0, (spec, x, y)
            assert sum(c for _, c in fp.spectrum) == fp.order
            assert all(fp.order % d == 0 for d, _ in fp.spectrum)
            assert {p, q_f} <= {d for d, _ in fp.spectrum}


def test_group_at_the_dickson_bound_keeps_the_class_path():
    # a Sylow 2-subgroup of SO(3, B) = PGL(2, 3) = S4 is dihedral of order
    # 2(q + 1) = 8, with a center of order 2
    ring = ring_make("gf:3")
    params = PolyhedronParams(ring.zero, ring.zero)
    elements = closure_elements(generate(list(make_rhos(params))))
    assert len(elements) == 24
    for a, b in itertools.combinations(elements, 2):
        group = generate([a, b])
        if group.order == 8:
            break
    fp = order_spectrum(group)
    assert (fp.spectrum, fp.center_size) == (dihedral_spectrum(4), 2)


def test_form_not_preserved_raises():
    # the closed form certifies each rotation in SO(3, B), for the B of its
    # (x, y), before it answers
    ring = ring_make("zmod:7")
    params = PolyhedronParams(ring.elem(2), ring.elem(3))
    # the rotations of another (x, y) do not preserve this B
    other = GeneratorSet.from_params(PolyhedronParams(ring.elem(3), ring.elem(2)))
    with pytest.raises(InvariantViolation, match="not in SO"):
        closed_form(params, other)
    # the reflections preserve the form, but their determinant is -1
    with pytest.raises(InvariantViolation, match="not in SO"):
        closed_form(params, GeneratorSet(ring, *make_sigmas(params)))
    fp, p, _, q, _ = _closed_form(params)
    assert (fp.order, p, q) == (336, 3, 8)  # PGL(2, 7)


def test_invariant_form_only_for_odd_fields_and_nonzero_determinant():
    for spec in ("gf:2^3", "zmod:9"):
        ring = ring_make(spec)
        assert invariant_form(PolyhedronParams(ring.from_int(2), ring.from_int(3))) is None
    for spec in ("gf:7", "gf:3^2"):
        ring = ring_make(spec)
        one, two, three = ring.one, ring.from_int(2), ring.from_int(3)
        for x, y in itertools.product(ring.elements(), repeat=2):
            c = (x - one) * (y - one)
            b = -(two * (x - one))
            expected = Mat3(ring, [x * y - x + y + three, b, c, b, b, c, c, c, c])
            form = invariant_form(PolyhedronParams(x, y))
            assert form == (None if expected.det() == ring.zero else expected), (spec, x, y)


def test_spectrum_rejects_unreached_index():
    group = _rotation_group("gf:5", 0, 0)
    n = group.order
    # one more element whose every edge is a self-loop: no path from index 0 reaches it
    cayley = [column + [n] for column in group.cayley]
    broken = GeneratedGroup(group.generators, cayley)
    with pytest.raises(InvariantViolation, match="not reached"):
        order_spectrum(broken)


def test_spectrum_rejects_walk_longer_than_group():
    group = _rotation_group("gf:5", 0, 0)
    # 0 -> 1 -> 2 -> 2: the tree is intact, but the powers of element 1 never return to 0
    broken = GeneratedGroup(group.generators[:1], [[1, 2, 2]])
    with pytest.raises(InvariantViolation, match="do not reach index 0"):
        order_spectrum(broken)


def test_determinism_of_generation():
    a = _rotation_group("gf:5", 0, 0)
    b = _rotation_group("gf:5", 0, 0)
    assert [m.vals for m in closure_elements(a)] == [m.vals for m in closure_elements(b)]
    assert a.cayley == b.cayley


def test_group_holds_only_its_table():
    # three int columns of a 24,360-element group: about 64 B per element;
    # a matrix per element (Mat3 plus its nine-code tuple) would add about 160 B
    ring = ring_make("zmod:29")
    rhos = list(make_rhos(PolyhedronParams(ring.elem(2), ring.elem(3))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = generate(rhos)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert group.order == 24360
    assert held / group.order < 100


def test_cap_exceeded_reports_partial_count():
    with pytest.raises(CapExceeded) as info:
        _rotation_group("gf:5", 0, 0, cap=10)
    assert info.value.cap == 10


def test_cap_exceeded_before_numbering_every_row(monkeypatch):
    # about 10^12 distinct rows over Z/1000003Z: the row pass must stop once
    # it numbers more than 3 * cap rows, since every row is a row of an element
    ring = ring_make("zmod:1000003")
    rhos = list(make_rhos(PolyhedronParams(ring.elem(2), ring.elem(3))))
    multiplied = 0
    # every image the kernel returns is numbered on the spot, so the numbered
    # rows are the identity's three and every image
    numbered = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    rows_mul = type(ring)._rows_mul

    def counted(self, rows, b):
        nonlocal multiplied
        multiplied += len(rows)
        images = rows_mul(self, rows, b)
        numbered.update(images)
        return images

    monkeypatch.setattr(type(ring), "_rows_mul", counted)
    cap = 2000
    with pytest.raises(CapExceeded) as info:
        generate(rhos, cap=cap)
    assert info.value.cap == cap
    # a frontier is cut into chunks that add at most 9 rows past 3 * cap, and
    # each numbered row is multiplied at most once per generator
    assert 3 * cap < len(numbered) <= 3 * cap + 9
    assert multiplied <= 3 * len(numbered)


def test_closure_peak_memory_per_element():
    # row-number triples as keys; nine-code tuple keys peak at 224-233 B
    # per element on this group
    ring = ring_make("zmod:29")
    rhos = list(make_rhos(PolyhedronParams(ring.elem(2), ring.elem(3))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = generate(rhos)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert group.order == 24360
    assert peak / group.order < 210


def test_non_invertible_generator_rejected():
    bad = Mat3(ZMod(4), [2, 0, 0, 0, 1, 0, 0, 0, 1])
    with pytest.raises(NonInvertibleGenerator):
        generate([bad])


def test_fingerprint_serialization():
    fp = order_spectrum(_rotation_group("gf:5", 0, 0))
    assert fp.serialize() == "order=24;spectrum=1:1,2:9,3:8,4:6;abelian=false;center=1"


def test_generator_labels():
    ring = ring_make("gf:2")
    rhos = make_rhos(PolyhedronParams(ring.elem(0), ring.elem(0)))
    assert _rotation_group("gf:2", 0, 0).generators == list(rhos)

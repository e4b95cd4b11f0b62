"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

from __future__ import annotations

from contextlib import redirect_stdout
import io
import json
import os
from pathlib import Path
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from polyff import cli, groupgen
from polyff.cli import _scan_row, main, run_pipeline
from polyff.groupgen import CLOSURE_CAP_DEFAULT, FactTable
from polyff.regmap import DartModel, dart_model, maps_equivalent
from polyff.rings import ring_make
from polyff.universal import PolyhedronParams

REPORT_FIELDS = ["schema", "ring", "x", "y", "group_order", "p", "q", "e_order",
                 "V", "E", "F", "genus", "euler", "degenerate", "degeneracy_reason",
                 "fingerprint", "recognized", "bad_primes_computed", "bad_primes_paper"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_specialize_cube_gf2(capsys):
    code, out, _ = run(capsys, "specialize", "--solid", "cube", "--ring", "gf:2")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 6
    assert report["recognized"] == "S3"
    assert report["schema"] == 1
    for field in REPORT_FIELDS:
        assert field in report


def test_specialize_icosahedron_auto_extend(capsys):
    code, out, _ = run(capsys, "specialize", "--solid", "icosahedron",
                       "--ring", "gf:7", "--auto-extend")
    assert code == 0
    report = json.loads(out)
    assert report["ring"] == "gf:7^2:t^2+2"
    assert report["group_order"] == 60
    assert report["recognized"] == "A5"
    assert report["bad_primes_computed"] == [2, 3]
    assert report["bad_primes_paper"] == [2, 5]
    assert report["bad_primes_discrepancy"] is True


def test_specialize_icosahedron_past_the_search_cap(capsys):
    # 5 is a square mod 1,000,039, which Tonelli-Shanks finds at any size
    code, out, _ = run(capsys, "specialize", "--solid", "icosahedron", "--ring", "gf:1000039")
    assert code == 0
    report = json.loads(out)
    assert (report["recognized"], report["p"], report["q"], report["genus"]) == ("A5", 5, 3, 0)
    # 5 is not a square mod 1,000,003, and GF(1,000,003^2) is past the search cap
    code, out, err = run(capsys, "specialize", "--solid", "icosahedron",
                         "--ring", "gf:1000003", "--auto-extend")
    assert (code, out) == (2, "")
    assert err == "polyff: square-root search capped at cardinality 1000000\n"


def test_specialize_bad_prime_exit_code(capsys):
    code, _, err = run(capsys, "specialize", "--solid", "tetrahedron", "--ring", "gf:3")
    assert code == 3
    assert "bad prime" in err


def test_specialize_extension_disabled_exit_code(capsys):
    code, _, _ = run(capsys, "specialize", "--solid", "icosahedron", "--ring", "gf:7")
    assert code == 3


def test_analyze_raw_parameters(capsys):
    code, out, _ = run(capsys, "analyze", "--ring", "zmod:3", "--x", "0", "--y", "-1")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 36
    assert (report["p"], report["q"]) == (4, 4)
    assert report["genus"] == 1
    assert report["bad_primes_computed"] is None
    assert report["bad_primes_paper"] is None


def test_analyze_gf_element_literals(capsys):
    code, out, _ = run(capsys, "analyze", "--ring", "gf:2^2", "--x", "t", "--y", "t+1")
    assert code == 0
    report = json.loads(out)
    assert report["x"] == "t" and report["y"] == "t+1"
    assert report["group_order"] >= 1


@pytest.mark.parametrize("ring", ["gf:3", "zmod:3"])
@pytest.mark.parametrize("x", ["t", "t^0", "2t+1"])
def test_terms_in_t_exit_2_without_a_t(capsys, ring, x):
    code, out, err = run(capsys, "analyze", "--ring", ring, "--x", x, "--y", "0")
    assert (code, out) == (2, "")
    assert f"bad element literal '{x}' for {ring}" in err


@pytest.mark.parametrize("p", [5, 7])
def test_zmod_and_gf_prime_field_read_sums_alike(capsys, p):
    reports = []
    for ring in (f"zmod:{p}", f"gf:{p}"):
        code, out, _ = run(capsys, "analyze", "--ring", ring, "--x", "2+3", "--y=-1+8")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0].pop("ring") == f"zmod:{p}" and reports[1].pop("ring") == f"gf:{p}"
    assert reports[0] == reports[1]
    assert (reports[0]["x"], reports[0]["y"]) == (str(5 % p), str(7 % p))


def test_spec_exponent_past_the_degree_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--ring", "gf:3^2:t^100000000000+1",
                       "--x", "0", "--y", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "must be monic of degree 2" in err


def test_analyze_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--ring", "gf:5", "--x", "0", "--y", "0",
                       "--cap", "10")
    assert code == 4
    assert "cap" in err


def test_closed_form_cap_exits_at_once(capsys):
    # |PSL(2, 131)| = 1,123,980 is read from the traces: no walk to the cap
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--ring", "gf:131", "--x", "2", "--y", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == ("polyff: closure exceeded cap 1000000 "
                   "(the group has more than 1000000 elements)\n")
    code, out, _ = run(capsys, "analyze", "--ring", "gf:131", "--x", "2", "--y", "3",
                       "--cap", "2000000")
    report = json.loads(out)
    # p and q as a walk of the 1,123,980 elements reads them off its columns
    assert (code, report["group_order"], report["p"], report["q"]) == (0, 1123980, 13, 65)


def test_det0_closed_form_cap_exits_at_once(capsys):
    # x = y = 1 over gf:101 has |G| = 4 * 101^3 = 4,121,204 (translations by
    # a group of order 4): read off at once, past the cap or not
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--ring", "gf:101", "--x", "1", "--y", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == ("polyff: closure exceeded cap 1000000 "
                   "(the group has more than 1000000 elements)\n")
    code, out, _ = run(capsys, "analyze", "--ring", "gf:101", "--x", "1", "--y", "1",
                       "--cap", "5000000")
    report = json.loads(out)
    assert (code, report["group_order"], report["p"], report["q"]) == (0, 4121204, 202, 202)


def test_det0_row_darts_walk_and_agree(capsys):
    # --darts walks a det B = 0 row too, and the walk must agree with the closed form
    code, out, _ = run(capsys, "analyze", "--ring", "gf:5", "--x", "1", "--y", "2", "--darts")
    assert code == 0
    report = json.loads(out)
    assert (report["group_order"], report["p"], report["q"]) == (300, 6, 10)
    assert report["darts"].startswith("darts 300\n")


@pytest.mark.parametrize("q", [100_003, 1_000_003, 1_000_000_007, 1_000_000_000_000_000_003,
                               3_317_044_064_679_887_385_961_813])
def test_closed_form_row_recognized_at_once(capsys, q):
    # |G| is about q^3, and q runs up to the largest prime below MILLER_RABIN_PROOF_BOUND:
    # the spectrum, p and q must come from factoring q -+ 1, not from trial division
    start = time.perf_counter()
    code, out, _ = run(capsys, "analyze", "--ring", f"zmod:{q}", "--x", "2", "--y", "3",
                       "--cap", str(10**80))
    assert time.perf_counter() - start < 1
    assert code == 0
    report = json.loads(out)
    order = report["group_order"]
    # PSL(2, q) exactly when t_v + 1 = -6 and t_f + 1 = -2 are squares mod q (Euler's criterion)
    e = 2 if all(pow(q - a, (q - 1) // 2, q) == 1 for a in (6, 2)) else 1
    assert order == q * (q * q - 1) // e
    spectrum = report["fingerprint"].split(";")[1].removeprefix("spectrum=").split(",")
    assert sum(int(entry.split(":")[1]) for entry in spectrum) == order
    assert order % report["p"] == 0 and order % report["q"] == 0


def test_extension_over_a_large_prime_is_built_at_once(capsys):
    # the search for t^2 + 1 makes each candidate only when it tries it,
    # with no tuple of the p coefficients first
    q = 1_000_000_007 ** 2
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--ring", "gf:1000000007^2", "--x", "t", "--y", "t+1")
    assert (code, out) == (4, "")
    assert err.startswith("polyff: closure exceeded cap 1000000 ")
    code, out, _ = run(capsys, "analyze", "--ring", "gf:1000000007^2", "--x", "t", "--y", "t+1",
                       "--cap", str(10**80))
    assert time.perf_counter() - start < 2
    report = json.loads(out)
    assert code == 0 and report["ring"] == "gf:1000000007^2:t^2+1"
    assert report["group_order"] in (q * (q * q - 1), q * (q * q - 1) // 2)


def test_darts_flag(capsys):
    code, out, _ = run(capsys, "specialize", "--solid", "cube", "--ring", "gf:2",
                       "--darts")
    assert code == 0
    report = json.loads(out)
    assert report["darts"].startswith("darts 6\n")


@pytest.mark.parametrize("argv", [
    ("analyze", "--ring", "zmod:29", "--x", "2", "--y", "3"),
    ("specialize", "--solid", "cube", "--ring", "gf:5"),
    ("grid", "--family", "square", "--n", "4"),
])
def test_darts_refused_in_csv(capsys, monkeypatch, argv):
    # csv prints only the scan columns, so the darts would be dropped: refuse before any walk
    monkeypatch.setattr(cli, "generate", lambda *args, **kwargs: pytest.fail("walked"))
    code, out, err = run(capsys, *argv, "--darts", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "polyff: --darts needs --format json or text: csv prints only the scan columns\n"


def test_darts_above_former_retention_bound(capsys):
    code, out, _ = run(capsys, "analyze", "--ring", "zmod:29", "--x", "2", "--y", "3",
                       "--darts")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 24360
    text = report["darts"]
    assert text.startswith("darts 24360\n")
    model = DartModel.from_text(text)
    assert model.degree == 24360
    assert model.to_text() == text


def test_grid_square_n3(capsys):
    code, out, _ = run(capsys, "grid", "--family", "square", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 36
    assert report["prediction"]["predicted_group_order"] == 36
    assert report["prediction"]["match"] is True


def test_grid_square_n4_halves(capsys):
    code, out, _ = run(capsys, "grid", "--family", "square", "--n", "4")
    report = json.loads(out)
    assert report["prediction"]["grid"] == "2x2"
    assert report["group_order"] == 16 and report["prediction"]["match"] is True


def test_grid_square_n2_degenerate(capsys):
    code, out, _ = run(capsys, "grid", "--family", "square", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is True
    assert report["prediction"]["match"] is None


def test_grid_triangular_even_modulus(capsys):
    code, _, _ = run(capsys, "grid", "--family", "triangular", "--n", "4")
    assert code == 3  # x = 1/2 undefined in even characteristic


def test_grid_modulus_too_small(capsys):
    code, _, _ = run(capsys, "grid", "--family", "square", "--n", "1")
    assert code == 2


def test_unproven_prime_modulus_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--ring", "zmod:10000000000000000000000013",
                         "--x", "2", "--y", "3")
    assert code == 2 and out == ""
    assert err.startswith("polyff: cannot prove 10000000000000000000000013 prime")
    assert "3,317,044,064,679,887,385,961,981" in err


def test_grid_triangular_n3(capsys):
    code, out, _ = run(capsys, "grid", "--family", "triangular", "--n", "3")
    report = json.loads(out)
    assert report["group_order"] == 18
    assert report["prediction"]["match"] is True


def test_scan_gf3_rows(capsys):
    code, out, err = run(capsys, "scan", "--ring", "gf:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,group_order,p,q,genus,degenerate,fingerprint,recognized"
    assert len(lines) == 10
    assert lines[1].startswith("0,0,24,3,4,0,false,")
    assert "# class" in err  # dedupe summary goes to stderr in csv mode


def test_scan_text_format(capsys):
    code, out, _ = run(capsys, "scan", "--ring", "zmod:2", "--format", "text")
    assert code == 0
    assert "classes:" in out
    assert out.count("x=") == 4


def test_scan_deterministic_across_widths(capsys):
    outputs = []
    for width in ("1", "8"):
        code, out, _ = run(capsys, "scan", "--ring", "gf:3", "--width", width)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scan_rows_run_on_the_calling_thread(capsys, monkeypatch):
    threads = []

    def recording_row(*args):
        threads.append(threading.get_ident())
        return _scan_row(*args)
    monkeypatch.setattr(cli, "_scan_row", recording_row)
    code, _, _ = run(capsys, "scan", "--ring", "gf:3", "--width", "8")
    assert code == 0
    assert threads == [threading.get_ident()] * 9


@pytest.mark.parametrize("argv, sweeps", [
    # closed form: no walk, no numbering
    (["analyze", "--ring", "zmod:29", "--x", "2", "--y", "3"], 0),
    (["analyze", "--ring", "zmod:29", "--x", "2", "--y", "3", "--darts"], 1),  # dart_model
    (["analyze", "--ring", "gf:3^2", "--x", "0", "--y", "0"], 1),  # S4 walks: class path
    # the class path and dart_model share one sweep of the table
    (["analyze", "--ring", "gf:3^2", "--x", "0", "--y", "0", "--darts"], 1),
    # 3 of the 49 rows walk (the 24 with x or y = +-1 and 22 others have closed
    # forms), and each walked row needs both its spectrum and its dart key
    (["scan", "--ring", "zmod:7", "--exact-dedupe"], 3),
])
def test_schreier_sweep_runs_only_where_the_numbering_is_read(capsys, monkeypatch, argv, sweeps):
    sweep, sizes = groupgen.schreier_tree, []

    def counted(cols, n):
        sizes.append(n)
        return sweep(cols, n)
    monkeypatch.setattr(groupgen, "schreier_tree", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(sizes) == sweeps


def test_scan_json_classes(capsys):
    code, out, _ = run(capsys, "scan", "--ring", "zmod:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    row00 = payload["rows"][0]
    assert (row00["x"], row00["y"], row00["group_order"]) == ("0", "0", 6)
    assert payload["classes"]
    counts = sum(c["count"] for c in payload["classes"])
    assert counts == sum(1 for r in payload["rows"] if not r["cap_exceeded"])


def test_scan_exact_dedupe(capsys):
    code, out, _ = run(capsys, "scan", "--ring", "gf:3", "--format", "json",
                       "--exact-dedupe")
    assert code == 0
    payload = json.loads(out)
    assert all("class" in c for c in payload["classes"])


# zmod:8 has one class per fingerprint; gf:3^2 splits 14 fingerprints into 41 classes.
# Over gf:3^2, zmod:7 and gf:7 the closed-form rows are keyed by their traces,
# and the rest by their darts
@pytest.mark.parametrize("spec, n_classes", [("zmod:8", 9), ("gf:3^2", 41), ("zmod:7", 44),
                                             ("gf:7", 44)])
def test_exact_dedupe_classes_are_the_equivalence_partition(capsys, spec, n_classes):
    # reference: a pairwise maps_equivalent search among each fingerprint's
    # rows, numbering its classes in row order
    ring = ring_make(spec)
    names = [str(u) for u in ring.elements()]
    buckets: dict[str, list] = {}  # fingerprint -> [(model, dart key, class)]
    expected: dict[str, dict] = {}
    for x in ring.elements():
        for y in ring.elements():
            row, key = _scan_row(FactTable(ring), names, x, y, CLOSURE_CAP_DEFAULT, True)
            model = dart_model(run_pipeline(PolyhedronParams(x, y))[0])
            bucket = buckets.setdefault(row["fingerprint"], [])
            match = [entry for entry in bucket if maps_equivalent(model, entry[0])]
            if match:
                assert match[0][1] == key  # equivalent rows share their key
                cls = match[0][2]
            else:
                assert key not in [entry[1] for entry in bucket]
                cls = expected[f"{row['fingerprint']}#{len(bucket)}"] = {
                    "first_x": row["x"], "first_y": row["y"], "count": 0}
                bucket.append((model, key, cls))
            cls["count"] += 1
    assert len(expected) == n_classes

    code, out, _ = run(capsys, "scan", "--ring", spec, "--format", "json", "--exact-dedupe")
    assert code == 0
    got = {c["class"]: {"first_x": c["first_x"], "first_y": c["first_y"], "count": c["count"]}
           for c in json.loads(out)["classes"]}
    assert got == expected


def _scan_peak(*flags):
    """tracemalloc peak, in bytes, of one json scan of zmod:12."""
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            before = tracemalloc.get_traced_memory()[0]
            assert main(["scan", "--ring", "zmod:12", "--format", "json", *flags]) == 0
            return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_exact_dedupe_memory_stays_near_plain_scan():
    # one dart key per class, not one dart model per row: a model per row
    # peaks at about 3x the plain scan here
    with redirect_stdout(io.StringIO()):
        main(["scan", "--ring", "zmod:2", "--format", "json"])  # imports and parser out of the peaks
    plain = _scan_peak()
    exact = _scan_peak("--exact-dedupe")
    assert exact <= 1.5 * plain, (exact, plain)


@pytest.mark.parametrize("p", [5, 7])
def test_scan_zmod_and_gf_prime_field_agree(capsys, p):
    # Z/pZ and GF(p) are the same field on two ring implementations
    payloads = []
    for spec in (f"zmod:{p}", f"gf:{p}"):
        code, out, _ = run(capsys, "scan", "--ring", spec, "--format", "json")
        assert code == 0
        payloads.append(json.loads(out))
    zmod, gf = payloads
    assert (zmod["ring"], gf["ring"]) == (f"zmod:{p}", f"gf:{p}")
    assert len(zmod["rows"]) == p * p
    for a, b in zip(zmod["rows"], gf["rows"], strict=True):
        assert a == b, (a["x"], a["y"])
    assert zmod["classes"] == gf["classes"]


@pytest.mark.parametrize("spec", ["gf:2^3", "gf:3^2"])
def test_scan_rows_invariant_under_frobenius(capsys, spec):
    # x -> x^p is a field automorphism, so (x, y) and (x^p, y^p) generate
    # conjugate groups and give the same row apart from x and y
    ring = ring_make(spec)

    def frobenius(text):
        e = ring.parse_elem(text)
        power = ring.one
        for _ in range(ring.modulus):
            power = power * e
        return str(power)

    code, out, _ = run(capsys, "scan", "--ring", spec, "--format", "json")
    assert code == 0
    rows = {(r.pop("x"), r.pop("y")): r for r in json.loads(out)["rows"]}
    assert len(rows) == ring.cardinality ** 2
    moved = 0
    for (x, y), row in rows.items():
        image = (frobenius(x), frobenius(y))
        moved += image != (x, y)
        assert rows[image] == row, ((x, y), image)
    assert moved > 0


@pytest.mark.parametrize("spec, calls", [("gf:2^2", 10), ("gf:2^3", 24), ("gf:3^2", 45),
                                         ("gf:2^4", 70), ("zmod:7", 49), ("gf:7", 49)])
def test_scan_answers_each_frobenius_orbit_once(capsys, monkeypatch, spec, calls):
    # GF(p^k) has p^j elements fixed by the j-th Frobenius power, so its pairs fall
    # into orbits of sizes dividing k; over a prime field every orbit is one pair
    answered = []

    def counted(facts, names, x, y, cap, exact):
        answered.append((x, y))
        return _scan_row(facts, names, x, y, cap, exact)
    monkeypatch.setattr(cli, "_scan_row", counted)
    code, _, _ = run(capsys, "scan", "--ring", spec, "--exact-dedupe")
    assert code == 0
    assert len(answered) == len(set(answered)) == calls


def test_scan_facts_do_not_outlive_the_scan(capsys):
    # the two gf:3^2 fields share their codes, not their arithmetic: 36 of their 81
    # rows differ in group, so a fact kept from one scan would change the next
    specs = ["gf:3^2:t^2+1", "gf:3^2:t^2+t+2", "gf:3^2:t^2+1"]
    flags = ["--format", "json", "--exact-dedupe"]
    outputs = [run(capsys, "scan", "--ring", spec, *flags) for spec in specs]
    rows = [json.loads(out)["rows"] for _, out, _ in outputs[:2]]
    assert sum(a["group_order"] != b["group_order"] for a, b in zip(*rows)) == 36
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for spec, got in zip(specs, outputs):
        fresh = subprocess.run([sys.executable, "-m", "polyff.cli", "scan", "--ring", spec,
                                *flags], capture_output=True, text=True, env=env)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), spec


def _reference_scan(spec: str, cap: int, exact: bool) -> tuple[list, list]:
    """Rows and classes of a scan that calls ``_scan_row`` for every pair, with no reuse.

    Each row gets a fresh ``FactTable``, so no fact of one row reaches another.
    """
    ring = ring_make(spec)
    names = [str(u) for u in ring.elements()]
    rows, classes, numbers = [], {}, {}
    for x in ring.elements():
        for y in ring.elements():
            row, darts = _scan_row(FactTable(ring), names, x, y, cap, exact)
            rows.append(row)
            if row["cap_exceeded"]:
                continue
            fp = key = row["fingerprint"]
            if exact:
                known = numbers.setdefault(fp, {})
                key = f"{fp}#{known.setdefault(darts, len(known))}"
            cls = classes.setdefault(key, {"fingerprint": fp, "count": 0,
                                           "recognized": row["recognized"],
                                           "first_x": row["x"], "first_y": row["y"],
                                           "p": row["p"], "q": row["q"], "genus": row["genus"],
                                           **({"class": key} if exact else {})})
            cls["count"] += 1
    return rows, [classes[k] for k in sorted(classes)]


@pytest.mark.parametrize("spec", ["gf:2^2", "gf:2^3", "gf:3^2", "gf:2^4"])
def test_scan_with_orbit_reuse_matches_a_scan_of_every_pair(capsys, spec):
    rows, classes = _reference_scan(spec, CLOSURE_CAP_DEFAULT, True)
    code, out, _ = run(capsys, "scan", "--ring", spec, "--format", "json", "--exact-dedupe")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "ring": ring_make(spec).spec_string(),
                               "rows": rows, "classes": classes}

    rows, classes = _reference_scan(spec, CLOSURE_CAP_DEFAULT, False)
    code, out, err = run(capsys, "scan", "--ring", spec)
    assert code == 0
    assert out == cli._csv_text(rows)
    assert err == "".join(f"# class {c['fingerprint']}: count={c['count']} "
                          f"recognized={c['recognized']}\n" for c in classes)

    rows, classes = _reference_scan(spec, 20, False)
    code, out, _ = run(capsys, "scan", "--ring", spec, "--format", "text", "--cap", "20")
    assert code == (4 if any(r["cap_exceeded"] for r in rows) else 0)
    lines = [" ".join(f"{c}={v}" for c, v in zip(cli.SCAN_COLUMNS, cli._csv_values(r)))
             for r in rows]
    lines.append(f"classes: {len(classes)}")
    lines += [f"  {c['fingerprint']} count={c['count']} recognized={c['recognized']}"
              for c in classes]
    assert out == "\n".join(lines) + "\n"


def test_scan_rejects_modulus_one(capsys):
    code, _, err = run(capsys, "scan", "--ring", "zmod:1")
    assert code == 2
    assert "modulus" in err.lower()


def test_scan_rejects_large_ring(capsys):
    code, _, err = run(capsys, "scan", "--ring", "gf:101")
    assert code == 2
    assert "cardinality" in err


def test_scan_cap_rows_flagged(capsys):
    code, out, _ = run(capsys, "scan", "--ring", "zmod:3", "--cap", "20")
    assert code == 4
    lines = out.strip().split("\n")
    assert len(lines) == 10  # cap rows emitted, scan not aborted
    assert any("cap_exceeded" in line for line in lines[1:])


def test_relations_command(capsys):
    code, out, _ = run(capsys, "relations", "--ring", "gf:2", "--trials", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["exhaustive"] is True and payload["pairs_tested"] == 4


def test_relations_sampled(capsys):
    code, out, _ = run(capsys, "relations", "--ring", "gf:101", "--trials", "25")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs_tested"] == 25 and not payload["exhaustive"]


def test_catalog_dump(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    entries = {json.loads(line)["name"]: json.loads(line) for line in lines}
    dodeca = entries["dodecahedron"]
    assert dodeca["x"] == {"a": 1, "b": -1, "c": 4}
    assert dodeca["bad_primes_computed"] == [2, 5]
    assert dodeca["bad_primes_paper"] == [2, 3, 5]
    assert dodeca["bad_primes_discrepancy"] is True
    assert entries["icosahedron"]["bad_primes_computed"] == [2, 3]
    assert entries["icosahedron"]["bad_primes_paper"] == [2, 5]
    assert entries["square_tiling"]["bad_primes_paper"] is None
    assert entries["square_tiling"]["tiling_class"] == "euclidean"
    assert entries["cube"]["tiling_class"] == "spherical"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "specialize", "--solid", "cube", "--ring", "gf:5",
                       "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["group_order"] == 24 and report["recognized"] == "S4"


def test_out_to_unopenable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "analyze", "--ring", "zmod:5", "--x", "0", "--y", "0",
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"polyff: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ["relations", "--ring", "gf:2", "--format", "csv"],
    ["catalog", "--list"],
], ids=["relations-format", "catalog-list"])
def test_options_that_changed_nothing_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["specialize", "--solid", "cube"])  # missing --ring
    assert info.value.code == 2
    capsys.readouterr()


def test_nonpositive_options_rejected(capsys):
    assert run(capsys, "scan", "--ring", "gf:2", "--width", "0")[0] == 2
    assert run(capsys, "relations", "--ring", "gf:2", "--trials", "0")[0] == 2
    assert run(capsys, "analyze", "--ring", "gf:2", "--x", "0", "--y", "0",
               "--cap", "0")[0] == 2


def test_csv_format_single_report(capsys):
    code, out, _ = run(capsys, "specialize", "--solid", "cube", "--ring", "gf:5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,group_order,p,q,genus,degenerate,fingerprint,recognized"
    assert lines[1].startswith("0,0,24,3,4,0,false,")

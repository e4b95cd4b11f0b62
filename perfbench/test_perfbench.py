"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_perfbench.py

Not part of the repository's tier-1 suite (pytest collects ``tests/`` only).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from polyff import cli, groupgen, regmap  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {"run_s", "op_p50_ms", "op_p90_ms", "fail_ratio", "peak_rss_mb", "setup_s"}
PER_LAYER = {
    "rings.mul_calls", "rings.ring_make_s", "rings.sqrt_s", "rings.sqrt_calls",
    "mat3.products", "mat3.order_calls", "mat3.order_s", "universal.generators_s",
    "groupgen.closure_s", "groupgen.closure_elems", "groupgen.closure_elems_per_s",
    "groupgen.spectrum_s", "groupgen.spectrum_products_per_elem",
    "groupgen.cayley_retained_ratio", "regmap.analyze_self_s", "regmap.darts_s",
    "regmap.to_text_s", "regmap.equiv_s", "regmap.equiv_calls", "regmap.equiv_match_ratio",
    "catalog.specialize_self_s", "catalog.specialize_calls", "cli.self_s",
    "trace.overhead_ratio",
}


@pytest.fixture(scope="module")
def tiny():
    """A scan of GF(3) on a two-thread pool and one solid over one prime."""
    reference = workloads.load_reference()
    return [workloads.scan("gf:3", reference, width=2), workloads.specialize("icosahedron", 11)]


def test_end_to_end_metrics_emitted(tiny):
    outcomes = run.Outcomes()
    metrics, _ = run.measure_e2e(tiny, 0.0, outcomes)
    assert set(metrics) == END_TO_END
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(metrics)
    assert (outcomes.attempted, outcomes.failed) == (2, 0)
    assert all(v > 0 for k, v in metrics.items() if k != "fail_ratio")


def test_layer_metrics_emitted(tiny):
    outcomes = run.Outcomes()
    metrics, detail, spans = run.measure_layers(tiny, 0.0, outcomes)
    assert set(metrics) == PER_LAYER
    assert set(metrics) | END_TO_END == set(run.load_benchmark()[1])
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(metrics)
    assert outcomes.failed == 0
    assert metrics["rings.mul_calls"] > 0 and metrics["mat3.products"] > 0
    assert metrics["rings.sqrt_calls"] > 0 and metrics["catalog.specialize_calls"] == 1
    # every span's parent is a recorded span, including pool-thread spans under cli.main
    ids = {s.id for s in spans}
    assert all(s.parent is None or s.parent in ids for s in spans)
    assert len({s.thread for s in spans}) > 1


def test_counts_repeat_exactly(tiny):
    t = tracer.Tracer()
    first = run.traced_pass(t, tiny, run.Outcomes())[1]
    second = run.traced_pass(t, tiny, run.Outcomes())[1]
    assert {k: first[k] for k in tracer.COUNT_METRICS} == \
        {k: second[k] for k in tracer.COUNT_METRICS}


def test_uninstall_restores_the_program():
    originals = (cli.main, cli.generate, regmap.order_spectrum, groupgen.generate)
    t = tracer.Tracer()
    t.install()
    assert cli.generate is not originals[1] and regmap.order_spectrum is not originals[2]
    t.uninstall()
    assert (cli.main, cli.generate, regmap.order_spectrum, groupgen.generate) == originals


def test_corrupted_answer_counts_as_failed(tiny, monkeypatch):
    real = cli.report_dict

    def corrupted(*args, **kwargs):
        d = real(*args, **kwargs)
        d["group_order"] += 1
        return d
    monkeypatch.setattr(cli, "report_dict", corrupted)
    outcomes = run.Outcomes()
    run.run_pass([workloads.specialize("icosahedron", 11)], outcomes)
    assert (outcomes.attempted, outcomes.failed, outcomes.wrong) == (1, 1, 1)


def test_unreadable_answer_counts_as_wrong(monkeypatch):
    monkeypatch.setattr(cli, "_render_report", lambda args, d: "not json\n")
    outcomes = run.Outcomes()
    run.run_pass([workloads.specialize("icosahedron", 11)], outcomes)
    assert (outcomes.attempted, outcomes.failed, outcomes.wrong) == (1, 1, 1)


def test_nonzero_exit_fails_without_a_wrong_answer():
    outcomes = run.Outcomes()
    run.run_pass([workloads.specialize("icosahedron", 1013)], outcomes)
    assert (outcomes.attempted, outcomes.failed, outcomes.wrong) == (1, 1, 0)


def test_workloads_are_seeded():
    reference = workloads.load_reference()
    for make in workloads.WORKLOADS.values():
        assert [c.argv for c in make(1, reference)] == [c.argv for c in make(1, reference)]
    assert [c.argv for c in workloads.catalog_primes(1, reference)] != \
        [c.argv for c in workloads.catalog_primes(2, reference)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "scan_analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

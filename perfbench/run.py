"""polyff benchmark: run one workload for a time budget and report its metrics.

    python3 perfbench/run.py --workload scan_analyze --seed 1 --seconds 60 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The process is a closed loop with one client: it sends each CLI
command to ``polyff.cli.main`` in-process and the next only after the
previous one returned, in passes over the workload's command list, until
another pass would overrun ``--seconds``.  Every answer is checked.

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json ``end_to_end``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (BENCHMARK.json ``per_layer``) from the traced ones, plus
``trace.overhead_ratio``, the traced pass time over the untraced one, minus 1.

A table of every metric with its unit goes to stdout, then, as the last
line, one JSON object: ``correct`` (no answer differed from its reference),
``attempted`` and ``failed`` (commands; a command fails when it exits
non-zero or its answer is wrong) and ``metrics``.  The full result with a
machine block, and in trace mode the spans, is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 11
# fresh interpreter to ready: import, parser build, first ring_make of each ring
SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from polyff.cli import build_parser
from polyff.rings import ring_make
build_parser()
for spec in sys.argv[2:]:
    ring_make(spec)
"""

# units of the metrics that BENCHMARK.json leaves out (see README.md)
UNLISTED_UNITS = {"fail_ratio": "ratio", "rings.sqrt_s": "s", "regmap.darts_s": "s",
                  "regmap.to_text_s": "s", "regmap.equiv_s": "s",
                  "catalog.specialize_self_s": "s"}


def load_benchmark() -> tuple[dict, dict[str, str]]:
    """BENCHMARK.json, and the unit of every metric the runs report."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return bench, {**units, **UNLISTED_UNITS}


def import_program():
    """Import polyff from this checkout's src/, or exit 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import polyff
    except ImportError as exc:
        sys.exit(f"run.py: cannot import polyff from {SRC}: {exc}")
    if not Path(polyff.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: polyff came from {polyff.__file__}, not {SRC}")


def machine_block(seed: int) -> dict:
    try:  # the ceiling keeps git from reading above the checkout, which may not be a repo
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(), "seed": seed,
            "git_commit": commit}


def measure_setup(ring_specs: list[str]) -> float:
    """Seconds from starting a fresh interpreter until it is ready."""
    start = time.perf_counter()
    # no timeout: with one, wait() polls at up to 50 ms steps and the time reads coarse
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *ring_specs],
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


class Outcomes:
    """Tally of command outcomes over a run, with latencies per command of the workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.served_ms: dict[int, list[float]] = {}  # answered correctly
        self.all_ms: dict[int, list[float]] = {}

    def record(self, index: int, seconds: float, reason: str | None, wrong: bool) -> None:
        self.attempted += 1
        self.all_ms.setdefault(index, []).append(seconds * 1e3)
        if reason is None:
            self.served_ms.setdefault(index, []).append(seconds * 1e3)
            return
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def run_command(argv: tuple[str, ...]) -> tuple[float, int, str, str]:
    """Send one command to polyff.cli.main; return (seconds, exit code, stdout, stderr)."""
    from polyff import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not the end of the run
            code = -1
            traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(commands, outcomes: Outcomes) -> float:
    """One pass over the commands; returns the summed command wall time."""
    total = 0.0
    for index, command in enumerate(commands):
        seconds, code, out, err = run_command(command.argv)
        total += seconds
        wrong = False
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            reason = f"exit {code}: {last[0][:120]}"
        else:
            try:
                reason = command.check(json.loads(out))
            except (ValueError, KeyError, TypeError) as exc:  # not JSON, or fields missing
                reason = f"unreadable answer: {exc!r}"[:120]
            wrong = reason is not None
        outcomes.record(index, seconds, reason, wrong)
    return total


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_e2e(commands, seconds: float, outcomes: Outcomes) -> tuple[dict, dict]:
    rings = sorted({c.ring for c in commands})
    start = time.perf_counter()
    deadline = start + seconds
    passes: list[float] = []
    setup: list[float] = []
    while not passes or time.perf_counter() + passes[-1] <= deadline:
        # set-up probes are spread over the run, so that their median spans the
        # host's slow and fast spells instead of landing in one of them
        while (len(setup) < SETUP_REPEATS and
               time.perf_counter() >= start + len(setup) * seconds / SETUP_REPEATS):
            setup.append(measure_setup(rings))
        passes.append(run_pass(commands, outcomes))
    setup += [measure_setup(rings) for _ in range(SETUP_REPEATS - len(setup))]
    # one sample per command, its best time over the passes: the host's slow spells
    # (tens of seconds on a shared machine) lengthen some passes, a slower program
    # lengthens every one; and the tail is made of slow commands, not slow moments
    latencies = [min(v) for v in (outcomes.served_ms or outcomes.all_ms).values()]
    metrics = {
        "run_s": sum(min(v) for v in outcomes.all_ms.values()) / 1e3,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 90),
        "fail_ratio": outcomes.failed / outcomes.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    detail = {"pass_s": passes, "median_pass_s": statistics.median(passes),
              "latency_samples": len(latencies),
              "latency_of": "per-command best over passes, " +
              ("served commands" if outcomes.served_ms else "all commands"),
              "setup_samples_s": setup}
    return metrics, detail


def traced_pass(t, commands, outcomes: Outcomes) -> tuple[float, dict]:
    """One pass with the tracer installed; returns its time and per-layer metrics."""
    import tracer as tracing
    first_span, before = len(t.spans), t.totals()
    t.install()
    try:
        seconds = run_pass(commands, outcomes)
    finally:
        t.uninstall()
    return seconds, tracing.layer_metrics(t.spans[first_span:], t.totals() - before)


def measure_layers(commands, seconds: float, outcomes: Outcomes) -> tuple[dict, dict, list]:
    import tracer as tracing
    t = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(run_pass(commands, outcomes))
        pass_s, layers = traced_pass(t, commands, outcomes)
        traced.append(pass_s)
        per_pass.append(layers)
    metrics = tracing.combine_passes(per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    unsteady = [name for name in tracing.COUNT_METRICS
                if len({p[name] for p in per_pass}) > 1]
    detail = {"plain_pass_s": plain, "traced_pass_s": traced,
              "counts_repeat_exactly": not unsteady, "unsteady_counts": unsteady,
              "span_fields": tracing.SPAN_FIELDS}
    return metrics, detail, t.spans


def print_table(args, machine: dict, outcomes: Outcomes, metrics: dict, detail: dict,
                units: dict[str, str]) -> None:
    print(f"polyff benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"commands: {outcomes.attempted} attempted, {outcomes.failed} failed, "
          f"{outcomes.wrong} wrong answers")
    for reason, n in sorted(outcomes.reasons.items()):
        print(f"  failed x{n}: {reason}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value!r:>24} {units[name]}")
    for key, value in detail.items():
        if key != "span_fields":
            print(f"  {key}: {value}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    commands = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    machine = machine_block(args.seed)
    outcomes = Outcomes()
    spans = None
    if args.trace:
        metrics, detail, spans = measure_layers(commands, args.seconds, outcomes)
    else:
        metrics, detail = measure_e2e(commands, args.seconds, outcomes)

    bench, units = load_benchmark()
    print_table(args, machine, outcomes, metrics, detail, units)
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "seconds": args.seconds, "machine": machine,
            "failure_reasons": outcomes.reasons, "all_metrics": metrics, "detail": detail,
            "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": detail["span_fields"], "spans": spans}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

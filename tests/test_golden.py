"""Byte identity of CLI output against captured golden files.

``golden/cases.json`` names each command with its argv and exit code; its
stdout and stderr are stored byte for byte in ``golden/<name>.out`` and
``golden/<name>.err``.  The cases cover the four product kernels of the
ring core (residues mod n; table-indexed GF(p^k) with q <= 64; above 64,
two-digit GF(p^2), as in the gf:43 auto-extension, and Kronecker-packed
GF(p^3) and GF(p^4), as in gf:7^3 and gf:211^4) and the three output
formats.  The two gf:2^2 analyses pin rotations of order 1 (rho_e and
rho_f equal to the identity), whose Cayley-table columns map index 0 to
itself.  The zmod:7 exact scan pins
the ``#k`` numbering: 30 of its 44 classes have k >= 1.  The refusals pin
the bad-prime report over a composite modulus (exit 3), auto-extension
from a field that is not prime (exit 2), the square-root search cap past
cardinality 10^6 (gf:1913, exit 2) and a closure stopped by ``--cap``
(zmod:29, exit 4); the gf:101 relations survey pins the sampled path.
The gf:211^4 analysis pins the default quartic t^4+t+1, the first of
``_find_irreducible``'s candidates over F_211 that is irreducible.
The report's assembly is pinned per command: the grid prediction with a
verdict (triangular n = 7, text) and without one (square n = 2, whose
report is degenerate, so ``match`` is null), the bad-prime keys of
``catalog``, the one-row csv of ``specialize``, and scan rows stopped by
``--cap`` (zmod:9, exit 4).  ``scan-zmod4-cap1-json`` (captured before the
scan's JSON was laid out row by row) stops every row at ``--cap 1``: its
rows print ``null`` p, q and genus, its ``"classes"`` is the empty list
``[]``, and it exits 4.  The gf:3^2 exact scan pins the ``#k`` numbering
over an odd extension field, whose closed-form rows are keyed by their
traces and the rest by their darts, and the gf:7^2 analysis pins the
117,600-element group PGL(2, 49), answered in closed form without a walk.
The gf:2^4 exact scan (``scan-gf16-json-exact``, captured while its rows
still walked) pins the characteristic-2 closed form: one class per D_p,
including D17, whose rows have two Frobenius orbits of traces, and the two
C2 kinds (rho_e or rho_f the identity) as ``#0`` and ``#1``.
Two scans pin closed-form rows stopped by ``--cap`` over a field, both
exit 4: ``scan-gf5-cap20-json`` caps 23 of its 25 rows, across the det B = 0
rows (the shared T : H cap check), the PGL(2, 5) rows (the PSL/PGL check,
before any factorization) and the walked S4 rows; ``scan-gf8-cap7-csv``
caps its 42 D7 and D9 rows, characteristic 2 through the same T : H check.
Three cases pin the literal reader.  ``analyze-gf343-unreduced-literals-text``
reads ``3t^4+t+1`` and ``-t^2+5`` over the Kronecker field gf:7^3, a power
above k folded by the extension polynomial and a negative term, and
``analyze-zmod12-signed-literals-text`` reads the signed Z/nZ literals ``-1``
and ``+5``; both were captured before the one reader replaced the two per-ring
parsers.  ``analyze-gf3-t-refused`` pins the refusal of ``t`` over GF(p),
which has no t (exit 2).

To recapture after a deliberate output change, run from the repo root::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from polyff.cli import main

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "scan-gf8-text": ["scan", "--ring", "gf:2^3", "--format", "text"],
    "scan-gf5-csv": ["scan", "--ring", "gf:5", "--format", "csv"],
    "scan-gf4-json-exact": ["scan", "--ring", "gf:2^2", "--format", "json", "--exact-dedupe"],
    "scan-gf16-json-exact": ["scan", "--ring", "gf:2^4", "--format", "json", "--exact-dedupe"],
    "scan-zmod7-json-exact": ["scan", "--ring", "zmod:7", "--format", "json", "--exact-dedupe"],
    "analyze-gf9-darts": ["analyze", "--ring", "gf:3^2", "--x", "t", "--y", "t+1", "--darts"],
    "specialize-icosahedron-gf7-ext": ["specialize", "--solid", "icosahedron", "--ring", "gf:7",
                                       "--auto-extend", "--darts"],
    "specialize-dodecahedron-gf43-ext": ["specialize", "--solid", "dodecahedron",
                                         "--ring", "gf:43", "--auto-extend", "--format", "text"],
    "analyze-gf4-x0-y1-text": ["analyze", "--ring", "gf:2^2", "--x", "0", "--y", "1",
                               "--format", "text"],
    "analyze-gf4-x1-y0-text": ["analyze", "--ring", "gf:2^2", "--x", "1", "--y", "0",
                               "--format", "text"],
    "relations-gf101-sampled": ["relations", "--ring", "gf:101", "--trials", "50"],
    "specialize-icosahedron-zmod21-bad": ["specialize", "--solid", "icosahedron",
                                          "--ring", "zmod:21", "--auto-extend"],
    "specialize-dodecahedron-gf343-ext": ["specialize", "--solid", "dodecahedron",
                                          "--ring", "gf:7^3", "--auto-extend"],
    "analyze-gf1982119441-x0-y0-text": ["analyze", "--ring", "gf:211^4", "--x", "0", "--y", "0",
                                        "--format", "text"],
    "specialize-icosahedron-gf1913-ext": ["specialize", "--solid", "icosahedron",
                                          "--ring", "gf:1913", "--auto-extend"],
    "analyze-zmod29-cap10": ["analyze", "--ring", "zmod:29", "--x", "2", "--y", "3",
                             "--cap", "10"],
    "grid-square-n2": ["grid", "--family", "square", "--n", "2"],
    "grid-triangular-n7-text": ["grid", "--family", "triangular", "--n", "7", "--format", "text"],
    "catalog": ["catalog"],
    "specialize-cube-gf5-csv": ["specialize", "--solid", "cube", "--ring", "gf:5",
                                "--format", "csv"],
    "scan-zmod9-cap20-json": ["scan", "--ring", "zmod:9", "--cap", "20", "--format", "json"],
    "scan-zmod4-cap1-json": ["scan", "--ring", "zmod:4", "--cap", "1", "--format", "json"],
    "scan-gf9-json-exact": ["scan", "--ring", "gf:3^2", "--format", "json", "--exact-dedupe"],
    "analyze-gf49-x-t-y-t1": ["analyze", "--ring", "gf:7^2:t^2+2", "--x", "t", "--y", "t+1"],
    "scan-gf5-cap20-json": ["scan", "--ring", "gf:5", "--cap", "20", "--format", "json"],
    "scan-gf8-cap7-csv": ["scan", "--ring", "gf:2^3", "--cap", "7", "--format", "csv"],
    "analyze-gf343-unreduced-literals-text": ["analyze", "--ring", "gf:7^3", "--x", "3t^4+t+1",
                                              "--y=-t^2+5", "--cap", "100000000000",
                                              "--format", "text"],
    "analyze-zmod12-signed-literals-text": ["analyze", "--ring", "zmod:12", "--x", "-1",
                                            "--y", "+5", "--format", "text"],
    "analyze-gf3-t-refused": ["analyze", "--ring", "gf:3", "--x", "t", "--y", "0"],
}


def run(argv: list[str]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode(), err.getvalue().encode(), code


def _load_cases() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    case = _load_cases()[name]
    assert case["argv"] == CASES[name]
    out, err, code = run(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (GOLDEN / f"{name}.err").read_bytes()


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cases = {}
    for name, argv in CASES.items():
        out, err, code = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
        (GOLDEN / f"{name}.err").write_bytes(err)
        cases[name] = {"argv": argv, "exit": code}
    lines = [f" {json.dumps(name)}: {json.dumps(case)}" for name, case in cases.items()]
    (GOLDEN / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_golden()

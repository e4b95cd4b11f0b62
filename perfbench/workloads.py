"""The commands each benchmark workload sends, and how each answer is checked.

A workload is a list of ``Command``s built from the benchmark seed; one pass
sends them in order through ``polyff.cli.main``.  Every command carries a
check that reads the command's JSON answer and returns ``None`` when it is
right, or a one-line reason when it is not.  Checks compare mathematical
fields only (group order, p, q, genus, fingerprint, dart text), never
``recognized`` or formatting, so renaming a group does not count as a wrong
answer.

Scan and analyze answers are compared with ``reference.json``, which
``freeze_reference.py`` wrote from the program at the commit that defined the
benchmark.  Specialize answers are checked against the catalog's own expected
(p, q) and the classical group orders.

Import this module after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from polyff import catalog

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# orders of the rotation groups of the Platonic solids
SOLID_GROUP_ORDERS = {"A4": 12, "S4": 24, "A5": 60}
CATALOG_PRIME_RANGE = (7, 2000)
CATALOG_PRIME_BANDS = 10


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its answer must pass."""

    argv: tuple[str, ...]
    check: Callable[[dict], str | None]

    @property
    def ring(self) -> str:
        return self.argv[self.argv.index("--ring") + 1]


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_key(argv) -> str:
    """The argv without options that change no answer (width, format)."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg in ("--width", "--format"):
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


# ---------------------------------------------------------------------------
# answer summaries: the mathematical content of an answer

def scan_summary(answer: dict) -> dict:
    """Multiset of row invariants and the map classes of a ``scan`` answer."""
    rows = Counter(_canon([r["group_order"], r["p"], r["q"], r["genus"],
                           r["degenerate"], r["fingerprint"]])
                   for r in answer["rows"])
    classes = [[c["fingerprint"], c["count"], c["p"], c["q"], c["genus"], c.get("class")]
               for c in answer["classes"]]
    # sorted by canonical text: the fields mix ints and None, which do not compare
    return {"rows": [json.loads(k) + [n] for k, n in sorted(rows.items())],
            "classes": sorted(classes, key=_canon)}


def analyze_summary(answer: dict) -> dict:
    """Group order, (p, q), genus, fingerprint and dart-text digest of a report."""
    out = {k: answer[k] for k in ("group_order", "p", "q", "genus", "fingerprint")}
    if "darts" in answer:
        out["darts_sha256"] = hashlib.sha256(answer["darts"].encode()).hexdigest()
    return out


SUMMARIES = {"scan": scan_summary, "analyze": analyze_summary}


def _matches_reference(argv: tuple[str, ...], reference: dict) -> Callable[[dict], str | None]:
    key = reference_key(argv)
    expected = _canon(reference[key])  # KeyError here means reference.json lacks the command
    summarize = SUMMARIES[argv[0]]

    def check(answer: dict) -> str | None:
        if _canon(summarize(answer)) != expected:
            return f"{key}: answer differs from reference.json"
        return None
    return check


# ---------------------------------------------------------------------------
# command builders

def scan(ring: str, reference: dict, *, width: int = 1, exact: bool = False) -> Command:
    argv = ("scan", "--ring", ring, "--width", str(width), "--format", "json")
    if exact:
        argv += ("--exact-dedupe",)
    return Command(argv, _matches_reference(argv, reference))


def analyze_psl(p: int, x: str, y: str, reference: dict, *, darts: bool = False) -> Command:
    """``analyze`` over Z/pZ where the group is known to have order p(p^2 - 1)."""
    argv = ("analyze", "--ring", f"zmod:{p}", "--x", x, "--y", y)
    if darts:
        argv += ("--darts",)
    matches = _matches_reference(argv, reference)

    def check(answer: dict) -> str | None:
        if answer["group_order"] != p * (p * p - 1):
            return f"zmod:{p}: group order {answer['group_order']} != p(p^2-1)"
        return matches(answer)
    return Command(argv, check)


def specialize(solid: str, prime: int) -> Command:
    """``specialize --auto-extend`` of a Platonic solid over GF(prime)."""
    entry = catalog.CATALOG[solid]
    order = SOLID_GROUP_ORDERS[entry.expected_group]
    argv = ("specialize", "--solid", solid, "--ring", f"gf:{prime}", "--auto-extend")

    def check(answer: dict) -> str | None:
        got = (answer["p"], answer["q"], answer["group_order"], answer["genus"],
               answer["degenerate"])
        want = (*entry.expected_pq, order, 0, False)
        if got != want:
            return f"{solid} over gf:{prime}: (p, q, order, genus, degenerate) {got} != {want}"
        return None
    return Command(argv, check)


# ---------------------------------------------------------------------------
# workloads: seed -> commands

def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


def scan_analyze(seed: int, reference: dict) -> list[Command]:
    """Whole-ring scans, then the analysis of two large groups.

    GF(5) and GF(2^3) run tuple field arithmetic and the generic Mat3
    product (k = 1 and k = 3); Z/7Z with exact dedupe runs ZMod's inlined
    product and the O(n^2) maps_equivalent search.  Z/29Z closes a group of
    order 24,360, above the Cayley retention bound, and Z/19Z exports the
    darts of one of order 6,840.  The seed orders the three scans.
    """
    scans = [scan("gf:5", reference), scan("gf:2^3", reference),
             scan("zmod:7", reference, exact=True)]
    random.Random(seed).shuffle(scans)
    return scans + [analyze_psl(29, "2", "3", reference),
                    analyze_psl(19, "2", "3", reference, darts=True)]


def catalog_primes(seed: int, reference: dict) -> list[Command]:
    """Every solid over 40 primes drawn by the seed from [7, 2000).

    Two primes come from each of 20 strata: ten equal-width bands of the
    range, times whether 5 is a square mod p.  So every seed has the same mix
    of prime sizes, of solids that need GF(p^2), and of refusals above
    p = 1000, and the seed changes which primes, not how much work.
    """
    lo, hi = CATALOG_PRIME_RANGE
    strata: dict[tuple[int, bool], list[int]] = {}
    for p in _primes(lo, hi):
        band = (p - lo) * CATALOG_PRIME_BANDS // (hi - lo)
        strata.setdefault((band, pow(5, (p - 1) // 2, p) == 1), []).append(p)
    rng = random.Random(seed)
    primes = sorted(p for key in sorted(strata) for p in rng.sample(strata[key], 2))
    return [specialize(solid, p) for p in primes for solid in catalog.SOLIDS]


WORKLOADS = {
    "scan_analyze": scan_analyze,
    "catalog_primes": catalog_primes,
}

# every command whose answer reference.json records; "scan gf:3" serves the self-test
REFERENCE_ARGVS = (
    ("scan", "--ring", "gf:3", "--format", "json"),
    ("scan", "--ring", "gf:5", "--format", "json"),
    ("scan", "--ring", "gf:2^3", "--format", "json"),
    ("scan", "--ring", "zmod:7", "--format", "json", "--exact-dedupe"),
    ("analyze", "--ring", "zmod:29", "--x", "2", "--y", "3"),
    ("analyze", "--ring", "zmod:19", "--x", "2", "--y", "3", "--darts"),
)

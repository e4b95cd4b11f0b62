"""Command-line driver: specialization runs, grid experiments, raw-parameter
analysis, whole-ring scans, relation self-tests, and catalog dumps.

Exit codes: 0 success; 2 bad arguments; 3 bad prime / extension disabled;
4 closure cap exceeded; 5 internal invariant violation (including relation
failures).
"""

from __future__ import annotations

import argparse
from array import array
import csv
import functools
import io
import itertools
import json
import sys

from . import catalog
from .errors import (
    BadPrime,
    CapExceeded,
    ExtensionDisabled,
    InvariantViolation,
    PolyffError,
    UnsupportedRing,
)
from .groupgen import CLOSURE_CAP_DEFAULT, FactTable, GeneratedGroup, closed_form, generate
from .regmap import RegularMapReport, _map_report, analyze, dart_model
from .rings import Ring, ZMod, ring_make
from .universal import GeneratorSet, PolyhedronParams, survey_relations

SCHEMA_VERSION = 1
SCAN_CARDINALITY_DEFAULT = 64

SCAN_COLUMNS = ("x", "y", "group_order", "p", "q", "genus",
                "degenerate", "fingerprint", "recognized")


def run_pipeline(params: PolyhedronParams,
                 cap: int = CLOSURE_CAP_DEFAULT) -> tuple[GeneratedGroup, RegularMapReport]:
    """Generators -> closure -> map report, for one parameter pair: the walk any row can take."""
    gens = GeneratorSet.from_params(params)
    group = generate([gens.rho_v, gens.rho_e, gens.rho_f], cap=cap)
    return group, analyze(group)


def _row(params: PolyhedronParams, cap: int, walk: bool = False,
         facts: FactTable | None = None):
    """One row's (report, walked group or None, closed-form dedupe key or None).

    A row that ``closed_form`` answers (over a field: in characteristic 2
    every row, in odd characteristic every row but those its trace screen
    keeps) skips the walk; every other row walks.  ``facts`` is the
    command's ``FactTable``, None for a command of one row.  With ``walk``
    (``--darts``), a closed-form row walks too, and the walk's |G|, p,
    e_order and q must agree with the closed form.  The walk takes the
    closed form's fingerprint, so this check does not compare the spectrum
    or the center; ``tests/test_groupgen.py``'s differential test compares
    the closed form's whole fingerprint with the walk's on every row of
    thirteen rings.
    """
    gens = GeneratorSet.from_params(params)
    rhos = [gens.rho_v, gens.rho_e, gens.rho_f]
    answer = closed_form(params, gens, cap, facts)
    if answer is None:
        group = generate(rhos, cap=cap)
        return analyze(group), group, None
    fp, p, e_order, q, key = answer
    report = _map_report(fp.order, p, e_order, q, fp,
                         None if facts is None else facts.recognize(fp))
    if not walk:
        return report, None, key
    group = generate(rhos, cap=cap)
    if analyze(group, report.fingerprint) != report:
        raise InvariantViolation(f"the walk of ({params.x}, {params.y}) disagrees with "
                                 f"its closed form |G| = {report.group_order}")
    return report, group, key


def report_dict(ring: Ring, params: PolyhedronParams, report: RegularMapReport) -> dict:
    """The report as every output format prints it, before any command's extra keys."""
    return {"schema": SCHEMA_VERSION, "ring": ring.spec_string(),
            "x": str(params.x), "y": str(params.y), **vars(report),
            "fingerprint": report.fingerprint.serialize(),
            "bad_primes_computed": None, "bad_primes_paper": None}


def _bad_prime_keys(primes: catalog.BadPrimeReport) -> dict:
    return {"bad_primes_computed": sorted(primes.computed),
            "bad_primes_paper": sorted(primes.published) if primes.published is not None else None,
            "bad_primes_discrepancy": primes.discrepancy,
            "needs_extension": sorted(primes.needs_extension)}


def _require_positive(**named: int) -> None:
    for name, value in named.items():
        if value < 1:
            raise PolyffError(f"--{name} must be >= 1, got {value}")


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise PolyffError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _render_report(args, d: dict) -> str:
    if args.format == "json":
        return json.dumps(d, indent=2) + "\n"
    if args.format == "text":
        return "".join(f"{k}: {json.dumps(v) if isinstance(v, (list, dict)) else v}\n"
                       for k, v in d.items())
    return _csv_text([d])


def _csv_values(d: dict) -> list[str]:
    vals = []
    for col in SCAN_COLUMNS:
        v = d.get(col)
        if v is None:
            vals.append("")
        elif isinstance(v, bool):
            vals.append("true" if v else "false")
        else:
            vals.append(str(v))
    return vals


def _csv_text(rows: list[dict]) -> str:
    """A header of the scan columns, then one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    writer.writerows(map(_csv_values, rows))
    return out.getvalue()


def _report_command(args, ring: Ring, params: PolyhedronParams,
                    extra_keys=lambda report: {}) -> int:
    """Run one parameter pair and emit its report, with the command's extra keys."""
    if args.darts and args.format == "csv":
        raise PolyffError("--darts needs --format json or text: csv prints only the scan columns")
    report, group, _ = _row(params, args.cap, walk=args.darts)
    d = report_dict(ring, params, report)
    d.update(extra_keys(report))
    if args.darts:
        d["darts"] = dart_model(group).to_text()
    _emit(args, _render_report(args, d))
    return 0


# ---------------------------------------------------------------------------
# commands

def cmd_specialize(args) -> int:
    _require_positive(cap=args.cap)
    ring = ring_make(args.ring)
    entry = catalog.platonic_params(args.solid)
    primes = catalog.bad_primes(entry)
    params, used = catalog.specialize(entry, ring, auto_extend=args.auto_extend)
    return _report_command(args, used, params, lambda report: _bad_prime_keys(primes))


def cmd_analyze(args) -> int:
    _require_positive(cap=args.cap)
    ring = ring_make(args.ring)
    return _report_command(args, ring, PolyhedronParams(ring.parse_elem(args.x),
                                                        ring.parse_elem(args.y)))


def cmd_grid(args) -> int:
    _require_positive(cap=args.cap)
    name = "square_tiling" if args.family == "square" else "triangular_tiling"
    params, used = catalog.specialize(name, ZMod(args.n))
    prediction: dict = {"family": args.family, "n": args.n}
    if args.family == "square":
        k = args.n // 2 if args.n % 2 == 0 else args.n
        prediction["grid"] = f"{k}x{k}"
        prediction["predicted_group_order"] = 4 * k * k

        def holds(r):
            return r.group_order == 4 * k * k and (r.p, r.q) == (4, 4)
    else:
        prediction["expected_pq"] = [6, 3]
        prediction["expected_ratio"] = "V:E:F = 1:3:2"

        def holds(r):
            return (r.p, r.q) == (6, 3) and r.E == 3 * r.V and r.F == 2 * r.V

    def extra_keys(report):
        # a degenerate report gets no verdict
        return {"prediction": {**prediction,
                               "match": None if report.degenerate else holds(report)}}
    return _report_command(args, used, params, extra_keys)


def _scan_row(facts: FactTable, names: list[str], x, y, cap: int, exact: bool):
    """One scan cell: returns (row dict, dart key or None).

    ``facts`` is the scan's ``FactTable`` and ``names[u]`` the text of code
    u.  The row holds the scan columns and ``cap_exceeded``, read from the
    report.  When the closure passes ``cap``, the row has ``cap_exceeded``
    true and ``group_order`` holds the partial count, which is the cap: the
    group has more elements, and the closure may have stopped in its row
    pass before it walked any element.

    With ``exact``, the key is equal for two rows of one fingerprint exactly
    when their maps are equivalent: a closed-form row's key from
    ``closed_form``, the least Frobenius image of (t_v, t_f) or, in
    characteristic 2, (e_order, q) (tests check it against the dart keys),
    or the bytes of a walked row's three dart permutations.  ``generate``
    numbers the darts by a breadth-first walk from dart 0 (``dart_model``
    rejects any other numbering).  The actions are regular, so a
    conjugating bijection may be taken to fix dart 0, and along the walk it
    fixes all.
    """
    try:
        report, group, key = _row(PolyhedronParams(x, y), cap, facts=facts)
    except CapExceeded as exc:
        row = {"x": names[x.val], "y": names[y.val], "group_order": exc.cap,
               "p": None, "q": None, "genus": None, "degenerate": True,
               "fingerprint": "", "recognized": "cap_exceeded",
               "cap_exceeded": True}
        return row, None
    row = {"x": names[x.val], "y": names[y.val], "group_order": report.group_order,
           "p": report.p, "q": report.q, "genus": report.genus,
           "degenerate": report.degenerate, "fingerprint": facts.serialize(report.fingerprint),
           "recognized": report.recognized, "cap_exceeded": False}
    if not exact:
        return row, None
    if key is None:
        # the rows of one fingerprint have one |G|, so their keys have one item width
        code = "H" if group.order <= 1 << 16 else "l"
        key = b"".join(array(code, perm).tobytes() for perm in dart_model(group).perms())
    return row, key


# ``json.dumps(obj, indent=2)`` of a flat dict at depth 2, braces aside, from the C encoder
_json_object = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _json_objects(items: list[dict]) -> str:
    """``json.dumps(items, indent=2)`` of flat dicts at depth 1, with one encoder call each."""
    if not items:
        return "[]"
    return ("[\n    {\n      "
            + "\n    },\n    {\n      ".join(_json_object(d)[1:-1] for d in items)
            + "\n    }\n  ]")


def cmd_scan(args) -> int:
    """Every (x, y) pair of a small ring, as rows and classes.

    Over a field of characteristic p, the Frobenius u -> u^p is a ring
    automorphism, and ``make_rhos`` has integer-polynomial entries, so
    (x^p, y^p) gives the rotations of (x, y) with every entry mapped by it.
    The closure then walks in lockstep and builds the same Cayley table:
    the report, a cap stop and the dart key agree, and a closed-form row
    has mapped traces, so the same screen, q', spectrum and orbit key.  So
    each Frobenius orbit of pairs is answered once, at its least pair, which
    ``itertools.product`` visits first, and its other pairs copy that row
    with their own x and y.  On any other ring the map is the identity and
    every orbit is one pair.  The rows share one ``FactTable``, which takes
    the Frobenius table and is dropped when the scan ends.
    """
    _require_positive(cap=args.cap, width=args.width)
    ring = ring_make(args.ring)
    if ring.cardinality > args.max_cardinality:
        raise UnsupportedRing(
            f"scan over cardinality {ring.cardinality} refused "
            f"(limit {args.max_cardinality}; raise with --max-cardinality)")
    elements = list(ring.elements())
    names = [str(u) for u in elements]
    frob = [ring._pow(u, ring.modulus if ring.is_field else 1)
            for u in range(ring.cardinality)]
    facts = FactTable(ring, frob)
    exact = args.exact_dedupe
    rows = []
    classes: dict[str, dict] = {}
    numbers: dict[str, dict[bytes, int]] = {}  # per fingerprint: dart key -> k of "#k"
    answers: dict[tuple[int, int], tuple[dict, dict | None]] = {}  # least pair -> row, class
    for x, y in itertools.product(elements, repeat=2):
        orbit = [(x.val, y.val)]
        while (image := (frob[orbit[-1][0]], frob[orbit[-1][1]])) not in orbit:
            orbit.append(image)
        least = min(orbit)
        if least in answers:
            first, cls = answers[least]
            row = {**first, "x": names[x.val], "y": names[y.val]}
        else:
            row, darts = _scan_row(facts, names, x, y, args.cap, exact)
            cls = None
            if not row["cap_exceeded"]:
                fp = key = row["fingerprint"]
                if exact:
                    known = numbers.setdefault(fp, {})
                    key = f"{fp}#{known.setdefault(darts, len(known))}"
                cls = classes.get(key)
                if cls is None:
                    cls = classes[key] = {"fingerprint": fp, "count": 0,
                                          "recognized": row["recognized"],
                                          "first_x": row["x"], "first_y": row["y"],
                                          "p": row["p"], "q": row["q"], "genus": row["genus"]}
                    if exact:
                        cls["class"] = key
            answers[least] = row, cls
        rows.append(row)
        if cls is not None:
            cls["count"] += 1
    class_list = [classes[k] for k in sorted(classes)]
    cap_rows = sum(1 for r in rows if r["cap_exceeded"])

    if args.format == "csv":
        _emit(args, _csv_text(rows))
        for cls in class_list:
            print(f"# class {cls.get('class', cls['fingerprint'])}: "
                  f"count={cls['count']} recognized={cls['recognized']}", file=sys.stderr)
    elif args.format == "json":
        # the bytes of json.dumps(payload, indent=2), with the C encoder doing each row
        _emit(args, f'{{\n  "schema": {SCHEMA_VERSION},'
                    f'\n  "ring": {json.dumps(ring.spec_string())},'
                    f'\n  "rows": {_json_objects(rows)},'
                    f'\n  "classes": {_json_objects(class_list)}\n}}\n')
    else:
        lines = []
        for row in rows:
            lines.append(" ".join(f"{c}={v}" for c, v in zip(SCAN_COLUMNS, _csv_values(row))))
        lines.append(f"classes: {len(class_list)}")
        for cls in class_list:
            lines.append(f"  {cls.get('class', cls['fingerprint'])} count={cls['count']} "
                         f"recognized={cls['recognized']}")
        _emit(args, "\n".join(lines) + "\n")
    return 4 if cap_rows else 0


def cmd_relations(args) -> int:
    _require_positive(trials=args.trials)
    ring = ring_make(args.ring)
    survey = survey_relations(ring, args.trials)
    payload = {
        "schema": SCHEMA_VERSION,
        "ring": survey.ring_spec,
        "pairs_tested": survey.pairs_tested,
        "exhaustive": survey.exhaustive,
        "failures": [{"x": x, "y": y, "relation": rel} for x, y, rel in survey.failures],
        "all_passed": survey.all_passed,
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0 if survey.all_passed else 5


def cmd_catalog(args) -> int:
    lines = []
    for name, entry in catalog.CATALOG.items():
        lines.append(json.dumps({
            "name": name,
            "x": entry.x.to_json(),
            "y": entry.y.to_json(),
            "expected_pq": list(entry.expected_pq),
            "expected_group": entry.expected_group,
            "tiling_class": catalog.classify_pq(*entry.expected_pq).value,
            **_bad_prime_keys(catalog.bad_primes(entry)),
        }))
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub, ring=True, cap=True, fmt="json", darts=False):
    if ring:
        sub.add_argument("--ring", required=True, help="ring spec, e.g. zmod:12 or gf:7^2")
    if cap:
        sub.add_argument("--cap", type=int, default=CLOSURE_CAP_DEFAULT,
                         help="closure element cap")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv", "text"), default=fmt)
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if darts:
        sub.add_argument("--darts", action="store_true",
                         help="include dart permutations in the report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="polyff",
        description="Regular polyhedra and regular maps over finite rings.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("specialize", help="run a catalog solid over a ring")
    sp.add_argument("--solid", required=True, choices=sorted(catalog.CATALOG))
    sp.add_argument("--auto-extend", action="store_true",
                    help="retry over GF(p^2) when sqrt5 is missing")
    _add_common(sp, darts=True)
    sp.set_defaults(func=cmd_specialize)

    an = subs.add_parser("analyze", help="run raw (x, y) parameters over a ring")
    an.add_argument("--x", required=True, help="element literal for x")
    an.add_argument("--y", required=True, help="element literal for y")
    _add_common(an, darts=True)
    an.set_defaults(func=cmd_analyze)

    gr = subs.add_parser("grid", help="square/triangular tiling over Z/nZ with prediction")
    gr.add_argument("--family", required=True, choices=("square", "triangular"))
    gr.add_argument("--n", required=True, type=int, help="modulus n >= 2")
    _add_common(gr, ring=False, darts=True)
    gr.set_defaults(func=cmd_grid)

    sc = subs.add_parser("scan", help="run every (x, y) pair of a small ring")
    sc.add_argument("--width", type=int, default=1,
                    help="ignored (must be >= 1): rows are computed on the calling thread")
    sc.add_argument("--exact-dedupe", action="store_true",
                    help="split map classes by dart-model conjugacy, not just fingerprint")
    sc.add_argument("--max-cardinality", type=int, default=SCAN_CARDINALITY_DEFAULT)
    _add_common(sc, fmt="csv")
    sc.set_defaults(func=cmd_scan)

    re_ = subs.add_parser("relations", help="assert the defining relations over a ring")
    re_.add_argument("--trials", type=int, default=50,
                     help="sample size (exhaustive when the ring is small enough)")
    _add_common(re_, cap=False, fmt=None)
    re_.set_defaults(func=cmd_relations)

    ca = subs.add_parser("catalog", help="dump the built-in parameter catalog")
    _add_common(ca, ring=False, cap=False, fmt=None)
    ca.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadPrime, ExtensionDisabled) as exc:
        print(f"polyff: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"polyff: {exc}", file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print(f"polyff: internal invariant violation: {exc}", file=sys.stderr)
        return 5
    except PolyffError as exc:
        print(f"polyff: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

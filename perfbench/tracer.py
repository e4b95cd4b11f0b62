"""Outside-in tracing of polyff's layers, installed from the benchmark's own files.

``Tracer.install`` wraps the public entry points of each module (``rings``,
``mat3``, ``universal``, ``groupgen``, ``regmap``, ``catalog``, ``cli``) without
editing ``src/``, and ``uninstall`` puts the originals back.  A module that
imported a wrapped function by name (``cli`` imports ``generate``, ``regmap``
imports ``order_spectrum``, ...) holds its own reference, so every ``polyff``
module attribute bound to an original is rebound to the wrapper.

Three kinds of wrapper:

* spans, around calls made a few hundred times per pass: one record each
  (id, name, wall start and end, parent, thread, CPU time), kept in memory
  and written out by the caller at the end;
* counters, around the hot functions ``Mat3.__mul__`` and each ring's
  ``_mul``: a per-thread count only, since a span per call would cost more
  than the call;
* timed counters, around ``Mat3.order``: a per-thread count and CPU time,
  charged to the enclosing span so its self time stays right.

Layer times are thread CPU seconds, not wall seconds: the scan's pool
threads take turns on the interpreter lock, so summing their spans' wall
times would count the waits for the lock as work.

Counters are kept per thread and summed, because ``+=`` on a shared int can
lose updates when the scan's pool threads race.  A span that starts with an
empty stack on a pool thread takes the main thread's open root span (the
``cli.main`` call) as its parent.  Only this process is traced: work that the
program sends to other processes is invisible here.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict, namedtuple
from dataclasses import astuple, dataclass
from time import perf_counter, thread_time

from polyff import catalog, cli, groupgen, mat3, regmap, rings, universal

# (owner, attribute, span name, summary of the call kept on the span)
SPANNED = (
    (cli, "main", "cli.main", None),
    (rings, "ring_make", "rings.ring_make", None),
    (rings, "sqrt_in_field", "rings.sqrt_in_field", None),
    (universal.GeneratorSet, "from_params", "universal.generators", None),
    (groupgen, "generate", "groupgen.closure",
     lambda args, result: (result.order, result.cayley is not None)),
    (groupgen, "order_spectrum", "groupgen.spectrum", lambda args, result: args[0].order),
    (regmap, "analyze", "regmap.analyze", None),
    (regmap, "dart_model", "regmap.darts", None),
    (regmap.DartModel, "to_text", "regmap.to_text", None),
    (regmap, "maps_equivalent", "regmap.equiv", lambda args, result: bool(result)),
    (catalog, "specialize", "catalog.specialize", None),
)

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "cpu_s", "timed_child_cpu_s",
               "products", "info")
Span = namedtuple("Span", SPAN_FIELDS)


@dataclass
class Counts:
    """One thread's counters."""

    ring_mul: int = 0
    products: int = 0
    order_calls: int = 0
    order_s: float = 0.0

    def __sub__(self, other: Counts) -> Counts:
        return Counts(*(a - b for a, b in zip(astuple(self), astuple(other))))


class _ThreadState(threading.local):
    def __init__(self, registry: list):
        self.stack: list[list] = []  # open spans: [id, timed child seconds]
        self.counts = Counts()
        registry.append(self.counts)  # list.append is atomic


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._registry: list[Counts] = []
        self._local = _ThreadState(self._registry)
        self._ids = itertools.count(1)  # next() is atomic
        self._root = None  # open root span of the main thread
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, summary in SPANNED:
            self._replace(owner, attr, self._span(name, getattr(owner, attr), summary))
        for ring_cls in _subclasses(rings.Ring):
            if "_mul" in vars(ring_cls):
                self._replace(ring_cls, "_mul", self._counted(ring_cls._mul, "ring_mul"))
        self._replace(mat3.Mat3, "__mul__", self._counted(mat3.Mat3.__mul__, "products"))
        self._replace(mat3.Mat3, "order", self._timed_order(mat3.Mat3.order))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "polyff"]:
            for name, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, summary):
        local = self._local
        spans = self.spans
        ids = self._ids
        main_thread = threading.main_thread()

        def wrapper(*args, **kwargs):
            stack = local.stack
            counts = local.counts
            sid = next(ids)
            if stack:
                parent = stack[-1][0]
            elif threading.current_thread() is main_thread:
                parent = None
                self._root = sid
            else:
                parent = self._root
            frame = [sid, 0.0]
            stack.append(frame)
            products = counts.products
            info = None
            start = perf_counter()
            cpu = thread_time()
            try:
                result = fn(*args, **kwargs)
                if summary is not None:
                    info = summary(args, result)
                return result
            finally:
                cpu = thread_time() - cpu
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, threading.get_ident(),
                                  cpu, frame[1], counts.products - products, info))
        return wrapper

    def _counted(self, fn, field: str):
        local = self._local
        if field == "ring_mul":
            def wrapper(*args):
                local.counts.ring_mul += 1
                return fn(*args)
        else:
            def wrapper(*args):
                local.counts.products += 1
                return fn(*args)
        return wrapper

    def _timed_order(self, fn):
        local = self._local

        def wrapper(*args, **kwargs):
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                counts = local.counts
                counts.order_calls += 1
                counts.order_s += elapsed
                if local.stack:
                    local.stack[-1][1] += elapsed
        return wrapper

    # -- reading -------------------------------------------------------------

    def totals(self) -> Counts:
        out = Counts()
        for c in list(self._registry):
            out.ring_mul += c.ring_mul
            out.products += c.products
            out.order_calls += c.order_calls
            out.order_s += c.order_s
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def layer_metrics(spans: list[Span], counts: Counts) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counter totals.

    A span's self time is its CPU time minus that of its children on the same
    thread and of the timed calls made directly under it.  Children on pool
    threads spend other threads' CPU, so they are not subtracted.
    """
    thread_of = {s.id: s.thread for s in spans}
    child_cpu = defaultdict(float)
    for s in spans:
        if s.parent is not None and thread_of.get(s.parent) == s.thread:
            child_cpu[s.parent] += s.cpu_s
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    for s in spans:
        total[s.name] += s.cpu_s
        self_s[s.name] += s.cpu_s - child_cpu[s.id] - s.timed_child_cpu_s
        calls[s.name] += 1

    closures = [s.info for s in spans if s.name == "groupgen.closure" and s.info is not None]
    closure_elems = sum(order for order, _ in closures)
    spectra = [s for s in spans if s.name == "groupgen.spectrum" and s.info is not None]
    matches = sum(1 for s in spans if s.name == "regmap.equiv" and s.info)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "rings.mul_calls": counts.ring_mul,
        "rings.ring_make_s": total["rings.ring_make"],
        "rings.sqrt_s": total["rings.sqrt_in_field"],
        "rings.sqrt_calls": calls["rings.sqrt_in_field"],
        "mat3.products": counts.products,
        "mat3.order_calls": counts.order_calls,
        "mat3.order_s": counts.order_s,
        "universal.generators_s": total["universal.generators"],
        "groupgen.closure_s": total["groupgen.closure"],
        "groupgen.closure_elems": closure_elems,
        "groupgen.closure_elems_per_s": ratio(closure_elems, total["groupgen.closure"]),
        "groupgen.spectrum_s": total["groupgen.spectrum"],
        "groupgen.spectrum_products_per_elem":
            ratio(sum(s.products for s in spectra), sum(s.info for s in spectra)),
        "groupgen.cayley_retained_ratio":
            ratio(sum(1 for _, kept in closures if kept), len(closures)),
        "regmap.analyze_self_s": self_s["regmap.analyze"],
        "regmap.darts_s": total["regmap.darts"],
        "regmap.to_text_s": total["regmap.to_text"],
        "regmap.equiv_s": total["regmap.equiv"],
        "regmap.equiv_calls": calls["regmap.equiv"],
        "regmap.equiv_match_ratio": ratio(matches, calls["regmap.equiv"]),
        "catalog.specialize_self_s": self_s["catalog.specialize"],
        "catalog.specialize_calls": calls["catalog.specialize"],
        "cli.self_s": self_s["cli.main"],
    }


COUNT_METRICS = ("rings.mul_calls", "rings.sqrt_calls", "mat3.products", "mat3.order_calls",
                 "groupgen.closure_elems", "regmap.equiv_calls", "catalog.specialize_calls")


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; counts are taken from the first pass (they repeat exactly)."""
    return {name: per_pass[0][name] if name in COUNT_METRICS
            else statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}

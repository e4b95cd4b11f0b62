"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps polyff's entry points by name (``Mat3.order``,
``Mat3.__mul__``, each ring's ``_mul``, ``regmap.order_spectrum``, ...).  A
rename or deletion in ``src/`` breaks ``perfbench/run.py --trace 1`` without
failing any other test, so this one installs the tracer around a CLI call.
``perfbench/`` is put on ``sys.path``; nothing there is copied or edited.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polyff import cli, groupgen, mat3, regmap, universal
from polyff.rings import ring_make
from polyff.universal import PolyhedronParams, make_rhos

from oracles import closure_elements

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def wrapped():
        return (cli.main, cli.generate, groupgen.generate, regmap.order_spectrum,
                vars(mat3.Mat3)["__mul__"], vars(mat3.Mat3)["order"],
                vars(universal.GeneratorSet)["from_params"])

    originals = wrapped()
    t = tracer.Tracer()
    try:
        t.install()  # a KeyError here names a wrapped function that is gone
        assert cli.main is not originals[0]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["analyze", "--ring", "gf:3", "--x", "0", "--y", "0"])
    finally:
        t.uninstall()
    assert code == 0 and out.getvalue()
    assert t.totals().products > 0
    assert {s.name for s in t.spans} >= {"cli.main", "universal.generators", "groupgen.closure",
                                         "groupgen.spectrum", "regmap.analyze"}
    assert wrapped() == originals


@pytest.mark.parametrize("ring, x, y", [("zmod:7", "2", "3"), ("gf:2^2", "t", "t+1")])
def test_no_matrix_product_after_the_closure(monkeypatch, ring, x, y):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        with redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", "--ring", ring, "--x", x, "--y", y])
    finally:
        t.uninstall()
    assert code == 0
    [closure] = [s for s in t.spans if s.name == "groupgen.closure"]
    [spectrum] = [s for s in t.spans if s.name == "groupgen.spectrum"]
    order, _ = closure.info
    assert order > 1
    # one product per generator for each batch of three rows of the row
    # orbit; in both groups no batch is short before the orbit is complete
    elem = ring_make(ring).elem
    group = groupgen.generate(list(make_rhos(PolyhedronParams(elem(x), elem(y)))))
    n_rows = len({m.vals[i:i + 3] for m in closure_elements(group) for i in (0, 3, 6)})
    assert closure.products == 3 * math.ceil(n_rows / 3)
    assert closure.products < 3 * order  # fewer products than Cayley-table entries
    assert spectrum.products == 0
    assert t.totals().products == closure.products

"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps polyff's entry points by name (``Mat3.order``,
``Mat3.__mul__``, each ring's ``_mul``, ``regmap.order_spectrum``, ...).  A
rename or deletion in ``src/`` breaks ``perfbench/run.py --trace 1`` without
failing any other test, so this one installs the tracer around a CLI call.
``perfbench/`` is put on ``sys.path``; nothing there is copied or edited.
The tracer counts ``Mat3.__mul__``, which the closure does not call, so the
closure's products are counted on the ring's row kernel instead.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from polyff import cli, groupgen, mat3, regmap, universal
from polyff.rings import ring_make

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
        # the closure multiplies rows through the ring's kernel, not Mat3.__mul__,
        # so the product counter is checked on a product of its own
        products = t.totals().products
        ident = mat3.Mat3.identity(ring_make("gf:3"))
        assert ident * ident == ident
        assert t.totals().products == products + 1
    finally:
        t.uninstall()
    assert code == 0 and out.getvalue()
    assert {s.name for s in t.spans} >= {"cli.main", "universal.generators", "groupgen.closure",
                                         "groupgen.spectrum", "regmap.analyze"}
    assert wrapped() == originals


# at (0, 0) zmod:7 and gf:3^2 have an invariant form and walk: their group is
# S4; gf:3^2 keeps the table-field kernel covered
@pytest.mark.parametrize("ring, x, y", [("zmod:7", "0", "0"), ("gf:3^2", "0", "0")])
def test_no_matrix_product_after_the_closure(monkeypatch, ring, x, y):
    # every product goes through the ring's one kernel: count the rows it
    # multiplies inside the CLI's closure call, and in the whole command
    kernel_cls = type(ring_make(ring))
    rows_mul, generate = kernel_cls._rows_mul, cli.generate
    multiplied = 0
    closures = []

    def counted(self, rows, b):
        nonlocal multiplied
        multiplied += len(rows)
        return rows_mul(self, rows, b)

    def closure(*args, **kwargs):
        before = multiplied
        group = generate(*args, **kwargs)
        closures.append((group, multiplied - before))
        return group

    monkeypatch.setattr(kernel_cls, "_rows_mul", counted)
    monkeypatch.setattr(cli, "generate", closure)
    with redirect_stdout(io.StringIO()):
        code = cli.main(["analyze", "--ring", ring, "--x", x, "--y", y])
    in_command = multiplied
    assert code == 0
    [(group, in_closure)] = closures
    assert group.order > 1
    # the row orbit multiplies each of its rows once by each of the three generators
    n_rows = len({m.vals[i:i + 3] for m in closure_elements(group) for i in (0, 3, 6)})
    assert in_closure == 3 * n_rows
    assert in_command == in_closure  # the spectrum and the report multiply none


def test_closed_form_analyze_multiplies_only_the_certificate(monkeypatch):
    # zmod:7 at (2, 3) is PGL(2, 7), answered from the traces: no closure, and
    # the kernel multiplies only g^T B g, two products of three rows per rotation
    kernel_cls = type(ring_make("zmod:7"))
    rows_mul = kernel_cls._rows_mul
    multiplied = 0

    def counted(self, rows, b):
        nonlocal multiplied
        multiplied += len(rows)
        return rows_mul(self, rows, b)

    def closure(*args, **kwargs):
        raise AssertionError("a closed-form row called generate")

    monkeypatch.setattr(kernel_cls, "_rows_mul", counted)
    monkeypatch.setattr(cli, "generate", closure)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["analyze", "--ring", "zmod:7", "--x", "2", "--y", "3"])
    assert code == 0 and '"group_order": 336' in out.getvalue()
    assert multiplied == 3 * 2 * 3

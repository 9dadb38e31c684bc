"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` replaces library functions by name at every binding
site and reads some of their arguments by position, so a renamed function
or a moved argument breaks the traced benchmark run.  This runs the tracer
around a small identity suite (point mode) and around a small Stirling
table and one alpha-limit (the formal-q kernel).
"""

import importlib
import importlib.util
from pathlib import Path

from qtspecials.identities import run_identity_suite
from qtspecials import specials
from qtspecials.scalars import Rational
from qtspecials.wcore import AtPoint, QtPoint

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """Every module-level and patched class-level binding the tracer touches."""
    mods = [importlib.import_module(spans.PACKAGE)] + [
        importlib.import_module(f"{spans.PACKAGE}.{m}") for m in spans.MODULES]
    found = {(mod.__name__, attr): value
             for mod in mods for attr, value in vars(mod).items()}
    scalars, wcore, identities = mods[1], mods[3], mods[5]
    for owner, attr in ((scalars.UniPoly, "__mul__"), (wcore.AtPoint, "__init__"),
                        (wcore.FormalQ, "__init__"),
                        (identities.VerificationReport, "to_dict")):
        found[(owner.__qualname__, attr)] = vars(owner)[attr]
    return found


def _traced(run):
    """Run ``run()`` under the tracer; its result, the span summary, and a
    check that every binding the tracer touched is restored."""
    spans = _load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    return result, tracer.summary()["spans"]


def test_tracer_wraps_the_identity_suite_and_restores_every_binding():
    report, summary = _traced(lambda: run_identity_suite((2, 1), points=1, seed=3))
    assert report.all_pass
    assert summary["wcore.w_skew"]["calls"] > 0
    assert summary["wcore.w_multi"]["calls"] > 0
    assert summary["binomial.qt_binomial"]["calls"] > 0


def test_tracer_wraps_the_formal_kernel_and_restores_every_binding():
    def run():
        mode = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5), n=2))
        table = specials.StirlingTable.build("first", (2, 1), mode)
        # through the module, whose binding the tracer replaces
        return table, specials.alpha_limit(lambda m: specials.catalan((2, 1), m), 1)

    (table, limit), summary = _traced(run)
    assert table.entries and limit > 0
    assert summary["scalars.unipoly_mul"]["calls"] > 0
    assert summary["scalars.limit_at_one"]["calls"] > 0
    assert summary["specials.alpha_limit"]["calls"] == 1

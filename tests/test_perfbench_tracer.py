"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` replaces library functions by name at every binding
site and reads some of their arguments by position, so a renamed function
or a moved argument breaks the traced benchmark run.  This runs the tracer
around a small identity suite.
"""

import importlib
import importlib.util
from pathlib import Path

from qtspecials.identities import run_identity_suite

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


def test_tracer_wraps_the_identity_suite_and_restores_every_binding():
    spans = _load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = run_identity_suite((2, 1), points=1, seed=3)
    finally:
        tracer.uninstall()
    assert report.all_pass
    summary = tracer.summary()["spans"]
    assert summary["wcore.w_skew"]["calls"] > 0
    assert summary["wcore.w_multi"]["calls"] > 0
    assert summary["binomial.qt_binomial"]["calls"] > 0
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

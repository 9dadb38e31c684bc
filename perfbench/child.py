"""One measured round in a fresh interpreter.

    python3 perfbench/child.py round <workload> <inputs-json> <trace 0|1>
    python3 perfbench/child.py setup <inputs-json>
    python3 perfbench/child.py cli <cli argv...>
    python3 perfbench/child.py kernel <small-bits> <large-bits>

Run from the root of a checkout; the library is imported from its ``src``.
Each mode prints one JSON object as its last line of output.  Set-up
(import of ``qtspecials.cli`` plus the first QtPoint/AtPoint) is timed
before the workload body starts, and the body runs with cold caches because
the interpreter is new.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(2, os.path.join(os.path.dirname(os.path.abspath(__file__)), "site"))

import workloads  # noqa: E402  (does not import the library)
from hostprobe import HostProbe  # noqa: E402


def import_library() -> float:
    """Import qtspecials.cli from this checkout; returns the seconds taken."""
    t0 = time.perf_counter()
    import qtspecials.cli

    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(qtspecials.cli.__file__))
    if where != os.path.join(ROOT, "src", "qtspecials"):
        raise SystemExit(f"qtspecials imported from {where}, not this checkout")
    return elapsed


def timed_setup(inp: dict):
    t0 = time.perf_counter()
    import_s = import_library()
    mode = workloads.setup_mode(inp)
    setup_s = time.perf_counter() - t0
    from qtspecials.scalars import backend_name

    return mode, {"import_s": import_s, "setup_s": setup_s, "backend": backend_name()}


def gauged_setup(inp: dict):
    """timed_setup, then five host probes back to back to gauge it by."""
    mode, out = timed_setup(inp)
    probe = HostProbe()
    for _ in range(5):
        probe.fire()
    out["setup_probes"] = probe.samples
    return mode, out


def traced(fn, modes=()):
    """Run fn() under a freshly installed tracer; returns (result, summary).
    ``modes`` built before the tracer was installed still have their cache
    entries counted."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    for mode in modes:
        tracer.track_cache(mode)
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.summary()


def cmd_round(workload: str, inp: dict, trace: bool) -> dict:
    """One job.  Untraced, the host probe runs during the body; its times are
    returned as probes and taken out of wall_s and cpu_s."""
    mode, out = gauged_setup(inp)
    body = lambda: workloads.run_body(workload, inp, mode)  # noqa: E731
    probe = HostProbe()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if trace:
            result, out["trace"] = traced(body, modes=[mode])
        else:
            with probe:
                result = body()
    except Exception:
        out.update(passed=0, failed=workloads.round_ops(workload),
                   error=traceback.format_exc())
        return out
    probed = sum(probe.samples)
    out["wall_s"] = time.perf_counter() - t0 - probed
    out["cpu_s"] = time.process_time() - c0 - probed
    if not trace:
        out["probes"] = probe.samples
    out["passed"], out["failed"] = workloads.check_body(workload, result)
    return out


def cmd_setup(inp: dict) -> dict:
    return gauged_setup(inp)[1]


def cmd_cli(argv: list) -> dict:
    """A CLI command traced in-process; its stdout is captured and returned."""
    out = {"import_s": import_library()}
    import qtspecials.cli as cli

    captured = io.StringIO()
    real, sys.stdout = sys.stdout, captured
    t0 = time.perf_counter()
    try:
        out["returncode"], out["trace"] = traced(lambda: cli.main(argv))
    finally:
        sys.stdout = real
    out["wall_s"] = time.perf_counter() - t0
    out["stdout"] = captured.getvalue()
    return out


def _ns_per_op(op, pairs) -> float:
    """Median ns per op over five timed passes of a calibrated loop."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)
        if time.perf_counter() - t0 > 0.02:
            break
        reps *= 2
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)
        samples.append((time.perf_counter() - t0) / (reps * len(pairs)))
    return statistics.median(samples) * 1e9


def cmd_kernel(sizes: dict) -> dict:
    """mul/add of the active backend's Rational at the given bit sizes."""
    import_library()
    from qtspecials.scalars import Rational, backend_name

    rng = random.Random(0)
    out = {"backend": backend_name(), "bits": sizes}
    for label, bits in sizes.items():
        pairs = []
        for _ in range(8):
            num = [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(4)]
            pairs.append((Rational(num[0], num[1]), Rational(num[2], num[3])))
        out[f"mul_ns.{label}"] = _ns_per_op(lambda a, b: a * b, pairs)
        out[f"add_ns.{label}"] = _ns_per_op(lambda a, b: a + b, pairs)
    return out


def main(argv: list) -> int:
    kind = argv[0]
    if kind == "round":
        result = cmd_round(argv[1], json.loads(argv[2]), argv[3] == "1")
    elif kind == "setup":
        result = cmd_setup(json.loads(argv[1]))
    elif kind == "cli":
        result = cmd_cli(argv[1:])
    elif kind == "kernel":
        result = cmd_kernel({"small": max(int(argv[1]), 2),
                             "large": max(int(argv[2]), 2)})
    else:
        raise SystemExit(f"unknown child mode {kind!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

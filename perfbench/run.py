"""qtspecials benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload {suite,limits,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout (the library is loaded from ./src).  The
driver starts one child interpreter at a time and keeps starting rounds
until S seconds have passed; every round runs in fresh interpreters, so the
library's module-level caches are cold in each, as they are for a CLI user.

Untraced, a round is one job of the workload.  The host's speed swings by
tens of percent within seconds, so every timed process of a round also runs
a short fixed loop every 50 ms (site/hostprobe.py): the round child for
suite and limits, and each command for cli, through site/sitecustomize.py.
The probes' time is taken out of the round's times, which are then scaled by
the loop's nominal time over its median measured time: the times reported
are seconds at the reference host speed.  run.py reports the median over
rounds of each end-to-end metric.

Traced, run.py repeats round 0 alternately without and with the span
tracer (spans.py) and reports per-layer counts, self times (unscaled) and the
tracing overhead; the counts of every traced repeat must be identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SITE = os.path.join(HERE, "site")
sys.path.insert(0, HERE)
sys.path.insert(1, SITE)

import workloads  # noqa: E402
from hostprobe import MARK  # noqa: E402

ROOT = os.getcwd()
CHILD = os.path.join(HERE, "child.py")
MIN_SETUP_SAMPLES = 15
# Median time of one host probe during a timed job, and right after a set-up
# sample, on the host where the benchmark was calibrated: a 2-vCPU Intel
# Xeon VM at 2.1 GHz, CPython 3.11.
PROBE_NOMINAL_S = 0.0018
SETUP_PROBE_NOMINAL_S = 0.00145

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> the fields reported for it
SPAN_FIELDS = {
    "scalars.limit_at_one": ("calls", "self_s"),
    "scalars.unipoly_mul": ("calls", "self_s"),
    "scalars.format_rational": ("calls", "self_s"),
    "partitions.enumerate_sub": ("calls", "self_s"),
    "partitions.enumerate_strips": ("calls", "self_s"),
    "wcore.poch": ("calls", "self_s"),
    "wcore.h_factor": ("calls", "self_s"),
    "wcore.w_skew": ("calls", "self_s"),
    "wcore.w_multi": ("calls", "self_s"),
    "binomial.qt_binomial": ("calls", "self_s"),
    "binomial.pair_ratio": ("calls", "self_s"),
    **{f"identities.{family}": ("calls", "self_s")
       for family in ("binomial_theorem", "2phi1", "density_normalization",
                      "symmetry", "pascal", "double_binomial", "weak_cocycle",
                      "geometric")},
    "identities.report_to_dict": ("self_s",),
    "specials.stirling": ("calls", "self_s"),
    "specials.uv_point": ("self_s",),
    "specials.uv_formal": ("self_s",),
    "specials.alpha_limit": ("calls", "self_s"),
    "distributions.exp": ("self_s",),
    "distributions.density": ("calls", "self_s"),
    "distributions.poisson_normalization": ("self_s",),
    "distributions.sample": ("self_s",),
}
COUNTERS = {
    "scalars.limit_at_one.max_degree": "degree",
    "scalars.format_rational.max_digits": "digits",
    "scalars.max_operand_bits": "bits",
    "wcore.poch.distinct": "count",
    "wcore.cache.lookups": "count",
    "wcore.cache.hit_ratio": "ratio",
    "wcore.cache.entries": "count",
    "wcore.modes_built": "count",
    "trace.spans": "count",
}
KERNEL = {
    "scalars.kernel.mul_ns.small": "ns",
    "scalars.kernel.mul_ns.large": "ns",
    "scalars.kernel.add_ns.small": "ns",
    "scalars.kernel.add_ns.large": "ns",
    "scalars.kernel.small_bits": "bits",
    "scalars.kernel.large_bits": "bits",
}
def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    units.update(COUNTERS)
    units.update(KERNEL)
    units["cli.import_s"] = "s"
    for name in workloads.CLI_NAMES + workloads.DEFECT_NAMES:
        units[f"cli.{name}.wall_s"] = "s"
    units["cli.known_failures"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_process(argv: list, env: dict | None = None) -> dict:
    """Run one child to completion; wall time plus its own rusage.

    The child writes to unnamed files in the checkout, not to pipes: the host
    probe's SIGALRM can cut a blocked pipe write short, and CPython's text
    streams then drop the rest of the output without an error."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "returncode": proc.returncode,
            "stdout": out.read().decode(),
            "stderr": err.read().decode(),
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def probed_process(argv: list) -> dict:
    """run_process with the host probe installed by site/sitecustomize.py;
    the probes' time is taken out of wall_s and cpu_s."""
    env = library_env()
    env["PYTHONPATH"] += os.pathsep + SITE
    proc = run_process(argv, env)
    lines = proc["stderr"].splitlines()
    if not lines or not lines[-1].startswith(MARK):
        raise ChildFailed(f"{argv[2:4]}: no host probe report: {proc['stderr'][-2000:]}")
    proc["stderr"] = "\n".join(lines[:-1])
    proc["probes"] = json.loads(lines[-1][len(MARK):])
    proc["wall_s"] -= sum(proc["probes"])
    proc["cpu_s"] -= sum(proc["probes"])
    return proc


def library_env(backend: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if backend is not None:
        env["QTSPECIALS_BACKEND"] = backend
    return env


class ChildFailed(Exception):
    pass


def child(args: list, env: dict | None = None) -> tuple[dict, dict]:
    """Run child.py; returns (its JSON result, the process record)."""
    proc = run_process([sys.executable, CHILD, *args], env or library_env())
    lines = proc["stdout"].strip().splitlines()
    if proc["returncode"] != 0 or not lines:
        raise ChildFailed(f"child {args[:2]} exited {proc['returncode']}: "
                          f"{proc['stderr'][-2000:]}")
    return json.loads(lines[-1]), proc


def warn(text: str):
    print(text, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def inproc_round(workload: str, inp: dict, trace: bool) -> dict:
    """One suite or limits job in a fresh interpreter."""
    try:
        res, proc = child(["round", workload, json.dumps(inp), str(int(trace))])
    except ChildFailed as exc:
        warn(str(exc))
        return {"passed": 0, "failed": workloads.round_ops(workload)}
    if "error" in res:
        warn(res["error"])
        return {"passed": res["passed"], "failed": res["failed"]}
    row = {k: res[k] for k in ("setup_s", "setup_probes", "import_s", "backend",
                               "wall_s", "cpu_s", "passed", "failed", "probes")
           if k in res}
    row.update(rss_mb=proc["rss_mb"], trace=res.get("trace"))
    return row


def run_cli(argv: list, trace: bool) -> dict:
    """One CLI command in its own interpreter: ``python -m qtspecials.cli``,
    or child.py with the tracer installed.  May raise ChildFailed."""
    if not trace:
        return probed_process([sys.executable, "-m", "qtspecials.cli", *argv])
    res, proc = child(["cli", *argv])
    proc.update(returncode=res["returncode"], stdout=res["stdout"],
                trace=res["trace"], import_s=res["import_s"])
    return proc


def cli_command(name: str, argv: list, inp: dict, trace: bool) -> tuple[dict, bool]:
    """One timed CLI command; (process record, passed its oracle)."""
    try:
        proc = run_cli(argv, trace)
    except ChildFailed as exc:
        warn(str(exc))
        return {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0}, False
    if proc["returncode"] != 0:
        warn(f"{name}: exit {proc['returncode']}: {proc['stdout'][:300]}"
             f"{proc['stderr'][-1000:]}")
        return proc, False
    try:
        workloads.check_cli_output(name, inp, proc["stdout"])
    except (workloads.OracleMismatch, ValueError, KeyError, IndexError) as exc:
        warn(f"{name}: output failed its oracle: {exc!r}")
        return proc, False
    return proc, True


def cli_round(inp: dict, trace: bool) -> dict:
    """The CLI command list, one subprocess at a time, plus a set-up sample."""
    setup, _ = child(["setup", json.dumps(inp)])
    row = {"setup_s": setup["setup_s"], "setup_probes": setup["setup_probes"],
           "import_s": setup["import_s"], "backend": setup["backend"],
           "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "passed": 0, "failed": 0,
           "commands": {}, "traces": [], "probes": []}
    for name, argv in workloads.cli_commands(inp):
        proc, ok = cli_command(name, argv, inp, trace)
        row["wall_s"] += proc["wall_s"]
        row["cpu_s"] += proc["cpu_s"]
        row["rss_mb"] = max(row["rss_mb"], proc["rss_mb"])
        row["passed" if ok else "failed"] += 1
        row["commands"][name] = proc["wall_s"]
        row["probes"] += proc.get("probes", [])
        if trace:
            row["traces"].append(proc.get("trace"))
            if "import_s" in proc:
                row.setdefault("imports", []).append(proc["import_s"])
    return row


def known_defects(inp: dict, trace: bool) -> dict:
    """Run the commands known to fail; {name: (wall_s, fixed, trace)}."""
    out = {}
    for name, argv, err_type, fragment in workloads.cli_known_defects(inp):
        try:
            proc = run_cli(argv, trace)
        except ChildFailed as exc:
            warn(f"known defect {name}: {exc}")
            out[name] = (0.0, False, None)
            continue
        stdout = proc["stdout"]
        fixed = workloads.known_defect_fixed(name, proc["returncode"], stdout)
        if not fixed:
            recorded = err_type in stdout and fragment in stdout
            warn(f"known defect {name}: exit {proc['returncode']}, "
                 f"{'as recorded' if recorded else 'NOT as recorded'}: "
                 f"{stdout.strip()[:200]}")
        out[name] = (proc["wall_s"], fixed, proc.get("trace"))
    return out


def one_round(workload: str, inp: dict, trace: bool) -> dict:
    if workload == "cli":
        return cli_round(inp, trace)
    return inproc_round(workload, inp, trace)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def spread(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(rows: list) -> tuple[dict, list]:
    """Median over the rounds of each end-to-end metric, and report lines.
    Times are scaled to the reference host speed round by round."""
    ok = [r for r in rows if "wall_s" in r and r["failed"] == 0]

    def scale(r):
        return PROBE_NOMINAL_S / statistics.median(r["probes"])

    samples = {
        "setup_s": [r["setup_s"] * SETUP_PROBE_NOMINAL_S / statistics.median(r["setup_probes"])
                    for r in rows if "setup_s" in r],
        "wall_s": [r["wall_s"] * scale(r) for r in ok],
        "cpu_s": [r["cpu_s"] * scale(r) for r in ok],
        "ops_per_s": [r["passed"] / (r["wall_s"] * scale(r)) for r in ok],
        "peak_rss_mb": [r["rss_mb"] for r in ok],
    }
    raw = [r["wall_s"] for r in ok] or [0.0]
    metrics, lines = {}, [
        f"  host speed: median scale {statistics.median(map(scale, ok)):.4g} "
        f"(nominal / measured probe time) over n={len(ok)} rounds; unscaled "
        f"wall_s median {statistics.median(raw):.4g} s"] if ok else []
    for name, unit in END_TO_END.items():
        vals = samples[name]
        if not vals:
            continue
        med = statistics.median(vals)
        q1, q3 = spread(vals)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"  {name:<12} {med:12.6g} {unit:<4} median of n={len(vals):<3} "
                     f"q1={q1:.6g} q3={q3:.6g} min={min(vals):.6g} max={max(vals):.6g}")
    return metrics, lines


def merge_traces(traces: list) -> dict:
    """Sum spans and counters of several traced processes; maxima take max."""
    merged = {"spans": {}, "counts": {}, "maxima": {}, "bits": {}}
    for tr in traces:
        if tr is None:
            continue
        for name, s in tr["spans"].items():
            m = merged["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
            m["calls"] += s["calls"]
            m["self_s"] += s["self_s"]
        for key in ("counts", "bits"):
            for k, v in tr[key].items():
                merged[key][k] = merged[key].get(k, 0) + v
        for k, v in tr["maxima"].items():
            merged["maxima"][k] = max(merged["maxima"].get(k, 0), v)
    return merged


def exact_part(trace: dict) -> dict:
    """Everything in a merged trace that must repeat exactly."""
    return {"calls": {k: v["calls"] for k, v in trace["spans"].items()},
            "counts": trace["counts"], "maxima": trace["maxima"],
            "bits": trace["bits"]}


def bit_quantiles(bits: dict) -> tuple[int, int]:
    """(median, max) operand bit size over the observed histogram."""
    if not bits:
        return 2, 2
    pairs = sorted((int(b), k) for b, k in bits.items())
    half, seen = sum(k for _, k in pairs) / 2, 0
    for b, k in pairs:
        seen += k
        if seen >= half:
            return b, pairs[-1][0]
    return pairs[-1][0], pairs[-1][0]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> list:
    """Untraced rounds until the time is up; then set-up samples to a minimum."""
    start, rows, k = time.perf_counter(), [], 0
    while k == 0 or time.perf_counter() - start < seconds:
        rows.append(one_round(workload, workloads.round_inputs(workload, seed, k), False))
        k += 1
    setups = sum("setup_s" in r for r in rows)
    for k in range(k, k + MIN_SETUP_SAMPLES - setups):
        res, _ = child(["setup", json.dumps(workloads.round_inputs(workload, seed, k))])
        rows.append({"setup_s": res["setup_s"], "setup_probes": res["setup_probes"],
                     "passed": 0, "failed": 0})
    return rows


def repeat_traced(workload: str, inp: dict, seconds: float) -> tuple[list, list, dict]:
    """Alternate untraced and traced repeats of one input until the time is
    up and two traced repeats exist.  Returns (untraced rows, traced rows
    with their merged trace, known-defect outcomes)."""
    start = time.perf_counter()
    plain, traced, defects = [], [], {}
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(one_round(workload, inp, False))
        row = one_round(workload, inp, True)
        parts = row.pop("traces", None) or [row.pop("trace", None)]
        if workload == "cli":
            if "plain" not in defects:
                defects["plain"] = known_defects(inp, False)
            outcome = known_defects(inp, True)
            defects.setdefault("traced", outcome)
            parts += [tr for _, _, tr in outcome.values()]
        row["merged"] = merge_traces(parts)
        traced.append(row)
    return plain, traced, defects


def layer_values(workload: str, plain: list, traced: list, defects: dict) -> dict:
    """Per-layer metric values from the repeats of a traced run."""
    merged = [r["merged"] for r in traced]
    first = merged[0]
    values = {name: 0.0 for name in per_layer_units()}
    for span, fields in SPAN_FIELDS.items():
        if "calls" in fields:
            values[f"{span}.calls"] = first["spans"].get(span, {}).get("calls", 0)
        if "self_s" in fields:
            values[f"{span}.self_s"] = statistics.median(
                m["spans"].get(span, {}).get("self_s", 0.0) for m in merged)
    counts, maxima = first["counts"], first["maxima"]
    lookups = counts.get("wcore.cache.lookups", 0)
    values.update({k: counts.get(k, 0) for k in (
        "wcore.poch.distinct", "wcore.cache.lookups", "wcore.cache.entries",
        "wcore.modes_built", "trace.spans")})
    values.update({k: maxima.get(k, 0) for k in (
        "scalars.limit_at_one.max_degree", "scalars.format_rational.max_digits")})
    values["wcore.cache.hit_ratio"] = (
        counts.get("wcore.cache.hits", 0) / lookups if lookups else 0.0)
    imports = [r["import_s"] for r in plain + traced if "import_s" in r]
    imports += [x for r in traced for x in r.get("imports", [])]
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    if workload == "cli":
        for name in workloads.CLI_NAMES:
            values[f"cli.{name}.wall_s"] = statistics.median(
                r["commands"][name] for r in plain)
        for name, (wall, fixed, _) in defects["plain"].items():
            values[f"cli.{name}.wall_s"] = wall
        values["cli.known_failures"] = sum(
            not fixed for _, fixed, _ in defects["traced"].values())
    plain_wall = statistics.median([r["wall_s"] for r in plain if "wall_s" in r] or [0.0])
    traced_wall = statistics.median([r["wall_s"] for r in traced if "wall_s" in r] or [0.0])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    return values


def traced_run(workload: str, seed: int, seconds: float):
    """Round 0 of the seed, repeated untraced and traced; per-layer metrics."""
    plain, traced, defects = repeat_traced(
        workload, workloads.round_inputs(workload, seed, 0), seconds)
    exact = [exact_part(r["merged"]) for r in traced]
    identical = all(e == exact[0] for e in exact[1:])
    if not identical:
        warn("per-layer counts differ between traced repeats of the same input")
    values = layer_values(workload, plain, traced, defects)
    small, large = bit_quantiles(traced[0]["merged"]["bits"])
    values["scalars.max_operand_bits"] = large
    kernel, info = kernel_timings(small, large)
    values.update(kernel)
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = [f"  {name:<40} {values[name]:14.6g} {unit}" for name, unit in units.items()]
    lines.append(f"  traced repeats={len(traced)} untraced repeats={len(plain)} "
                 f"counts identical={identical} overhead="
                 f"{values['trace.overhead_s']:.4g} s on "
                 f"{values['trace.wall_s'] - values['trace.overhead_s']:.4g} s")
    lines += info
    rows = plain + traced
    sound = identical and all("wall_s" in r for r in rows)
    return rows, metrics, lines, sound


def kernel_timings(small: int, large: int) -> tuple[dict, list]:
    """Rational mul/add on the active backend; gmpy2 too when importable."""
    res, _ = child(["kernel", str(small), str(large)])
    values = {f"scalars.kernel.{k}": v for k, v in res.items()
              if k.startswith(("mul_ns", "add_ns"))}
    values["scalars.kernel.small_bits"] = res["bits"]["small"]
    values["scalars.kernel.large_bits"] = res["bits"]["large"]
    info = [f"  kernel backend={res['backend']} small={small} bits large={large} bits"]
    if res["backend"] != "gmpy2":
        if importlib.util.find_spec("gmpy2") is None:
            info.append("  kernel gmpy2: skipped (gmpy2 is not importable)")
        else:
            g, _ = child(["kernel", str(small), str(large)], library_env("gmpy2"))
            info.append("  kernel gmpy2: " + json.dumps(g))
    return values, info


def environment(rows: list) -> str:
    backends = sorted({r["backend"] for r in rows if "backend" in r})
    return (f"backend={','.join(backends) or 'unknown'} "
            f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"machine={platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtspecials", "cli.py")):
        warn("no src/qtspecials in the current directory: run from a checkout root")
        return 2

    if args.trace:
        rows, metrics, lines, sound = traced_run(args.workload, args.seed, args.seconds)
    else:
        rows = measure(args.workload, args.seed, args.seconds)
        metrics, lines = summarize(rows)
        sound = len(metrics) == len(END_TO_END)
    print(f"# qtspecials benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} {environment(rows)}")
    for line in lines:
        print(line)
    attempted = sum(r["passed"] + r["failed"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    result = {"correct": sound and failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs, bodies and oracles.

Inputs are drawn here from the benchmark seed with ``random.Random``; the
library only ever sees the drawn values.  Nothing at module level imports
qtspecials, so the driver can use the input generators and the CLI oracles
without loading the library: the library is imported inside the child
interpreters only, where its import is part of the measured set-up.

Every operation's output is checked field by field (never by digest) so that
reports which gain fields keep passing.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import gcd

WORKLOADS = ("suite", "limits", "cli")

SUITE_BOUND = (3, 3, 3)
# Checks run_identity_suite makes at SUITE_BOUND for one point; it depends
# only on the bound, never on the drawn point.
SUITE_CHECKS = 762

# Sized so that a round takes 1-2.5 s here and a 36 s run holds 12+ rounds.
STIRLING_BOUND = (2, 2, 1)
ALPHA_BOUND = (2, 2)
ALPHAS = (1, 2)

RATIONAL_RE = re.compile(r"^-?\d+/\d+$")
CLASSICAL_CATALAN = (1, 1, 2, 5, 14, 42)
SAMPLE_LAMBDA = "2,1"
SAMPLE_COUNT = 200
EXP_PART_CAP = 12


def round_rng(workload: str, seed: int, k: int) -> random.Random:
    """The input stream of round k of a run; identical for identical seeds."""
    return random.Random(f"{workload}:{seed}:{k}")


def unit_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    """a/b strictly between 0 and 1 with lo <= b <= hi."""
    b = rng.randint(lo, hi)
    return Fraction(rng.randint(1, b - 1), b)


def qt_pair(rng: random.Random) -> tuple:
    """(q, t) in (0, 1) with coprime denominators up to 10^6.  Then
    q^a t^b = 1 has no solution with (a, b) != (0, 0), so no QtPoint window
    can reject the pair."""
    q = unit_rational(rng, 3, 10 ** 6)
    while True:
        t = unit_rational(rng, 3, 10 ** 6)
        if gcd(q.denominator, t.denominator) == 1:
            return q, t


def lit(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def partitions_below(bound) -> list:
    """Partitions contained in bound (weakly decreasing, same length)."""
    out = []

    def rec(prefix, cap, i):
        if i == len(bound):
            out.append(tuple(prefix))
            return
        for v in range(min(cap, bound[i]) + 1):
            rec(prefix + [v], v, i + 1)

    rec([], bound[0], 0)
    return out


def stirling_entries() -> int:
    """Entries (nu, mu) with mu <= nu of one Stirling table below the bound."""
    return sum(len(partitions_below(nu)) for nu in partitions_below(STIRLING_BOUND))


def round_ops(workload: str) -> int:
    """Operations of one round: identity checks, table entries and alpha
    values, or CLI commands."""
    if workload == "suite":
        return SUITE_CHECKS
    if workload == "limits":
        return 2 * stirling_entries() + len(alpha_jobs())
    return len(CLI_NAMES)


def alpha_jobs() -> list:
    """(family, partition, alpha) triples of the limits workload.

    Catalan is defined only where the bracket of lam + e_1 has no 1 - q^0 t^0
    factor, that is where the last part is positive.
    """
    lams = partitions_below(ALPHA_BOUND)
    jobs = []
    for a in ALPHAS:
        jobs += [("bernoulli", lam, a) for lam in lams]
        jobs += [("catalan", lam, a) for lam in lams if lam[-1] > 0]
    return jobs


# ---------------------------------------------------------------------------
# Round inputs
# ---------------------------------------------------------------------------

def round_inputs(workload: str, seed: int, k: int) -> dict:
    """Plain-data inputs of one round (JSON-serializable)."""
    rng = round_rng(workload, seed, k)
    if workload == "suite":
        # (q, t) only builds the set-up mode; the suite draws its own points
        q, t = qt_pair(rng)
        return {"q": lit(q), "t": lit(t), "suite_seed": rng.randrange(2 ** 32)}
    if workload == "limits":
        q, t = qt_pair(rng)
        return {"q": lit(q), "t": lit(t)}
    if workload == "cli":
        return cli_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def cli_inputs(rng: random.Random) -> dict:
    """(q, t, z) inside the sampler's documented positivity regime
    0 < q, t, z < 1, z < t, where the truncated analytics are accurate enough
    for the oracles: q <= 3/7 (q^40 < 1e-14 for the 40-factor products),
    t >= 4/11 and z <= 1/97 < t^2 / 10 (the exp series at n = 3 and the
    Poisson masses then converge at ratio 1/10 or faster).  Denominators are
    fixed (7, 11 and a prime near 100, coprime so that no q^a t^b is 1), which
    keeps the cost of a round nearly independent of the draw."""
    q = Fraction(rng.randint(1, 3), 7)
    t = Fraction(rng.randint(4, 10), 11)
    z = Fraction(1, rng.choice((97, 101, 103, 107, 109)))
    m = rng.randint(5, 8)
    return {"q": lit(q), "t": lit(t), "z": lit(z), "gauss": [m, rng.randint(1, m - 1)],
            "seed": rng.randrange(2 ** 31)}


def cli_commands(inp: dict) -> list:
    """(name, argv) of the timed CLI commands of one round."""
    pt = ["--q", inp["q"], "--t", inp["t"]]
    m, k = inp["gauss"]
    return [
        ("binom", ["binom", "--lambda", str(m), "--mu", str(k), *pt]),
        ("stirling", ["stirling", "--kind", "first", "--bound",
                      ",".join(map(str, STIRLING_BOUND)), *pt]),
        ("catalan_alpha", ["catalan", "--bound", "5", "--alpha", "1"]),
        ("density", ["density", "--kind", "poisson", "--n", "2",
                     "--z", inp["z"], *pt]),
        ("sample", ["sample", "--kind", "g", "--lambda", SAMPLE_LAMBDA,
                    "--z", inp["z"], *pt, "--count", str(SAMPLE_COUNT),
                    "--seed", str(inp["seed"])]),
        ("exp", ["exp", "--n", "3", "--part-cap", str(EXP_PART_CAP),
                 "--z", inp["z"], *pt]),
    ]


def cli_known_defects(inp: dict) -> list:
    """Commands that fail at the time of writing, run outside the timed
    rounds (traced run only) and reported as expected failures:

    * verify: the geometric residuals exceed Python's 4300-digit int->str
      limit under the fractions backend, so serializing the report raises
      ValueError;
    * catalan --bound 2,2 (point mode): the table includes partitions whose
      bracket of lam + e_1 vanishes.
    """
    return [
        ("verify", ["verify", "--bound", "3,3", "--points", "5",
                    "--seed", str(inp["seed"])], "ValueError", "4300"),
        ("catalan_point", ["catalan", "--bound", "2,2", "--q", inp["q"],
                           "--t", inp["t"]], "DegenerateParameters", "vanishes"),
    ]


CLI_NAMES = [name for name, _ in cli_commands(cli_inputs(random.Random(0)))]
DEFECT_NAMES = [d[0] for d in cli_known_defects(cli_inputs(random.Random(0)))]


# ---------------------------------------------------------------------------
# CLI oracles (pure Python, no library import)
# ---------------------------------------------------------------------------

def gaussian_binomial(m: int, k: int, q: Fraction) -> Fraction:
    """[m choose k]_q by its product formula."""
    acc = Fraction(1)
    for i in range(k):
        acc = acc * (1 - q ** (m - i)) / (1 - q ** (i + 1))
    return acc


def _rationals(obj):
    """Every string leaf of a parsed JSON payload that is meant as a rational."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _rationals(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _rationals(v)
    elif isinstance(obj, str):
        yield obj


class OracleMismatch(Exception):
    """An operation's output failed its oracle."""


def expect(condition, what: str) -> None:
    if not condition:
        raise OracleMismatch(what)


def _frac(s: str) -> Fraction:
    expect(isinstance(s, str) and RATIONAL_RE.match(s), f"not a p/q rational: {str(s)[:40]!r}")
    p, q = s.split("/")
    return Fraction(int(p), int(q))


def check_cli_output(name: str, inp: dict, stdout: str) -> None:
    """Raise OracleMismatch unless a timed command's output passes its oracle."""
    if name == "sample":
        lines = stdout.splitlines()
        draws = [json.loads(x) for x in lines[:-1]]
        summary = json.loads(lines[-1])["summary"]
        expect(len(draws) == SAMPLE_COUNT == summary["count"], "sample count")
        expect(summary["seed"] == inp["seed"], "sample seed")
        masses = summary["masses"]
        lam = tuple(int(x) for x in SAMPLE_LAMBDA.split(","))
        support = {",".join(map(str, mu)) for mu in partitions_below(lam)}
        expect(set(masses) == support, "sample support")
        expect(all(d in support for d in draws), "draw outside the support")
        exact = [_frac(v["exact"]) for v in masses.values()]
        expect(sum(exact) == 1 and min(exact) >= 0, "g masses total 1/1")
        for p, v in masses.items():
            expect(_frac(v["empirical"]) == Fraction(draws.count(p), SAMPLE_COUNT),
                   "empirical mass")
        return
    out = json.loads(stdout)
    expect("error" not in out, f"error record {out.get('error')}")
    for s in _rationals({k: v for k, v in out.items()
                         if k not in ("command", "kind", "lambda", "mu", "bound")}):
        _frac(s)
    if name == "binom":
        m, k = inp["gauss"]
        expect(_frac(out["value"]) == gaussian_binomial(m, k, _frac(inp["q"])),
               "n = 1 value is the Gaussian binomial")
    elif name == "stirling":
        entries = out["entries"]
        expect(len(entries) == len(partitions_below(STIRLING_BOUND)), "table rows")
        expect(sum(len(row) for row in entries.values()) == stirling_entries(),
               "entry count")
        expect(all(row[nu] == "1/1" for nu, row in entries.items()), "diagonal is 1")
    elif name == "catalan_alpha":
        got = [out["values"][str(i)] for i in range(len(CLASSICAL_CATALAN))]
        expect(got == [f"{c}/1" for c in CLASSICAL_CATALAN], "classical Catalan")
    elif name == "density":
        masses = [_frac(v) for v in out["masses"].values()]
        expect(len(masses) == len(partitions_below((10, 10))), "support size")
        total = _frac(out["total"])
        expect(sum(masses) == total, "total is the sum of the masses")
        expect(min(masses) > 0 and abs(total - 1) < Fraction(1, 100), "total mass")
        expect(_frac(out["tail_bound"]) > 0, "tail bound")
    elif name == "exp":
        tol = Fraction(1, 10 ** 6)
        for side in ("upper", "lower"):
            rec = {k: _frac(v) for k, v in out[side].items()}
            expect(rec["difference"] == rec["product"] - rec["series"], "difference")
            expect(abs(rec["difference"]) < tol, f"{side} product vs series")
        expect(abs(_frac(out["reciprocal_residual"])) < tol, "reciprocal identity")
    else:
        raise OracleMismatch(f"no oracle for {name!r}")


def known_defect_fixed(name: str, returncode: int, stdout: str) -> bool:
    """True when a known-defect command now succeeds with a sound output."""
    if returncode != 0:
        return False
    try:
        out = json.loads(stdout)
    except ValueError:
        return False
    if name == "verify":
        return (out.get("all_pass") is True
                and all(RATIONAL_RE.match(c["residual"]) for c in out["checks"]))
    return "error" not in out


# ---------------------------------------------------------------------------
# In-process bodies (run inside a child interpreter)
# ---------------------------------------------------------------------------

def setup_mode(inp: dict):
    """The first QtPoint/AtPoint of a round: part of the measured set-up."""
    from qtspecials.scalars import parse_rational
    from qtspecials.wcore import AtPoint, QtPoint

    point = QtPoint(parse_rational(inp["q"]), parse_rational(inp["t"]),
                    n=len(STIRLING_BOUND), max_part=STIRLING_BOUND[0] + 2)
    return AtPoint(point)


def run_body(workload: str, inp: dict, mode):
    """Run the timed part of one in-process round; returns its raw results."""
    if workload == "suite":
        from qtspecials.identities import run_identity_suite

        return run_identity_suite(SUITE_BOUND, points=1, seed=inp["suite_seed"])
    from qtspecials.specials import StirlingTable, alpha_limit, bernoulli, catalan

    tables = {kind: StirlingTable.build(kind, STIRLING_BOUND, mode)
              for kind in ("first", "second")}
    fns = {"bernoulli": bernoulli, "catalan": catalan}
    alphas = {}
    for family, lam, a in alpha_jobs():
        alphas[(family, lam, a)] = alpha_limit(
            lambda m, f=fns[family], lam=lam: f(lam, m), a)
    return tables, alphas


def check_body(workload: str, result) -> tuple[int, int]:
    """(passed, failed) operations of one round, per its oracle."""
    if workload == "suite":
        passed = sum(1 for c in result.checks if _check_ok(c))
        failed = max(SUITE_CHECKS, len(result.checks)) - passed
        if not result.all_pass:
            failed = max(failed, 1)
        return passed, failed
    from qtspecials.specials import bernoulli_alpha, binomial_alpha, bracket_alpha

    tables, alphas = result
    passed = failed = 0
    s1, s2 = tables["first"].entries, tables["second"].entries
    for (nu, mu) in s1:
        total = sum(s1[(nu, lam)] * s2[(lam, mu)]
                    for (top, lam) in s1 if top == nu and (lam, mu) in s2)
        ok = total == (1 if nu == mu else 0)
        if nu == mu:
            ok = ok and s1[(nu, mu)] == 1 and s2[(nu, mu)] == 1
        passed, failed = passed + 2 * ok, failed + 2 * (not ok)
    for (family, lam, a), value in alphas.items():
        if family == "bernoulli":
            ok = value == bernoulli_alpha(lam, a)
        else:
            # the limit of a quotient whose denominator has a nonzero limit
            double = tuple(2 * p for p in lam)
            bumped = (lam[0] + 1,) + lam[1:]
            ok = value == binomial_alpha(double, lam, a) / bracket_alpha(bumped, a)
        passed, failed = passed + ok, failed + (not ok)
    return passed, failed


def _check_ok(check) -> bool:
    if check.approximate:
        return abs(check.residual) < check.tolerance
    return check.residual == 0

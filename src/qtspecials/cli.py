"""Command-line interface: tables, identity verification and sampling.

Every rational in the output is rendered as "p/q" with an explicit
denominator; nothing is ever printed as a decimal.  Output is byte-stable
for a fixed command line and seed.  The JSON shapes are documented in the
README.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DegenerateParameters, QtError
from .partitions import enumerate_sub, format_partition, parse_partition
from .scalars import format_rational, limit_at_one, parse_rational, sum_rationals
from .wcore import FormalQ, QtPoint

ALPHA_HELP = "positive integer: report the t=q^alpha, q->1 limit"


def _seed_default() -> int:
    env = os.environ.get("QTSPECIALS_SEED")
    return int(env) if env else 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_point(p: argparse.ArgumentParser, alpha_help=ALPHA_HELP):
    p.add_argument("--q", help='rational literal, e.g. "1/2"')
    p.add_argument("--t", help='rational literal, e.g. "1/3"')
    if alpha_help:
        p.add_argument("--alpha", type=int, help=alpha_help)


# the inner q->1 limit of the Stirling numbers needs a rational t when n >= 2
STIRLING_ALPHA_HELP = ALPHA_HELP + "; single-part partitions only"


def _args_binom(p):
    p.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "2,1"')
    p.add_argument("--mu", required=True, help="partition (same length)")
    _add_point(p)
    _add_common(p)


def _args_stirling(p):
    p.add_argument("--kind", choices=("first", "second"), required=True)
    p.add_argument("--bound", required=True, help="top partition of the table")
    _add_point(p, STIRLING_ALPHA_HELP)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)


def _args_sequence(p, alpha_help=ALPHA_HELP):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda", dest="lam", help="single partition")
    g.add_argument("--bound", help="emit the whole table below this partition")
    _add_point(p, alpha_help)
    _add_common(p)


def _args_verify(p):
    p.add_argument("--bound", required=True, help='e.g. "3,3" (length sets n)')
    p.add_argument("--n", type=int, default=None,
                   help="optional sanity check against the bound length")
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)


def _args_density(p):
    p.add_argument("--kind", choices=("g", "f", "poisson"), required=True)
    p.add_argument("--lambda", dest="lam", help="required for g and f")
    p.add_argument("--z", required=True)
    _add_point(p, alpha_help=None)
    p.add_argument("--n", type=int, default=None, help="length (poisson only)")
    p.add_argument("--part-cap", type=int, default=10)
    p.add_argument("--trunc", type=int, default=40)
    _add_common(p)


def _args_sample(p):
    p.add_argument("--kind", choices=("g", "f", "poisson"), required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--z", required=True)
    _add_point(p, alpha_help=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--part-cap", type=int, default=10)
    p.add_argument("--trunc", type=int, default=40)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write the JSONL output to this path instead of stdout")


def _args_exp(p):
    p.add_argument("--z", required=True)
    _add_point(p, alpha_help=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--part-cap", type=int, default=20)
    p.add_argument("--trunc", type=int, default=40)
    _add_common(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subparser is listed; given a command name,
    only that subparser gets its arguments, which is all that parsing a
    command line naming it reads."""
    parser = argparse.ArgumentParser(
        prog="qtspecials",
        description="Exact partition-indexed qt-special numbers: tables, "
                    "identity verification, densities and sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
    return parser


def _point_from(args, n: int, max_part: int) -> QtPoint:
    if args.q is None or args.t is None:
        raise ValueError("--q and --t are required here")
    return QtPoint(parse_rational(args.q), parse_rational(args.t),
                   n=n, max_part=max_part)


def _check_sizes(args, least: int, *flags):
    """Reject a size argument below ``least`` as bad input."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def _value_mode(args, shape, max_part: int):
    """(mode, meta): the t=q^alpha mode for --alpha, else the mode of the
    --q/--t point validated for len(shape) parts up to max_part."""
    if args.alpha is not None:
        if args.q is not None or args.t is not None:
            raise ValueError("--alpha excludes --q/--t")
        return FormalQ.alpha(args.alpha), {"alpha": args.alpha}
    return _point_from(args, len(shape), max_part).mode, {"q": args.q, "t": args.t}


def _emit(args, payload: dict, csv_rows):
    """payload for json; (header, rows) for csv."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        header, rows = csv_rows
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    _write(args, text)


def _write(args, text: str):
    """text to the --out path, or to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_binom(args) -> int:
    from .binomial import qt_binomial

    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if len(mu) != len(lam):
        raise ValueError("lam and mu must have the same length")
    mode, meta = _value_mode(args, lam, max(lam[0] + 2, 4))
    value = format_rational(limit_at_one(qt_binomial(lam, mu, mode)))
    payload = {"command": "binom", "lambda": format_partition(lam),
               "mu": format_partition(mu), **meta, "value": value}
    _emit(args, payload, (("lambda", "mu", "value"),
                          [(format_partition(lam), format_partition(mu), value)]))
    return 0


def _cmd_stirling(args) -> int:
    from .specials import StirlingTable

    bound = parse_partition(args.bound)
    mode, meta = _value_mode(args, bound, max(bound[0] + 2, 4))
    nested: dict = {}
    rows = []
    for (nu, mu), val in StirlingTable.build(args.kind, bound, mode).entries.items():
        val = format_rational(limit_at_one(val))
        nested.setdefault(format_partition(nu), {})[format_partition(mu)] = val
        rows.append((format_partition(nu), format_partition(mu), val))
    payload = {"command": "stirling", "kind": args.kind, "n": len(bound),
               "bound": format_partition(bound), **meta,
               "seed": args.seed if args.seed is not None else _seed_default(),
               "entries": nested}
    _emit(args, payload, (("nu", "mu", "value"), rows))
    return 0


def _cmd_sequence(args) -> int:
    from . import specials

    name = args.command
    fn = getattr(specials, name)
    if name == "bernoulli" and args.alpha is not None:  # exact limits, not formal q
        fn = lambda lam, _mode: specials.bernoulli_alpha(lam, args.alpha)
    shape = parse_partition(args.lam if args.lam else args.bound)
    lams = [shape] if args.lam else enumerate_sub(shape)
    # window covers the doubled index that the Catalan ratio reaches
    mode, meta = _value_mode(args, shape, 2 * shape[0] + 2 if shape[0] else 4)
    values = {}
    undefined = {}  # table entries left out: degenerate at these parameters
    for lam in lams:
        try:
            values[lam] = limit_at_one(fn(lam, mode))
        except DegenerateParameters as exc:
            if args.lam:
                raise
            undefined[format_partition(lam)] = str(exc)
    table = {format_partition(l): format_rational(v) for l, v in values.items()}
    payload = {"command": name, **meta, "values": table}
    if undefined:
        payload["undefined"] = undefined
    _emit(args, payload, (("lambda", "value"), list(table.items())))
    return 0


def _cmd_verify(args) -> int:
    from .identities import run_identity_suite, run_specials_suite

    bound = parse_partition(args.bound)
    if args.n is not None and args.n != len(bound):
        raise ValueError(f"--n {args.n} does not match bound length {len(bound)}")
    _check_sizes(args, 1, "--points")
    seed = args.seed if args.seed is not None else _seed_default()
    report = run_identity_suite(bound, points=args.points, seed=seed)
    run_specials_suite(bound, points=min(args.points, 3), seed=seed, report=report)
    payload = report.to_dict()
    rows = [(c["name"],
             ";".join(f"{k}={v}" for k, v in c["params"].items()),
             c["residual"], str(c["pass"]).lower())
            for c in payload["checks"]]
    _emit(args, payload, (("name", "params", "residual", "pass"), rows))
    return 0 if report.all_pass else 1


def _density_spec(args):
    from .distributions import DensitySpec

    z = parse_rational(args.z)
    _check_sizes(args, 0, "--part-cap", "--trunc")
    lam = parse_partition(args.lam) if args.lam else None
    if args.kind == "poisson":
        if args.n is None:
            raise ValueError("--n is required for the poisson density")
        _check_sizes(args, 1, "--n")
        point = _point_from(args, args.n, max(args.part_cap + 1, 4))
        # a --lambda given here is refused by DensitySpec
        return DensitySpec(kind="poisson", z=z, point=point, lam=lam,
                           part_cap=args.part_cap, trunc=args.trunc)
    if lam is None:
        raise ValueError("--lambda is required for g and f")
    point = _point_from(args, len(lam), max(lam[0] + 2, 4))
    kind = {"g": "binomial_g", "f": "binomial_f"}[args.kind]
    return DensitySpec(kind=kind, z=z, point=point, lam=lam)


def _cmd_density(args) -> int:
    from .distributions import poisson_tail, support_masses

    spec = _density_spec(args)
    masses = support_masses(spec)
    total = sum_rationals([m] for m in masses.values())
    shown = {format_partition(m): format_rational(v) for m, v in masses.items()}
    shown_total = format_rational(total)
    payload = {"command": "density", "kind": args.kind, "z": args.z,
               "q": args.q, "t": args.t, "masses": shown, "total": shown_total}
    if args.kind == "poisson":
        payload["tail_bound"] = format_rational(poisson_tail(spec, total))
    rows = [*shown.items(), ("total", shown_total)]
    _emit(args, payload, (("partition", "mass"), rows))
    return 0


def _cmd_sample(args) -> int:
    from .distributions import sample

    _check_sizes(args, 0, "--count")
    spec = _density_spec(args)
    seed = args.seed if args.seed is not None else _seed_default()
    result = sample(spec, args.count, seed)
    _write(args, "\n".join(result.to_jsonl_lines()) + "\n")
    return 0


def _cmd_exp(args) -> int:
    from .distributions import exp_E, exp_e

    z = parse_rational(args.z)
    _check_sizes(args, 1, "--n")
    _check_sizes(args, 0, "--part-cap", "--trunc")
    point = _point_from(args, args.n, max(args.part_cap + 1, 4))
    E = exp_E(z, point, args.n, args.part_cap, args.trunc)
    e = exp_e(z, point, args.n, args.part_cap, args.trunc)
    Eneg = exp_E(-z, point, args.n, args.part_cap, args.trunc)
    recip = format_rational(e.series * Eneg.series - 1)
    upper = {k: format_rational(v) for k, v in E._asdict().items()}
    lower = {k: format_rational(v) for k, v in e._asdict().items()}
    payload = {
        "command": "exp", "z": args.z, "q": args.q, "t": args.t, "n": args.n,
        "part_cap": args.part_cap, "trunc": args.trunc,
        "upper": upper, "lower": lower, "reciprocal_residual": recip,
    }
    rows = [("upper_product", upper["product"]), ("upper_series", upper["series"]),
            ("lower_product", lower["product"]), ("lower_series", lower["series"]),
            ("reciprocal_residual", recip)]
    _emit(args, payload, (("quantity", "value"), rows))
    return 0


# name -> (help, adds the arguments, runs the command), in the order that
# --help lists them
COMMANDS = {
    "binom": ("one qt-binomial coefficient", _args_binom, _cmd_binom),
    "stirling": ("table of qt-Stirling numbers", _args_stirling, _cmd_stirling),
    "bernoulli": ("qt-bernoulli number(s)", _args_sequence, _cmd_sequence),
    "bell": ("qt-bell number(s)", lambda p: _args_sequence(p, STIRLING_ALPHA_HELP),
             _cmd_sequence),
    "catalan": ("qt-catalan number(s)", _args_sequence, _cmd_sequence),
    "fibonacci": ("qt-fibonacci number(s)", _args_sequence, _cmd_sequence),
    "verify": ("run the full identity suite", _args_verify, _cmd_verify),
    "density": ("exact masses of one density", _args_density, _cmd_density),
    "sample": ("seeded draws from a density", _args_sample, _cmd_sample),
    "exp": ("both exponentials: product vs series", _args_exp, _cmd_exp),
}


def main(argv=None) -> int:
    """Run one command.  Bad input (a QtError, or a ValueError,
    ZeroDivisionError or OSError raised here, such as an --out path that
    cannot be opened) exits 1 with an error record; any other exception is a
    fault: ``"internal": true``, exit 2."""
    if argv is None:
        argv = sys.argv[1:]
    # only the named command's arguments are built (the others cost start-up)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except Exception as exc:
        import traceback  # here, so that commands that succeed never load it
        where = traceback.extract_tb(exc.__traceback__)[-1]
        internal = not isinstance(exc, QtError) and not (
            isinstance(exc, (ValueError, ZeroDivisionError, OSError))
            and where.filename == __file__)
        record = {"type": type(exc).__name__, "message": str(exc)}
        if internal:
            traceback.print_exc()
            record["internal"] = True
        sys.stdout.write(json.dumps({"error": record}) + "\n")
        return 2 if internal else 1


if __name__ == "__main__":
    sys.exit(main())

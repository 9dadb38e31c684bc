#!/usr/bin/env python3
"""Benchmark the two rational backends on a representative workload.

The hot path of this package is chained exact-rational arithmetic
(Pochhammer products and poset sums), so the relevant comparison is
gmpy2.mpq against the stdlib fractions.Fraction on the actual identity
suite.  Each backend runs in a subprocess because the choice is fixed at
import time via QTSPECIALS_BACKEND.  A backend that is not installed (the
child falls back to another one) is reported as skipped, not timed.

Usage: python scripts/bench_backends.py [--bound 3,3] [--points 3]
"""

import argparse
import os
import subprocess
import sys

WORKLOAD = """
import time
from qtspecials.identities import run_identity_suite
from qtspecials.scalars import backend_name

if backend_name() != "{backend}":
    print("{backend}: not installed, skipped")
    raise SystemExit(0)
t0 = time.perf_counter()
rep = run_identity_suite(({bound},), points={points}, seed=1)
elapsed = time.perf_counter() - t0
status = "ok" if rep.all_pass else "FAILED"
print(f"{{backend_name()}}: {{len(rep.checks)}} checks {{status}} in {{elapsed:.2f}}s")
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", default="3,3")
    parser.add_argument("--points", type=int, default=3)
    args = parser.parse_args()
    bound = args.bound.replace(" ", "")
    for backend in ("gmpy2", "fractions"):
        code = WORKLOAD.format(bound=bound, points=args.points, backend=backend)
        env = dict(os.environ, QTSPECIALS_BACKEND=backend)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        sys.stdout.write(result.stdout)
        if result.returncode != 0:
            sys.stderr.write(result.stderr)
            return result.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every exact criterion is checked at residual exactly zero; the truncated
criteria compare exact rational differences against rational tolerances.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from math import comb

from qtspecials.binomial import (
    binom_e1,
    binom_rect_lower,
    binom_rect_upper,
    gaussian_binomial,
    qt_binomial,
)
from qtspecials.distributions import (
    DensitySpec,
    exact_masses,
    exp_E,
    exp_e,
    poisson_normalization,
    sample,
)
from qtspecials.identities import (
    check_geometric,
    random_qt_point,
    run_identity_suite,
)
from qtspecials.partitions import contains, enumerate_sub, weight, zeros
from qtspecials.scalars import Rational, limit_at_one
from qtspecials.specials import (
    alpha_limit,
    bell,
    bernoulli,
    bernoulli_alpha,
    bernoulli_recurrence_residual,
    catalan,
    fibonacci,
    stirling,
    stirling_expansion_residual,
    u_coeff,
    v_coeff,
)
from qtspecials.wcore import (
    AtPoint,
    FormalQ,
    QtPoint,
    w_multi,
    w_principal,
    w_rectangular,
)

from self_values import wsdown_self, wsup_self

RANGES = [(4,), (4, 4), (3, 3, 3)]  # n = 1, 2, 3 sweeps
POINTS = 5
TOL6 = Rational(1, 10 ** 6)
TOL8 = Rational(1, 10 ** 8)


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    failures = 0
    total = 0
    for bound in RANGES:
        rep = run_identity_suite(bound, points=POINTS, seed=20240 + len(bound))
        total += len(rep.checks)
        failures += sum(1 for c in rep.checks if not c.passed)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 300
    assert report(1, "exact identity suite", ok,
                  f"({total} checks, {failures} failures, {elapsed:.1f}s)")


def test_criterion_2_closed_form_consistency():
    rng = random.Random(77)
    bad = 0
    checked = 0
    for bound in RANGES:
        n = len(bound)
        for _ in range(POINTS):
            point = random_qt_point(rng, n, max_part=bound[0] + 1)
            m = AtPoint(point)
            lams = enumerate_sub(bound)
            for lam in lams:
                for k in range(4):
                    checked += 1
                    if binom_rect_lower(lam, k, m) != qt_binomial(lam, (k,) * n, m):
                        bad += 1
                checked += 3
                if binom_e1(lam, m) != qt_binomial(lam, (1,) + (0,) * (n - 1), m):
                    bad += 1
                if w_principal("s_up", lam, lam, m) != wsup_self(lam, m):
                    bad += 1
                if w_principal("s_down", lam, lam, m) != wsdown_self(lam, m):
                    bad += 1
            for k in range(4):
                for mu in enumerate_sub((min(k, bound[0]),) * n):
                    checked += 1
                    if binom_rect_upper(k, mu, m) != qt_binomial((k,) * n, mu, m):
                        bad += 1
                z = tuple(Rational(rng.randint(1, 30), rng.randint(1, 30))
                          for _ in range(n))
                for kind in ("s_up", "s_down"):
                    checked += 1
                    if w_rectangular(kind, k, z, m) != \
                            w_multi(kind, (k,) * n, zeros(n), z, m):
                        bad += 1
    assert report(2, "closed-form consistency", bad == 0,
                  f"({checked} comparisons)")


def test_criterion_3_one_dimensional_reduction():
    rng = random.Random(78)
    bad = 0
    for _ in range(3):
        q = Rational(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        for t in (Rational(3, 5), Rational(7, 4), Rational(9, 11)):
            try:
                m = AtPoint(QtPoint(q, t, n=1, max_part=9))
            except Exception:
                continue
            for mm in range(9):
                for k in range(mm + 1):
                    if qt_binomial((mm,), (k,), m) != gaussian_binomial(mm, k, m):
                        bad += 1
    assert report(3, "1-D Gaussian reduction (t-independent)", bad == 0)


def test_criterion_4_stirling_structure():
    rng = random.Random(79)
    bad = 0
    for _ in range(3):
        point = random_qt_point(rng, 3, max_part=4)
        m = AtPoint(point)
        x = Rational(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        Q = Rational(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        lams = enumerate_sub((3, 2, 1))
        for nu in lams:
            if stirling("first", nu, nu, m) != 1 or stirling("second", nu, nu, m) != 1:
                bad += 1
            for mu in enumerate_sub(nu):
                delta = m.one if mu == nu else m.zero
                for a, b in (("first", "second"), ("second", "first")):
                    tot = m.zero
                    for lam in enumerate_sub(nu):
                        if contains(lam, mu):
                            tot = tot + stirling(a, nu, lam, m) * \
                                stirling(b, lam, mu, m)
                    if tot != delta:
                        bad += 1
        # change of basis over lam <= (3,2,2) at n=3
        for lam in enumerate_sub((3, 2, 2)):
            recip = m.one
            for i in range(1, 4):
                for k in range(lam[i - 1]):
                    recip = recip * (m.one - x * m.tpow(i - 1) * m.qpow(-k))
            ex_u = m.zero
            ex_v = m.zero
            for mu in enumerate_sub(lam):
                ex_u = ex_u + u_coeff(lam, mu, m) * x ** weight(mu)
                inner = m.one
                for i in range(1, 4):
                    for k in range(mu[i - 1]):
                        inner = inner * (m.one - x * m.tpow(i - 1) * m.qpow(-k))
                ex_v = ex_v + v_coeff(lam, mu, m) * inner
            if recip != ex_u or x ** weight(lam) != ex_v:
                bad += 1
        # defining expansion over lam <= (2,2)
        m2 = AtPoint(QtPoint(point.q, point.t, n=2, max_part=4))
        for lam in enumerate_sub((2, 2)):
            if stirling_expansion_residual(lam, Q, m2) != 0:
                bad += 1
    assert report(4, "Stirling structure", bad == 0)


def test_criterion_5_classical_limits():
    bern = [limit_at_one(bernoulli((m,), FormalQ.alpha(1))) for m in range(1, 5)]
    cat = [alpha_limit(lambda mo, m=m: catalan((m,), mo), 1) for m in range(6)]
    fib = [alpha_limit(lambda mo, m=m: fibonacci((m,), mo), 1) for m in range(10)]
    bel = [alpha_limit(lambda mo, m=m: bell((m,), mo), 1) for m in range(6)]
    ok = (
        bern == [Rational(-1, 2), Rational(1, 6), Rational(0), Rational(-1, 30)]
        and cat == [1, 1, 2, 5, 14, 42]
        and fib == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        and bel == [1, 1, 2, 5, 15, 52]
    )
    assert report(5, "classical 1-D limits", ok,
                  f"(B={bern} C={cat} F={fib} Bell={bel})")


def test_criterion_6_bernoulli_recurrence():
    rng = random.Random(80)
    bad = 0
    for n, box in ((1, (5,)), (2, (5, 5))):
        for _ in range(3):
            point = random_qt_point(rng, n, max_part=7)
            m = AtPoint(point)
            for lam in enumerate_sub(box):
                if not 1 <= weight(lam) <= 5:
                    continue
                if bernoulli_recurrence_residual(lam, m) != 0:
                    bad += 1
    assert report(6, "Bernoulli recurrence residual", bad == 0)


def test_criterion_7_truncated_analytics():
    pt = QtPoint(Rational(1, 2), Rational(1, 3), n=2, max_part=21)
    z = Rational(1, 10)
    E = exp_E(z, pt, 2, part_cap=20, trunc=40)
    e = exp_e(z, pt, 2, part_cap=20, trunc=40)
    Eneg = exp_E(-z, pt, 2, part_cap=20, trunc=40)
    recip = abs(e.series * Eneg.series - 1)
    agree = abs(E.difference) < TOL6 and abs(e.difference) < TOL6
    geo = check_geometric((1,), Rational(1, 10), 25, 40,
                          QtPoint(Rational(1, 2), Rational(1, 3), n=1,
                                  max_part=26), tolerance=TOL8)
    spec = DensitySpec(kind="poisson", z=Rational(1, 20), point=pt,
                       part_cap=20, trunc=40)
    total, _ = poisson_normalization(spec)
    ok = (recip < TOL6 and agree and geo.passed and abs(total - 1) < TOL6)
    assert report(
        7, "truncated analytics", ok,
        f"(recip~{float(recip):.1e} geo~{float(abs(geo.residual)):.1e} "
        f"poisson~{float(abs(total - 1)):.1e})",
    )


def test_criterion_8_sampler_fidelity():
    spec = DensitySpec(
        kind="binomial_g", z=Rational(1, 5), lam=(2, 1),
        point=QtPoint(Rational(1, 2), Rational(1, 3), n=2, max_part=6),
    )
    draws = 10 ** 4
    s = sample(spec, draws, seed=2024)
    masses = exact_masses(spec)
    bad = []
    for mu, p in masses.items():
        emp = s.empirical_mass.get(mu, Rational(0))
        if (emp - p) ** 2 >= 25 * p * (1 - p) / draws:
            bad.append(mu)
    assert report(8, "sampler fidelity (5 sigma)", not bad, f"{bad or ''}")


def test_criterion_9_exploratory_alpha_bernoulli():
    # report-only: odd-weight ordinary limits at n = 2 against the vanishing
    # conjecture; never fails
    rows = []
    for alpha in (1, 2):
        for lam in [(3, 0), (2, 1), (5, 0), (4, 1), (3, 2)]:
            v = bernoulli_alpha(lam, alpha)
            rows.append(f"alpha={alpha} lam={lam}: {v} "
                        f"({'vanishes' if v == 0 else 'nonzero'})")
    report(9, "exploratory odd-weight alpha-Bernoulli", True,
           "| " + " | ".join(rows))

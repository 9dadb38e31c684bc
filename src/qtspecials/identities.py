"""Executable verification of the package's identities.

Every check computes its left side and right side separately -- through
independent code paths wherever one exists -- and returns the exact
residual.  Exact checks pass iff the residual is exactly zero; truncated
checks carry a rational tolerance and are flagged approximate.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .binomial import binom_rect_lower, poch_reciprocal, qt_binomial, v_coeff
from .distributions import check_series, f_mass, g_mass, series_ratio
from .errors import (ConvergenceViolated, DegenerateParameters, InvalidArgument, NotARational,
                     PoleAtOne, check_sizes)
from .partitions import (
    bump,
    contains,
    enumerate_sub,
    format_partition,
    is_partition,
    n_prime_stat,
    n_stat,
    valid_bumps,
    weight,
    zeros,
)
from .scalars import RatFuncQ, Rational, as_rational, format_rational, limit_at_one
from .wcore import (
    Coef,
    QtPoint,
    ScalarMode,
    coef,
    guarded_div,
    memo,
    norm_weight,
    pair_ratio,
    poch_partition,
    pochm,
    prod_ratio,
    sum_prods,
    w_principal,
)

ATTEMPTS = 100  # draws before a sampler gives up
GEOMETRIC_PART_CAP, GEOMETRIC_TRUNC = 6, 30  # sizes of the suite's geometric checks


class IdentityCheck:
    """Record of one verified identity: name, both sides, exact residual.
    An approximate check passes when |residual| < tolerance.  The parameters
    are kept as given and formatted on the first read of ``params``."""

    __slots__ = ("name", "lhs", "rhs", "residual", "_raw", "_params", "approximate",
                 "tolerance")

    def __init__(self, name: str, lhs, rhs, residual, params: dict,
                 approximate: bool = False, tolerance=None):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self._raw = params
        self._params = None
        self.approximate = approximate
        self.tolerance = tolerance

    @property
    def params(self) -> dict:
        """The parameters as strings; a formal scalar is left out."""
        if self._params is None:
            self._params = {k: _show(v) for k, v in self._raw.items()
                            if not isinstance(v, RatFuncQ)}
        return self._params

    @property
    def passed(self) -> bool:
        if self.approximate:
            return abs(self.residual) < self.tolerance
        return self.residual == 0

    def to_record(self) -> dict:
        residual = self.residual
        if isinstance(residual, RatFuncQ):  # recorded only as a constant of q
            try:
                residual = limit_at_one(residual)
            except PoleAtOne:
                residual = None
            if self.residual != residual:
                raise NotARational(f"the residual of {self.name} is not constant in q")
        rec = {
            "name": self.name,
            "params": self.params,
            "residual": format_rational(residual),
            "approximate": self.approximate,
            "pass": self.passed,
        }
        if self.tolerance is not None:
            rec["tolerance"] = format_rational(self.tolerance)
        return rec


def _show(v) -> str:
    """One check parameter as a string: a partition, an int or a rational."""
    if isinstance(v, tuple):
        return format_partition(v)
    if isinstance(v, int):
        return str(v)
    return format_rational(v)


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------

def check_binomial_theorem(lam, x, mode: ScalarMode) -> IdentityCheck:
    """(x)_lam against the signed binomial sum over mu <= lam."""
    x = mode.lift(x)
    lhs = poch_partition(x, lam, mode)
    rhs = sum_prods([[v_coeff(lam, mu, mode), x ** weight(mu)] for mu in enumerate_sub(lam)],
                    mode)
    return IdentityCheck("binomial_theorem", lhs, rhs, lhs - rhs, dict(lam=lam, x=x))


@memo("slot", 2)
def _slot(s: Coef, n: int, mode: ScalarMode) -> Coef:
    """s^{-1} t^{n-1}, the auxiliary scalar of W^ab in the n-row series
    below, and at n = 1 the reciprocal 1/x of the 2phi1 sum; one per point."""
    if s.value == 0:
        raise DegenerateParameters("an inverted scalar of an identity check vanishes")
    return coef(s.value ** -1 * mode.tpow(n - 1), mode)


def _series_factors(nu, lam, s_slot: Coef, r: Coef, mode: ScalarMode) -> list:
    """q^{|lam|}, t^{2n(lam)}, the binomial weight of lam, W^ab_lam(q^nu
    t^delta; s_slot) and (r)_lam: the factors of the (nu, lam) half of a
    weak-cocycle term, and at r = 1/x of the terminating 2phi1 sum's term
    over lam <= nu."""
    return [mode.qpow(weight(lam)), mode.tpow(2 * n_stat(lam)), norm_weight(lam, mode),
            w_principal("ab", lam, nu, mode, s_slot), poch_partition(r, lam, mode)]


# Both halves of a weak-cocycle term recur across the checks of a point, so
# they are memoized; a 2phi1 check meets each of its terms once, so it sums
# their factors itself.
@memo("cocycle", 4)
def _cocycle_term(nu, lam, s_slot: Coef, r: Coef, mode: ScalarMode):
    return prod_ratio(_series_factors(nu, lam, s_slot, r, mode), [], mode)


@memo("cocycle_w", 3)
def _cocycle_w(lam, mu, r_slot: Coef, mode: ScalarMode):
    """The (lam, mu) half of a weak-cocycle term, W^ab_mu(q^lam t^delta; r_slot)."""
    return w_principal("ab", mu, lam, mode, r_slot)


def check_2phi1(lam, s, x, mode: ScalarMode) -> IdentityCheck:
    """Terminating sum: (s/x)_lam / (s)_lam against the strip-weighted series."""
    lam = tuple(lam)
    s = mode.lift(s)
    x = mode.lift(x)
    s_slot, x_inv = _slot(coef(s, mode), len(lam), mode), _slot(coef(x, mode), 1, mode)
    lhs = guarded_div(
        poch_partition(s * x_inv.value, lam, mode),
        poch_partition(s, lam, mode),
        "left side of the terminating sum",
    )
    rhs = sum_prods([_series_factors(lam, mu, s_slot, x_inv, mode)
                     for mu in enumerate_sub(lam)], mode)
    return IdentityCheck("2phi1", lhs, rhs, lhs - rhs, dict(lam=lam, s=s, x=x))


@memo("wsum", 2)
def _weighted_binom_sum(lam, k, mode: ScalarMode):
    return sum_prods([[mode.qpow(n_prime_stat(mu)), mode.tpow(-n_stat(mu)),
                       qt_binomial(lam, mu, mode)]
                      for mu in enumerate_sub(lam, weight_filter=k)], mode)


def check_pascal(lam, i: int, k: int, mode: ScalarMode) -> IdentityCheck:
    """Bump recurrence relating weight-k sums over lam + e_i to sums over lam."""
    lam_i = bump(lam, i)
    lhs = _weighted_binom_sum(lam_i, k, mode)
    terms = [[_weighted_binom_sum(lam, k, mode)]]
    if k >= 1:
        terms.append([mode.qpow(lam[i - 1]), mode.tpow(1 - i),
                      _weighted_binom_sum(lam, k - 1, mode)])
    rhs = sum_prods(terms, mode)
    return IdentityCheck("pascal", lhs, rhs, lhs - rhs, dict(lam=lam, i=i, k=k))


def check_symmetry(lam, k: int, mode: ScalarMode) -> IdentityCheck:
    """Weight-k and weight-(|lam|-k) binomial sums agree."""
    lhs, rhs = (sum_prods([[qt_binomial(lam, mu, mode)]
                           for mu in enumerate_sub(lam, weight_filter=w)], mode)
                for w in (k, weight(lam) - k))
    return IdentityCheck("symmetry", lhs, rhs, lhs - rhs, dict(lam=lam, k=k))


def check_weak_cocycle(nu, mu, s, r, mode: ScalarMode) -> IdentityCheck:
    """Composite shift by s*r against the double-shift expansion."""
    nu = tuple(nu)
    s = mode.lift(s)
    r = mode.lift(r)
    n = len(nu)
    s_coef, r_coef, sr_coef = coef(s, mode), coef(r, mode), coef(s * r, mode)
    lhs = poch_partition(sr_coef, nu, mode) * w_principal(
        "ab", mu, nu, mode, _slot(sr_coef, n, mode)
    )
    s_slot, r_slot = _slot(s_coef, n, mode), _slot(r_coef, n, mode)
    rhs = sum_prods([[_cocycle_term(nu, lam, s_slot, r_coef, mode),
                      _cocycle_w(lam, mu, r_slot, mode)]
                     for lam in enumerate_sub(nu) if contains(lam, mu)], mode)
    rhs = poch_partition(s_coef, nu, mode) * rhs  # the factor (s)_nu of every term
    return IdentityCheck(
        "weak_cocycle", lhs, rhs, lhs - rhs, dict(nu=nu, mu=mu, s=s, r=r)
    )


def check_double_binomial(nu, mu, mode: ScalarMode) -> IdentityCheck:
    """Telescoped product of two binomials against the nested double sum."""
    minus_one = coef(-mode.one, mode)
    lhs = prod_ratio(
        [mode.tpow(-n_stat(mu)), mode.qpow(n_prime_stat(mu)),
         poch_partition(minus_one, nu, mode), qt_binomial(nu, mu, mode)],
        [poch_partition(minus_one, mu, mode)], mode, "double-binomial left side")
    rhs = sum_prods([[mode.tpow(-n_stat(lam)), mode.qpow(n_prime_stat(lam)),
                      qt_binomial(nu, lam, mode), qt_binomial(lam, mu, mode)]
                     for lam in enumerate_sub(nu) if contains(lam, mu)], mode)
    return IdentityCheck("double_binomial", lhs, rhs, lhs - rhs, dict(nu=nu, mu=mu))


def check_density_normalization(lam, z, which: str, mode: ScalarMode) -> IdentityCheck:
    """Total mass of the g or f density over the poset below lam equals 1."""
    if which not in ("g", "f"):
        raise InvalidArgument("which must be 'g' or 'f'")
    mass = g_mass if which == "g" else f_mass
    z = mode.lift(z)
    total = sum_prods([[mass(lam, mu, z, mode)] for mu in enumerate_sub(lam)], mode)
    return IdentityCheck(
        f"density_normalization_{which}", total, mode.one, total - mode.one,
        dict(lam=lam, z=z),
    )


# ---------------------------------------------------------------------------
# Truncated (approximate) identity
# ---------------------------------------------------------------------------

def check_geometric(
    mu, z, part_cap: int, trunc: int, point: QtPoint, tolerance=Rational(1, 10 ** 8)
) -> IdentityCheck:
    """Truncated comparison of z^{|mu|} / (qz)_inf with its partition series.

    The series coefficient of z^{|lam|} carries the lam-indexed weight
    q^{|lam|} t^{2n(lam)+(1-n)|lam|} / (q t^{n-1})_lam times both pair
    ratios, against the s_up value at the principal argument of lam; for
    mu = 0^n this is exactly the series expansion of 1/(qz)_inf, and at
    n = 1 it reduces to the classical expansion of 1/(qz; q)_inf.

    The left side truncates each of the n infinite products at ``trunc``
    factors; the right side sums over partitions containing mu with parts
    at most ``part_cap``.  Requires |q| < 1 and the ratio-test condition.
    """
    n = len(mu)
    z = check_series(z, point, n, part_cap, trunc)
    if not series_ratio(point.q * z, point, n) < 1:
        raise ConvergenceViolated("parameters violate max_i |q z t^(2i-n-1)| < 1")
    mode = point.mode
    qz = mode.q * z
    prod = poch_partition(qz, (trunc,) * n, mode)
    lhs = guarded_div(z ** weight(mu), prod, "truncated product") * pair_ratio(mu, mode, 0)
    terms = []
    for lam in enumerate_sub((part_cap,) * n):
        if not contains(lam, mu):
            continue
        w = w_principal("s_up", mu, lam, mode)
        if w == 0:
            continue
        wl = weight(lam)
        terms.append([qz ** wl, mode.tpow(2 * n_stat(lam) + (1 - n) * wl),
                      norm_weight(lam, mode), pair_ratio(lam, mode, 0), w])
    rhs = sum_prods(terms, mode)
    return IdentityCheck(
        "geometric", lhs, rhs, lhs - rhs,
        dict(mu=mu, z=z, part_cap=part_cap, trunc=trunc),
        approximate=True, tolerance=as_rational(tolerance),
    )


# ---------------------------------------------------------------------------
# Seeded random parameter generation
# ---------------------------------------------------------------------------

def random_rational(rng: random.Random) -> Rational:
    """Numerator and denominator drawn uniformly from [1, 10^6]."""
    return Rational(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def random_unit(rng: random.Random) -> Rational:
    """A rational strictly between 0 and 1."""
    b = rng.randint(2, 10 ** 6)
    a = rng.randint(1, b - 1)
    return Rational(a, b)


def random_qt_point(rng: random.Random, n: int, max_part: int,
                    draw_q=random_rational, draw_t=random_rational) -> QtPoint:
    """Draw a non-degenerate (q, t): q = draw_q(rng), then t = draw_t(rng)."""
    for _ in range(ATTEMPTS):
        q = draw_q(rng)
        t = draw_t(rng)
        try:
            return QtPoint(q, t, n=n, max_part=max_part)
        except DegenerateParameters:
            continue
    raise DegenerateParameters(f"no valid point found in {ATTEMPTS} attempts")


def sample_until(rng: random.Random, draw, accept):
    """Resample ``draw(rng)`` until ``accept`` does not reject it."""
    for _ in range(ATTEMPTS):
        value = draw(rng)
        if accept(value):
            return value
    raise DegenerateParameters(f"rejected {ATTEMPTS} consecutive samples")


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

class VerificationReport:
    """Aggregated per-identity residual records for one suite run; notes are
    report-only and never fail."""

    __slots__ = ("n", "bound", "points", "seed", "checks", "notes")

    def __init__(self, n: int, bound: tuple, points: int, seed: int):
        self.n = n
        self.bound = bound
        self.points = points
        self.seed = seed
        self.checks = []
        self.notes = []

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: IdentityCheck):
        self.checks.append(check)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "bound": format_partition(self.bound),
            "points": self.points,
            "seed": self.seed,
            "total": len(self.checks),
            "failures": sum(1 for c in self.checks if not c.passed),
            "all_pass": self.all_pass,
            "checks": [c.to_record() for c in self.checks],
        }
        if self.notes:
            out["exploratory"] = self.notes
        return out


def _start(bound, points: int, seed: int, report):
    """(bound, n, rng, report) of a suite run; a new report unless given."""
    bound = tuple(bound)
    n = len(bound)
    check_sizes(1, points=points, n=n)
    if report is None:
        report = VerificationReport(n=n, bound=bound, points=points, seed=seed)
    return bound, n, random.Random(seed), report


def run_identity_suite(
    bound,
    points: int = 5,
    seed: int = 0,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Run every identity check over all partitions below ``bound``.

    One (q, t) point plus fresh auxiliary scalars are drawn per round; the
    same seeded stream makes the whole report reproducible byte for byte.
    """
    bound, n, rng, report = _start(bound, points, seed, report)
    lams = enumerate_sub(bound)
    for _ in range(points):
        point = random_qt_point(rng, n, max_part=bound[0] + 1)
        mode = point.mode

        # scalars entering Pochhammer denominators must keep them alive
        def alive(v):
            return v != 0 and poch_partition(v, bound, mode) != 0

        x = sample_until(rng, random_rational, lambda v: v != 0)
        z = sample_until(rng, random_rational, alive)
        s = sample_until(rng, random_rational, alive)
        r = sample_until(rng, random_rational, lambda v: alive(v) and alive(v * s))
        for lam in lams:
            report.add(check_binomial_theorem(lam, x, mode))
            report.add(check_2phi1(lam, s, x, mode))
            report.add(check_density_normalization(lam, z, "g", mode))
            report.add(check_density_normalization(lam, z, "f", mode))
            for k in range(weight(lam) + 1):
                report.add(check_symmetry(lam, k, mode))
            for i in valid_bumps(lam):
                for k in range(weight(lam) + 1):
                    report.add(check_pascal(lam, i, k, mode))
        for nu in lams:
            for mu in enumerate_sub(nu):
                report.add(check_double_binomial(nu, mu, mode))
                report.add(check_weak_cocycle(nu, mu, s, r, mode))
        # truncated geometric series at a deliberately small |q| point
        gpoint = random_qt_point(rng, n, GEOMETRIC_PART_CAP,
                                 lambda r: random_unit(r) / 2, random_unit)
        bnd = series_ratio(gpoint.q, gpoint, n)
        zgeo = Rational(1, 100 * (1 + bnd.numerator // bnd.denominator))
        for mu in (zeros(n), bump(zeros(n), 1)):
            report.add(
                check_geometric(mu, zgeo, GEOMETRIC_PART_CAP, GEOMETRIC_TRUNC, gpoint,
                                tolerance=Rational(1, 10 ** 6))
            )
    return report


# ---------------------------------------------------------------------------
# Checks for the special-number layer
# ---------------------------------------------------------------------------

def _classical_sequences():
    """1-part classical reference values computed independently here."""
    from math import comb

    bern = [Rational(1)]
    for m in range(1, 5):
        # sum_{k<=m} C(m+1, k) B_k = 0, added one term at a time: these are
        # reference values, kept apart from the library's one sum
        acc = Rational(0)
        for k in range(m):
            acc += comb(m + 1, k) * bern[k]
        bern.append(-acc / (m + 1))
    catalan = [Rational(comb(2 * m, m), m + 1) for m in range(6)]
    fib = [Rational(1), Rational(1)]
    for _ in range(8):
        fib.append(fib[-1] + fib[-2])
    # Bell via the triangle
    s2 = {(0, 0): 1}
    for m in range(1, 6):
        for k in range(m + 1):
            s2[(m, k)] = (k and s2.get((m - 1, k - 1), 0)) + k * s2.get((m - 1, k), 0)
    bell = [Rational(sum(s2.get((m, k), 0) for k in range(m + 1))) for m in range(6)]
    return bern[1:], catalan, fib, bell


def run_specials_suite(
    bound, points: int = 3, seed: int = 0,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Checks for the Stirling/Bernoulli/Bell/Catalan/Fibonacci layer.

    Covers: first/second-kind diagonals and matrix inversion, both
    change-of-basis expansions, the bracket expansion in the first kind,
    the Bernoulli recurrence residual, classical 1-part limits of all four
    sequence families, the rectangular Catalan closed forms, and the
    exploratory odd-weight Bernoulli report (non-failing).
    """
    # imported here: run_identity_suite never needs specials, and a module-level
    # import would add its load to every run of that suite
    from .specials import (
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

    bound, n, rng, report = _start(bound, points, seed, report)
    stir_bound = tuple(min(b, c) for b, c in zip(bound, (3, 2, 1) + (1,) * max(0, n - 3)))
    stir_lams = enumerate_sub(stir_bound)
    for _ in range(points):
        point = random_qt_point(rng, n, max_part=bound[0] + 1)
        mode = point.mode
        x = sample_until(rng, random_rational, lambda v: v != 0)
        Q = sample_until(rng, random_rational, lambda v: v != 0)

        # u/v and Stirling inversion, diagonals
        for nu in stir_lams:
            for kind in ("first", "second"):
                d = stirling(kind, nu, nu, mode)
                report.add(IdentityCheck(
                    f"stirling_diagonal_{kind}", d, mode.one, d - mode.one,
                    dict(nu=nu),
                ))
            for mu in enumerate_sub(nu):
                lams = [lam for lam in enumerate_sub(nu) if contains(lam, mu)]
                uv = sum_prods([[u_coeff(nu, lam, mode), v_coeff(lam, mu, mode)]
                                for lam in lams], mode)
                s12 = sum_prods([[stirling("first", nu, lam, mode),
                                  stirling("second", lam, mu, mode)] for lam in lams], mode)
                delta = mode.one if mu == nu else mode.zero
                report.add(IdentityCheck(
                    "uv_inversion", uv, delta, uv - delta, dict(nu=nu, mu=mu)))
                report.add(IdentityCheck(
                    "stirling_inversion", s12, delta, s12 - delta,
                    dict(nu=nu, mu=mu)))

        # change of basis: reciprocal-base product against u; powers against v
        for lam in stir_lams:
            recip = poch_reciprocal(x, lam, mode)
            mus = enumerate_sub(lam)
            ex_u = sum_prods([[u_coeff(lam, mu, mode), x ** weight(mu)] for mu in mus], mode)
            ex_v = sum_prods([[v_coeff(lam, mu, mode), poch_reciprocal(x, mu, mode)]
                              for mu in mus], mode)
            report.add(IdentityCheck(
                "change_of_basis_u", recip, ex_u, recip - ex_u, dict(lam=lam, x=x)))
            xw = x ** weight(lam)
            report.add(IdentityCheck(
                "change_of_basis_v", xw, ex_v, xw - ex_v, dict(lam=lam, x=x)))
            report.add(IdentityCheck(
                "stirling_expansion",
                "(bracket)", "(expansion)",
                stirling_expansion_residual(lam, Q, mode),
                dict(lam=lam, Q=Q),
            ))

        # Bernoulli recurrence residual
        bern_bound = tuple(min(b, c) for b, c in zip(bound, (4, 2) + (1,) * max(0, n - 2)))
        for lam in enumerate_sub(bern_bound):
            if weight(lam) == 0:
                continue
            res = bernoulli_recurrence_residual(lam, mode)
            report.add(IdentityCheck(
                "bernoulli_recurrence", "(sum)", mode.zero, res, dict(lam=lam)))

        # Catalan closed forms at this point: the bracket ratio prod_i
        # (1 - q t^{n-i}) / (1 - q^{k+[i=1]} t^{n-i}) is written out in
        # factors, since catalan itself divides by qt_bracket
        kmax = min(bound[0], 3)
        for k in range(1, kmax + 1):
            lam = (k,) * n
            lhs = catalan(lam, mode)
            closed = prod_ratio([pochm(1, n - i, 1, mode) for i in range(1, n + 1)]
                                + [binom_rect_lower((2 * k,) * n, k, mode)],
                                [pochm(k + (i == 1), n - i, 1, mode) for i in range(1, n + 1)],
                                mode, "rectangular Catalan")
            report.add(IdentityCheck(
                "catalan_rectangular", lhs, closed, lhs - closed, dict(k=k)))

        # Bell against its defining sum, restated independently.  bell sums
        # through sum_prods, so this side adds one term at a time on purpose:
        # a fault in the one sum cannot then pass both sides.
        for lam in stir_lams:
            b = bell(lam, mode)
            direct = mode.zero
            for mu in enumerate_sub(lam):
                direct = direct + (
                    mode.tpow(-n_stat(mu)) * mode.qpow(n_prime_stat(mu))
                    * stirling("second", lam, mu, mode)
                )
            report.add(IdentityCheck(
                "bell_definition", b, direct, b - direct, dict(lam=lam)))

        # Fibonacci against a brute-force decomposition sum, added one term at
        # a time on purpose, as the Bell check above is.
        fib_bound = tuple(min(b, 2) for b in bound)
        for lam in enumerate_sub(fib_bound):
            got = fibonacci(lam, mode)
            brute = mode.zero
            for nu in iproduct(*(range(p + 1) for p in lam)):
                mu = tuple(l - v for l, v in zip(lam, nu))
                if not (is_partition(nu) and is_partition(mu)):
                    continue
                wm = weight(mu)
                brute = brute + (
                    mode.qpow(2 * n_prime_stat(mu))
                    * mode.tpow(2 * (n - 1) * wm - 2 * n_stat(mu))
                    * qt_binomial(nu, mu, mode)
                )
            report.add(IdentityCheck(
                "fibonacci_decomposition", got, brute, got - brute, dict(lam=lam)))

    # classical 1-part limits (deterministic, point-free)
    bern, cat, fib, bel = _classical_sequences()
    classical = (("bernoulli", bernoulli, 1, bern), ("catalan", catalan, 0, cat),
                 ("fibonacci", fibonacci, 0, fib), ("bell", bell, 0, bel))
    for name, fn, first, refs in classical:
        for m, ref in enumerate(refs, start=first):
            got = alpha_limit(lambda mo: fn((m,), mo), 1)
            report.add(IdentityCheck(
                f"classical_{name}", got, ref, got - ref, dict(m=m)))

    # exploratory: odd-weight ordinary Bernoulli values (reported, not asserted)
    if n == 2:
        for alpha in (1, 2):
            for lam in [(3, 0), (2, 1), (5, 0), (4, 1), (3, 2)]:
                val = bernoulli_alpha(lam, alpha)
                report.notes.append({
                    "family": "alpha_bernoulli_odd_weight",
                    "lam": format_partition(lam),
                    "alpha": alpha,
                    "value": format_rational(val),
                    "vanishes": val == 0,
                })
    return report

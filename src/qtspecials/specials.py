"""Partition-indexed qt-Stirling, Bernoulli, Bell, Catalan and Fibonacci
numbers, plus the integer-alpha ordinary limits (t = q^alpha, q -> 1).

Each Stirling number is a sum of products of two change-of-basis
coefficients, one taken in the outer mode and one as an inner limit: the
coefficient at parameters (1/q, 1/t) as q tends to 1.  u at (1/q, 1/t) is
v at (q, t), term by term: both expand (x; q, t)_lam over mu in the powers
x^{|mu|} (the binomial theorem), and tests/test_specials.py checks the
equality of the formal values.  A limit at q = 1 does not change under
q -> 1/q, so both inner limits are one signed binomial limit,
(-1)^{|mu|} T^{-n(mu)} b_T(lam, mu): v's at T = 1/t, u's at T = t, and
T = 1 when t = q^a (for one part only).  b_T(lam, mu), the q -> 1 limit of
the qt-binomial at t = T, comes in Rationals from the limit of the one-box
recursion of the binomial, the analogue of the Jack and Macdonald binomial
recursions (Lassalle, J. Funct. Anal. 158 (1998); Okounkov, Math. Res.
Lett. 4 (1997)), see ``_b``; only a pair whose recursion has D = 0 takes
the formal limit of ``qt_binomial`` in a ``FormalQ(T)``.  The other
coefficient is u, ``u_coeff`` from the W family ``s_down``, or v, which a
point solves from u (u and v are inverse triangular matrices, U V = I) and
a formal mode takes from ``v_coeff``.  So a Stirling sum at a point builds
one W family, ``s_down``, and, away from D = 0, no formal value.

u, v, b and the powers of T are cached in the outer mode ("u", "v", "b",
"Tpow"), and so is the ``FormalQ(T)`` of the D = 0 pairs ("inner").  The
alpha-binomials and alpha-Bernoulli numbers take their q -> 1 limits through
``_limit``, which keeps each in the cache of ``FormalQ.alpha(a)``, alive as
long as the process.
"""

from __future__ import annotations

from math import prod

from .binomial import qt_binomial, qt_bracket, qt_bracket_shifted, v_coeff
from .errors import (DegenerateParameters, InvalidArgument, UnsupportedRegime, check_alpha,
                     check_sizes)
from .partitions import (
    bump,
    check_decreasing,
    check_partition,
    contains,
    enumerate_sub,
    n_prime_stat,
    n_stat,
    scale,
    sum_decompositions,
    valid_bumps,
    weight,
)
from .scalars import Rational, limit_at_one, sum_rationals
from .wcore import (
    FormalQ,
    ScalarMode,
    cargs,
    coef,
    memo,
    norm_weight,
    pochm,
    prod_ratio,
    sum_prods,
    w_principal,
)


# ---------------------------------------------------------------------------
# Change-of-basis coefficients and qt-Stirling numbers
# ---------------------------------------------------------------------------

def u_coeff(lam, mu, mode: ScalarMode):
    """Coefficient of x^{|mu|} in the expansion of (x; 1/q, 1/t)_lam."""
    if not contains(check_partition(lam), mu):
        return mode.zero
    w = w_principal("s_down", mu, lam, mode)
    if w == 0:
        return mode.zero
    return prod_ratio([mode.qpow(weight(mu)), mode.tpow(2 * n_stat(mu)), norm_weight(mu, mode), w],
                      [], mode)


@memo("limit", 2)
def _limit(fn, args, mode: FormalQ):
    """lim_{q -> 1} of fn(*args, mode) as an exact Rational, cached in the
    formal ``mode``: the alpha-binomials and alpha-Bernoulli numbers, and the
    Stirling inner limits of the binomial at D = 0 (``_b``)."""
    return limit_at_one(fn(*args, mode))


@memo("Tpow", 2)
def _t_power(k: int, reciprocal: bool, mode: ScalarMode) -> Rational:
    """T^{-k} for the inner limits of ``mode``: T = 1/t0 if ``reciprocal``,
    else t0, and T = 1 when t = q^a."""
    if mode.t0 is None:
        return Rational(1)
    return mode.t0 ** (k if reciprocal else -k)


@memo("inner", 1)
def _inner_mode(reciprocal: bool, mode: ScalarMode) -> FormalQ:
    """FormalQ(T), T as in ``_t_power``, in which ``_b`` takes the limit of a
    pair with D = 0; built for such a pair only."""
    return FormalQ(1 if mode.t0 is None else 1 / mode.t0 if reciprocal else mode.t0)


@memo("b", 3)
def _b(lam, mu, reciprocal: bool, mode: ScalarMode) -> Rational:
    """b_T(lam, mu), the limit at q = 1 of ``qt_binomial(lam, mu)`` in
    ``FormalQ(T)``, T as in ``_t_power``, in Rationals; cached in ``mode``.
    Called on mu <= lam only.

    The one-box recursion of the binomial (the analogue of the Jack and
    Macdonald binomial recursions, Lassalle 1998, Okounkov 1997) in the
    limit: D b(lam, mu) = sum_i T^{1-i} b(lam, nu) b(nu, mu) over the
    partitions nu = mu + e_i inside lam, D = sum_i (lam_i - mu_i) T^{1-i},
    top-down from b(lam, lam) = 1, with the one-box value
    b(nu, mu) = (nu_i - nu_{i+1}) T^{1-i} [i]_T, nu_{n+1} = 0.  Both are
    observed, not proved here: tests/test_specials.py checks them against the
    formal limit.  A pair with D = 0 takes the formal limit of the binomial
    instead.
    """
    if lam == mu:
        return Rational(1)
    d = sum_rationals([[li - mi, _t_power(i - 1, reciprocal, mode)]
                       for i, (li, mi) in enumerate(zip(lam, mu), start=1) if li != mi])
    if d == 0:
        return _limit(qt_binomial, (lam, mu), _inner_mode(reciprocal, mode))
    terms = []
    for i in valid_bumps(mu):
        nu = bump(mu, i)
        if contains(lam, nu):
            # T^{1-i} b(lam, nu) b(nu, mu) as i terms: T^{1-i} [i]_T = T^0 + ... + T^{1-i}
            box = nu[i - 1] - (nu[i] if i < len(nu) else 0)
            b = _b(lam, nu, reciprocal, mode)
            terms.extend([box, _t_power(i - 1 + k, reciprocal, mode), b] for k in range(i))
    return sum_rationals(terms) / d


def _inner_limit(lam, mu, reciprocal: bool, mode: ScalarMode):
    """The inner limit, lifted into ``mode``, of v(lam, mu) if ``reciprocal``,
    else of u(lam, mu): (-1)^{|mu|} T^{-n(mu)} b_T(lam, mu)."""
    x = _b(lam, mu, reciprocal, mode) * _t_power(n_stat(mu), reciprocal, mode)
    return mode.lift(-x if weight(mu) % 2 else x)


@memo("u", 2)
def _u(lam, kappa, mode: ScalarMode):
    """``u_coeff``, cached in ``mode``."""
    return u_coeff(lam, kappa, mode)


@memo("v", 2)
def _v(lam, mu, mode: ScalarMode):
    """v(lam, mu), cached in ``mode``: ``v_coeff`` in a formal mode, where a
    solve would add RatFuncQs that no gcd reduces; at a point solved from
    ``_u``.

    u and v are inverse triangular matrices:
    sum_{mu <= kappa <= lam} u(lam, kappa) v(kappa, mu) = delta(lam, mu),
    triangular in kappa with the unknown v(lam, mu) at kappa = lam.  Its
    leading coefficient u(lam, lam) = 1 / v(lam, lam) is a signed monomial in
    q and t, never 0.  Called on mu <= lam only.
    """
    if not mode.is_point:
        return v_coeff(lam, mu, mode)
    if lam == mu:
        return 1 / _u(lam, lam, mode)
    return _solve_recurrence(
        lam, lambda kappa: _u(lam, kappa, mode) if contains(kappa, mu) else 0,
        lambda kappa: _v(kappa, mu, mode), sum_rationals)


STIRLING_KINDS = ("first", "second")


def stirling(kind: str, nu, mu, mode: ScalarMode):
    """qt-Stirling number of the first or second kind at (nu, mu): a prefactor
    times sum_{mu <= lam <= nu} u(nu, lam) t^{s|lam|} v(lam, mu), where the
    first kind takes v and the second u as the inner limit.  Checks come
    before the cache: nu a partition, mu weakly decreasing (0 if negative)."""
    if kind not in STIRLING_KINDS:
        raise InvalidArgument(f"kind must be one of {STIRLING_KINDS}")
    return _stirling(kind, check_partition(nu), check_decreasing(mu), mode)


@memo("stirling", 3)
def _stirling(kind: str, nu, mu, mode: ScalarMode):
    if not contains(nu, mu) or (mu and mu[-1] < 0):
        return mode.zero
    n = len(nu)
    if n > 1 and mode.t0 is None:
        raise UnsupportedRegime(
            "Stirling limits with n >= 2 need a rational t "
            "(a point mode or a formal mode with fixed t)"
        )
    first = kind == "first"
    if first:
        s = 1 - n
        qe, te = n_prime_stat(nu), -2 * n_stat(mu) - s * weight(mu)
    else:
        s = n - 1
        qe, te = -n_prime_stat(mu), 2 * n_stat(nu) - s * weight(nu)
    pref = prod_ratio([mode.qpow(qe), mode.tpow(te)],
                      [pochm(1, n - i, 1, mode) ** (v - m)
                       for i, (v, m) in enumerate(zip(nu, mu), start=1) if v != m],
                      mode, "Stirling prefactor")
    terms = []
    for lam in enumerate_sub(nu):
        if not contains(lam, mu):
            continue
        u = _u(nu, lam, mode) if first else _inner_limit(nu, lam, False, mode)
        if u == 0:
            continue
        v = _inner_limit(lam, mu, True, mode) if first else _v(lam, mu, mode)
        if v == 0:
            continue
        terms.append([u, mode.tpow(s * weight(lam)), v])
    return pref * sum_prods(terms, mode)


def stirling_expansion_residual(lam, Q, mode: ScalarMode):
    """Residual of the first-kind defining expansion at a principal value Q.

    The shifted bracket of lam expands over mu <= lam with coefficient
    s1(lam, mu) against the weighted bracket-power basis
    t^{2n(mu)+(1-n)|mu|} * prod_i [(1-Q t^{n-i}) / (1-q t^{n-i})]^{mu_i};
    the weight is forced by the diagonal normalization s1(lam, lam) = 1.
    """
    Q = mode.lift(Q)
    n = len(lam)
    lhs = qt_bracket_shifted(Q, lam, mode)
    cq = cargs(coef(Q, mode))
    brackets = [prod_ratio([pochm(0, n - i, 1, mode, *cq)], [pochm(1, n - i, 1, mode)], mode,
                           "bracket-power basis") for i in range(1, n + 1)]
    rhs = sum_prods([[stirling("first", lam, mu, mode),
                      mode.tpow(2 * n_stat(mu) + (1 - n) * weight(mu))]
                     + [b ** m for b, m in zip(brackets, mu) if m]
                     for mu in enumerate_sub(lam)], mode)
    return lhs - rhs


class StirlingTable:
    """All Stirling numbers of one kind on the poset below a bound; entries
    maps (nu, mu) to the scalar, only for mu <= nu."""

    __slots__ = ("kind", "n", "bound", "entries")

    def __init__(self, kind: str, n: int, bound: tuple, entries: dict):
        self.kind = kind
        self.n = n
        self.bound = bound
        self.entries = entries

    @classmethod
    def build(cls, kind: str, bound, mode: ScalarMode) -> "StirlingTable":
        bound = tuple(bound)
        entries = {}
        for nu in enumerate_sub(bound):
            for mu in enumerate_sub(nu):
                entries[(nu, mu)] = stirling(kind, nu, mu, mode)
        return cls(kind=kind, n=len(bound), bound=bound, entries=entries)


# ---------------------------------------------------------------------------
# Bernoulli, Bell, Catalan, Fibonacci
# ---------------------------------------------------------------------------

def _solve_recurrence(lam, coeff, value, total):
    """The unknown at lam of sum_{mu <= lam} coeff(mu) * value(mu) = 0, given
    value(mu) for every mu strictly below lam; ``total`` sums a list of
    factor lists, in the scalars that coeff and value return."""
    lead = coeff(lam)
    if lead == 0:
        raise DegenerateParameters(
            f"leading coefficient of the recurrence vanishes at {lam}"
        )
    terms = []
    for mu in enumerate_sub(lam):
        if mu == lam:
            continue
        c = coeff(mu)
        if c != 0:
            terms.append([c, value(mu)])
    return -total(terms) / lead


def _bernoulli_weight(lam1, mu, mode: ScalarMode):
    """t^{-n(mu)} q^{n(mu')} B(lam1, mu), the weight of beta_mu in the
    recurrence at lam = lam1 - e_1."""
    b = qt_binomial(lam1, mu, mode)  # first: it refuses an index that is no partition
    return prod_ratio([mode.tpow(-n_stat(mu)), mode.qpow(n_prime_stat(mu)), b], [], mode)


def bernoulli(lam, mode: ScalarMode):
    """qt-Bernoulli number, from the triangular recurrence with value 1 at 0^n.

    Each partition of positive weight introduces exactly one new unknown,
    so the defining relation
    sum_{mu <= lam} t^{-n(mu)} q^{n(mu')} B(lam+e_1, mu) beta_mu = 0
    solves uniquely for beta_lam.  lam is checked before the cache.
    """
    return _bernoulli(check_partition(lam), mode)


@memo("bernoulli", 1)
def _bernoulli(lam, mode: ScalarMode):
    if weight(lam) == 0:
        return mode.one
    lam1 = bump(lam, 1)
    return _solve_recurrence(lam, lambda mu: _bernoulli_weight(lam1, mu, mode),
                             lambda mu: bernoulli(mu, mode), lambda ts: sum_prods(ts, mode))


def bernoulli_recurrence_residual(lam, mode: ScalarMode):
    """sum_{mu <= lam} t^{-n(mu)} q^{n(mu')} B(lam+e_1, mu) beta_mu; zero by
    construction for |lam| >= 1."""
    lam1 = bump(lam, 1)
    return sum_prods([[_bernoulli_weight(lam1, mu, mode), bernoulli(mu, mode)]
                      for mu in enumerate_sub(lam)], mode)


def bell(lam, mode: ScalarMode):
    """qt-Bell number: sum_{mu <= lam} t^{-n(mu)} q^{n(mu')} s2(lam, mu)."""
    return sum_prods([[mode.tpow(-n_stat(mu)), mode.qpow(n_prime_stat(mu)),
                       stirling("second", lam, mu, mode)] for mu in enumerate_sub(lam)], mode)


def catalan(lam, mode: ScalarMode):
    """qt-Catalan number: the binomial of 2*lam over lam, divided by the
    bracket of lam + e_1; requires that bracket to be nonzero."""
    lam1 = bump(lam, 1)
    den = qt_bracket(lam1, mode)
    if den == 0:
        raise DegenerateParameters(f"bracket of {lam1} vanishes")
    return qt_binomial(scale(lam, 2), lam, mode) / den


def fibonacci(lam, mode: ScalarMode):
    """qt-Fibonacci number indexed by lam + e_1, via the coordinatewise
    decomposition sum over nu + mu = lam."""
    n = len(lam)
    return sum_prods([[mode.qpow(2 * n_prime_stat(mu)),
                       mode.tpow(2 * (n - 1) * weight(mu) - 2 * n_stat(mu)),
                       qt_binomial(nu, mu, mode)]
                      for nu, mu in sum_decompositions(lam) if contains(nu, mu)], mode)


# ---------------------------------------------------------------------------
# Ordinary alpha-limits
# ---------------------------------------------------------------------------

def alpha_limit(quantity, alpha: int):
    """Exact limit at q -> 1 of a deferred computation with t = q^alpha.

    ``quantity`` is a callable taking a ScalarMode; it is evaluated in the
    formal mode with t = q^alpha (alpha a positive integer keeps every
    scalar a univariate rational function of q) and the limit is taken by
    (q - 1) cancellation.
    """
    return limit_at_one(quantity(FormalQ.alpha(alpha)))


def binomial_alpha(lam, mu, alpha: int) -> Rational:
    """alpha-binomial coefficient: the t = q^alpha, q -> 1 limit."""
    return _limit(qt_binomial, (check_partition(lam), check_decreasing(mu)),
                  FormalQ.alpha(alpha))


def bernoulli_alpha(lam, alpha: int) -> Rational:
    """alpha-Bernoulli number via the recurrence over alpha-binomials.

    The recurrence is triangular and its leading binomial has a nonzero
    limit, so the limit of the solution satisfies the recurrence of the
    limits (the monomial weights tend to 1); solving over exact rationals
    avoids any large formal denominators.
    """
    return _bernoulli_limit(check_partition(lam), FormalQ.alpha(alpha))


@memo("bernoulli_limit", 1)
def _bernoulli_limit(lam, mode: FormalQ) -> Rational:
    if weight(lam) == 0:
        return Rational(1)
    lam1 = bump(lam, 1)
    return _solve_recurrence(lam, lambda mu: _limit(qt_binomial, (lam1, mu), mode),
                             lambda mu: _bernoulli_limit(mu, mode), sum_rationals)


def bracket_alpha(z, alpha: int) -> Rational:
    """alpha-limit of the bracket: prod_i (z_i + alpha(n-i)) / (1 + alpha(n-i)).

    At t = q^alpha the i-th factor of ``qt_bracket`` is
    (1 - q^{z_i + alpha(n-i)}) / (1 - q^{1 + alpha(n-i)}), and
    (1 - q^a) / (1 - q^b) tends to a / b at q = 1 for every int a and b != 0.
    """
    check_alpha(alpha)
    z = tuple(z)
    for zi in z:
        check_sizes(None, z_i=zi)
    n = len(z)
    return Rational(prod(zi + alpha * (n - i) for i, zi in enumerate(z, start=1)),
                    prod(1 + alpha * (n - i) for i in range(1, n + 1)))

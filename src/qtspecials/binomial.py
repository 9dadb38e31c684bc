"""Partition-indexed qt-binomial coefficients, qt-brackets and closed forms.

The central object is ``qt_binomial(lam, mu, mode)``: a two-parameter
deformation of the binomial coefficient indexed by a pair of n-part
partitions.  It reduces to the Gaussian polynomial at n = 1, equals 1 on
the diagonal and at mu = 0^n, and vanishes unless 0^n <= mu <= lam in the
componentwise order.
"""

from __future__ import annotations

from .errors import check_sizes
from .partitions import check_decreasing, check_partition, contains, n_prime_stat, n_stat, weight
from .wcore import (
    ScalarMode,
    cargs,
    coef,
    memo,
    norm_weight,
    pair_ratio,
    pochm,
    prod_ratio,
    sum_prods,
    w_principal,
)


def qt_binomial(lam, mu, mode: ScalarMode):
    """The qt-binomial coefficient of lam over mu.

    mu may be a generalized (weakly decreasing, possibly negative)
    integer vector; any negative part forces the value 0, as does
    mu not contained in lam.  Both are checked before the cache is read.
    """
    return _qt_binomial(check_partition(lam), check_decreasing(mu), mode)


@memo("binom", 2)
def _qt_binomial(lam, mu, mode: ScalarMode):
    if not contains(lam, mu) or (mu and mu[-1] < 0):
        return mode.zero
    n = len(mu)
    w = weight(mu)
    return prod_ratio([mode.qpow(w), mode.tpow(2 * n_stat(mu) + (1 - n) * w),
                       norm_weight(mu, mode), w_principal("s_up", mu, lam, mode)], [], mode)


def v_coeff(lam, mu, mode: ScalarMode):
    """Coefficient of (x; 1/q, 1/t)_mu in the expansion of x^{|lam|}.

    By the qt-binomial theorem this is the binomial of lam over mu times
    (-1)^{|mu|} q^{n(mu')} t^{-n(mu)}.
    """
    b = qt_binomial(lam, mu, mode)  # first: it refuses an index that is no partition
    if b == 0:  # also where a negative part of mu leaves n(mu') undefined
        return mode.zero
    val = prod_ratio([mode.qpow(n_prime_stat(mu)), mode.tpow(-n_stat(mu)), b], [], mode)
    return -val if weight(mu) % 2 else val


def binom_rect_lower(lam, k: int, mode: ScalarMode):
    """Closed form of the binomial with lower index the rectangle k^n."""
    check_sizes(0, k=k)
    n = len(lam)
    return prod_ratio([pochm(1 - k + li, n - i, k, mode) for i, li in enumerate(lam, start=1)],
                      [pochm(1, n - i, k, mode) for i in range(1, n + 1)],
                      mode, "rectangular lower binomial")


def binom_rect_upper(k: int, mu, mode: ScalarMode):
    """Closed form of the binomial with upper index the rectangle k^n."""
    check_sizes(0, k=k)
    n = len(mu)
    num = [mode.tpow(2 * n_stat(mu) + (1 - n) * weight(mu))]
    num += [pochm(1 + k - m, i - 1, m, mode) for i, m in enumerate(mu, start=1) if m]
    num += pair_ratio(mu, mode), pair_ratio(mu, mode, 0)
    return prod_ratio(num, [pochm(1, n - i, m, mode) for i, m in enumerate(mu, start=1) if m],
                      mode, "rectangular upper binomial")


def binom_e1(lam, mode: ScalarMode):
    """Sum form of the binomial at mu = e_1: sum_i [lam_i]_q t^{1-i}."""
    return sum_prods([[qt_bracket((m,), mode), mode.tpow(-i)] for i, m in enumerate(lam)], mode)


def gaussian_binomial(m: int, k: int, mode: ScalarMode):
    """The Gaussian polynomial (q)_m / ((q)_{m-k} (q)_k), zero off-range."""
    if k < 0 or k > m:
        return mode.zero
    return prod_ratio([pochm(1, 0, m, mode)], [pochm(1, 0, m - k, mode), pochm(1, 0, k, mode)],
                      mode, "Gaussian binomial")


def qt_bracket(z, mode: ScalarMode):
    """Multi-part q-number: prod_i (1 - q^{z_i} t^{n-i}) / (1 - q t^{n-i})."""
    n = len(z)
    return prod_ratio([pochm(zi, n - i, 1, mode) for i, zi in enumerate(z, start=1)],
                      [pochm(1, n - i, 1, mode) for i in range(1, n + 1)], mode, "qt-bracket")


def poch_reciprocal(x, mu, mode: ScalarMode):
    """The reciprocal-base partition product (x; 1/q, 1/t)_mu, expanded as
    prod_i (x t^{i-1} q^{1-mu_i}; q)_{mu_i}."""
    cx = cargs(coef(x, mode))
    return prod_ratio([pochm(1 - m, i, m, mode, *cx) for i, m in enumerate(mu) if m], [], mode)


def qt_bracket_shifted(Q, mu, mode: ScalarMode):
    """The mu-shifted bracket as a function of the principal value Q = q^x:
    q^{n(mu')} (Q; 1/q, 1/t)_mu / prod_i (1 - q t^{n-i})^{mu_i}."""
    n = len(mu)
    return prod_ratio([mode.qpow(n_prime_stat(mu)), poch_reciprocal(mode.lift(Q), mu, mode)],
                      [pochm(1, n - i, 1, mode) ** m for i, m in enumerate(mu, start=1) if m],
                      mode, "shifted bracket")

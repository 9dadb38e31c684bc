"""The identity checks build each term once, and the W strip sum starts at mu.

The references below are the sequential loops of the identity checks before
their terms became one ``prod_ratio`` each and their shared row factors were
memoized: each multiplies its factors one by one and recomputes every
auxiliary scalar per term.  Each rewritten check must give the reference's
left side, right side and residual exactly.
"""

import pytest

from qtspecials import partitions
from qtspecials.binomial import qt_binomial
from qtspecials.errors import LengthMismatch, NotAPartition
from qtspecials.identities import (check_2phi1, check_double_binomial, check_geometric,
                                   check_pascal, check_weak_cocycle)
from qtspecials.partitions import (bump, contains, enumerate_strips, enumerate_sub,
                                   n_prime_stat, n_stat, valid_bumps, weight, zeros)
from qtspecials.scalars import Rational
from qtspecials.wcore import (QtPoint, guarded_div, norm_weight, pair_ratio, poch_partition,
                              w_principal)

# ---------------------------------------------------------------------------
# The sequential references
# ---------------------------------------------------------------------------


def _seq_2phi1(lam, s, x, mode):
    n = len(lam)
    lhs = guarded_div(poch_partition(s * x ** -1, lam, mode), poch_partition(s, lam, mode),
                      "left side of the terminating sum")
    s_slot = s ** -1 * mode.tpow(n - 1)
    rhs = mode.zero
    for mu in enumerate_sub(lam):
        rhs = rhs + (
            mode.qpow(weight(mu)) * mode.tpow(2 * n_stat(mu))
            * norm_weight(mu, mode)
            * poch_partition(x ** -1, mu, mode)
            * w_principal("ab", mu, lam, mode, s_slot)
        )
    return lhs, rhs


def _seq_weighted_binom_sum(lam, k, mode):
    acc = mode.zero
    for mu in enumerate_sub(lam, weight_filter=k):
        acc = acc + (mode.qpow(n_prime_stat(mu)) * mode.tpow(-n_stat(mu))
                     * qt_binomial(lam, mu, mode))
    return acc


def _seq_pascal(lam, i, k, mode):
    lhs = _seq_weighted_binom_sum(bump(lam, i), k, mode)
    rhs = _seq_weighted_binom_sum(lam, k, mode)
    if k >= 1:
        rhs = rhs + (mode.qpow(lam[i - 1]) * mode.tpow(1 - i)
                     * _seq_weighted_binom_sum(lam, k - 1, mode))
    return lhs, rhs


def _seq_weak_cocycle(nu, mu, s, r, mode):
    tn1 = mode.tpow(len(nu) - 1)
    lhs = poch_partition(s * r, nu, mode) * w_principal("ab", mu, nu, mode, (s * r) ** -1 * tn1)
    rhs = mode.zero
    for lam in enumerate_sub(nu):
        if not contains(lam, mu):
            continue
        rhs = rhs + (
            mode.qpow(weight(lam)) * mode.tpow(2 * n_stat(lam))
            * norm_weight(lam, mode)
            * w_principal("ab", lam, nu, mode, s ** -1 * tn1)
            * poch_partition(r, lam, mode)
            * w_principal("ab", mu, lam, mode, r ** -1 * tn1)
        )
    return lhs, poch_partition(s, nu, mode) * rhs


def _seq_double_binomial(nu, mu, mode):
    minus_one = -mode.one
    lhs = (
        mode.tpow(-n_stat(mu)) * mode.qpow(n_prime_stat(mu))
        * guarded_div(poch_partition(minus_one, nu, mode), poch_partition(minus_one, mu, mode),
                      "double-binomial left side")
        * qt_binomial(nu, mu, mode)
    )
    rhs = mode.zero
    for lam in enumerate_sub(nu):
        if not contains(lam, mu):
            continue
        rhs = rhs + (mode.tpow(-n_stat(lam)) * mode.qpow(n_prime_stat(lam))
                     * qt_binomial(nu, lam, mode) * qt_binomial(lam, mu, mode))
    return lhs, rhs


def _seq_geometric(mu, z, part_cap, trunc, point):
    n = len(mu)
    mode = point.mode
    qz = mode.q * z
    prod = poch_partition(qz, (trunc,) * n, mode)
    lhs = guarded_div(z ** weight(mu), prod, "truncated product") * pair_ratio(mu, mode, 0)
    rhs = mode.zero
    for lam in enumerate_sub((part_cap,) * n):
        if not contains(lam, mu):
            continue
        w = w_principal("s_up", mu, lam, mode)
        if w == 0:
            continue
        wl = weight(lam)
        coeff = qz ** wl * mode.tpow(2 * n_stat(lam) + (1 - n) * wl)
        rhs = rhs + coeff * norm_weight(lam, mode) * pair_ratio(lam, mode, 0) * w
    return lhs, rhs


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

POINTS = [(Rational(2, 7), Rational(5, 11)), (Rational(-3, 4), Rational(7, 3))]
POINT_IDS = ["2/7,5/11", "-3/4,7/3"]
BOUNDS = [(2, 2, 1), (3, 2)]
S, R, X = Rational(4, 9), Rational(-5, 3), Rational(7, 13)


def _same(check, lhs, rhs):
    return (check.lhs, check.rhs, check.residual) == (lhs, rhs, lhs - rhs)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("qt", POINTS, ids=POINT_IDS)
def test_single_index_checks_equal_the_sequential_loops(qt, bound):
    mode = QtPoint(*qt).mode
    for lam in enumerate_sub(bound):
        assert _same(check_2phi1(lam, S, X, mode), *_seq_2phi1(lam, S, X, mode)), lam
        for i in valid_bumps(lam):
            for k in range(weight(lam) + 2):
                assert _same(check_pascal(lam, i, k, mode), *_seq_pascal(lam, i, k, mode))


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("qt", POINTS, ids=POINT_IDS)
def test_pair_checks_equal_the_sequential_loops(qt, bound):
    mode = QtPoint(*qt).mode
    for nu in enumerate_sub(bound):
        for mu in enumerate_sub(nu):
            got = check_weak_cocycle(nu, mu, S, R, mode)
            assert _same(got, *_seq_weak_cocycle(nu, mu, S, R, mode)), (nu, mu)
            got = check_double_binomial(nu, mu, mode)
            assert _same(got, *_seq_double_binomial(nu, mu, mode)), (nu, mu)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("qt", POINTS, ids=POINT_IDS)
def test_geometric_checks_equal_the_sequential_loop(qt, bound):
    point = QtPoint(*qt)
    z = Rational(1, 20)
    for mu in enumerate_sub(bound):
        got = check_geometric(mu, z, 3, 8, point)
        assert _same(got, *_seq_geometric(mu, z, 3, 8, point)), mu


@pytest.mark.parametrize("qt", POINTS, ids=POINT_IDS)
def test_repeating_a_check_at_the_same_point_adds_no_cache_entry(qt):
    mode = QtPoint(*qt).mode
    checks = [lambda: check_pascal((2, 1, 0), 2, 2, mode),
              lambda: check_weak_cocycle((2, 2, 1), (1, 0, 0), S, R, mode),
              lambda: check_2phi1((2, 1, 1), S, X, mode)]
    for check in checks:
        first = check()
        entries = len(mode.cache)
        again = check()
        assert len(mode.cache) == entries
        assert (again.lhs, again.rhs, again.residual) == (first.lhs, first.rhs, first.residual)
    kinds = {key[0] for key in mode.cache}
    assert {"wsum", "cocycle"} <= kinds


# ---------------------------------------------------------------------------
# Strips bounded below by mu
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bound", [(3, 3, 3), (4, 2, 1, 1)], ids=str)
def test_strips_containing_mu_are_the_filtered_strips_in_order(bound):
    """Every mu below the bound, contained in lam or not."""
    lams = enumerate_sub(bound)
    for lam in lams:
        strips = enumerate_strips(lam)
        for mu in lams:
            expect = [nu for nu in strips if contains(nu, mu)]
            assert enumerate_strips(lam, mu) == expect, (lam, mu)
            assert enumerate_strips(list(lam), list(mu)) == expect


def test_a_refused_strip_enumeration_is_never_stored():
    for _ in range(2):
        with pytest.raises(NotAPartition):
            enumerate_strips((1, 2), (0, 0))
        with pytest.raises(LengthMismatch):
            enumerate_strips((2, 1), (1,))
    stored = {key[0] for key in partitions._STRIPS}
    assert (1, 2) not in stored
    assert ((2, 1), (1,)) not in partitions._STRIPS
    assert enumerate_strips((0, 0), zeros(2)) == [(0, 0)]

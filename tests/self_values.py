"""Closed self-evaluations of the W family at its own principal argument,
the oracles that the peeled values W_lam(q^lam t^delta) are checked against."""

from qtspecials.partitions import n_prime_stat, n_stat, weight
from qtspecials.wcore import guarded_div, pair_ratio, poch_norm


def wsup_self(lam, mode):
    """Closed form of the s_up value at its own principal argument."""
    n = len(lam)
    w = weight(lam)
    return guarded_div(
        poch_norm(lam, mode) * mode.tpow((n - 1) * w - 2 * n_stat(lam)) * mode.qpow(-w),
        pair_ratio(lam, mode),
        "self-evaluation pair ratio",
    )


def wsdown_self(lam, mode):
    """Closed form of the s_down value at its own principal argument."""
    n = len(lam)
    w = weight(lam)
    sign = mode.one if w % 2 == 0 else -mode.one
    return guarded_div(
        sign * mode.tpow(-n_stat(lam)) * mode.qpow(-w - n_prime_stat(lam)) * poch_norm(lam, mode),
        pair_ratio(lam, mode),
        "self-evaluation pair ratio",
    )

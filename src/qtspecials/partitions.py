"""Fixed-length partitions, their statistics, orderings and enumerators.

A partition is represented as a plain tuple of n weakly decreasing
nonnegative integers; zeros are kept so that the length is always exactly n
(the surrounding formulas weight part i by powers of t^(n-i), so n matters).
Generalized partitions relax nonnegativity but keep the weak decrease.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import InvalidArgument, LengthMismatch, NotAPartition

Parts = tuple  # tuple[int, ...]; kept loose for 3.10 ergonomics


def partition(parts) -> Parts:
    """Validate and normalize an iterable of parts into a partition tuple."""
    return check_partition(tuple(int(x) for x in parts))


def check_partition(p) -> Parts:
    """p itself if weakly decreasing with no negative part, else
    NotAPartition.  Reads p without copying it: enumerate_sub checks every
    upper index it is given."""
    for i in range(1, len(p)):
        if p[i - 1] < p[i]:
            raise NotAPartition(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise NotAPartition(f"negative part in partition: {p}")
    return p


def is_partition(parts) -> bool:
    p = tuple(parts)
    return all(a >= b for a, b in zip(p, p[1:])) and (not p or p[-1] >= 0)


def parse_partition(text: str) -> Parts:
    """Parse a comma-separated literal such as "3,2,0"; length defines n."""
    try:
        parts = [int(x) for x in text.strip().split(",")]
    except ValueError:
        raise NotAPartition(f"not a partition literal: {text!r}") from None
    return partition(parts)


def format_partition(lam) -> str:
    return ",".join(str(x) for x in lam)


def zeros(n: int) -> Parts:
    return (0,) * n


def weight(lam) -> int:
    return sum(lam)


def n_stat(lam) -> int:
    """n(lambda) = sum (i-1) * lambda_i, with i counted from 1."""
    return sum(i * x for i, x in enumerate(lam))


def n_prime_stat(lam) -> int:
    """n(lambda') = sum C(lambda_i, 2)."""
    return sum(comb(x, 2) for x in lam)


def _require_same_length(lam, mu):
    if len(lam) != len(mu):
        raise LengthMismatch(f"length {len(lam)} vs {len(mu)}")


def contains(lam, mu) -> bool:
    """Inclusion ordering: mu_i <= lam_i for all i."""
    _require_same_length(lam, mu)
    return all(m <= l for l, m in zip(lam, mu))


def is_horizontal_strip(lam, mu) -> bool:
    """Interlacing test lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... >= mu_n >= 0."""
    _require_same_length(lam, mu)
    n = len(lam)
    for i in range(n):
        if not (lam[i] >= mu[i]):
            return False
        if i + 1 < n and not (mu[i] >= lam[i + 1]):
            return False
    return mu[-1] >= 0 if n else True


def _revlex_key(p):
    # ascending weight, then descending lexicographic within a weight
    return (sum(p), tuple(-x for x in p))


# Each enumeration is pure combinatorial data, kept as a tuple for the life of
# the process: by (lam, weight_filter) in _SUBS, by (lam, mu) in _STRIPS.
# Keys and entries hold only ints, tuples and None.  Each call returns a new
# list; a refused index is never stored, so it is refused on every call.
_SUBS: dict = {}
_STRIPS: dict = {}


def enumerate_sub(lam, weight_filter: int | None = None) -> list:
    """All partitions mu contained in lam, in ascending weight then
    descending lexicographic order; optionally restricted to |mu| = k."""
    key = (tuple(lam), weight_filter)
    subs = _SUBS.get(key)
    if subs is None:
        subs = _SUBS[key] = _sub(*key)
    return list(subs)


def _sub(lam, weight_filter) -> tuple:
    n = len(check_partition(lam))
    out = []

    def rec(i, prev, acc, w):
        if i == n:
            if weight_filter is None or w == weight_filter:
                out.append(tuple(acc))
            return
        hi = min(lam[i], prev)
        for v in range(hi + 1):
            if weight_filter is not None and w + v > weight_filter:
                break
            acc.append(v)
            rec(i + 1, v, acc, w + v)
            acc.pop()

    rec(0, max(lam, default=0), [], 0)
    out.sort(key=_revlex_key)
    return tuple(out)


def enumerate_strips(lam, mu=None) -> list:
    """All nu with lam/nu a horizontal strip (nu interlaces below lam), in
    the order of enumerate_sub; given mu, only those containing mu:
    nu_i in [max(lam_{i+1}, mu_i), lam_i].  lam must be a partition, and mu
    of its length."""
    key = (tuple(lam), None if mu is None else tuple(mu))
    strips = _STRIPS.get(key)
    if strips is None:
        lam, mu = key
        low = check_partition(lam)[1:] + (0,)
        if mu is not None:
            _require_same_length(lam, mu)
            low = map(max, low, mu)
        ranges = map(range, low, [part + 1 for part in lam])
        strips = _STRIPS[key] = tuple(sorted(product(*ranges), key=_revlex_key))
    return list(strips)


def sum_decompositions(lam) -> list:
    """All pairs (nu, mu) of partitions with nu_i + mu_i = lam_i for all i."""
    out = []
    for nu in enumerate_sub(lam):
        mu = tuple(l - v for l, v in zip(lam, nu))
        if is_partition(mu):
            out.append((nu, mu))
    return out


def bump(lam, i: int) -> Parts:
    """lam + e_i (i counted from 1); error when the result is not a partition."""
    if not (1 <= i <= len(lam)):
        raise InvalidArgument(f"bump index {i} out of range for length {len(lam)}")
    parts = list(lam)
    parts[i - 1] += 1
    if i >= 2 and parts[i - 1] > parts[i - 2]:
        raise NotAPartition(f"{lam} + e_{i} is not a partition")
    return tuple(parts)


def valid_bumps(lam) -> list:
    """Indices i (from 1) for which lam + e_i is a partition."""
    return [i for i in range(1, len(lam) + 1) if i == 1 or lam[i - 1] < lam[i - 2]]


def scale(lam, c: int) -> Parts:
    return tuple(c * x for x in lam)

"""Fixed-length partitions, their statistics, orderings and enumerators.

A partition is represented as a plain tuple of n weakly decreasing
nonnegative ints; zeros are kept so that the length is always exactly n
(the surrounding formulas weight part i by powers of t^(n-i), so n matters).
Generalized partitions relax nonnegativity but keep the weak decrease.
Only check_partition, check_decreasing and _require_same_length state these
rules: a float, bool or str part is refused, never rounded.  partition()
builds the tuple; a memoized function refuses a list (InvalidArgument).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb
from operator import ge, sub

from .errors import InvalidArgument, LengthMismatch, NotAPartition, check_sizes

Parts = tuple  # tuple[int, ...]; kept loose for 3.10 ergonomics


def partition(parts) -> Parts:
    """Validate an iterable of int parts into a partition tuple."""
    return check_partition(tuple(parts))


def check_decreasing(p) -> Parts:
    """p itself if a generalized partition (int parts, not bools, weakly
    decreasing, negatives allowed), else NotAPartition.  Reads p uncopied."""
    prev = None
    for x in p:
        if type(x) is not int:
            raise NotAPartition(f"part {x!r} is not an int: {p}")
        if prev is not None and prev < x:
            raise NotAPartition(f"parts not weakly decreasing: {p}")
        prev = x
    return p


def check_partition(p) -> Parts:
    """p itself if a generalized partition with no negative part, else NotAPartition."""
    if check_decreasing(p) and p[-1] < 0:
        raise NotAPartition(f"negative part in partition: {p}")
    return p


def is_partition(parts) -> bool:
    try:
        check_partition(tuple(parts))
    except NotAPartition:
        return False
    return True


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
    return all(map(ge, lam, mu))


def is_horizontal_strip(lam, mu) -> bool:
    """Interlacing test lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... >= mu_n >= 0:
    lam_i >= mu_i >= lam_{i+1}, with lam_{n+1} = 0."""
    _require_same_length(lam, mu)
    return all(map(ge, lam, mu)) and all(map(ge, mu, (*lam[1:], 0)))


def _revlex_key(p):
    # ascending weight, then descending lexicographic within a weight
    return (sum(p), tuple(-x for x in p))


# Each enumeration is pure combinatorial data, kept as a tuple for the life of
# the process: by (lam, weight_filter) in _SUBS, by (lam, mu) in _STRIPS.
# Keys and entries hold only ints, tuples and None.  Each call returns a new
# list; an index is checked before the lookup, so its float twin is refused.
_SUBS: dict = {}
_STRIPS: dict = {}


def enumerate_sub(lam, weight_filter: int | None = None) -> list:
    """All partitions mu contained in lam, in ascending weight then
    descending lexicographic order; optionally restricted to |mu| = k."""
    key = lam, k = check_partition(tuple(lam)), weight_filter
    if k is not None:
        check_sizes(None, weight_filter=k)
    subs = _SUBS.get(key)
    if subs is None:
        # the weakly decreasing n-tuples of parts in [0, lam_1], kept if inside lam
        top = lam[0] if lam else 0
        subs = (mu for mu in combinations_with_replacement(range(top, -1, -1), len(lam))
                if contains(lam, mu) and (k is None or sum(mu) == k))
        subs = _SUBS[key] = tuple(sorted(subs, key=_revlex_key))
    return list(subs)


def enumerate_strips(lam, mu=None) -> list:
    """All nu with lam/nu a horizontal strip (nu interlaces below lam), in
    the order of enumerate_sub; given mu, only those containing mu:
    nu_i in [max(lam_{i+1}, mu_i), lam_i].  lam must be a partition, and mu
    weakly decreasing of its length."""
    key = (check_partition(tuple(lam)), None if mu is None else check_decreasing(tuple(mu)))
    strips = _STRIPS.get(key)
    if strips is None:
        lam, mu = key
        low = lam[1:] + (0,)
        if mu is not None:
            _require_same_length(lam, mu)
            low = map(max, low, mu)
        ranges = map(range, low, [part + 1 for part in lam])
        strips = _STRIPS[key] = tuple(sorted(product(*ranges), key=_revlex_key))
    return list(strips)


def sum_decompositions(lam) -> list:
    """All pairs (nu, mu) of partitions with nu_i + mu_i = lam_i for all i."""
    pairs = ((nu, tuple(map(sub, lam, nu))) for nu in enumerate_sub(lam))
    return [(nu, mu) for nu, mu in pairs if is_partition(mu)]


def bump(lam, i: int) -> Parts:
    """lam + e_i (i counted from 1); error when the result is not a partition."""
    if type(i) is not int or not 1 <= i <= len(lam):
        raise InvalidArgument(f"bump index {i!r} out of range for length {len(lam)}")
    return check_partition((*lam[:i - 1], check_decreasing(lam)[i - 1] + 1, *lam[i:]))


def valid_bumps(lam) -> list:
    """Indices i (from 1) for which lam + e_i is a partition."""
    return [i for i in range(1, len(lam) + 1) if i == 1 or lam[i - 1] < lam[i - 2]]


def scale(lam, c: int) -> Parts:
    return tuple(c * x for x in lam)

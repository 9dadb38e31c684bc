"""Probability measures on partition posets, qt-exponentials and sampling.

The binomial-type densities g and f live on the poset of partitions below
a fixed lam and sum to exactly 1; the Poisson-type density lives on all
partitions of length at most n, with a prefactor that truncates two
infinite products.  The sampler inverts exact rational cumulative masses
against a documented 64-bit generator, so identical seeds reproduce
identical draws on any platform.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .binomial import qt_binomial
from .errors import (ConvergenceViolated, DegenerateParameters, InvalidArgument,
                     UnsupportedRegime, check_sizes)
from .partitions import contains, enumerate_sub, n_prime_stat, n_stat, weight
from .scalars import Rational, as_rational
from .wcore import QtPoint, guarded_div, memo, norm_weight, pair_ratio, poch_partition

DENSITY_KINDS = ("binomial_g", "binomial_f", "poisson")


@dataclass(frozen=True)
class DensitySpec:
    """Parameters selecting one density on a partition poset."""

    kind: str
    z: Rational
    point: QtPoint
    lam: tuple | None = None  # required for the binomial kinds
    part_cap: int = 20        # poisson support bound
    trunc: int = 40           # factors kept per infinite product

    def __post_init__(self):
        if self.kind not in DENSITY_KINDS:
            raise InvalidArgument(f"kind must be one of {DENSITY_KINDS}")
        object.__setattr__(self, "z", as_rational(self.z))
        check_sizes(0, part_cap=self.part_cap, trunc=self.trunc)
        if self.kind == "poisson":
            if self.lam is not None:
                raise InvalidArgument("poisson density has no lam parameter")
        elif self.lam is None:
            raise InvalidArgument(f"{self.kind} density requires lam")

    @property
    def n(self) -> int:
        return len(self.lam) if self.lam is not None else self.point.n

    def in_positivity_regime(self) -> bool:
        """0 < q, t, z < 1 and z < t, the regime where every mass is
        guaranteed nonnegative (sampling requires it)."""
        q, t, z = self.point.q, self.point.t, self.z
        return 0 < q < 1 and 0 < t < 1 and 0 < z < 1 and z < t

    def support(self) -> list:
        if self.kind == "poisson":
            return enumerate_sub((self.part_cap,) * self.n)
        return enumerate_sub(self.lam)


def poisson_convergence_ok(spec: DensitySpec) -> bool:
    q, t, z, n = spec.point.q, spec.point.t, spec.z, spec.n
    return abs(q) < 1 and all(
        abs(z * t ** (2 * i - n - 1)) < 1 for i in range(1, n + 1)
    )


def g_mass(lam, mu, z, mode):
    """g-density mass of mu below lam: [lam, mu] z^{|lam|-|mu|} (z)_mu."""
    return (
        qt_binomial(lam, mu, mode)
        * z ** (weight(lam) - weight(mu))
        * poch_partition(z, mu, mode)
    )


def f_mass(lam, mu, z, mode):
    """f-density mass of mu below lam:
    t^{-2n(mu)} q^{2n(mu')} [lam, mu] (z)_lam / (z)_mu z^{|mu|}."""
    return (
        mode.tpow(-2 * n_stat(mu))
        * mode.qpow(2 * n_prime_stat(mu))
        * qt_binomial(lam, mu, mode)
        * guarded_div(
            poch_partition(z, lam, mode),
            poch_partition(z, mu, mode),
            "f-density ratio",
        )
        * z ** weight(mu)
    )


def density(spec: DensitySpec, mu) -> Rational:
    """Exact mass of one support point (the poisson mass uses the truncated
    product prefactor and is approximate to that extent)."""
    mode = spec.point.mode
    if spec.kind == "poisson":
        return _poisson_mass(spec, mu, mode)
    if not contains(spec.lam, mu):
        raise InvalidArgument(f"{mu} outside the support poset of {spec.lam}")
    mass = g_mass if spec.kind == "binomial_g" else f_mass
    return mass(spec.lam, mu, spec.z, mode)


@memo("trunc", 3)
def _truncated(a, n: int, trunc: int, mode) -> Rational:
    """Truncation of (a)_inf over n rows, prod_i (a t^{1-i}; q)_trunc,
    memoized on the mode."""
    return poch_partition(a, (trunc,) * n, mode)


def _poisson_mass(spec: DensitySpec, mu, mode) -> Rational:
    if not poisson_convergence_ok(spec):
        raise ConvergenceViolated(
            "poisson density requires |q| < 1 and max_i |z t^(2i-n-1)| < 1"
        )
    n = spec.n
    z = spec.z
    wm = weight(mu)
    return (
        _truncated(z, n, spec.trunc, mode)
        * guarded_div(
            z ** wm * mode.qpow(2 * n_prime_stat(mu)) * mode.tpow((1 - n) * wm),
            poch_partition(z, mu, mode),
            "poisson mass",
        )
        * norm_weight(mu, mode)
        * pair_ratio(mu, mode, 0)
    )


def poisson_normalization(spec: DensitySpec):
    """(total truncated mass, crude tail bound from the step ratio).

    The tail bound multiplies the computed total by n r^(cap+1) / (1 - r)
    where r is the largest single-part growth ratio |z t^(2i-n-1)|; the
    series itself carries no closed error bound, so this is the documented
    estimate, not a guarantee.
    """
    mode = spec.point.mode
    total = mode.zero
    for mu in spec.support():
        total = total + _poisson_mass(spec, mu, mode)
    return total, _poisson_tail(spec, total)


def _poisson_tail(spec: DensitySpec, total) -> Rational:
    """The tail bound of poisson_normalization for a given total mass."""
    n = spec.n
    r = max(abs(spec.z * spec.point.t ** (2 * i - n - 1)) for i in range(1, n + 1))
    return abs(total) * n * r ** (spec.part_cap + 1) / (1 - r)


def distribution_F(nu, lam, z, point: QtPoint) -> Rational:
    """Cumulative mass of the g-density below lam inside the poset of nu."""
    if not contains(nu, lam):
        raise InvalidArgument("lam must be contained in nu")
    mode = point.mode
    z = as_rational(z)
    acc = mode.zero
    for mu in enumerate_sub(lam):
        acc = acc + g_mass(nu, mu, z, mode)
    return acc


# ---------------------------------------------------------------------------
# qt-exponentials
# ---------------------------------------------------------------------------

class ExpResult(NamedTuple):
    product: Rational
    series: Rational
    difference: Rational


def _exp_series(z, n, part_cap, mode, upper: bool) -> Rational:
    acc = mode.zero
    for mu in enumerate_sub((part_cap,) * n):
        wm = weight(mu)
        if upper:
            num = z ** wm * mode.qpow(n_prime_stat(mu)) * mode.tpow(
                n_stat(mu) + (1 - n) * wm
            )
        else:
            num = z ** wm * mode.tpow(2 * n_stat(mu) + (1 - n) * wm)
        acc = acc + num * norm_weight(mu, mode) * pair_ratio(mu, mode, 0)
    return acc


def exp_E(z, point: QtPoint, n: int, part_cap: int = 20, trunc: int = 40) -> ExpResult:
    """Upper exponential: truncated product (-z)_inf and its partition series."""
    check_sizes(0, part_cap=part_cap, trunc=trunc)
    if not abs(point.q) < 1:
        raise ConvergenceViolated("infinite products require |q| < 1")
    mode = point.mode
    z = as_rational(z)
    prod = _truncated(-z, n, trunc, mode)
    series = _exp_series(z, n, part_cap, mode, upper=True)
    return ExpResult(prod, series, prod - series)


def exp_e(z, point: QtPoint, n: int, part_cap: int = 20, trunc: int = 40) -> ExpResult:
    """Lower exponential: truncated 1/(z)_inf and its partition series.

    Requires the ratio-test condition max_i |z t^(2i-n-1)| < 1.
    """
    check_sizes(0, part_cap=part_cap, trunc=trunc)
    if not abs(point.q) < 1:
        raise ConvergenceViolated("infinite products require |q| < 1")
    if not all(abs(z * point.t ** (2 * i - n - 1)) < 1 for i in range(1, n + 1)):
        raise ConvergenceViolated("parameters violate max_i |z t^(2i-n-1)| < 1")
    mode = point.mode
    z = as_rational(z)
    prod = _truncated(z, n, trunc, mode)
    if prod == 0:
        raise DegenerateParameters("truncated product vanishes")
    series = _exp_series(z, n, part_cap, mode, upper=False)
    return ExpResult(mode.one / prod, series, mode.one / prod - series)


# ---------------------------------------------------------------------------
# Exact inverse-CDF sampling
# ---------------------------------------------------------------------------

class SplitMix64:
    """SplitMix64: the 64-bit mixing generator of Steele, Lea and Flood.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes the
    new state with two xor-shift-multiply rounds.  Used here to produce
    exact rationals u = word / 2^64 in [0, 1).
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_rational(self) -> Rational:
        return Rational(self.next_word(), 1 << 64)


@dataclass
class PartitionSample:
    """Seeded draws from a density, with exact empirical frequencies."""

    draws: tuple
    seed: int
    empirical_mass: dict  # partition -> Rational
    exact_mass: dict      # partition -> Rational (renormalized for poisson)

    def to_jsonl_lines(self) -> list:
        import json

        from .partitions import format_partition
        from .scalars import format_rational

        lines = [json.dumps(format_partition(d)) for d in self.draws]
        summary = {
            "seed": self.seed,
            "count": len(self.draws),
            "masses": {
                format_partition(p): {
                    "empirical": format_rational(self.empirical_mass.get(p, 0)),
                    "exact": format_rational(self.exact_mass[p]),
                }
                for p in sorted(self.exact_mass)
            },
        }
        lines.append(json.dumps({"summary": summary}))
        return lines


def exact_masses(spec: DensitySpec) -> dict:
    """Support-point masses; the poisson masses are renormalized to total 1."""
    masses = {mu: density(spec, mu) for mu in spec.support()}
    if spec.kind == "poisson":
        total = sum(masses.values(), Rational(0))
        if total <= 0:
            raise UnsupportedRegime("truncated poisson mass is not positive")
        masses = {mu: m / total for mu, m in masses.items()}
    return masses


def sample(spec: DensitySpec, count: int, seed: int) -> PartitionSample:
    """Inverse-CDF draws against exact cumulative rationals.

    Requires the positivity regime (0 < q, t, z < 1, z < t); every mass is
    checked nonnegative before the cumulative table is built.
    """
    if not spec.in_positivity_regime():
        raise UnsupportedRegime(
            "sampling requires 0 < q, t, z < 1 with z < t"
        )
    support = spec.support()
    masses = exact_masses(spec)
    cdf = []
    acc = Rational(0)
    for mu in support:
        m = masses[mu]
        if m < 0:
            raise UnsupportedRegime(f"negative mass at {mu}; cannot sample")
        acc += m
        cdf.append(acc)
    gen = SplitMix64(seed)
    counts: dict = {}
    draws = []
    last = len(support) - 1
    for _ in range(count):
        u = gen.next_rational() * acc
        idx = min(bisect_right(cdf, u), last)
        p = support[idx]
        draws.append(p)
        counts[p] = counts.get(p, 0) + 1
    empirical = (
        {p: Rational(c, count) for p, c in counts.items()} if count else {}
    )
    return PartitionSample(
        draws=tuple(draws), seed=seed, empirical_mass=empirical, exact_mass=masses
    )

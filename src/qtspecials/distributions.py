"""Probability measures on partition posets, qt-exponentials and sampling.

The binomial-type densities g and f live on the poset of partitions below
a fixed lam and sum to exactly 1; the Poisson-type density lives on all
partitions of length at most n, with a prefactor that truncates two
infinite products.  The sampler inverts exact rational cumulative masses
against a documented 64-bit generator, so identical seeds reproduce
identical draws on any platform.

The partition series of the exponentials and the batched Poisson masses
are computed by term ratios.  Every partition mu != 0 has the parent
mu - e_k, k its last nonzero row, and term(mu) / term(parent) is the
family's monomial step times the change of norm_weight * pair_ratio(., 0)
(and of 1 / (z; q, t)_mu for the Poisson masses) when one box is added at
part m of row k: one factor 1 - q^{1+m} t^{n-k} of the normalizing product,
and per pair of rows two factors of each pair ratio.  Each factor
1 - c q^a t^b is the ``pochm`` value (c q^a t^b; q)_1, read as a pair of
ints; the factors of one step are multiplied as ints, and each step costs
one Rational.  A factor of a denominator of the direct formula that
vanishes raises DegenerateParameters, as the direct formula does; a
vanishing numerator factor is counted, so a term is zero exactly while its
count is positive.
``density`` keeps the direct formula for a single mass.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from typing import NamedTuple

from .binomial import qt_binomial
from .errors import (ConvergenceViolated, DegenerateParameters, InvalidArgument,
                     UnsupportedRegime, check_sizes)
from .partitions import (contains, enumerate_sub, format_partition, n_prime_stat, n_stat,
                         partition, weight)
from .scalars import Rational, as_rational, format_rational, prod_ints, sum_rationals
from .wcore import (QtPoint, cargs, coef, norm_weight, pair_ratio, poch_partition, pochm,
                    prod_ratio)

DENSITY_KINDS = ("binomial_g", "binomial_f", "poisson")


class DensitySpec:
    """Parameters selecting one density on a partition poset (immutable).

    lam is required for the binomial kinds; part_cap bounds the poisson
    support, and trunc is the number of factors kept per infinite product.
    """

    __slots__ = ("kind", "z", "point", "lam", "part_cap", "trunc")

    def __init__(self, kind: str, z: Rational, point: QtPoint, lam: tuple | None = None,
                 part_cap: int = 20, trunc: int = 40):
        if kind not in DENSITY_KINDS:
            raise InvalidArgument(f"kind must be one of {DENSITY_KINDS}")
        z = as_rational(z)
        check_sizes(0, part_cap=part_cap, trunc=trunc)
        if kind == "poisson":
            if lam is not None:
                raise InvalidArgument("poisson density has no lam parameter")
        elif lam is None:
            raise InvalidArgument(f"{kind} density requires lam")
        else:
            lam = partition(lam)
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "z", z)
        init(self, "point", point)
        init(self, "lam", lam)
        init(self, "part_cap", part_cap)
        init(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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


def series_ratio(c, point: QtPoint, n: int) -> Rational:
    """max_i |c t^(2i-n-1)| over i = 1..n, and 0 for n = 0: the ratio test of
    every partition series here, which converges when |q| < 1 and this
    bound, for its own c, is below 1."""
    t = point.t
    return max((abs(c * t ** (2 * i - n - 1)) for i in range(1, n + 1)),
               default=Rational(0))


def check_series(z, point: QtPoint, n: int, part_cap: int, trunc: int) -> Rational:
    """Validate the arguments of a truncated partition series in n rows;
    returns z as a Rational."""
    check_sizes(0, n=n, part_cap=part_cap, trunc=trunc)
    z = as_rational(z)
    if not abs(point.q) < 1:
        raise ConvergenceViolated("infinite products require |q| < 1")
    return z


def _check_poisson(spec: DensitySpec) -> None:
    if not (abs(spec.point.q) < 1 and series_ratio(spec.z, spec.point, spec.n) < 1):
        raise ConvergenceViolated(
            "poisson density requires |q| < 1 and max_i |z t^(2i-n-1)| < 1"
        )


def g_mass(lam, mu, z, mode):
    """g-density mass of mu below lam: [lam, mu] z^{|lam|-|mu|} (z)_mu."""
    return prod_ratio([qt_binomial(lam, mu, mode), z ** (weight(lam) - weight(mu)),
                       poch_partition(z, mu, mode)], [], mode)


def f_mass(lam, mu, z, mode):
    """f-density mass of mu below lam:
    t^{-2n(mu)} q^{2n(mu')} [lam, mu] (z)_lam / (z)_mu z^{|mu|}."""
    return prod_ratio([mode.tpow(-2 * n_stat(mu)), mode.qpow(2 * n_prime_stat(mu)),
                       qt_binomial(lam, mu, mode), poch_partition(z, lam, mode), z ** weight(mu)],
                      [poch_partition(z, mu, mode)], mode, "f-density ratio")


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


def _poisson_mass(spec: DensitySpec, mu, mode) -> Rational:
    _check_poisson(spec)
    n, z, wm = spec.n, spec.z, weight(mu)
    return prod_ratio([poch_partition(z, (spec.trunc,) * n, mode), z ** wm,
                       mode.qpow(2 * n_prime_stat(mu)), mode.tpow((1 - n) * wm),
                       norm_weight(mu, mode), pair_ratio(mu, mode, 0)],
                      [poch_partition(z, mu, mode)], mode, "poisson mass")


def poisson_masses(spec: DensitySpec) -> dict:
    """The mass of every poisson support point, in support order, each from
    its parent's by a term ratio; equal to ``density(spec, mu)``."""
    if spec.kind != "poisson":
        raise InvalidArgument("poisson_masses needs a poisson density")
    _check_poisson(spec)
    n, mode = spec.n, spec.point.mode
    terms = _term_walk(mode, n, spec.part_cap, spec.z,
                       poch_partition(spec.z, (spec.trunc,) * n, mode),
                       lambda k, m: (2 * m, 1 - n), z_rows=True)
    return {mu: terms[mu] for mu in spec.support()}


def support_masses(spec: DensitySpec) -> dict:
    """Raw mass of every support point, in support order (the poisson
    masses truncated, not renormalized)."""
    if spec.kind == "poisson":
        return poisson_masses(spec)
    return {mu: density(spec, mu) for mu in spec.support()}


def poisson_normalization(spec: DensitySpec):
    """(total truncated mass, crude tail bound from the step ratio).

    The tail bound multiplies the computed total by n r^(cap+1) / (1 - r)
    where r is the largest single-part growth ratio |z t^(2i-n-1)|; the
    series itself carries no closed error bound, so this is the documented
    estimate, not a guarantee.
    """
    total = sum_rationals([m] for m in poisson_masses(spec).values())
    return total, poisson_tail(spec, total)


def poisson_tail(spec: DensitySpec, total) -> Rational:
    """The tail bound |total| n r^(part_cap+1) / (1 - r), r = series_ratio of
    z, of a poisson density whose truncated masses add up to ``total``;
    raises ConvergenceViolated where the density fails its ratio test."""
    _check_poisson(spec)
    r = series_ratio(spec.z, spec.point, spec.n)
    return abs(total) * spec.n * r ** (spec.part_cap + 1) / (1 - r)


def distribution_F(nu, lam, z, point: QtPoint) -> Rational:
    """Cumulative mass of the g-density below lam inside the poset of nu."""
    if not contains(nu, lam):
        raise InvalidArgument("lam must be contained in nu")
    mode = point.mode
    z = as_rational(z)
    return sum_rationals([g_mass(nu, mu, z, mode)] for mu in enumerate_sub(lam))


# ---------------------------------------------------------------------------
# qt-exponentials
# ---------------------------------------------------------------------------

class ExpResult(NamedTuple):
    product: Rational
    series: Rational
    difference: Rational


def _term_walk(mode, n: int, part_cap: int, z, root, step, z_rows: bool) -> dict:
    """{mu: term(mu)} for every mu with at most n parts, each at most part_cap,
    where term(0) = root and

        term(mu) / root = z^|mu| q^A(mu) t^B(mu) norm_weight(mu) pair_ratio(mu, 0)
                          [/ (z; q, t)_mu when z_rows],

    the monomial given by its step: adding a box at part m of row k (from 0)
    multiplies it by z q^a t^b, (a, b) = step(k, m).  mode is an AtPoint;
    the int pairs below are memoized for this walk only.
    """
    cz = cargs(coef(z, mode))

    @cache
    def mono(a: int, b: int) -> tuple:
        """z q^a t^b as an unreduced pair of ints."""
        return prod_ints([z, mode.qpow(a), mode.tpow(b)])

    @cache
    def factor(a: int, b: int, times_z=False) -> tuple:
        """1 - q^a t^b, or 1 - z q^a t^b, as the ints of its pochm value (a flag,
        not z, in the key: hashing a Fraction costs about two products)."""
        f = pochm(a, b, 1, mode, *(cz if times_z else ()))
        return f.numerator, f.denominator

    @cache
    def pair_step(d: int, b: int) -> tuple:
        """(num, den, zeros): the factor of norm_weight * pair_ratio(., 0) when
        the gap of two rows b apart grows from d to d + 1, over its nonzero
        factors, and how many of its numerator factors vanish."""
        num, den, zeros = 1, 1, 0
        for a, b_top, b_bottom in ((1 + d, b, b - 1), (d, b + 1, b)):
            top, bottom = factor(a, b_top), factor(a, b_bottom)
            if bottom[0] == 0:
                raise DegenerateParameters(
                    f"vanishing factor 1 - q^{a} t^{b_bottom} of a pair ratio")
            if top[0] == 0:
                zeros += 1
            else:
                num, den = num * top[0], den * top[1]
            num, den = num * bottom[1], den * bottom[0]
        return num, den, zeros

    def divide(num, den, f, what: str) -> tuple:
        if f[0] == 0:
            raise DegenerateParameters(f"vanishing factor of {what}")
        return num * f[1], den * f[0]

    def ratio(mu, k: int, m: int) -> tuple:
        """(num, den, zeros) of term(mu + e_k) / term(mu), where mu_k = m."""
        num, den = mono(*step(k, m))
        num, den = divide(num, den, factor(1 + m, n - 1 - k), "the normalizing product")
        if z_rows:
            num, den = divide(num, den, factor(m, -k, True), "(z; q, t)_mu")
        zeros = 0
        for j in range(k + 1, n):
            pn, pd, pz = pair_step(m - mu[j], j - k)
            num, den, zeros = num * pn, den * pd, zeros + pz
        for h in range(k):
            pn, pd, pz = pair_step(mu[h] - m - 1, k - h)
            num, den, zeros = num * pd, den * pn, zeros - pz
        return num, den, zeros

    # (mu, row k to add boxes to, term(mu) over its nonzero factors, the
    # count of its vanishing numerator factors); rows from k on are zero
    origin = (0,) * n
    terms = {origin: root}
    stack = [(origin, 0, root, 0)] if n else []
    while stack:
        mu, k, term, zeros = stack.pop()
        for m in range(part_cap if k == 0 else mu[k - 1]):
            num, den, dz = ratio(mu, k, m)
            mu = mu[:k] + (m + 1,) + mu[k + 1:]
            term, zeros = term * Rational(num, den), zeros + dz
            terms[mu] = mode.zero if zeros else term
            if k + 1 < n:
                stack.append((mu, k + 1, term, zeros))
    return terms


def _exp_terms(z, n, part_cap, mode, upper: bool) -> dict:
    """The terms of the upper (E) or lower (e) exponential series by mu."""
    step = (lambda k, m: (m, k + 1 - n)) if upper else (lambda k, m: (0, 2 * k + 1 - n))
    return _term_walk(mode, n, part_cap, z, mode.one, step, z_rows=False)


def _exp_series(z, n, part_cap, mode, upper: bool) -> Rational:
    return sum_rationals([v] for v in _exp_terms(z, n, part_cap, mode, upper).values())


def exp_E(z, point: QtPoint, n: int, part_cap: int = 20, trunc: int = 40) -> ExpResult:
    """Upper exponential: truncated product (-z)_inf and its partition series."""
    z = check_series(z, point, n, part_cap, trunc)
    mode = point.mode
    prod = poch_partition(-z, (trunc,) * n, mode)
    series = _exp_series(z, n, part_cap, mode, upper=True)
    return ExpResult(prod, series, prod - series)


def exp_e(z, point: QtPoint, n: int, part_cap: int = 20, trunc: int = 40) -> ExpResult:
    """Lower exponential: truncated 1/(z)_inf and its partition series.

    Requires the ratio-test condition max_i |z t^(2i-n-1)| < 1.
    """
    z = check_series(z, point, n, part_cap, trunc)
    if not series_ratio(z, point, n) < 1:
        raise ConvergenceViolated("parameters violate max_i |z t^(2i-n-1)| < 1")
    mode = point.mode
    prod = poch_partition(z, (trunc,) * n, mode)
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


class PartitionSample:
    """Seeded draws from a density, with exact empirical frequencies:
    empirical_mass and exact_mass map a partition to a Rational (exact_mass
    renormalized for poisson)."""

    __slots__ = ("draws", "seed", "empirical_mass", "exact_mass")

    def __init__(self, draws: tuple, seed: int, empirical_mass: dict, exact_mass: dict):
        self.draws = draws
        self.seed = seed
        self.empirical_mass = empirical_mass
        self.exact_mass = exact_mass

    def to_jsonl_lines(self) -> list:
        import json

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
    masses = support_masses(spec)
    if spec.kind == "poisson":
        total = sum_rationals([m] for m in masses.values())
        if total <= 0:
            raise UnsupportedRegime("truncated poisson mass is not positive")
        masses = {mu: m / total for mu, m in masses.items()}
    return masses


def sample(spec: DensitySpec, count: int, seed: int) -> PartitionSample:
    """Inverse-CDF draws against exact cumulative rationals.

    Requires the positivity regime (0 < q, t, z < 1, z < t); every mass is
    checked nonnegative before the cumulative table is built.
    """
    check_sizes(0, count=count)
    if not spec.in_positivity_regime():
        raise UnsupportedRegime(
            "sampling requires 0 < q, t, z < 1 with z < t"
        )
    support = spec.support()
    masses = exact_masses(spec)
    cdf = []
    acc = Rational(0)  # added one mass at a time: every partial sum is kept
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

"""Densities on partition posets, qt-exponentials and the exact sampler."""

import json

import pytest

from qtspecials.distributions import (
    DensitySpec,
    SplitMix64,
    _exp_terms,
    density,
    distribution_F,
    exact_masses,
    exp_E,
    exp_e,
    poisson_masses,
    poisson_normalization,
    poisson_tail,
    sample,
)
from qtspecials.errors import (ConvergenceViolated, DegenerateParameters,
                               InvalidArgument, NotAPartition, UnsupportedRegime)
from qtspecials.identities import random_unit
from qtspecials.partitions import contains, enumerate_sub, n_prime_stat, n_stat, weight
from qtspecials.scalars import Rational
from qtspecials.wcore import AtPoint, QtPoint, norm_weight, pair_ratio, poch_partition

HALF, THIRD, FIFTH = Rational(1, 2), Rational(1, 3), Rational(1, 5)


def g_spec(lam=(2, 1), z=FIFTH, q=HALF, t=THIRD):
    return DensitySpec(kind="binomial_g", z=z, lam=lam,
                       point=QtPoint(q, t, n=len(lam), max_part=6))


def test_spec_validation():
    with pytest.raises(ValueError):
        DensitySpec(kind="nope", z=FIFTH, point=QtPoint(HALF, THIRD))
    with pytest.raises(ValueError):
        DensitySpec(kind="binomial_g", z=FIFTH, point=QtPoint(HALF, THIRD))
    with pytest.raises(ValueError):
        DensitySpec(kind="poisson", z=FIFTH, lam=(1, 0),
                    point=QtPoint(HALF, THIRD))


def test_spec_is_immutable():
    spec = g_spec()
    assert (spec.kind, spec.z, spec.lam, spec.part_cap, spec.trunc) == \
        ("binomial_g", FIFTH, (2, 1), 20, 40)
    for name, value in (("z", HALF), ("kind", "poisson"), ("lam", (1, 0))):
        with pytest.raises(AttributeError):
            setattr(spec, name, value)
    assert (spec.kind, spec.z, spec.lam) == ("binomial_g", FIFTH, (2, 1))


def test_negative_sizes_are_invalid_arguments():
    """A negative truncation or part cap used to invert a Pochhammer product
    or empty the support instead of failing."""
    pt = QtPoint(HALF, THIRD, n=2, max_part=4)
    with pytest.raises(InvalidArgument, match="trunc must be at least 0"):
        exp_E(FIFTH, pt, 2, trunc=-2)
    with pytest.raises(InvalidArgument, match="trunc must be at least 0"):
        exp_e(FIFTH, pt, 2, trunc=-2)
    with pytest.raises(InvalidArgument, match="part_cap must be at least 0"):
        exp_E(FIFTH, pt, 2, part_cap=-1)
    with pytest.raises(InvalidArgument, match="part_cap must be at least 0"):
        DensitySpec(kind="poisson", z=FIFTH, point=pt, part_cap=-1)
    with pytest.raises(InvalidArgument, match="trunc must be at least 0"):
        DensitySpec(kind="poisson", z=FIFTH, point=pt, trunc=-1)
    # the least sizes still work
    assert exp_E(FIFTH, pt, 2, part_cap=0, trunc=0).product == 1
    assert DensitySpec(kind="poisson", z=FIFTH, point=pt, part_cap=0).support() == [(0, 0)]


def test_g_diagonal_mass():
    spec = g_spec()
    m = AtPoint(spec.point)
    assert density(spec, (2, 1)) == poch_partition(FIFTH, (2, 1), m)


def test_exact_normalization_both_kinds():
    for kind in ("binomial_g", "binomial_f"):
        for lam in [(2, 1), (3, 3), (2, 2, 1)]:
            spec = DensitySpec(kind=kind, z=FIFTH, lam=lam,
                               point=QtPoint(HALF, THIRD, n=len(lam), max_part=6))
            total = sum((density(spec, mu) for mu in spec.support()), Rational(0))
            assert total == 1, (kind, lam)


def test_nonnegativity_in_regime():
    import random

    rng = random.Random(4)
    for n in (2, 3):
        lam = (3,) * n if n == 2 else (2, 2, 2)
        for _ in range(3):
            q = random_unit(rng)
            t = random_unit(rng)
            # stay strictly inside the regime: z below t^(n-1)
            z = t ** (n - 1) * random_unit(rng)
            try:
                point = QtPoint(q, t, n=n, max_part=4)
            except Exception:
                continue
            for kind in ("binomial_g", "binomial_f"):
                spec = DensitySpec(kind=kind, z=z, lam=lam, point=point)
                for mu in spec.support():
                    assert density(spec, mu) >= 0, (kind, q, t, z, mu)


def test_distribution_function():
    spec = g_spec()
    nu = (2, 1)
    assert distribution_F(nu, nu, FIFTH, spec.point) == 1
    assert distribution_F(nu, (0, 0), FIFTH, spec.point) == density(spec, (0, 0))
    # monotone along an inclusion chain
    chain = [(0, 0), (1, 0), (2, 0), (2, 1)]
    vals = [distribution_F(nu, lam, FIFTH, spec.point) for lam in chain]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_upper_index_that_is_not_a_partition_raises():
    with pytest.raises(NotAPartition):
        g_spec(lam=(1, 2))
    with pytest.raises(NotAPartition):
        distribution_F((1, 2), (0, 0), FIFTH, QtPoint(HALF, THIRD, n=2, max_part=6))


@pytest.mark.parametrize("kind", ["binomial_g", "binomial_f"])
@pytest.mark.parametrize("lam", [(1, 2), [0, 1], (2, -1)], ids=str)
def test_density_spec_refuses_a_lam_that_is_not_a_partition(kind, lam):
    """The spec is checked when it is built, not first in support()."""
    point = QtPoint(HALF, THIRD, n=2, max_part=6)
    with pytest.raises(NotAPartition):
        DensitySpec(kind=kind, z=FIFTH, lam=lam, point=point)


def test_exp_zero_argument():
    pt = QtPoint(HALF, THIRD, n=2, max_part=6)
    E = exp_E(Rational(0), pt, 2, part_cap=5, trunc=10)
    e = exp_e(Rational(0), pt, 2, part_cap=5, trunc=10)
    assert E.product == 1 and E.series == 1
    assert e.product == 1 and e.series == 1


def test_exp_product_series_agreement():
    pt = QtPoint(HALF, THIRD, n=2, max_part=21)
    tol = Rational(1, 10 ** 6)
    E = exp_E(Rational(1, 10), pt, 2, part_cap=20, trunc=40)
    e = exp_e(Rational(1, 10), pt, 2, part_cap=20, trunc=40)
    assert abs(E.difference) < tol
    assert abs(e.difference) < tol


def test_exp_reciprocal_identity():
    pt = QtPoint(HALF, THIRD, n=2, max_part=21)
    e = exp_e(Rational(1, 10), pt, 2, part_cap=20, trunc=40)
    Eneg = exp_E(Rational(-1, 10), pt, 2, part_cap=20, trunc=40)
    assert abs(e.series * Eneg.series - 1) < Rational(1, 10 ** 6)


def test_exp_e_convergence_guard():
    pt = QtPoint(HALF, THIRD, n=2, max_part=6)
    with pytest.raises(ConvergenceViolated):
        exp_e(Rational(4), pt, 2, part_cap=5, trunc=10)


def test_poisson_normalization_and_tail():
    pt = QtPoint(HALF, THIRD, n=2, max_part=21)
    spec = DensitySpec(kind="poisson", z=Rational(1, 20), point=pt,
                       part_cap=20, trunc=40)
    total, tail = poisson_normalization(spec)
    assert abs(total - 1) < Rational(1, 10 ** 6)
    assert tail > 0


def test_poisson_mass_concentrates_at_origin():
    pt = QtPoint(HALF, THIRD, n=2, max_part=9)
    spec = DensitySpec(kind="poisson", z=Rational(1, 1000), point=pt,
                       part_cap=8, trunc=30)
    masses = exact_masses(spec)
    top = max(masses, key=masses.get)
    assert top == (0, 0)
    assert masses[top] > Rational(99, 100)


def test_splitmix_reference_words():
    # first outputs for seed 1234567, cross-checked against the published
    # reference implementation of the mixer
    g = SplitMix64(1234567)
    words = [g.next_word() for _ in range(3)]
    assert words == [6457827717110365317, 3203168211198807973, 9817491932198370423]
    u = SplitMix64(0).next_rational()
    assert 0 <= u < 1 and u.denominator <= 1 << 64


def test_sampler_determinism_and_support():
    spec = g_spec()
    a = sample(spec, 500, seed=42)
    b = sample(spec, 500, seed=42)
    assert a.draws == b.draws
    c = sample(spec, 500, seed=43)
    assert c.draws != a.draws
    support = set(spec.support())
    assert all(d in support for d in a.draws)
    assert sum(a.empirical_mass.values(), Rational(0)) == 1


def test_sampler_empty():
    spec = g_spec()
    s = sample(spec, 0, seed=1)
    assert s.draws == () and s.empirical_mass == {}


def test_sampler_frequencies_within_five_sigma():
    spec = g_spec()
    draws = 4000
    s = sample(spec, draws, seed=7)
    masses = exact_masses(spec)
    for mu, p in masses.items():
        emp = s.empirical_mass.get(mu, Rational(0))
        # (emp - p)^2 < 25 p(1-p)/N, all in exact arithmetic
        assert (emp - p) ** 2 < 25 * p * (1 - p) / draws, mu


def test_sampler_rejects_bad_regime():
    lam = (2, 1)
    point = QtPoint(Rational(3, 2), THIRD, n=2, max_part=6)  # q > 1
    spec = DensitySpec(kind="binomial_g", z=FIFTH, lam=lam, point=point)
    with pytest.raises(UnsupportedRegime):
        sample(spec, 10, seed=0)
    # z >= t also rejected
    spec = DensitySpec(kind="binomial_g", z=HALF, lam=lam,
                       point=QtPoint(HALF, THIRD, n=2, max_part=6))
    with pytest.raises(UnsupportedRegime):
        sample(spec, 10, seed=0)


def test_poisson_sampler_mode_at_origin():
    pt = QtPoint(HALF, THIRD, n=2, max_part=9)
    spec = DensitySpec(kind="poisson", z=Rational(1, 100), point=pt,
                       part_cap=6, trunc=30)
    s = sample(spec, 300, seed=5)
    assert max(s.empirical_mass, key=s.empirical_mass.get) == (0, 0)


def test_jsonl_export():
    spec = g_spec()
    s = sample(spec, 5, seed=9)
    lines = s.to_jsonl_lines()
    assert len(lines) == 6
    for line in lines[:-1]:
        decoded = json.loads(line)
        assert isinstance(decoded, str) and "," in decoded
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 5
    assert set(summary["masses"]) == {"0,0", "1,0", "1,1", "2,0", "2,1"}


def test_poisson_partial_sums_increase_toward_one():
    pt = QtPoint(HALF, THIRD, n=2, max_part=13)
    totals = []
    for cap in (2, 4, 8, 12):
        spec = DensitySpec(kind="poisson", z=Rational(1, 20), point=pt,
                           part_cap=cap, trunc=40)
        total, _ = poisson_normalization(spec)
        totals.append(total)
    assert all(a < b for a, b in zip(totals, totals[1:]))
    # the limit overshoots 1 by the tiny truncation error of the prefactor
    assert abs(1 - totals[-1]) < Rational(1, 10 ** 6)


def _count_sharing(monkeypatch, shape=None):
    """Count AtPoint constructions and the calls for products (a)_shape, by a."""
    import qtspecials.distributions as distributions
    from collections import Counter

    built = Counter()
    init = AtPoint.__init__

    def counting_init(self, point):
        built["AtPoint"] += 1
        init(self, point)

    def counting_poch_partition(a, lam, mode):
        if lam == shape:
            built[a] += 1
        return poch_partition(a, lam, mode)

    monkeypatch.setattr(AtPoint, "__init__", counting_init)
    monkeypatch.setattr(distributions, "poch_partition", counting_poch_partition)
    return built


def test_poisson_masses_share_one_mode_and_one_prefactor(monkeypatch):
    built = _count_sharing(monkeypatch, (30, 30))
    pt = QtPoint(HALF, THIRD, n=2, max_part=7)
    spec = DensitySpec(kind="poisson", z=Rational(1, 20), point=pt,
                       part_cap=6, trunc=30)
    masses = exact_masses(spec)
    assert len(masses) == 28
    assert built == {"AtPoint": 1, Rational(1, 20): 1}


def test_exponentials_share_one_mode_and_each_truncated_product(monkeypatch):
    built = _count_sharing(monkeypatch)
    pt = QtPoint(HALF, THIRD, n=2, max_part=9)
    z = Rational(1, 10)
    E = exp_E(z, pt, 2, part_cap=8, trunc=25)
    e = exp_e(z, pt, 2, part_cap=8, trunc=25)
    Eneg = exp_E(-z, pt, 2, part_cap=8, trunc=25)
    assert built == {"AtPoint": 1}
    # one cache entry per truncated product: (-z)_inf for E(z), and (z)_inf
    # for both e(z) and E(-z)
    truncated = [key[1].value for key in pt.mode.cache
                 if key[0] == "partition" and key[2] == (25, 25)]
    assert sorted(truncated) == [-z, z]
    assert e.product == 1 / Eneg.product
    assert E.product == poch_partition(-z, (25, 25), AtPoint(pt))


def _direct_exp_term(mu, z, mode, upper):
    """A term of the exponential series by its direct formula:
    the monomial times norm_weight(mu) times pair_ratio(mu, 0)."""
    n, w = len(mu), weight(mu)
    if upper:
        mono = z ** w * mode.qpow(n_prime_stat(mu)) * mode.tpow(n_stat(mu) + (1 - n) * w)
    else:
        mono = z ** w * mode.tpow(2 * n_stat(mu) + (1 - n) * w)
    return mono * norm_weight(mu, mode) * pair_ratio(mu, mode, 0)


# q < 0 and t > 1 included: no sign or size of q, t is special to the ratios
SERIES_POINTS = [(HALF, THIRD), (Rational(-2, 7), Rational(5, 3)),
                 (Rational(3, 5), Rational(-4, 9))]


@pytest.mark.parametrize("q, t", SERIES_POINTS)
def test_exp_terms_by_ratio_equal_the_direct_terms(q, t):
    z = Rational(1, 10)
    for n in (1, 2, 3):
        point = QtPoint(q, t, n=n, max_part=7)
        mode = point.mode
        support = enumerate_sub((6,) * n)
        for upper, exp in ((True, exp_E), (False, exp_e)):
            terms = _exp_terms(z, n, 6, mode, upper)
            assert sorted(terms) == sorted(support)
            direct = {mu: _direct_exp_term(mu, z, mode, upper) for mu in support}
            assert terms == direct, (n, upper)
            series = exp(z, point, n, part_cap=6, trunc=3).series
            assert series == sum(direct.values(), Rational(0)), (n, upper)


@pytest.mark.parametrize("q, t", SERIES_POINTS)
def test_poisson_masses_equal_the_single_masses(q, t):
    for n in (2, 3):
        spec = DensitySpec(kind="poisson", z=Rational(1, 20),
                           point=QtPoint(q, t, n=n, max_part=5), part_cap=4, trunc=6)
        masses = poisson_masses(spec)
        assert list(masses) == spec.support()
        assert masses == {mu: density(spec, mu) for mu in spec.support()}
        total, _ = poisson_normalization(spec)
        assert total == sum(masses.values(), Rational(0))


def test_poisson_masses_guard_their_kind_and_convergence():
    with pytest.raises(InvalidArgument):
        poisson_masses(g_spec())
    spec = DensitySpec(kind="poisson", z=Rational(4), point=QtPoint(HALF, THIRD, n=2),
                       part_cap=2)
    with pytest.raises(ConvergenceViolated):
        poisson_masses(spec)


@pytest.mark.parametrize("z", [Rational(5, 11), Rational(3)], ids=["ratio-one", "ratio-above-one"])
def test_poisson_tail_refuses_a_density_that_fails_the_ratio_test(z):
    """At r = 1 the bound divided by zero, and at r > 1 it came out negative."""
    spec = DensitySpec(kind="poisson", z=z, point=QtPoint(Rational(2, 7), Rational(5, 11), n=2),
                       part_cap=3)
    with pytest.raises(ConvergenceViolated):
        poisson_tail(spec, Rational(1))


def test_vanishing_denominator_factor_raises_as_the_direct_formula_does():
    # q^3 t = 1 lies outside the window of max_part 0, and 1 - q^3 t is a
    # factor of the normalizing product from mu = (3, 0) on
    point = QtPoint(HALF, Rational(8), n=2, max_part=0)
    z = Rational(1, 100)
    for exp in (exp_E, exp_e):
        with pytest.raises(DegenerateParameters):
            exp(z, point, 2, part_cap=3, trunc=3)
    assert exp_E(z, point, 2, part_cap=2, trunc=3).series == sum(
        (_direct_exp_term(mu, z, point.mode, True) for mu in enumerate_sub((2, 2))),
        Rational(0))
    spec = DensitySpec(kind="poisson", z=z, point=point, part_cap=3, trunc=3)
    with pytest.raises(DegenerateParameters):
        density(spec, (3, 0))
    with pytest.raises(DegenerateParameters):
        poisson_masses(spec)


def test_vanishing_numerator_factor_zeroes_only_the_terms_it_divides():
    # q^3 t^2 = 1: the factor 1 - q^3 t^2 of pair_ratio(mu, 0) is in the
    # numerator from gap mu_1 - mu_2 = 4 on, so (4, 0) has term 0 and its
    # child (4, 1), at gap 3, does not
    mode = QtPoint(Rational(1, 4), Rational(8), n=2, max_part=0).mode
    z = Rational(1, 100)
    for upper in (True, False):
        terms = _exp_terms(z, 2, 5, mode, upper)
        assert terms[(4, 0)] == 0 and terms[(4, 1)] != 0
        assert terms == {mu: _direct_exp_term(mu, z, mode, upper) for mu in terms}


def test_series_accept_z_as_a_literal_or_an_int():
    point = QtPoint(HALF, THIRD, n=2, max_part=6)
    for exp in (exp_E, exp_e):
        assert exp("1/10", point, 2, 6, 10) == exp(Rational(1, 10), point, 2, 6, 10)
        assert exp(0, point, 2, 6, 10) == exp(Rational(0), point, 2, 6, 10)


def test_poisson_density_in_no_rows_is_the_point_mass_at_the_empty_partition():
    spec = DensitySpec(kind="poisson", z=FIFTH, point=QtPoint(HALF, THIRD, n=0, max_part=6),
                       part_cap=4, trunc=10)
    assert poisson_normalization(spec) == (1, 0)
    assert exact_masses(spec) == {(): 1}

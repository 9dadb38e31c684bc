"""The binomial against Okounkov's interpolation polynomials (tests/interpolation.py),
an oracle that shares no code with the library."""

from fractions import Fraction
from math import prod

import pytest

from interpolation import Interpolation, below
from qtspecials.binomial import qt_binomial
from qtspecials.specials import alpha_limit, bernoulli_alpha, binomial_alpha, catalan, fibonacci
from qtspecials.wcore import QtPoint


@pytest.mark.parametrize("q,t", [
    pytest.param(Fraction(2, 7), Fraction(5, 11), id="2/7,5/11"),
    pytest.param(Fraction(-3, 4), Fraction(7, 3), id="-3/4,7/3"),  # outside |q| < 1
])
def test_qt_binomial_is_the_interpolation_value(q, t):
    oracle = Interpolation(lambda nu: tuple(q ** p * t ** -i for i, p in enumerate(nu)))
    pairs = 0
    for bound in ((3, 2, 1), (2, 2, 2), (4, 4)):
        mode = QtPoint(q, t, n=len(bound), max_part=bound[0]).mode
        for lam in below(bound):
            for mu in below(lam):
                assert qt_binomial(lam, mu, mode) == oracle(mu, lam), (lam, mu)
                pairs += 1
    assert pairs == 239


def alpha_oracle(alpha):
    return Interpolation(lambda nu: tuple(Fraction(p - alpha * i)
                                          for i, p in enumerate(nu, start=1)))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_alpha_binomial_is_the_interpolation_value(alpha):
    oracle = alpha_oracle(alpha)
    pairs = 0
    for bound in ((4,), (3, 3), (3, 2, 1)):
        for lam in below(bound):
            for mu in below(lam):
                assert binomial_alpha(lam, mu, alpha) == oracle(mu, lam), (lam, mu)
                pairs += 1
    assert pairs == 149


@pytest.mark.parametrize("alpha", [1, 2])
def test_alpha_sequences_from_oracle_binomials(alpha):
    """alpha-Catalan, alpha-Fibonacci and alpha-Bernoulli values rebuilt from
    oracle binomials; every monomial weight tends to 1 at q = 1."""
    oracle = alpha_oracle(alpha)
    for lam in below((2, 2)):
        if lam[-1] == 0:  # the bracket of lam + e_1 vanishes
            continue
        n = len(lam)
        bracket = prod(Fraction(z + alpha * (n - i), 1 + alpha * (n - i))
                       for i, z in enumerate((lam[0] + 1,) + lam[1:], start=1))
        want = oracle(lam, tuple(2 * p for p in lam)) / bracket
        assert alpha_limit(lambda m: catalan(lam, m), alpha) == want, lam
    beta = {}
    for lam in below((3, 2)):  # lexicographic, so every mu < lam comes first
        pairs = [(nu, tuple(a - b for a, b in zip(lam, nu))) for nu in below(lam)]
        want = sum(oracle(mu, nu) for nu, mu in pairs if mu in below(nu))
        assert alpha_limit(lambda m: fibonacci(lam, m), alpha) == want, lam
        lam1 = (lam[0] + 1,) + lam[1:]
        rest = sum(oracle(mu, lam1) * beta[mu] for mu in below(lam) if mu != lam)
        beta[lam] = -rest / oracle(lam, lam1) if sum(lam) else Fraction(1)
        assert bernoulli_alpha(lam, alpha) == beta[lam], lam

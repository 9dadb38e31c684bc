"""Okounkov's interpolation polynomials, solved from their defining
conditions: an oracle for the binomial that shares no code with the library.

For a partition mu of n parts (zeros kept), P*_mu is the symmetric
polynomial in n variables of degree at most |mu| with
P*_mu(x(nu)) = [nu = mu] for every n-part partition nu with |nu| <= |mu|,
where x(nu) is a point attached to nu.  It is found here in the basis of
monomial symmetric polynomials by Gauss-Jordan elimination over Fraction.
Okounkov's binomial formula ("Binomial formula for Macdonald polynomials",
1997) makes P*_mu(x(lam)) the qt-binomial of lam over mu for the points
x(nu)_i = q^{nu_i} t^{1-i}; at t = q^alpha, q -> 1 the points become
nu_i - alpha i and the values the alpha-binomials.
"""

from fractions import Fraction
from itertools import permutations
from math import prod


def partitions(n, most):
    """All n-part partitions (zeros kept) of weight at most ``most``."""
    def rec(i, cap, left):
        if i == n:
            yield ()
            return
        for v in range(min(cap, left) + 1):
            for rest in rec(i + 1, v, left - v):
                yield (v,) + rest
    return list(rec(0, most, most))


def below(lam):
    """All n-part partitions contained in lam."""
    return [nu for nu in partitions(len(lam), sum(lam))
            if all(a <= b for a, b in zip(nu, lam))]


def monomial(kappa, x):
    """The monomial symmetric polynomial m_kappa at the point x."""
    return sum(prod(xi ** e for xi, e in zip(x, exps)) for exps in set(permutations(kappa)))


def solve(rows, rhs):
    """The c with rows * c = rhs, by Gauss-Jordan elimination over Fraction."""
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(len(m)):
        pivot = next(r for r in range(col, len(m)) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r, row in enumerate(m):
            if r != col and row[col] != 0:
                m[r] = [a - row[col] * b for a, b in zip(row, m[col])]
    return [row[-1] for row in m]


class Interpolation:
    """P*_mu at the points ``point(nu)``, one solve per mu, cached."""

    def __init__(self, point):
        self.point = point
        self._coeffs = {}

    def __call__(self, mu, lam):
        """P*_mu(point(lam))."""
        coeffs = self._coeffs.get(mu)
        if coeffs is None:
            basis = partitions(len(mu), sum(mu))
            rows = [[monomial(kappa, self.point(nu)) for kappa in basis] for nu in basis]
            coeffs = self._coeffs[mu] = list(zip(basis, solve(rows, [nu == mu for nu in basis])))
        x = self.point(lam)
        return sum((c * monomial(kappa, x) for kappa, c in coeffs), Fraction(0))

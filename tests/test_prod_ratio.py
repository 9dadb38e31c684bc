"""Every product of factors of the library goes through ``wcore.prod_ratio``.

The references below are the sequential loops that ``prod_ratio`` replaced:
each multiplies its factors one by one, starting from 1, divides through
``guarded_div``, and builds every (a; q)_m by the same loop, without the
memo.  Each rewritten function must give the reference's value, in a formal
mode with the same normal form, and a vanishing denominator factor must
raise the reference's DegenerateParameters.
"""

import re
from types import SimpleNamespace

import pytest

from qtspecials import specials, wcore
from qtspecials.binomial import (binom_rect_lower, binom_rect_upper, gaussian_binomial,
                                 poch_reciprocal, qt_binomial, qt_bracket, qt_bracket_shifted)
from qtspecials.distributions import DensitySpec, _poisson_mass, f_mass
from qtspecials.errors import DegenerateParameters
from qtspecials.partitions import contains, enumerate_sub, n_prime_stat, n_stat, weight
from qtspecials.scalars import Rational
from qtspecials.specials import stirling, stirling_expansion_residual
from qtspecials.wcore import (FormalQ, QtPoint, guarded_div, norm_weight, pair_ratio, poch,
                              poch_norm, w_rectangular)

# ---------------------------------------------------------------------------
# The sequential references
# ---------------------------------------------------------------------------


def _seq_poch(a, m, mode):
    if m == 0:
        return mode.one
    if m < 0:
        return guarded_div(mode.one, _seq_poch(a * mode.qpow(m), -m, mode),
                           "negative-order product")
    acc = mode.one
    for k in range(m):
        acc = acc * (mode.one - a * mode.qpow(k))
    return acc


def _seq_pochm(i, j, m, mode):
    return _seq_poch(mode.qpow(i) * mode.tpow(j), m, mode)


def _seq_partition(a, lam, mode):
    acc = mode.one
    for i, m in enumerate(lam):
        acc = acc * _seq_poch(a * mode.tpow(-i), m, mode)
    return acc


def _seq_poch_norm(mu, mode):
    n = len(mu)
    acc = mode.one
    for i, m in enumerate(mu, start=1):
        acc = acc * _seq_pochm(1, n - i, m, mode)
    return acc


def _seq_pair_ratio(mu, mode, s=1):
    n = len(mu)
    acc = mode.one
    for j in range(2, n + 1):
        for i in range(1, j):
            d = mu[i - 1] - mu[j - 1]
            if d == 0:
                continue
            num = _seq_pochm(s, j - i + 1 - s, d, mode)
            den = _seq_pochm(s, j - i - s, d, mode)
            acc = acc * guarded_div(num, den, "pair ratio")
    return acc


def _seq_norm_weight(mu, mode):
    return guarded_div(_seq_pair_ratio(mu, mode), _seq_poch_norm(mu, mode), "binomial weight")


def _seq_w_rectangular(kind, k, z, mode, s=None):
    if k == 0:
        return mode.one
    acc = mode.one
    if kind == "s_up":
        base = mode.qpow(1 - k)
        for zi in z:
            acc = acc * _seq_poch(base * zi, k, mode)
        return mode.qpow(-len(z) * k) * acc
    for zi in z:
        acc = acc * _seq_poch(zi ** -1, k, mode)
        if kind == "ab":
            acc = guarded_div(acc, _seq_poch(mode.q * s * zi ** -1, k, mode), "rectangular W^ab")
    return acc


def _seq_rect_lower(lam, k, mode):
    n = len(lam)
    acc = mode.one
    for i in range(1, n + 1):
        num = _seq_pochm(1 - k + lam[i - 1], n - i, k, mode)
        den = _seq_pochm(1, n - i, k, mode)
        acc = acc * guarded_div(num, den, "rectangular lower binomial")
    return acc


def _seq_rect_upper(k, mu, mode):
    n = len(mu)
    acc = mode.tpow(2 * n_stat(mu) + (1 - n) * weight(mu))
    for i in range(1, n + 1):
        mi = mu[i - 1]
        num = _seq_pochm(1 + k - mi, i - 1, mi, mode)
        den = _seq_pochm(1, n - i, mi, mode)
        acc = acc * guarded_div(num, den, "rectangular upper binomial")
    return acc * _seq_pair_ratio(mu, mode) * _seq_pair_ratio(mu, mode, 0)


def _seq_gaussian(m, k, mode):
    if k < 0 or k > m:
        return mode.zero
    den = _seq_pochm(1, 0, m - k, mode) * _seq_pochm(1, 0, k, mode)
    return guarded_div(_seq_pochm(1, 0, m, mode), den, "Gaussian binomial")


def _seq_bracket(z, mode):
    n = len(z)
    acc = mode.one
    for i in range(1, n + 1):
        num = mode.one - mode.qpow(z[i - 1]) * mode.tpow(n - i)
        den = mode.one - mode.q * mode.tpow(n - i)
        acc = acc * guarded_div(num, den, "qt-bracket")
    return acc


def _seq_reciprocal(x, mu, mode):
    acc = mode.one
    for i, m in enumerate(mu):
        acc = acc * _seq_poch(x * mode.tpow(i) * mode.qpow(1 - m), m, mode)
    return acc


def _seq_bracket_shifted(Q, mu, mode):
    n = len(mu)
    den = mode.one
    for i, m in enumerate(mu, start=1):
        den = den * (mode.one - mode.q * mode.tpow(n - i)) ** m
    num = mode.qpow(n_prime_stat(mu)) * _seq_reciprocal(mode.lift(Q), mu, mode)
    return guarded_div(num, den, "shifted bracket")


def _seq_stirling(kind, nu, mu, mode):
    """The prefactor and its denominator by the sequential loop; the sum over
    lam takes the library's coefficients u and v."""
    if not contains(nu, mu):
        return mode.zero
    n = len(nu)
    den = mode.one
    for i in range(1, n + 1):
        den = den * (mode.one - mode.q * mode.tpow(n - i)) ** (nu[i - 1] - mu[i - 1])
    first = kind == "first"
    if first:
        s = 1 - n
        pref = mode.qpow(n_prime_stat(nu)) * mode.tpow(-2 * n_stat(mu) - s * weight(mu))
    else:
        s = n - 1
        pref = mode.qpow(-n_prime_stat(mu)) * mode.tpow(2 * n_stat(nu) - s * weight(nu))
    pref = guarded_div(pref, den, "Stirling prefactor")
    total = mode.zero
    for lam in enumerate_sub(nu):
        if not contains(lam, mu):
            continue
        u = specials._u(nu, lam, mode) if first else specials._inner_limit(nu, lam, False, mode)
        if u == 0:
            continue
        v = specials._inner_limit(lam, mu, True, mode) if first else specials._v(lam, mu, mode)
        total = total + u * mode.tpow(s * weight(lam)) * v
    return pref * total


def _seq_residual(lam, Q, mode):
    Q = mode.lift(Q)
    n = len(lam)
    lhs = _seq_bracket_shifted(Q, lam, mode)
    rhs = mode.zero
    for mu in enumerate_sub(lam):
        basis = mode.tpow(2 * n_stat(mu) + (1 - n) * weight(mu))
        for i in range(1, n + 1):
            basis = basis * guarded_div(
                mode.one - Q * mode.tpow(n - i),
                mode.one - mode.q * mode.tpow(n - i),
                "bracket-power basis",
            ) ** mu[i - 1]
        rhs = rhs + stirling("first", lam, mu, mode) * basis
    return lhs - rhs


def _seq_f_mass(lam, mu, z, mode):
    return (
        mode.tpow(-2 * n_stat(mu))
        * mode.qpow(2 * n_prime_stat(mu))
        * qt_binomial(lam, mu, mode)
        * guarded_div(_seq_partition(z, lam, mode), _seq_partition(z, mu, mode),
                      "f-density ratio")
        * z ** weight(mu)
    )


def _seq_poisson_mass(spec, mu, mode):
    n, z, wm = spec.n, spec.z, weight(mu)
    return (
        _seq_partition(z, (spec.trunc,) * n, mode)
        * guarded_div(z ** wm * mode.qpow(2 * n_prime_stat(mu)) * mode.tpow((1 - n) * wm),
                      _seq_partition(z, mu, mode), "poisson mass")
        * _seq_norm_weight(mu, mode)
        * _seq_pair_ratio(mu, mode, 0)
    )


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

POINTS = [(Rational(2, 7), Rational(5, 11)), (Rational(-3, 4), Rational(7, 3))]
MODES = [
    pytest.param(lambda: QtPoint(*POINTS[0]).mode, id="2/7,5/11"),
    pytest.param(lambda: QtPoint(*POINTS[1]).mode, id="-3/4,7/3"),  # q < 0 and t > 1
    pytest.param(lambda: FormalQ(Rational(3, 5)), id="formal-t0"),
    pytest.param(lambda: FormalQ.alpha(2), id="formal-alpha"),
]
INDICES = enumerate_sub((3, 2, 1))


def _same(got, expect, mode):
    """Equal values; in a formal mode the same RatFuncQ normal form too."""
    if mode.is_point:
        return got == expect
    return (got.num, got.den) == (expect.num, expect.den)


def _scalars(mode):
    """A plain scalar, a negative one and the monomial q^2 t of the mode."""
    return mode.lift(Rational(4, 9)), mode.lift(Rational(-5, 3)), mode.qpow(2) * mode.t


@pytest.mark.parametrize("make_mode", MODES)
def test_wcore_products_equal_the_sequential_loops(make_mode):
    mode = make_mode()
    for a in _scalars(mode):
        for m in range(-3, 4):
            assert _same(poch(a, m, mode), _seq_poch(a, m, mode), mode), (a, m)
    for mu in INDICES:
        assert _same(poch_norm(mu, mode), _seq_poch_norm(mu, mode), mode), mu
        for s in (0, 1):
            assert _same(pair_ratio(mu, mode, s), _seq_pair_ratio(mu, mode, s), mode), mu
        assert _same(norm_weight(mu, mode), _seq_norm_weight(mu, mode), mode), mu
    z = _scalars(mode)
    for kind, s in (("s_up", None), ("s_down", None), ("ab", mode.lift(Rational(7, 13)))):
        for k in range(4):
            for n in range(4):
                got = w_rectangular(kind, k, z[:n], mode, s)
                assert _same(got, _seq_w_rectangular(kind, k, z[:n], mode, s), mode), (kind, k, n)


@pytest.mark.parametrize("make_mode", MODES)
def test_binomial_products_equal_the_sequential_loops(make_mode):
    mode = make_mode()
    x, Q = mode.lift(Rational(4, 9)), Rational(3, 13)
    for mu in INDICES:
        for k in range(3):
            assert _same(binom_rect_lower(mu, k, mode), _seq_rect_lower(mu, k, mode), mode)
        assert _same(binom_rect_upper(3, mu, mode), _seq_rect_upper(3, mu, mode), mode), mu
        assert _same(qt_bracket(mu, mode), _seq_bracket(mu, mode), mode), mu
        assert _same(poch_reciprocal(x, mu, mode), _seq_reciprocal(x, mu, mode), mode), mu
        assert _same(qt_bracket_shifted(Q, mu, mode), _seq_bracket_shifted(Q, mu, mode), mode)
    for m in range(4):
        for k in range(-1, m + 2):
            assert _same(gaussian_binomial(m, k, mode), _seq_gaussian(m, k, mode), mode), (m, k)


@pytest.mark.parametrize("make_mode", MODES)
def test_specials_products_equal_the_sequential_loops(make_mode):
    """The alpha mode has no rational t, so its Stirling numbers take one part."""
    mode = make_mode()
    indices = INDICES if mode.t0 is not None else enumerate_sub((3,))
    for nu in indices:
        for mu in enumerate_sub(nu):
            for kind in ("first", "second"):
                got = stirling(kind, nu, mu, mode)
                assert _same(got, _seq_stirling(kind, nu, mu, mode), mode), (kind, nu, mu)
        got = stirling_expansion_residual(nu, Rational(3, 13), mode)
        assert _same(got, _seq_residual(nu, Rational(3, 13), mode), mode), nu


@pytest.mark.parametrize("make_mode", MODES)
def test_f_masses_equal_the_sequential_product(make_mode):
    mode = make_mode()
    z = Rational(1, 5)
    for lam in INDICES:
        for mu in enumerate_sub(lam):
            assert _same(f_mass(lam, mu, z, mode), _seq_f_mass(lam, mu, z, mode), mode)


@pytest.mark.parametrize("qt", POINTS, ids=["2/7,5/11", "-3/4,7/3"])
def test_poisson_masses_equal_the_sequential_product(qt):
    point = QtPoint(*qt, n=3)
    spec = DensitySpec(kind="poisson", z=Rational(1, 10), point=point, part_cap=3, trunc=6)
    for mu in INDICES:
        assert _poisson_mass(spec, mu, point.mode) == _seq_poisson_mass(spec, mu, point.mode)


# ---------------------------------------------------------------------------
# Degeneracy
# ---------------------------------------------------------------------------

def _unchecked(q, t):
    """A point mode without the degeneracy window, so that a chosen factor
    of a denominator can vanish."""
    return wcore.AtPoint(SimpleNamespace(q=Rational(q), t=Rational(t)))


# (what, q, t, the function, its reference, the call); q t = 1 makes the
# factor 1 - q t of each denominator vanish, q = -1 the factor 1 - q^2
HALF, THIRD = Rational(1, 2), Rational(1, 3)
DEGENERATE = [
    ("negative-order product", HALF, 3, poch, _seq_poch, lambda f, m: f(m.q, -1, m)),
    ("pair ratio", HALF, 2, pair_ratio, _seq_pair_ratio, lambda f, m: f((1, 0, 0), m)),
    ("binomial weight", HALF, 2, norm_weight, _seq_norm_weight, lambda f, m: f((1, 0), m)),
    ("rectangular W^ab", HALF, 3, w_rectangular, _seq_w_rectangular,
     lambda f, m: f("ab", 1, (THIRD,), m, THIRD / m.q)),
    ("rectangular lower binomial", HALF, 2, binom_rect_lower, _seq_rect_lower,
     lambda f, m: f((1, 1), 1, m)),
    ("rectangular upper binomial", HALF, 2, binom_rect_upper, _seq_rect_upper,
     lambda f, m: f(1, (1, 1), m)),
    ("Gaussian binomial", -1, 3, gaussian_binomial, _seq_gaussian, lambda f, m: f(3, 2, m)),
    ("qt-bracket", HALF, 2, qt_bracket, _seq_bracket, lambda f, m: f((2, 1), m)),
    ("shifted bracket", HALF, 2, qt_bracket_shifted, _seq_bracket_shifted,
     lambda f, m: f(THIRD, (1, 0), m)),
    ("Stirling prefactor", HALF, 2, stirling, _seq_stirling,
     lambda f, m: f("first", (1, 0), (0, 0), m)),
    # the row whose factor vanishes has part 0, so the shifted bracket does not
    ("bracket-power basis", HALF, 2, stirling_expansion_residual, _seq_residual,
     lambda f, m: f((0, 0), THIRD, m)),
    # z = 1: the first factor 1 - z of (z; q, t)_mu
    ("f-density ratio", HALF, 3, f_mass, _seq_f_mass, lambda f, m: f((1, 0), (1, 0), 1, m)),
]


@pytest.mark.parametrize("case", DEGENERATE, ids=[c[0] for c in DEGENERATE])
def test_a_vanishing_denominator_factor_raises_the_old_message(case):
    """The poisson mass is not here: inside the convergence region its
    denominator (z; q, t)_mu has no vanishing factor."""
    what, q, t, fn, reference, call = case
    for f in (fn, reference):
        with pytest.raises(DegenerateParameters,
                           match=f"^vanishing denominator in {re.escape(what)}$"):
            call(f, _unchecked(q, t))

"""The point kernel of the W layer against the sequential product it replaced.

At an exact point, ``h_factor`` and ``w_skew`` multiply the numerators and
denominators of their factors as ints and reduce once.  The reference below
is the earlier code path: the same ``pochm`` factors multiplied one by one as
Rationals, each product reduced.  Both must give the same reduced value, and
a vanishing factor must raise the same ``DegenerateParameters``.
"""

from math import gcd

import pytest

from qtspecials import wcore
from qtspecials.errors import DegenerateParameters
from qtspecials.partitions import (contains, enumerate_strips, enumerate_sub,
                                   is_horizontal_strip, n_prime_stat, n_stat, weight)
from qtspecials.scalars import Rational
from qtspecials.wcore import (UNIT, FormalQ, Mono, QtPoint, guarded_div, h_factor, pochm,
                              w_multi, w_skew)


def _seq_h(lam, mu, mode):
    n = len(lam)
    num = den = mode.one
    for j in range(2, n + 1):
        for i in range(1, j):
            m = mu[j - 2] - lam[j - 1]
            if m == 0:
                continue
            mi, li = mu[i - 1], lam[i - 1]
            num = num * pochm(mi - mu[j - 2], j - i, m, mode)
            num = num * pochm(li - mu[j - 2] + 1, j - i - 1, m, mode)
            den = den * pochm(mi - mu[j - 2] + 1, j - i - 1, m, mode)
            den = den * pochm(li - mu[j - 2], j - i, m, mode)
    return guarded_div(num, den, "strip factor")


def _seq_skew(kind, lam, mu, x, mode, s):
    """The skew value at a Mono x with Coef c (and s), one product at a time."""
    if not is_horizontal_strip(lam, mu):
        return mode.zero
    c, a, b = x
    cinv = UNIT if c is UNIT else wcore.coef(guarded_div(mode.one, c.value, "W argument"), mode)
    cargs = wcore.cargs(cinv)
    val = _seq_h(lam, mu, mode)
    for i, (li, mi) in enumerate(zip(lam, mu)):
        if li != mi:
            val = val * pochm(mi - a, -b - i, li - mi, mode, *cargs)
    if kind == "s_up":
        e = weight(mu) - weight(lam)
        val = val * mode.qpow(e * (1 - a) + n_prime_stat(mu) - n_prime_stat(lam))
        val = val * mode.tpow(-e * b)
        val = val if c is UNIT else val * c.value ** -e
        val = -val if e % 2 else val
    else:
        val = val * mode.tpow(-n_stat(lam) + weight(mu) + n_stat(mu))
    if kind == "ab":
        sc = s.c if cinv is UNIT else wcore.coef(s.c.value * cinv.value, mode)
        scargs = wcore.cargs(sc)
        i0, j0 = s.a + 1 - a, s.b - b
        num = den = mode.one
        for i, m in enumerate(mu, start=1):
            num = num * pochm(i0, j0 - i, m, mode, *scargs)
        for i, m in enumerate(lam, start=1):
            den = den * pochm(i0, j0 + 1 - i, m, mode, *scargs)
        val = val * guarded_div(num, den, "auxiliary product of W^ab")
    return val


def _seq_multi(kind, lam, mu, z, mode, s):
    """The peeling recurrence over Monos, summed from zero, without a memo."""
    if len(z) == 1:
        return _seq_skew(kind, lam, mu, z[0], mode, s)
    if not contains(lam, mu):
        return mode.zero
    ell = len(z) - 1
    s_peel = s.peeled(ell) if kind == "ab" else None
    total = mode.zero
    for nu in enumerate_strips(lam):
        if not contains(nu, mu):
            continue
        term = _seq_skew(kind, lam, nu, z[0].peeled(ell), mode, s_peel)
        if term != 0:
            term = term * _seq_multi(kind, nu, mu, z[1:], mode, s)
            if kind == "s_up":
                term = term * mode.tpow(ell * (weight(lam) - weight(nu)))
        total = total + term
    return total


POINTS = [
    pytest.param((Rational(2, 7), Rational(5, 11)), id="2/7,5/11"),
    pytest.param((Rational(-3, 4), Rational(7, 3)), id="-3/4,7/3"),  # q < 0 and t > 1
]
# c = 1 (a monomial in q and t) and c != 1, plain or times a monomial
ARGUMENTS = (Mono(1, 2, 1), Rational(4, 9), Mono(Rational(-5, 3), 1, -1))
# kind and s: the "ab" slot with c != 1 and with c = 1
KINDS = (("s_up", None), ("s_down", None), ("ab", Rational(7, 13)), ("ab", Mono(1, 7, 3)))


def _modes(qt):
    """Two modes at one point: the kernel's and the reference's, so that
    neither reads a value the other stored."""
    return QtPoint(*qt).mode, wcore.AtPoint(QtPoint(*qt))


def _reduced(v, mode):
    return type(v) is type(mode.one) and gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize("qt", POINTS)
def test_point_kernel_equals_the_sequential_product_on_every_strip(qt):
    mode, ref = _modes(qt)
    strips = [(lam, mu) for lam in enumerate_sub((3, 3, 3)) for mu in enumerate_strips(lam)]
    assert len(strips) == 84
    for lam, mu in strips:
        got = h_factor(lam, mu, mode)
        assert got == _seq_h(lam, mu, ref) and _reduced(got, mode), (lam, mu)
        for x in ARGUMENTS:
            xr = wcore._mono(x, ref)
            for kind, s in KINDS:
                sr = wcore._mono(s, ref) if kind == "ab" else None
                got = w_skew(kind, lam, mu, x, mode, s)
                assert got == _seq_skew(kind, lam, mu, xr, ref, sr), (kind, lam, mu, x, s)
                assert _reduced(got, mode)


@pytest.mark.parametrize("qt", POINTS)
@pytest.mark.parametrize("z", [
    (Rational(4, 9), Mono(1, 2, 1)),
    (Mono(1, 2, 2), Rational(-5, 3), Rational(4, 9)),
], ids=["2-variables", "3-variables"])
def test_w_multi_equals_the_sequential_sum(qt, z):
    mode, ref = _modes(qt)
    zr = tuple(wcore._mono(x, ref) for x in z)
    for lam in enumerate_sub((2, 2, 1)):
        for mu in enumerate_sub(lam):
            for kind, s in KINDS:
                sr = wcore._mono(s, ref) if kind == "ab" else None
                got = w_multi(kind, lam, mu, z, mode, s)
                assert got == _seq_multi(kind, lam, mu, zr, ref, sr), (kind, lam, mu)
                assert _reduced(got, mode)


def test_formal_values_keep_their_representation():
    """A formal mode multiplies the same factors, so each RatFuncQ has the
    same normal form as the sequential product's."""
    def form(v):
        return v.num.ints, v.num.den, v.den.ints, v.den.den

    mode, ref = FormalQ(Rational(3, 5)), FormalQ(Rational(3, 5))
    for lam in enumerate_sub((2, 2, 1)):
        for mu in enumerate_strips(lam):
            assert form(h_factor(lam, mu, mode)) == form(_seq_h(lam, mu, ref))
            for kind, s in KINDS:
                x = Mono(1, 2, 1)
                sr = wcore._mono(s, ref) if kind == "ab" else None
                assert form(w_skew(kind, lam, mu, x, mode, s)) == \
                    form(_seq_skew(kind, lam, mu, wcore._mono(x, ref), ref, sr)), (kind, lam, mu)


def test_a_vanishing_strip_factor_raises_degeneracy():
    """At q^2 t = 1, outside the window of a point validated for no rows,
    the denominator factor (q^2 t; q)_1 of h((3,0), (1,0)) is 0."""
    for f in (h_factor, _seq_h):
        mode = wcore.AtPoint(QtPoint(Rational(1, 2), Rational(4), n=0, max_part=0))
        with pytest.raises(DegenerateParameters,
                           match="^vanishing denominator in strip factor$"):
            f((3, 0), (1, 0), mode)


def test_a_vanishing_ab_factor_raises_degeneracy():
    """s q / x = 1 makes the first factor of (s q / x; q)_lam vanish."""
    mode, ref = _modes((Rational(2, 7), Rational(5, 11)))
    x = Rational(3, 5)
    s = x / mode.q
    message = r"^vanishing denominator in auxiliary product of W\^ab$"
    with pytest.raises(DegenerateParameters, match=message):
        w_skew("ab", (1, 0), (0, 0), x, mode, s)
    with pytest.raises(DegenerateParameters, match=message):
        _seq_skew("ab", (1, 0), (0, 0), wcore._mono(x, ref), ref, wcore._mono(s, ref))

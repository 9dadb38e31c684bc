"""Every sum of the library goes through ``wcore.sum_prods`` or, for terms
that are plain Rationals, the one exact sum ``scalars.sum_rationals`` that
``sum_prods`` is at a point; the W strip sum computes each inner value first.

The references below are the loops these replaced: a sum of products built
one Rational product and one addition at a time, and the strip sum of
``_w_multi`` as it was, which computed every skew value W_{lam/nu} before
the inner value it multiplies.  Both entries must give the sequential sum
exactly, and a formal mode the same normal form.  The strip sum must
give the old value wherever the old loop gave one, and raise wherever it
raised: the same DegenerateParameters inside the window of a validated
point, and never a value outside it.
"""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtspecials import wcore
from qtspecials.errors import QtError
from qtspecials.identities import check_weak_cocycle
from qtspecials.partitions import enumerate_strips, enumerate_sub, weight
from qtspecials.scalars import Rational, sum_rationals
from qtspecials.wcore import UNIT, FormalQ, Mono, QtPoint, pochm, sum_prods, w_principal

# ---------------------------------------------------------------------------
# The sum primitive against the sequential sum
# ---------------------------------------------------------------------------


def _seq_sum(terms, mode):
    total = mode.zero
    for fs in terms:
        term = mode.one
        for f in fs:
            term = term * f
        total = total + term
    return total


BIG = Rational(3 ** 700 + 1, 2 ** 1100 - 5)  # numerator and denominator over 1000 bits
FACTORS = [Rational(2, 7), Rational(-5, 11), Rational(9, 4), BIG, -1 / BIG, Rational(7)]
POINT_TERMS = [
    pytest.param([], id="no-terms"),
    pytest.param([FACTORS[:3]], id="one-term"),
    pytest.param([[]], id="one-empty-term"),
    pytest.param([FACTORS[:2], [Rational(0), BIG], [Rational(-3, 8)]], id="zero-factor"),
    pytest.param([FACTORS[:2], [Rational(5, 11), Rational(2, 7)]], id="sum-zero"),
    pytest.param([[BIG, BIG], [-1 / BIG], FACTORS, [Rational(-1), BIG]], id="over-1000-bits"),
    pytest.param([[Rational(-3, 4), Rational(2, 9)], [Rational(5, 6)], [Rational(-7, 10), BIG],
                  [Rational(-1), Rational(-1, 3)]], id="mixed-signs"),
    pytest.param([[f] for f in FACTORS], id="one-factor-terms"),
    pytest.param([[BIG, Rational(1, 3)], [-BIG, Rational(2, 3)], [BIG, Rational(1, 3)]],
                 id="cancel-over-1000-bits"),
]


@pytest.mark.parametrize("terms", POINT_TERMS)
def test_point_sum_equals_the_sequential_sum(terms):
    """At a point, and through the mode-free entry that it delegates to."""
    mode = QtPoint(Rational(2, 7), Rational(5, 11)).mode
    expect = _seq_sum(terms, mode)
    for got in (sum_prods(terms, mode), sum_rationals(terms)):
        assert got == expect
        assert type(got) is type(mode.one) and gcd(got.numerator, got.denominator) == 1


def _fraction(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _form(v):
    return v.num.ints, v.num.den, v.den.ints, v.den.den


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(
    lambda f: Rational(f.numerator, f.denominator))


@given(st.lists(st.lists(SMALL, max_size=4), max_size=6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_one_sum_equals_the_sequential_sum(terms):
    """Random lists of small-Rational factor lists: the one sum is the
    sequential Fraction sum, and the formal sum_prods of the factors
    1 - r q keeps the normal form of the sequential formal sum."""
    expect = sum((reduce(mul, map(_fraction, fs), Fraction(1)) for fs in terms), Fraction(0))
    assert _fraction(sum_rationals(terms)) == expect
    mode = FormalQ(Rational(3, 5))
    formal = [[mode.one - mode.lift(r) * mode.q for r in fs] for fs in terms]
    assert _form(sum_prods(formal, mode)) == _form(_seq_sum(formal, mode))


def test_formal_sum_keeps_the_sequential_normal_form():
    mode = FormalQ(Rational(3, 5))
    q, lift = mode.q, mode.lift
    factors = [pochm(1, 2, 3, mode), mode.one - q, lift(BIG), lift(Rational(-4, 9)),
               mode.qpow(-2), pochm(0, -1, 2, mode) / pochm(2, 1, 1, mode), mode.zero]
    cases = [[], [factors[:3]], [[]], [factors[:2], factors[3:6]],
             [factors[5:], factors[1:4], [q]], [factors[::2], [lift(-1)] + factors[::2]]]
    for terms in cases:
        assert _form(sum_prods(terms, mode)) == _form(_seq_sum(terms, mode)), terms


# ---------------------------------------------------------------------------
# The strip sum against the skew-first loop
# ---------------------------------------------------------------------------


@wcore.memo("W", 4)
def _skew_first_w_multi(kind, lam, mu, z, mode, s):
    """The earlier strip sum: each skew value first, its inner value only
    when the skew value is nonzero, the terms added one at a time."""
    ell = len(z) - 1
    y = z[0].peeled(ell)
    s_peel = s.peeled(ell) if kind == "ab" else None
    total = None
    for nu in enumerate_strips(lam, mu):
        skew = wcore.w_skew(kind, lam, nu, y, mode, s_peel)
        if skew == 0:
            continue
        inner = wcore.w_multi(kind, nu, mu, z[1:], mode, s)
        if inner == 0:
            continue
        term = skew * inner
        if kind == "s_up" and nu != lam:
            term = term * mode.tpow(ell * (weight(lam) - weight(nu)))
        total = term if total is None else total + term
    return mode.zero if total is None else total


def _outcome(call):
    """The value of call(), or the type and message of the QtError it raises."""
    try:
        return call()
    except QtError as exc:
        return type(exc), str(exc)


def _both(monkeypatch, point, calls):
    """The outcome of every call(mode) in a mode of its own, once with the
    strip sum of the library and once with the skew-first reference."""
    mode = QtPoint(point.q, point.t, point.n, point.max_part).mode
    got = [_outcome(lambda c=c: c(mode)) for c in calls]
    ref = QtPoint(point.q, point.t, point.n, point.max_part).mode
    with monkeypatch.context() as patched:
        patched.setattr(wcore, "_w_multi", _skew_first_w_multi)
        expect = [_outcome(lambda c=c: c(ref)) for c in calls]
    return got, expect


def _raised(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def test_inside_the_window_the_strip_sum_raises_and_returns_as_before(monkeypatch):
    """At a validated point, with s = q^e t^f (|e|, |f| <= 4) or generic:
    W^ab at every principal argument below (2,2,1) and the weak cocycle at
    r = 3/5 and r = s give the same value or the same error."""
    point = QtPoint(Rational(2, 7), Rational(5, 11), n=3, max_part=3)
    q, t = point.q, point.t
    scalars = [q ** e * t ** f for e in range(-4, 5) for f in range(-4, 5)] + [Rational(13, 17)]
    pairs = [(lam, mu) for lam in enumerate_sub((2, 2, 1)) for mu in enumerate_sub(lam)]

    def cocycle(lam, mu, s, r, mode):
        check = check_weak_cocycle(lam, mu, s, r, mode)
        return check.lhs, check.rhs, check.residual

    calls = []
    for s in scalars:
        for lam, mu in pairs:
            calls.append(lambda m, s=s, lam=lam, mu=mu: w_principal("ab", mu, lam, m, s))
            calls += [lambda m, s=s, r=r, lam=lam, mu=mu: cocycle(lam, mu, s, r, m)
                      for r in (Rational(3, 5), s)]
    got, expect = _both(monkeypatch, point, calls)
    assert len(got) == 9840
    assert sum(map(_raised, expect)) > 0  # the sweep reaches vanishing denominators
    assert got == expect


# q^a t^b = 1 for a small (a, b): outside the window of any validated point
DEGENERATE_POINTS = [(Rational(1, 2), Rational(4)), (Rational(1, 2), Rational(2)),
                     (Rational(1, 3), Rational(9)), (Rational(2, 3), Rational(3, 2)),
                     (Rational(1, 2), Rational(1, 4))]


@pytest.mark.parametrize("qt", DEGENERATE_POINTS, ids=lambda qt: f"{qt[0]},{qt[1]}")
def test_outside_the_window_no_error_becomes_a_value(monkeypatch, qt):
    """Where the reference raises, the strip sum raises too (the message may
    name another vanishing factor, met first in the new order); where both
    return a value, it is the same value."""
    point = QtPoint(*qt, n=0, max_part=0)
    lams = enumerate_sub((3, 3, 2))
    calls = [lambda m, k=kind, s=s, lam=lam, mu=mu: w_principal(k, mu, lam, m, s)
             for kind, s in (("s_up", None), ("s_down", None), ("ab", Rational(7, 13)))
             for lam in lams for mu in lams]
    got, expect = _both(monkeypatch, point, calls)
    for g, e in zip(got, expect):
        assert _raised(g) if _raised(e) else (_raised(g) or g == e), (g, e)


def test_a_strip_whose_inner_value_is_0_stores_no_skew_value(monkeypatch):
    """W_(1,0,0) at q^0 t^delta peels the strip nu = (1,0,0), whose inner
    value W_(1,0,0)(t, 1) is 0: its skew value is never computed, but its
    strip factor is, as the skipped skew value would have."""
    lam = nu = (1, 0, 0)
    z = tuple(Mono(UNIT, 0, b) for b in (2, 1, 0))  # q^0 t^delta, as w_principal builds it
    skew_key = ("skew", "s_up", lam, nu, z[0].peeled(2), None)
    mode = QtPoint(Rational(2, 7), Rational(5, 11)).mode
    assert w_principal("s_up", lam, (0, 0, 0), mode) == 0
    assert wcore.w_multi("s_up", nu, (0, 0, 0), z[1:], mode) == 0
    assert skew_key not in mode.cache and ("h", lam, nu) in mode.cache
    ref = QtPoint(Rational(2, 7), Rational(5, 11)).mode
    monkeypatch.setattr(wcore, "_w_multi", _skew_first_w_multi)
    assert w_principal("s_up", lam, (0, 0, 0), ref) == 0
    assert skew_key in ref.cache


def test_a_value_without_strips_is_0_whatever_its_divisors(monkeypatch):
    """s = (3/5)/q makes the first factor of (s q / z_1)_lam vanish: the
    value raises once a strip exists, and is 0, as before, when mu is not
    contained in lam and no strip enters."""
    z, s = (Rational(3, 5), Rational(1, 7)), Mono(Rational(3, 5), -1, 0)
    cases = [((1, 0), (0, 0)), ((1, 0), (2, 0))]
    calls = [lambda m, lam=lam, mu=mu: wcore.w_multi("ab", lam, mu, z, m, s) for lam, mu in cases]
    got, expect = _both(monkeypatch, QtPoint(Rational(2, 7), Rational(5, 11)), calls)
    assert got == expect == [
        (wcore.DegenerateParameters, r"vanishing denominator in auxiliary product of W^ab"), 0]

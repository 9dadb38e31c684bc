"""qt-binomial coefficients, brackets and their closed forms."""

import random

import pytest

from qtspecials.binomial import (
    binom_e1,
    binom_rect_lower,
    binom_rect_upper,
    gaussian_binomial,
    qt_binomial,
    qt_bracket,
    qt_bracket_shifted,
    v_coeff,
)
from qtspecials.errors import NotAPartition
from qtspecials.identities import random_qt_point
from qtspecials.partitions import contains, enumerate_sub, zeros
from qtspecials.scalars import Rational
from qtspecials.wcore import AtPoint, QtPoint


def test_endpoint_values(mode):
    for lam in enumerate_sub((3, 2)):
        assert qt_binomial(lam, zeros(2), mode) == 1
        assert qt_binomial(lam, lam, mode) == 1


def test_vanishing(mode):
    box = enumerate_sub((2, 2, 1))
    for lam in box:
        for mu in box:
            if not contains(lam, mu):
                assert qt_binomial(lam, mu, mode) == 0
    # generalized lower index with a negative part
    assert qt_binomial((2, 1), (1, -1), mode) == 0
    assert qt_binomial((2, 0), (0, -2), mode) == 0


@pytest.mark.parametrize("lam,mu", [((3, 1), (0, 1)), ((2, 2, 1), (1, 0, 1)), ((2, 1), (-1, 0))])
def test_lower_index_that_is_not_decreasing_raises(mode, lam, mu):
    with pytest.raises(NotAPartition, match="not weakly decreasing"):
        qt_binomial(lam, mu, mode)
    with pytest.raises(NotAPartition):  # a raising call stores nothing
        qt_binomial(lam, mu, mode)


@pytest.mark.parametrize("lam,mu", [((1, 2), (1, 1)), ((2, -1), (0, -1)), ((0, 1), (0, 0))])
def test_upper_index_that_is_not_a_partition_raises(lam, mu):
    mode = AtPoint(QtPoint(Rational(2, 7), Rational(5, 11)))
    for fn in (qt_binomial, v_coeff):
        with pytest.raises(NotAPartition):
            fn(lam, mu, mode)


def test_one_dimensional_gaussian_reduction():
    # exact, and independent of t
    for t in (Rational(3, 5), Rational(7, 4)):
        m = AtPoint(QtPoint(Rational(2, 7), t, n=1, max_part=9))
        for mm in range(9):
            for k in range(mm + 1):
                assert qt_binomial((mm,), (k,), m) == gaussian_binomial(mm, k, m)


def test_rect_lower_worked_value():
    m = AtPoint(QtPoint(Rational(1, 2), Rational(1, 3)))
    assert binom_rect_lower((2, 1), 1, m) == Rational(11, 10)
    assert binom_rect_lower((2, 1), 0, m) == 1


def test_closed_forms_match_recurrence():
    rng = random.Random(2)
    for n in (1, 2, 3):
        point = random_qt_point(rng, n, max_part=5)
        m = AtPoint(point)
        box = (3,) * n
        for lam in enumerate_sub(box):
            for k in range(4):
                assert binom_rect_lower(lam, k, m) == qt_binomial(lam, (k,) * n, m)
            assert binom_e1(lam, m) == qt_binomial(lam, (1,) + (0,) * (n - 1), m)
        for k in range(4):
            for mu in enumerate_sub((k,) * n):
                assert binom_rect_upper(k, mu, m) == qt_binomial((k,) * n, mu, m)


def test_rect_upper_vanishes_outside_box(mode):
    # mu_1 > k forces a zero factor in the closed product, matching the
    # general coefficient
    assert binom_rect_upper(1, (2, 0), mode) == 0
    assert qt_binomial((1, 1), (2, 0), mode) == 0


def test_e1_sum_form(mode):
    q, t = mode.q, mode.t
    assert binom_e1((2, 1), mode) == (1 + q) + t ** -1
    assert binom_e1(zeros(3), mode) == 0
    assert binom_e1((4,), mode) == gaussian_binomial(4, 1, mode)


def test_q_number(mode):
    """[m]_q is the one-part bracket, the geometric sum of q^k for k < m."""
    for m in (0, 1, 5):
        assert qt_bracket((m,), mode) == sum((mode.qpow(k) for k in range(m)), mode.zero)


def test_qt_bracket(unit_mode):
    m = unit_mode
    assert qt_bracket((1, 1, 1), m) == 1
    assert qt_bracket((4,), m) == sum(m.qpow(k) for k in range(4))
    m2 = AtPoint(QtPoint(Rational(1, 2), Rational(1, 3)))
    assert qt_bracket((2, 1), m2) == Rational(11, 10)


def test_bracket_shifted_trivial_and_ones(mode):
    Q = Rational(5, 8)
    assert qt_bracket_shifted(Q, zeros(3), mode) == 1
    n = 3
    expect = mode.one
    for i in range(1, n + 1):
        expect = expect * (1 - Q * mode.tpow(n - i)) / (1 - mode.q * mode.tpow(n - i))
    assert qt_bracket_shifted(Q, (1, 1, 1), mode) == expect


def test_bracket_shifted_rectangular(mode):
    # q^{n C(k,2)} prod_i (q^{1-k} Q t^{n-i}; q)_k / (1 - q t^{n-i})^k
    from qtspecials.wcore import poch

    Q = Rational(5, 8)
    n, k = 2, 3
    expect = mode.qpow(n * (k * (k - 1) // 2))
    for i in range(1, n + 1):
        expect = expect * poch(mode.qpow(1 - k) * Q * mode.tpow(n - i), k, mode)
        expect = expect / (1 - mode.q * mode.tpow(n - i)) ** k
    assert qt_bracket_shifted(Q, (k,) * n, mode) == expect


def test_bracket_shifted_agrees_with_bracket_on_principal_values(mode):
    # at Q = q^x the k=1 rectangle reproduces the plain bracket of x^n
    for x in (2, 3):
        Q = mode.qpow(x)
        assert qt_bracket_shifted(Q, (1, 1), mode) == qt_bracket((x, x), mode)


def test_empty_partition_values_are_empty_products(mode):
    from qtspecials.specials import fibonacci, stirling
    from qtspecials.wcore import w_multi, w_principal

    assert qt_binomial((), (), mode) == 1
    assert fibonacci((), mode) == 1
    for kind in ("first", "second"):
        assert stirling(kind, (), (), mode) == 1
    for kind, s in (("s_up", None), ("s_down", None), ("ab", Rational(3, 4))):
        assert w_principal(kind, (), (), mode, s) == 1
        # no variable: 1 at lam = mu, else 0
        assert w_multi(kind, (1, 0), (1, 0), (), mode, s) == 1
        assert w_multi(kind, (1, 0), (0, 0), (), mode, s) == 0

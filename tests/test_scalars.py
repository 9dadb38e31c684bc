"""Exact rationals, polynomials in q, and limits at q = 1."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtspecials
from qtspecials import scalars
from qtspecials.errors import PoleAtOne
from qtspecials.scalars import (
    RatFuncQ,
    Rational,
    UniPoly,
    as_rational,
    format_rational,
    limit_at_one,
    parse_rational,
)

Q = RatFuncQ.generator()


def test_rational_arithmetic_examples():
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)
    x = Rational(7, 11)
    assert x * 1 == x
    assert Rational(2, 4) == Rational(1, 2)


def test_rational_normalization_invariants():
    x = Rational(-6, -4)
    assert x.numerator == 3 and x.denominator == 2
    y = Rational(6, -4)
    assert y.numerator == -3 and y.denominator == 2
    assert Rational(0, 5) == 0 and Rational(0, 5).denominator == 1


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 2) / Rational(0)


@pytest.mark.parametrize("text,num,den", [
    ("3/7", 3, 7), ("-2", -2, 1), ("0", 0, 1), (" 5/10 ", 1, 2),
])
def test_parse_rational(text, num, den):
    v = parse_rational(text)
    assert v.numerator == num and v.denominator == den


@pytest.mark.parametrize("bad", ["3/0", "1.5", "a/b", "1/2/3", ""])
def test_parse_rational_rejects(bad):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_rational(bad)


def test_format_rational_always_carries_denominator():
    assert format_rational(Rational(0)) == "0/1"
    assert format_rational(Rational(3)) == "3/1"
    assert format_rational(Rational(-3, 7)) == "-3/7"


# Values past Python's default 4300-digit int<->str limit, on whichever
# backend is active.  Expected strings are built without int->str.
BIG_K = (4301, 9999, 10_000, 12_345)


@pytest.mark.parametrize("k", BIG_K)
@pytest.mark.parametrize("sign", [1, -1])
def test_format_rational_past_digit_limit(k, sign):
    minus = "-" if sign < 0 else ""
    cases = [
        (Rational(sign * 10 ** k), f"{minus}1{'0' * k}/1"),
        (Rational(sign * (10 ** k - 1)), f"{minus}{'9' * k}/1"),
        (Rational(sign * 7, 10 ** k), f"{minus}7/1{'0' * k}"),
        (Rational(sign * 2, 10 ** k - 1), f"{minus}2/{'9' * k}"),
        (Rational(sign * (10 ** k - 1), 10 ** k),
         f"{minus}{'9' * k}/1{'0' * k}"),
    ]
    for x, expected in cases:
        assert format_rational(x) == expected
        assert parse_rational(expected) == x


@pytest.mark.parametrize("k", BIG_K)
def test_parse_rational_round_trips_past_digit_limit(k):
    rng = random.Random(k)
    for _ in range(3):
        num = rng.randrange(10 ** (k - 1), 10 ** k) * rng.choice([1, -1])
        den = rng.randrange(1, 10 ** (k // 2 + 1))
        x = Rational(num, den)
        assert parse_rational(format_rational(x)) == x
    assert parse_rational(f"+{'0' * k}5/{'0' * k}10") == Rational(1, 2)
    with pytest.raises(ZeroDivisionError):
        parse_rational(f"1/{'0' * k}")


@pytest.mark.parametrize("limit", [None, "640"])
def test_big_rationals_leave_digit_limit_alone(limit):
    # A fresh interpreter, so the limit is read before qtspecials is imported;
    # 640 is the lowest limit PYTHONINTMAXSTRDIGITS can set.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int<->str digit limit")
    script = (
        "import sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "from qtspecials.scalars import Rational, format_rational, parse_rational\n"
        "for k in (1000, 10_000):\n"
        "    x = Rational(10 ** k - 1, 10 ** (k + 1))\n"
        "    assert format_rational(x) == '9' * k + '/1' + '0' * (k + 1)\n"
        "    assert parse_rational(format_rational(x)) == x\n"
        "print(before, sys.get_int_max_str_digits())\n"
    )
    src = os.path.dirname(os.path.dirname(qtspecials.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    before, after = out.split()
    assert before == after == (limit or "4300")


def test_unipoly_basics():
    p = UniPoly([1, 2, 3])  # 1 + 2q + 3q^2
    assert p.degree == 2
    assert p(2) == 1 + 4 + 12
    assert (p - p).is_zero()
    assert UniPoly([0, 0]).is_zero()
    q2 = UniPoly.monomial(1, 2)
    assert (p * q2).valuation() == 2


def test_ratfunc_cancellation_example():
    one_minus_q = RatFuncQ(UniPoly([1, -1]))
    f = one_minus_q / RatFuncQ.from_rational(1)
    g = RatFuncQ.from_rational(1) / one_minus_q
    assert f * g == 1


def test_ratfunc_add_zero():
    f = (1 - Q ** 2) / (1 - Q)
    assert f + 0 == f


def test_ratfunc_evaluation():
    f = (1 - Q ** 2) / (1 - Q)
    assert f(3) == 4  # (1-9)/(1-3)


def test_limit_examples():
    assert limit_at_one((1 - Q ** 2) / (1 - Q)) == 2
    for a in range(1, 51):
        assert limit_at_one((1 - Q ** a) / (1 - Q)) == a


def test_limit_double_cancellation():
    f = ((1 - Q ** 3) * (1 - Q)) / ((1 - Q) * (1 - Q ** 2))
    assert limit_at_one(f) == Rational(3, 2)
    # numeric oracle: evaluate just off the singular point
    q0 = 1 - Rational(1, 10 ** 6)
    assert abs(f(q0) - Rational(3, 2)) < Rational(1, 10 ** 5)


def test_limit_pole():
    with pytest.raises(PoleAtOne):
        limit_at_one(RatFuncQ.from_rational(1) / (1 - Q))


def test_limit_passthrough_for_rationals():
    assert limit_at_one(Rational(5, 3)) == Rational(5, 3)


small_rationals = st.builds(
    Rational,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=30),
)


@given(
    st.lists(small_rationals, max_size=4),
    st.lists(small_rationals, max_size=4),
    small_rationals,
)
@settings(max_examples=60, deadline=None)
def test_arithmetic_commutes_with_evaluation(cs1, cs2, q0):
    f = RatFuncQ(UniPoly(cs1), UniPoly([1, 1]))  # denominator 1 + q
    g = RatFuncQ(UniPoly(cs2), UniPoly([2, 0, 1]))  # 2 + q^2
    if q0 == -1:
        return
    assert (f + g)(q0) == f(q0) + g(q0)
    assert (f - g)(q0) == f(q0) - g(q0)
    assert (f * g)(q0) == f(q0) * g(q0)
    if g(q0) != 0 and not g.is_zero():
        assert (f / g)(q0) == f(q0) / g(q0)


def test_factor_product_round_trip():
    # building a product of (1 - c q^j) formally matches direct evaluation
    rng = random.Random(5)
    factors = [(Rational(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(0, 4))
               for _ in range(6)]
    f = RatFuncQ.from_rational(1)
    for c, j in factors:
        f = f * (1 - RatFuncQ.from_rational(c) * Q ** j)
    for _ in range(10):
        q0 = Rational(rng.randint(1, 50), rng.randint(1, 50))
        direct = Rational(1)
        for c, j in factors:
            direct *= 1 - c * q0 ** j
        assert f(q0) == direct


def test_ratfunc_pow_negative():
    f = (1 - Q) / (2 + Q)
    assert f ** -2 == (f ** 2) ** -1
    assert f ** 0 == 1


# ---------------------------------------------------------------------------
# The integer kernel against a list-of-Fraction reference retyped here
# ---------------------------------------------------------------------------

def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _ref_trim(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_eval(a, x):
    return sum((c * x ** k for k, c in enumerate(a)), Fraction(0))


def _ref_div_linear(a, r):
    """Long division of a by (q - r), highest power first: (quotient, remainder)."""
    rem, quot = list(a), [Fraction(0)] * max(len(a) - 1, 0)
    for k in range(len(a) - 1, 0, -1):
        quot[k - 1] = rem[k]
        rem[k - 1] += r * rem[k]
        rem[k] = Fraction(0)
    return _ref_trim(quot), (rem[0] if rem else Fraction(0))


def _ref_ratfunc(num, den):
    """Normal form: common power of q stripped, monic denominator."""
    num, den = _ref_trim(num), _ref_trim(den)
    if not num:
        return [], [Fraction(1)]
    v = min(next(k for k, c in enumerate(p) if c) for p in (num, den))
    num, den = num[v:], den[v:]
    lc = den[-1]
    return [c / lc for c in num], [c / lc for c in den]


def _frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _coeffs(p):
    return [_frac(c) for c in p.coeffs]


def _assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.ints)
    assert math.gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0


def _assert_normal(f):
    _assert_canonical(f.num)
    _assert_canonical(f.den)
    assert f.den.ints[-1] == f.den.den  # monic
    assert f.num.is_zero() or min(f.num.valuation(), f.den.valuation()) == 0
    if f.num.is_zero():
        assert f.den.ints == (1,) and f.den.den == 1


# numerators and denominators drawn apart, so the common denominators differ
coefficients = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10, 35, 2 ** 70 + 1]),
)
polys = st.lists(coefficients, max_size=7)  # includes zero, constants, trailing zeros
points = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                   st.integers(min_value=1, max_value=9))


@given(polys, polys, coefficients, points)
@settings(max_examples=300, deadline=None)
def test_unipoly_kernel_matches_fraction_reference(a, b, c, x):
    pa, pb = UniPoly(a), UniPoly(b)
    ra, rb = _ref_trim(a), _ref_trim(b)
    cases = [
        (pa, ra),
        (pa + pb, _ref_add(ra, rb)),
        (pa - pb, _ref_add(ra, [-y for y in rb])),
        (-pa, [-y for y in ra]),
        (pa * pb, _ref_mul(ra, rb)),
        (UniPoly.monomial(c, 3), _ref_trim([0, 0, 0, c])),
        (UniPoly.monomial(c, 0), _ref_trim([c])),
    ]
    for p, ref in cases:
        _assert_canonical(p)
        assert _coeffs(p) == ref
        assert p.degree == len(ref) - 1
        assert _frac(p(1)) == _ref_eval(ref, Fraction(1))
        assert _frac(p(x)) == _ref_eval(ref, x)
        assert (p == UniPoly(ref)) and hash(p) == hash(UniPoly(ref))
    k = next((k for k, y in enumerate(ra) if y), 0)
    assert pa.valuation() == k
    assert _coeffs(pa.shift_down(k)) == ra[k:]


# Products on both sides of the Kronecker cutoff: operand lengths from one
# term to 200, signed coefficients up to 2^300, interior zeros, sparse
# operands and per-coefficient denominators.
CUT = scalars._KRONECKER_MIN
BIG = 2 ** 300
big_ints = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-BIG, BIG))
lengths = st.one_of(st.sampled_from([1, 2, CUT - 1, CUT, CUT + 1, CUT + 2]), st.integers(1, 200))


@st.composite
def long_polys(draw):
    """A Fraction list of a drawn length with a nonzero leading coefficient:
    dense, or with one or two terms."""
    n = draw(lengths)
    if draw(st.booleans()):
        ints = draw(st.lists(big_ints, min_size=n, max_size=n))
    else:
        ints = [0] * n
        ints[draw(st.integers(0, n - 1))] = draw(big_ints)
    ints[-1] = ints[-1] or draw(st.integers(-BIG, BIG).filter(bool))
    return [Fraction(c, draw(st.sampled_from([1, 1, 3, 10, 2 ** 70 + 1]))) for c in ints]


@given(long_polys(), long_polys())
@settings(max_examples=100, deadline=None, derandomize=True)
@example([Fraction(BIG)] * 200, [Fraction(BIG)] * 200)  # every slot at its largest
@example([Fraction(-BIG)] * 200, [Fraction(BIG)] * (CUT + 1))
@example([Fraction(BIG), Fraction(-BIG)] * 100, [Fraction(-1)] * (CUT + 1))
@example([Fraction(0)] * (CUT + 1) + [Fraction(1)], [Fraction(1, 3)] * (CUT + 1))
def test_products_on_both_sides_of_the_cutoff_match_fraction_reference(a, b):
    ref = _ref_mul(a, b)
    for p in (UniPoly(a) * UniPoly(b), UniPoly(b) * UniPoly(a)):
        _assert_canonical(p)
        assert _coeffs(p) == ref


@given(polys, polys, coefficients.filter(bool), st.sampled_from([2, 3, 10, 2 ** 70 + 1]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_products_with_a_constant_match_fraction_reference(a, b, c, d):
    ra = _ref_trim(a)
    pa = UniPoly(a)
    for k in (1, -1, c, -c, Fraction(1, d), Fraction(-7, d), 0):
        ref = _ref_mul(ra, _ref_trim([Fraction(k)]))
        for p in (pa * UniPoly([k]), UniPoly([k]) * pa):
            _assert_canonical(p)
            assert _coeffs(p) == ref, k
    # two polynomials: 1 times 1 stays the canonical denominator
    h = RatFuncQ(pa) * RatFuncQ(UniPoly(b))
    _assert_normal(h)
    assert (h.den.ints, h.den.den) == ((1,), 1)
    assert _coeffs(h.num) == _ref_mul(ra, _ref_trim(b))


def test_product_by_one_does_no_arithmetic(monkeypatch):
    one, zero = UniPoly([1]), UniPoly()
    ps = [UniPoly([Fraction(1, 3), 0, -2]), UniPoly.monomial(5, 4), UniPoly([2 ** 70 + 1] * 40)]

    def no_of(cls, ints, den=1):
        raise AssertionError("a product by 1 or 0 built a polynomial")

    monkeypatch.setattr(UniPoly, "_of", classmethod(no_of))
    for p in ps:
        assert p * one == p and one * p == p
        assert p * zero == zero and zero * p == zero


def _div_linear(p, root):
    """p / (q - root) by one exact ``_div_root``: b s over p's denominator."""
    k, s, rem = scalars._div_root(p.ints, root, 1)
    assert (k, rem) == (1, 0)
    return UniPoly._of([root.denominator * c for c in reversed(s)], p.den)


@given(polys, points)
@settings(max_examples=200, deadline=None)
def test_div_root_matches_long_division(a, r):
    if not _ref_trim(a):
        a = [Fraction(1)]  # _div_root takes a nonzero polynomial
    for root in (Fraction(1), r):
        p = UniPoly(a) * UniPoly([-root, 1])  # vanishes at root
        ref = _ref_mul(_ref_trim(a), [-root, Fraction(1)])
        assert _ref_div_linear(ref, root) == (_ref_trim(a), 0)
        quot = _div_linear(p, root)
        _assert_canonical(quot)
        assert _coeffs(quot) == _ref_trim(a)
        # p + 1 leaves remainder 1: a broken invariant, not an input error
        assert _ref_div_linear(_ref_add(ref, [Fraction(1)]), root)[1] == 1
        with pytest.raises(ArithmeticError, match="does not vanish") as err:
            _div_linear(p + UniPoly([1]), root)
        assert not isinstance(err.value, ValueError)
        # an arbitrary polynomial divides exactly iff the reference remainder is 0
        ref_quot, rem = _ref_div_linear(_ref_trim(a), root)
        if rem:
            with pytest.raises(ArithmeticError):
                _div_linear(UniPoly(a), root)
            assert scalars._div_root(UniPoly(a).ints, root)[0] == 0
        else:
            assert _coeffs(_div_linear(UniPoly(a), root)) == ref_quot


def test_div_root_sees_a_remainder_before_the_last_step():
    # 3q - 1 at q = 1/2: 3 = 2*1 + 1 leaves a remainder, then -1 + 1*1 == 0
    with pytest.raises(ArithmeticError, match="does not vanish"):
        scalars._div_root((-1, 3), Rational(1, 2), 1)
    assert scalars._div_root((-1, 3), Rational(1, 2))[0] == 0


@given(polys, polys, st.integers(0, 3), st.integers(0, 3), points)
@settings(max_examples=200, deadline=None)
def test_cancel_at_and_limit_match_fraction_reference(a, b, i, j, r):
    b = b if _ref_trim(b) else [Fraction(1)]
    for root in (Fraction(1), r):
        lin = [-root, Fraction(1)]
        num, den = _ref_trim(a), _ref_trim(b)
        for _ in range(i):
            num = _ref_mul(num, lin)
        for _ in range(j):
            den = _ref_mul(den, lin)
        f = RatFuncQ(UniPoly(num), UniPoly(den))
        _assert_normal(f)
        assert [_coeffs(f.num), _coeffs(f.den)] == list(_ref_ratfunc(num, den))
        # reference cancellation: divide both while both vanish at root
        num, den = _ref_ratfunc(num, den)
        while _ref_eval(num, root) == 0 and _ref_eval(den, root) == 0:
            num, den = _ref_div_linear(num, root)[0], _ref_div_linear(den, root)[0]
        num, den = _ref_ratfunc(num, den)
        g = f.cancel_at(root)
        _assert_normal(g)
        assert [_coeffs(g.num), _coeffs(g.den)] == [num, den]
        if root != 1:
            continue
        d1 = _ref_eval(den, root)
        if d1 == 0:
            with pytest.raises(PoleAtOne):
                limit_at_one(f)
        else:
            assert _frac(limit_at_one(f)) == _ref_eval(num, root) / d1


# ---------------------------------------------------------------------------
# The limit on the coefficient ints against cancel-then-evaluate
# ---------------------------------------------------------------------------

BIG_PRIME = 2 ** 61 - 1  # no drawn coefficient has this factor


def _q_minus_one_to(k):
    return [Fraction(math.comb(k, i) * (-1) ** (k - i)) for i in range(k + 1)]


def _nonvanishing_at_one(cs):
    cs = _ref_trim(cs) or [Fraction(1)]
    if _ref_eval(cs, Fraction(1)) == 0:
        cs[0] += 1
    return cs


def _ref_limit(num, den):
    """The limit at 1 of num / den, Fraction lists: strip (q - 1) by long
    division while it divides, then compare orders; None for a pole."""
    orders, values = [], []
    for p in (num, den):
        k = 0
        while _ref_eval(p, Fraction(1)) == 0:
            p, k = _ref_div_linear(p, Fraction(1))[0], k + 1
        orders.append(k)
        values.append(_ref_eval(p, Fraction(1)))
    if orders[0] < orders[1]:
        return None
    return Fraction(0) if orders[0] > orders[1] else values[0] / values[1]


def _check_limit(f):
    """limit_at_one(f) against cancel_at(1) then evaluation, and against
    the Fraction reference."""
    g = f.cancel_at(1)
    ref = _ref_limit(_coeffs(f.num), _coeffs(f.den))
    if ref is None:
        assert g.den(1) == 0
        with pytest.raises(PoleAtOne):
            limit_at_one(f)
        return
    lim = limit_at_one(f)
    assert lim == g.num(1) / g.den(1)
    assert _frac(lim) == ref


# (lower, higher) orders of (q - 1), both at most 80
order_pairs = st.integers(0, 79).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 80)))


@pytest.mark.parametrize("case", ["equal", "num_higher", "den_higher"])
@given(polys, polys, order_pairs)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_limit_on_the_ints_matches_cancel_then_evaluate(case, a, b, orders):
    lo, hi = orders
    i, j = {"equal": (lo, lo), "num_higher": (hi, lo), "den_higher": (lo, hi)}[case]
    a, b = _nonvanishing_at_one(a), _nonvanishing_at_one(b)
    # (BIG_PRIME q + 1) in den: neither normal-form denominator is 1
    num = _ref_mul(a, _q_minus_one_to(i))
    den = _ref_mul(_ref_mul(b, [Fraction(1), Fraction(BIG_PRIME)]), _q_minus_one_to(j))
    f = RatFuncQ(UniPoly(num), UniPoly(den))
    assert f.num.den != 1 and f.den.den != 1
    _check_limit(f)
    if case == "den_higher":
        return
    expect = _ref_eval(a, Fraction(1)) / (_ref_eval(b, Fraction(1)) * (BIG_PRIME + 1))
    assert _frac(limit_at_one(f)) == (expect if i == j else 0)


def _formal_limit_values():
    """The formal values whose limits the Stirling tables below (2, 2, 1)
    and the alpha-limits below (2, 2) take."""
    from qtspecials.partitions import enumerate_sub
    from qtspecials.specials import u_coeff, v_coeff
    from qtspecials.wcore import FormalQ

    inner = FormalQ(Rational(5, 3))  # (1/q, 1/t0) at t0 = 3/5
    for nu in enumerate_sub((2, 2, 1)):
        for lam in enumerate_sub(nu):
            yield u_coeff(nu, lam, inner)
            yield v_coeff(nu, lam, inner)
    yield from _alpha_values()


def _alpha_values():
    """bernoulli and catalan with t = q^alpha below (2, 2), alpha 1 and 2:
    the largest formal values of the limits workload."""
    from qtspecials.partitions import enumerate_sub
    from qtspecials.specials import bernoulli, catalan
    from qtspecials.wcore import FormalQ

    for alpha in (1, 2):
        mode = FormalQ.alpha(alpha)
        for lam in enumerate_sub((2, 2)):
            yield bernoulli(lam, mode)
            if lam[-1] > 0:
                yield catalan(lam, mode)


def test_limit_on_the_ints_matches_on_workload_values():
    values = [f for f in _formal_limit_values() if isinstance(f, RatFuncQ)]
    assert len(values) >= 90
    assert max(f.den.degree for f in values) >= 150
    for f in values:
        _check_limit(f)


# ---------------------------------------------------------------------------
# Rational operands of * and == against the lifted operand
# ---------------------------------------------------------------------------

def _parts(f):
    return f.num.ints, f.num.den, f.den.ints, f.den.den


@given(polys, polys, st.integers(-9, 9))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rational_operands_give_the_normal_form_of_the_lifted_operand(a, b, x):
    p = UniPoly(b) if _ref_trim(b) else UniPoly([2, 1])
    k = Rational(x, 7)
    f = RatFuncQ(UniPoly(a), p)
    constant = RatFuncQ(p * UniPoly([k]), p)  # k, with the common factor kept
    big = [Rational(3 ** 200, 2 ** 150 + 1), Rational(-(2 ** 300 + 1), 3 ** 90)]
    for g, value in ((f, f(3) if p(3) != 0 else k), (constant, k), (f - f, Rational(0))):
        for c in [0, 1, -1, Rational(0), Rational(-1), value, k] + big:
            lifted = RatFuncQ.from_rational(c)
            expect = _parts(g * lifted)
            assert _parts(g * c) == expect and _parts(c * g) == expect, c
            _assert_normal(g * c)
            assert (g == c) == (g == lifted) and (g != c) == (g != lifted), c
    assert constant == k and constant != k + 1 and f - f == 0


@given(polys, polys, polys, polys, st.integers(0, 3), st.integers(0, 3), coefficients)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_ratfunc_product_is_the_constructor_normal_form(a, b, c, d, i, j, k):
    b = b if _ref_trim(b) else [Fraction(2), Fraction(1)]
    d = d if _ref_trim(d) else [Fraction(1), Fraction(0), Fraction(3)]
    f = RatFuncQ(UniPoly(a) * UniPoly.monomial(1, i), UniPoly(b))  # q^i a / b
    g = RatFuncQ(UniPoly(c), UniPoly(d) * UniPoly.monomial(1, j))  # c / (q^j d)
    operands = [f, g, f - f, Rational(k.numerator, k.denominator), 0, 3]
    for x in operands[:3]:
        for y in operands:
            ly = y if isinstance(y, RatFuncQ) else RatFuncQ.from_rational(y)
            expect = _parts(RatFuncQ(x.num * ly.num, x.den * ly.den))
            for h in (x * y, y * x):
                assert _parts(h) == expect
                _assert_normal(h)


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_ratfunc_arithmetic_keeps_normal_form(a, b):
    f = RatFuncQ(UniPoly(a), UniPoly([1, 2]))
    g = RatFuncQ(UniPoly(b), UniPoly([Fraction(1, 3), 0, 5]))
    results = [f + g, f - g, f * g, f ** 2, -f, f + 0]
    if not g.is_zero():
        results += [f / g, g ** -1]
    for h in results:
        _assert_normal(h)


def test_unipoly_coeffs_is_a_read_only_view():
    p = UniPoly([Fraction(1, 2), 0, Fraction(-3, 4)])
    assert (p.ints, p.den) == ((2, 0, -3), 4)
    assert p.coeffs == (Rational(1, 2), Rational(0), Rational(-3, 4))
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_ratfunc_compares_with_zero_without_multiplying(monkeypatch):
    f = (1 - Q ** 2) / (1 - Q)
    zero = f - f

    def no_mul(self, other):
        raise AssertionError("zero test multiplied polynomials")

    monkeypatch.setattr(UniPoly, "__mul__", no_mul)
    assert not f == 0 and not 0 == f and f != 0
    assert zero == 0 and 0 == zero and zero == zero
    assert not f == zero and not zero == f
    assert zero == RatFuncQ.from_rational(0)


def _sympy_poly(p, q):
    import sympy

    return sum((sympy.Rational(int(c.numerator), int(c.denominator)) * q ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def _workload_values():
    from qtspecials.binomial import qt_binomial
    from qtspecials.partitions import enumerate_sub
    from qtspecials.specials import u_coeff, v_coeff
    from qtspecials.wcore import FormalQ

    inner = FormalQ(Rational(5, 3))
    for lam in ((2, 1, 1), (2, 2, 1)):  # inner Stirling limits at t0 = 3/5
        for mu in enumerate_sub(lam):
            yield u_coeff(lam, mu, inner)
            yield v_coeff(lam, mu, inner)
    for alpha in (1, 2):  # alpha-binomials below (2, 2)
        for lam in enumerate_sub((2, 2)):
            for mu in enumerate_sub(lam):
                yield qt_binomial(lam, mu, FormalQ.alpha(alpha))
    yield from _alpha_values()


def test_limits_match_sympy_on_workload_values():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    seen = []
    for f in _workload_values():
        if not isinstance(f, RatFuncQ) or f.is_zero():
            continue
        expected = sympy.cancel(_sympy_poly(f.num, q) / _sympy_poly(f.den, q)).subs(q, 1)
        lim = limit_at_one(f)
        assert sympy.Rational(int(lim.numerator), int(lim.denominator)) == expected
        seen.append(f.den.degree)
    assert len(seen) >= 90 and max(seen) >= 150

"""Pochhammer products, the strip factor and the W family."""

import random
import sys
import weakref
from fractions import Fraction

import pytest

from qtspecials import wcore
from qtspecials.binomial import pair_ratio as binomial_pair_ratio
from qtspecials.errors import (DegenerateParameters, InvalidArgument, LengthMismatch,
                               NotAPartition, NotAStrip, QtError)
from qtspecials.partitions import (
    bump,
    contains,
    enumerate_strips,
    enumerate_sub,
    is_horizontal_strip,
    n_prime_stat,
    n_stat,
    weight,
    zeros,
)
from qtspecials.scalars import RatFuncQ, Rational, backend_name, limit_at_one
from qtspecials.wcore import (
    AtPoint,
    FormalQ,
    QtPoint,
    h_factor,
    pair_ratio,
    poch,
    poch_partition,
    pochm,
    w_multi,
    w_principal,
    w_rectangular,
    w_skew,
)

from self_values import wsdown_self, wsup_self


def test_qtpoint_rejects_degenerate():
    with pytest.raises(DegenerateParameters):
        QtPoint(Rational(1), Rational(1, 3))
    with pytest.raises(DegenerateParameters):
        QtPoint(Rational(1, 2), Rational(0))
    # q^2 t = 1 at (1/2, 4)
    with pytest.raises(DegenerateParameters):
        QtPoint(Rational(1, 2), Rational(4), n=2, max_part=2)


def test_qtpoint_is_an_immutable_value():
    """QtPoint is a plain class: it keeps the construction, equality, hash and
    immutability of the frozen record it replaced."""
    point = QtPoint(Rational(2, 7), Rational(3, 5))
    assert (point.q, point.t, point.n, point.max_part) == (Rational(2, 7), Rational(3, 5), 4, 8)
    same = QtPoint(q=Rational(2, 7), t=Rational(3, 5), n=4, max_part=8)
    assert same == point and hash(same) == hash(point)
    assert QtPoint(Rational(2, 7), Rational(3, 5), 3, 8) != point
    assert QtPoint(2, "3/5").t == Rational(3, 5)  # scalars pass through as_rational
    with pytest.raises(AttributeError):
        point.q = Rational(1, 2)
    with pytest.raises(AttributeError):
        del point.t
    assert point.q == Rational(2, 7)
    assert point.mode is point.mode
    with pytest.raises(DegenerateParameters):
        QtPoint(q=Rational(1, 2), t=Rational(4), n=2, max_part=2)


def test_poch_basics(mode):
    a = Rational(5, 9)
    assert poch(a, 0, mode) == 1
    assert poch(a, 2, mode) == (1 - a) * (1 - a * mode.q)
    # negative order inverts a shifted product
    assert poch(a, -1, mode) * poch(a * mode.q ** -1, 1, mode) == 1


def test_poch_partition(mode):
    a = Rational(5, 9)
    assert poch_partition(a, (0, 0, 0), mode) == 1
    # single row reduces to the plain product
    assert poch_partition(a, (3,), mode) == poch(a, 3, mode)


def test_poch_partition_worked_value():
    point = QtPoint(Rational(2), Rational(3), n=2, max_part=4)
    m = AtPoint(point)
    # (1 - a)(1 - a/t) at a=5, t=3
    assert poch_partition(Rational(5), (1, 1), m) == Rational(8, 3)


def _h_oracle(lam, mu, mode):
    """Direct re-typed transcription of the strip-factor product."""
    q, t = mode.q, mode.t

    def pp(a, m):
        out = mode.one
        for k in range(m):
            out = out * (1 - a * q ** k)
        return out

    n = len(lam)
    val = mode.one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = mu[j - 2] - lam[j - 1]
            val = val * pp(q ** (mu[i - 1] - mu[j - 2]) * t ** (j - i), m)
            val = val / pp(q ** (mu[i - 1] - mu[j - 2] + 1) * t ** (j - i - 1), m)
            val = val * pp(q ** (lam[i - 1] - mu[j - 2] + 1) * t ** (j - i - 1), m)
            val = val / pp(q ** (lam[i - 1] - mu[j - 2]) * t ** (j - i), m)
    return val


def _pp(a, m, mode):
    out = mode.one
    for k in range(m):
        out = out * (1 - a * mode.q ** k)
    return out


def _pp_partition(a, lam, mode):
    out = mode.one
    for i, m in enumerate(lam):
        out = out * _pp(a * mode.t ** -i, m, mode)
    return out


def _skew_oracle(kind, lam, mu, x, mode, s):
    """The rational-argument skew value, retyped with plain products."""
    if not is_horizontal_strip(lam, mu):
        return mode.zero
    q, t = mode.q, mode.t
    val = _h_oracle(lam, mu, mode)
    for i in range(len(lam)):
        val = val * _pp(x ** -1 * t ** -i * q ** mu[i], lam[i] - mu[i], mode)
    if kind == "s_up":
        e = weight(mu) - weight(lam)
        return val * (-(q / x)) ** e * q ** (n_prime_stat(mu) - n_prime_stat(lam))
    val = val * t ** (-n_stat(lam) + weight(mu) + n_stat(mu))
    if kind == "s_down":
        return val
    return val * _pp_partition(q * s / (x * t), mu, mode) / _pp_partition(q * s / x, lam, mode)


def _multi_oracle(kind, lam, mu, z, mode, s, memo):
    """The rational-argument peeling recurrence, retyped (memo: a dict)."""
    if not contains(lam, mu):
        return mode.zero
    key = (kind, lam, mu, z, s)
    if key in memo:
        return memo[key]
    if len(z) == 1:
        memo[key] = _skew_oracle(kind, lam, mu, z[0], mode, s)
    else:
        ell = len(z) - 1
        y = z[0] * mode.t ** -ell
        s_peel = s * mode.t ** -ell if kind == "ab" else None
        total = mode.zero
        for nu in enumerate_strips(lam):
            if contains(nu, mu):
                skew = _multi_oracle(kind, lam, nu, (y,), mode, s_peel, memo)
                term = skew * _multi_oracle(kind, nu, mu, z[1:], mode, s, memo)
                if kind == "s_up":
                    term = term * mode.t ** (ell * (weight(lam) - weight(nu)))
                total = total + term
        memo[key] = total
    return memo[key]


def _principal_oracle(kind, mu, lam, mode, s, memo):
    n = len(lam)
    z = tuple(mode.q ** lam[i] * mode.t ** (n - 1 - i) for i in range(n))
    return _multi_oracle(kind, mu, zeros(n), z, mode, s, memo)


def test_h_factor_against_retyped_oracle(mode):
    for lam in enumerate_sub((3, 2, 2)):
        for mu in enumerate_sub(lam):
            from qtspecials.partitions import is_horizontal_strip

            if not is_horizontal_strip(lam, mu):
                continue
            assert h_factor(lam, mu, mode) == _h_oracle(lam, mu, mode)


def test_h_factor_trivial_cases(mode):
    assert h_factor((2, 1), (2, 1), mode) == 1
    assert h_factor((3,), (2,), mode) == 1  # single part: empty pair product
    with pytest.raises(NotAStrip):
        h_factor((3, 3), (2, 1), mode)


def test_w_skew_basics(mode):
    x = Rational(4, 9)
    assert w_skew("s_up", (2, 1), (2, 1), x, mode) == 1
    # single-box skew from the empty partition
    assert w_skew("s_up", bump(zeros(2), 1), zeros(2), x, mode) == (1 - x) / mode.q
    assert w_skew("s_up", (2, 1), (3, 0), x, mode) == 0  # not a strip


def test_w_multi_reduces_to_skew(mode):
    x = Rational(4, 9)
    for kind, s in (("s_up", None), ("s_down", None), ("ab", Rational(7, 5))):
        assert w_multi(kind, (2, 1), (1, 1), (x,), mode, s) == \
            w_skew(kind, (2, 1), (1, 1), x, mode, s)


def test_w_multi_diagonal_is_one_for_sup(mode):
    z = (Rational(2, 5), Rational(3, 7), Rational(1, 9))
    for lam in [(2, 1, 0), (3, 3, 1)]:
        assert w_multi("s_up", lam, lam, z, mode) == 1


def test_w_multi_single_box_evaluation(mode):
    # W at index e_1 equals q^{-1} * sum_i (t^{n-i} - x_i)
    for n in (2, 3):
        z = tuple(Rational(i + 2, 2 * i + 3) for i in range(n))
        got = w_multi("s_up", bump(zeros(n), 1), zeros(n), z, mode)
        expect = sum((mode.tpow(n - 1 - i) - z[i] for i in range(n)),
                     start=mode.zero) / mode.q
        assert got == expect


def test_w_principal_basics(mode):
    for lam in enumerate_sub((2, 2)):
        assert w_principal("s_up", zeros(2), lam, mode) == 1
        # closed self-evaluations
        assert w_principal("s_up", lam, lam, mode) == wsup_self(lam, mode)
        assert w_principal("s_down", lam, lam, mode) == wsdown_self(lam, mode)


def test_w_principal_vanishing(mode):
    for lam in enumerate_sub((2, 2, 1)):
        for mu in enumerate_sub((2, 2, 1)):
            from qtspecials.partitions import contains

            if not contains(lam, mu):
                assert w_principal("s_up", mu, lam, mode) == 0
                assert w_principal("s_down", mu, lam, mode) == 0


def test_w_rectangular_matches_recurrence(mode):
    rng = random.Random(3)
    for n in (1, 2, 3):
        for k in range(4):
            z = tuple(Rational(rng.randint(1, 20), rng.randint(1, 20))
                      for _ in range(n))
            for kind, s in (("s_up", None), ("s_down", None), ("ab", Rational(3, 4))):
                assert w_rectangular(kind, k, z, mode, s) == \
                    w_multi(kind, (k,) * n, zeros(n), z, mode, s)


def test_w_rectangular_single_box(mode):
    x = Rational(5, 8)
    assert w_rectangular("s_up", 1, (x,), mode) == (1 - x) / mode.q
    assert w_rectangular("s_up", 0, (x, x), mode) == 1


def test_w_rectangular_takes_int_arguments(mode):
    """An int argument is the rational it names (its inverse is no float)."""
    for kind, s in (("s_up", None), ("s_down", None), ("ab", 3)):
        assert w_rectangular(kind, 2, (2, -3), mode, s) == \
            w_rectangular(kind, 2, (Rational(2), Rational(-3)), mode, s)


def test_weyl_specialization_pins_recurrence_shifts(mode):
    """The principal value at a rectangle has a closed form that fixes both
    the s-shift of the "ab" peel and the t-prefactor of the "s_up" peel."""
    s0 = Rational(7, 13)
    for n in (2, 3):
        for k in (1, 2):
            x = mode.qpow(k)
            for mu in enumerate_sub((k,) * n):
                ab = w_principal("ab", mu, (k,) * n, mode, s0)
                closed = (
                    poch_partition(x ** -1, mu, mode)
                    / poch_partition(mode.q * s0 / x, mu, mode)
                    * pair_ratio(mu, mode, 0)
                )
                assert ab == closed, (n, k, mu)
                sup = w_principal("s_up", mu, (k,) * n, mode)
                w = weight(mu)
                sign = mode.one if w % 2 == 0 else -mode.one
                closed_up = (
                    sign * x ** w * mode.tpow(n_stat(mu))
                    * mode.qpow(-w - n_prime_stat(mu))
                    * poch_partition(x ** -1, mu, mode)
                    * pair_ratio(mu, mode, 0)
                )
                assert sup == closed_up, (n, k, mu)


ORACLE_MODES = [
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(3, 5))), id="point"),
    pytest.param(lambda: FormalQ(Rational(3, 5)), id="formal-t0"),
    pytest.param(lambda: FormalQ.alpha(1), id="formal-alpha1"),
    pytest.param(lambda: FormalQ.alpha(2), id="formal-alpha2"),
]
W_CASES = (("s_up", None), ("s_down", None), ("ab", Rational(7, 13)))


@pytest.mark.parametrize("make_mode", ORACLE_MODES)
def test_w_principal_matches_rational_argument_oracle(make_mode):
    """The exponent-keyed principal path against the retyped rational one,
    for every mu inside every lam below (3,3,3)."""
    mode = make_mode()
    for kind, s in W_CASES:
        memo = {}
        for lam in enumerate_sub((3, 3, 3)):
            for mu in enumerate_sub(lam):
                assert w_principal(kind, mu, lam, mode, s) == \
                    _principal_oracle(kind, mu, lam, mode, s, memo), (kind, lam, mu)


@pytest.mark.parametrize("make_mode, bound", [
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(3, 5))), (3, 2, 2),
                 id="point"),
    pytest.param(lambda: FormalQ(Rational(3, 5)), (2, 1, 1), id="formal-t0"),
])
def test_w_multi_at_scalar_arguments_matches_oracle(make_mode, bound):
    """Random non-monomial z (c != 1), and the principal vector passed as
    plain scalars, give the oracle's values and the principal path's."""
    mode = make_mode()
    rng = random.Random(11)
    for lam in enumerate_sub(bound):
        n = len(lam)
        z = tuple(Rational(rng.randint(1, 30), rng.randint(31, 60)) for _ in range(n))
        spec = tuple(mode.qpow(lam[i]) * mode.tpow(n - 1 - i) for i in range(n))
        memo = {}
        for mu in enumerate_sub(lam):
            for kind, s in W_CASES:
                assert w_multi(kind, lam, mu, z, mode, s) == \
                    _multi_oracle(kind, lam, mu, z, mode, s, memo), (kind, lam, mu)
                assert w_multi(kind, mu, zeros(n), spec, mode, s) == \
                    w_principal(kind, mu, lam, mode, s), (kind, lam, mu)


def test_ab_values_for_two_scalars_in_one_mode_do_not_collide():
    mode = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5)))
    s1, s2 = Rational(7, 13), Rational(5, 11)
    memo1, memo2 = {}, {}
    differ = 0
    for lam in enumerate_sub((2, 2, 1)):
        for mu in enumerate_sub(lam):
            v1 = w_principal("ab", mu, lam, mode, s1)
            v2 = w_principal("ab", mu, lam, mode, s2)
            assert v1 == _principal_oracle("ab", mu, lam, mode, s1, memo1), (lam, mu)
            assert v2 == _principal_oracle("ab", mu, lam, mode, s2, memo2), (lam, mu)
            differ += v1 != v2
    assert differ > 0


def test_w_layer_argument_errors_are_qt_value_errors(mode):
    assert issubclass(InvalidArgument, QtError) and issubclass(InvalidArgument, ValueError)
    x = Rational(4, 9)
    with pytest.raises(InvalidArgument, match="unknown W kind"):
        w_skew("up", (1,), (0,), x, mode)
    with pytest.raises(InvalidArgument, match="unknown W kind"):
        w_multi("down", (1, 0), (0, 0), (x, x), mode)
    with pytest.raises(InvalidArgument, match="requires the auxiliary scalar"):
        w_skew("ab", (1,), (0,), x, mode)
    with pytest.raises(InvalidArgument, match="requires the auxiliary scalar"):
        w_multi("ab", (1, 0), (0, 0), (x, x), mode)
    with pytest.raises(InvalidArgument, match="requires the auxiliary scalar"):
        w_rectangular("ab", 1, (x,), mode)
    with pytest.raises(InvalidArgument, match="k must be at least 0"):
        w_rectangular("s_up", -1, (x,), mode)


def _horner(p, x):
    """p(x) for a UniPoly p, by Horner over its Fraction coefficients."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + Fraction(int(c.numerator), int(c.denominator))
    return acc


def test_formal_mode_coheres_with_points():
    from qtspecials.binomial import qt_binomial, v_coeff
    from qtspecials.specials import u_coeff

    t0, q0 = Rational(3, 5), Fraction(2, 7)
    fmode = FormalQ(t0)
    pmode = AtPoint(QtPoint(Rational(2, 7), t0))
    fns = [lambda lam, mu, m: w_principal("s_up", mu, lam, m), qt_binomial, u_coeff, v_coeff]
    for fn in fns:
        for lam in enumerate_sub((2, 2)):
            for mu in enumerate_sub(lam):
                formal, point = fn(lam, mu, fmode), fn(lam, mu, pmode)
                assert isinstance(formal, RatFuncQ)
                val = _horner(formal.num, q0) / _horner(formal.den, q0)
                assert val == Fraction(int(point.numerator), int(point.denominator))


def test_formal_alpha_mode_ties_t_to_q():
    fmode = FormalQ.alpha(2)
    assert fmode.tpow(3) == fmode.qpow(6)
    # single-row values stay rational functions of q alone
    v = w_skew("s_up", (2,), (0,), fmode.qpow(2), fmode)
    assert isinstance(v, RatFuncQ)
    # q^{-2} (1 - q^{-2})(1 - q^{-1}) -> limit exists after clearing powers
    assert limit_at_one(v * fmode.qpow(2)) == limit_at_one(
        (1 - fmode.qpow(-2)) * (1 - fmode.qpow(-1)))


def test_strip_vanishing_sweep(mode):
    """w_skew is zero exactly off horizontal strips over a full small box."""
    from qtspecials.partitions import is_horizontal_strip

    x = Rational(4, 9)
    box = enumerate_sub((2, 2, 2))
    for lam in box:
        for mu in box:
            v = w_skew("s_up", lam, mu, x, mode)
            if is_horizontal_strip(lam, mu):
                assert v != 0 or lam == mu and v == 1
            else:
                assert v == 0


PRIMITIVE_MODES = [
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(3, 5))), id="point"),
    pytest.param(lambda: FormalQ(Rational(3, 5)), id="formal-t0"),
    pytest.param(lambda: FormalQ.alpha(2), id="formal-alpha2"),
]


@pytest.mark.parametrize("make_mode", PRIMITIVE_MODES)
def test_pochm_against_retyped_product(make_mode):
    mode = make_mode()
    q, t = mode.q, mode.t
    for i in range(-3, 4):
        for j in range(-2, 3):
            for m in range(5):
                expect = mode.one
                for k in range(m):
                    expect = expect * (1 - q ** (i + k) * t ** j)
                assert pochm(i, j, m, mode) == expect, (i, j, m)


def _pair_oracle(mu, s, mode):
    """prod_{i<j} prod_{k<d} (1 - q^{s+k} t^{j-i+1-s}) / (1 - q^{s+k} t^{j-i-s})."""
    q, t = mode.q, mode.t
    val = mode.one
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            for k in range(mu[i] - mu[j]):
                val = val * (1 - q ** (s + k) * t ** (j - i + 1 - s))
                val = val / (1 - q ** (s + k) * t ** (j - i - s))
    return val


@pytest.mark.parametrize("make_mode", PRIMITIVE_MODES)
def test_pair_ratio_both_exponents_against_retyped_loop(make_mode):
    mode = make_mode()
    for mu in enumerate_sub((3, 2, 1, 0)):
        assert pair_ratio(mu, mode, 1) == _pair_oracle(mu, 1, mode), mu
        assert pair_ratio(mu, mode, 0) == _pair_oracle(mu, 0, mode), mu
        assert binomial_pair_ratio(mu, mode) == _pair_oracle(mu, 1, mode), mu


def test_pochm_repeated_call_returns_cached_value(mode, monkeypatch):
    first = pochm(-2, 1, 3, mode)
    assert mode.cache[("poch", -2, 1, 3)] is first

    def no_recompute(*args):
        raise AssertionError("cached value recomputed")

    monkeypatch.setattr(wcore, "poch", no_recompute)
    assert pochm(-2, 1, 3, mode) is first


def test_one_mode_per_point():
    point = QtPoint(Rational(2, 7), Rational(3, 5))
    assert point.mode is point.mode
    assert isinstance(point.mode, AtPoint)
    assert (point.mode.q, point.mode.t, point.mode.t0) == (point.q, point.t, point.t)
    # a fresh point of the same value gets its own mode and cache
    assert QtPoint(Rational(2, 7), Rational(3, 5)).mode is not point.mode


def test_dropped_point_frees_its_mode_without_the_cycle_collector():
    import gc
    import weakref

    point = QtPoint(Rational(2, 7), Rational(3, 5))
    ref = weakref.ref(point.mode)
    gc.disable()
    try:
        del point
        assert ref() is None
    finally:
        gc.enable()


def test_one_alpha_mode_per_alpha():
    assert FormalQ.alpha(2) is FormalQ.alpha(2)
    assert FormalQ.alpha(1) is not FormalQ.alpha(2)
    assert FormalQ.alpha(2).t0 is None
    assert FormalQ(Rational(3, 5)).t0 == Rational(3, 5)


# ---------------------------------------------------------------------------
# One memo protocol: wcore.memo
# ---------------------------------------------------------------------------

def _memo_cases():
    """(id, module, dependency, call): ``call(mode)`` runs a memoized
    function whose body calls ``module.dependency``."""
    from qtspecials import binomial, identities, specials

    x, y = Rational(4, 9), Rational(-5, 3)
    return [
        ("pochm", wcore, "poch",
         lambda m: pochm(1, -2, 3, m, wcore.coef(Rational(2, 9), m))),
        ("norm_weight", wcore, "pair_ratio", lambda m: wcore.norm_weight((3, 1, 0), m)),
        ("h_factor", wcore, "pochm", lambda m: h_factor((3, 1), (2, 0), m)),
        ("w_skew", wcore, "h_factor", lambda m: w_skew("s_up", (3, 1), (2, 0), x, m)),
        ("w_multi", wcore, "w_skew", lambda m: w_multi("ab", (2, 1), (0, 0), (x, y), m, y)),
        ("qt_binomial", binomial, "w_principal",
         lambda m: binomial.qt_binomial((3, 2), (1, 1), m)),
        ("stirling", specials, "u_coeff",
         lambda m: specials.stirling("second", (2, 1), (1, 0), m)),
        ("_u", specials, "u_coeff", lambda m: specials._u((2, 1), (1, 0), m)),
        ("_v", specials, "_u", lambda m: specials._v((2, 1), (1, 0), m)),
        ("_u_inner", specials, "valid_bumps",
         lambda m: specials._b((2, 1), (0, 0), False, m)),
        ("_b", specials, "valid_bumps", lambda m: specials._b((2, 1), (0, 0), True, m)),
        ("bernoulli", specials, "qt_binomial", lambda m: specials.bernoulli((2, 1), m)),
        ("_inner_mode", specials, "FormalQ", lambda m: specials._inner_mode(True, m)),
        ("_poch_partition", wcore, "pochm", lambda m: wcore.poch_partition(x, (5, 5), m)),
        ("_slot", identities, "coef", lambda m: identities._slot(wcore.coef(x, m), 3, m)),
        ("_cocycle_w", identities, "w_principal",
         lambda m: identities._cocycle_w((2, 1), (1, 0), wcore.coef(y, m), m)),
    ]


@pytest.mark.parametrize("case", _memo_cases(), ids=lambda c: c[0])
def test_memoized_function_second_call_returns_the_cached_object(case, monkeypatch):
    _, module, dependency, call = case
    mode = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5)))
    first = call(mode)

    def no_recompute(*args, **kwargs):
        raise AssertionError("cached value recomputed")

    monkeypatch.setattr(module, dependency, no_recompute)
    assert call(mode) is first
    # no mode enters a key, in the mode's cache or in the cache of the inner
    # mode it holds: keys holding a mode would keep it alive
    inner = [v.cache for v in mode.cache.values() if isinstance(v, wcore.ScalarMode)]
    for cache in (mode.cache, *inner):
        for key in cache:
            assert not any(isinstance(part, wcore.ScalarMode) for part in key), key


def test_errors_are_raised_again_not_cached(mode):
    x = Rational(4, 9)
    for _ in range(2):
        with pytest.raises(InvalidArgument, match="unknown W kind"):
            w_skew("up", (1,), (0,), x, mode)
        with pytest.raises(InvalidArgument, match="unknown W kind"):
            w_multi("down", (1, 0), (0, 0), (x, x), mode)
        with pytest.raises(NotAStrip):
            h_factor((2, 1), (0, 0), mode)
    assert not any(key[0] == "h" for key in mode.cache)


def test_an_upper_index_that_is_not_a_partition_is_refused(mode):
    """No strip lies below (1, 2); refusing it beats summing over none.  A
    refused index is stored neither in the enumeration memo nor in a cache."""
    from qtspecials import partitions

    x, y = Rational(1, 3), Rational(2, 5)
    for _ in range(2):
        with pytest.raises(NotAPartition):
            enumerate_strips((1, 2))
        with pytest.raises(NotAPartition):
            w_multi("s_up", (1, 2), (0, 0), (x, y), mode)
        with pytest.raises(NotAPartition):
            w_skew("s_down", (1, 2), (1, 0), x, mode)
    assert (1, 2) not in {lam for lam, _ in partitions._STRIPS}
    assert not any(key[0] in ("skew", "W") for key in mode.cache)


def test_w_multi_refuses_a_non_partition_upper_index_on_every_path(mode):
    """Neither mu outside lam nor zero variables answer for lam = (1, 2)."""
    x, y = Rational(1, 3), Rational(2, 5)
    for _ in range(2):
        with pytest.raises(NotAPartition):
            w_multi("s_up", (1, 2), (3, 0), (x, y), mode)
        with pytest.raises(NotAPartition):
            w_multi("s_up", (1, 2), (1, 2), (), mode)
        with pytest.raises(LengthMismatch):
            w_multi("s_up", (2, 1), (1,), (x, y), mode)
    assert not any(key[0] == "W" for key in mode.cache)


def _use_every_memo_layer(point):
    from qtspecials.binomial import qt_binomial
    from qtspecials.distributions import exp_e
    from qtspecials.specials import _inner_mode, bernoulli, stirling

    mode = point.mode
    qt_binomial((2, 1), (1, 0), mode)
    stirling("first", (2, 1), (1, 0), mode)
    bernoulli((2, 1), mode)
    exp_e(Rational(1, 100), point, 2, part_cap=3, trunc=4)
    # at t = -2 the limit of u((2, 2, 0), (1, 0, 0)) has D = 0: the one
    # FormalQ(t) fallback mode, kept in the point's cache
    assert ("inner", False) not in mode.cache
    stirling("second", (2, 2, 0), (1, 0, 0), mode)
    assert ("inner", False) in mode.cache
    return weakref.ref(mode), weakref.ref(_inner_mode(False, mode))


def test_dropped_point_frees_its_mode_after_every_memo_layer():
    import gc

    point = QtPoint(Rational(2, 7), Rational(-2), n=3, max_part=5)
    ref, inner_ref = _use_every_memo_layer(point)
    assert ref() is not None and inner_ref() is not None
    gc.disable()
    try:
        del point
        assert ref() is None
        assert inner_ref() is None
    finally:
        gc.enable()


def test_only_memo_and_the_mode_constructor_touch_a_cache():
    """Keep one memo protocol: every `.cache` in the package source sits in
    wcore.memo or ScalarMode.__init__, and no `lru_cache` keeps a value for
    the life of the process.  The one memo kept for the life of the process
    is that of the partition enumerations, which holds no value
    (test_the_partition_enumeration_memo_holds_only_ints)."""
    import ast
    import pathlib
    import re

    allowed = {("wcore.py", "memo"), ("wcore.py", "ScalarMode.__init__")}
    src = pathlib.Path(wcore.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if (path.name, name) in allowed:
                        spans.append(range(child.lineno, child.end_lineno + 1))
                    visit(child, name + ".")

        visit(ast.parse(text), "")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\.cache\b", line) and not any(lineno in s for s in spans) \
                    or re.search(r"\blru_cache\b", line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def _accumulates(node) -> bool:
    """node multiplies or divides a name into itself: x *= y, x /= y,
    x = x * y, x = y / x or x = guarded_div(x, y, ...)."""
    import ast

    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, (ast.Mult, ast.Div))
    if not isinstance(node, ast.Assign):
        return False
    names = {t.id for t in node.targets if isinstance(t, ast.Name)}
    v = node.value
    if isinstance(v, ast.BinOp) and isinstance(v.op, (ast.Mult, ast.Div)):
        operands = [v.left, v.right]
    elif isinstance(v, ast.Call) and getattr(v.func, "id", None) == "guarded_div":
        operands = v.args
    else:
        return False
    return any(isinstance(o, ast.Name) and o.id in names for o in operands)


def _chained(node) -> bool:
    """node multiplies or divides the result of another product: a * b * c."""
    import ast

    def product(n):
        return isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Div))

    return product(node) and (product(node.left) or product(node.right))


# the functions whose products are one prod_ratio call each
PRODUCTS = {
    "wcore.py": {"poch", "_poch_partition", "poch_norm", "pair_ratio", "norm_weight",
                 "h_factor", "_w_skew", "_w_multi", "w_rectangular"},
    "binomial.py": {"qt_binomial", "_qt_binomial", "v_coeff", "binom_rect_lower",
                    "binom_rect_upper", "gaussian_binomial", "qt_bracket", "poch_reciprocal",
                    "qt_bracket_shifted"},
    "specials.py": {"u_coeff", "stirling", "stirling_expansion_residual", "_bernoulli_weight"},
    "distributions.py": {"g_mass", "f_mass", "_poisson_mass"},
    "identities.py": {"_cocycle_term", "check_2phi1", "_weighted_binom_sum", "check_pascal",
                      "check_weak_cocycle", "check_double_binomial", "check_geometric"},
}


def test_every_product_of_factors_goes_through_prod_ratio():
    """Keep one product primitive: outside the identity checks, guarded_div
    is called only by prod_ratio and for the single quotient (the inverse
    of a W argument in _peel_scalars), and no function of
    PRODUCTS chains two products (a * b * c) anywhere or multiplies or
    divides an accumulator in a loop.  The identity checks keep guarded_div
    for their single quotients."""
    import ast
    import pathlib

    single = {("wcore.py", "prod_ratio"), ("wcore.py", "_peel_scalars")}
    src = pathlib.Path(wcore.__file__).parent
    offenders, found = [], set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            site = (path.name, fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == \
                        "guarded_div" and site not in single and path.name != "identities.py":
                    offenders.append(f"{path.name}:{node.lineno}: guarded_div in {fn.name}")
            if fn.name in PRODUCTS.get(path.name, ()):
                found.add(site)
                offenders += [f"{path.name}:{node.lineno}: chained product in {fn.name}"
                              for node in ast.walk(fn) if _chained(node)]
                for loop in ast.walk(fn):
                    if isinstance(loop, (ast.For, ast.While)):
                        offenders += [f"{path.name}:{node.lineno}: product loop in {fn.name}"
                                      for node in ast.walk(loop) if _accumulates(node)]
    assert found == {(f, name) for f, names in PRODUCTS.items() for name in names}
    assert not offenders, "\n".join(offenders)


def test_every_factor_comes_from_pochm():
    """Keep one factor primitive: in the library `X.one - ...` (a factor
    1 - c q^a t^b) is written only in wcore.poch, and poch is called only
    by pochm, so every factor and every (c q^i t^j; q)_m is a pochm value."""
    import ast
    import pathlib

    src = pathlib.Path(wcore.__file__).parent
    one_minus, poch_calls = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> its innermost function: ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            site = (path.name, owner.get(node))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                    and getattr(node.left, "attr", None) == "one":
                one_minus.add(site)
            if isinstance(node, ast.Call) and "poch" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                poch_calls.add(site)
    assert one_minus == {("wcore.py", "poch")}
    assert poch_calls == {("wcore.py", "pochm")}


def test_the_term_walk_reads_its_factors_from_pochm(monkeypatch):
    """The partition-series walk of exp_E and poisson_masses takes every
    factor 1 - c q^a t^b from pochm: afterwards the mode's cache holds each
    factor it multiplied under its ("poch", a, b, 1) key (with c = z for
    the rows of (z; q, t)_mu)."""
    from qtspecials import distributions

    point = QtPoint(Rational(1, 2), Rational(1, 3), n=2, max_part=5)
    mode, z, cap = point.mode, Rational(1, 20), 3
    seen = []

    def recording(*args):
        seen.append((args, pochm(*args)))
        return seen[-1][1]

    monkeypatch.setattr(distributions, "pochm", recording)
    distributions.exp_E(z, point, 2, cap, 10)
    distributions.poisson_masses(
        distributions.DensitySpec("poisson", z, point, part_cap=cap, trunc=10))
    cz = wcore.coef(z, mode)
    expected = [(1 + m, 1 - k, ()) for m in range(cap) for k in range(2)]  # normalizing
    expected += [(m, -k, (cz,)) for m in range(cap) for k in range(2)]  # (z; q, t)_mu
    for a, b, c in expected:
        scale = z if c else 1
        assert mode.cache[("poch", a, b, 1) + c] == 1 - scale * mode.qpow(a) * mode.tpow(b)
    assert seen
    for (i, j, m, _, *c), value in seen:
        assert m == 1 and mode.cache[("poch", i, j, m, *c)] is value


def _sums_into_itself(node) -> set:
    """The names that node adds to or subtracts from themselves: x += y,
    x -= y, x = x + y or x = y - x.  A count (x += 1) and a list extended
    by a display (x += a, b or x += [...]) are no sums of terms."""
    import ast

    if isinstance(node, ast.AugAssign):
        ok = isinstance(node.op, (ast.Add, ast.Sub)) and isinstance(node.target, ast.Name) \
            and not isinstance(node.value, (ast.Constant, ast.Tuple, ast.List, ast.ListComp))
        return {node.target.id} if ok else set()
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, (ast.Add, ast.Sub))):
        return set()
    names = {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {o.id for o in (node.value.left, node.value.right)
            if isinstance(o, ast.Name) and o.id in names}


# the sums that add one term at a time on purpose, by (file, function, name)
SEQUENTIAL_SUMS = {
    # every partial sum of the CDF is kept
    ("distributions.py", "sample", "acc"),
    # reference values, independent of the library
    ("identities.py", "_classical_sequences", "acc"),
    # bell and fibonacci sum through sum_prods: restated sequentially, a
    # fault in the one sum cannot pass both sides of their checks
    ("identities.py", "run_specials_suite", "direct"),
    ("identities.py", "run_specials_suite", "brute"),
}


def test_every_sum_goes_through_the_one_sum():
    """Keep one sum: no function of the library adds to or subtracts from an
    accumulator in a loop, except the sums of SEQUENTIAL_SUMS, each of which
    exists."""
    import ast
    import pathlib

    src = pathlib.Path(wcore.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for loop in ast.walk(fn):
                if isinstance(loop, (ast.For, ast.While)):
                    for node in ast.walk(loop):
                        found |= {(path.name, fn.name, name, node.lineno)
                                  for name in _sums_into_itself(node)}
    offenders = [f"{f}:{line}: {name} summed in a loop of {fn}"
                 for f, fn, name, line in sorted(found)
                 if (f, fn, name) not in SEQUENTIAL_SUMS]
    assert not offenders, "\n".join(offenders)
    assert {site[:3] for site in found} >= SEQUENTIAL_SUMS


def _suite_modes(monkeypatch, bound=(2, 2, 1), seed=0):
    """Run one suite round below ``bound`` at ``seed``; returns the mode of
    every point it drew."""
    from qtspecials import identities

    points = []

    def recording(*args, **kwargs):
        points.append(draw(*args, **kwargs))
        return points[-1]

    draw = identities.random_qt_point
    monkeypatch.setattr(identities, "random_qt_point", recording)
    assert identities.run_identity_suite(bound, points=1, seed=seed).all_pass
    return [point.mode for point in points]


def _key_parts(x):
    """The leaves of a memo key, walking into its tuples and Monos."""
    if isinstance(x, tuple):
        for y in x:
            yield from _key_parts(y)
    else:
        yield x


def test_the_partition_enumeration_memo_holds_only_ints(monkeypatch):
    """partitions keeps each enumeration for the life of the process, so its
    keys and entries must be built from ints, tuples and None alone: then
    they can hold no scalar and no mode."""
    from qtspecials import partitions

    _suite_modes(monkeypatch)

    def plain(x):
        if type(x) is tuple:
            return all(plain(y) for y in x)
        return x is None or type(x) is int

    for table in (partitions._SUBS, partitions._STRIPS):
        assert table
        for key, entry in table.items():
            assert plain(key) and plain(entry), (key, entry)


def test_no_memo_key_holds_a_rational(monkeypatch):
    """Hashing a fractions.Fraction takes a modular inverse, so a scalar
    enters a key as a Coef.  Checked on every mode of one suite round, of an
    exp_e and of a poisson_masses call, and on the modes their caches hold."""
    from qtspecials.distributions import DensitySpec, exp_e, poisson_masses

    modes = _suite_modes(monkeypatch)
    point = QtPoint(Rational(1, 2), Rational(1, 3), n=2, max_part=5)
    exp_e(Rational(1, 100), point, 2, part_cap=3, trunc=4)
    poisson_masses(DensitySpec(kind="poisson", z=Rational(1, 20), point=point,
                               part_cap=3, trunc=5))
    modes.append(point.mode)

    while modes:
        mode = modes.pop()
        for key, value in mode.cache.items():
            assert not any(isinstance(p, Rational) for p in _key_parts(key)), key
            if isinstance(value, wcore.ScalarMode):
                modes.append(value)


def test_each_scalar_in_the_memo_keys_of_a_suite_round_is_one_coef(monkeypatch):
    """coef interns, so the keys hash and compare each scalar by identity:
    after a suite round, every Coef in a point's memo keys is the one object
    of its value."""
    coefs = 0
    for mode in _suite_modes(monkeypatch, (2, 1), seed=3):
        by_value = {}
        for key in mode.cache:
            for p in _key_parts(key):
                if isinstance(p, wcore.Coef):
                    coefs += 1
                    assert by_value.setdefault(p.value, p) is p, (key, p)
    assert coefs > 0


def test_cache_entries_per_memo_kind_of_one_suite_round(monkeypatch):
    """A dropped or doubled memo changes these counts: the main point, then
    the point of the geometric checks."""
    from collections import Counter

    counts = [dict(Counter(key[0] for key in mode.cache))
              for mode in _suite_modes(monkeypatch)]
    assert counts == [
        {"W": 346, "binom": 88, "cocycle": 40, "cocycle_w": 40, "h": 47, "partition": 72,
         "poch": 135, "skew": 258, "slot": 4, "weight": 13, "wsum": 62},
        {"W": 223, "h": 3, "partition": 1, "poch": 46, "skew": 20, "weight": 84},
    ]


def test_principal_values_key_each_factor_without_a_unit_scalar(mode):
    """A principal argument has c = 1, and pochm is then called without c, so
    no factor is stored twice, under (..., m) and under (..., m, 1)."""
    from qtspecials.binomial import qt_binomial

    lam = (3, 2, 1)
    for kind, s in (("s_up", None), ("s_down", None), ("ab", wcore.Mono(1, 7, 3)),
                    ("ab", Rational(3, 7))):
        w_principal(kind, (2, 1, 0), lam, mode, s)
    qt_binomial(lam, (2, 1, 1), mode)
    poch_keys = [key for key in mode.cache if key[0] == "poch"]
    assert poch_keys
    assert [key for key in poch_keys if len(key) == 5 and key[4] == 1] == []


# ---------------------------------------------------------------------------
# Memo keys carry each scalar as a Coef, never as a Rational
# ---------------------------------------------------------------------------

SAME_SCALAR = [
    pytest.param(Fraction(2, 6), Fraction(1, 3), id="unreduced-vs-reduced"),
    pytest.param(2, Fraction(2), id="int-vs-rational"),
]
EQUAL_FORM_MODES = [
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(3, 5))), id="point"),
    pytest.param(lambda: FormalQ(Rational(3, 5)), id="formal-t0"),
]


def _w_calls(c, mode):
    """(value, oracle) for the scalar c sent through every entry point of the
    W layer: w_skew, w_multi, w_principal("ab", ...) and poch_partition."""
    x, s0 = Rational(4, 9), Rational(7, 13)
    v = mode.lift(c)
    memo = {}
    return [
        (w_skew("ab", (3, 1), (1, 0), c, mode, s0),
         _multi_oracle("ab", (3, 1), (1, 0), (v,), mode, s0, memo)),
        (w_skew("s_up", (3, 1), (2, 1), x, mode, c),  # s is no part of s_up
         _multi_oracle("s_up", (3, 1), (2, 1), (x,), mode, None, memo)),
        (w_multi("ab", (2, 1), (1, 0), (c, x), mode, c),
         _multi_oracle("ab", (2, 1), (1, 0), (v, x), mode, v, memo)),
        (w_multi("s_down", (2, 2, 1), (1, 0, 0), (x, c, x), mode),
         _multi_oracle("s_down", (2, 2, 1), (1, 0, 0), (x, v, x), mode, None, memo)),
        (w_principal("ab", (2, 1, 0), (2, 2, 1), mode, c),
         _principal_oracle("ab", (2, 1, 0), (2, 2, 1), mode, v, memo)),
        (poch_partition(c, (3, 2, 1), mode), _pp_partition(v, (3, 2, 1), mode)),
    ]


@pytest.mark.parametrize("make_mode", EQUAL_FORM_MODES)
@pytest.mark.parametrize("first, second", SAME_SCALAR)
def test_equal_scalars_give_the_oracle_value_from_one_entry(make_mode, first, second):
    mode = make_mode()
    for got, expect in _w_calls(first, mode):
        assert got == expect
    entries = len(mode.cache)
    for got, expect in _w_calls(second, mode):
        assert got == expect
    assert len(mode.cache) == entries


@pytest.mark.parametrize("make_mode", EQUAL_FORM_MODES)
@pytest.mark.parametrize("first, second", SAME_SCALAR)
def test_equal_scalars_are_one_coef_of_their_mode(make_mode, first, second):
    mode, other = make_mode(), make_mode()
    c = wcore.coef(first, mode)
    assert wcore.coef(second, mode) is c
    assert wcore.coef(c, mode) is c
    d = wcore.coef(second, other)  # a Coef belongs to the mode that interned it
    assert d is not c and d.value == c.value
    assert wcore.coef(first, other) is d
    assert wcore.Coef.__hash__ is object.__hash__


@pytest.mark.parametrize("make_mode", EQUAL_FORM_MODES)
def test_mono_with_unit_rational_shares_the_monomial_entries(make_mode):
    mode = make_mode()
    lam, mu = (3, 2, 1), (2, 1, 0)
    s0 = Rational(7, 13)

    def values(one):
        z = (wcore.Mono(one, 2, 1), wcore.Mono(one, 0, 0))
        return [w_skew("s_up", lam, mu, z[0], mode),
                w_multi("ab", (2, 1), (1, 0), z, mode, wcore.Mono(one, 1, -1)),
                w_principal("ab", (2, 1, 0), lam, mode, wcore.Mono(one, 7, 3))]

    first = values(1)
    entries = len(mode.cache)
    assert values(Fraction(1)) == first
    assert len(mode.cache) == entries
    q, t = mode.q, mode.t
    memo = {}
    assert first == [
        _multi_oracle("s_up", lam, mu, (q ** 2 * t,), mode, None, memo),
        _multi_oracle("ab", (2, 1), (1, 0), (q ** 2 * t, mode.one), mode, q / t, memo),
        _principal_oracle("ab", (2, 1, 0), lam, mode, q ** 7 * t ** 3, memo),
    ]


@pytest.mark.skipif(backend_name() != "fractions",
                    reason="counts hashes of fractions.Fraction")
def test_memo_hashes_no_fraction_in_the_identities(monkeypatch):
    """One weak-cocycle and one 2phi1 check at a point: the memo keys hash
    ints and Coefs only, never a Fraction."""
    from qtspecials.identities import check_2phi1, check_weak_cocycle

    memo_code = pochm.__code__  # the wrapper that every memoized function runs
    calls = {"memo": 0, "all": 0}
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls["all"] += 1
        calls["memo"] += sys._getframe(1).f_code is memo_code
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    mode = QtPoint(Rational(2, 7), Rational(3, 5)).mode
    s, r, x = Rational(5, 11), Rational(7, 13), Rational(4, 9)
    assert check_weak_cocycle((2, 2, 1), (1, 0, 0), s, r, mode).residual == 0
    assert check_2phi1((2, 2, 1), s, x, mode).residual == 0
    assert calls["memo"] == 0
    hash(Rational(1, 3))
    assert calls["all"] > 0  # the counter is live

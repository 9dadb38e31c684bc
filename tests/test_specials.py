"""Stirling, Bernoulli, Bell, Catalan, Fibonacci and their ordinary limits.

Classical reference sequences are recomputed here from their own defining
recurrences (independent of the package) and frozen against the alpha=1
limits of the qt-families at single-part shapes.
"""

import random
from itertools import product
from math import comb

import pytest

from qtspecials.binomial import poch_reciprocal, qt_binomial, qt_bracket
from qtspecials.errors import DegenerateParameters, NotAPartition, UnsupportedRegime
from qtspecials.identities import random_qt_point
from qtspecials.partitions import (
    contains,
    enumerate_sub,
    is_partition,
    n_prime_stat,
    n_stat,
    weight,
    zeros,
)
from qtspecials.scalars import RatFuncQ, Rational, limit_at_one
from qtspecials.specials import (
    STIRLING_KINDS,
    StirlingTable,
    alpha_limit,
    bell,
    bernoulli,
    bernoulli_alpha,
    bernoulli_recurrence_residual,
    binomial_alpha,
    bracket_alpha,
    catalan,
    fibonacci,
    stirling,
    stirling_expansion_residual,
    u_coeff,
    v_coeff,
)
from qtspecials.wcore import (
    AtPoint,
    FormalQ,
    QtPoint,
    guarded_div,
    pair_ratio,
    poch_norm,
    w_principal,
)


# -- classical oracles, recomputed from scratch -----------------------------

def classical_bernoulli(upto):
    vals = [Rational(1)]
    for m in range(1, upto + 1):
        acc = sum(comb(m + 1, k) * vals[k] for k in range(m))
        vals.append(Rational(-acc, m + 1))
    return vals


def classical_stirling2(m, k):
    if m == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return classical_stirling2(m - 1, k - 1) + k * classical_stirling2(m - 1, k)


def classical_bell(m):
    return sum(classical_stirling2(m, k) for k in range(m + 1))


def classical_fibonacci(count):
    vals = [1, 1]
    while len(vals) < count:
        vals.append(vals[-1] + vals[-2])
    return vals


# -- u/v coefficients and Stirling numbers ----------------------------------

def test_uv_diagonals(mode):
    for lam in enumerate_sub((2, 2)):
        w = weight(lam)
        sign = mode.one if w % 2 == 0 else -mode.one
        assert u_coeff(lam, lam, mode) == sign * mode.tpow(n_stat(lam)) * \
            mode.qpow(-n_prime_stat(lam))
        assert v_coeff(lam, lam, mode) == sign * mode.qpow(n_prime_stat(lam)) * \
            mode.tpow(-n_stat(lam))


def test_uv_inversion(mode):
    for nu in enumerate_sub((3, 2, 1)):
        for mu in enumerate_sub(nu):
            tot = mode.zero
            for lam in enumerate_sub(nu):
                if contains(lam, mu):
                    tot = tot + u_coeff(nu, lam, mode) * v_coeff(lam, mu, mode)
            assert tot == (mode.one if mu == nu else mode.zero), (nu, mu)


def _reciprocal_base_product(x, lam, mode):
    # (x; 1/q, 1/t)_lam written out factor by factor
    acc = mode.one
    for i in range(1, len(lam) + 1):
        for k in range(lam[i - 1]):
            acc = acc * (mode.one - x * mode.tpow(i - 1) * mode.qpow(-k))
    return acc


def test_poch_reciprocal_matches_the_product_factor_by_factor(mode):
    for x in (Rational(4, 9), Rational(-7, 3)):
        for lam in enumerate_sub((3, 2, 2)):
            assert poch_reciprocal(x, lam, mode) == _reciprocal_base_product(x, lam, mode)


def test_change_of_basis(mode):
    x = Rational(4, 9)
    for lam in enumerate_sub((3, 2, 2)):
        lhs_u = _reciprocal_base_product(x, lam, mode)
        rhs_u = sum((u_coeff(lam, mu, mode) * x ** weight(mu)
                     for mu in enumerate_sub(lam)), start=mode.zero)
        assert lhs_u == rhs_u, lam
        lhs_v = x ** weight(lam)
        rhs_v = sum((v_coeff(lam, mu, mode) *
                     _reciprocal_base_product(x, mu, mode)
                     for mu in enumerate_sub(lam)), start=mode.zero)
        assert lhs_v == rhs_v, lam


@pytest.mark.parametrize("nu", [(1, 2), (0, 1), (2, -1)])
def test_upper_index_that_is_not_a_partition_raises(nu):
    """Every function of the layer that takes an upper index refuses one
    that is not a partition."""
    mode = AtPoint(QtPoint(Rational(2, 7), Rational(5, 11)))
    zero = zeros(2)
    calls = [
        lambda: stirling("first", nu, zero, mode),
        lambda: stirling("second", nu, zero, mode),
        lambda: u_coeff(nu, zero, mode),
        lambda: v_coeff(nu, zero, mode),
        lambda: binomial_alpha(nu, zero, 1),
        lambda: bell(nu, mode),
        lambda: fibonacci(nu, mode),
        lambda: bernoulli(nu, mode),
        lambda: StirlingTable.build("first", nu, mode),
    ]
    for call in calls:
        with pytest.raises(NotAPartition):
            call()


def test_stirling_diagonals(mode):
    for lam in enumerate_sub((2, 2)):
        assert stirling("first", lam, lam, mode) == 1
        assert stirling("second", lam, lam, mode) == 1


def test_stirling_single_part_worked_values():
    # hand-solved small cases of the second kind at n = 1
    m = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5), n=1, max_part=5))
    q = m.q
    assert stirling("second", (2,), (1,), m) == 1
    assert stirling("second", (3,), (1,), m) == 1
    assert stirling("second", (3,), (2,), m) == 2 + q
    assert stirling("second", (3,), (0,), m) == 0


def test_stirling_inversion_both_orders():
    rng = random.Random(1)
    for _ in range(3):
        point = random_qt_point(rng, 3, max_part=4)
        m = AtPoint(point)
        lams = enumerate_sub((3, 2, 1))
        for nu in lams:
            for mu in enumerate_sub(nu):
                delta = m.one if mu == nu else m.zero
                both = []
                for first, second in (("first", "second"), ("second", "first")):
                    tot = m.zero
                    for lam in enumerate_sub(nu):
                        if contains(lam, mu):
                            tot = tot + stirling(first, nu, lam, m) * \
                                stirling(second, lam, mu, m)
                    both.append(tot)
                assert both[0] == delta and both[1] == delta, (nu, mu)


def _inversion_failures(bound, mode):
    """The (nu, mu) below ``bound`` where sum_lam S1(nu, lam) S2(lam, mu)
    is not delta(nu, mu)."""
    return [(nu, mu) for nu in enumerate_sub(bound) for mu in enumerate_sub(nu)
            if sum(stirling("first", nu, lam, mode) * stirling("second", lam, mu, mode)
                   for lam in enumerate_sub(nu) if contains(lam, mu)) != (nu == mu)]


# Faults of the binomial limits b: each one-box value doubled, which the
# recursion carries into every off-diagonal b, or every off-diagonal b plus
# one.  Doubling every off-diagonal b in the recursion multiplies b(lam, mu)
# by 2^{|lam| - |mu|}, a grading that S1 S2 = I does not see.
B_FAULTS = [
    pytest.param(lambda lam, mu, b: 2 * b if weight(lam) - weight(mu) == 1 else b,
                 id="one-box-doubled"),
    pytest.param(lambda lam, mu, b: b if lam == mu else b + 1, id="off-diagonal-plus-one"),
]


@pytest.mark.parametrize("fault", B_FAULTS)
def test_stirling_inversion_sees_a_fault_in_the_inner_limits(monkeypatch, fault):
    """S1 S2 = I tests the inner limits: v's and u's come from the binomial
    limits b at T = 1/t and at T = t, neither solved from the other, so a
    fault of b breaks the inversion."""
    import qtspecials.specials as specials

    bound = (2, 2, 1)
    assert _inversion_failures(bound, QtPoint(Rational(2, 7), Rational(5, 11), n=3).mode) == []
    b = specials._b
    monkeypatch.setattr(specials, "_b", lambda lam, mu, *args: fault(lam, mu, b(lam, mu, *args)))
    assert _inversion_failures(bound, QtPoint(Rational(2, 7), Rational(5, 11), n=3).mode)


def test_stirling_defining_expansion(mode):
    for Q in (Rational(5, 8), Rational(3, 11), Rational(9, 2)):
        for lam in enumerate_sub((2, 2)):
            assert stirling_expansion_residual(lam, Q, mode) == 0


def test_stirling_vanishes_off_poset(mode):
    assert stirling("first", (1, 1), (2, 0), mode) == 0
    assert stirling("second", (1, 0), (1, 1), mode) == 0


def test_stirling_table():
    m = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5)))
    table = StirlingTable.build("first", (2, 1), m)
    assert table.kind == "first" and table.n == 2
    for (nu, mu), val in table.entries.items():
        assert contains(nu, mu)
        if nu == mu:
            assert val == 1


@pytest.mark.parametrize("kind", STIRLING_KINDS)
def test_stirling_table_fields(kind):
    m = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5)))
    table = StirlingTable.build(kind, [2, 1], m)
    assert (table.kind, table.n, table.bound) == (kind, 2, (2, 1))
    pairs = [(nu, mu) for nu in enumerate_sub((2, 1)) for mu in enumerate_sub(nu)]
    assert list(table.entries) == pairs
    assert all(table.entries[nu, mu] == stirling(kind, nu, mu, m) for nu, mu in pairs)


def test_stirling_alpha_mode_guard():
    fmode = FormalQ.alpha(1)
    with pytest.raises(UnsupportedRegime):
        stirling("second", (1, 1), (1, 0), fmode)
    # n = 1 works because t never enters
    v = stirling("second", (3,), (2,), fmode)
    assert limit_at_one(v) == 3


STIRLING_Q, STIRLING_T = Rational(2, 7), Rational(3, 5)


def _stirling_point():
    return QtPoint(STIRLING_Q, STIRLING_T, n=3, max_part=4)


def test_stirling_tables_on_one_mode_match_fresh_modes():
    """Both tables below (2,2,1) on one shared mode, against every entry
    computed alone in a fresh AtPoint (the construction before sharing)."""
    mode = _stirling_point().mode
    for kind in STIRLING_KINDS:
        table = StirlingTable.build(kind, (2, 2, 1), mode)
        for (nu, mu), val in table.entries.items():
            assert val == stirling(kind, nu, mu, AtPoint(_stirling_point())), (kind, nu, mu)


def test_second_stirling_build_on_one_mode_reuses_every_coefficient(monkeypatch):
    import qtspecials.specials as specials

    mode = _stirling_point().mode
    first = {kind: StirlingTable.build(kind, (2, 2, 1), mode) for kind in STIRLING_KINDS}

    def no_recompute(*args):
        raise AssertionError("u/v coefficient recomputed")

    monkeypatch.setattr(specials, "u_coeff", no_recompute)
    monkeypatch.setattr(specials, "v_coeff", no_recompute)
    for kind in STIRLING_KINDS:
        assert StirlingTable.build(kind, (2, 2, 1), mode).entries == first[kind].entries


def _d_vanishes(lam, mu, T):
    """D = sum_i (lam_i - mu_i) T^{1-i} of the one-box recursion is 0: the
    pairs whose inner limit takes the formal binomial."""
    return sum((li - mi) * T ** -i for i, (li, mi) in enumerate(zip(lam, mu))) == 0


def test_both_stirling_builds_take_no_formal_limit_of_v(monkeypatch):
    """The inner limits of u and v are Rational recursions: at a generic
    point both tables run no formal u_coeff, v_coeff or qt_binomial; at
    t = -2 the formal qt_binomial runs once on each pair with D = 0 at
    T = 1/t (v's limits) and once on each at T = t (u's limits), and on no
    other."""
    import qtspecials.specials as specials

    formal = []

    def counting(name, fn):
        def call(lam, mu, mode):
            if not mode.is_point:
                formal.append((name, lam, mu))
            return fn(lam, mu, mode)
        return call

    for name in ("u_coeff", "v_coeff", "qt_binomial"):
        monkeypatch.setattr(specials, name, counting(name, getattr(specials, name)))
    bound = (2, 2, 1)
    for t, expect_formal in ((STIRLING_T, False), (Rational(-2), True)):
        formal.clear()
        mode = QtPoint(STIRLING_Q, t, n=3, max_part=4).mode
        for kind in STIRLING_KINDS:
            StirlingTable.build(kind, bound, mode)
        expect = sorted(("qt_binomial", lam, mu) for T in (1 / t, t)
                        for lam in enumerate_sub(bound)
                        for mu in enumerate_sub(lam) if lam != mu and _d_vanishes(lam, mu, T))
        assert bool(expect) == expect_formal, t
        assert sorted(formal) == expect, t


def test_both_stirling_builds_at_a_generic_point_build_no_formal_mode(monkeypatch):
    """Away from D = 0 a Stirling table at a point constructs no FormalQ:
    its inner limits are Rationals, kept in the point's own cache."""
    from qtspecials import wcore

    built = []
    init = wcore.FormalQ.__init__

    def counting(self, t0):
        built.append(t0)
        init(self, t0)

    monkeypatch.setattr(wcore.FormalQ, "__init__", counting)
    mode = QtPoint(Rational(2, 7), Rational(5, 11), n=3, max_part=4).mode
    for kind in STIRLING_KINDS:
        StirlingTable.build(kind, (2, 2, 1), mode)
    assert built == []


UV_POINTS = [
    pytest.param(Rational(2, 7), Rational(5, 11), id="2/7-5/11"),
    pytest.param(Rational(-3, 5), Rational(7, 4), id="-3/5-7/4"),
]


@pytest.mark.parametrize("q,t", UV_POINTS)
def test_solved_point_v_matches_the_s_up_family(q, t):
    """v solved from u at a point against v_coeff, a monomial times the
    binomial of the independent s_up family, computed in a fresh mode; on
    the diagonal, u(lam, lam) v_coeff(lam, lam) = 1."""
    from qtspecials.specials import _v

    solved = QtPoint(q, t, n=4, max_part=4).mode
    direct = AtPoint(QtPoint(q, t, n=4, max_part=4))
    pairs = {(lam, mu) for bound in ((3, 2, 1), (2, 2, 2), (3, 3), (3, 2, 1, 1))
             for lam in enumerate_sub(bound) for mu in enumerate_sub(lam)}
    for lam, mu in sorted(pairs):
        v = v_coeff(lam, mu, direct)
        assert _v(lam, mu, solved) == v, (lam, mu)
        if lam == mu:
            assert u_coeff(lam, lam, direct) * v == 1, lam


def test_both_stirling_builds_at_a_point_build_no_s_up_family():
    """At a point v is solved from u, so both tables leave no binomial and
    no s_up W value in the point's cache."""
    mode = _stirling_point().mode
    for kind in STIRLING_KINDS:
        StirlingTable.build(kind, (2, 2, 1), mode)
    kinds = {key[0] for key in mode.cache}
    assert "binom" not in kinds
    assert not [key for key in mode.cache if key[0] in ("W", "skew") and key[1] == "s_up"]
    assert {"u", "v", "W", "skew"} <= kinds


def test_direct_inner_limits_of_u_and_v_are_inverse_matrices():
    """sum_kappa u_lim(lam, kappa) v_lim(kappa, mu) = delta, both limits
    taken directly: the identity by which the Stirling sum solves the inner
    u from the inner v."""
    from qtspecials.specials import _limit

    for t0 in (Rational(5, 11), Rational(-7, 3)):
        inner = FormalQ(1 / t0)
        for lam in enumerate_sub((3, 2, 1)):
            for mu in enumerate_sub(lam):
                total = sum(_limit(u_coeff, (lam, kappa), inner)
                            * _limit(v_coeff, (kappa, mu), inner)
                            for kappa in enumerate_sub(lam) if contains(kappa, mu))
                assert total == (lam == mu), (t0, lam, mu)


class _ReciprocalMode(FormalQ):
    """Formal mode whose slots hold (1/q, 1/t0): the parameters at which the
    Stirling inner limit is defined, typed out as the reference for the
    plain FormalQ(1/t0) in which it is taken."""

    def __init__(self, t0):
        super().__init__(1 / t0)
        self.q = RatFuncQ.generator() ** -1


def _inner_limit_cases():
    for t0 in (Rational(3, 5), Rational(7, 2)):
        yield FormalQ(t0), _ReciprocalMode(t0), (2, 2, 1)
    # t = q^a has no rational t0: its one-part inner limits, taken at t0 = 1,
    # equal the reference at two t0, so they do not depend on t
    for a in (1, 2):
        for t0 in (Rational(1), Rational(7, 2)):
            yield FormalQ.alpha(a), _ReciprocalMode(t0), (4,)


def test_inner_limits_match_the_reciprocal_mode():
    """Both inner limits of a formal outer mode, v's (reciprocal) and u's,
    against the limits of v_coeff and u_coeff at (1/q, 1/t0)."""
    from qtspecials.specials import _inner_limit

    for outer, recip, bound in _inner_limit_cases():
        for lam in enumerate_sub(bound):
            for mu in enumerate_sub(lam):
                for coeff, reciprocal in ((u_coeff, False), (v_coeff, True)):
                    expect = outer.lift(limit_at_one(coeff(lam, mu, recip)))
                    got = _inner_limit(lam, mu, reciprocal, outer)
                    assert got == expect, (outer, coeff.__name__, lam, mu)


@pytest.mark.parametrize("t0", [Rational(3, 5), Rational(-2)], ids=str)
def test_u_at_reciprocal_parameters_is_v(t0):
    """u(lam, mu) at (1/q, 1/t0) is v(lam, mu) at (q, t0), as formal values:
    both expand (x; q, t0)_lam over mu in the powers x^{|mu|} (the binomial
    theorem), and they agree term by term, so u's inner limit is v's at
    T = t0.  Compared in their stored forms, not only as functions."""
    recip, direct = _ReciprocalMode(t0), FormalQ(t0)
    pairs = {(lam, mu) for bound in ((2, 2, 1), (3, 2))
             for lam in enumerate_sub(bound) for mu in enumerate_sub(lam)}
    assert len(pairs) == 80
    for lam, mu in sorted(pairs):
        u, v = u_coeff(lam, mu, recip), v_coeff(lam, mu, direct)
        assert isinstance(u, RatFuncQ) and _exact_form(u) == _exact_form(v), (lam, mu)


# Two identities of the inner limits, observed here rather than proved.  Let
# b(lam, mu) be the limit at q = 1 of qt_binomial(lam, mu) in FormalQ(T).
# (1) One box: for nu = mu + e_i, b(nu, mu) = (nu_i - nu_{i+1}) T^{1-i} [i]_T
#     with nu_{n+1} = 0.  test_one_box_limit: 64 one-box pairs at each of
#     five T, 320 cases, 0 failures.
# (2) The recursion D b(lam, mu) = sum_i T^{1-i} b(lam, mu + e_i) b(mu + e_i, mu)
#     over partitions mu + e_i inside lam, D = sum_i (lam_i - mu_i) T^{1-i},
#     with the formal limit where D = 0.  v's inner limit takes it at
#     T = 1/t, u's at T = t (test_u_at_reciprocal_parameters_is_v).
#     test_recursive_inner_limits_match_the_formal_family: 286 pairs at
#     each of four points, u and v, 2288 cases, 0 failures.
ONE_BOX_T = [Rational(1, 3), Rational(11, 5), Rational(-7, 3), Rational(-1, 2), Rational(-2)]


def _one_box_pairs(bounds):
    pairs = set()
    for bound in bounds:
        for nu in enumerate_sub(bound):
            for i in range(len(nu)):
                mu = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
                if nu[i] and is_partition(mu):
                    pairs.add((nu, mu, i + 1))
    return sorted(pairs)


@pytest.mark.parametrize("T", ONE_BOX_T, ids=str)
def test_one_box_limit(T):
    pairs = _one_box_pairs([(3, 2, 1), (2, 2, 2, 1), (3, 3, 1), (5, 2)])
    assert len(pairs) == 64
    inner = FormalQ(T)
    for nu, mu, i in pairs:
        nxt = nu[i] if i < len(nu) else 0
        expect = (nu[i - 1] - nxt) * T ** (1 - i) * sum(T ** k for k in range(i))
        assert limit_at_one(qt_binomial(nu, mu, inner)) == expect, (T, nu, mu)


@pytest.mark.parametrize("q,t", [
    pytest.param(Rational(2, 7), Rational(5, 11), id="2/7-5/11"),
    pytest.param(Rational(-3, 5), Rational(7, 4), id="-3/5-7/4"),
    pytest.param(Rational(2, 7), Rational(-2), id="2/7--2"),
    pytest.param(Rational(2, 7), Rational(-1, 2), id="2/7--1/2"),
])
def test_recursive_inner_limits_match_the_formal_family(q, t):
    """The inner u and v of a point, from the one-box recursion at T = t and
    at T = 1/t, against the limits of u_coeff and v_coeff built formally in
    a fresh FormalQ(1/t)."""
    from qtspecials.specials import _inner_limit

    mode = QtPoint(q, t, n=4, max_part=4).mode
    direct = FormalQ(1 / t)
    pairs = sorted({(lam, mu) for bound in ((3, 2, 1), (2, 2, 2), (3, 3), (3, 2, 1, 1))
                    for lam in enumerate_sub(bound) for mu in enumerate_sub(lam)})
    assert len(pairs) == 286
    for lam, mu in pairs:
        u, v = (_inner_limit(lam, mu, reciprocal, mode) for reciprocal in (False, True))
        assert u == limit_at_one(u_coeff(lam, mu, direct)), (lam, mu)
        assert v == limit_at_one(v_coeff(lam, mu, direct)), (lam, mu)


def _old_v_coeff(lam, mu, mode):
    """v as a product of its own factors, without the binomial."""
    if not contains(lam, mu):
        return mode.zero
    n, wm = len(mu), weight(mu)
    sign = mode.one if wm % 2 == 0 else -mode.one
    pref = sign * mode.qpow(wm + n_prime_stat(mu)) * mode.tpow(n_stat(mu) + (1 - n) * wm)
    return pref / poch_norm(mu, mode) * pair_ratio(mu, mode) * \
        w_principal("s_up", mu, lam, mode)


@pytest.mark.parametrize("make_mode", [
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(3, 5))), id="point"),
    pytest.param(lambda: FormalQ(Rational(3, 5)), id="formal-t0"),
])
def test_v_coeff_matches_its_product_formula(make_mode):
    mode = make_mode()
    for lam in enumerate_sub((3, 2, 1)):
        for mu in enumerate_sub(lam):
            assert v_coeff(lam, mu, mode) == _old_v_coeff(lam, mu, mode), (lam, mu)



def _two_branch_stirling(kind, nu, mu, mode, inner):
    """Both Stirling kinds as two separate sums, each written out in full:
    the reference for the one sum that serves both kinds.  Both inner
    limits are the formal limits of u_coeff and v_coeff in ``inner``, the
    FormalQ(1/t0) of ``mode``."""
    from qtspecials.specials import _limit

    if not contains(nu, mu):
        return mode.zero
    n = len(nu)
    den = mode.one
    for i in range(1, n + 1):
        den = den * (mode.one - mode.q * mode.tpow(n - i)) ** (nu[i - 1] - mu[i - 1])
    total = mode.zero
    if kind == "first":
        pref = guarded_div(
            mode.qpow(n_prime_stat(nu)) * mode.tpow(-2 * n_stat(mu) + (n - 1) * weight(mu)),
            den, "Stirling prefactor")
        for lam in enumerate_sub(nu):
            if not contains(lam, mu):
                continue
            ul = u_coeff(nu, lam, mode)
            if ul == 0:
                continue
            lim = _limit(v_coeff, (lam, mu), inner)
            if lim == 0:
                continue
            total = total + ul * mode.tpow((1 - n) * weight(lam)) * mode.lift(lim)
    else:
        pref = guarded_div(
            mode.qpow(-n_prime_stat(mu)) * mode.tpow(2 * n_stat(nu) + (1 - n) * weight(nu)),
            den, "Stirling prefactor")
        for lam in enumerate_sub(nu):
            if not contains(lam, mu):
                continue
            lim = _limit(u_coeff, (nu, lam), inner)
            if lim == 0:
                continue
            vl = v_coeff(lam, mu, mode)
            if vl == 0:
                continue
            total = total + mode.lift(lim) * mode.tpow((n - 1) * weight(lam)) * vl
    return pref * total


def _exact_form(x):
    """A value as stored: a Rational, or the (num, den) polynomials of a
    RatFuncQ, so that equal values in different forms compare unequal."""
    return (x.num, x.den) if isinstance(x, RatFuncQ) else (type(x), x)


@pytest.mark.parametrize("make_mode,bound", [
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(5, 11), n=3, max_part=4)),
                 (2, 2, 1), id="point-2/7-5/11"),
    pytest.param(lambda: AtPoint(QtPoint(Rational(-3, 4), Rational(7, 3), n=3, max_part=4)),
                 (2, 2, 1), id="point--3/4-7/3"),
    pytest.param(lambda: AtPoint(QtPoint(Rational(2, 7), Rational(5, 11), n=3, max_part=5)),
                 (3, 2, 1), id="point-2/7-5/11-321"),
    pytest.param(lambda: FormalQ(Rational(3, 5)), (2, 2, 1), id="formal-t0"),
    pytest.param(lambda: FormalQ.alpha(1), (4,), id="alpha-1"),
    pytest.param(lambda: FormalQ.alpha(2), (4,), id="alpha-2"),
])
def test_one_sum_stirling_matches_the_two_branch_sums(make_mode, bound):
    mode = make_mode()
    inner = FormalQ(1 if mode.t0 is None else 1 / mode.t0)
    for kind in STIRLING_KINDS:
        for nu in enumerate_sub(bound):
            for mu in enumerate_sub(nu):
                got = stirling(kind, nu, mu, mode)
                expect = _two_branch_stirling(kind, nu, mu, mode, inner)
                assert _exact_form(got) == _exact_form(expect), (kind, nu, mu)

# -- Bernoulli ----------------------------------------------------------------

def test_bernoulli_first_step(mode):
    # single unknown: beta at (1) solves to -1/(1+q)
    m1 = AtPoint(QtPoint(mode.q, mode.t, n=1, max_part=6))
    assert bernoulli((1,), m1) == -1 / (1 + m1.q)
    assert bernoulli(zeros(2), mode) == 1


def test_bernoulli_recurrence_residual(mode):
    for lam in enumerate_sub((4, 2)):
        if weight(lam) == 0:
            continue
        assert bernoulli_recurrence_residual(lam, mode) == 0, lam


def test_bernoulli_classical_limits():
    expect = classical_bernoulli(4)[1:]
    got = [limit_at_one(bernoulli((m,), FormalQ.alpha(1))) for m in range(1, 5)]
    assert got == expect


def test_bernoulli_alpha_matches_formal_route():
    """The rational solve over alpha-binomials against the limit of the
    formal qt-Bernoulli number, on every lam below (6,) and below (3, 2)."""
    for alpha, bound in product((1, 2), ((6,), (3, 2))):
        for lam in enumerate_sub(bound):
            formal = limit_at_one(bernoulli(lam, FormalQ.alpha(alpha)))
            assert bernoulli_alpha(lam, alpha) == formal, (alpha, lam)


def test_bernoulli_alpha_rejects_alpha_zero_at_every_weight():
    for lam in ((0, 0), (1, 0)):
        with pytest.raises(UnsupportedRegime):
            bernoulli_alpha(lam, 0)


# -- Bell ---------------------------------------------------------------------

def test_bell_trivial(mode):
    assert bell(zeros(2), mode) == 1


def test_bell_matches_direct_sum(mode):
    lam = (1, 1)
    direct = mode.zero
    for mu in enumerate_sub(lam):
        direct = direct + mode.tpow(-n_stat(mu)) * mode.qpow(n_prime_stat(mu)) * \
            stirling("second", lam, mu, mode)
    assert bell(lam, mode) == direct


def test_bell_classical_limits():
    got = [alpha_limit(lambda mo, m=m: bell((m,), mo), 1) for m in range(6)]
    assert got == [classical_bell(m) for m in range(6)]


# -- Catalan -------------------------------------------------------------------

def test_catalan_single_box_is_one():
    m = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5), n=1, max_part=6))
    assert catalan((1,), m) == 1


def test_catalan_rectangular_closed_form(mode):
    n = 2
    for k in (1, 2, 3):
        lhs = catalan((k,) * n, mode)
        closed = (1 - mode.q * mode.tpow(n - 1)) / \
            (1 - mode.qpow(k + 1) * mode.tpow(n - 1))
        for i in range(2, n + 1):
            closed = closed * (1 - mode.q * mode.tpow(n - i)) / \
                (1 - mode.qpow(k) * mode.tpow(n - i))
        from qtspecials.wcore import poch

        for i in range(1, n + 1):
            closed = closed * poch(mode.qpow(1 + k) * mode.tpow(n - i), k, mode) / \
                poch(mode.q * mode.tpow(n - i), k, mode)
        assert lhs == closed, k
    # k = 1 collapses to the short product
    lhs = catalan((1, 1), mode)
    assert lhs == (1 - mode.qpow(2)) / (1 - mode.q)


def test_catalan_degenerate_bracket(mode):
    # for n >= 2 the bracket of e_1 + e_1 vanishes identically
    with pytest.raises(DegenerateParameters):
        catalan((1, 0), mode)


def test_catalan_classical_limits():
    got = [alpha_limit(lambda mo, m=m: catalan((m,), mo), 1) for m in range(6)]
    assert got == [Rational(comb(2 * m, m), m + 1) for m in range(6)]


# -- Fibonacci ------------------------------------------------------------------

def test_fibonacci_base(mode):
    assert fibonacci(zeros(2), mode) == 1


def test_fibonacci_brute_force(mode):
    for lam in [(1, 1), (2, 1), (2, 2)]:
        n = len(lam)
        brute = mode.zero
        for nu in product(*(range(p + 1) for p in lam)):
            mu = tuple(l - v for l, v in zip(lam, nu))
            if not (is_partition(nu) and is_partition(mu)):
                continue
            if not contains(nu, mu):
                continue
            wm = weight(mu)
            brute = brute + mode.qpow(2 * n_prime_stat(mu)) * \
                mode.tpow(2 * (n - 1) * wm - 2 * n_stat(mu)) * \
                qt_binomial(nu, mu, mode)
        assert fibonacci(lam, mode) == brute, lam


def test_fibonacci_classical_limits():
    got = [alpha_limit(lambda mo, m=m: fibonacci((m,), mo), 1) for m in range(10)]
    assert got == classical_fibonacci(10)


# -- alpha limits ----------------------------------------------------------------

def test_alpha_binomial_is_classical_at_alpha_one():
    for mm in range(7):
        for k in range(mm + 1):
            assert binomial_alpha((mm,), (k,), 1) == comb(mm, k)


def test_alpha_bracket_formula():
    # prod_i (z_i + alpha(n-i)) / (1 + alpha(n-i)), from the factorwise limit,
    # and the formal limit of the bracket itself
    for alpha in (1, 2, 3):
        for z in [(3, 1), (2, 2), (4, 0)] + enumerate_sub((3, 2, 1)):
            n = len(z)
            expect = Rational(1)
            for i in range(1, n + 1):
                expect *= Rational(z[i - 1] + alpha * (n - i), 1 + alpha * (n - i))
            assert bracket_alpha(z, alpha) == expect, (alpha, z)
            assert bracket_alpha(z, alpha) == alpha_limit(lambda m: qt_bracket(z, m), alpha)


@pytest.mark.parametrize("alpha", [0, -1, 1.0, "1", None])
def test_alpha_bracket_refuses_an_alpha_that_is_no_positive_int(alpha):
    with pytest.raises(UnsupportedRegime, match="alpha must be a positive integer"):
        bracket_alpha((2, 1), alpha)


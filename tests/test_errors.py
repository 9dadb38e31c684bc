"""Every public function signals a bad argument or a degenerate value with
a QtError, never with a bare builtin exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtspecials import partitions
from qtspecials.binomial import (binom_rect_lower, binom_rect_upper, poch_reciprocal,
                                 qt_binomial, qt_bracket, v_coeff)
from qtspecials.distributions import (DensitySpec, density, distribution_F, exp_E, exp_e,
                                      sample)
from qtspecials.errors import (DegenerateParameters, DivisionByZero, InvalidArgument,
                               InvalidLiteral, LengthMismatch, NotAPartition, NotARational,
                               QtError)
from qtspecials.identities import (check_density_normalization, check_geometric, check_pascal,
                                   run_identity_suite, run_specials_suite)
from qtspecials.partitions import bump, check_partition, enumerate_strips, enumerate_sub, partition
from qtspecials.scalars import RatFuncQ, Rational, UniPoly, as_rational, parse_rational
from qtspecials.specials import (bell, bernoulli, bernoulli_alpha, binomial_alpha,
                                 bracket_alpha, catalan, fibonacci, stirling)
from qtspecials.wcore import AtPoint, QtPoint, norm_weight, poch, poch_partition, pochm

POINT = QtPoint(Rational(1, 3), Rational(1, 2), n=2, max_part=6)
Z = Rational(1, 100)


def _spec(**kw):
    return DensitySpec(**{"kind": "binomial_g", "z": Z, "point": POINT, "lam": (2, 1), **kw})


CASES = [
    ("qt_binomial length", LengthMismatch, lambda m: qt_binomial((2, 1), (1,), m)),
    ("stirling length", LengthMismatch, lambda m: stirling("first", (2, 1), (1,), m)),
    ("stirling kind", InvalidArgument, lambda m: stirling("third", (2,), (1,), m)),
    ("binom_rect_lower k", InvalidArgument, lambda m: binom_rect_lower((2, 1), -1, m)),
    ("binom_rect_upper k", InvalidArgument, lambda m: binom_rect_upper(-1, (1, 0), m)),
    ("density kind", InvalidArgument, lambda m: _spec(kind="beta")),
    ("poisson with lam", InvalidArgument, lambda m: _spec(kind="poisson")),
    ("binomial without lam", InvalidArgument, lambda m: _spec(lam=None)),
    ("density outside poset", InvalidArgument, lambda m: density(_spec(), (3, 0))),
    ("distribution_F outside poset", InvalidArgument,
     lambda m: distribution_F((2, 1), (3, 0), Z, POINT)),
    ("normalization which", InvalidArgument,
     lambda m: check_density_normalization((2, 1), Z, "h", m)),
    ("check_geometric trunc", InvalidArgument,
     lambda m: check_geometric((0,), Z, 5, -2, QtPoint(Rational(1, 3), Rational(1, 2)))),
    ("check_geometric part_cap", InvalidArgument,
     lambda m: check_geometric((0,), Z, -1, 10, QtPoint(Rational(1, 3), Rational(1, 2)))),
    ("poch negative order, vanishing factor", DegenerateParameters,
     lambda m: poch(m.q, -1, m)),
    ("poch float order", InvalidArgument, lambda m: poch(Rational(1, 5), 2.0, m)),
    ("poch str order", InvalidArgument, lambda m: poch(Rational(1, 5), "2", m)),
    ("poch None order", InvalidArgument, lambda m: poch(Rational(1, 5), None, m)),
    ("bracket_alpha float part", InvalidArgument, lambda m: bracket_alpha((2.5, 1), 2)),
    ("bracket_alpha str part", InvalidArgument, lambda m: bracket_alpha((2, "1"), 2)),
    ("bracket_alpha bool part", InvalidArgument, lambda m: bracket_alpha((True, 0), 2)),
    ("pochm raw scalar", InvalidArgument, lambda m: pochm(1, 0, 2, m, Rational(2, 9))),
    ("catalan of the empty partition", InvalidArgument, lambda m: catalan((), m)),
    ("pascal bump index", InvalidArgument, lambda m: check_pascal((2, 1), 5, 0, m)),
    ("exp_E n", InvalidArgument, lambda m: exp_E(Z, POINT, -1)),
    ("exp_e n", InvalidArgument, lambda m: exp_e(Z, POINT, -1)),
    ("QtPoint n", InvalidArgument, lambda m: QtPoint(Rational(1, 3), Rational(1, 2), n=-1)),
    ("QtPoint max_part", InvalidArgument,
     lambda m: QtPoint(Rational(1, 3), Rational(1, 2), max_part=-5)),
    # a part is an int: none is rounded, and a float index is refused
    # whether or not the equal int index is already cached
    ("partition float part", NotAPartition, lambda m: partition([2.7, 1])),
    ("check_partition float part", NotAPartition, lambda m: check_partition((2.5, 1))),
    ("check_partition str parts", NotAPartition, lambda m: check_partition(("b", "a"))),
    ("qt_binomial float index, warm mode", NotAPartition,
     lambda m: (qt_binomial((2, 1), (1, 0), m), qt_binomial((2.0, 1.0), (1, 0), m))),
    ("qt_binomial float index, fresh mode", NotAPartition,
     lambda m: qt_binomial((2.0, 1.0), (1, 0), AtPoint(QtPoint(Rational(2, 7), Rational(3, 5))))),
    # a memoized function refuses an argument it cannot key
    ("qt_binomial list", InvalidArgument, lambda m: qt_binomial([2, 1], [1, 0], m)),
    ("stirling list", InvalidArgument, lambda m: stirling("first", [2, 1], [1, 0], m)),
    ("bell list", InvalidArgument, lambda m: bell([2, 1], m)),
    ("catalan list", InvalidArgument, lambda m: catalan([1, 1], m)),
    ("binomial_alpha list", InvalidArgument, lambda m: binomial_alpha([2, 1], [1, 0], 1)),
    ("stirling mu not decreasing", NotAPartition,
     lambda m: stirling("first", (2, 1), (0, 3), m)),
    ("bump float index", InvalidArgument, lambda m: bump((2, 1), 1.5)),
    ("bump str index", InvalidArgument, lambda m: bump((2, 1), "1")),
    ("enumerate_sub float weight", InvalidArgument, lambda m: enumerate_sub((3, 1), 2.5)),
    ("enumerate_sub bool weight", InvalidArgument, lambda m: enumerate_sub((3, 1), True)),
    # a size is an int (not a bool)
    ("QtPoint float n", InvalidArgument, lambda m: QtPoint(Rational(1, 3), Rational(1, 2), n=2.5)),
    ("QtPoint bool n", InvalidArgument, lambda m: QtPoint(Rational(1, 3), Rational(1, 2), n=True)),
    ("exp_E float part_cap", InvalidArgument, lambda m: exp_E(Z, POINT, 2, part_cap=3.0)),
    ("DensitySpec float part_cap", InvalidArgument,
     lambda m: _spec(kind="poisson", lam=None, part_cap=2.5)),
    ("run_identity_suite float points", InvalidArgument,
     lambda m: run_identity_suite((1,), points=1.5)),
    ("binom_rect_lower float k", InvalidArgument, lambda m: binom_rect_lower((2, 1), 1.0, m)),
    ("run_identity_suite empty bound", InvalidArgument, lambda m: run_identity_suite(())),
    ("run_specials_suite empty bound", InvalidArgument, lambda m: run_specials_suite(())),
    ("sample negative count", InvalidArgument, lambda m: sample(_spec(), -1, 0)),
]


@pytest.mark.parametrize("error, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_argument_raises_a_qt_error(error, call):
    with pytest.raises(error) as info:
        call(POINT.mode)
    assert isinstance(info.value, QtError)
    # argument errors stay ValueErrors for callers that catch those
    assert error is DegenerateParameters or isinstance(info.value, ValueError)


def test_a_list_lam_is_stored_as_a_partition():
    spec = _spec(lam=[2, 1])
    assert type(spec.lam) is tuple and spec.lam == (2, 1)
    assert density(spec, (1, 0)) == density(_spec(), (1, 0))


def _fresh_mode():
    return QtPoint(Rational(1, 3), Rational(2, 7), n=2, max_part=6).mode


def _int_keys_only(mode):
    """The power tables of ``mode`` and the enumeration memo hold int keys."""
    def ints(p):
        return p is None or all(type(x) is int for x in p)

    assert all(type(k) is int for k in (*mode._qp, *mode._tp))
    assert all(ints(lam) and (k is None or type(k) is int) for lam, k in partitions._SUBS)
    assert all(ints(lam) and ints(mu) for lam, mu in partitions._STRIPS)


# a float index is refused before any cache is read: with the int twin
# (2, 1) computed first ("warm") as on a fresh mode
FLOAT_INDEX_CASES = [
    ("stirling", lambda lam, m: stirling("first", lam, (1, 0), m)),
    ("bernoulli", bernoulli),
    ("binomial_alpha", lambda lam, m: binomial_alpha(lam, (1, 0), 1)),
    ("bernoulli_alpha", lambda lam, m: bernoulli_alpha(lam, 1)),
    ("fibonacci", fibonacci),
    ("enumerate_sub", lambda lam, m: enumerate_sub(lam)),
    ("enumerate_strips", lambda lam, m: enumerate_strips(lam)),
    ("enumerate_strips mu", lambda mu, m: enumerate_strips((2, 1), mu)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("call", [c[1] for c in FLOAT_INDEX_CASES],
                         ids=[c[0] for c in FLOAT_INDEX_CASES])
def test_a_float_index_is_refused_before_the_cache(call, warm):
    mode = _fresh_mode()
    if warm:
        call((2, 1), mode)
    with pytest.raises(NotAPartition):
        call((2.0, 1), mode)


# an exponent or order that is no int never enters a power table or a factor
FLOAT_EXPONENT_CASES = [
    ("qt_bracket", qt_bracket),
    ("poch_partition", lambda lam, m: poch_partition(Z, lam, m)),
    ("norm_weight", norm_weight),
    ("poch_reciprocal", lambda lam, m: poch_reciprocal(Z, lam, m)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("call", [c[1] for c in FLOAT_EXPONENT_CASES],
                         ids=[c[0] for c in FLOAT_EXPONENT_CASES])
def test_a_float_exponent_is_refused_on_a_miss(call, warm):
    mode = _fresh_mode()
    if not warm:
        with pytest.raises(InvalidArgument):
            call((2.0, 1), mode)
    else:
        expect = call((2, 1), mode)
        try:
            got = call((2.0, 1), mode)
        except QtError:
            pass
        else:
            assert type(got) is type(expect) and got == expect
    _int_keys_only(mode)


def test_a_refused_float_exponent_leaves_the_point_usable():
    """A refused call stores nothing: q^2 of the point stays exact."""
    mode = _fresh_mode()
    with pytest.raises(InvalidArgument):
        qt_bracket((2.0, 1), mode)
    assert catalan((1, 1), mode) == catalan((1, 1), _fresh_mode()) == Rational(4, 3)
    _int_keys_only(mode)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_a_negative_part_of_mu_gives_zero(kind):
    """mu may be weakly decreasing with a negative part: the binomial, v and
    the Stirling numbers are then 0, with no n(mu') to take."""
    mode = _fresh_mode()
    assert v_coeff((0,), (-1,), mode) == 0
    assert stirling(kind, (1, 0), (0, -1), mode) == 0


# parts of a malformed index: ints, floats equal to ints, bools, strs and
# negative ints; the int twin of a part is int(part), and a str is its own
_PART = (st.integers(0, 2) | st.integers(0, 2).map(float) | st.booleans()
         | st.sampled_from(["1", "a"]) | st.integers(-2, -1))

SWEEP = {
    "qt_binomial": lambda lam, mu, kind, m: qt_binomial(lam, mu, m),
    "stirling": lambda lam, mu, kind, m: stirling(kind, lam, mu, m),
    "bernoulli": lambda lam, mu, kind, m: bernoulli(lam, m),
    "bell": lambda lam, mu, kind, m: bell(lam, m),
    "catalan": lambda lam, mu, kind, m: catalan(lam, m),
    "fibonacci": lambda lam, mu, kind, m: fibonacci(lam, m),
    "binomial_alpha": lambda lam, mu, kind, m: binomial_alpha(lam, mu, 1),
    "poch_partition": lambda lam, mu, kind, m: poch_partition(Z, lam, m),
    "qt_bracket": lambda lam, mu, kind, m: qt_bracket(lam, m),
    "enumerate_sub": lambda lam, mu, kind, m: enumerate_sub(lam),
}


def _outcome(call, *args):
    """call(*args), or the QtError it raises; any other exception escapes."""
    try:
        return call(*args)
    except QtError as exc:
        return exc


@st.composite
def _malformed_case(draw):
    n = draw(st.integers(1, 2))
    parts = st.lists(_PART, min_size=n, max_size=n).map(tuple)
    return (draw(st.sampled_from(sorted(SWEEP))), draw(parts), draw(parts),
            draw(st.sampled_from(["first", "second"])))


@given(_malformed_case())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_malformed_index_gives_the_int_value_or_a_qt_error(case):
    """On a fresh mode, and on a warm one where the int twin came first, a
    call returns the twin's exact value or raises a QtError, and leaves only
    int keys in the power tables and the enumeration memo."""
    name, lam, mu, kind = case
    call = SWEEP[name]
    twins = [tuple(x if type(x) is str else int(x) for x in p) for p in (lam, mu)]
    warm = _fresh_mode()
    expect = _outcome(call, *twins, kind, warm)
    for mode in (_fresh_mode(), warm):
        got = _outcome(call, lam, mu, kind, mode)
        if not isinstance(got, QtError):
            assert not isinstance(expect, QtError), (name, lam, mu)
            assert type(got) is type(expect) and got == expect, (name, lam, mu)
        _int_keys_only(mode)


Q = RatFuncQ.generator()

SCALAR_CASES = [
    ("as_rational float", NotARational, TypeError, lambda: as_rational(1.5)),
    ("literal", InvalidLiteral, ValueError, lambda: parse_rational("1.5")),
    ("literal zero denominator", DivisionByZero, ZeroDivisionError,
     lambda: parse_rational("3/0")),
    ("zero denominator polynomial", DivisionByZero, ZeroDivisionError,
     lambda: RatFuncQ(UniPoly([1]), UniPoly())),
    ("division by zero", DivisionByZero, ZeroDivisionError, lambda: Q / 0),
    ("zero to a negative power", DivisionByZero, ZeroDivisionError,
     lambda: (Q - Q) ** -1),
    ("monomial negative power", InvalidArgument, ValueError, lambda: UniPoly.monomial(5, -2)),
    ("monomial fractional power", InvalidArgument, ValueError,
     lambda: UniPoly.monomial(1, 1.5)),
    ("monomial string power", InvalidArgument, ValueError, lambda: UniPoly.monomial(1, "2")),
    ("shift_down fractional power", InvalidArgument, ValueError,
     lambda: UniPoly((1, 2, 3)).shift_down(1.5)),
    ("shift_down negative power", InvalidArgument, ValueError,
     lambda: UniPoly((1, 2, 3)).shift_down(-1)),
    ("shift_down past the valuation", InvalidArgument, ValueError,
     lambda: UniPoly((1, 2, 3)).shift_down(5)),
    ("shift_down past a nonzero term", InvalidArgument, ValueError,
     lambda: UniPoly((0, 2, 3)).shift_down(2)),
]


@pytest.mark.parametrize("error, builtin, call", [c[1:] for c in SCALAR_CASES],
                         ids=[c[0] for c in SCALAR_CASES])
def test_scalar_error_is_a_qt_error_and_its_builtin(error, builtin, call):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, QtError)
    # callers that catch the builtin still catch it
    assert isinstance(info.value, builtin)

"""Every public function signals a bad argument or a degenerate value with
a QtError, never with a bare builtin exception."""

import pytest

from qtspecials.binomial import binom_rect_lower, binom_rect_upper, qt_binomial
from qtspecials.distributions import DensitySpec, density, distribution_F, exp_E, exp_e
from qtspecials.errors import (DegenerateParameters, DivisionByZero, InvalidArgument,
                               InvalidLiteral, LengthMismatch, NotARational, QtError)
from qtspecials.identities import check_density_normalization, check_geometric, check_pascal
from qtspecials.scalars import RatFuncQ, Rational, UniPoly, as_rational, parse_rational
from qtspecials.specials import catalan, stirling
from qtspecials.wcore import QtPoint, poch, pochm

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
    ("pochm raw scalar", InvalidArgument, lambda m: pochm(1, 0, 2, m, Rational(2, 9))),
    ("catalan of the empty partition", InvalidArgument, lambda m: catalan((), m)),
    ("pascal bump index", InvalidArgument, lambda m: check_pascal((2, 1), 5, 0, m)),
    ("exp_E n", InvalidArgument, lambda m: exp_E(Z, POINT, -1)),
    ("exp_e n", InvalidArgument, lambda m: exp_e(Z, POINT, -1)),
    ("QtPoint n", InvalidArgument, lambda m: QtPoint(Rational(1, 3), Rational(1, 2), n=-1)),
    ("QtPoint max_part", InvalidArgument,
     lambda m: QtPoint(Rational(1, 3), Rational(1, 2), max_part=-5)),
]


@pytest.mark.parametrize("error, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_argument_raises_a_qt_error(error, call):
    with pytest.raises(error) as info:
        call(POINT.mode)
    assert isinstance(info.value, QtError)
    # argument errors stay ValueErrors for callers that catch those
    assert error is DegenerateParameters or isinstance(info.value, ValueError)


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
    ("evaluation at a pole", DivisionByZero, ZeroDivisionError, lambda: (1 / (Q - 1))(1)),
    ("monomial negative power", InvalidArgument, ValueError, lambda: UniPoly.monomial(5, -2)),
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

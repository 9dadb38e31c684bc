"""Every public function signals a bad argument or a degenerate value with
a QtError, never with a bare builtin exception."""

import pytest

from qtspecials.binomial import binom_rect_lower, binom_rect_upper, qt_binomial
from qtspecials.distributions import DensitySpec, density, distribution_F
from qtspecials.errors import (DegenerateParameters, InvalidArgument, LengthMismatch,
                               QtError)
from qtspecials.identities import check_density_normalization, check_geometric
from qtspecials.scalars import Rational
from qtspecials.specials import stirling
from qtspecials.wcore import QtPoint, poch

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
]


@pytest.mark.parametrize("error, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_argument_raises_a_qt_error(error, call):
    with pytest.raises(error) as info:
        call(POINT.mode)
    assert isinstance(info.value, QtError)
    # argument errors stay ValueErrors for callers that catch those
    assert error is DegenerateParameters or isinstance(info.value, ValueError)

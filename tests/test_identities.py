"""Per-identity checks: collapse cases, classical reductions, random sweeps."""

import random

import pytest

from qtspecials.binomial import gaussian_binomial
from qtspecials.errors import (ConvergenceViolated, DegenerateParameters, InvalidArgument,
                               NotARational)
from qtspecials.identities import (
    IdentityCheck,
    check_2phi1,
    check_binomial_theorem,
    check_density_normalization,
    check_double_binomial,
    check_geometric,
    check_pascal,
    check_symmetry,
    check_weak_cocycle,
    random_qt_point,
    run_identity_suite,
    run_specials_suite,
)
from qtspecials.partitions import enumerate_sub, n_prime_stat, n_stat, weight, zeros
from qtspecials.scalars import Rational
from qtspecials.wcore import AtPoint, FormalQ, QtPoint, poch


@pytest.fixture
def rng():
    return random.Random(11)


@pytest.mark.parametrize("suite", [run_identity_suite, run_specials_suite])
@pytest.mark.parametrize("points", [0, -1])
def test_suites_reject_fewer_than_one_point(suite, points):
    """Zero points used to report all_pass over zero checks."""
    with pytest.raises(InvalidArgument, match="points must be at least 1"):
        suite((1, 0), points=points)


def test_binomial_theorem_collapses(mode):
    # x = 0: only mu = 0^n survives on the right
    c = check_binomial_theorem((2, 1), Rational(0), mode)
    assert c.lhs == 1 and c.passed
    # x = 1: the left side vanishes for lam != 0^n (alternating-sum analogue)
    c = check_binomial_theorem((2, 1), Rational(1), mode)
    assert c.lhs == 0 and c.passed
    # x = -1: the doubling analogue
    c = check_binomial_theorem((2, 1), Rational(-1), mode)
    assert c.passed


def test_binomial_theorem_random(mode):
    c = check_binomial_theorem((2, 1), Rational(3, 7), mode)
    assert c.residual == 0


def test_2phi1_forced_collapse(mode):
    # x = 1 kills every term except mu = 0^n on the right; both sides are 1
    c = check_2phi1((2, 1), Rational(5, 9), Rational(1), mode)
    assert c.lhs == 1 and c.passed


def test_2phi1_classical_one_dimensional():
    m = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5), n=1, max_part=6))
    for mm in range(6):
        c = check_2phi1((mm,), Rational(5, 9), Rational(4, 11), m)
        assert c.passed, mm


def test_2phi1_random_small(mode):
    assert check_2phi1((1, 0), Rational(5, 9), Rational(4, 11), mode).passed
    assert check_2phi1((2, 2), Rational(5, 9), Rational(4, 11), mode).passed


def test_pascal_trivial_and_classical(mode):
    c = check_pascal((2, 1), 1, 0, mode)
    assert c.lhs == 1 and c.rhs == 1 and c.passed
    # n = 1 is the classical bump rule for Gaussian polynomials
    m1 = AtPoint(QtPoint(Rational(2, 7), Rational(3, 5), n=1, max_part=7))
    for mm in range(5):
        for k in range(mm + 2):
            c = check_pascal((mm,), 1, k, m1)
            assert c.passed
            # independent transcription of the classical rule
            lhs = m1.qpow(k * (k - 1) // 2) * gaussian_binomial(mm + 1, k, m1)
            rhs = m1.qpow(k * (k - 1) // 2) * gaussian_binomial(mm, k, m1)
            if k >= 1:
                rhs = rhs + m1.qpow(mm + (k - 1) * (k - 2) // 2) * \
                    gaussian_binomial(mm, k - 1, m1)
            assert lhs == rhs


def test_pascal_random(mode):
    assert check_pascal((2, 1), 2, 2, mode).passed
    assert check_pascal((3, 1), 1, 3, mode).passed


def test_symmetry(mode):
    for lam in [(2, 1), (3, 2)]:
        w = weight(lam)
        assert check_symmetry(lam, 0, mode).passed
        assert check_symmetry(lam, w, mode).passed
        for k in range(w + 1):
            assert check_symmetry(lam, k, mode).passed


def test_weak_cocycle_diagonal_collapse(mode):
    s, r = Rational(5, 9), Rational(4, 11)
    c = check_weak_cocycle((2, 1), (2, 1), s, r, mode)
    assert c.passed


def test_weak_cocycle_at_r_equal_one(mode):
    s = Rational(5, 9)
    # mu = 0^n collapses cleanly: only lam = 0^n survives on the right
    c = check_weak_cocycle((2, 1), (0, 0), s, Rational(1), mode)
    assert c.passed
    # mu != 0^n: each surviving term hits a genuine pole of the shifted
    # product (the (r)_lam zero multiplies it), so the point is degenerate
    with pytest.raises((DegenerateParameters, ZeroDivisionError)):
        check_weak_cocycle((2, 1), (1, 0), s, Rational(1), mode)
    # just off r = 1 everything is finite again and exact
    c = check_weak_cocycle((2, 1), (1, 0), s, 1 + Rational(1, 10 ** 6), mode)
    assert c.passed


def test_weak_cocycle_random(mode):
    assert check_weak_cocycle((2, 1), (1, 0), Rational(5, 9), Rational(4, 11),
                              mode).passed


def test_double_binomial_cases(mode):
    # mu = nu: single term
    c = check_double_binomial((2, 1), (2, 1), mode)
    assert c.passed
    assert c.lhs == mode.tpow(-n_stat((2, 1))) * mode.qpow(n_prime_stat((2, 1)))
    # mu = 0^n reduces to the doubling analogue of the binomial theorem
    c = check_double_binomial((2, 1), (0, 0), mode)
    assert c.passed
    from qtspecials.wcore import poch_partition

    lhs_indep = poch_partition(-mode.one, (2, 1), mode)
    assert c.lhs == lhs_indep
    assert check_double_binomial((2, 2), (1, 0), mode).passed


def test_density_normalization(mode):
    for which in ("g", "f"):
        c = check_density_normalization((0, 0), Rational(1, 5), which, mode)
        assert c.lhs == 1 and c.passed
        c = check_density_normalization((2, 1), Rational(1, 5), which, mode)
        assert c.passed


@pytest.mark.parametrize("check,params", [
    (lambda m: check_density_normalization((2, 1), Rational(1, 5), "g", m), {"lam": "2,1"}),
    (lambda m: check_2phi1((2, 1), Rational(1, 5), Rational(2, 3), m), {"lam": "2,1"}),
    (lambda m: check_binomial_theorem((2, 1), Rational(2, 3), m), {"lam": "2,1"}),
    (lambda m: check_weak_cocycle((2, 1), (1, 0), Rational(1, 5), Rational(2, 3), m),
     {"nu": "2,1", "mu": "1,0"}),
], ids=["density_normalization", "2phi1", "binomial_theorem", "weak_cocycle"])
def test_formal_checks_leave_their_scalars_out_of_the_params(check, params):
    c = check(FormalQ(Rational(3, 5)))
    assert c.residual == 0 and c.passed
    assert c.params == params


def test_a_formal_residual_constant_in_q_is_recorded_as_that_rational():
    c = check_2phi1((2, 1), Rational(1, 5), Rational(2, 3), FormalQ(Rational(3, 5)))
    assert c.to_record()["residual"] == "0/1"
    mode = FormalQ(Rational(3, 5))
    for residual, shown in ((mode.one - mode.q + mode.q, "1/1"),
                            (mode.q / mode.q * Rational(-2, 7), "-2/7")):
        assert IdentityCheck("constant", 0, 0, residual, {}).to_record()["residual"] == shown


@pytest.mark.parametrize("residual", [lambda m: m.q, lambda m: m.one / (m.q - 1)],
                         ids=["q", "pole at 1"])
def test_a_formal_residual_that_varies_with_q_has_no_record(residual):
    mode = FormalQ(Rational(3, 5))
    check = IdentityCheck("varying", 0, 0, residual(mode), {})
    with pytest.raises(NotARational, match="varying"):
        check.to_record()


def test_geometric_stated_point():
    pt = QtPoint(Rational(1, 2), Rational(1, 3), n=1, max_part=25)
    c = check_geometric((1,), Rational(1, 10), 25, 40, pt)
    assert c.approximate and c.passed
    assert abs(c.residual) < Rational(1, 10 ** 8)


def test_geometric_residual_shrinks_with_caps():
    pt = QtPoint(Rational(1, 2), Rational(1, 3), n=2, max_part=9)
    prev = None
    for cap in (2, 4, 6, 8):
        c = check_geometric((1, 0), Rational(1, 50), cap, 40, pt,
                            tolerance=Rational(1))
        if prev is not None:
            assert abs(c.residual) <= prev
        prev = abs(c.residual)
    assert prev < Rational(1, 10 ** 10)


def test_geometric_rejects_divergent_parameters():
    pt = QtPoint(Rational(1, 2), Rational(1, 3), n=1, max_part=5)
    with pytest.raises(ConvergenceViolated):
        check_geometric((0,), Rational(3), 5, 10, pt)
    pt_bad_q = QtPoint(Rational(5, 2), Rational(1, 3), n=1, max_part=5)
    with pytest.raises(ConvergenceViolated):
        check_geometric((0,), Rational(1, 100), 5, 10, pt_bad_q)


def test_suite_small_bounds_all_pass():
    rep = run_identity_suite((2, 1), points=2, seed=3)
    assert rep.all_pass
    assert rep.to_dict()["failures"] == 0


def test_suite_deterministic():
    a = run_identity_suite((2,), points=2, seed=9).to_dict()
    b = run_identity_suite((2,), points=2, seed=9).to_dict()
    assert a == b


def test_random_point_rejects_degenerate(rng):
    pt = random_qt_point(rng, 2, max_part=4)
    assert pt.q != 1 and pt.t != 0


def test_geometric_check_in_no_rows_is_exact():
    check = check_geometric((), Rational(1, 10), 4, 6, QtPoint(Rational(1, 3), Rational(1, 2)))
    assert check.lhs == check.rhs == 1 and check.passed


def test_suite_mode_memoizes_only_multivariable_w_values(monkeypatch):
    from qtspecials import identities

    points = []

    def recording(*args, **kwargs):
        points.append(random_qt_point(*args, **kwargs))
        return points[-1]

    monkeypatch.setattr(identities, "random_qt_point", recording)
    assert run_identity_suite((2, 1), points=1, seed=3).all_pass
    keys = [key for key in points[0].mode.cache if key[0] == "W"]
    assert keys
    # ("W", kind, lam, mu, z, s): one variable is answered by the skew value
    assert all(len(key[4]) > 1 for key in keys)

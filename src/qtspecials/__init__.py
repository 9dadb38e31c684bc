"""Exact arithmetic for partition-indexed qt-analogues of special numbers.

The package computes two-parameter (q, t) deformations of binomial
coefficients, Stirling, Bernoulli, Bell, Catalan and Fibonacci numbers,
all indexed by integer partitions of a fixed length, together with the
probability measures on partition posets they induce.  Every computation
is exact: scalars are arbitrary-precision rationals or rational functions
of a formal q, and every identity the library exposes can be verified to
residual exactly zero.
"""

from .errors import (
    ConvergenceViolated,
    DegenerateParameters,
    DivisionByZero,
    InvalidArgument,
    InvalidLiteral,
    LengthMismatch,
    NotAPartition,
    NotARational,
    NotAStrip,
    PoleAtOne,
    QtError,
    UnsupportedRegime,
)
from .scalars import (
    RatFuncQ,
    Rational,
    UniPoly,
    as_rational,
    backend_name,
    format_rational,
    limit_at_one,
    parse_rational,
)
from .partitions import (
    bump,
    contains,
    enumerate_strips,
    enumerate_sub,
    format_partition,
    is_horizontal_strip,
    parse_partition,
    partition,
    sum_decompositions,
)
from .wcore import (
    AtPoint,
    FormalQ,
    QtPoint,
    ScalarMode,
    h_factor,
    poch,
    poch_partition,
    w_multi,
    w_principal,
    w_rectangular,
    w_skew,
)
from .binomial import (
    binom_e1,
    binom_rect_lower,
    binom_rect_upper,
    gaussian_binomial,
    qt_binomial,
    qt_bracket,
    qt_bracket_shifted,
)

__version__ = "0.1.0"

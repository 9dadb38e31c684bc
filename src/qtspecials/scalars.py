"""Exact scalars: arbitrary-precision rationals and rational functions of q.

Two scalar carriers are used throughout the package:

* ``Rational`` -- an exact fraction kept in lowest terms with a positive
  denominator.  Backed by ``gmpy2.mpq`` when available (much faster on the
  large numerators this package produces), with ``fractions.Fraction`` as a
  pure-Python fallback.  ``QTSPECIALS_BACKEND=gmpy2`` (the default) uses
  gmpy2 if it imports and otherwise falls back to ``fractions`` without a
  warning; ``backend_name()`` says which one is active.  Set
  ``QTSPECIALS_BACKEND=fractions`` to force the fallback.

* ``RatFuncQ`` -- a quotient of two polynomials in a single formal variable
  q with Rational coefficients.  It carries a value in q only so that its
  limit at q = 1 can be taken exactly, by counting the (q - 1) factors of
  numerator and denominator; it is never evaluated at any other point.
  Its polynomials (``UniPoly``) are Python ints over one common denominator.

No floating point enters any computation here.
"""

from __future__ import annotations

import os
import re
from itertools import accumulate
from math import gcd, lcm

_BACKEND = os.environ.get("QTSPECIALS_BACKEND", "gmpy2")
if _BACKEND == "gmpy2":
    try:
        from gmpy2 import mpq as Rational
    except ImportError:  # pragma: no cover - exercised only without gmpy2
        from fractions import Fraction as Rational
        _BACKEND = "fractions"
elif _BACKEND == "fractions":
    from fractions import Fraction as Rational
else:  # pragma: no cover
    raise ImportError(f"unknown QTSPECIALS_BACKEND {_BACKEND!r}")

from .errors import DivisionByZero, InvalidArgument, InvalidLiteral, NotARational, PoleAtOne

ONE = Rational(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


def backend_name() -> str:
    """Name of the active rational backend ('gmpy2' or 'fractions')."""
    return _BACKEND


def as_rational(x) -> Rational:
    """Coerce an int, string literal or rational-like value to Rational."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):
        return Rational(x)
    if isinstance(x, str):
        return parse_rational(x)
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return Rational(int(x.numerator), int(x.denominator))
    raise NotARational(f"cannot interpret {x!r} as an exact rational")


# Python's int <-> str conversions refuse more digits than a per-process
# limit (4300 by default, never below 640 unless disabled).  Pieces of at
# most this many digits are always converted by plain int()/str(); longer
# ones are split on a power of ten.  No global interpreter state is touched.
_PLAIN_DIGITS = 600


def _parse_int(s: str) -> int:
    """int(s) for an optionally signed run of decimal digits of any length."""
    powers = {}

    def value(d: str) -> int:
        if len(d) <= _PLAIN_DIGITS:
            return int(d)
        low = len(d) // 2
        if low not in powers:
            powers[low] = 10 ** low
        return value(d[:-low]) * powers[low] + value(d[-low:])

    n = value(s.lstrip("+-"))
    return -n if s.startswith("-") else n


def _format_int(n) -> str:
    """str(n) for an integer of any size; identical wherever str(n) works."""
    if not isinstance(n, int):  # gmpy2's mpz has no digit limit
        return str(n)
    if n < 0:
        return "-" + _format_int(-n)
    width = n.bit_length() * 1234 // 4096 + 1  # >= decimal digits of n
    if width <= _PLAIN_DIGITS:
        return str(n)
    powers = {}

    def padded(m: int, w: int) -> str:
        """The w low decimal digits of m (m < 10**w), zero-padded."""
        if w <= _PLAIN_DIGITS:
            return str(m).zfill(w)
        low = w // 2
        if low not in powers:
            powers[low] = 10 ** low
        hi, lo = divmod(m, powers[low])
        return padded(hi, w - low) + padded(lo, low)

    return padded(n, width).lstrip("0")


def parse_rational(text: str) -> Rational:
    """Parse a "p" or "p/q" literal; rejects q = 0 and anything non-integer.

    Literals of any length are accepted, so everything ``format_rational``
    emits parses back to the same value.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise InvalidLiteral(f"not a rational literal: {text!r}")
    if "/" in s:
        p, q = s.split("/")
        den = _parse_int(q)
        if den == 0:
            raise DivisionByZero(f"zero denominator in literal {text!r}")
        return Rational(_parse_int(p), den)
    return Rational(_parse_int(s))


def format_rational(x) -> str:
    """Render a rational as "p/q", always with an explicit denominator.

    Numerator and denominator of any size are written out in full, also
    past Python's int-to-str digit limit.
    """
    x = as_rational(x)
    return f"{_format_int(x.numerator)}/{_format_int(x.denominator)}"


def prod_ints(num, den=()) -> tuple:
    """The numerator and denominator of prod(num) / prod(den), Rational
    factors multiplied as ints and left unreduced."""
    n = d = 1
    for f in num:
        n *= f.numerator
        d *= f.denominator
    for f in den:
        n *= f.denominator
        d *= f.numerator
    return n, d


def sum_rationals(terms) -> Rational:
    """The sum of prod(fs) over the Rational factor lists fs in ``terms``:
    the one exact sum of the library.  Each term is multiplied as ints, the
    terms are added over the least common multiple of their denominators,
    and the sum is reduced once, by one Rational; adding one term at a time
    would reduce after every addition."""
    parts = [prod_ints(fs) for fs in terms]
    den = lcm(*(d for _, d in parts))
    return Rational(sum(n * (den // d) for n, d in parts), den)


# Products whose shorter operand is longer than this are one big-int product:
# on the q -> 1 limits, cutoffs 10 to 14 were equally fast, 8 and 16 slower.
_KRONECKER_MIN = 12


def _kronecker_mul(a, b) -> list:
    """The ints of a * b by Kronecker substitution: both int lists are read
    as integers at q = 2^w and multiplied once, w whole bytes and every
    product coefficient below 2^(w - 1) in absolute value.  With 2^(w - 1)
    added to every w-bit slot each slot is a nonnegative digit, read off
    without a borrow."""
    k = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
         + min(len(a), len(b)).bit_length() + 1)
    nb = (k + 7) // 8  # whole bytes per slot
    half, from_bytes = 1 << (8 * nb - 1), int.from_bytes
    halves = (b"\0" * (nb - 1) + b"\x80") * (len(a) + len(b) - 1)  # half in every slot

    def pack(p):
        return (from_bytes(b"".join([(c + half).to_bytes(nb, "little") for c in p]), "little")
                - from_bytes(halves[:nb * len(p)], "little"))

    digits = (pack(a) * pack(b) + from_bytes(halves, "little")).to_bytes(len(halves), "little")
    return [from_bytes(digits[i:i + nb], "little") - half for i in range(0, len(digits), nb)]


class UniPoly:
    """Dense univariate polynomial in q with Rational coefficients.

    The coefficient of q^k is ``ints[k] / den``, and all arithmetic runs on
    these ints.  Invariants (a canonical form): ``den > 0``,
    ``gcd(den, *ints) == 1`` and no trailing zero, so 0 is ``((), 1)``.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        den = lcm(*(int(c.denominator) for c in cs))
        self._set([int(c.numerator) * (den // int(c.denominator)) for c in cs], den)

    def _set(self, ints: list, den: int) -> None:
        while ints and not ints[-1]:
            ints.pop()
        if den < 0:
            ints, den = [-c for c in ints], -den
        g = gcd(den, *ints) if den != 1 else 1
        if g != 1:
            ints, den = [c // g for c in ints], den // g
        self.ints, self.den = tuple(ints), den

    @classmethod
    def _of(cls, ints: list, den: int = 1) -> "UniPoly":
        """sum(ints[k] q^k) / den for a nonzero den; consumes the list."""
        p = cls.__new__(cls)
        p._set(ints, den)
        return p

    @property
    def coeffs(self) -> tuple:
        """The Rational coefficients, constant term first (read-only)."""
        return tuple(Rational(c, self.den) for c in self.ints)

    @classmethod
    def monomial(cls, c, k: int) -> "UniPoly":
        if not isinstance(k, int) or k < 0:
            raise InvalidArgument(f"monomial power must be an integer at least 0, got {k!r}")
        c = as_rational(c)
        return cls._of([0] * k + [int(c.numerator)], int(c.denominator))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def valuation(self) -> int:
        """Lowest power of q with a nonzero coefficient (0 for the zero poly)."""
        for k, c in enumerate(self.ints):
            if c:
                return k
        return 0

    def shift_down(self, k: int) -> "UniPoly":
        """Divide by q^k, for k from 0 up to the valuation (checked on the k
        lowest coefficients only)."""
        if not isinstance(k, int) or k < 0 or any(self.ints[:k]):
            raise InvalidArgument(
                f"q^{k!r} does not divide a polynomial of valuation {self.valuation()}")
        return UniPoly._of(list(self.ints[k:]), self.den)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b, den = self.ints, other.ints, self.den
        if den != other.den:
            g = gcd(den, other.den)
            ma, mb = other.den // g, den // g
            a, b, den = [x * ma for x in a], [x * mb for x in b], den * ma
        if len(a) < len(b):
            a, b = b, a
        return UniPoly._of([x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    def __neg__(self) -> "UniPoly":
        return UniPoly._of([-c for c in self.ints], self.den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if len(self.ints) < len(other.ints):
            self, other = other, self
        a, b = self.ints, other.ints
        if not b:
            return other
        if len(b) == 1:  # a constant scales the other operand; 1 leaves it as it is
            c = b[0]
            if c == 1 and other.den == 1:
                return self
            return UniPoly._of([x * c for x in a], self.den * other.den)
        if len(b) > _KRONECKER_MIN:
            return UniPoly._of(_kronecker_mul(a, b), self.den * other.den)
        out = [0] * (len(a) + len(b) - 1)
        for i, cb in enumerate(b):
            if cb:
                for j, ca in enumerate(a, i):
                    out[j] += ca * cb
        return UniPoly._of(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.ints == other.ints and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        terms = [f"({c})*q^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "UniPoly(" + " + ".join(terms) + ")"


_POLY_ONE = UniPoly((ONE,))


class RatFuncQ:
    """Quotient of two UniPoly values in the single formal variable q.

    The representation is normalized only lightly: any common power of q is
    stripped, the denominator is made monic (``den.ints[-1] == den.den``)
    and zero is 0 / 1.  No polynomial GCD is taken: the only use of a value
    is its limit at q = 1, and :func:`limit_at_one` counts the (q - 1)
    factors on the coefficient ints.  An int or Rational operand of
    ``*`` and ``==`` is used as it is, never lifted to a RatFuncQ, and gives
    the normal form the lifted operand would.  ``==`` compares values (by
    cross-multiplication, or by ``is_zero`` when either side is zero);
    ``hash`` is representation-based, which is fine for the internal caches
    because their keys are always built along identical code paths.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = _POLY_ONE):
        if den.is_zero():
            raise DivisionByZero("zero denominator polynomial")
        if num.is_zero():
            num, den = UniPoly(), _POLY_ONE
        else:
            v = min(num.valuation(), den.valuation())
            if v:
                num = num.shift_down(v)
                den = den.shift_down(v)
            lc = den.ints[-1]
            if lc != den.den:  # make the leading coefficient lc / den.den one
                num = UniPoly._of([c * den.den for c in num.ints], num.den * lc)
                den = UniPoly._of(list(den.ints), lc)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, c) -> "RatFuncQ":
        return cls(UniPoly.monomial(c, 0))

    @classmethod
    def generator(cls) -> "RatFuncQ":
        """The formal variable q itself."""
        return cls(UniPoly.monomial(ONE, 1))

    # -- helpers -----------------------------------------------------------

    @classmethod
    def _normal(cls, num: UniPoly, den: UniPoly) -> "RatFuncQ":
        """num / den, already in normal form."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFuncQ):
            return x
        if isinstance(x, (int, Rational)):
            return RatFuncQ.from_rational(x)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            return RatFuncQ(self.num + o.num, self.den)
        return RatFuncQ(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncQ(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):  # c num / den is already normal
            num = UniPoly._of([c * int(other.numerator) for c in self.num.ints],
                              self.num.den * int(other.denominator))
            return RatFuncQ._normal(num, self.den if other else _POLY_ONE)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RatFuncQ(UniPoly())
        num, den = self.num * o.num, self.den * o.den
        if not (num.ints[0] or den.ints[0]):  # a common power of q to strip
            return RatFuncQ(num, den)
        return RatFuncQ._normal(num, den)  # monic times monic is monic

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFuncQ(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return RatFuncQ.from_rational(ONE)
        base = self
        if k < 0:
            if base.is_zero():
                raise DivisionByZero("0 raised to a negative power")
            base = RatFuncQ(base.den, base.num)
            k = -k
        if all(len(p.ints) - p.ints.count(0) == 1 for p in (base.num, base.den)):
            c = Rational(base.num.ints[-1], base.num.den) ** k  # c q^i / q^j
            return RatFuncQ(UniPoly.monomial(c, base.num.degree * k),
                            UniPoly.monomial(ONE, base.den.degree * k))
        out = RatFuncQ.from_rational(ONE)
        acc = base
        while k:
            if k & 1:
                out = out * acc
            k >>= 1
            if k:
                acc = acc * acc
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rational)):  # num == c den, on the ints
            a, b = self.num.ints, self.den.ints
            if not a:
                return not other
            n, d = int(other.numerator) * self.num.den, int(other.denominator) * self.den.den
            return len(a) == len(b) and all(x * d == y * n for x, y in zip(a, b))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return self.is_zero() and o.is_zero()
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFuncQ({self.num!r} / {self.den!r})"


def _order_at_one(ints) -> tuple:
    """(k, s(1)) for the nonzero polynomial sum(ints[j] q^j) = (q - 1)^k s(q)
    with s(1) != 0.

    Each division by (q - 1) is a running sum over the coefficients, highest
    power first; its last entry is the value at 1, so one pass both decides
    a division and makes it.
    """
    s, k = ints[::-1], 0
    while True:
        quot = list(accumulate(s))
        v = quot.pop()
        if v:
            return k, v
        s, k = quot, k + 1


def limit_at_one(f):
    """Limit of a rational function of q as q -> 1, as an exact Rational.

    Counts the (q - 1) factors of num and den and takes the values of their
    cofactors at 1, all on the coefficient ints.  Raises PoleAtOne when the
    denominator has more of them.
    """
    if not isinstance(f, RatFuncQ):
        return as_rational(f)
    if f.is_zero():
        return Rational(0)
    kn, n1 = _order_at_one(f.num.ints)
    kd, d1 = _order_at_one(f.den.ints)
    if kn < kd:
        raise PoleAtOne("no finite limit at q = 1")
    if kn > kd:
        return Rational(0)
    return Rational(n1 * f.den.den, d1 * f.num.den)

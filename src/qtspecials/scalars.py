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
  q with Rational coefficients.  Used to carry values symbolically in q so
  that limits at q = 1 can be taken exactly by cancelling (q - 1) factors.

No floating point enters any computation here.
"""

from __future__ import annotations

import os
import re

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

from .errors import PoleAtOne

ZERO = Rational(0)
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
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


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
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        p, q = s.split("/")
        den = _parse_int(q)
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in literal {text!r}")
        return Rational(_parse_int(p), den)
    return Rational(_parse_int(s))


def format_rational(x) -> str:
    """Render a rational as "p/q", always with an explicit denominator.

    Numerator and denominator of any size are written out in full, also
    past Python's int-to-str digit limit.
    """
    x = as_rational(x)
    return f"{_format_int(x.numerator)}/{_format_int(x.denominator)}"


class UniPoly:
    """Dense univariate polynomial in q with Rational coefficients.

    Invariant: the coefficient list carries no trailing zeros, so the last
    entry is the (nonzero) leading coefficient; the zero polynomial is ().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((as_rational(c),))

    @classmethod
    def monomial(cls, c, k: int) -> "UniPoly":
        c = as_rational(c)
        if c == 0:
            return cls()
        return cls((ZERO,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        """Lowest power of q with a nonzero coefficient (0 for the zero poly)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return 0

    def shift_down(self, k: int) -> "UniPoly":
        """Divide by q^k; only valid when the valuation is at least k."""
        return UniPoly(self.coeffs[k:])

    def scale(self, c) -> "UniPoly":
        c = as_rational(c)
        if c == 0:
            return UniPoly()
        return UniPoly(tuple(a * c for a in self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return UniPoly(out)

    def __call__(self, x):
        """Evaluate at a rational point by Horner's rule."""
        x = as_rational(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        terms = [f"({c})*q^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "UniPoly(" + " + ".join(terms) + ")"


_POLY_ONE = UniPoly((ONE,))


class RatFuncQ:
    """Quotient of two UniPoly values in the single formal variable q.

    The representation is normalized only lightly: any common power of q is
    stripped and the denominator is made monic.  No polynomial GCD is taken
    during arithmetic; common (q - q0) factors are divided out lazily by
    :meth:`cancel_at`, which :func:`limit_at_one` and evaluation at a
    common root both use.
    ``==`` compares values (by cross-multiplication); ``hash`` is
    representation-based, which is fine for the internal caches because
    their keys are always built along identical code paths.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = _POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero():
            num, den = UniPoly(), _POLY_ONE
        else:
            v = min(num.valuation(), den.valuation())
            if v:
                num = num.shift_down(v)
                den = den.shift_down(v)
            lc = den.coeffs[-1]
            if lc != 1:
                inv = ONE / lc
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, c) -> "RatFuncQ":
        return cls(UniPoly.const(as_rational(c)))

    @classmethod
    def generator(cls) -> "RatFuncQ":
        """The formal variable q itself."""
        return cls(UniPoly.monomial(ONE, 1))

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFuncQ):
            return x
        if isinstance(x, (int, Rational)):
            return RatFuncQ.from_rational(x)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _is_monomial(self) -> bool:
        return (
            sum(1 for c in self.num.coeffs if c != 0) == 1
            and sum(1 for c in self.den.coeffs if c != 0) == 1
        )

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RatFuncQ(UniPoly())
        return RatFuncQ(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
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
                raise ZeroDivisionError("0 raised to a negative power")
            base = RatFuncQ(base.den, base.num)
            k = -k
        if base._is_monomial():
            nk = base.num.valuation()
            dk = base.den.valuation()
            c = base.num.coeffs[-1] ** k
            return RatFuncQ(UniPoly.monomial(c, nk * k), UniPoly.monomial(ONE, dk * k))
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den.coeffs))

    def __call__(self, q0):
        """Evaluate at an exact rational point; the point must avoid poles."""
        q0 = as_rational(q0)
        d = self.den(q0)
        if d == 0:
            n = self.num(q0)
            if n == 0:
                # Remove the common root and retry.
                return self.cancel_at(q0)(q0)
            raise ZeroDivisionError(f"pole at q = {q0}")
        return self.num(q0) / d

    def cancel_at(self, q0) -> "RatFuncQ":
        """Divide out all common (q - q0) factors of num and den."""
        num, den = self.num, self.den
        while den(q0) == 0 and num(q0) == 0:
            num = _div_root(num, q0)
            den = _div_root(den, q0)
        return RatFuncQ(num, den)

    def __repr__(self) -> str:
        return f"RatFuncQ({self.num!r} / {self.den!r})"


def _div_root(p: UniPoly, root) -> UniPoly:
    """Exact synthetic division of p by (q - root); requires p(root) == 0."""
    root = as_rational(root)
    out = [ZERO] * len(p.coeffs)
    carry = ZERO
    for i in range(len(p.coeffs) - 1, 0, -1):
        carry = carry * root + p.coeffs[i]
        out[i - 1] = carry
    if carry * root + p.coeffs[0] != 0:
        raise ValueError(f"polynomial does not vanish at q = {root}")
    return UniPoly(out)


def limit_at_one(f):
    """Limit of a rational function of q as q -> 1, as an exact Rational.

    Divides out every common (q - 1) factor, then evaluates.  Raises
    PoleAtOne when the denominator still vanishes after full cancellation.
    """
    if not isinstance(f, RatFuncQ):
        return as_rational(f)
    f = f.cancel_at(ONE)
    d1 = f.den(ONE)
    if d1 == 0:
        raise PoleAtOne("no finite limit at q = 1")
    return f.num(ONE) / d1

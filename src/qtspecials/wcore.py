"""Pochhammer symbols and the limiting W-function family.

All values are computed either at an exact rational parameter pair (q, t)
or symbolically as rational functions of a formal q with t specialized to
a rational (which is what makes exact q -> 1 limits possible downstream).

The three W kinds handled here are the s-parameter limits of a family of
well-poised symmetric rational functions:

* ``"ab"``     -- carries an auxiliary scalar s,
* ``"s_up"``   -- the s -> infinity limit (after scaling),
* ``"s_down"`` -- the s -> 0 limit.

Single-variable skew values have closed product forms; multivariable values
are computed only through the variable-peeling recurrence over horizontal
strips.  Each W argument and the scalar s travel as a ``Mono`` c q^a t^b: a
scalar x is (x, 0, 0), the principal argument is (1, lam_i, n-1-i), and a
peel shifts b by -ell.  Every factor is then one product (c q^i t^j; q)_m
from ``pochm``, and so is every factor 1 - c q^a t^b of the library: only
``poch`` writes 1 - ..., only ``pochm`` calls it, and c = 1 is never passed
(``cargs``), so each factor has one key; the term walk of ``distributions``
reads the ints of its factors off their pochm values.  One decorator,
``memo(kind, at)``, memoizes values in the cache of the mode at argument
``at``, keyed by kind and the other arguments: ("poch", i, j, m) (and c
unless c = 1), ("partition", a, lam) for (a; q, t)_lam, ("weight", mu),
("h", lam, mu), ("skew", kind, lam, mu, x, s) and
("W", kind, lam, mu, z, s); ``identities`` adds ("wsum", lam, k) for its
weighted binomial sums and ("cocycle", nu, lam, s, r) for the (nu, lam)
half of its weak-cocycle terms.

Every product of factors in the library, here and in ``binomial``,
``specials`` and ``distributions``, is one call of ``prod_ratio(num, den,
mode, what)``.  At a point it multiplies the numerators and denominators of
its factors as ints and builds one Rational; a formal mode starts each
product from its first factor.  A vanishing denominator raises
DegenerateParameters("vanishing denominator in <what>").  A product of order
0 and a zero power, both 1, are left out of the factor lists.  Every sum of
the library is one call of ``sum_prods(terms, mode)`` over lists of
factors, or, where the terms are plain Rationals in any mode, of the one
exact sum ``scalars.sum_rationals(terms)`` that ``sum_prods`` is at a
point: it multiplies each term as ints, adds the terms over the lcm of
their denominators and reduces once.  Three sums add one term at a time on
purpose: the cumulative masses of ``distributions.sample`` (each partial
sum is kept), the reference values of ``identities._classical_sequences``,
and the restated Bell and Fibonacci sums of ``run_specials_suite``, so
that a fault in the one sum cannot pass both sides of their checks.
The strip sum takes each strip's inner value first and skips the skew value
when that is 0, but still checks the divisors the skew value would have.

No key of this module holds a Rational.  Hashing a ``fractions.Fraction``
takes a modular inverse, which costs about two products of rationals of the
same size (``timeit``, 57-bit operands).  So a scalar changes form once,
where it enters the W layer (``w_skew``, ``w_multi``, ``w_principal``,
``poch_partition``): ``coef`` makes it a ``Coef``, which keeps the value for
the arithmetic.  Each mode interns its Coefs by the ints of the value, its
(numerator, denominator) or the normal form of a ``RatFuncQ``, so equal
scalars of one mode are one object, and a key that holds a Coef, alone or in
a ``Mono``, is hashed and compared by identity, in C.  A Coef belongs to the
mode that interned it: in another mode it would key apart from that mode's
own Coef of the same value.  Only the Coef of 1, ``UNIT``, is shared by
every mode.
"""

from __future__ import annotations

from functools import reduce, wraps
from operator import add, mul
from typing import NamedTuple

from .errors import (DegenerateParameters, InvalidArgument, NotAStrip,
                     check_alpha, check_sizes)
from .partitions import (
    check_partition,
    enumerate_strips,
    is_horizontal_strip,
    n_prime_stat,
    n_stat,
    weight,
    zeros,
)
from .scalars import ONE, RatFuncQ, Rational, as_rational, prod_ints, sum_rationals

W_KINDS = ("ab", "s_up", "s_down")


class Coef:
    """A scalar as the W layer carries it: ``value`` for the arithmetic.
    ``coef`` interns it, one object per value and mode, so a Coef is equal
    only to itself and hashes by identity."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Coef({self.value})"


UNIT = Coef(ONE)  # c = 1: every scalar equal to 1, in every mode, becomes this one


def coef(c, mode: "ScalarMode") -> Coef:
    """The scalar c of ``mode`` as the one Coef of its value in ``mode``;
    a Coef is returned unchanged."""
    if isinstance(c, Coef):
        return c
    v = mode.lift(c)
    if mode.is_point:
        if v == 1:
            return UNIT
        key = v.numerator, v.denominator
    else:
        num, den = v.num, v.den
        if num == den:  # value 1, as both are canonical and den is monic
            return UNIT
        key = num.ints, num.den, den.ints, den.den
    return mode._coefs.setdefault(key, Coef(v))


def cargs(c: Coef) -> tuple:
    """The c arguments of ``pochm``: none for 1, so each factor has one key."""
    return () if c is UNIT else (c,)


class Mono(NamedTuple):
    """A W argument c q^a t^b: c is a scalar (1 for a monomial in q, t), a
    ``Coef`` once the argument has entered the W layer."""

    c: object
    a: int
    b: int

    def peeled(self, ell: int) -> "Mono":
        """The argument times t^{-ell}, as a peel of ell variables leaves it."""
        return Mono(self.c, self.a, self.b - ell)


def _mono(x, mode: "ScalarMode") -> Mono:
    """x, a scalar or a Mono, as a Mono whose c is a Coef."""
    if isinstance(x, Mono):
        return x if isinstance(x.c, Coef) else Mono(coef(x.c, mode), x.a, x.b)
    return Mono(coef(x, mode), 0, 0)


def _monos(z, mode: "ScalarMode") -> tuple:
    """The arguments z as a tuple of Monos with Coef c; such a tuple, as the
    peeling recursion passes it, is returned unchanged."""
    if isinstance(z, tuple):
        for x in z:
            if not (isinstance(x, Mono) and isinstance(x.c, Coef)):
                break
        else:
            return z
    return tuple(_mono(x, mode) for x in z)


class QtPoint:
    """A validated exact rational parameter pair (q, t).

    Construction rejects points where any factor (1 - q^a t^b) with
    0 <= a <= 2*max_part + 2 and |b| <= 2*n vanishes, so that every
    denominator arising for partitions of at most n parts bounded by
    max_part is safely nonzero.  A point is immutable, and equal points
    (same q, t, n, max_part) hash alike.
    """

    __slots__ = ("q", "t", "n", "max_part", "_mode")

    def __init__(self, q: Rational, t: Rational, n: int = 4, max_part: int = 8):
        check_sizes(0, n=n, max_part=max_part)
        init = object.__setattr__
        init(self, "q", as_rational(q))
        init(self, "t", as_rational(t))
        init(self, "n", n)
        init(self, "max_part", max_part)
        init(self, "_mode", None)
        self.validate(n, max_part)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.q, self.t, self.n, self.max_part

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QtPoint(q={self.q}, t={self.t}, n={self.n}, max_part={self.max_part})"

    def validate(self, n: int, max_part: int) -> "QtPoint":
        """Check the degeneracy window for the given bounds; returns self."""
        q, t = self.q, self.t
        if q == 0 or q == 1:
            raise DegenerateParameters(f"q = {q} is not allowed")
        if t == 0:
            raise DegenerateParameters("t = 0 is not allowed")
        tb = {0: ONE}
        for b in range(1, 2 * n + 1):
            tb[b] = tb[b - 1] * t
            tb[-b] = 1 / tb[b]
        qa = ONE
        for a in range(0, 2 * max_part + 3):
            if a:
                qa = qa * q
            for b in range(-2 * n, 2 * n + 1):
                if a == 0 and b == 0:
                    continue
                if qa * tb[b] == 1:
                    raise DegenerateParameters(
                        f"degenerate point: q^{a} t^{b} = 1 at q={q}, t={t}"
                    )
        return self

    @property
    def mode(self) -> "AtPoint":
        """The one AtPoint of this point, shared by every layer."""
        if self._mode is None:
            object.__setattr__(self, "_mode", AtPoint(self))
        return self._mode


class ScalarMode:
    """How scalars are carried: at an exact point, or formally in q.

    Each mode owns a cache, which every layer fills only through ``memo``;
    all cached values are immutable, so concurrent reads/inserts under one
    mode are safe.  A power of q or t missing from its table needs an int k.
    """

    def __init__(self):
        self.cache: dict = {}
        self._qp: dict = {}
        self._tp: dict = {}
        self._coefs: dict = {}  # a scalar's ints -> its one Coef (``coef``)

    # subclasses provide the attributes q, t, one, zero and is_point, and lift(r)
    t0 = None  # the rational t, or None when t = q^a

    def qpow(self, k: int):
        v = self._qp.get(k)
        return _power(self._qp, self.q, k) if v is None else v

    def tpow(self, k: int):
        v = self._tp.get(k)
        return _power(self._tp, self.t, k) if v is None else v


def _power(table: dict, x, k: int):
    check_sizes(None, exponent=k)
    v = table[k] = x ** k
    return v


class AtPoint(ScalarMode):
    """Evaluate everything exactly at a QtPoint."""

    is_point = True

    def __init__(self, point: QtPoint):
        super().__init__()
        # q and t, not the point: the point holds its mode (QtPoint.mode)
        self.q = point.q
        self.t = self.t0 = point.t
        self.one = ONE
        self.zero = Rational(0)

    def lift(self, r):
        return as_rational(r)

    def __repr__(self):
        return f"AtPoint(q={self.q}, t={self.t})"


class FormalQ(ScalarMode):
    """Carry values as rational functions of a formal q.

    Variants:

    * ``FormalQ(t0)``        -- t specialized to the rational t0;
    * ``FormalQ.alpha(a)``   -- t = q^a for a positive integer a (the
      specialization used for ordinary-limit computations), with t0 None.

    q is the generator in every variant.  A limit at q = 1 does not change
    under q -> 1/q, so the limit of a formula at parameters (1/q, 1/t0) is
    taken in ``FormalQ(1/t0)``.
    """

    is_point = False
    _alpha_modes: dict = {}  # a -> the one FormalQ.alpha(a) of the process

    def __init__(self, t0):
        super().__init__()
        self.q = RatFuncQ.generator()
        self.t0 = as_rational(t0)
        self.t = RatFuncQ.from_rational(self.t0)
        self.one = RatFuncQ.from_rational(1)
        self.zero = RatFuncQ.from_rational(0)

    @classmethod
    def alpha(cls, a: int) -> "FormalQ":
        """Mode with t = q^a (positive integer a); one per a, kept with its
        cache for the life of the process."""
        check_alpha(a)
        mode = cls._alpha_modes.get(a)
        if mode is None:
            mode = cls._alpha_modes[a] = cls(1)
            mode.t0, mode.t = None, mode.q ** a
        return mode

    def lift(self, r):
        if isinstance(r, RatFuncQ):
            return r
        return RatFuncQ.from_rational(as_rational(r))

    def __repr__(self):
        t = self.t0 if self.t0 is not None else f"q^{self.t.num.degree}"
        return f"FormalQ(t={t})"


def memo(kind: str, at: int):
    """Memoize a function of positional arguments in the cache of its mode
    ``args[at]``, under (kind, *the other arguments), refusing an unhashable
    argument.  The mode stays out of the key, which would otherwise keep a
    dropped point's mode alive in a cycle; a call that raises stores nothing."""
    def decorate(fn):
        @wraps(fn)
        def cached(*args):
            key = (kind,) + args[:at] + args[at + 1:]
            cache = args[at].cache
            try:
                hit = cache.get(key)
            except TypeError as exc:
                raise InvalidArgument(f"{fn.__name__}: arguments must be hashable: {exc}") from None
            if hit is None:
                hit = cache[key] = fn(*args)
            return hit
        return cached
    return decorate


def guarded_div(num, den, what: str):
    """Exact division that reports a vanishing denominator as degeneracy."""
    if den == 0:
        raise DegenerateParameters(f"vanishing denominator in {what}")
    return num / den


def prod_ratio(num: list, den: list, mode: ScalarMode, what: str = "product"):
    """prod(num) / prod(den), reporting a vanishing denominator as
    degeneracy: the one product of factors of the library.  At a point the
    numerators and denominators of the factors are multiplied as ints and
    reduced once, by one Rational; a formal mode multiplies its RatFuncQ
    factors in list order, each product starting from its first factor."""
    if not mode.is_point:
        n, d = (reduce(mul, fs) if fs else mode.one for fs in (num, den))
        return guarded_div(n, d, what) if den else n
    n, d = prod_ints(num, den)
    if d == 0:
        raise DegenerateParameters(f"vanishing denominator in {what}")
    return Rational(n, d)


def sum_prods(terms, mode: ScalarMode):
    """The sum of prod(fs) over the factor lists fs in ``terms``, in the
    scalars of ``mode``: at a point the one exact sum ``sum_rationals``; a
    formal mode builds each term as ``prod_ratio`` does and adds the terms
    in order, starting from 0."""
    if mode.is_point:
        return sum_rationals(terms)
    return reduce(add, (prod_ratio(fs, [], mode) for fs in terms), mode.zero)


# ---------------------------------------------------------------------------
# Pochhammer symbols
# ---------------------------------------------------------------------------

def poch(a, m: int, mode: ScalarMode):
    """Finite product (a; q)_m = prod_{k=0}^{m-1} (1 - a q^k).

    Negative order inverts: (a; q)_{-k} = 1 / (a q^{-k}; q)_k.  The order
    is an int.
    """
    check_sizes(None, m=m)
    if m >= 0:
        return prod_ratio([mode.one - a * mode.qpow(k) for k in range(m)], [], mode)
    a = a * mode.qpow(m)
    return prod_ratio([], [mode.one - a * mode.qpow(k) for k in range(-m)], mode,
                      "negative-order product")


@memo("poch", 3)
def pochm(i: int, j: int, m: int, mode: ScalarMode, c: Coef = UNIT):
    """(c q^i t^j; q)_m for ints i, j, m and a Coef c, memoized on the mode;
    c = 1 is left out, never passed, so that it has one key."""
    if not isinstance(c, Coef):  # a raw scalar would key the cache by itself
        raise InvalidArgument(f"pochm takes c as a Coef (wcore.coef), got {c!r}")
    check_sizes(None, i=i, j=j)  # poch checks m
    return poch(c.value * mode.qpow(i) * mode.tpow(j), m, mode)


def poch_partition(a, lam, mode: ScalarMode):
    """Partition product (a; q, t)_lam = prod_i (a t^{1-i}; q)_{lam_i}."""
    return _poch_partition(coef(a, mode), tuple(lam), mode)


@memo("partition", 2)
def _poch_partition(a: Coef, lam, mode: ScalarMode):
    ca = cargs(a)
    return prod_ratio([pochm(0, -i, m, mode, *ca) for i, m in enumerate(lam) if m], [],
                      mode)


def poch_norm(mu, mode: ScalarMode):
    """(q t^{n-1}; q, t)_mu with n = len(mu), the normalizing product of the
    binomial and of every series weighted like it."""
    n = len(mu)
    return prod_ratio([pochm(1, n - i, m, mode) for i, m in enumerate(mu, start=1) if m], [],
                      mode)


def pair_ratio(mu, mode: ScalarMode, s: int = 1):
    """prod_{i<j} (q^s t^{j-i+1-s}; q)_d / (q^s t^{j-i-s}; q)_d, d = mu_i - mu_j.

    s = 1 is the pair ratio of the binomial; s = 0 is its t-only partner.
    """
    n = len(mu)
    num, den = [], []
    for j in range(2, n + 1):
        for i in range(1, j):
            d = mu[i - 1] - mu[j - 1]
            if d:
                num.append(pochm(s, j - i + 1 - s, d, mode))
                den.append(pochm(s, j - i - s, d, mode))
    return prod_ratio(num, den, mode, "pair ratio")


@memo("weight", 1)
def norm_weight(mu, mode: ScalarMode):
    """pair_ratio(mu) / poch_norm(mu): the mu-dependent weight of the
    binomial and of every series weighted like it, memoized on the mode."""
    return prod_ratio([pair_ratio(mu, mode)], [poch_norm(mu, mode)], mode, "binomial weight")


# ---------------------------------------------------------------------------
# The H factor and single-variable skew W values
# ---------------------------------------------------------------------------

@memo("h", 2)
def h_factor(lam, mu, mode: ScalarMode):
    """The two-ratio product over pairs i < j entering every skew W value.

    For each pair the order is mu_{j-1} - lam_j, which is nonnegative
    exactly because lam/mu is a horizontal strip.
    """
    if not is_horizontal_strip(lam, mu):
        raise NotAStrip(f"{lam}/{mu} is not a horizontal strip")
    num, den = [], []
    for j in range(2, len(lam) + 1):
        m = mu[j - 2] - lam[j - 1]
        if m == 0:
            continue
        for i in range(1, j):
            mi, li = mu[i - 1] - mu[j - 2], lam[i - 1] - mu[j - 2]
            num += pochm(mi, j - i, m, mode), pochm(li + 1, j - i - 1, m, mode)
            den += pochm(mi + 1, j - i - 1, m, mode), pochm(li, j - i, m, mode)
    return prod_ratio(num, den, mode, "strip factor")


def _check_kind(kind: str, s):
    if kind not in W_KINDS:
        raise InvalidArgument(f"unknown W kind {kind!r}; expected one of {W_KINDS}")
    if kind == "ab" and s is None:
        raise InvalidArgument("kind 'ab' requires the auxiliary scalar s")


def w_skew(kind: str, lam, mu, x, mode: ScalarMode, s=None):
    """Single-variable skew value W_{lam/mu}(x) at a scalar or Mono x (and s);
    zero off horizontal strips."""
    _check_kind(kind, s)
    return _w_skew(kind, lam, mu, _mono(x, mode), mode,
                   _mono(s, mode) if kind == "ab" else None)


_AB = "auxiliary product of W^ab"  # the quotient of a skew value, named as for "ab"


def _peel_scalars(kind: str, lam, x: Mono, mode: ScalarMode, s):
    """The parts of a skew value W_{lam/mu}(x) that do not depend on mu:
    1/c of x = c q^a t^b as a Coef (DegenerateParameters for c = 0) and,
    for "ab", the pochm exponents (i0, j0) and c argument of the scaled s
    with the denominator factors (s q / x)_lam, row i scaled by t^{1-i}."""
    c, a, b = x
    cinv = UNIT if c is UNIT else coef(guarded_div(mode.one, c.value, "W argument"), mode)
    if kind != "ab":
        return cinv, None, []
    sc = s.c if cinv is UNIT else coef(s.c.value * cinv.value, mode)
    i0, j0, scargs = s.a + 1 - a, s.b - b, cargs(sc)
    den = [pochm(i0, j0 + 1 - i, m, mode, *scargs) for i, m in enumerate(lam, start=1) if m]
    return cinv, (i0, j0, scargs), den


@memo("skew", 4)
def _w_skew(kind: str, lam, mu, x: Mono, mode: ScalarMode, s):
    if not is_horizontal_strip(check_partition(lam), mu):
        return mode.zero
    c, a, b = x
    cinv, ab, den = _peel_scalars(kind, lam, x, mode, s)
    ca = cargs(cinv)
    # (1/x)_lam / (1/x)_mu, telescoped to prod_i (x^{-1} t^{-i} q^{mu_i}; q)_{lam_i - mu_i}
    num = [h_factor(lam, mu, mode)]
    num += [pochm(mi - a, -b - i, li - mi, mode, *ca)
            for i, (li, mi) in enumerate(zip(lam, mu)) if li != mi]
    e = 0
    if kind == "s_up":
        e = weight(mu) - weight(lam)  # (-q/x)^e = (-1)^e c^{-e} q^{e(1-a)} t^{-eb}
        qe, te = e * (1 - a) + n_prime_stat(mu) - n_prime_stat(lam), -e * b
    else:
        qe, te = 0, -n_stat(lam) + weight(mu) + n_stat(mu)
    if qe:
        num.append(mode.qpow(qe))
    if te:
        num.append(mode.tpow(te))
    if e and c is not UNIT:
        num.append(c.value ** -e)
    if kind == "ab":
        # (s q / (x t))_mu over the denominator (s q / x)_lam
        i0, j0, scargs = ab
        num += [pochm(i0, j0 - i, m, mode, *scargs) for i, m in enumerate(mu, start=1) if m]
    val = prod_ratio(num, den, mode, _AB)
    return -val if e % 2 else val


def w_multi(kind: str, lam, mu, z, mode: ScalarMode, s=None):
    """Multivariable W_{lam/mu}(z_1, ..., z_m) via variable peeling.

    Each step removes the first variable and sums, through ``sum_prods``,
    over horizontal strips nu below lam; the peeled argument and the s slot
    of the "ab" kind are shifted by t^{-ell}, and the "s_up" kind gains
    t^{ell(|lam|-|nu|)}.  Only strips nu containing mu enter, so the value
    vanishes for mu not contained in lam; lam must be a partition, and mu
    weakly decreasing of its length.  Each strip's inner value W_{nu/mu}(z_2, ...) comes
    first, and its skew value W_{lam/nu}(z_1) is computed only when that is
    nonzero.  The divisors a skipped skew value would have checked still
    raise: 1/c of z_1 and (s q / z_1)_lam once per value with a strip, and
    the strip factor of every strip.  With one variable it is the
    (memoized) skew value, with none 1 at lam = mu and 0 elsewhere; only
    values of two or more variables get a "W" entry.
    """
    _check_kind(kind, s)
    z = _monos(z, mode)
    s = _mono(s, mode) if kind == "ab" else None
    if len(z) > 1:
        return _w_multi(kind, lam, mu, z, mode, s)
    if z:
        return _w_skew(kind, lam, mu, z[0], mode, s)
    return mode.one if check_partition(lam) == mu else mode.zero


@memo("W", 4)
def _w_multi(kind: str, lam, mu, z: tuple, mode: ScalarMode, s):
    ell = len(z) - 1
    y = z[0].peeled(ell)
    s_peel = s.peeled(ell) if kind == "ab" else None
    rest, wl = z[1:], weight(lam)
    strips = enumerate_strips(lam, mu)
    if strips and 0 in _peel_scalars(kind, lam, y, mode, s_peel)[2]:
        raise DegenerateParameters(f"vanishing denominator in {_AB}")
    terms = []
    for nu in strips:
        inner = w_multi(kind, nu, mu, rest, mode, s)
        if inner == 0:
            h_factor(lam, nu, mode)  # raises as the skipped skew value would
            continue
        skew = w_skew(kind, lam, nu, y, mode, s_peel)
        if skew == 0:
            continue
        if kind == "s_up" and nu != lam:
            terms.append([skew, inner, mode.tpow(ell * (wl - weight(nu)))])
        else:
            terms.append([skew, inner])
    return sum_prods(terms, mode)


def w_principal(kind: str, mu, lam, mode: ScalarMode, s=None):
    """W_{mu}(q^lam t^delta); vanishes whenever mu is not contained in lam."""
    z = tuple(Mono(UNIT, part, len(lam) - i) for i, part in enumerate(lam, start=1))
    return w_multi(kind, mu, zeros(len(mu)), z, mode, s)


def w_rectangular(kind: str, k: int, z, mode: ScalarMode, s=None):
    """Closed product form of W_{k^n}(z) for a rectangular index."""
    _check_kind(kind, s)
    check_sizes(0, k=k)
    if k == 0:
        return mode.one
    if kind == "s_up":
        return prod_ratio([mode.qpow(-len(z) * k)]
                          + [pochm(1 - k, 0, k, mode, *cargs(coef(zi, mode))) for zi in z],
                          [], mode)
    num, den = [], []
    for zi in map(mode.lift, z):
        if zi == 0:
            raise DegenerateParameters("W argument must be nonzero")
        num.append(pochm(0, 0, k, mode, *cargs(coef(zi ** -1, mode))))
        if kind == "ab":
            den.append(pochm(1, 0, k, mode, *cargs(coef(s * zi ** -1, mode))))
    return prod_ratio(num, den, mode, "rectangular W^ab")

"""Precision-tiered real scalars.

Two tiers share one interface: NATIVE64 is ordinary IEEE binary64, and
DOUBLEWORD represents a value as an unevaluated sum ``hi + lo`` of two
binary64 floats (a double-word, roughly 32 significant decimal digits).
Every binary64 word is a multiple of 2^-1074, so a pair is an exact
ratio n / d with d a power of two (``_pair_ratio``): the
:class:`Real` operators ``+``, ``-``, ``*`` and ``/`` at DOUBLEWORD
round the exact result once, through one tier-checked path
(``_real_op``), a sum by :func:`math.fsum` of the words. The public ``two_sum`` is Knuth's
error-free sum, which :class:`Real`'s constructor uses too, and
``two_prod`` takes its error term from the exact ratios of its operands,
so that it is exact wherever an exact pair exists.

One block of fixed-point integer code, at 2^-192, builds every lazy
constant and table on first use (pi, the 65 integers atan(k/64), each
entry atan(k/1024) that is read, and the power tables of
``_fixed_exp``, which the quadrature module calls for each tanh-sinh
point), and computes double-word ``sin``, ``cos``,
``exp``, ``atan`` and ``sqrt``: ``_fixed_sincos`` takes the nearest
multiple of pi/2 off an int x, |x| <= 2^10, and sums both Taylor series
(``_sincos_shift`` gives the shift a double-word x enters at, and
raises :class:`DomainError` beyond 2^10); ``_dd_exp`` takes e^r for r =
x mod ln2 from ``_fixed_exp``; ``_fixed_atan_ratio`` gives atan(p/q) as
atan(k/1024) from the table plus the series of t = (1024p - kq)/(1024q
+ kp), |t| <= 2^-11, for k/1024 the nearest to p/q, and as pi/2 -
atan(q/p) above 1; ``sqrt`` takes ``math.isqrt`` of x at a shift that
keeps 192 bits. The integer bodies of the registry integrands in
:mod:`.integrands` use the same code, and the quadrature module's
integer lanes sum them exactly.
Each value is rounded once, to the nearest double-word pair, by one
routine, ``_pair_from_ratio(n, d)``: int / int rounds correctly, so the
high word is n / d and the low word the exact rest divided by d. The
same routine rounds :class:`Real` products and quotients, every
result of the quadrature module's integer lanes and the eq3 lane's
1/(x^2 + a^2), from the exact ratios of the words, an int with a low
word given to the constructor, and a decimal literal.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction

from .errors import ConfigError, DomainError, NonFiniteError, TierMismatchError

__all__ = [
    "Tier",
    "Real",
    "two_sum",
    "two_prod",
    "add",
    "sub",
    "mul",
    "div",
    "sqrt",
    "atan",
    "sin",
    "cos",
    "pi",
    "build_info",
]


class Tier(enum.Enum):
    """Precision tier of a :class:`Real` value."""

    NATIVE64 = "native64"
    DOUBLEWORD = "doubleword"

    # members are singletons, so identity hashing is sound, and it keeps
    # every Tier-keyed cache off the Python-level Enum.__hash__
    __hash__ = object.__hash__

    @property
    def eps(self) -> float:
        """Unit roundoff step of the tier (2^-52 native, 2^-104 double-word)."""
        return 2.0**-52 if self is Tier.NATIVE64 else 2.0**-104

    @property
    def sig_digits(self) -> int:
        """Decimal digits carried when formatting a value of this tier."""
        return 17 if self is Tier.NATIVE64 else 32


def _check_tier(tier) -> None:
    if not isinstance(tier, Tier):
        raise ConfigError(f"tier must be a Tier, not {tier!r}")


# ----------------------------------------------------------------------
# Error-free transformations on raw floats
# ----------------------------------------------------------------------


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # Knuth's branch-free 6-op version: s + e == a + b exactly.
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free sum: returns ``(s, e)`` with ``s + e == a + b`` exactly,
    ``s = fl(a + b)``. Raises :class:`NonFiniteError` on overflow or
    non-finite input."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError("two_sum requires finite inputs")
    s, e = _two_sum(a, b)
    if not math.isfinite(s):
        raise NonFiniteError("two_sum overflowed")
    return s, e


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Error-free product: returns ``(p, e)`` with ``p + e == a * b``
    exactly, ``p = fl(a * b)``, the error from the exact ratios of the
    operands. Raises :class:`NonFiniteError` on non-finite input, on
    overflow, and where no such ``e`` exists: where the product has bits
    below 2^-1074, as it may at a subnormal or near-subnormal ``p``."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError("two_prod requires finite inputs")
    p = a * b
    if not math.isfinite(p):
        raise NonFiniteError("two_prod overflowed")
    n, d = a.as_integer_ratio()
    m, q = b.as_integer_ratio()
    if d * q > 1 << 1074:
        raise NonFiniteError("two_prod's error falls below 2^-1074")
    # a * b = n m / (d q) has its last bit at or above 2^-1074, so the
    # rest below p is a double, and int / int gives it exactly
    r, s = p.as_integer_ratio()
    return p, (n * m * s - r * d * q) / (d * q * s)


# ----------------------------------------------------------------------
# Compiled-in decimal constants (parsed exactly via Fraction)
# ----------------------------------------------------------------------

_PI_STR = "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798"
_LN2_STR = "0.69314718055994530941723212145817656807550013436025525412068000949339362196969471560586332699641868754"


# ----------------------------------------------------------------------
# Fixed-point builders of the lazy double-word constants and tables
# ----------------------------------------------------------------------
# An integer n stands for n / 2^_FIX. With 192 bits, about 85 guard bits
# lie below the unit of a double-word, so every entry rounds once, from
# the fixed-point value, to the nearest pair.

_FIX = 192
_ONE = 1 << _FIX
_PI_FIXED = int(Fraction(_PI_STR) * _ONE)
_LN2_FIXED = int(Fraction(_LN2_STR) * _ONE)


def _pair_from_ratio(n: int, d: int) -> tuple[float, float]:
    # the double-word nearest to n / d: int / int rounds correctly,
    # subnormal words too, and the rest below hi = p / q is exactly
    # (n q - p d) / (d q); infinite words past binary64's range
    try:
        hi = n / d
    except OverflowError:
        return math.inf, math.inf
    p, q = hi.as_integer_ratio()
    return hi, (n * q - p * d) / (d * q)


def _pair_ratio(hi: float, lo: float) -> tuple[int, int]:
    # hi + lo as n / d exactly, d > 0 a power of two
    p, q = hi.as_integer_ratio()
    r, s = lo.as_integer_ratio()
    return p * s + r * q, q * s


def _fixed_from_pair(hi: float, lo: float, shift: int = _FIX) -> int:
    # floor((hi + lo) 2^shift), from the words' exact ratio
    n, d = _pair_ratio(hi, lo)
    return (n << shift) // d


def _fixed_atan(p: int, q: int, shift: int = _FIX) -> int:
    # atan(p/q) at 2^-shift for 0 <= p <= q by Euler's series: with d =
    # p^2 + q^2, the first term is p q / d and each next one the last
    # times m p^2 / ((m + 1) d) for m = 2, 4, ..., a ratio of at most
    # 1/2; no term cancels. The terms are floored 16 bits finer and the
    # sum rounded once, so that the at most shift + 17 of them lose under
    # 2^-8 units between them, and the result is within 0.5 + 2^-8 units
    g = shift + 16
    p2 = p * p
    d = p2 + q * q
    term = total = (p * q << g) // d
    n = 2
    while term:
        term = term * n * p2 // ((n + 1) * d)
        total += term
        n += 2
    return total + (1 << 15) >> 16


def _fixed_exp_series(x: int, shift: int = _FIX) -> int:
    # e^x at 2^-shift for |x| <= 1 by its Taylor series
    total = term = 1 << shift
    n = 1
    while term:
        term = (term * x >> shift) // n
        total += term
        n += 1
    return total


def _fixed_exp_powers(x: int, count: int) -> tuple[int, ...]:
    # e^(j x) for j = 0..count - 1, with 0 <= x <= _ONE: the integer
    # powers of e^x
    base = _fixed_exp_series(x)
    powers = [_ONE]
    for _ in range(count - 1):
        powers.append(powers[-1] * base >> _FIX)
    return tuple(powers)


@functools.lru_cache(maxsize=None)
def _fixed_exp_tables() -> tuple[tuple[int, ...], ...]:
    # e^i for i < 128 and e^(i/64), e^(i/2^12), e^(i/2^18), e^(i/2^24)
    # for i < 64, built on first use: 384 ints, about 25 KB
    return (
        _fixed_exp_powers(_ONE, 128),
        *(_fixed_exp_powers(_ONE >> s, 64) for s in (6, 12, 18, 24)),
    )


def _fixed_exp(v: int) -> int:
    # e^v for 0 <= v < 128 at the fixed point: v = i + j/64 + k/2^12 +
    # l/2^18 + m/2^24 + r with r < 2^-24, each power read from its table
    # and e^r summed in about 7 terms; the relative error stays below
    # 2^-180. A v with no bits below 2^-12, as every tanh-sinh e^t, is
    # the product of the first three tables alone
    ones, s6, s12, s18, s24 = _fixed_exp_tables()
    e = ones[v >> _FIX] * s6[(v >> _FIX - 6) & 63] >> _FIX
    e = e * s12[(v >> _FIX - 12) & 63] >> _FIX
    r = v & (_ONE >> 12) - 1
    if not r:
        return e
    e = e * s18[r >> _FIX - 18] >> _FIX
    e = e * s24[(r >> _FIX - 24) & 63] >> _FIX
    return e * _fixed_exp_series(r & (_ONE >> 24) - 1) >> _FIX


def _sincos_shift(xh: float) -> int:
    # the fixed point 2^-f at which a double-word x enters _fixed_sincos:
    # f = 192, or 192 + 3m where |x| < 2^-m, so that the low words of a
    # small x's sine and cosine, x^3/6 and x^2/2 below it, keep their bits
    if abs(xh) > 1024.0:
        raise DomainError("sin/cos argument beyond |x| <= 2^10")
    return _FIX - 3 * min(math.frexp(xh)[1], 0)


def _fixed_sincos(x: int, f: int) -> tuple[int, int, int]:
    # (sin x, cos x, g) for x at 2^-f, f >= 192, |x| <= 2^10, both at
    # 2^-g: x = q pi/2 + r with |r| <= pi/4, both Taylor series at r/8
    # and g = f + 3, summed in one loop, then three doublings, swapped and
    # negated by q mod 4. The pi/2 used is 0.016 units of 2^-192 short,
    # so r is within 11 units for q <= 651
    half = _PI_FIXED << f - _FIX >> 1
    q, r = divmod(x + (half >> 1), half)
    r -= half >> 1
    g = f + 3
    r2 = r * r >> g
    s = ts = r
    c = tc = 1 << g
    n = 1
    while tc:
        tc = -(tc * r2 >> g) // (n * (n + 1))
        ts = -(ts * r2 >> g) // ((n + 1) * (n + 2))
        c += tc
        s += ts
        n += 2
    for _ in range(3):
        s, c = s * c >> g - 1, c * c - s * s >> g
    if q & 1:
        s, c = c, -s
    if q & 2:
        s, c = -s, -c
    return s, c, g


def _fixed_atan_ratio(p: int, q: int, shift: int) -> int:
    # atan(p/q) at 2^-shift for p, q >= 0, shift >= 192: below 1 it is
    # atan(k/1024) + atan t with k/1024 the nearest to p/q and t = (1024p
    # - kq)/(1024q + kp), |t| <= 2^-11, whose Taylor terms each fall under
    # 2^-22 of the last (about 8 of them at 2^-192); above 1, pi/2 -
    # atan(q/p). The error is under 1.5 units of 2^-192, from the entry
    # (0.5) and pi/2 (1), plus 16 units of 2^-shift, from the floored t
    # and terms; against mpmath the worst seen is 5.5 units at 2^-192
    if p > q:
        return (_PI_FIXED << shift - _FIX >> 1) - _fixed_atan_ratio(q, p, shift)
    k = (p << 11) // q + 1 >> 1
    t = ((p << 10) - k * q << shift) // ((q << 10) + k * p)
    t2 = t * t >> shift
    total = term = t
    n = 1
    while term:
        term = -(term * t2 >> shift)
        n += 2
        total += term // n
    return (_atan_entry(k) << shift - _FIX) + total


@functools.lru_cache(maxsize=None)
def _pi_pair() -> tuple[float, float]:
    return _pair_from_ratio(_PI_FIXED, _ONE)


@functools.lru_cache(maxsize=None)
def _atan_table() -> tuple[int, ...]:
    # atan(k/64) at 2^-208, 16 bits below the fixed point, for k =
    # 0..64, built on first use: the base of every _atan_entry
    return tuple(_fixed_atan(k, 64, _FIX + 16) for k in range(65))


@functools.lru_cache(maxsize=None)
def _atan_entry(k: int) -> int:
    # atan(k/1024) at 2^-192 for 0 <= k <= 1024, each built on first use:
    # atan(j/64) for j/64 the nearest to k/1024, plus atan(a/b), a =
    # 64(k - 16j), b = 65536 + jk, |a/b| <= 2^-7, whose Euler series
    # stops after about 15 terms, both at 2^-208 and the sum rounded
    # once; within 0.5 + 2^-15 units
    j = k + 8 >> 4
    a, b = 64 * (k - 16 * j), 65536 + j * k
    t = _fixed_atan(a, b, _FIX + 16) if a >= 0 else -_fixed_atan(-a, b, _FIX + 16)
    return _atan_table()[j] + t + (1 << 15) >> 16


# ----------------------------------------------------------------------
# Double-word elementary functions
# ----------------------------------------------------------------------


def _dd_sincos(xh: float, xl: float) -> tuple[float, float, float, float]:
    # (sin x, cos x), each rounded once from _fixed_sincos
    f = _sincos_shift(xh)
    s, c, g = _fixed_sincos(_fixed_from_pair(xh, xl, f), f)
    return *_pair_from_ratio(s, 1 << g), *_pair_from_ratio(c, 1 << g)


def _dd_atan(xh: float, xl: float) -> tuple[float, float]:
    # the nearest pair to atan x, as atan computes it
    if xh < 0.0:
        rh, rl = _dd_atan(-xh, -xl)
        return -rh, -rl
    f = _FIX - 3 * min(math.frexp(xh)[1], 0)
    return _pair_from_ratio(_fixed_atan_ratio(_fixed_from_pair(xh, xl, f), 1 << f, f), 1 << f)


def _dd_exp(xh: float, xl: float) -> tuple[float, float]:
    # e^x = 2^k e^r for k, r = divmod(x, ln2) at the fixed point, rounded
    # once to the nearest pair at 2^(k - 1216): the shift stays positive,
    # a subnormal word rounds once too, and a value past binary64's range
    # comes back infinite. Above 710 e^x overflows, and below -746 its
    # nearest pair is zero. Below |x| = 2^-12, where the low word of e^x
    # holds the bits of x, the series alone runs m bits finer for |x| <
    # 2^-m
    if xh > 710.0:
        raise NonFiniteError("exp argument out of range")
    if xh < -746.0:
        return 0.0, 0.0
    if abs(xh) < 2.0**-12:
        f = _FIX - math.frexp(xh)[1]
        return _pair_from_ratio(_fixed_exp_series(_fixed_from_pair(xh, xl, f), f), 1 << f)
    k, r = divmod(_fixed_from_pair(xh, xl), _LN2_FIXED)
    return _pair_from_ratio(_fixed_exp(r) << 1024, 1 << _FIX + 1024 - k)


# ----------------------------------------------------------------------
# The public Real wrapper
# ----------------------------------------------------------------------


def _check_finite_pair(hi: float, lo: float, what: str) -> None:
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NonFiniteError(f"{what} produced a non-finite value")


def _exact_ratio(native, a: "Real", b: "Real") -> tuple[int, int]:
    # native(a, b) exactly, as n / d, from the exact ratios of the words
    n, d = _pair_ratio(a.hi, a.lo)
    m, q = _pair_ratio(b.hi, b.lo)
    if native is operator.mul:
        return n * m, d * q
    if native is operator.truediv:
        return n * q, d * m
    return native(n * q, m * d), d * q


def _nearest(native, a: "Real", b: "Real") -> tuple[float, float]:
    # the nearest pair to native(a, b): a sum's hi is fsum of the signed
    # words, correctly rounded as _pair_from_ratio rounds, and its lo the
    # fsum with -hi; the exact ratio's where a partial sum overflows
    if native is operator.add or native is operator.sub:
        words = (a.hi, a.lo, b.hi, b.lo) if native is operator.add else (a.hi, a.lo, -b.hi, -b.lo)
        try:
            hi = math.fsum(words)
            return hi, math.fsum(words + (-hi,))
        except OverflowError:
            pass
    return _pair_from_ratio(*_exact_ratio(native, a, b))


def _real_op(native, what: str, swap: bool = False):
    # one Real operator, self op other (other op self when swap): at
    # NATIVE64 the binary64 native(a, b), at DOUBLEWORD the nearest pair
    # to the exact result
    def op(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = (o, self) if swap else (self, o)
        if native is operator.truediv and b.hi == 0.0:
            raise ZeroDivisionError("division by zero")
        if self.tier is Tier.NATIVE64:
            rh, rl = native(a.hi, b.hi), 0.0
        else:
            rh, rl = _nearest(native, a, b)
        _check_finite_pair(rh, rl, what)
        return Real._raw(rh, rl, self.tier)

    return op


def _int_words(n: int) -> tuple[float, float, int]:
    # n as its nearest pair and the integer rest below it, 0 under 2^106;
    # NonFiniteError past binary64's range
    try:
        hi = float(n)
    except OverflowError:
        raise NonFiniteError("operand is not finite") from None
    lo = float(n - int(hi))
    return hi, lo, n - int(hi) - int(lo)


def _real_cmp(compare):
    # one Real ordering, exact: compare on the (hi, lo) pairs, and against
    # an int on (hi, lo, rest)
    def op(self, other):
        if isinstance(other, int):
            return compare((self.hi, self.lo, 0), _int_words(other))
        o = self._coerce(other)
        return NotImplemented if o is None else compare((self.hi, self.lo), (o.hi, o.lo))

    return op


class Real:
    """An immutable real number bound to a precision tier.

    NATIVE64 values keep ``lo == 0.0``. DOUBLEWORD values maintain the
    non-overlap invariant ``fl(hi + lo) == hi``. Arithmetic between
    different tiers raises :class:`TierMismatchError`. A float operand
    is promoted exactly to the tier of the other operand; an int to its
    nearest double at NATIVE64 and to its nearest pair at DOUBLEWORD,
    exact below 2^106. Comparisons with an int are exact at both tiers.
    An int past binary64's range equals no Real, and arithmetic or
    ordering with it raises :class:`NonFiniteError`.

    At DOUBLEWORD, ``+``, ``-``, ``*`` and ``/`` return the nearest
    pair to the exact result. A result past binary64's range raises
    :class:`NonFiniteError`, and a zero divisor
    :class:`ZeroDivisionError`.
    """

    __slots__ = ("hi", "lo", "tier")

    def __init__(self, value: float = 0.0, lo: float = 0.0, tier: Tier = Tier.NATIVE64):
        _check_tier(tier)
        try:
            hi = float(value)
            lo = float(lo)
        except OverflowError:
            raise NonFiniteError("Real components must be finite") from None
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteError("Real components must be finite")
        if tier is Tier.NATIVE64:
            hi = hi + lo
            lo = 0.0
        elif isinstance(value, int):
            r, s = lo.as_integer_ratio()
            hi, lo = _pair_from_ratio(value * s + r, s)
        else:
            hi, lo = _two_sum(hi, lo)
        if not math.isfinite(hi):
            raise NonFiniteError("Real value overflowed")
        self.hi = hi
        self.lo = lo
        self.tier = tier

    # -- construction helpers ------------------------------------------

    @classmethod
    def _raw(cls, hi: float, lo: float, tier: Tier) -> "Real":
        # trusted fast path: components already normalized
        self = object.__new__(cls)
        self.hi = hi
        self.lo = lo
        self.tier = tier
        return self

    @classmethod
    def from_float(cls, value: float, tier: Tier = Tier.NATIVE64) -> "Real":
        """Exact embedding of a binary64 float into a tier; an int is
        rounded to the nearest double at NATIVE64 and to its nearest pair
        at DOUBLEWORD."""
        return cls(value, 0.0, tier)

    @classmethod
    def from_decimal(cls, text: str, tier: Tier = Tier.NATIVE64) -> "Real":
        """Parse a decimal literal with correct rounding at the tier."""
        _check_tier(tier)
        try:
            d = Decimal(text)
        except InvalidOperation as exc:
            raise ConfigError(f"not a decimal literal: {text!r}") from exc
        if not d.is_finite():
            raise NonFiniteError("decimal literal is not finite")
        hi = float(d)  # correctly rounded, as float(Fraction(d)) is
        if not math.isfinite(hi):
            raise NonFiniteError("decimal literal overflows binary64")
        if tier is Tier.NATIVE64 or hi == 0.0:
            return cls._raw(hi, 0.0, tier)
        hi, lo = _pair_from_ratio(*d.as_integer_ratio())
        return cls._raw(hi, lo, tier)

    # -- conversions ----------------------------------------------------

    def to_float(self) -> float:
        return self.hi + self.lo

    __float__ = to_float

    def to_decimal_string(self) -> str:
        """Shortest round-trip repr at NATIVE64; 32 significant digits
        in scientific form at DOUBLEWORD."""
        if self.tier is Tier.NATIVE64:
            return repr(self.hi)
        if self.hi == 0.0 and self.lo == 0.0:
            return "0.0"
        with localcontext() as ctx:
            ctx.prec = 70
            d = Decimal(self.hi) + Decimal(self.lo)
        return format(d, ".31E")

    def __str__(self) -> str:
        return self.to_decimal_string()

    def __repr__(self) -> str:
        return f"Real('{self.to_decimal_string()}', tier={self.tier.name})"

    # -- comparisons ------------------------------------------------------

    def _coerce(self, other) -> "Real | None":
        if isinstance(other, Real):
            if other.tier is not self.tier:
                raise TierMismatchError(
                    f"mixed tiers: {self.tier.name} and {other.tier.name}"
                )
            return other
        if isinstance(other, int):
            hi, lo, _ = _int_words(other)
            return Real(hi, lo, self.tier)
        if isinstance(other, float):
            if not math.isfinite(other):
                raise NonFiniteError("operand is not finite")
            return Real._raw(other, 0.0, self.tier)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, Real):
            return (
                self.tier is other.tier
                and self.hi == other.hi
                and self.lo == other.lo
            )
        if isinstance(other, int):
            try:
                return (self.hi, self.lo, 0) == _int_words(other)
            except NonFiniteError:
                return False
        if isinstance(other, float):
            return self.hi == other and self.lo == 0.0
        return NotImplemented

    def __hash__(self):
        # a value equal to a float or an int hashes as it does; a low word
        # that is a whole number makes the high word one too
        if self.lo == 0.0:
            return hash(self.hi)
        if self.lo.is_integer():
            return hash(int(self.hi) + int(self.lo))
        return hash((self.hi, self.lo, self.tier))

    __lt__ = _real_cmp(operator.lt)
    __le__ = _real_cmp(operator.le)
    __gt__ = _real_cmp(operator.gt)
    __ge__ = _real_cmp(operator.ge)

    # -- arithmetic -------------------------------------------------------

    __add__ = __radd__ = _real_op(operator.add, "addition")
    __sub__ = _real_op(operator.sub, "subtraction")
    __rsub__ = _real_op(operator.sub, "subtraction", swap=True)
    __mul__ = __rmul__ = _real_op(operator.mul, "multiplication")
    __truediv__ = _real_op(operator.truediv, "division")
    __rtruediv__ = _real_op(operator.truediv, "division", swap=True)

    def __neg__(self):
        return Real._raw(-self.hi, -self.lo, self.tier)

    def __abs__(self):
        return -self if self.hi < 0.0 else self

    def __bool__(self):
        return self.hi != 0.0


# ----------------------------------------------------------------------
# Module-level operations (the stable scalar API)
# ----------------------------------------------------------------------


def add(x: Real, y: Real) -> Real:
    return x + y


def sub(x: Real, y: Real) -> Real:
    return x - y


def mul(x: Real, y: Real) -> Real:
    return x * y


def div(x: Real, y: Real) -> Real:
    return x / y


def sqrt(x: Real) -> Real:
    """Square root; raises :class:`DomainError` for negative input. At
    DOUBLEWORD the nearest pair, from the integer square root of x at
    2^-2f, f = max(0, 192 - floor(e/2)) for 2^(e-1) <= x < 2^e."""
    if x.hi < 0.0:
        raise DomainError("sqrt of a negative value")
    if x.tier is Tier.NATIVE64:
        return Real._raw(math.sqrt(x.hi), 0.0, x.tier)
    f = max(_FIX - (math.frexp(x.hi)[1] >> 1), 0)
    rh, rl = _pair_from_ratio(math.isqrt(_fixed_from_pair(x.hi, x.lo, 2 * f)), 1 << f)
    return Real._raw(rh, rl, x.tier)


def atan(x: Real) -> Real:
    """Arctangent. At DOUBLEWORD the nearest pair, from the integer
    atan of |x| at 2^-f: f = 192, or 192 + 3m where |x| < 2^-m, so that
    x^3/3 keeps its bits below a small x."""
    if x.tier is Tier.NATIVE64:
        return Real._raw(math.atan(x.hi), 0.0, x.tier)
    return Real._raw(*_dd_atan(x.hi, x.lo), x.tier)


def sin(x: Real) -> Real:
    if x.tier is Tier.NATIVE64:
        return Real._raw(math.sin(x.hi), 0.0, x.tier)
    rh, rl, _, _ = _dd_sincos(x.hi, x.lo)
    return Real._raw(rh, rl, x.tier)


def cos(x: Real) -> Real:
    if x.tier is Tier.NATIVE64:
        return Real._raw(math.cos(x.hi), 0.0, x.tier)
    _, _, rh, rl = _dd_sincos(x.hi, x.lo)
    return Real._raw(rh, rl, x.tier)


def exp(x: Real) -> Real:
    if x.tier is Tier.NATIVE64:
        try:
            r = math.exp(x.hi)
        except OverflowError:
            raise NonFiniteError("exp overflowed") from None
        return Real._raw(r, 0.0, x.tier)
    rh, rl = _dd_exp(x.hi, x.lo)
    _check_finite_pair(rh, rl, "exp")
    return Real._raw(rh, rl, x.tier)


def pi(tier: Tier = Tier.NATIVE64) -> Real:
    """The circle constant at the tier. The double-word value is the
    nearest pair to a compiled-in digit string."""
    _check_tier(tier)
    if tier is Tier.NATIVE64:
        return Real._raw(math.pi, 0.0, tier)
    ph, pl = _pi_pair()
    return Real._raw(ph, pl, tier)


def build_info() -> str:
    """One line describing the numeric configuration of this build."""
    # Machin's formula through the fixed-point atan, against the digits
    machin = 16 * _fixed_atan(1, 5) - 4 * _fixed_atan(1, 239)
    pi_check = "ok" if abs(machin - _PI_FIXED) < 1 << (_FIX - 160) else "FAILED"
    return (
        f"tiers: native64 (eps=2^-52), doubleword (eps=2^-104); "
        f"products=exact-ratio; two_prod=exact-ratio; pi-self-check={pi_check}"
    )

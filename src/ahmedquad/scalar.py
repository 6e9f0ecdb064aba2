"""Precision-tiered real scalars.

Two tiers share one interface: NATIVE64 is ordinary IEEE binary64, and
DOUBLEWORD represents a value as an unevaluated sum ``hi + lo`` of two
binary64 floats (a double-word, roughly 32 significant decimal digits).
All double-word kernels are built from the classic error-free
transformations: ``two_sum`` (Knuth) and ``two_prod`` (Dekker splitting,
used on every interpreter, including those that provide ``math.fma``).
The hot ``_dd_*`` kernels inline these transformations, with every
floating-point operation in the same order, to save Python call
overhead; the tests hold each kernel bit-identical to its composition
of ``_two_sum``, ``_two_prod`` and ``_quick_two_sum``.

The hot paths inside the quadrature engines work on raw ``(hi, lo)``
tuples through the module-private ``_dd_*`` functions; the :class:`Real`
wrapper provides the safe, tier-checked public surface on top of them.

Double-word ``atan`` uses Tang's table-lookup reduction with one
division: x in [0, 1] is reduced about the nearest c = k/64 to
t = (x - c)/(1 + x c), and atan(k/64) comes from a 65-entry table built
on first use. Above 1, c = k/64 is the nearest to 1/x,
t = (1 - c x)/(x + c), and atan x = atan(64/k) - atan t, with
atan(64/k) = pi/2 - atan(k/64) from a second table built with the
first; ``_dd_atan_recip`` gives atan(1/x) = atan(k/64) + atan t from the
same t. Always |t| <= 1/128. Double-word ``sin`` and ``cos`` fold about
pi/2 in a loop and raise :class:`DomainError` for |x| > 2^10; one fold
and one pair of series give both (``_dd_sincos``).
The sine and cosine series share one Taylor loop (``_dd_taylor``), and
the atan and exp polynomials share one double-word Horner kernel
(``_dd_horner``).

A reciprocal 1/b, which the three 2-D kernels' joins and the eq3 lane
form at every point, takes one Newton step from r = 1/b_hi
(``_dd_recip``, Karp and Markstein, ACM TOMS 23, 1997): with
two_prod(b_hi, r) = p + pe, e = (1 - p) - pe - b_lo r, and 1/b = r (1 +
e + e^2). It stays within a unit of 2^-104, at under 40% of the cost of
the long division ``_dd_div(1, 0, b)``.

Double-word ``exp`` follows Tang's table-driven method: x = (64 k + j)
ln2/64 + r with |r| <= ln2/128, and e^x = 2^k * 2^(j/64) * p(r), with
2^(j/64) from a 64-entry table built on first use and p the degree-10
Taylor polynomial in Horner form. It stays within a unit of 2^-104 for
-671 <= x <= 709; below that the result's low word is subnormal and
the relative error grows to ~10^15 units near -709.

Every lazy constant and table (pi, the two atan tables and 2^(j/64)) is
the nearest double-word pair, rounded once from a 192-bit fixed-point
integer: Euler's series for atan(p/q), and the Taylor series of e^x with
its integer powers. The same block gives e^v for 0 <= v < 128
(``_fixed_exp``) from three power tables and a short series, from which
the quadrature module computes each double-word tanh-sinh point.

Dekker's split overflows beyond ~2^996, where the raw ``_dd_mul``,
``_dd_div``, their ``_d`` forms and ``_dd_recip`` return NaN. Four
rescuing entries redo such an operation on operands scaled by powers of
two (``_dd_rescaled``), so that 1 / 1e301 comes out finite:
``_dd_mul_rescued`` (:class:`Real` and the quadrature lanes),
``_dd_div_rescued`` (:class:`Real`), ``_dd_div_d_rescued`` (the
quadrature lanes) and ``_dd_recip_rescued`` (the eq3 lane, falling back
to the rescuing quotient). The raw kernels keep their NaNs. The
:class:`Real` arithmetic operators share one tier-checked path
(``_real_op``).
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

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's split constant for binary64


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # Knuth's branch-free 6-op version: s + e == a + b exactly.
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b| (or a == 0)
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


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
    exactly, ``p = fl(a * b)``. Raises :class:`NonFiniteError` on
    overflow, underflow of the split, or non-finite input."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError("two_prod requires finite inputs")
    p, e = _two_prod(a, b)
    if not (math.isfinite(p) and math.isfinite(e)):
        raise NonFiniteError("two_prod overflowed")
    return p, e


# ----------------------------------------------------------------------
# Double-word core arithmetic on raw (hi, lo) pairs
# ----------------------------------------------------------------------


def _dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # two_sum(ah, bh), two_sum(al, bl), then two quick_two_sums, inlined
    sh = ah + bh
    v = sh - ah
    se = (ah - (sh - v)) + (bh - v)
    th = al + bl
    v = th - al
    te = (al - (th - v)) + (bl - v)
    se += th
    h = sh + se
    se = se - (h - sh)
    se += te
    sh = h + se
    return sh, se - (sh - h)


def _dd_sub(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    return _dd_add(ah, al, -bh, -bl)


def _dd_add_d(ah: float, al: float, b: float) -> tuple[float, float]:
    # two_sum(ah, b), then quick_two_sum, inlined
    sh = ah + b
    v = sh - ah
    se = (ah - (sh - v)) + (b - v)
    se += al
    h = sh + se
    return h, se - (h - sh)


def _dd_mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # two_prod(ah, bh) by Dekker splitting, then quick_two_sum, inlined
    p = ah * bh
    t = _SPLITTER * ah
    a1 = t - (t - ah)
    a2 = ah - a1
    t = _SPLITTER * bh
    b1 = t - (t - bh)
    b2 = bh - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += ah * bl + al * bh
    h = p + e
    return h, e - (h - p)


def _dd_mul_d(ah: float, al: float, b: float) -> tuple[float, float]:
    # two_prod(ah, b), then quick_two_sum, inlined
    p = ah * b
    t = _SPLITTER * ah
    a1 = t - (t - ah)
    a2 = ah - a1
    t = _SPLITTER * b
    b1 = t - (t - b)
    b2 = b - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += al * b
    h = p + e
    return h, e - (h - p)


def _dd_sqr(ah: float, al: float) -> tuple[float, float]:
    # two_prod(ah, ah) with ah split once, then quick_two_sum, inlined
    p = ah * ah
    t = _SPLITTER * ah
    a1 = t - (t - ah)
    a2 = ah - a1
    e = ((a1 * a1 - p) + a1 * a2 + a2 * a1) + a2 * a2
    e += 2.0 * ah * al
    h = p + e
    return h, e - (h - p)


def _dd_div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # long division with three partial quotients, ~u^2 relative error.
    # Each step is _dd_mul_d(bh, bl, q) followed by _dd_sub, inlined with
    # bh split once; x + (-y) is written x - y, the same IEEE operation.
    t = _SPLITTER * bh
    b1 = t - (t - bh)
    b2 = bh - b1
    q1 = ah / bh
    # (th, tl) = (bh, bl) * q1
    p = bh * q1
    t = _SPLITTER * q1
    c1 = t - (t - q1)
    c2 = q1 - c1
    e = ((b1 * c1 - p) + b1 * c2 + b2 * c1) + b2 * c2
    e += bl * q1
    th = p + e
    tl = e - (th - p)
    # (rh, rl) = (ah, al) - (th, tl)
    sh = ah - th
    v = sh - ah
    se = (ah - (sh - v)) + (-th - v)
    sl = al - tl
    v = sl - al
    te = (al - (sl - v)) + (-tl - v)
    se += sl
    h = sh + se
    se = se - (h - sh)
    se += te
    rh = h + se
    rl = se - (rh - h)
    q2 = rh / bh
    # (th, tl) = (bh, bl) * q2
    p = bh * q2
    t = _SPLITTER * q2
    c1 = t - (t - q2)
    c2 = q2 - c1
    e = ((b1 * c1 - p) + b1 * c2 + b2 * c1) + b2 * c2
    e += bl * q2
    th = p + e
    tl = e - (th - p)
    # rh = hi word of (rh, rl) - (th, tl); its low word is never used
    sh = rh - th
    v = sh - rh
    se = (rh - (sh - v)) + (-th - v)
    sl = rl - tl
    v = sl - rl
    te = (rl - (sl - v)) + (-tl - v)
    se += sl
    h = sh + se
    se = se - (h - sh)
    se += te
    q3 = (h + se) / bh
    # quick_two_sum(q1, q2), then add q3 as _dd_add_d does
    qh = q1 + q2
    ql = q2 - (qh - q1)
    sh = qh + q3
    v = sh - qh
    se = (qh - (sh - v)) + (q3 - v)
    se += ql
    h = sh + se
    return h, se - (h - sh)


def _dd_div_d(ah: float, al: float, b: float) -> tuple[float, float]:
    # two_prod(q1, b), then quick_two_sum, inlined
    q1 = ah / b
    p = q1 * b
    t = _SPLITTER * q1
    a1 = t - (t - q1)
    a2 = q1 - a1
    t = _SPLITTER * b
    b1 = t - (t - b)
    b2 = b - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    q2 = ((ah - p) - e + al) / b
    h = q1 + q2
    return h, q2 - (h - q1)


def _dd_recip(bh: float, bl: float) -> tuple[float, float]:
    # 1/b by one Newton step from r = 1/bh (Karp-Markstein, ACM TOMS 23,
    # 1997): e = 1 - b r from two_prod(bh, r) = p + pe, then r (1 + e + e^2)
    # by quick_two_sum, inlined. 1 - p is exact (Sterbenz)
    r = 1.0 / bh
    p = bh * r
    t = _SPLITTER * bh
    b1 = t - (t - bh)
    b2 = bh - b1
    t = _SPLITTER * r
    r1 = t - (t - r)
    r2 = r - r1
    pe = ((b1 * r1 - p) + b1 * r2 + b2 * r1) + b2 * r2
    e = (1.0 - p) - pe - bl * r
    c = r * (e + e * e)
    h = r + c
    return h, c - (h - r)


def _dd_scale2(ah: float, al: float, s: float) -> tuple[float, float]:
    # s must be a power of two: the scaling is exact
    return ah * s, al * s


def _dd_sqrt(ah: float, al: float) -> tuple[float, float]:
    # Karp's method: one Newton correction from the native square root.
    # two_prod(y, y) and the hi word of _dd_sub are inlined.
    if ah == 0.0 and al == 0.0:
        return 0.0, 0.0
    if ah < 0.0:
        raise DomainError("sqrt of a negative value")
    r = 1.0 / math.sqrt(ah)
    y = ah * r
    p = y * y
    t = _SPLITTER * y
    y1 = t - (t - y)
    y2 = y - y1
    pe = ((y1 * y1 - p) + y1 * y2 + y2 * y1) + y2 * y2
    sh = ah - p
    v = sh - ah
    se = (ah - (sh - v)) + (-p - v)
    sl = al - pe
    v = sl - al
    te = (al - (sl - v)) + (-pe - v)
    se += sl
    h = sh + se
    se = se - (h - sh)
    se += te
    c = (h + se) * (0.5 * r)
    h = y + c
    return h, c - (h - y)


def _dd_rescaled(kernel, ah: float, al: float, bh: float, bl: float, sign: int):
    # kernel(a, b) on operands scaled by powers of two to a high word in
    # [0.5, 1), then scaled back by 2^(ea + sign * eb): sign 1 for a
    # product, -1 for a quotient. Dekker's split overflows once a
    # high word or partial quotient passes ~2^996, and the kernel then
    # returns NaN, though the result may be representable; on scaled
    # operands it cannot. A result beyond binary64 comes back infinite.
    _, ea = math.frexp(ah)
    _, eb = math.frexp(bh)
    rh, rl = kernel(
        math.ldexp(ah, -ea), math.ldexp(al, -ea), math.ldexp(bh, -eb), math.ldexp(bl, -eb)
    )
    k = ea + sign * eb
    try:
        return math.ldexp(rh, k), math.ldexp(rl, k)
    except OverflowError:
        return math.inf, math.inf


def _dd_mul_rescued(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # _dd_mul's body in the same operation order, then one test of its high
    # word: fused, as it runs at every weight and point product. On 2 vCPUs
    # (CPython 3.11.7) a wrapper's extra call cost 1-5% on GL24 tensors, a
    # doubleword verify round and level-8 tanh-sinh; this copy, under 1%
    p = ah * bh
    t = _SPLITTER * ah
    a1 = t - (t - ah)
    a2 = ah - a1
    t = _SPLITTER * bh
    b1 = t - (t - bh)
    b2 = bh - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += ah * bl + al * bh
    h = p + e
    if h != h:  # NaN: the split overflowed, or an operand is not finite
        return _dd_rescaled(_dd_mul, ah, al, bh, bl, 1)
    return h, e - (h - p)


def _dd_div_rescued(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # _dd_div's bits, or where NaN the quotient redone by _dd_rescaled
    r = _dd_div(ah, al, bh, bl)
    if r[0] != r[0]:
        return _dd_rescaled(_dd_div, ah, al, bh, bl, -1)
    return r


def _dd_div_d_rescued(ah: float, al: float, b: float) -> tuple[float, float]:
    # _dd_div_d's bits, or where NaN the quotient redone by _dd_rescaled
    # through _dd_div
    r = _dd_div_d(ah, al, b)
    if r[0] != r[0]:
        return _dd_rescaled(_dd_div, ah, al, b, 0.0, -1)
    return r


def _dd_recip_rescued(bh: float, bl: float) -> tuple[float, float]:
    # _dd_recip's bits, or where NaN those of _dd_div_rescued(1, 0, b)
    r = _dd_recip(bh, bl)
    if r[0] != r[0]:
        return _dd_div_rescued(1.0, 0.0, bh, bl)
    return r


# ----------------------------------------------------------------------
# Compiled-in decimal constants (parsed exactly via Fraction)
# ----------------------------------------------------------------------

_PI_STR = "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798"
_LN2_STR = "0.69314718055994530941723212145817656807550013436025525412068000949339362196969471560586332699641868754"


def _pair_from_fraction(f: Fraction) -> tuple[float, float]:
    # the double-word nearest to f
    hi = float(f)
    return hi, float(f - Fraction(hi))


@functools.lru_cache(maxsize=None)
def _pi_half_triple() -> tuple[float, float, float]:
    f = Fraction(Decimal(_PI_STR)) / 2
    a = float(f)
    f -= Fraction(a)
    b = float(f)
    c = float(f - Fraction(b))
    return a, b, c


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


def _pair_from_fixed(n: int, shift: int = _FIX) -> tuple[float, float]:
    # the double-word nearest to n / 2^shift; int / int rounds correctly
    one = 1 << shift
    hi = n / one
    return hi, (n - int(math.ldexp(hi, shift))) / one


def _fixed_atan(p: int, q: int) -> int:
    # atan(p/q) for 0 <= p <= q by Euler's series: with d = p^2 + q^2,
    # the first term is p q / d and each next one the last times
    # m p^2 / ((m + 1) d) for m = 2, 4, ..., a ratio of at most 1/2;
    # no term cancels
    p2 = p * p
    d = p2 + q * q
    term = total = (p * q << _FIX) // d
    n = 2
    while term:
        term = term * n * p2 // ((n + 1) * d)
        total += term
        n += 2
    return total


def _fixed_exp_series(x: int) -> int:
    # e^x for 0 <= x <= _ONE by its Taylor series
    total = term = _ONE
    n = 1
    while term:
        term = (term * x >> _FIX) // n
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
    # e^i for i < 128 and e^(i/64), e^(i/4096) for i < 64, built on first
    # use; one table of e^(i/64) for i < 8192 would cost 0.5 MiB more
    return (
        _fixed_exp_powers(_ONE, 128),
        _fixed_exp_powers(_ONE >> 6, 64),
        _fixed_exp_powers(_ONE >> 12, 64),
    )


def _fixed_exp(v: int) -> int:
    # e^v for 0 <= v < 128 at the fixed point: v = i + j/64 + k/4096 + r
    # with r < 2^-12, e^i, e^(j/64) and e^(k/4096) read from the tables
    # and e^r summed; the relative error stays below 2^-180
    ones, steps, fine = _fixed_exp_tables()
    e = ones[v >> _FIX] * steps[(v >> _FIX - 6) & 63] >> _FIX
    e = e * fine[(v >> _FIX - 12) & 63] >> _FIX
    return e * _fixed_exp_series(v & ((_ONE >> 12) - 1)) >> _FIX


@functools.lru_cache(maxsize=None)
def _pi_pair() -> tuple[float, float]:
    return _pair_from_fixed(_PI_FIXED)


@functools.lru_cache(maxsize=None)
def _atan_tables() -> tuple[tuple[tuple[float, float], ...], ...]:
    # atan(k / 64) and atan(64 / k) = pi/2 - atan(k / 64) for k = 0..64,
    # pi/2 at k = 0, from one series pass, subtracted in fixed point
    # before rounding; built on first use
    fixed = [_fixed_atan(k, 64) for k in range(65)]
    return (
        tuple(map(_pair_from_fixed, fixed)),
        tuple(_pair_from_fixed((_PI_FIXED >> 1) - a) for a in fixed),
    )


@functools.lru_cache(maxsize=None)
def _exp2_table() -> tuple[tuple[float, float], ...]:
    # 2^(j/64) for j = 0..63 as powers of e^(ln2/64), built on first use
    return tuple(map(_pair_from_fixed, _fixed_exp_powers(_LN2_FIXED >> 6, 64)))


# ----------------------------------------------------------------------
# Double-word elementary functions
# ----------------------------------------------------------------------


def _dd_taylor(ph: float, pl: float, x2h: float, x2l: float, o: int) -> tuple[float, float]:
    # sum of the series whose first term is p and whose term k is term
    # k - 1 times -x^2 / ((2k - 1 + o)(2k + o)): o = 1 for the odd series
    # of sin, o = 0 for the even one of cos
    sh, sl = ph, pl
    k = 1
    while True:
        ph, pl = _dd_mul(ph, pl, x2h, x2l)
        ph, pl = _dd_div_d(ph, pl, -float((2 * k - 1 + o) * (2 * k + o)))
        sh, sl = _dd_add(sh, sl, ph, pl)
        if abs(ph) <= 9.0e-34 * abs(sh) + 1e-320 or k > 40:
            return sh, sl
        k += 1


def _dd_horner(
    ph: float, pl: float, zh: float, zl: float, coeffs: tuple[tuple[float, float], ...]
) -> tuple[float, float]:
    # double-word Horner steps p = c + p z for each double-word c in
    # coeffs: two_prod with z split once, then a two_sum of the high
    # words, inlined; callers keep |p z| well below |c|
    t = _SPLITTER * zh
    z1 = t - (t - zh)
    z2 = zh - z1
    for ch, cl in coeffs:
        p = ph * zh
        t = _SPLITTER * ph
        a1 = t - (t - ph)
        a2 = ph - a1
        e = ((a1 * z1 - p) + a1 * z2 + a2 * z1) + a2 * z2
        e += ph * zl + pl * zh
        sh = ch + p
        v = sh - ch
        e += ((ch - (sh - v)) + (p - v)) + cl
        ph = sh + e
        pl = e - (ph - sh)
    return ph, pl


# double-word coefficients -1/7 and then 1/5, -1/3 of the atan series,
# and the binary64 tail 1/9, -1/11, 1/13, -1/15
_ATAN_C7 = _dd_div_d(-1.0, 0.0, 7.0)
_ATAN_C5_C3 = (_dd_div_d(1.0, 0.0, 5.0), _dd_div_d(-1.0, 0.0, 3.0))
_ATAN_C9, _ATAN_C11 = 1.0 / 9.0, -1.0 / 11.0
_ATAN_C13, _ATAN_C15 = 1.0 / 13.0, -1.0 / 15.0


def _dd_atan_add(ch: float, cl: float, th: float, tl: float) -> tuple[float, float]:
    # (ch, cl) + atan t for |t| <= 1/128: atan t = t + t z P(z), z = t^2,
    # P in Horner form
    zh, zl = _dd_sqr(th, tl)
    q = ((_ATAN_C15 * zh + _ATAN_C13) * zh + _ATAN_C11) * zh + _ATAN_C9
    # double-word Horner steps for c = 1/5 and -1/3; |p z| < |c| / 10^4,
    # so no step cancels
    ph, pl = _dd_horner(*_dd_add_d(*_ATAN_C7, zh * q), zh, zl, _ATAN_C5_C3)
    ph, pl = _dd_mul(*_dd_mul(th, tl, zh, zl), ph, pl)
    return _dd_add(ch, cl, *_dd_add(th, tl, ph, pl))


def _atan_recip_reduction(xh: float, xl: float) -> tuple[int, float, float]:
    # for x >= 1, the nearest c = k/64 to 1/x (k = 0 above 128) reduces
    # 1/x to t = (1/x - c)/(1 + c/x) = (1 - c x)/(x + c), |t| <= 1/128,
    # with one division and without forming 1/x
    k = int(64.0 / xh + 0.5)
    c = k * 0.015625
    return k, *_dd_div(
        *_dd_add_d(*_dd_mul_d(xh, xl, -c), 1.0), *_dd_add_d(xh, xl, c)
    )


def _dd_atan(xh: float, xl: float) -> tuple[float, float]:
    # Tang's table-lookup reduction, one division for any x. In [0, 1],
    # with c = k/64 nearest to x, atan x = atan(k/64) + atan t for
    # t = (x - c)/(1 + x c); above 1, atan x = atan(64/k) - atan t for the
    # t of _atan_recip_reduction. |t| <= 1/128 in both.
    if xh == 0.0 and xl == 0.0:
        return 0.0, 0.0
    neg = xh < 0.0
    if neg:
        xh, xl = -xh, -xl
    if xh > 1.0 or (xh == 1.0 and xl > 0.0):
        if xh > 2.0**60:
            # 1/xh is t = 1/x to double-word accuracy next to pi/2, and
            # _dd_div would overflow its split beyond ~2^996
            k, th, tl = 0, 1.0 / xh, 0.0
        else:
            k, th, tl = _atan_recip_reduction(xh, xl)
        rh, rl = _dd_atan_add(*_atan_tables()[1][k], -th, -tl)
    else:
        k = int(xh * 64.0 + 0.5)
        c = k * 0.015625
        th, tl = _dd_div(
            *_dd_add_d(xh, xl, -c), *_dd_add_d(*_dd_mul_d(xh, xl, c), 1.0)
        )
        rh, rl = _dd_atan_add(*_atan_tables()[0][k], th, tl)
    if neg:
        rh, rl = -rh, -rl
    return rh, rl


def _dd_atan_recip(xh: float, xl: float) -> tuple[float, float]:
    # atan(1/x) for x >= 1, one division: atan(k/64) + atan t for the t
    # of _atan_recip_reduction; double-word accurate while 1/x >= 2^-968,
    # below which the low word is subnormal
    k, th, tl = _atan_recip_reduction(xh, xl)
    return _dd_atan_add(*_atan_tables()[0][k], th, tl)


def _dd_sin_cos_core(xh: float, xl: float) -> tuple[float, float, float, float]:
    # series on |x| <= pi/4 + eps: scale down by 8, then double thrice
    th, tl = _dd_scale2(xh, xl, 0.125)
    x2h, x2l = _dd_sqr(th, tl)
    sh, sl = _dd_taylor(th, tl, x2h, x2l, 1)  # sine series
    ch, cl = _dd_taylor(1.0, 0.0, x2h, x2l, 0)  # cosine series
    for _ in range(3):
        # sin 2t = 2 sin t cos t ; cos 2t = 1 - 2 sin^2 t
        nsh, nsl = _dd_scale2(*_dd_mul(sh, sl, ch, cl), 2.0)
        nch, ncl = _dd_sub(1.0, 0.0, *_dd_scale2(*_dd_sqr(sh, sl), 2.0))
        sh, sl, ch, cl = nsh, nsl, nch, ncl
    return sh, sl, ch, cl


def _fold_about_pi_half(xh: float, xl: float) -> tuple[float, float]:
    # w = pi/2 - x, carried past double-word precision so that sin/cos
    # stay relatively accurate near the quarter turn
    p2a, p2b, p2c = _pi_half_triple()
    s1h, s1l = _two_sum(p2a, -xh)
    s2h, s2l = _two_sum(p2b, -xl)
    wh, wl = _dd_add(s1h, s1l, s2h, s2l)
    return _dd_add_d(wh, wl, p2c)


def _dd_sincos(xh: float, xl: float) -> tuple[float, float, float, float]:
    # (sin x, cos x): sin(-x) = -sin x, cos(-x) = cos x, and a fold about
    # pi/2 swaps sin and cos; each step runs until |x| <= pi/4, then one
    # series gives both
    if abs(xh) > 1024.0:
        raise DomainError("sin/cos argument beyond |x| <= 2^10")
    swapped = neg_s = neg_c = False
    while True:
        if xh < 0.0:
            xh, xl = -xh, -xl
            if swapped:
                neg_c = not neg_c
            else:
                neg_s = not neg_s
        if xh <= 0.7853981633974483:
            break
        xh, xl = _fold_about_pi_half(xh, xl)
        swapped = not swapped
    sh, sl, ch, cl = _dd_sin_cos_core(xh, xl)
    if swapped:
        sh, sl, ch, cl = ch, cl, sh, sl
    if neg_s:
        sh, sl = -sh, -sl
    if neg_c:
        ch, cl = -ch, -cl
    return sh, sl, ch, cl


def _ln2_64_split() -> tuple[float, float, float]:
    # ln2/64 = l1 + l2 + l3 with l1 and l2 of 36 bits each, so that n * l1
    # and n * l2 are exact for |n| < 2^17
    f = Fraction(Decimal(_LN2_STR)) / 64
    parts = []
    for _ in range(2):
        m, e = math.frexp(float(f))
        head = math.ldexp(round(math.ldexp(m, 36)), e - 36)
        parts.append(head)
        f -= Fraction(head)
    return parts[0], parts[1], float(f)


_LN2_64_L1, _LN2_64_L2, _LN2_64_L3 = _ln2_64_split()
_INV_LN2_64 = 64.0 / 0.6931471805599453


# Taylor coefficients 1/k! of e^r: double-word for degrees 5 down to 0,
# then a binary64 tail for degrees 6-10
_EXP_C5 = _pair_from_fraction(Fraction(1, 120))
_EXP_C4_TO_C0 = tuple(
    _pair_from_fraction(Fraction(1, math.factorial(k))) for k in range(4, -1, -1)
)
_EXP_C6, _EXP_C7, _EXP_C8, _EXP_C9, _EXP_C10 = (
    1.0 / math.factorial(k) for k in range(6, 11)
)


def _dd_exp(xh: float, xl: float) -> tuple[float, float]:
    # Tang's table-driven reduction: x = (64 k + j) ln2/64 + r with
    # |r| <= ln2/128, and e^x = 2^k * 2^(j/64) * p(r), p the degree-10
    # Taylor polynomial
    if xh > 709.0 or xh < -709.0:
        raise NonFiniteError("exp argument out of range")
    n = math.floor(xh * _INV_LN2_64 + 0.5)
    # xh - n l1 is exact (Sterbenz); two_sum(s, -n l2) and two_sum(rh, xl)
    # keep r to ~2^-112 absolute, so (rh, rl) is r for any low word
    s = xh - n * _LN2_64_L1
    a = n * _LN2_64_L2
    rh = s - a
    v = rh - s
    e = (s - (rh - v)) + (-a - v)
    t = rh + xl
    v = t - rh
    e += (rh - (t - v)) + (xl - v)
    e -= n * _LN2_64_L3
    rh = t + e
    rl = e - (rh - t)
    q = (((_EXP_C10 * rh + _EXP_C9) * rh + _EXP_C8) * rh + _EXP_C7) * rh + _EXP_C6
    # double-word Horner steps for degrees 4 down to 0; |p r| < |c| / 180,
    # so no step cancels
    ph, pl = _dd_horner(*_dd_add_d(*_EXP_C5, rh * q), rh, rl, _EXP_C4_TO_C0)
    ph, pl = _dd_mul(*_exp2_table()[n & 63], ph, pl)
    k = n >> 6
    return math.ldexp(ph, k), math.ldexp(pl, k)


# ----------------------------------------------------------------------
# The public Real wrapper
# ----------------------------------------------------------------------


def _check_finite_pair(hi: float, lo: float, what: str) -> None:
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NonFiniteError(f"{what} produced a non-finite value")


def _real_op(native, kernel, what: str, swap: bool = False):
    # one Real operator, self op other (other op self when swap): at
    # NATIVE64 the binary64 native(a, b), at DOUBLEWORD the kernel, a
    # rescuing entry for a product or a quotient
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
            rh, rl = kernel(a.hi, a.lo, b.hi, b.lo)
        _check_finite_pair(rh, rl, what)
        return Real._raw(rh, rl, self.tier)

    return op


def _real_cmp(compare):
    # one Real ordering, compare on the (hi, lo) pairs
    def op(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else compare((self.hi, self.lo), (o.hi, o.lo))

    return op


class Real:
    """An immutable real number bound to a precision tier.

    NATIVE64 values keep ``lo == 0.0``. DOUBLEWORD values maintain the
    non-overlap invariant ``fl(hi + lo) == hi``. Arithmetic between
    different tiers raises :class:`TierMismatchError`; ints and floats
    are promoted exactly to the tier of the other operand.
    """

    __slots__ = ("hi", "lo", "tier")

    def __init__(self, value: float = 0.0, lo: float = 0.0, tier: Tier = Tier.NATIVE64):
        _check_tier(tier)
        hi = float(value)
        lo = float(lo)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteError("Real components must be finite")
        if tier is Tier.NATIVE64:
            hi = hi + lo
            lo = 0.0
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
        """Exact embedding of a binary64 float (or int) into a tier."""
        return cls(float(value), 0.0, tier)

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
        if tier is Tier.NATIVE64:
            return cls._raw(hi, 0.0, tier)
        lo = float(Fraction(d) - Fraction(hi))
        hi, lo = _quick_two_sum(hi, lo)
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
        if isinstance(other, (int, float)):
            v = float(other)
            if not math.isfinite(v):
                raise NonFiniteError("operand is not finite")
            return Real._raw(v, 0.0, self.tier)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, Real):
            return (
                self.tier is other.tier
                and self.hi == other.hi
                and self.lo == other.lo
            )
        if isinstance(other, (int, float)):
            return self.hi == float(other) and self.lo == 0.0
        return NotImplemented

    def __hash__(self):
        # a value equal to a float hashes as that float does
        if self.lo == 0.0:
            return hash(self.hi)
        return hash((self.hi, self.lo, self.tier))

    __lt__ = _real_cmp(operator.lt)
    __le__ = _real_cmp(operator.le)
    __gt__ = _real_cmp(operator.gt)
    __ge__ = _real_cmp(operator.ge)

    # -- arithmetic -------------------------------------------------------

    __add__ = __radd__ = _real_op(operator.add, _dd_add, "addition")
    __sub__ = _real_op(operator.sub, _dd_sub, "subtraction")
    __rsub__ = _real_op(operator.sub, _dd_sub, "subtraction", swap=True)
    __mul__ = __rmul__ = _real_op(operator.mul, _dd_mul_rescued, "multiplication")
    __truediv__ = _real_op(operator.truediv, _dd_div_rescued, "division")
    __rtruediv__ = _real_op(operator.truediv, _dd_div_rescued, "division", swap=True)

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
    """Square root; raises :class:`DomainError` for negative input."""
    if x.hi < 0.0:
        raise DomainError("sqrt of a negative value")
    if x.tier is Tier.NATIVE64:
        return Real._raw(math.sqrt(x.hi), 0.0, x.tier)
    if 0.0 < x.hi < 2.0**-968:
        # Karp's y^2 would have a subnormal low word: sqrt(x) = 2^-500
        # sqrt(2^1000 x), each scaling exact
        rh, rl = _dd_sqrt(x.hi * 2.0**1000, x.lo * 2.0**1000)
        return Real._raw(rh * 2.0**-500, rl * 2.0**-500, x.tier)
    rh, rl = _dd_sqrt(x.hi, x.lo)
    return Real._raw(rh, rl, x.tier)


def atan(x: Real) -> Real:
    if x.tier is Tier.NATIVE64:
        return Real._raw(math.atan(x.hi), 0.0, x.tier)
    rh, rl = _dd_atan(x.hi, x.lo)
    return Real._raw(rh, rl, x.tier)


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
        f"two_prod=dekker-split; pi-self-check={pi_check}"
    )

"""Integrand registry and closed-form reference values.

Each integrand is addressable by a stable string id and carries two
implementations of the same formula: a plain binary64 lane for the
NATIVE64 tier and a raw ``(hi, lo)`` double-word lane for DOUBLEWORD.
The quadrature engines select a lane by tier; :func:`eval_integrand`
is the safe pointwise entry with domain checking. Each 2-D formula is
written as parts that the tensor rules evaluate once per axis point and
a join they evaluate at each point; the plain lane is derived from them.
Each chain formula is written once more, as an integer body at a fixed
point of :mod:`.scalar`: ints standing for coordinates x 2^-f in, f =
192 by default, an int value out. The 1-D bodies (ahmed_eq1, i1_x,
i2_x, i1_theta, i1_phi) take the sine and cosine of
``_fixed_sincos``, or x^2, s = sqrt(2 + x^2) and the atan of
``_fixed_atan_ratio``; the 2-D bodies (i2_kernel_eq4,
product_kernel_eq6a, shifted_kernel_eq6b) have integer parts and joins
of their own, 1 + x^2 and 2 + x^2 per axis and one quotient per point.
The engines' integer lane calls the body, carried by the double-word
lane as ``fixed``, at 2^-192; the double-word lane takes its pair
coordinates to ints at a shift that keeps their bits and rounds the
body's value once, to the nearest pair. The double-word eq3 lane is the
nearest pair to the exact quotient 1/(x^2 + a^2), from the exact ratios
of the words; its integer body is one quotient too, by x^2 + a^2 with
a^2 held exactly, its value at a shift of its own (``out``) that keeps
192 bits however large |a| is.
The double-word i1_theta lane shares the reduction of ``sin`` and
``cos``, so it takes |t| <= 2^10 and raises :class:`DomainError`
beyond, where the native lane returns a value; its own domain is
[0, pi/4].
Each lane also carries ``certificate()``, which returns the
integrand's :class:`Certificate`: bounds on its analytic continuation
off its domain, from which the Gauss-Legendre engine proves its error
bounds.

The closed-form registry exposes the exact targets of the verification
chain. They are constructed so that the algebraic ties hold bitwise in
tier arithmetic: ``TWO_I2`` is an exact power-of-two scaling of the same
product that yields ``I2``, and ``I`` is literally ``I1 - I2``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, TierMismatchError
from .scalar import (
    _FIX,
    _PI_FIXED,
    Real,
    Tier,
    pi,
    _fixed_atan_ratio,
    _fixed_from_pair,
    _fixed_sincos,
    _pair_from_ratio,
    _pair_ratio,
    _sincos_shift,
)

__all__ = [
    "Interval",
    "Integrand",
    "ids",
    "get",
    "domain_of",
    "closed_form",
    "closed_form_of",
    "eval_integrand",
]


@dataclass(frozen=True)
class Interval:
    """A closed interval with endpoints at one precision tier."""

    lower: Real
    upper: Real

    def __post_init__(self):
        if not (isinstance(self.lower, Real) and isinstance(self.upper, Real)):
            raise ConfigError("interval endpoints must be Real")
        if self.lower.tier is not self.upper.tier:
            raise TierMismatchError("interval endpoints of different tiers")
        if not self.lower <= self.upper:
            raise ConfigError("interval endpoints out of order")

    @property
    def tier(self) -> Tier:
        return self.lower.tier

    @property
    def degenerate(self) -> bool:
        return self.lower == self.upper

    @classmethod
    def unit(cls, tier: Tier) -> "Interval":
        return cls(Real.from_float(0.0, tier), Real.from_float(1.0, tier))


@dataclass(frozen=True)
class Integrand:
    """Static description of a registry entry."""

    id: str
    dim: int
    closed_form_name: str | None
    parametric: bool
    description: str


_ENTRIES = (
    Integrand(
        "ahmed_eq1",
        1,
        "I",
        False,
        "arctan(sqrt(2+x^2)) / ((1+x^2) sqrt(2+x^2)) on [0, 1]",
    ),
    Integrand(
        "i1_x",
        1,
        "I1",
        False,
        "(pi/2) / ((1+x^2) sqrt(2+x^2)) on [0, 1]",
    ),
    Integrand(
        "i1_theta",
        1,
        "I1",
        False,
        "(pi/2) cos(t) / sqrt(2 - sin^2 t) on [0, pi/4]",
    ),
    Integrand(
        "i1_phi",
        1,
        "I1",
        False,
        "the constant pi/2 on [0, pi/6]",
    ),
    Integrand(
        "i2_x",
        1,
        "I2",
        False,
        "arctan(1/sqrt(2+x^2)) / ((1+x^2) sqrt(2+x^2)) on [0, 1]",
    ),
    Integrand(
        "i2_kernel_eq4",
        2,
        "I2",
        False,
        "1 / ((1+x^2) (2+x^2+y^2)) on [0, 1]^2",
    ),
    Integrand(
        "product_kernel_eq6a",
        2,
        "TWO_I2",
        False,
        "1 / ((1+x^2) (1+y^2)) on [0, 1]^2",
    ),
    Integrand(
        "shifted_kernel_eq6b",
        2,
        "I2",
        False,
        "1 / ((1+y^2) (2+x^2+y^2)) on [0, 1]^2",
    ),
    Integrand(
        "eq3_kernel",
        1,
        None,
        True,
        "1 / (x^2 + a^2) on [0, 1], parametric in a != 0",
    ),
)

_REGISTRY = {e.id: e for e in _ENTRIES}


def ids() -> tuple[str, ...]:
    """All integrand ids, in registry order."""
    return tuple(e.id for e in _ENTRIES)


def get(integrand_id: str) -> Integrand:
    try:
        return _REGISTRY[integrand_id]
    except KeyError:
        raise ConfigError(f"unknown integrand id: {integrand_id!r}") from None


@functools.lru_cache(maxsize=None)
def domain_of(integrand_id: str, tier: Tier) -> tuple[Interval, ...]:
    """The integration domain, one Interval per axis, built once per
    (id, tier)."""
    entry = get(integrand_id)
    zero = Real.from_float(0.0, tier)
    if entry.id == "i1_theta":
        return (Interval(zero, pi(tier) * Real.from_float(0.25, tier)),)
    if entry.id == "i1_phi":
        sixth = pi(tier) / Real.from_float(6.0, tier)
        return (Interval(zero, sixth),)
    return tuple(Interval.unit(tier) for _ in range(entry.dim))


# ----------------------------------------------------------------------
# Analyticity certificates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Where an integrand is analytic, in the form a proven
    Gauss-Legendre error bound needs. Each axis of the integrand's own
    domain is mapped onto [-1, 1]; ``axes`` holds, per axis, pairs
    ``(rho, M)`` with ``|f| <= M`` on the Bernstein ellipse E_rho (foci
    -1 and 1, semi-axes summing to rho) while every other coordinate
    ranges over its real interval. ``sup`` bounds ``|f|`` on the real
    domain."""

    id: str
    axes: tuple[tuple[tuple[float, float], ...], ...]
    sup: float


# The chain integrands continue analytically up to singularities known in
# closed form: x = +-i (from 1 + x^2), the branch points +-i sqrt2 of
# sqrt(2 + x^2) and +-i sqrt3 (where atan of it is singular), and for
# i1_theta t = +-pi/2 +- i acosh(sqrt2) (where sin^2 t = 2); i1_phi is
# constant, so entire. On [0, 1] the ellipse through +-i has rho* = 4.61
# and the one through +-i sqrt2 rho* = 6.13; on [0, pi/4] the one through
# pi/2 +- i acosh(sqrt2) has rho* = 7.46. Each M is an interval-arithmetic
# bound on |f| over the ellipse's boundary (which bounds the inside, by
# the maximum modulus principle), rounded up to two digits; it also
# covers the binary64 and double-word roundings of pi/4 and pi/6 in the
# domains. tests/test_certificates.py re-checks every pair with mpmath.iv.
_NEAR_I = (3.0, 4.0, 4.4)  # rho < 4.61, for an axis limited by +-i
_NEAR_I_SQRT2 = (4.0, 5.0, 5.8)  # rho < 6.13, for +-i sqrt2
_EQ4_X = tuple(zip(_NEAR_I, (0.89, 2.8, 9.0)))
_EQ4_Y = tuple(zip(_NEAR_I_SQRT2, (0.8, 1.4, 4.5)))
_EQ6A = tuple(zip(_NEAR_I, (1.5, 3.5, 9.9)))

_CERTIFICATES = (
    Certificate("ahmed_eq1", (tuple(zip(_NEAR_I, (1.1, 2.7, 7.8))),), 0.69),
    Certificate("i1_x", (tuple(zip(_NEAR_I, (1.9, 4.8, 15.0))),), 1.2),
    Certificate("i1_theta", (((5.0, 1.4), (6.5, 2.1), (7.2, 4.3)),), 1.2),
    Certificate("i1_phi", (((1024.0, 1.6),),), 1.6),
    Certificate("i2_x", (tuple(zip(_NEAR_I, (0.77, 2.3, 7.3))),), 0.45),
    Certificate("i2_kernel_eq4", (_EQ4_X, _EQ4_Y), 0.51),
    Certificate("product_kernel_eq6a", (_EQ6A, _EQ6A), 1.1),
    # eq4 with the axes exchanged
    Certificate("shifted_kernel_eq6b", (_EQ4_Y, _EQ4_X), 0.51),
)

# rho = rho*^s over a fixed grid, from halfway to the pole's ellipse (in
# log rho) to 1/32 short of it
_EQ3_GRID = (0.5, 0.75, 0.875, 0.9375, 0.96875)


def _eq3_certificate(a2: float) -> Certificate:
    """The certificate of 1/(x^2 + a2) on [0, 1], in closed form. With
    x = (1 + t)/2 the poles x = +-i a, a = sqrt(a2), sit at t_p = -1 +-
    2ia, on the ellipse E_rho* with rho* = A + sqrt(A^2 - 1), where A =
    (|t_p - 1| + |t_p + 1|)/2 = a + sqrt(1 + a^2) and A^2 - 1 = 2aA.
    Writing t = (w + 1/w)/2 with |w| = rho < rho* and t_p likewise with
    |w_p| = rho*, t - t_p = (w - w_p)(1 - 1/(w w_p))/2, so |t - t_p| >=
    d = (rho* - rho)(1 - 1/(rho rho*))/2 for both poles, and |f| =
    1/(h^2 |t - t_p| |t - conj(t_p)|) <= 1/(h^2 d^2) with h = 1/2.
    |f| is largest on [0, 1] at x = 0, at 1/a^2. rho* is shrunk, and
    that and each M widened, by 2^-40 to cover the rounding of these
    steps; with no room between rho* and 1, no pair is declared."""
    up = 1.0 + 2.0**-40
    a = math.sqrt(a2)
    big_a = a + math.sqrt(1.0 + a2)
    rho_p = (big_a + math.sqrt(2.0 * a * big_a)) / up
    pairs = []
    if rho_p > 1.0 + 2.0**-20:
        for s in _EQ3_GRID:
            rho = rho_p**s
            d = 0.5 * (rho_p - rho) * (1.0 - 1.0 / (rho * rho_p))
            pairs.append((rho, up * 4.0 / (d * d)))
    return Certificate("eq3_kernel", (tuple(pairs),), up / a2)


# ----------------------------------------------------------------------
# Closed-form registry
# ----------------------------------------------------------------------

_CLOSED_FORM_NAMES = ("I", "I1", "I2", "TWO_I2")


@functools.lru_cache(maxsize=None)
def closed_form(name: str, tier: Tier) -> Real:
    """Reference value by name: I = 5 pi^2 / 96, I1 = pi^2 / 12,
    I2 = pi^2 / 32, TWO_I2 = pi^2 / 16, each computed in tier
    arithmetic. ``I == I1 - I2`` and ``TWO_I2 == 2 * I2`` hold exactly."""
    if name not in _CLOSED_FORM_NAMES:
        raise ConfigError(f"unknown closed form: {name!r}")
    p = pi(tier)
    p2 = p * p
    if name == "I1":
        return p2 / Real.from_float(12.0, tier)
    if name == "I2":
        return p2 * Real.from_float(0.03125, tier)
    if name == "TWO_I2":
        return p2 * Real.from_float(0.0625, tier)
    return closed_form("I1", tier) - closed_form("I2", tier)


def closed_form_of(integrand_id: str, tier: Tier) -> Real | None:
    """The registry value this integrand integrates to over its domain,
    or None for parametric entries."""
    entry = get(integrand_id)
    if entry.closed_form_name is None:
        return None
    return closed_form(entry.closed_form_name, tier)


# ----------------------------------------------------------------------
# Evaluation lanes
# ----------------------------------------------------------------------


def _pair_lane(body, shifts):
    # the double-word lane of an integer body of any number of
    # coordinates: each enters at 2^-f and the value, at 2^-out for (f,
    # out) = shifts(the high words), is rounded once to the nearest pair.
    # The lane carries the body as ``fixed``
    def lane(*words: float) -> tuple[float, float]:
        his = words[::2]
        f, out = shifts(*his)
        xs = [_fixed_from_pair(h, l, f) for h, l in zip(his, words[1::2])]
        return _pair_from_ratio(body(*xs, f), 1 << out)

    lane.fixed = body
    return lane


def _x_shifts(*his: float) -> tuple[int, int]:
    # f = 192 + e, where e is the larger of 0 and the coordinates' binary
    # exponents, so that atan(1/s) keeps its bits for a large x; the value
    # at 2^-(f + 3e), as the denominator grows as x^3 (in 2-D as x^4 at
    # most, which 2^-(f + 3e) leaves 192 bits above)
    f = _FIX + max(0, *(math.frexp(h)[1] for h in his))
    return f, 4 * f - 3 * _FIX


def _theta_shifts(th: float) -> tuple[int, int]:
    # t at the shift of _fixed_sincos, which keeps a small t's bits; the
    # value at 2^-192
    return _sincos_shift(th), _FIX


def _x_parts(x: int, f: int) -> tuple[int, int]:
    # (x^2, s = sqrt(2 + x^2)) at 2^-f
    x2 = x * x >> f
    return x2, math.isqrt(x2 + (2 << f) << f)


def _over_x_parts(n: int, f: int, x2: int, s: int) -> int:
    # n / ((1 + x^2) s) for n at 2^-f, at 2^-(f + 3e), e = f - 192
    out = 4 * f - 3 * _FIX
    return (n << f + out) // ((x2 + (1 << f)) * s)


def _native_ahmed(x: float) -> float:
    x2 = x * x
    s = math.sqrt(2.0 + x2)
    return math.atan(s) / ((1.0 + x2) * s)


def _fixed_ahmed(x: int, f: int = _FIX) -> int:
    x2, s = _x_parts(x, f)
    return _over_x_parts(_fixed_atan_ratio(s, 1 << f, f), f, x2, s)


def _native_i1_x(x: float) -> float:
    x2 = x * x
    s = math.sqrt(2.0 + x2)
    return (0.5 * math.pi) / ((1.0 + x2) * s)


def _fixed_i1_x(x: int, f: int = _FIX) -> int:
    x2, s = _x_parts(x, f)
    return _over_x_parts(_PI_FIXED << f - _FIX >> 1, f, x2, s)


def _native_i1_theta(t: float) -> float:
    s = math.sin(t)
    return 0.5 * math.pi * math.cos(t) / math.sqrt(2.0 - s * s)


def _fixed_i1_theta(t: int, f: int = _FIX) -> int:
    # (pi/2) cos t / sqrt(2 - sin^2 t), the root at the 2^-g of the sine
    # and cosine, the quotient at 2^-192
    s, c, g = _fixed_sincos(t, f)
    r = math.isqrt((2 << g) - (s * s >> g) << g)
    return _PI_FIXED * c // (r << 1)


def _native_i1_phi(_t: float) -> float:
    return 0.5 * math.pi


def _fixed_i1_phi(_t: int, _f: int = _FIX) -> int:
    return _PI_FIXED >> 1


def _native_i2_x(x: float) -> float:
    x2 = x * x
    s = math.sqrt(2.0 + x2)
    return math.atan(1.0 / s) / ((1.0 + x2) * s)


def _fixed_i2_x(x: int, f: int = _FIX) -> int:
    x2, s = _x_parts(x, f)
    return _over_x_parts(_fixed_atan_ratio(1 << f, s, f), f, x2, s)


# A 2-D lane is an x-part, a y-part and a join: f(x, y) = join(xpart(x),
# ypart(y)). The tensor cores compute each part once per axis point and
# call only the join at each of the n^2 points. An integer body's parts
# and join take the shift f of its coordinates, 192 by default, and its
# value is at 2^-(4f - 576), as a 1-D x body's.


def _native_2d(xpart, ypart, join):
    # the plain lane of a native or integer 2-D formula, carrying its parts;
    # an integer body passes its shift on to each of the three
    def f(x, y, *shift):
        return join(xpart(x, *shift), ypart(y, *shift), *shift)

    f.parts = xpart, ypart, join
    return f


def _native_sqr(x: float) -> float:
    return x * x


def _native_one_plus_sqr(x: float) -> float:
    return 1.0 + x * x


def _native_two_plus_sqr(x: float) -> float:
    return 2.0 + x * x


def _native_one_two_plus_sqr(x: float) -> tuple[float, float]:
    x2 = x * x
    return 1.0 + x2, 2.0 + x2


def _native_one_plus_sqr_and_sqr(y: float) -> tuple[float, float]:
    y2 = y * y
    return 1.0 + y2, y2


def _native_eq4_join(x: tuple[float, float], y2: float) -> float:
    # 1 / ((1+x^2) (2+x^2+y^2))
    one_x2, two_x2 = x
    return 1.0 / (one_x2 * (two_x2 + y2))


def _native_eq6a_join(one_x2: float, one_y2: float) -> float:
    # 1 / ((1+x^2) (1+y^2))
    return 1.0 / (one_x2 * one_y2)


def _native_eq6b_join(two_x2: float, y: tuple[float, float]) -> float:
    # 1 / ((1+y^2) (2+x^2+y^2))
    one_y2, y2 = y
    return 1.0 / (one_y2 * (two_x2 + y2))


def _fixed_sqr(x: int, f: int = _FIX) -> int:
    return x * x >> f


def _fixed_one_plus_sqr(x: int, f: int = _FIX) -> int:
    return (x * x >> f) + (1 << f)


def _fixed_one_two_plus_sqr(x: int, f: int = _FIX) -> tuple[int, int]:
    x2 = x * x >> f
    return x2 + (1 << f), x2 + (2 << f)


def _fixed_eq4_join(x: tuple[int, int], y2: int, f: int = _FIX) -> int:
    # 1 / ((1+x^2) (2+x^2+y^2)), the parts at 2^-f
    one_x2, two_x2 = x
    return (1 << 6 * f - 3 * _FIX) // (one_x2 * (two_x2 + y2))


def _fixed_eq6a_join(one_x2: int, one_y2: int, f: int = _FIX) -> int:
    # 1 / ((1+x^2) (1+y^2))
    return (1 << 6 * f - 3 * _FIX) // (one_x2 * one_y2)


def _fixed_eq6b_join(x2: int, y: tuple[int, int], f: int = _FIX) -> int:
    # 1 / ((1+y^2) (2+x^2+y^2)): eq4's join with the axes exchanged
    one_y2, two_y2 = y
    return (1 << 6 * f - 3 * _FIX) // (one_y2 * (x2 + two_y2))


_NATIVE_LANES = {
    "ahmed_eq1": _native_ahmed,
    "i1_x": _native_i1_x,
    "i1_theta": _native_i1_theta,
    "i1_phi": _native_i1_phi,
    "i2_x": _native_i2_x,
    "i2_kernel_eq4": _native_2d(_native_one_two_plus_sqr, _native_sqr, _native_eq4_join),
    "product_kernel_eq6a": _native_2d(
        _native_one_plus_sqr, _native_one_plus_sqr, _native_eq6a_join
    ),
    "shifted_kernel_eq6b": _native_2d(
        _native_two_plus_sqr, _native_one_plus_sqr_and_sqr, _native_eq6b_join
    ),
}

_DD_LANES = {
    "ahmed_eq1": _pair_lane(_fixed_ahmed, _x_shifts),
    "i1_x": _pair_lane(_fixed_i1_x, _x_shifts),
    "i1_theta": _pair_lane(_fixed_i1_theta, _theta_shifts),
    "i1_phi": _pair_lane(_fixed_i1_phi, lambda _t: (_FIX, _FIX)),
    "i2_x": _pair_lane(_fixed_i2_x, _x_shifts),
    "i2_kernel_eq4": _pair_lane(
        _native_2d(_fixed_one_two_plus_sqr, _fixed_sqr, _fixed_eq4_join), _x_shifts
    ),
    "product_kernel_eq6a": _pair_lane(
        _native_2d(_fixed_one_plus_sqr, _fixed_one_plus_sqr, _fixed_eq6a_join), _x_shifts
    ),
    "shifted_kernel_eq6b": _pair_lane(
        _native_2d(_fixed_sqr, _fixed_one_two_plus_sqr, _fixed_eq6b_join), _x_shifts
    ),
}

# each fixed lane and integer body carries its integrand's certificate,
# as a 2-D lane carries its parts
for _cert in _CERTIFICATES:
    _dd = _DD_LANES[_cert.id]
    for _lane in (_NATIVE_LANES[_cert.id], _dd, _dd.fixed):
        _lane.certificate = lambda c=_cert: c
del _cert, _dd, _lane


def raw_fn(integrand_id: str, tier: Tier, a: Real | None = None):
    """Raw evaluation lane for the engines: floats in, floats out at
    NATIVE64; ``(hi, lo)`` components in and a pair out at DOUBLEWORD.
    A fixed lane is the same function on every call; a parametric one is
    a new closure over a^2 on each call, so none outlives its caller. A
    native 2-D lane also carries ``parts``, its ``(xpart, ypart,
    join)``: an x-part of one coordinate, a y-part likewise, and the
    join of the two parts, which is the lane's value at the point. Every
    DOUBLEWORD lane carries ``fixed``, its integer body, and a 2-D body
    carries its integer ``parts``. eq3_kernel's body takes x at 2^-192
    and returns its value at 2^-out, which it carries as ``out``: 192 +
    2e for a's binary exponent e > 0, else 192. Every lane and body
    carries ``certificate()``, which returns the :class:`Certificate` of
    the integrand over its own domain; eq3_kernel's is built on that
    call, from the lane's a^2, so a run that needs none pays nothing."""
    entry = get(integrand_id)
    if entry.parametric:
        if a is None:
            raise ConfigError(f"{integrand_id} requires the parameter a")
        if not isinstance(a, Real):
            raise ConfigError(f"parameter a must be a Real, not {type(a).__name__}")
        if a.tier is not tier:
            raise TierMismatchError("parameter tier does not match request")
        if a.hi == 0.0:
            raise DomainError("a = 0 is excluded")
        # input checks: a^2 must be a normal binary64 value, and at
        # DOUBLEWORD at least 2^-969
        if tier is Tier.NATIVE64:
            a2 = a.hi * a.hi
            if not 2.0**-1022 <= a2 < math.inf:
                raise DomainError(f"a^2 underflows or overflows at a = {a.hi!r}")

            def f_native(x: float) -> float:
                return 1.0 / (x * x + a2)

            f_native.certificate = functools.partial(_eq3_certificate, a2)
            return f_native
        n, d = _pair_ratio(a.hi, a.lo)
        n2, d2 = n * n, d * d
        a2h = _pair_from_ratio(n2, d2)[0]
        if not 2.0**-969 <= a2h < math.inf:
            raise DomainError(f"a^2 underflows or overflows at a = {a.hi!r}")

        def f_dd(xh: float, xl: float) -> tuple[float, float]:
            # the nearest pair to 1 / (x^2 + a^2), x = p / q exactly
            p, q = _pair_ratio(xh, xl)
            q2 = q * q
            return _pair_from_ratio(q2 * d2, p * p * d2 + n2 * q2)

        # the integer body: x^2 + a^2 exactly at 2^-(384 + g), d2 = 2^k
        # (g = 0 while d <= 2^192); the value at 2^-out keeps 192 bits
        # however large |a| is
        k = d2.bit_length() - 1
        g = max(0, k - 2 * _FIX)
        a2 = n2 << 2 * _FIX + g - k
        out = _FIX + 2 * max(0, math.frexp(a.hi)[1])
        num = 1 << 2 * _FIX + out + g

        def body(x: int) -> int:
            return num // ((x * x << g) + a2)

        body.out = out
        f_dd.fixed = body
        body.certificate = f_dd.certificate = functools.partial(_eq3_certificate, a2h)
        return f_dd
    if a is not None:
        raise ConfigError(f"{integrand_id} takes no parameter")
    lanes = _NATIVE_LANES if tier is Tier.NATIVE64 else _DD_LANES
    return lanes[integrand_id]


def eval_integrand(
    integrand_id: str,
    point: Real | tuple[Real, ...] | list[Real],
    a: Real | None = None,
) -> Real:
    """Evaluate one registry integrand at a point inside its domain.

    The point's tier selects the lane. Raises :class:`DomainError`
    outside the domain and :class:`ConfigError` for arity or parameter
    mistakes."""
    entry = get(integrand_id)
    coords = tuple(point) if isinstance(point, (tuple, list)) else (point,)
    if len(coords) != entry.dim:
        raise ConfigError(
            f"{integrand_id} expects {entry.dim} coordinate(s), got {len(coords)}"
        )
    if not all(isinstance(c, Real) for c in coords):
        raise ConfigError("coordinates must be Real")
    tier = coords[0].tier
    if any(c.tier is not tier for c in coords):
        raise TierMismatchError("mixed coordinate tiers")
    domain = domain_of(integrand_id, tier)
    for c, iv in zip(coords, domain):
        if not (iv.lower <= c and c <= iv.upper):
            raise DomainError(
                f"point outside the domain of {integrand_id}: {c!s}"
            )
    fn = raw_fn(integrand_id, tier, a)
    if tier is Tier.NATIVE64:
        value = fn(*(c.hi for c in coords))
        return Real.from_float(value, tier)
    flat: list[float] = []
    for c in coords:
        flat.append(c.hi)
        flat.append(c.lo)
    rh, rl = fn(*flat)
    return Real._raw(rh, rl, tier)

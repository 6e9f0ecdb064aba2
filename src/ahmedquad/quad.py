"""Quadrature engines over precision-tiered scalars.

Three rules share one result contract:

* Gauss-Legendre product rules with memoized node tables, run over a
  ladder of orders whose successive sums give the error estimate: the
  fixed rule is (order // 2, order), the adaptive one (with a ``tol``)
  doubles from 6 or so up to the order and stops once within ``tol``.
  With a ``tol``, a registry integrand over its own domain instead runs
  alone the orders that :mod:`.bounds` proves within ``tol``.
  Nodes are found by Newton iteration from Chebyshev initial guesses;
  each converged root takes two further Newton steps in integers at the
  2^-192 fixed point. The integer lane reads those ints; each node and
  weight of a pair table is rounded once from them, to the nearest
  double-word pair, and NATIVE64 tables keep the high words, the nearest
  doubles.
* Tanh-sinh (double-exponential) rules with level-halved step sizes
  ``h = 2^-k`` and incremental refinement: level ``k`` reuses every
  point of level ``k - 1``, and :func:`tanh_sinh_abscissas` is the union
  of those increments. Points sit at ``t = J 2^-12``; a DOUBLEWORD point
  is computed in integers from e^t and e^(pi sinh t), its node at
  2^-192 and its weight at 2^-396. The integer lane reads those ints;
  the pair table rounds each once, to the nearest double-word pair, so
  a point has the same bits at every level (its weight up to the exact
  factor h).
* Globally adaptive Simpson with Richardson acceptance ``|S2 - S1| <=
  15 * tol`` and left-first deterministic splitting; an interval whose
  ``|S2 - S1|`` is within the rounding floor ``16 eps |S2|`` stops too,
  unconverged unless it met ``15 * tol``.

All reported evaluation counts are exact: every call into the integrand
is counted once, including the points spent on error estimation.

Each rule is written once, as a core that runs over a *lane* and a
*box*. :class:`_Native` carries values as binary64 floats, and the
integer lanes of :class:`_FixedPoint` carry points and values as ints at
fixed points of their own. The lane owns the arithmetic (point mapping,
exact power-of-two scaling, differences, ``hi``, conversion to and from
:class:`Real`) and the rule tables it reads. The box (:class:`_Box`),
built once per run, or per integrand and tier over its own domain, holds
each axis's endpoints, midpoint and half-width, and the Jacobian. Every
registry integrand runs its integer body at DOUBLEWORD over its own
domain, in 1-D and in 2-D, under every rule and mode, on the integer
lane of the 2^-192 fixed point of :mod:`.scalar`; callables and other
domains run on the DOUBLEWORD tier's lane, the integer lane of 2^-1266,
where every pair is an exact int, and NATIVE64 on its own. A 2-D tensor
rule is the 1-D weighted sum applied to row sums over prepared axes. A
native 2-D lane and a 2-D integer body carry ``parts``, an x-part, a
y-part and a join with ``f(x, y) == join(xpart(x), ypart(y))``: each
column's x-part is computed once per rule (once per new node in
tanh-sinh), each row's y-part once per row, and only the join runs at
each of the n^2 points. An integrand without parts (a callable, a
registry lane off its own domain, or the checked re-run's wrapper) is
its own join over the coordinates themselves; ITERATED runs call the
plain lane or body.

Every weighted sum is exactly rounded. At NATIVE64 a running sum is
the list of the binary64 words of its terms ``w * f(p)``, totalled by
:func:`math.fsum` (Shewchuk's algorithm), so it does not depend on the
order of its terms; across tanh-sinh levels the words are scaled by an
exact power of two. On an integer lane the words are the exact int
products of values and weights, each weight an int at 2^-396 in both
rules' tables, so sums are exact, as in Kulisch's exact dot product;
its products, quotients and halvings are floored at the shift of their
result, far below the unit of a pair, a tensor's sum once, and each
result (a rule, a tanh-sinh level, a Simpson run) is rounded once, to
the nearest pair.

Tier-specific code is confined to the tanh-sinh node arithmetic, each
lane's rule tables, its point mapping and its per-evaluation loops
(``sum``, ``tensor``, ``pairs``), which collect the terms and call the
integrand at fixed arity. Measured on 2 vCPUs under CPython 3.11: over
167k native 2-D evaluations a row loop calling ``f(x, *y)`` took 65-85%
longer than one calling ``f(x, y)``; over a 96 x 96 double-word tensor,
passing the row coordinate on as ``*y`` cost 2-5%, and mapping points
inside the nested loop instead of once per axis cost 30%.

Every integrand passes one evaluation boundary, :func:`_boundary`,
which also converts user callables between Reals and lane values: at
DOUBLEWORD each point is rounded once to the nearest pair, and each
value, which must be finite, enters the lane exactly. When an
evaluation raised or the result came out non-finite, the rule runs
once more with every evaluation checked, so that :class:`NonFiniteError`
names the point, as does a package error the integrand raises; when
every evaluation was finite, the error names the sum.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace

from . import bounds
from .errors import (
    AhmedQuadError,
    ConfigError,
    ConvergenceError,
    NonFiniteError,
    TierMismatchError,
)
from .integrands import Interval, domain_of, get as get_integrand, raw_fn
from .scalar import (
    _FIX,
    _ONE,
    _PI_FIXED,
    Real,
    Tier,
    _check_tier,
    _fixed_exp,
    _fixed_from_pair,
    _pair_from_ratio,
)

__all__ = [
    "Mode",
    "GaussLegendre",
    "TanhSinh",
    "AdaptiveSimpson",
    "EngineConfig",
    "QuadResult",
    "NodeTable",
    "gl_nodes",
    "tanh_sinh_abscissas",
    "integrate_1d",
    "integrate_2d",
]

_MAX_GL_ORDER = 2048
_MAX_TS_LEVEL = 12
_MAX_AS_DEPTH = 60


def _check_int(value, lo: int, hi: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ConfigError(f"{name} must be an int in [{lo}, {hi}]")


class Mode(enum.Enum):
    """How a 2D integral is assembled from 1D machinery."""

    TENSOR = "tensor"
    ITERATED = "iterated"


@dataclass(frozen=True)
class GaussLegendre:
    """Gauss-Legendre of a fixed ``order``, or, with a ``tol``, of
    adaptive order: orders 6, 12, 24, ... doubling up to ``order``,
    stopping at the first whose difference from the one before is
    within ``tol``. A registry integrand over its own domain runs alone
    the orders whose proven error bound is within ``tol``, when there
    are any: the fewest points up to ``order``, one order per axis, or
    for the parametric eq3_kernel the first such order of the ladder."""

    order: int
    tol: float | None = None


@dataclass(frozen=True)
class TanhSinh:
    max_level: int
    target_eps: float


@dataclass(frozen=True)
class AdaptiveSimpson:
    tol: float
    max_depth: int = 40


@dataclass(frozen=True)
class EngineConfig:
    """An engine selection plus the tier it runs at. Invalid parameter
    combinations raise :class:`ConfigError` at construction time."""

    method: GaussLegendre | TanhSinh | AdaptiveSimpson
    tier: Tier = Tier.NATIVE64

    def __post_init__(self):
        _check_tier(self.tier)
        m = self.method
        if isinstance(m, GaussLegendre):
            _check_int(m.order, 2, _MAX_GL_ORDER, "Gauss-Legendre order")
            if m.tol is not None:
                self._check_tol(m.tol, "tol")
        elif isinstance(m, TanhSinh):
            _check_int(m.max_level, 1, _MAX_TS_LEVEL, "tanh-sinh max_level")
            self._check_tol(m.target_eps, "target_eps")
        elif isinstance(m, AdaptiveSimpson):
            _check_int(m.max_depth, 1, _MAX_AS_DEPTH, "adaptive Simpson max_depth")
            self._check_tol(m.tol, "tol")
        else:
            raise ConfigError(f"unknown method: {m!r}")

    def _check_tol(self, tol: float, name: str) -> None:
        number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
        if not number or not math.isfinite(tol) or tol <= 0.0:
            raise ConfigError(f"{name} must be a positive finite number")
        if tol < 10.0 * self.tier.eps:
            raise ConfigError(
                f"{name}={tol:g} is unreachable at tier {self.tier.value} "
                f"(floor is {10.0 * self.tier.eps:g})"
            )


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one integration: the value, a nonnegative error
    estimate, the exact number of integrand evaluations, and whether the
    engine's own stopping criterion was met."""

    value: Real
    error_estimate: Real
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class NodeTable:
    """A Gauss-Legendre rule on [-1, 1]: ascending nodes with matching
    positive weights, symmetric about zero."""

    order: int
    tier: Tier
    nodes: tuple[Real, ...]
    weights: tuple[Real, ...]


# ----------------------------------------------------------------------
# Gauss-Legendre node generation
# ----------------------------------------------------------------------


def _legendre_native(n: int, x: float) -> tuple[float, float]:
    p0, p1 = 1.0, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def _legendre_fixed(n: int, x: int) -> tuple[int, int]:
    # P_(n-1)(x) and P_n(x) by the recurrence, at the 2^-_FIX fixed point
    p0, p1 = _ONE, x
    for k in range(1, n):
        p0, p1 = p1, (((2 * k + 1) * x * p1 >> _FIX) - k * p0) // (k + 1)
    return p0, p1


def _gl_positive_roots_native(n: int) -> list[float]:
    # the positive roots of P_n (descending), to binary64 accuracy: the
    # seeds of the integer Newton steps
    out = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        prev = math.inf
        for _ in range(100):
            p, dp = _legendre_native(n, x)
            dx = p / dp
            x -= dx
            adx = abs(dx)
            if adx <= 1e-15 * abs(x) + 1e-300 or adx >= prev:
                break
            prev = adx
        else:
            raise ConvergenceError(
                f"Gauss-Legendre node {i} of order {n} did not converge"
            )
        out.append(x)
    return out


def _gl_fixed_point(n: int, x0: float) -> tuple[int, int]:
    # the root x of P_n by two Newton steps at the fixed point from the
    # native root x0, and its weight 2 (1 - x^2) / d^2, d = n (x P_n -
    # P_(n-1)) = (x^2 - 1) P_n'(x), both at 2^-192. d is the last step's:
    # its derivative n (n + 1) P_n vanishes at the root, so it is off by
    # a term in the square of that step
    x = int(math.ldexp(x0, _FIX))
    for _ in range(2):
        q, p = _legendre_fixed(n, x)
        d = n * ((x * p >> _FIX) - q)
        x -= p * ((x * x >> _FIX) - _ONE) // d
    return x, ((_ONE * _ONE - x * x) << _FIX + 1) // (d * d)


# a weight in either integer table, Gauss-Legendre or tanh-sinh, is an
# int at 2^-_W_SHIFT, 2^-396: a tanh-sinh weight carries its level's
# step h >= 2^-12 as an exact factor
_W_SHIFT = 2 * _FIX + _MAX_TS_LEVEL


@functools.lru_cache(maxsize=None)
def _gl_ints(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gauss-Legendre nodes (ascending) at the 2^-192 fixed point and
    weights at 2^-396 on [-1, 1], as ints, from Newton on the Legendre
    recurrence: the table the integer lane reads, and the one each
    tier's table is rounded from."""
    xs = [0] * n
    ws = [0] * n
    # an odd n's middle root is 0, where P_n vanishes exactly
    for i, x0 in enumerate(_gl_positive_roots_native(n) + [0.0] * (n % 2)):
        x, w = _gl_fixed_point(n, x0)
        xs[i] = -x
        xs[n - 1 - i] = x
        ws[i] = ws[n - 1 - i] = w << _W_SHIFT - _FIX
    return tuple(xs), tuple(ws)


def _pair_table(ints, shift: int = 0):
    # the nearest pairs to an integer table's nodes, at 2^-192, and
    # weights, at 2^-(396 + shift)
    xs, ws = ints
    return (
        [_pair_from_ratio(x, _ONE) for x in xs],
        [_pair_from_ratio(w, 1 << _W_SHIFT + shift) for w in ws],
    )


def _reals(pairs, tier: Tier) -> tuple[Real, ...]:
    # (hi, lo) pairs as Reals of the tier: NATIVE64 keeps the high word
    if tier is Tier.NATIVE64:
        return tuple(Real._raw(hi, 0.0, tier) for hi, _ in pairs)
    return tuple(Real._raw(hi, lo, tier) for hi, lo in pairs)


@functools.lru_cache(maxsize=None)
def _gl_table(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] as the
    NATIVE64 lane reads them: the high words of the nearest pairs to the
    ints of :func:`_gl_ints`, the nearest doubles."""
    return tuple(tuple(hi for hi, _ in col) for col in _pair_table(_gl_ints(n)))


def gl_nodes(order: int, tier: Tier = Tier.NATIVE64) -> NodeTable:
    """The memoized Gauss-Legendre rule of a given order at a tier.
    Repeated calls return the identical table object. Each node and
    weight is the nearest pair to its int in :func:`_gl_ints`, rounded
    once; NATIVE64 keeps its high word, the nearest double."""
    _check_int(order, 2, _MAX_GL_ORDER, "order")
    _check_tier(tier)
    return _gl_nodes(order, tier)


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int, tier: Tier) -> NodeTable:
    xs, ws = _pair_table(_gl_ints(order))
    return NodeTable(order, tier, _reals(xs, tier), _reals(ws, tier))


# ----------------------------------------------------------------------
# Tanh-sinh point generation
# ----------------------------------------------------------------------

# weight cutoffs sit well below each tier's digit budget; the slack
# absorbs the slow per-node weight decay at the finest levels, where
# truncating at ~eps/4 would discard a visible tail
_TS_CUTOFF_NATIVE = 2.0**-60
_TS_CUTOFF_DD = 2.0**-106


def _ts_point_native(J: int, level: int) -> tuple[float, float, bool]:
    # (abscissa, weight, past the end) at t = J 2^-12 on level's step h
    t = J * _TS_STEP
    u = 0.5 * math.pi * math.sinh(t)
    x = math.tanh(u)
    cu = math.cosh(u)
    w = 0.5 * math.pi * 2.0**-level * math.cosh(t) / (cu * cu)
    return x, w, x >= 1.0 or w < _TS_CUTOFF_NATIVE


# t runs over multiples of the finest step 2^-12; at DOUBLEWORD the
# first point past the end lies at t <= 4.25 (level 2's), where
# 2u = pi sinh t < 111, inside the range 2u < 128 of _fixed_exp
_TS_STEP = 2.0**-_MAX_TS_LEVEL


def _ts_point_fixed(J: int, level: int) -> tuple[int, int, bool]:
    # the point at t = J 2^-12 in integers: from e^t and E = e^(2u) =
    # e^(pi sinh t), x = tanh u = (E - 1)/(E + 1) at 2^-192 and w = (pi/2)
    # h cosh t 4E/(E + 1)^2 at 2^-396. w falls as 1/E, so w/h is formed
    # at 2^-384, where a kept weight (at least 2^-106) keeps 278 bits, and
    # h = 2^-level joins it as an exact factor: w/h has the same int at
    # every level, and each of x and w rounds to its nearest pair. Past
    # the end once the abscissa rounds to 1 at 106 bits, 1 - x = 2/(E +
    # 1) <= 2^-107 (exactly when k >= 108, where E + 1 has k bits above
    # 1), or the weight's high word falls below the cutoff
    et = _fixed_exp(J << _FIX - _MAX_TS_LEVEL)
    rt = _ONE * _ONE // et
    e2u = _fixed_exp(_PI_FIXED * (et - rt) >> _FIX + 1)
    d = e2u + _ONE
    k = d.bit_length() - 1 - _FIX
    x = (e2u - _ONE << _FIX) // d
    w = (_PI_FIXED * (et + rt) * e2u << _FIX) // (d * d) << _MAX_TS_LEVEL - level
    return x, w, k >= 108 or w / (1 << _W_SHIFT) < _TS_CUTOFF_DD


def _ts_level(level: int, point) -> tuple[tuple, tuple]:
    # the (x, w) of point(J, level) new at level: at t = j h, h =
    # 2^-level, for odd j (every j >= 0 at level 1), up to the first point
    # past the end
    xs, ws = [], []
    j, step = (0, 1) if level == 1 else (1, 2)
    shift = _MAX_TS_LEVEL - level
    while True:
        x, w, past_end = point(j << shift, level)
        if past_end:
            return tuple(xs), tuple(ws)
        xs.append(x)
        ws.append(w)
        j += step


@functools.lru_cache(maxsize=None)
def _ts_ints(level: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tanh-sinh points new at ``level`` as ints, x at 2^-192 and w at
    2^-396: the table the integer lane reads, and the one the DOUBLEWORD
    table is rounded from."""
    return _ts_level(level, _ts_point_fixed)


@functools.lru_cache(maxsize=None)
def _ts_nodes(level: int):
    """Tanh-sinh ``(x, w)`` floats new at ``level``, up to the weight
    cutoff: the table the NATIVE64 lane reads."""
    return _ts_level(level, _ts_point_native)


def tanh_sinh_abscissas(
    level: int, tier: Tier = Tier.NATIVE64
) -> tuple[tuple[Real, Real], ...]:
    """The tanh-sinh rule at step ``h = 2^-level`` that the engines run:
    ``(abscissa, weight)`` pairs in non-decreasing abscissa order, the
    union of the nodes new at levels ``1..level``, each weight scaled by
    ``2^(k - level)`` (exact) from its level ``k``. Each level truncates
    where its own weights fall below the tier floor. Abscissas are
    strictly inside (-1, 1) and symmetric about zero; the center weight
    is exactly ``(pi/2) * h``. At NATIVE64 the finest levels place
    underlying points closer together than one binary64 spacing near the
    endpoints, so adjacent table entries there can round to equal
    abscissas (their weights stay distinct). A DOUBLEWORD node and
    weight is the nearest pair to its int in :func:`_ts_ints`, rounded
    once. Repeated calls return the identical tuple."""
    _check_int(level, 1, _MAX_TS_LEVEL, "level")
    _check_tier(tier)
    return _ts_abscissas(level, tier)


@functools.lru_cache(maxsize=None)
def _ts_abscissas(level: int, tier: Tier) -> tuple[tuple[Real, Real], ...]:
    nodes = []  # (t / h, x, w) as (hi, lo) pairs
    for k in range(1, level + 1):
        shift = level - k
        if tier is Tier.NATIVE64:
            xs, ws = _ts_nodes(k)
            xs = [(x, 0.0) for x in xs]
            ws = [(w * 2.0**-shift, 0.0) for w in ws]
        else:
            xs, ws = _pair_table(_ts_ints(k), shift)
        js = itertools.count(0, 1) if k == 1 else itertools.count(1, 2)
        nodes += zip((j << shift for j in js), xs, ws)
    nodes.sort(key=operator.itemgetter(0))
    right = [(x, w) for _, x, w in nodes]
    left = [((-x[0], -x[1]), w) for x, w in reversed(right[1:])]
    xs, ws = zip(*(left + right))
    return tuple(zip(_reals(xs, tier), _reals(ws, tier)))


# ----------------------------------------------------------------------
# Tier lanes
# ----------------------------------------------------------------------


def _fsum(words):
    # the exactly rounded sum of binary64 words; NaN where the words hold
    # inf and -inf or a partial sum overflows, on which math.fsum raises
    try:
        return math.fsum(words)
    except (OverflowError, ValueError):
        return math.nan


class _Native:
    """NATIVE64 lane: every value and point is a binary64 float, and a
    running sum is the list of its terms ``w * f(p)``."""

    tier = Tier.NATIVE64
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    div_d = operator.truediv
    sixth = staticmethod(lambda width, v: width / 6.0 * v)  # Simpson's (b - a)/6 v
    scale = operator.mul  # by a power of two: exact
    offset = operator.mul  # h x, a half-width times a node
    hi = float  # the identity on floats, at C speed
    real = staticmethod(lambda v: Real._raw(v, 0.0, Tier.NATIVE64))
    pack = to_point = staticmethod(lambda hi, lo: hi)
    coords = staticmethod(lambda vs: [(x, 0.0) for x in vs])
    total = staticmethod(_fsum)
    scale_words = staticmethod(lambda words, s: [w * s for w in words])
    rounded = staticmethod(lambda v: v)  # a value is already the tier's
    gl_table = staticmethod(_gl_table)
    ts_nodes = staticmethod(_ts_nodes)
    map = staticmethod(lambda m, h, xs: [m + h * x for x in xs])  # the points m + h x of nodes xs

    @staticmethod
    def sum(f, axis):
        # the terms w * f(p) over the (point, weight) axis
        return [w * f(p) for p, w in axis]

    @staticmethod
    def parts(f):
        # each axis's part and the join, or no parts and f its own join
        return getattr(f, "parts", None) or (None, None, f)

    @staticmethod
    def tensor(join, cols, rows):
        # the terms w * (the sum of v * join(x, y) over the columns) over
        # the rows, each column and row an (axis part, weight) pair
        return [w * _fsum([v * join(x, y) for x, v in cols]) for y, w in rows]

    @staticmethod
    def pairs(f, m, h, xs, ws):
        # the terms w * (f(m + h x) + f(m - h x)), or w * f(m) at the center
        return [
            w * f(m) if x == 0.0 else w * (f(m + h * x) + f(m - h * x))
            for x, w in zip(xs, ws)
        ]


def _shifted(v: int, s: float) -> int:
    # v s for a power of two s, floored at the fixed point
    e = math.frexp(s)[1] - 1
    return v << e if e >= 0 else v >> -e


class _FixedPoint:
    """DOUBLEWORD lane of integers: every point is an int n standing for
    n 2^-point, every value one at 2^-out, every node of a rule table an
    int at 2^-192, the fixed point of :mod:`.scalar`, and every weight
    one at 2^-396 (:data:`_W_SHIFT`); a running sum is the list of the
    exact products ``w * f(p)``. Sums are exact; products, quotients and
    halvings are floored at the shift of their result, a tensor's sum
    once at 2^-(out + 396), and a value is rounded once, to the nearest
    pair, where it leaves the lane (:meth:`real`).

    This lane, with both shifts 192, runs a registry integrand's integer
    body over its own domain. A body whose values would lose bits at
    2^-192 (eq3_kernel's near 1/a^2 for |a| >= 1) returns them at 2^-out
    and carries ``out``; it runs on the lane of that ``out``. The
    DOUBLEWORD tier's lane (:data:`_LANES`) holds points and values at
    2^-1266 (:data:`_PAIR_SHIFT`), where every pair is an exact int: it
    runs callables and registry lanes off their own domains, which take
    each point rounded once to the nearest pair (:meth:`coords`) and
    whose pair values it takes exactly (:meth:`pack`). Each lane of
    other shifts is made by :func:`_fixed_lane` and differs from this
    one in them alone."""

    tier = Tier.DOUBLEWORD
    point = out = _FIX  # a point stands for itself x 2^-point, a value x 2^-out
    add = operator.add
    sub = operator.sub
    mul = classmethod(lambda cls, a, b: a * b >> cls.point)  # by a point
    offset = staticmethod(lambda h, x: h * x >> _FIX)  # h x, a half-width times a node
    div_d = staticmethod(lambda a, k: a // int(k))  # by an integral float
    sixth = classmethod(lambda cls, width, v: width * v // (6 << cls.point))  # floored once
    scale = staticmethod(_shifted)
    real = classmethod(
        lambda cls, v: Real._raw(*_pair_from_ratio(v, 1 << cls.out), Tier.DOUBLEWORD)
    )
    pack = classmethod(lambda cls, hi, lo: _fixed_from_pair(hi, lo, cls.out))
    to_point = classmethod(lambda cls, hi, lo: _fixed_from_pair(hi, lo, cls.point))
    coords = classmethod(lambda cls, vs: [_pair_from_ratio(v, 1 << cls.point) for v in vs])
    total = staticmethod(lambda words: sum(words) >> _W_SHIFT)
    scale_words = staticmethod(lambda words, s: [_shifted(w, s) for w in words])
    gl_table = staticmethod(_gl_ints)
    ts_nodes = staticmethod(_ts_ints)
    map = staticmethod(lambda m, h, xs: [m + (h * x >> _FIX) for x in xs])
    sum = staticmethod(_Native.sum)
    parts = staticmethod(_Native.parts)

    @classmethod
    def hi(cls, v) -> float:
        # int / int rounds correctly; infinite past binary64's range
        try:
            return v / (1 << cls.out)
        except OverflowError:
            return math.inf if v > 0 else -math.inf

    @classmethod
    def rounded(cls, v):
        # the int of the nearest pair, on which real is exact; v itself
        # past binary64's range, where hi is infinite
        hi, lo = _pair_from_ratio(v, 1 << cls.out)
        return _fixed_from_pair(hi, lo, cls.out) if math.isfinite(hi) else v

    @staticmethod
    def tensor(join, cols, rows):
        # the exact sum of w * v * join(x, y), as one word at 2^-(out + 396)
        acc = 0
        for y, w in rows:
            acc += w * sum([v * join(x, y) for x, v in cols])
        return [acc >> _W_SHIFT]

    @staticmethod
    def pairs(f, m, h, xs, ws):
        acc = 0
        for x, w in zip(xs, ws):
            if x:
                o = h * x >> _FIX
                acc += w * (f(m + o) + f(m - o))
            else:
                acc += w * f(m)
        return [acc]


@functools.lru_cache(maxsize=None)
def _fixed_lane(out: int, point: int = _FIX):
    # the integer lane of values at 2^-out and points at 2^-point:
    # _FixedPoint, or beside it a lane that differs in those shifts alone
    if out == point == _FIX:
        return _FixedPoint
    return type("_FixedPoint", (_FixedPoint,), {"out": out, "point": point})


# every binary64 word is a multiple of 2^-1074, so at 2^-1266 a pair is an
# exact int with 192 bits below the smallest subnormal
_PAIR_SHIFT = 1074 + _FIX

_LANES = {Tier.NATIVE64: _Native, Tier.DOUBLEWORD: _fixed_lane(_PAIR_SHIFT, _PAIR_SHIFT)}


def _own_lane(f, tier: Tier):
    """The lane that runs the registry lane ``f`` of a tier over its
    integrand's own domain, and what that lane calls: the integer lane
    of points at 2^-192 and of the body's value shift ``out`` (2^-192
    unless the body carries another, as eq3_kernel's does for |a| >= 1)
    and ``f.fixed`` where ``f`` has an integer body (every DOUBLEWORD
    lane), else the tier's lane and ``f``."""
    body = getattr(f, "fixed", None)
    if body is None:
        return _LANES[tier], f
    return _fixed_lane(getattr(body, "out", _FIX)), body


# ----------------------------------------------------------------------
# The evaluation boundary
# ----------------------------------------------------------------------


def _not_finite(coords) -> NonFiniteError:
    point = tuple(h for h, _ in coords)
    return NonFiniteError(f"integrand is not finite at {point!r}", point=point)


def _boundary(f, lane, user: bool, domain=None):
    """The integrand as the cores call it: a lane value per coordinate
    in, a lane value out. A user callable (``user``) is passed Reals of
    the lane's tier, each point rounded once to the nearest pair at
    DOUBLEWORD, and may return a Real of that tier, an int or a float,
    which enters the lane exactly; a value that is not finite raises
    :class:`NonFiniteError` carrying the point.

    With a ``domain`` every evaluation is checked: a non-finite value,
    or an arithmetic error raised on the domain's edge (where an
    integrable singularity sits) or at a point with a non-finite
    coordinate (where a mapping overflowed), raises
    :class:`NonFiniteError` carrying the point. An
    :class:`AhmedQuadError` the integrand raises keeps its type and is
    given the point, unless it carries one. Any other error raised at a
    finite point inside the domain is the integrand's own and propagates
    unchanged."""
    tier = lane.tier
    call = f
    if user:

        def call(*vs):
            coords = lane.coords(vs)
            r = f(*(Real._raw(h, l, tier) for h, l in coords))
            if isinstance(r, Real):
                if r.tier is not tier:
                    raise TierMismatchError(
                        f"integrand returned a {r.tier.value} value "
                        f"to a {tier.value} engine"
                    )
                hi, lo = r.hi, r.lo
            elif isinstance(r, (int, float)):
                hi, lo = float(r), 0.0
            else:
                raise ConfigError(
                    f"integrand returned {type(r).__name__}; "
                    "expected a Real, an int or a float"
                )
            # the integer lane takes a pair's exact ratio, which a word
            # that is not finite has not
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise _not_finite(coords)
            return lane.pack(hi, lo)

    if domain is None:
        return call
    edges = [((iv.lower.hi, iv.lower.lo), (iv.upper.hi, iv.upper.lo)) for iv in domain]

    def located(*vs):
        coords = lane.coords(vs)
        try:
            v = call(*vs)
        except AhmedQuadError as exc:
            if exc.point is None:
                exc.point = tuple(h for h, _ in coords)
            raise
        except (ArithmeticError, ValueError):
            finite = all(math.isfinite(h) for h, _ in coords)
            if finite and not any(c in edge for c, edge in zip(coords, edges)):
                raise
            v = None
        if v is None or not math.isfinite(lane.hi(v)):
            raise _not_finite(coords)
        return v

    # the re-run of a certified lane runs the same rung
    located.certificate = getattr(call, "certificate", None)
    return located


# ----------------------------------------------------------------------
# Engine cores, one per rule
# ----------------------------------------------------------------------


def _mid_half(lane, a, b):
    return lane.scale(lane.add(a, b), 0.5), lane.scale(lane.sub(b, a), 0.5)


class _Box(tuple):
    """A run's box, built once per run (:func:`_box`): each axis's
    endpoints as lane values, with each axis's ``(mid, half-width)`` in
    ``halves`` and the Jacobian, their product, in ``jac``."""

    def __new__(cls, lane, axes):
        box = super().__new__(cls, axes)
        box.halves = [_mid_half(lane, a, b) for a, b in axes]
        box.jac = functools.reduce(lane.mul, [h for _, h in box.halves])
        return box


def _floored(lane, est: float, value) -> float:
    return max(est, 4.0 * lane.tier.eps * abs(lane.hi(value)))


def _gl_rungs(method: GaussLegendre) -> tuple[int, ...]:
    """The orders a Gauss-Legendre run goes through, lowest first. The
    fixed rule is the two rungs (order // 2, order); with a ``tol`` the
    ladder is the order halved while the half stays >= 6 (6, 12, 24,
    48, 96 for 96, as mpmath's 3 * 2^m degrees), or the fixed pair
    below order 12. They are eq3_kernel's proven candidates too."""
    n = method.order
    rungs = [n]
    if method.tol is not None:
        while rungs[-1] // 2 >= 6:
            rungs.append(rungs[-1] // 2)
    if len(rungs) == 1:
        rungs.append(max(1, n // 2))
    return tuple(reversed(rungs))


@functools.lru_cache(maxsize=None)
def _own_box(integrand_id: str, tier: Tier) -> _Box:
    """A registry integrand's own domain as the box of its runs at a
    tier, built once on the tier's lane of points at 2^-192, which the
    integer lanes of every value shift share (none of the box depends on
    the value shift), with ``mapped``, the prepared axis of each (axis,
    order, part) proven runs used: bounded."""
    box = _box(_Native if tier is Tier.NATIVE64 else _FixedPoint, domain_of(integrand_id, tier))
    box.mapped = {}
    return box


def _gl_rule(lane, f, box, orders, own: bool = False):
    """The Gauss-Legendre rule of ``orders[i]`` points on axis i of the
    box, unrounded: the 1-D weighted sum, or in 2-D the tensor, over the
    axes prepared by the lane's parts. ``own`` (the box is the
    integrand's :func:`_own_box`) reads each prepared axis from the box,
    bit-identical to preparing it."""
    cache = box.mapped if own else {}
    # a 1-D run off the box's cache calls f itself: its parts pay only when kept
    *parts, join = lane.parts(f) if own or len(box) == 2 else (None, f)
    axes = []
    for i, (n, (m, h)) in enumerate(zip(orders, box.halves)):
        xs, ws = lane.gl_table(n)
        key = i, n, parts[i]
        if key not in cache:
            cache[key] = _prepared(lane, parts[i], zip(lane.map(m, h, xs), ws))
        axes.append(cache[key])
    words = lane.sum(join, axes[0]) if len(box) == 1 else lane.tensor(join, *axes)
    return lane.mul(box.jac, lane.total(words))


def _gl(lane, f, box, method: GaussLegendre):
    # one rule per rung, each the next one's half-order error estimate,
    # so the estimate costs no extra evaluations; in 2-D the rule is the
    # tensor of the rung on both axes. With a tol the run stops at the
    # first estimate <= tol (converged); the fixed rule runs both rungs
    # and is converged unless the two rules differ by more than a tenth
    # of the value, agreeing on no leading digit. With a tol, an
    # integrand with a certificate (a registry lane, or the checked
    # re-run's wrapper of one) over its own domain runs its proven orders
    # alone (:mod:`.bounds`), with the proven bound as the estimate
    tol = method.tol
    certificate = None if tol is None else getattr(f, "certificate", None)
    cert = None if certificate is None else certificate()
    own = cert is not None and box is _own_box(cert.id, lane.tier)
    proven = bounds._proven_rung(cert, lane.tier, method, _gl_rungs) if own else None
    if proven is not None:
        # unrounded: _result rounds it to the pair rounded gives, and hi agrees
        orders, bound = proven
        value = _gl_rule(lane, f, box, orders, own=True)
        est = _floored(lane, bound, value)
        return value, est, math.prod(orders), est <= tol
    prev = None
    evals = 0
    for n in _gl_rungs(method):
        value = lane.rounded(_gl_rule(lane, f, box, (n,) * len(box)))
        evals += n ** len(box)
        if prev is not None:
            est = _floored(lane, abs(lane.hi(lane.sub(value, prev))), value)
            if tol is not None and est <= tol:
                return value, est, evals, True
        prev = value
    converged = tol is None and est <= 0.1 * abs(lane.hi(value))
    return value, est, evals, converged


def _prepared(lane, part, axis):
    # an axis's (point, weight) pairs as (part of the point, weight)
    if part is None:  # no part: the points themselves
        return list(axis)
    return [(part(p), w) for p, w in axis]


def _signed_axis(lane, xs, ws, m, h):
    # mapped signed expansion: the center alone, every other node as
    # m + h x then m - h x
    axis = []
    for x, w in zip(xs, ws):
        if x == 0:
            axis.append((m, w))
        else:
            o = lane.offset(h, x)
            axis.append((lane.add(m, o), w))
            axis.append((lane.sub(m, o), w))
    return axis


def _ts_1d(lane, f, box, max_level: int):
    # yields (value, evaluations) after each level; the running sum's
    # words halve with the step (exact), a no-op on the empty sum before
    # level 1
    (m, h), = box.halves
    words = []
    evals = 0
    for level in range(1, max_level + 1):
        xs, ws = lane.ts_nodes(level)
        words = lane.scale_words(words, 0.5)
        words += lane.pairs(f, m, h, xs, ws)
        # two points per node, but one at the center of the first level
        evals += 2 * len(xs) - (level == 1)
        yield lane.rounded(lane.mul(box.jac, lane.total(words))), evals


def _ts_2d(lane, f, box, max_level: int):
    # yields (value, evaluations) after each level, which adds the old
    # rows over the new columns, then the new rows over every column;
    # each column and row is prepared once, when its node is new; kept
    # weights halve per axis and the running sum's words quarter (a
    # no-op on the empty sum before level 1)
    (mx, hx), (my, hy) = box.halves
    xpart, ypart, join = lane.parts(f)
    px: list = []
    py: list = []
    words = []
    evals = 0
    for level in range(1, max_level + 1):
        xs, ws = lane.ts_nodes(level)
        px = [(p, lane.scale(w, 0.5)) for p, w in px]
        py = [(p, lane.scale(w, 0.5)) for p, w in py]
        words = lane.scale_words(words, 0.25)
        nx = _prepared(lane, xpart, _signed_axis(lane, xs, ws, mx, hx))
        ny = _prepared(lane, ypart, _signed_axis(lane, xs, ws, my, hy))
        words += lane.tensor(join, nx, py)
        both = px + nx
        words += lane.tensor(join, both, ny)
        evals += len(py) * len(nx) + len(ny) * len(both)
        px = both
        py = py + ny
        yield lane.rounded(lane.mul(box.jac, lane.total(words))), evals


def _refine(lane, method: TanhSinh, levels):
    """Drive an adaptive tanh-sinh level sequence, in one dimension or
    two: stop once two successive values agree to target_eps, or the
    last two differences both sit on the tier's rounding floor. The
    fixed-level run, with no early exit, is :func:`_ts_fixed`."""
    eps = method.target_eps
    floor_eps = 16.0 * lane.tier.eps
    prev = diff = None
    prev_diff = math.inf
    converged = False
    for value, evals in levels:
        if prev is not None:
            diff = abs(lane.hi(lane.sub(value, prev)))
            floor = floor_eps * max(1.0, abs(lane.hi(value)))
            if diff <= eps or (diff <= floor and prev_diff <= floor):
                converged = True
                break
            prev_diff = diff
        prev = value
    est = abs(lane.hi(value)) if diff is None else diff
    return value, _floored(lane, est, value), evals, converged


def _simpson(lane, f, box, method: AdaptiveSimpson):
    # an interval stops splitting once |S2 - S1| <= 15 tol, at max_depth,
    # or once |S2 - S1| is within the rounding floor 16 eps |S2| that
    # _refine also uses: on a large integral rounding alone can exceed the
    # absolute 15 tol, and splitting on would reach max_depth on every
    # branch. An interval that stops without meeting 15 tol leaves the
    # run unconverged
    (a, b), = box
    (m, _), = box.halves
    max_depth = method.max_depth
    floor_eps = 16.0 * lane.tier.eps
    unmet = False

    def rule(a, b, fa, fm, fb):
        # (b - a)/6 * (fa + 4 fm + fb)
        weighted = lane.add(lane.add(fa, lane.scale(fm, 4.0)), fb)
        return lane.sixth(lane.sub(b, a), weighted)

    def rec(a, fa, m, fm, b, fb, whole, tol, depth):
        nonlocal evals, unmet
        lm = lane.scale(lane.add(a, m), 0.5)
        rm = lane.scale(lane.add(m, b), 0.5)
        flm = f(lm)
        frm = f(rm)
        evals += 2
        left = rule(a, m, fa, flm, fm)
        right = rule(m, b, fm, frm, fb)
        s2 = lane.add(left, right)
        d = lane.sub(s2, whole)
        ad = abs(lane.hi(d))
        if not math.isfinite(ad):
            # a non-finite evaluation or rule; splitting on would recurse
            # to max_depth on every branch
            raise NonFiniteError("integration produced a non-finite sum")
        if ad <= 15.0 * tol or depth >= max_depth or ad <= floor_eps * abs(lane.hi(s2)):
            if ad > 15.0 * tol:
                unmet = True
            return lane.add(s2, lane.div_d(d, 15.0)), ad / 15.0
        half = 0.5 * tol
        lv, le = rec(a, fa, lm, flm, m, fm, left, half, depth + 1)
        rv, re = rec(m, fm, rm, frm, b, fb, right, half, depth + 1)
        return lane.add(lv, rv), le + re

    fa, fm, fb = f(a), f(m), f(b)
    evals = 3
    value, est = rec(a, fa, m, fm, b, fb, rule(a, b, fa, fm, fb), method.tol, 0)
    return value, _floored(lane, est, value), evals, not unmet


def _tensor(lane, f, box, method):
    # the rule over a box of one axis, or the product rule over two
    if isinstance(method, GaussLegendre):
        return _gl(lane, f, box, method)
    if isinstance(method, AdaptiveSimpson):
        return _simpson(lane, f, box, method)
    ts = _ts_1d if len(box) == 1 else _ts_2d
    return _refine(lane, method, ts(lane, f, box, method.max_level))


def _iterated(lane, f, box, method):
    # adaptive 1-D passes over x inside a 1-D pass over y, the inner
    # tolerance ten times tighter; only inner evaluations are counted
    name = "target_eps" if isinstance(method, TanhSinh) else "tol"
    tol = getattr(method, name)
    floor = 10.0 * lane.tier.eps
    inner = method if tol is None else replace(method, **{name: max(0.1 * tol, floor)})
    xbox, ybox = (_Box(lane, [axis]) for axis in box)
    evals = 0
    conv = True
    inner_est = 0.0

    def g(y):
        nonlocal evals, conv, inner_est
        v, est, ev, c = _tensor(lane, lambda x: f(x, y), xbox, inner)
        evals += ev
        conv = conv and c
        inner_est = max(inner_est, est)
        return v

    v, outer_est, _, outer_conv = _tensor(lane, g, ybox, method)
    (width, _), = lane.coords([lane.sub(box[1][1], box[1][0])])
    est = outer_est + width * inner_est
    return v, _floored(lane, est, v), evals, outer_conv and conv


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

_DEFAULT_CONFIG = EngineConfig(TanhSinh(max_level=10, target_eps=1e-13))


def _check_config(config) -> None:
    if not isinstance(config, EngineConfig):
        raise ConfigError(f"config must be an EngineConfig, not {type(config).__name__}")


def _integrate(f, domain, tier: Tier, method, core, dim: int = 1, a=None):
    """Integrate ``f``, a registry id or a callable, over ``domain`` (by
    default a registry integrand's own) as ``core(lane, integrand, box,
    method)``, the box a :class:`_Box` built once per run. A registry
    integrand over its own domain runs on :func:`_own_lane`'s lane over
    :func:`_own_box`; off it, a DOUBLEWORD registry lane is called as a
    callable is.
    When an evaluation raised or the value came out non-finite,
    the core runs again with every evaluation checked, to name the
    point; when none is named, :class:`NonFiniteError` names the sum. A
    degenerate domain costs one probing evaluation and yields zero."""
    lane = _LANES[tier]
    integrand_id = None
    what = "interval" if dim == 1 else "region"
    if domain is not None:
        ok = isinstance(domain, (tuple, list)) and len(domain) == dim
        if not (ok and all(isinstance(iv, Interval) for iv in domain)):
            raise ConfigError(f"{what} must be " + ("an Interval" if dim == 1 else "two Intervals"))
    if isinstance(f, str):
        entry = get_integrand(f)
        if entry.dim != dim:
            raise ConfigError(f"{f} is {entry.dim}D; use integrate_{entry.dim}d")
        f, user = raw_fn(f, tier, a), False
        integrand_id = entry.id
    elif callable(f):
        if a is not None:
            raise ConfigError("parameter a applies only to registry integrands")
        if domain is None:
            raise ConfigError(f"an explicit {what} is required for callables")
        user = True
    else:
        raise ConfigError("f must be an integrand id or a callable")
    if integrand_id is not None and (domain is None or tuple(domain) == domain_of(integrand_id, tier)):
        # the own domain: of the tier, not degenerate, its box resolved once
        domain = domain_of(integrand_id, tier)
        lane, f = _own_lane(f, tier)
        box = _own_box(integrand_id, tier)
    else:
        for iv in domain:
            if iv.tier is not tier:
                raise TierMismatchError(f"{what} tier does not match the engine tier")
        if integrand_id is not None and tier is Tier.DOUBLEWORD:
            f, user = _of_reals(f), True
        box = _box(lane, domain)
        if any(iv.degenerate for iv in domain):
            probe = _boundary(f, lane, user, domain)
            probe(*(corner for corner, _ in box))
            zero = Real.from_float(0.0, tier)
            return QuadResult(zero, zero, 1, True)
    try:
        out = core(lane, _boundary(f, lane, user), box, method)
    except (ArithmeticError, ValueError, AhmedQuadError):
        out = None
    if out is None or not math.isfinite(lane.hi(out[0])):
        core(lane, _boundary(f, lane, user, domain), box, method)
        raise NonFiniteError("integration produced a non-finite sum")
    return _result(lane, *out)


def _of_reals(f):
    # a DOUBLEWORD registry lane, (hi, lo) words in and a pair out, as a
    # callable of Reals
    def g(*xs):
        return Real._raw(*f(*[w for x in xs for w in (x.hi, x.lo)]), Tier.DOUBLEWORD)

    return g


def _box(lane, domain):
    # the run's box of each axis's endpoints as lane values
    return _Box(
        lane, [(lane.to_point(iv.lower.hi, iv.lower.lo), lane.to_point(iv.upper.hi, iv.upper.lo)) for iv in domain]
    )


def _result(lane, value, est: float, evals: int, converged: bool) -> QuadResult:
    # a core's (value, estimate, evaluations, converged) at the API boundary
    error = Real.from_float(est, lane.tier)
    return QuadResult(lane.real(value), error, evals, converged)


def integrate_1d(
    f,
    interval: Interval | None = None,
    config: EngineConfig | None = None,
    a: Real | None = None,
) -> QuadResult:
    """Integrate a registry integrand (by id) or a callable ``Real ->
    Real`` over an interval. A degenerate interval yields exactly zero
    after a single probing evaluation."""
    config = config if config is not None else _DEFAULT_CONFIG
    _check_config(config)
    domain = None if interval is None else (interval,)
    return _integrate(f, domain, config.tier, config.method, _tensor, 1, a)


def integrate_2d(
    f,
    region: tuple[Interval, Interval] | None = None,
    config: EngineConfig | None = None,
    mode: Mode = Mode.TENSOR,
) -> QuadResult:
    """Integrate a 2D registry integrand (by id) or a callable
    ``(Real, Real) -> Real`` over a rectangle. TENSOR forms the product
    rule of a fixed 1D rule (Gauss-Legendre or tanh-sinh); ITERATED
    nests adaptive 1D passes with a tightened inner tolerance."""
    config = config if config is not None else _DEFAULT_CONFIG
    _check_config(config)
    if not isinstance(mode, Mode):
        raise ConfigError("mode must be a Mode")
    if mode is Mode.TENSOR and isinstance(config.method, AdaptiveSimpson):
        raise ConfigError(
            "adaptive Simpson has no fixed product rule; use ITERATED mode"
        )
    core = _iterated if mode is Mode.ITERATED else _tensor
    return _integrate(f, region, config.tier, config.method, core, 2)


def _ts_fixed(lane, f, box, method: TanhSinh, on_level=None):
    """Run tanh-sinh through every level up to ``method.max_level`` with
    no early exit, once. After each level the result is what a run
    stopped there returns: the value, the difference from the level
    before as the estimate (the value itself at level 1), the
    evaluations so far, and converged when that difference met
    target_eps (never at level 1). ``on_level``, if given, is passed
    each level's result as a :class:`QuadResult` as soon as its sum is
    formed; the last level's result is returned. A level whose sum is
    not finite raises :class:`NonFiniteError`; the checked re-run that
    names the point (see :func:`_integrate`) reports the levels before
    it again."""
    eps = method.target_eps
    prev = None
    for value, evals in _ts_1d(lane, f, box, method.max_level):
        if prev is None:
            est, converged = abs(lane.hi(value)), False
        else:
            est = abs(lane.hi(lane.sub(value, prev)))
            converged = est <= eps
        out = value, _floored(lane, est, value), evals, converged
        if on_level is not None:
            on_level(_result(lane, *out))
        prev = value
    return out


def _integrate_1d_ts_fixed(
    integrand_id: str, level: int, tier: Tier, target_eps: float, on_level=None
) -> QuadResult:
    """Run tanh-sinh through exactly ``level`` refinement levels with no
    early exit, so that evaluation counts grow strictly with the level.
    With ``on_level``, the one run also reports every level before: the
    benchmark sweep takes all its rows from a single run to level 12."""
    _check_int(level, 1, _MAX_TS_LEVEL, "level")
    method = TanhSinh(max_level=level, target_eps=target_eps)
    core = functools.partial(_ts_fixed, on_level=on_level)
    return _integrate(integrand_id, None, tier, method, core)

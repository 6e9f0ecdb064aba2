"""Quadrature engines over precision-tiered scalars.

Three rules share one result contract:

* Gauss-Legendre product rules with memoized node tables, run over a
  ladder of orders whose successive sums give the error estimate: the
  fixed rule is (order // 2, order), the adaptive one (with a ``tol``)
  doubles from 6 or so up to the order and stops once within ``tol``.
  Nodes are found by Newton iteration from Chebyshev initial guesses;
  DOUBLEWORD tables polish each converged root with two further Newton
  steps in double-word arithmetic.
* Tanh-sinh (double-exponential) rules with level-halved step sizes
  ``h = 2^-k`` and incremental refinement: level ``k`` reuses every
  point of level ``k - 1``, and :func:`tanh_sinh_abscissas` is the union
  of those increments. Points sit at ``t = J 2^-12``; DOUBLEWORD tables
  take sinh t and cosh t from two step tables (of ``J >> 6`` and
  ``J & 63``) by the addition formulas, so a point has the same bits at
  every level, and make one ``exp`` call per node.
* Globally adaptive Simpson with Richardson acceptance ``|S2 - S1| <=
  15 * tol`` and left-first deterministic splitting.

All reported evaluation counts are exact: every call into the integrand
is counted once, including the points spent on error estimation.

Each rule is written once, as a core that runs over a tier *lane*:
:class:`_Native` carries values as binary64 floats, :class:`_DoubleWord`
as ``(hi, lo)`` pairs. The lane owns the tier arithmetic (point
mapping, exact power-of-two scaling, differences, ``hi``, conversion
to and from :class:`Real`). A 2-D tensor rule is the 1-D weighted sum
applied to row sums over a pre-mapped axis.

Every weighted sum is exactly rounded: a running sum is the list of the
binary64 words of its terms ``w * f(p)`` (one word per term at NATIVE64,
both words of each double-word product at DOUBLEWORD), totalled by
:func:`math.fsum` (Shewchuk's algorithm), so it does not depend on the
order of its terms. A double-word total is ``s = fsum(words)`` with the
rounded remainder ``fsum(words + [-s])``. Across tanh-sinh levels the
words are scaled by an exact power of two.

Tier-specific code is confined to the node-table arithmetic, each
lane's point mapping and its three per-evaluation loops (``sum``,
``row``, ``pairs``), which collect the terms and call the integrand at
fixed arity. Measured on 2 vCPUs under CPython 3.11: over
167k native 2-D evaluations a row loop calling ``f(x, *y)`` took 65-85%
longer than one calling ``f(x, y)``; over a 96 x 96 double-word tensor,
passing the row coordinate on as ``*y`` cost 2-5%, and mapping points
inside the nested loop instead of once per axis cost 30%.

Every integrand passes one evaluation boundary, :func:`_boundary`,
which also converts user callables between Reals and lane values. When
an evaluation raised or the result came out non-finite, the rule runs
again with every evaluation checked, so that :class:`NonFiniteError`
names the point.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import (
    ConfigError,
    ConvergenceError,
    NonFiniteError,
    TierMismatchError,
)
from .integrands import Interval, domain_of, get as get_integrand, raw_fn
from .scalar import (
    Real,
    Tier,
    _dd_add,
    _dd_add_d,
    _dd_div,
    _dd_div_d,
    _dd_exp,
    _dd_mul,
    _dd_mul_d,
    _dd_scale2,
    _dd_sinh,
    _dd_sqr,
    _dd_sqrt,
    _dd_sub,
    _pi_pair,
    _sinh_cosh_table,
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
    if not isinstance(value, int) or not lo <= value <= hi:
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
    within ``tol``."""

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
        if not isinstance(tol, (int, float)) or not math.isfinite(tol) or tol <= 0.0:
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
    dp = n * (x * p1 - p0) / (x * x - 1.0) if x != 0.0 else n * -p0 / -1.0
    return p1, dp


def _legendre_dd(n: int, xh: float, xl: float) -> tuple[float, float, float, float]:
    p0h, p0l = 1.0, 0.0
    p1h, p1l = xh, xl
    for k in range(1, n):
        th, tl = _dd_mul(p1h, p1l, xh, xl)
        th, tl = _dd_mul_d(th, tl, float(2 * k + 1))
        sh, sl = _dd_mul_d(p0h, p0l, float(k))
        th, tl = _dd_sub(th, tl, sh, sl)
        th, tl = _dd_div_d(th, tl, float(k + 1))
        p0h, p0l, p1h, p1l = p1h, p1l, th, tl
    numh, numl = _dd_sub(*_dd_mul(p1h, p1l, xh, xl), p0h, p0l)
    numh, numl = _dd_mul_d(numh, numl, float(n))
    denh, denl = _dd_add_d(*_dd_sqr(xh, xl), -1.0)
    dph, dpl = _dd_div(numh, numl, denh, denl)
    return p1h, p1l, dph, dpl


def _gl_positive_roots_native(n: int) -> list[tuple[float, float]]:
    # positive half (descending), each entry (node, weight)
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
        p, dp = _legendre_native(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        out.append((x, w))
    return out


def _gl_polish_dd(n: int, x0: float):
    # two double-word Newton steps from the native root, then its weight
    xh, xl = x0, 0.0
    for _ in range(2):
        ph, pl, dph, dpl = _legendre_dd(n, xh, xl)
        dxh, dxl = _dd_div(ph, pl, dph, dpl)
        xh, xl = _dd_sub(xh, xl, dxh, dxl)
    _, _, dph, dpl = _legendre_dd(n, xh, xl)
    oh, ol = _dd_sub(1.0, 0.0, *_dd_sqr(xh, xl))
    dh, dl = _dd_mul(oh, ol, *_dd_sqr(dph, dpl))
    return (xh, xl), _dd_div(2.0, 0.0, dh, dl)


@functools.lru_cache(maxsize=None)
def _gl_table(n: int, tier: Tier):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], as lane
    values of the tier: the table the engine cores read."""
    lane = _LANES[tier]
    xs = [lane.zero] * n
    ws = [lane.zero] * n
    for i, (x, w) in enumerate(_gl_positive_roots_native(n)):
        if tier is Tier.DOUBLEWORD:
            x, w = _gl_polish_dd(n, x)
        xs[n - 1 - i] = x
        ws[n - 1 - i] = w
        xs[i] = lane.neg(x)
        ws[i] = w
    if n % 2 == 1:
        if tier is Tier.NATIVE64:
            _, dp = _legendre_native(n, 0.0)
            ws[n // 2] = 2.0 / (dp * dp)
        else:
            _, _, dph, dpl = _legendre_dd(n, 0.0, 0.0)
            ws[n // 2] = _dd_div(2.0, 0.0, *_dd_sqr(dph, dpl))
    return tuple(xs), tuple(ws)


@functools.lru_cache(maxsize=None)
def gl_nodes(order: int, tier: Tier = Tier.NATIVE64) -> NodeTable:
    """The memoized Gauss-Legendre rule of a given order at a tier.
    Repeated calls return the identical table object."""
    _check_int(order, 2, _MAX_GL_ORDER, "order")
    real = _LANES[tier].real
    xs, ws = _gl_table(order, tier)
    return NodeTable(order, tier, tuple(map(real, xs)), tuple(map(real, ws)))


# ----------------------------------------------------------------------
# Tanh-sinh point generation
# ----------------------------------------------------------------------

# weight cutoffs sit well below each tier's digit budget; the slack
# absorbs the slow per-node weight decay at the finest levels, where
# truncating at ~eps/4 would discard a visible tail
_TS_CUTOFF_NATIVE = 2.0**-60
_TS_CUTOFF_DD = 2.0**-106


def _ts_point_native(J: int, hp2: float) -> tuple[float, float, bool]:
    # (abscissa, weight, past the end) at t = J 2^-12; hp2 = (pi/2) h
    t = J * _TS_STEP
    u = 0.5 * math.pi * math.sinh(t)
    x = math.tanh(u)
    cu = math.cosh(u)
    w = hp2 * math.cosh(t) / (cu * cu)
    return x, w, x >= 1.0 or w < _TS_CUTOFF_NATIVE


# t runs over multiples of the finest step 2^-12; at DOUBLEWORD the
# weights fall below the cutoff near t = 3.85 at every level, so the
# first point past the end lies at t <= 4, inside the range t < 5 of
# the step tables
_TS_STEP = 2.0**-_MAX_TS_LEVEL
_TS_COARSE_STEPS = 320


@functools.lru_cache(maxsize=None)
def _ts_step_tables():
    """Double-word ``(sinh hi, sinh lo, cosh hi, cosh lo)`` of ``i/64``
    for ``i < 320`` and of ``m/4096`` for ``m < 64``, the nearest pairs,
    built on first use."""
    return _sinh_cosh_table(6, _TS_COARSE_STEPS), _sinh_cosh_table(_MAX_TS_LEVEL, 64)


def _ts_point_dd(J: int, hp2: tuple[float, float]):
    # the point at t = J 2^-12, past the end once the abscissa rounds to
    # 1 at 106 bits (1 - x <= 2^-107) or the weight falls below the
    # cutoff. With t = a + b, a = (J >> 6)/64 and b = (J & 63)/4096,
    # sinh t and cosh t come from the addition formulas: sums of
    # nonnegative terms, so nothing cancels, and a given t gets the same
    # bits at every level
    coarse, fine = _ts_step_tables()
    sah, sal, cah, cal = coarse[J >> 6]
    sbh, sbl, cbh, cbl = fine[J & 63]
    sh_t, sl_t = _dd_add(*_dd_mul(sah, sal, cbh, cbl), *_dd_mul(cah, cal, sbh, sbl))
    ch_t, cl_t = _dd_add(*_dd_mul(cah, cal, cbh, cbl), *_dd_mul(sah, sal, sbh, sbl))
    uh, ul = _dd_mul(*_dd_scale2(*_pi_pair(), 0.5), sh_t, sl_t)
    wh, wl = _dd_mul(*hp2, ch_t, cl_t)
    if uh < 0.5:
        # s = sinh u by its series: tanh u = s / sqrt(1 + s^2) and
        # cosh^2 u = 1 + s^2
        sh, sl = _dd_sinh(uh, ul)
        c2h, c2l = _dd_add_d(*_dd_sqr(sh, sl), 1.0)
        xh, xl = _dd_div(sh, sl, *_dd_sqrt(c2h, c2l))
        wh, wl = _dd_div(wh, wl, c2h, c2l)
    else:
        # q = e^-2u: tanh u = (1 - q)/(1 + q) and 1/cosh^2 u = 4q/(1 + q)^2
        qh, ql = _dd_exp(-2.0 * uh, -2.0 * ul)
        dh, dl = _dd_add_d(qh, ql, 1.0)
        xh, xl = _dd_div(*_dd_add_d(-qh, -ql, 1.0), dh, dl)
        wh, wl = _dd_div(*_dd_mul(wh, wl, 4.0 * qh, 4.0 * ql), *_dd_sqr(dh, dl))
    saturated = xh > 1.0 or (xh == 1.0 and xl >= -(2.0**-107))
    return (xh, xl), (wh, wl), saturated or wh < _TS_CUTOFF_DD


@functools.lru_cache(maxsize=None)
def _ts_nodes(level: int, tier: Tier):
    """Tanh-sinh ``(x, w)`` lane values new at ``level``: those at
    ``t = j h``, ``h = 2^-level``, for odd ``j`` (every ``j >= 0`` at
    level 1), up to the weight cutoff. The table the engine cores read."""
    h = 2.0**-level
    if tier is Tier.NATIVE64:
        point, hp2 = _ts_point_native, 0.5 * math.pi * h
    else:
        point, hp2 = _ts_point_dd, _dd_scale2(*_pi_pair(), 0.5 * h)
    if level > 1:
        xs, ws, j, step = [], [], 1, 2
    else:
        xs, ws, j, step = [_LANES[tier].zero], [hp2], 1, 1
    shift = _MAX_TS_LEVEL - level
    while True:
        x, w, past_end = point(j << shift, hp2)
        if past_end:
            return tuple(xs), tuple(ws)
        xs.append(x)
        ws.append(w)
        j += step


@functools.lru_cache(maxsize=None)
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
    abscissas (their weights stay distinct)."""
    _check_int(level, 1, _MAX_TS_LEVEL, "level")
    lane = _LANES[tier]
    nodes = []  # (t / h, x, w)
    for k in range(1, level + 1):
        xs, ws = _ts_nodes(k, tier)
        shift = level - k
        js = itertools.count(0, 1) if k == 1 else itertools.count(1, 2)
        nodes += [
            (j << shift, x, lane.scale(w, 2.0**-shift)) for j, x, w in zip(js, xs, ws)
        ]
    nodes.sort(key=operator.itemgetter(0))
    right = [(x, w) for _, x, w in nodes]
    left = [(lane.neg(x), w) for x, w in reversed(right[1:])]
    return tuple((lane.real(x), lane.real(w)) for x, w in left + right)


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


def _dd_fsum(words):
    # the exactly rounded double-word sum: the high word rounds the exact
    # sum, the low word rounds what the high word leaves
    s = _fsum(words)
    return s, _fsum(words + [-s])


class _Native:
    """NATIVE64 lane: every value and point is a binary64 float, and a
    running sum is the list of its terms ``w * f(p)``."""

    tier = Tier.NATIVE64
    zero = 0.0
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    mul_d = operator.mul
    div_d = operator.truediv
    scale = operator.mul  # by a power of two: exact
    neg = operator.neg
    hi = float  # the identity on floats, at C speed
    real = staticmethod(lambda v: Real._raw(v, 0.0, Tier.NATIVE64))
    pack = staticmethod(lambda hi, lo: hi)
    words = staticmethod(lambda v: (v,))
    coords = staticmethod(lambda words: [(x, 0.0) for x in words])
    total = staticmethod(_fsum)

    @staticmethod
    def map(m, h, xs):
        # the points m + h x of a rule's nodes
        return [m + h * x for x in xs]

    @staticmethod
    def sum(f, axis):
        # the terms w * f(p) over the (point, weight) axis
        return [w * f(p) for p, w in axis]

    @staticmethod
    def row(f, axis, y):
        # the sum of w * f(x, y) over one row of a 2-D rule
        return _fsum([w * f(x, y) for x, w in axis])

    @staticmethod
    def pairs(f, m, h, xs, ws):
        # the terms w * (f(m + h x) + f(m - h x)), or w * f(m) at the center
        return [
            w * f(m) if x == 0.0 else w * (f(m + h * x) + f(m - h * x))
            for x, w in zip(xs, ws)
        ]


def _on_pairs(kernel):
    # a double-word kernel of two values, over (hi, lo) pairs
    return staticmethod(lambda a, b: kernel(*a, *b))


def _on_pair(kernel):
    # a double-word kernel of a value and a float
    return staticmethod(lambda a, k: kernel(*a, k))


class _DoubleWord:
    """DOUBLEWORD lane: every value and point is an ``(hi, lo)`` pair,
    an integrand takes two words per coordinate, and a running sum is the
    list of both words of each term ``w * f(p)``."""

    tier = Tier.DOUBLEWORD
    zero = (0.0, 0.0)
    add = _on_pairs(_dd_add)
    sub = _on_pairs(_dd_sub)
    mul = _on_pairs(_dd_mul)
    mul_d = _on_pair(_dd_mul_d)
    div_d = _on_pair(_dd_div_d)
    scale = _on_pair(_dd_scale2)
    neg = staticmethod(lambda a: (-a[0], -a[1]))
    hi = operator.itemgetter(0)
    real = staticmethod(lambda a: Real._raw(a[0], a[1], Tier.DOUBLEWORD))
    pack = staticmethod(lambda hi, lo: (hi, lo))
    words = staticmethod(lambda a: a)
    coords = staticmethod(lambda words: list(zip(words[::2], words[1::2])))
    total = staticmethod(_dd_fsum)

    @staticmethod
    def map(m, h, xs):
        (mh, ml), (hh, hl) = m, h
        return [_dd_add(mh, ml, *_dd_mul(hh, hl, xh, xl)) for xh, xl in xs]

    @staticmethod
    def sum(f, axis):
        words = []
        for (ph, pl), (wh, wl) in axis:
            vh, vl = f(ph, pl)
            words += _dd_mul(wh, wl, vh, vl)
        return words

    @staticmethod
    def row(f, axis, yh, yl):
        words = []
        for (ph, pl), (wh, wl) in axis:
            vh, vl = f(ph, pl, yh, yl)
            words += _dd_mul(wh, wl, vh, vl)
        return _dd_fsum(words)

    @staticmethod
    def pairs(f, m, h, xs, ws):
        mh, ml = m
        hh, hl = h
        words = []
        for (xh, xl), (wh, wl) in zip(xs, ws):
            if xh == 0.0:
                fh, fl = f(mh, ml)
                words += _dd_mul(wh, wl, fh, fl)
            else:
                oh, ol = _dd_mul(hh, hl, xh, xl)
                f1h, f1l = f(*_dd_add(mh, ml, oh, ol))
                f2h, f2l = f(*_dd_sub(mh, ml, oh, ol))
                words += _dd_mul(wh, wl, *_dd_add(f1h, f1l, f2h, f2l))
        return words


_LANES = {Tier.NATIVE64: _Native, Tier.DOUBLEWORD: _DoubleWord}


# ----------------------------------------------------------------------
# The evaluation boundary
# ----------------------------------------------------------------------


def _boundary(f, lane, user: bool, domain=None):
    """The integrand as the cores call it: lane words in, a lane value
    out. A user callable (``user``) is passed Reals of the lane's tier
    and may return a Real of that tier, an int or a float.

    With a ``domain`` every evaluation is checked: a non-finite value,
    or an arithmetic error raised on the domain's edge (where an
    integrable singularity sits), raises :class:`NonFiniteError`
    carrying the point. An error raised inside the domain is the
    integrand's own and propagates unchanged."""
    tier = lane.tier
    call = f
    if user:

        def call(*words):
            r = f(*(Real._raw(h, l, tier) for h, l in lane.coords(words)))
            if isinstance(r, Real):
                if r.tier is not tier:
                    raise TierMismatchError(
                        f"integrand returned a {r.tier.value} value "
                        f"to a {tier.value} engine"
                    )
                return lane.pack(r.hi, r.lo)
            if isinstance(r, (int, float)):
                return lane.pack(float(r), 0.0)
            raise ConfigError(
                f"integrand returned {type(r).__name__}; "
                "expected a Real, an int or a float"
            )

    if domain is None:
        return call
    edges = [((iv.lower.hi, iv.lower.lo), (iv.upper.hi, iv.upper.lo)) for iv in domain]

    def located(*words):
        coords = lane.coords(words)
        try:
            v = call(*words)
        except (ArithmeticError, ValueError):
            if not any(c in edge for c, edge in zip(coords, edges)):
                raise
            v = None
        if v is None or not math.isfinite(lane.hi(v)):
            point = tuple(h for h, _ in coords)
            raise NonFiniteError(f"integrand is not finite at {point!r}", point=point)
        return v

    return located


# ----------------------------------------------------------------------
# Engine cores, one per rule
# ----------------------------------------------------------------------


def _mid_half(lane, a, b):
    return lane.scale(lane.add(a, b), 0.5), lane.scale(lane.sub(b, a), 0.5)


def _floored(lane, est: float, value) -> float:
    return max(est, 4.0 * lane.tier.eps * abs(lane.hi(value)))


def _gl_rungs(method: GaussLegendre) -> tuple[int, ...]:
    """The orders a Gauss-Legendre run goes through, lowest first. The
    fixed rule is the two rungs (order // 2, order); with a ``tol`` the
    ladder is the order halved while the half stays >= 6 (6, 12, 24,
    48, 96 for 96, as mpmath's 3 * 2^m degrees), or the fixed pair
    below order 12."""
    n = method.order
    rungs = [n]
    if method.tol is not None:
        while rungs[-1] // 2 >= 6:
            rungs.append(rungs[-1] // 2)
    if len(rungs) == 1:
        rungs.append(max(1, n // 2))
    return tuple(reversed(rungs))


def _gl(lane, f, box, method: GaussLegendre):
    # one rule per rung, each the next one's half-order error estimate,
    # so the estimate costs no extra evaluations; in 2-D the 1-D sum runs
    # over row sums, each axis mapped once per rule. With a tol the run
    # stops at the first estimate <= tol (converged); the fixed rule runs
    # both rungs and is converged unless the two rules differ by more
    # than a tenth of the value, agreeing on no leading digit
    axes = [_mid_half(lane, a, b) for a, b in box]
    jac = axes[0][1] if len(box) == 1 else lane.mul(axes[0][1], axes[1][1])
    tol = method.tol
    prev = None
    evals = 0
    for n in _gl_rungs(method):
        xs, ws = _gl_table(n, lane.tier)
        mapped = [list(zip(lane.map(m, h, xs), ws)) for m, h in axes]
        g = f if len(box) == 1 else functools.partial(lane.row, f, mapped[0])
        value = lane.mul(jac, lane.total(lane.sum(g, mapped[-1])))
        evals += n ** len(box)
        if prev is not None:
            est = _floored(lane, abs(lane.hi(lane.sub(value, prev))), value)
            if tol is not None and est <= tol:
                return value, est, evals, True
        prev = value
    converged = tol is None and est <= 0.1 * abs(lane.hi(value))
    return value, est, evals, converged


def _signed_axis(lane, xs, ws, m, h):
    # mapped signed expansion: the center alone, every other node as
    # m + h x then m - h x
    axis = []
    for x, w in zip(xs, ws):
        if x == lane.zero:
            axis.append((m, w))
        else:
            o = lane.mul(h, x)
            axis.append((lane.add(m, o), w))
            axis.append((lane.sub(m, o), w))
    return axis


def _ts_1d(lane, f, a, b, max_level: int):
    # yields (value, evaluations) after each level; the running sum's
    # words halve with the step (exact), a no-op on the empty sum before
    # level 1
    m, h = _mid_half(lane, a, b)
    words = []
    evals = 0
    for level in range(1, max_level + 1):
        xs, ws = _ts_nodes(level, lane.tier)
        words = [w * 0.5 for w in words]
        words += lane.pairs(f, m, h, xs, ws)
        # two points per node, but one at the center of the first level
        evals += 2 * len(xs) - (level == 1)
        yield lane.mul(h, lane.total(words)), evals


def _ts_2d(lane, f, box, max_level: int):
    # yields (value, evaluations) after each level, which adds the new
    # rows over the new columns, then the new rows over every column;
    # kept weights halve per axis and the running sum's words quarter (a
    # no-op on the empty sum before level 1)
    (mx, hx), (my, hy) = (_mid_half(lane, a, b) for a, b in box)
    jac = lane.mul(hx, hy)
    px: list = []
    py: list = []
    words = []
    evals = 0
    for level in range(1, max_level + 1):
        xs, ws = _ts_nodes(level, lane.tier)
        px = [(p, lane.scale(w, 0.5)) for p, w in px]
        py = [(p, lane.scale(w, 0.5)) for p, w in py]
        words = [w * 0.25 for w in words]
        nx = _signed_axis(lane, xs, ws, mx, hx)
        ny = _signed_axis(lane, xs, ws, my, hy)
        words += lane.sum(functools.partial(lane.row, f, nx), py)
        both = px + nx
        words += lane.sum(functools.partial(lane.row, f, both), ny)
        evals += len(py) * len(nx) + len(ny) * len(both)
        px = both
        py = py + ny
        yield lane.mul(jac, lane.total(words)), evals


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


def _simpson(lane, f, a, b, method: AdaptiveSimpson):
    max_depth = method.max_depth
    evals = 0
    depth_hit = False

    def ev(x):
        # checked at every evaluation: a non-finite value would keep the
        # recursion splitting down to max_depth
        nonlocal evals
        evals += 1
        v = f(*lane.words(x))
        if not math.isfinite(lane.hi(v)):
            raise NonFiniteError("integrand returned a non-finite value")
        return v

    def rule(a, b, fa, fm, fb):
        # (b - a)/6 * (fa + 4 fm + fb)
        weighted = lane.add(lane.add(fa, lane.mul_d(fm, 4.0)), fb)
        return lane.mul(lane.div_d(lane.sub(b, a), 6.0), weighted)

    def rec(a, fa, m, fm, b, fb, whole, tol, depth):
        nonlocal depth_hit
        lm = lane.scale(lane.add(a, m), 0.5)
        rm = lane.scale(lane.add(m, b), 0.5)
        flm = ev(lm)
        frm = ev(rm)
        left = rule(a, m, fa, flm, fm)
        right = rule(m, b, fm, frm, fb)
        s2 = lane.add(left, right)
        d = lane.sub(s2, whole)
        ad = abs(lane.hi(d))
        if ad <= 15.0 * tol or depth >= max_depth:
            if ad > 15.0 * tol:
                depth_hit = True
            return lane.add(s2, lane.div_d(d, 15.0)), ad / 15.0
        half = 0.5 * tol
        lv, le = rec(a, fa, lm, flm, m, fm, left, half, depth + 1)
        rv, re = rec(m, fm, rm, frm, b, fb, right, half, depth + 1)
        return lane.add(lv, rv), le + re

    fa = ev(a)
    m = lane.scale(lane.add(a, b), 0.5)
    fm = ev(m)
    fb = ev(b)
    value, est = rec(a, fa, m, fm, b, fb, rule(a, b, fa, fm, fb), method.tol, 0)
    return value, _floored(lane, est, value), evals, not depth_hit


def _tensor(lane, f, box, method):
    # the rule over a box of one axis, or the product rule over two
    if isinstance(method, GaussLegendre):
        return _gl(lane, f, box, method)
    if len(box) == 2:
        return _refine(lane, method, _ts_2d(lane, f, box, method.max_level))
    if isinstance(method, AdaptiveSimpson):
        return _simpson(lane, f, *box[0], method)
    return _refine(lane, method, _ts_1d(lane, f, *box[0], method.max_level))


def _iterated(lane, f, box, method):
    # adaptive 1-D passes over x inside a 1-D pass over y, the inner
    # tolerance ten times tighter; only inner evaluations are counted
    floor = 10.0 * lane.tier.eps
    if isinstance(method, TanhSinh):
        inner = TanhSinh(method.max_level, max(method.target_eps * 0.1, floor))
    elif isinstance(method, AdaptiveSimpson):
        inner = AdaptiveSimpson(max(method.tol * 0.1, floor), method.max_depth)
    elif method.tol is not None:
        inner = GaussLegendre(method.order, max(method.tol * 0.1, floor))
    else:
        inner = method
    evals = 0
    conv = True
    inner_est = 0.0

    def g(*y):
        nonlocal evals, conv, inner_est
        v, est, ev, c = _tensor(lane, lambda *x: f(*x, *y), box[:1], inner)
        evals += ev
        conv = conv and c
        inner_est = max(inner_est, est)
        return v

    v, outer_est, _, outer_conv = _tensor(lane, g, box[1:], method)
    est = outer_est + lane.hi(lane.sub(box[1][1], box[1][0])) * inner_est
    return v, _floored(lane, est, v), evals, outer_conv and conv


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

_DEFAULT_CONFIG = EngineConfig(TanhSinh(max_level=10, target_eps=1e-13))


def _integrate(f, domain, tier: Tier, method, core, dim: int = 1, a=None):
    """Integrate ``f``, a registry id or a callable, over ``domain`` (by
    default a registry integrand's own) as ``core(lane, integrand, box,
    method)``, the box holding each axis's endpoints as lane values.
    When an evaluation raised or the value came out non-finite, the core
    runs again with every evaluation checked, to name the point. A
    degenerate domain costs one probing evaluation and yields zero."""
    lane = _LANES[tier]
    what = "interval" if dim == 1 else "region"
    if isinstance(f, str):
        entry = get_integrand(f)
        if entry.dim != dim:
            raise ConfigError(f"{f} is {entry.dim}D; use integrate_{entry.dim}d")
        f, user = raw_fn(f, tier, a), False
        domain = domain_of(entry.id, tier) if domain is None else domain
    elif callable(f):
        if a is not None:
            raise ConfigError("parameter a applies only to registry integrands")
        if domain is None:
            raise ConfigError(f"an explicit {what} is required for callables")
        user = True
    else:
        raise ConfigError("f must be an integrand id or a callable")
    box = []
    for iv in domain:
        if iv.tier is not tier:
            raise TierMismatchError(f"{what} tier does not match the engine tier")
        lower, upper = iv.lower, iv.upper
        box.append((lane.pack(lower.hi, lower.lo), lane.pack(upper.hi, upper.lo)))
    if any(iv.degenerate for iv in domain):
        probe = _boundary(f, lane, user, domain)
        probe(*(w for corner, _ in box for w in lane.words(corner)))
        zero = Real.from_float(0.0, tier)
        return QuadResult(zero, zero, 1, True)
    try:
        out = core(lane, _boundary(f, lane, user), box, method)
    except (ArithmeticError, ValueError, NonFiniteError):
        out = None
    if out is None or not math.isfinite(lane.hi(out[0])):
        core(lane, _boundary(f, lane, user, domain), box, method)
        raise NonFiniteError("integration produced a non-finite sum")
    return _result(lane, *out)


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
    it a second time."""
    eps = method.target_eps
    prev = None
    for value, evals in _ts_1d(lane, f, *box[0], method.max_level):
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

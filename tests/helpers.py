"""Shared helpers for the test suite.

Frozen reference constants live here as 40-digit decimal strings. Each
was computed with an independent arbitrary-precision library at 50
digits and pasted in, so the package under test never feeds its own
values back into the expectations.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ahmedquad import Real, Tier, bounds

TIERS = (Tier.NATIVE64, Tier.DOUBLEWORD)
TIER_IDS = tuple(t.value for t in TIERS)

# 40-digit reference values (independent oracle, frozen)
PI_STR = "3.141592653589793238462643383279502884197"
I_STR = "0.5140418958900707613976297395768828716309"
I1_STR = "0.8224670334241132182362075833230125946095"
I2_STR = "0.3084251375340424568385778437461297229786"
TWO_I2_STR = "0.6168502750680849136771556874922594459571"
SQRT2_STR = "1.414213562373095048801688724209698078570"
ATAN_SQRT2_STR = "0.9553166181245092781638571025157577542434"
AHMED_AT_0_STR = "0.6755108588560399630171925962606798639348"
AHMED_AT_1_STR = "0.3022998940390363084323463762736926220473"
AHMED_AT_THIRD_STR = "0.5996020609259893455591958956125726298354"
I1X_AT_THIRD_STR = "0.9729865585966517262773073788026727076659"
I1THETA_AT_PI8_STR = "1.065939786981714189913270522164384618983"
I2X_AT_THIRD_STR = "0.3733844976706623807181114831901000778305"
EXP_5_4_STR = "3.490342957461841376130546029672265482652"
PI2_OVER_30_STR = "0.3289868133696452872944830333292050378438"
INV_SQRT3_STR = "0.5773502691896257645091487805019574556476"
PI_OVER_4_STR = "0.7853981633974483096156608458198757210493"
PI_OVER_2_STR = "1.570796326794896619231321691639751442099"


def ref(text: str, tier: Tier) -> Real:
    """Correctly rounded tier value of a frozen decimal string."""
    return Real.from_decimal(text, tier)


def ulp_diff(x: Real, y: Real) -> float:
    """Distance between two same-tier values in units of the tier eps
    at the scale of the larger magnitude."""
    if x.tier is not y.tier:
        raise AssertionError("ulp_diff across tiers")
    d = x - y
    num = abs(d.hi) if d.hi else abs(d.lo)
    if num == 0.0:
        return 0.0
    scale = max(abs(x.to_float()), abs(y.to_float()), 1e-300)
    return num / (x.tier.eps * scale)


def assert_ulps(x: Real, y: Real, limit: float, label: str = "") -> None:
    got = ulp_diff(x, y)
    assert got <= limit, (
        f"{label or 'values'} differ by {got:.3g} ulps (> {limit}): "
        f"{x.to_decimal_string()} vs {y.to_decimal_string()}"
    )


def nearest_pair(v) -> tuple[float, float]:
    """The double-word nearest to an mpmath value, rounded from its
    exact binary fraction."""
    man, exp = v.man_exp  # the magnitude's
    return nearest_pair_of(Fraction(-man if v < 0 else man) * Fraction(2) ** exp)


def nearest_pair_of(f: Fraction) -> tuple[float, float]:
    """The double-word nearest to an exact Fraction."""
    hi = float(f)
    return hi, float(f - Fraction(hi))


def gl_bound(cert, tier: Tier, orders) -> float:
    """The proven bound on |I - Q| of ``bounds._gl_terms`` at ``orders``,
    one per axis."""
    return bounds._bound(*bounds._gl_terms(cert, tier), orders)


def rel_err(value: Real, truth: Real) -> float:
    d = (value - truth).to_float()
    t = truth.to_float()
    return abs(d) if t == 0.0 else abs(d / t)


def grid_257() -> list[float]:
    """257 equally spaced points on [0, 1] including both endpoints."""
    return [i / 256 for i in range(257)]


def seeded_floats(n: int, seed: int = 0x5EED) -> list[float]:
    """Deterministic pseudo-random points in (0, 1)."""
    import random

    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


def ulp_of(x: float) -> float:
    """Spacing of binary64 floats at |x|."""
    return math.ulp(abs(x)) if x else math.ulp(0.0)


def exact_rule(lane, f, box, method, mode=None):
    """Replay at 420 bits the rule a doubleword run of ``method`` took,
    and return ``(value, evaluations)``: the same Gauss-Legendre orders
    (``method.order`` fixed, or the proven orders given as a tuple), the
    same tanh-sinh levels (where the run's stopping rule stops, or given
    as an int, the fixed run's level count) and the same Simpson
    partition, on the lane's own points (``box`` holds the lane's
    endpoints), with the nodes and weights of ``quad._gl_ints`` and
    ``quad._ts_ints`` read as exact rationals. ``f`` takes mpf
    coordinates and returns an mpf; it sees each point as the lane's
    integrand does, an int at 2^-192 on a registry body's lane and the
    nearest pair on the tier's lane. An ITERATED run (``mode``) rounds
    each inner Gauss-Legendre and tanh-sinh value to the nearest pair,
    as the lane does; every other sum is exact."""
    import mpmath as mp

    from ahmedquad import quad
    from ahmedquad.quad import AdaptiveSimpson, GaussLegendre, Mode, TanhSinh

    eps = lane.tier.eps
    f = functools.lru_cache(maxsize=None)(f)  # each level of a run re-reads the last's points

    def at(p):
        # a lane point as the integrand sees it
        if lane is quad._LANES[lane.tier]:
            hi, lo = lane.coords([p])[0]
            return mp.mpf(hi) + lo
        return mp.ldexp(p, -lane.point)

    def nearest(v):
        hi, lo = nearest_pair(v)
        return mp.mpf(hi) + lo

    def gl_axis(a, b, n):
        m, h = quad._mid_half(lane, a, b)
        xs, ws = quad._gl_ints(n)
        return [(at(p), mp.ldexp(w, -quad._W_SHIFT)) for p, w in zip(lane.map(m, h, xs), ws)], h

    def ts_axis(a, b, level):
        # the level's rule: every node new at k <= level, its weight
        # scaled by 2^(k - level); the center once, every other node at
        # m + h x and m - h x
        m, h = quad._mid_half(lane, a, b)
        axis = []
        for k in range(1, level + 1):
            xs, ws = quad._ts_ints(k)
            for x, w in zip(xs, ws):
                w = mp.ldexp(w, k - level - quad._W_SHIFT)
                if x == 0:
                    axis.append((at(m), w))
                else:
                    o = lane.offset(h, x)
                    axis += [(at(m + o), w), (at(m - o), w)]
        return axis, h

    def tensor(g, axes):
        # the product rule over one axis or two, and its evaluations
        (xs, hx), *rest = axes
        if not rest:
            return mp.ldexp(hx, -lane.point) * mp.fsum(w * g(x) for x, w in xs), len(xs)
        (ys, hy), = rest
        total = mp.fsum(v * mp.fsum(w * g(x, y) for x, w in xs) for y, v in ys)
        return mp.ldexp(hx * hy, -2 * lane.point) * total, len(xs) * len(ys)

    def one(g, boxes, method):
        # (value, evaluations) of the rule over boxes, one axis or two
        if isinstance(method, tuple):  # proven orders
            return tensor(g, [gl_axis(a, b, n) for (a, b), n in zip(boxes, method)])
        if isinstance(method, int):  # tanh-sinh through exactly these levels
            return tensor(g, [ts_axis(a, b, method) for a, b in boxes])
        if isinstance(method, GaussLegendre):
            assert method.tol is None, "a ladder run is not replayed"
            evals = 0
            for n in quad._gl_rungs(method):  # the last rung's rule, after every rung
                value, count = tensor(g, [gl_axis(a, b, n) for a, b in boxes])
                evals += count
            return value, evals
        if isinstance(method, TanhSinh):
            # _refine's stopping rule on the rounded level values
            prev, prev_diff = None, math.inf
            for level in range(1, method.max_level + 1):
                value, evals = tensor(g, [ts_axis(a, b, level) for a, b in boxes])
                rounded = nearest(value)
                if prev is not None:
                    diff = abs(float(rounded - prev))
                    floor = 16.0 * eps * max(1.0, abs(float(rounded)))
                    if diff <= method.target_eps or (diff <= floor and prev_diff <= floor):
                        break
                    prev_diff = diff
                prev = rounded
            return value, evals
        assert isinstance(method, AdaptiveSimpson) and len(boxes) == 1
        return simpson(g, *boxes[0], method)

    def simpson(g, a, b, method):
        evals = 0

        def ev(p):
            nonlocal evals
            evals += 1
            return g(at(p))

        def rule(a, b, fa, fm, fb):
            return mp.ldexp(lane.sub(b, a), -lane.point) / 6 * (fa + 4 * fm + fb)

        def rec(a, fa, m, fm, b, fb, whole, tol, depth):
            lm = lane.scale(lane.add(a, m), 0.5)
            rm = lane.scale(lane.add(m, b), 0.5)
            flm, frm = ev(lm), ev(rm)
            left, right = rule(a, m, fa, flm, fm), rule(m, b, fm, frm, fb)
            s2 = left + right
            d = s2 - whole
            ad = abs(float(d))
            if ad <= 15.0 * tol or depth >= method.max_depth or ad <= 16.0 * eps * abs(float(s2)):
                return s2 + d / 15
            return rec(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + rec(
                m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
            )

        fa = ev(a)
        m = lane.scale(lane.add(a, b), 0.5)
        fm = ev(m)
        fb = ev(b)
        return rec(a, fa, m, fm, b, fb, rule(a, b, fa, fm, fb), method.tol, 0), evals

    with mp.workprec(420):
        if mode is not Mode.ITERATED:
            return one(f, box, method)
        floor = 10.0 * eps
        if isinstance(method, TanhSinh):
            inner = TanhSinh(method.max_level, max(method.target_eps * 0.1, floor))
        elif isinstance(method, AdaptiveSimpson):
            inner = AdaptiveSimpson(max(method.tol * 0.1, floor), method.max_depth)
        else:
            inner = method
        evals = 0

        @functools.lru_cache(maxsize=None)
        def g(y):
            # each outer point once, as the lane evaluates it
            nonlocal evals
            v, n = one(lambda x: f(x, y), box[:1], inner)
            evals += n
            return v if isinstance(inner, AdaptiveSimpson) else nearest(v)

        value, _ = one(g, box[1:], method)
        return value, evals

"""Shared helpers for the test suite.

Frozen reference constants live here as 40-digit decimal strings. Each
was computed with an independent arbitrary-precision library at 50
digits and pasted in, so the package under test never feeds its own
values back into the expectations.
"""

from __future__ import annotations

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
    f = Fraction(-man if v < 0 else man) * Fraction(2) ** exp
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

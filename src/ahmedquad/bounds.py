"""Proven error bounds of Gauss-Legendre rules, and the orders they allow.

A registry integrand's :class:`~.integrands.Certificate` bounds it by M
on Bernstein ellipses E_rho about each axis of its own domain. On [-1, 1]
the n-point rule is exact to degree 2n - 1, so with the Chebyshev
coefficients |a_k| <= 2 M rho^-k, |I(T_k)| = 2/(k^2 - 1) and |Q_n(T_k)|
<= 2 its error is at most 4 (1 + 1/(4n^2 - 1)) M rho^(2 - 2n) / (rho^2 -
1): Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
Review 2008, Thm 4.5, with his n + 1 points written n. An axis of
half-length h scales it by h. In 2-D, I - Qx(x)Qy = (I - Qx)(x)I +
Qx(x)(I - Qy), and Qx's weights are positive and sum to the length, so
the bound is the y-length times the x-axis bound at n_x plus the
x-length times the y-axis one at n_y: each axis's term depends on its
own order alone. A rounding term is added to the truncation terms.
:func:`_proven_rung` gives the engine the cheapest proven orders and
their bound, or None; nothing here evaluates an integrand.
"""

from __future__ import annotations

import functools
import math

from .integrands import domain_of, get as get_integrand
from .scalar import Tier

# The rounding term is _ROUNDING u |domain| sup|f|, u the tier's eps: the
# sum of |w f(p)| over the rule is at most |domain| sup|f|, and each term
# carries these errors, in units of u
_ROUNDING_TERMS = {
    # measured, not proven, against 50-digit mpmath for every doubleword
    # registry lane by tests/test_scalar.py::test_every_lane_against_mpmath:
    # each is within 0.125, the eq3 lane always the nearest pair and every
    # other lane the nearest pair on its own domain
    "lane": 6.0,
    # the table's sum |dw_i| / sum w_i against 240-bit weights: each
    # doubleword weight is the nearest pair, within 0.25 (measured at
    # orders 2 to 128: 0.123, the sum 0.056), and each native64 weight
    # its high word, the nearest double, within 0.5 (measured: 0.493,
    # the sum 0.294); tests/test_certificates.py holds both to 0.5
    "weights": 0.5,
    # the mapped point's, about 1, times |x f'/f| <= 2 on the domains
    "point": 2.0,
    # the weight and Jacobian products: 1.25 each, the bound of the
    # double-word product the doubleword lanes once formed (Joldes,
    # Muller and Popescu, ACM TOMS 2017); a binary64 product is within
    # 0.5, and the integer lanes' products are exact
    "products": 2.5,
    "sum": 0.5,  # exactly rounded
}
# over twice the terms' 11.5. _OUTWARD widens the whole bound for the
# binary64 rounding of its own few dozen steps, each within 2^-53
# relative; none cancels badly, since every rho used exceeds 1 + 2^-21
_ROUNDING = 32.0
_OUTWARD = 1.0 + 2.0**-20


@functools.lru_cache(maxsize=None)
def _scales(integrand_id: str, tier: Tier):
    # each axis's scale (volume / length x half-length), and rounding / sup|f|
    halves = [0.5 * (iv.upper.hi - iv.lower.hi) for iv in domain_of(integrand_id, tier)]
    lengths = [2.0 * h for h in halves]
    volume = math.prod(lengths)
    scales = tuple((volume / length) * h for h, length in zip(halves, lengths))
    return scales, _ROUNDING * tier.eps * volume


def _gl_terms(cert, tier: Tier):
    """The bound of the rule over the integrand's own domain at ``tier``
    as ``(terms, rounding)``, ``terms[i]`` axis i's ``(scale, pairs)``."""
    scales, rounding = _scales(cert.id, tier)
    return tuple(zip(scales, cert.axes)), rounding * cert.sup


def _bound(terms, rounding: float, orders) -> float:
    # the proven bound of :func:`_gl_terms` at per-axis orders: each axis's
    # scale times its truncation term, the least over its (rho, M) pairs
    trunc = 0.0
    for (scale, pairs), n in zip(terms, orders):
        e = 2 - 2 * n
        axis = min([m * rho**e / (rho * rho - 1.0) for rho, m in pairs], default=math.inf)
        trunc += scale * (4.0 * (1.0 + 1.0 / (4 * n * n - 1))) * axis
    return (trunc + rounding) * _OUTWARD


def _lowest(bound, seq, i: int, tol: float):
    # (index, bound) of the lowest n of the ascending seq with bound(n) <=
    # tol, for a bound that falls as n rises, or None: a walk from index i,
    # down while the n below is within tol, else up to the first that is,
    # so the pick is confirmed (the n below it not within tol) whatever i is
    b = bound(seq[i])
    if b <= tol:
        while i and (below := bound(seq[i - 1])) <= tol:
            i, b = i - 1, below
        return i, b
    for j in range(i + 1, len(seq)):
        if (b := bound(seq[j])) <= tol:
            return j, b
    return None


def _rung(cert, tier: Tier, orders, tol: float, start: int):
    """The lowest of the ascending ``orders`` whose 1-D bound is within
    ``tol``, as ``(index, bound)``, or None: :func:`_lowest` from index
    ``start``, the middle one for a single run; :func:`.quad._eq3_results`
    starts each a's walk at the last a's pick."""
    terms, rounding = _gl_terms(cert, tier)
    return _lowest(lambda n: _bound(terms, rounding, (n,)), orders, start, tol)


def _cheapest(cert, tier: Tier, orders, tol: float):
    """The cheapest proven orders, one per axis and each from the
    ascending ``orders``, as ``(orders, bound)``, or None when even the
    highest is not within ``tol``: in 1-D the lowest order whose bound is
    within tol (:func:`_rung`); in 2-D the (n_x, n_y) of fewest points,
    the lower n_x on a tie. Each axis's term falls as its own order
    rises, so each search walks one axis with the other's order fixed,
    n_y's from the last pick. The pick is one of the orders tried, and
    its bound the one computed there."""
    mid = len(orders) // 2
    if len(cert.axes) == 1:
        pick = _rung(cert, tier, orders, tol, mid)
        return None if pick is None else ((orders[pick[0]],), pick[1])
    terms, rounding = _gl_terms(cert, tier)
    top = orders[-1]
    lo_x = _lowest(lambda n: _bound(terms, rounding, (n, top)), orders, mid, tol)
    if lo_x is None:
        return None
    j = _lowest(lambda n: _bound(terms, rounding, (top, n)), orders, mid, tol)[0]
    lo_y, best = orders[j], None
    for nx in orders[lo_x[0]:]:
        if best is not None and nx * lo_y >= math.prod(best[0]):
            break
        j, b = _lowest(lambda n: _bound(terms, rounding, (nx, n)), orders, j, tol)
        if best is None or nx * orders[j] < math.prod(best[0]):
            best = (nx, orders[j]), b
    return best


@functools.lru_cache(maxsize=None)
def _fixed_proven(cert, tier: Tier, method):
    """The cheapest proven orders of a fixed integrand, each from 2 to
    the cap, cached per (certificate, tier, method)."""
    return _cheapest(cert, tier, range(2, method.order + 1), method.tol)


def _proven_rung(cert, tier: Tier, method, ladder):
    """The orders an integrand over its own domain runs alone, one per
    axis, as ``(orders, bound)`` within ``method.tol``, or None: a fixed
    integrand's from 2 to the cap, eq3_kernel's from the rungs
    ``ladder(method)``, whose tables are built once while its orders
    move with a."""
    if get_integrand(cert.id).parametric:
        return _cheapest(cert, tier, ladder(method), method.tol)
    return _fixed_proven(cert, tier, method)

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

import bisect
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


def _gl_terms(cert, tier: Tier):
    """The bound of the rule over the integrand's own domain at ``tier``
    as ``(terms, rounding)``, ``terms[i](n)`` axis i's at n points."""
    halves = [0.5 * (iv.upper.hi - iv.lower.hi) for iv in domain_of(cert.id, tier)]
    lengths = [2.0 * h for h in halves]
    volume = math.prod(lengths)

    def term(scale, pairs):
        def at(n):
            k = 4.0 * (1.0 + 1.0 / (4 * n * n - 1))
            axis = min(
                (m * rho ** (2 - 2 * n) / (rho * rho - 1.0) for rho, m in pairs),
                default=math.inf,
            )
            return scale * k * axis

        return at

    terms = [term((volume / length) * h, pairs) for h, length, pairs in zip(halves, lengths, cert.axes)]
    return terms, _ROUNDING * tier.eps * volume * cert.sup


def _bound(terms, rounding: float, orders) -> float:
    # the proven bound of :func:`_gl_terms` at per-axis orders
    trunc = 0.0
    for term, n in zip(terms, orders):
        trunc += term(n)
    return (trunc + rounding) * _OUTWARD


def _lowest(ok, seq):
    # the lowest n of the ascending seq with ok(n), for an ok that turns
    # true as n rises and stays true; None when there is none
    i = bisect.bisect_left(seq, True, key=ok)
    return seq[i] if i < len(seq) else None


def _cheapest(cert, tier: Tier, orders, tol: float):
    """The cheapest proven orders, one per axis and each from the
    ascending ``orders``, as ``(orders, bound)``, or None when even the
    highest is not within ``tol``: in 1-D the lowest order whose bound is
    within tol; in 2-D the (n_x, n_y) of fewest points, the lower n_x on
    a tie. Each axis's term falls as its own order rises, so each search
    bisects one axis with the other's order fixed. The pick is one of the
    orders tried, and its bound the one computed there."""
    terms, rounding = _gl_terms(cert, tier)
    top = orders[-1]
    bounds = {}

    def ok(*picked):
        bounds[picked] = _bound(terms, rounding, picked)
        return bounds[picked] <= tol

    if len(terms) == 1:
        n = _lowest(ok, orders)
        return None if n is None else ((n,), bounds[n,])
    lo_x = _lowest(lambda n: ok(n, top), orders)
    if lo_x is None:
        return None
    lo_y = _lowest(lambda n: ok(top, n), orders)
    ys = orders[orders.index(lo_y):]
    best = None
    for nx in orders[orders.index(lo_x):]:
        if best is not None and nx * lo_y >= best[0] * best[1]:
            break
        ny = _lowest(lambda n: ok(nx, n), ys)
        if best is None or nx * ny < best[0] * best[1]:
            best = nx, ny
    return best, bounds[best]


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

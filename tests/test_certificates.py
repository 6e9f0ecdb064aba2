"""Analyticity certificates and the proven Gauss-Legendre bounds built on
them, checked against independent oracles: every declared (rho, M) pair
with mpmath's interval arithmetic over the boundary of its Bernstein
ellipse, and every proven estimate against the 50-digit mpmath error."""

import functools
import itertools
import math

import pytest

from ahmedquad import (
    EngineConfig,
    GaussLegendre,
    Real,
    Tier,
    gl_nodes,
    integrate_1d,
    seeded_a_values,
)
from ahmedquad import bounds, integrands, quad
from ahmedquad.verify import default_config
from helpers import TIER_IDS, TIERS, gl_bound

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv


# ----------------------------------------------------------------------
# |f| over boxes of the complex plane, in real interval arithmetic
# ----------------------------------------------------------------------
# A complex interval is a pair (re, im) of real intervals; every function
# below returns an interval enclosing |f| over the box. Y stands for the
# square of the other coordinate of a 2-D kernel, anywhere in [0, 1].


def _nonneg(x):
    return iv.mpf([max(x.a, 0), x.b])


def _cadd(u, c):
    return (u[0] + c, u[1])


def _csq(u):
    return (u[0] ** 2 - u[1] ** 2, 2 * u[0] * u[1])


def _cabs(u):
    return iv.sqrt(_nonneg(u[0] ** 2 + u[1] ** 2))


def _csqrt(w):
    # the principal square root, by components
    r = _cabs(w)
    p = iv.sqrt(_nonneg((r + w[0]) / 2))
    q = iv.sqrt(_nonneg((r - w[0]) / 2))
    if w[1].b <= 0:
        q = -q
    elif w[1].a < 0:
        q = iv.mpf([-q.b, q.b])
    return p, q


def _catan(s):
    # atan(s) for s = p + i q, p > 0: Re = pi/2 - (atan((1 - q)/p) +
    # atan((1 + q)/p))/2 and |Im| = |log(|1 + i s|^2 / |1 - i s|^2)| / 4
    p, q = s
    assert p.a > 0
    re = iv.pi / 2 - (iv.atan2((1 - q) / p, 1) + iv.atan2((1 + q) / p, 1)) / 2
    im = iv.log(((1 + q) ** 2 + p**2) / ((1 - q) ** 2 + p**2)) / 4
    return re, im


def _ahmed(z):
    z2 = _csq(z)
    s = _csqrt(_cadd(z2, 2))
    return _cabs(_catan(s)) / (_cabs(_cadd(z2, 1)) * _cabs(s))


def _i1_x(z):
    z2 = _csq(z)
    return (iv.pi / 2) / (_cabs(_cadd(z2, 1)) * iv.sqrt(_cabs(_cadd(z2, 2))))


def _i2_x(z):
    # atan(1/s) = pi/2 - atan(s) for Re s > 0
    z2 = _csq(z)
    s = _csqrt(_cadd(z2, 2))
    re, im = _catan(s)
    return _cabs((iv.pi / 2 - re, im)) / (_cabs(_cadd(z2, 1)) * _cabs(s))


def _i1_theta(t):
    x, y = t
    ey, emy = iv.exp(y), iv.exp(-y)
    ch, sh = (ey + emy) / 2, (ey - emy) / 2
    sin2 = _csq((iv.sin(x) * ch, iv.cos(x) * sh))
    cos_abs2 = iv.cos(x) ** 2 + sh**2
    return (iv.pi / 2) * iv.sqrt(_nonneg(cos_abs2 / _cabs((2 - sin2[0], sin2[1]))))


def _i1_phi(_t):
    return iv.pi / 2


_Y = iv.mpf([0, 1])


def _near_i_axis(z):
    # 1 / ((1 + z^2)(2 + z^2 + Y)): eq4 in x, eq6b in y
    z2 = _csq(z)
    return 1 / (_cabs(_cadd(z2, 1)) * _cabs(_cadd(z2, 2 + _Y)))


def _near_i_sqrt2_axis(z):
    # 1 / ((1 + Y)(2 + Y + z^2)): eq4 in y, eq6b in x
    return 1 / ((1 + _Y) * _cabs(_cadd(_csq(z), 2 + _Y)))


def _eq6a_axis(z):
    return 1 / (_cabs(_cadd(_csq(z), 1)) * (1 + _Y))


def _eq3(a2):
    return lambda z: 1 / _cabs(_cadd(_csq(z), a2))


def _domain_mid_half(integrand_id):
    # the axis map x = m + h t, as intervals that hold the exact domain
    # and its binary64 and double-word roundings
    uppers = [integrands.domain_of(integrand_id, t)[0].upper for t in TIERS]
    ends = [mpmath.mpf(u.hi) + mpmath.mpf(u.lo) for u in uppers]
    exact = {"i1_theta": mpmath.pi / 4, "i1_phi": mpmath.pi / 6}.get(integrand_id, mpmath.mpf(1))
    lo, hi = min(ends + [exact]) / 2, max(ends + [exact]) / 2
    half = iv.mpf([lo * (1 - 2**-60), hi * (1 + 2**-60)])
    return half, half


_AXES = {
    "ahmed_eq1": (_ahmed,),
    "i1_x": (_i1_x,),
    "i1_theta": (_i1_theta,),
    "i1_phi": (_i1_phi,),
    "i2_x": (_i2_x,),
    "i2_kernel_eq4": (_near_i_axis, _near_i_sqrt2_axis),
    "product_kernel_eq6a": (_eq6a_axis, _eq6a_axis),
    "shifted_kernel_eq6b": (_near_i_sqrt2_axis, _near_i_axis),
}


def _arc(rho, m, h, t0, t1):
    # the arc theta in [t0, t1] of the boundary of E_rho, mapped by m + h t
    th = iv.mpf([t0, t1])
    a = (iv.mpf(rho) + 1 / iv.mpf(rho)) / 2
    b = (iv.mpf(rho) - 1 / iv.mpf(rho)) / 2
    return m + h * a * iv.cos(th), h * b * iv.sin(th)


def _bounded_on_ellipse(f, rho, m, h, bound, depth=10):
    # |f| <= bound on the boundary of E_rho (rho = 1: on the segment),
    # bisecting arcs whose enclosure is too wide; the lower half is the
    # mirror image, as f is real on the real axis
    iv.prec = 53
    arcs = [(math.pi * k / 16, math.pi * (k + 1) / 16, 0) for k in range(16)]
    while arcs:
        t0, t1, d = arcs.pop()
        if f(_arc(rho, m, h, t0, t1)).b <= bound:
            continue
        if d == depth:
            return False
        tm = 0.5 * (t0 + t1)
        arcs += [(t0, tm, d + 1), (tm, t1, d + 1)]
    return True


def _certificate(integrand_id):
    return integrands.raw_fn(integrand_id, Tier.NATIVE64).certificate()


# ----------------------------------------------------------------------
# The declared pairs
# ----------------------------------------------------------------------


def test_every_fixed_integrand_is_certified_at_both_tiers():
    for entry in integrands._ENTRIES:
        if entry.parametric:
            continue
        cert = _certificate(entry.id)
        assert cert.id == entry.id and len(cert.axes) == entry.dim
        assert integrands.raw_fn(entry.id, Tier.DOUBLEWORD).certificate() is cert
        assert all(pairs for pairs in cert.axes)


@pytest.mark.parametrize("integrand_id", sorted(_AXES))
def test_declared_pairs_bound_the_integrand_on_their_ellipses(integrand_id):
    cert = _certificate(integrand_id)
    m, h = _domain_mid_half(integrand_id)
    for axis, (f, pairs) in enumerate(zip(_AXES[integrand_id], cert.axes)):
        for rho, bound in pairs:
            assert _bounded_on_ellipse(f, rho, m, h, bound), (axis, rho, bound)
        # the real domain is the degenerate ellipse E_1
        assert _bounded_on_ellipse(f, 1.0, m, h, cert.sup), (axis, cert.sup)


@pytest.mark.parametrize("a", [0.1, 0.3, 1.0, math.sqrt(2.0), 5.0, 10.0])
def test_eq3_pairs_bound_the_kernel_on_their_ellipses(a):
    a2 = a * a
    cert = integrands._eq3_certificate(a2)
    half = iv.mpf(0.5)
    f = _eq3(iv.mpf(a2))
    (pairs,) = cert.axes
    assert len(pairs) == len(integrands._EQ3_GRID)
    for rho, bound in pairs:
        assert _bounded_on_ellipse(f, rho, half, half, bound), (rho, bound)
    assert _bounded_on_ellipse(f, 1.0, half, half, cert.sup)


def test_eq3_declares_no_pair_without_room_off_the_axis():
    # at a = 1e-140 the poles sit 1e-140 off [0, 1]: rho* rounds to 1
    assert integrands._eq3_certificate(1e-280).axes == ((),)


# ----------------------------------------------------------------------
# Proven estimates against the 50-digit error
# ----------------------------------------------------------------------


def _mp_value(res):
    return mpmath.mpf(res.value.hi) + mpmath.mpf(res.value.lo)


TOLS = [(t, tol) for t in TIERS for tol in ((1e-13,) if t is Tier.NATIVE64 else (1e-13, 1e-26))]
TOL_IDS = [f"{t.value}-{tol:g}" for t, tol in TOLS]

# every fixed registry integral is held to its proven estimate at these
# tolerances by tests/test_quad.py::TestAdaptiveGaussLegendre::test_registry_proven_rung


def _eq3_sweep(tier):
    # the seeded draws of the verifier, and 25 log-spaced a in [0.1, 10]
    logs = [Real.from_float(10.0 ** (-1.0 + 2.0 * k / 24), tier) for k in range(25)]
    return tuple(seeded_a_values(tier)) + tuple(logs)


@pytest.mark.parametrize("tier,tol", TOLS, ids=TOL_IDS)
def test_eq3_is_within_its_estimate_over_the_sweep(tier, tol):
    mpmath.mp.dps = 50
    config = EngineConfig(GaussLegendre(96, tol), tier)
    for a in _eq3_sweep(tier):
        res = integrate_1d("eq3_kernel", config=config, a=a)
        est = res.error_estimate.to_float()
        if res.converged:
            assert est <= tol
        am = mpmath.mpf(a.hi) + mpmath.mpf(a.lo)
        err = abs(_mp_value(res) - mpmath.atan(1 / am) / am)
        assert err <= est, f"a={a.hi!r}: error {float(err):.3g} above {est:.3g}"


@pytest.mark.parametrize("a", [0.1, 0.15])
def test_eq3_near_its_poles_is_proven_converged(a):
    # the half-order ladder reported these unconverged (estimates 4.4e-18
    # and 1.0e-22) though GL96 is within 1e-30 of the truth
    mpmath.mp.dps = 50
    tier = Tier.DOUBLEWORD
    res = integrate_1d("eq3_kernel", config=default_config(tier), a=Real.from_float(a, tier))
    est = res.error_estimate.to_float()
    assert res.converged and est <= 1e-26
    am = mpmath.mpf(a)
    assert abs(_mp_value(res) - mpmath.atan(1 / am) / am) <= est


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_another_domain_keeps_the_ladder(tier):
    # the certificates hold for an integrand's own domain only
    half = integrands.Interval(Real.from_float(0.0, tier), Real.from_float(0.5, tier))
    tol = 1e-13 if tier is Tier.NATIVE64 else 1e-26
    res = integrate_1d("ahmed_eq1", half, EngineConfig(GaussLegendre(96, tol), tier))
    assert res.evaluations in (6 + 12, 6 + 12 + 24, 6 + 12 + 24 + 48, 6 + 12 + 24 + 48 + 96)


def _mp_truth(integrand_id):
    # 50-digit closed forms of the fixed integrals, from mpmath
    pi2 = mpmath.pi**2
    return {
        "ahmed_eq1": 5 * pi2 / 96,
        "i1_x": pi2 / 12,
        "i1_theta": pi2 / 12,
        "i1_phi": pi2 / 12,
        "i2_x": pi2 / 32,
        "i2_kernel_eq4": pi2 / 32,
        "product_kernel_eq6a": pi2 / 16,
        "shifted_kernel_eq6b": pi2 / 32,
    }[integrand_id]


def _picks():
    # the orders each fixed integrand runs at each tier and tolerance
    return {
        (cert.id, t, tol): bounds._fixed_proven(cert, t, GaussLegendre(96, tol))[0]
        for cert in integrands._CERTIFICATES
        for t, tol in TOLS
    }


def _near_picks(orders):
    # the picked orders, each axis one lower, and in 2-D the axes swapped
    out = {orders}
    for i in range(len(orders)):
        out.add(orders[:i] + (orders[i] - 1,) + orders[i + 1 :])
    out.add(orders[::-1])
    return sorted(o for o in out if min(o) >= 2)


@pytest.mark.parametrize("integrand_id", sorted(_AXES))
def test_fixed_integrands_are_within_their_bound_near_their_picks(integrand_id):
    # the bound at per-axis orders holds at each pick, on each axis one
    # order below it (where the bound exceeds tol but must still hold)
    # and, in 2-D, with the orders exchanged
    mpmath.mp.dps = 50
    cert = _certificate(integrand_id)
    truth = _mp_truth(integrand_id)
    for (iid, tier, tol), orders in _picks().items():
        if iid != integrand_id:
            continue
        lane, f = quad._own_lane(integrands.raw_fn(iid, tier), tier)
        box = quad._own_box(iid, tier)
        for near in _near_picks(orders):
            got = _exact(lane.real(quad._gl_rule(lane, f, box, near)))
            bound = gl_bound(cert, tier, near)
            assert abs(got - truth) <= bound, (tier.value, tol, near)


@pytest.mark.parametrize("seed", range(6))
def test_the_cheapest_orders_are_those_of_a_search_over_every_pair(seed):
    # bounds._fixed_proven against trying every order (pair) up to the cap,
    # on seeded certificates over eq4's box: the fewest points, then the
    # lower n_x. Slowly falling terms (rho near 1) put the cheapest pair
    # above the lowest feasible n_x, symmetric axes make ties between
    # (a, b) and (b, a), and every fourth certificate's steep terms can
    # pick n = 2
    import random

    rng = random.Random(seed)
    tier = TIERS[seed % 2]
    for k in range(8):
        def pairs():
            top = 1.2 if k % 4 else 3.0
            return tuple((1.0 + 10.0 ** rng.uniform(-0.7, top), rng.uniform(0.05, 20.0)) for _ in range(2))

        x = pairs()
        axes = (x,) if k < 2 else (x, x if k % 2 else pairs())
        cert = integrands.Certificate("i2_kernel_eq4", axes, rng.uniform(0.1, 2.0))
        tol = 10.0 ** rng.uniform(math.log10(50 * tier.eps), -4)
        cap = rng.choice([16, 40, 96])
        want = min(
            (
                (math.prod(o), o)
                for o in itertools.product(range(2, cap + 1), repeat=len(axes))
                if gl_bound(cert, tier, o) <= tol
            ),
            default=None,
        )
        got = bounds._fixed_proven(cert, tier, GaussLegendre(cap, tol))
        assert (got and got[0]) == (want and want[1]), (axes, tol, cap)


def _legendre_mp(n, x):
    # P_n(x) and P_n'(x) by the three-term recurrence, at mpmath precision
    p0, p1 = mpmath.mpf(1), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _newton_rule(n, nodes):
    # the n-point Gauss-Legendre (node, weight) pairs at 240 bits, by
    # Newton on P_n from each double-word node: the node starts ~2^-104
    # off, and three quadratic steps reach 2^-240
    out = []
    with mpmath.workprec(240):
        for xh, xl in nodes:
            x = mpmath.mpf(xh) + mpmath.mpf(xl)
            for _ in range(4):
                p, dp = _legendre_mp(n, x)
                x -= p / dp
            _, dp = _legendre_mp(n, x)
            out.append((x, 2 / ((1 - x * x) * dp * dp)))
    return out


@pytest.mark.parametrize("n", [6, 12, 24, 48, 96])
def test_the_newton_oracle_agrees_with_calc_nodes(n):
    # mpmath's calc_nodes gives only the ladder orders (n = 3 * 2^(degree - 1))
    degree = n.bit_length() - 1
    xs = _pairs(gl_nodes(n, Tier.DOUBLEWORD).nodes)
    with mpmath.workprec(240):
        nodes = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(degree, 240)
        want = sorted(nodes, key=lambda p: p[0])
        got = _newton_rule(n, xs)
        assert len(want) == len(got) == n
        for (x, w), (gx, gw) in zip(want, got):
            assert abs(x - gx) <= 2.0**-230 and abs(w - gw) <= 2.0**-230


# every order a proven run picks at either tier, every order up to 32, and
# the ladder's
BUDGET_ORDERS = sorted(
    set(range(2, 33)) | {6, 12, 24, 48, 96} | {n for orders in _picks().values() for n in orders}
)


# the budget's orders, every 8th up to 128, and 127
NEAREST_ORDERS = sorted(set(BUDGET_ORDERS) | set(range(8, 129, 8)) | {127})


@functools.lru_cache(maxsize=None)
def _exact_half(n):
    # the 240-bit (node, weight) pairs of the upper half of the order-n
    # table, the middle one of an odd n first, computed once for both
    # tiers' checks
    xs = _pairs(gl_nodes(n, Tier.DOUBLEWORD).nodes)
    return _newton_rule(n, xs[n // 2 :])


def _pairs(reals):
    return [(r.hi, r.lo) for r in reals]


def _exact(r):
    # a Real as one mpf, exactly
    return mpmath.mpf(r.hi) + mpmath.mpf(r.lo)


@pytest.mark.parametrize("n", NEAREST_ORDERS)
def test_every_double_word_node_and_weight_is_the_nearest_pair(n):
    # each node and weight of the positive half, the middle one of an odd
    # n included, within 0.5 u of the 240-bit rule, u = 2^-104 relative
    # for the double-word pairs and 2^-52 for the native doubles, their
    # high words (measured over n = 2 to 128: at most 0.49 u, native64
    # at n = 80); the halves' symmetry is held by tests/test_quad.py
    half = slice(n // 2, n)
    with mpmath.workprec(240):
        for tier in TIERS:
            table = gl_nodes(n, tier)
            for got, want in zip(zip(table.nodes[half], table.weights[half]), _exact_half(n)):
                for v, exact in zip(got, want):
                    assert abs(_exact(v) - exact) <= 0.5 * tier.eps * abs(exact), (tier, v)


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
@pytest.mark.parametrize("n", BUDGET_ORDERS)
def test_the_weight_tables_error_is_within_the_rounding_budget(n, tier):
    # the rounding budget's weights term for the weight table: sum |w_i -
    # w_i*| <= 0.5 u sum w_i* for the Gauss-Legendre weights w_i* at 240
    # bits, u the tier's eps (measured over n = 2 to 128, each weight
    # being the nearest pair or double: at most 0.056 u at doubleword, at
    # n = 9, and 0.29 u at native64, also at n = 9)
    ws = gl_nodes(n, tier).weights
    budget = bounds._ROUNDING_TERMS["weights"] * tier.eps
    with mpmath.workprec(240):
        half = [w for _, w in _exact_half(n)]
        want = half[::-1][: n // 2] + half
        err = sum(abs(_exact(w) - exact) for w, exact in zip(ws, want))
        assert err <= budget * sum(want)


def test_the_rounding_constant_covers_twice_its_terms():
    # _ROUNDING charges every term of a proven rule with twice the sum of
    # the measured and estimated per-source errors, or more; raising one
    # term without raising the constant fails here
    terms = bounds._ROUNDING_TERMS
    assert set(terms) == {"lane", "weights", "point", "products", "sum"}
    assert bounds._ROUNDING >= 2.0 * sum(terms.values())

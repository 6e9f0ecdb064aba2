"""Quadrature engines: node tables, rule exactness, convergence,
error-estimate honesty, and configuration guards."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from ahmedquad import (
    AdaptiveSimpson,
    ConfigError,
    DomainError,
    EngineConfig,
    GaussLegendre,
    Mode,
    NonFiniteError,
    Real,
    TanhSinh,
    Tier,
    TierMismatchError,
    closed_form,
    div,
    eval_integrand,
    gl_nodes,
    integrate_1d,
    integrate_2d,
    mul,
    pi,
    sqrt,
    sub,
    tanh_sinh_abscissas,
)
from ahmedquad import bounds, quad
from ahmedquad.integrands import Interval, domain_of, raw_fn
from ahmedquad.quad import _integrate_1d_ts_fixed, _ts_nodes
from ahmedquad.scalar import _pair_from_ratio
from helpers import (
    I1_STR,
    I2_STR,
    I_STR,
    PI_OVER_4_STR,
    TIER_IDS,
    TIERS,
    TWO_I2_STR,
    assert_ulps,
    exact_rule,
    gl_bound,
    nearest_pair,
    nearest_pair_of,
    ref,
)

ONE_D_IDS = ("ahmed_eq1", "i1_x", "i1_theta", "i1_phi", "i2_x")
TWO_D_IDS = ("i2_kernel_eq4", "product_kernel_eq6a", "shifted_kernel_eq6b")

TRUTH_STR = {
    "ahmed_eq1": I_STR,
    "i1_x": I1_STR,
    "i1_theta": I1_STR,
    "i1_phi": I1_STR,
    "i2_x": I2_STR,
    "i2_kernel_eq4": I2_STR,
    "product_kernel_eq6a": TWO_I2_STR,
    "shifted_kernel_eq6b": I2_STR,
}


def _check_result_shape(res):
    assert res.evaluations >= 1
    assert res.error_estimate.to_float() >= 0.0


def _unit(tier):
    return Interval.unit(tier)


# ----------------------------------------------------------------------
# Gauss-Legendre node tables
# ----------------------------------------------------------------------


class TestNodeTables:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_order_2_closed_form(self, tier):
        from ahmedquad import sqrt

        t = gl_nodes(2, tier)
        inv_sqrt3 = div(Real.from_float(1.0, tier), sqrt(Real.from_float(3.0, tier)))
        assert_ulps(t.nodes[0], -inv_sqrt3, 4, "node[0] of order 2")
        assert_ulps(t.nodes[1], inv_sqrt3, 4, "node[1] of order 2")
        one = Real.from_float(1.0, tier)
        assert_ulps(t.weights[0], one, 4)
        assert_ulps(t.weights[1], one, 4)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_order_3_closed_form(self, tier):
        from ahmedquad import sqrt

        t = gl_nodes(3, tier)
        assert t.nodes[1].to_float() == 0.0
        root = sqrt(div(Real.from_float(3.0, tier), Real.from_float(5.0, tier)))
        assert_ulps(t.nodes[2], root, 4, "node of order 3")
        assert_ulps(
            t.weights[0], div(Real.from_float(5.0, tier), Real.from_float(9.0, tier)), 4
        )
        assert_ulps(
            t.weights[1], div(Real.from_float(8.0, tier), Real.from_float(9.0, tier)), 4
        )

    def test_order_20_against_reference_table(self):
        np = pytest.importorskip("numpy")
        xs, ws = np.polynomial.legendre.leggauss(20)
        t = gl_nodes(20, Tier.NATIVE64)
        for got, want in zip(t.nodes, xs):
            assert abs(got.to_float() - float(want)) <= 1e-14
        for got, want in zip(t.weights, ws):
            assert abs(got.to_float() - float(want)) <= 1e-14
        total = math.fsum(w.to_float() for w in t.weights)
        assert abs(total - 2.0) <= 160 * Tier.NATIVE64.eps * 2.0

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_symmetry_and_weight_sum_2_through_128(self, tier):
        # the native lane's table and the native rule hold the high words
        # of the nearest pairs of the double-word rule
        for n in range(2, 129):
            pairs = gl_nodes(n, Tier.DOUBLEWORD)
            highs = tuple(tuple(v.hi for v in vs) for vs in (pairs.nodes, pairs.weights))
            t = gl_nodes(n, tier)
            if tier is Tier.NATIVE64:
                assert quad._gl_table(n) == highs
                assert (tuple(x.hi for x in t.nodes), tuple(w.hi for w in t.weights)) == highs
            assert t.order == n and len(t.nodes) == n and len(t.weights) == n
            lo = Real.from_float(-1.0, tier)
            hi = Real.from_float(1.0, tier)
            for a, b in zip(t.nodes, t.nodes[1:]):
                assert a < b, f"nodes of order {n} not ascending"
            assert lo < t.nodes[0] and t.nodes[-1] < hi
            for i in range(n):
                assert_ulps(t.nodes[i], -t.nodes[n - 1 - i], 4, f"order {n} node {i}")
                assert t.weights[i] == t.weights[n - 1 - i]
                assert Real.from_float(0.0, tier) < t.weights[i]
            total = Real.from_float(0.0, tier)
            for w in t.weights:
                total = total + w
            assert_ulps(
                total, Real.from_float(2.0, tier), n * 8, f"order {n} weight sum"
            )

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_exactness_on_monomials(self, tier):
        # degree d <= 2n-1 integrates exactly over [-1, 1]
        bound = 1e-13 if tier is Tier.NATIVE64 else 1e-28
        for n in range(2, 13):
            t = gl_nodes(n, tier)
            for d in range(2 * n):
                acc = Real.from_float(0.0, tier)
                for x, w in zip(t.nodes, t.weights):
                    p = Real.from_float(1.0, tier)
                    for _ in range(d):
                        p = mul(p, x)
                    acc = acc + mul(w, p)
                exact = 0.0 if d % 2 == 1 else 2.0 / (d + 1)
                err = abs(acc.to_float() - exact)
                assert err <= bound, f"order {n}, degree {d}: err {err:.3g}"

    def test_memoized_identity(self):
        assert gl_nodes(16, Tier.NATIVE64).nodes is gl_nodes(16, Tier.NATIVE64).nodes
        assert gl_nodes(16, Tier.DOUBLEWORD).nodes is gl_nodes(16, Tier.DOUBLEWORD).nodes

    def test_every_call_form_returns_one_table(self):
        # the default tier, the tier passed by position and by keyword
        # name one memoized object
        assert gl_nodes(4) is gl_nodes(4, Tier.NATIVE64) is gl_nodes(4, tier=Tier.NATIVE64)
        assert gl_nodes(order=4, tier=Tier.NATIVE64) is gl_nodes(4)
        ts = tanh_sinh_abscissas(3)
        assert ts is tanh_sinh_abscissas(3, Tier.NATIVE64) is tanh_sinh_abscissas(3, tier=Tier.NATIVE64)
        assert tanh_sinh_abscissas(level=3) is ts

    def test_range_guard(self):
        with pytest.raises(ConfigError):
            gl_nodes(1, Tier.NATIVE64)
        with pytest.raises(ConfigError):
            gl_nodes(2049, Tier.NATIVE64)
        with pytest.raises(ConfigError):
            gl_nodes("8", Tier.NATIVE64)


# ----------------------------------------------------------------------
# Tanh-sinh abscissas
# ----------------------------------------------------------------------


def _words(v):
    # a table value (a float, or an (hi, lo) pair) as the (hi, lo) of its Real
    return (v, 0.0) if isinstance(v, float) else tuple(v)


def _ts_increment(level, tier):
    # the (x, w) new at level: NATIVE64's floats, or at DOUBLEWORD the
    # nearest pairs to the ints the integer lanes read, as the public
    # table rounds them
    if tier is Tier.NATIVE64:
        return _ts_nodes(level)
    return quad._pair_table(quad._ts_ints(level))


def _scaled(v, s):
    return v * s if isinstance(v, float) else (v[0] * s, v[1] * s)


def _neg(v):
    return -v if isinstance(v, float) else (-v[0], -v[1])


class TestTanhSinhAbscissas:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_center_point(self, tier):
        for level in (1, 3, 6):
            table = tanh_sinh_abscissas(level, tier)
            n = len(table)
            assert n % 2 == 1
            x0, w0 = table[n // 2]
            assert x0.to_float() == 0.0
            h = Real.from_float(2.0**-level, tier)
            want = mul(mul(pi(tier), Real.from_float(0.5, tier)), h)
            assert_ulps(w0, want, 2, "center weight")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_strictly_inside_and_symmetric(self, tier):
        lo = Real.from_float(-1.0, tier)
        hi = Real.from_float(1.0, tier)
        zero = Real.from_float(0.0, tier)
        for level in (1, 4, 8, 12):
            table = tanh_sinh_abscissas(level, tier)
            for (x, w), (xm, wm) in zip(table, reversed(table)):
                assert lo < x and x < hi
                assert zero < w
                assert x == -xm
                assert w == wm
            # near saturation the fine NATIVE64 levels round adjacent
            # underlying points to the same float, so equality is allowed
            strict = tier is Tier.DOUBLEWORD or level <= 4
            for (a, _), (b, _) in zip(table, table[1:]):
                assert a < b if strict else a <= b

    def test_node_counts_grow(self):
        for tier in TIERS:
            sizes = [len(tanh_sinh_abscissas(k, tier)) for k in range(1, 13)]
            for a, b in zip(sizes, sizes[1:]):
                assert a < b

    def test_level_guard(self):
        with pytest.raises(ConfigError):
            tanh_sinh_abscissas(0, Tier.NATIVE64)
        with pytest.raises(ConfigError):
            tanh_sinh_abscissas(13, Tier.NATIVE64)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_table_is_the_union_of_the_engine_increments(self, tier):
        # the public rule is the one the engines sum: every node new at a
        # level k <= level, its weight scaled by 2^(k - level)
        for level in (1, 2, 7, 12):
            right = []
            for k in range(1, level + 1):
                xs, ws = _ts_increment(k, tier)
                right += [(x, _scaled(w, 2.0 ** (k - level))) for x, w in zip(xs, ws)]
            # in the order of t; weights fall as t grows
            right.sort(key=lambda p: (_words(p[0]), tuple(-v for v in _words(p[1]))))
            left = [(_neg(x), w) for x, w in reversed(right[1:])]
            table = tanh_sinh_abscissas(level, tier)
            assert [(_words(x), _words(w)) for x, w in left + right] == [
                ((x.hi, x.lo), (w.hi, w.lo)) for x, w in table
            ]
        one_sided = {Tier.NATIVE64: 13_043, Tier.DOUBLEWORD: 15_599}[tier]
        assert len(tanh_sinh_abscissas(12, tier)) == 2 * one_sided - 1

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_shared_t_gets_the_same_bits_at_every_level(self, tier):
        # the point at t = J 2^-12 depends on t alone: the abscissa is the
        # same bits at every level whose grid holds t, and the weight the
        # same up to the exact factor h. A DOUBLEWORD point is its ints
        # rounded to pairs as its table rounds them, and equals the entry
        # of the table of the level where t is new
        def point(J, level):
            if tier is Tier.NATIVE64:
                return quad._ts_point_native(J, level)
            x, w, past_end = quad._ts_point_fixed(J, level)
            return _pair_from_ratio(x, 1 << 192), _pair_from_ratio(w, 1 << quad._W_SHIFT), past_end

        for J in (0, 64, 2048, 4096, 6144, 12288, 14336, 15360, 15552):
            seen = set()
            for level in range(1, 13):
                if J % (1 << 12 - level):
                    continue
                x, w, _ = point(J, level)
                seen.add((_words(x), _words(_scaled(w, 2.0**level))))
                j = J >> 12 - level
                if level == 1 or j % 2:
                    xs, ws = _ts_increment(level, tier)
                    i = j if level == 1 else j // 2
                    if i < len(xs):
                        assert (_words(xs[i]), _words(ws[i])) == (_words(x), _words(w))
            assert len(seen) == 1, f"t = {J}/4096"

    def test_doubleword_nodes_against_mpmath(self):
        # every third node of every level is the nearest pair to its
        # abscissa and weight at 60 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        for level in range(1, 13):
            xs, ws = _ts_increment(level, Tier.DOUBLEWORD)
            h = mp.mpf(2) ** -level
            for i in range(0, len(xs), 3):
                t = (i if level == 1 else 2 * i + 1) * h
                u = mp.pi / 2 * mp.sinh(t)
                x = mp.tanh(u)
                w = mp.pi / 2 * h * mp.cosh(t) / mp.cosh(u) ** 2
                assert xs[i] == nearest_pair(x), f"level {level}, t = {t}"
                assert ws[i] == nearest_pair(w), f"level {level}, t = {t}"

    def test_integer_nodes_against_mpmath(self):
        # every third point of every level of the integer table, x at
        # 2^-192 and w at 2^-396, is within 2^-180 of its abscissa and
        # weight at 60 digits: the relative error of _fixed_exp, which
        # forms e^t and e^(pi sinh t)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        for level in range(1, 13):
            xs, ws = quad._ts_ints(level)
            h = mp.mpf(2) ** -level
            for i in range(0, len(xs), 3):
                t = (i if level == 1 else 2 * i + 1) * h
                u = mp.pi / 2 * mp.sinh(t)
                x = mp.tanh(u)
                w = mp.pi / 2 * h * mp.cosh(t) / mp.cosh(u) ** 2
                assert abs(mp.ldexp(xs[i], -192) - x) <= mp.ldexp(1, -180), f"level {level}, t = {t}"
                assert abs(mp.ldexp(ws[i], -quad._W_SHIFT) - w) <= mp.ldexp(1, -180), f"level {level}, t = {t}"

    def test_integer_cutoff_is_the_float_cutoff(self):
        # w < 2^290 - 2^236 holds exactly where w / 2^396, rounded to the
        # nearest double, is below 2^-106: at the two ints around the
        # midpoint, and at every point of levels 1-12 up to each level's
        # first point past the end, where the weight test is the float
        # test or the abscissa is within 2^-107 of 1, so each level keeps
        # the same points
        cut = quad._TS_CUTOFF_DD
        assert cut == (1 << 290) - (1 << 236) and quad._W_SHIFT == 396
        for w in (cut - 1, cut, cut + 1):
            assert (w < cut) == (w / (1 << 396) < 2.0**-106), w
        assert (cut - 1) / (1 << 396) < 2.0**-106 == cut / (1 << 396)
        lengths = []
        for level in range(1, 13):
            j, step = (0, 1) if level == 1 else (1, 2)
            while True:
                x, w, past_end = quad._ts_point_fixed(j << 12 - level, level)
                below = w / (1 << 396) < 2.0**-106
                assert (w < cut) == below, (level, j)
                if past_end:
                    assert below or (1 << 192) - x <= (1 << 85) + 1, (level, j)
                    break
                assert not below, (level, j)
                j += step
            lengths.append(len(quad._ts_ints(level)[0]))
            assert lengths[-1] == (j - (level > 1)) // step
        assert lengths == [8, 8, 15, 31, 62, 123, 246, 491, 980, 1955, 3900, 7780]

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_per_level_error_shrinks_4x_until_floor(self, tier):
        truth = ref(I_STR, tier)
        floor = 100.0 * 16.0 * tier.eps
        errs = []
        for level in range(2, 11):
            res = _integrate_1d_ts_fixed("ahmed_eq1", level, tier, 10.0 * tier.eps)
            errs.append(abs(sub(res.value, truth).to_float()))
        for ek, ek1 in zip(errs, errs[1:]):
            if ek <= floor:
                break
            assert ek1 <= ek / 4.0, f"level error only fell {ek / max(ek1, 1e-320):.2f}x"


# ----------------------------------------------------------------------
# EngineConfig validation
# ----------------------------------------------------------------------


class TestEngineConfig:
    def test_order_bounds(self):
        EngineConfig(GaussLegendre(2))
        EngineConfig(GaussLegendre(2048))
        for bad in (1, 2049, 0, -4, 3.5):
            with pytest.raises(ConfigError):
                EngineConfig(GaussLegendre(bad))

    def test_ts_bounds(self):
        EngineConfig(TanhSinh(1, 1e-10))
        EngineConfig(TanhSinh(12, 1e-13))
        with pytest.raises(ConfigError):
            EngineConfig(TanhSinh(0, 1e-10))
        with pytest.raises(ConfigError):
            EngineConfig(TanhSinh(13, 1e-10))

    def test_simpson_bounds(self):
        EngineConfig(AdaptiveSimpson(1e-10))
        EngineConfig(AdaptiveSimpson(1e-8, max_depth=60))
        with pytest.raises(ConfigError):
            EngineConfig(AdaptiveSimpson(1e-8, max_depth=0))
        with pytest.raises(ConfigError):
            EngineConfig(AdaptiveSimpson(1e-8, max_depth=61))
        with pytest.raises(ConfigError):
            EngineConfig(AdaptiveSimpson(0.0))
        with pytest.raises(ConfigError):
            EngineConfig(AdaptiveSimpson(-1e-8))

    def test_tolerance_unreachable_at_tier(self):
        # requested eps below 10x tier epsilon is rejected up front
        with pytest.raises(ConfigError):
            EngineConfig(TanhSinh(10, 1e-30), Tier.NATIVE64)
        with pytest.raises(ConfigError):
            EngineConfig(AdaptiveSimpson(1e-16), Tier.NATIVE64)
        EngineConfig(TanhSinh(12, 1e-30), Tier.DOUBLEWORD)
        with pytest.raises(ConfigError):
            EngineConfig(TanhSinh(12, 1e-32), Tier.DOUBLEWORD)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            EngineConfig("trapezoid")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EngineConfig(TanhSinh(max_level=True, target_eps=1e-10)),
            lambda: EngineConfig(TanhSinh(10, target_eps=True)),
            lambda: EngineConfig(AdaptiveSimpson(tol=True)),
            lambda: EngineConfig(AdaptiveSimpson(1e-8, max_depth=True)),
            lambda: EngineConfig(GaussLegendre(8, tol=True)),
            lambda: EngineConfig(GaussLegendre(True)),
            lambda: tanh_sinh_abscissas(True),
            # after the int's table is cached, the bool must not reach it
            lambda: (tanh_sinh_abscissas(1, Tier.NATIVE64), tanh_sinh_abscissas(True, Tier.NATIVE64)),
            lambda: _integrate_1d_ts_fixed("ahmed_eq1", True, Tier.NATIVE64, 1e-10),
        ],
        ids=[
            "ts-max_level", "ts-target_eps", "simpson-tol", "simpson-max_depth", "gl-tol",
            "gl-order", "abscissas", "abscissas-cached", "ts-fixed-level",
        ],
    )
    def test_bool_is_neither_an_int_nor_a_tolerance(self, build):
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EngineConfig(GaussLegendre(8), "native64"),
            lambda: EngineConfig(TanhSinh(4, 1e-10), "native64"),
            lambda: Real(1.0, 0.0, "x"),
            lambda: Real.from_float(1.0, "doubleword"),
            lambda: Real.from_decimal("1.5", "x"),
            lambda: pi("doubleword"),
            lambda: gl_nodes(4, "native64"),
            lambda: tanh_sinh_abscissas(4, "doubleword"),
            lambda: integrate_1d("eq3_kernel", a=2.0),
            lambda: eval_integrand("eq3_kernel", Real.from_float(0.5), a=2.0),
        ],
        ids=[
            "config-gl", "config-ts", "real", "real-from-float", "real-from-decimal", "pi",
            "gl-nodes", "abscissas", "integrate-a", "eval-a",
        ],
    )
    def test_a_tier_or_parameter_of_the_wrong_type(self, build):
        # a tier that is not a Tier, or a parameter a that is not a Real
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: integrate_1d("ahmed_eq1", config=GaussLegendre(8)),
            lambda: integrate_2d("i2_kernel_eq4", config=TanhSinh(3, 1e-10)),
            lambda: Interval(0.0, 1.0),
            lambda: Interval(Real.from_float(0.0), 1.0),
            lambda: Interval(0, Real.from_float(1.0)),
        ],
        ids=["integrate-1d", "integrate-2d", "interval", "interval-upper", "interval-lower"],
    )
    def test_a_config_or_endpoint_of_the_wrong_type(self, build):
        # a bare method in place of an EngineConfig, or an interval
        # endpoint that is not a Real
        with pytest.raises(ConfigError, match="EngineConfig|Real"):
            build()


# ----------------------------------------------------------------------
# 1D integration
# ----------------------------------------------------------------------


NATIVE_ENGINES = (
    GaussLegendre(64),
    TanhSinh(10, 1e-13),
    AdaptiveSimpson(1e-12),
)
# the doubleword Simpson runs cost seconds each, so the blanket sweeps
# use the two fast engines and a separate spot test covers Simpson
DD_ENGINES = (
    GaussLegendre(96),
    TanhSinh(12, 1e-26),
)
DD_SIMPSON = AdaptiveSimpson(1e-18, max_depth=60)


def _engines(tier):
    return NATIVE_ENGINES if tier is Tier.NATIVE64 else DD_ENGINES


@functools.lru_cache(maxsize=None)
def _run_cached(iid, method, tier, a_val=None):
    a = Real.from_float(a_val, tier) if a_val is not None else None
    return integrate_1d(iid, config=EngineConfig(method, tier), a=a)


class TestIntegrate1D:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_constant_one(self, tier):
        one = Real.from_float(1.0, tier)
        for method in _engines(tier):
            res = integrate_1d(
                lambda x: one, _unit(tier), EngineConfig(method, tier)
            )
            _check_result_shape(res)
            assert res.converged
            assert_ulps(res.value, one, 16, f"constant via {type(method).__name__}")
            assert res.error_estimate.to_float() <= 1e-13

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_arctangent_kernel(self, tier):
        # integral of 1/(1+x^2) over [0, 1] is pi/4
        truth = ref(PI_OVER_4_STR, tier)
        bound = 1e-13 if tier is Tier.NATIVE64 else 1e-27
        for method in _engines(tier):
            res = _run_cached("eq3_kernel", method, tier, 1.0)
            _check_result_shape(res)
            assert abs(sub(res.value, truth).to_float()) <= bound

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_headline_integral(self, tier):
        truth = ref(I_STR, tier)
        bound = 1e-13 if tier is Tier.NATIVE64 else 1e-25
        for method in _engines(tier):
            res = _run_cached("ahmed_eq1", method, tier)
            assert abs(sub(res.value, truth).to_float()) <= bound

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_registry_truth_and_honesty(self, tier):
        # converged results stay within 10x their own error estimate,
        # and within max(estimate, requested tolerance)
        for iid in ONE_D_IDS:
            truth = ref(TRUTH_STR[iid], tier)
            for method in _engines(tier):
                res = _run_cached(iid, method, tier)
                _check_result_shape(res)
                err = abs(sub(res.value, truth).to_float())
                est = res.error_estimate.to_float()
                if res.converged:
                    assert err <= 10.0 * max(est, 4.0 * tier.eps), (
                        f"{iid} via {type(method).__name__}: err {err:.3g} "
                        f"vs est {est:.3g}"
                    )
                tol = getattr(method, "target_eps", getattr(method, "tol", None)) or est
                assert err <= max(est, tol) * 10.0

    def test_doubleword_simpson_spot(self):
        tier = Tier.DOUBLEWORD
        truth = ref(I_STR, tier)
        res = _run_cached("ahmed_eq1", DD_SIMPSON, tier)
        assert res.converged
        err = abs(sub(res.value, truth).to_float())
        est = res.error_estimate.to_float()
        assert err <= 10.0 * est
        assert est <= DD_SIMPSON.tol
        gl = _run_cached("ahmed_eq1", GaussLegendre(96), tier)
        gap = abs(sub(res.value, gl.value).to_float())
        assert gap <= 4.0 * max(est, gl.error_estimate.to_float())

    @pytest.mark.parametrize("iid", ["ahmed_eq1", "i1_theta", "eq3_kernel"])
    def test_doubleword_simpson_sums_its_leaves_exactly(self, iid):
        # a registry integrand's Simpson run over its own domain sums its
        # rules and leaves in integers and rounds once: its value is within
        # 0.05 units of 2^-104 of the same partition (the same recursion,
        # acceptance test and points) summed at 400 bits. eq3_kernel runs
        # at the double-word sqrt(2), on the integer lane of 2^-194
        mp = pytest.importorskip("mpmath")
        tol = 1e-12
        root2 = sqrt(Real.from_float(2.0, Tier.DOUBLEWORD)) if iid == "eq3_kernel" else None
        res = integrate_1d(iid, config=EngineConfig(AdaptiveSimpson(tol), Tier.DOUBLEWORD), a=root2)
        evals = 0

        def ev(x):
            nonlocal evals
            evals += 1
            if iid == "i1_theta":
                return mp.pi / 2 * mp.cos(x) / mp.sqrt(2 - mp.sin(x) ** 2)
            if iid == "eq3_kernel":
                return 1 / (x * x + (mp.mpf(root2.hi) + root2.lo) ** 2)
            s = mp.sqrt(2 + x * x)
            return mp.atan(s) / ((1 + x * x) * s)

        def rule(a, b, fa, fm, fb):
            return (b - a) / 6 * (fa + 4 * fm + fb)

        def rec(a, fa, m, fm, b, fb, whole, tol, depth):
            lm, rm = (a + m) / 2, (m + b) / 2
            flm, frm = ev(lm), ev(rm)
            left, right = rule(a, m, fa, flm, fm), rule(m, b, fm, frm, fb)
            s2 = left + right
            d = s2 - whole
            ad = abs(float(d))
            if ad <= 15.0 * tol or depth >= 40 or ad <= 16.0 * Tier.DOUBLEWORD.eps * abs(float(s2)):
                return s2 + d / 15
            return rec(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + rec(
                m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
            )

        with mp.workprec(400):
            (iv,) = domain_of(iid, Tier.DOUBLEWORD)
            a = mp.mpf(iv.lower.hi) + iv.lower.lo
            b = mp.mpf(iv.upper.hi) + iv.upper.lo
            fa, m, fb = ev(a), (a + b) / 2, ev(b)
            fm = ev(m)
            want = rec(a, fa, m, fm, b, fb, rule(a, b, fa, fm, fb), tol, 0)
            got = mp.mpf(res.value.hi) + res.value.lo
            assert evals == res.evaluations
            assert abs(got - want) / want <= 0.05 * mp.ldexp(1, -104)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_pairwise_engine_agreement(self, tier):
        for iid in ONE_D_IDS + ("eq3_kernel",):
            a_val = 1.0 if iid == "eq3_kernel" else None
            results = [
                _run_cached(iid, m, tier, a_val) for m in _engines(tier)
            ]
            for ra in results:
                for rb in results:
                    gap = abs(sub(ra.value, rb.value).to_float())
                    allowance = 4.0 * max(
                        ra.error_estimate.to_float(),
                        rb.error_estimate.to_float(),
                    )
                    assert gap <= max(allowance, 16.0 * tier.eps), iid

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_converged_estimate_below_tolerance(self, tier):
        # converged means the estimate met the effective tolerance: the
        # requested eps or the stagnation floor, whichever is larger
        for iid in ONE_D_IDS:
            for method in _engines(tier):
                res = _run_cached(iid, method, tier)
                if not res.converged:
                    continue
                est = res.error_estimate.to_float()
                v = abs(res.value.to_float())
                if isinstance(method, TanhSinh):
                    effective = max(
                        method.target_eps, 16.0 * tier.eps * max(1.0, v)
                    )
                elif isinstance(method, AdaptiveSimpson):
                    effective = max(method.tol, 4.0 * tier.eps * v)
                else:
                    continue
                assert est <= effective * (1.0 + 1e-12), (
                    f"{iid} {type(method).__name__}: est {est:.3g} "
                    f"above effective tolerance {effective:.3g}"
                )

    def test_affine_interval_mapping(self):
        # pulling [0,1] back to [-1,1] with the half Jacobian changes
        # the answer by rounding only
        for tier in TIERS:
            cfg = EngineConfig(GaussLegendre(48), tier)
            direct = integrate_1d("ahmed_eq1", config=cfg)
            from ahmedquad.integrands import raw_fn

            fn = raw_fn("ahmed_eq1", tier)
            half = Real.from_float(0.5, tier)

            if tier is Tier.NATIVE64:

                def pulled(u):
                    x = 0.5 + 0.5 * u.hi
                    return Real.from_float(0.5 * fn(x), tier)

            else:

                def pulled(u):
                    x = half + mul(half, u)
                    return mul(half, Real(*fn(x.hi, x.lo), tier))

            box = Interval(Real.from_float(-1.0, tier), Real.from_float(1.0, tier))
            mapped = integrate_1d(pulled, box, cfg)
            assert_ulps(direct.value, mapped.value, 4, "affine pullback")

    def test_monotone_work_ts_levels(self):
        # below convergence, every extra level strictly adds evaluations
        evals = []
        for level in (1, 2, 3):
            res = integrate_1d(
                "ahmed_eq1",
                config=EngineConfig(TanhSinh(level, 1e-13), Tier.NATIVE64),
            )
            assert not res.converged
            evals.append(res.evaluations)
        for a, b in zip(evals, evals[1:]):
            assert a < b
        deep = integrate_1d(
            "ahmed_eq1", config=EngineConfig(TanhSinh(10, 1e-13), Tier.NATIVE64)
        )
        assert deep.converged
        assert deep.evaluations > evals[-1]

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("fid,top", [("ahmed_eq1", 12), ("i1_theta", 8)])
    def test_one_fixed_run_reports_every_level_bit_for_bit(self, tier, fid, top):
        # one run to the top level reports, after each level, exactly the
        # result of a separate run stopped at that level: the estimate is
        # the value at level 1 (never converged), then the difference
        # from the level before, both floored at 4 eps |value|
        target = 10.0 * tier.eps
        seen = []
        last = _integrate_1d_ts_fixed(fid, top, tier, target, seen.append)
        assert len(seen) == top
        prev = None
        for level, res in enumerate(seen, 1):
            alone = _integrate_1d_ts_fixed(fid, level, tier, target)
            assert _pin_of(res) == _pin_of(alone), f"level {level}"
            v = res.value
            diff = abs(v.hi) if prev is None else abs(sub(v, prev).hi)
            assert res.error_estimate.hi == max(diff, 4.0 * tier.eps * abs(v.hi))
            assert res.converged == (prev is not None and diff <= target)
            prev = v
        assert _pin_of(last) == _pin_of(seen[-1])

    def test_monotone_work_simpson_depth(self):
        evals = []
        for depth in (1, 2, 3, 4, 5, 6):
            res = integrate_1d(
                "ahmed_eq1",
                config=EngineConfig(AdaptiveSimpson(1e-13, depth), Tier.NATIVE64),
            )
            assert not res.converged  # depth-capped
            evals.append(res.evaluations)
        for a, b in zip(evals, evals[1:]):
            assert a < b

    def test_gl_estimate_from_embedded_rule(self):
        res = integrate_1d(
            "ahmed_eq1", config=EngineConfig(GaussLegendre(16), Tier.NATIVE64)
        )
        # 16-point value plus the 8-point comparison rule
        assert res.evaluations == 24
        assert res.converged

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_degenerate_interval(self, tier):
        p = Real.from_float(0.3, tier)
        res = integrate_1d(
            "ahmed_eq1", Interval(p, p), EngineConfig(GaussLegendre(8), tier)
        )
        assert res.value.to_float() == 0.0
        assert res.error_estimate.to_float() == 0.0
        assert res.evaluations == 1
        assert res.converged

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_nonfinite_integrand_localized(self, tier):
        def bad(x):
            return math.inf if x.hi > 0.7 else 1.0

        def opposite_infinities(x):
            # inf and -inf in one sum, which math.fsum refuses to add
            return math.inf if x.hi > 0.7 else -math.inf if x.hi < 0.3 else 1.0

        methods = NATIVE_ENGINES if tier is Tier.NATIVE64 else DD_ENGINES + (DD_SIMPSON,)
        # with a tol, the checked re-run looks up a certificate the
        # callable does not carry
        methods += (GaussLegendre(64, 1e-10) if tier is Tier.NATIVE64 else GaussLegendre(96, 1e-26),)
        for f, outside in (
            (bad, lambda p: p > 0.7),
            (opposite_infinities, lambda p: p > 0.7 or p < 0.3),
        ):
            for method in methods:
                with pytest.raises(NonFiniteError) as exc_info:
                    integrate_1d(f, _unit(tier), EngineConfig(method, tier))
                pt = exc_info.value.point
                assert pt is not None and outside(pt[0]), (f.__name__, method)

    def test_callable_returning_float(self):
        res = integrate_1d(
            lambda x: 1.0, _unit(Tier.NATIVE64), EngineConfig(GaussLegendre(4))
        )
        assert abs(res.value.to_float() - 1.0) <= 1e-14

    def test_config_errors(self):
        t = Tier.NATIVE64
        with pytest.raises(ConfigError):
            integrate_1d("nosuch")
        with pytest.raises(ConfigError):
            integrate_1d("i2_kernel_eq4")  # 2D id
        with pytest.raises(ConfigError):
            integrate_1d(lambda x: x)  # callable without interval
        with pytest.raises(ConfigError):
            integrate_1d(lambda x: x, _unit(t), a=Real.from_float(1.0, t))
        with pytest.raises(ConfigError):
            integrate_1d(3.14)
        with pytest.raises(ConfigError):
            integrate_1d("eq3_kernel")  # parameter required
        with pytest.raises(DomainError):
            integrate_1d("eq3_kernel", a=Real.from_float(0.0, t))
        with pytest.raises(TierMismatchError):
            integrate_1d(
                "ahmed_eq1",
                _unit(Tier.DOUBLEWORD),
                EngineConfig(GaussLegendre(8), Tier.NATIVE64),
            )


# ----------------------------------------------------------------------
# 2D integration
# ----------------------------------------------------------------------


class TestIntegrate2D:
    def test_constant_one(self):
        for tier in TIERS:
            one = Real.from_float(1.0, tier)
            region = (_unit(tier), _unit(tier))
            res = integrate_2d(
                lambda x, y: one, region, EngineConfig(GaussLegendre(8), tier)
            )
            assert_ulps(res.value, one, 16, "2D constant")
            res = integrate_2d(
                lambda x, y: one,
                region,
                EngineConfig(TanhSinh(6, 1e-10), tier),
                mode=Mode.ITERATED,
            )
            assert_ulps(res.value, one, 64, "2D constant iterated")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("iid", TWO_D_IDS)
    def test_a_kernel_as_an_opaque_callable_is_bit_identical(self, tier, iid):
        # a callable has no axis parts, so the tensor cores run it as its
        # own join over the points themselves: the same values, summed in
        # the same order, as the registry lane's prepared columns give. At
        # DOUBLEWORD the registry id runs its integer body on the integer
        # lane, so there the opaque join is that body without its parts,
        # on the same lane; a callable runs on the tier's lane, as the
        # registry's pair lane, which has no parts, does off its domain
        from ahmedquad import eval_integrand

        region = (_unit(tier), _unit(tier))
        lane, fn = quad._own_lane(raw_fn(iid, tier), tier)
        box = quad._box(lane, region)

        def opaque(method):
            if tier is Tier.NATIVE64:
                f = lambda x, y: eval_integrand(iid, [x, y])
                return integrate_2d(f, region, EngineConfig(method, tier))
            return quad._result(lane, *quad._tensor(lane, lambda x, y: fn(x, y), box, method))

        for method in (GaussLegendre(8), _pin_ts(tier, 3)):
            config = EngineConfig(method, tier)
            assert _pin_of(opaque(method)) == _pin_of(integrate_2d(iid, config=config)), method
            if tier is Tier.DOUBLEWORD:
                pair = quad._LANES[tier]
                f = quad._boundary(quad._of_reals(raw_fn(iid, tier)), pair, True)
                want = quad._result(pair, *quad._tensor(pair, f, quad._box(pair, region), method))
                got = integrate_2d(lambda x, y: eval_integrand(iid, [x, y]), region, config)
                assert _pin_of(got) == _pin_of(want), method
        # with a tol the registry id runs its proven orders (n_x, n_y)
        # alone, and the same core run as the fixed rule at those orders
        # gives the opaque join, which carries no certificate, the same
        # value
        tol = 1e-13 if tier is Tier.NATIVE64 else 1e-26
        proven, orders = _proven_run(iid, GaussLegendre(96, tol), tier)
        assert len(orders) == 2 and math.prod(orders) == proven.evaluations
        fixed = lane.real(quad._gl_rule(lane, lambda x, y: fn(x, y), box, orders))
        assert _pin_of(proven)[:2] == (fixed.hi.hex(), fixed.lo.hex())

    def test_registry_truth_native(self):
        tier = Tier.NATIVE64
        for iid in TWO_D_IDS:
            truth = ref(TRUTH_STR[iid], tier)
            for cfg, mode in (
                (EngineConfig(GaussLegendre(48), tier), Mode.TENSOR),
                (EngineConfig(TanhSinh(8, 1e-11), tier), Mode.TENSOR),
                (EngineConfig(TanhSinh(8, 1e-11), tier), Mode.ITERATED),
                (EngineConfig(AdaptiveSimpson(1e-9), tier), Mode.ITERATED),
            ):
                res = integrate_2d(iid, config=cfg, mode=mode)
                _check_result_shape(res)
                err = abs(sub(res.value, truth).to_float())
                est = res.error_estimate.to_float()
                assert err <= 1e-9, f"{iid} {mode}"
                if res.converged:
                    assert err <= 10.0 * max(est, 4.0 * tier.eps), f"{iid} {mode}"

    def test_registry_truth_doubleword(self):
        tier = Tier.DOUBLEWORD
        for iid in TWO_D_IDS:
            truth = ref(TRUTH_STR[iid], tier)
            res = integrate_2d(iid, config=EngineConfig(GaussLegendre(48), tier))
            err = abs(sub(res.value, truth).to_float())
            assert err <= 1e-27, iid
            if res.converged:
                assert err <= 10.0 * res.error_estimate.to_float()

    def test_tensor_vs_iterated(self):
        # the two assemblies agree within twice the larger estimate
        tier = Tier.NATIVE64
        cfg = EngineConfig(TanhSinh(8, 1e-11), tier)
        for iid in TWO_D_IDS:
            a = integrate_2d(iid, config=cfg, mode=Mode.TENSOR)
            b = integrate_2d(iid, config=cfg, mode=Mode.ITERATED)
            gap = abs(sub(a.value, b.value).to_float())
            allowance = 2.0 * max(
                a.error_estimate.to_float(), b.error_estimate.to_float()
            )
            assert gap <= allowance, f"{iid}: gap {gap:.3g} vs {allowance:.3g}"

    def test_tensor_vs_iterated_doubleword_spot(self):
        tier = Tier.DOUBLEWORD
        cfg = EngineConfig(GaussLegendre(48), tier)
        a = integrate_2d("i2_kernel_eq4", config=cfg, mode=Mode.TENSOR)
        b = integrate_2d("i2_kernel_eq4", config=cfg, mode=Mode.ITERATED)
        gap = abs(sub(a.value, b.value).to_float())
        assert gap <= 2.0 * max(
            a.error_estimate.to_float(), b.error_estimate.to_float()
        )

    def test_pairwise_engine_agreement_2d(self):
        tier = Tier.NATIVE64
        for iid in TWO_D_IDS:
            results = [
                integrate_2d(iid, config=EngineConfig(GaussLegendre(48), tier)),
                integrate_2d(iid, config=EngineConfig(TanhSinh(8, 1e-11), tier)),
                integrate_2d(
                    iid,
                    config=EngineConfig(AdaptiveSimpson(1e-9), tier),
                    mode=Mode.ITERATED,
                ),
            ]
            for ra in results:
                for rb in results:
                    gap = abs(sub(ra.value, rb.value).to_float())
                    allowance = 4.0 * max(
                        ra.error_estimate.to_float(), rb.error_estimate.to_float()
                    )
                    assert gap <= allowance, iid

    def test_degenerate_region(self):
        tier = Tier.NATIVE64
        p = Real.from_float(0.5, tier)
        res = integrate_2d(
            "i2_kernel_eq4",
            (Interval(p, p), _unit(tier)),
            EngineConfig(GaussLegendre(8), tier),
        )
        assert res.value.to_float() == 0.0
        assert res.evaluations == 1 and res.converged

    def test_nonfinite_is_localized_2d(self):
        def bad(x, y):
            return math.inf if (x.hi > 0.6 and y.hi > 0.6) else 1.0

        region = (_unit(Tier.NATIVE64), _unit(Tier.NATIVE64))
        with pytest.raises(NonFiniteError) as exc_info:
            integrate_2d(bad, region, EngineConfig(GaussLegendre(16)))
        pt = exc_info.value.point
        assert pt is not None and pt[0] > 0.6 and pt[1] > 0.6

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            integrate_2d("ahmed_eq1")  # 1D id
        with pytest.raises(ConfigError):
            integrate_2d(
                "i2_kernel_eq4",
                config=EngineConfig(AdaptiveSimpson(1e-8)),
                mode=Mode.TENSOR,
            )
        with pytest.raises(ConfigError):
            integrate_2d(lambda x, y: x)  # callable without region
        with pytest.raises(ConfigError):
            integrate_2d("i2_kernel_eq4", mode="tensor")
        with pytest.raises(TierMismatchError):
            integrate_2d(
                "i2_kernel_eq4",
                (_unit(Tier.DOUBLEWORD), _unit(Tier.DOUBLEWORD)),
                EngineConfig(GaussLegendre(8), Tier.NATIVE64),
            )

    @pytest.mark.parametrize(
        "run",
        [
            lambda u: integrate_2d(lambda x, y: x, (u, u, u), EngineConfig(GaussLegendre(8))),
            lambda u: integrate_2d(lambda x, y: x, (u,)),
            lambda u: integrate_2d("i2_kernel_eq4", (u,)),
            lambda u: integrate_2d("i2_kernel_eq4", u),
            lambda u: integrate_2d("i2_kernel_eq4", (u, 1.0)),
            lambda u: integrate_1d(lambda x: x, [u]),
            lambda u: integrate_1d("ahmed_eq1", (u,)),
        ],
        ids=["three", "one", "registry-one", "interval", "float", "1d-list", "1d-tuple"],
    )
    def test_a_domain_of_the_wrong_shape(self, run):
        # an interval is an Interval, and a region exactly two of them
        with pytest.raises(ConfigError):
            run(_unit(Tier.NATIVE64))

    def test_a_region_may_be_a_list(self):
        u = _unit(Tier.NATIVE64)
        config = EngineConfig(GaussLegendre(8))
        assert integrate_2d(lambda x, y: x, [u, u], config) == integrate_2d(lambda x, y: x, (u, u), config)


# ----------------------------------------------------------------------
# The evaluation boundary
# ----------------------------------------------------------------------


class TestEvaluationBoundary:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_simpson_names_a_singular_endpoint(self, tier):
        one = Real.from_float(1.0, tier)
        tol = 1e-8 if tier is Tier.NATIVE64 else 1e-20
        with pytest.raises(NonFiniteError) as exc_info:
            integrate_1d(
                lambda x: one / sqrt(x),
                _unit(tier),
                EngineConfig(AdaptiveSimpson(tol), tier),
            )
        assert exc_info.value.point == (0.0,)

    def test_tanh_sinh_names_a_point_that_rounds_onto_the_edge(self):
        # at binary64, 0.5 + 0.5 x rounds to 1 for the outermost nodes
        one = Real.from_float(1.0)
        with pytest.raises(NonFiniteError) as exc_info:
            integrate_1d(
                lambda x: one / sqrt((one - x) * (one + x)),
                _unit(Tier.NATIVE64),
                EngineConfig(TanhSinh(10, 1e-13)),
            )
        assert exc_info.value.point == (1.0,)

    def test_iterated_names_both_coordinates(self):
        one = Real.from_float(1.0)
        region = (_unit(Tier.NATIVE64), _unit(Tier.NATIVE64))
        with pytest.raises(NonFiniteError) as exc_info:
            integrate_2d(
                lambda x, y: one / (x + y),
                region,
                EngineConfig(AdaptiveSimpson(1e-6)),
                mode=Mode.ITERATED,
            )
        assert exc_info.value.point == (0.0, 0.0)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_package_error_inside_the_domain_is_given_its_point(self, tier):
        # an AhmedQuadError an integrand raises keeps its type and is given
        # the point where it was raised, unless it carries one already
        def past_half(x):
            if x.hi > 0.5:
                raise DomainError("past one half")
            return x

        with pytest.raises(DomainError, match="past one half") as exc_info:
            integrate_1d(past_half, _unit(tier), EngineConfig(GaussLegendre(8), tier))
        (x,) = exc_info.value.point
        assert 0.5 < x < 1.0

        def located(x):
            raise ConfigError("its own point", point=(7.0,))

        with pytest.raises(ConfigError) as exc_info:
            integrate_1d(located, _unit(tier), EngineConfig(GaussLegendre(8), tier))
        assert exc_info.value.point == (7.0,)

    def test_an_error_inside_the_domain_is_the_integrands_own(self):
        def broken(x):
            raise ZeroDivisionError("a bug in the integrand")

        with pytest.raises(ZeroDivisionError, match="a bug in the integrand"):
            integrate_1d(broken, _unit(Tier.NATIVE64), EngineConfig(GaussLegendre(8)))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("method", [GaussLegendre(8), TanhSinh(4, 1e-10)], ids=["gl8", "ts4"])
    @pytest.mark.parametrize("iid", ["ahmed_eq1", "i1_x", "i2_x", "i1_theta"])
    def test_an_error_at_a_non_finite_point_is_named(self, iid, method, tier):
        # over [-DBL_MAX, DBL_MAX] the mapped points come out infinite or
        # NaN; a lane that raises there, or returns a non-finite value,
        # gives NonFiniteError, naming the point, not a raw ValueError
        big = 1.7976931348623157e308  # the largest double
        domain = Interval(Real.from_float(-big, tier), Real.from_float(big, tier))
        if tier is Tier.DOUBLEWORD:
            # at DOUBLEWORD the lane holds every point of the interval
            # exactly, so none is non-finite: i1_theta's lane raises
            # DomainError past |t| = 2^10, naming a finite point, and the
            # other lanes' rules are their exact rules rounded once
            self._widest_interval_at_doubleword(iid, method, domain)
            return
        with pytest.raises(NonFiniteError) as exc_info:
            integrate_1d(iid, domain, EngineConfig(method, tier))
        point = exc_info.value.point
        assert point is None or not all(map(math.isfinite, point)), point

    @staticmethod
    def _widest_interval_at_doubleword(iid, method, domain):
        mp = pytest.importorskip("mpmath")
        tier = Tier.DOUBLEWORD
        config = EngineConfig(method, tier)
        if iid == "i1_theta":
            with pytest.raises(DomainError) as exc_info:
                integrate_1d(iid, domain, config)
            (t,) = exc_info.value.point
            assert math.isfinite(t) and abs(t) > 1024.0
            return
        res = integrate_1d(iid, domain, config)
        lane = quad._LANES[tier]
        fn = _lane_callable(iid, tier)

        def f(x):
            r = fn(Real._raw(*nearest_pair(x), tier))
            return mp.mpf(r.hi) + r.lo

        want, evals = exact_rule(lane, f, quad._box(lane, (domain,)), method)
        assert res.evaluations == evals
        with mp.workprec(420):
            got = mp.mpf(res.value.hi) + res.value.lo
            assert abs(got - want) <= 0.51 * mp.ldexp(abs(want), -104)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_sum_that_overflows_is_not_finite(self, tier):
        # every evaluation is finite, but the weighted sums overflow, on
        # which math.fsum raises OverflowError
        huge = Real.from_float(1e308, tier)
        config = EngineConfig(GaussLegendre(8), tier)
        if tier is Tier.DOUBLEWORD:
            # the DOUBLEWORD lane sums exactly, and no sum overflows where
            # the integral does not: 1e308 over [0, 1] is its exact value,
            # up to the weights' 2^-180; over [0, 2] the rule is past
            # binary64 and not finite
            for integrate, domain, f in (
                (integrate_1d, _unit(tier), lambda x: huge),
                (integrate_2d, (_unit(tier), _unit(tier)), lambda x, y: huge),
            ):
                v = integrate(f, domain, config).value
                assert v.hi == 1e308 and abs(Fraction(v.lo)) <= 2.0**-170 * 1e308
            two = Interval(Real.from_float(0.0, tier), Real.from_float(2.0, tier))
            cases = (
                (integrate_1d, two, lambda x: huge),
                (integrate_2d, (two, _unit(tier)), lambda x, y: huge),
            )
        else:
            cases = (
                (integrate_1d, _unit(tier), lambda x: huge),
                (integrate_2d, (_unit(tier), _unit(tier)), lambda x, y: huge),
            )
        for integrate, domain, f in cases:
            with pytest.raises(NonFiniteError, match="non-finite sum"):
                integrate(f, domain, config)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize(
        "method",
        [AdaptiveSimpson(1e-10), GaussLegendre(8), TanhSinh(4, 1e-10)],
        ids=["simpson", "gl8", "ts4"],
    )
    def test_a_constant_over_every_double_is_not_finite(self, method, tier):
        # over [-DBL_MAX, DBL_MAX] the width b - a overflows, though every
        # value of the constant is finite: the sum is not finite, and no
        # point is named. Simpson's (b - a)/6 at doubleword takes the
        # quotient of non-finite words, which must come out non-finite,
        # not raise from the exact ratio of an infinite word
        big = 1.7976931348623157e308  # the largest double
        domain = Interval(Real.from_float(-big, tier), Real.from_float(big, tier))
        with pytest.raises(NonFiniteError, match="non-finite sum") as exc_info:
            integrate_1d(lambda x: 1.0, domain, EngineConfig(method, tier))
        assert exc_info.value.point is None

    @pytest.mark.parametrize("rule", ["gl8", "ts4", "tensor:gl8", "tensor:ts3"])
    def test_a_doubleword_value_past_the_split_range_is_rescued(self, rule):
        # above ~2^996 a double-word product w * f(p) overflowed Dekker's
        # split, though every value and the integral are finite; up to
        # 2^1021 here, the sums stay below 2^1024. The DOUBLEWORD lane's
        # products are exact ints, so the one run gives exactly 2^600
        # times the same rule over the integrand scaled by 2^-600
        tier = Tier.DOUBLEWORD
        unit = _unit(tier)
        kind, _, name = rule.rpartition(":")
        method = GaussLegendre(8) if name == "gl8" else _pin_ts(tier, int(name[2:]))
        config = EngineConfig(method, tier)
        calls = []

        def counted(f):
            def g(*p):
                calls.append(p)
                return f(*p)

            return g

        def run(c):
            if kind:
                return integrate_2d(counted(lambda x, y: c * (1.0 + x.hi * y.hi)), (unit, unit), config)
            return integrate_1d(counted(lambda x: c * (1.0 + x.hi)), unit, config)

        c = 2.0**1020
        small = run(c * 2.0**-600)
        calls.clear()
        big = run(c)
        assert len(calls) == big.evaluations
        up = 2.0**600
        assert (big.value, big.error_estimate) == (small.value * up, small.error_estimate * up)
        assert (big.evaluations, big.converged) == (small.evaluations, small.converged)
        exact = (1.25 if kind else 1.5) * c
        assert abs(big.value.to_float() - exact) <= 1e-6 * exact

    @pytest.mark.parametrize("rule", ["gl8", "ts4", "simpson"])
    @pytest.mark.parametrize("mode", [None, Mode.ITERATED], ids=["1d", "iterated"])
    def test_a_doubleword_constant_of_1e300_integrates_as_at_native64(self, rule, mode):
        # at DOUBLEWORD the weight products of 1e300, and Simpson's rule
        # products of 6e300, passed the range of Dekker's split; at 1e305
        # so did Simpson's 4 fm and every weight product. Native Simpson
        # rounds 1e305 a few ulp off
        for value, native_ulps in ((1e300, 0), (1e305, 4)):
            values = {}
            for tier in TIERS:
                c = Real.from_float(value, tier)
                unit = _unit(tier)
                if rule == "simpson":
                    method = AdaptiveSimpson(1e-8 if tier is Tier.NATIVE64 else 1e-20)
                else:
                    method = GaussLegendre(8) if rule == "gl8" else _pin_ts(tier, 4)
                config = EngineConfig(method, tier)
                if mode is None:
                    res = integrate_1d(lambda x: c, unit, config)
                else:
                    res = integrate_2d(lambda x, y: c, (unit, unit), config, mode=mode)
                values[tier] = res.value
            dw = values[Tier.DOUBLEWORD]
            err = abs(Fraction(dw.hi) + Fraction(dw.lo) - Fraction(value))
            assert err <= 2.0**-100 * value
            assert dw.to_float() == value
            assert abs(values[Tier.NATIVE64].hi - value) <= native_ulps * math.ulp(value)

    @pytest.mark.parametrize(
        "rule",
        [
            "gl8", "ts4", "simpson", "tensor:gl8", "tensor:ts3",
            "iterated:gl8", "iterated:ts3", "iterated:simpson",
        ],
    )
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_half_width_past_the_split_range_maps_its_points(self, tier, rule):
        # at DOUBLEWORD the products h * x of a half-width of 2e300 and the
        # nodes passed the range of Dekker's split; the lane maps every
        # node exactly in ints. The integral of c x over [0, 4e300] is
        # 8e600 c / 2, which rounds to 2.0000000000000004e300 for these
        # binary64 constants
        kind, _, name = rule.rpartition(":")
        if name == "simpson":
            method = AdaptiveSimpson(1e-8 if tier is Tier.NATIVE64 else 1e-20)
        else:
            method = GaussLegendre(8) if name == "gl8" else _pin_ts(tier, int(name[2:]))
        config = EngineConfig(method, tier)

        def run(f, width):
            wide = Interval(Real.from_float(0.0, tier), Real.from_float(width, tier))
            if kind:
                mode = Mode.ITERATED if kind == "iterated" else Mode.TENSOR
                return integrate_2d(lambda x, y: f(x), (wide, _unit(tier)), config, mode=mode)
            return integrate_1d(f, wide, config)

        def error(res, exact):
            return abs(Fraction(res.value.hi) + Fraction(res.value.lo) - exact)

        if rule in ("gl8", "ts4", "tensor:gl8"):
            c = Real.from_float(2.5e-301, tier)
            res = run(lambda x: x * c, 4e300)
            exact = Fraction(4e300) ** 2 * Fraction(2.5e-301) / 2
            assert error(res, exact) / exact <= (1e-30 if tier is Tier.DOUBLEWORD else 2.0**-52)
            assert abs(res.value.to_float() - 2e300) <= math.ulp(2e300)
        # the constant 1e-302 over a width of 1e301: Simpson's (b - a)/6 is
        # a quotient of 1.7e300. The terms w f(p) are near 1e-303, where a
        # pair's low word is subnormal; the DOUBLEWORD lane holds them
        # exactly and rounds once. It is held to the same rule's value on
        # the constant, exactly: the tanh-sinh rule of level 3 is 1.02e-30
        # (in 2-D 2.04e-30) off on a constant, and that is no rounding
        c = Real.from_float(1e-302, tier)
        res = run(lambda x: c, 1e301)
        exact = Fraction(1e-302) * Fraction(1e301)
        if tier is Tier.DOUBLEWORD:
            mp = pytest.importorskip("mpmath")
            lane = quad._LANES[tier]
            box = quad._box(lane, (_unit(tier),) * (2 if kind else 1))
            mode = Mode.ITERATED if kind == "iterated" else None
            factor, evals = exact_rule(lane, lambda *p: 1, box, method, mode)
            assert evals == res.evaluations
            with mp.workprec(420):
                got = mp.mpf(res.value.hi) + res.value.lo
                want = mp.mpf(exact.numerator) / exact.denominator * factor
                assert abs(got - want) <= 2.0**-100 * want
        else:
            assert error(res, exact) <= 4 * math.ulp(0.1)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_simpson_stops_at_a_rule_that_overflows(self, tier):
        # every value is finite, but fa + 4 fm + fb is not: the first
        # rule raises instead of splitting down to max_depth on every
        # branch, which at the default depth would not end. The
        # DOUBLEWORD lane's rules are exact ints, floored once at the
        # value shift, so there the constant over [0, 1] is its exact
        # value, and over [0, 2], past binary64, the run stops as soon
        big = Real.from_float(1.5e308, tier)
        tol = 1e-8 if tier is Tier.NATIVE64 else 1e-20
        config = EngineConfig(AdaptiveSimpson(tol, max_depth=12), tier)
        calls = []

        def f(x):
            calls.append(x)
            return big

        domain = _unit(tier)
        if tier is Tier.DOUBLEWORD:
            res = integrate_1d(f, domain, config)
            assert (res.value.hi, res.value.lo, res.evaluations, res.converged) == (1.5e308, 0.0, 5, True)
            calls.clear()
            domain = Interval(Real.from_float(0.0, tier), Real.from_float(2.0, tier))
        with pytest.raises(NonFiniteError):
            integrate_1d(f, domain, config)
        assert len(calls) <= 10

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_simpson_ends_on_a_large_integral(self, tier):
        # x * 2.5e-301 over [0, 4e300]: at doubleword rounding alone keeps
        # |S2 - S1| above 15 tol = 1.5e-19 on sums near 1e300, so every
        # interval split down to the default max_depth of 40 and the run
        # did not end. An interval now stops at the rounding floor
        # 16 eps |S2|, unconverged; native64 meets its tol at once, with
        # the same result as before
        c = Real.from_float(2.5e-301, tier)
        interval = Interval(Real.from_float(0.0, tier), Real.from_float(4e300, tier))
        tol = 1e-10 if tier is Tier.NATIVE64 else 1e-20
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) >= 100:
                raise AssertionError("adaptive Simpson is still splitting")
            return x * c

        res = integrate_1d(f, interval, EngineConfig(AdaptiveSimpson(tol), tier))
        assert res.evaluations == len(calls) < 100
        exact = Fraction(2.5e-301) * Fraction(4e300) ** 2 / 2
        if tier is Tier.NATIVE64:
            assert (res.value.hi, res.evaluations, res.converged) == (2e300, 5, True)
        else:
            # each value x c is an exact pair, and the DOUBLEWORD lane
            # sums exactly, so Simpson's rule on a line is exact and meets
            # its tol at once. Divided by 7, the values carry roundings
            # that keep |S2 - S1| above 15 tol, and the run ends at the
            # rounding floor, unconverged
            assert (res.value.hi, res.value.lo) == nearest_pair_of(exact)
            assert (res.evaluations, res.converged) == (5, True)
            calls.clear()
            res = integrate_1d(lambda x: f(x) / 7, interval, EngineConfig(AdaptiveSimpson(tol), tier))
            assert res.evaluations == len(calls) < 100
            exact /= 7
            assert abs(Fraction(res.value.hi) + Fraction(res.value.lo) - exact) <= 2.0**-100 * exact
            assert not res.converged

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_value_of_the_other_tier_is_refused(self, tier):
        other = Tier.DOUBLEWORD if tier is Tier.NATIVE64 else Tier.NATIVE64
        with pytest.raises(TierMismatchError):
            integrate_1d(
                lambda x: Real.from_float(1.0, other),
                _unit(tier),
                EngineConfig(GaussLegendre(4), tier),
            )

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_string_is_refused(self, tier):
        for integrate, domain, f in (
            (integrate_1d, _unit(tier), lambda x: "1"),
            (integrate_2d, (_unit(tier), _unit(tier)), lambda x, y: "1"),
        ):
            with pytest.raises(ConfigError):
                integrate(f, domain, EngineConfig(GaussLegendre(4), tier))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_int_and_float_are_accepted(self, tier):
        for f in (lambda x: 1, lambda x: 1.0):
            res = integrate_1d(f, _unit(tier), EngineConfig(GaussLegendre(4), tier))
            assert abs(res.value.to_float() - 1.0) <= 1e-15

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_degenerate_probe_names_the_point(self, tier):
        zero = Interval(Real.from_float(0.0, tier), Real.from_float(0.0, tier))
        one = Real.from_float(1.0, tier)
        with pytest.raises(NonFiniteError) as exc_info:
            integrate_2d(
                lambda x, y: one / x,
                (zero, _unit(tier)),
                EngineConfig(GaussLegendre(8), tier),
            )
        assert exc_info.value.point == (0.0, 0.0)


# ----------------------------------------------------------------------
# Adaptive-order Gauss-Legendre
# ----------------------------------------------------------------------
# With a tol the rule climbs the ladder 6, 12, 24, 48, 96 and stops at
# the first half-order difference within tol; each rung's sum is the
# next rung's estimate, so a run that stops at order n costs the rungs
# up to n and returns the fixed GL(n) value and estimate bit for bit.
# A registry integrand over its own domain instead runs its proven rung
# alone, so the ladder is exercised here through opaque callables that
# wrap the same lanes.

LADDER_TOLS = {Tier.NATIVE64: (1e-13,), Tier.DOUBLEWORD: (1e-13, 1e-26)}
LADDER_CASES = [
    (tier, tol, iid)
    for tier in TIERS
    for tol in LADDER_TOLS[tier]
    for iid in ONE_D_IDS + ("eq3_kernel",) + TWO_D_IDS
]


def _mp_truth(iid):
    # 50-digit closed forms, from mpmath rather than the package
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    pi2 = mp.pi**2
    r2 = mp.sqrt(2)
    return {
        "ahmed_eq1": 5 * pi2 / 96,
        "i1_x": pi2 / 12,
        "i1_theta": pi2 / 12,
        "i1_phi": pi2 / 12,
        "i2_x": pi2 / 32,
        "eq3_kernel": mp.atan(1 / r2) / r2,
        "i2_kernel_eq4": pi2 / 32,
        "product_kernel_eq6a": pi2 / 16,
        "shifted_kernel_eq6b": pi2 / 32,
    }[iid]


def _registry_run(iid, method, tier):
    config = EngineConfig(method, tier)
    if iid in TWO_D_IDS:
        return integrate_2d(iid, config=config)
    a = sqrt(Real.from_float(2.0, tier)) if iid == "eq3_kernel" else None
    return integrate_1d(iid, config=config, a=a)


def _lane_callable(iid, tier, a=None):
    # the registry lane behind an opaque callable, which carries no
    # certificate: its values are the lane's, word for word
    fn = raw_fn(iid, tier, a)
    if tier is Tier.NATIVE64:
        return lambda *p: fn(*(c.hi for c in p))
    return lambda *p: Real._raw(*fn(*(w for c in p for w in (c.hi, c.lo))), tier)


def _ladder_run(iid, method, tier):
    # the run of a registry integral through its lane as a callable, over
    # the integrand's own domain: the ladder
    config = EngineConfig(method, tier)
    domain = domain_of(iid, tier)
    if iid in TWO_D_IDS:
        return integrate_2d(_lane_callable(iid, tier), domain, config)
    a = sqrt(Real.from_float(2.0, tier)) if iid == "eq3_kernel" else None
    return integrate_1d(_lane_callable(iid, tier, a), domain[0], config)


def _fixed_rule(f, domain, tier, orders):
    # the value of the Gauss-Legendre core run as the fixed rule of
    # orders[i] points on axis i, over a callable
    lane = quad._LANES[tier]
    box = quad._box(lane, domain)
    return lane.real(quad._gl_rule(lane, quad._boundary(f, lane, True), box, orders))


def _proven_run(iid, method, tier):
    # a registry run with a tol, and the per-axis orders of the tables it
    # read: a proven run reads one table per axis, in axis order
    with pytest.MonkeyPatch.context() as mp:
        orders = _record_gl_tables(mp)
        res = _registry_run(iid, method, tier)
    return res, tuple(orders)


def _bits(v):
    # a value with each float by its bits and each int as itself, through
    # tuples and lists
    if isinstance(v, (tuple, list)):
        return [_bits(u) for u in v]
    return v.hex() if isinstance(v, float) else v


def _record_gl_tables(monkeypatch):
    # the orders of the Gauss-Legendre tables the engines ask for, on
    # every lane
    orders = []

    def recording(table):
        def gl_table(n):
            orders.append(n)
            return table(n)

        return staticmethod(gl_table)

    for lane in (quad._Native, quad._FixedPoint):
        monkeypatch.setattr(lane, "gl_table", recording(lane.gl_table))
    return orders


class TestAdaptiveGaussLegendre:
    def test_rungs(self):
        from ahmedquad.quad import _gl_rungs

        assert _gl_rungs(GaussLegendre(96, 1e-26)) == (6, 12, 24, 48, 96)
        assert _gl_rungs(GaussLegendre(100, 1e-13)) == (6, 12, 25, 50, 100)
        assert _gl_rungs(GaussLegendre(12, 1e-13)) == (6, 12)
        # below order 12 the ladder is the fixed pair
        assert _gl_rungs(GaussLegendre(8, 1e-13)) == (4, 8)
        assert _gl_rungs(GaussLegendre(96)) == (48, 96)
        assert _gl_rungs(GaussLegendre(3)) == (1, 3)

    @pytest.mark.parametrize(
        "tier,tol,iid", LADDER_CASES, ids=[f"{t.value}-{tol:g}-{i}" for t, tol, i in LADDER_CASES]
    )
    def test_registry_ladder(self, tier, tol, iid):
        method = GaussLegendre(96, tol)
        res = _ladder_run(iid, method, tier)
        est = res.error_estimate.to_float()
        if res.converged:
            assert est <= tol
        mp = pytest.importorskip("mpmath")
        err = abs(mp.mpf(res.value.hi) + mp.mpf(res.value.lo) - _mp_truth(iid))
        assert err <= est, f"error {float(err):.3g} above estimate {est:.3g}"
        # the evaluations are those of the rungs run, and the run that
        # stopped at order n is the fixed GL(n) rule
        dim = 2 if iid in TWO_D_IDS else 1
        sizes = [n**dim for n in (6, 12, 24, 48, 96)]
        stops = [k for k in range(2, 6) if sum(sizes[:k]) == res.evaluations]
        assert stops, res.evaluations
        n = (6, 12, 24, 48, 96)[stops[0] - 1]
        assert res.converged or n == 96
        fixed = _ladder_run(iid, GaussLegendre(n), tier)
        assert (res.value, res.error_estimate) == (fixed.value, fixed.error_estimate)

    @pytest.mark.parametrize(
        "tier,tol,iid", LADDER_CASES, ids=[f"{t.value}-{tol:g}-{i}" for t, tol, i in LADDER_CASES]
    )
    def test_registry_proven_rung(self, tier, tol, iid):
        # the registry id runs its proven orders alone, one per axis, with
        # its proven bound as the estimate: eq3_kernel one rung of the
        # ladder, a fixed integrand the orders of fewest points whose
        # bound is within tol
        from ahmedquad.quad import _gl_rungs

        method = GaussLegendre(96, tol)
        res, orders = _proven_run(iid, method, tier)
        est = res.error_estimate.to_float()
        assert res.converged and est <= tol
        mp = pytest.importorskip("mpmath")
        err = abs(mp.mpf(res.value.hi) + mp.mpf(res.value.lo) - _mp_truth(iid))
        assert err <= est, f"error {float(err):.3g} above estimate {est:.3g}"
        dim = 2 if iid in TWO_D_IDS else 1
        assert len(orders) == dim and math.prod(orders) == res.evaluations
        a = sqrt(Real.from_float(2.0, tier)) if iid == "eq3_kernel" else None
        if a is not None:
            assert orders[0] in _gl_rungs(method)
        else:
            cert = raw_fn(iid, tier).certificate()
            assert gl_bound(cert, tier, orders) == est
            # no rule of fewer points is proven, nor one of as many with a
            # lower n_x, by the bound tried at every such order up to the cap
            for other in itertools.product(range(2, 97), repeat=dim):
                if (math.prod(other), other) < (res.evaluations, orders):
                    assert gl_bound(cert, tier, other) > tol, other
        # the plain rule of the picked orders, on the lane the run takes
        lane, fn = quad._own_lane(raw_fn(iid, tier, a), tier)
        fixed = lane.real(quad._gl_rule(lane, fn, quad._own_box(iid, tier), orders))
        assert _pin_of(res)[:2] == (fixed.hi.hex(), fixed.lo.hex())

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_eq3_runs_the_lowest_rung_within_tol(self, tier):
        # eq3_kernel's proven pick against trying every rung of the ladder:
        # the lowest whose bound is within tol. At a = 1e-140 (a spike of
        # width 1e-140 at x = 0) no rung is proven and the run takes the
        # ladder, unconverged
        from ahmedquad.quad import _gl_rungs

        rng = random.Random(0xE93)
        a_values = [10.0 ** rng.uniform(-3, 3) for _ in range(12)] + [1e-140]
        tols = {Tier.NATIVE64: (1e-6, 1e-10, 1e-13), Tier.DOUBLEWORD: (1e-13, 1e-20, 1e-26)}[tier]
        picked = set()
        for tol in tols:
            for cap in (16, 96, 100):
                method = GaussLegendre(cap, tol)
                rungs = _gl_rungs(method)
                for a_val in a_values:
                    a = Real.from_float(a_val, tier)
                    cert = raw_fn("eq3_kernel", tier, a).certificate()
                    want = [n for n in rungs if gl_bound(cert, tier, (n,)) <= tol][:1]
                    proven = bounds._proven_rung(cert, tier, method, _gl_rungs)
                    res = integrate_1d("eq3_kernel", config=EngineConfig(method, tier), a=a)
                    if a_val == 1e-140:
                        assert proven is None and not want, (tol, cap)
                        assert not res.converged and res.evaluations == sum(rungs)
                    elif want:
                        bound = gl_bound(cert, tier, tuple(want))
                        assert proven == (tuple(want), bound), (a_val, tol, cap)
                        assert res.evaluations == want[0]
                        picked.add(want[0])
                    else:
                        assert proven is None, (a_val, tol, cap)
        # the seeded a reach more than one rung
        assert len(picked) > 1, picked

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_repeated_run_resolves_nothing_again(self, tier, monkeypatch):
        # a proven eq3_kernel run computes the bound at most as often as
        # the bisection of its ladder probes it (3 times for 5 rungs), and
        # a registry run over its own domain, repeated, builds no box, lane
        # or mapped axis: each comes from the caches of the first run
        from collections import Counter

        from ahmedquad.quad import _gl_rungs
        from ahmedquad.verify import default_config, seeded_a_values

        counts = Counter()

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(bounds, "_bound", counting("bound", bounds._bound))
        monkeypatch.setattr(quad, "_box", counting("box", quad._box))
        for lane in (quad._Native, quad._FixedPoint):
            monkeypatch.setattr(lane, "map", staticmethod(counting("map", lane.map)))
        proven = GaussLegendre(96, LADDER_TOLS[tier][-1])
        probes = len(_gl_rungs(proven)).bit_length()
        assert probes == 3
        for a in seeded_a_values(tier, samples=200):
            counts.clear()
            res = integrate_1d("eq3_kernel", config=EngineConfig(proven, tier), a=a)
            assert res.converged and 1 <= counts["bound"] <= probes, a
        for method in (proven, default_config(tier).method):
            for iid in ONE_D_IDS + ("eq3_kernel",) + TWO_D_IDS:
                _registry_run(iid, method, tier)
                lanes, boxes = quad._fixed_lane.cache_info(), quad._own_box.cache_info()
                counts.clear()
                _registry_run(iid, method, tier)
                assert counts["box"] == counts["map"] == 0, (iid, method, counts)
                assert quad._fixed_lane.cache_info().misses == lanes.misses
                assert quad._own_box.cache_info().misses == boxes.misses

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_proven_run_reads_only_ladder_tables(self, tier, monkeypatch):
        # eq3_kernel's proven rung is one of _gl_rungs(method), so it asks
        # for no table the ladder would not build: its order moves with a
        from ahmedquad.quad import _gl_rungs

        orders = _record_gl_tables(monkeypatch)
        for tol in LADDER_TOLS[tier]:
            for method in (GaussLegendre(96, tol), GaussLegendre(100, tol)):
                orders.clear()
                _registry_run("eq3_kernel", method, tier)
                assert len(orders) == 1 and orders[0] in _gl_rungs(method), orders

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_fixed_integrand_reads_the_tables_of_its_orders(self, tier, monkeypatch):
        # one table per axis, of the order picked for that axis, and no
        # other; a pick never exceeds the cap, and with none proven below
        # it the run takes the ladder
        from ahmedquad.quad import _gl_rungs

        orders = _record_gl_tables(monkeypatch)
        for tol in LADDER_TOLS[tier]:
            for method in (GaussLegendre(96, tol), GaussLegendre(100, tol), GaussLegendre(16, tol)):
                for iid in ONE_D_IDS + TWO_D_IDS:
                    orders.clear()
                    res = _registry_run(iid, method, tier)
                    proven = bounds._fixed_proven(raw_fn(iid, tier).certificate(), tier, method)
                    if proven is None:
                        assert set(orders) <= set(_gl_rungs(method)), (iid, orders)
                        continue
                    picked, _ = proven
                    assert orders == list(picked), (iid, orders)
                    assert max(picked) <= method.order and math.prod(picked) == res.evaluations

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_the_mapped_axis_cache_is_bounded(self, tier):
        # a proven run reads each prepared axis from its integrand's own
        # box (quad._own_box, one per integrand and tier), keyed by
        # (axis, order, part): eq3_kernel at any a, on the integer lanes of
        # every value shift at DOUBLEWORD, shares one box and adds at most
        # one entry per ladder order to it, and only proven runs add entries
        from ahmedquad.quad import _gl_rungs

        method = GaussLegendre(96, LADDER_TOLS[tier][-1])
        config = EngineConfig(method, tier)

        def own_box(iid):
            points = quad._Native if tier is Tier.NATIVE64 else quad._FixedPoint
            return points, quad._own_box(iid, tier)

        quad._own_box.cache_clear()
        shifts, boxes = set(), {}
        for k in range(200):
            a = Real.from_float(0.1 * 1.02**k, tier)
            integrate_1d("eq3_kernel", config=config, a=a)
            shifts.add(quad._own_lane(raw_fn("eq3_kernel", tier, a), tier)[0])
            lane, box = own_box("eq3_kernel")
            boxes[lane] = box
        assert (len(shifts) > 1) == (tier is Tier.DOUBLEWORD), shifts
        assert quad._own_box.cache_info().currsize == len(boxes) == 1
        ((box,),) = [boxes.values()]
        assert 1 < len(box.mapped) <= len(_gl_rungs(method))
        assert {key[:2] for key in box.mapped} <= {(0, n) for n in _gl_rungs(method)}
        before = {lane: dict(box.mapped) for lane, box in boxes.items()}
        domain = domain_of("ahmed_eq1", tier)
        integrate_1d(_lane_callable("ahmed_eq1", tier), domain[0], config)
        half = Interval(domain[0].lower, Real.from_float(0.5, tier))
        integrate_1d("ahmed_eq1", half, config)
        integrate_1d("ahmed_eq1", config=EngineConfig(GaussLegendre(22), tier))
        integrate_2d("i2_kernel_eq4", config=EngineConfig(GaussLegendre(18), tier))
        assert {lane: box.mapped for lane, box in boxes.items()} == before
        assert not own_box("ahmed_eq1")[1].mapped and not own_box("i2_kernel_eq4")[1].mapped
        for iid in ONE_D_IDS + TWO_D_IDS:
            _registry_run(iid, method, tier)
            lane, box = own_box(iid)
            boxes[lane, iid] = box
            assert box.mapped
        for key, box in boxes.items():
            own = key[0] if isinstance(key, tuple) else key
            for (i, n, part), axis in box.mapped.items():
                m, h = box.halves[i]
                xs, ws = own.gl_table(n)
                fresh = [(part(p) if part else p, w) for p, w in zip(own.map(m, h, xs), ws)]
                assert _bits(axis) == _bits(fresh)

    def test_fixed_order_never_looks_up_a_certificate(self, monkeypatch):
        from ahmedquad.bench import bench_rows

        def refuse(*args):
            raise AssertionError("certificate lookup under fixed-order Gauss-Legendre")

        monkeypatch.setattr(bounds, "_proven_rung", refuse)
        assert len(bench_rows(Tier.NATIVE64)) == 28
        for tier in TIERS:
            for n in (2, 8, 24, 96):
                for iid in ONE_D_IDS + ("eq3_kernel",) + TWO_D_IDS:
                    _registry_run(iid, GaussLegendre(n), tier)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_the_checked_rerun_runs_the_proven_rung(self, tier, monkeypatch):
        # a sum made non-finite after the run sends it to the checked
        # re-run, which must evaluate the same points: the one rung again.
        # The run takes the integrand's own lane: at DOUBLEWORD the integer
        # lane, whose int sums are never non-finite, so there the run's
        # sum raises instead, and the re-run's is left as it is
        orders = _record_gl_tables(monkeypatch)
        lane, _ = quad._own_lane(raw_fn("i2_kernel_eq4", tier), tier)
        if lane is quad._FixedPoint:
            total, raised = lane.total, []

            def first_raises(words):
                if not raised:
                    raised.append(True)
                    raise OverflowError("a sum past binary64's range")
                return total(words)

            monkeypatch.setattr(lane, "total", staticmethod(first_raises))
        else:
            monkeypatch.setattr(lane, "total", staticmethod(lambda words: lane.pack(math.nan, 0.0)))
        method = GaussLegendre(96, LADDER_TOLS[tier][-1])
        with pytest.raises(NonFiniteError, match="non-finite sum"):
            _registry_run("i2_kernel_eq4", method, tier)
        picked, _ = bounds._fixed_proven(raw_fn("i2_kernel_eq4", tier).certificate(), tier, method)
        assert orders == list(picked) * 2

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_stops_at_the_first_estimate_within_tol(self, tier):
        # GL12's estimate against GL6 decides whether the ladder stops at
        # 12: it does with that estimate as tol, and not with half of it
        e12 = _ladder_run("ahmed_eq1", GaussLegendre(12), tier).error_estimate.to_float()
        at = _ladder_run("ahmed_eq1", GaussLegendre(96, e12), tier)
        assert at.converged and at.evaluations == 6 + 12
        below = _ladder_run("ahmed_eq1", GaussLegendre(96, 0.5 * e12), tier)
        assert below.converged and below.evaluations == 6 + 12 + 24

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_stops_early_on_the_chain(self, tier):
        # ahmed_eq1 converges below the cap at either tolerance
        tol = LADDER_TOLS[tier][-1]
        res = _ladder_run("ahmed_eq1", GaussLegendre(96, tol), tier)
        assert res.converged and res.evaluations < 6 + 12 + 24 + 48 + 96

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_eq3_spike_is_not_converged(self, tier):
        # at a = 1e-140 the kernel is a spike of width 1e-140 at x = 0:
        # GL16 gives 544 and GL8 144 (truth ~1.57e140), and the ladder
        # gives 18624 against 4704
        from ahmedquad.verify import default_config

        a = Real.from_float(1e-140, tier)
        for config in (EngineConfig(GaussLegendre(16), tier), default_config(tier)):
            res = integrate_1d("eq3_kernel", config=config, a=a)
            assert not res.converged, config
        res = integrate_1d(
            "eq3_kernel", config=EngineConfig(GaussLegendre(96, 1e-13), tier), a=a
        )
        assert not res.converged and res.evaluations == 6 + 12 + 24 + 48 + 96

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_fixed_order_flag(self, tier):
        # converged unless the half-order rule agrees on no leading digit
        unit = _unit(tier)
        one = Real.from_float(1.0, tier)
        ok = integrate_1d(lambda x: one, unit, EngineConfig(GaussLegendre(2), tier))
        assert ok.converged and ok.evaluations == 3
        step = integrate_1d(
            lambda x: 1.0 if x.hi > 0.7 else 0.0, unit, EngineConfig(GaussLegendre(4), tier)
        )
        # a step at 0.7: GL4 puts 0.174 of the weight beyond it, GL2 0.5
        assert not step.converged and step.evaluations == 6

    def test_tol_below_ten_eps_is_rejected(self):
        for tier in TIERS:
            EngineConfig(GaussLegendre(96, 10.0 * tier.eps), tier)
            for bad in (9.0 * tier.eps, 0.0, -1e-10, math.inf, math.nan):
                with pytest.raises(ConfigError):
                    EngineConfig(GaussLegendre(96, bad), tier)
        with pytest.raises(ConfigError):
            EngineConfig(GaussLegendre(96, 1e-26), Tier.NATIVE64)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_iterated_tightens_the_inner_tol(self, tier, monkeypatch):
        # every inner solve must meet a tenth of the outer tol
        from ahmedquad import quad

        tol = 1e-11 if tier is Tier.NATIVE64 else 1e-24
        methods = set()
        tensor = quad._tensor

        def recording(lane, f, box, method):
            methods.add(method)
            return tensor(lane, f, box, method)

        monkeypatch.setattr(quad, "_tensor", recording)
        config = EngineConfig(GaussLegendre(96, tol), tier)
        res = integrate_2d("i2_kernel_eq4", config=config, mode=Mode.ITERATED)
        assert methods == {GaussLegendre(96, tol), GaussLegendre(96, 0.1 * tol)}
        assert res.converged
        assert abs(sub(res.value, ref(I2_STR, tier)).to_float()) <= tol


# ----------------------------------------------------------------------
# Exactly rounded lane sums
# ----------------------------------------------------------------------


# (hi, lo) words whose exact sum, 2^-120, a running compensated or
# double-word sum loses to cancellation
_CANCELLING = [(1.0, 2.0**-60), (2.0**-120, 0.0), (-1.0, -(2.0**-60))]


def _random_words(n):
    rng = random.Random(20140801)
    words = []
    for _ in range(n):
        hi = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-80, 80)
        words.append((hi, rng.uniform(-0.5, 0.5) * math.ulp(hi)))
    return words


def test_the_integer_lane_runs_the_registry_1d_integrals_at_doubleword(monkeypatch):
    # the integer lane runs every registry integrand at DOUBLEWORD over its
    # own domain, in 1-D and 2-D, under every rule: Gauss-Legendre fixed,
    # ladder and proven, tanh-sinh (tensors too), Simpson and ITERATED;
    # eq3_kernel at |a| >= 1 on the integer lane of its value shift, which
    # differs from _FixedPoint in out alone. Callables and other domains
    # (eq3_kernel's too) run on the DOUBLEWORD tier's lane, the integer
    # lane of points and values at 2^-1266; NATIVE64 on its own
    calls = []
    hi = quad._FixedPoint.hi.__func__
    monkeypatch.setattr(quad._FixedPoint, "hi", classmethod(lambda cls, v: calls.append(cls) or hi(cls, v)))
    dd = Tier.DOUBLEWORD

    def on_own_lanes():
        return calls and all(c.point == 192 for c in calls)

    tensor_methods = (GaussLegendre(8), GaussLegendre(12, 1e-20), GaussLegendre(96, 1e-26), _pin_ts(dd, 3))
    for method in tensor_methods + (AdaptiveSimpson(1e-8),):
        config = EngineConfig(method, dd)
        for iid in ONE_D_IDS:
            calls.clear()
            integrate_1d(iid, config=config)
            integrate_1d(iid, domain_of(iid, dd)[0], config)
            assert on_own_lanes(), (iid, method)
            assert quad._own_lane(raw_fn(iid, dd), dd) == (quad._FixedPoint, raw_fn(iid, dd).fixed)
        for a in (0.75, 1.5):
            calls.clear()
            integrate_1d("eq3_kernel", config=config, a=Real.from_float(a, dd))
            assert on_own_lanes(), (a, method)
        for iid in TWO_D_IDS:
            assert quad._own_lane(raw_fn(iid, dd), dd) == (quad._FixedPoint, raw_fn(iid, dd).fixed)
            modes = (Mode.ITERATED,) if isinstance(method, AdaptiveSimpson) else (Mode.TENSOR, Mode.ITERATED)
            for mode in modes:
                calls.clear()
                integrate_2d(iid, config=config, mode=mode)
                integrate_2d(iid, domain_of(iid, dd), config, mode)
                assert on_own_lanes(), (iid, method, mode)
        calls.clear()
        half = Interval(Real.from_float(0.0, dd), Real.from_float(0.5, dd))
        integrate_1d("ahmed_eq1", half, config)
        integrate_1d(_lane_callable("ahmed_eq1", dd), _unit(dd), config)
        integrate_1d("eq3_kernel", half, config, Real.from_float(1.5, dd))
        mode = Mode.ITERATED if isinstance(method, AdaptiveSimpson) else Mode.TENSOR
        integrate_2d("i2_kernel_eq4", (half, _unit(dd)), config, mode)
        integrate_2d(_lane_callable("i2_kernel_eq4", dd), (_unit(dd), _unit(dd)), config, mode)
        assert calls and set(calls) == {quad._LANES[dd]}, method
        calls.clear()
    for a, out in ((0.75, 192), (1.5, 194)):
        fn = raw_fn("eq3_kernel", dd, Real.from_float(a, dd))
        lane, body = quad._own_lane(fn, dd)
        assert body is fn.fixed and issubclass(lane, quad._FixedPoint) and lane.out == out
        assert (lane is quad._FixedPoint) == (out == 192)
    assert quad._own_lane(fn, dd) == (lane, body)
    integrate_1d("ahmed_eq1", config=EngineConfig(GaussLegendre(8), Tier.NATIVE64))
    integrate_2d("i2_kernel_eq4", config=EngineConfig(GaussLegendre(8), Tier.NATIVE64))
    assert calls == []
    # one lane per tier; at DOUBLEWORD every pair is an exact int at 2^-1266
    assert quad._LANES == {Tier.NATIVE64: quad._Native, dd: quad._fixed_lane(1266, 1266)}
    assert quad._LANES[dd].point == quad._LANES[dd].out == 1074 + 192


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
@pytest.mark.parametrize(
    "words", [_CANCELLING, _random_words(300)], ids=["cancelling", "random"]
)
def test_lane_sums_are_exactly_rounded(tier, words):
    # the sum, tensor and pairs loops are fed terms w * f(p) of weight one
    # whose words are the given pairs (each word a term of its own at
    # NATIVE64); in either term order every total must be the exact sum
    # of the words rounded to the tier: hi, then what hi leaves. The
    # DOUBLEWORD lane takes each pair exactly, at 2^-1266, and rounds its
    # total once
    lane = quad._LANES[tier]
    exact = sum(Fraction(w) for pair in words for w in pair)
    hi = float(exact)
    if tier is Tier.NATIVE64:
        want, terms = hi, [w for pair in words for w in pair]
        one, node, index, result = 1.0, float, int, lambda v: v
    else:
        want, terms = (hi, float(exact - Fraction(hi))), [lane.pack(*pair) for pair in words]
        one, index = 1 << quad._W_SHIFT, lambda p: p >> lane.point
        node = lambda i: i << 192  # a node at the 2^-192 of the rule tables
        result = lambda v: (lane.real(v).hi, lane.real(v).lo)
    zero = lane.pack(0.0, 0.0)
    for order in (terms, terms[::-1]):

        def at(p, *_):
            # the term at point index p, zero at a negative point
            return order[index(p)] if p >= 0 else zero

        axis = [(lane.to_point(float(i), 0.0), one) for i in range(len(order))]
        assert result(lane.total(lane.sum(at, axis))) == want
        # one row of the tensor, through the parts of an integrand without
        # any: the points themselves and the integrand as its own join
        xpart, ypart, join = lane.parts(at)
        cols = quad._prepared(xpart, axis)
        rows = quad._prepared(ypart, [(lane.to_point(0.0, 0.0), one)])
        assert result(lane.total(lane.tensor(join, cols, rows))) == want
        # pairs about m = -1 with h = 1 evaluate at x - 1 and at -1 - x < 0
        xs = [node(i + 1) for i in range(len(order))]
        m, h = lane.to_point(-1.0, 0.0), lane.to_point(1.0, 0.0)
        assert result(lane.total(lane.pairs(at, m, h, xs, [one] * len(xs)))) == want


@pytest.mark.parametrize(
    "method",
    [GaussLegendre(8), GaussLegendre(24), TanhSinh(4, 1e-26), AdaptiveSimpson(1e-12)],
    ids=["gl8", "gl24", "ts4", "simpson"],
)
def test_a_doubleword_callable_is_its_exact_rule_rounded_once(method):
    # a rational callable's run at DOUBLEWORD, 1-D over [1, 2] and as a
    # tensor over [1, 2] x [1/2, 3], is the nearest pair to its exact rule:
    # the rule's exact weights times the callable's values at the lane's
    # points, each rounded once to the nearest pair, summed exactly. The
    # values are taken from exact Fractions, as Real's / and * round them
    mp = pytest.importorskip("mpmath")
    tier = Tier.DOUBLEWORD
    lane = quad._LANES[tier]
    one = Real.from_float(1.0, tier)

    def frac(p):  # a point, a pair, as a Fraction
        hi, lo = nearest_pair(p)
        return Fraction(hi) + Fraction(lo)

    def pair_mp(f):
        hi, lo = nearest_pair_of(f)
        return mp.mpf(hi) + lo

    def recip(x):  # 1/x, rounded once
        return pair_mp(1 / frac(x))

    def recip_prod(x, y):  # 1/(x y), its product and quotient each rounded once
        return pair_mp(1 / sum(map(Fraction, nearest_pair_of(frac(x) * frac(y)))))

    x_axis = Interval(Real.from_float(1.0, tier), Real.from_float(2.0, tier))
    y_axis = Interval(Real.from_float(0.5, tier), Real.from_float(3.0, tier))
    runs = [(lambda x: one / x, recip, (x_axis,))]
    if not isinstance(method, AdaptiveSimpson):
        runs.append((lambda x, y: one / (x * y), recip_prod, (x_axis, y_axis)))
    for fn, exact_f, domain in runs:
        config = EngineConfig(method, tier)
        res = integrate_1d(fn, domain[0], config) if len(domain) == 1 else integrate_2d(fn, domain, config)
        with mp.workprec(420):
            want, evals = exact_rule(lane, exact_f, quad._box(lane, domain), method)
            assert res.evaluations == evals
            assert (res.value.hi, res.value.lo) == nearest_pair(want), (len(domain), method)


# ----------------------------------------------------------------------
# Bit-for-bit pins of every engine path
# ----------------------------------------------------------------------

_PIN_TIERS = {"n": Tier.NATIVE64, "d": Tier.DOUBLEWORD}


def _pin_ts(tier, level):
    return TanhSinh(level, 1e-13 if tier is Tier.NATIVE64 else 1e-26)


def _pin_simpson(tier, native_tol, dd_tol):
    return AdaptiveSimpson(native_tol if tier is Tier.NATIVE64 else dd_tol)


def _pin_glp(tier):
    # proven Gauss-Legendre: a registry integrand over its own domain
    # runs the orders its certificate proves within tol
    return GaussLegendre(96, 1e-13 if tier is Tier.NATIVE64 else 1e-26)


def _pin_methods(tier):
    return {
        "gl8": GaussLegendre(8),
        "glp": _pin_glp(tier),
        "ts4": _pin_ts(tier, 4),
        "as": _pin_simpson(tier, 1e-8, 1e-12),
    }


def _pin_case(case):
    """A pinned case ``<tier>-<what>`` as ``(tier, integrand, method,
    mode)``: the integrand a registry id or a callable, the mode None in
    1-D, and the method the level count 5 for ts-fixed5."""
    t, what = case.split("-", 1)
    tier = _PIN_TIERS[t]
    kind, _, rest = what.partition(":")
    if kind == "ts-fixed5":
        return tier, "ahmed_eq1", 5, None
    if kind == "1d":
        method, iid = rest.split("@")
        return tier, iid, _pin_methods(tier)[method], None
    if kind == "float-callable":
        # plain floats back from the callable, at either tier
        return tier, _float_callable, _pin_methods(tier)[rest], None
    if kind == "real-callable-2d":
        method = GaussLegendre(8) if rest == "gl8" else _pin_ts(tier, 3)
        return tier, _real_callable_2d, method, Mode.TENSOR
    # <method> runs i2_kernel_eq4, <method>@<id> another 2-D integrand
    rest, _, iid = rest.partition("@")
    methods = {
        "gl8": GaussLegendre(8),
        "glp": _pin_glp(tier),
        "ts3": _pin_ts(tier, 3),
        "as": _pin_simpson(tier, 1e-6, 1e-8),
    }
    mode = Mode.TENSOR if kind == "tensor" else Mode.ITERATED
    return tier, iid or "i2_kernel_eq4", methods[rest], mode


def _pin_run(case):
    """Run one pinned case, named ``<tier>-<what>``."""
    tier, f, method, mode = _pin_case(case)
    if method == 5:
        return _integrate_1d_ts_fixed(f, 5, tier, 10.0 * tier.eps)
    config = EngineConfig(method, tier)
    if mode is not None:
        region = None if isinstance(f, str) else (_unit(tier), _unit(tier))
        return integrate_2d(f, region, config, mode)
    if not isinstance(f, str):
        return integrate_1d(f, _unit(tier), config)
    a = sqrt(Real.from_float(2.0, tier)) if f == "eq3_kernel" else None
    return integrate_1d(f, config=config, a=a)


def _float_callable(x):
    return 1.0 / (1.0 + x.hi * x.hi)


def _real_callable_2d(x, y):
    return x * y + Real.from_float(1.0, x.tier)


def _pin_replay(case):
    """The doubleword pinned case replayed at 420 bits by
    ``helpers.exact_rule``: its (value, evaluations)."""
    mp = pytest.importorskip("mpmath")
    tier, f, method, mode = _pin_case(case)
    root2 = sqrt(Real.from_float(2.0, tier))
    a = mp.fadd(root2.hi, root2.lo, exact=True)
    a2 = mp.fmul(a, a, exact=True)

    def ahmed(x):
        s = mp.sqrt(2 + x * x)
        return mp.atan(s) / ((1 + x * x) * s)

    registry = {
        "ahmed_eq1": ahmed,
        "i1_theta": lambda t: mp.pi / 2 * mp.cos(t) / mp.sqrt(2 - mp.sin(t) ** 2),
        "eq3_kernel": lambda x: 1 / (x * x + a2),
        "i2_kernel_eq4": lambda x, y: 1 / ((1 + x * x) * (2 + x * x + y * y)),
        "product_kernel_eq6a": lambda x, y: 1 / ((1 + x * x) * (1 + y * y)),
        "shifted_kernel_eq6b": lambda x, y: 1 / ((1 + y * y) * (2 + x * x + y * y)),
    }

    def of_reals(fn):
        # a callable's own value at each rounded point, exactly
        def g(*ps):
            r = fn(*(Real._raw(*nearest_pair(p), tier) for p in ps))
            return mp.mpf(r) if isinstance(r, float) else mp.mpf(r.hi) + r.lo

        return g

    if not isinstance(f, str):
        lane = quad._LANES[tier]
        box = quad._box(lane, (_unit(tier),) * (1 if mode is None else 2))
        return exact_rule(lane, of_reals(f), box, method)
    fn = raw_fn(f, tier, root2 if f == "eq3_kernel" else None)
    lane, _ = quad._own_lane(fn, tier)
    if isinstance(method, GaussLegendre) and method.tol is not None:
        method, _ = bounds._proven_rung(fn.certificate(), tier, method, quad._gl_rungs)
    return exact_rule(lane, registry[f], quad._own_box(f, tier), method, mode)


def _pin_of(res):
    return (
        res.value.hi.hex(),
        res.value.lo.hex(),
        res.error_estimate.hi.hex(),
        res.error_estimate.lo.hex(),
        res.evaluations,
        res.converged,
    )


PINNED = {
    'n-1d:gl8@ahmed_eq1': ('0x1.07307fd71fca2p-1', '0x0.0p+0', '0x1.fac4dce980000p-19', '0x0.0p+0', 12, True),
    'n-1d:gl8@i1_theta': ('0x1.a51a6625307c1p-1', '0x0.0p+0', '0x1.4771576000000p-25', '0x0.0p+0', 12, True),
    'n-1d:gl8@eq3_kernel': ('0x1.bda7a85bd37f0p-2', '0x0.0p+0', '0x1.68dbce7300000p-22', '0x0.0p+0', 12, True),
    'n-1d:glp@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '0x0.0p+0', '0x1.86c7bae4b9967p-47', '0x0.0p+0', 12, True),
    'n-1d:glp@i1_theta': ('0x1.a51a6625307d2p-1', '0x0.0p+0', '0x1.4d54ce0b3cbbfp-47', '0x0.0p+0', 9, True),
    'n-1d:glp@eq3_kernel': ('0x1.bda7a85bd40cap-2', '0x0.0p+0', '0x1.0ae5321601545p-48', '0x0.0p+0', 12, True),
    'n-1d:ts4@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '0x0.0p+0', '0x1.07307fd73e4e4p-51', '0x0.0p+0', 103, True),
    'n-1d:ts4@i1_theta': ('0x1.a51a6625307d4p-1', '0x0.0p+0', '0x1.a51a6625307d4p-51', '0x0.0p+0', 103, True),
    'n-1d:ts4@eq3_kernel': ('0x1.bda7a85bd40cap-2', '0x0.0p+0', '0x1.bda7a85bd40cap-52', '0x0.0p+0', 103, True),
    'n-1d:as@ahmed_eq1': ('0x1.07307fd7afab2p-1', '0x0.0p+0', '0x1.872cd9219999ap-29', '0x0.0p+0', 61, True),
    'n-1d:as@i1_theta': ('0x1.a51a662541db8p-1', '0x0.0p+0', '0x1.c0251d3555555p-29', '0x0.0p+0', 33, True),
    'n-1d:as@eq3_kernel': ('0x1.bda7a85c2af62p-2', '0x0.0p+0', '0x1.0eb039feaaaaap-28', '0x0.0p+0', 41, True),
    'n-tensor:gl8': ('0x1.3bd3cc9ba755dp-2', '0x0.0p+0', '0x1.fb5a88f500000p-19', '0x0.0p+0', 80, True),
    'n-tensor:glp': ('0x1.3bd3cc9be45dep-2', '0x0.0p+0', '0x1.17151cf6c7089p-46', '0x0.0p+0', 120, True),
    'n-tensor:glp@product_kernel_eq6a': ('0x1.3bd3cc9be45dfp-1', '0x0.0p+0', '0x1.9c97def0ae1d2p-46', '0x0.0p+0', 144, True),
    'n-tensor:glp@shifted_kernel_eq6b': ('0x1.3bd3cc9be45dep-2', '0x0.0p+0', '0x1.17151cf6c7089p-46', '0x0.0p+0', 120, True),
    'n-tensor:ts3': ('0x1.3bd3cc9be45dfp-2', '0x0.0p+0', '0x1.3768750000000p-29', '0x0.0p+0', 2601, False),
    'n-tensor:gl8@product_kernel_eq6a': ('0x1.3bd3cc9ba755dp-1', '0x0.0p+0', '0x1.fb5a88f500000p-18', '0x0.0p+0', 80, True),
    'n-tensor:gl8@shifted_kernel_eq6b': ('0x1.3bd3cc9ba755dp-2', '0x0.0p+0', '0x1.fb5a88f500000p-19', '0x0.0p+0', 80, True),
    'n-tensor:ts3@product_kernel_eq6a': ('0x1.3bd3cc9be45dfp-1', '0x0.0p+0', '0x1.3768750000000p-28', '0x0.0p+0', 2601, False),
    'n-tensor:ts3@shifted_kernel_eq6b': ('0x1.3bd3cc9be45dfp-2', '0x0.0p+0', '0x1.3768748000000p-29', '0x0.0p+0', 2601, False),
    'n-iterated:gl8': ('0x1.3bd3cc9ba755dp-2', '0x0.0p+0', '0x1.379b087200000p-18', '0x0.0p+0', 144, True),
    'n-iterated:ts3': ('0x1.3bd3cc9be45dfp-2', '0x0.0p+0', '0x1.76ff150000000p-29', '0x0.0p+0', 2601, False),
    'n-iterated:as': ('0x1.3bd4dcec1aa2fp-2', '0x0.0p+0', '0x1.83bf91258aaabp-22', '0x0.0p+0', 169, True),
    'n-float-callable:gl8': ('0x1.921fb5441bf6fp-1', '0x0.0p+0', '0x1.42fd8958c0000p-18', '0x0.0p+0', 12, True),
    'n-float-callable:ts4': ('0x1.921fb54442d19p-1', '0x0.0p+0', '0x1.921fb54442d19p-51', '0x0.0p+0', 103, True),
    'n-float-callable:as': ('0x1.921fb544d2d8fp-1', '0x0.0p+0', '0x1.ff57bd9000000p-29', '0x0.0p+0', 61, True),
    'n-real-callable-2d:gl8': ('0x1.4000000000000p+0', '0x0.0p+0', '0x1.4000000000000p-50', '0x0.0p+0', 80, True),
    'n-real-callable-2d:ts3': ('0x1.4000000000000p+0', '0x0.0p+0', '0x1.9b00000000000p-44', '0x0.0p+0', 2601, True),
    'n-ts-fixed5': ('0x1.07307fd73e4e4p-1', '0x0.0p+0', '0x1.07307fd73e4e4p-51', '0x0.0p+0', 205, True),
    'd-1d:gl8@ahmed_eq1': ('0x1.07307fd71fca2p-1', '-0x1.a888161591c85p-57', '0x1.fac4dce97db5bp-19', '0x0.0p+0', 12, True),
    'd-1d:gl8@i1_theta': ('0x1.a51a6625307c2p-1', '0x1.dfdfc745964c6p-55', '0x1.4771575fe3e72p-25', '0x0.0p+0', 12, True),
    'd-1d:gl8@eq3_kernel': ('0x1.bda7a85bd37f2p-2', '-0x1.47454669b34c5p-56', '0x1.68dbce72e7ca2p-22', '0x0.0p+0', 12, True),
    'd-1d:glp@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '-0x1.42de62952cecdp-58', '0x1.fd5b7c815294ep-91', '0x0.0p+0', 22, True),
    'd-1d:glp@i1_theta': ('0x1.a51a6625307d3p-1', '0x1.1873d89123b97p-56', '0x1.91c9baf3a4dfep-89', '0x0.0p+0', 16, True),
    'd-1d:glp@eq3_kernel': ('0x1.bda7a85bd40cbp-2', '0x1.e42d810fa7af3p-56', '0x1.00063e396012ap-100', '0x0.0p+0', 24, True),
    'd-1d:ts4@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '-0x1.42de62952afebp-58', '0x1.47791e0fd78a8p-60', '0x0.0p+0', 123, False),
    'd-1d:ts4@i1_theta': ('0x1.a51a6625307d3p-1', '0x1.1873d89122008p-56', '0x1.e72a2aa000000p-80', '0x0.0p+0', 123, False),
    'd-1d:ts4@eq3_kernel': ('0x1.bda7a85bd40cbp-2', '0x1.e42d810fa7af1p-56', '0x1.39dee07544800p-66', '0x0.0p+0', 123, False),
    'd-1d:as@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '0x1.214d900b42a90p-55', '0x1.bf8fa94032d42p-42', '0x0.0p+0', 589, True),
    'd-1d:as@i1_theta': ('0x1.a51a6625307d3p-1', '0x1.a420899843503p-55', '0x1.bebd9b01e1064p-41', '0x0.0p+0', 257, True),
    'd-1d:as@eq3_kernel': ('0x1.bda7a85bd40d1p-2', '-0x1.8918d3bde57a2p-57', '0x1.11d8e0d21ae06p-42', '0x0.0p+0', 453, True),
    'd-tensor:gl8': ('0x1.3bd3cc9ba755dp-2', '-0x1.db65ecf7dfc56p-60', '0x1.fb5a88f510c58p-19', '0x0.0p+0', 80, True),
    'd-tensor:glp': ('0x1.3bd3cc9be45dep-2', '0x1.692b71366bb72p-56', '0x1.3b0fdec39805bp-88', '0x0.0p+0', 396, True),
    'd-tensor:glp@product_kernel_eq6a': ('0x1.3bd3cc9be45dep-1', '0x1.692b71366c44ap-55', '0x1.4315488116ac1p-89', '0x0.0p+0', 484, True),
    'd-tensor:glp@shifted_kernel_eq6b': ('0x1.3bd3cc9be45dep-2', '0x1.692b71366bb72p-56', '0x1.3b0fdec39805bp-88', '0x0.0p+0', 396, True),
    'd-tensor:ts3': ('0x1.3bd3cc9be45dep-2', '0x1.54b36d526c839p-56', '0x1.3768745c3d1f7p-29', '0x0.0p+0', 3721, False),
    'd-tensor:gl8@product_kernel_eq6a': ('0x1.3bd3cc9ba755dp-1', '-0x1.db65ecf7dfc56p-59', '0x1.fb5a88f510c58p-18', '0x0.0p+0', 80, True),
    'd-tensor:gl8@shifted_kernel_eq6b': ('0x1.3bd3cc9ba755dp-2', '-0x1.db65ecf7dfc56p-60', '0x1.fb5a88f510c58p-19', '0x0.0p+0', 80, True),
    'd-tensor:ts3@product_kernel_eq6a': ('0x1.3bd3cc9be45dep-1', '0x1.54b36d526c839p-55', '0x1.3768745c3d1f7p-28', '0x0.0p+0', 3721, False),
    'd-tensor:ts3@shifted_kernel_eq6b': ('0x1.3bd3cc9be45dep-2', '0x1.54b36d526c839p-56', '0x1.3768745c3d1f7p-29', '0x0.0p+0', 3721, False),
    'd-iterated:gl8': ('0x1.3bd3cc9ba755dp-2', '-0x1.db65ecf7dfc56p-60', '0x1.379b087211193p-18', '0x0.0p+0', 144, True),
    'd-iterated:ts3': ('0x1.3bd3cc9be45dep-2', '0x1.54b36d526c839p-56', '0x1.76ff14de5afacp-29', '0x0.0p+0', 3721, False),
    'd-iterated:as': ('0x1.3bd3cc9c91811p-2', '0x1.f2c16b1ccb662p-56', '0x1.35aa45f027d1bp-28', '0x0.0p+0', 3693, True),
    'd-float-callable:gl8': ('0x1.921fb5441bf6fp-1', '-0x1.4e1be5bf99fc7p-56', '0x1.42fd8958d5b5cp-18', '0x0.0p+0', 12, True),
    'd-float-callable:ts4': ('0x1.921fb54442d18p-1', '0x1.c0c949bed8b18p-56', '0x1.4937830512eb8p-57', '0x0.0p+0', 123, False),
    'd-float-callable:as': ('0x1.921fb54442d19p-1', '-0x1.222d82d82d82ep-55', '0x1.077c1871c71c7p-41', '0x0.0p+0', 609, True),
    'd-real-callable-2d:gl8': ('0x1.4000000000000p+0', '-0x1.7a4e3a622d7ecp-112', '0x1.4000000000000p-102', '0x0.0p+0', 80, True),
    'd-real-callable-2d:ts3': ('0x1.4000000000000p+0', '0x1.9e03d75e4550ep-99', '0x1.9be6bc5336c90p-44', '0x0.0p+0', 3721, False),
    'd-ts-fixed5': ('0x1.07307fd73e4e4p-1', '-0x1.42de62952afe7p-58', '0x1.07307fd73e4e4p-103', '0x0.0p+0', 247, True),
}


@pytest.mark.parametrize("case", sorted(c for c in PINNED if c.startswith("d-")))
def test_doubleword_pins_are_their_exact_rules_rounded_once(case):
    # every doubleword pin is one rounding of an exact sum: the nearest
    # pair, so within 0.51 units of 2^-104 relative, to the same rule
    # (orders, levels or Simpson partition, and the lane's own points)
    # summed at 420 bits, with the same evaluations. The ITERATED replays
    # round each inner Gauss-Legendre and tanh-sinh value as the lane
    # does. A registry body floors its values at 2^-192, far below what
    # moves a rounding
    mp = pytest.importorskip("mpmath")
    res = _pin_run(case)
    want, evals = _pin_replay(case)
    assert evals == res.evaluations
    with mp.workprec(420):
        got = mp.mpf(res.value.hi) + res.value.lo
        assert abs(got - want) <= 0.51 * mp.ldexp(abs(want), -104), float((got - want) / want * 2**104)
        assert (res.value.hi, res.value.lo) == nearest_pair(want)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_engine_paths_pinned_bit_for_bit(case):
    # values captured from the engines before they were folded into one
    # core per rule; a one-ulp reordering anywhere shows here. A
    # doubleword pin is re-pinned only when its exact rule moves or it
    # comes closer to it: test_doubleword_pins_are_their_exact_rules_rounded_once
    # holds every doubleword pin within 0.51 units of 2^-104 of the same
    # rule summed at 420 bits, and CHANGES.md records each re-pinning,
    # old -> new, with its distance to that rule
    assert _pin_of(_pin_run(case)) == PINNED[case]

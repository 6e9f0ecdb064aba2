"""Quadrature engines: node tables, rule exactness, convergence,
error-estimate honesty, and configuration guards."""

import functools
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
    gl_nodes,
    integrate_1d,
    integrate_2d,
    mul,
    pi,
    sqrt,
    sub,
    tanh_sinh_abscissas,
)
from ahmedquad import quad, scalar
from ahmedquad.integrands import Interval
from ahmedquad.quad import _integrate_1d_ts_fixed, _ts_nodes
from helpers import (
    I1_STR,
    I2_STR,
    I_STR,
    PI_OVER_4_STR,
    TIER_IDS,
    TIERS,
    TWO_I2_STR,
    assert_ulps,
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
        for n in range(2, 129):
            t = gl_nodes(n, tier)
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
    # a lane value (a float, or an (hi, lo) pair) as the (hi, lo) of its Real
    return (v, 0.0) if isinstance(v, float) else tuple(v)


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
                xs, ws = _ts_nodes(k, tier)
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
        # same up to the exact factor h
        point = quad._ts_point_dd if tier is Tier.DOUBLEWORD else quad._ts_point_native
        for J in (64, 2048, 4096, 6144, 12288, 14336, 15360, 15552):
            seen = set()
            for level in range(1, 13):
                shift = 12 - level
                if J % (1 << shift):
                    continue
                h = 2.0**-level
                if tier is Tier.DOUBLEWORD:
                    hp2 = scalar._dd_scale2(*scalar._pi_pair(), 0.5 * h)
                else:
                    hp2 = 0.5 * math.pi * h
                x, w, _ = point(J, hp2)
                seen.add((_words(x), _words(_scaled(w, 1.0 / h))))
            assert len(seen) == 1, f"t = {J}/4096"

    def test_doubleword_nodes_against_mpmath(self):
        # every third node of every level: |dx| <= 2 units of 2^-104 and
        # the weight within (4u + 16) units relative, u = (pi/2) sinh t,
        # since an error of e in u moves 1/cosh^2 u by 2u e
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        unit = 2.0**-104
        for level in range(1, 13):
            xs, ws = _ts_nodes(level, Tier.DOUBLEWORD)
            h = mp.mpf(2) ** -level
            for i in range(0, len(xs), 3):
                t = (i if level == 1 else 2 * i + 1) * h
                u = mp.pi / 2 * mp.sinh(t)
                x = mp.tanh(u)
                w = mp.pi / 2 * h * mp.cosh(t) / mp.cosh(u) ** 2
                dx = abs(mp.mpf(xs[i][0]) + mp.mpf(xs[i][1]) - x) / unit
                dw = abs((mp.mpf(ws[i][0]) + mp.mpf(ws[i][1]) - w) / w) / unit
                assert dx <= 2, f"level {level}, t = {t}: x off by {float(dx):.3g} units"
                assert dw <= 4 * u + 16, f"level {level}, t = {t}: w off by {float(dw):.3g} units"

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

    def test_an_error_inside_the_domain_is_the_integrands_own(self):
        def broken(x):
            raise ZeroDivisionError("a bug in the integrand")

        with pytest.raises(ZeroDivisionError, match="a bug in the integrand"):
            integrate_1d(broken, _unit(Tier.NATIVE64), EngineConfig(GaussLegendre(8)))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_sum_that_overflows_is_not_finite(self, tier):
        # every evaluation is finite, but the weighted sums overflow, on
        # which math.fsum raises OverflowError
        huge = Real.from_float(1e308, tier)
        config = EngineConfig(GaussLegendre(8), tier)
        for integrate, domain, f in (
            (integrate_1d, _unit(tier), lambda x: huge),
            (integrate_2d, (_unit(tier), _unit(tier)), lambda x, y: huge),
        ):
            with pytest.raises(NonFiniteError, match="non-finite sum"):
                integrate(f, domain, config)

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


def _ladder_run(iid, method, tier):
    config = EngineConfig(method, tier)
    if iid in TWO_D_IDS:
        return integrate_2d(iid, config=config)
    a = sqrt(Real.from_float(2.0, tier)) if iid == "eq3_kernel" else None
    return integrate_1d(iid, config=config, a=a)


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


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
@pytest.mark.parametrize(
    "words", [_CANCELLING, _random_words(300)], ids=["cancelling", "random"]
)
def test_lane_sums_are_exactly_rounded(tier, words):
    # the sum, row and pairs loops are fed terms w * f(p) of weight one
    # whose words are the given pairs (each word a term of its own at
    # NATIVE64); in either term order every total must be the exact sum
    # of the words rounded to the tier: hi, then what hi leaves
    lane = quad._LANES[tier]
    exact = sum(Fraction(w) for pair in words for w in pair)
    hi = float(exact)
    if tier is Tier.NATIVE64:
        want, terms = hi, [w for pair in words for w in pair]
    else:
        want, terms = (hi, float(exact - Fraction(hi))), words
    one = lane.pack(1.0, 0.0)
    for order in (terms, terms[::-1]):

        def at(p, *_):
            # the term at point index p, zero at a negative point
            return order[int(p)] if p >= 0.0 else lane.zero

        axis = [(lane.pack(float(i), 0.0), one) for i in range(len(order))]
        assert lane.total(lane.sum(at, axis)) == want
        assert lane.row(at, axis, *lane.words(lane.zero)) == want
        # pairs about m = -1 with h = 1 evaluate at x - 1 and at -1 - x < 0
        xs = [lane.pack(float(i + 1), 0.0) for i in range(len(order))]
        m = lane.pack(-1.0, 0.0)
        assert lane.total(lane.pairs(at, m, one, xs, [one] * len(xs))) == want


# ----------------------------------------------------------------------
# Bit-for-bit pins of every engine path
# ----------------------------------------------------------------------

_PIN_TIERS = {"n": Tier.NATIVE64, "d": Tier.DOUBLEWORD}


def _pin_1d(tier, method, iid):
    a = sqrt(Real.from_float(2.0, tier)) if iid == "eq3_kernel" else None
    return integrate_1d(iid, config=EngineConfig(method, tier), a=a)


def _pin_ts(tier, level):
    return TanhSinh(level, 1e-13 if tier is Tier.NATIVE64 else 1e-26)


def _pin_simpson(tier, native_tol, dd_tol):
    return AdaptiveSimpson(native_tol if tier is Tier.NATIVE64 else dd_tol)


def _pin_methods(tier):
    return {
        "gl8": GaussLegendre(8),
        "ts4": _pin_ts(tier, 4),
        "as": _pin_simpson(tier, 1e-8, 1e-12),
    }


def _pin_run(case):
    """Run one pinned case, named ``<tier>-<what>``."""
    t, what = case.split("-", 1)
    tier = _PIN_TIERS[t]
    unit = _unit(tier)
    kind, _, rest = what.partition(":")
    if kind == "1d":
        method, iid = rest.split("@")
        return _pin_1d(tier, _pin_methods(tier)[method], iid)
    if kind in ("tensor", "iterated"):
        methods = {
            "gl8": GaussLegendre(8),
            "ts3": _pin_ts(tier, 3),
            "as": _pin_simpson(tier, 1e-6, 1e-8),
        }
        mode = Mode.TENSOR if kind == "tensor" else Mode.ITERATED
        return integrate_2d(
            "i2_kernel_eq4", config=EngineConfig(methods[rest], tier), mode=mode
        )
    if kind == "float-callable":
        # plain floats back from the callable, at either tier
        return integrate_1d(
            lambda x: 1.0 / (1.0 + x.hi * x.hi),
            unit,
            EngineConfig(_pin_methods(tier)[rest], tier),
        )
    if kind == "real-callable-2d":
        return integrate_2d(
            lambda x, y: x * y + Real.from_float(1.0, tier),
            (unit, unit),
            EngineConfig(GaussLegendre(8) if rest == "gl8" else _pin_ts(tier, 3), tier),
        )
    assert kind == "ts-fixed5"
    return _integrate_1d_ts_fixed("ahmed_eq1", 5, tier, 10.0 * tier.eps)


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
    'n-1d:gl8@ahmed_eq1': ('0x1.07307fd71fca2p-1', '0x0.0p+0', '0x1.fac4dce940000p-19', '0x0.0p+0', 12, True),
    'n-1d:gl8@i1_theta': ('0x1.a51a6625307c1p-1', '0x0.0p+0', '0x1.4771576000000p-25', '0x0.0p+0', 12, True),
    'n-1d:gl8@eq3_kernel': ('0x1.bda7a85bd37f0p-2', '0x0.0p+0', '0x1.68dbce7200000p-22', '0x0.0p+0', 12, True),
    'n-1d:ts4@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '0x0.0p+0', '0x1.07307fd73e4e4p-51', '0x0.0p+0', 103, True),
    'n-1d:ts4@i1_theta': ('0x1.a51a6625307d4p-1', '0x0.0p+0', '0x1.a51a6625307d4p-51', '0x0.0p+0', 103, True),
    'n-1d:ts4@eq3_kernel': ('0x1.bda7a85bd40cap-2', '0x0.0p+0', '0x1.bda7a85bd40cap-52', '0x0.0p+0', 103, True),
    'n-1d:as@ahmed_eq1': ('0x1.07307fd7afab2p-1', '0x0.0p+0', '0x1.872cd9219999ap-29', '0x0.0p+0', 61, True),
    'n-1d:as@i1_theta': ('0x1.a51a662541db8p-1', '0x0.0p+0', '0x1.c0251d3555555p-29', '0x0.0p+0', 33, True),
    'n-1d:as@eq3_kernel': ('0x1.bda7a85c2af62p-2', '0x0.0p+0', '0x1.0eb039feaaaaap-28', '0x0.0p+0', 41, True),
    'n-tensor:gl8': ('0x1.3bd3cc9ba755dp-2', '0x0.0p+0', '0x1.fb5a88f4e0000p-19', '0x0.0p+0', 80, True),
    'n-tensor:ts3': ('0x1.3bd3cc9be45dfp-2', '0x0.0p+0', '0x1.3768750000000p-29', '0x0.0p+0', 2601, False),
    'n-iterated:gl8': ('0x1.3bd3cc9ba755dp-2', '0x0.0p+0', '0x1.379b087200000p-18', '0x0.0p+0', 144, True),
    'n-iterated:ts3': ('0x1.3bd3cc9be45dfp-2', '0x0.0p+0', '0x1.76ff150000000p-29', '0x0.0p+0', 2601, False),
    'n-iterated:as': ('0x1.3bd4dcec1aa2fp-2', '0x0.0p+0', '0x1.83bf91258aaabp-22', '0x0.0p+0', 169, True),
    'n-float-callable:gl8': ('0x1.921fb5441bf6fp-1', '0x0.0p+0', '0x1.42fd8958a0000p-18', '0x0.0p+0', 12, True),
    'n-float-callable:ts4': ('0x1.921fb54442d19p-1', '0x0.0p+0', '0x1.921fb54442d19p-51', '0x0.0p+0', 103, True),
    'n-float-callable:as': ('0x1.921fb544d2d8fp-1', '0x0.0p+0', '0x1.ff57bd9000000p-29', '0x0.0p+0', 61, True),
    'n-real-callable-2d:gl8': ('0x1.4000000000000p+0', '0x0.0p+0', '0x1.4000000000000p-50', '0x0.0p+0', 80, True),
    'n-real-callable-2d:ts3': ('0x1.4000000000000p+0', '0x0.0p+0', '0x1.9b00000000000p-44', '0x0.0p+0', 2601, True),
    'n-ts-fixed5': ('0x1.07307fd73e4e4p-1', '0x0.0p+0', '0x1.07307fd73e4e4p-51', '0x0.0p+0', 205, True),
    'd-1d:gl8@ahmed_eq1': ('0x1.07307fd71fca2p-1', '-0x1.a888161591c81p-57', '0x1.fac4dce97db5bp-19', '0x0.0p+0', 12, True),
    'd-1d:gl8@i1_theta': ('0x1.a51a6625307c2p-1', '0x1.dfdfc745964c8p-55', '0x1.4771575fe3e72p-25', '0x0.0p+0', 12, True),
    'd-1d:gl8@eq3_kernel': ('0x1.bda7a85bd37f2p-2', '-0x1.47454669b34bep-56', '0x1.68dbce72e7ca2p-22', '0x0.0p+0', 12, True),
    'd-1d:ts4@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '-0x1.42de62952afe8p-58', '0x1.47791e0fd78a4p-60', '0x0.0p+0', 123, False),
    'd-1d:ts4@i1_theta': ('0x1.a51a6625307d3p-1', '0x1.1873d8912200cp-56', '0x1.e72a2a8000000p-80', '0x0.0p+0', 123, False),
    'd-1d:ts4@eq3_kernel': ('0x1.bda7a85bd40cbp-2', '0x1.e42d810fa7af7p-56', '0x1.39dee07544800p-66', '0x0.0p+0', 123, False),
    'd-1d:as@ahmed_eq1': ('0x1.07307fd73e4e4p-1', '0x1.214d900b42a90p-55', '0x1.bf8fa94032d42p-42', '0x0.0p+0', 589, True),
    'd-1d:as@i1_theta': ('0x1.a51a6625307d3p-1', '0x1.a420899843504p-55', '0x1.bebd9b01e1064p-41', '0x0.0p+0', 257, True),
    'd-1d:as@eq3_kernel': ('0x1.bda7a85bd40d1p-2', '-0x1.8918d3bde5798p-57', '0x1.11d8e0d21ae06p-42', '0x0.0p+0', 453, True),
    'd-tensor:gl8': ('0x1.3bd3cc9ba755dp-2', '-0x1.db65ecf7dfc2dp-60', '0x1.fb5a88f510c58p-19', '0x0.0p+0', 80, True),
    'd-tensor:ts3': ('0x1.3bd3cc9be45dep-2', '0x1.54b36d526c83bp-56', '0x1.3768745c3d1f7p-29', '0x0.0p+0', 3721, False),
    'd-iterated:gl8': ('0x1.3bd3cc9ba755dp-2', '-0x1.db65ecf7dfc2dp-60', '0x1.379b087211193p-18', '0x0.0p+0', 144, True),
    'd-iterated:ts3': ('0x1.3bd3cc9be45dep-2', '0x1.54b36d526c83ap-56', '0x1.76ff14de5afacp-29', '0x0.0p+0', 3721, False),
    'd-iterated:as': ('0x1.3bd3cc9c91811p-2', '0x1.f2c16b1ccb662p-56', '0x1.35aa45f027d1bp-28', '0x0.0p+0', 3693, True),
    'd-float-callable:gl8': ('0x1.921fb5441bf6fp-1', '-0x1.4e1be5bf99fc5p-56', '0x1.42fd8958d5b5cp-18', '0x0.0p+0', 12, True),
    'd-float-callable:ts4': ('0x1.921fb54442d18p-1', '0x1.c0c949bed8b19p-56', '0x1.4937830512eb8p-57', '0x0.0p+0', 123, False),
    'd-float-callable:as': ('0x1.921fb54442d19p-1', '-0x1.222d82d82d82ep-55', '0x1.077c1871c71c7p-41', '0x0.0p+0', 609, True),
    'd-real-callable-2d:gl8': ('0x1.4000000000000p+0', '0x1.f000000000000p-106', '0x1.4000000000000p-102', '0x0.0p+0', 80, True),
    'd-real-callable-2d:ts3': ('0x1.4000000000000p+0', '0x1.a0a8cbfe27cd8p-99', '0x1.9be6bc5336c90p-44', '0x0.0p+0', 3721, False),
    'd-ts-fixed5': ('0x1.07307fd73e4e4p-1', '-0x1.42de62952afe4p-58', '0x1.07307fd73e4e4p-103', '0x0.0p+0', 247, True),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_engine_paths_pinned_bit_for_bit(case):
    # values captured from the engines before they were folded into one
    # core per rule; a one-ulp reordering anywhere shows here. The three
    # doubleword ahmed_eq1 cases d-1d:as, d-1d:ts4 and d-ts-fixed5 were
    # re-pinned when double-word atan became table-driven: their values
    # moved in the last bits (under 2^-104 relative), with evaluation
    # counts and convergence flags unchanged. The eight doubleword
    # tanh-sinh cases (ts3, ts4, ts-fixed5) were re-pinned when the node
    # tables moved to step tables and a table-driven exp: each value
    # moved by under 2^-100 relative, toward the exact-arithmetic sum of
    # the same rule, with counts and flags unchanged. Ten doubleword cases
    # were re-pinned when the lane sums became exactly rounded with
    # math.fsum in place of a chunked double-word accumulator: only low
    # words moved (and with them one tanh-sinh estimate), each by under
    # half a unit of 2^-104 relative, toward the exact sum of the same
    # terms; the native sums, compensated before, already rounded exactly.
    # The doubleword ahmed_eq1 cases d-1d:as, d-1d:gl8 and d-1d:ts4 were
    # re-pinned when atan above 1 came to reduce with one division against
    # a table of atan(64/k) and its Horner steps were inlined: the atan
    # values moved by under 2 units of 2^-104, and these sums by one or
    # two low-word ulps (and with them the ts4 estimate), each by under
    # a quarter of a unit of 2^-104 relative, with counts and flags
    # unchanged. Ten doubleword cases were re-pinned when pi and the atan
    # and tanh-sinh step tables became the nearest double-word pairs,
    # rounded once from fixed-point integers: each value moved by under
    # 1 unit of 2^-104 relative, with counts and flags unchanged
    assert _pin_of(_pin_run(case)) == PINNED[case]

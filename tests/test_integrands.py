"""Integrand registry: frozen point values, closed forms, and the
pointwise identities that drive the verification chain."""

import gc
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest

from ahmedquad import (
    ConfigError,
    DomainError,
    EngineConfig,
    GaussLegendre,
    Real,
    Tier,
    TierMismatchError,
    closed_form,
    closed_form_of,
    cos,
    div,
    domain_of,
    eval_integrand,
    ids,
    integrate_1d,
    mul,
    pi,
    sin,
    sub,
)
from ahmedquad import quad
from ahmedquad.integrands import Interval, get, raw_fn
from ahmedquad.scalar import _fixed_from_pair, _pair_from_ratio, _two_sum
from ahmedquad.verify import seeded_a_values
from helpers import (
    AHMED_AT_0_STR,
    AHMED_AT_1_STR,
    AHMED_AT_THIRD_STR,
    I1_STR,
    I1THETA_AT_PI8_STR,
    I1X_AT_THIRD_STR,
    I2_STR,
    I2X_AT_THIRD_STR,
    I_STR,
    PI_OVER_2_STR,
    TIER_IDS,
    TIERS,
    TWO_I2_STR,
    assert_ulps,
    grid_257,
    ref,
    rel_err,
    seeded_floats,
)

ALL_IDS = (
    "ahmed_eq1",
    "i1_x",
    "i1_theta",
    "i1_phi",
    "i2_x",
    "i2_kernel_eq4",
    "product_kernel_eq6a",
    "shifted_kernel_eq6b",
    "eq3_kernel",
)


def _eval(integrand_id, tier, *coords, a=None):
    pt = [Real.from_float(c, tier) if isinstance(c, float) else c for c in coords]
    return eval_integrand(integrand_id, pt[0] if len(pt) == 1 else pt, a=a)


class TestRegistry:
    def test_ids_complete(self):
        assert ids() == ALL_IDS

    def test_entries(self):
        assert get("ahmed_eq1").dim == 1
        assert get("i2_kernel_eq4").dim == 2
        assert get("eq3_kernel").parametric
        assert not get("ahmed_eq1").parametric
        assert get("product_kernel_eq6a").closed_form_name == "TWO_I2"
        assert get("eq3_kernel").closed_form_name is None

    def test_interval_endpoints_checked(self):
        native = Real.from_float(0.0, Tier.NATIVE64)
        dd = Real.from_float(1.0, Tier.DOUBLEWORD)
        with pytest.raises(TierMismatchError, match="different tiers"):
            Interval(native, dd)
        for tier in TIERS:
            lo, hi = Real.from_float(0.0, tier), Real.from_float(1.0, tier)
            with pytest.raises(ConfigError, match="out of order"):
                Interval(hi, lo)
            assert Interval(lo, lo).degenerate

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            get("nosuch")
        with pytest.raises(ConfigError):
            domain_of("nosuch", Tier.NATIVE64)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_domains(self, tier):
        for iid in ("ahmed_eq1", "i1_x", "i2_x", "eq3_kernel"):
            (iv,) = domain_of(iid, tier)
            assert iv.lower.to_float() == 0.0 and iv.upper.to_float() == 1.0
        (iv,) = domain_of("i1_theta", tier)
        assert_ulps(iv.upper, mul(pi(tier), Real.from_float(0.25, tier)), 1)
        (iv,) = domain_of("i1_phi", tier)
        assert_ulps(iv.upper, div(pi(tier), Real.from_float(6.0, tier)), 1)
        square = domain_of("i2_kernel_eq4", tier)
        assert len(square) == 2
        for iv in square:
            assert iv.lower.to_float() == 0.0 and iv.upper.to_float() == 1.0


    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_domains_built_once(self, tier):
        for iid in ALL_IDS:
            assert domain_of(iid, tier) is domain_of(iid, tier)
        (iv,) = domain_of("i1_theta", tier)
        assert iv.lower == Real.from_float(0.0, tier)
        assert iv.upper == pi(tier) * Real.from_float(0.25, tier)
        (iv,) = domain_of("i1_phi", tier)
        assert iv.upper == pi(tier) / Real.from_float(6.0, tier)
        for iid in ("ahmed_eq1", "i2_kernel_eq4"):
            for iv in domain_of(iid, tier):
                assert iv == Interval.unit(tier)
        with pytest.raises(ConfigError):
            domain_of("nosuch", tier)

    def test_i1_theta_past_the_sine_domain(self):
        # the doubleword lane takes its sine and cosine from the reduction
        # that sin and cos use, which holds |t| <= 2^10: over [0, 2000]
        # the native lane integrates and the doubleword one raises,
        # naming a point past 2^10 where the lane raises
        def run(tier):
            wide = Interval(Real.from_float(0.0, tier), Real.from_float(2000.0, tier))
            return integrate_1d("i1_theta", wide, EngineConfig(GaussLegendre(8), tier))

        assert run(Tier.NATIVE64).value.hi == -2.877230096656115
        with pytest.raises(DomainError, match=r"2\^10") as exc_info:
            run(Tier.DOUBLEWORD)
        (t,) = exc_info.value.point
        assert 1024.0 < t < 2000.0
        with pytest.raises(DomainError, match=r"2\^10"):
            raw_fn("i1_theta", Tier.DOUBLEWORD)(t, 0.0)


class TestClosedForms:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_values_against_frozen_digits(self, tier):
        for name, text in (
            ("I", I_STR),
            ("I1", I1_STR),
            ("I2", I2_STR),
            ("TWO_I2", TWO_I2_STR),
        ):
            assert rel_err(closed_form(name, tier), ref(text, tier)) <= 8 * tier.eps

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_exact_registry_identities(self, tier):
        # the registry computes I as I1 - I2 and TWO_I2 as 2*I2, so these
        # hold bitwise, not merely to tolerance
        i = closed_form("I", tier)
        assert i == sub(closed_form("I1", tier), closed_form("I2", tier))
        two = closed_form("TWO_I2", tier)
        assert two == mul(Real.from_float(2.0, tier), closed_form("I2", tier))

    def test_ordering(self):
        for tier in TIERS:
            i = closed_form("I", tier)
            i1 = closed_form("I1", tier)
            i2 = closed_form("I2", tier)
            zero = Real.from_float(0.0, tier)
            assert zero < i and zero < i1 and zero < i2
            assert i < i1 and i2 < i1

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            closed_form("I3", Tier.NATIVE64)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_closed_form_of(self, tier):
        assert closed_form_of("ahmed_eq1", tier) == closed_form("I", tier)
        assert closed_form_of("i1_theta", tier) == closed_form("I1", tier)
        assert closed_form_of("eq3_kernel", tier) is None


class TestPointValues:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_frozen_samples(self, tier):
        third = div(Real.from_float(1.0, tier), Real.from_float(3.0, tier))
        eighth_pi = mul(pi(tier), Real.from_float(0.125, tier))
        cases = [
            (_eval("ahmed_eq1", tier, 0.0), AHMED_AT_0_STR),
            (_eval("ahmed_eq1", tier, 1.0), AHMED_AT_1_STR),
            (eval_integrand("ahmed_eq1", third), AHMED_AT_THIRD_STR),
            (eval_integrand("i1_x", third), I1X_AT_THIRD_STR),
            (eval_integrand("i1_theta", eighth_pi), I1THETA_AT_PI8_STR),
            (eval_integrand("i2_x", third), I2X_AT_THIRD_STR),
        ]
        for got, text in cases:
            assert rel_err(got, ref(text, tier)) <= 16 * tier.eps

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_constant_lane(self, tier):
        # i1_phi is the constant pi/2 everywhere on its domain
        half_pi = ref(PI_OVER_2_STR, tier)
        (iv,) = domain_of("i1_phi", tier)
        for frac in (0.0, 0.25, 1.0):
            phi = mul(iv.upper, Real.from_float(frac, tier))
            assert_ulps(eval_integrand("i1_phi", phi), half_pi, 4, "i1_phi")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_trivial_2d_values(self, tier):
        half = _eval("i2_kernel_eq4", tier, 0.0, 0.0)
        assert half.to_float() == 0.5
        quarter = _eval("product_kernel_eq6a", tier, 1.0, 1.0)
        assert quarter.to_float() == 0.25
        # 1/((1+1/4)(2+1/4+1/16)) = 64/185
        got = _eval("i2_kernel_eq4", tier, 0.5, 0.25)
        want = div(Real.from_float(64.0, tier), Real.from_float(185.0, tier))
        assert_ulps(got, want, 8, "eq4(1/2, 1/4)")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_eq3_parametric_values(self, tier):
        one = Real.from_float(1.0, tier)
        a = Real.from_float(2.0, tier)
        got = _eval("eq3_kernel", tier, 0.0, a=a)
        assert_ulps(got, Real.from_float(0.25, tier), 4, "eq3(0; a=2)")
        got = _eval("eq3_kernel", tier, 1.0, a=one)
        assert_ulps(got, Real.from_float(0.5, tier), 4, "eq3(1; a=1)")
        # negative a enters through a^2 only
        neg = _eval("eq3_kernel", tier, 0.5, a=-a)
        pos = _eval("eq3_kernel", tier, 0.5, a=a)
        assert neg == pos

    def test_eq3_parameter_errors(self):
        t = Tier.NATIVE64
        x = Real.from_float(0.5, t)
        with pytest.raises(ConfigError):
            eval_integrand("eq3_kernel", x)  # a missing
        with pytest.raises(DomainError):
            eval_integrand("eq3_kernel", x, a=Real.from_float(0.0, t))
        with pytest.raises(ConfigError):
            eval_integrand("ahmed_eq1", x, a=Real.from_float(1.0, t))
        with pytest.raises(TierMismatchError):
            raw_fn("eq3_kernel", t, Real.from_float(1.0, Tier.DOUBLEWORD))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("a", [1e-170, 1e-160, 1e200])
    def test_eq3_rejects_a_squared_out_of_range(self, tier, a):
        # a^2 underflows (1e-170, 1e-160) or overflows (1e200) binary64;
        # GL16 used to return 544 +- 400, converged, for the small ones
        config = EngineConfig(GaussLegendre(16), tier)
        for sign in (1.0, -1.0):
            with pytest.raises(DomainError):
                integrate_1d("eq3_kernel", config=config, a=Real.from_float(sign * a, tier))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_eq3_accepts_a_squared_in_range(self, tier):
        config = EngineConfig(GaussLegendre(16), tier)
        small = integrate_1d("eq3_kernel", config=config, a=Real.from_float(1e-140, tier))
        assert 0.0 < small.value.to_float() < math.inf
        for a in seeded_a_values(tier):
            got = integrate_1d("eq3_kernel", config=config, a=a).value.to_float()
            want = math.atan(1.0 / a.to_float()) / a.to_float()
            assert abs(got - want) <= 1e-12 * want

    def test_eq3_doubleword_needs_a_normal_low_word(self):
        # a^2 = 1e-300 is a normal binary64 value, but below 2^-969 the low
        # word of the double-word square is subnormal
        a = 1e-150
        config = EngineConfig(GaussLegendre(16), Tier.NATIVE64)
        integrate_1d("eq3_kernel", config=config, a=Real.from_float(a, Tier.NATIVE64))
        config = EngineConfig(GaussLegendre(16), Tier.DOUBLEWORD)
        with pytest.raises(DomainError):
            integrate_1d("eq3_kernel", config=config, a=Real.from_float(a, Tier.DOUBLEWORD))

    def test_point_validation(self):
        t = Tier.NATIVE64
        with pytest.raises(DomainError):
            eval_integrand("ahmed_eq1", Real.from_float(1.5, t))
        with pytest.raises(DomainError):
            eval_integrand("ahmed_eq1", Real.from_float(-0.1, t))
        with pytest.raises(ConfigError):
            eval_integrand("i2_kernel_eq4", Real.from_float(0.5, t))
        with pytest.raises(ConfigError):
            eval_integrand(
                "ahmed_eq1", [Real.from_float(0.5, t), Real.from_float(0.5, t)]
            )
        with pytest.raises(TierMismatchError):
            eval_integrand(
                "i2_kernel_eq4",
                [Real.from_float(0.5, t), Real.from_float(0.5, Tier.DOUBLEWORD)],
            )
        # a float point, or a float among the coordinates, used to escape
        # as a raw TypeError or AttributeError
        for iid, point in [("ahmed_eq1", 0.5), ("ahmed_eq1", [0.5]), ("i2_kernel_eq4", (0.5, 0.5))]:
            with pytest.raises(ConfigError, match="coordinates must be Real"):
                eval_integrand(iid, point)

    def test_raw_fn_cached(self):
        assert raw_fn("ahmed_eq1", Tier.NATIVE64) is raw_fn("ahmed_eq1", Tier.NATIVE64)
        assert raw_fn("ahmed_eq1", Tier.DOUBLEWORD) is raw_fn(
            "ahmed_eq1", Tier.DOUBLEWORD
        )

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_parametric_lane_is_collected_after_the_call(self, tier, monkeypatch):
        # every eq3 sample draws a new a; the lane made for it must not
        # outlive the integration, or memory grows with the samples
        refs = []

        def spy(*args):
            fn = raw_fn(*args)
            refs.append(weakref.ref(fn))
            return fn

        monkeypatch.setattr(quad, "raw_fn", spy)
        config = EngineConfig(GaussLegendre(16), tier)
        integrate_1d("eq3_kernel", config=config, a=Real.from_float(0.75, tier))
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None


def _points_01():
    return grid_257() + seeded_floats(64)


class TestPointwiseIdentities:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_split_identity(self, tier):
        # arctan z = pi/2 - arctan(1/z) under the common prefactor
        for v in _points_01():
            x = Real.from_float(v, tier)
            lhs = eval_integrand("ahmed_eq1", x)
            rhs = sub(eval_integrand("i1_x", x), eval_integrand("i2_x", x))
            assert_ulps(lhs, rhs, 16, f"split at x={v}")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_substitution_identity(self, tier):
        # I1_X(tan t) * sec^2 t = I1_THETA(t) on [0, pi/4)
        (iv,) = domain_of("i1_theta", tier)
        f_x = raw_fn("i1_x", tier)
        one = Real.from_float(1.0, tier)
        fracs = [i / 256 for i in range(256)] + seeded_floats(64)
        for frac in fracs:
            t = mul(iv.upper, Real.from_float(frac, tier))
            c = cos(t)
            x = div(sin(t), c)
            sec2 = div(one, mul(c, c))
            if tier is Tier.NATIVE64:
                fx = Real.from_float(f_x(x.hi), tier)
            else:
                fx = Real(*f_x(x.hi, x.lo), tier)
            lhs = mul(fx, sec2)
            rhs = eval_integrand("i1_theta", t)
            assert_ulps(lhs, rhs, 16, f"substitution at frac={frac}")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_symmetry_identity(self, tier):
        pts = [(i / 16, j / 16) for i in range(17) for j in range(17)]
        rnd = seeded_floats(128)
        pts += list(zip(rnd[::2], rnd[1::2]))
        for u, v in pts:
            x = Real.from_float(u, tier)
            y = Real.from_float(v, tier)
            lhs = eval_integrand("i2_kernel_eq4", [x, y])
            rhs = eval_integrand("shifted_kernel_eq6b", [y, x])
            assert_ulps(lhs, rhs, 8, f"symmetry at ({u}, {v})")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_partial_fraction_identity(self, tier):
        # eq4 kernel = product kernel - shifted kernel, pointwise
        pts = [(i / 16, j / 16) for i in range(17) for j in range(17)]
        rnd = seeded_floats(128)
        pts += list(zip(rnd[::2], rnd[1::2]))
        for u, v in pts:
            x = Real.from_float(u, tier)
            y = Real.from_float(v, tier)
            lhs = eval_integrand("i2_kernel_eq4", [x, y])
            rhs = sub(
                eval_integrand("product_kernel_eq6a", [x, y]),
                eval_integrand("shifted_kernel_eq6b", [x, y]),
            )
            assert_ulps(lhs, rhs, 16, f"partial fraction at ({u}, {v})")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_diagonal_grid_finite_and_positive(self, tier):
        zero = Real.from_float(0.0, tier)
        for v in grid_257():
            x = Real.from_float(v, tier)
            for iid in ("ahmed_eq1", "i1_x", "i2_x"):
                assert zero < eval_integrand(iid, x)
            assert zero < eval_integrand("i2_kernel_eq4", [x, x])


# ----------------------------------------------------------------------
# Axis-factored 2-D lanes
# ----------------------------------------------------------------------
# Each native 2-D lane is an x-part, a y-part and a join, and the tensor
# cores call the join alone at each point. The reference is each kernel
# as one plain formula, in the operation order the engines' pins were
# taken with; a regrouped sum or product moves the last bits. The
# double-word lanes round their integer bodies once, and are held to the
# exact values below.


def _native_eq4(x, y):
    x2 = x * x
    return 1.0 / ((1.0 + x2) * (2.0 + x2 + y * y))


def _native_eq6a(x, y):
    return 1.0 / ((1.0 + x * x) * (1.0 + y * y))


def _native_eq6b(x, y):
    y2 = y * y
    return 1.0 / ((1.0 + y2) * (2.0 + x * x + y2))


PLAIN_2D = {
    "i2_kernel_eq4": _native_eq4,
    "product_kernel_eq6a": _native_eq6a,
    "shifted_kernel_eq6b": _native_eq6b,
}


def test_factored_lanes_equal_the_plain_formulas_word_for_word():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coord = st.floats(min_value=0.0, max_value=1.0)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(coord, coord)
    def check(x, y):
        for iid, formula in PLAIN_2D.items():
            lane = raw_fn(iid, Tier.NATIVE64)
            xpart, ypart, join = lane.parts
            want = formula(x, y)
            assert join(xpart(x), ypart(y)) == want, (iid, x, y)
            assert lane(x, y) == want, (iid, x, y)

    check()


# ----------------------------------------------------------------------
# The double-word 2-D and eq3 lanes against exact Fractions
# ----------------------------------------------------------------------

EXACT_2D = {
    "i2_kernel_eq4": lambda x, y: 1 / ((1 + x * x) * (2 + x * x + y * y)),
    "product_kernel_eq6a": lambda x, y: 1 / ((1 + x * x) * (1 + y * y)),
    "shifted_kernel_eq6b": lambda x, y: 1 / ((1 + y * y) * (2 + x * x + y * y)),
}


def _exact_nearest(v: Fraction) -> tuple[float, float]:
    # the double-word nearest to an exact value: Fraction's float()
    # rounds correctly
    hi = float(v)
    return hi, float(v - Fraction(hi))


def _seeded_word(rng, k):
    # a positive double-word with its high word in [2^k, 2^(k+1)) and a
    # random low word
    hi = rng.uniform(1.0, 2.0) * 2.0**k
    return _two_sum(hi, rng.uniform(-0.5, 0.5) * math.ulp(hi))


def _exact(word) -> Fraction:
    return Fraction(word[0]) + Fraction(word[1])


def _units(pair, want: Fraction) -> float:
    # the relative error of a pair in units of 2^-104
    return float(abs(_exact(pair) - want) / want * 2**104)


@pytest.mark.parametrize("iid", list(EXACT_2D))
class TestIntegerLanes2D:
    def test_nearest_pair_on_seeded_coordinates(self, iid):
        # coordinates in [2^-3, 2), each with a low word
        rng = random.Random(0x2D0E)
        lane, exact = raw_fn(iid, Tier.DOUBLEWORD), EXACT_2D[iid]
        for _ in range(2_000):
            x, y = _seeded_word(rng, rng.randint(-3, 0)), _seeded_word(rng, rng.randint(-3, 0))
            assert lane(*x, *y) == _exact_nearest(exact(_exact(x), _exact(y))), (iid, x, y)

    def test_within_an_eighth_unit_over_wide_coordinates(self, iid):
        # each coordinate in a seeded binade from 2^-300 to 2^200
        rng = random.Random(0x2D1F)
        lane, exact = raw_fn(iid, Tier.DOUBLEWORD), EXACT_2D[iid]
        worst = 0.0
        for _ in range(2_000):
            x, y = (_seeded_word(rng, rng.randint(-300, 199)) for _ in range(2))
            err = _units(lane(*x, *y), exact(_exact(x), _exact(y)))
            assert err <= 0.125, (iid, x, y, err)
            worst = max(worst, err)
        assert worst > 0.05

    def test_the_integer_body_is_the_lane(self, iid):
        # the integer lane's parts and join give the body's value, which
        # the pair lane rounds once at 2^-192 on [0, 1]^2
        rng = random.Random(0x2D2A)
        lane = raw_fn(iid, Tier.DOUBLEWORD)
        body = lane.fixed
        xpart, ypart, join = body.parts
        for _ in range(200):
            x, y = (_seeded_word(rng, rng.randint(-8, -1)) for _ in range(2))
            fx, fy = (_fixed_from_pair(*w) for w in (x, y))
            v = join(xpart(fx), ypart(fy))
            assert v == body(fx, fy)
            assert _pair_from_ratio(v, 1 << 192) == lane(*x, *y)


class TestExactEq3Lane:
    def _assert_nearest(self, a_word, xs):
        a = Real._raw(*a_word, Tier.DOUBLEWORD)
        lane = raw_fn("eq3_kernel", Tier.DOUBLEWORD, a)
        a2 = _exact(a_word) ** 2
        for x in xs:
            want = _exact_nearest(1 / (_exact(x) ** 2 + a2))
            assert lane(*x) == want, (a_word, x)

    def test_nearest_pair_across_a(self):
        # seeded x in [0, 1) and a log-uniform across [0.1, 10], each with
        # a low word, and x = 0 and 1
        rng = random.Random(0xE93A)
        for _ in range(200):
            hi = 10.0 ** rng.uniform(-1.0, 1.0)
            a = _two_sum(hi, rng.uniform(-0.5, 0.5) * math.ulp(hi))
            xs = [(0.0, 0.0), (1.0, 0.0)] + [_seeded_word(rng, rng.randint(-12, -1)) for _ in range(20)]
            self._assert_nearest(a, xs)

    def test_nearest_pair_at_the_ends_of_the_a2_range(self):
        # a^2 from just above the 2^-969 floor, where 1/a^2 nears 2^969,
        # to just below the largest double, where 1/(x^2 + a^2) is
        # subnormal
        rng = random.Random(0xE93B)
        low = math.sqrt(2.0**-969)
        high = math.sqrt(sys.float_info.max)
        ends = [low * (1 + 2.0**-40), low * 1.5, high * (1 - 2.0**-40), high * 0.75]
        xs = [(0.0, 0.0), (1.0, 0.0)] + [_seeded_word(rng, rng.randint(-12, -1)) for _ in range(50)]
        for hi in ends:
            for lo in (0.0, 0.25 * math.ulp(hi), -0.375 * math.ulp(hi)):
                self._assert_nearest(_two_sum(hi, lo), xs)
        with pytest.raises(DomainError):
            raw_fn("eq3_kernel", Tier.DOUBLEWORD, Real.from_float(low * (1 - 2.0**-40), Tier.DOUBLEWORD))
        with pytest.raises(DomainError):
            raw_fn("eq3_kernel", Tier.DOUBLEWORD, Real.from_float(high * (1 + 2.0**-40), Tier.DOUBLEWORD))


class TestEq3IntegerBody:
    # the integer body that the integer lane runs at x = X 2^-192 is the
    # floor of 1/(x^2 + a^2) at the lane's 2^-out, and rounded once by
    # that lane's real it is the nearest pair, wherever that pair is a
    # multiple of 2^-out; where its low word reaches below (at x = 1 for
    # a^2 near 2^-969, 1 - a^2 + ...) it is within 2^-out of that pair.
    # Returns how many points were of the second kind
    def _assert_nearest(self, a_word, xs):
        dd = Tier.DOUBLEWORD
        lane, body = quad._own_lane(raw_fn("eq3_kernel", dd, Real._raw(*a_word, dd)), dd)
        assert issubclass(lane, quad._FixedPoint)
        a2 = _exact(a_word) ** 2
        unit = Fraction(1, 1 << lane.out)
        finer = 0
        for x in xs:
            exact = 1 / (Fraction(x, 1 << 192) ** 2 + a2)
            v = body(x)
            assert v == math.floor(exact / unit), (a_word, x)
            got, want = lane.real(v), _exact_nearest(exact)
            if (_exact(want) / unit).denominator == 1:
                assert (got.hi, got.lo) == want, (a_word, x)
            else:
                finer += 1
                assert abs(_exact((got.hi, got.lo)) - _exact(want)) <= unit, (a_word, x)
        return finer

    def _xs(self, rng, count):
        return [0, 1 << 192] + [rng.randrange(1 << 192) for _ in range(count)]

    def test_nearest_pair_across_a(self):
        # a log-uniform across [0.1, 10], each with a low word, either sign
        rng = random.Random(0xE93C)
        for _ in range(200):
            hi = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
            a = _two_sum(hi, rng.uniform(-0.5, 0.5) * math.ulp(hi))
            assert self._assert_nearest(a, self._xs(rng, 20)) == 0

    def test_nearest_pair_at_the_ends_of_the_a2_range(self):
        # a^2 just above 2^-969, where a's low word reaches below 2^-192
        # and 1/a^2 nears 2^969, and a from 1e154 to just below the
        # largest a^2, where the value is subnormal
        rng = random.Random(0xE93D)
        low = math.sqrt(2.0**-969)
        high = math.sqrt(sys.float_info.max)
        xs = self._xs(rng, 50)
        finer = 0
        for hi in (low * (1 + 2.0**-40), low * 1.5, 1e154, high * (1 - 2.0**-40)):
            for lo in (0.0, 0.25 * math.ulp(hi), -0.375 * math.ulp(hi)):
                finer += self._assert_nearest(_two_sum(hi, lo), xs)
        assert finer == 6  # x = 1 at each of the six low a

"""Verification chain: structure of the eight steps, end-to-end runs at
both tiers, fault injection, the parametric kernel check, and report
serialization."""

import json

import pytest

from ahmedquad import (
    AdaptiveSimpson,
    ClosedFormQ,
    CombinationQ,
    ConfigError,
    ConstantQ,
    DomainError,
    EngineConfig,
    GaussLegendre,
    Integral1DQ,
    Integral2DQ,
    Mode,
    NonFiniteError,
    Real,
    Step,
    TanhSinh,
    Tier,
    builtin_chain,
    check_eq3,
    closed_form,
    eval_integrand,
    evaluate,
    integrate_1d,
    integrate_2d,
    reports_to_csv,
    reports_to_json,
    run_chain,
    run_step,
    seeded_a_values,
    sqrt,
    sub,
)
from ahmedquad.integrands import Interval, raw_fn
from ahmedquad.scalar import atan
from ahmedquad.verify import _inv_a_atan_inv_a, default_config, resolve_mode
from helpers import (
    AHMED_AT_1_STR,
    I1_STR,
    I_STR,
    PI_OVER_4_STR,
    TIER_IDS,
    TIERS,
    TWO_I2_STR,
    assert_ulps,
    ref,
)


class TestChainStructure:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_eight_steps_with_pinned_keys(self, tier):
        chain = builtin_chain(tier)
        assert len(chain) == 8
        assert [s.key for s in chain] == [f"S{i}" for i in range(1, 9)]

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_tolerances(self, tier):
        tol, loose = (1e-12, 1e-11) if tier is Tier.NATIVE64 else (1e-25, 1e-24)
        for step in builtin_chain(tier):
            want = loose if step.key in ("S5", "S6") else tol
            assert step.tolerance == want, step.key

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_resolve_mode(self, tier):
        # adaptive Simpson has no product rule, so it takes ITERATED unless
        # a mode is given; every other rule takes TENSOR
        simpson = EngineConfig(AdaptiveSimpson(1e-8), tier)
        assert resolve_mode(None, simpson) is Mode.ITERATED
        assert resolve_mode(Mode.TENSOR, simpson) is Mode.TENSOR
        for method in (GaussLegendre(8), TanhSinh(3, 1e-8)):
            config = EngineConfig(method, tier)
            assert resolve_mode(None, config) is Mode.TENSOR
            assert resolve_mode(Mode.ITERATED, config) is Mode.ITERATED

    def test_s1_split_shape(self):
        s1 = builtin_chain(Tier.NATIVE64)[0]
        assert s1.lhs == Integral1DQ("ahmed_eq1")
        assert isinstance(s1.rhs, CombinationQ)
        assert s1.rhs.terms == (
            (1.0, Integral1DQ("i1_x")),
            (-1.0, Integral1DQ("i2_x")),
        )

    def test_s4_parametric_shape(self):
        tier = Tier.NATIVE64
        s4 = builtin_chain(tier)[3]
        root2 = sqrt(Real.from_float(2.0, tier))
        assert s4.lhs == Integral1DQ("eq3_kernel", a=root2)
        assert isinstance(s4.rhs, ConstantQ)

    def test_s7_references(self):
        s7 = builtin_chain(Tier.NATIVE64)[6]
        assert s7.key == "S7"
        assert s7.lhs == Integral2DQ("shifted_kernel_eq6b")
        assert s7.rhs == Integral1DQ("i2_x")

    def test_s8_assembly_shape(self):
        s8 = builtin_chain(Tier.NATIVE64)[7]
        assert s8.lhs == Integral1DQ("ahmed_eq1")
        assert s8.rhs == CombinationQ(
            ((1.0, ClosedFormQ("I1")), (-0.5, ClosedFormQ("TWO_I2")))
        )

    def test_step_guards(self):
        q = ClosedFormQ("I")
        with pytest.raises(ConfigError):
            Step("bad", q, q, 0.0, "zero tolerance")
        with pytest.raises(ConfigError):
            Step("bad", q, q, -1e-12, "negative tolerance")
        with pytest.raises(ConfigError):
            CombinationQ(())
        with pytest.raises(ConfigError):
            CombinationQ(((float("nan"), q),))


class TestEvaluate:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_closed_form_quantity(self, tier):
        v, evals = evaluate(ClosedFormQ("I"), default_config(tier))
        assert evals == 0
        assert_ulps(v, ref(I_STR, tier), 8, "closed form I")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_combination_of_closed_forms(self, tier):
        q = CombinationQ(((1.0, ClosedFormQ("I1")), (-1.0, ClosedFormQ("I2"))))
        v, _ = evaluate(q, default_config(tier))
        assert_ulps(v, closed_form("I", tier), 2, "I1 - I2")
        q = CombinationQ(((1.0, ClosedFormQ("I1")), (-0.5, ClosedFormQ("TWO_I2"))))
        v, _ = evaluate(q, default_config(tier))
        assert_ulps(v, closed_form("I", tier), 2, "I1 - TWO_I2/2")

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_constant_integrand_integral(self, tier):
        v, evals = evaluate(Integral1DQ("i1_phi"), default_config(tier))
        assert evals >= 1
        bound = 1e-12 if tier is Tier.NATIVE64 else 1e-25
        assert abs(sub(v, ref(I1_STR, tier)).to_float()) <= bound

    def test_memo_shares_work(self):
        cfg = default_config(Tier.NATIVE64)
        memo = {}
        _, first = evaluate(Integral1DQ("ahmed_eq1"), cfg, memo)
        assert first >= 1
        _, second = evaluate(Integral1DQ("ahmed_eq1"), cfg, memo)
        assert second == 0
        v1, _ = evaluate(Integral1DQ("ahmed_eq1"), cfg, memo)
        v2, _ = evaluate(Integral1DQ("ahmed_eq1"), cfg)
        assert v1 == v2

    def test_constant_tier_guard(self):
        q = ConstantQ(Real.from_float(1.0, Tier.DOUBLEWORD), "one")
        with pytest.raises(ConfigError):
            evaluate(q, default_config(Tier.NATIVE64))

    def test_unknown_quantity(self):
        with pytest.raises(ConfigError):
            evaluate("eq1", default_config(Tier.NATIVE64))


def _proven_error(q, config):
    # the sum of |coefficient| * error estimate over a quantity's integrals
    if isinstance(q, Integral1DQ):
        return integrate_1d(q.integrand_id, config=config, a=q.a).error_estimate.to_float()
    if isinstance(q, Integral2DQ):
        return integrate_2d(q.integrand_id, config=config).error_estimate.to_float()
    if isinstance(q, CombinationQ):
        return sum(abs(c) * _proven_error(t, config) for c, t in q.terms)
    return 0.0


class TestRunChain:
    def test_native_all_pass(self):
        reports = run_chain(Tier.NATIVE64)
        assert len(reports) == 8
        for r in reports:
            assert r.passed, f"{r.key}: residual {r.residual:.3g} note {r.note!r}"
            assert r.residual <= 1e-12
            assert r.passed == (r.residual <= r.tolerance)

    def test_doubleword_all_pass_default_engine(self):
        reports = run_chain(Tier.DOUBLEWORD)
        assert all(r.passed for r in reports)
        s8 = reports[-1]
        assert s8.key == "S8"
        assert s8.residual <= 1e-25

    def test_doubleword_default_is_the_gl_ladder(self):
        # adaptive GL capped at 96, tol a tenth of the step tolerance; each
        # fixed registry integral runs alone its cheapest orders whose
        # proven bound is within tol: 22 for ahmed_eq1, i1_x and i2_x, 16
        # for i1_theta, 5 for the constant i1_phi, 22 x 18 for eq4, 22 x 22
        # for eq6a and 18 x 22 for eq6b; eq3 at a = sqrt 2 runs the ladder
        # rung 24
        cfg = default_config(Tier.DOUBLEWORD)
        assert cfg == EngineConfig(GaussLegendre(96, tol=1e-26), Tier.DOUBLEWORD)
        reports = run_chain(Tier.DOUBLEWORD)
        assert [r.evaluations for r in reports] == [66, 16, 5, 24, 396, 880, 0, 0]
        # each residual is within the proven bounds of its step's
        # integrals, plus the rounding of the closed forms and constants;
        # the worst is 3.4e-29
        for step, r in zip(builtin_chain(Tier.DOUBLEWORD), reports):
            bound = _proven_error(step.lhs, cfg) + _proven_error(step.rhs, cfg)
            assert r.residual <= bound + 1e-30, step.key
        assert max(r.residual for r in reports) <= 1e-28

    def test_doubleword_tanh_sinh_level_12(self):
        cfg = EngineConfig(TanhSinh(12, 1e-26), Tier.DOUBLEWORD)
        reports = run_chain(Tier.DOUBLEWORD, cfg)
        assert all(r.passed for r in reports)
        assert reports[-1].residual <= 1e-25

    def test_memoization_makes_s8_free(self):
        # S8 reuses the headline integral from S1 and two closed forms,
        # so it costs no fresh evaluations
        reports = run_chain(Tier.NATIVE64)
        assert reports[-1].evaluations == 0

    def test_deterministic(self):
        a = run_chain(Tier.NATIVE64)
        b = run_chain(Tier.NATIVE64)
        assert a == b

    def test_chain_soundness(self):
        # the assembled step is bounded by the accumulated step residuals
        # plus the engine tolerance headroom
        cfg = default_config(Tier.NATIVE64)
        reports = run_chain(Tier.NATIVE64, cfg)
        partial = sum(r.residual for r in reports[:7])
        assert reports[-1].residual <= partial + 8.0 * cfg.method.target_eps

    def test_tolerance_scaling_across_tiers(self):
        native = run_chain(Tier.NATIVE64)
        dd = run_chain(Tier.DOUBLEWORD)
        for rn, rd in zip(native, dd):
            assert rd.residual <= max(2.0 * rn.residual, 1e-25), rn.key
        for idx in (2, 7):  # S3 and S8
            rn, rd = native[idx], dd[idx]
            if rn.residual > 0.0:
                assert rd.residual <= rn.residual / 1e6, rn.key

    def test_config_tier_mismatch(self):
        with pytest.raises(ConfigError):
            run_chain(Tier.NATIVE64, default_config(Tier.DOUBLEWORD))

    @pytest.mark.parametrize("key", ["S4", "S8"])
    def test_inject_fault_isolates_one_step(self, key):
        reports = run_chain(Tier.NATIVE64, inject_fault=key)
        for r in reports:
            if r.key == key:
                assert not r.passed
                assert r.residual > r.tolerance
            else:
                assert r.passed, r.key

    def test_inject_fault_unknown_key(self):
        with pytest.raises(ConfigError):
            run_chain(Tier.NATIVE64, inject_fault="S9")

    def test_engine_failure_marks_step_not_raises(self):
        bad = Step(
            "bad",
            Integral1DQ("eq3_kernel", a=Real.from_float(0.0, Tier.NATIVE64)),
            ClosedFormQ("I"),
            1e-12,
            "excluded parameter",
        )
        report = run_step(bad, default_config(Tier.NATIVE64))
        assert not report.passed
        assert report.lhs_value is None and report.rhs_value is None
        assert report.residual == float("inf")
        assert "DomainError" in report.note


class TestSymmetryInvariance:
    def test_transpose_agrees(self):
        # integrating the swapped kernel with its arguments transposed
        # changes nothing beyond the combined error estimates
        tier = Tier.NATIVE64
        cfg = EngineConfig(TanhSinh(8, 1e-11), tier)
        direct = integrate_2d("shifted_kernel_eq6b", config=cfg)
        fn = raw_fn("shifted_kernel_eq6b", tier)

        def transposed(x, y):
            return Real.from_float(fn(y.hi, x.hi), tier)

        region = (Interval.unit(tier), Interval.unit(tier))
        swapped = integrate_2d(transposed, region, cfg)
        gap = abs(sub(direct.value, swapped.value).to_float())
        combined = direct.error_estimate.to_float() + swapped.error_estimate.to_float()
        assert gap <= 2.0 * combined

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_product_kernel_hits_two_i2(self, tier):
        # the separable kernel is the square structure: its value is
        # pi^2/16, twice the correction piece
        cfg = default_config(tier)
        v, _ = evaluate(Integral2DQ("product_kernel_eq6a"), cfg)
        bound = 1e-11 if tier is Tier.NATIVE64 else 1e-24
        assert abs(sub(v, ref(TWO_I2_STR, tier)).to_float()) <= bound


class TestCheckEq3:
    def test_twenty_seeded_samples_native(self):
        a_values = seeded_a_values(Tier.NATIVE64)
        assert len(a_values) == 20
        for a in a_values:
            assert 0.1 <= a.to_float() <= 10.0
        reports = check_eq3(a_values, tier=Tier.NATIVE64)
        assert len(reports) == 20
        for r in reports:
            assert r.passed
            assert r.residual <= 1e-12

    def test_doubleword_samples_are_their_exact_rules_rounded_once(self):
        # each default-seed doubleword sample runs one proven Gauss-Legendre
        # rule on the integer lane: its value is within 0.51 units of 2^-104
        # of the same rule summed at 420 bits, its nodes and weights the
        # exact rationals of quad._gl_ints mapped onto [0, 1]
        mp = pytest.importorskip("mpmath")
        from ahmedquad.quad import _gl_ints

        tier = Tier.DOUBLEWORD
        a_values = seeded_a_values(tier)
        reports = check_eq3(a_values, tier=tier)
        with mp.workprec(420):
            for a, r in zip(a_values, reports):
                assert r.passed, r.key
                n = r.evaluations
                assert n in (6, 12, 24, 48, 96), r.key
                a2 = (mp.mpf(a.hi) + a.lo) ** 2
                xs, ws = _gl_ints(n)
                want = mp.fsum(
                    mp.ldexp(w, -397) / ((1 + mp.ldexp(x, -192)) ** 2 / 4 + a2)
                    for x, w in zip(xs, ws)
                )
                got = mp.mpf(r.lhs_value.hi) + r.lhs_value.lo
                assert abs(got - want) / want <= 0.51 * mp.ldexp(1, -104), r.key

    def test_seeded_values_reproducible(self):
        assert seeded_a_values(Tier.NATIVE64) == seeded_a_values(Tier.NATIVE64)
        alt = seeded_a_values(Tier.NATIVE64, seed=0xBEEF)
        assert alt != seeded_a_values(Tier.NATIVE64)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_unit_parameter_gives_quarter_pi(self, tier):
        (report,) = check_eq3([Real.from_float(1.0, tier)], tier=tier)
        assert report.passed
        quarter_pi = ref(PI_OVER_4_STR, tier)
        bound = 1e-12 if tier is Tier.NATIVE64 else 1e-25
        assert abs(sub(report.lhs_value, quarter_pi).to_float()) <= bound
        assert abs(sub(report.rhs_value, quarter_pi).to_float()) <= bound

    def test_sqrt3_parameter(self):
        # atan(1/sqrt3) = pi/6, so both sides are pi/(6 sqrt3)
        tier = Tier.NATIVE64
        root3 = sqrt(Real.from_float(3.0, tier))
        (report,) = check_eq3([root3], tier=tier)
        assert report.passed
        want = ref(AHMED_AT_1_STR, tier)  # pi/(6 sqrt 3) numerically
        assert abs(sub(report.rhs_value, want).to_float()) <= 1e-14

    def test_negative_parameters_pass(self):
        tier = Tier.NATIVE64
        values = [Real.from_float(-1.0, tier), Real.from_float(-2.0, tier)]
        reports = check_eq3(values, tier=tier)
        for r in reports:
            assert r.passed, r.key

    @pytest.mark.parametrize("a, evaluations", [(1.2e150, 6), (1e152, 6), (1e154, 18)])
    def test_doubleword_parameter_past_the_split_range(self, a, evaluations):
        # x^2 + a^2 passes ~2^996 here, where Dekker's split of the divisor
        # overflows; the lane's quotient is rescued. The low words are
        # subnormal, hence the absolute term. From a = 1e154 the
        # certificate's 2aA overflows, no rung is proven, and the run
        # takes the ladder
        mp = pytest.importorskip("mpmath")
        tier = Tier.DOUBLEWORD
        ra = Real.from_float(a, tier)

        def close(got, want):
            err = abs(mp.mpf(got.hi) + mp.mpf(got.lo) - want)
            assert err <= 2.0**-104 * abs(want) + 4 * 2.0**-1074, (a, got)

        with mp.workdps(50):
            am = mp.mpf(a)
            point = eval_integrand("eq3_kernel", Real.from_float(0.5, tier), a=ra)
            close(point, 1 / (mp.mpf(0.25) + am * am))
            res = integrate_1d("eq3_kernel", config=default_config(tier), a=ra)
            close(res.value, mp.atan(1 / am) / am)
        assert (res.evaluations, res.converged) == (evaluations, True)
        (report,) = check_eq3([ra], tier=tier)
        assert report.passed

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_a_subnormal_parameter_fails_only_its_own_report(self, tier):
        # 1/a overflows at a = 1e-320: the right side's error is captured
        # with the sample's, so the report fails with the left side's note,
        # as at a = 1e-200, and a = 2 passes
        values = [Real.from_float(x, tier) for x in (1e-320, 2.0, 1e-200)]
        tiny, two, small = check_eq3(values, tier=tier)
        for r in (tiny, small):
            assert not r.passed and r.lhs_value is None, r.key
            assert r.note.startswith("DomainError: a^2 underflows"), r.note
        assert two.passed and two.note == ""
        with pytest.raises(NonFiniteError, match="division produced a non-finite value"):
            _inv_a_atan_inv_a(values[0])

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_the_right_side_is_reals_division_atan_and_product(self, tier):
        # bit for bit (1/a) atan(1/a) as Real's /, atan and * round it
        values = seeded_a_values(tier, samples=200, seed=0xA7A) + tuple(
            Real.from_float(x, tier) for x in (-0.37, -4.0, 1e-200, 1e150, 2.0**-1000, 1e300)
        )
        for a in values + (sqrt(Real.from_float(2.0, tier)),):
            inv = Real.from_float(1.0, tier) / a
            want = inv * atan(inv)
            got = _inv_a_atan_inv_a(a)
            assert (got.hi, got.lo, got.tier) == (want.hi, want.lo, want.tier), a

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_reports_are_run_steps_over_a_shared_memo(self, tier):
        # check_eq3 against each sample run as a Step by run_step, with one
        # memo: a repeated a's second report costs 0 evaluations, an a of
        # the other tier or with a^2 out of range fails only its own report
        # with the same note, under the default engine (tanh-sinh at
        # NATIVE64) and under proven Gauss-Legendre
        other = Tier.NATIVE64 if tier is Tier.DOUBLEWORD else Tier.DOUBLEWORD
        seeded = seeded_a_values(tier)
        values = list(seeded[:5]) + [
            seeded[2],
            Real.from_float(2.0, other),
            Real.from_float(1e-200, tier),
            Real.from_float(1e200, tier),
            Real.from_float(1e-140, tier),
            seeded[4],
        ]
        tol = 1e-12 if tier is Tier.NATIVE64 else 1e-25
        proven = GaussLegendre(96, 1e-13 if tier is Tier.NATIVE64 else 1e-26)
        for config in (default_config(tier), EngineConfig(proven, tier)):
            memo = {}
            want = []
            for a in values:
                inv = Real.from_float(1.0, a.tier) / a
                rhs = ConstantQ(inv * atan(inv), "(1/a) atan(1/a)")
                step = Step(f"eq3[a={float(a)!r}]", Integral1DQ("eq3_kernel", a=a), rhs, tol, "eq3")
                want.append(run_step(step, config, memo))
            got = check_eq3(values, config)
            assert got == tuple(want)
            assert [r.evaluations for r in got][5] == 0 and got[2].evaluations > 0
            notes = [r.note.split(":")[0] for r in got[6:9]]
            assert notes == ["TierMismatchError", "DomainError", "DomainError"]
            assert all(r.passed for r in got[:6])

    def test_zero_parameter_rejected_up_front(self):
        with pytest.raises(DomainError):
            check_eq3([Real.from_float(0.0, Tier.NATIVE64)], tier=Tier.NATIVE64)

    def test_non_real_rejected(self):
        with pytest.raises(ConfigError):
            check_eq3([1.0], tier=Tier.NATIVE64)

    def test_config_of_another_tier_rejected(self):
        # a native config asked for at doubleword used to run native64
        # against the native tolerance and pass
        values = [Real.from_float(1.0, Tier.DOUBLEWORD)]
        with pytest.raises(ConfigError, match="config tier"):
            check_eq3(values, config=default_config(Tier.NATIVE64), tier=Tier.DOUBLEWORD)
        (report,) = check_eq3(values, config=default_config(Tier.DOUBLEWORD), tier=Tier.DOUBLEWORD)
        assert report.passed

    def test_a_bare_method_as_config_rejected(self):
        values = [Real.from_float(1.0, Tier.NATIVE64)]
        with pytest.raises(ConfigError, match="EngineConfig"):
            check_eq3(values, config=GaussLegendre(8))
        with pytest.raises(ConfigError, match="EngineConfig"):
            check_eq3(values, config=GaussLegendre(8), tier=Tier.NATIVE64)
        with pytest.raises(ConfigError, match="EngineConfig"):
            run_chain(Tier.NATIVE64, GaussLegendre(8))


class TestSerialization:
    def test_json_schema(self):
        reports = run_chain(Tier.NATIVE64)
        doc = json.loads(reports_to_json(reports, Tier.NATIVE64))
        assert doc["tier"] == "native64"
        assert doc["all_passed"] is True
        assert len(doc["steps"]) == 8
        for item in doc["steps"]:
            assert set(item) == {
                "key",
                "lhs",
                "rhs",
                "residual",
                "tolerance",
                "passed",
                "evaluations",
                "note",
            }
            # numeric fields round-trip exactly through repr
            assert float(item["residual"]) == float(item["residual"])
            assert float(item["lhs"]) != 0.0

    def test_json_reflects_failure(self):
        reports = run_chain(Tier.NATIVE64, inject_fault="S2")
        doc = json.loads(reports_to_json(reports, Tier.NATIVE64))
        assert doc["all_passed"] is False
        s2 = doc["steps"][1]
        assert s2["key"] == "S2" and s2["passed"] is False

    def test_csv_columns(self):
        reports = run_chain(Tier.NATIVE64)
        text = reports_to_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "key,lhs,rhs,residual,tolerance,passed,evaluations"
        assert len(lines) == 9
        assert lines[1].startswith("S1,")
        for line in lines[1:]:
            assert line.split(",")[5] == "True"

    def test_csv_values_reparse(self):
        reports = run_chain(Tier.NATIVE64)
        text = reports_to_csv(reports)
        for line, report in zip(text.splitlines()[1:], reports):
            fields = line.split(",")
            assert float(fields[1]) == report.lhs_value.to_float()
            assert float(fields[3]) == report.residual
            assert int(fields[6]) == report.evaluations

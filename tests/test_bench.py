"""Benchmark harness: row inventory, digit honesty, convergence
profiles, CSV/plot-file serialization, and determinism."""

import functools
import hashlib
import math

import pytest

from ahmedquad import ConfigError, Real, Tier, closed_form
from ahmedquad.bench import (
    DIGIT_CAP,
    GL_ORDERS,
    SIMPSON_DECADES,
    TS_LEVELS,
    bench_rows,
    correct_digits,
    rows_to_csv,
    write_plot_files,
)
from helpers import I_STR, TIER_IDS, TIERS, ref

HEADER = "method,parameter,tier,value,correct_digits,evaluations,wall_time_s"


@functools.lru_cache(maxsize=None)
def _rows(tier):
    return bench_rows(tier)


def _by_method(rows, method):
    return [r for r in rows if r.method == method]


def _rel_err(value, tier):
    truth = ref(I_STR, Tier.DOUBLEWORD)
    if tier is Tier.NATIVE64:
        return abs(value.to_float() - truth.to_float()) / abs(truth.to_float())
    diff = abs((value.hi - truth.hi) + (value.lo - truth.lo))
    return diff / abs(truth.hi)


class TestRowInventory:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_count_and_order(self, tier):
        rows = _rows(tier)
        assert len(rows) == 28
        assert [(r.method, r.parameter) for r in rows] == sorted(
            (r.method, r.parameter) for r in rows
        )
        assert all(r.tier is tier for r in rows)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_parameter_sweeps(self, tier):
        rows = _rows(tier)
        assert tuple(r.parameter for r in _by_method(rows, "gauss-legendre")) == GL_ORDERS
        assert tuple(r.parameter for r in _by_method(rows, "simpson")) == SIMPSON_DECADES
        assert tuple(r.parameter for r in _by_method(rows, "tanh-sinh")) == TS_LEVELS

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_every_row_is_positive_work(self, tier):
        for r in _rows(tier):
            assert r.evaluations >= 1
            assert r.wall_time_s >= 0.0
            assert math.isfinite(r.value.to_float())


class TestDigitClaims:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_claimed_digits_are_honest(self, tier):
        cap = DIGIT_CAP[tier]
        for r in _rows(tier):
            assert 0.0 <= r.correct_digits <= cap
            rel = _rel_err(r.value, tier)
            assert rel <= 10.0 ** (-r.correct_digits + 1.0), (
                f"{r.method} p={r.parameter}: claims {r.correct_digits} digits, "
                f"rel err {rel:.3e}"
            )

    def test_gauss_legendre_saturates_native(self):
        for r in _by_method(_rows(Tier.NATIVE64), "gauss-legendre"):
            if r.parameter >= 16:
                assert r.correct_digits == 14.5

    def test_gauss_legendre_reaches_deep_digits_doubleword(self):
        rows = _by_method(_rows(Tier.DOUBLEWORD), "gauss-legendre")
        assert rows[-1].parameter == 128
        assert rows[-1].correct_digits >= 25.0
        for r in rows:
            if r.parameter >= 32:
                assert r.correct_digits == 27.5

    def test_tanh_sinh_profile_native(self):
        rows = _by_method(_rows(Tier.NATIVE64), "tanh-sinh")
        digits = [r.correct_digits for r in rows]
        assert digits == sorted(digits), "digits must be non-decreasing in level"
        by_level = {r.parameter: r.correct_digits for r in rows}
        assert by_level[10] >= 13.0
        evals = [r.evaluations for r in rows]
        assert all(a < b for a, b in zip(evals, evals[1:]))

    def test_tanh_sinh_profile_doubleword(self):
        rows = _by_method(_rows(Tier.DOUBLEWORD), "tanh-sinh")
        digits = [r.correct_digits for r in rows]
        assert digits == sorted(digits)
        by_level = {r.parameter: r.correct_digits for r in rows}
        assert by_level[12] >= 25.0
        evals = [r.evaluations for r in rows]
        assert all(a < b for a, b in zip(evals, evals[1:]))

    def test_simpson_tightening_tolerance_gains_digits(self):
        rows = _by_method(_rows(Tier.NATIVE64), "simpson")
        by_decade = {r.parameter: r.correct_digits for r in rows}
        assert by_decade[14] >= by_decade[4] + 6.0
        evals = [r.evaluations for r in rows]
        assert all(a <= b for a, b in zip(evals, evals[1:]))


class TestCorrectDigitsFunction:
    def test_exact_value_earns_the_cap(self):
        truth = closed_form("I", Tier.DOUBLEWORD)
        assert correct_digits(truth, Tier.DOUBLEWORD) == 27.5

    def test_native_closed_form_is_clamped(self):
        # correctly rounded binary64 carries ~16.9 digits; the native
        # report refuses to claim more than its trustworthy budget
        assert correct_digits(closed_form("I", Tier.NATIVE64), Tier.NATIVE64) == 14.5

    def test_rough_value(self):
        d = correct_digits(Real.from_float(0.6, Tier.NATIVE64), Tier.NATIVE64)
        assert 0.7 <= d <= 0.9

    def test_wild_value_floors_at_zero(self):
        assert correct_digits(Real.from_float(5.0, Tier.NATIVE64), Tier.NATIVE64) == 0.0

    def test_relative_error_past_binary64_floors_at_zero(self):
        # |v - t| / t overflows binary64 for v near its largest double
        for tier in TIERS:
            assert correct_digits(Real.from_float(1.7e308, tier), tier) == 0.0


class TestCsv:
    def test_header_and_shape(self):
        lines = rows_to_csv(_rows(Tier.NATIVE64)).splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 29
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_numeric_round_trip(self, tier):
        rows = _rows(tier)
        for line, r in zip(rows_to_csv(rows).splitlines()[1:], rows):
            method, param, tier_s, value_s, digits_s, evals_s, wall_s = line.split(",")
            assert method == r.method
            assert int(param) == r.parameter
            assert tier_s == tier.value
            assert float(digits_s) == r.correct_digits
            assert int(evals_s) == r.evaluations
            assert float(wall_s) == r.wall_time_s
            reparsed = Real.from_decimal(value_s, tier)
            # printed precision keeps the value to within one unit in the
            # last displayed digit
            tol = 10.0 ** (1 - tier.sig_digits) * abs(r.value.to_float())
            diff = abs(
                (reparsed.hi - r.value.hi) + (reparsed.lo - r.value.lo)
            )
            assert diff <= tol

    # SHA-256 of the sweep's csv with the wall_time_s column cut: the
    # native sweep is byte-stable across changes of design; the
    # doubleword one was re-pinned when pi and the atan and step tables
    # became the nearest double-word pairs. The native one was re-pinned
    # when its Gauss-Legendre nodes and weights became the nearest
    # doubles: GL4, 16, 32, 64 and 128 moved by 1 or 2 ulps, each toward
    # the same rule summed at 240 bits, and GL16 to 128 now all print the
    # nearest double to 5 pi^2 / 96; digits and counts are unchanged. The
    # doubleword one was re-pinned when the tanh-sinh nodes and weights
    # became the nearest pairs: levels 3 and 10 moved in the 32nd digit,
    # with digits and counts unchanged. The doubleword one was re-pinned
    # when the ahmed_eq1 lane came to round each value once from integers
    # at 2^-192: GL32, Simpson 7, 12 and 13 and tanh-sinh level 11 moved
    # by one in the 32nd digit, with digits and counts unchanged. The
    # doubleword one was re-pinned when the registry's 1-D integrals came
    # to sum in integers at 2^-192 and round each result once: GL16, 32
    # and 64, Simpson 7 and 9-14 and tanh-sinh level 8 moved by one low
    # word ulp, each toward the same rule summed at 400 bits (the worst
    # now 0.051 units of 2^-104), with digits and counts unchanged
    SWEEP_SHA256 = {
        Tier.NATIVE64: "b75440acda898773ee16e8a82e080a6e90e75837cbcb7e5fd35e1d87658d8b8b",
        Tier.DOUBLEWORD: "d1f8e67f59356abd87090a41ae519e00fcaff79ac4f69d2103c5a11cc1c26171",
    }

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_sweep_is_pinned(self, tier):
        text = "".join(
            line.rsplit(",", 1)[0] + "\n" for line in rows_to_csv(_rows(tier)).splitlines()
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.SWEEP_SHA256[tier]

    def test_deterministic_modulo_wall_time(self):
        first = bench_rows(Tier.NATIVE64)
        second = bench_rows(Tier.NATIVE64)

        def strip(rows):
            return [
                (r.method, r.parameter, r.tier, r.value, r.correct_digits, r.evaluations)
                for r in rows
            ]

        assert strip(first) == strip(second)

        def strip_csv(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert strip_csv(rows_to_csv(first)) == strip_csv(rows_to_csv(second))


class TestPlotFiles:
    def test_per_method_files(self, tmp_path):
        rows = _rows(Tier.NATIVE64)
        paths = write_plot_files(rows, tmp_path / "plots")
        names = [p.rsplit("/", 1)[1] for p in paths]
        assert names == [
            "gauss-legendre.native64.dat",
            "simpson.native64.dat",
            "tanh-sinh.native64.dat",
        ]
        for path, method, count in zip(
            paths, ("gauss-legendre", "simpson", "tanh-sinh"), (6, 11, 11)
        ):
            lines = (tmp_path / "plots" / path.rsplit("/", 1)[1]).read_text().splitlines()
            assert len(lines) == count
            group = sorted(_by_method(rows, method), key=lambda r: r.parameter)
            for line, r in zip(lines, group):
                evals_s, digits_s = line.split()
                assert int(evals_s) == r.evaluations
                assert float(digits_s) == r.correct_digits

    def test_both_tiers_coexist(self, tmp_path):
        rows = _rows(Tier.NATIVE64) + _rows(Tier.DOUBLEWORD)
        paths = write_plot_files(rows, tmp_path)
        names = [p.rsplit("/", 1)[1] for p in paths]
        assert names == [
            "gauss-legendre.doubleword.dat",
            "gauss-legendre.native64.dat",
            "simpson.doubleword.dat",
            "simpson.native64.dat",
            "tanh-sinh.doubleword.dat",
            "tanh-sinh.native64.dat",
        ]

    @pytest.mark.parametrize("blocked", ["directory", "file"])
    def test_unwritable_directory(self, tmp_path, blocked):
        # a file where the directory should go, or a directory where a
        # data file should go
        if blocked == "directory":
            blocker = tmp_path / "occupied"
            blocker.write_text("not a directory\n")
            target = blocker / "sub"
        else:
            target = tmp_path / "plots"
            (target / "simpson.native64.dat").mkdir(parents=True)
        with pytest.raises(ConfigError):
            write_plot_files(_rows(Tier.NATIVE64), target)


class TestHookPoints:
    def test_engine_calls_go_through_the_module_names(self, monkeypatch):
        # the benchmark's tracer wraps bench.integrate_1d and
        # bench._integrate_1d_ts_fixed by name; a sweep that reached the
        # engines some other way would go untimed. Every tanh-sinh row
        # comes from one fixed-level run to the top level
        from ahmedquad import bench

        calls = {"integrate_1d": 0, "_integrate_1d_ts_fixed": 0}
        levels = []

        def counting(name):
            inner = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "_integrate_1d_ts_fixed":
                    levels.append(args[1])
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bench, name, counting(name))
        rows = bench_rows(Tier.NATIVE64)
        assert calls == {"integrate_1d": 17, "_integrate_1d_ts_fixed": 1}
        assert levels == [TS_LEVELS[-1]]
        # a row's time runs from the start of the run to the end of its
        # level, so it cannot fall as the level rises
        times = [r.wall_time_s for r in _by_method(rows, "tanh-sinh")]
        assert times == sorted(times) and times[0] > 0.0

        def fields(rs):
            return [
                (r.method, r.parameter, r.value, r.correct_digits, r.evaluations)
                for r in rs
            ]

        assert fields(rows) == fields(_rows(Tier.NATIVE64))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_timed_calls_build_no_table(self, monkeypatch, tier):
        # every table an engine call reads is warmed before its clock
        # starts, so wall_time_s never includes a table build
        from ahmedquad import bench, quad

        caches = (quad._gl_table, quad._ts_nodes, quad._gl_ints, quad._ts_ints)
        for cache in caches:
            cache.cache_clear()
        missed = []

        def checking(name):
            inner = getattr(bench, name)

            def wrapper(*args, **kwargs):
                before = [c.cache_info().misses for c in caches]
                try:
                    return inner(*args, **kwargs)
                finally:
                    after = [c.cache_info().misses for c in caches]
                    if after != before:
                        missed.append((name, args, kwargs))

            return wrapper

        for name in ("integrate_1d", "_integrate_1d_ts_fixed"):
            monkeypatch.setattr(bench, name, checking(name))
        rows = bench_rows(tier)
        assert len(rows) == 28 and missed == []

    def test_doubleword_sweep_builds_no_pair_table(self):
        # at DOUBLEWORD the benchmark integral runs on the integer lane,
        # which reads the integer tables: building the pair tables too
        # would cost the time and memory that lane saves
        from ahmedquad import quad

        for cache in (quad._gl_table, quad._ts_nodes):
            cache.cache_clear()
        bench_rows(Tier.DOUBLEWORD)
        assert quad._ts_nodes.cache_info().misses == 0
        assert quad._gl_table.cache_info().misses == 0

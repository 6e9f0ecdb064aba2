"""Convergence benchmarks on the headline integral.

Every engine is swept over its natural parameter and scored on the same
task: how many correct digits of 5 pi^2 / 96 it reaches per integrand
evaluation and per second.

* Gauss-Legendre: order in {4, 8, 16, 32, 64, 128}
* tanh-sinh: level in {2, ..., 12}, every row from one run to level 12
  with no early exit, so work grows strictly with the parameter
* adaptive Simpson: tolerance decades 1e-4 .. 1e-14 (parameter = decade)

``correct_digits`` is -log10 of the relative error against the closed
form, clamped to [0, cap] where the cap is the tier's trustworthy digit
budget (14.5 at NATIVE64, 27.5 at DOUBLEWORD): past those points the
measured digits reflect rounding noise, not quadrature quality.

Wall time wraps the engine call only; node tables are warmed first so
cached-table runs are compared like for like. Tanh-sinh levels are
nested, so a level-L row's time runs from the start of the one run to
the end of its level L: the cost of a run stopped there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .integrands import closed_form, raw_fn
from .quad import (
    AdaptiveSimpson,
    EngineConfig,
    GaussLegendre,
    _gl_rungs,
    _integrate_1d_ts_fixed,
    _own_lane,
    integrate_1d,
)
from .scalar import Real, Tier, _pair_ratio

__all__ = [
    "BenchRow",
    "DIGIT_CAP",
    "GL_ORDERS",
    "TS_LEVELS",
    "SIMPSON_DECADES",
    "correct_digits",
    "bench_rows",
    "rows_to_csv",
    "write_plot_files",
]

GL_ORDERS = (4, 8, 16, 32, 64, 128)
TS_LEVELS = tuple(range(2, 13))
SIMPSON_DECADES = tuple(range(4, 15))

DIGIT_CAP = {Tier.NATIVE64: 14.5, Tier.DOUBLEWORD: 27.5}

_BENCH_ID = "ahmed_eq1"


@dataclass(frozen=True)
class BenchRow:
    method: str
    parameter: int
    tier: Tier
    value: Real
    correct_digits: float
    evaluations: int
    wall_time_s: float


def correct_digits(value: Real, tier: Tier) -> float:
    """Digits of agreement with 5 pi^2 / 96: -log10(relative error),
    clamped to [0, tier cap] and rounded to millidigits so reports are
    byte-stable."""
    truth = closed_form("I", Tier.DOUBLEWORD)
    # |v - t| / t for v = n / q, t = m / s, rounded once by int / int
    n, q = _pair_ratio(value.hi, value.lo)
    m, s = _pair_ratio(truth.hi, truth.lo)
    try:
        rel = abs(n * s - m * q) / (m * q)
    except OverflowError:
        return 0.0
    cap = DIGIT_CAP[tier]
    if rel == 0.0:
        return cap
    digits = -math.log10(rel)
    return round(min(cap, max(0.0, digits)), 3)


def _bench_lane(tier: Tier):
    # the lane the benchmark integral runs on: it reads that lane's tables
    return _own_lane(raw_fn(_BENCH_ID, tier), tier)[0]


def _warm_gl(order: int, tier: Tier) -> None:
    lane = _bench_lane(tier)
    for n in _gl_rungs(GaussLegendre(order)):
        lane.gl_table(n)


def _warm_ts(level: int, tier: Tier) -> None:
    lane = _bench_lane(tier)
    for k in range(1, level + 1):
        lane.ts_nodes(k)


def _row(
    method: str, parameter: int, tier: Tier, result, wall_time_s: float
) -> BenchRow:
    return BenchRow(
        method=method,
        parameter=parameter,
        tier=tier,
        value=result.value,
        correct_digits=correct_digits(result.value, tier),
        evaluations=result.evaluations,
        wall_time_s=wall_time_s,
    )


def _timed(fn):
    # (result, seconds) of one engine call
    t0 = time.perf_counter()
    r = fn()
    return r, time.perf_counter() - t0


def bench_rows(tier: Tier) -> tuple[BenchRow, ...]:
    """One row per engine setting, sorted by (method, parameter)."""
    rows: list[BenchRow] = []
    for order in GL_ORDERS:
        _warm_gl(order, tier)
        cfg = EngineConfig(GaussLegendre(order), tier)
        rows.append(
            _row(
                "gauss-legendre",
                order,
                tier,
                *_timed(lambda: integrate_1d(_BENCH_ID, config=cfg)),
            )
        )
    for decade in SIMPSON_DECADES:
        cfg = EngineConfig(AdaptiveSimpson(10.0**-decade), tier)
        rows.append(
            _row(
                "simpson",
                decade,
                tier,
                *_timed(lambda: integrate_1d(_BENCH_ID, config=cfg)),
            )
        )
    # one run to the top level; each level's result is stamped with the
    # time since the run began, and scored only once the run is over
    target = 1e-13 if tier is Tier.NATIVE64 else 1e-26
    top = TS_LEVELS[-1]
    _warm_ts(top, tier)
    stamps = []
    t0 = time.perf_counter()
    _integrate_1d_ts_fixed(
        _BENCH_ID,
        top,
        tier,
        target,
        lambda r: stamps.append((r, time.perf_counter() - t0)),
    )
    for level in TS_LEVELS:
        rows.append(_row("tanh-sinh", level, tier, *stamps[level - 1]))
    rows.sort(key=lambda r: (r.method, r.parameter))
    return tuple(rows)


def rows_to_csv(rows) -> str:
    lines = ["method,parameter,tier,value,correct_digits,evaluations,wall_time_s"]
    for r in rows:
        lines.append(
            f"{r.method},{r.parameter},{r.tier.value},"
            f"{r.value.to_decimal_string()},{r.correct_digits!r},"
            f"{r.evaluations},{r.wall_time_s!r}"
        )
    return "\n".join(lines) + "\n"


def write_plot_files(rows, directory) -> list[str]:
    """Per-method two-column data files (evaluations, correct_digits),
    whitespace separated, sorted by parameter; returns written paths."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create plot directory: {exc}") from exc
    by_method: dict[tuple[str, Tier], list[BenchRow]] = {}
    for r in rows:
        by_method.setdefault((r.method, r.tier), []).append(r)
    paths = []
    for (method, tier), group in sorted(
        by_method.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        group.sort(key=lambda r: r.parameter)
        path = directory / f"{method}.{tier.value}.dat"
        body = "".join(f"{r.evaluations} {r.correct_digits!r}\n" for r in group)
        try:
            path.write_text(body)
        except OSError as exc:
            raise ConfigError(f"cannot write plot file: {exc}") from exc
        paths.append(str(path))
    return paths

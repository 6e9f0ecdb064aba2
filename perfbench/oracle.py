"""The benchmark's own correctness oracle, independent of the package.

Every reference value is computed with mpmath at 50 significant digits,
outside any timed region, and every package value is compared against
it exactly (a double-word value is the exact sum of its two binary64
words). The package never imports mpmath, so an error in its own
constants or kernels cannot cancel out here.

An operation is one chain step, one eq3 sample or one sweep row. It
counts as failed when the package marks it failed, when its batch
raised the package's error type, or when a value disagrees with the
oracle by more than the check's tolerance.
"""

from __future__ import annotations

import csv
import io

import mpmath

MP = mpmath.mp.clone()
MP.dps = 50

# 5 pi^2 / 96 and the chain's other closed forms
PI2 = MP.pi**2
I = 5 * PI2 / 96
I1 = PI2 / 12
I2 = PI2 / 32
ROOT2 = MP.sqrt(2)
S4 = MP.atan(1 / ROOT2) / ROOT2

# the value both sides of each chain step must equal
CHAIN_TRUTH = {
    "S1": I,
    "S2": I1,
    "S3": I1,
    "S4": S4,
    "S5": I2,
    "S6": I2,
    "S7": I2,
    "S8": I,
}

# the absolute tolerances the package's checks use at this benchmark's
# first commit, pinned here so that loosening them in the package cannot
# hide a wrong value; the steps comparing 2-D cubatures get ten times more
TOLERANCE = {"native64": 1e-12, "doubleword": 1e-25}
TOLERANCE_2D_STEPS = ("S5", "S6")

# digit budget per tier, as in the package's bench.DIGIT_CAP
DIGIT_CAP = {"native64": 14.5, "doubleword": 27.5}

# a sweep row's own check is its correct_digits figure, which the
# package rounds to millidigits
ROW_DIGITS_TOLERANCE = 0.002

# every row the doubleword sweep emits, as (method, parameter)
SWEEP_ROWS = tuple(
    [("gauss-legendre", n) for n in (4, 8, 16, 32, 64, 128)]
    + [("simpson", d) for d in range(4, 15)]
    + [("tanh-sinh", k) for k in range(2, 13)]
)


def exact(v):
    """A package value sent as ``[hi, lo]``, as an exact mpmath number."""
    return MP.mpf(v[0]) + MP.mpf(v[1])


def digits(value, tier: str) -> float:
    """Correct digits of 5 pi^2/96 in ``value`` (an mpmath number),
    clamped to [0, cap]."""
    rel = abs(value - I) / I
    cap = DIGIT_CAP[tier]
    if rel == 0:
        return cap
    return float(min(cap, max(0.0, -MP.log10(rel))))


def _side_ok(side, truth, tol) -> bool:
    return side is not None and abs(exact(side) - truth) <= tol


def score_chain(outcome, tier: str):
    """(operations, failed, headline value or None) for one chain run."""
    expected = list(CHAIN_TRUTH)
    if outcome["error"] is not None:
        return len(expected), len(expected), None
    by_key = {r[0]: r for r in outcome["reports"]}
    failed = 0
    for key in expected:
        r = by_key.get(key)
        tol = TOLERANCE[tier] * (10 if key in TOLERANCE_2D_STEPS else 1)
        truth = CHAIN_TRUTH[key]
        if r is None or not (r[1] and _side_ok(r[2], truth, tol) and _side_ok(r[3], truth, tol)):
            failed += 1
    headline = by_key.get("S8")
    value = exact(headline[2]) if headline is not None and headline[2] is not None else None
    return len(expected), failed, value


def score_eq3(outcome, a_values, tier: str):
    """(operations, failed) for one eq3 sweep over ``a_values``."""
    n = len(a_values)
    if outcome["error"] is not None:
        return n, n
    reports = outcome["reports"]
    failed = max(0, n - len(reports))
    tol = TOLERANCE[tier]
    for a, r in zip(a_values, reports):
        a = MP.mpf(a)
        truth = MP.atan(1 / a) / a
        if not (r[1] and _side_ok(r[2], truth, tol) and _side_ok(r[3], truth, tol)):
            failed += 1
    return n, failed


def score_verify_round(record, tier: str):
    """(operations, failed, digits) for one verify round record."""
    ops_c, failed_c, headline = score_chain(record["chain"], tier)
    ops_e, failed_e = score_eq3(record["eq3"], record["a"], tier)
    d = 0.0 if headline is None else digits(headline, tier)
    return ops_c + ops_e, failed_c + failed_e, d


def parse_sweep(csv_text: str):
    """Rows of ``ahmedquad bench`` CSV output keyed by (method,
    parameter); each value is (value string, digits, evaluations,
    wall time)."""
    rows = {}
    for rec in csv.DictReader(io.StringIO(csv_text)):
        rows[(rec["method"], int(rec["parameter"]))] = (
            rec["value"],
            float(rec["correct_digits"]),
            int(rec["evaluations"]),
            float(rec["wall_time_s"]),
        )
    return rows


def score_sweep(rows, tier: str):
    """(operations, failed, digits) for one sweep; digits is the fewest
    among each engine's most refined row."""
    failed = 0
    scored = {}
    for key in SWEEP_ROWS:
        row = rows.get(key)
        if row is None:
            failed += 1
            continue
        d = digits(MP.mpf(row[0]), tier)
        scored[key] = d
        if abs(d - row[1]) > ROW_DIGITS_TOLERANCE or row[2] <= 0:
            failed += 1
    finest = {}
    for method, parameter in SWEEP_ROWS:
        finest[method] = max(finest.get(method, parameter), parameter)
    d = min(scored.get((m, p), 0.0) for m, p in finest.items())
    return len(SWEEP_ROWS), failed, d

"""Self-checks of the benchmark: failures must register, the oracle must
catch a wrong value the package passes, and tracing must not change what
a round computes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import oracle
import run
import worker
from ahmedquad import (
    DomainError,
    EngineConfig,
    GaussLegendre,
    Tier,
    check_eq3,
    integrate_1d,
    run_chain,
    seeded_a_values,
    verify,
)
from ahmedquad.integrands import Interval

TIER = Tier.NATIVE64


def guarded(fn):
    return worker.outcome(*worker.attempt(fn))


def a_values(index=0):
    return seeded_a_values(TIER, seed=worker.draw_seed(1, index))


def round_record(chain_fn, eq3_fn, a):
    return {"a": [x.hi for x in a], "chain": guarded(chain_fn), "eq3": guarded(eq3_fn)}


def test_clean_round_passes_the_oracle():
    a = a_values()
    record = round_record(lambda: run_chain(TIER), lambda: check_eq3(a, tier=TIER), a)
    ops, failed, digits = oracle.score_verify_round(record, TIER.value)
    assert (ops, failed) == (run.OPS_PER_ROUND, 0)
    assert digits == oracle.DIGIT_CAP[TIER.value]


def test_injected_fault_registers_in_fail_ratio():
    a = a_values()
    record = round_record(
        lambda: run_chain(TIER, inject_fault="S5"), lambda: check_eq3(a, tier=TIER), a
    )
    ops, failed, _ = oracle.score_verify_round(record, TIER.value)
    assert (ops, failed) == (run.OPS_PER_ROUND, 1)


def test_oracle_fails_a_wrong_value_the_package_passed():
    a = a_values()
    record = round_record(lambda: run_chain(TIER), lambda: check_eq3(a, tier=TIER), a)
    s2 = record["chain"]["reports"][1]
    assert s2[0] == "S2" and s2[1]
    s2[2] = [s2[2][0] + 1e-9, 0.0]
    _, failed, _ = oracle.score_verify_round(record, TIER.value)
    assert failed == 1


def test_raising_integrand_registers_in_fail_ratio():
    def raising(x):
        raise DomainError("integrand refuses this point")

    cfg = EngineConfig(GaussLegendre(8), TIER)
    a = a_values()
    record = {
        "a": [x.hi for x in a],
        "chain": guarded(lambda: run_chain(TIER)),
        "eq3": guarded(lambda: [integrate_1d(raising, Interval.unit(TIER), cfg)]),
    }
    assert record["eq3"]["error"].startswith("DomainError")
    ops, failed, _ = oracle.score_verify_round(record, TIER.value)
    assert (ops, failed) == (run.OPS_PER_ROUND, len(a))


def test_raw_exception_ends_the_worker_and_counts_every_operation(monkeypatch):
    # an exception that is not the package's own escapes worker.attempt(); the
    # worker then exits non-zero and the parent fails all its operations
    def raising(x):
        return 1.0 / 0.0

    cfg = EngineConfig(GaussLegendre(8), TIER)
    with pytest.raises(ZeroDivisionError):
        guarded(lambda: [integrate_1d(raising, Interval.unit(TIER), cfg)])
    monkeypatch.setattr(run, "worker_cmd", lambda *args: [sys.executable, "-c", "1 / 0"])
    tally, out, children = run.run_verify("verify-native", 1, 0, trace=False)
    assert children == 2
    assert tally.attempted == tally.failed > 0
    assert out["plain"] == []


def test_traced_and_untraced_rounds_give_the_same_counts():
    a = a_values()
    plain = worker.verify_round(TIER, a)
    original = verify.integrate_1d
    tracer = worker.QuadTrace(verify, {"integrate_1d": "1d", "integrate_2d": "2d"})
    with tracer:
        traced = worker.verify_round(TIER, a, tracer)
    assert verify.integrate_1d is original
    assert run.canonical_round(plain) == run.canonical_round(traced)
    assert oracle.score_verify_round(plain, TIER.value) == oracle.score_verify_round(traced, TIER.value)
    reports = traced["chain"]["reports"] + traced["eq3"]["reports"]
    assert traced["trace"]["quad_evaluations"] == sum(r[4] for r in reports)
    assert traced["trace"]["quad_calls"] > 0


def fake_worker(records):
    line = json.dumps({"warmup": records[0], "rounds": records[1:]})
    return run.Child(0, [line], 1.0, 0.5, 20.0)


def test_a_round_that_does_not_repeat_is_a_failure():
    records = []
    for index in (-1, 0):
        a = a_values(index)
        rec = worker.verify_round(TIER, a)
        rec["index"] = index
        records.append(rec)
    same = json.loads(json.dumps(records))
    changed = json.loads(json.dumps(records))
    changed[1]["chain"]["reports"][0][4] += 1  # one evaluation more in S1
    children = [fake_worker(records), fake_worker(same)]
    tally, _ = run.score_verify_children(children, TIER.value, 1)
    assert (tally.mismatches, tally.failed) == (0, 0)
    children.append(fake_worker(changed))
    tally, _ = run.score_verify_children(children, TIER.value, 1)
    assert tally.mismatches == 1
    assert tally.failed == run.OPS_PER_ROUND


def sweep_csv(rows):
    lines = ["method,parameter,tier,value,correct_digits,evaluations,wall_time_s"]
    for method, parameter, value, digits in rows:
        lines.append(f"{method},{parameter},doubleword,{value},{digits},10,0.01")
    return "\n".join(lines) + "\n"


def test_sweep_rows_are_scored_against_the_oracle():
    exact = oracle.MP.nstr(oracle.I, 32, min_fixed=1, max_fixed=0)
    rows = [(m, p, exact, 27.5) for m, p in oracle.SWEEP_ROWS]
    assert oracle.score_sweep(oracle.parse_sweep(sweep_csv(rows)), "doubleword") == (28, 0, 27.5)
    wrong_claim = [(m, p, v, 20.0 if (m, p) == ("simpson", 9) else d) for m, p, v, d in rows]
    assert oracle.score_sweep(oracle.parse_sweep(sweep_csv(wrong_claim)), "doubleword")[1] == 1
    missing = rows[1:]
    assert oracle.score_sweep(oracle.parse_sweep(sweep_csv(missing)), "doubleword")[1] == 1


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_with_count(list(range(99))) is None
    samples = list(range(100))
    p90 = run.p90_with_count(samples)
    assert sum(1 for s in samples if s > p90) == 10

"""Child process of the benchmark: one unit of work against the package.

``run.py`` starts this file with ``PYTHONPATH`` pointing at ``src/`` and
reads the JSON object it prints as its last line of standard output.
Every timing here is taken around calls into the package's public
functions (or around the module-level names one package module calls
another through); nothing under ``src/`` is changed on disk.

Modes:

* ``verify``  import, one untimed warm-up round, a ``READY`` line, then
  a fixed number of timed rounds of ``run_chain`` + ``check_eq3``.
* ``cli-bench``  ``ahmedquad bench --tier doubleword`` run in-process
  as ``python -m`` runs it, with ``bench_rows`` and the engine calls
  timed.
* ``import``  time of a cold ``import ahmedquad``.
* ``tables``  cold rule-table builds of one kind at one tier.
* ``layers``  warm micro-timings of scalar kernels, integrand lanes
  and the fixed-order engine loop.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import runpy
import statistics
import sys
import time
from contextlib import redirect_stdout

READY = "READY"


def draw_seed(workload_seed: int, index: int) -> int:
    """Seed for ``seeded_a_values`` in round ``index`` of a run seeded
    with ``workload_seed``; index -1 is the warm-up round."""
    return random.Random(f"{workload_seed}:{index}").getrandbits(32)


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def pair(v):
    return None if v is None else [v.hi, v.lo]


# The host speed is measured with a fixed loop of double-word arithmetic
# written here (by the parent, in a thread on the worker's core, while a
# worker runs; by a probe, around its own timings), so it never changes
# with the package but does the same kind of work (small float functions
# returning tuples). On a 2-vCPU virtual machine the speed of the same
# code was seen to change by up to 1.8x within tens of seconds; this
# loop's time followed the package's closely enough to cut the
# variation of a tanh-sinh sweep from 14% to 3%. Times are reported in
# seconds at the speed where one loop takes CAL_REF_S.
CAL_REF_S = 1e-3
CAL_REPEAT = 5


def _cal_split(a):
    c = 134217729.0 * a
    h = c - (c - a)
    return h, a - h


def _cal_two_prod(a, b):
    p = a * b
    ah, al = _cal_split(a)
    bh, bl = _cal_split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _cal_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _cal_fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _cal_mul(ah, al, bh, bl):
    p, e = _cal_two_prod(ah, bh)
    return _cal_fast_two_sum(p, e + (ah * bl + al * bh))


def _cal_add(ah, al, bh, bl):
    s, e = _cal_two_sum(ah, bh)
    t, f = _cal_two_sum(al, bl)
    s, e = _cal_fast_two_sum(s, e + t)
    return _cal_fast_two_sum(s, e + f)


def _cal_div(ah, al, bh, bl):
    q1 = ah / bh
    ph, pl = _cal_mul(bh, bl, q1, 0.0)
    rh, rl = _cal_add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = _cal_mul(bh, bl, q2, 0.0)
    rh, rl = _cal_add(rh, rl, -ph, -pl)
    return _cal_add(q1, 0.0, q2, rl / bh)


def _cal_loop():
    # sum of 1 / ((1 + x^2)(2 + x^2)) over 119 points, in double-word
    sh, sl = 0.0, 0.0
    for i in range(1, 120):
        xh, xl = _cal_div(float(i), 0.0, 120.0, 0.0)
        x2h, x2l = _cal_mul(xh, xl, xh, xl)
        dh, dl = _cal_mul(*_cal_add(x2h, x2l, 1.0, 0.0), *_cal_add(x2h, x2l, 2.0, 0.0))
        sh, sl = _cal_add(sh, sl, *_cal_div(1.0, 0.0, dh, dl))
    return sh


def calibrate(repeat=CAL_REPEAT, clock=time.perf_counter):
    """Mean time of one calibration loop over ``repeat`` runs."""
    t0 = clock()
    for _ in range(repeat):
        _cal_loop()
    return (clock() - t0) / repeat


def at_ref(seconds, cal_s):
    """A time measured while the calibration loop took ``cal_s``,
    rescaled to the reference speed."""
    return seconds * CAL_REF_S / cal_s


class QuadTrace:
    """Timing wrappers installed, for the life of a ``with`` block, on
    the module-level engine names another package module calls through.
    ``names`` maps each attribute to the counter ("1d" or "2d") its busy
    time accrues to."""

    def __init__(self, module, names):
        self.module = module
        self.names = names
        self.saved = {}
        self.reset()

    def reset(self):
        self.calls = 0
        self.evaluations = 0
        self.unconverged = 0
        self.busy = {"1d": 0.0, "2d": 0.0}

    def _wrap(self, fn, dim):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                r = fn(*args, **kwargs)
            finally:
                self.busy[dim] += time.perf_counter() - t0
                self.calls += 1
            self.evaluations += r.evaluations
            if not r.converged:
                self.unconverged += 1
            return r

        return timed

    def __enter__(self):
        for name, dim in self.names.items():
            fn = getattr(self.module, name)
            self.saved[name] = fn
            setattr(self.module, name, self._wrap(fn, dim))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)
        self.saved.clear()
        return False

    def counts(self):
        return {
            "quad_calls": self.calls,
            "quad_evaluations": self.evaluations,
            "quad_unconverged": self.unconverged,
            "busy_1d": self.busy["1d"],
            "busy_2d": self.busy["2d"],
        }


def attempt(fn):
    """Run one batch of operations: ``(reports, None)``, or ``(None,
    error)`` when it raised the package's own error type (every
    operation in the batch then counts as failed). Any other exception
    ends the process non-zero, which the parent also counts as failure."""
    from ahmedquad import AhmedQuadError

    try:
        return fn(), None
    except AhmedQuadError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def outcome(reports, error):
    """A batch's outcome as JSON-ready data."""
    if reports is None:
        return {"error": error, "reports": None}
    return {
        "error": None,
        "reports": [
            [r.key, r.passed, pair(r.lhs_value), pair(r.rhs_value), r.evaluations, r.note]
            for r in reports
        ],
    }


def verify_round(tier, a_values, tracer=None):
    """One round: the eight-step chain, then the eq3 sweep on
    ``a_values``. Returns the round record; ``time_s`` covers the two
    calls and nothing else, from ``start`` (a ``time.perf_counter``
    reading, which the parent compares with its own)."""
    from ahmedquad import check_eq3, run_chain

    t0 = time.perf_counter()
    chain = attempt(lambda: run_chain(tier))
    t1 = time.perf_counter()
    eq3 = attempt(lambda: check_eq3(a_values, tier=tier))
    t2 = time.perf_counter()
    record = {
        "start": t0,
        "time_s": t2 - t0,
        "a": [a.hi for a in a_values],
        "chain": outcome(*chain),
        "eq3": outcome(*eq3),
    }
    if tracer is not None:
        record["trace"] = dict(tracer.counts(), chain_s=t1 - t0, samples_s=t2 - t1)
        tracer.reset()
    return record


def mode_verify(args) -> int:
    from ahmedquad import Tier, seeded_a_values, verify

    tier = Tier(args.tier)

    def inputs(index):
        return seeded_a_values(tier, seed=draw_seed(args.seed, index))

    warmup = verify_round(tier, inputs(-1))
    print(READY, flush=True)
    tracer = QuadTrace(verify, {"integrate_1d": "1d", "integrate_2d": "2d"}) if args.trace else None
    rounds = []
    # back to back: nothing runs between one round and the next
    for index in range(args.rounds):
        a_values = inputs(index)
        if tracer is None:
            rounds.append(verify_round(tier, a_values))
        else:
            with tracer:
                rounds.append(verify_round(tier, a_values, tracer))
    for index, r in enumerate(rounds):
        r["index"] = index
    warmup["index"] = -1
    emit({"warmup": warmup, "rounds": rounds})
    return 0


def mode_cli_bench(args) -> int:
    """``python -m ahmedquad.cli bench --tier doubleword``, run the way
    ``-m`` runs it, with the cold import, ``bench_rows`` and the engine
    calls of ``bench`` timed."""
    t0 = time.perf_counter()
    import ahmedquad  # noqa: F401  (the cold import is what is timed)

    import_s = time.perf_counter() - t0
    from ahmedquad import bench

    tracer = QuadTrace(bench, {"integrate_1d": "1d", "_integrate_1d_ts_fixed": "1d"})
    rows_s = []
    bench_rows = bench.bench_rows

    def timed_rows(tier):
        t = time.perf_counter()
        try:
            return bench_rows(tier)
        finally:
            rows_s.append(time.perf_counter() - t)

    # the CLI module binds bench_rows from bench when it is executed below
    bench.bench_rows = timed_rows
    sys.argv = ["ahmedquad.cli", "bench", "--tier", "doubleword"]
    out = io.StringIO()
    rc = 0
    try:
        with tracer, redirect_stdout(out):
            runpy.run_module("ahmedquad.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        bench.bench_rows = bench_rows
    emit({"rc": rc, "csv": out.getvalue(), "import_s": import_s, "rows_s": sum(rows_s), "trace": tracer.counts()})
    return rc


def mode_import(args) -> int:
    cal = calibrate()
    t0 = time.perf_counter()
    import ahmedquad  # noqa: F401

    import_s = time.perf_counter() - t0
    emit({"import_s": at_ref(import_s, (cal + calibrate()) / 2)})
    return 0


def gl_orders():
    from ahmedquad import Tier
    from ahmedquad.bench import GL_ORDERS
    from ahmedquad.verify import default_config

    used = set(GL_ORDERS) | {default_config(Tier.DOUBLEWORD).method.order}
    # each fixed-order run also evaluates the half-order rule for its
    # error estimate
    return sorted(used | {max(2, n // 2) for n in used})


def mode_tables(args) -> int:
    from ahmedquad import Tier, gl_nodes, tanh_sinh_abscissas

    tier = Tier(args.tier)
    orders = gl_orders()
    cal = calibrate()
    t0 = time.perf_counter()
    if args.kind == "gl":
        for n in orders:
            gl_nodes(n, tier)
    else:
        tanh_sinh_abscissas(12, tier)
    build_s = time.perf_counter() - t0
    emit({"build_s": at_ref(build_s, (cal + calibrate()) / 2)})
    return 0


def per_call_us(fn, calls, reps):
    """Median over ``reps`` batches of the mean time of one call, in
    microseconds at the reference speed; ``calls`` is a list of argument
    tuples. Each batch is scaled by one calibration loop timed just
    before it."""
    samples = []
    for _ in range(reps):
        cal = calibrate(1)
        t0 = time.perf_counter()
        for c in calls:
            fn(*c)
        samples.append(at_ref((time.perf_counter() - t0) / len(calls), cal))
    return statistics.median(samples) * 1e6


# ranges the workloads feed each kernel: denominators 1+x^2 and
# 2+x^2+y^2, sqrt(2+x^2), atan(sqrt(2+x^2)) in ahmed_eq1, sin and cos on
# the i1_theta domain, exp over the tanh-sinh node arguments
SCALAR_RANGES = {
    "mul": (1.0, 3.0),
    "div": (1.0, 3.0),
    "sqrt": (2.0, 3.0),
    "atan": (2.0**0.5, 3.0**0.5),
    "sin": (0.0, 0.7853981633974483),
    "exp": (0.5, 36.0),
}

# (integrand id, tier) pairs whose lane cost is reported
LANES = (
    ("ahmed_eq1", "doubleword"),
    ("i2_x", "doubleword"),
    ("i1_theta", "doubleword"),
    ("eq3_kernel", "doubleword"),
    ("ahmed_eq1", "native64"),
)
LANE_ORDER = 96


def mode_layers(args) -> int:
    import ahmedquad as aq
    from ahmedquad import EngineConfig, GaussLegendre, Real, Tier, integrate_1d

    rng = random.Random(f"{args.seed}:layers")
    dd = Tier.DOUBLEWORD
    three = Real.from_float(3.0, dd)

    def operand(lo, hi):
        # dividing by 3 gives a full low word, as engine values have
        return Real.from_float(3.0 * rng.uniform(lo, hi), dd) / three

    out = {}
    for name, (lo, hi) in SCALAR_RANGES.items():
        fn = getattr(aq, name)
        if name in ("mul", "div"):
            calls = [(operand(lo, hi), operand(lo, hi)) for _ in range(100)]
        else:
            calls = [(operand(lo, hi),) for _ in range(100)]
        reps = 9 if name in ("atan", "exp", "sin") else 25
        out[f"scalar.{name}_us"] = per_call_us(fn, calls, reps)

    def per_eval_us(integrand_id, tier):
        cfg = EngineConfig(GaussLegendre(LANE_ORDER), tier)
        a = aq.sqrt(Real.from_float(2.0, tier)) if integrand_id == "eq3_kernel" else None
        evaluations = integrate_1d(integrand_id, config=cfg, a=a).evaluations
        batch = 1 if tier is dd else 40
        reps = 9 if tier is dd and integrand_id != "i1_phi" else 41
        us = per_call_us(lambda: integrate_1d(integrand_id, config=cfg, a=a), [()] * batch, reps)
        return us / evaluations

    base = {t: per_eval_us("i1_phi", Tier(t)) for t in ("native64", "doubleword")}
    for integrand_id, t in LANES:
        out[f"integrands.lane_us.{integrand_id}.{t}"] = per_eval_us(integrand_id, Tier(t)) - base[t]
    for t, us in base.items():
        out[f"quad.overhead_us_per_eval.{t}"] = us
    emit(out)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--tier", required=True)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--rounds", type=int, required=True)
    v.add_argument("--trace", action="store_true")
    v.set_defaults(fn=mode_verify)
    c = sub.add_parser("cli-bench")
    c.set_defaults(fn=mode_cli_bench)
    i = sub.add_parser("import")
    i.set_defaults(fn=mode_import)
    t = sub.add_parser("tables")
    t.add_argument("--kind", choices=("gl", "ts"), required=True)
    t.add_argument("--tier", required=True)
    t.set_defaults(fn=mode_tables)
    la = sub.add_parser("layers")
    la.add_argument("--seed", type=int, required=True)
    la.set_defaults(fn=mode_layers)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

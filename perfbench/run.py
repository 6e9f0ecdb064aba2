"""Benchmark of the ahmedquad package, timed from outside the package.

Run from the root of a checkout (the package is imported from ``src/``;
nothing is installed or built):

    python3 perfbench/run.py --workload verify-native --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one caller, each round starts when the previous
one ends; at most one child process is alive at a time):

* ``verify-native``  warm rounds of ``run_chain(NATIVE64)`` followed by
  ``check_eq3`` on 20 seeded parameters, default engine (tanh-sinh).
* ``verify-doubleword``  the same round at DOUBLEWORD, default engine
  (Gauss-Legendre order 96).
* ``bench-doubleword-cold``  one fresh ``python -m ahmedquad.cli bench
  --tier doubleword`` process per round. The sweep has no random input,
  so ``--seed`` does not change it.

Verify rounds run in worker processes of a fixed number of rounds each,
started one after another until ``--seconds`` is used up; every worker
replays the same round inputs, so each worker is also a determinism
check on the others, and a worker's peak memory does not depend on how
fast the package is.

Every reported time is rescaled to a reference host speed by a fixed
calibration loop (see ``worker.calibrate``) that a thread of this
process times while the child runs; the raw wall times are printed as
well.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics instead. Lines before it give a readable report and
the provenance of the result. The exit code is 0 when a result was
produced, whether or not every check passed (``correct`` says that).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ahmedquad"

# each verify worker runs this many timed rounds (about 2-3 s of work at
# the first benchmarked commit), so its peak memory reflects a fixed
# amount of work
ROUNDS_PER_WORKER = {"verify-native": 250, "verify-doubleword": 6}
TIER = {
    "verify-native": "native64",
    "verify-doubleword": "doubleword",
    "bench-doubleword-cold": "doubleword",
}
WORKLOADS = tuple(TIER)

# fresh processes timed for the cold workload's set-up
IMPORT_SAMPLES = 15
# calibration loops timed in this process around every child
PARENT_CAL_REPEAT = 15
# while a long child runs, one calibration loop is timed in a thread of
# this process this often (see Child.cal_between)
SAMPLE_PERIOD_S = 0.1
MIN_SAMPLES = 5
# the speed was seen to change within a worker's few seconds of life, so
# an interval the child reports is scaled by the samples taken within
# this many seconds of it
SAMPLE_WINDOW_S = 0.3
# fresh processes per cold table build in a traced run
TABLE_SAMPLES = 3
# no child may outlive this, so a hung child still ends the run in time
CHILD_TIMEOUT_S = 120.0

class Child:
    """A finished child process: exit code, output lines, wall time,
    time until its READY line (if any), peak resident memory, and the
    calibration times taken in this process just before, during and
    after it. ``start`` and the sample times are ``time.perf_counter``
    readings, a clock all processes of the host share."""

    def __init__(self, rc, lines, wall_s, ready_s, rss_mb, start=0.0, cal_samples=()):
        self.rc = rc
        self.lines = lines
        self.wall_s = wall_s
        self.ready_s = ready_s
        self.rss_mb = rss_mb
        self.start = start
        self.cal_samples = cal_samples  # (time, loop time) pairs
        self.traced = False
        self.cal_before = self.cal_after = worker.CAL_REF_S

    def cal_between(self, a, b):
        """The host speed from time ``a`` to ``b``: the mean of the
        samples within SAMPLE_WINDOW_S of that interval, or of the
        MIN_SAMPLES nearest its middle when fewer lie there."""
        if len(self.cal_samples) < MIN_SAMPLES:
            return (self.cal_before + self.cal_after) / 2
        near = [cal for t, cal in self.cal_samples if a - SAMPLE_WINDOW_S <= t <= b + SAMPLE_WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = (a + b) / 2
            nearest = sorted(self.cal_samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            near = [cal for _, cal in nearest]
        return statistics.fmean(near)

    @property
    def cal_s(self):
        """The host speed over the child's whole life."""
        return self.cal_between(self.start, self.start + self.wall_s)

    def result(self):
        """The JSON object on the last output line, or None."""
        if self.rc != 0 or not self.lines:
            return None
        try:
            return json.loads(self.lines[-1])
        except json.JSONDecodeError:
            return None


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("AHMEDQUAD_TIER", None)
    return env


def run_child(argv, sample=False) -> Child:
    """Run one child to completion, timing it from just before it is
    started; stderr is merged into the captured output. With ``sample``
    the calibration loop is timed in a thread of this process while the
    child runs, on the core ``main`` pins both to."""
    samples = []
    stop = threading.Event()

    def sampler():
        while not stop.wait(SAMPLE_PERIOD_S):
            # this thread's CPU time leaves out the time the child
            # holds the core while the loop runs
            t = time.perf_counter()
            cal = worker.calibrate(1, time.thread_time)
            samples.append(((t + time.perf_counter()) / 2, cal))

    thread = threading.Thread(target=sampler, daemon=True) if sample else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    if thread is not None:
        thread.start()
    ready_s = None
    lines = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.rstrip("\n") == worker.READY:
                ready_s = time.perf_counter() - t0
                continue
            lines.append(line.rstrip("\n"))
    finally:
        proc.stdout.close()
        # wait4 reaps the child and gives its own peak memory
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        timer.cancel()
        stop.set()
        if thread is not None:
            thread.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, lines, wall_s, ready_s, usage.ru_maxrss / 1024.0, t0, samples)


def closed_loop(command, seconds, minimum, sample=False):
    """Children one after another, each started when the previous one
    ended, until another child of typical length would overrun
    ``seconds`` (and at least ``minimum`` ran). ``command(i)`` gives the
    i-th child's argv and whether it is traced."""
    cal = worker.calibrate(PARENT_CAL_REPEAT)
    children = []
    start = time.perf_counter()
    while True:
        argv, traced = command(len(children))
        c = run_child(argv, sample)
        c.traced = traced
        c.cal_before, cal = cal, worker.calibrate(PARENT_CAL_REPEAT)
        c.cal_after = cal
        children.append(c)
        elapsed = time.perf_counter() - start
        typical = statistics.median(x.wall_s for x in children)
        if len(children) >= minimum and elapsed + typical > seconds:
            return children


def python(*args):
    return [sys.executable, *args]


def worker_cmd(*args):
    return python(str(HERE / "worker.py"), *args)


def p90_with_count(samples):
    """The 90th percentile when at least ten samples lie beyond it."""
    n = len(samples)
    if n < 100:
        return None
    return sorted(samples)[math.ceil(0.9 * n) - 1]


class Tally:
    """Operations attempted and failed, the fewest correct digits seen,
    and determinism mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits = None
        self.mismatches = 0

    def add(self, ops, failed, digits=None):
        self.attempted += ops
        self.failed += failed
        if digits is not None:
            self.digits = digits if self.digits is None else min(self.digits, digits)

    def merge(self, other):
        self.add(other.attempted, other.failed, other.digits)
        self.mismatches += other.mismatches


def failed_child(tally, c, ops, what):
    """A child that produced no result loses every operation it was
    given; its last output lines go to the report."""
    tally.add(ops, ops, 0.0)
    sys.stdout.write(f"# {what} exited {c.rc}: {' | '.join(c.lines[-5:])}\n")


# ----------------------------------------------------------------------
# verify workloads


def canonical_round(record):
    """Everything in a round record that must repeat exactly."""
    return json.dumps([record["a"], record["chain"], record["eq3"]], sort_keys=True)


# per-layer metric <- field of a traced round record
TRACE_COUNTS = {
    "quad.calls": "quad_calls",
    "quad.evaluations": "quad_evaluations",
    "quad.unconverged": "quad_unconverged",
}
TRACE_TIMES = {
    "quad.busy_s.1d": "busy_1d",
    "quad.busy_s.2d": "busy_2d",
    "verify.chain_s": "chain_s",
    "verify.samples_s": "samples_s",
}
# eight chain steps and the 20 eq3 samples seeded_a_values draws by default
OPS_PER_ROUND = len(oracle.CHAIN_TRUTH) + 20


def run_verify(workload, seed, seconds, trace, minimum=2):
    """Verify workers one after another until ``seconds`` is used; in a
    traced run they alternate traced and untraced."""
    tier = TIER[workload]
    rounds = ROUNDS_PER_WORKER[workload]

    def command(i):
        traced = trace and i % 2 == 0
        args = ["verify", "--tier", tier, "--seed", str(seed), "--rounds", str(rounds)]
        return worker_cmd(*args, *(["--trace"] if traced else [])), traced

    children = closed_loop(command, seconds, minimum, sample=True)
    tally, out = score_verify_children(children, tier, rounds)
    return tally, out, len(children)


def score_verify_children(children, tier, rounds):
    """Score every round of every verify worker once against the oracle
    and check that a round index repeats exactly across workers."""
    tally = Tally()
    scored = {}  # canonical round -> (ops, failed, digits)
    reference = {}  # round index -> canonical round
    counts_ref = {}  # round index -> traced counts
    out = {"setup": [], "setup_raw": [], "rss": [], "plain": [], "plain_raw": [], "traced": [], "layers": []}
    for c in children:
        res = c.result()
        if res is None or c.ready_s is None:
            failed_child(tally, c, OPS_PER_ROUND * (rounds + 1), "verify worker")
            continue
        out["setup"].append(worker.at_ref(c.ready_s, c.cal_between(c.start, c.start + c.ready_s)))
        out["setup_raw"].append(c.ready_s)
        out["rss"].append(c.rss_mb)
        for record in [res["warmup"], *res["rounds"]]:
            key = canonical_round(record)
            index = record["index"]
            if reference.setdefault(index, key) != key:
                tally.mismatches += 1
                tally.add(OPS_PER_ROUND, OPS_PER_ROUND, 0.0)
                continue
            if key not in scored:
                scored[key] = oracle.score_verify_round(record, tier)
            tally.add(*scored[key])
            if index < 0:
                continue
            cal_s = c.cal_between(record["start"], record["start"] + record["time_s"])
            at_ref = worker.at_ref(record["time_s"], cal_s)
            if not c.traced:
                out["plain"].append(at_ref)
                out["plain_raw"].append(record["time_s"])
                continue
            out["traced"].append(at_ref)
            t = record["trace"]
            counts = {name: t[key] for name, key in TRACE_COUNTS.items()}
            if counts_ref.setdefault(index, counts) != counts:
                tally.mismatches += 1
                tally.add(OPS_PER_ROUND, OPS_PER_ROUND, 0.0)
            sample = dict(counts)
            sample.update({name: worker.at_ref(t[key], cal_s) for name, key in TRACE_TIMES.items()})
            sample["verify.self_s"] = (
                sample["verify.chain_s"] + sample["verify.samples_s"]
                - sample["quad.busy_s.1d"] - sample["quad.busy_s.2d"]
            )
            reports = (record["chain"]["reports"] or []) + (record["eq3"]["reports"] or [])
            sample["verify.checks"] = len(reports)
            sample["verify.failed"] = sum(1 for r in reports if not r[1])
            out["layers"].append(sample)
    return tally, out


def layer_medians(samples, names):
    """Per-round medians of traced rounds."""
    if not samples:
        return {}
    return {n: statistics.median(s[n] for s in samples) for n in names}


# ----------------------------------------------------------------------
# the cold bench workload


def canonical_sweep(rows):
    return json.dumps(sorted((k, v[0], v[1], v[2]) for k, v in rows.items()))


def run_cold(seconds, trace, minimum=2):
    """One fresh CLI process per round until ``seconds`` is used; in a
    traced run, rounds alternate the CLI run through the tracing worker
    and the plain CLI."""

    def command(i):
        if trace and i % 2 == 0:
            return worker_cmd("cli-bench"), True
        return python("-m", "ahmedquad.cli", "bench", "--tier", "doubleword"), False

    children = closed_loop(command, seconds, minimum, sample=True)
    tally = Tally()
    reference = None
    out = {"rss": [], "plain": [], "plain_raw": [], "traced": [], "layers": []}
    n_rows = len(oracle.SWEEP_ROWS)
    for c in children:
        if c.traced:
            res = c.result()
            csv_text = res["csv"] if res is not None and res["rc"] == 0 else None
        else:
            csv_text = "\n".join(c.lines) + "\n" if c.rc == 0 else None
        if csv_text is None:
            failed_child(tally, c, n_rows, "bench round")
            continue
        rows = oracle.parse_sweep(csv_text)
        key = canonical_sweep(rows)
        if reference is None:
            reference = key
        if key != reference:
            tally.mismatches += 1
            tally.add(n_rows, n_rows, 0.0)
            continue
        tally.add(*oracle.score_sweep(rows, "doubleword"))
        out["rss"].append(c.rss_mb)
        wall = worker.at_ref(c.wall_s, c.cal_s)
        sys.stdout.write(
            f"# bench round: wall {c.wall_s:.4f} s, calibration {c.cal_s * 1e3:.4f} ms "
            f"({len(c.cal_samples)} samples), at reference speed {wall:.4f} s\n"
        )
        if not c.traced:
            out["plain"].append(wall)
            out["plain_raw"].append(c.wall_s)
            continue
        out["traced"].append(wall)
        engine = {}
        for (method, _), row in rows.items():
            engine[method] = engine.get(method, 0.0) + worker.at_ref(row[3], c.cal_s)
        rows_s = worker.at_ref(res["rows_s"], c.cal_s)
        import_s = worker.at_ref(res["import_s"], c.cal_s)
        out["layers"].append(
            {
                "bench.rows_s": rows_s,
                "bench.warm_s": rows_s - sum(engine.values()),
                # the traced process runs the CLI module as ``-m`` does;
                # worker.py's own imports and its JSON line add a few ms
                "cli.overhead_s": wall - rows_s - import_s,
                **{f"bench.engine_s.{m}": engine.get(m, 0.0) for m in ("gauss-legendre", "simpson", "tanh-sinh")},
                "quad.calls": res["trace"]["quad_calls"],
                "quad.evaluations": res["trace"]["quad_evaluations"],
                "quad.unconverged": res["trace"]["quad_unconverged"],
                "quad.busy_s.1d": worker.at_ref(res["trace"]["busy_1d"], c.cal_s),
            }
        )
    return tally, out, len(children)


BENCH_ONLY = (
    "bench.rows_s",
    "bench.warm_s",
    "bench.engine_s.gauss-legendre",
    "bench.engine_s.simpson",
    "bench.engine_s.tanh-sinh",
    "cli.overhead_s",
)
COLD_QUAD = ("quad.calls", "quad.evaluations", "quad.unconverged", "quad.busy_s.1d")
VERIFY_ONLY = (
    "quad.busy_s.2d",
    "verify.chain_s",
    "verify.samples_s",
    "verify.self_s",
    "verify.checks",
    "verify.failed",
)
VERIFY_LAYERS = (*COLD_QUAD, *VERIFY_ONLY)


# ----------------------------------------------------------------------
# traced-run probes shared by every workload


def probe_layers(seed, tally):
    """Scalar kernels, integrand lanes, engine overhead, cold tables and
    cold import, each measured in a fresh process; a probe process that
    fails counts as one failed operation."""
    metrics = {}

    def result(argv):
        r = run_child(argv)
        res = r.result()
        tally.add(1, 0 if res is not None else 1)
        if res is None:
            sys.stdout.write(f"# probe {argv[2:]} exited {r.rc}: {' | '.join(r.lines[-5:])}\n")
        return res

    metrics.update(result(worker_cmd("layers", "--seed", str(seed))) or {})
    for kind in ("gl", "ts"):
        for tier in ("native64", "doubleword"):
            times = [result(worker_cmd("tables", "--kind", kind, "--tier", tier)) for _ in range(TABLE_SAMPLES)]
            times = [r["build_s"] for r in times if r is not None]
            if times:
                metrics[f"quad.tables.{kind}_build_s.{tier}"] = statistics.median(times)
    imports = [result(worker_cmd("import")) for _ in range(IMPORT_SAMPLES)]
    imports = [r["import_s"] for r in imports if r is not None]
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    return metrics


# ----------------------------------------------------------------------
# metrics


def median_or_nan(values):
    return statistics.median(values) if values else math.nan


def end_to_end(workload, seed, seconds):
    if workload == "bench-doubleword-cold":
        # set-up of a bench user: interpreter start and import only
        imports = closed_loop(lambda i: (python("-c", "import ahmedquad"), False), 0, IMPORT_SAMPLES)
        tally, out, n_children = run_cold(seconds, trace=False)
        ok = [c for c in imports if c.rc == 0]
        tally.add(len(imports), len(imports) - len(ok))
        setup = [worker.at_ref(c.wall_s, c.cal_s) for c in ok]
        setup_raw = [c.wall_s for c in ok]
    else:
        tally, out, n_children = run_verify(workload, seed, seconds, trace=False)
        setup, setup_raw = out["setup"], out["setup_raw"]
    times = out["plain"]
    metrics = {
        "setup_s": median_or_nan(setup),
        "round_s": median_or_nan(times),
        "max_rss_mb": median_or_nan(out["rss"]),
        "digits": tally.digits if tally.digits is not None else 0.0,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted if tally.attempted else 0.0,
    }
    counts = {
        "children": n_children,
        "rounds": len(times),
        "setups": len(setup),
        "round_s.p90": p90_with_count(times),
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
        "raw_round_s": median_or_nan(out["plain_raw"]),
        "raw_setup_s": median_or_nan(setup_raw),
    }
    return tally, metrics, counts


def per_layer(workload, seed, seconds):
    tally = Tally()
    metrics = probe_layers(seed, tally)
    if workload == "bench-doubleword-cold":
        part, out, n_children = run_cold(seconds, trace=True)
        metrics.update(layer_medians(out["layers"], BENCH_ONLY + COLD_QUAD))
        # the sweep reaches neither verify nor the 2-D engines: those
        # layers come from one traced verify-doubleword worker
        probe_tally, probe, _ = run_verify("verify-doubleword", seed, 0, trace=True, minimum=1)
        metrics.update(layer_medians(probe["layers"], VERIFY_ONLY))
    else:
        part, out, n_children = run_verify(workload, seed, seconds, trace=True)
        metrics.update(layer_medians(out["layers"], VERIFY_LAYERS))
        # verify rounds never reach bench or the CLI: one traced CLI
        # bench process supplies those layers
        probe_tally, probe, _ = run_cold(0, trace=True, minimum=1)
        metrics.update(layer_medians(probe["layers"], BENCH_ONLY))
    tally.merge(part)
    tally.merge(probe_tally)
    if out["plain"] and out["traced"]:
        overhead = statistics.median(out["traced"]) / statistics.median(out["plain"])
        metrics["trace.overhead"] = overhead
    counts = {"children": n_children, "rounds": len(out["plain"]), "traced_rounds": len(out["traced"])}
    return tally, metrics, counts



# ----------------------------------------------------------------------
# provenance and output


def provenance(workload, seed, seconds, trace, counts):
    sys.path.insert(0, str(SRC))
    import ahmedquad

    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the checkout need not be a git repository
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload != "bench-doubleword-cold",
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "build_info": ahmedquad.build_info(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "cal_ref_s": worker.CAL_REF_S,
        **counts,
    }


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package at {PACKAGE}; run from the root of a checkout\n")
        return 2

    # children inherit this, so the sampler thread times the core the
    # child runs on; where pinning is not allowed the run goes on unpinned
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    measure = per_layer if args.trace else end_to_end
    tally, values, counts = measure(args.workload, args.seed, args.seconds)
    counts["determinism_mismatches"] = tally.mismatches
    correct = tally.failed == 0 and tally.mismatches == 0
    metrics = {}
    for name, unit in expected_metrics(args.trace).items():
        value = values.get(name, math.nan)
        if not math.isfinite(value):
            sys.stdout.write(f"# metric {name} was not measured\n")
            value = 0.0
            correct = False
        metrics[name] = {"value": value, "unit": unit}

    for name, m in sorted(metrics.items()):
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        p90 = counts["round_s.p90"]
        p90_text = f"{p90:.6g} s" if p90 is not None else "n/a"
        print(f"{'round_s.p90':45s} {p90_text} ({counts['rounds']} rounds)")
        print(f"{'fail_ratio':45s} {counts['fail_ratio']:.6g} ratio")
        print(f"{'raw wall time: round_s, setup_s':45s} {counts['raw_round_s']:.6g} s, {counts['raw_setup_s']:.6g} s")
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, counts)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

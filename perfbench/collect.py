"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out results.json

Every workload in BENCHMARK.json runs once per seed; each (seed,
workload) pair is one ``run.py`` process, run one after another with
the settings in BENCHMARK.json. For every end-to-end
metric the summary gives the median and the distance between the first
and third quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json; a spread above a third of its bound is
flagged. The output file keeps every run's result line and provenance,
so two files (say, a parent commit and a change) can be compared run by
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(config, workload, seed, trace):
    cmd = [
        *config["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace, "rc": proc.returncode,
            "result": result, "provenance": prov}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def summarise(config, runs):
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for w in sorted({r["workload"] for r in runs}):
        ok = [r for r in runs if r["workload"] == w and r["result"] is not None and r["trace"] == 0]
        rows = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in ok if name in r["result"]["metrics"]]
            if len(values) >= 2:
                med, sp = spread(values)
                rows[name] = {"median": med, "spread": sp, "bound": bound, "n": len(values),
                              "steady": sp <= bound / 3}
        summary[w] = {
            "metrics": rows,
            "runs": len(ok),
            "all_correct": all(r["result"]["correct"] for r in ok),
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    runs = []
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            r = run_once(config, w, seed, args.trace)
            runs.append(r)
            metrics = r["result"]["metrics"] if r["result"] else {}
            short = " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
            print(f"{w} seed={seed} rc={r['rc']} correct={r['result'] and r['result']['correct']} {short}",
                  flush=True)
    summary = summarise(config, runs) if args.trace == 0 else {}
    for w, s in summary.items():
        for name, m in s["metrics"].items():
            flag = "" if m["steady"] else "  <-- spread above bound/3"
            print(f"{w:24s} {name:12s} median={m['median']:.6g} spread={m['spread']:.4f} "
                  f"bound={m['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the runs.

    python3 perfbench/collect.py --runs 10 --seconds 20 --out FILE
        [--workloads audit_cold,...] [--first-seed 1] [--trace]

Each run uses its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric the summary gives the median of the per-run values, their
quartiles and the spread (q3 - q1) / median, as ``statistics.quantiles(n=4)``
computes them. It also pools the per-operation samples of all runs and
gives their median plus the highest percentile with at least ten samples
beyond it, with the sample count. With ``--trace`` one traced run per
workload is added and its per-layer metrics are stored as well. The run
context of every run (commit, Python, nproc, load averages, seed) is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Per-operation sample behind each end-to-end metric in a run record.
SAMPLE_KEYS = {"wall_s": "wall_s", "cpu_s": "cpu_s", "peak_rss_mb": "rss_mb"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def tail_percentile(samples: list[float]) -> dict:
    """Median and the highest percentile (in steps of 10) that leaves at
    least ten samples above it."""
    out = {"samples": len(samples), "median": statistics.median(samples)}
    ordered = sorted(samples)
    for pct in (90, 80, 70, 60, 50):
        rank = int(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10 and rank > 0:
            out[f"p{pct}"] = ordered[rank - 1]
            break
    return out


def summarise(workload: str, runs: list[tuple[dict, dict]]) -> dict:
    metrics = {}
    for name in runs[0][0]["metrics"]:
        values = [r["metrics"][name]["value"] for r, _ in runs]
        entry = {"unit": runs[0][0]["metrics"][name]["unit"],
                 "runs": values, **quartiles(values)}
        key = SAMPLE_KEYS.get(name)
        if key or name == "setup_s":
            # Per-operation samples, corrected for host speed as in run.py.
            pooled = [
                v for _, rec in runs
                for v in ([w * k for w, k in zip(rec["setup_s"], rec["setup_speed"])]
                          if name == "setup_s" else
                          [op[key] * (op["speed"] if key != "rss_mb" else 1.0)
                           for op in rec["ops"] if not op["traced"]])
            ]
            entry["pooled"] = tail_percentile(pooled)
        metrics[name] = entry
    return {
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "error_rate": sum(r["failed"] for r, _ in runs)
        / sum(r["attempted"] for r, _ in runs),
        "metrics": metrics,
        "contexts": [rec["context"] for _, rec in runs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    doc = {"seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, seconds, 0))
            m = runs[-1][0]["metrics"]
            print(workload, args.first_seed + i,
                  " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                  flush=True)
        summary = summarise(workload, runs)
        if args.trace:
            result, record = run_once(workload, args.first_seed, seconds, 1)
            summary["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            summary["per_layer_context"] = record["context"]
        doc["workloads"][workload] = summary
        for name, entry in summary["metrics"].items():
            print(f"  {workload} {name}: median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

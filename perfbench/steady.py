"""Steadiness check: run each workload with several seeds and report how far
each end-to-end metric spreads, against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--out FILE] [--against FILE]

Runs are sequential (the search-pool workload uses both cores). For each
workload and metric it prints the median, the quartiles and the spread
(Q3 - Q1) / median as Python's `statistics.quantiles(values, n=4)` gives
them, the bound, and `ok` when the spread is below a third of the bound.
`--against` compares the medians with an earlier `--out` file and reports
how much worse each got, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric: dict, old: float, new: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    report: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = perf_counter()
            res = run_once(spec, workload, seed)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"run {perf_counter() - t0:.1f} s", flush=True)
            ok &= res["correct"] and res["failed"] == 0
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = summarize([r["metrics"][name]["value"] for r in runs])
            row["bound"] = metric["bound"]
            row["ok"] = row["spread"] < metric["bound"] / 3
            line = (f"  {name:12s} median {row['median']:10.4f} q1 {row['q1']:10.4f} "
                    f"q3 {row['q3']:10.4f} spread {row['spread']:.3f} "
                    f"bound {metric['bound']:.2f} {'ok' if row['ok'] else 'WIDE'}")
            if workload in earlier:
                row["worse_by"] = worse_by(metric, earlier[workload][name]["median"],
                                           row["median"])
                line += f" worse-by {row['worse_by']:+.3f}"
                ok &= row["worse_by"] <= metric["bound"]
            if name != "setup_s":
                ok &= row["spread"] <= metric["bound"]
            rows[name] = row
            print(line, flush=True)
        report[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

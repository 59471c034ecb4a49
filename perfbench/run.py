"""bihom benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports bihom from the
checkout's `src/`, writes its inputs under `.perfbench_work/`, replays
cycles of operations for at least S seconds, checks every output,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The line before it carries the details (tail
percentile and sample count, raw wall-time figures, calibration, failures,
metrics that do not apply).

Time metrics are speed-adjusted: a fixed exact-arithmetic calibration loop
runs between any two operations and around every set-up probe, and each
wall time is scaled by CAL_REF_S over the calibration time measured around
it. A virtual machine on a shared host can change speed by up to 3x over
tens of seconds; the adjustment removes that from the figures, but not a
change of the program, whose code the calibration loop never runs. Every
workload but search-pool runs on one CPU, so the calibration measures the
CPU the operations ran on.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` the run measures half of S untraced, replays the same
cycles with every layer boundary wrapped (see tracing.py), and reports
the per-layer metrics. Spans are written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads
from tracing import Recorder, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES_IN_RUN = 8
CAL_VALUES = tuple(Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 5))
CAL_REF_S = 0.006       # the calibration loop's typical time on the reference machine


def calibrate() -> float:
    """Wall time of a fixed loop of Fraction products and sums built into
    tuples and a dict, the kind of work bihom does; the mean over the CPUs
    this process may run on, which are the CPUs its pool workers use."""
    cpus = os.sched_getaffinity(0)
    times = []
    for cpu in sorted(cpus):
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        t0 = perf_counter()
        table = {}
        for a in CAL_VALUES:
            table[a] = tuple(a * b + b for b in CAL_VALUES)
        times.append(perf_counter() - t0)
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Result(NamedTuple):
    op: int         # index into the cycle
    wall: float     # seconds, as measured
    ok: bool
    adj: float      # seconds, speed-adjusted


def tail(samples: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], {"percentile": 100.0, "beyond": 0, "samples": n}
    return s[n - 11], {"percentile": round(100.0 * (n - 10) / n, 1), "beyond": 10, "samples": n}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def child_env(threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["BIHOM_THREADS"] = threads
    env["TMPDIR"] = str(ROOT / ".perfbench_work")
    return env


class SetupProbe:
    """Set-up time: `import bihom` plus writing the workload's inputs, in a
    fresh process. Probes are spread over the run (one before it, then one
    per eighth of the measured time), so their median sees the same
    machine as the operations do."""

    def __init__(self, name: str, seed: int, work: Path):
        self.cmd = [sys.executable, str(HERE / "workloads.py"), "--setup", name, str(seed)]
        self.work = work
        self.totals: list[float] = []     # speed-adjusted
        self.raw: list[float] = []
        self.imports: list[float] = []

    def __call__(self):
        d = self.work / f"setup{len(self.totals)}"
        before = calibrate()
        d.mkdir(parents=True)
        proc = subprocess.run(self.cmd + [str(d)], env=child_env("1"), cwd=str(ROOT),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        factor = CAL_REF_S / ((before + calibrate()) / 2.0)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.raw.append(doc["import_s"] + doc["generate_s"])
        self.totals.append(self.raw[-1] * factor)
        self.imports.append(doc["import_s"] * factor)
        shutil.rmtree(d)

    def result(self) -> dict:
        return {"setup_s": statistics.median(self.totals), "raw_s": statistics.median(self.raw),
                "import_s": statistics.median(self.imports), "probes": len(self.totals)}


class Runner:
    """Runs operations, checks them, and keeps what the metrics need."""

    def __init__(self, wl, bihom, seed: int):
        self.wl = wl
        self.bihom = bihom
        self.env = child_env(wl.threads)
        self.search_check = (workloads.SearchChecker(bihom, seed)
                             if wl.name.startswith("search") else None)
        self.first_out: dict[int, str] = {}
        self.first_file: dict[int, bytes] = {}
        self.failures: list[str] = []
        self.cals = [calibrate()]   # one before and one after every operation

    def execute(self, i: int, in_process: bool | None = None):
        op = self.wl.ops[i]
        if in_process is None:
            in_process = self.wl.in_process
        if in_process:
            os.environ["BIHOM_THREADS"] = self.wl.threads
            return workloads.run_in_process(self.bihom.cli, op)
        return workloads.run_process(op, self.env, str(ROOT))

    def check(self, i: int, rc: int, out: str) -> bool:
        op = self.wl.ops[i]
        try:
            if rc != op.expect_rc:
                raise workloads.CheckFailed(f"exit {rc}, expected {op.expect_rc}")
            if op.stdout_to:
                with open(op.stdout_to, "w", encoding="utf-8") as fh:
                    fh.write(out)
            if i in self.first_out:
                if out != self.first_out[i]:
                    raise workloads.CheckFailed("output differs from the first run of this call")
            else:
                if op.check is not None:
                    op.check(out)
                if self.search_check is not None:
                    self.search_check(op, out)
                self.first_out[i] = out
            if op.produces:
                with open(op.produces, "rb") as fh:
                    data = fh.read()
                if self.first_file.setdefault(i, data) != data:
                    raise workloads.CheckFailed("written model differs from the first run")
        except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{op.label}: {exc}")
            return False
        return True

    def serial_reference(self) -> list[Result]:
        """search-pool: run every operation serially first. Its checked output
        becomes the first run of the call, so every pooled result must be
        byte-identical to the serial one."""
        saved = self.wl.threads
        self.wl.threads = "1"
        try:
            return self.cycles(0, count=1)
        finally:
            self.wl.threads = saved

    def speed(self) -> float:
        """CAL_REF_S over the mean of the calibrations just before and just
        after the operation that has just finished."""
        self.cals.append(calibrate())
        return CAL_REF_S / ((self.cals[-2] + self.cals[-1]) / 2.0)

    def cycles(self, seconds: float, rec=None, count: int | None = None,
               in_process: bool | None = None, probe=None):
        """Replay cycles until `seconds` of operation time (or `count` cycles)
        have passed; `probe` runs after every eighth of `seconds`."""
        results: list[Result] = []
        busy = 0.0
        next_probe = seconds / SETUP_PROBES_IN_RUN
        done = 0
        while (busy < seconds) if count is None else (done < count):
            for i in range(len(self.wl.ops)):
                if count is None and busy >= seconds and not self.wl.whole_cycles:
                    break
                span = None
                if rec is not None:
                    rec.enabled = True
                    span = rec.open("bench.op")
                t0 = perf_counter()
                try:
                    rc, out, dt = self.execute(i, in_process)
                    crash = None
                except Exception as exc:  # a crash of the program is a failed operation
                    dt = perf_counter() - t0
                    crash = f"{type(exc).__name__}: {exc}"
                if rec is not None:
                    rec.close(span, {"op": i})
                    rec.enabled = False
                adj = dt * self.speed()
                if crash is None:
                    ok = self.check(i, rc, out)
                else:
                    self.failures.append(f"{self.wl.ops[i].label}: {crash}")
                    ok = False
                results.append(Result(i, dt, ok, adj))
                busy += dt
                if probe is not None and busy >= next_probe:
                    probe()
                    self.cals.append(calibrate())
                    next_probe += seconds / SETUP_PROBES_IN_RUN
            done += 1
        return results


def timing(walls: list[float], setup_s: float) -> dict:
    tail_ms, _ = tail([w * 1e3 for w in walls])
    return {"setup_s": setup_s, "ops_per_s": len(walls) / sum(walls),
            "op_ms_p50": statistics.median(walls) * 1e3, "op_ms_tail": tail_ms}


def end_to_end(results: list[Result], setup: dict, cals: list[float]) -> tuple[dict, dict]:
    adj = timing([r.adj for r in results], setup["setup_s"])
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
    metrics = {k: (v, units[k]) for k, v in adj.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    details = {"op_ms_tail": tail([r.adj for r in results])[1],
               "setup_probes": setup["probes"],
               "raw": timing([r.wall for r in results], setup["raw_s"]),
               "calibration_ms": {"median": statistics.median(cals) * 1e3,
                                  "min": min(cals) * 1e3, "max": max(cals) * 1e3,
                                  "count": len(cals)}}
    return metrics, details


def layer_metrics(wl, rec, untraced, traced, setup, extra) -> tuple[dict, list]:
    """Per-layer metrics from the traced phase, per operation."""
    t = rec.totals()
    ops = max(1, len(traced))
    failing_ops = sum(1 for r in traced if wl.ops[r.op].failing)
    na: list[str] = []

    def get(name):
        return t.get(name, {"calls": 0, "dur": 0.0, "self": 0.0, "leaves": 0,
                            "parent_dur": 0.0, "extras": []})

    def per_op(x, base=ops):
        return x / base if base else 0.0

    def ratio(num, den, key):
        if den:
            return num / den
        na.append(key)
        return 0.0

    def xsum(name, key):
        return sum(e[key] for e in get(name)["extras"])

    m: dict[str, tuple[float, str]] = {}
    tensor, matmul = get("exactcore.tensor"), get("exactcore.matmul")
    m["exactcore.tensor_ms"] = (per_op(tensor["self"] * 1e3), "ms")
    m["exactcore.tensor_calls"] = (per_op(tensor["calls"]), "count")
    m["exactcore.tensor_cells"] = (per_op(xsum("exactcore.tensor", "cells")), "count")
    m["exactcore.tensor_nnz_frac"] = (ratio(xsum("exactcore.tensor", "nnz"),
                                            xsum("exactcore.tensor", "cells"),
                                            "exactcore.tensor_nnz_frac"), "frac")
    m["exactcore.matmul_ms"] = (per_op(matmul["self"] * 1e3), "ms")
    m["exactcore.matmul_calls"] = (per_op(matmul["calls"]), "count")
    m["exactcore.matmul_dense_macs"] = (per_op(xsum("exactcore.matmul", "dense")), "count")
    m["exactcore.matmul_nnz_frac"] = (ratio(xsum("exactcore.matmul", "effective"),
                                            xsum("exactcore.matmul", "dense"),
                                            "exactcore.matmul_nnz_frac"), "frac")
    m["exactcore.linmap_arith_ms"] = (per_op(get("exactcore.linmap_arith")["self"] * 1e3), "ms")
    e3 = get("exactcore.elem3_build")
    m["exactcore.elem3_build_ms"] = (per_op(e3["self"] * 1e3), "ms")
    m["exactcore.elem3_build_calls"] = (per_op(e3["calls"]), "count")

    cand, search = get("ybe.candidate"), get("ybe.search")
    evaluated = cand["calls"] - cand["leaves"]
    solutions = sum(1 for e in cand["extras"] if e["ok"])
    pooled = wl.threads != "1"
    m["ybe.search_ms"] = (per_op(search["dur"] * 1e3), "ms")
    m["ybe.candidates"] = (per_op(sum(wl.ops[r.op].candidates for r in traced)), "count")
    m["ybe.residual_ms_per_candidate"] = (ratio(cand["parent_dur"] * 1e3, evaluated,
                                                "ybe.residual_ms_per_candidate"), "ms")
    m["ybe.invariant_pruned"] = (per_op(cand["leaves"]), "count")
    m["ybe.evaluated"] = (per_op(evaluated), "count")
    m["ybe.solutions"] = (per_op(solutions), "count")
    m["ybe.useful_frac"] = (ratio(solutions, evaluated, "ybe.useful_frac"), "frac")
    if pooled:
        # the workers' spans stay in the workers
        na += ["ybe.invariant_pruned", "ybe.evaluated", "ybe.solutions",
               "exactcore.elem3_build_ms", "exactcore.elem3_build_calls"]
    eff = extra.get("parallel_efficiency")
    m["ybe.parallel_efficiency"] = (eff if eff is not None else 0.0, "frac")
    if eff is None:
        na.append("ybe.parallel_efficiency")

    check, compare, render = get("axioms.check"), get("axioms.compare"), get("axioms.render")
    m["axioms.check_ms"] = (per_op(check["self"] * 1e3), "ms")
    m["axioms.compare_ms"] = (per_op(compare["self"] * 1e3), "ms")
    m["axioms.compare_calls"] = (per_op(compare["calls"]), "count")
    m["axioms.columns_compared"] = (per_op(xsum("axioms.compare", "columns")), "count")
    m["axioms.violations"] = (per_op(xsum("axioms.compare", "violations")), "count")
    m["axioms.render_ms"] = (per_op(render["self"] * 1e3, failing_ops), "ms")
    m["axioms.render_calls"] = (per_op(render["calls"], failing_ops), "count")
    if not failing_ops:
        na += ["axioms.render_ms", "axioms.render_calls"]

    load, save = get("models.load"), get("models.save")
    m["models.load_ms"] = (per_op(load["self"] * 1e3), "ms")
    m["models.load_bytes"] = (per_op(xsum("models.load", "bytes")), "B")
    m["models.save_ms"] = (per_op(save["self"] * 1e3), "ms")
    m["models.save_bytes"] = (per_op(xsum("models.save", "bytes")), "B")
    m["models.to_structure_ms"] = (per_op(get("models.to_structure")["self"] * 1e3), "ms")
    m["catalog.entry_ms"] = (per_op(get("catalog.entry")["self"] * 1e3), "ms")

    m["cli.run_self_ms"] = (per_op(get("cli.run")["self"] * 1e3), "ms")
    m["cli.import_ms"] = (setup["import_s"] * 1e3, "ms")
    proc_ms = extra.get("process_ms")
    m["cli.process_ms"] = (proc_ms if proc_ms is not None else 0.0, "ms")
    if proc_ms is None:
        na.append("cli.process_ms")
    cons, struct = get("constructions.call"), get("structures.call")
    m["constructions.call_ms"] = (per_op(cons["self"] * 1e3), "ms")
    m["constructions.calls"] = (per_op(cons["calls"]), "count")
    m["structures.call_ms"] = (per_op(struct["self"] * 1e3), "ms")
    m["structures.calls"] = (per_op(struct["calls"]), "count")

    busy_u = sum(r.adj for r in untraced)
    m["trace.overhead_frac"] = (sum(r.adj for r in traced) / busy_u - 1.0, "frac")

    cands = sum(wl.ops[r.op].candidates for r in untraced)
    m["candidates_per_s"] = (cands / busy_u if cands else 0.0, "1/s")
    if not cands:
        na.append("candidates_per_s")
    cold = [r.adj * 1e3 for r in extra.get("process_results", []) if wl.ops[r.op].cold]
    m["cold_start_ms"] = (statistics.median(cold) if cold else 0.0, "ms")
    if not cold:
        na.append("cold_start_ms")
    return m, sorted(set(na))


def by_op(results: list[Result]) -> dict[int, float]:
    """Median speed-adjusted wall per operation index."""
    walls: dict[int, list[float]] = {}
    for r in results:
        walls.setdefault(r.op, []).append(r.adj)
    return {i: statistics.median(v) for i, v in walls.items()}


def traced(args, wl, runner, probe, bihom, serial) -> tuple[dict, dict, list]:
    """Half of the time untraced, then as many cycles again traced."""
    extra: dict = {}
    results = []
    if wl.in_process:
        untraced = runner.cycles(args.seconds / 2.0, probe=probe)
    else:
        # fresh processes first, then the same calls replayed in-process
        extra["process_results"] = runner.cycles(args.seconds / 2.0, probe=probe)
        results += extra["process_results"]
        untraced = runner.cycles(
            0, count=max(1, len(results) // len(wl.ops)), in_process=True)
        proc, inproc = by_op(results), by_op(untraced)
        extra["process_ms"] = statistics.median(
            (proc[i] - inproc[i]) * 1e3 for i in proc if i in inproc)
    rec = Recorder()
    restore = install(rec, bihom)
    try:
        spans = runner.cycles(0, rec=rec, count=max(1, len(untraced) // len(wl.ops)),
                              in_process=True)
    finally:
        restore()
    if serial is not None:
        extra["parallel_efficiency"] = (
            sum(by_op(serial).values()) / (2.0 * sum(by_op(untraced).values())))
    metrics, na = layer_metrics(wl, rec, untraced, spans, probe.result(), extra)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    rec.write(str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl"))
    return metrics, {"not_applicable": na, "spans": len(rec.spans)}, results + untraced + spans


def run(args) -> int:
    import bihom
    import bihom.cli
    if Path(bihom.__file__).resolve().parent != SRC / "bihom":
        raise RuntimeError(f"bihom imported from {bihom.__file__}, not from {SRC}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        probe = SetupProbe(args.workload, args.seed, work)
        probe()
        inputs = work / "inputs"
        inputs.mkdir()
        wl = workloads.make(args.workload, args.seed, str(inputs), bihom)
        if wl.threads == "1":
            # one CPU for the operations, their child processes and the
            # calibration loop, so the calibration sees the CPU they ran on
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        runner = Runner(wl, bihom, args.seed)
        serial = None
        if wl.name == "search-pool":
            serial = runner.serial_reference()
        else:
            rc, out, _ = runner.execute(0)          # warm-up, checked, not measured
            runner.check(0, rc, out)
        if args.trace:
            metrics, details, results = traced(args, wl, runner, probe, bihom, serial)
        else:
            results = runner.cycles(args.seconds, probe=probe)
            metrics, details = end_to_end(results, probe.result(), runner.cals)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in results if not r.ok)
    details.update({"workload": args.workload, "seed": args.seed,
                    "cycle_ops": len(wl.ops), "failures": runner.failures[:20]})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not runner.failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bihom" / "__init__.py").is_file():
        print(f"error: no bihom sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

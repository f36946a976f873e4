"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
run's first workload instance twice per cycle, untraced and traced,
checks that both give the same deterministic outputs and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in its own process, one
after the other.

Run it from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Spans and per-layer summaries of traced runs are written here.
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is timed at least this often per run; the median is reported.
MIN_SETUP_SAMPLES = 11
#: Each cycle spends at least this much wall time on set-ups: cheap
#: set-ups are repeated on their own after each cycle, so the samples
#: spread over the whole run like the other timings.
SETUP_SECONDS_PER_CYCLE = 0.1

END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_us_per_commit", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("commit_latency_p50_ms", "ms", "lower"),
    ("commit_latency_p99_ms", "ms", "lower"),
    ("commit_ratio", "ratio", "higher"),
    ("commits_per_sim_s", "1/s", "higher"),
)
#: Reported for ``rejoin`` in the printed table only; they do not apply
#: to the fault-free workloads (per-layer ``reconfig.*`` carries them).
REJOIN_ONLY: Tuple[Tuple[str, str, str], ...] = (
    ("downtime_s_per_epoch", "s", "lower"),
    ("recovery_s_p50", "s", "lower"),
)


def _import_program() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
                 "run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


# ----------------------------------------------------------------------
# End-to-end figures
# ----------------------------------------------------------------------
def virtual_metrics(results) -> Dict[str, Any]:
    """Pure functions of the seeds: pooled over one cycle's instances."""
    from perfbench.stats import percentile

    latencies = [lat for r in results for lat in r.driven.latencies]
    submitted = sum(r.driven.submitted for r in results)
    committed = sum(r.driven.committed for r in results)
    epochs = [e for r in results for e in r.epochs]
    recoveries = [e.duration - e.phase_durations()["down"]
                  for e in epochs if e.trigger == "crash" and not e.truncated]
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    return {
        "commit_latency_p50_ms": None if p50 is None else p50 * 1e3,
        "commit_latency_p99_ms": None if p99 is None else p99 * 1e3,
        "latency_samples": len(latencies),
        "commit_ratio": committed / submitted if submitted else None,
        "commits_per_sim_s": committed / sum(r.sim_s for r in results),
        "downtime_s_per_epoch": (sum(e.duration for e in epochs) / len(epochs)
                                 if epochs else None),
        "epochs": len(epochs),
        "recovery_s_p50": statistics.median(recoveries) if recoveries else None,
        "recoveries": len(recoveries),
    }


def run_end_to_end(workload, seed: int, seconds: float) -> Dict[str, Any]:
    from perfbench.spans import Instrumentation
    from perfbench.workloads import instance_seeds, run_instance, setup_only

    seeds = instance_seeds(workload, seed)
    # Warm-up: the process's first instance runs cold code paths and is
    # slower than the rest, so it is not measured.
    run_instance(workload, seeds[0])
    deadline = time.perf_counter() + seconds
    cycles: List[list] = []
    problems: List[str] = []
    #: Set-up seconds at nominal host speed (hostspeed.py).
    setups: List[float] = []
    while not cycles or time.perf_counter() < deadline:
        leaked = Instrumentation.leaked()
        if leaked:
            raise RuntimeError(f"span wrappers left installed: {leaked}")
        cycle = [run_instance(workload, s) for s in seeds]
        spent = [r.setup_s for r in cycle]
        setups.extend(r.setup_s / r.setup_factor for r in cycle)
        while sum(spent) < SETUP_SECONDS_PER_CYCLE:
            took, factor = setup_only(workload, seeds[len(spent) % len(seeds)])
            spent.append(took)
            setups.append(took / factor)
        for result, first in zip(cycle, cycles[0] if cycles else cycle):
            if result.gate_error:
                problems.append(f"seed {result.seed}: {result.gate_error}")
            if result.fingerprint != first.fingerprint:
                problems.append(f"seed {result.seed}: repeated run gave different "
                                "deterministic outputs")
        cycles.append(cycle)
    while len(setups) < MIN_SETUP_SAMPLES:
        took, factor = setup_only(workload, seeds[len(setups) % len(seeds)])
        setups.append(took / factor)

    commits = max(1, sum(r.driven.committed for r in cycles[0]))
    walls = [sum(r.wall_s / r.wall_factor for r in c) / len(c) for c in cycles]
    cpu_per_commit = [sum(r.cpu_s / r.cpu_factor for r in c) * 1e6 / commits
                      for c in cycles]
    figures = virtual_metrics(cycles[0])
    figures.update({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_us_per_commit": statistics.median(cpu_per_commit),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    for name in ("commit_latency_p50_ms", "commit_latency_p99_ms"):
        if figures[name] is None:
            problems.append(f"{name}: {figures['latency_samples']} samples cannot "
                            "support it")
    notes = {
        "cycles": len(cycles),
        "instances_per_cycle": len(seeds),
        "setup_samples": len(setups),
        "latency_samples": figures["latency_samples"],
        "epochs": figures["epochs"],
        "recoveries": figures["recoveries"],
        "wall_s_per_cycle": walls,
        "raw_wall_s_per_cycle": [sum(r.wall_s for r in c) / len(c) for c in cycles],
        "host_factor_per_cycle": [statistics.mean(r.wall_factor for r in c)
                                  for c in cycles],
        "cpu_us_per_commit_per_cycle": cpu_per_commit,
        "certification_aborts": sum(r.driven.aborted for r in cycles[0]),
    }
    attempted = sum(r.driven.submitted for c in cycles for r in c)
    failed = sum(r.failed_ops for c in cycles for r in c)
    return {"figures": figures, "notes": notes, "problems": problems,
            "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def run_traced(workload, seed: int, seconds: float) -> Dict[str, Any]:
    from perfbench.layers import layer_metrics
    from perfbench.spans import Instrumentation, LayerCounters, SpanRecorder
    from perfbench.workloads import instance_seeds, run_instance

    # Per-layer numbers carry no bound, so one instance per cycle is
    # enough; repeated cycles give the wall-clock self times a median.
    seeds = instance_seeds(workload, seed)[:1]
    deadline = time.perf_counter() + seconds
    cycles: List[Dict[str, Any]] = []
    problems: List[str] = []
    written: Optional[str] = None
    attempted = failed = 0
    shares: Dict[str, float] = {}
    while not cycles or time.perf_counter() < deadline:
        pairs = []
        for s in seeds:
            leaked = Instrumentation.leaked()
            if leaked:
                raise RuntimeError(f"span wrappers left installed: {leaked}")
            plain = run_instance(workload, s, host_speed=False)
            recorder = SpanRecorder()
            counters = LayerCounters()
            with Instrumentation(recorder, counters) as inst:
                def begin(cluster, inst=inst, recorder=recorder):
                    cluster.sim.profiler = inst
                    recorder.begin_region()

                def end(cluster, recorder=recorder):
                    recorder.end_region()
                    cluster.sim.profiler = None

                traced = run_instance(workload, s, before_region=begin, after_region=end,
                                      host_speed=False)
            for result in (plain, traced):
                attempted += result.driven.submitted
                failed += result.failed_ops
                if result.gate_error:
                    problems.append(f"seed {s}: {result.gate_error}")
            if plain.fingerprint != traced.fingerprint:
                diff = sorted(k for k in plain.fingerprint
                              if plain.fingerprint[k] != traced.fingerprint.get(k))
                problems.append(f"seed {s}: traced and untraced runs differ in {diff}; "
                                "per-layer numbers refused")
            attribution = recorder.attribution()
            if attribution["error"]:
                problems.append(f"seed {s}: attribution check failed: "
                                f"{attribution['error']}")
            for layer, spent in attribution["self"].items():
                shares[layer] = shares.get(layer, 0.0) + spent
            shares["unattributed"] = shares.get("unattributed", 0.0) + attribution["unattributed"]
            if written is None:
                OUT_DIR.mkdir(exist_ok=True)
                written = str(OUT_DIR / f"spans-{workload.name}")
                recorder.write(written, {"workload": workload.name, "seed": s})
            pairs.append((plain, traced, recorder, counters, attribution))
        cycles.append(layer_metrics(pairs))
    if Instrumentation.leaked():
        problems.append(f"span wrappers left installed: {Instrumentation.leaked()}")
    metrics: Dict[str, Any] = {}
    for name in cycles[0]:
        values = [c[name][0] for c in cycles]
        metrics[name] = (statistics.median(values), cycles[0][name][1])
    total = sum(shares.values())
    shares = {layer: spent / total for layer, spent in shares.items()}
    return {"metrics": metrics, "problems": problems, "spans": written, "shares": shares,
            "cycles": len(cycles), "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _table(rows: List[Tuple[str, Any, str, str]]) -> str:
    lines = [f"{'metric':44s} {'value':>16s} {'unit':8s} better"]
    for name, value, unit, better in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:44s} {shown:>16s} {unit:8s} {better}")
    return "\n".join(lines)


def main_one(args: argparse.Namespace) -> int:
    _import_program()
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  why: {workload.why}")
    if not args.trace:
        out = run_end_to_end(workload, args.seed, args.seconds)
        figures, notes = out["figures"], out["notes"]
        rows = [(n, figures[n], u, b) for n, u, b in END_TO_END]
        if workload.name == "rejoin":
            rows += [(n, figures[n], u, b) for n, u, b in REJOIN_ONLY]
        print(_table(rows))
        print("  notes: " + json.dumps(notes))
        problems = out["problems"]
        metrics = {n: {"value": figures[n], "unit": u} for n, u, _b in END_TO_END}
        attempted, failed = out["attempted"], out["failed"]
    else:
        out = run_traced(workload, args.seed, args.seconds)
        print(_table([(n, out["metrics"][n][0], u, b)
                      for n, u, b in PER_LAYER if n in out["metrics"]]))
        print("  self-time share of the traced region: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(out["shares"].items(), key=lambda item: -item[1])))
        print(f"  notes: cycles={out['cycles']} spans written to {out['spans']}.*")
        problems = out["problems"]
        metrics = {n: {"value": out["metrics"][n][0], "unit": u} for n, u, _b in PER_LAYER}
        attempted, failed = out["attempted"], out["failed"]
    missing = [n for n, m in metrics.items() if m["value"] is None]
    if missing:
        problems.append(f"metrics without a value: {missing}")
        metrics = {n: m for n, m in metrics.items() if m["value"] is not None}
    for problem in dict.fromkeys(problems):  # each cycle repeats its findings
        print(f"  FAILED: {problem}")
    correct = not problems
    if not correct:
        failed = max(failed, 1)
        if args.trace:
            metrics = {}  # per-layer numbers are refused, see the FAILED lines
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main_all(args: argparse.Namespace) -> int:
    status = 0
    for name in ("steady", "hotspot", "rejoin"):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        print(f"{name}: {lines[-1]}")
        status = status or completed.returncode
    return status


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "hotspot", "rejoin", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one full cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())

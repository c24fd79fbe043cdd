"""Steadiness of the benchmark: repeat workloads, print each metric's
median and quartiles, and derive the bounds of BENCHMARK.json from them.

Run from the repository root::

    python3 perfbench/steady.py --workload large-973k --workload small-36k --runs 10
    python3 perfbench/steady.py --workload small-36k --runs 3 --traced 3

Run ``i`` uses seed ``--first-seed + i``. The spread of a metric is the
distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median. The
suggested bound is three times the largest spread over the workloads,
rounded up to a hundredth, at least MIN_BOUND and at most MAX_BOUND;
``setup_s`` always gets MAX_BOUND, the largest. ``--write-bounds``
stores them in BENCHMARK.json. ``--traced n`` also makes n traced runs
and prints the tracing overhead: the traced median of each end-to-end
metric minus the untraced one. Every result goes to
``.bench_out/steady.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_BOUND = 0.25
MIN_BOUND = 0.05


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    if trace:
        trace_file = ROOT / ".bench_out" / "trace" / f"{workload}-seed{seed}.json"
        result["traced_end_to_end"] = json.loads(trace_file.read_text())["end_to_end"]
    print(f"  {workload} seed {seed} trace {trace}: {wall:.0f} s, correct={result['correct']},"
          f" failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Repeat workloads and report metric spreads.")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--write-bounds", action="store_true")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, suggested = {}, {}
    for wl in args.workload:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(spec, wl, s, 0) for s in seeds]
        traced = [run_once(spec, wl, s, 1) for s in seeds[: args.traced]]
        print(f"\n{wl}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.0f}-"
              f"{max(r['wall_s'] for r in runs):.0f} s, all correct:"
              f" {all(r['correct'] for r in runs + traced)}, failed shares:"
              f" {sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':30s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}"
              f" {'bound':>6s}" + ("  tracing overhead" if traced else ""))
        report[wl] = {"runs": runs, "traced": traced, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(values)
            line = (f"  {name:30s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f}"
                    f" {bounds.get(name, float('nan')):6.2f}")
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            if traced:
                t_med = statistics.median(r["traced_end_to_end"][name]["value"] for r in traced)
                entry["tracing_overhead"] = t_med - med
                line += f"  {t_med - med:+.4g} ({(t_med - med) / med:+.1%})"
            print(line)
            report[wl]["metrics"][name] = entry
            suggested[name] = max(suggested.get(name, 0.0), spread)

    print("\nsuggested bounds (3 x largest spread):")
    for name, spread in suggested.items():
        b = MAX_BOUND if name == "setup_s" else min(
            MAX_BOUND, max(MIN_BOUND, math.ceil(300 * spread) / 100))
        suggested[name] = b
        flag = "" if 3 * spread <= MAX_BOUND or name == "setup_s" else "  (spread above a third of the largest bound)"
        print(f"  {name:30s} {b:.2f}{flag}")
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    if args.write_bounds:
        for m in spec["end_to_end"]:
            m["bound"] = suggested.get(m["name"], m["bound"])
        spec_path.write_text(json.dumps(spec, indent=2) + "\n")
        print(f"bounds written to {spec_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

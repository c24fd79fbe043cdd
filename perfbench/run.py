"""ABAE benchmark: Spark query latency and Monte-Carlo trial throughput.

Run from the repository root::

    python3 perfbench/run.py --workload large-973k --seed 1 --seconds 25 --trace 0

One Python process drives the program as a closed loop, one operation at
a time, for about ``--seconds``: round(seconds / ROUND_S) whole rounds of
the workload's operations, at least one; a run takes about that plus its
set-up and checks. It checks the
outputs, prints a run header, one line per metric, and as its last line
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The traced run also writes its spans and
both metric sets to ``.bench_out/trace/<workload>-seed<seed>.json``.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DRIVER_MEMORY = "3g"
MAX_CORES = 4


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment(trace: bool, cores: int) -> Path | None:
    """Keep every file the run writes under ``.bench_out`` and pass the
    Spark settings to the JVM launch.
    Returns the event-log directory of a traced run."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    sys.path.insert(0, src)
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(OUT / "spark-local"),
        "spark.sql.warehouse.dir": str(OUT / "warehouse"),
    }
    log_dir = None
    if trace:
        log_dir = OUT / "eventlog"
        shutil.rmtree(log_dir, ignore_errors=True)
        log_dir.mkdir(parents=True)
        conf |= {
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": log_dir.as_uri(),
            "spark.eventLog.compress": "false",
        }
    args = [f"--master local[{cores}]", f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp}')}"]
    args += [f"--conf {shlex.quote(f'{k}={v}')}" for k, v in conf.items()]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(args) + " pyspark-shell"
    return log_dir


def build_session(app: str):
    """``jobs/_common.build_session``, quiet; master, memory and paths
    come from ``PYSPARK_SUBMIT_ARGS``."""
    sys.path.insert(0, str(ROOT / "jobs"))
    from _common import build_session as job_session

    spark = job_session(app)
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM (and so its Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _git() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=10,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return f"{sha}{' dirty' if dirty else ''}"


def header(args, wl, spark, inputs) -> list[str]:
    import numpy
    import pyarrow
    import pyspark

    from workloads import ALPHA, B, BUDGETS, C, GROUP_BUDGETS, K, N_QUERY, ROUND_S

    sc = spark.sparkContext
    table, single, multi = inputs
    return [
        f"git: {_git()}",
        f"nproc: {len(os.sched_getaffinity(0))}  spark master: {sc.master}"
        f"  defaultParallelism: {sc.defaultParallelism}  driver memory: {DRIVER_MEMORY}",
        f"python {platform.python_version()}  pyspark {pyspark.__version__}"
        f"  numpy {numpy.__version__}  pyarrow {pyarrow.__version__}",
        f"workload: {wl.name}  seed: {args.seed}  seconds: {args.seconds:g}"
        f"  trace: {args.trace}",
        f"tables: {table.name} {len(table.pdf)} rows; {single.name} {len(single.pdf)} rows;"
        f" {multi.name} {len(multi.pdf)} rows",
        f"N={N_QUERY} K={K} C={C} B={B} alpha={ALPHA}  budgets {list(BUDGETS)}"
        f"  group budgets {list(GROUP_BUDGETS)} x 4 groups",
        f"rounds: {max(1, round(args.seconds / ROUND_S))} of nominal {ROUND_S:g} s;"
        f"  queries per round: {wl.queries} ABAE + {wl.queries} uniform"
        f" (warm-up: {wl.warmup_queries} pairs);  trials per"
        " condition call: " + ", ".join(f"{k}={v}" for k, v in wl.trials.items()),
    ]


class Bench:
    """One run: set-up, the measured loop, checks and (traced) probes."""

    def __init__(self, args, wl, tracer):
        self.args, self.wl, self.tr = args, wl, tracer
        self.ops: list[dict] = []
        self.failed = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        from pyspark.sql import functions as F
        from repro.core.abae import abae_query, uniform_query
        from repro.core.groupby import build_groupby_data
        from repro.experiments.harness import run_trials
        from repro.simulate.oracles import SimulatedOracle

        from workloads import B, BUDGETS, C, K, WARMUP_ROWS, generate

        tr, wl, seed = self.tr, self.wl, self.args.seed
        with tr.span("setup") as sp:
            with tr.span("setup.spark_start"):
                self.spark = build_session(f"perfbench-{wl.name}")
            sc = self.spark.sparkContext
            sc.setJobGroup("setup", "set-up")
            with tr.span("datasets.generate"):
                self.inputs = generate(wl)
            table, single, multi = self.inputs
            with tr.span("datasets.to_spark"):
                self.df = table.to_spark(self.spark).cache()
                self.df.count()
            with tr.span("stratify.strata_arrays"):
                self.strata = table.strata(K)
                self.population = table.population()
                self.gdata = {
                    "groupby_single": build_groupby_data(single.pdf, list(single.proxy_cols), K),
                    "groupby_multi": build_groupby_data(multi.pdf, list(multi.proxy_cols), K),
                }
            par = sc.defaultParallelism
            with tr.span("warmup"):
                # Python workers and the first broadcast, and JIT of the query
                # plans (on a filter of the cached table: the same scan and
                # plans as the measured queries). Every harness call
                # broadcasts its payload again anyway.
                with tr.span("harness.first_call"):
                    run_trials(self.spark, kind="abae", data=self.strata, n_budget=BUDGETS[0],
                               n_trials=par, stage1_frac=C)
                with tr.span("warmup.queries"):
                    warm = self.df.where(F.col("id") < WARMUP_ROWS)
                    for i in range(wl.warmup_queries):
                        abae_query(warm, n_budget=BUDGETS[-1], oracle=SimulatedOracle(), k=K,
                                   stage1_frac=C, seed=seed + i, n_boot=B)
                        uniform_query(warm, n_budget=BUDGETS[-1], oracle=SimulatedOracle(),
                                      seed=seed + i)
        return sp.seconds

    # -- the measured loop ------------------------------------------------
    def _run_op(self, op, kind, n, op_seed, op_id) -> dict:
        from repro.core.abae import abae_query, uniform_query
        from repro.experiments.harness import run_group_trials, run_trials
        from repro.simulate.oracles import SimulatedOracle

        from workloads import ALPHA, B, C, K, N_GROUPS

        if op in ("abae_query", "uniform_query"):
            oracle = SimulatedOracle()
            if op == "abae_query":
                res = abae_query(self.df, n_budget=n, oracle=oracle, k=K, stage1_frac=C,
                                 seed=op_seed, n_boot=B, alpha=ALPHA)
            else:
                res = uniform_query(self.df, n_budget=n, oracle=oracle, seed=op_seed)
            return {"kind": op.split("_")[0], "seed": op_seed, "n_budget": n,
                    "estimate": res.estimate, "ci": res.ci, "calls": res.oracle_calls,
                    "rows": sum(v.size for v, _ in res.samples), "samples": res.samples}
        t = self.wl.trials[kind]
        if op == "trials":
            abae = kind in ("abae", "ci")
            out = run_trials(self.spark, kind="abae" if abae else "uniform",
                             data=self.strata if abae else self.population, n_budget=n,
                             n_trials=t, base_seed=op_seed, stage1_frac=C,
                             with_ci=kind == "ci", n_boot=B, alpha=ALPHA)
        else:
            out = run_group_trials(self.spark, kind=kind, data=self.gdata[kind], n_budget=n,
                                   n_trials=t, n_groups=N_GROUPS, base_seed=op_seed,
                                   stage1_frac=C)
        return {"kind": kind, "n_budget": n, "trials": t,
                "frame": out.assign(n_budget=n, op=op_id)}

    def loop(self) -> None:
        from tracing import tracker_counts
        from workloads import ROUND_S, op_seed, round_ops

        sc = self.spark.sparkContext
        ops = round_ops(self.wl)
        self.rounds = max(1, round(self.args.seconds / ROUND_S))
        for round_no in range(self.rounds):
            for i, (op, kind, n) in enumerate(ops):
                op_id = round_no * len(ops) + i
                group = f"op-{op_id}"
                sc.setJobGroup(group, f"{op} {kind or ''} N={n}")
                name = op if kind is None else f"{op}.{kind}"
                try:
                    with self.tr.span(name, op=op_id) as sp:
                        rec = self._run_op(op, kind, n, op_seed(self.args.seed, round_no, i), op_id)
                except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                    self.failed += 1
                    print(f"# operation {name} (op {op_id}) failed:", file=sys.stderr)
                    traceback.print_exc()
                    continue
                rec |= {"op": op, "op_id": op_id, "group": group, "wall_s": sp.seconds}
                if self.tr.enabled:
                    rec["tracker"] = tracker_counts(sc, group)
                self.ops.append(rec)
        self.attempted = self.rounds * len(ops)

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        def p50(op):
            return statistics.median(o["wall_s"] for o in self.ops if o["op"] == op)

        def rate(op, kind):
            sel = [o for o in self.ops if o["op"] == op and o["kind"] == kind]
            return sum(o["trials"] for o in sel) / sum(o["wall_s"] for o in sel)

        return {
            "setup_s": (setup_s, "s"),
            "abae_query_s.p50": (p50("abae_query"), "s"),
            "uniform_query_s.p50": (p50("uniform_query"), "s"),
            "abae_trials_per_s": (rate("trials", "abae"), "1/s"),
            "uniform_trials_per_s": (rate("trials", "uniform"), "1/s"),
            "ci_trials_per_s": (rate("trials", "ci"), "1/s"),
            "groupby_single_trials_per_s": (rate("group_trials", "groupby_single"), "1/s"),
            "groupby_multi_trials_per_s": (rate("group_trials", "groupby_multi"), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    # -- correctness ------------------------------------------------------
    def check(self) -> list[str]:
        import pandas as pd
        from pyspark.sql import functions as F
        from repro.core.stratify import add_stratum

        import checks
        from workloads import K, N_GROUPS

        table, single, multi = self.inputs
        self.spark.sparkContext.setJobGroup("check", "checks")
        with self.tr.span("check"):
            rows = (add_stratum(self.df, K).groupBy("stratum")
                    .agg(F.count(F.lit(1)).alias("n"), F.sum("label").alias("pos"))
                    .orderBy("stratum").collect())
            ref = checks.reference(table.pdf, K)
            failures = checks.check_strata([r["n"] for r in rows], [r["pos"] for r in rows], ref)
            for q in self.ops:
                if q["op"] in ("abae_query", "uniform_query"):
                    failures += checks.check_query(q, ref)

            def frames(kind):
                return pd.concat([o["frame"] for o in self.ops
                                  if "frame" in o and o["kind"] == kind], ignore_index=True)

            stats = self.check_stats = {}
            failures += checks.check_scalar_trials(
                {kind: frames(kind) for kind in ("abae", "uniform", "ci")}, ref, stats)
            for kind, ds in (("groupby_single", single), ("groupby_multi", multi)):
                failures += checks.check_group_trials(
                    kind, frames(kind), checks.group_means(ds.pdf, N_GROUPS), stats)
        return failures

    # -- traced run -------------------------------------------------------
    def probe(self) -> tuple[dict, list[str]]:
        import probes

        queries = [o for o in self.ops if o["op"] == "abae_query"]
        with self.tr.span("probes"):
            self.ntile_walls = probes.ntile_pass(self.spark, self.tr, self.df)
            layer = probes.local_kernels(self.tr, self.strata, self.population, self.gdata,
                                         [q["samples"] for q in queries], self.args.seed)
            harness, failures = probes.harness(self.spark, self.tr, self.strata, self.args.seed)
        return layer | harness, failures

    def per_layer(self, layer: dict, log_dir: Path) -> dict[str, tuple[float, str]]:
        from tracing import parse_event_log
        from workloads import K

        groups = parse_event_log(log_dir)
        med = statistics.median
        spans = {}
        for s in self.tr.spans:
            spans.setdefault(s.name, s.seconds)

        def ops(op):
            return [o for o in self.ops if o["op"] == op]

        def ev(op, fn):
            return med(fn(groups[o["group"]], o) for o in ops(op))

        ntile = [groups[f"probe-ntile-{i}"] for i in range(len(self.ntile_walls))]
        queries = ops("abae_query") + ops("uniform_query")
        m = {
            "setup.spark_start_s": (spans["setup.spark_start"], "s"),
            "datasets.generate_s": (spans["datasets.generate"], "s"),
            "datasets.to_spark_s": (spans["datasets.to_spark"], "s"),
            "stratify.strata_arrays_s": (spans["stratify.strata_arrays"], "s"),
            "harness.first_call_s": (spans["harness.first_call"], "s"),
            "stratify.ntile_s": (med(self.ntile_walls), "s"),
            "stratify.ntile_serial_stage_s": (med(g.serial_stage_s for g in ntile), "s"),
            "stratify.ntile_shuffle_mb": (med(g.shuffle_mb for g in ntile), "MB"),
            "abae.spark_jobs": (med(o["tracker"]["jobs"] for o in ops("abae_query")), "count"),
            "abae.spark_tasks": (med(o["tracker"]["tasks"] for o in ops("abae_query")), "count"),
            "abae.serial_stages": (ev("abae_query", lambda g, o: g.serial_stages), "count"),
            "abae.serial_stage_s": (ev("abae_query", lambda g, o: g.serial_stage_s), "s"),
            "abae.shuffle_mb": (ev("abae_query", lambda g, o: g.shuffle_mb), "MB"),
            "abae.stage1_exec_s": (
                ev("abae_query", lambda g, o: g.exec_s_by_action.get("collect", 0.0)), "s"),
            "abae.stage2_exec_s": (
                ev("abae_query", lambda g, o: g.exec_s_by_action.get("toPandas", 0.0)), "s"),
            "abae.driver_s": (ev("abae_query", lambda g, o: o["wall_s"] - g.in_jobs_s), "s"),
            "abae.rows_to_driver": (med(o["rows"] + K for o in ops("abae_query")), "count"),
            "uniform.spark_tasks": (
                med(o["tracker"]["tasks"] for o in ops("uniform_query")), "count"),
            "uniform.serial_stages": (ev("uniform_query", lambda g, o: g.serial_stages), "count"),
            "uniform.serial_stage_s": (ev("uniform_query", lambda g, o: g.serial_stage_s), "s"),
            "uniform.shuffle_mb": (ev("uniform_query", lambda g, o: g.shuffle_mb), "MB"),
            "oracle.calls_per_query": (med(o["calls"] for o in ops("abae_query")), "count"),
            "oracle.calls_per_row": (
                sum(o["calls"] for o in queries) / sum(o["rows"] for o in queries), "ratio"),
            "spark.failed_tasks": (sum(g.failed_tasks for g in groups.values()), "count"),
        }
        units = {"_ms": "ms", "_s": "s", "_mb": "MB", "speedup": "ratio"}
        for name, value in layer.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            m[name] = (value, unit)
        return m


def _print_result(correct, attempted, failed, metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program is missing: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    # BLAS/OpenMP pools read these once, when numpy is first imported;
    # Spark's Python workers inherit them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = _parse(argv)
    from workloads import WORKLOADS

    from tracing import Tracer

    wl = WORKLOADS[args.workload]
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    log_dir = _environment(bool(args.trace), cores)
    bench = Bench(args, wl, Tracer(bool(args.trace)))
    try:
        setup_s = bench.setup()
        head = header(args, wl, bench.spark, bench.inputs)
        for line in head:
            print(f"# {line}", flush=True)
        bench.loop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = bench.end_to_end(setup_s, peak_rss_mb)
        failures = bench.check()
        if args.trace:
            layer, probe_failures = bench.probe()
            failures += probe_failures
    finally:
        if hasattr(bench, "spark"):
            stop_session(bench.spark)
        shutil.rmtree(OUT / "spark-local", ignore_errors=True)
    print("# checks: " + "  ".join(f"{k}={v:.3f}" for k, v in bench.check_stats.items()))
    for f in failures:
        print(f"# CHECK FAILED: {f}")
    print(f"# rounds: {bench.rounds}  operations: {bench.attempted}  failed: {bench.failed}")
    metrics = e2e
    if args.trace:
        metrics = bench.per_layer(layer, log_dir)
        trace_file = OUT / "trace" / f"{wl.name}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({
            "header": head,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": bench.tr.to_json(),
        }, indent=1))
        print(f"# trace written to {trace_file.relative_to(ROOT)}")
    _print_result(not failures, bench.attempted, bench.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans, Spark status-tracker counts and event-log stage metrics.

Every timing of the benchmark goes through :class:`Tracer`. With
tracing off it only times the block; with tracing on it also keeps the
span (name, start, end, parent, operation id) in memory until the run
ends. Spark-side numbers come from Spark itself: job and task counts
from the status tracker, executor time and shuffle bytes per stage from
the uncompressed event log, which the traced run enables. Both are
keyed by the job group the benchmark sets around each operation.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    op: int | None
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times blocks; when ``enabled``, also records them as spans."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        sp = Span(name, op, parent, time.perf_counter())
        if self.enabled:
            self._open.append(len(self.spans))
            self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self.enabled:
                self._open.pop()

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"id": i, "name": s.name, "op": s.op, "parent": s.parent,
             "start_s": round(s.start - t0, 6), "end_s": round(s.end - t0, 6)}
            for i, s in enumerate(self.spans)
        ]


def tracker_counts(sc, group: str) -> dict[str, int]:
    """Jobs and tasks run under a job group, read from Spark's status
    tracker (stages skipped by shuffle reuse run no task)."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    tasks = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for s in list(info.stageIds) if info else []:
            si = st.getStageInfo(s)
            if si:
                tasks += si.numCompletedTasks + si.numFailedTasks
    return {"jobs": len(jobs), "tasks": tasks}


@dataclass
class GroupStats:
    """Event-log totals of one job group."""

    failed_tasks: int = 0
    serial_stages: int = 0
    serial_stage_s: float = 0.0
    shuffle_mb: float = 0.0
    exec_s_by_action: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    job_spans_ms: list[tuple[int, int]] = field(default_factory=list)

    @property
    def in_jobs_s(self) -> float:
        """Wall time covered by at least one of the group's jobs."""
        total, end = 0, None
        for a, b in sorted(self.job_spans_ms):
            if end is None or a > end:
                total += b - a
                end = b
            elif b > end:
                total += b - end
                end = b
        return total / 1000.0


def parse_event_log(log_dir: Path) -> dict[str, GroupStats]:
    """Aggregate an uncompressed (possibly rolled) event log by job group.

    A stage is *serial* when it ran as a single task. A stage's
    executor time is attributed to its action by the name Spark gives
    the stage ("collect at ...", "toPandas at ..."), not by line number.
    """
    events = []
    for f in sorted(p for p in log_dir.rglob("*") if p.is_file()):
        if f.name.startswith("events") or f.name.startswith("local-"):
            with open(f) as fh:
                events += [json.loads(line) for line in fh if line.strip()]
    stage_group: dict[int, str] = {}
    stage_action: dict[int, str] = {}
    stage_ms: dict[int, int] = defaultdict(int)
    stage_tasks: dict[int, int] = defaultdict(int)
    job_group: dict[int, str] = {}
    job_start: dict[int, int] = {}
    stats: dict[str, GroupStats] = defaultdict(GroupStats)
    for e in events:
        kind = e["Event"]
        if kind == "SparkListenerStageSubmitted":
            info = e["Stage Info"]
            group = (e.get("Properties") or {}).get("spark.jobGroup.id")
            if group:
                stage_group[info["Stage ID"]] = group
                stage_action[info["Stage ID"]] = info["Stage Name"].split(" at ")[0]
        elif kind == "SparkListenerTaskEnd":
            sid = e["Stage ID"]
            if sid not in stage_group:
                continue
            g = stats[stage_group[sid]]
            m = e.get("Task Metrics") or {}
            ms = int(m.get("Executor Run Time", 0))
            if e["Task End Reason"]["Reason"] != "Success":
                g.failed_tasks += 1
            g.shuffle_mb += m.get("Shuffle Write Metrics", {}).get("Shuffle Bytes Written", 0) / 1e6
            g.exec_s_by_action[stage_action[sid]] += ms / 1000.0
            stage_ms[sid] += ms
            stage_tasks[sid] += 1
        elif kind == "SparkListenerStageCompleted":
            info = e["Stage Info"]
            sid = info["Stage ID"]
            if sid in stage_group and info["Number of Tasks"] == 1 and stage_tasks[sid]:
                g = stats[stage_group[sid]]
                g.serial_stages += 1
                g.serial_stage_s += stage_ms[sid] / 1000.0
        elif kind == "SparkListenerJobStart":
            group = (e.get("Properties") or {}).get("spark.jobGroup.id")
            if group:
                job_group[e["Job ID"]] = group
                job_start[e["Job ID"]] = e["Submission Time"]
        elif kind == "SparkListenerJobEnd" and e["Job ID"] in job_group:
            jid = e["Job ID"]
            stats[job_group[jid]].job_spans_ms.append((job_start[jid], e["Completion Time"]))
    return dict(stats)

"""Spans and counters around the public entry points of each layer.

The benchmark traces the program from the outside: :meth:`Tracer.install`
replaces the layer entry points (planner methods, engine backends, the
campaign runner, the result cache, the store, reducers, aggregation, the
experiment drivers and the fleet submitter) with wrappers that record a
span per call, and :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent, pid, thread)``.  Spans of the
process that installed the wrappers stay in memory; pool workers forked
while the wrappers are installed inherit them, and each such process
appends its spans and counts to ``<spool>/<pid>.jsonl`` whenever its
outermost span closes, so nothing is lost when the pool shuts down.
Exec'd processes (fleet workers) are not traced; the fleet reports
through the counters its workers already deposit.

A layer's *self time* is its span's duration minus the union of the
intervals its same-process child spans cover; the part of a traced wall
interval that no outermost span of the main thread covers is the
*unwrapped remainder*.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: span name -> (seconds metric, calls metric or None).  Every traced
#: span name is listed here, so a wrapper can never record a span that
#: no metric accounts for.
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "adversary.batch_plan": ("adversary.batch_plan_s", "adversary.batch_plan_calls"),
    "adversary.run_plan": ("adversary.run_plan_s", None),
    "adversary.matrix_adapter": ("adversary.matrix_adapter_s", "adversary.matrix_adapter_calls"),
    "simulation.batch": ("simulation.batch_s", None),
    "simulation.fast": ("simulation.fast_s", "simulation.fast_runs"),
    "simulation.reference": ("simulation.reference_s", "simulation.reference_runs"),
    "runner.materialise": ("runner.materialise_s", None),
    "runner.dispatch": ("runner.dispatch_s", None),
    "cache.get": ("cache.get_s", None),
    "cache.put": ("cache.put_s", None),
    "store.read": ("store.read_s", "store.reads"),
    "store.write": ("store.write_s", "store.writes"),
    "reduce": ("reduce.s", "reduce.calls"),
    "aggregate": ("aggregate.s", None),
    "experiments.driver": ("experiments.driver_s", None),
    "fleet.submit": ("fleet.submit_s", None),
    "fleet.wait": ("fleet.wait_s", None),
    "fleet.collect": ("fleet.collect_s", None),
}


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``.

    Children are the same-pid spans naming the span as parent; their
    intervals are clipped to the parent's and overlaps between them (two
    threads, or a child outliving its parent) count once.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(start, s), min(end, e)) for s, e in children.get(key, ())
        )
        result[key] = (end - start) - covered
    return result


def unwrapped_remainder(
    spans: Sequence[dict], start: float, end: float, pid: int, thread: int
) -> float:
    """Wall time in ``[start, end]`` no outermost span of ``(pid, thread)`` covers."""
    roots = [
        (max(start, s["start"]), min(end, s["end"]))
        for s in spans
        if s["pid"] == pid and s["thread"] == thread and s["parent"] is None
    ]
    return (end - start) - union_length(roots)


def layer_metrics(spans: Sequence[dict], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced window: self seconds and call counts
    per :data:`SPAN_METRICS` entry, plus the counters, plus the values
    derived from both."""
    metrics: Dict[str, float] = defaultdict(float)
    for name, value in counts.items():
        metrics[name] += value
    own = self_times(spans)
    for span in spans:
        seconds_metric, calls_metric = SPAN_METRICS[span["name"]]
        metrics[seconds_metric] += own[(span["pid"], span["id"])]
        if calls_metric is not None:
            metrics[calls_metric] += 1
    # MatrixPlanAdapter is one of the per-run planners; run_plan_s covers all.
    metrics["adversary.run_plan_s"] += metrics["adversary.matrix_adapter_s"]
    edge_rounds = metrics.pop("simulation.edge_rounds", 0.0)
    metrics["simulation.ns_per_edge_round"] = (
        metrics["simulation.batch_s"] * 1e9 / edge_rounds if edge_rounds else 0.0
    )
    return dict(metrics)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self._reset()
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def _check_pid(self) -> None:
        # A forked pool worker starts with a copy of the parent's buffers
        # and open-span stacks; none of it is the worker's own.
        if os.getpid() != self.pid:
            self._reset()

    # -- recording -----------------------------------------------------------
    def enter(self, name: str) -> list:
        self._check_pid()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, name, stack[-1][0] if stack else None, time.perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        span_id, name, parent, start = frame
        self.spans.append(
            (span_id, name, start, end, parent, self.pid, threading.get_ident())
        )
        if not stack and self.pid != self.main_pid:
            self.flush()

    def count(self, name: str, value: float = 1) -> None:
        self._check_pid()
        with self._lock:  # the fleet's supervisor thread counts store writes too
            self.counts[name] += value

    def flush(self) -> None:
        """Append this (forked) process's spans and counts to its spool file."""
        with open(self.spool / f"{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"span": span}) + "\n")
            if self.counts:
                handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    def take(self) -> Tuple[List[dict], Dict[str, float]]:
        """Every span and count recorded since the last take, from every process.

        Spool files are consumed (deleted), so consecutive windows never
        share records.
        """
        fields = ("id", "name", "start", "end", "parent", "pid", "thread")
        spans = [dict(zip(fields, span)) for span in self.spans]
        counts: Dict[str, float] = defaultdict(float, self.counts)
        for path in sorted(self.spool.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                entry = json.loads(line)
                if "span" in entry:
                    spans.append(dict(zip(fields, entry["span"])))
                else:
                    for name, value in entry["counts"].items():
                        counts[name] += value
            path.unlink()
        self.spans = []
        self.counts = defaultdict(float)
        return spans, dict(counts)

    # -- wrapping ------------------------------------------------------------
    def _spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tracer.exit(frame)

        return wrapper

    def _patch(self, owner, attr: str, replacement, mapping: bool = False) -> None:
        original = owner[attr] if mapping else owner.__dict__[attr]
        self._patches.append((owner, attr, original, mapping))
        if mapping:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self._spanned(name, cls.__dict__[attr], after))

    def _patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module function everywhere a ``repro`` module bound it by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._spanned(name, original)
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point (imports the whole program first)."""
        # The CLI imports every module whose bindings the wrappers replace.
        importlib.import_module("repro.cli")
        from repro.adversary.plan import BatchPlanner, MaskPlanner, MatrixPlanAdapter
        from repro.experiments import ALL_EXPERIMENTS
        from repro.runner.cache import ResultCache
        from repro.runner.distributed import DistributedCampaignRunner, WorkQueue
        from repro.runner.executor import CampaignRunner, cacheable_key
        from repro.runner.reduce import Reducer
        from repro.runner.store import LocalDirStore
        from repro.simulation.backends import BatchBackend, FastBackend, ReferenceBackend

        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")

        for cls in _subclasses(BatchPlanner):
            for attr in ("plan_rounds", "finish"):
                if attr in cls.__dict__ and not _abstract(cls.__dict__[attr]):
                    self._patch_method(cls, attr, "adversary.batch_plan")
        for cls in _subclasses(MaskPlanner):
            if "plan_round" in cls.__dict__ and not _abstract(cls.__dict__["plan_round"]):
                name = (
                    "adversary.matrix_adapter"
                    if issubclass(cls, MatrixPlanAdapter)
                    else "adversary.run_plan"
                )
                self._patch_method(cls, "plan_round", name)

        def after_batch(args, results) -> None:
            requests = args[1]
            self.count("simulation.batch_runs", len(results))
            for request, result in zip(requests, results):
                metadata = result.metadata
                if metadata.get("engine") != "batch":
                    self.count("simulation.fallback_runs")
                self.count("simulation.chunks", metadata.get("batch_chunks", 0))
                self.count("adversary.planned_rounds", metadata.get("batch_planned_rounds", 0))
                n = len(request.initial_values)
                self.count("simulation.edge_rounds", n * n * result.outcome.rounds_executed)

        self._patch_method(BatchBackend, "run_batch", "simulation.batch", after_batch)
        self._patch_method(FastBackend, "run", "simulation.fast")
        self._patch_method(ReferenceBackend, "run", "simulation.reference")

        self._patch_function("repro.runner.executor", "task_from_spec", "runner.materialise")
        for attr in ("run_tasks", "run_reduced", "run_simulations"):
            self._patch(
                CampaignRunner, attr, self._dispatch_wrapper(CampaignRunner.__dict__[attr], cacheable_key)
            )
        self._patch(
            CampaignRunner, "_run_payloads", self._ipc_wrapper(CampaignRunner.__dict__["_run_payloads"])
        )

        def after_get(args, record) -> None:
            self.count("cache.hits" if record is not None else "cache.misses")

        for attr in ("get", "get_reduced"):
            self._patch_method(ResultCache, attr, "cache.get", after_get)
        for attr in ("put", "put_reduced"):
            self._patch_method(ResultCache, attr, "cache.put")

        def after_write(args, _result) -> None:
            self.count("store.write_bytes", len(args[2].encode("utf-8")))

        for attr in ("read_text", "list"):
            self._patch_method(LocalDirStore, attr, "store.read")
        for attr in ("write_text", "try_create"):
            self._patch_method(LocalDirStore, attr, "store.write", after_write)

        for cls in _subclasses(Reducer):
            if "reduce" in cls.__dict__:
                self._patch_method(cls, "reduce", "reduce")
        for module_name, attr in (
            ("repro.runner.aggregate", "campaign_report"),
            ("repro.runner.aggregate", "batch_report_from_records"),
            ("repro.runner.reduce", "batch_report_from_reduced"),
            ("repro.runner.reduce", "reduced_data"),
        ):
            self._patch_function(module_name, attr, "aggregate")
        for experiment_id, driver in list(ALL_EXPERIMENTS.items()):
            self._patch(
                ALL_EXPERIMENTS, experiment_id,
                self._spanned("experiments.driver", driver), mapping=True,
            )

        self._patch_method(WorkQueue, "submit", "fleet.submit")
        self._patch_method(WorkQueue, "collect", "fleet.collect")
        self._patch_method(DistributedCampaignRunner, "wait", "fleet.wait")

    def _dispatch_wrapper(self, fn: Callable, cacheable_key: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(runner, tasks, *args, **kwargs):
            frame = tracer.enter("runner.dispatch")
            try:
                before = runner.stats.snapshot()
                tracer.count(
                    "cache.unkeyed_runs", sum(1 for task in tasks if cacheable_key(task) is None)
                )
                result = fn(runner, tasks, *args, **kwargs)
                delta = runner.stats.since(before)
                tracer.count("runner.executed_runs", delta.executed)
                tracer.count("runner.batched_runs", delta.batched)
                return result
            finally:
                tracer.exit(frame)

        return wrapper

    def _ipc_wrapper(self, fn: Callable) -> Callable:
        """Count what a pooled runner ships to its workers and back."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(runner, worker, payloads):
            pooled = runner.jobs > 1
            if pooled:
                tracer.count("runner.pool_payloads", len(payloads))
                tracer.count(
                    "runner.ipc_bytes", sum(len(pickle.dumps(payload)) for payload in payloads)
                )
            for item in fn(runner, worker, payloads):
                if pooled:
                    tracer.count("runner.ipc_bytes", len(pickle.dumps(item)))
                yield item

        return wrapper

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, attr, original, mapping in reversed(self._patches):
            if mapping:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _abstract(fn) -> bool:
    return getattr(fn, "__isabstractmethod__", False)

"""Compact, serialisable per-run records and runner statistics.

Worker processes do not ship the full :class:`SimulationResult` (process
objects plus the entire heard-of collection) back to the parent for
campaign runs; they reduce each run to a :class:`RunRecord` carrying
exactly what batch aggregation and the experiment reports consume.
Records are plain JSON-able data, which is also what the on-disk result
cache stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional

from repro.core.predicates import CommunicationPredicate
from repro.simulation.engine import SimulationResult


@dataclass
class RunRecord:
    """Everything batch aggregation needs to know about one run."""

    agreement: bool = False
    integrity: bool = False
    termination: bool = False
    validity: bool = False
    all_satisfied: bool = False
    rounds_executed: int = 0
    first_decision_round: Optional[int] = None
    last_decision_round: Optional[int] = None
    decided_count: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    messages_corrupted: int = 0
    predicate_held: Optional[bool] = None
    violations: List[str] = field(default_factory=list)
    algorithm_name: str = ""
    adversary_name: str = ""
    key: Optional[str] = None
    cell: Dict[str, object] = field(default_factory=dict)
    run_index: int = 0
    seed: Optional[int] = None
    timed_out: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the run actually executed (no crash, no timeout)."""
        return self.error is None and not self.timed_out

    @classmethod
    def from_result(
        cls,
        result: SimulationResult,
        predicate: Optional[CommunicationPredicate] = None,
        key: Optional[str] = None,
        cell: Optional[Mapping[str, object]] = None,
        run_index: int = 0,
        seed: Optional[int] = None,
    ) -> "RunRecord":
        outcome = result.outcome
        metrics = result.metrics
        return cls(
            agreement=outcome.agreement,
            integrity=outcome.integrity,
            termination=outcome.termination,
            validity=outcome.validity,
            all_satisfied=outcome.all_satisfied,
            rounds_executed=outcome.rounds_executed,
            first_decision_round=outcome.first_decision_round,
            last_decision_round=outcome.last_decision_round,
            decided_count=len(outcome.decisions),
            messages_sent=metrics.messages_sent,
            messages_dropped=metrics.messages_dropped,
            messages_corrupted=metrics.messages_corrupted,
            predicate_held=(
                predicate.holds(result.collection) if predicate is not None else None
            ),
            violations=list(outcome.violations),
            algorithm_name=result.algorithm_name,
            adversary_name=result.adversary_name,
            key=key,
            cell=dict(cell or {}),
            run_index=run_index,
            seed=seed,
        )

    @classmethod
    def failure(
        cls,
        error: str,
        timed_out: bool = False,
        key: Optional[str] = None,
        cell: Optional[Mapping[str, object]] = None,
        run_index: int = 0,
        seed: Optional[int] = None,
    ) -> "RunRecord":
        return cls(
            error=error,
            timed_out=timed_out,
            key=key,
            cell=dict(cell or {}),
            run_index=run_index,
            seed=seed,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "agreement": self.agreement,
            "integrity": self.integrity,
            "termination": self.termination,
            "validity": self.validity,
            "all_satisfied": self.all_satisfied,
            "rounds_executed": self.rounds_executed,
            "first_decision_round": self.first_decision_round,
            "last_decision_round": self.last_decision_round,
            "decided_count": self.decided_count,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "messages_corrupted": self.messages_corrupted,
            "predicate_held": self.predicate_held,
            "violations": list(self.violations),
            "algorithm_name": self.algorithm_name,
            "adversary_name": self.adversary_name,
            "key": self.key,
            "cell": dict(self.cell),
            "run_index": self.run_index,
            "seed": self.seed,
            "timed_out": self.timed_out,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            agreement=bool(data.get("agreement", False)),
            integrity=bool(data.get("integrity", False)),
            termination=bool(data.get("termination", False)),
            validity=bool(data.get("validity", False)),
            all_satisfied=bool(data.get("all_satisfied", False)),
            rounds_executed=int(data.get("rounds_executed", 0)),
            first_decision_round=data.get("first_decision_round"),
            last_decision_round=data.get("last_decision_round"),
            decided_count=int(data.get("decided_count", 0)),
            messages_sent=int(data.get("messages_sent", 0)),
            messages_dropped=int(data.get("messages_dropped", 0)),
            messages_corrupted=int(data.get("messages_corrupted", 0)),
            predicate_held=data.get("predicate_held"),
            violations=list(data.get("violations", [])),
            algorithm_name=str(data.get("algorithm_name", "")),
            adversary_name=str(data.get("adversary_name", "")),
            key=data.get("key"),
            cell=dict(data.get("cell", {})),
            run_index=int(data.get("run_index", 0)),
            seed=data.get("seed"),
            timed_out=bool(data.get("timed_out", False)),
            error=data.get("error"),
        )


@dataclass
class RunnerStats:
    """Counters the runner keeps across :meth:`CampaignRunner.run_tasks` calls."""

    total: int = 0
    executed: int = 0
    #: Runs handed to a batch-capable backend as part of a whole-group
    #: ``run_batch`` call (a subset of ``executed``).
    batched: int = 0
    #: Rounds whose fault schedule a batch planner produced array-at-a-
    #: time (summed over batched runs; 0 when every adversary fell back
    #: to per-run planning).  A new counter widens the stats payload but
    #: readers tolerate missing keys, so the cache schema version is
    #: unchanged.
    batch_planned: int = 0
    #: Memory-budget splits of batch run groups (k chunks in a group
    #: count as k - 1; 0 when ``REPRO_BATCH_MEMORY_BUDGET`` is unset or
    #: never forced a split).  Readers tolerate the missing key, so the
    #: cache schema version is unchanged.
    batch_chunks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    failures: int = 0
    timeouts: int = 0
    elapsed_seconds: float = 0.0

    def snapshot(self) -> "RunnerStats":
        """A copy of the current counters (for per-campaign deltas)."""
        return replace(self)

    def since(self, earlier: "RunnerStats") -> "RunnerStats":
        """The counters accrued since ``earlier`` was snapshotted."""
        return RunnerStats(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {f.name: getattr(self, f.name) for f in fields(self)}
        data["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        return data

    def counter_items(self) -> List[tuple]:
        """The integer counters as ``(name, value)`` pairs, in field order.

        ``elapsed_seconds`` is deliberately excluded: it is a duration,
        not a count, and the fleet observes durations through histograms
        instead.  This is the seam the worker uses to fold a per-unit
        stats delta into ``repro_runner_runs_total{counter=...}`` without
        hard-coding the field list in two places.
        """
        return [
            (f.name, getattr(self, f.name)) for f in fields(self) if f.name != "elapsed_seconds"
        ]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunnerStats":
        """Rebuild stats shipped as JSON (distributed batch results).

        Missing keys read as zero, so payloads written before a counter
        existed still load.
        """
        return cls(
            **{
                f.name: (float if isinstance(f.default, float) else int)(data.get(f.name, 0))
                for f in fields(cls)
            }
        )

    def merge(self, other: "RunnerStats") -> None:
        """Fold another stats delta into this one, in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def summary(self) -> str:
        parts = [
            f"runs={self.total}",
            f"executed={self.executed}",
            f"cache_hits={self.cache_hits}",
            f"cache_misses={self.cache_misses}",
        ]
        if self.batched:
            parts.append(f"batched={self.batched}")
        if self.batch_planned:
            parts.append(f"batch_planned={self.batch_planned}")
        if self.batch_chunks:
            parts.append(f"batch_chunks={self.batch_chunks}")
        if self.failures:
            parts.append(f"failures={self.failures}")
        if self.timeouts:
            parts.append(f"timeouts={self.timeouts}")
        parts.append(f"elapsed={self.elapsed_seconds:.2f}s")
        return " ".join(parts)

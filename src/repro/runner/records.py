"""Compact, serialisable per-run records and runner statistics.

Worker processes do not ship the full :class:`SimulationResult` (process
objects plus the entire heard-of collection) back to the parent for
campaign runs; they reduce each run to a :class:`RunRecord` carrying
exactly what batch aggregation and the experiment reports consume.
Records are plain JSON-able data, which is also what the on-disk result
cache stores.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type, TypeVar

from repro.core.predicates import CommunicationPredicate
from repro.simulation.engine import SimulationResult

_R = TypeVar("_R", bound="_Record")
_Convert = Optional[Callable[[Any], Any]]


def outcome_fields(result: SimulationResult) -> Dict[str, Any]:
    """The per-run outcome summary every record kind carries.

    :class:`RunRecord` is built on it, and every standard reducer
    includes it, so aggregating either kind of record reproduces the
    full-result aggregation exactly.
    """
    outcome = result.outcome
    metrics = result.metrics
    return {
        "agreement": outcome.agreement,
        "integrity": outcome.integrity,
        "termination": outcome.termination,
        "validity": outcome.validity,
        "all_satisfied": outcome.all_satisfied,
        "rounds_executed": outcome.rounds_executed,
        "first_decision_round": outcome.first_decision_round,
        "last_decision_round": outcome.last_decision_round,
        "decided_count": len(outcome.decisions),
        "messages_sent": metrics.messages_sent,
        "messages_dropped": metrics.messages_dropped,
        "messages_corrupted": metrics.messages_corrupted,
        "violations": list(outcome.violations),
        "algorithm_name": result.algorithm_name,
        "adversary_name": result.adversary_name,
    }


@lru_cache(maxsize=None)
def _codec(cls: Any) -> Tuple[Tuple[str, _Convert, _Convert, Any], ...]:
    """Per dataclass field: name, ``as_dict`` copy, ``from_dict`` cast, missing-key default.

    Worked out once per class: warm passes decode every cached record.
    Container fields are copied both ways; a field defaulting to
    ``None`` is read back as stored; any other field is cast to its
    default's type (so an old ``1`` still reads as ``True``).  ``None``
    stands for "as is".
    """
    codec: List[Tuple[str, _Convert, _Convert, Any]] = []
    for f in fields(cls):
        if f.default_factory is not MISSING:
            codec.append((f.name, f.default_factory, f.default_factory, f.default_factory()))
        elif f.default is None:
            codec.append((f.name, None, None, None))
        else:
            codec.append((f.name, None, type(f.default), f.default))
    return tuple(codec)


def _from_dict(cls: Any, data: Mapping[str, Any]) -> Any:
    """Rebuild a dataclass from its JSON form; missing keys read as defaults."""
    return cls(
        **{
            name: data.get(name, default) if cast is None else cast(data.get(name, default))
            for name, _, cast, default in _codec(cls)
        }
    )


class _Record:
    """The envelope every record kind shares, serialised from its fields.

    ``as_dict`` lists the dataclass fields in declaration order, which
    is the byte layout the cache and the queue store; ``from_dict``
    tolerates payloads written before a field existed.
    """

    error: Optional[str]
    timed_out: bool

    @property
    def ok(self) -> bool:
        """Whether the run actually executed (no crash, no timeout)."""
        return self.error is None and not self.timed_out

    @classmethod
    def failure(
        cls: Type[_R],
        error: str,
        timed_out: bool = False,
        cell: Optional[Mapping[str, object]] = None,
        **identity: Any,
    ) -> _R:
        """The record of a run that produced no outcome; ``identity``
        names the record's other envelope fields (``key``, ``run_index``,
        ``seed``, ...)."""
        return cls(  # type: ignore[call-arg]
            error=error, timed_out=timed_out, cell=dict(cell or {}), **identity
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            name: getattr(self, name) if copy is None else copy(getattr(self, name))
            for name, copy, _, _ in _codec(type(self))
        }

    @classmethod
    def from_dict(cls: Type[_R], data: Mapping[str, Any]) -> _R:
        return _from_dict(cls, data)


@dataclass
class RunRecord(_Record):
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

    @classmethod
    def from_result(
        cls,
        result: SimulationResult,
        predicate: Optional[CommunicationPredicate] = None,
        cell: Optional[Mapping[str, object]] = None,
        **identity: Any,
    ) -> "RunRecord":
        """The record of a finished run: its outcome summary, the
        predicate's verdict on its heard-of collection, and ``identity``
        (``key``, ``run_index``, ``seed``)."""
        return cls(
            **outcome_fields(result),
            predicate_held=(
                predicate.holds(result.collection) if predicate is not None else None
            ),
            cell=dict(cell or {}),
            **identity,
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
    #: count as k - 1; 0 when the batch engine's memory budget never
    #: forced a split).  Readers tolerate the missing key, so the
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
        not a count, and the fleet times durations into its own
        ``_sum``/``_count`` keys instead.  This is the seam the worker uses to fold a per-unit
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
        return _from_dict(cls, data)

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

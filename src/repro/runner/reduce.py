"""In-worker reduction of simulation results to compact records.

``CampaignRunner.run_simulations`` ships the *entire*
:class:`SimulationResult` (all process objects plus the full heard-of
collection) back through pickle for every parallel run, so IPC volume
grows with ``n² × rounds``.  The experiment drivers (E3-E12) only ever
consume per-run summaries — predicate verdicts, decision rounds, fault
counts — so this module lets them describe that summary as a picklable
:class:`Reducer` which :meth:`CampaignRunner.run_reduced` applies
*inside* the worker process; only small JSON-able
:class:`ReducedRecord`s cross the process boundary.

Reduced records are cacheable under the same stable-key scheme as
:class:`RunRecord`: the cache key mixes the task's config hash with the
reducer's :meth:`~Reducer.fingerprint`, so two reducers (or two
parametrisations of one reducer) never collide, and re-running a reduced
campaign is incremental.

Standard reducers
-----------------
* :class:`DecisionReducer` — consensus verdicts, decision values and
  per-process decision rounds (what E6/E7/E9/E10/E12 consume);
* :class:`PredicateReducer` — the same outcome summary plus the verdict
  of a set of named communication predicates on the run's heard-of
  collection (E3/E4/E11);
* :class:`FaultProfileReducer` — the outcome summary plus the per-round
  corruption profile of the collection (E8).

All three include the common outcome/metric fields emitted by
:func:`outcome_fields`, so :func:`batch_report_from_reduced` can fold
any of their outputs into a :class:`BatchReport` that matches
:func:`repro.verification.properties.aggregate` field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.predicates import CommunicationPredicate
from repro.runner.records import _Record, outcome_fields
from repro.runner.spec import CACHE_SCHEMA_VERSION, stable_hash
from repro.simulation.engine import SimulationResult
from repro.verification.properties import BatchReport


class Reducer:
    """Reduces one :class:`SimulationResult` to a JSON-able dict, in-worker.

    Subclasses set :attr:`name`, implement :meth:`reduce` and return
    their configuration from :meth:`params` (everything that changes
    :meth:`reduce`'s output must appear there — it is what keeps the
    cache fingerprint sound).  Reducers are pickled into worker
    processes, so they must be built from picklable state.
    """

    #: Registry/report name of the reducer.
    name: str = "reducer"

    def params(self) -> Dict[str, object]:
        """JSON-able configuration that determines :meth:`reduce`'s output."""
        return {}

    def fingerprint(self) -> str:
        """Stable identity mixed into reduced cache keys."""
        return stable_hash(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "reducer": self.name,
                "params": self.params(),
            }
        )

    def reduce(self, result: SimulationResult) -> Dict[str, object]:
        """Summarise ``result``; must return JSON-able plain data."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} {self.params()!r}>"


class DecisionReducer(Reducer):
    """Outcome summary plus decision values and per-process decision rounds.

    ``decision_rounds`` is emitted as a sorted list of ``[process,
    round]`` pairs rather than a dict: JSON would silently stringify
    integer dict keys, breaking the cache round-trip type fidelity the
    runner guarantees.
    """

    name = "decision"

    def reduce(self, result: SimulationResult) -> Dict[str, object]:
        data = outcome_fields(result)
        outcome = result.outcome
        data["decision_values"] = list(outcome.decision_values)
        data["decision_rounds"] = sorted(
            [process, round_num] for process, round_num in outcome.decision_rounds.items()
        )
        return data


class PredicateReducer(Reducer):
    """Outcome summary plus the verdict of named communication predicates.

    ``predicates`` maps report labels to :class:`CommunicationPredicate`
    objects; each is evaluated on the run's heard-of collection inside
    the worker, and the verdicts land in the record's ``"predicates"``
    field as ``{label: bool}``.
    """

    name = "predicate"

    def __init__(self, predicates: Mapping[str, CommunicationPredicate]) -> None:
        if not predicates:
            raise ValueError("PredicateReducer requires at least one predicate")
        self.predicates = dict(predicates)

    def params(self) -> Dict[str, object]:
        # Predicate names embed their parameters (e.g. "P^A,live(T=6,
        # E=6, alpha=1)"), which is what makes this fingerprint sound.
        return {
            "predicates": {
                label: f"{type(p).__name__}:{p.describe()}"
                for label, p in self.predicates.items()
            }
        }

    def reduce(self, result: SimulationResult) -> Dict[str, object]:
        data = outcome_fields(result)
        data["predicates"] = {
            label: bool(p.holds(result.collection)) for label, p in self.predicates.items()
        }
        return data


class FaultProfileReducer(Reducer):
    """Outcome summary plus the collection's per-round corruption profile."""

    name = "fault-profile"

    def reduce(self, result: SimulationResult) -> Dict[str, object]:
        data = outcome_fields(result)
        profile = result.collection.corruption_profile()
        data["corruption_profile"] = list(profile)
        data["max_corruptions_in_a_round"] = max(profile) if profile else 0
        data["total_corruptions"] = result.collection.total_corruptions()
        data["total_omissions"] = result.collection.total_omissions()
        return data


def make_reducer(
    name: str, predicates: Optional[Mapping[str, CommunicationPredicate]] = None
) -> Reducer:
    """Build a standard reducer by name (the CLI's ``--reduce`` surface)."""
    if name == "decision":
        return DecisionReducer()
    if name == "fault-profile":
        return FaultProfileReducer()
    if name == "predicate":
        return PredicateReducer(predicates or {})
    raise KeyError(
        f"unknown reducer {name!r}; available: decision, fault-profile, predicate"
    )


@dataclass
class ReducedRecord(_Record):
    """What a reduced run ships back from the worker: data plus identity.

    ``data`` is whatever the reducer produced (empty for failed runs);
    the remaining fields mirror :class:`RunRecord`'s identity/failure
    envelope so campaigns can aggregate, cache and report reduced runs
    through the same machinery.
    """

    data: Dict[str, object] = field(default_factory=dict)
    reducer_name: str = ""
    key: Optional[str] = None
    cell: Dict[str, object] = field(default_factory=dict)
    run_index: int = 0
    seed: Optional[int] = None
    timed_out: bool = False
    error: Optional[str] = None

    @classmethod
    def from_data(
        cls,
        data: Mapping[str, object],
        cell: Optional[Mapping[str, object]] = None,
        **identity: Any,
    ) -> "ReducedRecord":
        """The record of a reduced run; ``identity`` names its other
        envelope fields (``reducer_name``, ``key``, ``run_index``, ``seed``)."""
        return cls(data=dict(data), cell=dict(cell or {}), **identity)


def reduced_cache_key(task_key: str, reducer: Reducer) -> str:
    """Cache key of one reduced run: config hash × reducer fingerprint."""
    return stable_hash({"task": task_key, "reducer": reducer.fingerprint()})


def _fold(
    runs: Iterable[Tuple[Mapping[str, Any], Optional[bool]]], counts_predicate: bool
) -> BatchReport:
    """Fold ``(outcome fields, predicate verdict)`` pairs into a :class:`BatchReport`.

    The one fold behind :func:`batch_report_from_reduced` and
    :func:`repro.runner.aggregate.batch_report_from_records`; it matches
    :func:`repro.verification.properties.aggregate` field for field.  A
    ``None`` verdict counts towards neither the hold count nor the
    counterexamples.
    """
    report = BatchReport(predicate_held=0 if counts_predicate else None)
    for row, held in runs:
        report.total += 1
        report.agreement_ok += int(bool(row["agreement"]))
        report.integrity_ok += int(bool(row["integrity"]))
        report.termination_ok += int(bool(row["termination"]))
        report.validity_ok += int(bool(row["validity"]))
        if row["last_decision_round"] is not None:
            report.decision_rounds.append(int(row["last_decision_round"]))
        report.corruption_totals.append(int(row["messages_corrupted"]))
        report.violations.extend(row["violations"])
        if held is not None:
            report.predicate_held += int(held)
            if held and not row["all_satisfied"]:
                report.counterexamples += 1
    return report


def batch_report_from_reduced(
    rows: Iterable[Mapping[str, Any]], predicate_label: Optional[str] = None
) -> BatchReport:
    """Fold reduced data dicts into a :class:`BatchReport`.

    Matches :func:`repro.verification.properties.aggregate` on the same
    runs field for field.  With ``predicate_label``, the report also
    counts how often that predicate (from a :class:`PredicateReducer`'s
    ``"predicates"`` field) held, and how many runs are genuine
    counterexamples.
    """
    if predicate_label is None:
        return _fold(((row, None) for row in rows), False)
    return _fold(((row, bool(row["predicates"][predicate_label])) for row in rows), True)


def reduced_data(records: Iterable[ReducedRecord]) -> List[Dict[str, object]]:
    """Extract the data dicts, refusing failed runs.

    Drivers index reduced rows positionally against their inputs, so a
    failed run cannot be silently skipped — it must surface here.
    """
    rows: List[Dict[str, object]] = []
    for record in records:
        if not record.ok:
            raise RuntimeError(
                f"cannot use failed reduced run (run_index={record.run_index}): "
                f"{record.error}"
            )
        rows.append(dict(record.data))
    return rows

"""Folding runner records back into the existing reporting types.

The experiment layer reasons in :class:`BatchReport`s and
:class:`ExperimentReport`s; this module rebuilds them from the compact
:class:`RunRecord`s the executor produces, so routing a sweep through
the runner changes *where* runs execute but not what any report says.
``batch_report_from_records`` mirrors
:func:`repro.verification.properties.aggregate` field for field.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.runner.records import RunRecord
from repro.runner.reduce import Reducer, ReducedRecord, _fold, batch_report_from_reduced
from repro.runner.spec import CampaignSpec, stable_hash
from repro.verification.properties import BatchReport


def batch_report_from_records(records: Iterable[RunRecord]) -> BatchReport:
    """Build a :class:`BatchReport` equivalent to aggregating the raw results.

    Refuses failed runs: a crashed or timed-out run has no outcome to
    count, and skipping it would silently change every rate.
    """
    records = list(records)
    for record in records:
        if not record.ok:
            raise RuntimeError(
                f"cannot aggregate failed run (run_index={record.run_index}): {record.error}"
            )
    return _fold(
        ((vars(record), record.predicate_held) for record in records),
        any(record.predicate_held is not None for record in records),
    )


def group_by_cell(
    records: Sequence,
) -> List[Tuple[Dict[str, object], List]]:
    """Group records by their grid cell, preserving first-seen order.

    Works for anything carrying a ``cell`` dict — both
    :class:`RunRecord` and :class:`ReducedRecord`.
    """
    groups: Dict[str, Tuple[Dict[str, object], List]] = {}
    order: List[str] = []
    for record in records:
        key = stable_hash(record.cell)
        if key not in groups:
            groups[key] = (dict(record.cell), [])
            order.append(key)
        groups[key][1].append(record)
    return [groups[key] for key in order]


def _cell_base_row(cell: Dict[str, object]) -> Dict[str, object]:
    """The identity columns every campaign row starts with."""
    row: Dict[str, object] = {
        "algorithm": cell.get("algorithm"),
        "adversary": cell.get("adversary"),
        "n": cell.get("n"),
    }
    if cell.get("predicate") is not None:
        row["predicate"] = cell.get("predicate")
    for params_field in ("algorithm_params", "adversary_params"):
        params = cell.get(params_field) or {}
        for name, value in sorted(params.items()):
            row[name] = value
    return row


def _rate_fields(batch: BatchReport) -> Dict[str, object]:
    """The aggregate columns shared by both campaign report flavours."""
    return {
        "runs": batch.total,
        "agreement_rate": round(batch.agreement_rate, 3),
        "integrity_rate": round(batch.integrity_rate, 3),
        "termination_rate": round(batch.termination_rate, 3),
        "mean_decision_round": (
            round(batch.mean_decision_round, 2)
            if batch.mean_decision_round is not None
            else None
        ),
    }


def _fold_cells(records: Sequence, report: "ExperimentReport", fold_succeeded) -> None:
    """Shared cell-row scaffolding: group, fold, flag failed runs."""
    for cell, cell_records in group_by_cell(records):
        failed = [record for record in cell_records if not record.ok]
        succeeded = [record for record in cell_records if record.ok]
        row = _cell_base_row(cell)
        if succeeded:
            row.update(fold_succeeded(succeeded))
        if failed:
            row["errors"] = len(failed)
        report.add_row(**row)
    if any(not record.ok for record in records):
        report.add_note(
            "cells with an 'errors' column had runs that failed or timed out; "
            "their rates cover the successful runs only."
        )


def campaign_report(spec: CampaignSpec, records: Sequence[RunRecord]) -> "ExperimentReport":
    """Fold campaign records into an :class:`ExperimentReport`, one row per cell."""
    # Imported here: experiments.common itself routes batches through the
    # runner, so a module-level import would be circular.
    from repro.experiments.common import ExperimentReport

    report = ExperimentReport(
        experiment_id=spec.campaign_id,
        title=f"campaign {spec.campaign_id} ({spec.runs} runs/cell, seed {spec.base_seed})",
    )

    def fold(succeeded: Sequence[RunRecord]) -> Dict[str, object]:
        batch = batch_report_from_records(succeeded)
        fields = _rate_fields(batch)
        if batch.predicate_held is not None:
            fields["predicate_held"] = batch.predicate_held
            fields["counterexamples"] = batch.counterexamples
        return fields

    _fold_cells(records, report, fold)
    return report


def reduced_campaign_report(
    spec: CampaignSpec, reducer: Reducer, records: Sequence[ReducedRecord]
) -> "ExperimentReport":
    """Fold reduced campaign records into an :class:`ExperimentReport`.

    One row per cell, identical in shape to :func:`campaign_report`'s
    rows (the reduced data carries every field batch aggregation needs),
    plus per-predicate hold counts when the reducer evaluated
    predicates in-worker.
    """
    from repro.experiments.common import ExperimentReport

    report = ExperimentReport(
        experiment_id=spec.campaign_id,
        title=(
            f"campaign {spec.campaign_id} (reduced: {reducer.name}, "
            f"{spec.runs} runs/cell, seed {spec.base_seed})"
        ),
    )

    def fold(succeeded: Sequence[ReducedRecord]) -> Dict[str, object]:
        rows_data = [record.data for record in succeeded]
        fields = _rate_fields(batch_report_from_reduced(rows_data))
        for label in sorted(
            {label for data in rows_data for label in data.get("predicates", {})}
        ):
            fields[f"held[{label}]"] = sum(
                1 for data in rows_data if data.get("predicates", {}).get(label)
            )
        return fields

    _fold_cells(records, report, fold)
    return report

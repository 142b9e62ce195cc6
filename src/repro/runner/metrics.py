"""Fleet metrics: one flat map of additive sums per process.

The fleet (``repro.runner.distributed``) counts claims, lease breaks,
deposits, steals, cache corruption and scale events, and times work
units.  Every reader — ``repro-ho status`` (text and ``--json``), CI and
the benchmark harness — reads flat sums, so that is all a process keeps:
one lock-guarded map from a key to a float.

* A counter adds a finite, non-negative amount under ``name`` or, for a
  labelled counter, ``name{label="value"}``.
* A timer adds one caller-measured duration to ``name_sum`` and one
  event to ``name_count``.

Workers deposit the map as a strict-JSON snapshot, and readers merge
snapshots by adding key by key.  Addition makes the merge associative
and commutative, with the empty map as identity, so shards may be
folded in any order.  A shard that is not a map of non-negative finite
numbers is rejected whole.

The map is clock-free: callers measure durations
(``time.perf_counter`` deltas), so importing this module never touches
wall-clock entropy and the repro-lint D202 clock seam stays confined to
``distributed.py``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = [
    "FLEET_METRICS",
    "FleetMetricSpec",
    "MetricsRegistry",
    "fleet_registry",
    "metric_catalogue_markdown",
]


@dataclass(frozen=True)
class FleetMetricSpec:
    """Declaration of one fleet metric (drives both wiring and docs).

    ``kind`` is ``"counter"`` or ``"timer"``; a counter may name one
    label.
    """

    name: str
    kind: str
    help: str
    labelnames: Tuple[str, ...] = ()


#: Canonical catalogue of every metric the fleet emits.  The registry
#: accepts only these names, and ``docs/observability.md`` renders this
#: table via :func:`metric_catalogue_markdown`, so the docs cannot drift
#: from the wiring.
FLEET_METRICS: Tuple[FleetMetricSpec, ...] = (
    FleetMetricSpec(
        name="repro_queue_claims_total",
        kind="counter",
        help="Batch leases won by this process (work units claimed for execution).",
    ),
    FleetMetricSpec(
        name="repro_queue_claim_latency_seconds",
        kind="timer",
        help="Store round-trip time spent winning one batch lease.",
    ),
    FleetMetricSpec(
        name="repro_queue_lease_breaks_total",
        kind="counter",
        help="Expired or corrupt leases broken so their batches could be reclaimed.",
    ),
    FleetMetricSpec(
        name="repro_queue_deposits_total",
        kind="counter",
        help="Result part files deposited into the queue (the fleet's output rate).",
    ),
    FleetMetricSpec(
        name="repro_queue_requeues_total",
        kind="counter",
        help="Deposited results discarded so their batches re-execute "
        "(failures and corrupt payloads).",
    ),
    FleetMetricSpec(
        name="repro_worker_units_total",
        kind="counter",
        help="Work units (whole batches or stolen tails) a worker executed.",
    ),
    FleetMetricSpec(
        name="repro_worker_steals_total",
        kind="counter",
        help="Cooperative steals: live leases cut so an idle worker took the tail.",
    ),
    FleetMetricSpec(
        name="repro_runner_unit_seconds",
        kind="timer",
        help="Wall-clock seconds executing one work unit (caller-measured).",
    ),
    FleetMetricSpec(
        name="repro_runner_window_seconds",
        kind="timer",
        help="Wall-clock seconds per run_tasks/run_reduced call a worker makes "
        "(its scheduling granularity within a unit).",
    ),
    FleetMetricSpec(
        name="repro_runner_runs_total",
        kind="counter",
        help="RunnerStats counters folded in from executed units; the "
        "'counter' label names the RunnerStats field (executed, batched, "
        "batch_planned, batch_chunks, cache_hits, cache_misses, failures, "
        "timeouts, total).",
        labelnames=("counter",),
    ),
    FleetMetricSpec(
        name="repro_cache_corrupt_total",
        kind="counter",
        help="Corrupt cache payloads dropped so their runs re-execute.",
    ),
    FleetMetricSpec(
        name="repro_supervisor_scale_events_total",
        kind="counter",
        help="Supervisor fleet resizes; the 'direction' label is up or down.",
        labelnames=("direction",),
    ),
)

_SPECS: Dict[str, FleetMetricSpec] = {spec.name: spec for spec in FLEET_METRICS}


def _amount(value: object) -> float:
    """A finite, non-negative float, or :class:`ValueError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"metric amount must be a number, got {value!r}")
    amount = float(value)
    if not math.isfinite(amount) or amount < 0:
        raise ValueError(f"metric amount must be finite and >= 0, got {value!r}")
    return amount


def _check_catalogued(name: str, kind: str, labels: Mapping[str, str]) -> None:
    """Reject a use of ``name`` that its catalogue entry does not declare."""
    spec = _SPECS.get(name)
    if spec is None or spec.kind != kind or tuple(labels) != spec.labelnames:
        raise ValueError(
            f"{name!r} with labels {sorted(labels)} is not a catalogued {kind}"
        )


class MetricsRegistry:
    """One process's fleet metrics: a lock-guarded flat map of sums.

    The fleet hangs one registry off each
    :class:`~repro.runner.distributed.WorkQueue`; workers deposit
    :meth:`flat_values` as their snapshot and readers rebuild fleet
    totals with :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {}

    def _add(self, amounts: Mapping[str, float]) -> None:
        with self._lock:
            for key, amount in amounts.items():
                self._values[key] = self._values.get(key, 0.0) + amount

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` to counter ``name``; a labelled counter takes
        its label as a keyword (``inc(name, counter="executed")``)."""
        _check_catalogued(name, "counter", labels)
        pairs = ",".join(f'{label}="{value}"' for label, value in labels.items())
        self._add({f"{name}{{{pairs}}}" if labels else name: _amount(amount)})

    def observe(self, name: str, seconds: float) -> None:
        """Time one event of timer ``name``: ``seconds`` onto
        ``name_sum`` and one onto ``name_count``."""
        _check_catalogued(name, "timer", {})
        self._add({f"{name}_sum": _amount(seconds), f"{name}_count": 1.0})

    def flat_values(self) -> Dict[str, float]:
        """The map sorted by key: the snapshot workers deposit and what
        ``repro-ho status --json`` reports as totals."""
        with self._lock:
            return dict(sorted(self._values.items()))

    def merge_snapshot(self, shard: object) -> None:
        """Add a deposited snapshot to this map, key by key.

        Raises :class:`ValueError`, having added nothing, unless the
        shard maps string keys to finite non-negative numbers.
        """
        if not isinstance(shard, Mapping):
            raise ValueError(f"metric snapshot must be a map, got {type(shard).__name__}")
        amounts: Dict[str, float] = {}
        for key, value in shard.items():
            if not isinstance(key, str):
                raise ValueError(f"metric key must be a string, got {key!r}")
            amounts[key] = _amount(value)
        self._add(amounts)


def fleet_registry() -> MetricsRegistry:
    """A fresh registry holding every unlabelled :data:`FLEET_METRICS`
    key at zero, so snapshots show the whole catalogue before its first
    event; labelled keys appear as label values are first used."""
    registry = MetricsRegistry()
    zeros: Dict[str, float] = {}
    for spec in FLEET_METRICS:
        if spec.kind == "timer":
            zeros[f"{spec.name}_sum"] = zeros[f"{spec.name}_count"] = 0.0
        elif not spec.labelnames:
            zeros[spec.name] = 0.0
    registry.merge_snapshot(zeros)
    return registry


def metric_catalogue_markdown() -> str:
    """The metric catalogue as a Markdown table (rendered into docs).

    ``docs/build.py --write-metric-catalogue`` splices this between the
    ``METRIC-CATALOGUE`` markers in ``docs/observability.md``; the docs
    build fails while the committed table is stale, exactly like the
    lint rule catalogue.
    """
    lines = [
        "| Metric | Type | Labels | Description |",
        "| --- | --- | --- | --- |",
    ]
    for spec in sorted(FLEET_METRICS, key=lambda s: s.name):
        labels = ", ".join(f"`{n}`" for n in spec.labelnames) or "—"
        help_text = " ".join(spec.help.split())
        lines.append(f"| `{spec.name}` | {spec.kind} | {labels} | {help_text} |")
    return "\n".join(lines) + "\n"

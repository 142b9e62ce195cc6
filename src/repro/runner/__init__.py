"""Parallel campaign runner.

Scales the lockstep engine from single sweeps to declarative campaigns:
grids of (algorithm × adversary × predicate × n × seeds) executed
serially or across worker processes, with per-run timeouts,
deterministic seed derivation and an on-disk result cache keyed by
stable configuration hashes (re-running a campaign is incremental).

Entry points
------------
* :class:`CampaignRunner` — the executor; plug one into
  :func:`repro.experiments.common.run_batch` or any experiment driver
  (``driver(runner=CampaignRunner(jobs=4))``) to parallelise its sweep.
* :meth:`CampaignRunner.run_reduced` — in-worker reduction: apply a
  :class:`Reducer` inside the worker process and ship back only compact
  :class:`ReducedRecord`s (what the E3-E12 drivers route through).
* :class:`CampaignSpec` — declarative grid; run with
  :meth:`CampaignRunner.run_campaign` (or ``run_reduced_campaign``) and
  fold into a report with :func:`campaign_report`
  (:func:`reduced_campaign_report`).
* ``repro-ho campaign`` — the CLI surface over both (``--reduce`` picks
  the in-worker reducer for ``--spec`` campaigns).
"""

from repro.runner.aggregate import (
    batch_report_from_records,
    campaign_report,
    group_by_cell,
    reduced_campaign_report,
)
from repro.runner.cache import ResultCache
from repro.runner.distributed import (
    DistributedCampaignResult,
    DistributedCampaignRunner,
    DistributedReducedCampaignResult,
    IncompleteCampaignError,
    Lease,
    Supervisor,
    SupervisorStats,
    Worker,
    WorkQueue,
    fleet_status,
    run_worker,
)
from repro.runner.executor import (
    CampaignResult,
    CampaignRunner,
    ReducedCampaignResult,
    RunTask,
    RunTimeoutError,
    cacheable_key,
    task_from_spec,
)
from repro.runner.factories import (
    available_adversaries,
    build_adversary,
    build_algorithm,
    build_predicate,
    build_workload,
)
from repro.runner.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    fleet_registry,
    metric_catalogue_markdown,
)
from repro.runner.records import RunRecord, RunnerStats
from repro.runner.reduce import (
    DecisionReducer,
    FaultProfileReducer,
    PredicateReducer,
    ReducedRecord,
    Reducer,
    batch_report_from_reduced,
    make_reducer,
    outcome_fields,
    reduced_cache_key,
    reduced_data,
)
from repro.runner.store import (
    CacheStore,
    FsspecObjectClient,
    InMemoryObjectClient,
    LocalDirStore,
    ObjectClient,
    ObjectStore,
    PrefixStore,
    SharedStore,
)
from repro.runner.spec import (
    CACHE_SCHEMA_VERSION,
    AdversarySpec,
    AlgorithmSpec,
    CampaignSpec,
    PredicateSpec,
    RunSpec,
    WorkloadSpec,
    cell_cache_key,
    derive_seed,
    stable_hash,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "AdversarySpec",
    "AlgorithmSpec",
    "CacheStore",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "Counter",
    "CounterFamily",
    "DecisionReducer",
    "DistributedCampaignResult",
    "DistributedCampaignRunner",
    "DistributedReducedCampaignResult",
    "FsspecObjectClient",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "InMemoryObjectClient",
    "IncompleteCampaignError",
    "Lease",
    "LocalDirStore",
    "MetricsRegistry",
    "ObjectClient",
    "ObjectStore",
    "PrefixStore",
    "Supervisor",
    "SupervisorStats",
    "FaultProfileReducer",
    "PredicateReducer",
    "PredicateSpec",
    "ReducedCampaignResult",
    "ReducedRecord",
    "Reducer",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "RunTask",
    "RunTimeoutError",
    "RunnerStats",
    "SharedStore",
    "WorkQueue",
    "Worker",
    "WorkloadSpec",
    "available_adversaries",
    "batch_report_from_records",
    "batch_report_from_reduced",
    "build_adversary",
    "build_algorithm",
    "build_predicate",
    "build_workload",
    "cacheable_key",
    "campaign_report",
    "cell_cache_key",
    "derive_seed",
    "fleet_registry",
    "fleet_status",
    "group_by_cell",
    "make_reducer",
    "metric_catalogue_markdown",
    "outcome_fields",
    "reduced_cache_key",
    "reduced_campaign_report",
    "reduced_data",
    "run_worker",
    "stable_hash",
    "task_from_spec",
]

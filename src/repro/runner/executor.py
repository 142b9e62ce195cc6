"""The campaign executor: serial or multiprocessing-backed run execution.

Three execution surfaces share one pipeline:

* :meth:`CampaignRunner.run_tasks` — execute concrete
  :class:`RunTask`s (constructed algorithm/adversary objects) and
  return compact :class:`RunRecord`s.  This is what
  :func:`repro.experiments.common.run_batch` routes through; tasks
  carrying stable keys are cached.
* :meth:`CampaignRunner.run_reduced` — execute tasks and apply a
  picklable :class:`repro.runner.reduce.Reducer` *inside* the worker
  process, shipping back only compact JSON-able
  :class:`ReducedRecord`s.  Cached under reducer-fingerprinted keys.
  This is what the collection-inspecting experiment drivers (E3-E12)
  route through: IPC volume stays flat in ``n`` instead of growing
  with the n² × rounds heard-of collection.
* :meth:`CampaignRunner.run_simulations` — like ``run_tasks`` but
  returning full :class:`SimulationResult`s for callers that genuinely
  need whole collections in the parent.  No caching (full results are
  too heavy to persist per run), and run errors propagate.

The surfaces differ only in what a finished or failed run becomes.
Behind all three, the pipeline partitions tasks on the result cache,
groups the batchable misses per backend, splits every group into
per-worker chunks (at any ``jobs``), runs singles and chunks through
one worker entry point — a failed batch resets its adversaries and
retries run by run — and updates :class:`RunnerStats`.
:meth:`CampaignRunner.run_campaign` /
:meth:`CampaignRunner.run_reduced_campaign` expand a declarative
:class:`CampaignSpec` into tasks and execute them with caching;
:class:`~repro.runner.distributed.DistributedCampaignRunner` reuses the
same pipeline with a worker fleet in place of the process pool.

Parallel execution uses :class:`concurrent.futures.ProcessPoolExecutor`;
tasks are pickled to workers, so they must be built from picklable
objects (every algorithm/adversary in this repository is).  Results are
re-ordered by task index, which makes ``--jobs N`` output byte-identical
to serial output.  Per-run timeouts are enforced *inside* the worker via
``SIGALRM`` (POSIX), so a hung run cannot wedge the whole campaign; on
platforms without ``SIGALRM`` the timeout is a no-op.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.adversary.base import Adversary
from repro.core.algorithm import HOAlgorithm
from repro.core.predicates import CommunicationPredicate
from repro.core.process import ProcessId, Value
from repro.runner.cache import ResultCache
from repro.runner.metrics import UNIT_SECONDS_BUCKETS, HistogramFamily, MetricsRegistry
from repro.runner.factories import (
    build_adversary,
    build_algorithm,
    build_predicate,
    build_workload,
)
from repro.runner.records import RunRecord, RunnerStats
from repro.runner.reduce import Reducer, ReducedRecord, reduced_cache_key
from repro.runner.spec import CampaignSpec, RunSpec
from repro.simulation.backends import EngineBackend, get_backend, run_simulation
from repro.simulation.batch_engine import SimulationRequest
from repro.simulation.engine import SimulationConfig, SimulationResult


class RunTimeoutError(RuntimeError):
    """A single simulated run exceeded its wall-clock budget."""


@dataclass
class RunTask:
    """One concrete run: live objects plus execution parameters.

    ``key`` is the stable cache key (``None`` disables caching for this
    task); ``cell``/``run_index``/``seed`` are carried through into the
    resulting :class:`RunRecord` for aggregation and reporting.
    """

    algorithm: HOAlgorithm
    adversary: Adversary
    initial_values: Mapping[ProcessId, Value]
    max_rounds: int = 60
    min_rounds: int = 0
    record_states: bool = False
    predicate: Optional[CommunicationPredicate] = None
    key: Optional[str] = None
    cell: Dict[str, object] = field(default_factory=dict)
    run_index: int = 0
    seed: Optional[int] = None
    #: Engine backend for this task (``None`` = the runner's default):
    #: a registry name, or an :class:`EngineBackend` instance — used
    #: as-is, never re-resolved through the registry, even when its
    #: ``name`` shadows a registered backend.  Never part of the cache
    #: key; non-result-identical backends are excluded from caching
    #: instead (see :func:`cacheable_key`).
    backend: Optional[Union[str, EngineBackend]] = None

    def __post_init__(self) -> None:
        # Same fail-fast as CampaignSpec: a typoed backend should raise
        # here, with a did-you-mean, not once per run inside a worker.
        if isinstance(self.backend, str):
            get_backend(self.backend)


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run_campaign` invocation.

    ``stats`` is a per-campaign snapshot (the delta accrued by this
    invocation), not the runner's lifetime counters — a reused runner's
    second campaign reports only its own totals.
    """

    spec: CampaignSpec
    records: List[RunRecord]
    stats: RunnerStats


@dataclass
class ReducedCampaignResult:
    """Outcome of one :meth:`CampaignRunner.run_reduced_campaign` invocation."""

    spec: CampaignSpec
    reducer: Reducer
    records: List[ReducedRecord]
    stats: RunnerStats


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`RunTimeoutError` if the body runs longer than ``seconds``.

    Uses ``SIGALRM``, which is only available on POSIX and only from the
    main thread of the process; anywhere else the timeout silently
    degrades to "no limit" rather than failing the run.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    # An outer deadline (or any other caller-armed ITIMER_REAL) must not
    # be silently cancelled: we arm whichever budget expires first and
    # re-arm the outer timer's remainder on exit.
    prior_remaining, prior_interval = signal.getitimer(signal.ITIMER_REAL)
    effective = (
        min(float(seconds), prior_remaining) if prior_remaining > 0.0 else float(seconds)
    )

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded timeout of {effective}s")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, effective)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prior_remaining > 0.0:
            remaining = prior_remaining - (time.monotonic() - started)
            timed_out = isinstance(sys.exc_info()[1], RunTimeoutError)
            if remaining > 0.0:
                signal.setitimer(signal.ITIMER_REAL, remaining, prior_interval)
            elif not timed_out:
                # The outer deadline expired while we held the timer and
                # nothing has fired yet: deliver it as soon as possible
                # (setitimer(0) would cancel it instead).
                signal.setitimer(signal.ITIMER_REAL, 1e-6, prior_interval)


def _task_backend(task: RunTask) -> EngineBackend:
    """The task's backend object: registry lookup for names, instances as-is."""
    backend = task.backend or "reference"
    return get_backend(backend) if isinstance(backend, str) else backend


def _task_config(task: RunTask) -> SimulationConfig:
    return SimulationConfig(
        max_rounds=task.max_rounds,
        min_rounds=task.min_rounds,
        stop_when_all_decided=True,
        record_states=task.record_states,
    )


def _task_request(task: RunTask) -> SimulationRequest:
    """The task as a batch-API request (predicate/key stay task-side)."""
    return SimulationRequest(
        algorithm=task.algorithm,
        initial_values=task.initial_values,
        adversary=task.adversary,
        config=_task_config(task),
    )


def _execute_task(task: RunTask, timeout: Optional[float]) -> SimulationResult:
    config = _task_config(task)
    with _deadline(timeout):
        return run_simulation(
            algorithm=task.algorithm,
            initial_values=task.initial_values,
            adversary=task.adversary,
            config=config,
            backend=task.backend or "reference",
        )


def _planned_rounds(results: Sequence[SimulationResult]) -> int:
    """Rounds the batch backend fault-scheduled array-at-a-time.

    Batch-capable backends report the count per run as
    ``metadata["batch_planned_rounds"]``; runs planned per run (no batch
    planner registered for their adversary class) report 0 or nothing.
    """
    return sum(result.metadata.get("batch_planned_rounds", 0) for result in results)


def _chunk_splits(results: Sequence[SimulationResult]) -> int:
    """Memory-budget splits the batch backend performed for these runs.

    The batch engine marks one result per extra chunk with
    ``metadata["batch_chunks"] = 1`` (a group split into k chunks under
    ``REPRO_BATCH_MEMORY_BUDGET`` carries k - 1 markers); unchunked
    groups and other backends report nothing.
    """
    return sum(result.metadata.get("batch_chunks", 0) for result in results)


def _batch_chunks(items: List, parts: int) -> List[List]:
    """Split a batch group into at most ``parts`` similar-size chunks."""
    parts = max(1, min(parts, len(items)))
    size = -(-len(items) // parts)
    return [items[start : start + size] for start in range(0, len(items), size)]


@dataclass(frozen=True)
class _Outcome:
    """What a finished or failed run becomes: the one thing surfaces vary.

    ``run_tasks`` makes :class:`RunRecord`s (no reducer),
    ``run_reduced`` makes :class:`ReducedRecord`s (reduced in the
    worker), and ``run_simulations`` (``full``) keeps the whole uncached
    :class:`SimulationResult`, letting run errors and timeouts
    propagate.  Pickled into pool workers with every payload.
    """

    reducer: Optional[Reducer] = None
    capture_errors: bool = False
    full: bool = False

    def key(self, task: RunTask) -> Optional[str]:
        """The cache key this surface reads and writes (None = uncached)."""
        base = None if self.full else cacheable_key(task)
        if base is None or self.reducer is None:
            return base
        return reduced_cache_key(base, self.reducer)

    def lookup(self, cache: ResultCache, key: str) -> Any:
        return cache.get(key) if self.reducer is None else cache.get_reduced(key)

    def store(self, cache: ResultCache, key: str, record: Any) -> None:
        if self.reducer is None:
            cache.put(key, record)
        else:
            cache.put_reduced(key, record)

    def done(self, task: RunTask, key: Optional[str], result: SimulationResult) -> Any:
        """The output of a run that finished."""
        if self.full:
            return result
        if self.reducer is None:
            return RunRecord.from_result(
                result, predicate=task.predicate, key=task.key, cell=task.cell,
                run_index=task.run_index, seed=task.seed,
            )
        try:
            data = self.reducer.reduce(result)
        except Exception as exc:
            return self.failed(task, key, exc)
        return ReducedRecord.from_data(
            data, reducer_name=self.reducer.name, key=key, cell=task.cell,
            run_index=task.run_index, seed=task.seed,
        )

    def failed(self, task: RunTask, key: Optional[str], exc: Exception) -> Any:
        """The failure record of a run that raised ``exc``.

        Timeouts always become records; other errors only with
        ``capture_errors``.  Full results record nothing: the error
        propagates.
        """
        timed_out = isinstance(exc, RunTimeoutError)
        if self.full or not (timed_out or self.capture_errors):
            raise exc
        message = str(exc) if timed_out else f"{type(exc).__name__}: {exc}"
        if self.reducer is None:
            return RunRecord.failure(
                message, timed_out=timed_out, key=task.key, cell=task.cell,
                run_index=task.run_index, seed=task.seed,
            )
        return ReducedRecord.failure(
            message, timed_out=timed_out, reducer_name=self.reducer.name, key=key,
            cell=task.cell, run_index=task.run_index, seed=task.seed,
        )

    def spec_failure(self, message: str, run_spec: RunSpec) -> Any:
        """The failure record of a campaign cell whose objects could not be built."""
        key = run_spec.config_hash()
        if self.reducer is None:
            return RunRecord.failure(
                message, key=key, cell=run_spec.cell(),
                run_index=run_spec.run_index, seed=run_spec.seed,
            )
        return ReducedRecord.failure(
            message, reducer_name=self.reducer.name,
            key=reduced_cache_key(key, self.reducer), cell=run_spec.cell(),
            run_index=run_spec.run_index, seed=run_spec.seed,
        )


#: Cache misses as ``(index, task, cache key)``.
_Pending = List[Tuple[int, RunTask, Optional[str]]]


def _run_one(
    task: RunTask, key: Optional[str], timeout: Optional[float], outcome: _Outcome
) -> Any:
    try:
        result = _execute_task(task, timeout)
    except Exception as exc:
        return outcome.failed(task, key, exc)
    return outcome.done(task, key, result)


def _worker(
    payload: Tuple[_Pending, bool, Optional[float], _Outcome]
) -> Tuple[List[Tuple[int, Any]], int, int]:
    """Worker entry point: one payload, a single run or a batch chunk.

    A batch chunk goes to its backend's ``run_batch``.  A batch aborts
    as a unit and may already have consumed adversary RNG, so on any
    error the adversaries' seeded schedules are reset (their documented
    replay contract) and the chunk re-executes run by run, isolating
    the failing run exactly as per-run dispatch would.  Returns the
    indexed outputs plus the chunk's batch-planned round count and
    memory-budget split count (both 0 off the batch path).
    """
    entries, batched, timeout, outcome = payload
    if batched:
        tasks = [task for _, task, _ in entries]
        try:
            results = _task_backend(tasks[0]).run_batch([_task_request(t) for t in tasks])
        except Exception:
            for task in tasks:
                task.adversary.reset()
        else:
            outputs = [
                (index, outcome.done(task, key, result))
                for (index, task, key), result in zip(entries, results)
            ]
            return outputs, _planned_rounds(results), _chunk_splits(results)
    return [(index, _run_one(task, key, timeout, outcome)) for index, task, key in entries], 0, 0


def _require_complete(results: List, surface: str) -> List:
    """Every task must produce a result; a silent gap would desynchronise
    drivers that zip results with their inputs."""
    missing = [index for index, result in enumerate(results) if result is None]
    if missing:
        raise RuntimeError(
            f"{surface} produced no result for task indices {missing}; "
            f"refusing to return a desynchronised result list"
        )
    return results


def materialise_specs(run_specs: Sequence[RunSpec], stats: RunnerStats):
    """Build live tasks from specs, collecting infeasible cells.

    Returns ``(tasks, task_positions, failures)`` where ``failures``
    maps spec positions to ``(message, run_spec)`` for cells whose
    objects could not be constructed (bad name/params); each failure is
    counted into ``stats``.
    """
    tasks: List[RunTask] = []
    task_positions: List[int] = []
    failures: Dict[int, Tuple[str, RunSpec]] = {}
    for position, run_spec in enumerate(run_specs):
        try:
            tasks.append(task_from_spec(run_spec))
            task_positions.append(position)
        except Exception as exc:  # infeasible cell (bad name/params)
            failures[position] = (f"{type(exc).__name__}: {exc}", run_spec)
            stats.total += 1
            stats.failures += 1
    return tasks, task_positions, failures


def cacheable_key(task: RunTask) -> Optional[str]:
    """The task's cache key, or None when it must not be cached.

    Cache keys are backend-independent because backends are
    result-identical — which the ``async`` engine is *not* (its
    adversary sees submissions in event-loop order, so seeded fault
    schedules can diverge).  Tasks on a non-equivalent backend
    therefore never read from or write to the shared cache.
    """
    if not task.key:
        return None
    # Resolve instances directly: an instance whose name shadows a
    # registered backend must be judged by its *own* equivalence flag,
    # not the registry entry it shadows.
    if not _task_backend(task).equivalent_to_reference:
        return None
    return task.key


def task_from_spec(spec: RunSpec) -> RunTask:
    """Materialise a declarative :class:`RunSpec` into a live task."""
    return RunTask(
        algorithm=build_algorithm(spec.algorithm, spec.n),
        adversary=build_adversary(spec.adversary, spec.n, spec.seed),
        initial_values=build_workload(spec.workload, spec.n, spec.seed),
        max_rounds=spec.max_rounds,
        min_rounds=spec.min_rounds,
        predicate=build_predicate(spec.predicate, spec.n),
        key=spec.config_hash(),
        cell=spec.cell(),
        run_index=spec.run_index,
        seed=spec.seed,
        backend=spec.backend,
    )


class _Pipeline:
    """The execution pipeline behind every runner surface.

    Stamps the default backend onto tasks, partitions them on the
    result cache, hands the misses to :meth:`_dispatch` and updates
    :class:`RunnerStats`; :meth:`_campaign` expands declarative specs on
    top.  :class:`CampaignRunner` dispatches to in-process or pooled
    workers, :class:`~repro.runner.distributed.DistributedCampaignRunner`
    to a worker fleet through its queue.
    """

    backend: Union[str, EngineBackend]
    cache: Optional[ResultCache]
    stats: RunnerStats
    _m_window: Optional[HistogramFamily] = None

    def run_tasks(
        self, tasks: Sequence[RunTask], capture_errors: bool = False
    ) -> List[RunRecord]:
        raise NotImplementedError

    def run_reduced(
        self, tasks: Sequence[RunTask], reducer: Reducer, capture_errors: bool = False
    ) -> List[ReducedRecord]:
        raise NotImplementedError

    def _dispatch(self, pending: _Pending, outcome: _Outcome) -> Iterable[Tuple[int, Any]]:
        """Execute the cache misses, yielding ``(index, output)`` pairs."""
        raise NotImplementedError

    def _with_backend(self, tasks: Sequence[RunTask]) -> List[RunTask]:
        """Tasks with the runner's default backend filled in where unset.

        Returns copies rather than mutating the caller's tasks, so the
        same task list can be run through differently configured
        runners (e.g. to compare backends).
        """
        if self.backend == "reference":
            return list(tasks)
        return [
            replace(task, backend=self.backend) if task.backend is None else task
            for task in tasks
        ]

    def _observe_window(self, started: float) -> float:
        """Elapsed seconds since ``started``, observed when instrumented."""
        elapsed = time.perf_counter() - started
        if self._m_window is not None:
            self._m_window.observe(max(0.0, elapsed))
        return elapsed

    def _partition(
        self, tasks: Sequence[RunTask], outcome: _Outcome, stats: RunnerStats
    ) -> Tuple[List[Any], _Pending]:
        """Cache hits in place, plus the misses still to execute."""
        outputs: List[Any] = [None] * len(tasks)
        pending: _Pending = []
        for index, task in enumerate(tasks):
            key = outcome.key(task)
            cached = outcome.lookup(self.cache, key) if self.cache is not None and key else None
            if cached is not None:
                stats.cache_hits += 1
                outputs[index] = cached
                continue
            if self.cache is not None and key:
                stats.cache_misses += 1
            pending.append((index, task, key))
        return outputs, pending

    def _execute(self, tasks: Sequence[RunTask], outcome: _Outcome, surface: str) -> List[Any]:
        """Run ``tasks`` through the pipeline; one output each, in task order."""
        started = time.perf_counter()
        outputs, pending = self._partition(self._with_backend(tasks), outcome, self.stats)
        for index, output in self._dispatch(pending, outcome):
            outputs[index] = output
        self.stats.total += len(outputs)
        if not outcome.full:
            self.stats.failures += sum(
                1 for r in outputs if r is not None and r.error and not r.timed_out
            )
            self.stats.timeouts += sum(1 for r in outputs if r is not None and r.timed_out)
        self.stats.elapsed_seconds += self._observe_window(started)
        return _require_complete(outputs, surface)

    def _campaign(
        self, spec: CampaignSpec, reducer: Optional[Reducer]
    ) -> Tuple[List[Any], RunnerStats]:
        """Expand ``spec``, execute it and reassemble records in spec order.

        Cells whose objects cannot be built (bad name/params) become
        failure records in place.  Returns the records and this
        campaign's stats delta (not the runner's lifetime counters, so
        reusing one runner never leaks one campaign's totals into the
        next one's report).
        """
        before = self.stats.snapshot()
        run_specs = spec.expand()
        tasks, positions, failures = materialise_specs(run_specs, self.stats)
        if reducer is None:
            executed: List[Any] = self.run_tasks(tasks, capture_errors=True)
        else:
            executed = self.run_reduced(tasks, reducer, capture_errors=True)
        records: List[Any] = [None] * len(run_specs)
        for position, record in zip(positions, executed):
            records[position] = record
        outcome = _Outcome(reducer)
        for position, (message, run_spec) in failures.items():
            records[position] = outcome.spec_failure(message, run_spec)
        return records, self.stats.since(before)


class CampaignRunner(_Pipeline):
    """Executes batches of runs serially or across worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) executes
        in-process, which is what the experiment drivers use when no
        runner is supplied — behaviour and results are identical either
        way, only wall-clock time differs.
    timeout:
        Per-run wall-clock budget in seconds (``None`` = unlimited).
    cache:
        Optional :class:`ResultCache` (or a directory path, which is
        wrapped in one).  Only tasks carrying a ``key`` participate.
    backend:
        Default engine backend for tasks that do not pin one
        (:attr:`RunTask.backend`).  Backends are semantically invisible
        (see :mod:`repro.simulation.backends`), so cached records are
        shared across backends and ``backend="fast"`` is always safe.
    metrics:
        Optional :class:`~repro.runner.metrics.MetricsRegistry`; when
        set, every ``run_tasks``/``run_reduced``/``run_simulations``
        call observes its wall-clock seconds into
        ``repro_runner_window_seconds``.  Pure observation — records,
        stats and ordering are identical with and without it.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache: Optional[Union[ResultCache, str]] = None,
        backend: Union[str, EngineBackend] = "reference",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.cache = (
            cache if cache is None or isinstance(cache, ResultCache) else ResultCache(cache)
        )
        if isinstance(backend, str):
            get_backend(backend)  # fail fast on typos, before any run executes
        self.backend = backend
        self.stats = RunnerStats()
        self.metrics = metrics
        self._m_window = (
            None
            if metrics is None
            else metrics.histogram(
                "repro_runner_window_seconds", buckets=UNIT_SECONDS_BUCKETS
            )
        )
        self._pool: Optional[ProcessPoolExecutor] = None

    def _batchable(self, task: RunTask) -> bool:
        """Whether this task may join a whole-group ``run_batch`` call.

        Requires a batch-capable backend that supports the run
        natively, and no per-run timeout: ``SIGALRM`` deadlines budget
        one run, which does not compose with whole-group execution —
        timed campaigns keep per-run dispatch.
        """
        if self.timeout is not None:
            return False
        chosen = _task_backend(task)
        if not getattr(chosen, "supports_batch", False):
            return False
        return chosen.supports(task.algorithm, task.adversary, _task_config(task), None)

    @staticmethod
    def _batch_group_key(task: RunTask) -> object:
        """Group batchable tasks per backend (instances by identity)."""
        backend = task.backend or "reference"
        return backend if isinstance(backend, str) else id(backend)

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        # One pool per runner, reused across run_tasks/run_simulations
        # calls: drivers invoke the runner once per sweep cell, and
        # respawning workers per call would dominate small batches on
        # spawn-start platforms.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (a later call lazily recreates it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The execution surfaces
    # ------------------------------------------------------------------
    def run_tasks(
        self, tasks: Sequence[RunTask], capture_errors: bool = False
    ) -> List[RunRecord]:
        """Execute ``tasks`` and return one :class:`RunRecord` each, in order.

        Cached tasks (``task.key`` present in the cache) are not
        re-executed.  With ``capture_errors`` worker exceptions become
        failure records instead of propagating — campaigns over
        user-supplied grids use this so one infeasible cell cannot sink
        the whole sweep.
        """
        return self._execute(tasks, _Outcome(capture_errors=capture_errors), "run_tasks")

    def run_reduced(
        self,
        tasks: Sequence[RunTask],
        reducer: Reducer,
        capture_errors: bool = False,
    ) -> List[ReducedRecord]:
        """Execute ``tasks``, applying ``reducer`` inside the worker.

        Returns one :class:`ReducedRecord` per task, in task order.
        Only the reduced data crosses the process boundary — the full
        :class:`SimulationResult` (process objects plus the n² × rounds
        heard-of collection) never leaves the worker.  Records are
        cached under keys that mix the task's stable key with the
        reducer's fingerprint, so different reducers (or differently
        parametrised ones) never share entries with each other or with
        plain :class:`RunRecord`s.
        """
        return self._execute(tasks, _Outcome(reducer, capture_errors), "run_reduced")

    def run_simulations(self, tasks: Sequence[RunTask]) -> List[SimulationResult]:
        """Execute ``tasks`` and return full results in task order.

        Uncached; a run's error (timeouts included) propagates.  Batch
        groups still split into per-worker chunks, so pooled runs ship
        whole chunks of results back.
        """
        return self._execute(tasks, _Outcome(full=True), "run_simulations")

    def _dispatch(self, pending: _Pending, outcome: _Outcome) -> Iterator[Tuple[int, Any]]:
        """Run the cache misses and store the ok records.

        Unbatchable runs go one per payload; each same-backend batch
        group is split into per-worker chunks, so a pooled sweep still
        parallelises (outputs stay byte-identical at any ``jobs``).
        """
        payloads: List[tuple] = []
        groups: Dict[object, _Pending] = {}
        for entry in pending:
            if self._batchable(entry[1]):
                groups.setdefault(self._batch_group_key(entry[1]), []).append(entry)
            else:
                payloads.append(([entry], False, self.timeout, outcome))
        for group in groups.values():
            self.stats.batched += len(group)
            chunks = _batch_chunks(group, self.jobs)
            payloads.extend((chunk, True, None, outcome) for chunk in chunks)
        keys = {index: key for index, _, key in pending}
        for outputs, planned, splits in self._run_payloads(_worker, payloads):
            self.stats.batch_planned += planned
            self.stats.batch_chunks += splits
            for index, output in outputs:
                key = keys[index]
                if self.cache is not None and key and output.ok:
                    outcome.store(self.cache, key, output)
                yield index, output
        self.stats.executed += len(pending)

    def _run_payloads(self, worker, payloads: Sequence[tuple]):
        """Run payloads through ``worker``, in-process or pooled.

        Yields each payload's result as it completes (unordered in the
        pooled case; outputs carry their task index for re-ordering).
        """
        if not payloads:
            return
        if self.jobs == 1:
            for payload in payloads:
                yield worker(payload)
            return
        try:
            pool = self._get_pool()
            futures = {pool.submit(worker, payload) for payload in payloads}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        except BrokenProcessPool:
            # A dead worker poisons the pool; drop it so the next call
            # starts from a fresh one.
            self.close()
            raise

    # ------------------------------------------------------------------
    # Declarative campaigns
    # ------------------------------------------------------------------
    def run_campaign(self, spec: CampaignSpec) -> CampaignResult:
        """Expand ``spec`` into tasks, execute (with caching), aggregate.

        The returned ``stats`` cover this campaign only (a snapshot
        delta), so reusing one runner across campaigns never leaks the
        first campaign's counters into the second's report.
        """
        records, stats = self._campaign(spec, None)
        return CampaignResult(spec=spec, records=records, stats=stats)

    def run_reduced_campaign(
        self, spec: CampaignSpec, reducer: Reducer
    ) -> ReducedCampaignResult:
        """Like :meth:`run_campaign`, but reducing inside the workers."""
        records, stats = self._campaign(spec, reducer)
        return ReducedCampaignResult(spec=spec, reducer=reducer, records=records, stats=stats)

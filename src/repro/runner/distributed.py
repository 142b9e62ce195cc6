"""Broker-less distributed campaign execution over a shared store.

A campaign can be executed by a fleet of independent worker processes —
on one machine or many — coordinated **only** through a directory on a
shared filesystem (the *queue dir*, backed by
:class:`~repro.runner.store.SharedStore`) or any other
:class:`~repro.runner.store.CacheStore` (e.g. an
:class:`~repro.runner.store.ObjectStore` over an S3-style service).
There is no broker, no server and no network protocol: every
coordination primitive is an atomic store operation (exclusive create,
atomic replace), so any host that can reach the store can join the
fleet.

Layout of a queue dir::

    <queue-dir>/
      cache/                        # the fleet-shared ResultCache
        <aa>/<sha256>.json          #   (same sharded layout as local caches)
      campaigns/<campaign-id>/
        manifest.json               # kind, batch count, pickled reducer
        batches/<NNNNN>.json        # pickled RunTask payloads, in order
        splits/<NNNNN>.<SSSS>.json  # cut markers: work-stealing split points
        leases/<NNNNN>.p<AAAAA>.json  # live claims: worker, heartbeat, progress
        results/<NNNNN>.p<AAAAA>-<CCCCC>.json  # part deposits: records for
                                    #   tasks [AAAAA, AAAAA+CCCCC) of the batch
      control/
        retire/<worker-id>.json     # supervisor → worker shutdown requests

Scheduling is *lease-based*: a worker claims a batch interval by
exclusively creating its lease file and keeps the claim alive by
heartbeating it (publishing how far into the interval it has reserved
work); a lease whose heartbeat is older than its TTL is considered
abandoned (crashed or partitioned worker) and any other worker may
break it and re-claim the interval.

**Work stealing** makes the fleet elastic across batch boundaries: an
idle worker that finds no unclaimed work inspects live leases and
splits the largest in-progress batch by exclusively creating a *cut
marker* (first-writer-wins, crash-atomic — the same exclusive-create
discipline as leases) at a point inside the lease holder's unstarted
tail, then claims and executes the interval after the cut.  Cut markers
are pure **scheduling hints**: correctness rests on the deposit
protocol.  Workers deposit the records they actually executed as a
*part* file naming its interval (``results/<batch>.p<start>-<count>``),
the collector assembles records position-first-wins, and a batch is
complete when its deposited parts cover every task.  Runs are
deterministic and records content-addressed, so overlapping execution
after any race (a stale progress read, a broken lease, a lost or torn
cut marker) produces byte-identical records and never corrupts a
campaign — duplicate work is the only cost.

Execution is **byte-identical to serial runs**: batches enumerate tasks
in submission order, workers execute them through the ordinary
:class:`~repro.runner.executor.CampaignRunner`, results ship as the
same JSON encoding the result cache uses, and the submitter reassembles
records in task order before aggregating through the existing
``batch_report_from_records`` / ``batch_report_from_reduced`` paths.
Completed runs land in the shared cache under their usual
reducer-fingerprinted keys, so serial, ``--jobs N`` and distributed
executions of one campaign all hit each other's cache entries.

Entry points
------------
* :class:`DistributedCampaignRunner` — the submitter.  Implements the
  same execution surface as :class:`CampaignRunner`
  (``run_tasks``/``run_reduced``/``run_campaign``/
  ``run_reduced_campaign``), so every experiment driver accepts it via
  the existing ``runner=`` kwarg.
* :class:`Worker` / :func:`run_worker` — the claiming loop
  (``repro-ho worker --queue-dir ...``), stealing by default.
* :class:`Supervisor` — auto-scales a local worker fleet from queue
  depth (``repro-ho supervise``, ``campaign --distributed --autoscale``).
* :class:`WorkQueue` — the shared-store protocol all of them speak.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import pickle
import re
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.cache import ResultCache
from repro.runner.executor import (
    CampaignResult,
    CampaignRunner,
    ReducedCampaignResult,
    RunTask,
    RunTimeoutError,
    _Outcome,
    _Pending,
    _Pipeline,
    cacheable_key,
    materialise_specs,
)
from repro.runner.metrics import UNIT_SECONDS_BUCKETS, MetricsRegistry, fleet_registry
from repro.runner.records import RunRecord, RunnerStats
from repro.runner.reduce import ReducedRecord, Reducer
from repro.runner.spec import CampaignSpec, stable_hash
from repro.runner.store import CacheStore, PrefixStore, SharedStore
from repro.simulation.backends import get_backend

logger = logging.getLogger(__name__)

#: Bump when the queue file formats change incompatibly.  Version 2
#: introduced interval part deposits and cut markers (work stealing);
#: fleets must not mix members speaking different versions.
QUEUE_SCHEMA_VERSION = 2

#: Default lease time-to-live: a lease whose heartbeat is older than
#: this is treated as abandoned and may be re-claimed by another worker.
DEFAULT_LEASE_TTL = 60.0

#: Smallest unstarted remainder (in tasks) worth splitting off a live
#: lease: below this, stealing costs more scheduling than it saves.
MIN_STEAL = 2


class IncompleteCampaignError(RuntimeError):
    """A campaign's results were incomplete at collect time.

    Raised when a batch's deposited parts do not cover all of its tasks
    (or a deposit was unreadable, now discarded) — e.g. a concurrent
    submitter requeued a failed batch between our ``wait`` and
    ``collect``.  The submitter reacts by waiting again; the uncovered
    interval re-executes and a later collect succeeds.
    """


def _require_equivalent_backend(backend: str) -> str:
    """Distributed execution is only defined for backends that are
    result-identical to the reference engine: the whole contract is
    byte-identical records regardless of which fleet member ran a batch
    (and completed runs feed the backend-independent shared cache)."""
    if not get_backend(backend).equivalent_to_reference:
        raise ValueError(
            f"backend {backend!r} is not result-identical to the reference "
            f"engine, so it cannot take part in distributed execution "
            f"(its records would depend on which worker ran them)"
        )
    return backend


def _encode_pickle(obj: object) -> str:
    # Protocol pinned so every fleet member (3.10-3.12) reads every
    # other member's payloads.
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def _decode_pickle(text: str) -> object:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _manifest_path(campaign_id: str) -> str:
    return f"campaigns/{campaign_id}/manifest.json"


def _batch_path(campaign_id: str, index: int) -> str:
    return f"campaigns/{campaign_id}/batches/{index:05d}.json"


def _lease_path(campaign_id: str, index: int, start: int = 0) -> str:
    return f"campaigns/{campaign_id}/leases/{index:05d}.p{start:05d}.json"


def _part_path(campaign_id: str, index: int, start: int, count: int) -> str:
    return f"campaigns/{campaign_id}/results/{index:05d}.p{start:05d}-{count:05d}.json"


def _cut_path(campaign_id: str, index: int, seq: int) -> str:
    return f"campaigns/{campaign_id}/splits/{index:05d}.{seq:04d}.json"


def _retire_path(worker_id: str) -> str:
    # Worker ids default to host-pid but are user-settable; squash
    # anything path-hostile so a creative id cannot escape the store.
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", worker_id) or "_"
    return f"control/retire/{safe}.json"


def _metrics_path(worker_id: str) -> str:
    # Metric snapshots live in their own top-level namespace so queue
    # readers that predate them (schema v2 listings glob campaigns/*
    # and control/*) never see the files: no schema version bump.
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", worker_id) or "_"
    return f"metrics/{safe}.json"


_PART_NAME = re.compile(r"(\d{5})\.p(\d{5})-(\d{5})\.json\Z")
_LEASE_NAME = re.compile(r"(\d{5})\.p(\d{5})\.json\Z")
_CUT_NAME = re.compile(r"(\d{5})\.(\d{4})\.json\Z")


@dataclass(frozen=True)
class Lease:
    """A worker's live claim on one batch interval.

    ``start`` is the first task index of the claimed interval; the
    interval's end is dynamic — the next cut marker after ``start`` (or
    the batch end), re-read between execution chunks so a thief's split
    takes effect mid-flight.
    """

    campaign_id: str
    batch_index: int
    worker_id: str
    ttl: float
    start: int = 0


def _lease_live(payload: Dict[str, object], now: float) -> bool:
    """Whether a lease payload's last heartbeat is within its TTL at ``now``.

    Both sides are wall-clock readings: the heartbeat the holder wrote
    and this host's clock (see :meth:`WorkQueue.try_acquire` on skew).
    """
    heartbeat_at = float(payload.get("heartbeat_at", 0.0))
    return now - heartbeat_at <= float(payload.get("ttl", DEFAULT_LEASE_TTL))


class _CampaignView:
    """One campaign's queue state: what is left to do, and where.

    Built by :meth:`WorkQueue.scan`.  The batch sizes come from the
    manifest.  The deposited intervals (:attr:`deposited`, from part
    filenames) and the cut points (:attr:`cut_points`, from cut
    markers) are listed on first use, at most once per view: a caller
    that asks only about coverage never lists ``splits/``, and one that
    asks only for interval ends never lists ``results/``.  A view made
    by :meth:`rescan` lists one batch's files and answers only for it.
    """

    def __init__(
        self,
        queue: "WorkQueue",
        campaign_id: str,
        manifest: Dict[str, object],
        index: Optional[int] = None,
    ) -> None:
        self.campaign_id = campaign_id
        self.manifest = manifest
        self.sizes = WorkQueue.batch_sizes(manifest)
        self._queue = queue
        self._batches = "*" if index is None else f"{index:05d}"

    def rescan(self, index: int) -> "_CampaignView":
        """A fresh view of one batch: same manifest, its files listed anew."""
        return _CampaignView(self._queue, self.campaign_id, self.manifest, index)

    @cached_property
    def deposited(self) -> Dict[int, List[Tuple[int, int]]]:
        """Deposited intervals per batch, sorted: ``{index: [(start, count), …]}``.

        Read purely from part *filenames* (one store listing), so
        completion polling never opens result payloads.
        """
        deposited: Dict[int, List[Tuple[int, int]]] = {}
        pattern = f"campaigns/{self.campaign_id}/results/{self._batches}.p*.json"
        for relpath in self._queue.store.list(pattern):
            match = _PART_NAME.search(relpath)
            if match is None:
                continue
            index, start, count = (int(group) for group in match.groups())
            deposited.setdefault(index, []).append((start, count))
        for intervals in deposited.values():
            intervals.sort()
        return deposited

    @cached_property
    def cut_points(self) -> Dict[int, List[int]]:
        """Cut points per batch, sorted: ``{index: [at, …]}``.

        Cut markers are scheduling hints only — an unreadable marker is
        skipped (the deposit coverage protocol keeps correctness).
        """
        points: Dict[int, set] = {}
        pattern = f"campaigns/{self.campaign_id}/splits/{self._batches}.*.json"
        for relpath in self._queue.store.list(pattern):
            match = _CUT_NAME.search(relpath)
            if match is None:
                continue
            payload = self._queue._read_json(relpath)
            if payload is None:
                continue
            try:
                at = int(payload["at"])  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError):
                continue
            points.setdefault(int(match.group(1)), set()).add(at)
        return {index: sorted(found) for index, found in points.items()}

    def end(self, index: int, start: int) -> int:
        """The current end of the interval starting at ``start``: the
        first cut point after it, or the batch end."""
        num = self.sizes[index]
        return min((at for at in self.cut_points.get(index, ()) if start < at < num), default=num)

    def covered(self, index: int, start: int, end: int) -> bool:
        """Whether deposited parts cover every task in ``[start, end)``."""
        reach = start
        for first, count in self.deposited.get(index, ()):
            if first > reach:
                break
            reach = max(reach, first + count)
        return reach >= end

    def pending(self) -> List[int]:
        """Batch indices whose deposited parts do not cover every task."""
        return [index for index, num in enumerate(self.sizes) if not self.covered(index, 0, num)]

    def units(self) -> List[Tuple[int, int, int]]:
        """Intervals ``(batch_index, start, end)`` with uncovered tasks.

        Intervals are bounded by the batch's cut points; every interval
        returned has at least one task without a deposited record.  The
        caller still races for the interval's lease — this is a scan,
        not a claim.
        """
        units: List[Tuple[int, int, int]] = []
        for index in self.pending():
            num = self.sizes[index]
            inside = (at for at in self.cut_points.get(index, ()) if 0 < at < num)
            bounds = sorted({0, num, *inside})
            units.extend(
                (index, start, end)
                for start, end in zip(bounds, bounds[1:])
                if not self.covered(index, start, end)
            )
        return units


class WorkQueue:
    """The shared-store coordination protocol of a worker fleet.

    One instance wraps one queue directory.  Submitters enqueue batches
    of pickled :class:`RunTask`s under a campaign manifest; workers
    claim batch intervals via TTL'd lease files, split each other's
    in-progress batches via cut markers, and deposit per-interval part
    files; either side reads completion state by listing the store.
    All clock comparisons use wall-clock timestamps *written into* the
    lease files (never filesystem mtimes, which shared filesystems skew).

    Every instance also owns a :class:`~repro.runner.metrics.MetricsRegistry`
    (:attr:`metrics`) that the queue methods, workers and supervisors
    sharing the instance feed; workers periodically serialise it into the
    store's ``metrics/`` namespace (see :meth:`write_metric_snapshot`) —
    a prefix no schema-v2 reader lists, so observability adds no version
    bump and cannot perturb results.
    """

    def __init__(
        self, queue_dir: Union[str, Path], store: Optional[CacheStore] = None
    ) -> None:
        self.queue_dir = Path(queue_dir)
        self.store: CacheStore = store if store is not None else SharedStore(self.queue_dir)
        self._cache: Optional[ResultCache] = None
        self.metrics = fleet_registry()
        self._m_claims = self.metrics.counter("repro_queue_claims_total")
        self._m_claim_latency = self.metrics.histogram("repro_queue_claim_latency_seconds")
        self._m_lease_breaks = self.metrics.counter("repro_queue_lease_breaks_total")
        self._m_deposits = self.metrics.counter("repro_queue_deposits_total")
        self._m_requeues = self.metrics.counter("repro_queue_requeues_total")
        self._m_cache_corrupt = self.metrics.counter("repro_cache_corrupt_total")
        self._last_fleet_metrics: Optional[Dict[str, object]] = None

    @property
    def cache(self) -> ResultCache:
        """The fleet-shared result cache: the queue store's ``cache/``
        namespace, so a custom injected store carries the cache too."""
        if self._cache is None:
            self._cache = ResultCache(store=PrefixStore(self.store, "cache"))
            self._cache.on_corrupt = self._m_cache_corrupt.inc
        return self._cache

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        tasks: Sequence[RunTask],
        kind: str = "records",
        reducer: Optional[Reducer] = None,
        batch_size: int = 8,
        campaign_id: Optional[str] = None,
    ) -> str:
        """Enqueue ``tasks`` as one campaign; returns its campaign id.

        Submission is idempotent: when every task carries a cacheable
        key, the campaign id is derived from those keys (plus kind,
        reducer fingerprint and batch size), so re-submitting the same
        work attaches to the existing campaign — including one that
        already completed — instead of re-enqueuing it.  Tasks without
        cacheable keys get a one-off campaign id.
        """
        if kind not in ("records", "reduced"):
            raise ValueError(f"kind must be 'records' or 'reduced', got {kind!r}")
        if kind == "reduced" and reducer is None:
            raise ValueError("kind='reduced' requires a reducer")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not tasks:
            raise ValueError("cannot submit an empty campaign")

        if campaign_id is None:
            keys = [cacheable_key(task) for task in tasks]
            if all(keys):
                campaign_id = stable_hash(
                    {
                        "schema": QUEUE_SCHEMA_VERSION,
                        "kind": kind,
                        "keys": keys,
                        "reducer": reducer.fingerprint() if reducer else None,
                        "batch_size": batch_size,
                    }
                )[:32]
            else:
                campaign_id = f"adhoc-{uuid.uuid4().hex}"

        if self.store.exists(_manifest_path(campaign_id)):
            return campaign_id

        batches = [tasks[start : start + batch_size] for start in range(0, len(tasks), batch_size)]
        for index, batch in enumerate(batches):
            self.store.write_text(
                _batch_path(campaign_id, index),
                json.dumps(
                    {
                        "schema": QUEUE_SCHEMA_VERSION,
                        "campaign_id": campaign_id,
                        "index": index,
                        "tasks": [_encode_pickle(task) for task in batch],
                    },
                    allow_nan=False,
                ),
            )
        # The manifest goes in *last*: its presence is what makes the
        # campaign visible to workers, so they never observe a campaign
        # whose batches are still being written.  Concurrent submitters
        # of the same campaign write byte-identical batch files, so the
        # manifest race is harmless.
        self.store.write_text(
            _manifest_path(campaign_id),
            json.dumps(
                {
                    "schema": QUEUE_SCHEMA_VERSION,
                    "campaign_id": campaign_id,
                    "kind": kind,
                    "num_tasks": len(tasks),
                    "num_batches": len(batches),
                    "batch_size": batch_size,
                    "reducer_name": reducer.name if reducer else None,
                    "reducer": _encode_pickle(reducer) if reducer else None,
                    "created_at": time.time(),
                },
                allow_nan=False,
            ),
        )
        return campaign_id

    # ------------------------------------------------------------------
    # Discovery and state
    # ------------------------------------------------------------------
    def campaigns(self) -> List[str]:
        """Campaign ids currently visible in the queue (manifest present)."""
        return sorted(
            {Path(relpath).parent.name for relpath in self.store.list("campaigns/*/manifest.json")}
        )

    def manifest(self, campaign_id: str) -> Optional[Dict[str, object]]:
        """The campaign's manifest, or ``None`` when absent/unreadable."""
        return self._read_json(_manifest_path(campaign_id))

    def reducer_for(self, manifest: Dict[str, object]) -> Optional[Reducer]:
        """The manifest's pickled reducer, decoded (``None`` for records)."""
        encoded = manifest.get("reducer")
        return None if encoded is None else _decode_pickle(str(encoded))

    def load_batch(self, campaign_id: str, index: int) -> Optional[List[RunTask]]:
        """The batch's pickled tasks, or ``None`` when unreadable."""
        payload = self._read_json(_batch_path(campaign_id, index))
        if payload is None:
            return None
        try:
            return [_decode_pickle(str(blob)) for blob in payload["tasks"]]
        except Exception as exc:
            logger.warning(
                "queue batch %s/%05d is unreadable (%s: %s); skipping",
                campaign_id, index, type(exc).__name__, exc,
            )
            return None

    @staticmethod
    def batch_sizes(manifest: Dict[str, object]) -> List[int]:
        """Per-batch task counts (every batch is full except the last)."""
        num_tasks = int(manifest["num_tasks"])
        num_batches = int(manifest["num_batches"])
        batch_size = int(manifest["batch_size"])
        return [
            min(batch_size, num_tasks - index * batch_size) for index in range(num_batches)
        ]

    def scan(self, campaign_id: str) -> Optional[_CampaignView]:
        """The campaign's queue state, or ``None`` when its manifest is
        absent or unreadable.

        The one read behind every fleet decision: the worker's claim
        scan, steal-candidate selection, the supervisor's depth metrics,
        and the submitter's wait and collect.  The manifest is read now;
        the view lists deposits and cut markers on first use, once each.
        :meth:`_CampaignView.rescan` re-reads one batch (a worker's
        post-claim re-check and its mid-flight end re-reads).
        """
        manifest = self.manifest(campaign_id)
        return None if manifest is None else _CampaignView(self, campaign_id, manifest)

    def add_cut(self, campaign_id: str, index: int, at: int, worker_id: str) -> bool:
        """Record a split point for a batch; first writer wins.

        The marker is crash-atomic (exclusive create of its full
        content), so a thief killed at any point leaves either no marker
        or a complete one.  Returns ``False`` when a concurrent thief
        won the next marker slot — the caller simply re-scans.
        """
        existing = [
            int(match.group(2))
            for relpath in self.store.list(f"campaigns/{campaign_id}/splits/{index:05d}.*.json")
            if (match := _CUT_NAME.search(relpath)) is not None
        ]
        seq = max(existing) + 1 if existing else 0
        payload = json.dumps(
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "at": at,
                "by": worker_id,
                "created_at": time.time(),
            },
            allow_nan=False,
        )
        return self.store.try_create(_cut_path(campaign_id, index, seq), payload)

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def try_acquire(
        self,
        campaign_id: str,
        index: int,
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
        start: int = 0,
    ) -> Optional[Lease]:
        """Claim a batch interval; None when another worker holds a live lease.

        An expired lease (heartbeat older than its TTL) is broken —
        deleted and re-raced through exclusive creation.  Two workers
        breaking the same expired lease can, in a narrow window, both
        believe they won; that only costs duplicate execution of a
        deterministic interval (results are byte-identical and deposits
        coverage-collected first-writer-wins), never correctness.

        Expiry compares this host's wall clock against the heartbeat
        timestamp *written by the lease holder*, so fleet machines need
        roughly synchronised clocks (NTP): skew eats into the TTL, and
        skew beyond the TTL makes peers break live leases.  Misjudged
        expiry degrades throughput (duplicate execution) but never
        results — size the TTL well above the fleet's worst-case skew.
        """
        lease = Lease(
            campaign_id=campaign_id,
            batch_index=index,
            worker_id=worker_id,
            ttl=ttl,
            start=start,
        )
        claim_began = time.perf_counter()
        path = _lease_path(campaign_id, index, start)
        if self.store.try_create(path, self._lease_payload(lease)):
            return self._claim_won(lease, claim_began)
        existing = self._read_json(path)
        if existing is None:
            # Released between our create and read, or an unreadable
            # lease (foreign torn write): drop whatever is there so a
            # corrupt file can never make the interval unclaimable, then
            # re-race.
            if self.store.delete(path):
                self._m_lease_breaks.inc()
            if self.store.try_create(path, self._lease_payload(lease)):
                return self._claim_won(lease, claim_began)
            return None
        now = time.time()
        if _lease_live(existing, now):
            return None
        logger.warning(
            "breaking expired lease on %s/%05d.p%05d (worker %s, heartbeat %.1fs ago)",
            campaign_id, index, start, existing.get("worker"),
            now - float(existing.get("heartbeat_at", 0.0)),
        )
        if self.store.delete(path):
            self._m_lease_breaks.inc()
        if self.store.try_create(path, self._lease_payload(lease)):
            return self._claim_won(lease, claim_began)
        return None

    def _claim_won(self, lease: Lease, claim_began: float) -> Lease:
        """Record a won claim (count + store round-trip latency)."""
        self._m_claims.inc()
        self._m_claim_latency.observe(time.perf_counter() - claim_began)
        return lease

    def heartbeat(self, lease: Lease, progress: Optional[int] = None) -> bool:
        """Refresh a lease; False when it was lost to another worker.

        ``progress`` publishes how far into the interval the holder has
        *reserved* work (the first task index it has not committed to
        execute).  Thieves read it to place cut markers beyond the
        holder's reservation; a stale value only makes a thief steal
        already-reserved tasks, which duplicate execution absorbs.
        """
        path = _lease_path(lease.campaign_id, lease.batch_index, lease.start)
        existing = self._read_json(path)
        if existing is None or existing.get("worker") != lease.worker_id:
            return False
        if progress is None:
            prior = existing.get("progress", lease.start)
            progress = int(prior) if isinstance(prior, (int, float)) else lease.start
        self.store.write_text(path, self._lease_payload(lease, progress))
        return True

    def release(self, lease: Lease) -> None:
        """Drop the lease (only if still owned by ``lease.worker_id``)."""
        path = _lease_path(lease.campaign_id, lease.batch_index, lease.start)
        existing = self._read_json(path)
        if existing is not None and existing.get("worker") == lease.worker_id:
            self.store.delete(path)

    def leases(self, campaign_id: str) -> Dict[Tuple[int, int], Dict[str, object]]:
        """All readable leases of a campaign: ``{(index, start): payload}``.

        Each payload's ``progress`` is normalised to an ``int`` — the
        input of steal-candidate selection.
        """
        found: Dict[Tuple[int, int], Dict[str, object]] = {}
        for relpath in self.store.list(f"campaigns/{campaign_id}/leases/*.json"):
            match = _LEASE_NAME.search(relpath)
            if match is None:
                continue
            payload = self._read_json(relpath)
            if payload is None:
                continue
            index, start = int(match.group(1)), int(match.group(2))
            payload = dict(payload)
            raw_progress = payload.get("progress", start)
            payload["progress"] = (
                int(raw_progress) if isinstance(raw_progress, (int, float)) else start
            )
            found[(index, start)] = payload
        return found

    def _lease_payload(self, lease: Lease, progress: Optional[int] = None) -> str:
        now = time.time()
        return json.dumps(
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "worker": lease.worker_id,
                "acquired_at": now,
                "heartbeat_at": now,
                "ttl": lease.ttl,
                "progress": lease.start if progress is None else progress,
            },
            allow_nan=False,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def write_result(
        self,
        campaign_id: str,
        index: int,
        start: int,
        records: Sequence[Union[RunRecord, ReducedRecord]],
        worker_id: str,
        stats: RunnerStats,
    ) -> bool:
        """Deposit the records a worker executed for tasks
        ``[start, start + len(records))`` of a batch; False when an
        identical interval was already deposited (first writer wins).

        Deposits may overlap after lease races or steals — the collector
        assembles positions first-writer-wins, and determinism makes
        overlapping records byte-identical, so any consistent set of
        deposits covering the batch yields the same result.
        """
        payload = json.dumps(
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "worker": worker_id,
                "start": start,
                "stats": stats.as_dict(),
                "records": [record.as_dict() for record in records],
                "completed_at": time.time(),
            },
            allow_nan=False,
        )
        deposited = self.store.try_create(
            _part_path(campaign_id, index, start, len(records)), payload
        )
        if deposited:
            self._m_deposits.inc()
        return deposited

    def poison(
        self, campaign_id: str, index: int, num_tasks: int, worker_id: str, reason: str
    ) -> bool:
        """Mark a batch permanently unexecutable (unreadable payload).

        Deposits a poison marker covering the whole batch so the
        campaign completes and :meth:`collect` can raise a hard error,
        instead of the submitter waiting forever while workers cycle on
        the batch's lease.
        """
        payload = json.dumps(
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "worker": worker_id,
                "start": 0,
                "poisoned": reason,
                "records": [],
                "completed_at": time.time(),
            },
            allow_nan=False,
        )
        return self.store.try_create(_part_path(campaign_id, index, 0, num_tasks), payload)

    def discard_result(self, campaign_id: str, index: int) -> bool:
        """Drop a batch's deposits (and cut markers) so the next
        submission re-executes it from a clean slate."""
        dropped = False
        for relpath in self.store.list(f"campaigns/{campaign_id}/results/{index:05d}.p*.json"):
            dropped = self.store.delete(relpath) or dropped
        for relpath in self.store.list(f"campaigns/{campaign_id}/splits/{index:05d}.*.json"):
            self.store.delete(relpath)
        if dropped:
            self._m_requeues.inc()
        return dropped

    def collect(
        self, campaign_id: str
    ) -> Tuple[List[Union[RunRecord, ReducedRecord]], Dict[str, RunnerStats]]:
        """All records of a completed campaign, in task order, plus
        per-worker stats accumulated over the parts each one deposited.

        Records are assembled *by position, first deposit wins*: each
        part file covers an explicit interval, and overlapping intervals
        (steals, lease races) are resolved deterministically.  A batch
        with uncovered positions raises :class:`IncompleteCampaignError`.
        """
        view = self.scan(campaign_id)
        if view is None:
            raise KeyError(f"no campaign {campaign_id!r} in queue {self.queue_dir}")
        kind = view.manifest["kind"]
        decode = ReducedRecord.from_dict if kind == "reduced" else RunRecord.from_dict
        records: List[Union[RunRecord, ReducedRecord]] = []
        worker_stats: Dict[str, RunnerStats] = {}
        for index, num in enumerate(view.sizes):
            slots: List[Optional[Dict[str, object]]] = [None] * num
            for start, count in view.deposited.get(index, ()):
                relpath = _part_path(campaign_id, index, start, count)
                payload = self._read_json(relpath)
                if payload is None:
                    # An unreadable deposit (foreign torn write): drop it
                    # so its interval counts as pending again and
                    # re-executes instead of wedging the campaign forever.
                    self.store.delete(relpath)
                    self._m_requeues.inc()
                    raise IncompleteCampaignError(
                        f"campaign {campaign_id!r}: batch {index:05d} part "
                        f"p{start:05d}-{count:05d} has no readable result "
                        f"(corrupt deposit discarded; the interval will re-execute)"
                    )
                if payload.get("poisoned"):
                    # Poison markers are not sticky either: drop the marker
                    # so the batch requeues once the broken fleet member is
                    # fixed, and surface a hard error for this collect.
                    self.store.delete(relpath)
                    raise RuntimeError(
                        f"campaign {campaign_id!r}: batch {index:05d} was poisoned "
                        f"by worker {payload.get('worker')}: {payload['poisoned']} "
                        f"(marker discarded — fix the fleet and resubmit to retry)"
                    )
                if len(payload.get("records", ())) != count:
                    # A parseable deposit that under- or over-fills its
                    # declared interval (torn write on a non-atomic
                    # backend, buggy foreign writer).  The scan counts
                    # coverage from filenames, so leaving the file would
                    # make wait() succeed and collect() fail forever —
                    # discard it so the interval genuinely requeues.
                    self.store.delete(relpath)
                    self._m_requeues.inc()
                    raise IncompleteCampaignError(
                        f"campaign {campaign_id!r}: batch {index:05d} part "
                        f"p{start:05d}-{count:05d} carries "
                        f"{len(payload.get('records', ()))} record(s) "
                        f"(mis-filled deposit discarded; the interval will re-execute)"
                    )
                contributed = 0
                for offset, entry in enumerate(payload.get("records", ())):
                    position = start + offset
                    if 0 <= position < num and slots[position] is None:
                        slots[position] = entry
                        contributed += 1
                if contributed:
                    # A part fully shadowed by earlier deposits (a lost
                    # lease race) is dropped from the stats too, exactly
                    # like v1 discarded the losing result file — partial
                    # overlaps still count once per depositing worker.
                    worker = str(payload.get("worker", "?"))
                    worker_stats.setdefault(worker, RunnerStats()).merge(
                        RunnerStats.from_dict(payload.get("stats", {}))
                    )
            uncovered = [position for position, entry in enumerate(slots) if entry is None]
            if uncovered:
                raise IncompleteCampaignError(
                    f"campaign {campaign_id!r}: batch {index:05d} is missing "
                    f"records for task positions {uncovered[:5]}"
                    f"{'…' if len(uncovered) > 5 else ''} (campaign incomplete?)"
                )
            records.extend(decode(entry) for entry in slots)
        return records, worker_stats

    # ------------------------------------------------------------------
    # Worker shutdown protocol (supervisor → worker)
    # ------------------------------------------------------------------
    def request_retire(self, worker_id: str, reason: str = "supervisor scale-down") -> None:
        """Ask a worker to exit after its current interval.

        The marker is observed by :meth:`Worker.run` between queue scans
        and between interval claims; the worker finishes the interval it
        is executing (its deposit is never abandoned), deletes the
        marker as an acknowledgement, and exits its loop.
        """
        self.store.write_text(
            _retire_path(worker_id),
            json.dumps(
                {
                    "schema": QUEUE_SCHEMA_VERSION,
                    "worker": worker_id,
                    "reason": reason,
                    "requested_at": time.time(),
                },
                allow_nan=False,
            ),
        )

    def retire_requested(self, worker_id: str) -> bool:
        """Whether a retire marker is present for ``worker_id``."""
        return self.store.exists(_retire_path(worker_id))

    def clear_retire(self, worker_id: str) -> bool:
        """Remove a retire marker (the worker's acknowledgement)."""
        return self.store.delete(_retire_path(worker_id))

    # ------------------------------------------------------------------
    # Fleet metrics (the supervisor's inputs)
    # ------------------------------------------------------------------
    def fleet_metrics(self) -> Dict[str, object]:
        """One scan of queue depth, lease liveness and deposit volume.

        Returns ``pending_batches`` (batches with uncovered tasks across
        all campaigns), ``claimable_units`` (intervals with uncovered
        tasks), ``unclaimed_units`` (those without a live lease),
        ``live_leases`` (``{worker_id: count}``) and ``deposited_parts``
        (total part files — its growth rate is the fleet's deposit rate).

        The scan races live workers by design (files appear, vanish and
        get truncated between the listing and the reads), so it must
        never raise into the supervisor loop: a campaign whose state
        cannot be parsed mid-scan degrades the whole call to the last
        successfully computed snapshot (or an all-zero one on the very
        first scan) instead of propagating the exception.
        """
        pending_batches = 0
        claimable_units = 0
        unclaimed_units = 0
        live_leases: Dict[str, int] = {}
        deposited_parts = 0
        try:
            campaign_ids = self.campaigns()
        except Exception as exc:
            return self._degraded_fleet_metrics("listing campaigns", exc)
        for campaign_id in campaign_ids:
            try:
                view = self.scan(campaign_id)
                if view is None:
                    continue
                deposited_parts += sum(map(len, view.deposited.values()))
                units = view.units()
                pending_batches += len({index for index, _, _ in units})
                claimable_units += len(units)
                lease_map = self.leases(campaign_id)
                now = time.time()
                for index, start, _ in units:
                    payload = lease_map.get((index, start))
                    if payload is not None and _lease_live(payload, now):
                        worker = str(payload.get("worker", "?"))
                        live_leases[worker] = live_leases.get(worker, 0) + 1
                    else:
                        unclaimed_units += 1
            except Exception as exc:
                return self._degraded_fleet_metrics(f"campaign {campaign_id!r}", exc)
        result: Dict[str, object] = {
            "pending_batches": pending_batches,
            "claimable_units": claimable_units,
            "unclaimed_units": unclaimed_units,
            "live_leases": live_leases,
            "deposited_parts": deposited_parts,
        }
        self._last_fleet_metrics = {**result, "live_leases": dict(live_leases)}
        return result

    def _degraded_fleet_metrics(self, what: str, exc: Exception) -> Dict[str, object]:
        """Last-good (or all-zero) metrics after a mid-scan race/corruption."""
        logger.warning(
            "fleet_metrics scan of %s failed (%s: %s); serving last-good values",
            what, type(exc).__name__, exc,
        )
        last = self._last_fleet_metrics
        if last is not None:
            return {**last, "live_leases": dict(last["live_leases"])}  # type: ignore[arg-type]
        return {
            "pending_batches": 0,
            "claimable_units": 0,
            "unclaimed_units": 0,
            "live_leases": {},
            "deposited_parts": 0,
        }

    # ------------------------------------------------------------------
    # Metric snapshots (workers publish, `repro-ho status` merges)
    # ------------------------------------------------------------------
    def write_metric_snapshot(self, worker_id: str) -> None:
        """Publish this process's metric registry under ``metrics/``.

        One file per worker id, overwritten in place (atomic replace via
        the store), so a reader always sees a complete snapshot and the
        per-worker counters it carries are monotone.  The ``metrics/``
        namespace is invisible to every schema-v2 listing, which is what
        keeps observability off the result path and the queue schema
        version unchanged.
        """
        self.store.write_text(
            _metrics_path(worker_id),
            json.dumps(
                {
                    "schema": QUEUE_SCHEMA_VERSION,
                    "worker": worker_id,
                    "written_at": time.time(),
                    "metrics": self.metrics.snapshot(),
                },
                allow_nan=False,
            ),
        )

    def metric_snapshots(self) -> Dict[str, Dict[str, object]]:
        """All readable worker metric snapshots: ``{worker_id: payload}``.

        Unreadable or non-snapshot files are skipped (a worker may be
        mid-replace on a non-atomic store); the worker id is taken from
        the payload when present, else from the filename.
        """
        found: Dict[str, Dict[str, object]] = {}
        for relpath in sorted(self.store.list("metrics/*.json")):
            payload = self._read_json(relpath)
            if payload is None or "metrics" not in payload:
                continue
            worker = str(payload.get("worker") or Path(relpath).stem)
            found[worker] = payload
        return found

    def _read_json(self, relpath: str) -> Optional[Dict[str, object]]:
        text = self.store.read_text(relpath)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            logger.warning("queue entry %s is not valid JSON; ignoring", relpath)
            return None
        return payload if isinstance(payload, dict) else None


def fleet_status(queue: WorkQueue) -> Dict[str, object]:
    """The merged live view of a fleet: queue depth + worker snapshots.

    Combines one (hardened) :meth:`WorkQueue.fleet_metrics` scan with
    every deposited metric snapshot: per-worker flattened counters (with
    snapshot age and derived cache hit ratio) plus fleet totals merged
    across all shards.  This is what ``repro-ho status`` renders and
    ``repro-ho status --json`` emits; corrupt shards are skipped, never
    raised, so the view stays usable mid-chaos.
    """
    queue_metrics = queue.fleet_metrics()
    now = time.time()
    merged = fleet_registry()
    workers: List[Dict[str, object]] = []
    for worker_id, payload in sorted(queue.metric_snapshots().items()):
        entry: Dict[str, object] = {"worker": worker_id}
        try:
            entry["age_seconds"] = round(max(0.0, now - float(payload["written_at"])), 2)
        except Exception:
            entry["age_seconds"] = None
        counters: Dict[str, float] = {}
        snap = payload.get("metrics")
        if isinstance(snap, dict):
            shard = MetricsRegistry()
            try:
                shard.merge_snapshot(snap)
                merged.merge_snapshot(snap)
                counters = shard.flat_values()
            except Exception as exc:
                logger.warning(
                    "metric snapshot from worker %s is unusable (%s: %s); skipping",
                    worker_id, type(exc).__name__, exc,
                )
                counters = {}
        hits = counters.get('repro_runner_runs_total{counter="cache_hits"}', 0.0)
        misses = counters.get('repro_runner_runs_total{counter="cache_misses"}', 0.0)
        entry["units"] = counters.get("repro_worker_units_total", 0.0)
        entry["cache_hit_ratio"] = (
            round(hits / (hits + misses), 3) if hits + misses > 0 else None
        )
        entry["counters"] = counters
        workers.append(entry)
    return {
        "queue": queue_metrics,
        "workers": workers,
        "totals": merged.flat_values(),
    }


class _LeaseHeartbeat(threading.Thread):
    """Keeps one lease alive while its interval executes.

    Publishes the worker's last reserved progress with every refresh
    (the executing thread also publishes synchronously at each chunk
    boundary; a stale refresh in between can only *lower* the visible
    progress, which makes thieves steal already-reserved tasks —
    absorbed by duplicate execution).  If the lease is lost (broken by
    a peer after a stall longer than the TTL), the thread stops
    refreshing; the worker still finishes the interval — duplicate
    execution is safe — but its deposit may be shadowed by the thief's
    at collect time.
    """

    def __init__(self, queue: WorkQueue, lease: Lease) -> None:
        super().__init__(daemon=True, name=f"lease-{lease.campaign_id[:8]}-{lease.batch_index}")
        self.queue = queue
        self.lease = lease
        self.progress = lease.start
        self.interval = max(lease.ttl / 3.0, 0.05)
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                alive = self.queue.heartbeat(self.lease, progress=self.progress)
            except OSError as exc:  # pragma: no cover - transient fs hiccup
                logger.warning("heartbeat failed transiently: %s", exc)
                continue
            if not alive:
                logger.warning(
                    "lost lease on %s/%05d.p%05d while executing it",
                    self.lease.campaign_id, self.lease.batch_index, self.lease.start,
                )
                return

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=10.0)


class Worker:
    """One member of the fleet: a claim-execute-deposit loop that steals.

    Scans every campaign in the queue, claims pending batch intervals
    through leases, executes them in chunks with an ordinary
    :class:`CampaignRunner` (``jobs`` worker processes, the fleet-shared
    cache, the configured engine backend) and deposits per-interval
    results.  When a scan finds no claimable work, the worker turns
    thief: it inspects live leases, splits the largest in-progress
    batch's unstarted tail with a cut marker and executes the stolen
    interval, so one straggler batch no longer bounds campaign
    wall-clock.  Completely stateless between intervals — killing a
    worker at any point loses at most the lease TTL of progress.

    Shutdown: the loop exits on ``max_idle`` seconds without work, or
    as soon as a supervisor's retire marker for this worker id appears
    (observed between interval claims; the current interval always
    finishes and deposits first, and the marker is deleted as the
    acknowledgement).
    """

    def __init__(
        self,
        queue: Union[WorkQueue, str, Path],
        worker_id: Optional[str] = None,
        jobs: int = 1,
        backend: str = "reference",
        timeout: Optional[float] = None,
        ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = 0.5,
        steal: bool = True,
    ) -> None:
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.ttl = ttl
        self.poll_interval = poll_interval
        self.steal = steal
        self.runner = CampaignRunner(
            jobs=jobs,
            timeout=timeout,
            cache=self.queue.cache,
            backend=_require_equivalent_backend(backend),
            metrics=self.queue.metrics,
        )
        self.batches_executed = 0
        self.steals = 0
        self._retire = False
        self._load_failures: Dict[Tuple[str, int], int] = {}
        # Observability: counters live in the queue's registry (shared
        # with any supervisor in this process); snapshot deposits are
        # throttled to roughly a quarter TTL so even short-lived leases
        # leave a few monotone samples behind.
        self.metrics = self.queue.metrics
        self._snapshot_interval = max(0.5, min(5.0, ttl / 4.0))
        self._last_snapshot_at = float("-inf")
        self._m_units = self.metrics.counter("repro_worker_units_total")
        self._m_steals = self.metrics.counter("repro_worker_steals_total")
        self._m_unit_seconds = self.metrics.histogram(
            "repro_runner_unit_seconds", buckets=UNIT_SECONDS_BUCKETS
        )
        self._m_runs = self.metrics.counter(
            "repro_runner_runs_total", labelnames=("counter",)
        )

    def _retire_pending(self) -> bool:
        if not self._retire and self.queue.retire_requested(self.worker_id):
            self._retire = True
        return self._retire

    def _maybe_deposit_metrics(self, force: bool = False) -> None:
        """Deposit a metric snapshot, throttled; failures never propagate.

        Observability must not be able to take a worker down: a full
        disk or flaky store only costs a stale snapshot, never a lost
        interval.
        """
        now = time.monotonic()
        if not force and now - self._last_snapshot_at < self._snapshot_interval:
            return
        self._last_snapshot_at = now
        try:
            self.queue.write_metric_snapshot(self.worker_id)
        except Exception as exc:
            logger.debug(
                "metric snapshot deposit failed for %s (%s: %s)",
                self.worker_id, type(exc).__name__, exc,
            )

    def _observe_unit(self, delta: RunnerStats, elapsed: float) -> None:
        """Fold one executed unit's stats delta into the fleet registry."""
        self._m_units.inc()
        self._m_unit_seconds.observe(max(0.0, elapsed))
        for name, value in delta.counter_items():
            if value > 0:
                self._m_runs.labels(counter=name).inc(value)

    def run_once(self) -> int:
        """One scan over the queue; returns how many intervals were executed."""
        executed = 0
        for campaign_id in self.queue.campaigns():
            view = self.queue.scan(campaign_id)
            if view is None:
                continue
            for index, start, _ in view.units():
                if self._retire_pending():
                    return executed
                if self._claim(view, index, start):
                    executed += 1
        return executed

    # ------------------------------------------------------------------
    # Stealing
    # ------------------------------------------------------------------
    def steal_once(self) -> int:
        """Split the largest live in-progress interval and execute its tail.

        Candidate selection reads every live lease's published progress;
        the cut lands halfway into the unstarted remainder (binary work
        splitting: repeated steals converge the fleet onto even shares),
        at least :data:`MIN_STEAL` tasks from the end.  Returns how many
        stolen intervals were executed (0 or 1); always 0 for a worker
        constructed with ``steal=False``.
        """
        if not self.steal:
            return 0
        best: Optional[Tuple[int, _CampaignView, int, int]] = None
        for campaign_id in self.queue.campaigns():
            view = self.queue.scan(campaign_id)
            if view is None:
                continue
            leases = self.queue.leases(campaign_id)
            now = time.time()
            for (index, start), payload in leases.items():
                if payload.get("worker") == self.worker_id or not _lease_live(payload, now):
                    continue  # ours, or expired: claimable through the normal scan
                if not 0 <= index < len(view.sizes):
                    continue
                end = view.end(index, start)
                if view.covered(index, start, end):
                    continue  # stale lease over finished work
                free = end - max(int(payload["progress"]), start)
                if free >= MIN_STEAL and (best is None or free > best[0]):
                    best = (free, view, index, end - free // 2)
        if best is None:
            return 0
        _, view, index, cut_at = best
        if not self.queue.add_cut(view.campaign_id, index, cut_at, self.worker_id):
            return 0  # lost the marker race; re-scan next loop
        if not self._claim(view, index, cut_at):
            return 0
        self.steals += 1
        self._m_steals.inc()
        return 1

    def _claim(self, view: _CampaignView, index: int, start: int) -> bool:
        """Acquire, re-check, execute and release one interval.

        Returns whether the interval was executed.  The re-check reads
        the batch afresh: a peer may have covered the interval between
        the caller's scan and the claim, and executing it again would
        only produce a shadowed duplicate.  An infrastructure failure
        (not a run failure: those become failure records) is logged and
        leaves the interval for a retry.
        """
        lease = self.queue.try_acquire(
            view.campaign_id, index, self.worker_id, ttl=self.ttl, start=start
        )
        if lease is None:
            return False
        try:
            batch = view.rescan(index)
            if batch.covered(index, start, batch.end(index, start)):
                return False
            executed = self._execute_unit(batch, lease)
        except Exception as exc:
            logger.warning(
                "interval %s/%05d.p%05d failed in worker %s (%s: %s); "
                "releasing for retry",
                view.campaign_id, index, start, self.worker_id,
                type(exc).__name__, exc,
            )
            return False
        finally:
            self.queue.release(lease)
        if executed:
            self.batches_executed += 1
            self._maybe_deposit_metrics()
        return executed

    def _execute_unit(self, batch: _CampaignView, lease: Lease) -> bool:
        """Execute a claimed interval in chunks and deposit its records.

        ``batch`` is the claim's re-check view of the interval's batch.
        """
        manifest = batch.manifest
        reducer = None
        try:
            tasks = self.queue.load_batch(lease.campaign_id, lease.batch_index)
            if manifest["kind"] == "reduced":
                reducer = self.queue.reducer_for(manifest)
        except Exception as exc:
            tasks = None
            logger.warning(
                "batch %s/%05d payload is unusable (%s: %s)",
                lease.campaign_id, lease.batch_index, type(exc).__name__, exc,
            )
        if tasks is None:
            # Unreadable/undecodable payload (version-skewed fleet
            # member, torn copy, ...).  Retrying locally is pointless
            # after a few attempts, and leaving the batch pending would
            # hang the submitter while workers churn on the lease —
            # poison it so collect() surfaces a hard error instead.
            key = (lease.campaign_id, lease.batch_index)
            self._load_failures[key] = self._load_failures.get(key, 0) + 1
            if self._load_failures[key] >= 3:
                self.queue.poison(
                    lease.campaign_id,
                    lease.batch_index,
                    batch.sizes[lease.batch_index],
                    self.worker_id,
                    "batch payload unreadable (corrupt file or incompatible "
                    "repro version on this worker)",
                )
            return False
        heartbeat = _LeaseHeartbeat(self.queue, lease)
        heartbeat.start()
        before = self.runner.stats.snapshot()
        # (position, stats) at every chunk boundary, so the deposit can
        # carry the stats of exactly the chunks it deposits.
        marks: List[Tuple[int, RunnerStats]] = []
        unit_began = time.perf_counter()
        chunk = max(1, self.runner.jobs)
        # Store I/O between chunks (cut re-reads, synchronous progress
        # publication) is throttled to this cadence: per-chunk scheduling
        # traffic would dominate cheap runs on a remote store.  Staleness
        # is safe in both directions — a late-observed cut only makes the
        # victim over-run into work the thief duplicates, and a lagging
        # progress value only makes thieves steal already-reserved tasks.
        sync_interval = max(0.05, min(0.5, lease.ttl / 20.0))
        last_sync = float("-inf")
        # The interval's end is dynamic: a thief's cut marker shrinks it
        # mid-flight.  The claim's re-check has just read it; it is read
        # again on the sync cadence and whenever execution reaches it, so
        # the deposit below sees every cut that landed before it.
        end = batch.end(lease.batch_index, lease.start)
        records: List[Union[RunRecord, ReducedRecord]] = []
        position = lease.start
        try:
            while position < end:
                now = time.monotonic()
                sync = now - last_sync >= sync_interval
                reserve = min(position + chunk, end)
                # Publish the reservation *before* executing it (through
                # the heartbeat thread's next refresh, and synchronously
                # on the sync cadence), so a thief reading our progress
                # rarely cuts inside work we are about to run — and a
                # stale read still only costs duplicate execution.
                heartbeat.progress = reserve
                if sync:
                    last_sync = now
                    self.queue.heartbeat(lease, progress=reserve)
                window = tasks[position:reserve]
                if reducer is not None:
                    records.extend(self.runner.run_reduced(window, reducer, capture_errors=True))
                else:
                    records.extend(self.runner.run_tasks(window, capture_errors=True))
                position = reserve
                marks.append((position, self.runner.stats.snapshot()))
                if position >= end or time.monotonic() - last_sync >= sync_interval:
                    end = batch.rescan(lease.batch_index).end(lease.batch_index, lease.start)
        finally:
            heartbeat.stop()
        self._observe_unit(self.runner.stats.since(before), time.perf_counter() - unit_began)
        if not records:
            return False
        # A cut the last read found behind ``position`` means this worker
        # over-ran a thief's tail.  Runs there that came from the cache
        # are the thief's: deposit up to the cut, so the thief's deposit
        # and its stats count.  Runs there that this worker executed stay
        # in its deposit, which shadows the thief's duplicate at collect.
        kept = next(stats for reach, stats in marks if reach >= end)
        if kept.cache_hits == self.runner.stats.cache_hits:
            end, kept = position, self.runner.stats
        deposited = self.queue.write_result(
            lease.campaign_id,
            lease.batch_index,
            lease.start,
            records[: end - lease.start],
            self.worker_id,
            kept.since(before),
        )
        if not deposited:
            logger.info(
                "interval %s/%05d.p%05d already had a deposit (lease race); "
                "duplicate shadowed at collect",
                lease.campaign_id, lease.batch_index, lease.start,
            )
        return True

    def run(self, max_idle: Optional[float] = None) -> int:
        """Poll until stopped; returns total intervals executed.

        With ``max_idle`` the worker exits after that many consecutive
        seconds without finding claimable work (set it above the lease
        TTL so a crashed peer's batches can still expire and be
        reclaimed before giving up).  Without it the loop runs forever —
        the long-lived fleet-member mode.  Either way the loop also
        exits when a supervisor writes a retire marker for this worker
        id (see :meth:`WorkQueue.request_retire`); the marker is
        deleted on the way out as the acknowledgement.
        """
        idle_since: Optional[float] = None
        try:
            while True:
                if self._retire_pending():
                    return self.batches_executed
                executed = self.run_once()
                if not executed and self.steal and not self._retire_pending():
                    executed = self.steal_once()
                self._maybe_deposit_metrics()
                if executed:
                    idle_since = None
                    continue
                if self._retire_pending():
                    return self.batches_executed
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if max_idle is not None and now - idle_since >= max_idle:
                    return self.batches_executed
                time.sleep(self.poll_interval)
        finally:
            self._maybe_deposit_metrics(force=True)
            if self._retire:
                self.queue.clear_retire(self.worker_id)

    def close(self) -> None:
        """Shut down the worker's execution pool."""
        self.runner.close()


def run_worker(
    queue_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    jobs: int = 1,
    backend: str = "reference",
    timeout: Optional[float] = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.5,
    max_idle: Optional[float] = None,
    steal: bool = True,
) -> int:
    """Run one worker loop to completion (the ``repro-ho worker`` body)."""
    worker = Worker(
        queue_dir,
        worker_id=worker_id,
        jobs=jobs,
        backend=backend,
        timeout=timeout,
        ttl=ttl,
        poll_interval=poll_interval,
        steal=steal,
    )
    try:
        return worker.run(max_idle=max_idle)
    finally:
        worker.close()


# ----------------------------------------------------------------------
# The auto-scaling supervisor
# ----------------------------------------------------------------------
@dataclass
class SupervisorStats:
    """Counters one :class:`Supervisor` accumulates over its run."""

    polls: int = 0
    spawned: int = 0
    retired: int = 0
    peak_workers: int = 0

    def summary(self) -> str:
        """One-line rendering for CLI status output."""
        return (
            f"polls={self.polls} spawned={self.spawned} "
            f"retired={self.retired} peak_workers={self.peak_workers}"
        )


class _ManagedWorker:
    """A supervisor-owned worker process and its lifecycle flags."""

    def __init__(self, worker_id: str, process: "subprocess.Popen[bytes]") -> None:
        self.worker_id = worker_id
        self.process = process
        self.retiring = False

    def alive(self) -> bool:
        return self.process.poll() is None


class Supervisor:
    """Auto-scales a local worker fleet from observed queue depth.

    Polls the queue's :meth:`~WorkQueue.fleet_metrics` — claimable
    interval depth, lease liveness and deposit volume — and spawns or
    retires local ``repro-ho worker`` processes to keep the fleet
    between ``min_workers`` and ``max_workers``:

    * **scale up** when there are unclaimed intervals no live lease
      covers (demand = unclaimed intervals + this supervisor's busy
      workers, clamped to the bounds);
    * **scale down** when the queue has been fully drained for
      ``idle_grace`` seconds — idle workers are asked to exit through
      retire markers (:meth:`WorkQueue.request_retire`), never killed,
      so an in-flight interval always finishes and deposits first.

    The supervisor owns only the workers it spawned; foreign fleet
    members (other machines, other supervisors) are observed through
    their leases and simply reduce measured demand.  Worker processes
    get a ``--max-idle`` safety net so a crashed supervisor cannot leak
    pollers forever.

    ``spawn`` is injectable for tests (it must return an object with the
    ``subprocess.Popen`` lifecycle surface: ``poll``/``terminate``/
    ``wait``/``kill``).
    """

    def __init__(
        self,
        queue: Union[WorkQueue, str, Path],
        min_workers: int = 0,
        max_workers: int = 2,
        jobs: int = 1,
        backend: str = "reference",
        ttl: float = DEFAULT_LEASE_TTL,
        timeout: Optional[float] = None,
        poll_interval: float = 1.0,
        worker_poll_interval: float = 0.2,
        idle_grace: float = 3.0,
        worker_max_idle: float = 600.0,
        spawn: Optional[Callable[[str], object]] = None,
        on_status: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        if min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {min_workers}")
        if max_workers < max(min_workers, 1):
            raise ValueError(
                f"max_workers must be >= max(min_workers, 1), got {max_workers}"
            )
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        if spawn is None and getattr(self.queue.store, "root", None) is None:
            # The default spawner launches `repro-ho worker --queue-dir`
            # subprocesses, which can only coordinate over a filesystem
            # queue dir; silently spawning them against a queue whose
            # store is an object client would build a fleet that polls
            # the wrong place forever.
            raise ValueError(
                "the default worker spawner only speaks filesystem queue dirs; "
                "supervising a WorkQueue over a custom store (e.g. ObjectStore) "
                "requires injecting spawn=..."
            )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.jobs = jobs
        self.backend = _require_equivalent_backend(backend)
        self.ttl = ttl
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.worker_poll_interval = worker_poll_interval
        self.idle_grace = idle_grace
        self.worker_max_idle = worker_max_idle
        self.stats = SupervisorStats()
        self.workers: List[_ManagedWorker] = []
        self._spawn = spawn if spawn is not None else self._spawn_process
        self._on_status = on_status
        self._counter = 0
        self._idle_since: Optional[float] = None
        self._drain_to_zero = False
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._m_scale_events = self.queue.metrics.counter(
            "repro_supervisor_scale_events_total", labelnames=("direction",)
        )
        self._m_target_workers = self.queue.metrics.gauge("repro_supervisor_target_workers")
        self._m_live_workers = self.queue.metrics.gauge("repro_supervisor_live_workers")

    # -- process management ------------------------------------------------------
    def _spawn_process(self, worker_id: str) -> "subprocess.Popen[bytes]":
        """Launch a ``repro-ho worker`` subprocess against this queue."""
        src_dir = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        prior = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = f"{src_dir}:{prior}" if prior else src_dir
        command = [
            sys.executable, "-m", "repro.cli", "worker",
            "--queue-dir", str(self.queue.queue_dir),
            "--worker-id", worker_id,
            "--jobs", str(self.jobs),
            "--ttl", str(self.ttl),
            "--poll-interval", str(self.worker_poll_interval),
            "--max-idle", str(self.worker_max_idle),
        ]
        if self.backend != "reference":
            command += ["--backend", self.backend]
        if self.timeout is not None:
            command += ["--timeout", str(self.timeout)]
        return subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )

    def _next_worker_id(self) -> str:
        self._counter += 1
        return f"sup-{socket.gethostname()}-{os.getpid()}-{self._counter}"

    def _reap(self) -> None:
        """Forget exited workers (clearing any unacknowledged markers)."""
        survivors: List[_ManagedWorker] = []
        for managed in self.workers:
            if managed.alive():
                survivors.append(managed)
                continue
            # A worker that crashed before acknowledging its marker must
            # not leave it behind to insta-retire a future namesake.
            self.queue.clear_retire(managed.worker_id)
        self.workers = survivors

    def _scale_up(self, count: int) -> None:
        for _ in range(count):
            worker_id = self._next_worker_id()
            process = self._spawn(worker_id)
            self.workers.append(_ManagedWorker(worker_id, process))
            self.stats.spawned += 1
            logger.info("supervisor spawned worker %s", worker_id)

    def _scale_down(self, count: int, busy_ids: Dict[str, int]) -> None:
        # Idle workers first; a busy worker is only retired when the
        # target drops below the busy count (it still finishes and
        # deposits its current interval before exiting).
        candidates = sorted(
            (managed for managed in self.workers if not managed.retiring),
            key=lambda managed: busy_ids.get(managed.worker_id, 0),
        )
        for managed in candidates[:count]:
            self.queue.request_retire(managed.worker_id)
            managed.retiring = True
            self.stats.retired += 1
            logger.info("supervisor retiring worker %s", managed.worker_id)

    # -- the control loop --------------------------------------------------------
    def poll_once(self) -> Dict[str, object]:
        """One observe-decide-act step; returns the status snapshot."""
        self._reap()
        metrics = self.queue.fleet_metrics()
        busy_ids = {
            worker: count
            for worker, count in dict(metrics["live_leases"]).items()
            if any(managed.worker_id == worker for managed in self.workers)
        }
        busy = len(busy_ids)
        drained = int(metrics["pending_batches"]) == 0
        now = time.monotonic()
        if drained:
            self._idle_since = self._idle_since if self._idle_since is not None else now
        else:
            self._idle_since = None
        idle_for = 0.0 if self._idle_since is None else now - self._idle_since

        demand = int(metrics["unclaimed_units"]) + busy
        target = min(self.max_workers, max(self.min_workers, demand))
        if drained and idle_for >= self.idle_grace:
            # In drain-and-exit mode the floor drops to zero, otherwise
            # min_workers would be kept alive forever and the run loop's
            # "every worker retired" exit condition could never hold.
            target = 0 if self._drain_to_zero else self.min_workers

        active = [managed for managed in self.workers if not managed.retiring]
        if len(active) < target:
            self._scale_up(target - len(active))
            self._m_scale_events.labels(direction="up").inc()
        elif len(active) > target:
            self._scale_down(len(active) - target, busy_ids)
            self._m_scale_events.labels(direction="down").inc()

        self.stats.polls += 1
        self.stats.peak_workers = max(self.stats.peak_workers, len(self.workers))
        self._m_target_workers.set(target)
        self._m_live_workers.set(len(self.workers))
        status = {
            **metrics,
            "busy": busy,
            "drained": drained,
            "idle_for": round(idle_for, 2),
            "target": target,
            "workers": len(self.workers),
        }
        if self._on_status is not None:
            self._on_status(status)
        return status

    def run(
        self,
        exit_when_drained: bool = False,
        max_runtime: Optional[float] = None,
        stop: Optional[threading.Event] = None,
    ) -> SupervisorStats:
        """The supervision loop (the ``repro-ho supervise`` body).

        With ``exit_when_drained`` the loop ends once the queue has been
        drained for ``idle_grace`` seconds and every managed worker has
        been retired and reaped — the one-shot "drain this queue" mode
        (the scale-down floor drops to zero for it, overriding
        ``min_workers``).  ``stop`` (an external event) and
        ``max_runtime`` both end the loop unconditionally.  All exits
        retire and reap the remaining fleet before returning.
        """
        stop = stop if stop is not None else self._stop_event
        self._drain_to_zero = exit_when_drained
        deadline = None if max_runtime is None else time.monotonic() + max_runtime
        try:
            while not stop.is_set():
                status = self.poll_once()
                if exit_when_drained and bool(status["drained"]) and not self.workers:
                    if float(status["idle_for"]) >= self.idle_grace:
                        break
                if deadline is not None and time.monotonic() >= deadline:
                    logger.warning("supervisor hit max_runtime; shutting down")
                    break
                stop.wait(self.poll_interval)
        finally:
            self.shutdown()
        return self.stats

    def shutdown(self, kill_after: float = 30.0) -> None:
        """Retire every managed worker and wait for the fleet to exit.

        Workers that outlive ``kill_after`` seconds (wedged on a hung
        run) are terminated; their leases expire and their intervals
        requeue, so no work is lost.
        """
        self._reap()
        for managed in self.workers:
            if not managed.retiring:
                self.queue.request_retire(managed.worker_id, reason="supervisor shutdown")
                managed.retiring = True
        deadline = time.monotonic() + kill_after
        for managed in self.workers:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                managed.process.wait(timeout=remaining)
            except Exception:
                logger.warning(
                    "worker %s did not retire within %.0fs; terminating",
                    managed.worker_id, kill_after,
                )
                managed.process.terminate()
                try:
                    managed.process.wait(timeout=5.0)
                except Exception:  # pragma: no cover - last resort
                    managed.process.kill()
            self.queue.clear_retire(managed.worker_id)
        self.workers = []

    # -- background mode (``campaign --autoscale``) ------------------------------
    def start(self) -> None:
        """Run the supervision loop in a background thread."""
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self.run, kwargs={"stop": self._stop_event}, daemon=True,
            name="repro-supervisor",
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop and retire the fleet."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=60.0)
        self._thread = None

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass
class DistributedCampaignResult(CampaignResult):
    """A campaign result annotated with per-worker execution stats."""

    worker_stats: Dict[str, RunnerStats] = field(default_factory=dict)


@dataclass
class DistributedReducedCampaignResult(ReducedCampaignResult):
    """A reduced campaign result annotated with per-worker stats."""

    worker_stats: Dict[str, RunnerStats] = field(default_factory=dict)


class DistributedCampaignRunner(_Pipeline):
    """Submit campaigns to a worker fleet and wait for their results.

    Implements the :class:`CampaignRunner` execution surface
    (``run_tasks``/``run_reduced``/``run_campaign``/
    ``run_reduced_campaign``), so experiment drivers accept it through
    the existing ``runner=`` kwarg and every E1-E12 sweep can run
    fleet-wide with no driver changes.  The runner itself executes
    nothing: cacheable results are served from the fleet-shared cache,
    everything else is enqueued and awaited.  Backend stamping, the
    cache partition, stats and campaign reassembly are
    :class:`CampaignRunner`'s own pipeline; only the dispatch step
    (queue submit, wait, collect, discard) is fleet-specific.

    Parameters
    ----------
    queue_dir:
        The shared queue directory workers poll
        (``repro-ho worker --queue-dir ...``), or a :class:`WorkQueue`
        (e.g. one over an :class:`~repro.runner.store.ObjectStore`).
    batch_size:
        Tasks per claimable batch: the unit of scheduling (and of loss
        when a worker crashes).  Work stealing subdivides batches
        dynamically, so a large batch size costs less than it used to —
        but the split granularity is still bounded by the chunk size of
        the executing worker.
    wait_timeout:
        Upper bound in seconds on waiting for the fleet (``None`` =
        wait forever); on expiry a :class:`RunTimeoutError` names the
        still-pending batches.
    backend:
        Default engine backend stamped onto submitted tasks that do not
        pin one, exactly like :class:`CampaignRunner`'s.
    """

    def __init__(
        self,
        queue_dir: Union[str, Path, WorkQueue],
        batch_size: int = 8,
        backend: str = "reference",
        poll_interval: float = 0.2,
        wait_timeout: Optional[float] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.queue = queue_dir if isinstance(queue_dir, WorkQueue) else WorkQueue(queue_dir)
        self.batch_size = batch_size
        # Fails fast on typos and on backends (e.g. async) that are not
        # result-identical: those cannot honour the fleet's
        # byte-identity contract.
        self.backend = _require_equivalent_backend(backend)
        self.poll_interval = poll_interval
        self.wait_timeout = wait_timeout
        self.cache = self.queue.cache
        self.stats = RunnerStats()
        #: Per-worker stats accumulated over every campaign this runner
        #: submitted (worker id → summed batch deltas).
        self.worker_stats: Dict[str, RunnerStats] = {}

    # -- CampaignRunner surface -------------------------------------------------
    def run_tasks(
        self, tasks: Sequence[RunTask], capture_errors: bool = False
    ) -> List[RunRecord]:
        """Execute ``tasks`` fleet-wide; one :class:`RunRecord` each, in order."""
        return self._run(tasks, _Outcome(capture_errors=capture_errors), "distributed records")

    def run_reduced(
        self, tasks: Sequence[RunTask], reducer: Reducer, capture_errors: bool = False
    ) -> List[ReducedRecord]:
        """Execute ``tasks`` fleet-wide with in-worker reduction."""
        return self._run(tasks, _Outcome(reducer, capture_errors), "distributed reduced")

    def run_simulations(self, tasks: Sequence[RunTask]):
        """Refused: full results are too heavy for the shared store."""
        raise NotImplementedError(
            "full SimulationResults (n² × rounds heard-of collections) are too "
            "heavy for the shared store; use run_tasks or run_reduced, whose "
            "records are the distributed wire format"
        )

    def run_campaign(self, spec: CampaignSpec) -> DistributedCampaignResult:
        """Expand ``spec``, execute it fleet-wide, reassemble in order."""
        workers_before = {name: stats.snapshot() for name, stats in self.worker_stats.items()}
        records, stats = self._campaign(spec, None)
        return DistributedCampaignResult(
            spec=spec,
            records=records,
            stats=stats,
            worker_stats=self._worker_stats_since(workers_before),
        )

    def run_reduced_campaign(
        self, spec: CampaignSpec, reducer: Reducer
    ) -> DistributedReducedCampaignResult:
        """Like :meth:`run_campaign`, with in-worker reduction."""
        workers_before = {name: stats.snapshot() for name, stats in self.worker_stats.items()}
        records, stats = self._campaign(spec, reducer)
        return DistributedReducedCampaignResult(
            spec=spec,
            reducer=reducer,
            records=records,
            stats=stats,
            worker_stats=self._worker_stats_since(workers_before),
        )

    # -- submission without waiting --------------------------------------------
    def submit_campaign(
        self, spec: CampaignSpec, reducer: Optional[Reducer] = None
    ) -> Optional[str]:
        """Enqueue a campaign and return immediately with its id.

        Materialisation failures are *not* persisted — a later
        ``run_campaign`` of the same spec recomputes them
        deterministically.  Returns ``None`` when nothing needed
        enqueuing (every run already cached).
        """
        tasks, _, _ = materialise_specs(spec.expand(), RunnerStats())
        _, pending = self._partition(self._with_backend(tasks), _Outcome(reducer), RunnerStats())
        return self._submit(pending, reducer) if pending else None

    def wait(self, campaign_id: str, timeout: Optional[float] = None) -> None:
        """Block until every batch of ``campaign_id`` is fully covered."""
        timeout = timeout if timeout is not None else self.wait_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.queue.scan(campaign_id)
            pending = [] if view is None else view.pending()
            if view is not None and not pending:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise RunTimeoutError(
                    f"campaign {campaign_id!r}: {len(pending)} batch(es) still pending "
                    f"after {timeout}s — is a worker fleet running? "
                    f"(repro-ho worker --queue-dir {self.queue.queue_dir})"
                )
            time.sleep(self.poll_interval)

    # -- internals -------------------------------------------------------------
    def _submit(self, pending: _Pending, reducer: Optional[Reducer]) -> str:
        return self.queue.submit(
            [task for _, task, _ in pending],
            kind="records" if reducer is None else "reduced",
            reducer=reducer,
            batch_size=self.batch_size,
        )

    def _run(self, tasks: Sequence[RunTask], outcome: _Outcome, surface: str) -> List:
        records = self._execute(tasks, outcome, surface)
        failed = [record for record in records if not record.ok]
        if failed and not outcome.capture_errors:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)} of {len(records)} distributed runs failed; "
                f"first failure (run_index={first.run_index}): {first.error}"
            )
        return records

    def _dispatch(self, pending: _Pending, outcome: _Outcome) -> List[Tuple[int, object]]:
        """Enqueue the cache misses, wait for the fleet, collect their records."""
        if not pending:
            return []
        campaign_id = self._submit(pending, outcome.reducer)
        while True:
            self.wait(campaign_id)
            try:
                fetched, batch_worker_stats = self.queue.collect(campaign_id)
                break
            except IncompleteCampaignError as exc:
                # A concurrent submitter requeued a failed batch (or
                # a corrupt deposit was just discarded) between our
                # wait and collect: wait for its re-execution.
                logger.info("collect raced a requeue (%s); waiting again", exc)
        if len(fetched) != len(pending):
            raise RuntimeError(
                f"campaign {campaign_id!r} returned {len(fetched)} records "
                f"for {len(pending)} submitted tasks"
            )
        for worker, delta in batch_worker_stats.items():
            self.worker_stats.setdefault(worker, RunnerStats()).merge(delta)
            self.stats.executed += delta.executed
        # Failures are reported to this submitter but never sticky:
        # drop the results of batches containing failed/timed-out
        # runs so a later re-submission re-executes them (the
        # successful runs are in the shared cache already, so the
        # retry only redoes the failures).  Mirrors the local
        # runner, which caches only ok records.
        for batch_index in range(0, len(fetched), self.batch_size):
            chunk = fetched[batch_index : batch_index + self.batch_size]
            if any(not record.ok for record in chunk):
                self.queue.discard_result(campaign_id, batch_index // self.batch_size)
        return [(index, record) for (index, _, _), record in zip(pending, fetched)]

    def _worker_stats_since(
        self, before: Dict[str, RunnerStats]
    ) -> Dict[str, RunnerStats]:
        return {
            name: stats.since(before[name]) if name in before else stats.snapshot()
            for name, stats in self.worker_stats.items()
        }

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Nothing to tear down (the fleet outlives submitters)."""

    def __enter__(self) -> "DistributedCampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

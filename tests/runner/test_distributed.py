"""Tests for distributed campaign execution: queue, leases, workers.

The heart of the suite is the differential guarantee: serial,
``jobs=4`` and 3-worker distributed executions of one
:class:`CampaignSpec` must produce byte-identical records (and
therefore byte-identical report rows) and share cache entries across
modes.  Worker processes are real OS processes (``multiprocessing``
with the fork start method) coordinating purely through the shared
queue directory, exactly as a multi-machine fleet would.

The elastic-fleet suites extend the guarantee to work stealing (cut
markers must survive races and crashes without ever changing a record)
and to the auto-scaling supervisor (spawn/retire decisions, the retire
marker shutdown protocol, end-to-end drain).
"""

import json
import multiprocessing
import os
import random
import signal
import threading
import time
import types

import pytest

from repro.runner import (
    AdversarySpec,
    AlgorithmSpec,
    CampaignRunner,
    CampaignSpec,
    DecisionReducer,
    DistributedCampaignRunner,
    InMemoryObjectClient,
    ObjectStore,
    PredicateSpec,
    ResultCache,
    SharedStore,
    Supervisor,
    Worker,
    WorkQueue,
    campaign_report,
    fleet_status,
    run_worker,
    task_from_spec,
)
from repro.runner.distributed import Lease

mp = multiprocessing.get_context("fork")

WAIT = 120.0  # generous fleet wait; loaded CI boxes are slow


def demo_spec(runs=3, campaign_id="dist-test") -> CampaignSpec:
    return CampaignSpec(
        campaign_id=campaign_id,
        algorithms=[AlgorithmSpec("ate", {"alpha": 1}), AlgorithmSpec("ute", {"alpha": 1})],
        adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1, "period": 4})],
        predicates=[PredicateSpec("alpha-safe", {"alpha": 1})],
        ns=[5, 7],
        runs=runs,
        base_seed=11,
        max_rounds=25,
    )


def slow_spec(runs=4, delay=0.15, campaign_id="dist-slow") -> CampaignSpec:
    """Latency-bound runs: long enough to kill a worker mid-batch."""
    return CampaignSpec(
        campaign_id=campaign_id,
        algorithms=[AlgorithmSpec("ate", {"alpha": 0})],
        adversaries=[AdversarySpec("latency", {"delay_per_round": delay})],
        ns=[4],
        runs=runs,
        base_seed=5,
        max_rounds=12,
    )


def fleet(queue_dir, count, ttl=30.0, max_idle=15.0, jobs=1):
    """Spawn ``count`` worker processes against ``queue_dir``."""
    workers = [
        mp.Process(
            target=run_worker,
            kwargs=dict(
                queue_dir=str(queue_dir),
                worker_id=f"w{index}",
                jobs=jobs,
                ttl=ttl,
                poll_interval=0.05,
                max_idle=max_idle,
            ),
            daemon=True,
        )
        for index in range(count)
    ]
    for worker in workers:
        worker.start()
    return workers


def reap(workers, timeout=60.0):
    for worker in workers:
        worker.join(timeout=timeout)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=5.0)


class TestWorkQueue:
    def test_submit_is_idempotent_for_keyed_tasks(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec().expand()]
        first = queue.submit(tasks, batch_size=4)
        second = queue.submit(tasks, batch_size=4)
        assert first == second
        manifest = queue.manifest(first)
        assert manifest["num_tasks"] == len(tasks)
        assert manifest["num_batches"] == -(-len(tasks) // 4)
        assert queue.scan(first).pending() == list(range(manifest["num_batches"]))

    def test_batches_preserve_task_order(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec().expand()]
        campaign_id = queue.submit(tasks, batch_size=5)
        reloaded = []
        for index in range(queue.manifest(campaign_id)["num_batches"]):
            reloaded.extend(queue.load_batch(campaign_id, index))
        assert [task.key for task in reloaded] == [task.key for task in tasks]
        assert [task.seed for task in reloaded] == [task.seed for task in tasks]

    def test_lease_lifecycle(self, tmp_path):
        queue = WorkQueue(tmp_path)
        lease = queue.try_acquire("c", 0, "alice", ttl=30)
        assert isinstance(lease, Lease)
        # A live lease blocks other workers ...
        assert queue.try_acquire("c", 0, "bob", ttl=30) is None
        # ... heartbeats confirm ownership ...
        assert queue.heartbeat(lease)
        # ... and release frees the batch.
        queue.release(lease)
        assert queue.try_acquire("c", 0, "bob", ttl=30) is not None

    def test_expired_lease_is_broken_and_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path)
        dead = queue.try_acquire("c", 0, "crashed", ttl=0.05)
        assert dead is not None
        time.sleep(0.1)  # let the crashed worker's lease expire
        stolen = queue.try_acquire("c", 0, "rescuer", ttl=30)
        assert stolen is not None and stolen.worker_id == "rescuer"
        # The crashed worker's heartbeat now reports the loss.
        assert not queue.heartbeat(dead)
        # ... and its release must not clobber the rescuer's lease.
        queue.release(dead)
        assert queue.try_acquire("c", 0, "third", ttl=30) is None

    def test_corrupt_lease_file_is_broken_and_reclaimed(self, tmp_path):
        """A torn/unreadable lease (foreign non-atomic writer, disk
        mishap) must never make a batch permanently unclaimable."""
        queue = WorkQueue(tmp_path)
        queue.store.write_text("campaigns/c/leases/00000.p00000.json", "{torn")
        lease = queue.try_acquire("c", 0, "rescuer", ttl=30)
        assert lease is not None and lease.worker_id == "rescuer"

    def test_corrupt_result_file_is_discarded_and_requeued(self, tmp_path):
        """An unreadable result deposit must not wedge the campaign:
        collect() discards it with a clear error and the batch counts
        as pending again."""
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=1).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        queue.store.write_text(
            f"campaigns/{campaign_id}/results/00000.p00000-{len(tasks):05d}.json", ""
        )
        assert queue.scan(campaign_id).pending() == []  # looks complete ...
        with pytest.raises(RuntimeError, match="corrupt deposit discarded"):
            queue.collect(campaign_id)
        assert queue.scan(campaign_id).pending() == [0]  # ... requeued now

    def test_misfilled_deposit_is_discarded_and_requeued(self, tmp_path):
        """A parseable deposit whose record list under-fills the interval
        its filename declares (torn write on a non-atomic backend) must
        be discarded at collect time — filename-based coverage would
        otherwise satisfy wait() while collect() fails forever."""
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=1).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        queue.store.write_text(
            f"campaigns/{campaign_id}/results/00000.p00000-{len(tasks):05d}.json",
            json.dumps({"schema": 2, "worker": "liar", "start": 0,
                        "stats": {}, "records": []}),
        )
        assert queue.scan(campaign_id).pending() == []  # filenames look complete ...
        with pytest.raises(RuntimeError, match="mis-filled deposit discarded"):
            queue.collect(campaign_id)
        assert queue.scan(campaign_id).pending() == [0]  # ... requeued for real now

    def test_scan_coverage_matches_a_position_by_position_reference(self, tmp_path):
        """The view's sweep over sorted intervals agrees with marking
        every covered position, on random overlapping and gapped
        deposit layouts (coverage is read from part filenames only)."""
        from repro.runner.distributed import _part_path

        rng = random.Random(7)
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=2).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        num = len(tasks)
        for _ in range(40):
            for relpath in queue.store.list(f"campaigns/{campaign_id}/results/*.json"):
                queue.store.delete(relpath)
            layout = {
                (rng.randrange(num), rng.randrange(1, num + 1)) for _ in range(rng.randrange(4))
            }
            for start, count in layout:
                queue.store.write_text(_part_path(campaign_id, 0, start, count), "")
            marked = {
                position
                for start, count in layout
                for position in range(start, min(start + count, num))
            }
            view = queue.scan(campaign_id)
            for start in range(num + 1):
                for end in range(start, num + 1):
                    expected = marked.issuperset(range(start, end))
                    assert view.covered(0, start, end) == expected, (layout, start, end)
            assert view.pending() == ([] if len(marked) == num else [0])

    def test_result_files_are_first_writer_wins(self, tmp_path):
        from repro.runner.records import RunnerStats, RunRecord

        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=1).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        records = [RunRecord(agreement=True) for _ in tasks]
        assert queue.write_result(campaign_id, 0, 0, records, "alice", RunnerStats())
        assert not queue.write_result(campaign_id, 0, 0, records, "bob", RunnerStats())
        assert 0 not in queue.scan(campaign_id).pending()
        _, worker_stats = queue.collect(campaign_id)
        assert set(worker_stats) == {"alice"}


class TestDifferentialModes:
    """Serial == --jobs 4 == 3-worker distributed, byte for byte."""

    @pytest.mark.slow
    def test_three_modes_byte_identical_and_cache_shared(self, tmp_path):
        spec = demo_spec()

        serial = CampaignRunner(cache=ResultCache(tmp_path / "serial-cache"))
        serial_result = serial.run_campaign(spec)

        with CampaignRunner(jobs=4, cache=ResultCache(tmp_path / "jobs-cache")) as parallel:
            parallel_result = parallel.run_campaign(spec)

        queue_dir = tmp_path / "queue"
        workers = fleet(queue_dir, 3)
        try:
            runner = DistributedCampaignRunner(queue_dir, batch_size=3, wait_timeout=WAIT)
            distributed_result = runner.run_campaign(spec)
        finally:
            reap(workers)

        rows_serial = [record.as_dict() for record in serial_result.records]
        assert rows_serial == [record.as_dict() for record in parallel_result.records]
        assert rows_serial == [record.as_dict() for record in distributed_result.records]
        # All three distributed workers are real processes with their
        # own stats; at least one actually executed something.
        assert sum(s.executed for s in runner.worker_stats.values()) == len(rows_serial)

        # Cross-mode cache hits: a serial runner pointed at the fleet's
        # shared cache re-runs nothing and reads identical records.
        cross = CampaignRunner(cache=ResultCache(store=SharedStore(queue_dir / "cache")))
        cross_result = cross.run_campaign(spec)
        assert cross.stats.cache_hits == len(rows_serial) and cross.stats.executed == 0
        assert rows_serial == [record.as_dict() for record in cross_result.records]

        # ... and a re-submission to the fleet is a full cache hit that
        # needs no workers at all (none are running anymore).
        resubmit = DistributedCampaignRunner(queue_dir, batch_size=3, wait_timeout=5)
        resubmit_result = resubmit.run_campaign(spec)
        assert resubmit.stats.cache_hits == len(rows_serial)
        assert rows_serial == [record.as_dict() for record in resubmit_result.records]

        # Identical records imply identical report rows.
        assert (
            campaign_report(spec, serial_result.records).render()
            == campaign_report(spec, distributed_result.records).render()
        )

    @pytest.mark.slow
    def test_reduced_campaign_distributed_matches_serial(self, tmp_path):
        spec = demo_spec(campaign_id="dist-reduced")
        reducer = DecisionReducer()
        serial = CampaignRunner().run_reduced_campaign(spec, reducer)

        queue_dir = tmp_path / "queue"
        workers = fleet(queue_dir, 2)
        try:
            runner = DistributedCampaignRunner(queue_dir, batch_size=4, wait_timeout=WAIT)
            distributed = runner.run_reduced_campaign(spec, reducer)
        finally:
            reap(workers)

        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in distributed.records
        ]

    @pytest.mark.slow
    def test_driver_runner_kwarg_accepts_distributed_runner(self, tmp_path):
        """E1-E12 sweeps run fleet-wide with no driver changes: the
        distributed runner rides the existing ``runner=`` kwarg."""
        from repro.experiments.table1 import validate_ate_row

        serial_report = validate_ate_row(n=6, runs=3, seed=2, max_rounds=25)

        queue_dir = tmp_path / "queue"
        workers = fleet(queue_dir, 2)
        try:
            runner = DistributedCampaignRunner(queue_dir, batch_size=2, wait_timeout=WAIT)
            distributed_report = validate_ate_row(n=6, runs=3, seed=2, max_rounds=25, runner=runner)
        finally:
            reap(workers)
        assert json.dumps(serial_report.rows, default=str) == json.dumps(
            distributed_report.rows, default=str
        )


class TestCrashRecovery:
    @pytest.mark.slow
    def test_killed_worker_loses_lease_and_batch_is_requeued(self, tmp_path):
        """A worker killed mid-batch must not wedge the campaign: after
        its lease TTL expires another worker re-claims the batch and the
        final report is identical to an uninterrupted run."""
        spec = slow_spec()
        expected = CampaignRunner().run_campaign(spec)

        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=4, wait_timeout=WAIT)
        campaign_id = runner.submit_campaign(spec)
        assert campaign_id is not None

        victim = mp.Process(
            target=run_worker,
            kwargs=dict(
                queue_dir=str(queue_dir), worker_id="victim", ttl=1.0, poll_interval=0.05
            ),
            daemon=True,
        )
        victim.start()
        # Wait until the victim holds the batch lease, then SIGKILL it
        # mid-execution (each batch takes ~runs × rounds × delay
        # seconds, far longer than this poll loop).
        queue = WorkQueue(queue_dir)
        deadline = time.monotonic() + 30
        while not queue.store.list("campaigns/*/leases/*.json"):
            assert time.monotonic() < deadline, "victim never claimed the batch"
            time.sleep(0.02)
        victim.kill()
        victim.join(timeout=10)
        assert queue.scan(campaign_id).pending(), "victim should have died before completing"

        rescuer = mp.Process(
            target=run_worker,
            kwargs=dict(
                queue_dir=str(queue_dir),
                worker_id="rescuer",
                ttl=1.0,
                poll_interval=0.05,
                max_idle=10.0,
            ),
            daemon=True,
        )
        rescuer.start()
        try:
            runner.wait(campaign_id)
        finally:
            reap([rescuer])

        recovered = runner.run_campaign(spec)  # collects, all work done
        assert [record.as_dict() for record in expected.records] == [
            record.as_dict() for record in recovered.records
        ]
        # The deposited results are authored by the rescuer, not the victim.
        _, worker_stats = queue.collect(campaign_id)
        assert set(worker_stats) == {"rescuer"}


class TestSubmitterSemantics:
    def test_run_simulations_is_refused(self, tmp_path):
        runner = DistributedCampaignRunner(tmp_path)
        with pytest.raises(NotImplementedError):
            runner.run_simulations([])

    def test_non_equivalent_backends_are_rejected_on_both_sides(self, tmp_path):
        """The async engine is not result-identical, so neither a
        submitter nor a fleet worker may run on it — its records would
        depend on which worker executed a batch."""
        with pytest.raises(ValueError, match="not result-identical"):
            DistributedCampaignRunner(tmp_path / "queue", backend="async")
        with pytest.raises(ValueError, match="not result-identical"):
            Worker(WorkQueue(tmp_path / "queue"), backend="async")

    def test_failed_runs_are_not_sticky_across_submissions(self, tmp_path):
        """A campaign whose runs failed must be retryable: the failed
        batches' results are dropped, so the next submission re-executes
        them instead of replaying stale failure records forever."""
        spec = demo_spec(runs=2, campaign_id="dist-retry")
        queue = WorkQueue(tmp_path / "queue")
        runner = DistributedCampaignRunner(queue.queue_dir, batch_size=4, wait_timeout=30)

        campaign_id = runner.submit_campaign(spec)
        # A worker with an absurd per-run timeout: every run times out.
        broken = Worker(queue, worker_id="broken", timeout=1e-9, ttl=30)
        while broken.run_once():
            pass
        broken.close()
        first = runner.run_campaign(spec)
        assert all(record.timed_out for record in first.records)
        assert first.stats.timeouts == len(first.records)
        # The failure reports were collected, then dropped from the queue.
        assert queue.scan(campaign_id).pending() != []

        healthy = Worker(queue, worker_id="healthy", ttl=30)
        while healthy.run_once():
            pass
        healthy.close()
        second = runner.run_campaign(spec)
        expected = CampaignRunner().run_campaign(spec)
        assert [record.as_dict() for record in expected.records] == [
            record.as_dict() for record in second.records
        ]

    def test_unreadable_batch_is_poisoned_not_hung(self, tmp_path):
        """A batch whose payload cannot be decoded (version-skewed fleet
        member, torn copy) must surface a hard error at the submitter
        instead of leaving the campaign pending forever."""
        spec = demo_spec(runs=2, campaign_id="dist-poison")
        queue = WorkQueue(tmp_path / "queue")
        runner = DistributedCampaignRunner(queue.queue_dir, batch_size=16, wait_timeout=30)
        campaign_id = runner.submit_campaign(spec)
        queue.store.write_text(
            f"campaigns/{campaign_id}/batches/00000.json", '{"tasks": ["not-base64!"]}'
        )
        worker = Worker(queue, worker_id="skewed", ttl=30)
        for _ in range(3):  # poisoned after three local load failures
            worker.run_once()
        worker.close()
        assert queue.scan(campaign_id).pending() == []
        with pytest.raises(RuntimeError, match="poisoned"):
            queue.collect(campaign_id)
        # The poison marker is not sticky: the batch requeues, so fixing
        # the fleet and resubmitting retries it.
        assert queue.scan(campaign_id).pending() == [0]

    def test_injected_store_carries_the_cache_too(self, tmp_path):
        """WorkQueue(store=...) must route the fleet cache through the
        injected store, not silently fall back to the filesystem."""
        from repro.runner import LocalDirStore
        from repro.runner.records import RunRecord

        store = LocalDirStore(tmp_path / "custom")
        queue = WorkQueue(tmp_path / "ignored-dir", store=store)
        queue.cache.put("key", RunRecord(agreement=True))
        assert store.list("cache/*/*.json")  # lives inside the injected store
        assert not (tmp_path / "ignored-dir").exists() or not list(
            (tmp_path / "ignored-dir").rglob("*.json")
        )
        assert queue.cache.get("key").agreement

    def test_capture_errors_false_raises_on_failures(self, tmp_path):
        """Infeasible cells become failure records with capture_errors
        (campaign path) but raise without it (driver batch path)."""
        bad = CampaignSpec(
            campaign_id="dist-bad",
            algorithms=[AlgorithmSpec("no-such-algorithm")],
            adversaries=[AdversarySpec("reliable")],
            ns=[4],
            runs=2,
            max_rounds=5,
        )
        runner = DistributedCampaignRunner(tmp_path / "queue", wait_timeout=5)
        result = runner.run_campaign(bad)
        assert all(not record.ok for record in result.records)
        assert result.stats.failures == len(result.records)

    def test_inline_worker_drains_reduced_submission(self, tmp_path):
        """The queue protocol round-trips reducers: a submitted reduced
        campaign drained by an in-process Worker equals the serial run."""
        spec = demo_spec(runs=2, campaign_id="dist-inline")
        reducer = DecisionReducer()
        serial = CampaignRunner().run_reduced_campaign(spec, reducer)

        runner = DistributedCampaignRunner(tmp_path / "queue", batch_size=4, wait_timeout=30)
        campaign_id = runner.submit_campaign(spec, reducer)
        worker = Worker(WorkQueue(tmp_path / "queue"), worker_id="inline", ttl=30)
        assert worker.run_once() > 0
        worker.close()
        assert runner.queue.scan(campaign_id).pending() == []

        distributed = runner.run_reduced_campaign(spec, reducer)
        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in distributed.records
        ]

    @pytest.mark.parametrize("reduced", [False, True], ids=["records", "reduced"])
    def test_infeasible_cell_records_match_serial(self, tmp_path, reduced):
        """A feasible and an infeasible cell side by side: both campaign
        paths put the failure records in place, identical to serial."""
        spec = CampaignSpec(
            campaign_id="dist-infeasible",
            algorithms=[AlgorithmSpec("ate", {"alpha": 1}), AlgorithmSpec("no-such-algorithm")],
            adversaries=[AdversarySpec("reliable")],
            ns=[4],
            runs=2,
            max_rounds=5,
        )
        reducer = DecisionReducer() if reduced else None
        runner = DistributedCampaignRunner(tmp_path / "queue", batch_size=4, wait_timeout=30)
        assert runner.submit_campaign(spec, reducer) is not None
        worker = Worker(WorkQueue(tmp_path / "queue"), worker_id="inline", ttl=30)
        assert worker.run_once() > 0
        worker.close()

        if reducer is None:
            serial = CampaignRunner().run_campaign(spec)
            distributed = runner.run_campaign(spec)
        else:
            serial = CampaignRunner().run_reduced_campaign(spec, reducer)
            distributed = runner.run_reduced_campaign(spec, reducer)
        records = [record.as_dict() for record in distributed.records]
        assert records == [record.as_dict() for record in serial.records]
        assert [record["error"] is None for record in records] == [True, True, False, False]
        assert distributed.stats.failures == serial.stats.failures == 2


class TestCampaignCliExitCodes:
    def _spec_file(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        spec.to_json(path)
        return str(path)

    def test_failed_campaign_exits_nonzero_with_summary(self, tmp_path, capsys):
        from repro.cli import main

        bad = CampaignSpec(
            campaign_id="cli-bad",
            algorithms=[AlgorithmSpec("no-such-algorithm")],
            adversaries=[AdversarySpec("reliable")],
            ns=[4],
            runs=2,
            max_rounds=5,
        )
        code = main(
            ["campaign", "--spec", self._spec_file(tmp_path, bad), "--no-cache", "--jobs", "1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "2 of 2 runs failed" in captured.err
        assert "no-such-algorithm" in captured.err

    def test_invalid_batch_size_exits_cleanly(self, capsys):
        from repro.cli import main

        assert main(["campaign", "E1", "--distributed", "--batch-size", "0"]) == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err

    def test_autoscale_flag_validation_exits_cleanly(self, capsys):
        from repro.cli import main

        assert main(["campaign", "E1", "--autoscale"]) == 2
        assert "--autoscale requires --distributed" in capsys.readouterr().err
        # Bad bounds surface the Supervisor's message, never a traceback.
        assert main(["campaign", "E1", "--distributed", "--autoscale",
                     "--max-workers", "0"]) == 2
        assert "max_workers" in capsys.readouterr().err

    def test_green_campaign_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--spec",
                self._spec_file(tmp_path, demo_spec(runs=1, campaign_id="cli-ok")),
                "--no-cache",
                "--jobs",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "runs failed" not in captured.err

    @pytest.mark.slow
    def test_submit_worker_wait_cli_flow(self, tmp_path, capsys):
        """submit-only → worker --max-idle → submit+wait: the distributed
        CLI quickstart, entirely through ``main()``."""
        from repro.cli import main

        spec_file = self._spec_file(tmp_path, demo_spec(runs=2, campaign_id="cli-dist"))
        queue_dir = str(tmp_path / "queue")

        assert main(["campaign", "--spec", spec_file, "--jobs", "1", "--cache-dir",
                     str(tmp_path / "serial-cache")]) == 0
        serial_rows = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith(("runner[", "worker["))
        ]

        assert main(["campaign", "--spec", spec_file, "--distributed",
                     "--queue-dir", queue_dir, "--submit-only"]) == 0
        assert "submitted" in capsys.readouterr().out

        assert main(["worker", "--queue-dir", queue_dir, "--max-idle", "0.5",
                     "--poll-interval", "0.05", "--ttl", "5"]) == 0
        assert "executed" in capsys.readouterr().out

        assert main(["campaign", "--spec", spec_file, "--distributed",
                     "--queue-dir", queue_dir, "--wait-timeout", "30"]) == 0
        distributed_out = capsys.readouterr().out
        distributed_rows = [
            line for line in distributed_out.splitlines()
            if not line.startswith(("runner[", "worker["))
        ]
        assert serial_rows == distributed_rows
        # The fleet already executed everything: the submit+wait step is
        # a full cache hit (the per-worker summary only appears on
        # invocations whose runs the fleet executed live).
        assert "cache_hits=8" in distributed_out


def wait_until(condition, timeout=30.0, interval=0.02, message="condition"):
    """Poll ``condition`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestWorkStealing:
    """Cross-batch work stealing: cut markers, races, crashes."""

    def test_claimable_units_follow_cut_markers(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=2).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        num = len(tasks)
        assert queue.scan(campaign_id).units() == [(0, 0, num)]
        assert queue.add_cut(campaign_id, 0, num // 2, "thief")
        assert queue.scan(campaign_id).units() == [
            (0, 0, num // 2),
            (0, num // 2, num),
        ]
        # A covered interval disappears from the scan.
        from repro.runner.records import RunnerStats, RunRecord

        queue.write_result(
            campaign_id, 0, num // 2,
            [RunRecord(agreement=True) for _ in range(num - num // 2)],
            "thief", RunnerStats(),
        )
        assert queue.scan(campaign_id).units() == [(0, 0, num // 2)]
        assert queue.scan(campaign_id).pending() == [0]

    def test_claimed_interval_already_covered_is_not_reexecuted(self, tmp_path):
        """A peer can deposit an interval between a worker's claimable
        scan and its claim; the post-claim coverage re-check must skip
        it instead of re-executing a whole shadowed duplicate."""
        from repro.runner.records import RunnerStats, RunRecord

        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=2).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        num = len(tasks)
        queue.add_cut(campaign_id, 0, num // 2, "thief")

        def unit_covered(start):
            view = queue.scan(campaign_id).rescan(0)
            return view.covered(0, start, view.end(0, start))

        assert not unit_covered(0)
        queue.write_result(
            campaign_id, 0, num // 2,
            [RunRecord(agreement=True) for _ in range(num - num // 2)],
            "peer", RunnerStats(),
        )
        assert unit_covered(num // 2)
        assert not unit_covered(0)

    def test_fully_shadowed_deposits_do_not_inflate_worker_stats(self, tmp_path):
        """Two racing deposits covering the same interval under different
        filenames must count once: the shadowed part's stats are dropped."""
        from repro.runner.records import RunnerStats, RunRecord

        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=1).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        num = len(tasks)
        records = [RunRecord(agreement=True) for _ in range(num)]
        winner_stats = RunnerStats(total=num, executed=num)
        loser_stats = RunnerStats(total=num - 1, executed=num - 1)
        assert queue.write_result(campaign_id, 0, 0, records, "winner", winner_stats)
        # The loser deposited a different interval shape (lease race after
        # a cut), so first-writer-wins on the filename does not stop it.
        assert queue.write_result(
            campaign_id, 0, 1, records[1:], "loser", loser_stats
        )
        _, worker_stats = queue.collect(campaign_id)
        assert set(worker_stats) == {"winner"}
        assert worker_stats["winner"].executed == num

    @pytest.mark.parametrize("thief_first", [True, False], ids=["thief-first", "victim-first"])
    def test_victim_over_running_a_cut_credits_each_run_once(
        self, tmp_path, monkeypatch, thief_first
    ):
        """A victim whose cut read predates a thief's cut at 4 over-runs
        the stolen tail [4, 8).  If the thief ran the tail first, the
        victim's runs there are cache hits: its deposit stops at the cut,
        so the thief's deposit and stats count.  If the victim ran it
        first, the thief's runs are the cache hits: the victim's deposit
        keeps the tail and shadows the thief's.  Either way every run is
        credited once, to the worker that executed it."""
        from repro.runner import distributed

        spec = demo_spec(runs=2, campaign_id="dist-stale-cut")
        serial = CampaignRunner().run_campaign(spec)
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(run) for run in spec.expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        assert len(tasks) == 8

        # A frozen monotonic clock keeps the victim off its sync cadence:
        # it sees the thief's cut only if it reads the cuts again before
        # depositing.
        frozen = types.SimpleNamespace(**{**vars(time), "monotonic": lambda: 0.0})
        monkeypatch.setattr(distributed, "time", frozen)

        victim = Worker(queue, worker_id="victim", ttl=30)
        thief = Worker(WorkQueue(tmp_path), worker_id="thief", ttl=30)
        run_tasks = victim.runner.run_tasks
        ran = []
        outcomes = []

        def run_tasks_with_thief(window, capture_errors=False):
            ran.extend(window)
            if len(ran) == 1:
                # Mid-flight, a thief cuts at 4 ...
                outcomes.append(queue.add_cut(campaign_id, 0, 4, "thief"))
                if thief_first:
                    # ... and executes [4, 8) before the victim gets there,
                    outcomes.append(thief.run_once())
            records = run_tasks(window, capture_errors=capture_errors)
            if not thief_first and len(ran) == len(tasks):
                # ... or after the victim has executed it.
                outcomes.append(thief.run_once())
            return records

        monkeypatch.setattr(victim.runner, "run_tasks", run_tasks_with_thief)
        assert victim.run_once() == 1
        victim.close()
        thief.close()
        assert outcomes == [True, 1]
        assert len(ran) == 8  # the victim ran past the cut
        # Whoever reached [4, 8) second was served from the cache.
        assert victim.runner.stats.cache_hits == (4 if thief_first else 0)
        assert thief.runner.stats.cache_hits == (0 if thief_first else 4)

        records, worker_stats = queue.collect(campaign_id)
        assert [record.as_dict() for record in records] == [
            record.as_dict() for record in serial.records
        ]
        credited = {name: stats.executed for name, stats in worker_stats.items()}
        assert credited == ({"victim": 4, "thief": 4} if thief_first else {"victim": 8})
        victim_part = (0, 4) if thief_first else (0, 8)
        assert queue.scan(campaign_id).deposited == {0: [victim_part, (4, 4)]}

    def test_unit_end_shrinks_when_a_cut_lands_mid_flight(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=2).expand()]
        campaign_id = queue.submit(tasks, batch_size=len(tasks))
        num = len(tasks)
        view = queue.scan(campaign_id)
        assert view.end(0, 0) == num
        queue.add_cut(campaign_id, 0, 5, "thief")
        assert view.rescan(0).end(0, 0) == 5
        assert view.rescan(0).end(0, 5) == num

    @pytest.mark.slow
    def test_steal_splits_straggler_batch(self, tmp_path):
        """An idle worker must split a straggler batch via a cut marker
        and execute the stolen tail — with records byte-identical to an
        unstolen run."""
        spec = slow_spec(runs=8, delay=0.1, campaign_id="dist-steal")
        serial = CampaignRunner().run_campaign(spec)

        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=8, wait_timeout=WAIT)
        campaign_id = runner.submit_campaign(spec)

        victim = Worker(WorkQueue(queue_dir), worker_id="victim", ttl=30, poll_interval=0.05)
        thief = Worker(WorkQueue(queue_dir), worker_id="thief", ttl=30, poll_interval=0.05)
        victim_thread = threading.Thread(target=victim.run, kwargs=dict(max_idle=2.0))
        victim_thread.start()
        queue = WorkQueue(queue_dir)
        # Only start the thief once the victim holds the batch, so the
        # claim/steal roles are deterministic.
        wait_until(
            lambda: queue.leases(campaign_id), message="victim to claim the batch"
        )
        thief_thread = threading.Thread(target=thief.run, kwargs=dict(max_idle=2.0))
        thief_thread.start()
        victim_thread.join()
        thief_thread.join()
        victim.close()
        thief.close()

        assert thief.steals >= 1, "idle worker never stole from the straggler"
        view = queue.scan(campaign_id)
        assert view.cut_points, "no cut marker was recorded"
        parts = view.deposited[0]
        assert len(parts) >= 2, f"expected split deposits, got {parts}"

        result = runner.run_campaign(spec)
        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in result.records
        ]
        _, worker_stats = queue.collect(campaign_id)
        assert set(worker_stats) == {"victim", "thief"}

    def test_steal_race_has_single_cut_and_lease_winner(self, tmp_path):
        """Two thieves racing the same split point must resolve to one
        cut marker and one tail lease (first-writer-wins, exclusive
        create) — and the campaign must still complete byte-identically."""
        spec = demo_spec(runs=2, campaign_id="dist-steal-race")
        serial = CampaignRunner().run_campaign(spec)
        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=16, wait_timeout=30)
        campaign_id = runner.submit_campaign(spec)
        queue = WorkQueue(queue_dir)
        num = int(queue.manifest(campaign_id)["num_tasks"])

        # A live victim lease with published progress, as thieves see it.
        victim_lease = queue.try_acquire(campaign_id, 0, "victim", ttl=30)
        assert victim_lease is not None
        queue.heartbeat(victim_lease, progress=2)

        cut_at = num // 2
        barrier = threading.Barrier(2)
        outcomes = {}

        def thief(name):
            barrier.wait()
            won_cut = queue.add_cut(campaign_id, 0, cut_at, name)
            lease = queue.try_acquire(campaign_id, 0, name, ttl=30, start=cut_at)
            outcomes[name] = (won_cut, lease)

        threads = [threading.Thread(target=thief, args=(f"t{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sum(1 for won, _ in outcomes.values() if won) == 1
        winners = [lease for _, lease in outcomes.values() if lease is not None]
        assert len(winners) == 1, "both thieves claimed the stolen tail"
        assert queue.scan(campaign_id).cut_points == {0: [cut_at]}

        # Release everything and let one worker drain the campaign.
        queue.release(victim_lease)
        queue.release(winners[0])
        worker = Worker(queue, worker_id="drainer", ttl=30)
        while worker.run_once():
            pass
        worker.close()
        result = runner.run_campaign(spec)
        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in result.records
        ]

    @pytest.mark.slow
    def test_steal_under_crash_requeues_the_stolen_tail(self, tmp_path):
        """A thief SIGKILLed after planting its cut marker (before
        depositing) must not lose the stolen interval: its lease expires
        and any worker re-claims the tail, completing the campaign with
        records identical to an uninterrupted run."""
        spec = slow_spec(runs=8, delay=0.15, campaign_id="dist-steal-crash")
        expected = CampaignRunner().run_campaign(spec)

        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=8, wait_timeout=WAIT)
        campaign_id = runner.submit_campaign(spec)
        queue = WorkQueue(queue_dir)

        victim = mp.Process(
            target=run_worker,
            kwargs=dict(
                queue_dir=str(queue_dir), worker_id="victim", ttl=2.0,
                poll_interval=0.05, max_idle=20.0,
            ),
            daemon=True,
        )
        victim.start()
        wait_until(
            lambda: queue.leases(campaign_id), message="victim to claim the batch"
        )
        thief = mp.Process(
            target=run_worker,
            kwargs=dict(
                queue_dir=str(queue_dir), worker_id="thief", ttl=2.0,
                poll_interval=0.05, max_idle=20.0,
            ),
            daemon=True,
        )
        thief.start()
        # Kill the thief the moment its cut marker lands: it has claimed
        # the tail but cannot have deposited it yet (runs take ~rounds ×
        # delay seconds).
        wait_until(
            lambda: queue.scan(campaign_id).cut_points, message="the thief's cut marker"
        )
        thief.kill()
        thief.join(timeout=10)
        cut_at = queue.scan(campaign_id).cut_points[0][0]
        assert 0 in queue.scan(campaign_id).pending()

        # The victim (now the only live worker) finishes its head, then
        # recovers the orphaned tail — by re-stealing from the dead
        # thief's still-live lease and/or re-claiming it after the TTL.
        runner.wait(campaign_id)
        reap([victim])
        view = queue.scan(campaign_id)
        parts = view.deposited[0]
        assert len(parts) >= 2, f"expected split deposits, got {parts}"
        assert 0 not in view.pending()
        covered = sorted(position for start, count in parts for position in range(start, start + count))
        assert covered == list(range(8)), f"coverage gap: {parts} (cut at {cut_at})"

        recovered = runner.run_campaign(spec)
        assert [record.as_dict() for record in expected.records] == [
            record.as_dict() for record in recovered.records
        ]

    def test_no_steal_worker_never_cuts(self, tmp_path):
        """--no-steal workers must leave peers' leases alone."""
        spec = demo_spec(runs=2, campaign_id="dist-no-steal")
        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=16, wait_timeout=30)
        campaign_id = runner.submit_campaign(spec)
        queue = WorkQueue(queue_dir)
        victim_lease = queue.try_acquire(campaign_id, 0, "victim", ttl=30)
        queue.heartbeat(victim_lease, progress=1)

        pacifist = Worker(queue, worker_id="pacifist", ttl=30, steal=False)
        assert pacifist.run_once() == 0  # the batch is leased
        assert pacifist.steal_once() == 0 or not queue.scan(campaign_id).cut_points
        pacifist.close()
        assert not queue.scan(campaign_id).cut_points
        assert pacifist.steals == 0


class TestRetireProtocol:
    """The supervisor → worker shutdown handshake."""

    def test_worker_exits_on_retire_marker_and_acknowledges(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.request_retire("w1")
        worker = Worker(queue, worker_id="w1", ttl=30, poll_interval=0.05)
        started = time.monotonic()
        executed = worker.run(max_idle=60.0)  # returns long before max_idle
        worker.close()
        assert executed == 0
        assert time.monotonic() - started < 10.0
        assert not queue.retire_requested("w1"), "marker was not acknowledged"

    def test_retire_leaves_pending_work_for_peers(self, tmp_path):
        spec = demo_spec(runs=1, campaign_id="dist-retire-pending")
        runner = DistributedCampaignRunner(tmp_path / "q", batch_size=4, wait_timeout=5)
        campaign_id = runner.submit_campaign(spec)
        queue = WorkQueue(tmp_path / "q")
        queue.request_retire("w2")
        worker = Worker(queue, worker_id="w2", ttl=30, poll_interval=0.05)
        worker.run(max_idle=60.0)
        worker.close()
        assert queue.scan(campaign_id).pending(), "retiring worker should not have claimed work"

    def test_weird_worker_ids_cannot_escape_the_store(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.request_retire("../../evil")
        assert queue.retire_requested("../../evil")
        assert not (tmp_path.parent / "evil.json").exists()
        assert queue.clear_retire("../../evil")


class _FakeProcess:
    """A Popen stand-in for supervisor decision tests."""

    def __init__(self):
        self.exit_code = None
        self.terminated = False

    def poll(self):
        return self.exit_code

    def wait(self, timeout=None):
        if self.exit_code is None:
            import subprocess

            raise subprocess.TimeoutExpired("fake-worker", timeout)
        return self.exit_code

    def terminate(self):
        self.terminated = True
        self.exit_code = -15

    def kill(self):
        self.exit_code = -9


class TestSupervisor:
    def test_bounds_and_backend_validation(self, tmp_path):
        with pytest.raises(ValueError, match="min_workers"):
            Supervisor(tmp_path, min_workers=-1)
        with pytest.raises(ValueError, match="max_workers"):
            Supervisor(tmp_path, min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="not result-identical"):
            Supervisor(tmp_path, backend="async")

    def test_scales_up_to_queue_depth_and_down_on_drain(self, tmp_path):
        """Decision logic with a fake spawner: unclaimed intervals drive
        scale-up (clamped to max_workers); a drained queue drives retire
        markers for the idle workers."""
        from repro.runner.records import RunnerStats, RunRecord

        queue = WorkQueue(tmp_path / "q")
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=2).expand()]
        campaign_id = queue.submit(tasks, batch_size=3)  # 8 tasks -> 3 batches
        spawned = []

        def fake_spawn(worker_id):
            process = _FakeProcess()
            spawned.append((worker_id, process))
            return process

        supervisor = Supervisor(
            queue, min_workers=0, max_workers=2, idle_grace=0.0, spawn=fake_spawn
        )
        status = supervisor.poll_once()
        assert status["unclaimed_units"] == 3
        assert status["target"] == 2 and len(supervisor.workers) == 2
        assert supervisor.stats.spawned == 2

        # Depth unchanged (fake workers do nothing): no further spawns.
        supervisor.poll_once()
        assert supervisor.stats.spawned == 2

        # Drain the queue by depositing every batch, then poll: both
        # idle workers get retire markers (never SIGKILL).
        manifest = queue.manifest(campaign_id)
        for index, num in enumerate(queue.batch_sizes(manifest)):
            queue.write_result(
                campaign_id, index, 0,
                [RunRecord(agreement=True) for _ in range(num)],
                "fake", RunnerStats(),
            )
        status = supervisor.poll_once()
        assert status["drained"] and status["target"] == 0
        assert supervisor.stats.retired == 2
        for worker_id, _ in spawned:
            assert queue.retire_requested(worker_id)

        # The fake processes exit (as a retiring worker would); a reap
        # poll forgets them and clears the markers.
        for _, process in spawned:
            process.exit_code = 0
        supervisor.poll_once()
        assert supervisor.workers == []
        for worker_id, _ in spawned:
            assert not queue.retire_requested(worker_id)
        supervisor.shutdown()

    def test_busy_workers_are_not_retired_below_demand(self, tmp_path):
        """A worker holding a live lease counts as demand: scale-down
        prefers idle workers and keeps the busy one."""
        queue = WorkQueue(tmp_path / "q")
        tasks = [task_from_spec(spec) for spec in demo_spec(runs=2).expand()]
        campaign_id = queue.submit(tasks, batch_size=8)  # 8 tasks -> 1 batch
        spawned = []

        def fake_spawn(worker_id):
            process = _FakeProcess()
            spawned.append((worker_id, process))
            return process

        supervisor = Supervisor(
            queue, min_workers=0, max_workers=2, idle_grace=60.0, spawn=fake_spawn
        )
        supervisor.poll_once()  # one unclaimed unit -> one worker
        assert len(supervisor.workers) == 1
        busy_id = supervisor.workers[0].worker_id
        # The spawned worker "claims" the batch: demand stays 1 (busy),
        # unclaimed drops to 0, so no churn in either direction.
        assert queue.try_acquire(campaign_id, 0, busy_id, ttl=30) is not None
        status = supervisor.poll_once()
        assert status["busy"] == 1 and status["target"] == 1
        assert supervisor.stats.retired == 0
        supervisor.shutdown()

    def test_default_spawner_rejects_custom_store_queues(self, tmp_path):
        """The default spawner launches `repro-ho worker --queue-dir`
        subprocesses, which only speak filesystem queue dirs — pairing it
        with an object-store queue would spawn a fleet polling the wrong
        place forever, so it must be rejected up front."""
        queue = WorkQueue(tmp_path, store=ObjectStore(InMemoryObjectClient()))
        with pytest.raises(ValueError, match="spawn"):
            Supervisor(queue)
        # An injected spawner takes responsibility and is accepted.
        Supervisor(queue, spawn=lambda worker_id: _FakeProcess())

    def test_exit_on_drain_retires_below_min_workers(self, tmp_path):
        """--exit-on-drain must terminate even with min_workers > 0: the
        drain floor drops to zero so the fleet can be fully retired."""
        queue = WorkQueue(tmp_path / "q")

        class _RetiringFake(_FakeProcess):
            def __init__(self, worker_id):
                super().__init__()
                self.worker_id = worker_id

            def poll(self):
                # A real worker observes its marker, acks and exits; the
                # fake just exits (the supervisor clears the marker at reap).
                if self.exit_code is None and queue.retire_requested(self.worker_id):
                    self.exit_code = 0
                return self.exit_code

        supervisor = Supervisor(
            queue, min_workers=1, max_workers=2, idle_grace=0.3,
            poll_interval=0.02, spawn=_RetiringFake,
        )
        stats = supervisor.run(exit_when_drained=True, max_runtime=30)
        assert stats.spawned >= 1, "min_workers floor never spawned"
        assert stats.retired >= 1
        assert supervisor.workers == [], "fleet not fully retired at drain"

    @pytest.mark.slow
    def test_supervisor_drains_a_campaign_end_to_end(self, tmp_path):
        """Real subprocess workers: autoscale 0 → N on a queued campaign,
        drain it, scale back to 0, with records identical to serial."""
        spec = demo_spec(runs=2, campaign_id="dist-supervised")
        serial = CampaignRunner().run_campaign(spec)

        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=3, wait_timeout=WAIT)
        campaign_id = runner.submit_campaign(spec)
        supervisor = Supervisor(
            queue_dir,
            min_workers=0,
            max_workers=2,
            ttl=10.0,
            poll_interval=0.2,
            worker_poll_interval=0.05,
            idle_grace=0.5,
        )
        stats = supervisor.run(exit_when_drained=True, max_runtime=WAIT)
        assert stats.spawned >= 1
        assert stats.peak_workers <= 2
        assert supervisor.workers == [], "fleet not fully retired"
        assert runner.queue.scan(campaign_id).pending() == []

        result = runner.run_campaign(spec)  # pure cache/collect, no fleet
        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in result.records
        ]


class TestObjectStoreFleet:
    """The queue protocol must run unchanged over an object store."""

    def test_fleet_protocol_over_object_store(self, tmp_path):
        client = InMemoryObjectClient()
        queue = WorkQueue(tmp_path / "never-created", store=ObjectStore(client))
        spec = demo_spec(runs=2, campaign_id="dist-object")
        serial = CampaignRunner().run_campaign(spec)

        runner = DistributedCampaignRunner(queue, batch_size=3, wait_timeout=30)
        campaign_id = runner.submit_campaign(spec)
        worker = Worker(queue, worker_id="obj-worker", ttl=30)
        while worker.run_once():
            pass
        worker.close()
        assert queue.scan(campaign_id).pending() == []

        result = runner.run_campaign(spec)
        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in result.records
        ]
        # Everything — batches, leases, deposits, the shared cache —
        # lived in the object client, not on disk.
        assert len(client) > 0
        assert not (tmp_path / "never-created").exists()

    def test_steal_protocol_over_object_store(self, tmp_path):
        """Cut markers and part deposits are plain store entries, so
        stealing works over the object client too."""
        client = InMemoryObjectClient()
        queue = WorkQueue(tmp_path / "unused", store=ObjectStore(client))
        spec = demo_spec(runs=2, campaign_id="dist-object-steal")
        serial = CampaignRunner().run_campaign(spec)
        runner = DistributedCampaignRunner(queue, batch_size=16, wait_timeout=30)
        campaign_id = runner.submit_campaign(spec)
        num = int(queue.manifest(campaign_id)["num_tasks"])

        victim_lease = queue.try_acquire(campaign_id, 0, "victim", ttl=30)
        queue.heartbeat(victim_lease, progress=2)
        thief = Worker(queue, worker_id="thief", ttl=30)
        assert thief.steal_once() == 1
        thief.close()
        view = queue.scan(campaign_id)
        assert view.cut_points[0], "no cut marker in the object store"
        cut_at = view.cut_points[0][0]
        assert (cut_at, num - cut_at) in view.deposited[0]

        # The victim's share still pends; drain it and compare.
        queue.release(victim_lease)
        drainer = Worker(queue, worker_id="drainer", ttl=30)
        while drainer.run_once():
            pass
        drainer.close()
        result = runner.run_campaign(spec)
        assert [record.as_dict() for record in serial.records] == [
            record.as_dict() for record in result.records
        ]


def _monotone_totals(totals):
    """The additive subset of fleet totals: counters and histogram
    count/sum samples (gauges may legitimately move both ways)."""
    return {
        key: value
        for key, value in totals.items()
        if "_total" in key or key.endswith("_count") or key.endswith("_sum")
    }


class TestChaosTier:
    """Seeded kill schedules: the fleet (and its observability) under fire.

    Four subprocess workers execute a latency-bound campaign while a
    deterministic schedule (``random.Random(seed)``) SIGKILLs a random
    live worker at a random poll boundary and respawns a replacement
    under a fresh id.  The rescued report must be byte-identical to an
    uninterrupted serial run, and every additive fleet counter sampled
    through :func:`fleet_status` must be monotone across the whole
    storm — stale-but-never-torn snapshot files are the claim under test.
    """

    @pytest.mark.chaos
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kill_schedule_rescues_byte_identical_report(self, tmp_path, seed):
        spec = slow_spec(runs=6, delay=0.05, campaign_id=f"dist-chaos-{seed}")
        expected = CampaignRunner().run_campaign(spec)

        queue_dir = tmp_path / "queue"
        runner = DistributedCampaignRunner(queue_dir, batch_size=2, wait_timeout=WAIT)
        campaign_id = runner.submit_campaign(spec)
        assert campaign_id is not None
        queue = WorkQueue(queue_dir)

        rng = random.Random(seed)
        workers = {}
        spawned = 0

        def spawn_one():
            nonlocal spawned
            worker_id = f"chaos{seed}-w{spawned}"
            spawned += 1
            process = mp.Process(
                target=run_worker,
                kwargs=dict(
                    queue_dir=str(queue_dir),
                    worker_id=worker_id,
                    ttl=1.5,
                    poll_interval=0.05,
                    max_idle=20.0,
                ),
                daemon=True,
            )
            process.start()
            workers[worker_id] = process

        for _ in range(4):
            spawn_one()

        kills = 0
        last_monotone = {}
        samples = 0
        deadline = time.monotonic() + WAIT
        try:
            while queue.scan(campaign_id).pending():
                assert time.monotonic() < deadline, "chaos campaign never completed"
                time.sleep(rng.uniform(0.1, 0.5))  # a seeded poll boundary

                # Observability under fire: merged additive counters
                # never regress, whatever is being killed mid-write.
                totals = _monotone_totals(fleet_status(queue)["totals"])
                for key, floor in last_monotone.items():
                    assert totals.get(key, 0.0) >= floor, f"{key} regressed"
                last_monotone = totals
                samples += 1

                if kills < 6:
                    alive = sorted(
                        worker_id
                        for worker_id, process in workers.items()
                        if process.is_alive()
                    )
                    if alive:
                        victim_id = rng.choice(alive)
                        victim = workers[victim_id]
                        os.kill(victim.pid, signal.SIGKILL)
                        victim.join(timeout=10)
                        kills += 1
                        spawn_one()  # a fresh id, never a reused one
        finally:
            reap(list(workers.values()))

        assert kills >= 1, "the schedule never killed anyone"
        assert samples >= 1

        rescued = runner.run_campaign(spec)  # collects; all work deposited
        assert json.dumps([r.as_dict() for r in expected.records]) == json.dumps(
            [r.as_dict() for r in rescued.records]
        )

        # A final status sample still parses as strict JSON and its
        # counters sit at-or-above every mid-storm floor.
        final = fleet_status(queue)
        json.dumps(final, allow_nan=False)
        final_monotone = _monotone_totals(final["totals"])
        for key, floor in last_monotone.items():
            assert final_monotone.get(key, 0.0) >= floor

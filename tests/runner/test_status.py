"""The observability surface: `repro-ho status`, hardening, scale metrics.

Covers the pure text renderer (golden-tested with COLUMNS pinned to
prove terminal independence), the status CLI's JSON contract, the
fleet_metrics mid-scan hardening (concurrently deleted / truncated
files must degrade, never raise), and the supervisor's scale-event
counters and worker gauges.
"""

import json

from repro.cli import main, render_fleet_status
from repro.runner import Supervisor, Worker, WorkQueue, fleet_status, task_from_spec
from repro.runner.spec import AdversarySpec, AlgorithmSpec, CampaignSpec, PredicateSpec


def tiny_spec(campaign_id="status-test") -> CampaignSpec:
    return CampaignSpec(
        campaign_id=campaign_id,
        algorithms=[AlgorithmSpec("ate", {"alpha": 1})],
        adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1, "period": 4})],
        predicates=[PredicateSpec("alpha-safe", {"alpha": 1})],
        ns=[5],
        runs=2,
        base_seed=11,
        max_rounds=25,
    )


SAMPLE_STATUS = {
    "queue": {
        "pending_batches": 2,
        "claimable_units": 7,
        "unclaimed_units": 3,
        "live_leases": {"w0": 1, "w3": 1},
        "deposited_parts": 41,
    },
    "workers": [
        {
            "worker": "w0",
            "age_seconds": 2.13,
            "units": 11.0,
            "cache_hit_ratio": 0.625,
            "counters": {'repro_runner_runs_total{counter="total"}': 88.0},
        },
        {
            "worker": "w3",
            "age_seconds": None,
            "units": 4.0,
            "cache_hit_ratio": None,
            "counters": {},
        },
    ],
    "totals": {
        "repro_worker_units_total": 15.0,
        "repro_queue_claims_total": 16.0,
        "repro_queue_deposits_total": 41.0,
        "repro_worker_steals_total": 2.0,
        "repro_queue_requeues_total": 0.0,
        "repro_queue_lease_breaks_total": 1.0,
        "repro_cache_corrupt_total": 0.0,
    },
}

GOLDEN_RENDER = (
    "queue: pending_batches=2 claimable_units=7 unclaimed_units=3 deposited_parts=41\n"
    "leases: w0=1 w3=1\n"
    "totals: units=15 claims=16 deposits=41 steals=2 requeues=0 "
    "lease_breaks=1 cache_corrupt=0\n"
    "workers: 2 snapshot(s)\n"
    "  worker       age   units    runs    hit%\n"
    "  w0          2.1s      11      88    62.5\n"
    "  w3             ?       4       0       -"
)

GOLDEN_EMPTY = (
    "queue: pending_batches=0 claimable_units=0 unclaimed_units=0 deposited_parts=0\n"
    "leases: none\n"
    "totals: units=0 claims=0 deposits=0 steals=0 requeues=0 "
    "lease_breaks=0 cache_corrupt=0\n"
    "workers: no metric snapshots yet"
)


class TestRenderFleetStatus:
    def test_golden_rendering(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert render_fleet_status(SAMPLE_STATUS) == GOLDEN_RENDER

    def test_rendering_ignores_terminal_width(self, monkeypatch):
        """The renderer is pure: COLUMNS (and any other terminal state)
        must not change a single byte of the output."""
        monkeypatch.setenv("COLUMNS", "238")
        wide = render_fleet_status(SAMPLE_STATUS)
        monkeypatch.setenv("COLUMNS", "20")
        narrow = render_fleet_status(SAMPLE_STATUS)
        assert wide == narrow == GOLDEN_RENDER

    def test_golden_empty_queue(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert render_fleet_status({"queue": {}, "workers": [], "totals": {}}) == GOLDEN_EMPTY

    def test_long_worker_ids_widen_the_name_column(self):
        status = {
            "queue": {},
            "workers": [
                {
                    "worker": "sup-host-12345-1",
                    "age_seconds": 1.0,
                    "units": 1.0,
                    "cache_hit_ratio": None,
                    "counters": {},
                }
            ],
            "totals": {},
        }
        lines = render_fleet_status(status).splitlines()
        header = next(line for line in lines if "hit%" in line)
        row = lines[-1]
        assert row.startswith("  sup-host-12345-1")
        # Column boundaries stay aligned: the right edge of every
        # right-justified column matches between header and row.
        assert header.index("age") + 3 == row.index("1.0s") + 4


class TestStatusCommand:
    def test_rejects_non_positive_interval(self, tmp_path, capsys):
        code = main(["status", "--queue-dir", str(tmp_path), "--interval", "0"])
        assert code == 2
        assert "--interval must be > 0" in capsys.readouterr().err

    def test_json_on_empty_queue(self, tmp_path, capsys):
        code = main(["status", "--queue-dir", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"queue", "workers", "totals"}
        assert payload["workers"] == []
        assert payload["queue"]["pending_batches"] == 0

    def test_status_after_in_process_campaign(self, tmp_path, capsys):
        """End to end: run a campaign with one in-process worker, deposit
        its snapshot, and check both status output modes see the work."""
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in tiny_spec().expand()]
        queue.submit(tasks, batch_size=2)
        worker = Worker(queue, worker_id="w0", poll_interval=0.01)
        while worker.run_once():
            pass
        queue.write_metric_snapshot("w0")

        code = main(["status", "--queue-dir", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["worker"] for entry in payload["workers"]] == ["w0"]
        totals = payload["totals"]
        assert totals["repro_worker_units_total"] >= 1
        assert totals["repro_queue_deposits_total"] >= 1
        assert totals['repro_runner_runs_total{counter="total"}'] == len(tasks)

        code = main(["status", "--queue-dir", str(tmp_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "workers: 1 snapshot(s)" in text
        assert "leases: none" in text

    def test_json_output_is_strict_and_sorted(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path)
        queue.write_metric_snapshot("w0")
        code = main(["status", "--queue-dir", str(tmp_path), "--json"])
        assert code == 0
        out = capsys.readouterr().out
        # Strict JSON (would raise on NaN/inf) that round-trips sorted.
        payload = json.loads(out)
        assert out.strip() == json.dumps(payload, allow_nan=False, sort_keys=True)


class TestFleetMetricsHardening:
    """fleet_metrics races live workers; it must degrade, never raise."""

    def submit(self, tmp_path):
        queue = WorkQueue(tmp_path)
        tasks = [task_from_spec(spec) for spec in tiny_spec().expand()]
        queue.submit(tasks, batch_size=2)
        return queue

    def test_mid_scan_failure_serves_last_good_values(self, tmp_path, monkeypatch):
        queue = self.submit(tmp_path)
        good = queue.fleet_metrics()
        assert good["claimable_units"] > 0

        def explode(campaign_id):
            raise OSError("simulated store race")

        monkeypatch.setattr(queue, "scan", explode)
        degraded = queue.fleet_metrics()
        assert degraded == good  # last-good, not an exception

    def test_first_scan_failure_degrades_to_zeros(self, tmp_path, monkeypatch):
        queue = self.submit(tmp_path)

        def explode():
            raise OSError("simulated listing race")

        monkeypatch.setattr(queue, "campaigns", explode)
        metrics = queue.fleet_metrics()
        assert metrics == {
            "pending_batches": 0,
            "claimable_units": 0,
            "unclaimed_units": 0,
            "live_leases": {},
            "deposited_parts": 0,
        }

    def test_truncated_manifest_mid_scan_does_not_raise(self, tmp_path):
        """A manifest truncated between the listing and the read (a
        worker mid-replace on a non-atomic store) skips that campaign."""
        queue = self.submit(tmp_path)
        manifest_path = next(tmp_path.glob("campaigns/*/manifest.json"))
        full = manifest_path.read_text(encoding="utf-8")
        manifest_path.write_text(full[: len(full) // 2], encoding="utf-8")
        metrics = queue.fleet_metrics()
        assert metrics["claimable_units"] == 0  # campaign skipped, no raise

    def test_degraded_values_self_correct_on_the_next_clean_scan(
        self, tmp_path, monkeypatch
    ):
        queue = self.submit(tmp_path)
        good = queue.fleet_metrics()
        original = queue.scan

        def explode(campaign_id):
            raise OSError("transient")

        monkeypatch.setattr(queue, "scan", explode)
        assert queue.fleet_metrics() == good
        monkeypatch.setattr(queue, "scan", original)
        assert queue.fleet_metrics() == good

    def test_corrupt_metric_snapshot_is_skipped_by_fleet_status(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.write_metric_snapshot("good")
        bad = tmp_path / "metrics" / "bad.json"
        bad.write_text('{"worker": "bad", "written_at": 1, "metrics": {"met', "utf-8")
        status = fleet_status(queue)
        assert [entry["worker"] for entry in status["workers"]] == ["good"]

    def test_malformed_metrics_payload_yields_empty_counters(self, tmp_path):
        """Valid JSON whose metrics block violates the snapshot schema
        must not poison the merge: the shard is listed with no counters."""
        queue = WorkQueue(tmp_path)
        bad = tmp_path / "metrics" / "odd.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_text(
            json.dumps(
                {
                    "worker": "odd",
                    "written_at": "not-a-time",
                    "metrics": {"metrics": [{"name": "x", "kind": "mystery"}]},
                }
            ),
            "utf-8",
        )
        status = fleet_status(queue)
        (entry,) = status["workers"]
        assert entry["worker"] == "odd"
        assert entry["age_seconds"] is None
        assert entry["counters"] == {}


class _FakeProc:
    def __init__(self):
        self.terminated = False

    def poll(self):
        return 1 if self.terminated else None

    def terminate(self):
        self.terminated = True

    def wait(self, timeout=None):
        return 0

    def kill(self):
        self.terminated = True


class TestSupervisorScaleMetrics:
    def test_poll_once_spawns_and_counts(self, tmp_path, monkeypatch):
        supervisor = Supervisor(
            WorkQueue(tmp_path), max_workers=8, spawn=lambda worker_id: _FakeProc()
        )
        monkeypatch.setattr(
            supervisor.queue,
            "fleet_metrics",
            lambda: {
                "pending_batches": 1,
                "claimable_units": 3,
                "unclaimed_units": 3,
                "live_leases": {},
                "deposited_parts": 0,
            },
        )
        status = supervisor.poll_once()
        assert status["target"] == 3  # depth policy: unclaimed units + busy workers
        assert len(supervisor.workers) == 3
        flat = supervisor.queue.metrics.flat_values()
        assert flat['repro_supervisor_scale_events_total{direction="up"}'] == 1
        assert flat["repro_supervisor_target_workers"] == 3
        assert flat["repro_supervisor_live_workers"] == 3

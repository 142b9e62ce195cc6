"""The benchmark's workloads: what each one runs, and how its records are checked.

Every workload is timed as *pass pairs*: a cold pass on a fresh cache
(or queue) directory, then a warm pass that re-runs the same campaign on
the directory the cold pass filled, as a user re-running the same
command does.  The workload seed becomes the campaign's ``base_seed``
(``--seed`` for the paper suite); the program only sees the generated
specs.  Sizes keep one cold pass near 1.5-4 s on 2 cores, so a run of
fifteen seconds holds several pairs.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Params = Tuple[str, Dict[str, object]]


@dataclass
class PassResult:
    """What one timed pass produced: run counts and a digest of its records."""

    runs: int
    failed: int
    records_sha256: str
    records: Optional[list] = None

    @classmethod
    def of_records(cls, records: Sequence) -> "PassResult":
        return cls(
            runs=len(records),
            failed=sum(1 for record in records if not record.ok),
            records_sha256=records_digest(records),
            records=list(records),
        )


def records_digest(records: Sequence) -> str:
    """SHA-256 over the canonical JSON of the records, in campaign order."""
    payload = json.dumps(
        [record.as_dict() for record in records], sort_keys=True, allow_nan=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def evenly_spaced(total: int, count: int) -> List[int]:
    """``count`` indices spread evenly over ``range(total)``, ends included."""
    if count >= total:
        return list(range(total))
    if count == 1:
        return [0]
    return sorted({round(i * (total - 1) / (count - 1)) for i in range(count)})


@dataclass
class SpecSweep:
    """A declarative campaign grid on ``CampaignRunner(backend="batch")``
    with a result cache, checked against a sample re-run on an oracle
    backend."""

    name: str
    algorithms: List[Params]
    adversaries: List[Params]
    n: int
    runs: int
    max_rounds: int
    min_rounds: int = 0
    oracle_backend: str = "reference"
    oracle_runs: int = 32
    smoke_runs: int = 2
    spec_backend: Optional[str] = None
    spec: object = field(default=None, repr=False)

    def setup(self, seed: int, smoke: bool) -> None:
        from repro.runner import AdversarySpec, AlgorithmSpec, CampaignSpec

        self.spec = CampaignSpec(
            campaign_id=self.name,
            algorithms=[AlgorithmSpec(name, params) for name, params in self.algorithms],
            adversaries=[AdversarySpec(name, params) for name, params in self.adversaries],
            ns=[self.n],
            runs=self.smoke_runs if smoke else self.runs,
            base_seed=seed,
            max_rounds=self.max_rounds,
            min_rounds=self.min_rounds,
            backend=self.spec_backend,
        )

    def prepare(self, pass_dir: Path) -> Path:
        return pass_dir / "cache"

    def run(self, cache_dir: Path, warm: bool) -> PassResult:
        from repro.runner import CampaignRunner, ResultCache

        runner = CampaignRunner(backend="batch", cache=ResultCache(cache_dir))
        return PassResult.of_records(runner.run_campaign(self.spec).records)

    def oracle(self, result: PassResult, work: Path, sample: Optional[int] = None) -> List[str]:
        """Re-run evenly spaced runs on the oracle backend; name every mismatch."""
        from repro.runner import CampaignRunner, task_from_spec

        run_specs = self.spec.expand()
        picks = evenly_spaced(len(run_specs), sample or self.oracle_runs)
        with CampaignRunner(backend=self.oracle_backend) as runner:
            expected = runner.run_tasks(
                [task_from_spec(replace(run_specs[i], backend=None)) for i in picks],
                capture_errors=True,
            )
        return [
            f"{self.name}: run {i} (seed {run_specs[i].seed}) differs from the "
            f"{self.oracle_backend} backend"
            for i, record in zip(picks, expected)
            if record.as_dict() != result.records[i].as_dict()
        ]


@dataclass
class FleetSweep(SpecSweep):
    """The objects ``campaign --spec ... --distributed --autoscale
    --max-workers 2 --backend batch`` builds, on a fresh local queue dir."""

    supervisor: object = field(default=None, repr=False)

    def prepare(self, pass_dir: Path) -> Path:
        return pass_dir / "queue"

    def run(self, queue_dir: Path, warm: bool) -> PassResult:
        from repro.runner import DistributedCampaignRunner, Supervisor

        supervisor = Supervisor(
            queue=str(queue_dir),
            min_workers=0,
            max_workers=2,
            jobs=1,
            backend="batch",
            poll_interval=0.5,
            worker_poll_interval=0.1,
            idle_grace=2.0,
        )
        runner = DistributedCampaignRunner(
            queue_dir=str(queue_dir), batch_size=8, backend="batch", wait_timeout=120.0
        )
        supervisor.start()
        try:
            result = runner.run_campaign(self.spec)
        finally:
            supervisor.stop()
        if not warm:
            self.supervisor = supervisor
        return PassResult.of_records(result.records)

    def fleet_counts(self, prepared: Path, cold: PassResult, cold_wall: float) -> Dict[str, float]:
        """The fleet's own counters for the cold pass (workers are exec'd,
        so they report through the snapshots they deposit)."""
        from repro.runner import WorkQueue, fleet_status

        totals = fleet_status(WorkQueue(prepared))["totals"]
        scale = self.supervisor.queue.metrics.flat_values()
        executed = totals.get('repro_runner_runs_total{counter="executed"}', 0.0)
        claims = totals.get("repro_queue_claims_total", 0.0)
        units = totals.get("repro_worker_units_total", 0.0)
        execute_s = totals.get("repro_runner_unit_seconds_sum", 0.0)
        return {
            "fleet.claims": claims,
            "fleet.claim_conflicts": claims - units,
            "fleet.units": units,
            "fleet.deposits": totals.get("repro_queue_deposits_total", 0.0),
            "fleet.steals": totals.get("repro_worker_steals_total", 0.0),
            "fleet.requeues": totals.get("repro_queue_requeues_total", 0.0),
            "fleet.lease_breaks": totals.get("repro_queue_lease_breaks_total", 0.0),
            "fleet.claim_s": totals.get("repro_queue_claim_latency_seconds_sum", 0.0),
            "fleet.execute_s": execute_s,
            "fleet.duplicate_runs": executed - cold.runs,
            "fleet.scale_events": sum(
                value
                for name, value in scale.items()
                if name.startswith("repro_supervisor_scale_events_total")
            ),
            "fleet.busy_frac": execute_s / (2 * cold_wall),
        }


_RUNNER_LINE = re.compile(r"^runner\[E\d+\]: .*")


@dataclass
class PaperSuite:
    """``repro-ho campaign all`` in-process: the E1-E12 drivers through
    the CLI with a 2-process pool, the batch backend and a cache dir."""

    name: str
    runs: int = 10
    smoke_runs: int = 1
    seed: int = 0
    smoke: bool = False

    def setup(self, seed: int, smoke: bool) -> None:
        importlib.import_module("repro.cli")  # the import is part of set-up
        self.seed = seed
        self.smoke = smoke

    def prepare(self, pass_dir: Path) -> Path:
        return pass_dir

    def _argv(self, *extra: str) -> List[str]:
        runs = self.smoke_runs if self.smoke else self.runs
        return ["campaign", "all", "--runs", str(runs), "--seed", str(self.seed), *extra]

    def run(self, pass_dir: Path, warm: bool) -> PassResult:
        reports = pass_dir / ("warm" if warm else "cold")
        return self._invoke(
            self._argv(
                "--jobs", "2", "--backend", "batch",
                "--cache-dir", str(pass_dir / "cache"), "--json", str(reports),
            ),
            reports,
        )

    @staticmethod
    def _invoke(argv: List[str], reports: Path) -> PassResult:
        from repro.cli import main

        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        runs = failed = 0
        for line in captured.getvalue().splitlines():
            if _RUNNER_LINE.match(line):
                fields = dict(
                    part.split("=", 1) for part in line.split()[1:] if "=" in part
                )
                runs += int(fields["runs"])
                failed += int(fields.get("failures", 0)) + int(fields.get("timeouts", 0))
        if code != 0:
            failed = max(failed, 1)
        digest = hashlib.sha256()
        for path in sorted(reports.glob("E*.json")):
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        return PassResult(runs=runs, failed=failed, records_sha256=digest.hexdigest())

    def oracle(self, result: PassResult, work: Path, sample: Optional[int] = None) -> List[str]:
        """One serial pass on the reference backend must write the same reports."""
        reports = work / "oracle"
        expected = self._invoke(
            self._argv("--jobs", "1", "--backend", "reference", "--no-cache", "--json", str(reports)),
            reports,
        )
        if expected.records_sha256 == result.records_sha256:
            return []
        return [f"{self.name}: E1-E12 reports differ from a serial reference-backend pass"]


WORKLOADS = {
    workload.name: workload
    for workload in (
        SpecSweep(
            name="sweep-reliable-n40",
            algorithms=[("ate", {"alpha": 1}), ("ute", {"alpha": 1})],
            adversaries=[("reliable", {})],
            n=40,
            runs=600,
            max_rounds=120,
            min_rounds=120,
            # The reference engine needs ~0.37 s per run at this horizon.
            oracle_runs=8,
        ),
        SpecSweep(
            name="sweep-faults-n40",
            algorithms=[("ate", {"alpha": 1})],
            adversaries=[
                ("random-omission", {"drop_probability": 0.15}),
                ("random-corruption", {"alpha": 1}),
                ("rotating-corruption", {"alpha": 1}),
                ("block-faults", {}),
            ],
            n=40,
            runs=150,
            max_rounds=30,
            min_rounds=30,
        ),
        SpecSweep(
            name="massive-n1024",
            algorithms=[("ate", {"alpha": 1})],
            adversaries=[("random-omission", {"drop_probability": 0.1})],
            n=1024,
            runs=48,
            max_rounds=10,
            # The reference engine needs seconds per run at n=1024; the
            # fast engine is byte-identical to it under the differential grid.
            oracle_backend="fast",
            oracle_runs=2,
            smoke_runs=1,
        ),
        PaperSuite(name="paper-suite"),
        FleetSweep(
            name="fleet-2w",
            algorithms=[("ate", {"alpha": 1}), ("ute", {"alpha": 1})],
            adversaries=[
                ("random-omission", {"drop_probability": 0.15}),
                ("random-corruption", {"alpha": 1}),
            ],
            n=16,
            runs=300,
            max_rounds=30,
            spec_backend="batch",
        ),
    )
}

"""Benchmarks: distributed fleet scaling and work-stealing wall-clock.

Two fleet benchmarks, both over latency-bound campaigns (the
``latency`` adversary sleeps a fixed wall-clock delay per round,
modelling the network round-trip a real deployment pays — rounds are
I/O-bound, not CPU-bound, so a worker fleet parallelises even on a
single-core runner):

* **Scaling** — one uniform campaign executed serially and by a fleet
  of **4 worker processes** claiming batches from a shared queue
  directory.  The acceptance bar is **≥ 2.5×** at 4 workers — the
  remaining gap to the ideal 4× is the fleet's scheduling overhead
  (queue polling, lease traffic, result deposits), which this benchmark
  exists to keep bounded.
* **Straggler / work stealing** — a deliberately unbalanced campaign:
  one batch of cheap runs and one batch of expensive runs, at 4
  workers.  Without stealing, one worker grinds the expensive batch
  alone while its peers idle, so the straggler batch bounds campaign
  wall-clock.  With stealing (the default), idle workers split the
  straggler's unstarted tail via cut markers and share it.  The
  acceptance bar is **≥ 1.3×** steal-vs-no-steal at 4 workers.

Rows are checked byte-identical first (the distributed path — stolen or
not — is semantically invisible) and the stealing fleet's shared cache
must fully serve a serial re-run.  Results are printed, one section
per benchmark.
"""

from __future__ import annotations

import json
import multiprocessing
import time

from repro.runner import (
    AdversarySpec,
    AlgorithmSpec,
    CampaignRunner,
    CampaignSpec,
    DistributedCampaignRunner,
    ResultCache,
    SharedStore,
    WorkQueue,
    fleet_status,
    run_worker,
)

mp = multiprocessing.get_context("fork")

WORKERS = 4
RUNS = 32
DELAY_PER_ROUND = 0.15
BATCH_SIZE = 2
SPEEDUP_FLOOR = 2.5

STRAGGLER_RUNS = 8  # per cell: one cheap cell + one expensive cell
STRAGGLER_FAST_DELAY = 0.005
STRAGGLER_SLOW_DELAY = 0.25
STRAGGLER_BATCH_SIZE = 8  # one batch per cell: the slow batch straggles
STEAL_SPEEDUP_FLOOR = 1.3


def _record_results(section: str, payload: dict) -> None:
    """Print one benchmark's payload (nothing is written into the tree)."""
    print(f"\n{section}: {json.dumps(payload, indent=2)}")


def _spec() -> CampaignSpec:
    return CampaignSpec(
        campaign_id="bench-distributed",
        algorithms=[AlgorithmSpec("ate", {"alpha": 0})],
        adversaries=[AdversarySpec("latency", {"delay_per_round": DELAY_PER_ROUND})],
        ns=[6],
        runs=RUNS,
        base_seed=17,
        max_rounds=12,
    )


def _straggler_spec() -> CampaignSpec:
    """A campaign whose grid expands into one cheap and one expensive
    cell, in that order — batched so the expensive cell is one big
    straggler batch."""
    return CampaignSpec(
        campaign_id="bench-straggler",
        algorithms=[AlgorithmSpec("ate", {"alpha": 0})],
        adversaries=[
            AdversarySpec("latency", {"delay_per_round": STRAGGLER_FAST_DELAY}),
            AdversarySpec("latency", {"delay_per_round": STRAGGLER_SLOW_DELAY}),
        ],
        ns=[6],
        runs=STRAGGLER_RUNS,
        base_seed=23,
        max_rounds=12,
    )


def _fleet(queue_dir, count, steal):
    workers = [
        mp.Process(
            target=run_worker,
            kwargs=dict(
                queue_dir=str(queue_dir),
                worker_id=f"bench-{'steal' if steal else 'nosteal'}-w{index}",
                ttl=30.0,
                poll_interval=0.02,
                max_idle=10.0,
                steal=steal,
            ),
            daemon=True,
        )
        for index in range(count)
    ]
    for worker in workers:
        worker.start()
    return workers


def _reap(workers):
    for worker in workers:
        worker.join(timeout=60)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)


def _run_fleet(spec, queue_dir, batch_size, steal):
    """Execute ``spec`` on a fresh fleet; returns (result, seconds, runner)."""
    workers = _fleet(queue_dir, WORKERS, steal=steal)
    try:
        started = time.perf_counter()
        runner = DistributedCampaignRunner(queue_dir, batch_size=batch_size, wait_timeout=300)
        result = runner.run_campaign(spec)
        elapsed = time.perf_counter() - started
    finally:
        _reap(workers)
    return result, elapsed, runner


def test_bench_distributed_scaling(tmp_path):
    spec = _spec()

    started = time.perf_counter()
    serial_result = CampaignRunner().run_campaign(spec)
    serial_seconds = time.perf_counter() - started

    distributed_result, distributed_seconds, runner = _run_fleet(
        spec, tmp_path / "queue", BATCH_SIZE, steal=True
    )

    # Semantic invisibility first: byte-identical records, then timing.
    assert [record.as_dict() for record in serial_result.records] == [
        record.as_dict() for record in distributed_result.records
    ]

    # The fleet ran fully instrumented (in-memory counters are always
    # on, snapshot deposits default on), so the speedup floor below IS
    # the metrics-overhead bar.  Record the merged observability totals
    # beside the timings for trend inspection.
    totals = fleet_status(WorkQueue(tmp_path / "queue"))["totals"]
    fleet_counters = {
        key: totals.get(key, 0.0)
        for key in (
            "repro_worker_units_total",
            "repro_queue_claims_total",
            "repro_queue_deposits_total",
            "repro_worker_steals_total",
        )
    }
    assert fleet_counters["repro_worker_units_total"] >= 1, (
        "instrumented fleet deposited no metric snapshots"
    )

    speedup = serial_seconds / distributed_seconds
    _record_results(
        "scaling",
        {
            "benchmark": "latency-bound campaign, serial vs 4-worker distributed fleet",
            "workers": WORKERS,
            "runs": RUNS,
            "delay_per_round": DELAY_PER_ROUND,
            "batch_size": BATCH_SIZE,
            "serial_seconds": round(serial_seconds, 3),
            "distributed_seconds": round(distributed_seconds, 3),
            "speedup": round(speedup, 2),
            "workers_executed": {
                worker: stats.executed
                for worker, stats in sorted(runner.worker_stats.items())
            },
            "fleet_counters": fleet_counters,
        },
    )
    print(
        f"\nserial={serial_seconds:.2f}s distributed[{WORKERS} workers]="
        f"{distributed_seconds:.2f}s ({speedup:.2f}x)"
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"4-worker fleet only reached {speedup:.2f}x over serial "
        f"(floor {SPEEDUP_FLOOR}x); scheduling overhead regressed"
    )


def test_bench_straggler_work_stealing(tmp_path):
    spec = _straggler_spec()
    serial_result = CampaignRunner().run_campaign(spec)

    nosteal_result, nosteal_seconds, _ = _run_fleet(
        spec, tmp_path / "queue-nosteal", STRAGGLER_BATCH_SIZE, steal=False
    )
    steal_result, steal_seconds, _ = _run_fleet(
        spec, tmp_path / "queue-steal", STRAGGLER_BATCH_SIZE, steal=True
    )

    # Stolen or not, the fleet is semantically invisible.
    rows_serial = [record.as_dict() for record in serial_result.records]
    assert rows_serial == [record.as_dict() for record in nosteal_result.records]
    assert rows_serial == [record.as_dict() for record in steal_result.records]

    # The straggler batch was actually split: cut markers + part deposits.
    steal_queue = WorkQueue(tmp_path / "queue-steal")
    campaign_id = steal_queue.campaigns()[0]
    view = steal_queue.scan(campaign_id)
    cuts = view.cut_points
    assert cuts, "stealing fleet recorded no cut markers on the straggler"
    assert any(len(parts) >= 2 for parts in view.deposited.values())

    # Full cross-mode cache hits: a serial runner over the stealing
    # fleet's shared cache re-executes nothing and reads identical rows.
    cross = CampaignRunner(
        cache=ResultCache(store=SharedStore(tmp_path / "queue-steal" / "cache"))
    )
    cross_result = cross.run_campaign(spec)
    assert cross.stats.cache_hits == len(rows_serial) and cross.stats.executed == 0
    assert rows_serial == [record.as_dict() for record in cross_result.records]

    improvement = nosteal_seconds / steal_seconds
    _record_results(
        "straggler_steal",
        {
            "benchmark": (
                "straggler-bound campaign (one cheap + one expensive batch), "
                "4-worker fleet with vs without work stealing"
            ),
            "workers": WORKERS,
            "runs_per_cell": STRAGGLER_RUNS,
            "fast_delay_per_round": STRAGGLER_FAST_DELAY,
            "slow_delay_per_round": STRAGGLER_SLOW_DELAY,
            "batch_size": STRAGGLER_BATCH_SIZE,
            "no_steal_seconds": round(nosteal_seconds, 3),
            "steal_seconds": round(steal_seconds, 3),
            "improvement": round(improvement, 2),
            "cut_markers": {str(index): at for index, at in sorted(cuts.items())},
        },
    )
    print(
        f"\nno-steal={nosteal_seconds:.2f}s steal={steal_seconds:.2f}s "
        f"({improvement:.2f}x) cuts={cuts}"
    )

    assert improvement >= STEAL_SPEEDUP_FLOOR, (
        f"work stealing only improved the straggler-bound campaign by "
        f"{improvement:.2f}x (floor {STEAL_SPEEDUP_FLOOR}x)"
    )

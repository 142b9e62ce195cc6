"""Benchmark: IPC volume and wall-clock of the in-worker reduction path.

``run_simulations`` ships the whole :class:`SimulationResult` (process
objects plus the n² × rounds heard-of collection) back through pickle
for every parallel run; ``run_reduced`` applies the reducer inside the
worker and ships only a compact :class:`ReducedRecord`.  This module

* measures the pickled payload per run for both paths at n ∈ {20, 50}
  (a predicate-taxonomy style campaign: corruption adversary, alpha-safe
  predicate evaluated per run) and asserts the reduction cuts the bytes
  shipped from workers by at least 5×, and
* times both paths through a ``jobs=4`` worker pool.

Measured payloads are printed; nothing is written into the tree.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.adversary import PeriodicGoodRoundAdversary, RandomCorruptionAdversary
from repro.algorithms import AteAlgorithm
from repro.core.predicates import AlphaSafePredicate
from repro.runner import CampaignRunner, PredicateReducer, RunTask
from repro.workloads import generators

MAX_ROUNDS = 20


def make_tasks(n: int, count: int = 1):
    return [
        RunTask(
            algorithm=AteAlgorithm.symmetric(n=n, alpha=1),
            adversary=PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(
                    alpha=1, value_domain=(0, 1), seed=index
                ),
                period=4,
            ),
            initial_values=generators.split(n),
            max_rounds=MAX_ROUNDS,
            run_index=index,
        )
        for index in range(count)
    ]


def taxonomy_reducer() -> PredicateReducer:
    return PredicateReducer({"safe": AlphaSafePredicate(1)})


def payload_sizes(n: int):
    """Pickled bytes shipped from a worker: full result vs reduced record."""
    runner = CampaignRunner()
    full = pickle.dumps(runner.run_simulations(make_tasks(n))[0])
    reduced = pickle.dumps(runner.run_reduced(make_tasks(n), taxonomy_reducer())[0])
    return len(full), len(reduced)


@pytest.mark.parametrize("n", [20, 50])
def test_bench_reduced_payload_bytes(n):
    """The reduced path must ship ≥ 5× fewer bytes per run from workers."""
    full_bytes, reduced_bytes = payload_sizes(n)
    ratio = full_bytes / reduced_bytes
    recorded = {
        "full_result_bytes_per_run": full_bytes,
        "reduced_record_bytes_per_run": reduced_bytes,
        "reduction_factor": round(ratio, 1),
        "max_rounds": MAX_ROUNDS,
    }
    print(f"\nn={n}: {json.dumps(recorded)}")
    print(
        f"\nn={n}: full={full_bytes}B reduced={reduced_bytes}B "
        f"({ratio:.0f}x smaller)"
    )
    assert ratio >= 5.0


@pytest.mark.parametrize("n", [20, 50])
def test_bench_reduced_campaign_jobs4(benchmark, n):
    """Wall-clock of a 8-run reduced campaign across 4 worker processes."""
    with CampaignRunner(jobs=4) as runner:
        runner.run_reduced(make_tasks(n, count=1), taxonomy_reducer())  # warm the pool

        def reduced_campaign():
            return runner.run_reduced(make_tasks(n, count=8), taxonomy_reducer())

        records = benchmark.pedantic(reduced_campaign, rounds=1, iterations=1)
    assert len(records) == 8 and all(record.ok for record in records)


@pytest.mark.parametrize("n", [20, 50])
def test_bench_full_result_campaign_jobs4(benchmark, n):
    """Baseline: the same campaign shipping full results (the old path)."""
    with CampaignRunner(jobs=4) as runner:
        runner.run_simulations(make_tasks(n, count=1))  # warm the pool

        def full_campaign():
            return runner.run_simulations(make_tasks(n, count=8))

        results = benchmark.pedantic(full_campaign, rounds=1, iterations=1)
    assert len(results) == 8

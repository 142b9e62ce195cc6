"""Benchmark: the vectorised batch backend vs per-run fast execution.

Times whole ``A_{T,E}`` seed sweeps through ``run_algorithm_batch``
(one vectorised kernel step per round across every live run) against
the same sweeps dispatched run by run on the ``fast`` backend:

* ``reliable-fixed-horizon`` — the acceptance cell: 1000 seeds at
  n = 40 on a fixed 30-round horizon, where kernel arithmetic dominates
  and the batch backend must be **≥ 5×** faster;
* ``random-omission`` / ``random-corruption`` — fault-injecting cells
  where plan decoding bounds the win; with the batch planners
  (array-at-a-time fault schedules over the RNG bridge) these must be
  **≥ 2.5×** faster, not merely break even.

Every sweep is first checked row-identical between the backends (the
batch engine is semantically invisible), then timed.  Results are
printed.
"""

from __future__ import annotations

import json
import time

import pytest

pytest.importorskip("numpy")

from benchmarks.conftest import peak_rss_mb
from repro.adversary import (
    RandomCorruptionAdversary,
    RandomOmissionAdversary,
    ReliableAdversary,
)
from repro.algorithms import AteAlgorithm
from repro.runner.records import RunRecord
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.batch_engine import SimulationRequest, run_algorithm_batch
from repro.workloads import generators

N = 40
MAX_ROUNDS = 30

#: name -> (runs, min_rounds, adversary factory, speedup floor)
CELLS = {
    "reliable-fixed-horizon": (1000, MAX_ROUNDS, lambda seed: ReliableAdversary(), 5.0),
    "random-omission": (
        300, MAX_ROUNDS,
        lambda seed: RandomOmissionAdversary(0.15, seed=seed), 2.5,
    ),
    "random-corruption": (
        300, MAX_ROUNDS,
        lambda seed: RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=seed),
        2.5,
    ),
}


def _requests(runs, min_rounds, adversary_factory):
    config = SimulationConfig(
        max_rounds=MAX_ROUNDS, min_rounds=min_rounds, record_states=False
    )
    return [
        SimulationRequest(
            algorithm=AteAlgorithm.symmetric(n=N, alpha=1),
            initial_values=generators.uniform_random(N, seed=seed),
            adversary=adversary_factory(seed),
            config=config,
        )
        for seed in range(runs)
    ]


def _rows(results):
    return [
        RunRecord.from_result(result, run_index=index).as_dict()
        for index, result in enumerate(results)
    ]


def test_bench_batch_engine_speedup():
    """Batch backend ≥ 5× over fast for the fixed-horizon 1000-seed cell."""
    measurements = {}
    for name, (runs, min_rounds, factory, floor) in CELLS.items():
        started = time.perf_counter()
        fast_results = [
            run_simulation(
                request.algorithm, request.initial_values, request.adversary,
                request.config, backend="fast",
            )
            for request in _requests(runs, min_rounds, factory)
        ]
        fast_seconds = time.perf_counter() - started

        started = time.perf_counter()
        batch_results = run_algorithm_batch(_requests(runs, min_rounds, factory))
        batch_seconds = time.perf_counter() - started
        peak_mb = peak_rss_mb()

        # Semantic invisibility first: identical rows, then the timing.
        assert _rows(fast_results) == _rows(batch_results), f"{name}: backends disagree"
        assert all(
            result.metadata.get("engine") == "batch" for result in batch_results
        ), f"{name}: batch engine did not engage"
        measurements[name] = {
            "runs": runs,
            "fast_seconds": round(fast_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "speedup": round(fast_seconds / batch_seconds, 2),
            "floor": floor,
            # Lifetime high-water mark up to this cell (ru_maxrss never
            # decreases), so regressions show as jumps in the first cell
            # that allocates more than everything before it.
            "peak_rss_mb": round(peak_mb, 1),
        }

    payload = {
        "benchmark": "A_TE seed sweeps, per-run fast vs vectorised batch backend",
        "n": N,
        "max_rounds": MAX_ROUNDS,
        "record_states": False,
        "cells": measurements,
    }
    print(f"\n{json.dumps(payload, indent=2)}")
    for name, row in measurements.items():
        print(
            f"\n{name}: fast={row['fast_seconds']}s "
            f"batch={row['batch_seconds']}s ({row['speedup']}x)"
        )

    for name, row in measurements.items():
        assert row["speedup"] >= row["floor"], (
            f"{name}: {row['speedup']}x below the {row['floor']}x floor"
        )

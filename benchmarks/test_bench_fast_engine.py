"""Benchmark: the bitmask fast backend vs the reference lockstep engine.

Times an ``A_{T,E}`` sweep (``record_states=False``, random workloads,
fresh per-run seeds) on both engine backends across three adversary
environments:

* ``reliable`` — fault-free, native mask plan (the pure engine-overhead
  comparison); the acceptance bar: the fast backend must be **≥ 5×**
  faster at n ≥ 30;
* ``random-omission`` — native mask planner replaying the adversary's
  RNG stream;
* ``random-corruption`` — native planner for the paper's workhorse
  value-fault environment.

Every backend pair is first checked row-identical (the fast backend is
semantically invisible), then timed.  Measured speedups are printed;
the engine-performance trajectory lives in ``bench/results/history.jsonl``.
"""

from __future__ import annotations

import json
import time

from repro.adversary import (
    RandomCorruptionAdversary,
    RandomOmissionAdversary,
    ReliableAdversary,
)
from repro.algorithms import AteAlgorithm
from repro.runner.records import RunRecord
from repro.simulation import SimulationConfig, run_simulation
from repro.workloads import generators

N = 40
RUNS = 30
MAX_ROUNDS = 30

ENVIRONMENTS = {
    "reliable": lambda seed: ReliableAdversary(),
    "random-omission": lambda seed: RandomOmissionAdversary(0.15, seed=seed),
    "random-corruption": lambda seed: RandomCorruptionAdversary(
        alpha=1, value_domain=(0, 1), seed=seed
    ),
}


def _sweep(backend: str, adversary_factory):
    """One A_{T,E} sweep; returns (elapsed_seconds, per-run records)."""
    config = SimulationConfig(max_rounds=MAX_ROUNDS, record_states=False)
    records = []
    started = time.perf_counter()
    for index in range(RUNS):
        result = run_simulation(
            algorithm=AteAlgorithm.symmetric(n=N, alpha=1),
            initial_values=generators.uniform_random(N, seed=index),
            adversary=adversary_factory(index),
            config=config,
            backend=backend,
        )
        records.append(RunRecord.from_result(result, run_index=index).as_dict())
    return time.perf_counter() - started, records


def test_bench_fast_engine_speedup():
    """Fast backend ≥ 5× over reference for the fault-free A_{T,E} sweep."""
    measurements = {}
    for name, factory in ENVIRONMENTS.items():
        reference_seconds, reference_rows = _sweep("reference", factory)
        fast_seconds, fast_rows = _sweep("fast", factory)
        # Semantic invisibility first: identical rows, then the timing.
        assert reference_rows == fast_rows, f"{name}: backends disagree"
        measurements[name] = {
            "reference_seconds": round(reference_seconds, 4),
            "fast_seconds": round(fast_seconds, 4),
            "speedup": round(reference_seconds / fast_seconds, 2),
        }

    payload = {
        "benchmark": "A_TE sweep, reference vs fast backend",
        "n": N,
        "runs": RUNS,
        "max_rounds": MAX_ROUNDS,
        "record_states": False,
        "environments": measurements,
    }
    print(f"\n{json.dumps(payload, indent=2)}")
    for name, row in measurements.items():
        print(
            f"\n{name}: reference={row['reference_seconds']}s "
            f"fast={row['fast_seconds']}s ({row['speedup']}x)"
        )

    # The acceptance bar applies to the engine-overhead comparison; the
    # fault-injecting environments must at least never be slower.
    assert measurements["reliable"]["speedup"] >= 5.0
    assert measurements["random-omission"]["speedup"] >= 1.5
    assert measurements["random-corruption"]["speedup"] >= 1.5

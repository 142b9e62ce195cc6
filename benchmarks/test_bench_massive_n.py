"""Benchmark: massive-n sweeps on the packed batch tier.

Charts ``A_{T,E}`` decision latency and runtime at n ∈ {256, 512, 1024,
2048} under random omission — far beyond the paper's figures — and
pins the feasibility claim of the packed-bitset tier: the n = 1024
sweep must complete under the batch engine's 2 GiB memory budget at
**≥ 3×** the ``fast`` backend's wall-clock.  The dense representation
would need ~4 GB of reception matrix per 1000 runs at this size; the
packed tier carries ~1/32 of that.

The ``fast`` backend is timed on a per-n probe subset (per-run planning
is quadratic in n, so timing every run per tier would dominate the
harness) and extrapolated linearly — the probe size is recorded in the
artefact.  Probe rows are checked byte-identical between the backends
before any timing is trusted.  Results go to
``benchmarks/results/massive_n.json`` with wall-clock, peak RSS,
chunk counts and first/last decision-round latency per n.
"""

from __future__ import annotations

import json
import time

import pytest

pytest.importorskip("numpy")

from benchmarks.conftest import RESULTS_DIR, peak_rss_mb
from repro.adversary import RandomOmissionAdversary
from repro.algorithms import AteAlgorithm
from repro.runner.records import RunRecord
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation import batch_engine
from repro.simulation.batch_engine import SimulationRequest, run_algorithm_batch
from repro.workloads import generators

MAX_ROUNDS = 10
P_DROP = 0.1

#: n -> (batch runs, fast probe runs, speedup floor)
SWEEPS = {
    256: (24, 6, None),
    512: (16, 4, None),
    1024: (12, 3, 3.0),
    2048: (6, 2, None),
}


def _requests(n, runs):
    config = SimulationConfig(max_rounds=MAX_ROUNDS, min_rounds=1, record_states=False)
    return [
        SimulationRequest(
            algorithm=AteAlgorithm.symmetric(n=n, alpha=1),
            initial_values=generators.uniform_random(n, seed=seed),
            adversary=RandomOmissionAdversary(P_DROP, seed=seed),
            config=config,
        )
        for seed in range(runs)
    ]


def _rows(results):
    return [
        RunRecord.from_result(result, run_index=index).as_dict()
        for index, result in enumerate(results)
    ]


def _latency(records):
    firsts = [r["first_decision_round"] for r in records if r["first_decision_round"]]
    lasts = [r["last_decision_round"] for r in records if r["last_decision_round"]]
    return {
        "mean_first_decision_round": round(sum(firsts) / len(firsts), 2) if firsts else None,
        "max_last_decision_round": max(lasts) if lasts else None,
        "decided_runs": len(lasts),
    }


def test_bench_massive_n_packed_sweeps():
    """Packed tier ≥ 3× over fast at n = 1024 under a 2 GB budget."""
    measurements = {}
    for n, (runs, fast_runs, floor) in SWEEPS.items():
        started = time.perf_counter()
        fast_results = [
            run_simulation(
                request.algorithm, request.initial_values, request.adversary,
                request.config, backend="fast",
            )
            for request in _requests(n, fast_runs)
        ]
        fast_probe_seconds = time.perf_counter() - started
        fast_seconds_est = fast_probe_seconds * (runs / fast_runs)

        started = time.perf_counter()
        batch_results = run_algorithm_batch(_requests(n, runs))
        batch_seconds = time.perf_counter() - started

        # Semantic invisibility on the probe subset, then the timing.
        assert _rows(fast_results) == _rows(batch_results[:fast_runs]), (
            f"n={n}: backends disagree"
        )
        assert all(
            result.metadata.get("engine") == "batch" for result in batch_results
        ), f"n={n}: batch engine did not engage"

        batch_rows = _rows(batch_results)
        measurements[str(n)] = {
            "runs": runs,
            "fast_runs_measured": fast_runs,
            "fast_probe_seconds": round(fast_probe_seconds, 4),
            "fast_seconds_estimated": round(fast_seconds_est, 4),
            "batch_seconds": round(batch_seconds, 4),
            "speedup_vs_fast": round(fast_seconds_est / batch_seconds, 2),
            "floor": floor,
            "memory_budget": batch_engine._MEMORY_BUDGET,
            "batch_chunks": sum(
                result.metadata.get("batch_chunks", 0) for result in batch_results
            ),
            "peak_rss_mb": round(peak_rss_mb(), 1),
            **_latency(batch_rows),
        }

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "massive_n.json"
    payload = {
        "benchmark": "A_TE massive-n sweeps, packed batch tier vs fast backend",
        "adversary": f"random-omission p={P_DROP}",
        "max_rounds": MAX_ROUNDS,
        "record_states": False,
        "sweeps": measurements,
    }
    out.write_text(json.dumps(payload, indent=2))
    for n, row in measurements.items():
        print(
            f"\nn={n}: fast~{row['fast_seconds_estimated']}s "
            f"batch={row['batch_seconds']}s ({row['speedup_vs_fast']}x) "
            f"peak_rss={row['peak_rss_mb']}MiB chunks={row['batch_chunks']}"
        )

    for n, row in measurements.items():
        if row["floor"] is not None:
            assert row["speedup_vs_fast"] >= row["floor"], (
                f"n={n}: {row['speedup_vs_fast']}x below the {row['floor']}x floor"
            )

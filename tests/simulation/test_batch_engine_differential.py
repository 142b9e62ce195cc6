"""Differential tests: the batch backend is semantically invisible.

The batch engine executes whole seed sweeps as NumPy arrays, so it is
gated twice: every cell of the fast engine's differential grid must be
byte-identical when run as a single-request batch, and whole
heterogeneous sweeps (many seeds, mixed shapes, staggered early exits)
must match per-run reference execution run for run.  Byte-identical
records mean cache entries are shared across ``reference``/``fast``/
``batch`` without a schema bump.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.adversary import (
    BlockFaultAdversary,
    PeriodicGoodRoundAdversary,
    RandomCorruptionAdversary,
    RotatingSenderCorruptionAdversary,
)
from repro.adversary import plan
from repro.algorithms import AteAlgorithm
from repro.core.predicates import AlphaSafePredicate
from repro.runner import CampaignRunner, DecisionReducer, RunTask
from repro.runner.records import RunRecord
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation import batch_engine
from repro.simulation.batch_engine import SimulationRequest, run_algorithm_batch
from repro.workloads import generators
from test_fast_engine_differential import (
    ADVERSARIES,
    ALGORITHMS,
    MAX_ROUNDS,
    assert_equivalent,
)


def run_reference_and_batch(algorithm_factory, adversary_factory, n, seed=42,
                            **config_kwargs):
    config_kwargs.setdefault("max_rounds", MAX_ROUNDS)
    config = SimulationConfig(record_states=False, **config_kwargs)
    initial_values = generators.uniform_random(n, seed=seed)
    reference = run_simulation(
        algorithm_factory(n), initial_values, adversary_factory(n), config,
        backend="reference",
    )
    batch = run_simulation(
        algorithm_factory(n), initial_values, adversary_factory(n), config,
        backend="batch",
    )
    assert batch.metadata.get("engine") == "batch", "batch backend did not engage"
    return reference, batch


@pytest.mark.parametrize("n", [4, 10, 30])
@pytest.mark.parametrize("adversary_name", sorted(ADVERSARIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
def test_differential_grid(algorithm_name, adversary_name, n):
    reference, batch = run_reference_and_batch(
        ALGORITHMS[algorithm_name], ADVERSARIES[adversary_name], n
    )
    assert_equivalent(reference, batch)


class TestWholeSweepBatches:
    """Multi-run batches: the whole grid in one call, staggered exits."""

    def test_grid_slice_as_one_heterogeneous_batch(self):
        """Every algorithm × adversary cell at n=10, all seeds, in ONE
        ``run_algorithm_batch`` call: grouping by shape plus per-run
        early-exit masks must reproduce per-run reference execution."""
        config = SimulationConfig(max_rounds=MAX_ROUNDS, record_states=False)
        requests, references = [], []
        for algorithm_name in sorted(ALGORITHMS):
            for adversary_name in sorted(ADVERSARIES):
                for seed in (1, 2):
                    initial = generators.uniform_random(10, seed=seed)
                    requests.append(SimulationRequest(
                        ALGORITHMS[algorithm_name](10), initial,
                        adversary=ADVERSARIES[adversary_name](10), config=config,
                    ))
                    references.append(run_simulation(
                        ALGORITHMS[algorithm_name](10), initial,
                        ADVERSARIES[adversary_name](10), config,
                        backend="reference",
                    ))
        results = run_algorithm_batch(requests)
        assert len(results) == len(references)
        for reference, batch in zip(references, results):
            assert_equivalent(reference, batch)

    # One adversary per planning path: a registered batch planner, a
    # matrix-level adversary behind MatrixPlanAdapter, and a native
    # per-run MaskPlanner — the last two through the engine's per-run
    # adapter, where runs of one partition must also exit one by one.
    STAGGERED_ADVERSARIES = {
        "random-corruption": lambda seed: RandomCorruptionAdversary(
            alpha=1, corruption_probability=0.5, drop_probability=0.3,
            value_domain=(0, 1), seed=seed,
        ),
        "good-rounds": lambda seed: PeriodicGoodRoundAdversary(
            inner=RandomCorruptionAdversary(
                alpha=1, corruption_probability=0.5, drop_probability=0.3,
                value_domain=(0, 1), seed=seed,
            ),
            period=4,
        ),
        "block-faults": lambda seed: BlockFaultAdversary(
            faults_per_round=4, value_domain=(0, 1), seed=seed
        ),
    }

    @pytest.mark.parametrize("adversary_name", sorted(STAGGERED_ADVERSARIES))
    def test_staggered_early_exit(self, adversary_name):
        """Runs deciding at different rounds leave the active set one by
        one; finished runs must not keep accruing rounds or messages."""
        make_adversary = self.STAGGERED_ADVERSARIES[adversary_name]
        config = SimulationConfig(max_rounds=40, record_states=False)
        requests, references = [], []
        for seed in range(12):
            initial = generators.uniform_random(8, seed=seed)
            requests.append(SimulationRequest(
                AteAlgorithm.symmetric(n=8, alpha=1), initial,
                adversary=make_adversary(seed), config=config,
            ))
            references.append(run_simulation(
                AteAlgorithm.symmetric(n=8, alpha=1), initial,
                make_adversary(seed), config, backend="reference",
            ))
        results = run_algorithm_batch(requests)
        rounds = {r.rounds_executed for r in results}
        assert len(rounds) > 1, "cell too uniform to exercise staggered exits"
        for reference, batch in zip(references, results):
            assert_equivalent(reference, batch)

    def test_min_rounds_and_no_stop(self):
        for kwargs in ({"min_rounds": 9}, {"stop_when_all_decided": False},
                       {"min_rounds": MAX_ROUNDS}):
            reference, batch = run_reference_and_batch(
                ALGORITHMS["ute"], ADVERSARIES["good-phases"], n=6, **kwargs
            )
            assert_equivalent(reference, batch)

    def test_none_initial_values(self):
        """Degenerate None 'decisions' stay undecided in the active mask."""
        n = 4
        config = SimulationConfig(max_rounds=8, record_states=False)
        initial_values = {pid: None for pid in range(n)}
        reference = run_simulation(
            ALGORITHMS["ate"](n), initial_values,
            ADVERSARIES["reliable"](n), config, backend="reference",
        )
        batch = run_simulation(
            ALGORITHMS["ate"](n), initial_values,
            ADVERSARIES["reliable"](n), config, backend="batch",
        )
        assert batch.metadata.get("engine") == "batch"
        assert_equivalent(reference, batch)
        assert batch.rounds_executed == 8


class TestRecordByteEquality:
    """Cached rows and reduced records are byte-identical across backends."""

    def _task(self, backend, n=9):
        return RunTask(
            algorithm=AteAlgorithm.symmetric(n=n, alpha=1),
            adversary=PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=11),
                period=4,
            ),
            initial_values=generators.split(n),
            max_rounds=20,
            predicate=AlphaSafePredicate(1),
            key="batch-differential/0000",
            cell={"algorithm": "ate", "n": n},
            run_index=0,
            seed=11,
            backend=backend,
        )

    def test_run_records_byte_identical(self):
        records = {}
        for backend in ("reference", "batch"):
            runner = CampaignRunner()
            records[backend] = runner.run_tasks([self._task(backend)])[0]
        assert records["reference"].as_dict() == records["batch"].as_dict()

    def test_reduced_records_byte_identical(self):
        reduced = {}
        for backend in ("reference", "batch"):
            runner = CampaignRunner()
            reduced[backend] = runner.run_reduced(
                [self._task(backend)], DecisionReducer()
            )[0]
        assert reduced["reference"].as_dict() == reduced["batch"].as_dict()

    def test_cache_entries_shared_with_batch(self, tmp_path):
        """A row cached by the batch backend is a hit for reference/fast."""
        runner_batch = CampaignRunner(cache=str(tmp_path), backend="batch")
        first = runner_batch.run_tasks([self._task(None)])[0]
        assert runner_batch.stats.cache_misses == 1
        assert runner_batch.stats.batched == 1
        for other in ("reference", "fast"):
            runner = CampaignRunner(cache=str(tmp_path), backend=other)
            second = runner.run_tasks([self._task(None)])[0]
            assert runner.stats.cache_hits == 1
            assert first.as_dict() == second.as_dict()


class TestBatchPlanning:
    """The batch-planner tier is pure acceleration: same bytes, off or on."""

    def _sweep(self):
        config = SimulationConfig(max_rounds=15, record_states=False)
        return [
            SimulationRequest(
                AteAlgorithm.symmetric(n=8, alpha=1),
                generators.uniform_random(8, seed=seed),
                adversary=RandomCorruptionAdversary(
                    alpha=1, value_domain=(0, 1), seed=seed
                ),
                config=config,
            )
            for seed in range(6)
        ]

    def test_planning_knob_off_matches_on(self, monkeypatch):
        """With the batch-planner registry emptied every run plans per
        run behind the engine's adapter; the produced collections must
        be byte-identical to the batch-planned path."""
        planned = run_algorithm_batch(self._sweep())
        monkeypatch.setattr(plan, "_BATCH_PLANNERS", {})
        fallback = run_algorithm_batch(self._sweep())
        for on_result, off_result in zip(planned, fallback):
            assert_equivalent(on_result, off_result)
            assert on_result.metadata.get("batch_planned_rounds", 0) > 0
            assert off_result.metadata.get("batch_planned_rounds", 0) == 0

    def test_batch_planned_rounds_metadata(self):
        """Registered adversary classes report every round as batch
        planned; wrapped adversaries and classes that plan per run
        (rotating-sender and block faults) report zero and still
        match the reference engine."""
        planned = run_algorithm_batch(self._sweep())
        for result in planned:
            assert (
                result.metadata["batch_planned_rounds"] == result.rounds_executed
            )
        config = SimulationConfig(max_rounds=10, record_states=False)
        wrapped = run_algorithm_batch(
            [
                SimulationRequest(
                    AteAlgorithm.symmetric(n=6, alpha=1),
                    generators.uniform_random(6, seed=3),
                    adversary=PeriodicGoodRoundAdversary(
                        inner=RandomCorruptionAdversary(
                            alpha=1, value_domain=(0, 1), seed=3
                        ),
                        period=3,
                    ),
                    config=config,
                )
            ]
        )[0]
        assert wrapped.metadata.get("batch_planned_rounds", 0) == 0

        per_run = {
            "rotating-corruption": lambda seed: RotatingSenderCorruptionAdversary(
                alpha=1, value_domain=(0, 1), seed=seed
            ),
            "block-faults": lambda seed: BlockFaultAdversary(
                faults_per_round=3, value_domain=(0, 1), seed=seed
            ),
        }
        for name, make_adversary in per_run.items():
            requests, references = [], []
            for seed in range(3):
                initial = generators.uniform_random(6, seed=seed)
                requests.append(SimulationRequest(
                    AteAlgorithm.symmetric(n=6, alpha=1), initial,
                    adversary=make_adversary(seed), config=config,
                ))
                references.append(run_simulation(
                    AteAlgorithm.symmetric(n=6, alpha=1), initial,
                    make_adversary(seed), config, backend="reference",
                ))
            for reference, batch in zip(references, run_algorithm_batch(requests)):
                assert batch.metadata["batch_planned_rounds"] == 0, name
                assert RunRecord.from_result(batch).as_dict() == (
                    RunRecord.from_result(reference).as_dict()
                ), name
                assert_equivalent(reference, batch)


class TestPackedTierAndChunking:
    """The packed uint64 tier and the memory-budget chunker are pure
    acceleration: byte-identical records packed-vs-dense (including a
    sampled large-n tier, where ``auto`` actually packs) and
    chunked-vs-unchunked."""

    # Families that exercise every packed code path: the perfect-round
    # template, batch-planned drop words, drop+corrupt scatter, and the
    # per-run planner fallback (no batch planner registered).
    LARGE_N_FAMILIES = [
        "reliable",
        "random-omission",
        "random-corruption-drops",
        "bounded-omission",
    ]

    def _sweep(self, n, adversary_name, seeds=2, max_rounds=10):
        config = SimulationConfig(max_rounds=max_rounds, record_states=False)
        return [
            SimulationRequest(
                AteAlgorithm.symmetric(n=n, alpha=1),
                generators.uniform_random(n, seed=seed),
                adversary=ADVERSARIES[adversary_name](n),
                config=config,
            )
            for seed in range(seeds)
        ]

    @pytest.mark.parametrize("adversary_name", LARGE_N_FAMILIES)
    def test_large_n_packed_matches_dense(self, monkeypatch, adversary_name):
        """n = 256 sampled tier: force the dense tier, then the packed
        tier, and require byte-identical collections and outcomes."""
        monkeypatch.setattr(batch_engine, "_PACKED_MIN_N", 10**9)
        dense = run_algorithm_batch(self._sweep(256, adversary_name))
        monkeypatch.setattr(batch_engine, "_PACKED_MIN_N", 0)
        packed = run_algorithm_batch(self._sweep(256, adversary_name))
        for dense_result, packed_result in zip(dense, packed):
            assert_equivalent(dense_result, packed_result)

    @pytest.mark.parametrize("adversary_name", sorted(ADVERSARIES))
    def test_small_n_packed_matches_dense(self, monkeypatch, adversary_name):
        """Every grid family at n = 10 with the packed tier forced on
        (groups stay dense below n = 128 by default)."""
        dense = run_algorithm_batch(self._sweep(10, adversary_name, seeds=3))
        monkeypatch.setattr(batch_engine, "_PACKED_MIN_N", 0)
        packed = run_algorithm_batch(self._sweep(10, adversary_name, seeds=3))
        for dense_result, packed_result in zip(dense, packed):
            assert_equivalent(dense_result, packed_result)

    @pytest.mark.parametrize("packed_min_n", [0, 10**9], ids=["on", "off"])
    def test_large_n_chunked_matches_unchunked(self, monkeypatch, packed_min_n):
        """A budget small enough to split the run axis must not change a
        byte, and the split must be visible in the chunk markers."""
        monkeypatch.setattr(batch_engine, "_PACKED_MIN_N", packed_min_n)
        whole = run_algorithm_batch(self._sweep(256, "random-omission", seeds=4))
        monkeypatch.setattr(batch_engine, "_MEMORY_BUDGET", 100 * 1024)
        chunked = run_algorithm_batch(self._sweep(256, "random-omission", seeds=4))
        splits = sum(r.metadata.get("batch_chunks", 0) for r in chunked)
        assert splits > 0, "budget did not force a split"
        assert all(r.metadata.get("batch_chunks", 0) == 0 for r in whole)
        for whole_result, chunked_result in zip(whole, chunked):
            assert_equivalent(whole_result, chunked_result)

    def test_chunked_reference_parity(self, monkeypatch):
        """Chunked execution is still byte-identical to the reference
        engine (not merely self-consistent)."""
        monkeypatch.setattr(batch_engine, "_MEMORY_BUDGET", 8 * 1024)
        config = SimulationConfig(max_rounds=MAX_ROUNDS, record_states=False)
        requests, references = [], []
        for seed in range(6):
            initial = generators.uniform_random(10, seed=seed)
            requests.append(SimulationRequest(
                AteAlgorithm.symmetric(n=10, alpha=1), initial,
                adversary=RandomCorruptionAdversary(
                    alpha=1, value_domain=(0, 1), seed=seed
                ),
                config=config,
            ))
            references.append(run_simulation(
                AteAlgorithm.symmetric(n=10, alpha=1), initial,
                RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=seed),
                config, backend="reference",
            ))
        chunked = run_algorithm_batch(requests)
        assert sum(r.metadata.get("batch_chunks", 0) for r in chunked) > 0
        for reference, batch in zip(references, chunked):
            assert_equivalent(reference, batch)

    def test_default_budget_keeps_bench_sized_groups_whole(self):
        """The fixed 2 GiB budget leaves every group the benchmarks run in
        one chunk: 300 runs at n = 16, 600 dense runs at n = 40, 48 packed
        runs at n = 1024 and the massive-n sweeps up to n = 2048."""
        assert batch_engine._MEMORY_BUDGET == 2 * 1024**3
        for n, runs in ((16, 300), (40, 600), (256, 24), (512, 16), (1024, 48), (2048, 6)):
            per_run = batch_engine._per_run_bytes(n, batch_engine._packed_tier(n))
            assert batch_engine._MEMORY_BUDGET // per_run >= runs, (n, runs)

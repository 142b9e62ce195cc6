"""Executor batch dispatch: whole task groups through ``run_batch``.

The runner must hand same-shape, same-backend task groups to
batch-capable backends, fall back per-run for everything else (and on
batch failure), and keep every record byte-identical to per-run
execution — cache, stats and ordering included.
"""

import pytest

from repro.adversary import RandomOmissionAdversary, ReliableAdversary
from repro.algorithms import AteAlgorithm, PhaseKingAlgorithm
from repro.runner import CampaignRunner, DecisionReducer, RunTask
from repro.runner.executor import cacheable_key
from repro.simulation.backends import get_backend, run_simulation
from repro.workloads import generators

np = pytest.importorskip("numpy")


def make_task(n=6, seed=0, key=None, backend=None, **kwargs):
    return RunTask(
        algorithm=AteAlgorithm.symmetric(n=n, alpha=1),
        adversary=RandomOmissionAdversary(0.2, seed=seed),
        initial_values=generators.uniform_random(n, seed=seed),
        max_rounds=kwargs.pop("max_rounds", 20),
        key=key,
        seed=seed,
        backend=backend,
        **kwargs,
    )


def dump(records):
    return [record.as_dict() for record in records]


class ShadowFastBackend:
    """An instance whose ``name`` shadows the registered ``fast`` backend.

    Tags every run so dispatch-by-instance is observable; declares
    itself non-equivalent so it must be excluded from caching.
    """

    name = "fast"
    fallback = None
    equivalent_to_reference = False
    supports_batch = False

    def supports(self, algorithm, adversary, config, observers):
        return True

    def run(self, algorithm, initial_values, adversary, config, observers, spec):
        result = get_backend("reference").run(
            algorithm, initial_values, adversary, config, observers, spec
        )
        result.metadata["engine"] = "shadow"
        return result


class FailingBatchBackend:
    """Batch-capable backend whose ``run_batch`` always aborts."""

    name = "failing-batch"
    fallback = None
    equivalent_to_reference = True
    supports_batch = True

    def supports(self, algorithm, adversary, config, observers):
        return get_backend("batch").supports(algorithm, adversary, config, observers)

    def run(self, algorithm, initial_values, adversary, config, observers, spec):
        return get_backend("fast").run(
            algorithm, initial_values, adversary, config, observers, spec
        )

    def run_batch(self, requests):
        raise RuntimeError("batch aborted mid-flight")


class BrokenRunBackend(FailingBatchBackend):
    """Aborts as a batch, and the seed-1 run fails again when retried alone."""

    name = "broken-run"

    def run(self, algorithm, initial_values, adversary, config, observers, spec):
        if adversary.seed == 1:
            raise RuntimeError("run exploded")
        return super().run(algorithm, initial_values, adversary, config, observers, spec)


class TestRunTasksBatching:
    def test_records_byte_identical_and_counted(self):
        tasks = [make_task(seed=s) for s in range(8)]
        reference = CampaignRunner(backend="reference").run_tasks(
            [make_task(seed=s) for s in range(8)]
        )
        runner = CampaignRunner(backend="batch")
        records = runner.run_tasks(tasks)
        assert dump(records) == dump(reference)
        assert runner.stats.batched == 8
        assert "batched=8" in runner.stats.summary()
        # Every round of every batched run was array-planned: the
        # omission adversary has a registered batch planner.
        planned = sum(r.rounds_executed for r in records)
        assert runner.stats.batch_planned == planned
        assert f"batch_planned={planned}" in runner.stats.summary()

    def test_mixed_batchable_and_per_run_tasks(self):
        """Unsupported tasks split off to per-run dispatch; order and
        records are preserved either way."""
        def build_tasks():
            tasks = [make_task(seed=0), make_task(seed=1, record_states=True)]
            tasks.append(RunTask(
                algorithm=PhaseKingAlgorithm(n=5, f=1),
                adversary=ReliableAdversary(),
                initial_values=generators.split(5),
                max_rounds=20,
            ))
            tasks.append(make_task(seed=2))
            return tasks

        reference = CampaignRunner(backend="reference").run_tasks(build_tasks())
        runner = CampaignRunner(backend="batch")
        records = runner.run_tasks(build_tasks())
        assert dump(records) == dump(reference)
        assert runner.stats.batched == 2  # seeds 0 and 2 only

    def test_pooled_chunks_stay_byte_identical(self):
        tasks = [make_task(seed=s) for s in range(9)]
        serial = CampaignRunner(backend="batch").run_tasks(
            [make_task(seed=s) for s in range(9)]
        )
        with CampaignRunner(backend="batch", jobs=2) as runner:
            pooled = runner.run_tasks(tasks)
            assert runner.stats.batched == 9
            # Planner counts survive the worker-process round trip.
            assert runner.stats.batch_planned == sum(r.rounds_executed for r in pooled)
        assert dump(pooled) == dump(serial)

    def test_timeout_disables_batching(self):
        runner = CampaignRunner(backend="batch", timeout=30.0)
        records = runner.run_tasks([make_task(seed=s) for s in range(3)])
        assert runner.stats.batched == 0
        assert runner.stats.batch_planned == 0
        assert all(record.ok for record in records)

    def test_cache_roundtrip_through_batch(self, tmp_path):
        tasks = [make_task(seed=s, key=f"batch-cache/{s}") for s in range(4)]
        first = CampaignRunner(backend="batch", cache=str(tmp_path))
        initial = first.run_tasks(tasks)
        assert first.stats.cache_misses == 4
        second = CampaignRunner(backend="fast", cache=str(tmp_path))
        replay = second.run_tasks(
            [make_task(seed=s, key=f"batch-cache/{s}") for s in range(4)]
        )
        assert second.stats.cache_hits == 4
        assert dump(replay) == dump(initial)


class TestBatchFailureRecovery:
    def test_failed_batch_falls_back_per_run(self):
        backend = FailingBatchBackend()
        tasks = [make_task(seed=s, backend=backend) for s in range(4)]
        reference = CampaignRunner(backend="reference").run_tasks(
            [make_task(seed=s) for s in range(4)]
        )
        runner = CampaignRunner()
        records = runner.run_tasks(tasks)
        # Runs were routed to the batch, which aborted; per-run retry
        # must still produce the exact per-run records.
        assert runner.stats.batched == 4
        assert dump(records) == dump(reference)

    def test_failed_batch_in_run_reduced(self):
        backend = FailingBatchBackend()
        tasks = [make_task(seed=s, backend=backend, key=f"fail/{s}") for s in range(3)]
        reference = CampaignRunner(backend="reference").run_reduced(
            [make_task(seed=s, key=f"fail/{s}") for s in range(3)], DecisionReducer()
        )
        runner = CampaignRunner()
        records = runner.run_reduced(tasks, DecisionReducer())
        assert runner.stats.batched == 3
        assert dump(records) == dump(reference)

    def test_failed_batch_in_run_simulations(self):
        backend = FailingBatchBackend()
        reference = CampaignRunner(backend="reference").run_simulations(
            [make_task(seed=s) for s in range(3)]
        )
        runner = CampaignRunner()
        results = runner.run_simulations([make_task(seed=s, backend=backend) for s in range(3)])
        assert runner.stats.batched == 3
        for expected, actual in zip(reference, results):
            assert expected.outcome == actual.outcome
            assert expected.rounds_executed == actual.rounds_executed

    def test_failed_batch_recovers_in_pool_workers(self):
        backend = FailingBatchBackend()
        reference = CampaignRunner(backend="reference").run_tasks(
            [make_task(seed=s) for s in range(4)]
        )
        with CampaignRunner(jobs=2) as runner:
            records = runner.run_tasks([make_task(seed=s, backend=backend) for s in range(4)])
            assert runner.stats.batched == 4
        assert dump(records) == dump(reference)

    def test_retry_isolates_the_failing_run(self):
        """After the batch aborts, only the run that fails on its own
        becomes a failure record; its neighbours match per-run output."""
        backend = BrokenRunBackend()
        reference = CampaignRunner(backend="reference").run_tasks(
            [make_task(seed=s) for s in range(3)]
        )
        runner = CampaignRunner()
        records = runner.run_tasks(
            [make_task(seed=s, backend=backend) for s in range(3)], capture_errors=True
        )
        assert [record.ok for record in records] == [True, False, True]
        assert "run exploded" in records[1].error
        assert dump([records[0], records[2]]) == dump([reference[0], reference[2]])
        assert runner.stats.failures == 1

    def test_run_error_after_failed_batch_propagates_from_run_simulations(self):
        backend = BrokenRunBackend()
        with pytest.raises(RuntimeError, match="run exploded"):
            CampaignRunner().run_simulations(
                [make_task(seed=s, backend=backend) for s in range(3)]
            )


@pytest.mark.parametrize("jobs", [1, 2])
class TestRunReducedBatching:
    def test_reduced_records_byte_identical(self, jobs):
        tasks = [make_task(seed=s, key=f"red/{s}") for s in range(6)]
        reference = CampaignRunner(backend="reference").run_reduced(
            [make_task(seed=s, key=f"red/{s}") for s in range(6)], DecisionReducer()
        )
        with CampaignRunner(backend="batch", jobs=jobs) as runner:
            records = runner.run_reduced(tasks, DecisionReducer())
            assert runner.stats.batched == len(tasks)
        assert dump(records) == dump(reference)


@pytest.mark.parametrize("jobs", [1, 2])
class TestRunSimulationsBatching:
    def test_results_match_reference(self, jobs):
        tasks = [make_task(seed=s) for s in range(5)]
        reference = CampaignRunner(backend="reference").run_simulations(
            [make_task(seed=s) for s in range(5)]
        )
        with CampaignRunner(backend="batch", jobs=jobs) as runner:
            results = runner.run_simulations(tasks)
            assert runner.stats.batched == len(tasks)
        for expected, actual in zip(reference, results):
            assert actual.metadata.get("engine") == "batch"
            assert expected.outcome == actual.outcome
            assert expected.metrics.as_dict() == actual.metrics.as_dict()


class TestBackendInstanceDispatch:
    """Regression: an instance whose name shadows a registered backend
    must be dispatched as-is, not re-resolved through the registry."""

    def test_run_simulation_uses_instance_not_registry(self):
        shadow = ShadowFastBackend()
        task = make_task(seed=1)
        result = run_simulation(
            task.algorithm, task.initial_values, task.adversary,
            backend=shadow,
        )
        assert result.metadata.get("engine") == "shadow"

    def test_run_task_uses_instance_not_registry(self):
        shadow = ShadowFastBackend()
        records = CampaignRunner().run_tasks([make_task(seed=1, backend=shadow)])
        reference = CampaignRunner().run_tasks([make_task(seed=1)])
        # Shadow delegates to reference, so the rows still match — the
        # regression would be silently running the *registered* fast
        # backend instead of the instance.
        assert dump(records) == dump(reference)

    def test_shadow_instance_excluded_from_cache(self, tmp_path):
        shadow = ShadowFastBackend()
        task = make_task(seed=1, key="shadow/0", backend=shadow)
        # Judged by the instance's own equivalence flag, not the
        # registered `fast` entry it shadows.
        assert cacheable_key(task) is None
        runner = CampaignRunner(cache=str(tmp_path))
        runner.run_tasks([task])
        assert runner.stats.cache_misses == 0
        assert runner.stats.cache_hits == 0

    def test_runner_default_backend_instance(self):
        shadow = ShadowFastBackend()
        runner = CampaignRunner(backend=shadow)
        records = runner.run_tasks([make_task(seed=2)])
        reference = CampaignRunner().run_tasks([make_task(seed=2)])
        assert dump(records) == dump(reference)

    def test_batch_capable_instance_is_batched(self):
        backend = get_backend("batch")
        runner = CampaignRunner(backend=backend)
        records = runner.run_tasks([make_task(seed=s) for s in range(3)])
        reference = CampaignRunner().run_tasks([make_task(seed=s) for s in range(3)])
        assert runner.stats.batched == 3
        assert dump(records) == dump(reference)

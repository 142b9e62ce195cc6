"""Tests for the campaign executor: caching, determinism, parallelism, timeouts.

The adversaries used by the timeout/error tests are defined at module
level so they can be pickled into worker processes.
"""

import json
import time

import pytest

from repro.adversary.base import EdgeAdversary, Fate
from repro.algorithms import AteAlgorithm
from repro.core.predicates import AlphaSafePredicate
from repro.experiments.common import run_batch, run_batch_results
from repro.experiments.table1 import validate_ate_row
from repro.runner import (
    AdversarySpec,
    AlgorithmSpec,
    CampaignRunner,
    CampaignSpec,
    PredicateSpec,
    ResultCache,
    RunTask,
    WorkloadSpec,
    batch_report_from_records,
    campaign_report,
)
from repro.runner.records import RunRecord
from repro.verification.properties import aggregate
from repro.workloads import generators


class SleepyAdversary(EdgeAdversary):
    """Delivers everything, very slowly (for timeout tests)."""

    name = "sleepy"

    def begin_round(self, round_num, intended):
        time.sleep(0.5)

    def fate(self, round_num, sender, receiver, payload):
        return Fate.deliver()


class ExplodingAdversary(EdgeAdversary):
    """Raises mid-run (for error-capture tests)."""

    name = "exploding"

    def fate(self, round_num, sender, receiver, payload):
        raise RuntimeError("boom")


class ReliableAdversaryForReuse(EdgeAdversary):
    """Module-level reliable adversary (picklable into worker processes)."""

    name = "reliable-reuse"

    def fate(self, round_num, sender, receiver, payload):
        return Fate.deliver()


def make_task(n=5, alpha=0, adversary=None, **kwargs) -> RunTask:
    return RunTask(
        algorithm=AteAlgorithm.symmetric(n=n, alpha=alpha),
        adversary=adversary,
        initial_values=generators.split(n),
        max_rounds=kwargs.pop("max_rounds", 20),
        **kwargs,
    )


def demo_campaign(runs=3, base_seed=7) -> CampaignSpec:
    return CampaignSpec(
        campaign_id="executor-test",
        algorithms=[AlgorithmSpec("ate", {"alpha": 1}), AlgorithmSpec("ute", {"alpha": 1})],
        adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1, "period": 4})],
        predicates=[PredicateSpec("alpha-safe", {"alpha": 1})],
        ns=[6],
        runs=runs,
        base_seed=base_seed,
        max_rounds=30,
        workload=WorkloadSpec("random"),
    )


class TestBatchParity:
    """run_batch through the runner == the historical serial aggregate."""

    def test_batch_report_matches_direct_aggregation(self):
        n, alpha, runs = 6, 1, 4
        predicate = AlphaSafePredicate(alpha)

        def algorithm_factory(index):
            return AteAlgorithm.symmetric(n=n, alpha=alpha)

        def adversary_factory(index):
            from repro.adversary import PeriodicGoodRoundAdversary, RandomCorruptionAdversary

            return PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(alpha=alpha, value_domain=(0, 1), seed=index),
                period=4,
            )

        batches = generators.batch(n, runs, seed=3)
        via_runner = run_batch(
            algorithm_factory, adversary_factory, batches, max_rounds=30, predicate=predicate
        )
        results = run_batch_results(algorithm_factory, adversary_factory, batches, max_rounds=30)
        direct = aggregate(results, predicate=predicate)
        assert via_runner.as_dict() == direct.as_dict()
        assert via_runner.decision_rounds == direct.decision_rounds


class TestSeedDeterminism:
    def test_same_spec_gives_byte_identical_records(self):
        first = CampaignRunner().run_campaign(demo_campaign())
        second = CampaignRunner().run_campaign(demo_campaign())
        as_json = lambda res: json.dumps(  # noqa: E731 - tiny helper
            [record.as_dict() for record in res.records], sort_keys=True
        )
        assert as_json(first) == as_json(second)

    def test_same_spec_gives_byte_identical_report_rows(self):
        spec = demo_campaign()
        first = campaign_report(spec, CampaignRunner().run_campaign(spec).records)
        second = campaign_report(spec, CampaignRunner().run_campaign(spec).records)
        assert json.dumps(first.rows, default=str) == json.dumps(second.rows, default=str)

    def test_different_base_seed_changes_runs(self):
        first = CampaignRunner().run_campaign(demo_campaign(base_seed=7))
        second = CampaignRunner().run_campaign(demo_campaign(base_seed=8))
        assert [r.seed for r in first.records] != [r.seed for r in second.records]


class TestParallelEquivalence:
    def test_campaign_records_identical_serial_vs_parallel(self):
        spec = demo_campaign()
        serial = CampaignRunner(jobs=1).run_campaign(spec)
        with CampaignRunner(jobs=2) as runner:
            parallel = runner.run_campaign(spec)
        assert [r.as_dict() for r in serial.records] == [r.as_dict() for r in parallel.records]

    def test_e1_rows_identical_serial_vs_parallel(self):
        serial = validate_ate_row(n=6, runs=3, seed=2, max_rounds=25)
        with CampaignRunner(jobs=2) as runner:
            parallel = validate_ate_row(n=6, runs=3, seed=2, max_rounds=25, runner=runner)
        assert json.dumps(serial.rows, default=str) == json.dumps(parallel.rows, default=str)

    def test_run_simulations_preserves_order(self):
        from repro.adversary import ReliableAdversary

        tasks = [make_task(n=4, adversary=ReliableAdversary()) for _ in range(3)]
        serial = CampaignRunner(jobs=1).run_simulations(tasks)
        with CampaignRunner(jobs=2) as runner:
            parallel = runner.run_simulations(tasks)
        assert [r.outcome.decision_values for r in serial] == [
            r.outcome.decision_values for r in parallel
        ]

    def test_pool_is_reused_across_calls(self):
        with CampaignRunner(jobs=2) as runner:
            runner.run_tasks([make_task(n=4, adversary=ReliableAdversaryForReuse())])
            pool = runner._pool
            runner.run_tasks([make_task(n=4, adversary=ReliableAdversaryForReuse())])
            assert runner._pool is pool
        assert runner._pool is None


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("key") is None
        cache.put("key", RunRecord(agreement=True))
        hit = cache.get("key")
        assert hit is not None and hit.agreement
        # Hits and misses are counted once, by the runner that looks up.
        runner = CampaignRunner(cache=ResultCache(tmp_path / "runner"))
        task = make_task(n=4, adversary=ReliableAdversaryForReuse(), key="miss-then-hit")
        runner.run_tasks([task])
        runner.run_tasks([task])
        assert runner.stats.cache_hits == 1 and runner.stats.cache_misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("key", RunRecord())
        cache.path_for("key").write_text("{not json", encoding="utf-8")
        assert cache.get("key") is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", RunRecord())
        cache.put("b", RunRecord())
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_campaign_rerun_hits_cache_with_identical_records(self, tmp_path):
        spec = demo_campaign()
        first_runner = CampaignRunner(cache=ResultCache(tmp_path))
        first = first_runner.run_campaign(spec)
        assert first_runner.stats.executed == len(first.records)
        assert first_runner.stats.cache_hits == 0

        second_runner = CampaignRunner(cache=ResultCache(tmp_path))
        second = second_runner.run_campaign(spec)
        assert second_runner.stats.executed == 0
        assert second_runner.stats.cache_hits == len(second.records)
        assert [r.as_dict() for r in first.records] == [r.as_dict() for r in second.records]

    def test_driver_rerun_hits_cache_with_identical_rows(self, tmp_path):
        first_runner = CampaignRunner(cache=ResultCache(tmp_path))
        first = validate_ate_row(n=6, runs=3, seed=2, max_rounds=25, runner=first_runner)
        assert first_runner.stats.cache_misses > 0 and first_runner.stats.cache_hits == 0

        second_runner = CampaignRunner(cache=ResultCache(tmp_path))
        second = validate_ate_row(n=6, runs=3, seed=2, max_rounds=25, runner=second_runner)
        assert second_runner.stats.executed == 0
        assert second_runner.stats.cache_hits == first_runner.stats.cache_misses
        assert json.dumps(first.rows, default=str) == json.dumps(second.rows, default=str)

    def test_changed_parameters_do_not_reuse_cache(self, tmp_path):
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        validate_ate_row(n=6, runs=3, seed=2, max_rounds=25, runner=runner)
        other_seed = CampaignRunner(cache=ResultCache(tmp_path))
        validate_ate_row(n=6, runs=3, seed=3, max_rounds=25, runner=other_seed)
        assert other_seed.stats.cache_hits == 0


class TestTimeoutsAndErrors:
    def test_timeout_produces_timed_out_record(self):
        runner = CampaignRunner(timeout=0.1)
        records = runner.run_tasks([make_task(n=4, adversary=SleepyAdversary())])
        assert records[0].timed_out and not records[0].ok
        assert runner.stats.timeouts == 1

    def test_error_propagates_by_default(self):
        with pytest.raises(RuntimeError, match="boom"):
            CampaignRunner().run_tasks([make_task(n=4, adversary=ExplodingAdversary())])

    def test_error_captured_when_requested(self):
        runner = CampaignRunner()
        records = runner.run_tasks(
            [make_task(n=4, adversary=ExplodingAdversary())], capture_errors=True
        )
        assert records[0].error and "boom" in records[0].error
        assert runner.stats.failures == 1

    def test_infeasible_campaign_cell_becomes_failure_record(self):
        spec = CampaignSpec(
            campaign_id="broken",
            algorithms=[AlgorithmSpec("no-such-algorithm")],
            adversaries=[AdversarySpec("reliable")],
            ns=[4],
            runs=2,
        )
        result = CampaignRunner().run_campaign(spec)
        assert len(result.records) == 2
        assert all(not record.ok for record in result.records)
        report = campaign_report(spec, result.records)
        assert report.rows and report.rows[0]["errors"] == 2

    def test_failed_records_cannot_be_aggregated(self):
        with pytest.raises(RuntimeError):
            batch_report_from_records([RunRecord.failure("boom")])

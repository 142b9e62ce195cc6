"""Tests for the in-worker reduction path and the runner correctness fixes.

Reducers and adversaries used in worker-pool tests are built from
module-level (picklable) classes only.
"""

import json
import signal
import time

import pytest

from repro.adversary import PeriodicGoodRoundAdversary, RandomCorruptionAdversary
from repro.algorithms import AteAlgorithm
from repro.core.predicates import AlphaSafePredicate, PermanentAlphaPredicate
from repro.experiments.common import run_batch_results, run_reduced_batch
from repro.experiments.liveness import alive_predicate_effect
from repro.runner import (
    AdversarySpec,
    AlgorithmSpec,
    CampaignRunner,
    CampaignSpec,
    DecisionReducer,
    FaultProfileReducer,
    PredicateReducer,
    PredicateSpec,
    ReducedRecord,
    ResultCache,
    RunTask,
    WorkloadSpec,
    batch_report_from_reduced,
    make_reducer,
    reduced_cache_key,
    reduced_campaign_report,
)
from repro.runner.executor import RunTimeoutError, _deadline
from repro.verification.properties import aggregate
from repro.workloads import generators


def make_tasks(count=4, n=5, alpha=1, max_rounds=20, key_prefix=None):
    """Fresh task objects per call: runs mutate adversary state in-process."""
    return [
        RunTask(
            algorithm=AteAlgorithm.symmetric(n=n, alpha=alpha),
            adversary=PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(
                    alpha=alpha, value_domain=(0, 1), seed=index
                ),
                period=4,
            ),
            initial_values=generators.split(n),
            max_rounds=max_rounds,
            key=f"{key_prefix}/{index:04d}" if key_prefix else None,
            run_index=index,
        )
        for index in range(count)
    ]


def standard_reducers():
    return {
        "decision": DecisionReducer(),
        "fault-profile": FaultProfileReducer(),
        "predicate": PredicateReducer(
            {"safe": AlphaSafePredicate(1), "perm": PermanentAlphaPredicate(1)}
        ),
    }


class TestInWorkerReduction:
    """reducer-in-worker == reducer-in-parent, serial and across workers."""

    @pytest.mark.parametrize("name", ["decision", "fault-profile", "predicate"])
    def test_worker_reduction_matches_parent_reduction(self, name):
        reducer = standard_reducers()[name]
        in_parent = [
            reducer.reduce(result)
            for result in CampaignRunner(jobs=1).run_simulations(make_tasks())
        ]
        serial = CampaignRunner(jobs=1).run_reduced(make_tasks(), reducer)
        with CampaignRunner(jobs=4) as runner:
            parallel = runner.run_reduced(make_tasks(), reducer)
        assert [r.data for r in serial] == in_parent
        assert [r.data for r in parallel] == in_parent
        assert [r.run_index for r in parallel] == [t.run_index for t in make_tasks()]

    def test_reduced_batch_report_matches_full_result_aggregate(self):
        """What the migrated drivers rely on: identical BatchReports."""

        def algorithm_factory(index):
            return AteAlgorithm.symmetric(n=5, alpha=1)

        def adversary_factory(index):
            return PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=index),
                period=4,
            )

        batches = generators.batch(5, 4, seed=3)
        results = run_batch_results(
            algorithm_factory, adversary_factory, batches, max_rounds=20
        )
        direct = aggregate(results, predicate=AlphaSafePredicate(1))
        for jobs in (1, 4):
            with CampaignRunner(jobs=jobs) as runner:
                rows = run_reduced_batch(
                    algorithm_factory,
                    adversary_factory,
                    batches,
                    reducer=PredicateReducer({"safe": AlphaSafePredicate(1)}),
                    max_rounds=20,
                    runner=runner,
                )
            via_reduced = batch_report_from_reduced(rows, predicate_label="safe")
            assert via_reduced.as_dict() == direct.as_dict()
            assert via_reduced.decision_rounds == direct.decision_rounds

    def test_migrated_driver_rows_identical_serial_vs_parallel(self):
        serial = alive_predicate_effect(n=6, alpha=1, runs=4, max_rounds=30)
        with CampaignRunner(jobs=4) as runner:
            parallel = alive_predicate_effect(
                n=6, alpha=1, runs=4, max_rounds=30, runner=runner
            )
        assert json.dumps(serial.rows, default=str) == json.dumps(
            parallel.rows, default=str
        )

    def test_driver_rows_match_legacy_full_result_path(self):
        """The E3 rows computed the pre-migration way (full results shipped
        to the parent, predicate evaluated there) must match the driver."""
        from repro.core.parameters import AteParameters
        from repro.experiments.liveness import _starved_adversary
        from repro.adversary import SequentialAdversary

        n, alpha, runs, max_rounds, seed, period = 6, 1, 4, 30, 3, 4
        params = AteParameters.symmetric(n=n, alpha=alpha)
        predicate = AteAlgorithm(params).liveness_predicate()
        environments = {
            "good-rounds (P^A,live holds)": lambda index: PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(
                    alpha=alpha, value_domain=(0, 1), seed=seed + index
                ),
                period=period,
            ),
            "starved (no good rounds)": lambda index: _starved_adversary(
                n, float(params.threshold), seed + index
            ),
            "late good rounds (transient bad prefix)": lambda index: SequentialAdversary(
                [
                    (1, _starved_adversary(n, float(params.threshold), seed + index)),
                    (
                        max_rounds // 2,
                        PeriodicGoodRoundAdversary(
                            inner=RandomCorruptionAdversary(
                                alpha=alpha, value_domain=(0, 1), seed=seed + index
                            ),
                            period=period,
                        ),
                    ),
                ]
            ),
        }
        legacy_rows = []
        for label, adversary_factory in environments.items():
            results = run_batch_results(
                algorithm_factory=lambda index: AteAlgorithm(params),
                adversary_factory=adversary_factory,
                initial_value_batches=[generators.split(n) for _ in range(runs)],
                max_rounds=max_rounds,
            )
            batch = aggregate(results)
            held = sum(1 for r in results if predicate.holds(r.collection))
            legacy_rows.append(
                dict(
                    environment=label,
                    predicate_held=f"{held}/{len(results)}",
                    agreement_rate=round(batch.agreement_rate, 3),
                    integrity_rate=round(batch.integrity_rate, 3),
                    termination_rate=round(batch.termination_rate, 3),
                    mean_decision_round=(
                        round(batch.mean_decision_round, 2)
                        if batch.mean_decision_round is not None
                        else None
                    ),
                )
            )
        report = alive_predicate_effect(
            n=n, alpha=alpha, runs=runs, seed=seed, max_rounds=max_rounds,
            good_round_period=period,
        )
        assert report.rows == legacy_rows


class TestReducedCaching:
    def test_rerun_hits_cache_with_identical_records(self, tmp_path):
        reducer = DecisionReducer()
        first_runner = CampaignRunner(cache=ResultCache(tmp_path))
        first = first_runner.run_reduced(make_tasks(key_prefix="batch"), reducer)
        assert first_runner.stats.cache_misses == 4
        assert first_runner.stats.executed == 4

        second_runner = CampaignRunner(cache=ResultCache(tmp_path))
        second = second_runner.run_reduced(make_tasks(key_prefix="batch"), reducer)
        assert second_runner.stats.cache_hits == 4
        assert second_runner.stats.executed == 0
        assert [r.as_dict() for r in first] == [r.as_dict() for r in second]

    def test_reducer_fingerprint_partitions_the_key_space(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(cache=cache)
        runner.run_reduced(make_tasks(key_prefix="batch"), DecisionReducer())
        # A different reducer over the same tasks must not reuse entries.
        other = CampaignRunner(cache=cache)
        other.run_reduced(make_tasks(key_prefix="batch"), FaultProfileReducer())
        assert other.stats.cache_hits == 0 and other.stats.executed == 4
        # Differently parametrised predicate reducers have distinct keys.
        a = PredicateReducer({"p": AlphaSafePredicate(1)})
        b = PredicateReducer({"p": AlphaSafePredicate(2)})
        assert a.fingerprint() != b.fingerprint()
        assert reduced_cache_key("task", a) != reduced_cache_key("task", b)

    def test_reduced_and_full_records_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(cache=cache)
        runner.run_tasks(make_tasks(key_prefix="batch"))
        reduced_runner = CampaignRunner(cache=cache)
        reduced_runner.run_reduced(make_tasks(key_prefix="batch"), DecisionReducer())
        assert reduced_runner.stats.cache_hits == 0
        assert reduced_runner.stats.executed == 4

    def test_reduced_campaign_serial_parallel_and_cached_identical(self, tmp_path):
        spec = CampaignSpec(
            campaign_id="reduced-test",
            algorithms=[AlgorithmSpec("ate", {"alpha": 1})],
            adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1, "period": 4})],
            predicates=[PredicateSpec("alpha-safe", {"alpha": 1})],
            ns=[6],
            runs=3,
            base_seed=7,
            max_rounds=30,
            workload=WorkloadSpec("random"),
        )
        reducer = make_reducer("predicate", {"safe": AlphaSafePredicate(1)})
        serial = CampaignRunner(cache=ResultCache(tmp_path)).run_campaign(
            spec, reducer
        )
        with CampaignRunner(jobs=4, cache=ResultCache(tmp_path)) as runner:
            parallel = runner.run_campaign(spec, reducer)
        assert parallel.stats.cache_hits == len(serial.records)
        assert [r.as_dict() for r in serial.records] == [
            r.as_dict() for r in parallel.records
        ]
        first = reduced_campaign_report(spec, reducer, serial.records)
        second = reduced_campaign_report(spec, reducer, parallel.records)
        assert json.dumps(first.rows, default=str) == json.dumps(second.rows, default=str)


class TestCacheStrictness:
    def test_round_trip_preserves_types(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = ReducedRecord.from_data(
            {
                "an_int": 3,
                "a_float": 2.5,
                "a_bool": True,
                "none": None,
                "text": "x",
                "nested": {"list": [1, 2.0, False, None, "y"], "pairs": [[0, 4], [1, 5]]},
            },
            reducer_name="decision",
            key="k",
            seed=9,
        )
        cache.put_reduced("k", record)
        hit = cache.get_reduced("k")
        assert hit is not None
        assert hit.as_dict() == record.as_dict()
        flat = hit.data
        assert type(flat["an_int"]) is int
        assert type(flat["a_float"]) is float
        assert type(flat["a_bool"]) is bool
        assert flat["none"] is None
        assert flat["nested"]["pairs"] == [[0, 4], [1, 5]]

    @pytest.mark.parametrize(
        "bad_cell",
        [
            {"value": {1, 2}},  # set: not JSON-able
            {"value": object()},  # arbitrary object
            {"value": float("nan")},  # NaN: not strict JSON
            {1: "int key"},  # JSON would stringify the key
            {"value": (1, 2)},  # tuple would read back as a list
        ],
    )
    def test_put_rejects_non_json_records(self, tmp_path, bad_cell):
        from repro.runner.records import RunRecord

        cache = ResultCache(tmp_path)
        with pytest.raises((TypeError, ValueError)):
            cache.put("bad", RunRecord(cell=bad_cell))
        assert cache.get("bad") is None  # nothing half-written

    def test_put_rejects_fraction_values(self, tmp_path):
        from fractions import Fraction
        from repro.runner.records import RunRecord

        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("frac", RunRecord(cell={"threshold": Fraction(10, 3)}))
        assert len(cache) == 0


class TestRunnerCorrectness:
    def test_campaign_stats_are_per_campaign(self, tmp_path):
        """A reused runner's second campaign must not report the first's totals."""
        spec = CampaignSpec(
            campaign_id="stats-test",
            algorithms=[AlgorithmSpec("ate", {"alpha": 1})],
            adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1})],
            ns=[5],
            runs=3,
            base_seed=1,
            max_rounds=20,
        )
        runner = CampaignRunner()
        first = runner.run_campaign(spec)
        second = runner.run_campaign(spec)
        assert first.stats.total == 3 and first.stats.executed == 3
        assert second.stats.total == 3 and second.stats.executed == 3
        assert runner.stats.total == 6  # lifetime counters still accumulate

    def test_reduced_campaign_stats_are_per_campaign(self):
        spec = CampaignSpec(
            campaign_id="stats-test-reduced",
            algorithms=[AlgorithmSpec("ate", {"alpha": 1})],
            adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1})],
            ns=[5],
            runs=2,
            base_seed=1,
            max_rounds=20,
        )
        runner = CampaignRunner()
        first = runner.run_campaign(spec, DecisionReducer())
        second = runner.run_campaign(spec, DecisionReducer())
        assert first.stats.total == second.stats.total == 2

    def test_run_simulations_raises_on_missing_result(self, monkeypatch):
        import repro.runner.executor as executor_module

        monkeypatch.setattr(executor_module, "_execute_task", lambda task, timeout: None)
        with pytest.raises(RuntimeError, match="run_simulations produced no result"):
            CampaignRunner(jobs=1).run_simulations(make_tasks(count=2))

    def test_reduced_failure_raises_instead_of_desynchronising(self):
        from repro.runner.reduce import reduced_data

        records = [
            ReducedRecord.from_data({"agreement": True}, run_index=0),
            ReducedRecord.failure("boom", run_index=1),
        ]
        with pytest.raises(RuntimeError, match="run_index=1"):
            reduced_data(records)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
class TestNestedDeadlines:
    def test_inner_deadline_restores_outer_itimer(self):
        fired = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: fired.append(1))
        try:
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            with _deadline(2.0):
                time.sleep(0.01)
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            # The outer timer must still be armed (and have lost the time
            # the inner deadline consumed), not cancelled.
            assert 0.0 < remaining < 5.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert not fired

    def test_outer_deadline_still_fires_after_inner_exits(self):
        with pytest.raises(RunTimeoutError, match="0.25"):
            with _deadline(0.25):
                with _deadline(10.0):
                    time.sleep(0.05)
                time.sleep(0.5)

    def test_expired_outer_deadline_preempts_inside_inner(self):
        started = time.monotonic()
        with pytest.raises(RunTimeoutError):
            with _deadline(0.05):
                with _deadline(10.0):
                    # The outer budget expires here; the inner deadline
                    # must not suspend it until the inner block exits.
                    time.sleep(1.0)
        assert time.monotonic() - started < 0.8

"""One record envelope and one fold for plain and reduced runs.

Pins what the merged result path must keep byte for byte: the JSON the
cache and the queue store for each record kind (key order included),
what ``from_dict`` rebuilds from current, old and loosely typed
payloads, the ``BatchReport`` both folds produce against the reference
``properties.aggregate``, and the records ``run_campaign(spec, reducer)``
returns on both runners.
"""

import hashlib
import json
import threading
from dataclasses import asdict, fields

import pytest

from repro.runner import (
    AdversarySpec,
    AlgorithmSpec,
    CampaignRunner,
    CampaignSpec,
    DecisionReducer,
    DistributedCampaignRunner,
    PredicateReducer,
    PredicateSpec,
    ReducedRecord,
    RunRecord,
    Worker,
    WorkQueue,
    batch_report_from_records,
    batch_report_from_reduced,
    build_predicate,
    task_from_spec,
)
from repro.runner import records as records_module
from repro.verification.properties import aggregate

FULL_RUN = RunRecord(
    agreement=True, integrity=True, termination=False, validity=True, all_satisfied=False,
    rounds_executed=7, first_decision_round=3, last_decision_round=5, decided_count=4,
    messages_sent=120, messages_dropped=9, messages_corrupted=2, predicate_held=True,
    violations=["agreement: 0 != 1"], algorithm_name="A_T,E", adversary_name="random",
    key="k-run", cell={"n": 5, "algorithm": "ate"}, run_index=3, seed=41,
)
FULL_REDUCED = ReducedRecord(
    data={"agreement": True, "decision_rounds": [[0, 2], [1, 3]], "predicates": {"p": False}},
    reducer_name="decision", key="k-red", cell={"n": 7}, run_index=2, seed=9,
)

#: ``json.dumps(record.as_dict())`` as written before the two record
#: kinds shared one envelope: the bytes the cache and queue hold.
GOLDEN = [
    (
        FULL_RUN,
        '{"agreement": true, "integrity": true, "termination": false, "validity": true, '
        '"all_satisfied": false, "rounds_executed": 7, "first_decision_round": 3, '
        '"last_decision_round": 5, "decided_count": 4, "messages_sent": 120, '
        '"messages_dropped": 9, "messages_corrupted": 2, "predicate_held": true, '
        '"violations": ["agreement: 0 != 1"], "algorithm_name": "A_T,E", '
        '"adversary_name": "random", "key": "k-run", "cell": {"n": 5, "algorithm": "ate"}, '
        '"run_index": 3, "seed": 41, "timed_out": false, "error": null}',
    ),
    (
        FULL_REDUCED,
        '{"data": {"agreement": true, "decision_rounds": [[0, 2], [1, 3]], '
        '"predicates": {"p": false}}, "reducer_name": "decision", "key": "k-red", '
        '"cell": {"n": 7}, "run_index": 2, "seed": 9, "timed_out": false, "error": null}',
    ),
    (
        RunRecord.failure("ValueError: boom", key="k1", cell={"n": 4}, run_index=1, seed=3),
        '{"agreement": false, "integrity": false, "termination": false, "validity": false, '
        '"all_satisfied": false, "rounds_executed": 0, "first_decision_round": null, '
        '"last_decision_round": null, "decided_count": 0, "messages_sent": 0, '
        '"messages_dropped": 0, "messages_corrupted": 0, "predicate_held": null, '
        '"violations": [], "algorithm_name": "", "adversary_name": "", "key": "k1", '
        '"cell": {"n": 4}, "run_index": 1, "seed": 3, "timed_out": false, '
        '"error": "ValueError: boom"}',
    ),
    (
        RunRecord.failure(
            "run exceeded timeout of 0.1s", timed_out=True, key="k2", cell={"n": 4},
            run_index=2, seed=5,
        ),
        '{"agreement": false, "integrity": false, "termination": false, "validity": false, '
        '"all_satisfied": false, "rounds_executed": 0, "first_decision_round": null, '
        '"last_decision_round": null, "decided_count": 0, "messages_sent": 0, '
        '"messages_dropped": 0, "messages_corrupted": 0, "predicate_held": null, '
        '"violations": [], "algorithm_name": "", "adversary_name": "", "key": "k2", '
        '"cell": {"n": 4}, "run_index": 2, "seed": 5, "timed_out": true, '
        '"error": "run exceeded timeout of 0.1s"}',
    ),
    (
        ReducedRecord.failure(
            "KeyError: 'x'", reducer_name="predicate", key="k3", cell={"n": 6}, run_index=0
        ),
        '{"data": {}, "reducer_name": "predicate", "key": "k3", "cell": {"n": 6}, '
        '"run_index": 0, "seed": null, "timed_out": false, "error": "KeyError: \'x\'"}',
    ),
    (
        ReducedRecord.failure(
            "run exceeded timeout of 0.1s", timed_out=True, reducer_name="decision",
            run_index=4, seed=8,
        ),
        '{"data": {}, "reducer_name": "decision", "key": null, "cell": {}, "run_index": 4, '
        '"seed": 8, "timed_out": true, "error": "run exceeded timeout of 0.1s"}',
    ),
]


def typed(record):
    """Every field with its value *and* its type (``1 == True`` in Python)."""
    values = [(f.name, getattr(record, f.name)) for f in fields(record)]
    return [(name, type(value), value) for name, value in values]


class TestSerialisedBytes:
    @pytest.mark.parametrize(
        "record, expected", GOLDEN,
        ids=["run", "reduced", "run-failure", "run-timeout", "reduced-failure", "reduced-timeout"],
    )
    def test_as_dict_bytes_are_unchanged(self, record, expected):
        assert json.dumps(record.as_dict()) == expected

    @pytest.mark.parametrize("record", [FULL_RUN, FULL_REDUCED], ids=["run", "reduced"])
    def test_as_dict_copies_containers(self, record):
        payload = record.as_dict()
        payload["cell"]["n"] = -1
        assert record.cell["n"] != -1

    def test_failure_copies_the_cell(self):
        cell = {"n": 4}
        record = RunRecord.failure("boom", cell=cell)
        cell["n"] = 5
        assert record.cell == {"n": 4} and not record.ok


class TestFromDict:
    """``from_dict`` rebuilds exactly what the per-class hand-written
    decoders built: casts by field default, raw values for ``None``
    defaults, defaults for missing keys."""

    def test_current_payload_round_trips(self):
        for record in (FULL_RUN, FULL_REDUCED):
            assert typed(type(record).from_dict(record.as_dict())) == typed(record)

    def test_old_payload_missing_every_optional_key(self):
        assert typed(RunRecord.from_dict({})) == typed(RunRecord())
        assert typed(ReducedRecord.from_dict({})) == typed(ReducedRecord())

    def test_int_for_bool_payload(self):
        record = RunRecord.from_dict(
            {
                "agreement": 1, "integrity": 0, "termination": 1, "validity": 0,
                "all_satisfied": 1, "predicate_held": 1, "timed_out": 0,
                "rounds_executed": 4, "decided_count": 2, "seed": 3,
            }
        )
        expected = RunRecord(
            agreement=True, termination=True, all_satisfied=True, rounds_executed=4,
            decided_count=2, seed=3,
        )
        # predicate_held defaults to None, so it is read back as stored.
        expected.predicate_held = 1  # type: ignore[assignment]
        assert typed(record) == typed(expected)

        reduced = ReducedRecord.from_dict(
            {"data": {"a": 1}, "timed_out": 1, "run_index": 2, "reducer_name": "decision"}
        )
        assert typed(reduced) == typed(
            ReducedRecord(data={"a": 1}, timed_out=True, run_index=2, reducer_name="decision")
        )
        assert not reduced.ok

    def test_casts_are_worked_out_once_per_class(self):
        records_module._codec.cache_clear()
        for _ in range(5):
            RunRecord.from_dict(FULL_RUN.as_dict())
            ReducedRecord.from_dict(FULL_REDUCED.as_dict())
        info = records_module._codec.cache_info()
        assert info.misses == 2 and info.hits >= 18


def fold_spec() -> CampaignSpec:
    """Runs with every outcome: violations, counterexamples, non-termination."""
    return CampaignSpec(
        campaign_id="fold",
        algorithms=[AlgorithmSpec("ate", {"alpha": 0}), AlgorithmSpec("ate", {"alpha": 1})],
        adversaries=[
            AdversarySpec("random-corruption", {"alpha": 2}),
            AdversarySpec("corruption-good-rounds", {"alpha": 1, "period": 4}),
        ],
        ns=[5],
        runs=6,
        base_seed=3,
        max_rounds=12,
    )


class TestOneFold:
    @pytest.mark.parametrize("with_predicate", [False, True], ids=["plain", "predicate"])
    def test_both_folds_match_the_reference_aggregate(self, with_predicate):
        predicate = build_predicate(PredicateSpec("alpha-safe", {"alpha": 1}), 5)
        tasks = [task_from_spec(run_spec) for run_spec in fold_spec().expand()]
        results = CampaignRunner().run_simulations(tasks)

        reference = aggregate(results, predicate if with_predicate else None)
        records = [
            RunRecord.from_result(result, predicate if with_predicate else None)
            for result in results
        ]
        rows = [PredicateReducer({"safe": predicate}).reduce(result) for result in results]
        from_reduced = batch_report_from_reduced(rows, "safe" if with_predicate else None)

        assert asdict(batch_report_from_records(records)) == asdict(reference)
        assert asdict(from_reduced) == asdict(reference)
        # The runs exercise every branch of the fold.
        assert reference.violations and reference.termination_ok < reference.total
        if with_predicate:
            assert 0 < reference.predicate_held < reference.total


def digest(records) -> str:
    return hashlib.sha256(json.dumps([r.as_dict() for r in records]).encode()).hexdigest()


def golden_spec() -> CampaignSpec:
    return CampaignSpec(
        campaign_id="golden",
        algorithms=[AlgorithmSpec("ate", {"alpha": 1}), AlgorithmSpec("ute", {"alpha": 1})],
        adversaries=[AdversarySpec("corruption-good-rounds", {"alpha": 1, "period": 4})],
        predicates=[PredicateSpec("alpha-safe", {"alpha": 1})],
        ns=[5, 7],
        runs=2,
        base_seed=11,
        max_rounds=25,
    )


def golden_reducer(name):
    if name == "decision":
        return DecisionReducer()
    if name == "predicate":
        predicate = build_predicate(PredicateSpec("alpha-safe", {"alpha": 1}), 0)
        return PredicateReducer({"alpha-safe": predicate})
    return None


#: sha256 of each campaign kind's records as written before plain and
#: reduced campaigns shared one ``run_campaign(spec, reducer)``.
GOLDEN_DIGESTS = {
    None: "3da0a24b839105336d1644cb3eca57f2ee178c4b7f7dfa7bc8f1a2a3f18c9221",
    "decision": "a04a59915d8dfac91ea9d7011f83e216238dd41cb1eafe2af40f4c486179321f",
    "predicate": "fe3844f95334c88fcdce57ebe9e06b1f035eb19af88e213275418de1081bc7ef",
}


class TestOneCampaignPath:
    @pytest.mark.parametrize("reducer_name", [None, "decision", "predicate"])
    def test_local_runner_records_are_unchanged(self, reducer_name):
        reducer = golden_reducer(reducer_name)
        result = CampaignRunner().run_campaign(golden_spec(), reducer)
        assert result.reducer is reducer and result.worker_stats == {}
        assert len(result.records) == 8 and result.stats.total == 8
        assert digest(result.records) == GOLDEN_DIGESTS[reducer_name]

    @pytest.mark.parametrize("reducer_name", [None, "decision", "predicate"])
    def test_fleet_runner_records_are_unchanged(self, tmp_path, reducer_name):
        reducer = golden_reducer(reducer_name)
        queue = WorkQueue(tmp_path / "queue")
        runner = DistributedCampaignRunner(queue, batch_size=3, wait_timeout=30)
        campaign_id = runner.submit_campaign(golden_spec(), reducer)
        manifest = queue.manifest(campaign_id)
        assert manifest["kind"] == ("records" if reducer is None else "reduced")
        worker = Worker(queue, worker_id="golden-worker", ttl=30)
        while worker.run_once():
            pass
        worker.close()
        result = runner.run_campaign(golden_spec(), reducer)
        assert result.reducer is reducer
        assert digest(result.records) == GOLDEN_DIGESTS[reducer_name]

    def test_fleet_result_carries_this_campaigns_worker_stats(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue")
        runner = DistributedCampaignRunner(
            queue, batch_size=3, poll_interval=0.05, wait_timeout=60
        )
        worker = Worker(queue, worker_id="stats-worker", ttl=30, poll_interval=0.05)
        thread = threading.Thread(target=worker.run, kwargs={"max_idle": 30.0})
        thread.start()
        try:
            first = runner.run_campaign(golden_spec(), DecisionReducer())
            second = runner.run_campaign(golden_spec(), DecisionReducer())
        finally:
            queue.request_retire("stats-worker")
            thread.join(timeout=60)
            worker.close()
        assert digest(first.records) == GOLDEN_DIGESTS["decision"]
        assert first.worker_stats["stats-worker"].executed == 8
        # The second campaign is served from the fleet cache: its delta is zero.
        assert second.worker_stats["stats-worker"].executed == 0
        assert second.stats.cache_hits == 8
        assert runner.worker_stats["stats-worker"].executed == 8

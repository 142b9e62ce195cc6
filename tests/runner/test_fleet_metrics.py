"""Unit and property tests for the fleet metrics map.

The merge algebra is the load-bearing claim: fleet totals are rebuilt
by folding per-worker snapshot shards in whatever order a directory
scan yields them, so merging must be associative and commutative.
Hypothesis drives that over random shards built from exactly
representable values (multiples of 0.25 — dyadic rationals whose sums
are exact in binary floating point, so the algebraic property is
testable with ``==``).
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.metrics import (
    FLEET_METRICS,
    MetricsRegistry,
    fleet_registry,
    metric_catalogue_markdown,
)

# ----------------------------------------------------------------------
# Unit tests: counters, timers, catalogue discipline
# ----------------------------------------------------------------------


class TestChildren:
    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        registry.inc("repro_queue_claims_total")
        registry.inc("repro_queue_claims_total", 2.5)
        assert registry.flat_values() == {"repro_queue_claims_total": 3.5}
        with pytest.raises(ValueError):
            registry.inc("repro_queue_claims_total", -1)
        with pytest.raises(ValueError):
            registry.inc("repro_queue_claims_total", float("nan"))
        assert registry.flat_values() == {"repro_queue_claims_total": 3.5}

    def test_timer_adds_sum_and_count(self):
        registry = MetricsRegistry()
        for seconds in (0.5, 1.0, 5.0, 100.0):
            registry.observe("repro_runner_unit_seconds", seconds)
        assert registry.flat_values() == {
            "repro_runner_unit_seconds_count": 4.0,
            "repro_runner_unit_seconds_sum": 106.5,
        }
        with pytest.raises(ValueError):
            registry.observe("repro_runner_unit_seconds", float("inf"))

    def test_rejected_observation_adds_neither_sum_nor_count(self):
        """A timer's two keys move together: a rejected duration must not
        leave a ``_count`` without its ``_sum``."""
        registry = MetricsRegistry()
        registry.observe("repro_runner_window_seconds", 0.25)
        for bad in (-0.5, float("nan"), float("inf"), True, "1"):
            with pytest.raises(ValueError):
                registry.observe("repro_runner_window_seconds", bad)
        assert registry.flat_values() == {
            "repro_runner_window_seconds_count": 1.0,
            "repro_runner_window_seconds_sum": 0.25,
        }

    def test_labelled_family_keys_children_and_validates(self):
        registry = MetricsRegistry()
        registry.inc("repro_runner_runs_total", 3, counter="hits")
        assert registry.flat_values() == {'repro_runner_runs_total{counter="hits"}': 3.0}
        with pytest.raises(ValueError):
            registry.inc("repro_runner_runs_total", wrong="hits")
        with pytest.raises(ValueError):
            registry.inc("repro_runner_runs_total")  # its label is required


class TestRegistry:
    def test_registration_is_idempotent(self):
        """Declaring the catalogue again changes nothing: merging a fresh
        fleet registry's zeros into one that already counts leaves every
        sum as it was, and no two fleet registries share state."""
        registry = fleet_registry()
        registry.inc("repro_queue_claims_total", 2)
        registry.observe("repro_queue_claim_latency_seconds", 0.5)
        before = registry.flat_values()
        registry.merge_snapshot(fleet_registry().flat_values())
        assert registry.flat_values() == before
        assert fleet_registry().flat_values()["repro_queue_claims_total"] == 0.0

    def test_concurrent_updates_are_not_lost(self):
        """Worker threads (heartbeat, executor, snapshot) share one map;
        its lock must make every add land exactly once."""
        registry = MetricsRegistry()
        threads, adds = 4, 500

        def hammer():
            for _ in range(adds):
                registry.inc("repro_queue_claims_total")
                registry.inc("repro_runner_runs_total", 2, counter="executed")
                registry.observe("repro_runner_unit_seconds", 0.25)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        total = threads * adds
        assert registry.flat_values() == {
            "repro_queue_claims_total": total,
            'repro_runner_runs_total{counter="executed"}': 2.0 * total,
            "repro_runner_unit_seconds_count": total,
            "repro_runner_unit_seconds_sum": 0.25 * total,
        }

    def test_shape_conflicts_fail_loudly(self):
        """Only catalogued names, used as their declared kind with their
        declared labels, are accepted."""
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("repro_runner_unit_seconds")  # a timer
        with pytest.raises(ValueError):
            registry.observe("repro_queue_claims_total", 1.0)  # a counter
        with pytest.raises(ValueError):
            registry.inc("repro_queue_claims_total", direction="up")
        with pytest.raises(ValueError):
            registry.inc("not_in_the_catalogue_total")
        assert registry.flat_values() == {}

    def test_snapshot_is_deterministic_across_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("repro_worker_units_total")
        a.observe("repro_runner_unit_seconds", 2.0)
        b.observe("repro_runner_unit_seconds", 2.0)  # reversed order
        b.inc("repro_worker_units_total")
        assert json.dumps(a.flat_values()) == json.dumps(b.flat_values())

    def test_flat_values_shape(self):
        registry = MetricsRegistry()
        registry.inc("repro_runner_runs_total", 2, counter="hits")
        registry.observe("repro_queue_claim_latency_seconds", 0.5)
        flat = registry.flat_values()
        assert flat['repro_runner_runs_total{counter="hits"}'] == 2
        assert flat["repro_queue_claim_latency_seconds_count"] == 1
        assert flat["repro_queue_claim_latency_seconds_sum"] == 0.5


class TestFleetCatalogue:
    def test_fleet_registry_predeclares_every_spec(self):
        flat = fleet_registry().flat_values()
        expected = set()
        for spec in FLEET_METRICS:
            if spec.kind == "timer":
                expected |= {f"{spec.name}_sum", f"{spec.name}_count"}
            elif not spec.labelnames:
                expected.add(spec.name)
        assert set(flat) == expected
        assert set(flat.values()) == {0.0}

    def test_every_key_is_seen_by_the_monotone_check(self):
        """Readers pick the additive keys by suffix (CI's fleet check keeps
        keys containing ``_total`` or ending ``_count``/``_sum``), so every
        counter must end ``_total`` and every timer ``_seconds``; each
        labelled counter names exactly one label."""
        names = [spec.name for spec in FLEET_METRICS]
        assert len(names) == len(set(names))
        for spec in FLEET_METRICS:
            assert spec.kind in ("counter", "timer"), spec.name
            if spec.kind == "counter":
                assert spec.name.endswith("_total"), spec.name
                assert len(spec.labelnames) <= 1, spec.name
            else:
                assert spec.name.endswith("_seconds"), spec.name
                assert spec.labelnames == (), spec.name

    def test_catalogue_markdown_covers_every_spec_sorted(self):
        table = metric_catalogue_markdown()
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        names = [row.split("`")[1] for row in rows]
        assert names == sorted(spec.name for spec in FLEET_METRICS)

    def test_malformed_snapshots_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.merge_snapshot([("repro_worker_units_total", 1.0)])
        for bad in (
            {"metrics": [{"name": "x", "kind": "counter", "samples": []}]},
            {"repro_queue_claims_total": -1.0},
            {"repro_queue_claims_total": float("nan")},
            {"repro_queue_claims_total": True},
            {"repro_queue_claims_total": "3"},
            {1: 1.0},
        ):
            with pytest.raises(ValueError):
                registry.merge_snapshot({"repro_worker_units_total": 1.0, **bad})
        assert registry.flat_values() == {}  # nothing of a rejected shard is added


# ----------------------------------------------------------------------
# Property tests: merge algebra, strict JSON
# ----------------------------------------------------------------------

# Exactly representable non-negative quanta: sums of multiples of 0.25
# below 2**40 are exact in float64, so the merge algebra is exact.
_quantum = st.integers(min_value=0, max_value=4000).map(lambda i: i / 4.0)
_label = st.sampled_from(["executed", "total", "cache_hits", "up", "down"])

_shard = st.fixed_dictionaries(
    {
        "counters": st.dictionaries(_label, _quantum, max_size=4),
        "claims": _quantum,
        "observations": st.lists(_quantum, max_size=8),
    }
)


def build_registry(shard):
    """Materialise one worker-shard registry from a strategy draw."""
    registry = MetricsRegistry()
    for label, value in shard["counters"].items():
        registry.inc("repro_runner_runs_total", value, counter=label)
    registry.inc("repro_queue_claims_total", shard["claims"])
    for value in shard["observations"]:
        registry.observe("repro_queue_claim_latency_seconds", value)
    return registry


def merged(*shards):
    out = MetricsRegistry()
    for shard in shards:
        out.merge_snapshot(shard.flat_values())
    return out


class TestMergeAlgebra:
    @settings(deadline=None, max_examples=60)
    @given(_shard, _shard, _shard)
    def test_merge_is_associative(self, sa, sb, sc):
        a, b, c = build_registry(sa), build_registry(sb), build_registry(sc)
        left = merged(merged(a, b), c)
        right = merged(a, merged(b, c))
        assert left.flat_values() == right.flat_values()

    @settings(deadline=None, max_examples=60)
    @given(_shard, _shard)
    def test_merge_is_commutative(self, sa, sb):
        a, b = build_registry(sa), build_registry(sb)
        assert merged(a, b).flat_values() == merged(b, a).flat_values()

    @settings(deadline=None, max_examples=60)
    @given(_shard)
    def test_merge_of_empty_is_identity(self, shard):
        registry = build_registry(shard)
        empty = MetricsRegistry()
        assert merged(registry, empty).flat_values() == registry.flat_values()

    @settings(deadline=None, max_examples=60)
    @given(st.lists(_shard, max_size=4))
    def test_merged_totals_are_keywise_sums(self, shards):
        """Fleet totals are each key's sum over the shards that carry it,
        so adding a shard never lowers a total."""
        registries = [build_registry(shard) for shard in shards]
        expected = {}
        for registry in registries:
            for key, value in registry.flat_values().items():
                expected[key] = expected.get(key, 0.0) + value
        assert merged(*registries).flat_values() == expected

    @settings(deadline=None, max_examples=60)
    @given(_shard)
    def test_snapshot_round_trips_through_strict_json(self, shard):
        registry = build_registry(shard)
        # Strict JSON must serialise (no NaN/inf can have entered) …
        text = json.dumps(registry.flat_values(), allow_nan=False)
        # … and merging the parsed payload into a fresh registry must
        # reproduce the same totals.
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(json.loads(text))
        assert rebuilt.flat_values() == registry.flat_values()

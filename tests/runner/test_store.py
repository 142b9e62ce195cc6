"""Tests for the pluggable cache stores and crash-safe cache reads."""

import logging
import threading

import pytest

from repro.adversary import ReliableAdversary
from repro.algorithms import AteAlgorithm
from repro.runner import CampaignRunner, ResultCache, RunTask
from repro.runner.records import RunRecord
from repro.runner.reduce import DecisionReducer, ReducedRecord, reduced_cache_key
from repro.runner.store import (
    CacheStore,
    FsspecObjectClient,
    InMemoryObjectClient,
    LocalDirStore,
    ObjectStore,
    PrefixStore,
    SharedStore,
)
from repro.workloads import generators


@pytest.fixture(params=["local", "shared", "object"])
def store(request, tmp_path):
    """Every CacheStore implementation must pass the same semantics."""
    if request.param == "object":
        return ObjectStore(InMemoryObjectClient())
    cls = {"local": LocalDirStore, "shared": SharedStore}[request.param]
    return cls(tmp_path / "store")


class TestStores:
    def test_read_absent_returns_none(self, store):
        assert store.read_text("aa/missing.json") is None
        assert not store.exists("aa/missing.json")

    def test_write_read_roundtrip(self, store):
        store.write_text("aa/entry.json", '{"x": 1}')
        assert store.read_text("aa/entry.json") == '{"x": 1}'
        assert store.exists("aa/entry.json")

    def test_write_replaces_atomically(self, store):
        store.write_text("e.json", "first")
        store.write_text("e.json", "second")
        assert store.read_text("e.json") == "second"
        # No temp-file droppings left next to the entry.
        assert store.list("*") == ["e.json"]

    def test_try_create_is_exclusive(self, store):
        assert store.try_create("lease.json", "winner")
        assert not store.try_create("lease.json", "loser")
        assert store.read_text("lease.json") == "winner"

    def test_try_create_racers_have_exactly_one_winner(self, store):
        wins = []
        barrier = threading.Barrier(8)

        def racer(tag):
            barrier.wait()
            if store.try_create("contended.json", tag):
                wins.append(tag)

        threads = [threading.Thread(target=racer, args=(f"w{i}",)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert store.read_text("contended.json") == wins[0]

    def test_try_create_leaves_no_droppings_and_full_content(self, store):
        """try_create is crash-atomic: the entry appears with its full
        content in one step and no temp files survive either outcome."""
        store.try_create("a.json", "x" * 4096)
        store.try_create("a.json", "loser")
        assert store.list("*") == ["a.json"]
        assert store.read_text("a.json") == "x" * 4096

    def test_delete(self, store):
        store.write_text("gone.json", "x")
        assert store.delete("gone.json")
        assert not store.delete("gone.json")
        assert store.read_text("gone.json") is None

    def test_list_is_sorted_and_relative(self, store):
        store.write_text("b/2.json", "x")
        store.write_text("a/1.json", "x")
        assert store.list("*/*.json") == ["a/1.json", "b/2.json"]

    def test_paths_cannot_escape_the_root(self, store):
        with pytest.raises(ValueError):
            store.read_text("../outside.json")

    def test_protocol_conformance(self, store):
        assert isinstance(store, CacheStore)

    def test_durability_flag(self, tmp_path):
        assert not LocalDirStore(tmp_path / "a").durable
        assert SharedStore(tmp_path / "b").durable


def _task(key="store-test/0000", n=4):
    return RunTask(
        algorithm=AteAlgorithm.symmetric(n=n, alpha=0),
        adversary=ReliableAdversary(),
        initial_values=generators.split(n),
        max_rounds=10,
        key=key,
        seed=3,
    )


class TestCacheOnStores:
    def test_requires_exactly_one_of_root_and_store(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache()
        with pytest.raises(ValueError):
            ResultCache(tmp_path, store=LocalDirStore(tmp_path))

    def test_shared_store_cache_interoperates_with_local_layout(self, tmp_path):
        """A record written through SharedStore is read back by a plain
        root-based cache on the same directory (same shard layout)."""
        shared = ResultCache(store=SharedStore(tmp_path))
        shared.put("key", RunRecord(agreement=True))
        local = ResultCache(tmp_path)
        hit = local.get("key")
        assert hit is not None and hit.agreement

    def test_len_and_clear_via_store(self, tmp_path):
        cache = ResultCache(store=SharedStore(tmp_path))
        cache.put("a", RunRecord())
        cache.put_reduced("b", ReducedRecord(data={"x": 1}, reducer_name="r"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCorruptEntriesAreMisses:
    """A corrupted/truncated shard entry must requeue the run, not raise."""

    def _corrupt(self, cache, key, text):
        cache.path_for(key).write_text(text, encoding="utf-8")

    @pytest.mark.parametrize(
        "garbage",
        [
            "",  # truncated to nothing (crashed writer on a non-atomic fs)
            '{"agreement": true',  # truncated JSON
            "[1, 2, 3]",  # valid JSON, wrong shape
            '{"rounds_executed": "NaN-ish"}',  # schema-corrupt field types
        ],
        ids=["empty", "truncated", "non-object", "bad-field-types"],
    )
    def test_garbage_entry_is_a_miss_and_warns(self, tmp_path, caplog, garbage):
        cache = ResultCache(tmp_path)
        key = _task().key
        cache.put(key, RunRecord(agreement=True))
        self._corrupt(cache, key, garbage)
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            assert cache.get(key) is None
        assert any("treating as a miss" in message for message in caplog.messages)
        # The bad entry is dropped so it cannot mask the rewrite.
        assert not cache.path_for(key).exists()
        # The runner that looks the entry up counts it, once, as a miss.
        self._corrupt(cache, key, garbage)
        runner = CampaignRunner(cache=cache)
        runner.run_tasks([_task()])
        assert runner.stats.cache_misses == 1 and runner.stats.cache_hits == 0

    def test_corrupt_reduced_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        reducer = DecisionReducer()
        key = reduced_cache_key(_task().key, reducer)
        cache.put_reduced(key, ReducedRecord(data={"x": 1}, reducer_name="r"))
        self._corrupt(cache, key, '{"data": "not-a-dict"}')
        assert cache.get_reduced(key) is None
        self._corrupt(cache, key, '{"data": "not-a-dict"}')
        runner = CampaignRunner(cache=cache)
        runner.run_reduced([_task()], reducer)
        assert runner.stats.cache_misses == 1

    def test_runner_requeues_runs_with_corrupt_entries(self, tmp_path):
        """End to end: a corrupted entry re-executes the run and rewrites
        a good entry — crash-safe distributed writers depend on this."""
        first = CampaignRunner(cache=ResultCache(tmp_path))
        original = first.run_tasks([_task()])[0]
        assert first.stats.cache_misses == 1

        cache = ResultCache(tmp_path)
        cache.path_for(_task().key).write_text('{"agreement"', encoding="utf-8")
        second = CampaignRunner(cache=cache)
        requeued = second.run_tasks([_task()])[0]
        assert second.stats.cache_misses == 1 and second.stats.executed == 1
        assert requeued.as_dict() == original.as_dict()

        # ... and the rewrite healed the entry: third run is a clean hit.
        third = CampaignRunner(cache=ResultCache(tmp_path))
        healed = third.run_tasks([_task()])[0]
        assert third.stats.cache_hits == 1
        assert healed.as_dict() == original.as_dict()


class TestPrefixStore:
    """PrefixStore namespaces another store; escapes must still be caught."""

    def test_requires_non_empty_prefix(self, tmp_path):
        with pytest.raises(ValueError):
            PrefixStore(LocalDirStore(tmp_path), "")
        with pytest.raises(ValueError):
            PrefixStore(LocalDirStore(tmp_path), "///")

    @pytest.mark.parametrize(
        "escape",
        ["../outside.json", "a/../../outside.json", "/etc/passwd"],
        ids=["dotdot", "nested-dotdot", "absolute"],
    )
    def test_paths_cannot_escape_through_the_prefix(self, tmp_path, escape):
        """A prefixed path like ``cache/../x`` still contains the ``..``
        segment, so the inner store's validation must reject it — for
        the filesystem stores and the object store alike."""
        for inner in (SharedStore(tmp_path / "fs"), ObjectStore(InMemoryObjectClient())):
            prefixed = PrefixStore(inner, "cache")
            with pytest.raises(ValueError):
                prefixed.read_text(escape)
            with pytest.raises(ValueError):
                prefixed.write_text(escape, "x")
            with pytest.raises(ValueError):
                prefixed.try_create(escape, "x")
            with pytest.raises(ValueError):
                prefixed.delete(escape)

    def test_namespacing_round_trip(self, tmp_path):
        inner = ObjectStore(InMemoryObjectClient())
        prefixed = PrefixStore(inner, "cache")
        prefixed.write_text("aa/x.json", "{}")
        assert inner.list("cache/*/*.json") == ["cache/aa/x.json"]
        assert prefixed.list("*/*.json") == ["aa/x.json"]
        assert prefixed.read_text("aa/x.json") == "{}"
        assert prefixed.delete("aa/x.json")
        assert inner.list("cache/*/*.json") == []


class TestObjectStoreCorruptEntryParity:
    """ObjectStore-backed caches must requeue corrupt entries exactly
    like SharedStore-backed ones do (mirrors TestCorruptEntriesAreMisses)."""

    @pytest.mark.parametrize(
        "garbage",
        [
            "",  # truncated to nothing
            '{"agreement": true',  # truncated JSON
            "[1, 2, 3]",  # valid JSON, wrong shape
            '{"rounds_executed": "NaN-ish"}',  # schema-corrupt field types
        ],
        ids=["empty", "truncated", "non-object", "bad-field-types"],
    )
    def test_garbage_entry_is_a_miss_and_warns(self, caplog, garbage):
        cache = ResultCache(store=ObjectStore(InMemoryObjectClient()))
        key = _task().key
        cache.put(key, RunRecord(agreement=True))
        cache.store.write_text(cache.relpath_for(key), garbage)
        with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
            assert cache.get(key) is None
        assert any("treating as a miss" in message for message in caplog.messages)
        # The bad entry is dropped so it cannot mask the rewrite.
        assert not cache.store.exists(cache.relpath_for(key))
        # The runner that looks the entry up counts it, once, as a miss.
        cache.store.write_text(cache.relpath_for(key), garbage)
        runner = CampaignRunner(cache=cache)
        runner.run_tasks([_task()])
        assert runner.stats.cache_misses == 1 and runner.stats.cache_hits == 0

    def test_corrupt_reduced_entry_is_a_miss(self):
        cache = ResultCache(store=ObjectStore(InMemoryObjectClient()))
        reducer = DecisionReducer()
        key = reduced_cache_key(_task().key, reducer)
        cache.put_reduced(key, ReducedRecord(data={"x": 1}, reducer_name="r"))
        cache.store.write_text(cache.relpath_for(key), '{"data": "not-a-dict"}')
        assert cache.get_reduced(key) is None
        cache.store.write_text(cache.relpath_for(key), '{"data": "not-a-dict"}')
        runner = CampaignRunner(cache=cache)
        runner.run_reduced([_task()], reducer)
        assert runner.stats.cache_misses == 1

    def test_runner_requeues_runs_with_corrupt_entries(self, tmp_path):
        """End to end on the object store: a corrupted entry re-executes
        the run, rewrites a healed entry, and the records match a
        SharedStore-backed cache byte for byte."""
        client = InMemoryObjectClient()
        first = CampaignRunner(cache=ResultCache(store=ObjectStore(client)))
        original = first.run_tasks([_task()])[0]
        assert first.stats.cache_misses == 1

        reference = CampaignRunner(cache=ResultCache(store=SharedStore(tmp_path)))
        assert reference.run_tasks([_task()])[0].as_dict() == original.as_dict()

        cache = ResultCache(store=ObjectStore(client))
        cache.store.write_text(cache.relpath_for(_task().key), '{"agreement"')
        second = CampaignRunner(cache=cache)
        requeued = second.run_tasks([_task()])[0]
        assert second.stats.cache_misses == 1 and second.stats.executed == 1
        assert requeued.as_dict() == original.as_dict()

        # ... and the rewrite healed the entry: third run is a clean hit.
        third = CampaignRunner(cache=ResultCache(store=ObjectStore(client)))
        healed = third.run_tasks([_task()])[0]
        assert third.stats.cache_hits == 1
        assert healed.as_dict() == original.as_dict()


class TestFsspecAdapter:
    def test_fsspec_client_is_import_gated_or_functional(self):
        """Without fsspec installed the adapter must raise a clear
        ImportError; with it, a memory:// filesystem must satisfy the
        store semantics end to end."""
        try:
            import fsspec  # noqa: F401
        except ImportError:
            with pytest.raises(ImportError, match="fsspec"):
                FsspecObjectClient("memory://repro-test")
            return
        store = ObjectStore(FsspecObjectClient("memory://repro-test"))
        store.write_text("aa/x.json", "{}")
        assert store.read_text("aa/x.json") == "{}"
        assert store.list("*/*.json") == ["aa/x.json"]
        assert not store.try_create("aa/x.json", "loser")
        assert store.delete("aa/x.json")

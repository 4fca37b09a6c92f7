"""Tests for the fully-generic operation extension (paper future work)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.core.scenario import (
    ClientExecutor,
    GenericOperation,
    Scenario,
    ScenarioRunner,
    WorkloadMix,
    attribute_of,
)
from repro.core.session import Session
from repro.errors import ParameterError, WorkloadError
from repro.store.storage import StoreConfig


def make_executor(seed=19, num_objects=150):
    params = DatabaseParameters(num_classes=5, max_nref=3, base_size=25,
                                num_objects=num_objects, seed=seed)
    database, _ = generate_database(params)
    store = StoreConfig(page_size=512, buffer_pages=16).build()
    records = database.to_records()
    store.bulk_load(records.values(), order=sorted(records))
    store.reset_stats()
    return ClientExecutor(database, WorkloadMix.from_operation_weights(),
                          Session(store))


def run_mix(executor, operations, weights=None):
    """*operations* draws of the mix on the executor's database and store."""
    scenario = Scenario(mix=WorkloadMix.from_operation_weights(weights),
                        cold_ops=0, warm_ops=operations)
    report = ScenarioRunner(executor.view, scenario,
                            store=executor.session.store).run()
    return report.clients[0].warm


def assert_in_sync(executor):
    """Database invariants hold and the store mirrors the database."""
    executor.view.validate()
    assert set(executor.session.store.iter_oids()) == \
        set(executor.view.objects)
    for oid, obj in executor.view.objects.items():
        record = executor.session.store.read_object(oid)
        assert record.refs == tuple(obj.oref)
        assert sorted(record.back_refs) == sorted(tuple(p)
                                                  for p in obj.back_refs)


class TestInsert:
    def test_grows_database_and_store(self):
        executor = make_executor()
        before = executor.session.store.object_count
        result = executor.op_insert()
        assert result.operation is GenericOperation.INSERT
        assert executor.session.store.object_count == before + 1
        assert executor.view.num_objects == before + 1

    def test_new_object_is_wired_consistently(self):
        executor = make_executor()
        executor.op_insert()
        assert_in_sync(executor)

    def test_insert_commits(self):
        executor = make_executor()
        result = executor.op_insert()
        assert result.io_writes > 0

    def test_repeated_inserts_get_fresh_oids(self):
        executor = make_executor()
        first = executor.view.next_oid
        executor.op_insert()
        executor.op_insert()
        assert executor.view.next_oid == first + 2


class TestUpdate:
    def test_update_preserves_invariants(self):
        executor = make_executor()
        executor.op_update()
        assert_in_sync(executor)

    def test_update_specific_object(self):
        executor = make_executor()
        result = executor.op_update(oid=1)
        assert result.objects_touched >= 1

    def test_update_redraws_reference(self):
        # Run several updates; at least one must change a reference.
        executor = make_executor(seed=5)
        before = {oid: tuple(obj.oref)
                  for oid, obj in executor.view.objects.items()}
        for _ in range(10):
            executor.op_update()
        after = {oid: tuple(obj.oref)
                 for oid, obj in executor.view.objects.items()}
        assert before != after


class TestDelete:
    def test_removes_object_everywhere(self):
        executor = make_executor()
        victim = 10
        executor.op_delete(oid=victim)
        assert victim not in executor.view.objects
        assert victim not in executor.session.store
        assert_in_sync(executor)

    def test_inbound_references_nulled(self):
        executor = make_executor()
        victim_oid = next(oid for oid, obj
                          in executor.view.objects.items()
                          if obj.back_refs)
        referrers = [(src, idx) for src, idx
                     in executor.view.get(victim_oid).back_refs
                     if src != victim_oid]
        executor.op_delete(oid=victim_oid)
        for source, index in referrers:
            assert executor.view.get(source).oref[index] is None

    def test_random_victim(self):
        executor = make_executor()
        before = executor.view.num_objects
        executor.op_delete()
        assert executor.view.num_objects == before - 1


class TestRangeLookup:
    def test_matches_attribute_predicate(self):
        executor = make_executor()
        result = executor.op_range_lookup(low=0, width=20)
        expected = sum(1 for oid in executor.view.objects
                       if attribute_of(oid) < 20)
        assert result.objects_touched == expected

    def test_reads_through_store(self):
        executor = make_executor()
        executor.session.store.drop_caches()
        executor.session.store.reset_stats()
        result = executor.op_range_lookup(low=0, width=50)
        assert result.io_reads > 0

    def test_width_validation(self):
        executor = make_executor()
        with pytest.raises(WorkloadError):
            executor.op_range_lookup(width=0)

    def test_attribute_is_deterministic_percentile(self):
        values = [attribute_of(oid) for oid in range(1, 2000)]
        assert all(0 <= v <= 99 for v in values)
        # Roughly uniform: every decile populated.
        assert {v // 10 for v in values} == set(range(10))


class TestSequentialScan:
    def test_touches_every_object(self):
        executor = make_executor()
        result = executor.op_sequential_scan()
        assert result.objects_touched == executor.view.num_objects

    def test_scan_in_physical_order_is_io_efficient(self):
        executor = make_executor()
        executor.session.store.drop_caches()
        executor.session.store.reset_stats()
        result = executor.op_sequential_scan()
        # Sequential order: each page read approximately once.
        assert result.io_reads <= executor.session.store.page_count + 2


class TestMix:
    def test_default_mix_keeps_invariants(self):
        executor = make_executor()
        warm = run_mix(executor, 12)
        assert warm.operation_count == 12
        assert_in_sync(executor)

    def test_mix_validation(self):
        executor = make_executor()
        with pytest.raises(ParameterError):
            run_mix(executor, -1)
        with pytest.raises(ParameterError):
            run_mix(executor, 1, weights={GenericOperation.INSERT: 0.0})


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       script=st.lists(st.sampled_from(["insert", "update", "delete",
                                        "range", "scan"]),
                       min_size=1, max_size=12))
def test_any_operation_sequence_keeps_store_and_database_in_sync(seed,
                                                                 script):
    """Property: arbitrary operation sequences never break the invariants."""
    executor = make_executor(seed=seed, num_objects=60)
    for step in script:
        if step == "insert":
            executor.op_insert()
        elif step == "update":
            executor.op_update()
        elif step == "delete" and executor.view.num_objects > 2:
            executor.op_delete()
        elif step == "range":
            executor.op_range_lookup(low=0, width=25)
        elif step == "scan":
            executor.op_sequential_scan()
    assert_in_sync(executor)

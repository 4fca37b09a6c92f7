"""OCBDatabase container tests."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import OCBDatabase, OCBObject
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.errors import GenerationError
from repro.store.serializer import encoded_size


class TestLookups:
    def test_get_and_class_of(self, small_database):
        obj = small_database.get(1)
        assert obj.oid == 1
        assert small_database.class_of(1) == obj.cid

    def test_unknown_oid(self, small_database):
        with pytest.raises(GenerationError):
            small_database.get(10_000)
        with pytest.raises(GenerationError):
            small_database.class_of(10_000)

    def test_catalog_is_copy(self, small_database):
        catalog = small_database.catalog()
        catalog[1] = 999
        assert small_database.class_of(1) != 999 or \
            small_database.class_of(1) == small_database.get(1).cid

    def test_tref_table_covers_all_classes(self, small_database):
        table = small_database.tref_table()
        assert set(table) == set(small_database.schema.class_ids())

    def test_iter_objects_ordered(self, small_database):
        oids = [obj.oid for obj in small_database.iter_objects()]
        assert oids == sorted(oids)


class TestRecords:
    def test_records_carry_instance_size_as_filler(self, small_database):
        records = small_database.to_records()
        for oid, record in list(records.items())[:20]:
            descriptor = small_database.schema.get(record.cid)
            assert record.filler == descriptor.instance_size

    def test_record_sizes_match_encoding(self, small_database):
        records = small_database.to_records()
        sizes = small_database.record_sizes()
        for oid, record in records.items():
            assert sizes[oid] == record.size

    def test_total_bytes(self, small_database):
        assert small_database.total_bytes() == \
            sum(small_database.record_sizes().values())


class TestValidation:
    def test_valid_database_passes(self, small_database):
        small_database.validate()

    def test_detects_dangling_reference(self, small_db_params):
        database, _ = generate_database(small_db_params)
        victim = next(o for o in database.objects.values() if o.oref)
        for i, t in enumerate(victim.oref):
            if t is not None:
                victim.oref[i] = 99_999
                break
        with pytest.raises(GenerationError):
            database.validate()

    def test_detects_broken_back_reference(self, small_db_params):
        database, _ = generate_database(small_db_params)
        victim = next(o for o in database.objects.values() if o.back_refs)
        victim.back_refs.pop()
        with pytest.raises(GenerationError):
            database.validate()

    def test_detects_wrong_slot_count(self, small_db_params):
        database, _ = generate_database(small_db_params)
        victim = database.get(1)
        victim.oref.append(None)
        with pytest.raises(GenerationError):
            database.validate()


class TestStatistics:
    def test_counts_consistent(self, small_database):
        stats = small_database.statistics()
        assert stats.num_objects == small_database.num_objects
        assert stats.num_classes == small_database.schema.num_classes
        total_slots = stats.live_references + stats.nil_references
        expected_slots = sum(
            small_database.schema.get(o.cid).max_nref
            for o in small_database.objects.values())
        assert total_slots == expected_slots

    def test_average_fanout(self, small_database):
        stats = small_database.statistics()
        assert stats.average_fanout == pytest.approx(
            stats.live_references / stats.num_objects)

    def test_population_by_class_sums_to_no(self, small_database):
        stats = small_database.statistics()
        assert sum(count for _, count in stats.population_by_class) == \
            stats.num_objects

    def test_describe_mentions_key_numbers(self, small_database):
        text = small_database.statistics().describe()
        assert str(small_database.num_objects) in text


class TestLiveReferences:
    def test_live_references_property(self):
        obj = OCBObject(oid=1, cid=1, oref=[2, None, 3])
        assert obj.live_references == [2, 3]


def _tiny_database() -> OCBDatabase:
    database, _ = generate_database(DatabaseParameters(
        num_classes=4, max_nref=2, base_size=20, num_objects=24, seed=5))
    return database


def _blank(database: OCBDatabase, oid: int) -> OCBObject:
    cid = oid % database.schema.num_classes + 1
    return OCBObject(oid=oid, cid=cid,
                     oref=[None] * database.schema.get(cid).max_nref)


def _assert_index_current(database: OCBDatabase) -> None:
    assert database.sorted_oids() == sorted(database.objects)
    assert database.next_oid == max(database.objects, default=0) + 1


_PRISTINE = _tiny_database()

#: ``add`` an oid (skipped when live), ``remove`` the k-th live oid,
#: drop the newest, empty the view, or carry on in a deep or pickled copy.
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(1, 60)),
    st.tuples(st.just("remove"), st.integers(0, 60)),
    st.tuples(st.sampled_from(
        ["remove_max", "empty", "deepcopy", "pickle"]), st.just(0))),
    max_size=60)


class TestSortedOidIndex:
    @settings(max_examples=200, deadline=None)
    @given(steps=_STEPS, built_first=st.booleans())
    def test_index_matches_a_full_sort_after_every_step(self, steps,
                                                         built_first):
        database = copy.deepcopy(_PRISTINE)
        if built_first:
            database.sorted_oids()
        for op, value in steps:
            live = sorted(database.objects)
            if op == "add" and value not in database.objects:
                database.add_object(_blank(database, value))
            elif op == "remove" and live:
                database.remove_object(live[value % len(live)])
            elif op == "remove_max" and live:
                database.remove_object(live[-1])
            elif op == "empty":
                for oid in live:
                    database.remove_object(oid)
            elif op == "deepcopy":
                database = copy.deepcopy(database)
            elif op == "pickle":
                database = pickle.loads(pickle.dumps(database))
            _assert_index_current(database)
        _assert_index_current(copy.deepcopy(database))
        _assert_index_current(pickle.loads(pickle.dumps(database)))

    def test_deleting_the_newest_object_frees_its_oid(self):
        database = copy.deepcopy(_PRISTINE)
        newest = database.next_oid
        database.add_object(_blank(database, newest))
        assert database.next_oid == newest + 1
        database.remove_object(newest)
        assert database.next_oid == newest

    def test_empty_view_starts_at_one(self):
        database = copy.deepcopy(_PRISTINE)
        for oid in list(database.sorted_oids()):
            database.remove_object(oid)
        assert database.sorted_oids() == []
        assert database.next_oid == 1

    def test_iter_objects_survives_removal_during_iteration(self):
        database = copy.deepcopy(_PRISTINE)
        seen = []
        for obj in database.iter_objects():
            seen.append(obj.oid)
            if obj.oid % 2 == 1:
                database.remove_object(obj.oid)
        assert seen == sorted(_PRISTINE.objects)
        _assert_index_current(database)

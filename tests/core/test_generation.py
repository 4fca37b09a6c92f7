"""Fig. 2 generation algorithm tests."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import generate_database, generate_schema
from repro.core.parameters import DatabaseParameters, ReferenceTypeSpec
from repro.core.presets import default_database_parameters
from repro.rand.distributions import (
    ConstantDistribution,
    NormalDistribution,
    SpecialDistribution,
    ZipfDistribution,
)


def params(**overrides):
    defaults = dict(num_classes=6, max_nref=3, base_size=20,
                    num_objects=120, num_ref_types=4, seed=7)
    defaults.update(overrides)
    return DatabaseParameters(**defaults)


class TestSchemaGeneration:
    def test_class_count(self):
        schema, _ = generate_schema(params())
        assert schema.num_classes == 6

    def test_reference_types_in_range(self):
        schema, _ = generate_schema(params())
        for descriptor in schema:
            for type_id in descriptor.tref:
                assert 1 <= type_id <= 4

    def test_class_references_in_bounds(self):
        schema, _ = generate_schema(params(inf_class=2, sup_class=4))
        for descriptor in schema:
            for target in descriptor.cref:
                assert target is None or 2 <= target <= 4

    def test_inf_class_zero_produces_nils(self):
        schema, _ = generate_schema(params(
            inf_class=0, dist2=ConstantDistribution(0)))
        for descriptor in schema:
            assert all(target is None for target in descriptor.cref)

    def test_acyclic_types_have_no_cycles(self):
        schema, removed = generate_schema(params())
        for spec in schema.reference_types():
            if spec.acyclic:
                assert not schema.has_cycle(spec.type_id)

    def test_consistency_reports_removals(self):
        # Single class referencing itself with an acyclic type: the
        # consistency step must NULL every such reference.
        p = params(num_classes=1, num_ref_types=2,
                   fixed_tref=((1, 1, 1),), fixed_cref=((1, 1, 1),))
        schema, removed = generate_schema(p)
        assert removed == 3
        assert schema.get(1).live_reference_count == 0

    def test_cyclic_types_keep_self_references(self):
        p = params(num_classes=1, num_ref_types=4,
                   fixed_tref=((3, 3, 3),), fixed_cref=((1, 1, 1),))
        schema, removed = generate_schema(p)
        assert removed == 0
        assert schema.get(1).live_reference_count == 3

    def test_instance_sizes_include_inheritance(self):
        # 2 inherits from 1 => instance size of 2 is 20 + 20.
        p = params(num_classes=2, num_ref_types=2,
                   fixed_tref=((2,) * 3, (1, 2, 2)),
                   fixed_cref=((None,) * 3, (1, None, None)))
        schema, _ = generate_schema(p)
        assert schema.get(1).instance_size == 20
        assert schema.get(2).instance_size == 40

    def test_fixed_tref_and_cref_respected(self):
        p = params(num_classes=2, num_ref_types=4,
                   fixed_tref=((3, 3, 4), (4, 4, 4)),
                   fixed_cref=((2, 2, 0), (1, 1, 1)))
        schema, _ = generate_schema(p)
        assert schema.get(1).tref == [3, 3, 4]
        assert schema.get(1).cref == [2, 2, None]
        assert schema.get(2).cref == [1, 1, 1]


class TestObjectGeneration:
    def test_population_matches_no(self):
        database, _ = generate_database(params())
        assert database.num_objects == 120
        assert database.schema.total_population() == 120

    def test_every_object_in_class_range(self):
        database, _ = generate_database(params())
        for obj in database.objects.values():
            assert 1 <= obj.cid <= 6

    def test_dist3_constant_puts_all_in_one_class(self):
        database, _ = generate_database(params(
            dist3=ConstantDistribution(2)))
        assert all(obj.cid == 2 for obj in database.objects.values())
        assert database.schema.get(2).population == 120

    def test_reference_targets_match_cref_class(self):
        database, _ = generate_database(params(), validate=True)
        # validate() already checks; assert a sample explicitly.
        for obj in list(database.objects.values())[:20]:
            descriptor = database.schema.get(obj.cid)
            for index, target in enumerate(obj.oref):
                if target is not None:
                    assert database.class_of(target) == \
                        descriptor.cref[index]

    def test_back_references_mirror_forward(self):
        database, _ = generate_database(params())
        database.validate()  # Raises on any inconsistency.

    def test_ref_zone_locality(self):
        database, _ = generate_database(params(
            num_classes=1, num_objects=400, num_ref_types=3,
            fixed_tref=((3, 3, 3),), fixed_cref=((1, 1, 1),),
            ref_zone=10))
        for obj in database.objects.values():
            for target in obj.oref:
                if target is not None:
                    assert abs(target - obj.oid) <= 10

    def test_empty_database(self):
        database, report = generate_database(params(num_objects=0))
        assert database.num_objects == 0
        assert report.total_seconds >= 0.0

    def test_zero_maxnref(self):
        database, _ = generate_database(params(max_nref=0), validate=True)
        for obj in database.objects.values():
            assert obj.oref == []


class TestDeterminism:
    def test_same_seed_same_database(self):
        a, _ = generate_database(params(seed=123))
        b, _ = generate_database(params(seed=123))
        assert a.catalog() == b.catalog()
        for oid in a.objects:
            assert a.objects[oid].oref == b.objects[oid].oref
            assert a.objects[oid].back_refs == b.objects[oid].back_refs

    def test_different_seed_different_database(self):
        a, _ = generate_database(params(seed=123))
        b, _ = generate_database(params(seed=124))
        assert any(a.objects[oid].oref != b.objects[oid].oref
                   for oid in a.objects)

    def test_object_count_does_not_perturb_schema(self):
        small, _ = generate_schema(params(num_objects=10)), None
        large, _ = generate_schema(params(num_objects=1000)), None
        schema_small = small[0]
        schema_large = large[0]
        for cid in schema_small.class_ids():
            assert schema_small.get(cid).tref == schema_large.get(cid).tref
            assert schema_small.get(cid).cref == schema_large.get(cid).cref


def _bench_fixed_schema_parameters():
    """The bench's path: Table 1's schema pinned via fixed_tref/fixed_cref."""
    schema, _ = generate_schema(default_database_parameters(seed=19980323))
    return dataclasses.replace(
        default_database_parameters(seed=7),
        num_objects=2000,
        fixed_tref=tuple(tuple(c.tref) for c in schema),
        fixed_cref=tuple(tuple(target or 0 for target in c.cref)
                         for c in schema))


def _database_digest(database):
    digest = hashlib.sha256()
    for oid in sorted(database.objects):
        obj = database.objects[oid]
        digest.update(repr((obj.oid, obj.cid, obj.oref,
                            obj.back_refs)).encode())
    return digest.hexdigest()


class TestGoldenDatabases:
    """Same parameters, same seed -> the same database, bit for bit.

    The digests pin every object's class, forward and reverse references.
    Any change to the order or number of random draws changes them.
    """

    CASES = {
        "default": (
            lambda: DatabaseParameters(),
            "144298d9bce149807c6b282d40ffe8307f795e7f519e254aebe033360f59fc69"),
        "ref_zone": (
            lambda: params(num_objects=1500, ref_zone=25),
            "7639715952663c1ff54630dfbe7177fdae298a4afd1d0a51b9eb4a67e2220371"),
        "dist4_normal": (
            lambda: params(num_objects=1500, dist4=NormalDistribution()),
            "7815e7ee66ad27c8a6e41ed597ddcc1666026f3b059cc7b773ee3cc6b68d7e05"),
        "dist4_zipf": (
            lambda: params(num_objects=1500, dist4=ZipfDistribution()),
            "446dad9b1cb3adcc7f6250cc48ac5529dd9e5c1b89230f27766d588c326bab51"),
        "dist4_special": (
            lambda: params(num_objects=1500,
                           dist4=SpecialDistribution(ref_zone=40)),
            "ff7ef6d62156c47f3ae3bdee0a08fe99dcf8ef99e0a37146f5f90fdf61a6d897"),
        "dist3_constant": (
            lambda: params(num_objects=1500, dist3=ConstantDistribution(3)),
            "ede45e8c4411f32af97058b166866a182fe2b17dcb34ac63cb9b4f26c5868bfa"),
        "nc_1": (
            lambda: params(num_classes=1, num_objects=1500),
            "12437f987b0fa599d054b738125294feee4450bf87575a687e8491316f51ef5e"),
        "nc_50": (
            lambda: params(num_classes=50, max_nref=10, num_objects=3000),
            "61452e16ffa952f5ea731cf60221c36c49f68e9927b3c2f29dd0dfb47b01f4d1"),
        "bench_fixed_schema": (
            _bench_fixed_schema_parameters,
            "b14f447a42271b6317221e4f6b499c875171b1c97df6194293ac686c0ef43d59"),
        "no_0": (
            lambda: params(num_objects=0),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case):
        make_parameters, expected = self.CASES[case]
        database, _ = generate_database(make_parameters())
        assert _database_digest(database) == expected


class TestGenerationReport:
    def test_phases_sum_to_total(self):
        _, report = generate_database(params())
        assert report.total_seconds == pytest.approx(
            report.schema_seconds + report.consistency_seconds +
            report.objects_seconds + report.references_seconds)

    def test_bigger_database_takes_longer(self):
        _, small = generate_database(params(num_objects=50))
        _, large = generate_database(params(num_objects=5000))
        assert large.total_seconds > small.total_seconds


@settings(max_examples=20, deadline=None)
@given(
    num_classes=st.integers(min_value=1, max_value=10),
    max_nref=st.integers(min_value=0, max_value=5),
    num_objects=st.integers(min_value=0, max_value=150),
    num_ref_types=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generation_invariants_property(num_classes, max_nref, num_objects,
                                        num_ref_types, seed):
    """Any parameterization yields a structurally valid database."""
    p = DatabaseParameters(num_classes=num_classes, max_nref=max_nref,
                           base_size=10, num_objects=num_objects,
                           num_ref_types=num_ref_types, seed=seed)
    database, _ = generate_database(p)
    database.validate()
    for spec in database.schema.reference_types():
        if spec.acyclic:
            assert not database.schema.has_cycle(spec.type_id)

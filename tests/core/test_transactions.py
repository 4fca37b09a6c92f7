"""Fig. 3 transaction tests over a hand-built store."""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.base import NoClustering
from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.core.session import Session
from repro.core.transactions import (
    TransactionKind,
    TransactionResult,
    TransactionSpec,
    run_transaction,
)
from repro.errors import WorkloadError
from repro.rand.lewis_payne import LewisPayne
from repro.store.serializer import StoredObject
from repro.store.storage import ObjectStore


def build_store(records):
    store = ObjectStore(page_size=256, buffer_pages=16)
    store.bulk_load(records)
    store.reset_stats()
    return store


def make_tree():
    """A binary tree of depth 3 with typed refs: slot 0 type 1, slot 1 type 2.

    oid 1 -> (2, 3); 2 -> (4, 5); 3 -> (6, 7); leaves 4..7.
    """
    records = []
    back = {i: [] for i in range(1, 8)}
    children = {1: (2, 3), 2: (4, 5), 3: (6, 7)}
    for oid in range(1, 8):
        refs = children.get(oid, (None, None))
        records.append(StoredObject(oid=oid, cid=1, refs=refs, filler=8))
        for slot, target in enumerate(refs):
            if target is not None:
                back[target].append((oid, slot))
    records = [r.with_back_refs(tuple(back[r.oid])) for r in records]
    tref_table = {1: (1, 2)}
    catalog = {oid: 1 for oid in range(1, 8)}
    return records, tref_table, catalog


@pytest.fixture
def tree_ctx():
    records, tref_table, catalog = make_tree()
    store = build_store(records)
    return Session(store, tref_table=tref_table, catalog=catalog)


def spec(kind, root=1, depth=3, **kw):
    return TransactionSpec(kind=kind, root=root, depth=depth, **kw)


class TestSetOrientedAccess:
    def test_breadth_first_visits_whole_tree(self, tree_ctx, rng):
        result = run_transaction(tree_ctx, spec(TransactionKind.SET), rng)
        assert result.visits == 7
        assert result.distinct_objects == 7
        assert result.max_depth_reached == 2

    def test_depth_zero_touches_root_only(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, depth=0), rng)
        assert result.visits == 1
        assert result.distinct_objects == 1

    def test_depth_limits_frontier(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, depth=1), rng)
        assert result.visits == 3  # Root + two children.

    def test_duplicates_counted_without_dedupe(self, rng):
        # 1 -> (2, 2): the same child twice.
        records = [
            StoredObject(oid=1, cid=1, refs=(2, 2)),
            StoredObject(oid=2, cid=1, refs=(None, None),
                         back_refs=((1, 0), (1, 1))),
        ]
        ctx = Session(build_store(records), tref_table={1: (1, 1)},
                      catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.SET, depth=1), rng)
        assert result.visits == 3
        assert result.distinct_objects == 2

    def test_dedupe_visits_once(self, rng):
        records = [
            StoredObject(oid=1, cid=1, refs=(2, 2)),
            StoredObject(oid=2, cid=1, refs=(None, None),
                         back_refs=((1, 0), (1, 1))),
        ]
        ctx = Session(build_store(records), tref_table={1: (1, 1)},
                      catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.SET, depth=1, dedupe=True), rng)
        assert result.visits == 2

    def test_max_visits_truncates(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, max_visits=3), rng)
        assert result.visits == 3
        assert result.truncated

    def test_reverse_walks_back_references(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.SET, root=7, reverse=True), rng)
        # 7 <- 3 <- 1.
        assert result.visits == 3
        assert result.distinct_objects == 3


class TestSimpleTraversal:
    def test_depth_first_covers_tree(self, tree_ctx, rng):
        result = run_transaction(tree_ctx, spec(TransactionKind.SIMPLE), rng)
        assert result.visits == 7
        assert result.max_depth_reached == 2

    def test_counts_revisits_on_cycles(self, rng):
        records = [
            StoredObject(oid=1, cid=1, refs=(2,), back_refs=((2, 0),)),
            StoredObject(oid=2, cid=1, refs=(1,), back_refs=((1, 0),)),
        ]
        ctx = Session(build_store(records), tref_table={1: (1,)},
                      catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.SIMPLE, depth=4), rng)
        assert result.visits == 5  # 1,2,1,2,1 — bounded by depth.
        assert result.distinct_objects == 2


class TestHierarchyTraversal:
    def test_follows_single_type(self, tree_ctx, rng):
        # Type 1 references = slot 0 = left children: 1 -> 2 -> 4.
        result = run_transaction(
            tree_ctx, spec(TransactionKind.HIERARCHY, ref_type=1), rng)
        assert result.visits == 3
        assert result.distinct_objects == 3

    def test_other_type(self, tree_ctx, rng):
        # Type 2 = right children: 1 -> 3 -> 7.
        result = run_transaction(
            tree_ctx, spec(TransactionKind.HIERARCHY, ref_type=2), rng)
        assert result.visits == 3

    def test_requires_ref_type(self, tree_ctx, rng):
        with pytest.raises(WorkloadError):
            run_transaction(
                tree_ctx, spec(TransactionKind.HIERARCHY), rng)

    def test_reverse_hierarchy_filters_by_origin_type(self, tree_ctx, rng):
        # From 4 backwards along type 1: 4 <- 2 <- 1.
        result = run_transaction(
            tree_ctx, spec(TransactionKind.HIERARCHY, root=4, ref_type=1,
                           reverse=True), rng)
        assert result.visits == 3


class TestStochasticTraversal:
    def test_walk_length_bounded_by_depth(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.STOCHASTIC, depth=2), rng)
        assert result.visits <= 3

    def test_stops_at_sink(self, tree_ctx, rng):
        result = run_transaction(
            tree_ctx, spec(TransactionKind.STOCHASTIC, root=7, depth=10), rng)
        assert result.visits == 1  # Leaf: no outgoing references.

    def test_long_walk_on_cycle(self, rng):
        records = [
            StoredObject(oid=1, cid=1, refs=(2,), back_refs=((2, 0),)),
            StoredObject(oid=2, cid=1, refs=(1,), back_refs=((1, 0),)),
        ]
        ctx = Session(build_store(records), tref_table={1: (1,)},
                      catalog={1: 1, 2: 1})
        result = run_transaction(
            ctx, spec(TransactionKind.STOCHASTIC, depth=30), rng)
        assert result.visits >= 10  # Mostly keeps walking the 2-cycle.

    def test_first_reference_preferred(self):
        # Star: root references 1..4; p(N) = 1/2^N favours slot 1.
        records = [StoredObject(oid=9, cid=1, refs=(1, 2, 3, 4))]
        back = {}
        for oid in (1, 2, 3, 4):
            records.append(StoredObject(oid=oid, cid=1, refs=(9,),
                                        back_refs=()))
        ctx = Session(build_store(records),
                      tref_table={1: (1, 1, 1, 1)},
                      catalog={oid: 1 for oid in (1, 2, 3, 4, 9)})
        rng = LewisPayne(31415)
        first_steps = []
        for _ in range(300):
            seen = []
            original = ctx.access

            def spy(oid, source=None, ref_index=None, via_back_ref=False):
                seen.append(oid)
                return original(oid, source=source, ref_index=ref_index,
                                via_back_ref=via_back_ref)

            ctx.access = spy  # type: ignore[assignment]
            run_transaction(ctx, spec(TransactionKind.STOCHASTIC, root=9,
                                      depth=1), rng)
            ctx.access = original  # type: ignore[assignment]
            if len(seen) > 1:
                first_steps.append(seen[1])
        share_first = sum(1 for s in first_steps if s == 1) / len(first_steps)
        assert 0.4 < share_first < 0.65  # p(1) = 1/2.


class TestAccessContext:
    def test_policy_sees_link_crossings(self, rng):
        records, tref_table, catalog = make_tree()
        store = build_store(records)
        policy = DSTCPolicy(DSTCParameters(observation_period=1,
                                           selection_threshold=1))
        ctx = Session(store, policy=policy, tref_table=tref_table,
                      catalog=catalog)
        run_transaction(ctx, spec(TransactionKind.SIMPLE), rng)
        assert policy.consolidated_size == 6  # Six tree edges crossed.

    def test_transaction_end_signalled(self, rng):
        records, tref_table, catalog = make_tree()

        class CountingPolicy(DSTCPolicy):
            ended = 0

            def on_transaction_end(self):
                CountingPolicy.ended += 1
                super().on_transaction_end()

        ctx = Session(build_store(records), policy=CountingPolicy(),
                      tref_table=tref_table, catalog=catalog)
        run_transaction(ctx, spec(TransactionKind.SET), rng)
        assert CountingPolicy.ended == 1

    def test_ref_type_lookup_handles_unknowns(self, tree_ctx):
        # Class 1's slots have types (1, 2); an unknown type or class
        # matches no slot.
        assert tree_ctx.slots_of_type(2) == {1: (1,)}
        assert tree_ctx.slots_of_type(99) == {}
        assert tree_ctx.slots_of_type(1).get(42, ()) == ()

    def test_class_of(self, tree_ctx):
        assert tree_ctx.class_of(1) == 1
        assert tree_ctx.class_of(12345) is None


#
# Kept verbatim (docstrings shortened) as the reference the kernel in
# ``repro.core.transactions`` must match call for call: the same engine
# reads in the same order, the same policy observations, the same
# ``TransactionResult`` and the same random stream.  Only the depth-first
# prefetch schedule was rewritten: level by level before the walk, one
# edge at a time (``_prefetch_subtree``).  The slot-type lookup the
# Session no longer offers is ``_slot_type`` here.

def _slot_type(ctx: Session, cid: Optional[int],
               index: int) -> Optional[int]:
    """Type of reference slot *index* of class *cid*, if known."""
    types = ctx._tref_table.get(cid)
    if types is None or index >= len(types):
        return None
    return types[index]


class _Tracker:
    """Visit accounting shared by the four traversal algorithms."""

    __slots__ = ("visits", "distinct", "max_depth", "truncated", "limit")

    def __init__(self, limit: int) -> None:
        self.visits = 0
        self.distinct: Set[int] = set()
        self.max_depth = 0
        self.truncated = False
        self.limit = limit

    def note(self, oid: int, depth: int) -> bool:
        """Record a visit; return False when the budget is exhausted."""
        if self.visits >= self.limit:
            self.truncated = True
            return False
        self.visits += 1
        self.distinct.add(oid)
        if depth > self.max_depth:
            self.max_depth = depth
        return True


def _reference_run_transaction(ctx: Session, spec: TransactionSpec,
                    rng: LewisPayne) -> TransactionResult:
    """Execute one transaction and return its logical result."""
    tracker = _Tracker(spec.max_visits)
    if spec.kind is TransactionKind.SET:
        _breadth_first(ctx, spec, tracker)
    elif spec.kind is TransactionKind.SIMPLE:
        _depth_first(ctx, spec, tracker, type_filter=None)
    elif spec.kind is TransactionKind.HIERARCHY:
        if spec.ref_type is None:
            raise WorkloadError("hierarchy traversal needs a ref_type")
        _depth_first(ctx, spec, tracker, type_filter=spec.ref_type)
    elif spec.kind is TransactionKind.STOCHASTIC:
        _stochastic(ctx, spec, tracker, rng)
    else:  # pragma: no cover - exhaustive enum
        raise WorkloadError(f"unknown transaction kind {spec.kind}")
    ctx.end_transaction()
    return TransactionResult(
        kind=spec.kind,
        root=spec.root,
        visits=tracker.visits,
        distinct_objects=len(tracker.distinct),
        max_depth_reached=tracker.max_depth,
        reverse=spec.reverse,
        ref_type=spec.ref_type,
        truncated=tracker.truncated)



def _neighbours(ctx: Session, record: StoredObject, reverse: bool,
                type_filter: Optional[int]) -> List[Tuple[int, int, bool]]:
    """(target oid, ref index, via_back_ref) edges leaving *record*."""
    edges: List[Tuple[int, int, bool]] = []
    if not reverse:
        for index, target in enumerate(record.refs):
            if target is None:
                continue
            if type_filter is not None and \
                    _slot_type(ctx, record.cid, index) != type_filter:
                continue
            edges.append((target, index, False))
    else:
        for source_oid, index in record.back_refs:
            if type_filter is not None:
                source_cid = ctx.class_of(source_oid)
                if _slot_type(ctx, source_cid, index) != type_filter:
                    continue
            edges.append((source_oid, index, True))
    return edges



def _breadth_first(ctx: Session, spec: TransactionSpec,
                   tracker: _Tracker) -> None:
    """Level-order expansion, one prefetch per frontier."""
    root_record = ctx.access(spec.root)
    if not tracker.note(spec.root, 0):
        return
    seen: Set[int] = {spec.root}
    frontier: List[Tuple[StoredObject, int]] = [(root_record, 0)]
    while frontier:
        edges: List[Tuple[StoredObject, int, int, int, bool]] = []
        for record, depth in frontier:
            if depth >= spec.depth:
                continue
            for target, index, via_back in _neighbours(
                    ctx, record, spec.reverse, None):
                edges.append((record, depth, target, index, via_back))
        if not edges:
            return
        ctx.prefetch(target for _, _, target, _, _ in edges
                     if not (spec.dedupe and target in seen))
        next_frontier: List[Tuple[StoredObject, int]] = []
        for record, depth, target, index, via_back in edges:
            if spec.dedupe and target in seen:
                continue
            child = ctx.access(target, source=record, ref_index=index,
                               via_back_ref=via_back)
            if not tracker.note(target, depth + 1):
                return
            seen.add(target)
            next_frontier.append((child, depth + 1))
        frontier = next_frontier



def _depth_first(ctx: Session, spec: TransactionSpec,
                 tracker: _Tracker, type_filter: Optional[int]) -> None:
    """Pre-order expansion of a subtree prefetched level by level."""
    root_record = ctx.access(spec.root)
    if not tracker.note(spec.root, 0):
        return
    seen: Set[int] = {spec.root}
    if ctx.batch_reads:
        _prefetch_subtree(ctx, spec, root_record, type_filter)

    def visit(record: StoredObject, depth: int) -> bool:
        if depth >= spec.depth:
            return True
        edges = _neighbours(ctx, record, spec.reverse, type_filter)
        for target, index, via_back in edges:
            if spec.dedupe and target in seen:
                continue
            child = ctx.access(target, source=record, ref_index=index,
                               via_back_ref=via_back)
            if not tracker.note(target, depth + 1):
                return False
            seen.add(target)
            if not visit(child, depth + 1):
                return False
        return True

    visit(root_record, 0)


def _prefetch_subtree(ctx: Session, spec: TransactionSpec,
                      root_record: StoredObject,
                      type_filter: Optional[int]) -> None:
    """One prefetch per level: each edge of each requested occurrence
    (first occurrences only under dedupe), ``max_visits - 1`` in all."""
    budget = spec.max_visits - 1
    requested: Set[int] = {spec.root}
    frontier = [root_record]
    for _ in range(spec.depth):
        level: List[int] = []
        for record in frontier:
            for target, _, _ in _neighbours(ctx, record, spec.reverse,
                                            type_filter):
                if len(level) == budget:
                    break
                if spec.dedupe and target in requested:
                    continue
                requested.add(target)
                level.append(target)
        if not level:
            return
        ctx.prefetch(level)
        budget -= len(level)
        frontier = [ctx.peek(target) for target in level]



_STOCHASTIC_RETRIES = 8


def _stochastic(ctx: Session, spec: TransactionSpec,
                tracker: _Tracker, rng: LewisPayne) -> None:
    record = ctx.access(spec.root)
    if not tracker.note(spec.root, 0):
        return
    for step in range(1, spec.depth + 1):
        edges = _neighbours(ctx, record, spec.reverse, None)
        if not edges:
            return
        chosen: Optional[Tuple[int, int, bool]] = None
        for _ in range(_STOCHASTIC_RETRIES):
            n = rng.geometric_half(len(edges))
            if n is not None:
                chosen = edges[n - 1]
                break
        if chosen is None:
            return  # Absorbing state: residual probability mass.
        target, index, via_back = chosen
        record = ctx.access(target, source=record, ref_index=index,
                            via_back_ref=via_back)
        if not tracker.note(target, step):
            return


class RecordingPolicy(NoClustering):
    """Logs every observation and transaction end, in order."""

    def __init__(self) -> None:
        self.log = []

    def observe_access(self, source, target, ref_type=None) -> None:
        self.log.append((source, target, ref_type))

    def on_transaction_end(self) -> None:
        self.log.append("end")


class RecordingEngine:
    """Delegates to an engine, logging every read it is asked for."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.calls = []

    def read_object(self, oid):
        self.calls.append(("read_object", oid))
        return self._engine.read_object(oid)

    def read_many(self, oids):
        oids = list(oids)
        self.calls.append(("read_many", tuple(oids)))
        return self._engine.read_many(oids)

    def __getattr__(self, name):
        return getattr(self._engine, name)


ORACLE_BACKENDS = ("simulated", "memory", "sqlite")


@pytest.fixture(scope="module")
def oracle_engines(small_database):
    engines = {name: Session.for_database(small_database, name).store
               for name in ORACLE_BACKENDS}
    yield engines
    for engine in engines.values():
        engine.close()


def run_recorded(kernel, engine, database, spec, seed):
    """Run *spec* through *kernel*; return everything it did, in order."""
    return run_recorded_on(kernel, engine, database.tref_table(),
                           database.catalog(), spec, seed)


def run_recorded_on(kernel, engine, tref_table, catalog, spec, seed):
    """:func:`run_recorded` with the schema tables given directly."""
    recorder = RecordingEngine(engine)
    session = Session(recorder, policy=RecordingPolicy(),
                      tref_table=tref_table, catalog=catalog)
    rng = LewisPayne(seed)
    result = kernel(session, spec, rng)
    return result, session.policy.log, recorder.calls, rng.getstate()


class TestKernelMatchesOracle:
    """The kernel against the per-edge reference, on every engine kind.

    Small visit budgets cut traversals short mid-level and mid-fan-out,
    where the depth and distinct-object accounting is easiest to get
    wrong.
    """

    @pytest.mark.parametrize("backend", ORACLE_BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from(list(TransactionKind)),
           depth=st.integers(0, 6),
           reverse=st.booleans(),
           dedupe=st.booleans(),
           max_visits=st.integers(1, 60),
           seed=st.integers(1, 2 ** 31))
    def test_same_calls_results_and_stream(
            self, oracle_engines, small_database, backend, data, kind,
            depth, reverse, dedupe, max_visits, seed):
        engine = oracle_engines[backend]
        root = data.draw(st.sampled_from(sorted(small_database.catalog())),
                         label="root")
        ref_types = st.integers(1, small_database.parameters.num_ref_types)
        if kind is not TransactionKind.HIERARCHY:
            ref_types = st.none() | ref_types
        spec = TransactionSpec(kind=kind, root=root, depth=depth,
                               reverse=reverse,
                               ref_type=data.draw(ref_types, label="ref_type"),
                               dedupe=dedupe, max_visits=max_visits)
        result, observed, reads, state = run_recorded(
            run_transaction, engine, small_database, spec, seed)
        expected = run_recorded(_reference_run_transaction, engine,
                                small_database, spec, seed)
        assert result == expected[0]
        assert observed == expected[1]
        assert reads == expected[2]
        assert state == expected[3]


def make_lattice():
    """A small graph dense in repeats, every slot of type 1 or 2.

    Level 1 from oid 1 reaches 2 twice; level 2 reaches 4 from both 2
    and 3; 4 cycles back to the root and 6 names 7 in two slots.
    """
    refs = {1: (2, 3, 2), 2: (4, 5, None), 3: (4, 6, None),
            4: (1, 7, None), 5: (7, None, None), 6: (7, 7, None),
            7: (2, None, None)}
    back = {oid: [] for oid in refs}
    for oid, targets in refs.items():
        for slot, target in enumerate(targets):
            if target is not None:
                back[target].append((oid, slot))
    records = [StoredObject(oid=oid, cid=1, refs=targets,
                            back_refs=tuple(back[oid]), filler=8)
               for oid, targets in refs.items()]
    return records, {1: (1, 2, 1)}, {oid: 1 for oid in refs}


class TestKernelMatchesOracleOnRepeats:
    """Every depth-first budget on a graph where each level repeats
    objects: the prefetch schedule must list repeats and stop exactly
    at ``max_visits - 1`` requested occurrences."""

    def test_every_budget(self):
        from repro.backends import SQLiteBackend

        records, tref_table, catalog = make_lattice()
        engine = SQLiteBackend(page_size=512, cache_pages=16)
        engine.bulk_load(records, order=sorted(catalog))
        try:
            for kind, ref_type in ((TransactionKind.SIMPLE, None),
                                   (TransactionKind.HIERARCHY, 1)):
                for reverse in (False, True):
                    for dedupe in (False, True):
                        for depth in range(1, 6):
                            for max_visits in range(1, 40):
                                case = TransactionSpec(
                                    kind=kind, root=1, depth=depth,
                                    reverse=reverse, ref_type=ref_type,
                                    dedupe=dedupe, max_visits=max_visits)
                                assert run_recorded_on(
                                    run_transaction, engine, tref_table,
                                    catalog, case, 1) == run_recorded_on(
                                    _reference_run_transaction, engine,
                                    tref_table, catalog, case, 1), case
        finally:
            engine.close()

"""OCB transactions (Fig. 3 of the paper).

Four transaction classes, all rooted at a randomly chosen object and
bounded by a per-kind depth:

* **Set-oriented access** — breadth first on *all* references
  (``SETDEPTH``); empirically matches set queries (McIver & King).
* **Simple traversal** — depth first on all references (``SIMDEPTH``).
* **Hierarchy traversal** — depth first following only *one* reference
  type (``HIEDEPTH``).
* **Stochastic traversal** — a random walk of ``STODEPTH`` steps where the
  next reference index N is chosen with ``p(N) = 1/2^N`` (approaching the
  Markov-chain access patterns of Tsangaris & Naughton).

Every transaction can run **reversed** ("ascending the graphs") by walking
``BackRef`` edges instead of ``ORef``; reverse hierarchy traversals filter
back references by the type of the originating slot.

Duplicate visits are counted by default (the paper's OO1 heritage: its
depth-7 traversal touches "3280 parts, with possible duplicates"); set
semantics are available through ``dedupe=True``.

Every object access funnels through the execution kernel
(:class:`~repro.core.session.Session`, historically named
``AccessContext`` — the old name remains an alias), which charges the
engine and notifies the clustering policy of each link crossing (DSTC's
observation input).  Set-oriented accesses expand level by level and
prefetch each BFS frontier through the kernel's batched read path, so
engines with native batching (SQLite) answer a whole frontier — forward
or reversed — with one round trip.  Depth-first traversals prefetch each
node's fan-out before descending, so such engines answer a node's
children with one round trip too; the visit order is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Set, Tuple

from repro.core.session import Session
from repro.errors import WorkloadError
from repro.rand.lewis_payne import LewisPayne
from repro.store.serializer import StoredObject

__all__ = [
    "TransactionKind",
    "TransactionSpec",
    "TransactionResult",
    "AccessContext",
    "run_transaction",
]

#: The kernel superseded the transaction-local access context; the old
#: name stays importable for existing harnesses and tests.
AccessContext = Session


class TransactionKind(str, Enum):
    """The four OCB transaction classes."""

    SET = "set"
    SIMPLE = "simple"
    HIERARCHY = "hierarchy"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class TransactionSpec:
    """Everything needed to execute one transaction."""

    kind: TransactionKind
    root: int
    depth: int
    reverse: bool = False
    ref_type: Optional[int] = None  # Hierarchy traversals only.
    dedupe: bool = False
    max_visits: int = 5000


@dataclass(frozen=True)
class TransactionResult:
    """Logical outcome of one transaction (store I/O measured outside)."""

    kind: TransactionKind
    root: int
    visits: int
    distinct_objects: int
    max_depth_reached: int
    reverse: bool
    ref_type: Optional[int]
    truncated: bool


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


def run_transaction(ctx: Session, spec: TransactionSpec,
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


# ---------------------------------------------------------------------- #
# Neighbour expansion (forward or reversed)
# ---------------------------------------------------------------------- #

def _neighbours(ctx: Session, record: StoredObject, reverse: bool,
                type_filter: Optional[int]) -> List[Tuple[int, int, bool]]:
    """(target oid, ref index, via_back_ref) edges leaving *record*."""
    edges: List[Tuple[int, int, bool]] = []
    if not reverse:
        for index, target in enumerate(record.refs):
            if target is None:
                continue
            if type_filter is not None and \
                    ctx.ref_type_of(record.cid, index) != type_filter:
                continue
            edges.append((target, index, False))
    else:
        for source_oid, index in record.back_refs:
            if type_filter is not None:
                source_cid = ctx.class_of(source_oid)
                if ctx.ref_type_of(source_cid, index) != type_filter:
                    continue
            edges.append((source_oid, index, True))
    return edges


# ---------------------------------------------------------------------- #
# Set-oriented access: breadth first on all references
# ---------------------------------------------------------------------- #

def _breadth_first(ctx: Session, spec: TransactionSpec,
                   tracker: _Tracker) -> None:
    """Level-order expansion with one batched fetch per frontier.

    Processing a level edge-by-edge in FIFO order is exactly what the
    classic deque formulation did, so visit counts, policy observations
    and (on cost-model engines) per-object charging are unchanged; the
    only difference is that each level's target set is announced to the
    kernel up front, which engines with native batching answer in a
    single round trip — forward and reversed traversals alike.
    """
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


# ---------------------------------------------------------------------- #
# Simple & hierarchy traversals: depth first
# ---------------------------------------------------------------------- #

def _depth_first(ctx: Session, spec: TransactionSpec,
                 tracker: _Tracker, type_filter: Optional[int]) -> None:
    """Pre-order expansion with one batched fetch per expanded node.

    Each node's outgoing edges are announced to the kernel before the
    walk descends into the first of them, so engines with native
    batching answer the node's children in one round trip.  Children are
    still visited one at a time in edge order, each through
    :meth:`~repro.core.session.Session.access`, so visit order and policy
    observations are those of the unbatched walk; a record is served from
    the cache at most once, so repeat visits are charged to the engine
    exactly as breadth-first expansion charges them.  Without native
    batching no prefetch is issued at all.
    """
    root_record = ctx.access(spec.root)
    if not tracker.note(spec.root, 0):
        return
    seen: Set[int] = {spec.root}
    batch = ctx.batch_reads

    def visit(record: StoredObject, depth: int) -> bool:
        if depth >= spec.depth:
            return True
        edges = _neighbours(ctx, record, spec.reverse, type_filter)
        if batch:
            ctx.prefetch(target for target, _, _ in edges
                         if not (spec.dedupe and target in seen))
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


# ---------------------------------------------------------------------- #
# Stochastic traversal: p(N) = 1/2^N random walk
# ---------------------------------------------------------------------- #

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

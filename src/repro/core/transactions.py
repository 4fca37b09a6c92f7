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
(:class:`~repro.core.session.Session`), which charges the engine and
notifies the clustering policy of each link crossing (DSTC's observation
input).  On engines with native batching (SQLite), every batched
traversal fetches one level per round trip, forward or reversed:
set-oriented accesses prefetch each BFS frontier as they reach it, and
depth-first traversals prefetch the root's subtree level by level
before they walk it.  A level lists every occurrence the walk may
visit, duplicates included, and the kernel keeps one pending serve per
occurrence, so repeat visits are served too.  Elsewhere no prefetch is
issued.

Bookkeeping is done once per node or per transaction, never per edge:
a node's edges are built once as ``(target oid, ref index)`` pairs (a
reversed walk uses the record's back references as they are; a
hierarchy walk tests slot indices against
:meth:`~repro.core.session.Session.slots_of_type`), visit counts live in
locals until the traversal returns, the visited set is the
distinct-object count, and ``Session.access`` is looked up once per
transaction and called positionally.  The order and arguments of every
``policy.observe_access(source, target, ref_type)``, every
:class:`TransactionResult` field and the random stream are those of a
per-edge walk, and so is every engine read on engines without batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.session import Session, SlotsByClass
from repro.errors import WorkloadError
from repro.rand.lewis_payne import LewisPayne
from repro.store.serializer import StoredObject

__all__ = [
    "TransactionKind",
    "TransactionSpec",
    "TransactionResult",
    "run_transaction",
]

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


#: What a traversal hands back: visits, the distinct objects visited,
#: the deepest level reached, and whether the visit budget ran out.
_Tally = Tuple[int, Set[int], int, bool]

_Edges = Sequence[Tuple[int, int]]


def run_transaction(ctx: Session, spec: TransactionSpec,
                    rng: LewisPayne) -> TransactionResult:
    """Execute one transaction and return its logical result."""
    kind = spec.kind
    if kind is TransactionKind.HIERARCHY and spec.ref_type is None:
        raise WorkloadError("hierarchy traversal needs a ref_type")
    # Looked up on the instance, so a wrapped ``access`` is the one called.
    access = ctx.access
    root = access(spec.root)
    tally: _Tally
    if spec.max_visits < 1:
        tally = 0, set(), 0, True  # The budget is spent before the root.
    elif kind is TransactionKind.SET:
        tally = _breadth_first(ctx, access, spec, root)
    elif kind is TransactionKind.SIMPLE:
        tally = _depth_first(ctx, access, spec, root, None)
    elif kind is TransactionKind.HIERARCHY:
        tally = _depth_first(ctx, access, spec, root, spec.ref_type)
    elif kind is TransactionKind.STOCHASTIC:
        tally = _stochastic(ctx, access, spec, root, rng)
    else:  # pragma: no cover - exhaustive enum
        raise WorkloadError(f"unknown transaction kind {kind}")
    ctx.end_transaction()
    visits, seen, max_depth, truncated = tally
    return TransactionResult(
        kind=kind,
        root=spec.root,
        visits=visits,
        distinct_objects=len(seen),
        max_depth_reached=max_depth,
        reverse=spec.reverse,
        ref_type=spec.ref_type,
        truncated=truncated)


# ---------------------------------------------------------------------- #
# Neighbour expansion (forward or reversed)
# ---------------------------------------------------------------------- #

def _edges(ctx: Session, record: StoredObject, reverse: bool,
           slots: Optional[SlotsByClass]) -> _Edges:
    """``(target oid, ref index)`` edges leaving *record*, in slot order.

    *slots*, from :meth:`~repro.core.session.Session.slots_of_type`,
    keeps only the slots of one reference type (hierarchy traversals).
    """
    if reverse:
        if slots is None:
            return record.back_refs
        # A back reference's slot belongs to the class of its source.
        class_of = ctx.class_of
        return [(source, index) for source, index in record.back_refs
                if index in slots.get(class_of(source), ())]
    refs = record.refs
    if slots is None:
        return [(target, index) for index, target in enumerate(refs)
                if target is not None]
    return [(refs[index], index) for index in slots.get(record.cid, ())
            if index < len(refs) and refs[index] is not None]


# ---------------------------------------------------------------------- #
# Set-oriented access: breadth first on all references
# ---------------------------------------------------------------------- #

def _breadth_first(ctx: Session, access: Callable[..., StoredObject],
                   spec: TransactionSpec, root: StoredObject) -> _Tally:
    """Level-order expansion with one batched fetch per frontier.

    Processing a level edge-by-edge in FIFO order is exactly what the
    classic deque formulation did, so visit counts, policy observations
    and (on cost-model engines) per-object charging are unchanged; the
    only difference is that each level's target set is announced to the
    kernel up front, which engines with native batching answer in a
    single round trip — forward and reversed traversals alike.
    """
    limit, dedupe, reverse = spec.max_visits, spec.dedupe, spec.reverse
    prefetch = ctx.prefetch if ctx.batch_reads else None
    visits = 1
    seen = {spec.root}
    # Every record of the frontier was visited at level ``depth``; an
    # empty frontier means the deepest visit was one level up.
    frontier = [root]
    depth = 0
    while frontier and depth < spec.depth:
        level = [(record, _edges(ctx, record, reverse, None))
                 for record in frontier]
        if prefetch is not None:
            targets = [target for _, edges in level for target, _ in edges
                       if not (dedupe and target in seen)]
            if targets:
                prefetch(targets)
        depth += 1
        frontier = []
        for record, edges in level:
            for target, index in edges:
                if dedupe and target in seen:
                    continue
                child = access(target, record, index, reverse)
                if visits >= limit:
                    reached = depth if frontier else depth - 1
                    return visits, seen, reached, True
                visits += 1
                seen.add(target)
                frontier.append(child)
    return visits, seen, depth if frontier else depth - 1, False


# ---------------------------------------------------------------------- #
# Simple & hierarchy traversals: depth first
# ---------------------------------------------------------------------- #

def _depth_first(ctx: Session, access: Callable[..., StoredObject],
                 spec: TransactionSpec, root: StoredObject,
                 type_filter: Optional[int]) -> _Tally:
    """Pre-order expansion of a subtree prefetched level by level.

    On engines with native batching, :func:`_prefetch_levels` first
    fetches the root's subtree one level per round trip, so the walk
    finds its records already decoded.  Children are still visited one
    at a time in edge order, each through
    :meth:`~repro.core.session.Session.access`, so visit order, policy
    observations and results are those of the unbatched walk; a visit
    the prefetch did not request (past its budget) is a point read.
    Each node's edges are built once per transaction and shared by the
    prefetch and the walk.  Without native batching no prefetch is
    issued and the engine sees one read per visit.
    """
    limit, dedupe, reverse = spec.max_visits, spec.dedupe, spec.reverse
    visits = 1
    seen = {spec.root}
    max_depth = 0
    bottom = spec.depth
    if bottom < 1:
        return visits, seen, max_depth, False
    slots = None if type_filter is None else ctx.slots_of_type(type_filter)
    if ctx.batch_reads:
        edges_of = _prefetch_levels(ctx, root, bottom, limit - 1, dedupe,
                                    reverse, slots)

        def expand(record: StoredObject) -> _Edges:
            edges = edges_of.get(record.oid)
            if edges is None:
                edges = edges_of[record.oid] = _edges(ctx, record, reverse,
                                                      slots)
            return edges
    else:
        def expand(record: StoredObject) -> _Edges:
            return _edges(ctx, record, reverse, slots)

    # One (record, its unvisited edges) entry per open level; ``depth``
    # is the depth of the children of the record on top.
    stack = [(root, iter(expand(root)))]
    depth = 1
    while stack:
        record, pending = stack[-1]
        for target, index in pending:
            if dedupe and target in seen:
                continue
            child = access(target, record, index, reverse)
            if visits >= limit:
                return visits, seen, max_depth, True
            visits += 1
            seen.add(target)
            if depth > max_depth:
                max_depth = depth
            if depth < bottom:
                stack.append((child, iter(expand(child))))
                depth += 1
                break
        else:
            stack.pop()
            depth -= 1
    return visits, seen, max_depth, False


def _prefetch_levels(ctx: Session, root: StoredObject, bottom: int,
                     budget: int, dedupe: bool, reverse: bool,
                     slots: Optional[SlotsByClass]) -> Dict[int, _Edges]:
    """Prefetch *root*'s subtree down to *bottom*, one call per level.

    Level L+1 lists the targets of every occurrence requested at level
    L, duplicates included, so each occurrence the walk may visit has
    its own pending serve; under *dedupe* only targets not requested
    before are listed, since the walk visits each object once.  Requests
    stop once *budget* occurrences (the visits left after the root) have
    been requested.  Returns each expanded node's edges, keyed by oid.
    """
    edges_of: Dict[int, _Edges] = {root.oid: _edges(ctx, root, reverse,
                                                   slots)}
    prefetch, peek = ctx.prefetch, ctx.peek
    requested = {root.oid}
    level = [root.oid]
    for _ in range(bottom):
        if budget < 1:
            break
        targets = []
        for oid in level:
            edges = edges_of.get(oid)
            if edges is None:
                edges = edges_of[oid] = _edges(ctx, peek(oid), reverse,
                                               slots)
            targets.extend(target for target, _ in edges)
        if dedupe:
            targets = [target for target in dict.fromkeys(targets)
                       if target not in requested]
            requested.update(targets)
        level = targets[:budget]
        if not level:
            break
        prefetch(level)
        budget -= len(level)
    return edges_of


# ---------------------------------------------------------------------- #
# Stochastic traversal: p(N) = 1/2^N random walk
# ---------------------------------------------------------------------- #

_STOCHASTIC_RETRIES = 8


def _stochastic(ctx: Session, access: Callable[..., StoredObject],
                spec: TransactionSpec, root: StoredObject,
                rng: LewisPayne) -> _Tally:
    limit, reverse = spec.max_visits, spec.reverse
    record = root
    visits = 1
    seen = {spec.root}
    step = 0
    while step < spec.depth:
        edges = _edges(ctx, record, reverse, None)
        if not edges:
            break
        for _ in range(_STOCHASTIC_RETRIES):
            n = rng.geometric_half(len(edges))
            if n is not None:
                break
        else:
            break  # Absorbing state: residual probability mass.
        target, index = edges[n - 1]
        record = access(target, record, index, reverse)
        if visits >= limit:
            return visits, seen, step, True
        visits += 1
        seen.add(target)
        step += 1
    return visits, seen, step, False

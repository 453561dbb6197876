"""Reference optimizers sharing the same algebra and cost model.

All three enumerate the identical (expr, prop) universe through the shared
split function and cost every alternative through the shared arithmetic
path, so any cost difference against the declarative engine is a search
bug, never a modelling artifact.

* ``brute_force_optimize`` -- exhaustive ground-truth oracle, no pruning:
  the memoized best-cost DP (``costmodel.BestCost``) resolved from the root,
  in the post-order a recursion from the root resolves groups in.
* ``systemr_optimize``     -- the same DP handed every group in strictly
  increasing subset-size order, so each group is resolved from children
  already resolved; no pruning.
* ``volcano_optimize``     -- top-down recursion with memoization and
  branch-and-bound cost limits passed into child exploration; it reads its
  local costs from ``BestCost``'s tables, as the other engines do.

The oracle and System-R share their DP with the declarative engine's
pruned-group fallback; the test suite checks them against an enumerator of
whole plan trees built straight from the catalog.  The DP runs over the
universe's dense group ids, each group's local costs held in one list; its
``memo`` still reads as GroupKey -> best in resolution order, which is what
the visit counts and ``visit_log`` report.

No engine leaves cyclic garbage.  Volcano's recursive ``explore`` reaches
itself through its closure cell, so ``volcano_optimize`` empties that cell
before it returns: the universe, tables and memo are then freed by reference
count at once, not held until a full collection and rescanned by every
collection of their generation meanwhile.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .algebra import GroupKey, Query, SearchUniverse
from .catalog import Catalog
from .costmodel import BestCost, CostConfig, CostContext, sum_cost
from .errors import InfeasibleQuery, TooLarge
from .plan import PlanNode, build_plan

BRUTE_FORCE_MAX_RELATIONS = 8


@dataclass
class BaselineMetrics:
    visited_and: int = 0
    visited_or: int = 0
    pruned_and: int = 0
    pruned_or: int = 0
    wall_time_ms: float = 0.0
    visit_log: list[GroupKey] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"visited_and": self.visited_and, "visited_or": self.visited_or,
                "pruned_and": self.pruned_and, "pruned_or": self.pruned_or,
                "wall_time_ms": self.wall_time_ms}


def _setup(query: Query, cat: Catalog, config: CostConfig | None):
    ctx = CostContext(cat, query, config)
    universe = SearchUniverse(cat, query)
    if not universe.feasible:
        raise InfeasibleQuery(f"no plan exists for {query.sig}")
    return ctx, universe


def _group_sort_key(g: GroupKey):
    return (len(g[0]), g[0].rels, str(g[1]))


def _resolve(ctx: CostContext, universe: SearchUniverse, dp: BestCost, start: float
             ) -> tuple[PlanNode, BaselineMetrics]:
    """Resolve the root through ``dp``, then extract its plan.

    Every resolved group counts as visited with all its alternatives;
    ``visit_log`` is the resolution order.
    """
    root = universe.group_id(universe.root)
    dp.best_id(root)
    memo = dp.memo
    metrics = BaselineMetrics(
        visited_and=sum(len(universe.alternatives(g)) for g in memo),
        visited_or=len(memo), visit_log=list(memo))
    plan = build_plan(universe, ctx, dp.best_id, root)
    metrics.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return plan, metrics


def brute_force_optimize(query: Query, cat: Catalog, *,
                         config: CostConfig | None = None
                         ) -> tuple[PlanNode, BaselineMetrics]:
    """Exhaustive oracle: every alternative of every reachable group costed,
    nothing pruned, minimum under the shared (cost, index, phy_op) tie-break.
    """
    if len(query.relations) > BRUTE_FORCE_MAX_RELATIONS:
        raise TooLarge(
            f"{len(query.relations)} relations exceeds the exhaustive "
            f"budget of {BRUTE_FORCE_MAX_RELATIONS}")
    start = time.perf_counter()
    ctx, universe = _setup(query, cat, config)
    return _resolve(ctx, universe, BestCost(universe, ctx), start)


def systemr_optimize(query: Query, cat: Catalog, *,
                     config: CostConfig | None = None
                     ) -> tuple[PlanNode, BaselineMetrics]:
    """Bottom-up dynamic programming: size-1 groups first, then strictly
    larger subsets; each group visited exactly once, no branch-and-bound."""
    start = time.perf_counter()
    ctx, universe = _setup(query, cat, config)
    order = [universe.group_id(g) for g in sorted(universe.groups(), key=_group_sort_key)]
    return _resolve(ctx, universe, BestCost(universe, ctx, order), start)


class _VolcanoMemo:
    """Memo entry: exact best, or a failure bound ('best cost exceeds limit')."""

    __slots__ = ("exact", "fail_limit")

    def __init__(self):
        self.exact: tuple[float, int] | None = None
        self.fail_limit: float = -math.inf


def volcano_optimize(query: Query, cat: Catalog, *,
                     config: CostConfig | None = None
                     ) -> tuple[PlanNode, BaselineMetrics]:
    """Top-down exploration with memoization; the cost limit handed to each
    child is the remaining budget after the local operator and any sibling
    already resolved.  Initial upper bound is infinity, so pruning is
    conservative and the returned cost equals the oracle's exactly.

    Groups are explored by dense id; a group's local costs are read from
    ``BestCost``'s table, filled once when the group is first explored.  A
    best is ``(cost, position)``; position order is the shared tie-break."""
    start = time.perf_counter()
    ctx, universe = _setup(query, cat, config)
    tables = BestCost(universe, ctx)
    metrics = BaselineMetrics()
    memo: dict[int, _VolcanoMemo] = {}
    completed: set[tuple[int, int]] = set()
    pruned_alts: set[tuple[int, int]] = set()
    keys, alts_of, kids_of = universe.group_keys, universe.group_alts, universe.group_kids

    def explore(i: int, limit: float) -> tuple[float, int] | None:
        entry = memo.get(i)
        if entry is None:
            entry = memo[i] = _VolcanoMemo()
            metrics.visit_log.append(keys[i])
            if alts_of[i] is None:
                # numbered as a child, alternatives not computed yet
                universe.group_id(keys[i])
        if entry.exact is not None:
            return entry.exact if entry.exact[0] <= limit else None
        if limit <= entry.fail_limit:
            return None

        best: tuple[float, int] | None = None
        any_pruned = False
        kids = kids_of[i]
        for pos, local in enumerate(tables.local_table(i)):
            bound = limit
            if best is not None:
                bound = min(bound, best[0])
            if not kids:
                cost = sum_cost(None, None, local)
            else:
                # a child is explored only within what the local cost, and
                # the left child for the right one, leave of the bound
                left = right = None
                if local <= bound:
                    left = explore(kids[2 * pos], bound - local)
                if left is not None:
                    right = explore(kids[2 * pos + 1], bound - local - left[0])
                if right is None:
                    any_pruned = True
                    pruned_alts.add((i, pos))
                    continue
                cost = sum_cost(left[0], right[0], local)
            completed.add((i, pos))
            cand = (cost, pos)
            if best is None or cand < best:
                best = cand

        if best is not None and best[0] <= limit:
            entry.exact = best
            return best
        entry.fail_limit = max(entry.fail_limit, limit)
        if best is not None and not any_pruned:
            # every alternative completed; the minimum is exact even though
            # it exceeds the caller's limit
            entry.exact = best
        return None

    def resolved(i: int) -> tuple[float, int]:
        entry = memo.get(i)
        if entry is not None and entry.exact is not None:
            return entry.exact
        # resolve children of the winning plan that were memoized only under
        # a limit: re-explore without pressure (pure, deterministic)
        got = explore(i, math.inf)
        assert got is not None
        return got

    try:
        root = universe.group_id(universe.root)
        result = explore(root, math.inf)
        assert result is not None  # root limit is infinite
        metrics.visited_or = len(memo)
        metrics.visited_and = len(completed)
        metrics.pruned_and = len(pruned_alts - completed)
        metrics.pruned_or = sum(1 for m in memo.values() if m.exact is None)
        plan = build_plan(universe, ctx, resolved, root)
    finally:
        # ``explore`` holds itself in its closure cell, and with it the whole
        # search space: emptying the cell breaks that cycle, so reference
        # counting frees the search space on return, not the cyclic collector
        explore = resolved = None
    metrics.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return plan, metrics

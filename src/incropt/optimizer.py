"""The declarative, incrementally-maintainable join-order optimizer.

All search and cost state lives in maintained relations, driven to fixpoint
by delta propagation.  Each group (OR node) owns its state: one
``MinGroupState`` holds its row costs, their minimum and its visible set.

* ``searchspace``  -- one row per physical alternative (AND node); a row has
  exactly one derivation, so its visibility is a flag in its group's visible
  set;
* ``plancost``     -- the current full cost of each alternative, retained by
  its group even while a row is pruned, so the next-best plan is
  recoverable; the ``recost`` rule derives it with
  ``costmodel.alternative_cost`` (local cost plus the children's
  ``bestcost``), the formula every baseline shares;
* ``bestcost``     -- the per-group (OR node) minimum, with deterministic
  (cost, index, phy_op) tie-breaking shared with every baseline;
* ``refcount``     -- per-group count of visible parent AND rows; at zero a
  group's plans are pruned, on revival they are recomputed;
* ``bound`` / ``maxbound`` and per-row parent-bound contributions -- the
  recursive branch-and-bound relations.

Three pruning strategies gate row visibility: aggregate selection keeps only
the group minimum and suppresses the losing rows back out of the search
space; reference counting retires whole groups no surviving plan references;
recursive bounding prunes any row whose cost exceeds its group bound.  The
quiescent visible state is a unique fixpoint of those rules, so any delta
drain order converges to the same answer.

The order still decides the work.  A re-optimization drains in
``REOPT_TIERS`` order, costs before bounds before visibility, so a row is
pruned or a group retired only on costs the update has finished moving.
The initial build stays plain FIFO: a cold state has no stale costs to
settle, and tiering it grew its drain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .algebra import (
    Alternative, AltKey, ExprSig, GroupKey, PropertySpec, Query, SearchUniverse,
)
from .catalog import Catalog, StatUpdate
from .costmodel import BestCost, CostConfig, CostContext, alternative_cost
from .deltaflow import (
    Delta, DELETE, FixpointEngine, INSERT, MinGroupState,
)
from .errors import InfeasibleQuery, NotQuiescent, StateMismatch, ValidationError
from .plan import PlanNode, build_plan

RowKey = tuple[GroupKey, AltKey]

STRATEGY_NAMES = ("aggsel", "refcount", "bounding")


@dataclass(frozen=True)
class Strategies:
    """Pruning strategy toggles; bounding presupposes aggregate selection."""

    aggsel: bool = True
    refcount: bool = True
    bounding: bool = True

    def __post_init__(self):
        if self.bounding and not self.aggsel:
            raise ValidationError("strategy 'bounding' requires 'aggsel'")

    @classmethod
    def all(cls) -> "Strategies":
        return cls(True, True, True)

    @classmethod
    def none(cls) -> "Strategies":
        return cls(False, False, False)

    @classmethod
    def parse(cls, text: str) -> "Strategies":
        names = [t for t in (s.strip() for s in text.split(",")) if t]
        unknown = set(names) - set(STRATEGY_NAMES)
        if unknown:
            raise ValidationError(f"unknown strategies {sorted(unknown)}")
        return cls(aggsel="aggsel" in names, refcount="refcount" in names,
                   bounding="bounding" in names)

    def to_list(self) -> list[str]:
        return [n for n in STRATEGY_NAMES if getattr(self, n)]


# every valid strategy subset, keyed by its --strategies list ("none" for none)
STRATEGY_SUBSETS = {
    "none": Strategies.none(),
    "aggsel": Strategies(True, False, False),
    "aggsel,refcount": Strategies(True, True, False),
    "aggsel,bounding": Strategies(True, False, True),
    "aggsel,refcount,bounding": Strategies.all(),
}


class GroupState:
    """Mutable per-(expr, prop) state: the OR node.  ``alts`` maps each row
    key to its alternative; ``mins`` holds the row costs, their minimum and
    the visible set."""

    __slots__ = ("alts", "mins", "refcount", "synthetic", "alive",
                 "contribs", "maxbound", "bound")

    def __init__(self, synthetic: int = 0):
        self.alts: dict[AltKey, Alternative] = {}
        self.mins = MinGroupState()
        self.refcount = 0
        self.synthetic = synthetic
        self.alive = True
        # parent-bound contributions keyed by parent row: a join row's two
        # children are disjoint expressions, so it holds at most one slot here
        self.contribs: dict[RowKey, float] = {}
        self.maxbound: float | None = None
        self.bound: float | None = None


# the re-optimization drain's tiers: costs, then bounds, then visibility
REOPT_TIERS = {
    "recost": 0, "bestcost": 0,
    "pbound": 1, "maxbound": 1, "bound": 1,
    "refilter": 2, "refilterrow": 2, "refcount": 2, "expr": 2,
}

_AND_PAYLOAD = {"recost", "refilterrow", "pbound"}
_OR_PAYLOAD = {"expr", "bestcost", "refilter", "maxbound", "bound"}


def _maxbound(gs: GroupState) -> float | None:
    """The largest parent-bound contribution a group holds, or None."""
    return max(gs.contribs.values()) if gs.contribs else None


def _bound(best: tuple[float, AltKey] | None,
           maxbound: float | None) -> float | None:
    """A group's bound: the smaller of its best cost and its maxbound, or
    None when it has neither."""
    if best is None:
        return maxbound
    return best[0] if maxbound is None else min(best[0], maxbound)


class DeclarativeOptimizer:
    """Owns the maintained relations for one query and drives them to fixpoint."""

    def __init__(self, cat: Catalog, query: Query, *,
                 strategies: Strategies | None = None,
                 config: CostConfig | None = None,
                 trace: Callable[[str], None] | None = None,
                 drain_order: str = "fifo", drain_seed: int | None = None):
        self.catalog = cat
        self.query = query
        self.strategies = strategies or Strategies.all()
        self.ctx = CostContext(cat, query, config)
        self.universe = SearchUniverse(cat, query)
        self._dp = BestCost(self.universe, self.ctx)
        self.root: GroupKey = self.universe.root
        self.groups: dict[GroupKey, GroupState] = {}
        self.parent_index: dict[GroupKey, list[RowKey]] = {}
        self.trace = trace
        self.touched_and: set[RowKey] = set()
        self.touched_or: set[GroupKey] = set()
        self._tracking = False
        self.engine = FixpointEngine(
            {
                "expr": self._h_expr,
                "recost": self._h_recost,
                "bestcost": self._h_bestcost,
                "refcount": self._h_refcount,
                "refilter": self._h_refilter,
                "refilterrow": self._h_refilterrow,
                "pbound": self._h_pbound,
                "maxbound": self._h_maxbound,
                "bound": self._h_bound,
            },
            order=drain_order, seed=drain_seed,
            observer=self._observe,
        )

    # -- driving ---------------------------------------------------------

    def run(self) -> "DeclarativeOptimizer":
        """Seed the root expression and drain to quiescence (plain FIFO)."""
        if not self.universe.feasible:
            raise InfeasibleQuery(
                f"no plan satisfies {self.root[1]} for {self.root[0]}")
        if self.root not in self.groups:
            self.engine.push(Delta("expr", INSERT, self.root))
        self.engine.run()
        return self

    def push_and_run(self, deltas: Iterable[Delta]) -> int:
        """Drain ``deltas`` into the quiescent state in ``REOPT_TIERS`` order."""
        engine = self.engine
        engine.push(deltas)
        engine.tiers = REOPT_TIERS
        try:
            return engine.run()
        finally:
            engine.tiers = None

    def deltas_by_rule(self) -> dict[str, int]:
        """The last drain's processed deltas per rule, every rule listed."""
        counts = self.engine.drained_by_rule
        return {rel: counts.get(rel, 0) for rel in self.engine.handlers}

    def set_tracking(self, on: bool) -> None:
        self._tracking = on
        if on:
            self.touched_and = set()
            self.touched_or = set()

    def _observe(self, d: Delta) -> None:
        if not self._tracking:
            return
        rel = d.relation
        if rel in _AND_PAYLOAD:
            self.touched_and.add(d.payload)
        elif rel in _OR_PAYLOAD:
            self.touched_or.add(d.payload)
        elif rel == "refcount":
            self.touched_or.add(d.payload[0])

    # -- group lifecycle -------------------------------------------------

    def _alloc_group(self, g: GroupKey, synthetic: int = 0) -> GroupState:
        gs = GroupState(synthetic=synthetic)
        for alt in self.universe.alternatives(g):
            gs.alts[alt.key] = alt
            for child in alt.children():
                self.parent_index.setdefault(child, []).append((g, alt.key))
        self.groups[g] = gs
        return gs

    def _create_group(self, g: GroupKey, synthetic: int = 0) -> list[Delta]:
        gs = self._alloc_group(g, synthetic=synthetic)
        out: list[Delta] = []
        for ak in gs.alts:
            out.extend(self._apply_row_visibility((g, ak), INSERT))
        return out

    def _kill_group(self, g: GroupKey) -> list[Delta]:
        gs = self.groups[g]
        gs.alive = False
        out: list[Delta] = []
        for ak in gs.alts:
            if gs.mins.cost_of(ak) is not None:
                out.extend(self._set_row_cost(g, ak, gs, None))
        out.append(Delta("refilter", INSERT, g))
        return out

    def _revive_group(self, g: GroupKey) -> list[Delta]:
        gs = self.groups[g]
        gs.alive = True
        gs.contribs.clear()
        gs.maxbound = None
        gs.bound = None
        out = [Delta("recost", INSERT, (g, ak)) for ak in gs.alts]
        out.append(Delta("refilter", INSERT, g))
        if self.strategies.bounding:
            out.append(Delta("bound", INSERT, g))
        return out

    # -- cost composition --------------------------------------------------

    def _child_best(self, g: GroupKey) -> tuple[float, AltKey]:
        gs = self.groups.get(g)
        if gs is not None and gs.alive:
            m = gs.mins.min_of()
            if m is not None:
                return m
        return self._dp.best(g)

    # -- handlers ----------------------------------------------------------

    def _h_expr(self, d: Delta) -> list[Delta]:
        g = d.payload
        if g in self.groups:
            return []
        return self._create_group(g, synthetic=1 if g == self.root else 0)

    def _apply_row_visibility(self, rowkey: RowKey, op: str) -> list[Delta]:
        """Flip one searchspace row's visibility synchronously.

        Both callers ask only for a flip (a new row, or a row whose filter
        verdict differs from its visibility), so the write needs no edge
        detection: every call is one transition and emits its follow-ups.
        """
        if self._tracking:
            self.touched_and.add(rowkey)
        g, ak = rowkey
        gs = self.groups[g]
        alt = gs.alts[ak]
        visible = op == INSERT
        gs.mins.set_visible(ak, visible)
        if self.trace is not None:
            self.trace(f"searchspace {op} {rowkey!r} {int(not visible)} {int(visible)}")
        out = [Delta("refcount", op, (child, rowkey)) for child in alt.children()]
        if visible:
            out.append(Delta("recost", INSERT, rowkey))
        if self.strategies.bounding and not alt.is_scan:
            out.append(Delta("pbound", INSERT, rowkey))
        return out

    def _h_recost(self, d: Delta) -> list[Delta]:
        g, ak = d.payload
        gs = self.groups.get(g)
        if gs is None or not gs.alive:
            return []
        cost = alternative_cost(self.ctx, g, gs.alts[ak], self._child_best)
        if cost == gs.mins.cost_of(ak):
            return []
        return self._set_row_cost(g, ak, gs, cost)

    def _set_row_cost(self, g: GroupKey, ak: AltKey, gs: GroupState,
                      cost: float | None) -> list[Delta]:
        """Write one plancost value (None retracts it) and its group-min
        effect atomically.

        The group's min structure holds the value and its minimum, so a
        shuffled drain can never interleave an older value over a newer one.
        Only change notifications go through the queue; the ``refilterrow``
        one, always emitted, also records the row as touched.
        """
        out = [Delta("refilterrow", INSERT, (g, ak))]
        if self.strategies.bounding and gs.mins.is_visible(ak):
            out.append(Delta("pbound", INSERT, (g, ak)))
        if gs.mins.update(ak, cost):
            out.append(Delta("bestcost", INSERT, g))
        return out

    def _h_bestcost(self, d: Delta) -> list[Delta]:
        g = d.payload
        out: list[Delta] = []
        for rowkey in self.parent_index.get(g, ()):
            pgs = self.groups.get(rowkey[0])
            if pgs is not None and pgs.alive:
                out.append(Delta("recost", INSERT, rowkey))
        out.append(Delta("refilter", INSERT, g))
        if self.strategies.bounding:
            out.append(Delta("bound", INSERT, g))
            for pg, pak in self.parent_index.get(g, ()):
                if self.groups[pg].mins.is_visible(pak):
                    out.append(Delta("pbound", INSERT, (pg, pak)))
        return out

    def _h_refcount(self, d: Delta) -> list[Delta]:
        g, _src = d.payload
        out: list[Delta] = []
        gs = self.groups.get(g)
        if gs is None:
            out.extend(self._create_group(g))
            gs = self.groups[g]
        gs.refcount += 1 if d.op == INSERT else -1
        if not self.strategies.refcount:
            return out
        total = gs.refcount + gs.synthetic
        if gs.alive and total <= 0:
            out.extend(self._kill_group(g))
        elif not gs.alive and total > 0:
            out.extend(self._revive_group(g))
        return out

    def _pruned(self, gs: GroupState, ak: AltKey) -> bool:
        cost = gs.mins.cost_of(ak)
        if cost is None:
            return False
        if self.strategies.aggsel:
            m = gs.mins.min_of()
            if m is not None and (cost, ak) != m:
                return True
        if self.strategies.bounding and gs.bound is not None and cost > gs.bound:
            return True
        return False

    def _refilter_row(self, g: GroupKey, ak: AltKey, gs: GroupState) -> list[Delta]:
        target = gs.alive and not self._pruned(gs, ak)
        if target == gs.mins.is_visible(ak):
            return []
        return self._apply_row_visibility((g, ak), INSERT if target else DELETE)

    def _h_refilter(self, d: Delta) -> list[Delta]:
        gs = self.groups.get(d.payload)
        if gs is None:
            return []
        out: list[Delta] = []
        for ak in gs.alts:
            out.extend(self._refilter_row(d.payload, ak, gs))
        return out

    def _h_refilterrow(self, d: Delta) -> list[Delta]:
        g, ak = d.payload
        gs = self.groups.get(g)
        if gs is None:
            return []
        return self._refilter_row(g, ak, gs)

    def _h_pbound(self, d: Delta) -> list[Delta]:
        rowkey = d.payload
        g, ak = rowkey
        gs = self.groups.get(g)
        if gs is None:
            return []
        alt = gs.alts.get(ak)
        if alt is None or alt.is_scan:
            return []
        visible = gs.mins.is_visible(ak)
        out: list[Delta] = []
        for childkey in alt.children():
            val = self._contribution(gs, ak, childkey) if visible else None
            cgs = self.groups.get(childkey)
            if cgs is None:
                continue
            if cgs.contribs.get(rowkey) == val:
                continue
            if val is None:
                del cgs.contribs[rowkey]
            else:
                cgs.contribs[rowkey] = val
            out.append(Delta("maxbound", INSERT, childkey))
        return out

    def _contribution(self, gs: GroupState, ak: AltKey,
                      childkey: GroupKey) -> float | None:
        """The parent-bound contribution of visible join row ``ak`` of group
        ``gs`` to its child ``childkey``, or None when it gives none.

        Parent bound minus sibling best minus local cost, computed as
        child_best + (bound - row_cost): algebraically identical but free of
        the cancellation that could land one ulp below the child's own best
        and wrongly prune the optimal row.  It reads no local cost, and each
        input it does read (row cost, child best, bound, visibility) emits a
        ``pbound`` when it changes.
        """
        cost = gs.mins.cost_of(ak)
        if not gs.alive or gs.bound is None or cost is None:
            return None
        child = self.groups.get(childkey)
        if child is None or not child.alive:
            return None
        cm = child.mins.min_of()
        return None if cm is None else cm[0] + (gs.bound - cost)

    def _contributions(self):
        """Every parent-bound contribution the visible state implies, as
        ``(child key, parent row, value)``."""
        for g, gs in self.groups.items():
            for ak, alt in gs.alts.items():
                if alt.is_scan or not gs.mins.is_visible(ak):
                    continue
                for childkey in alt.children():
                    val = self._contribution(gs, ak, childkey)
                    if val is not None:
                        yield childkey, (g, ak), val

    def _h_maxbound(self, d: Delta) -> list[Delta]:
        gs = self.groups.get(d.payload)
        if gs is None:
            return []
        mb = _maxbound(gs)
        if mb == gs.maxbound:
            return []
        gs.maxbound = mb
        return [Delta("bound", INSERT, d.payload)]

    def _h_bound(self, d: Delta) -> list[Delta]:
        g = d.payload
        gs = self.groups.get(g)
        if gs is None:
            return []
        b = _bound(gs.mins.min_of(), gs.maxbound)
        if b == gs.bound:
            return []
        gs.bound = b
        out = [Delta("refilter", INSERT, g)]
        for ak, alt in gs.alts.items():
            if not alt.is_scan and gs.mins.is_visible(ak):
                out.append(Delta("pbound", INSERT, (g, ak)))
        return out

    # -- read-side ---------------------------------------------------------

    def _require_quiescent(self) -> None:
        if self.engine.pending:
            raise NotQuiescent(f"{self.engine.pending} deltas still pending")

    def _best(self, g: GroupKey) -> tuple[float, AltKey]:
        gs = self.groups.get(g)
        m = None if gs is None else gs.mins.min_of()
        if m is None:
            raise InfeasibleQuery(f"group {g[0]}|{g[1]} has no plan")
        return m

    def best_cost(self) -> float:
        self._require_quiescent()
        return self._best(self.root)[0]

    def best_plan(self) -> PlanNode:
        self._require_quiescent()
        return build_plan(self.universe, self.ctx, self._best, self.root)

    def _visible(self) -> Iterable[RowKey]:
        """Every visible searchspace row, in no particular order."""
        for g, gs in self.groups.items():
            for ak in gs.mins.visible():
                yield g, ak

    def visible_rows(self) -> list[RowKey]:
        rows = list(self._visible())
        rows.sort(key=lambda rk: (rk[0][0].rels, str(rk[0][1]), rk[1]))
        return rows

    def visible_counts(self) -> tuple[int, int]:
        """(groups with a visible row, visible rows)."""
        rows = list(self._visible())
        return len({rk[0] for rk in rows}), len(rows)

    def optimal_tree_rows(self) -> set[RowKey]:
        self._require_quiescent()
        rows: set[RowKey] = set()

        def walk(g: GroupKey) -> None:
            ak = self._best(g)[1]
            rows.add((g, ak))
            for child in self.groups[g].alts[ak].children():
                walk(child)

        walk(self.root)
        return rows

    def final_state_check(self) -> dict:
        """Compare the visible state against the optimal tree's node set."""
        tree_rows = self.optimal_tree_rows()
        visible = set(self._visible())
        alive_groups = {g for g, gs in self.groups.items() if gs.alive}
        tree_groups = {g for g, _ in tree_rows}
        return {
            "ok": visible == tree_rows,
            "extra_rows": sorted(
                (str(g[0]), str(g[1]), ak) for g, ak in visible - tree_rows),
            "missing_rows": sorted(
                (str(g[0]), str(g[1]), ak) for g, ak in tree_rows - visible),
            "extra_groups": sorted(
                (str(g[0]), str(g[1])) for g in alive_groups - tree_groups),
        }

    # -- audits ------------------------------------------------------------

    def recount_oracle(self) -> dict[GroupKey, int]:
        """Brute-force recount: visible parent AND rows per group."""
        counts: dict[GroupKey, int] = {g: 0 for g in self.groups}
        for g, ak in self._visible():
            for child in self.groups[g].alts[ak].children():
                counts[child] = counts.get(child, 0) + 1
        return counts

    def audit_refcounts(self) -> list[str]:
        self._require_quiescent()
        recount = self.recount_oracle()
        bad = []
        for g, gs in self.groups.items():
            if gs.refcount != recount.get(g, 0):
                bad.append(f"{g[0]}|{g[1]}: refcount {gs.refcount} != recount {recount.get(g, 0)}")
            if gs.refcount < 0:
                bad.append(f"{g[0]}|{g[1]}: negative refcount at quiescence")
        return bad

    def audit_fixpoint(self) -> list[str]:
        """Check the bestcost/bound defining equations by direct scan."""
        self._require_quiescent()
        bad = []
        expected_contribs: dict[GroupKey, dict[RowKey, float]] = {}
        if self.strategies.bounding:
            for childkey, slot, val in self._contributions():
                expected_contribs.setdefault(childkey, {})[slot] = val
        for g, gs in self.groups.items():
            if not gs.alive:
                continue
            entries = gs.mins.members()
            m = gs.mins.min_of()
            expect = min(zip(entries.values(), entries), default=None)
            if m != expect:
                bad.append(f"{g[0]}|{g[1]}: bestcost {m} != min over plancost {expect}")
            vmin = min(((c, ak) for ak, c in entries.items()
                        if gs.mins.is_visible(ak)), default=None)
            if gs.mins.visible_min() != vmin:
                bad.append(f"{g[0]}|{g[1]}: visible min mismatch")
            if self.strategies.bounding:
                if expected_contribs.get(g, {}) != gs.contribs:
                    bad.append(f"{g[0]}|{g[1]}: parentbound contributions mismatch")
                mb = _maxbound(gs)
                if mb != gs.maxbound:
                    bad.append(f"{g[0]}|{g[1]}: maxbound {gs.maxbound} != max {mb}")
                expect_bound = _bound(m, gs.maxbound)
                if expect_bound != gs.bound:
                    bad.append(f"{g[0]}|{g[1]}: bound {gs.bound} != {expect_bound}")
        return bad

    def audit_costs(self) -> list[str]:
        """Check each retained row cost against a from-scratch best-cost DP
        on the current catalog: an alive group's rows hold exactly their
        plan costs, a dead group's hold none."""
        self._require_quiescent()
        dp = BestCost(self.universe, CostContext(self.catalog, self.query, self.ctx.config))
        bad = []
        for g, gs in self.groups.items():
            for ak, alt in gs.alts.items():
                got = gs.mins.cost_of(ak)
                want = alternative_cost(dp.ctx, g, alt, dp.best) if gs.alive else None
                if got != want:
                    bad.append(f"{g[0]}|{g[1]}: row {ak} cost {got} != {want}")
        return bad

    # -- digests / snapshots -------------------------------------------------

    def state_digest(self) -> list[dict]:
        """The snapshot's ``groups``: the one canonical form of the state."""
        return self.to_snapshot()["groups"]

    def to_snapshot(self) -> dict:
        """JSON dump of the maintained relations, resumable by `reoptimize`."""
        self._require_quiescent()
        groups = []
        for g in sorted(self.groups, key=lambda k: (k[0].rels, str(k[1]))):
            gs = self.groups[g]
            rows = []
            for ak in sorted(gs.alts):
                rows.append({
                    "index": ak[0], "phy_op": ak[1],
                    "ss_count": int(gs.mins.is_visible(ak)),
                    "cost": gs.mins.cost_of(ak),
                })
            best = gs.mins.min_of()
            groups.append({
                "expr": list(g[0].rels),
                "prop": str(g[1]),
                "refcount": gs.refcount,
                "synthetic": gs.synthetic,
                "alive": gs.alive,
                "best": None if best is None else
                    {"cost": best[0], "index": best[1][0], "phy_op": best[1][1]},
                "bound": gs.bound,
                "maxbound": gs.maxbound,
                "rows": rows,
            })
        return {
            "schema": "incropt-state",
            "version": 1,
            "catalog": self.catalog.to_dict(),
            "catalog_hash": self.catalog.content_hash(),
            "query": {"relations": list(self.query.relations),
                      "filters": [{"relation": r, "selectivity": s}
                                  for r, s in self.query.filters]},
            "strategies": self.strategies.to_list(),
            "cost_config": self.ctx.config.to_dict(),
            "groups": groups,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "DeclarativeOptimizer":
        from .catalog import catalog_from_dict
        from .algebra import query_from_dict

        try:
            if snap.get("schema") != "incropt-state":
                raise StateMismatch("not an incropt state snapshot")
            cat = catalog_from_dict(snap["catalog"])
            if cat.content_hash() != snap["catalog_hash"]:
                raise StateMismatch("snapshot catalog hash mismatch (corrupted state)")
            query = query_from_dict(snap["query"], cat)
            strategies = Strategies.parse(",".join(snap["strategies"]))
            config = CostConfig.from_dict(snap["cost_config"])
            opt = cls(cat, query, strategies=strategies, config=config)
            for gobj in snap["groups"]:
                g = (ExprSig.of(gobj["expr"]), PropertySpec.parse(gobj["prop"]))
                # at quiescence only the root is synthetic, and a group is
                # alive exactly when refcounting keeps it referenced
                synthetic = int(gobj["synthetic"])
                if synthetic != int(g == opt.root):
                    raise StateMismatch(
                        f"snapshot group {g[0]}|{g[1]} has synthetic {synthetic}, "
                        f"but only the root group is synthetic")
                gs = opt._alloc_group(g, synthetic=synthetic)
                gs.refcount = int(gobj["refcount"])
                gs.alive = bool(gobj["alive"])
                if gs.alive != (not strategies.refcount or gs.refcount + synthetic > 0):
                    raise StateMismatch(
                        f"snapshot group {g[0]}|{g[1]} has alive {gs.alive}, "
                        f"inconsistent with its refcount {gs.refcount}")
                gs.bound = gobj["bound"]
                gs.maxbound = gobj["maxbound"]
                for robj in gobj["rows"]:
                    ak = (int(robj["index"]), robj["phy_op"])
                    if ak not in gs.alts:
                        raise StateMismatch(f"snapshot row {ak} unknown to enumeration")
                    cost = robj["cost"]
                    count = int(robj["ss_count"])
                    if count not in (0, 1):
                        raise StateMismatch(
                            f"snapshot row {ak} of group {g[0]}|{g[1]} has "
                            f"ss_count {count}, not a 0/1 visibility flag")
                    gs.mins.set_visible(ak, count == 1)
                    if cost is not None:
                        gs.mins.update(ak, cost)
                best = gobj["best"]
                stored = None if best is None else (
                    best["cost"], (int(best["index"]), best["phy_op"]))
                if stored != gs.mins.min_of():
                    raise StateMismatch(
                        f"snapshot best {stored} of group {g[0]}|{g[1]} is not "
                        f"the minimum of its rows {gs.mins.min_of()}")
            # bound contributions are pure; rebuild them directly
            if strategies.bounding:
                for childkey, slot, val in opt._contributions():
                    opt.groups[childkey].contribs[slot] = val
            return opt
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise StateMismatch(f"corrupted state snapshot: {exc}") from exc

    # -- incremental support -------------------------------------------------

    def rebind_catalog(self, new_cat: Catalog,
                       updates: Iterable[StatUpdate]) -> None:
        """Swap in the catalog ``updates`` produced; structure (join graph,
        indexes) must be unchanged, only numbers may differ.  Cached
        summaries and the fallback DP's best and local costs are dropped
        exactly where an update reaches them (``BestCost.invalidate``)."""
        updates = list(updates)
        self.catalog = new_cat
        self.ctx = self.ctx.rebased(new_cat, updates)
        self._dp.invalidate(updates, self.ctx)

"""The declarative, incrementally-maintainable join-order optimizer.

All search and cost state lives in maintained relations, driven to fixpoint
by delta propagation, keyed by ``SearchUniverse``'s dense group ids: a group
is an ``int``, a row ``(group id, position in universe.group_alts[id])``.
Position order is ``(index, phy_op)`` order, so tie-breaks are unchanged;
``GroupKey`` appears only in snapshots, plans, ``trace`` lines and audit
messages.  Each group (OR node) owns its state: one ``MinGroupState`` holds
its row costs by position, their minimum and its visible set.

* ``searchspace``  -- one row per physical alternative (AND node); a row has
  exactly one derivation, so its visibility is a flag in its group's visible
  set;
* ``plancost``     -- the current full cost of each alternative, retained by
  its group even while a row is pruned, so the next-best plan is
  recoverable; a ``recost`` delta names one group and some of its rows,
  ``(group id, positions)``, and its rule adds each row's local cost, read
  from the fallback DP's table, to its children's ``bestcost`` with
  ``sum_cost``, reading each distinct child once and writing the changed
  costs in one ``MinGroupState.update``;
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

The order still decides the work.  Every drain, the cold build and each
re-optimization alike, runs in ``DRAIN_TIERS`` order: costs before bounds
before visibility, so a row is pruned or a group retired only on costs the
drain has finished moving.  The cold build is a revival: ``run()`` pushes
the root's ``expr``, whose rule creates every group dead and revives the
root (every group without reference counting).  A revival costs a group's
rows, one ``recost`` for all of them from the fallback DP's exact child
bests, before ``refilter`` shows any.  A row is then shown only on its final
cost, and only shown rows pull their children alive: aggregate selection
drops a non-minimal row as it is derived, before it propagates.  Under
bounding, tiering also settles a group's bound before its rows are
filtered against it, which saves 3-11% of a cold build's deltas.

``refilter`` is the one visibility rule, queued at most once per group
while one is pending (datalog's set semantics).  A cost write queues it
only where a row can flip: never without aggregate selection, where an
alive group shows every row; under it, through ``bestcost`` when the
minimum moves, else only if a written row was visible, since a hidden row
can be shown only as the minimum.  Under bounding a cost write queues
``pbound`` only for a row visible at the write; a hidden row contributes
no bound until showing it queues its own.  A check shows rows before it
hides any, so a child that the old and the new minimum share keeps its
reference instead of dying and reviving.

The fixpoint being unique, ``install()`` writes the state ``run()`` drains
to in closed form, from the best-cost DP.  Loading installs the state a saved
header implies and checks it against the state's saved ``state_sha256``.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import groupby, zip_longest
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .algebra import AltKey, ExprSig, GroupKey, Query, SearchUniverse, query_from_dict
from .catalog import Catalog, StatUpdate, catalog_from_dict, json_object
from .costmodel import BestCost, CostConfig, CostContext, alternative_cost, group_sum_cost, sum_cost
from .deltaflow import (
    DELETE, DELTAS_PER_ALTERNATIVE, DeltaTuple, FixpointEngine, INSERT, MinGroupState,
    WeakRule,
)
from .errors import (
    InfeasibleQuery, NotQuiescent, ParseError, StateMismatch, ValidationError,
)
from .plan import PlanNode, build_plan

Row = tuple[int, int]                 # (group id, position)
RowKey = tuple[GroupKey, AltKey]      # a row at the edges

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
        """A comma list of strategy names; ``none`` alone is the empty subset."""
        names = [t for t in (s.strip() for s in text.split(",")) if t]
        if names == ["none"]:
            return cls.none()
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


@dataclass(slots=True, eq=False)
class GroupState:
    """Mutable per-group state: the OR node.  ``mins`` holds the row costs
    by position, their minimum and the visible set."""

    synthetic: int = 0
    mins: MinGroupState = field(default_factory=MinGroupState)
    refcount: int = 0
    alive: bool = False
    # parent-bound contributions keyed by parent row: a join row's two
    # children are disjoint expressions, so it holds at most one slot here
    contribs: dict[Row, float] = field(default_factory=dict)
    maxbound: float | None = None
    bound: float | None = None


# every drain's tiers: costs, then bounds, then visibility
DRAIN_TIERS = {
    "recost": 0, "bestcost": 0,
    "pbound": 1, "maxbound": 1, "bound": 1,
    "refilter": 2, "refcount": 2, "expr": 2,
}

_OR_PAYLOAD = {"expr", "bestcost", "refilter", "maxbound", "bound"}


def _maxbound(gs: GroupState) -> float | None:
    """The largest parent-bound contribution a group holds, or None."""
    return max(gs.contribs.values()) if gs.contribs else None


def _bound(best: tuple[float, int] | None,
           maxbound: float | None) -> float | None:
    """A group's bound: the smaller of its best cost and its maxbound, or
    None when it has neither."""
    if best is None:
        return maxbound
    return best[0] if maxbound is None else min(best[0], maxbound)


# per state-file version, the field that holds the saved state: version 1
# lists its group records, version 2 only their digest
_SAVED_STATE_FIELD = {1: "groups", 2: "state_sha256"}
_IMPLY = "but its catalog, query and strategies imply"


def _first_difference(saved: list[dict], want: list[dict]) -> str:
    """Name the first group and field (within ``rows``, the first row) where
    saved ``groups`` differ from the ones the saved header implies."""
    for s, w in zip(saved, want):
        if s != w:
            field = next(k for k in [*w, *s] if s.get(k) != w.get(k))
            got, exp = s.get(field), w.get(field)
            if field == "rows" and isinstance(got, list):
                k, got, exp = next((k, x, y) for k, (x, y) in enumerate(zip_longest(got, exp))
                                   if x != y)
                field = f"rows[{k}]"
            return (f"snapshot group {ExprSig.of(w['expr'])}|{w['prop']} has "
                    f"{field} {got!r}, {_IMPLY} {exp!r}")
    return f"snapshot lists {len(saved)} groups, {_IMPLY} {len(want)}"


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
        self.universe = u = SearchUniverse(cat, query)
        # the fallback best-cost DP; its reach lists also seed updates
        self.dp = BestCost(u, self.ctx)
        self.root: GroupKey = u.root
        self.root_id = u.group_id(u.root)
        self.parent_index: list[list[Row]] = u.parents()
        self._alts = u.group_alts
        self._kids = u.group_kids
        self.groups: dict[int, GroupState] = {}
        self.trace = trace
        self.touched_and: set[Row] = set()
        self.touched_or: set[int] = set()
        self._tracking = False
        # the groups with a ``refilter`` queued, which queue no second one
        self._refiltering: set[int] = set()
        # weak rules: an engine holding bound methods would keep its
        # optimizer, and the universe, alive in a reference cycle
        self.engine = FixpointEngine(
            {
                "expr": WeakRule(self._h_expr),
                "recost": WeakRule(self._h_recost),
                "bestcost": WeakRule(self._h_bestcost),
                "refcount": WeakRule(self._h_refcount),
                "refilter": WeakRule(self._h_refilter),
                "pbound": WeakRule(self._h_pbound),
                "maxbound": WeakRule(self._h_maxbound),
                "bound": WeakRule(self._h_bound),
            },
            max_deltas=DELTAS_PER_ALTERNATIVE * u.totals()[1],
            order=drain_order, seed=drain_seed,
        )
        self.engine.tiers = DRAIN_TIERS

    # -- driving ---------------------------------------------------------

    def run(self) -> "DeclarativeOptimizer":
        """Seed the root expression and drain to quiescence."""
        if not self.universe.feasible:
            raise InfeasibleQuery(
                f"no plan satisfies {self.root[1]} for {self.root[0]}")
        if self.root_id not in self.groups:
            self.engine.push(("expr", INSERT, self.root_id))
        self.engine.run()
        return self

    def install(self) -> "DeclarativeOptimizer":
        """Write the quiescent state ``run()`` drains to straight from the
        best-cost DP, replacing the groups held.  Groups are created as the
        cold build creates them and swept parents first (a child holds fewer
        relations): a group's refcount and contributions are then settled,
        and the rules' own formulas give the rest."""
        dp, u, strategies = self.dp, self.universe, self.strategies
        # a read settles every unresolved id, and an infeasible universe raises
        dp.best_id(self.root_id)
        best = dp.costs
        groups = self._create_groups()
        for i in sorted(groups, key=lambda i: -len(u.group_keys[i][0])):
            gs = groups[i]
            gs.alive = not strategies.refcount or gs.refcount + gs.synthetic > 0
            if not gs.alive:
                continue
            kids = self._kids[i]
            costs = group_sum_cost(dp.local_table(i), kids, best)
            gs.mins.update(dict(enumerate(costs)))
            if strategies.bounding:
                gs.maxbound = _maxbound(gs)
                gs.bound = _bound(gs.mins.min_of(), gs.maxbound)
            for pos in range(len(costs)):
                if self._pruned(gs, pos):
                    continue
                gs.mins.set_visible(pos, True)
                for c in kids[2 * pos:2 * pos + 2]:
                    groups[c].refcount += 1
                    val = self._contribution(gs, pos, best[c])
                    if val is not None:
                        groups[c].contribs[(i, pos)] = val
        return self

    def deltas_by_rule(self) -> dict[str, int]:
        """The last drain's processed deltas per rule, every rule listed."""
        counts = self.engine.drained_by_rule
        return {rel: counts.get(rel, 0) for rel in self.engine.handlers}

    def set_tracking(self, on: bool) -> None:
        """Start (clearing the touched sets) or stop recording the rows and
        groups drains touch.  The engine's observer is installed only while
        tracking, so an untracked drain pays nothing for it."""
        self._tracking = on
        self.engine.observer = self._observe if on else None
        if on:
            self.touched_and = set()
            self.touched_or = set()

    def _observe(self, d: DeltaTuple) -> None:
        rel = d[0]
        if rel == "recost":
            i, positions = d[2]
            self.touched_and.update([(i, pos) for pos in positions])
        elif rel == "pbound":
            self.touched_and.add(d[2])
        elif rel in _OR_PAYLOAD:
            self.touched_or.add(d[2])
        elif rel == "refcount":
            self.touched_or.add(d[2][0])

    # -- edges: group keys and alternative keys ----------------------------

    def _row_key(self, row: Row) -> RowKey:
        return self.universe.group_keys[row[0]], self._alts[row[0]][row[1]].key

    def _keyed(self, i: int, m: tuple[float, int] | None) -> tuple[float, AltKey] | None:
        """A group minimum ``(cost, position)`` as ``(cost, alternative key)``."""
        return None if m is None else (m[0], self._alts[i][m[1]].key)

    def _name(self, i: int) -> str:
        e, p = self.universe.group_keys[i]
        return f"{e}|{p}"

    # -- group lifecycle -------------------------------------------------

    def _create_groups(self) -> dict[int, GroupState]:
        """Replace the groups held with every universe group, dead and
        empty, in id order; the root holds the synthetic reference."""
        self.groups = {i: GroupState(int(i == self.root_id))
                       for i in range(len(self.universe.group_keys))}
        return self.groups

    def _kill_group(self, i: int) -> list[DeltaTuple]:
        gs = self.groups[i]
        gs.alive = False
        retract = dict.fromkeys(sorted(gs.mins.members()))
        if self._tracking:
            self.touched_and.update([(i, pos) for pos in retract])
        out = self._set_row_costs(i, gs, retract) if retract else []
        return out + self._refilter(i)

    def _revive_group(self, i: int) -> list[DeltaTuple]:
        gs = self.groups[i]
        gs.alive = True
        gs.contribs.clear()
        gs.maxbound = gs.bound = None
        out = [("recost", INSERT, (i, range(len(self._alts[i])))), *self._refilter(i)]
        if self.strategies.bounding:
            out.append(("bound", INSERT, i))
        return out

    # -- handlers ----------------------------------------------------------

    def _h_expr(self, d: DeltaTuple) -> list[DeltaTuple]:
        """The cold build: create every group dead, then revive the ones
        that must live, the root or, without reference counting, all.  A
        revival costs its rows before ``refilter`` shows any of them, so
        only shown rows pull their children alive."""
        groups = self._create_groups()
        live = [self.root_id] if self.strategies.refcount else groups
        return [out for i in live for out in self._revive_group(i)]

    def _apply_row_visibility(self, row: Row, op: str) -> list[DeltaTuple]:
        """Flip one searchspace row's visibility synchronously.  Callers ask
        only for a flip (a new row, or a row whose verdict differs from its
        visibility), so every call is one transition and emits its follow-ups."""
        if self._tracking:
            self.touched_and.add(row)
        i, pos = row
        visible = op == INSERT
        self.groups[i].mins.set_visible(pos, visible)
        if self.trace is not None:
            self.trace(f"searchspace {op} {self._row_key(row)!r} "
                       f"{int(not visible)} {int(visible)}")
        kids = self._kids[i][2 * pos:2 * pos + 2]
        out = [("refcount", op, (c, row)) for c in kids]
        if self.strategies.bounding and kids:
            out.append(("pbound", INSERT, row))
        return out

    def _h_recost(self, d: DeltaTuple) -> list[DeltaTuple]:
        """Recost the rows ``(group id, positions)`` of one alive group in
        one pass: each distinct child's cost is read once, and the costs
        that changed are written together.  A child's cost is an alive
        group's maintained minimum, else the fallback DP's best, which a
        miss settles."""
        i, positions = d[2]
        gs = self.groups[i]
        if not gs.alive:
            return []
        dp = self.dp
        local = dp.local_table(i)
        kids = self._kids[i]
        held = gs.mins.cost_of
        changes: dict[int, float] = {}
        if kids:
            child: dict[int, float | None] = {}
            for pos in positions:
                child[kids[2 * pos]] = child[kids[2 * pos + 1]] = None
            groups, best = self.groups, dp.costs
            for c in child:
                cgs = groups[c]
                m = cgs.mins.min_of() if cgs.alive else None
                if m is not None:
                    child[c] = m[0]
                else:
                    got = best[c]
                    child[c] = dp.cost_id(c) if got is None else got
            for pos in positions:
                cost = sum_cost(child[kids[2 * pos]], child[kids[2 * pos + 1]], local[pos])
                if cost != held(pos):
                    changes[pos] = cost
        else:
            for pos in positions:
                cost = sum_cost(None, None, local[pos])
                if cost != held(pos):
                    changes[pos] = cost
        return self._set_row_costs(i, gs, changes) if changes else []

    def _set_row_costs(self, i: int, gs: GroupState,
                       changes: dict[int, float | None]) -> list[DeltaTuple]:
        """Write plancost values by position (None retracts one) and their
        group-min effect atomically, so a shuffled drain never puts an older
        value over a newer one; the minimum is rescanned at most once.

        Under aggregate selection a write that moves the minimum queues the
        group's ``refilter`` through ``bestcost``, and one that leaves it in
        place queues it if a written row was visible: that row may now lose
        to the minimum or the bound.  A row visible at its write also gets a
        ``pbound``."""
        mins, strategies = gs.mins, self.strategies
        visible = (sorted(pos for pos in mins.visible() if pos in changes)
                   if strategies.aggsel else [])
        out: list[DeltaTuple] = ([("pbound", INSERT, (i, pos)) for pos in visible]
                                 if strategies.bounding else [])
        if mins.update(changes):
            out.append(("bestcost", INSERT, i))
        elif visible:
            out.extend(self._refilter(i))
        return out

    def _h_bestcost(self, d: DeltaTuple) -> list[DeltaTuple]:
        """A group's minimum moved: recost the rows holding it, one recost
        per alive parent group.  A dead parent's rows are costless and
        contribute no bound, so it gets neither a recost nor a pbound."""
        i = d[2]
        bounding = self.strategies.bounding
        out: list[DeltaTuple] = []
        pbounds: list[DeltaTuple] = []
        # parent rows come in parent id order
        for p, rows in groupby(self.parent_index[i], key=itemgetter(0)):
            pgs = self.groups[p]
            if not pgs.alive:
                continue
            positions = [pos for _, pos in rows]
            out.append(("recost", INSERT, (p, positions)))
            if bounding:
                pbounds.extend(("pbound", INSERT, (p, pos))
                               for pos in positions if pgs.mins.is_visible(pos))
        out.extend(self._refilter(i))
        if bounding:
            out.append(("bound", INSERT, i))
        return out + pbounds

    def _h_refcount(self, d: DeltaTuple) -> list[DeltaTuple]:
        i = d[2][0]
        gs = self.groups[i]
        gs.refcount += 1 if d[1] == INSERT else -1
        if not self.strategies.refcount:
            return []
        total = gs.refcount + gs.synthetic
        if gs.alive and total <= 0:
            return self._kill_group(i)
        if not gs.alive and total > 0:
            return self._revive_group(i)
        return []

    def _pruned(self, gs: GroupState, pos: int) -> bool:
        cost = gs.mins.cost_of(pos)
        if cost is None:
            return False
        # a costed row means the group has a minimum
        if self.strategies.aggsel and (cost, pos) != gs.mins.min_of():
            return True
        return self.strategies.bounding and gs.bound is not None and cost > gs.bound

    def _flips(self, i: int, gs: GroupState, positions: Iterable[int]) -> list[DeltaTuple]:
        """Flip each of ``positions`` whose verdict differs from its
        visibility, the rows to show first: a child that a shown row and a
        hidden one share then keeps its reference throughout, rather than
        dying and reviving."""
        shown, hidden = [], []
        for pos in positions:
            target = gs.alive and not self._pruned(gs, pos)
            if target != gs.mins.is_visible(pos):
                (shown if target else hidden).append(pos)
        return ([d for pos in shown for d in self._apply_row_visibility((i, pos), INSERT)]
                + [d for pos in hidden for d in self._apply_row_visibility((i, pos), DELETE)])

    def _refilter(self, i: int) -> list[DeltaTuple]:
        """Group ``i``'s ``refilter``, or none while one is pending.  The
        set is only tested, never iterated, so no count reads its order."""
        if i in self._refiltering:
            return []
        self._refiltering.add(i)
        return [("refilter", INSERT, i)]

    def _h_refilter(self, d: DeltaTuple) -> list[DeltaTuple]:
        """Re-check a group's rows.  A dead group hides every row, so only
        visible ones can flip; under aggregate selection a fully costed group
        hides every row but its minimum, so only those and the minimum can."""
        i = d[2]
        self._refiltering.discard(i)
        gs = self.groups[i]
        mins, n = gs.mins, len(self._alts[i])
        if not gs.alive:
            positions: Iterable[int] = sorted(mins.visible())
        elif self.strategies.aggsel and len(mins) == n:
            positions = sorted({*mins.visible(), mins.min_of()[1]})
        else:
            positions = range(n)
        return self._flips(i, gs, positions)

    def _h_pbound(self, d: DeltaTuple) -> list[DeltaTuple]:
        row = d[2]
        i, pos = row
        gs = self.groups[i]
        kids = self._kids[i]
        if not kids:
            return []
        visible = gs.mins.is_visible(pos)
        out: list[DeltaTuple] = []
        for c in kids[2 * pos:2 * pos + 2]:
            cgs = self.groups[c]
            cm = cgs.mins.min_of() if visible and cgs.alive else None
            val = None if cm is None else self._contribution(gs, pos, cm[0])
            if cgs.contribs.get(row) == val:
                continue
            if val is None:
                del cgs.contribs[row]
            else:
                cgs.contribs[row] = val
            out.append(("maxbound", INSERT, c))
        return out

    def _contribution(self, gs: GroupState, pos: int, child_best: float) -> float | None:
        """The parent-bound contribution of visible join row ``pos`` of group
        ``gs`` to an alive child group whose best cost is ``child_best``, or
        None when it gives none.

        Parent bound minus sibling best minus local cost, computed as
        child_best + (bound - row_cost): the same value without the
        cancellation that could land one ulp below the child's best and
        prune the optimal row.  Each input it reads (row cost, child best,
        bound, visibility) emits a ``pbound`` when it changes."""
        cost = gs.mins.cost_of(pos)
        if not gs.alive or gs.bound is None or cost is None:
            return None
        return child_best + (gs.bound - cost)

    def _h_maxbound(self, d: DeltaTuple) -> list[DeltaTuple]:
        gs = self.groups[d[2]]
        mb = _maxbound(gs)
        if mb == gs.maxbound:
            return []
        gs.maxbound = mb
        return [("bound", INSERT, d[2])]

    def _h_bound(self, d: DeltaTuple) -> list[DeltaTuple]:
        i = d[2]
        gs = self.groups[i]
        b = _bound(gs.mins.min_of(), gs.maxbound)
        if b == gs.bound:
            return []
        gs.bound = b
        out = self._refilter(i)
        if self._kids[i]:
            out.extend(("pbound", INSERT, (i, pos)) for pos in sorted(gs.mins.visible()))
        return out

    # -- read-side ---------------------------------------------------------

    def _require_quiescent(self) -> None:
        if self.engine.pending:
            raise NotQuiescent(f"{self.engine.pending} deltas still pending")

    def _best_id(self, i: int) -> tuple[float, int]:
        gs = self.groups.get(i)
        m = None if gs is None else gs.mins.min_of()
        if m is None:
            raise InfeasibleQuery(f"group {self._name(i)} has no plan")
        return m

    def best_cost(self) -> float:
        self._require_quiescent()
        return self._best_id(self.root_id)[0]

    def best_plan(self) -> PlanNode:
        self._require_quiescent()
        return build_plan(self.universe, self.ctx, self._best_id, self.root_id)

    def _visible(self) -> Iterator[Row]:
        """Every visible searchspace row, in no particular order."""
        for i, gs in self.groups.items():
            for pos in gs.mins.visible():
                yield i, pos

    def visible_rows(self) -> list[RowKey]:
        return sorted(map(self._row_key, self._visible()),
                      key=lambda rk: (rk[0][0].rels, str(rk[0][1]), rk[1]))

    def visible_counts(self) -> tuple[int, int]:
        """(groups with a visible row, visible rows)."""
        rows = list(self._visible())
        return len({r[0] for r in rows}), len(rows)

    def optimal_tree_rows(self) -> set[RowKey]:
        self._require_quiescent()
        rows: set[RowKey] = set()
        # an explicit stack: a nested recursive walk would hold the optimizer
        # in a reference cycle through its own closure cell
        stack = [self.root_id]
        while stack:
            i = stack.pop()
            pos = self._best_id(i)[1]
            rows.add(self._row_key((i, pos)))
            stack.extend(self._kids[i][2 * pos:2 * pos + 2])
        return rows

    def final_state_check(self) -> dict:
        """Compare the visible state against the optimal tree's node set."""
        tree_rows = self.optimal_tree_rows()
        visible = {self._row_key(r) for r in self._visible()}
        alive_groups = {self.universe.group_keys[i] for i, gs in self.groups.items() if gs.alive}
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

    def audit_refcounts(self) -> list[str]:
        """Check each refcount against a brute-force recount of visible
        parent rows."""
        self._require_quiescent()
        recount = dict.fromkeys(self.groups, 0)
        for i, pos in self._visible():
            for c in self._kids[i][2 * pos:2 * pos + 2]:
                recount[c] = recount.get(c, 0) + 1
        bad = []
        for i, gs in self.groups.items():
            if gs.refcount != recount[i]:
                bad.append(f"{self._name(i)}: refcount {gs.refcount} != recount {recount[i]}")
            if gs.refcount < 0:
                bad.append(f"{self._name(i)}: negative refcount at quiescence")
        return bad

    def audit_fixpoint(self) -> list[str]:
        """Check the bestcost/bound defining equations by direct scan."""
        self._require_quiescent()
        bad = []
        expected_contribs: dict[int, dict[Row, float]] = {}
        for i, pos in self._visible() if self.strategies.bounding else ():
            for c in self._kids[i][2 * pos:2 * pos + 2]:
                cgs = self.groups.get(c)
                cm = cgs.mins.min_of() if cgs is not None and cgs.alive else None
                val = None if cm is None else self._contribution(self.groups[i], pos, cm[0])
                if val is not None:
                    expected_contribs.setdefault(c, {})[(i, pos)] = val
        for i, gs in self.groups.items():
            if not gs.alive:
                continue
            name = self._name(i)
            entries = gs.mins.members()
            m = gs.mins.min_of()
            expect = min(zip(entries.values(), entries), default=None)
            if m != expect:
                bad.append(f"{name}: bestcost {self._keyed(i, m)} != "
                           f"min over plancost {self._keyed(i, expect)}")
            vmin = min(((c, pos) for pos, c in entries.items()
                        if gs.mins.is_visible(pos)), default=None)
            if gs.mins.visible_min() != vmin:
                bad.append(f"{name}: visible min mismatch")
            if self.strategies.bounding:
                if expected_contribs.get(i, {}) != gs.contribs:
                    bad.append(f"{name}: parentbound contributions mismatch")
                mb = _maxbound(gs)
                if mb != gs.maxbound:
                    bad.append(f"{name}: maxbound {gs.maxbound} != max {mb}")
                expect_bound = _bound(m, gs.maxbound)
                if expect_bound != gs.bound:
                    bad.append(f"{name}: bound {gs.bound} != {expect_bound}")
        return bad

    def audit_costs(self) -> list[str]:
        """Check each retained row cost against a from-scratch best-cost DP
        on the current catalog: an alive group's rows hold exactly their
        plan costs, a dead group's hold none."""
        self._require_quiescent()
        dp = BestCost(self.universe, CostContext(self.catalog, self.query, self.ctx.config))
        bad = []
        for i, gs in self.groups.items():
            g = self.universe.group_keys[i]
            for pos, alt in enumerate(self._alts[i]):
                got = gs.mins.cost_of(pos)
                want = alternative_cost(dp.ctx, g, alt, dp.best) if gs.alive else None
                if got != want:
                    bad.append(f"{self._name(i)}: row {alt.key} cost {got} != {want}")
        return bad

    # -- digests / snapshots -------------------------------------------------

    def state_sha256(self) -> str:
        """SHA-256 of exactly what ``state_digest`` lists: per group its
        refcount, synthetic, alive, best, bound and maxbound, and its rows'
        costs and visible flags.  Groups go in universe-id order and rows by
        position, which the header fixes, and no set or dict order reaches
        the hashed text, so equal states hash equal in any process."""
        self._require_quiescent()
        state = [(gs.refcount, gs.synthetic, gs.alive, gs.mins.min_of(), gs.bound,
                  gs.maxbound, *gs.mins.canonical())
                 for _, gs in sorted(self.groups.items())]
        return hashlib.sha256(repr(state).encode()).hexdigest()

    def state_digest(self) -> list[dict]:
        """The state's group records, its one readable form, which a
        version-1 file saves as ``groups``: one record per group, in
        (relations, property) order.  A row is listed only when it has a
        cost or is visible: an unlisted row has neither, the state a fresh
        ``GroupState`` starts in.  At quiescence that lists every row of an
        alive group and none of a dead one."""
        self._require_quiescent()
        keys = self.universe.group_keys
        groups = []
        for i, gs in sorted(self.groups.items(),
                            key=lambda item: (keys[item[0]][0].rels, str(keys[item[0]][1]))):
            g = keys[i]
            mins = gs.mins
            rows = []
            if len(mins) or next(mins.visible(), None) is not None:
                # position order is (index, phy_op) order
                for pos, alt in enumerate(self._alts[i]):
                    cost, visible = mins.cost_of(pos), mins.is_visible(pos)
                    if cost is not None or visible:
                        rows.append({"index": alt.index, "phy_op": alt.phy_op,
                                     "ss_count": int(visible), "cost": cost})
            best = self._keyed(i, mins.min_of())
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
        return groups

    def to_snapshot(self) -> dict:
        """The version-2 saved state, resumable by `reoptimize`: the header
        that implies the state, and the state's ``state_sha256`` to check
        the installed state against."""
        return {
            "schema": "incropt-state",
            "version": 2,
            "catalog": self.catalog.to_dict(),
            "catalog_hash": self.catalog.content_hash(),
            "query": {"relations": list(self.query.relations),
                      "filters": [{"relation": r, "selectivity": s}
                                  for r, s in self.query.filters]},
            "strategies": self.strategies.to_list(),
            "cost_config": self.ctx.config.to_dict(),
            "state_sha256": self.state_sha256(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "DeclarativeOptimizer":
        """Load a saved state: install the state its catalog, query,
        strategies and cost config imply, and check it against the saved
        one.  A version-2 file saves the state's ``state_sha256``; a
        version-1 file lists its ``groups``, compared field by field, after
        a full-row file's empty rows (no cost, hidden) are dropped, as the
        sparse format leaves them unlisted."""
        try:
            snap = json_object(snap, "state snapshot")
            if snap.get("schema") != "incropt-state":
                raise StateMismatch("not an incropt state snapshot")
            version = snap.get("version")
            if type(version) is not int or version not in _SAVED_STATE_FIELD:
                raise StateMismatch("state snapshot 'version' must be 1 or 2, "
                                    f"got {json.dumps(version)}")
            if _SAVED_STATE_FIELD[version] not in snap:
                raise StateMismatch(f"version-{version} state snapshot has no "
                                    f"{_SAVED_STATE_FIELD[version]!r}")
            strategies = snap["strategies"]
            if not isinstance(strategies, list):
                raise StateMismatch("state snapshot 'strategies' must be a JSON array, "
                                    f"got {json.dumps(strategies)}")
            cat = catalog_from_dict(snap["catalog"])
            if cat.content_hash() != snap["catalog_hash"]:
                raise StateMismatch("snapshot catalog hash mismatch (corrupted state)")
            opt = cls(cat, query_from_dict(snap["query"], cat),
                      strategies=Strategies.parse(",".join(strategies)),
                      config=CostConfig.from_dict(snap["cost_config"])).install()
            if version == 1:
                saved = [dict(g, rows=[r for r in g["rows"]
                                       if r["cost"] is not None or r["ss_count"] != 0])
                         for g in snap["groups"]]
        except (KeyError, TypeError, ValueError, ParseError, ValidationError,
                InfeasibleQuery) as exc:
            raise StateMismatch(f"corrupted state snapshot: {exc}") from exc
        if version == 2:
            saved, want = snap["state_sha256"], opt.state_sha256()
            if saved != want:
                raise StateMismatch(f"snapshot state_sha256 is {saved!r}, {_IMPLY} {want!r}")
            return opt
        want = opt.state_digest()
        if saved != want:
            raise StateMismatch(_first_difference(saved, want))
        return opt

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
        self.dp.invalidate(updates, self.ctx)

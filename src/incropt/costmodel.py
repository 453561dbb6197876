"""The concrete cost model: summaries and the five costing functions.

Cost formulas (dimensionless work units):

* seq scan:    base_cardinality * scan_cost_factor
* index scan:  base_cardinality * scan_cost_factor * index_scan_surcharge
* hash join:   left_rows + right_rows + output_rows          (local only)
* merge join:  same as hash join; inputs arrive pre-sorted by contract
* index NL:    outer_rows * (1 + log_b(1 + inner_rows)) + output_rows,
               inner = the indexed (left) child
* plan cost:   (left_cost + right_cost) + local_cost, written once per form:
               ``group_sum_cost`` for a group (``BestCost``, ``install()``),
               ``sum_cost`` for one alternative (``recost``, Volcano, oracles)

Summaries (estimated output cardinalities) are a logical property of an
expression: every partition of the same expression gets the identical
value because the context memoizes one canonical computation per
expression.  That memo is keyed by relation bitmask, the same masks
``SearchUniverse.group_masks`` holds, and a rebased context drops an entry
by the mask test ``BestCost.invalidate`` uses.  A miss is computed from
masks alone: the head is the mask's first relation by name, the rest is
the remaining mask, and ``nonscan_summary`` multiplies their summaries,
then the selectivity of each predicate between the head and the rest in
``Catalog.predicate_bits`` order.  That is the order and grouping the
name-based recursion it replaced used, so every summary is the same float.

``BestCost``, the one best-cost DP, runs over ``SearchUniverse``'s dense
group ids, in flat lists indexed by id: the best cost and its position, the
output cardinality and its probe factor, and the local costs, the one
local-cost table, which the declarative engine's ``recost`` rule and Volcano
read too.  It resolves groups in one loop, ``_settle``, over a list of ids
that puts every group after its children, the order System-R asks in: a
fresh DP settles the post-order its first miss reaches, System-R its own
size order, and an update the groups it dropped.  Each settled group adds
its children's best costs to its local costs with ``group_sum_cost``; a
table is filled, when none is held, by ``group_local_cost``, the group form
of ``join_local_cost``, from the cardinalities and probe factors by id.
``nonscan_cost`` calls the scalar form, and both do the same operations in
the same order.  A probe factor, ``1 + log_b(1 + rows)``, is held and
dropped with its cardinality.

An update reaches a group whose relation bitmask holds all of its targets.
Per target mask the DP keeps the ids it reaches, in settle order (fewest
relations first, then id), so an update drops what it reaches and lists it
for the next settle without a pass over the universe.  A value an update
cannot reach is kept: a scan-cost update moves no cardinality and only its
relation's leaf scans' local costs, since join local costs read summaries
and no summary reads ``scan_cost_factor``.  A group's best is a flat
``min`` over its candidates' costs, then ``index`` of it: alternatives sit
in ``(index, phy_op)`` order, so the first position holding the minimum is
the smallest ``(cost, index, phy_op)`` tuple, the tie-break every engine
shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    Alternative, AltKey, ExprSig, GroupKey, INDEX_SCAN, INDEX_NL_JOIN, LOG_SCAN, Query,
    SearchUniverse, expr_mask,
)
from .catalog import (
    JOIN_SELECTIVITY, SCAN_COST, Catalog, StatUpdate, json_object, read_json, reject_unknown,
)
from .errors import InfeasibleQuery, ParseError, ValidationError

@dataclass(frozen=True)
class Summary:
    """Estimated output rows of a subexpression; identical for all its plans."""

    cardinality: float


@dataclass(frozen=True)
class CostConfig:
    index_scan_surcharge: float = 1.2
    inlj_log_base: float = 2.0

    def to_dict(self) -> dict:
        return {"index_scan_surcharge": self.index_scan_surcharge,
                "inlj_log_base": self.inlj_log_base}

    @classmethod
    def from_dict(cls, data: dict) -> "CostConfig":
        reject_unknown(json_object(data, "cost config"),
                       {"index_scan_surcharge", "inlj_log_base"}, "cost config")
        try:
            cfg = cls(
                index_scan_surcharge=float(data.get("index_scan_surcharge", 1.2)),
                inlj_log_base=float(data.get("inlj_log_base", 2.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed cost config: {exc}") from exc
        # a surcharge of 0 or less makes costs free or negative, and a log
        # base of 1 or less divides by zero or turns probe costs negative
        if not (math.isfinite(cfg.index_scan_surcharge) and cfg.index_scan_surcharge > 0):
            raise ValidationError(
                f"cost config index_scan_surcharge must be finite and > 0, "
                f"got {cfg.index_scan_surcharge}")
        if not (math.isfinite(cfg.inlj_log_base) and cfg.inlj_log_base > 1):
            raise ValidationError(
                f"cost config inlj_log_base must be finite and > 1, got {cfg.inlj_log_base}")
        return cfg

    @classmethod
    def load(cls, path: str) -> "CostConfig":
        return cls.from_dict(read_json(path, "cost config"))


def scan_summary(e: ExprSig, cat: Catalog, query: Query) -> Summary:
    rel = cat.relation(e.sole)
    card = rel.cardinality
    for s in query.filter_selectivities(rel.name):
        card = card * s
    return Summary(card)


def nonscan_summary(head: int, h_sum: Summary, rest: int, r_sum: Summary,
                    cat: Catalog) -> Summary:
    """Join output summary of one relation, ``head`` (its bit), with the
    relations of mask ``rest``: the child product times the selectivity of
    every predicate between them, in ``cat.predicate_bits`` order."""
    card = h_sum.cardinality * r_sum.cardinality
    for other, selectivity in cat.incident_selectivities[head.bit_length() - 1]:
        if other & rest:
            card = card * selectivity
    return Summary(card)


def scan_cost(e: ExprSig, p, phy_op: str, s: Summary, cat: Catalog,
              cfg: CostConfig = CostConfig()) -> float:
    rel = cat.relation(e.sole)
    cost = rel.cardinality * rel.scan_cost_factor
    if phy_op == INDEX_SCAN:
        cost = cost * cfg.index_scan_surcharge
    return cost


def join_local_cost(inlj: bool, out_rows: float, left_rows: float,
                    right_rows: float, log_base: float) -> float:
    """Local cost of a join from its three cardinalities, written once per
    form: this scalar form for ``nonscan_cost``, ``group_local_cost`` for
    ``BestCost``'s tables, with the same operations in the same order, so
    every engine's local costs agree bit for bit."""
    if inlj:
        # left child is the indexed inner by convention
        return right_rows * (1.0 + math.log(1.0 + left_rows, log_base)) + out_rows
    return left_rows + right_rows + out_rows


def nonscan_cost(alt: Alternative, s: Summary, l_sum: Summary, r_sum: Summary,
                 cfg: CostConfig = CostConfig()) -> float:
    """Local (root operator) cost of a join alternative; children excluded."""
    return join_local_cost(alt.phy_op == INDEX_NL_JOIN, s.cardinality, l_sum.cardinality,
                           r_sum.cardinality, cfg.inlj_log_base)


def sum_cost(l_cost: float | None, r_cost: float | None, local_cost: float) -> float:
    """Plan cost = left + right + local; a scan has no children (both None)."""
    return local_cost if l_cost is None else (l_cost + r_cost) + local_cost


def group_sum_cost(local: list[float], kids: list[int], best) -> list[float]:
    """``sum_cost`` of every alternative of a group, in position order, from
    its local-cost table, its child ids (two per join) and ``best``, the
    child best costs indexed by id; a leaf's are its local costs."""
    if not kids:
        return list(local)
    pairs = iter(kids)
    return [(best[l] + best[r]) + lc for lc, l, r in zip(local, pairs, pairs)]


def group_local_cost(out: float, inlj: list[bool], kids: list[int], card,
                     probe) -> list[float]:
    """``join_local_cost`` of every alternative of a join group, in position
    order, from its output cardinality ``out``, its INLJ flags, its child ids
    (two per join) and ``card`` and ``probe``, the cardinalities and probe
    factors ``1 + log_b(1 + rows)`` indexed by id."""
    pairs = iter(kids)
    return [card[r] * probe[l] + out if flag else card[l] + card[r] + out
            for flag, l, r in zip(inlj, pairs, pairs)]


class CostContext:
    """Catalog + query + config bundle with the canonical summary memo.

    All engines costing the same (catalog, query) share the identical
    arithmetic path through this class, so their costs agree exactly.
    ``summaries`` is the one memo, keyed by relation bitmask (the catalog's
    ``relation_bits``, as ``SearchUniverse.group_masks`` are), so
    ``BestCost`` reads it straight from a group id's mask.
    """

    def __init__(self, cat: Catalog, query: Query, config: CostConfig | None = None):
        self.catalog = cat
        self.query = query
        self.config = config or CostConfig()
        self.summaries: dict[int, Summary] = {}
        # relation tuple -> bitmask; numbers never move a mask, so a rebased
        # context shares this table
        self._masks: dict[tuple[str, ...], int] = {}

    def summary(self, key: ExprSig | int) -> Summary:
        """The summary of an expression, or of the relations in a bitmask.
        A miss composes the canonical decomposition, the mask's first
        relation by name against the rest, so the value never depends on
        which partition asked first."""
        if type(key) is int:
            mask = key
        else:
            mask = self._masks.get(key.rels)
            if mask is None:
                mask = self._masks[key.rels] = expr_mask(key, self.catalog)
        got = self.summaries.get(mask)
        if got is None:
            cat = self.catalog
            head = next(b for b in cat.name_order_bits if b & mask)
            if head == mask:
                got = scan_summary(ExprSig((cat.relations[mask.bit_length() - 1].name,)),
                                   cat, self.query)
            else:
                rest = mask ^ head
                got = nonscan_summary(head, self.summary(head),
                                      rest, self.summary(rest), cat)
            self.summaries[mask] = got
        return got

    def local_cost(self, e: ExprSig, p, alt: Alternative) -> float:
        if alt.log_op == LOG_SCAN:
            return scan_cost(e, p, alt.phy_op, self.summary(e), self.catalog, self.config)
        return nonscan_cost(alt, self.summary(e), self.summary(alt.l_expr),
                            self.summary(alt.r_expr), self.config)

    def rebased(self, cat: Catalog,
                updates: Iterable[StatUpdate]) -> "CostContext":
        """New context for the catalog ``updates`` produced, keeping every
        summary they cannot reach.

        A join-selectivity update reaches the summary of an expression whose
        bitmask holds both endpoints (the test ``BestCost.invalidate`` uses);
        a scan-cost update reaches none, since cardinality does not depend
        on ``scan_cost_factor``.
        """
        ctx = CostContext(cat, self.query, self.config)
        ctx._masks = self._masks
        kept = self.summaries
        for u in updates:
            t = target_mask(u, cat) if u.kind == JOIN_SELECTIVITY else 0
            if t:
                kept = {m: s for m, s in kept.items() if m & t != t}
        ctx.summaries = dict(kept) if kept is self.summaries else kept
        return ctx


def target_mask(u: StatUpdate, cat: Catalog) -> int:
    """The bitmask of ``u``'s target relations, or 0 when one of them is
    not in ``cat`` (then no expression over ``cat`` holds them all)."""
    bits = cat.relation_bits
    t = 0
    for r in u.target_relations():
        if r not in bits:
            return 0
        t |= bits[r]
    return t


def alternative_cost(ctx: CostContext, group: GroupKey, alt: Alternative,
                     child_best) -> float:
    """Full plan cost of one alternative given a child-best resolver.

    ``child_best(group) -> (cost, alt_key)``.  The test oracles and the
    state audit call it; the declarative engine's ``recost`` rule and
    ``BestCost`` add the same local cost, read from ``BestCost``'s table,
    with ``sum_cost`` or its group form, so the arithmetic is identical.
    """
    e, p = group
    local = ctx.local_cost(e, p, alt)
    if alt.is_scan:
        return sum_cost(None, None, local)
    l_cost = child_best((alt.l_expr, alt.l_prop))[0]
    r_cost = child_best((alt.r_expr, alt.r_prop))[0]
    return sum_cost(l_cost, r_cost, local)


class BestCost:
    """The memoized best-cost DP over a search universe's dense group ids.

    ``best(g)`` is the group's smallest ``(cost, (index, phy_op))`` tuple
    over its alternatives, each costed with its children's ``best``; tuple
    order is the deterministic tie-break every engine shares.  This one
    resolver backs the exhaustive oracle, System-R and the declarative
    engine's cost composition through groups whose maintained entries are
    pruned away.

    The tables are flat lists indexed by ``SearchUniverse`` group id: per
    id, the best cost and its position, the output cardinality and its
    probe factor, and the local cost of each alternative.  ``_settle`` is
    the one resolution path: it resolves a list of ids in order, each after
    its children, filling a local table when none is held and adding the
    children's best costs with ``group_sum_cost``, as ``install()`` does;
    ``recost``, Volcano and ``alternative_cost`` cost one alternative with
    ``sum_cost``.  A read that misses settles the pending list: the ids
    updates dropped since the last settle, or a fresh DP's ``order``.  If
    the group is still unresolved, it then settles the unresolved groups
    below it in post-order, children in position order, the order a
    recursion from the group would resolve them in.

    ``invalidate`` drops what an update reaches, read from a per-target
    list of the ids whose relation bitmask holds the target, in settle
    order (fewest relations first, then id), built on first use, and keeps
    every value an update cannot reach.  ``memo`` lists the resolved groups
    in resolution order, each after its children, from a log of settled
    ids that is compacted once it outgrows twice the universe.
    """

    def __init__(self, universe: SearchUniverse, ctx: CostContext,
                 order: Iterable[int] = ()):
        """``order``, when given, is the ids the first miss settles, each
        after its children: System-R's size order."""
        self.universe = universe
        self.ctx = ctx
        # per id: best cost (None until resolved) and its position
        self._cost: list[float | None] = []
        self._pos: list[int] = []
        # per id: output cardinality and its probe factor, held together,
        # and each alternative's local cost
        self._card: list[float | None] = []
        self._probe: list[float | None] = []
        self._local: list[list[float] | None] = []
        # per id, which alternatives are index nested-loop joins: structure,
        # so kept across invalidation
        self._inlj: list[list[bool] | None] = []
        # the ids the next miss settles first, in settle order
        self._pending: list[int] = list(order)
        # every settled id, in resolution order
        self._order: list[int] = []
        # target mask -> the ids it reaches, in settle order; rebuilt when
        # the universe grows
        self._reach: dict[int, list[int]] = {}

    @property
    def costs(self) -> list[float | None]:
        """The best cost per group id, None while unresolved."""
        if len(self._cost) < len(self.universe.group_keys):
            self._grow()
        return self._cost

    @property
    def memo(self) -> dict[GroupKey, tuple[float, AltKey]]:
        keys, alts, pos = self.universe.group_keys, self.universe.group_alts, self._pos
        return {keys[i]: (self._cost[i], alts[i][pos[i]].key) for i in self._resolved()}

    def best(self, g: GroupKey) -> tuple[float, AltKey]:
        i = self.universe.group_id(g)
        return self.cost_id(i), self.universe.group_alts[i][self._pos[i]].key

    def best_id(self, i: int) -> tuple[float, int]:
        """``best`` by group id, naming the alternative by its position."""
        return self.cost_id(i), self._pos[i]

    def cost_id(self, i: int) -> float:
        """The best cost of group id ``i``: one list read once resolved."""
        cost = self._cost
        if i < len(cost):
            got = cost[i]
            if got is not None:
                return got
        return self._miss(i)

    def local_table(self, i: int) -> list[float]:
        """The local cost of each alternative of group id ``i``, in their
        order: the retained table, filled first when there is none.  The
        group's alternatives must be computed."""
        if len(self._local) < len(self.universe.group_keys):
            self._grow()
        local = self._local[i]
        if local is None:
            # read outside a settle (``recost``, Volcano), a group may have
            # children the DP has not settled, so their cardinalities may
            # not be held yet
            card = self._card
            for c in (i, *self.universe.group_kids[i]):
                if card[c] is None:
                    self._hold(c)
            local = self._local[i] = self._fill(i)
        return local

    def _hold(self, i: int) -> None:
        """Hold group id ``i``'s output cardinality, its relation bitmask's
        summary, and its probe factor as an INLJ inner."""
        card = self._card[i] = self.ctx.summary(self.universe.group_masks[i]).cardinality
        self._probe[i] = 1.0 + math.log(1.0 + card, self.ctx.config.inlj_log_base)

    def _fill(self, i: int) -> list[float]:
        """Group id ``i``'s local-cost table.  A join group's entries come
        from the cardinalities and probe factors of it and its children,
        which must be held; a leaf's go through ``CostContext.local_cost``."""
        u = self.universe
        alts, kids = u.group_alts[i], u.group_kids[i]
        if not kids:
            e, p = u.group_keys[i]
            return [self.ctx.local_cost(e, p, a) for a in alts]
        inlj = self._inlj[i]
        if inlj is None:
            inlj = self._inlj[i] = [a.phy_op == INDEX_NL_JOIN for a in alts]
        return group_local_cost(self._card[i], inlj, kids, self._card, self._probe)

    def _grow(self) -> None:
        missing = len(self.universe.group_keys) - len(self._cost)
        for table in (self._cost, self._card, self._probe, self._local, self._inlj):
            table.extend([None] * missing)
        self._pos.extend([0] * missing)
        self._reach = {}

    def _miss(self, i: int) -> float:
        """Resolve group id ``i``: settle the pending list, then, if ``i`` is
        still unresolved, the unresolved groups below it."""
        if len(self._cost) < len(self.universe.group_keys):
            self._grow()
        if self._pending:
            pending, self._pending = self._pending, []
            self._settle(pending)
        if self._cost[i] is None:
            self._settle(self._below(i))
        return self._cost[i]

    def _below(self, i: int) -> list[int]:
        """The unresolved ids ``i`` reaches, ``i`` included, in post-order:
        each after its children, met in position order.  Computes the
        alternatives of each group that lacks them; a group with none raises
        ``InfeasibleQuery``."""
        u = self.universe
        cost = self._cost

        def kids(g: int):
            if u.group_alts[g] is None:
                u.group_id(u.group_keys[g])
                self._grow()
            if not u.group_alts[g]:
                e, p = u.group_keys[g]
                raise InfeasibleQuery(f"group {e}|{p} has no alternatives")
            return iter(u.group_kids[g])

        order: list[int] = []
        seen = {i}
        stack = [(i, kids(i))]
        while stack:
            g, rest = stack[-1]
            for c in rest:
                if c not in seen and cost[c] is None:
                    seen.add(c)
                    stack.append((c, kids(c)))
                    break
            else:
                stack.pop()
                order.append(g)
        return order

    def _settle(self, order: list[int]) -> None:
        """Resolve the ids of ``order`` in turn; each id's children must be
        resolved or come before it, so the cardinalities its table fill
        reads are held."""
        kids_of = self.universe.group_kids
        cost, pos, card, local = self._cost, self._pos, self._card, self._local
        for i in order:
            if card[i] is None:
                self._hold(i)
            table = local[i]
            if table is None:
                table = local[i] = self._fill(i)
            costs = group_sum_cost(table, kids_of[i], cost)
            # position order is key order, so the first position holding the
            # minimum is the smallest (cost, index, phy_op)
            best = cost[i] = min(costs)
            pos[i] = costs.index(best)
        self._order += order
        if len(self._order) > 2 * len(cost):
            self._order = self._resolved()

    def _resolved(self) -> list[int]:
        """Each resolved id once, in resolution order: the settle log with
        every id kept only at its last settle, which a resolved group's
        value came from.  A group settles after its children, and an
        update that drops a child drops its parents too, so each id still
        follows its children."""
        cost, seen, out = self._cost, set(), []
        for i in reversed(self._order):
            if i not in seen:
                seen.add(i)
                if cost[i] is not None:
                    out.append(i)
        out.reverse()
        return out

    def _reached(self, t: int) -> list[int]:
        """The ids whose relation bitmask holds target mask ``t``, in settle
        order: fewest relations first, then id, so each follows its
        children."""
        reach = self._reach.get(t)
        if reach is None:
            reach = self._reach[t] = sorted(
                (i for i, m in enumerate(self.universe.group_masks) if m & t == t),
                key=self._settle_key)
        return reach

    def _settle_key(self, i: int) -> tuple[int, int]:
        return self.universe.group_masks[i].bit_count(), i

    def invalidate(self, updates: Iterable[StatUpdate],
                   ctx: CostContext) -> None:
        """Adopt the context for the catalog ``updates`` produced and forget
        what some update reaches: an update reaches a group whose relation
        bitmask holds all of its target relations.

        A reached group loses its best cost, and if it was resolved it joins
        the pending list, which the next miss settles.  A join-selectivity
        update also drops its cardinality, probe factor and local costs,
        since they read the summaries it moves; a scan-cost update drops
        only the local costs of its relation's leaf groups, since join local
        costs read only summaries and summaries do not read
        ``scan_cost_factor``.  No other value can move.
        """
        self.ctx = ctx
        u = self.universe
        if len(self._cost) < len(u.group_keys):
            self._grow()
        cost, card, probe, local = self._cost, self._card, self._probe, self._local
        masks = u.group_masks
        pending = self._pending
        for upd in updates:
            t = target_mask(upd, u.catalog)
            if not t:
                continue
            keep_joins = upd.kind == SCAN_COST
            dropped = []
            for i in self._reached(t):
                if cost[i] is not None:
                    cost[i] = None
                    dropped.append(i)
                if not keep_joins:
                    card[i] = probe[i] = local[i] = None
                elif masks[i] == t:
                    local[i] = None
            if dropped:
                pending = sorted(pending + dropped, key=self._settle_key) if pending else dropped
        self._pending = pending

"""The concrete cost model: summaries and the five costing functions.

Cost formulas (dimensionless work units):

* seq scan:    base_cardinality * scan_cost_factor
* index scan:  base_cardinality * scan_cost_factor * index_scan_surcharge
* hash join:   left_rows + right_rows + output_rows          (local only)
* merge join:  same as hash join; inputs arrive pre-sorted by contract
* index NL:    outer_rows * (1 + log_b(1 + inner_rows)) + output_rows,
               inner = the indexed (left) child
* plan cost:   left_cost + right_cost + local_cost, written once in
               ``sum_cost`` for every engine and oracle

Summaries (estimated output cardinalities) are a logical property of an
expression: every partition of the same expression gets the identical
value because the context memoizes one canonical computation per
expression, keyed by its relation tuple.

``BestCost``, the one best-cost DP, runs over ``SearchUniverse``'s dense
group ids: per id a best value and an ``array('d')`` of local costs, the
one local-cost table, which the declarative engine's ``recost`` rule reads
too.  An update is tested against each id's relation bitmask, and a local
cost it cannot reach is kept: a scan-cost update moves only its relation's
leaf scans, since join local costs read summaries and no summary reads
``scan_cost_factor``.
"""
from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    Alternative, AltKey, ExprSig, GroupKey, INDEX_SCAN, INDEX_NL_JOIN, LOG_SCAN, Query,
    SearchUniverse,
)
from .catalog import JOIN_SELECTIVITY, SCAN_COST, Catalog, StatUpdate
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
        extra = set(data) - {"index_scan_surcharge", "inlj_log_base"}
        if extra:
            raise ParseError(f"unknown keys {sorted(extra)} in cost config")
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise ParseError(f"cannot read cost config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"cost config {path} is not valid JSON: {exc}") from exc


def scan_summary(e: ExprSig, cat: Catalog, query: Query) -> Summary:
    rel = cat.relation(e.sole)
    card = rel.cardinality
    for s in query.filter_selectivities(rel.name):
        card = card * s
    return Summary(card)


def nonscan_summary(e: ExprSig, l_expr: ExprSig, l_sum: Summary,
                    r_expr: ExprSig, r_sum: Summary, cat: Catalog) -> Summary:
    """Join output summary: child product times all crossing selectivities."""
    card = l_sum.cardinality * r_sum.cardinality
    for pred in cat.crossing_predicates(l_expr.rels, r_expr.rels):
        card = card * pred.selectivity
    return Summary(card)


def scan_cost(e: ExprSig, p, phy_op: str, s: Summary, cat: Catalog,
              cfg: CostConfig = CostConfig()) -> float:
    rel = cat.relation(e.sole)
    cost = rel.cardinality * rel.scan_cost_factor
    if phy_op == INDEX_SCAN:
        cost = cost * cfg.index_scan_surcharge
    return cost


def nonscan_cost(alt: Alternative, s: Summary, l_sum: Summary, r_sum: Summary,
                 cfg: CostConfig = CostConfig()) -> float:
    """Local (root operator) cost of a join alternative; children excluded."""
    if alt.phy_op == INDEX_NL_JOIN:
        # left child is the indexed inner by convention
        probe = 1.0 + math.log(1.0 + l_sum.cardinality, cfg.inlj_log_base)
        return r_sum.cardinality * probe + s.cardinality
    return l_sum.cardinality + r_sum.cardinality + s.cardinality


def sum_cost(l_cost: float | None, r_cost: float | None, local_cost: float) -> float:
    """Plan cost = left + right + local; a scan has no children (both None)."""
    return local_cost if l_cost is None else (l_cost + r_cost) + local_cost


class CostContext:
    """Catalog + query + config bundle with the canonical summary memo.

    All engines costing the same (catalog, query) share the identical
    arithmetic path through this class, so their costs agree exactly.
    """

    def __init__(self, cat: Catalog, query: Query, config: CostConfig | None = None):
        self.catalog = cat
        self.query = query
        self.config = config or CostConfig()
        self._summaries: dict[tuple[str, ...], Summary] = {}

    def summary(self, e: ExprSig) -> Summary:
        got = self._summaries.get(e.rels)
        if got is None:
            if e.is_leaf:
                got = scan_summary(e, self.catalog, self.query)
            else:
                # canonical decomposition: first relation vs the rest, so the
                # value never depends on which partition asked first
                head = ExprSig.of((e.rels[0],))
                rest = ExprSig.of(e.rels[1:])
                got = nonscan_summary(e, head, self.summary(head),
                                      rest, self.summary(rest), self.catalog)
            self._summaries[e.rels] = got
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

        A join-selectivity update reaches the summary of an expression that
        contains both endpoints; a scan-cost update reaches none, since
        cardinality does not depend on ``scan_cost_factor``.
        """
        ctx = CostContext(cat, self.query, self.config)
        stale = [u.target_relations() for u in updates
                 if u.kind == JOIN_SELECTIVITY]
        ctx._summaries = {e: s for e, s in self._summaries.items()
                          if not _reaches(stale, e)}
        return ctx


def _reaches(targets: list[frozenset[str]], rels: tuple[str, ...]) -> bool:
    """True iff some target set lies wholly inside the expression over
    ``rels``: an update can change its summary or cost only then."""
    return any(t.issubset(rels) for t in targets)


def alternative_cost(ctx: CostContext, group: GroupKey, alt: Alternative,
                     child_best) -> float:
    """Full plan cost of one alternative given a child-best resolver.

    ``child_best(group) -> (cost, alt_key)``.  The test oracles and the
    state audit call it; the declarative engine's ``recost`` rule and
    ``BestCost`` add the same local cost, read from ``BestCost``'s table,
    with the same ``sum_cost``, so the arithmetic is identical everywhere.
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
    resolver backs the exhaustive oracle, System-R (which asks for groups
    bottom-up, so it never recurses) and the declarative engine's cost
    composition through groups whose maintained entries are pruned away.

    The tables are indexed by ``SearchUniverse`` group id: per id, the best
    value and the local cost of each alternative (an ``array('d')``), which
    ``sum_cost`` adds to the children's best.  ``invalidate`` tests relation
    bitmasks and keeps every local cost an update cannot reach, so a
    re-resolution recomputes only those it can.  ``memo`` lists the resolved
    groups in resolution order: a group is entered after every child it
    needed.
    """

    def __init__(self, universe: SearchUniverse, ctx: CostContext):
        self.universe = universe
        self.ctx = ctx
        self._best: list[tuple[float, AltKey] | None] = []
        self._local: list[array | None] = []
        self._order: list[int] = []

    @property
    def memo(self) -> dict[GroupKey, tuple[float, AltKey]]:
        keys, best = self.universe.group_keys, self._best
        return {keys[i]: best[i] for i in self._order}

    def best(self, g: GroupKey) -> tuple[float, AltKey]:
        return self.best_id(self.universe.group_id(g))

    def best_id(self, i: int) -> tuple[float, AltKey]:
        """``best`` by group id."""
        if len(self._best) < len(self.universe.group_keys):
            self._grow()
        return self._best[i] or self._solve(i)

    def local_costs(self, g: GroupKey) -> array | None:
        """The retained local cost of each of ``g``'s alternatives, in their
        order, or None when none is retained."""
        i = self.universe.group_id(g)
        return self._local[i] if i < len(self._local) else None

    def local_table(self, i: int) -> array:
        """The local cost of each alternative of group id ``i``, in their
        order: the retained table, computed first when there is none.  The
        group's alternatives must be computed."""
        if len(self._local) < len(self.universe.group_keys):
            self._grow()
        local = self._local[i]
        if local is None:
            e, p = self.universe.group_keys[i]
            local_cost = self.ctx.local_cost
            local = self._local[i] = array(
                "d", [local_cost(e, p, a) for a in self.universe.group_alts[i]])
        return local

    def _grow(self) -> None:
        missing = len(self.universe.group_keys) - len(self._best)
        self._best.extend([None] * missing)
        self._local.extend([None] * missing)

    def _solve(self, i: int) -> tuple[float, AltKey]:
        u = self.universe
        alts = u.group_alts[i]
        if alts is None:
            alts = u.group_alts[u.group_id(u.group_keys[i])]
            self._grow()
        if not alts:
            g = u.group_keys[i]
            raise InfeasibleQuery(f"group {g[0]}|{g[1]} has no alternatives")
        local = self.local_table(i)
        kids = u.group_kids[i]
        if kids:
            best, solve = self._best, self._solve
            pairs = iter(kids)
            got = min((sum_cost((best[l] or solve(l))[0], (best[r] or solve(r))[0], lc),
                       a.key)
                      for a, lc, l, r in zip(alts, local, pairs, pairs))
        else:
            got = min((sum_cost(None, None, lc), a.key) for a, lc in zip(alts, local))
        self._best[i] = got
        self._order.append(i)
        return got

    def invalidate(self, updates: Iterable[StatUpdate],
                   ctx: CostContext) -> None:
        """Adopt the context for the catalog ``updates`` produced and forget
        what some update reaches: an update reaches a group whose relation
        bitmask holds all of its target relations.

        A reached group loses its best cost.  A join-selectivity update also
        drops its local costs, since they read the summaries it moves; a
        scan-cost update drops only the local costs of its relation's leaf
        groups, since join local costs read only summaries and summaries do
        not read ``scan_cost_factor``.  No other value can move.
        """
        self.ctx = ctx
        bits = self.universe.catalog.relation_bits
        best, local = self._best, self._local
        masks = self.universe.group_masks[:len(best)]
        for u in updates:
            targets = u.target_relations()
            if not all(r in bits for r in targets):
                continue
            t = 0
            for r in targets:
                t |= bits[r]
            keep_joins = u.kind == SCAN_COST
            for i, m in enumerate(masks):
                if m & t == t:
                    best[i] = None
                    if not keep_joins or m == t:
                        local[i] = None
        self._order = [i for i in self._order if best[i] is not None]

"""An oracle that shares no enumerator with the engines it checks.

``TreeEnumerator`` builds every physical plan tree of a query straight from
the catalog: each split of a connected expression into two connected sides
linked by at least one predicate, crossed with the operator rules that
``leaf_alternatives`` and ``split`` implement, restated here.  It uses
neither ``SearchUniverse``, ``split``, ``partitions`` nor ``BestCost``, so an
enumeration bug cannot hide behind the universe every engine shares.  Only
the cost arithmetic (``CostContext``, ``sum_cost``) is shared, which is what
makes the minimum comparable bit for bit.
"""
from __future__ import annotations

import pytest

from incropt.algebra import (
    HASH_JOIN, INDEX_NL_JOIN, INDEX_SCAN, LOG_JOIN, LOG_SCAN, MERGE_JOIN, PROP_INDEX,
    PROP_SORTED, SEQ_SCAN, Alternative, ExprSig, PropertySpec, SearchUniverse,
)
from incropt.baselines import brute_force_optimize, systemr_optimize, volcano_optimize
from incropt.costmodel import CostContext, sum_cost
from incropt.fixtures import q3s, q5s
from incropt.optimizer import STRATEGY_SUBSETS, DeclarativeOptimizer
from incropt.workload import make_workload

NONE = PropertySpec.none()


def _relation_of(attr: str) -> str:
    return attr.partition(".")[0]


class TreeEnumerator:
    """The cost of every plan tree of every (relation set, property) pair."""

    def __init__(self, cat, query):
        self.cat = cat
        self.ctx = CostContext(cat, query)
        self.root = frozenset(query.relations)
        self._trees: dict[tuple[frozenset, PropertySpec], list[float]] = {}

    def tree_costs(self, rels: frozenset | None = None, prop: PropertySpec = NONE) -> list[float]:
        rels = self.root if rels is None else rels
        key = (rels, prop)
        if key not in self._trees:
            e = ExprSig.of(rels)
            self._trees[key] = [
                sum_cost(None, None, self.ctx.local_cost(e, prop, alt))
                if alt.is_scan else
                sum_cost(lc, rc, self.ctx.local_cost(e, prop, alt))
                for alt in self._operators(rels, prop)
                for lc, rc in self._child_costs(alt)
            ]
        return self._trees[key]

    def _child_costs(self, alt: Alternative):
        if alt.is_scan:
            yield None, None
            return
        for lc in self.tree_costs(frozenset(alt.l_expr.rels), alt.l_prop):
            for rc in self.tree_costs(frozenset(alt.r_expr.rels), alt.r_prop):
                yield lc, rc

    def _crossing(self, a: frozenset, b: frozenset) -> list[tuple[str, str]]:
        """(attribute on side a, attribute on side b) of each predicate linking them."""
        out = []
        for pred in self.cat.predicates:
            lrel, rrel = _relation_of(pred.left), _relation_of(pred.right)
            if lrel in a and rrel in b:
                out.append((pred.left, pred.right))
            elif rrel in a and lrel in b:
                out.append((pred.right, pred.left))
        return out

    def _connected(self, rels: frozenset) -> bool:
        reached = {min(rels)}
        grew = True
        while grew:
            grew = False
            for pred in self.cat.predicates:
                ends = {_relation_of(pred.left), _relation_of(pred.right)}
                if ends <= rels and len(ends & reached) == 1:
                    reached |= ends
                    grew = True
        return reached == rels

    def _sides(self, rels: frozenset):
        """Each unordered split into two connected, linked sides, once."""
        first, rest = min(rels), sorted(rels - {min(rels)})
        for bits in range(2 ** len(rest) - 1):
            a = frozenset([first] + [r for i, r in enumerate(rest) if bits >> i & 1])
            b = rels - a
            crossing = self._crossing(a, b)
            if crossing and self._connected(a) and self._connected(b):
                yield a, b, crossing

    def _operators(self, rels: frozenset, prop: PropertySpec) -> list[Alternative]:
        if len(rels) == 1:
            return self._scans(next(iter(rels)), prop)
        out = []
        for a, b, crossing in self._sides(rels):
            ea, eb = ExprSig.of(a), ExprSig.of(b)
            if prop.is_none:
                out.append(Alternative(0, LOG_JOIN, HASH_JOIN, ea, NONE, eb, NONE))
                # indexed nested loop: a single-relation inner, indexed on
                # the predicate attribute, on the left
                for attr_a, attr_b in crossing:
                    for inner, attr, outer in ((ea, attr_a, eb), (eb, attr_b, ea)):
                        bare = attr.partition(".")[2]
                        if len(inner) == 1 and bare in self.cat.relation(inner.sole).indexed_on:
                            out.append(Alternative(0, LOG_JOIN, INDEX_NL_JOIN, inner,
                                                   PropertySpec.index_on(attr), outer, NONE))
            for attr_a, attr_b in crossing:
                wanted = prop.kind == PROP_SORTED and prop.attr in (attr_a, attr_b)
                if prop.is_none or wanted:
                    out.append(Alternative(0, LOG_JOIN, MERGE_JOIN,
                                           ea, PropertySpec.sorted_on(attr_a),
                                           eb, PropertySpec.sorted_on(attr_b)))
        return out

    def _scans(self, name: str, prop: PropertySpec) -> list[Alternative]:
        rel = self.cat.relation(name)
        if prop.is_none:
            return [Alternative(1, LOG_SCAN, SEQ_SCAN)]
        owner, _, attr = prop.attr.partition(".")
        if owner != name:
            return []
        if prop.kind == PROP_INDEX:
            usable = attr in rel.indexed_on
        else:  # sorted: by the relation's own order or through an index
            usable = attr == rel.sorted_on or attr in rel.indexed_on
        return [Alternative(1, LOG_SCAN, INDEX_SCAN)] if usable else []


def _universe_tree_count(cat, query) -> int:
    """Number of plan trees under the shared universe, for comparison."""
    universe = SearchUniverse(cat, query)
    memo: dict = {}

    def count(g) -> int:
        if g not in memo:
            total = 0
            for alt in universe.alternatives(g):
                n = 1
                for child in alt.children():
                    n *= count(child)
                total += n
            memo[g] = total
        return memo[g]

    return count(universe.root)


def test_tree_enumerator_on_a_hand_checked_join(co_fixture):
    # customer ⋈ orders on ck, indexed on both sides: a hash join, an
    # indexed nested loop with either side as the inner, and a merge join
    # over two index scans
    cat, q = co_fixture
    trees = TreeEnumerator(cat, q).tree_costs()
    assert len(trees) == 4
    assert min(trees) == brute_force_optimize(q, cat)[0].cost


CASES = [(shape, n) for shape in ("chain", "star", "clique") for n in (2, 3, 4, 5)]


def _check_all_engines(cat, q) -> None:
    trees = TreeEnumerator(cat, q).tree_costs()
    assert len(trees) == _universe_tree_count(cat, q)
    best = min(trees)
    assert brute_force_optimize(q, cat)[0].cost == best
    assert systemr_optimize(q, cat)[0].cost == best
    assert volcano_optimize(q, cat)[0].cost == best
    for label, st in STRATEGY_SUBSETS.items():
        assert DeclarativeOptimizer(cat, q, strategies=st).run().best_cost() == best, label


@pytest.mark.parametrize("shape,n", CASES)
def test_every_engine_equals_the_cheapest_tree(shape, n):
    for seed in range(4):
        _check_all_engines(*make_workload(shape, n, seed))


@pytest.mark.parametrize("fixture", [q3s, q5s], ids=["q3s", "q5s"])
def test_every_engine_equals_the_cheapest_tree_on_fixtures(fixture):
    _check_all_engines(*fixture())

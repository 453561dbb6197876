from __future__ import annotations

import math
import random

import pytest

from incropt.algebra import (
    Alternative, ExprSig, PropertySpec, Query, SearchUniverse, connected_subexprs,
)
from incropt.catalog import Catalog, JoinPredicate, RelationMeta, StatUpdate, apply_update
from incropt.costmodel import (
    BestCost, CostConfig, CostContext, Summary, alternative_cost, group_sum_cost, nonscan_cost,
    nonscan_summary, scan_cost, scan_summary, sum_cost,
)
from incropt.fixtures import q3s, q5s, q8joins
from incropt.incremental import ReoptSession
from incropt.optimizer import DeclarativeOptimizer
from incropt.workload import make_update_batch, make_workload


def make_cat():
    return Catalog(
        relations=(
            RelationMeta("C", 1500.0, ("ck",)),
            RelationMeta("O", 15000.0, ("ok", "ck")),
            RelationMeta("L", 60000.0, ("ok",), scan_cost_factor=1.0),
        ),
        predicates=(
            JoinPredicate("C.ck", "O.ck", 0.001),
            JoinPredicate("O.ok", "L.ok", 0.0001),
        ),
    )


def test_scan_summary_applies_filters():
    cat = make_cat()
    q = Query(("C", "O", "L"), filters=(("L", 0.5),))
    assert scan_summary(ExprSig.of(["L"]), cat, q).cardinality == 30000.0
    assert scan_summary(ExprSig.of(["C"]), cat, q).cardinality == 1500.0
    q1 = Query(("C",), filters=(("C", 1.0),))
    assert scan_summary(ExprSig.of(["C"]), cat, q1).cardinality == 1500.0


def test_nonscan_summary_hand_arithmetic():
    cat = make_cat()
    bits = cat.relation_bits
    got = nonscan_summary(bits["C"], Summary(1500.0), bits["O"], Summary(15000.0), cat)
    assert got.cardinality == 1500.0 * 15000.0 * 0.001 == 22500.0


def test_nonscan_summary_zero_child():
    cat = make_cat()
    bits = cat.relation_bits
    got = nonscan_summary(bits["C"], Summary(0.0), bits["O"], Summary(15000.0), cat)
    assert got.cardinality == 0.0


def test_nonscan_summary_multiple_crossing_predicates():
    cat = Catalog(
        relations=(
            RelationMeta("A", 10.0, ("x", "y")),
            RelationMeta("B", 20.0, ("x", "y")),
        ),
        predicates=(
            JoinPredicate("A.x", "B.x", 0.5),
            JoinPredicate("A.y", "B.y", 0.25),
        ),
    )
    bits = cat.relation_bits
    got = nonscan_summary(bits["A"], Summary(10.0), bits["B"], Summary(20.0), cat)
    # brute-force product over the predicate set
    expect = 10.0 * 20.0
    for p in cat.predicates:
        expect *= p.selectivity
    assert got.cardinality == expect == 25.0


def test_scan_cost_formulas():
    cat = make_cat()
    e = ExprSig.of(["C"])
    s = Summary(1500.0)
    assert scan_cost(e, PropertySpec.none(), "seq_scan", s, cat) == 1500.0
    assert scan_cost(e, PropertySpec.none(), "index_scan", s, cat) == 1500.0 * 1.2 == 1800.0
    bumped = apply_update(cat, StatUpdate("scan_cost", "C", 8.0))
    assert scan_cost(e, PropertySpec.none(), "seq_scan", s, bumped) == 12000.0


def test_nonscan_cost_formulas():
    join = Alternative(1, "join", "hash_join", ExprSig.of(["C"]), PropertySpec.none(),
                       ExprSig.of(["O"]), PropertySpec.none())
    got = nonscan_cost(join, Summary(22500.0), Summary(1500.0), Summary(15000.0))
    assert got == 1500.0 + 15000.0 + 22500.0 == 39000.0
    merge = Alternative(2, "join", "merge_join", ExprSig.of(["C"]),
                        PropertySpec.sorted_on("C.ck"), ExprSig.of(["O"]),
                        PropertySpec.sorted_on("O.ck"))
    assert nonscan_cost(merge, Summary(22500.0), Summary(1500.0), Summary(15000.0)) == got
    # zero outer rows: only the output term remains
    inlj = Alternative(3, "join", "index_nl_join", ExprSig.of(["L"]),
                       PropertySpec.index_on("L.ok"), ExprSig.of(["O"]),
                       PropertySpec.none())
    assert nonscan_cost(inlj, Summary(7.0), Summary(60000.0), Summary(0.0)) == 7.0
    got = nonscan_cost(inlj, Summary(7.0), Summary(60000.0), Summary(10.0))
    assert got == 10.0 * (1.0 + math.log(60001.0, 2.0)) + 7.0


def test_sum_cost():
    assert sum_cost(0.04, 0.19, 0.07) == pytest.approx(0.30)
    assert sum_cost(None, None, 3.5) == 3.5
    assert sum_cost(2.0, 3.0, 0.0) == 5.0


def test_cost_monotone_in_children():
    # plan cost >= max(child costs); strict when local cost is positive
    rng = random.Random(7)
    for _ in range(200):
        l, r = rng.uniform(0, 1e6), rng.uniform(0, 1e6)
        local = rng.uniform(1e-9, 1e6)
        total = sum_cost(l, r, local)
        assert total > max(l, r)


def test_summary_partition_invariant_by_memoization():
    cat = make_cat()
    ctx = CostContext(cat, Query(("C", "O", "L")))
    e = ExprSig.of(["C", "O", "L"])
    first = ctx.summary(e)
    assert ctx.summary(e) is first
    # value matches the independence-assumption product over the expression
    expect = 1500.0 * 15000.0 * 60000.0
    for p in cat.predicates:
        expect *= p.selectivity
    assert first.cardinality == pytest.approx(expect, rel=1e-12)


def test_scan_factor_scaling_touches_only_leaf_cost():
    cat = make_cat()
    q = Query(("C", "O", "L"))
    ctx0 = CostContext(cat, q)
    bumped = apply_update(cat, StatUpdate("scan_cost", "L", 4.0))
    ctx1 = CostContext(bumped, q)
    l = ExprSig.of(["L"])
    c0 = scan_cost(l, PropertySpec.none(), "seq_scan", ctx0.summary(l), cat)
    c1 = scan_cost(l, PropertySpec.none(), "seq_scan", ctx1.summary(l), bumped)
    assert c1 == 4.0 * c0
    for e in (l, ExprSig.of(["O", "L"]), ExprSig.of(["C", "O", "L"])):
        assert ctx0.summary(e).cardinality == ctx1.summary(e).cardinality


def test_cost_config_override():
    cfg = CostConfig.from_dict({"index_scan_surcharge": 1.0})
    cat = make_cat()
    e = ExprSig.of(["C"])
    assert scan_cost(e, PropertySpec.none(), "index_scan", Summary(1.0), cat, cfg) == 1500.0


@pytest.mark.parametrize("make", [q5s, lambda: make_workload("clique", 5, 4)],
                         ids=["q5s", "clique-5"])
def test_update_invalidates_exactly_what_it_reaches(make):
    """A join-selectivity update drops the summaries and fallback best costs
    of the expressions holding both endpoints and nothing else; a scan-cost
    update drops no summary.  Every kept value equals a fresh computation on
    the updated catalog."""
    cat, q = make()
    universe = SearchUniverse(cat, q)
    for u in (StatUpdate("join_selectivity", cat.predicates[0].name, 8.0),
              StatUpdate("scan_cost", cat.relations[0].name, 0.125)):
        ctx = CostContext(cat, q)
        dp = BestCost(universe, ctx)
        dp.best(universe.root)
        before = set(dp.memo)
        summaries = dict(ctx.summaries)
        new_cat = apply_update(cat, u)
        rebased = ctx.rebased(new_cat, [u])
        dp.invalidate([u], rebased)
        # each reach list is the reached ids, fewest relations first, then id
        masks = universe.group_masks
        assert dp._reach
        for t, reach in dp._reach.items():
            assert reach == sorted((i for i, m in enumerate(masks) if m & t == t),
                                   key=lambda i: (masks[i].bit_count(), i))
        fresh = BestCost(universe, CostContext(new_cat, q))
        ends = u.target_relations()
        assert set(dp.memo) == {g for g in before if not ends <= set(g[0].rels)}
        assert len(dp.memo) < len(before)
        for g, kept in dp.memo.items():
            assert kept == fresh.best(g), (u, g)
        kept = rebased.summaries
        if u.kind == "scan_cost":
            assert kept == summaries
        else:
            assert set(kept) == {m for m in summaries if not ends <= _rels_of(cat, m)}
        for m, s in kept.items():
            assert s == fresh.ctx.summary(ExprSig.of(_rels_of(cat, m))), (u, m)


def _rels_of(cat, mask: int) -> set[str]:
    """The relations of a summary memo key (a ``relation_bits`` mask)."""
    return {name for name, bit in cat.relation_bits.items() if mask & bit}


def _assert_dp_equals_fresh(dp: BestCost, fresh: BestCost, step) -> int:
    """Every value and every retained local cost ``dp`` holds equals a fresh
    DP's on the same catalog, bit for bit; returns how many it checked."""
    checked = 0
    for g, kept in dp.memo.items():
        assert kept == fresh.best(g), (step, g)
        checked += 1
    for i, g in enumerate(dp.universe.group_keys):
        local = dp._local[i]
        if local is not None:
            e, p = g
            want = [fresh.ctx.local_cost(e, p, a) for a in dp.universe.alternatives(g)]
            assert [x.hex() for x in local] == [x.hex() for x in want], (step, g)
            checked += len(local)
    return checked


_DRIFT_WORKLOADS = {
    "clique-5": lambda: make_workload("clique", 5, 4),
    "star-6": lambda: make_workload("star", 6, 2),
    "q8joins": q8joins,
}


@pytest.mark.parametrize("name", sorted(_DRIFT_WORKLOADS))
def test_dp_after_mixed_updates_equals_a_fresh_dp(name):
    """After each of 40 mixed updates, a DP that invalidated and re-resolved
    holds only values and local costs equal to a from-scratch DP's; so does
    the engine's pruned-group fallback after the same 40 updates."""
    cat, q = _DRIFT_WORKLOADS[name]()
    stream = make_update_batch(cat, 40, 11)
    assert {u.kind for u in stream} == {"scan_cost", "join_selectivity"}
    universe = SearchUniverse(cat, q)
    ctx = CostContext(cat, q)
    dp = BestCost(universe, ctx)
    for g in universe.groups():
        dp.best(g)
    opt = DeclarativeOptimizer(cat, q).run()
    session = ReoptSession(opt)
    for step, u in enumerate(stream):
        cat = apply_update(cat, u)
        ctx = ctx.rebased(cat, [u])
        dp.invalidate([u], ctx)
        dp.best(universe.root)
        fresh = BestCost(universe, CostContext(cat, q))
        assert _assert_dp_equals_fresh(dp, fresh, step)
        session.add_updates([u])
        session.reoptimize()
    fresh = BestCost(opt.universe, CostContext(opt.catalog, q))
    _assert_dp_equals_fresh(opt.dp, fresh, "engine")


@pytest.mark.parametrize("make", [q5s, lambda: make_workload("clique", 5, 4)],
                         ids=["q5s", "clique-5"])
def test_update_keeps_every_local_cost_it_cannot_reach(make):
    """A scan-cost update drops the local costs of its relation's leaf
    groups only, keeping every join group's; a join-selectivity update drops
    those of the groups holding both endpoints.  Best values go by the same
    subset rule."""
    cat, q = make()
    universe = SearchUniverse(cat, q)
    for u in (StatUpdate("scan_cost", cat.relations[0].name, 8.0),
              StatUpdate("join_selectivity", cat.predicates[0].name, 0.125)):
        dp = BestCost(universe, CostContext(cat, q))
        for g in universe.groups():
            dp.best(g)
        before = {g: dp._local[universe.group_id(g)] for g in universe.groups()}
        new_cat = apply_update(cat, u)
        dp.invalidate([u], dp.ctx.rebased(new_cat, [u]))
        ends = u.target_relations()
        joins = 0
        for g, local in before.items():
            reached = ends <= set(g[0].rels)
            assert (g in dp.memo) != reached, (u, g)
            if u.kind == "scan_cost":
                dropped = g[0].rels == (u.target,)
            else:
                dropped = reached
            kept = dp._local[universe.group_id(g)]
            if dropped:
                assert kept is None, (u, g)
            else:
                assert kept is local, (u, g)
            joins += not g[0].is_leaf and reached and not dropped
        # a scan-cost update reaches join groups whose local costs it keeps
        assert joins if u.kind == "scan_cost" else not joins



@pytest.mark.parametrize("make", [q5s, q8joins], ids=["q5s", "q8joins"])
def test_flat_minimum_breaks_ties_by_alternative_key(make):
    """``BestCost`` takes the first position holding its group's minimum
    cost; with index scans as cheap as sequential ones, hash and merge joins
    tie, and every group's winner still equals the smallest
    ``(cost, index, phy_op)`` a reference recursion finds."""
    cat, q = make()
    ctx = CostContext(cat, q, CostConfig(index_scan_surcharge=1.0))
    universe = SearchUniverse(cat, q)
    dp = BestCost(universe, ctx)
    ref_memo, ties = {}, 0

    def ref(g):
        nonlocal ties
        got = ref_memo.get(g)
        if got is None:
            cands = sorted((alternative_cost(ctx, g, a, ref), a.key)
                           for a in universe.alternatives(g))
            ties += len(cands) > 1 and cands[0][0] == cands[1][0]
            got = ref_memo[g] = cands[0]
        return got

    for g in universe.groups():
        i = universe.group_id(g)
        cost, pos = dp.best_id(i)
        assert (cost, universe.group_alts[i][pos].key) == ref(g), g
    assert ties


_KERNEL_WORKLOADS = {
    "q3s": q3s,
    "q5s": q5s,
    "q8joins": q8joins,
    "clique-6": lambda: make_workload("clique", 6, 3),
    "star-7": lambda: make_workload("star", 7, 5),
}


def _assert_tables_equal_local_cost(dp: BestCost, cat, q, step) -> int:
    """Every group's local-cost table equals ``CostContext.local_cost`` on a
    fresh context, in ``float.hex``; returns how many INLJ rows it saw."""
    ctx = CostContext(cat, q)
    inlj = 0
    for g in dp.universe.groups():
        e, p = g
        alts = dp.universe.alternatives(g)
        got = dp.local_table(dp.universe.group_id(g))
        want = [ctx.local_cost(e, p, a) for a in alts]
        assert [x.hex() for x in got] == [x.hex() for x in want], (step, g)
        inlj += sum(a.phy_op == "index_nl_join" for a in alts)
    return inlj


@pytest.mark.parametrize("name", sorted(_KERNEL_WORKLOADS))
def test_local_tables_equal_local_cost_bit_for_bit(name):
    """The kernel's tables, filled from group ids and the bitmask-keyed
    memo, hold exactly what ``CostContext.local_cost`` computes: cold, and
    after each of 20 seeded updates that rebase and invalidate.  A join
    entry is filled by the group form, ``group_local_cost``, and
    ``local_cost`` calls the scalar form through ``nonscan_cost``; every
    workload holds index nested-loop joins, whose probe factors the group
    form reads from the DP's per-id table."""
    cat, q = _KERNEL_WORKLOADS[name]()
    universe = SearchUniverse(cat, q)
    dp = BestCost(universe, CostContext(cat, q))
    dp.best(universe.root)
    inlj = _assert_tables_equal_local_cost(dp, cat, q, "cold")
    for step, u in enumerate(make_update_batch(cat, 20, 13)):
        cat = apply_update(cat, u)
        dp.invalidate([u], dp.ctx.rebased(cat, [u]))
        dp.best(universe.root)
        _assert_tables_equal_local_cost(dp, cat, q, step)
    assert inlj


def _string_path_summary(cat, q, e: ExprSig, memo: dict) -> float:
    """A reference copy of the summary recursion over relation names: the
    first relation by name against the rest, their product times the
    selectivities ``Catalog.crossing_predicates`` lists, in its order."""
    got = memo.get(e.rels)
    if got is None:
        if e.is_leaf:
            got = scan_summary(e, cat, q).cardinality
        else:
            head, rest = ExprSig.of(e.rels[:1]), ExprSig.of(e.rels[1:])
            got = (_string_path_summary(cat, q, head, memo)
                   * _string_path_summary(cat, q, rest, memo))
            for pred in cat.crossing_predicates(head.rels, rest.rels):
                got = got * pred.selectivity
        memo[e.rels] = got
    return got


_SUMMARY_WORKLOADS = {
    "q5s": q5s,
    "q8joins": q8joins,
    "chain-16": lambda: make_workload("chain", 16, 7),
    "star-10": lambda: make_workload("star", 10, 7),
    "clique-8": lambda: make_workload("clique", 8, 7),
}


@pytest.mark.parametrize("name", sorted(_SUMMARY_WORKLOADS))
def test_bitmask_summaries_equal_the_string_path_bit_for_bit(name):
    """Every connected subset's summary, composed from relation bitmasks,
    equals the name-based recursion in ``float.hex``: on the catalog, and
    after one update of each kind, both rebased from the old context and
    computed afresh.  In q5s, q8joins and chain-16 relation names do not
    sort in declaration order (``R10`` sorts before ``R2``), so there a
    mask's head is not always its lowest bit."""
    cat, q = _SUMMARY_WORKLOADS[name]()
    subsets = sorted(connected_subexprs(q.sig, cat), key=lambda e: (len(e), e.rels))
    names = [r.name for r in cat.relations]
    assert (names != sorted(names)) == (name in ("q5s", "q8joins", "chain-16"))
    ctx = CostContext(cat, q)
    checks = [(cat, ctx)]
    for u in (StatUpdate("scan_cost", cat.relations[1].name, 8.0),
              StatUpdate("join_selectivity", cat.predicates[-1].name, 0.125)):
        # warm the old context first, so the rebased one keeps summaries
        for e in subsets:
            ctx.summary(e)
        new_cat = apply_update(cat, u)
        checks += [(new_cat, ctx.rebased(new_cat, [u])), (new_cat, CostContext(new_cat, q))]
    for c, context in checks:
        memo = {}
        for e in subsets:
            want = _string_path_summary(c, q, e, memo)
            assert context.summary(e).cardinality.hex() == want.hex(), (name, e)


@pytest.mark.parametrize("name", sorted(_SUMMARY_WORKLOADS))
def test_group_sum_cost_equals_sum_cost_bit_for_bit(name):
    """The group form costs every alternative of every group exactly as
    ``sum_cost`` does one at a time, in ``float.hex``, once the root is
    resolved."""
    cat, q = _SUMMARY_WORKLOADS[name]()
    universe = SearchUniverse(cat, q)
    dp = BestCost(universe, CostContext(cat, q))
    dp.best(universe.root)
    joins = 0
    for g in universe.groups():
        i = universe.group_id(g)
        local, kids = dp.local_table(i), universe.group_kids[i]
        if kids:
            want = [sum_cost(dp.cost_id(kids[2 * pos]), dp.cost_id(kids[2 * pos + 1]), lc)
                    for pos, lc in enumerate(local)]
            joins += len(want)
        else:
            want = [sum_cost(None, None, lc) for lc in local]
        got = group_sum_cost(local, kids, dp.costs)
        assert [x.hex() for x in got] == [x.hex() for x in want], g
    assert joins


_RESOLVE_WORKLOADS = {
    "clique-6": lambda: make_workload("clique", 6, 3),
    "star-7": lambda: make_workload("star", 7, 5),
    "chain-9": lambda: make_workload("chain", 9, 2),
    "q8joins": q8joins,
}


def _batches(stream, seed):
    """``stream`` cut into single updates and batches of 2 to 5, at random."""
    rng = random.Random(seed)
    k = 0
    while k < len(stream):
        size = rng.choice([1, 1, 2, 3, 4, 5])
        yield stream[k:k + size]
        k += size


def _assert_memo_is_children_first(dp: BestCost) -> None:
    """``memo`` lists every resolved group once, each after its children."""
    u = dp.universe
    listed = [u.group_id(g) for g in dp.memo]
    assert sorted(listed) == [i for i, c in enumerate(dp.costs) if c is not None]
    rank = {i: k for k, i in enumerate(listed)}
    for i in listed:
        assert all(rank[c] < rank[i] for c in u.group_kids[i]), u.group_keys[i]


@pytest.mark.parametrize("name", sorted(_RESOLVE_WORKLOADS))
def test_dp_re_resolves_exactly(name):
    """Along a stream of single updates and batches of 2 to 5, of both
    kinds, a DP that invalidates and re-settles holds, after every step,
    exactly what a fresh DP over the folded catalog holds: every id's best
    cost and position, cardinality, probe factor and local table.  Between
    an invalidation and the next read, a probe factor is held exactly where
    its cardinality is, and ``memo`` lists each resolved group once, after
    its children."""
    cat, q = _RESOLVE_WORKLOADS[name]()
    universe = SearchUniverse(cat, q)
    dp = BestCost(universe, CostContext(cat, q))
    root = universe.group_id(universe.root)
    dp.best_id(root)
    kinds, steps = set(), 0
    for batch in _batches(make_update_batch(cat, 120, 17), 5):
        for u in batch:
            cat = apply_update(cat, u)
        dp.invalidate(batch, dp.ctx.rebased(cat, batch))
        assert [c is None for c in dp._card] == [p is None for p in dp._probe]
        _assert_memo_is_children_first(dp)
        dp.best_id(root)
        fresh = BestCost(universe, CostContext(cat, q))
        fresh.best_id(root)
        for table in ("_cost", "_pos", "_card", "_probe", "_local"):
            assert getattr(dp, table) == getattr(fresh, table), (name, steps, table)
        _assert_memo_is_children_first(dp)
        kinds.update(u.kind for u in batch)
        steps += 1
    assert kinds == {"scan_cost", "join_selectivity"}


def _assert_every_unresolved_group_is_pending(dp: BestCost) -> None:
    """Every id whose cost is None is pending, and the pending list puts
    each id after its children: a child is resolved or listed earlier."""
    pending, cost, kids = dp._pending, dp.costs, dp.universe.group_kids
    assert {i for i, c in enumerate(cost) if c is None} <= set(pending)
    rank = {i: k for k, i in enumerate(pending)}
    for i in pending:
        assert all(cost[c] is not None or rank[c] < rank[i] for c in kids[i]), i


def test_every_unresolved_group_is_pending():
    """A fresh DP, default or handed System-R's size order, holds every id
    pending, and so does a DP after each of 500 mixed updates on clique-6;
    after a read, ``memo`` lists all groups once, each after its
    children."""
    cat, q = make_workload("clique", 6, 3)
    universe = SearchUniverse(cat, q)
    keys, n = universe.group_keys, len(universe.group_keys)
    root = universe.group_id(universe.root)
    size_order = sorted(range(n), key=lambda i: (len(keys[i][0]), keys[i][0].rels,
                                                 str(keys[i][1])))
    for order in (size_order, None):  # the updates run on the default DP
        dp = BestCost(universe, CostContext(cat, q), order)
        _assert_every_unresolved_group_is_pending(dp)
        dp.best_id(root)
        assert len(dp.memo) == n
        _assert_memo_is_children_first(dp)
    kinds = set()
    for u in make_update_batch(cat, 500, 19):
        cat = apply_update(cat, u)
        dp.invalidate([u], dp.ctx.rebased(cat, [u]))
        _assert_every_unresolved_group_is_pending(dp)
        dp.best_id(root)
        assert len(dp.memo) == n
        _assert_memo_is_children_first(dp)
        kinds.add(u.kind)
    assert kinds == {"scan_cost", "join_selectivity"}

from __future__ import annotations

import gc
import json
import weakref
from itertools import product

import pytest

from incropt.algebra import ExprSig, PropertySpec, Query
from incropt.baselines import brute_force_optimize
from incropt.catalog import Catalog, JoinPredicate, RelationMeta, StatUpdate, validate_catalog
from incropt.costmodel import CostConfig
from incropt.errors import InfeasibleQuery, StateMismatch, ValidationError
from incropt.fixtures import q3s, q5s, q8joins
from incropt.incremental import ReoptSession
from incropt.optimizer import DRAIN_TIERS, STRATEGY_SUBSETS, DeclarativeOptimizer, Strategies
from incropt.workload import make_update_batch, make_workload

from conftest import DIFFERS, LIVE_STATE_CORRUPTIONS, as_version1, cyclic_garbage

ALL = Strategies.all()
NONE = Strategies.none()
AGGSEL = Strategies(True, False, False)
AGGSEL_RC = Strategies(True, True, False)
AGGSEL_BB = Strategies(True, False, True)
SUBSETS = tuple(STRATEGY_SUBSETS.values())


def _group(opt, g):
    """Group ``g``'s engine state and alternatives; a row's position in its
    alternatives is its member key in ``state.mins``."""
    i = opt.universe.group_id(g)
    return opt.groups[i], opt.universe.group_alts[i]


def _groups(opt):
    """(group key, state, alternatives) for every engine group."""
    u = opt.universe
    return [(u.group_keys[i], gs, u.group_alts[i]) for i, gs in opt.groups.items()]


def test_strategies_validation_and_parse():
    with pytest.raises(ValidationError):
        Strategies(aggsel=False, refcount=False, bounding=True)
    with pytest.raises(ValidationError):
        Strategies.parse("bounding")
    st = Strategies.parse("aggsel,bounding")
    assert st.aggsel and st.bounding and not st.refcount
    assert Strategies.parse("") == NONE
    for label, st in STRATEGY_SUBSETS.items():
        assert Strategies.parse("" if label == "none" else label) == st


def test_enumerate_root_has_multiple_alternatives(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=NONE).run()
    root = opt.root
    visible_root_rows = [rk for rk in opt.visible_rows() if rk[0] == root]
    assert len(visible_root_rows) >= 2


def test_single_relation_query():
    cat = Catalog(relations=(RelationMeta("R", 10.0, ("x",)),), predicates=())
    validate_catalog(cat)
    opt = DeclarativeOptimizer(cat, Query(("R",))).run()
    plan = opt.best_plan()
    assert plan.phy_op == "seq_scan" and plan.children == ()
    assert plan.cost == 10.0


def test_disconnected_graph_is_infeasible():
    cat = Catalog(
        relations=(RelationMeta("A", 10.0, ("x",)), RelationMeta("B", 5.0, ("x",))),
        predicates=(),
    )
    for build in (DeclarativeOptimizer.run, DeclarativeOptimizer.install):
        with pytest.raises(InfeasibleQuery):
            build(DeclarativeOptimizer(cat, Query(("A", "B"))))


def test_no_strategy_state_matches_brute_force(q3s_fixture):
    # a single root expression insert derives the same visible
    # searchspace / plancost / bestplan as the exhaustive oracle
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=NONE).run()
    universe = opt.universe
    expected_rows = {(g, a.key) for g in universe.groups()
                     for a in universe.alternatives(g)}
    assert set(opt.visible_rows()) == expected_rows

    best = {}

    def resolve(g):
        if g not in best:
            from incropt.costmodel import alternative_cost
            best[g] = min((alternative_cost(opt.ctx, g, a, resolve), a.key)
                             for a in universe.alternatives(g))
        return best[g]

    for g in universe.groups():
        gs, alts = _group(opt, g)
        cost, pos = gs.mins.min_of()
        assert (cost, alts[pos].key) == resolve(g)
        for pos, a in enumerate(alts):
            from incropt.costmodel import alternative_cost
            assert gs.mins.cost_of(pos) == alternative_cost(opt.ctx, g, a, resolve)


def test_leaf_rows_costed_via_scan_cost(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=NONE).run()
    g = (ExprSig.of(["customer"]), PropertySpec.none())
    gs, (alt,) = _group(opt, g)
    assert alt.phy_op == "seq_scan"
    assert gs.mins.cost_of(0) == cat.relation("customer").cardinality


def test_join_rows_cost_children_best_plus_local(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=NONE).run()
    for g, gs, alts in _groups(opt):
        for pos, alt in enumerate(alts):
            if alt.is_scan:
                continue
            bl = _group(opt, (alt.l_expr, alt.l_prop))[0].mins.min_of()
            br = _group(opt, (alt.r_expr, alt.r_prop))[0].mins.min_of()
            local = opt.ctx.local_cost(g[0], g[1], alt)
            assert gs.mins.cost_of(pos) == (bl[0] + br[0]) + local


def test_aggsel_keeps_only_group_minimum(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=AGGSEL).run()
    for g, gs, alts in _groups(opt):
        visible = [pos for pos in range(len(alts)) if gs.mins.is_visible(pos)]
        assert len(visible) == 1
        best = gs.mins.min_of()
        assert (gs.mins.cost_of(visible[0]), visible[0]) == best


def test_aggsel_tie_break_is_deterministic_first_key():
    # symmetric chain: the two root hash partitions have identical costs,
    # the keeper must be the smallest (index, phy_op) key
    cat = Catalog(
        relations=(
            RelationMeta("A", 100.0, ("x",)),
            RelationMeta("B", 50.0, ("x", "y")),
            RelationMeta("C", 100.0, ("y",)),
        ),
        predicates=(
            JoinPredicate("A.x", "B.x", 0.01),
            JoinPredicate("B.y", "C.y", 0.01),
        ),
    )
    validate_catalog(cat)
    q = Query(("A", "B", "C"))
    opt = DeclarativeOptimizer(cat, q, strategies=AGGSEL).run()
    root = opt.root
    gs, alts = _group(opt, root)
    costs = sorted(gs.mins.cost_of(pos) for pos in range(len(alts)))
    assert costs[0] == costs[1], "fixture should produce a root-cost tie"
    cost, pos = opt._best_id(opt.root_id)
    tied = [a.key for p, a in enumerate(alts) if gs.mins.cost_of(p) == cost]
    assert alts[pos].key == min(tied)
    ref, _ = brute_force_optimize(q, cat)
    assert opt.best_plan() == ref


def test_refcount_matches_recount_and_table_shape(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=NONE).run()
    assert opt.audit_refcounts() == []
    # with the full space visible, (orders, none) is referenced by parent
    # rows in both the (customer, orders) and (lineitem, orders) groups
    g = (ExprSig.of(["orders"]), PropertySpec.none())
    keys = opt.universe.group_keys
    i = opt.universe.group_id(g)
    parents = {keys[p][0] for p, pos in opt.parent_index[i]
               if opt.groups[p].mins.is_visible(pos)}
    assert ExprSig.of(["customer", "orders"]) in parents
    assert ExprSig.of(["lineitem", "orders"]) in parents
    assert opt.groups[i].refcount >= 2


def test_dead_group_after_parents_pruned(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=ALL).run()
    tree_groups = {g for g, _ in opt.optimal_tree_rows()}
    for g, gs, alts in _groups(opt):
        if g in tree_groups:
            assert gs.alive
        else:
            assert not gs.alive
            assert all(gs.mins.cost_of(pos) is None for pos in range(len(alts)))
            assert all(not gs.mins.is_visible(pos) for pos in range(len(alts)))


def test_bound_equations_at_quiescence(q5s_fixture):
    cat, q = q5s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=ALL).run()
    assert opt.audit_fixpoint() == []
    root_gs, _ = _group(opt, opt.root)
    keys = opt.universe.group_keys
    # the root has no parents: maxbound absent, bound equals best cost
    assert root_gs.maxbound is None
    assert root_gs.bound == root_gs.mins.min_of()[0]
    # every other alive group's bound is min(best, maxbound), and each
    # contribution equals parent bound minus sibling best minus local cost
    saw_contribution = False
    for g, gs, _alts in _groups(opt):
        if not gs.alive or g == opt.root:
            continue
        for (p, pos), val in gs.contribs.items():
            saw_contribution = True
            pk, pgs = keys[p], opt.groups[p]
            alt = opt.universe.group_alts[p][pos]
            sib, = (c for c in alt.children() if c != g)
            local = opt.ctx.local_cost(pk[0], pk[1], alt)
            textbook = pgs.bound - _group(opt, sib)[0].mins.min_of()[0] - local
            assert val == pytest.approx(textbook, rel=1e-9)
        if gs.contribs:
            assert gs.maxbound == max(gs.contribs.values())
        parts = [x for x in (gs.mins.min_of()[0] if gs.mins.min_of() else None,
                             gs.maxbound) if x is not None]
        assert gs.bound == min(parts)
    assert saw_contribution


def test_maxbound_is_max_over_multiple_parents(q5s_fixture):
    cat, q = q5s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=AGGSEL_BB).run()
    multi = [gs for g, gs in opt.groups.items() if len(gs.contribs) >= 2]
    assert multi, "expected a group bounded by several parents"
    for gs in multi:
        assert gs.maxbound == max(gs.contribs.values())


def test_bound_prunes_cost_above_bound(q5s_fixture):
    cat, q = q5s_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=AGGSEL_BB).run()
    for g, gs, alts in _groups(opt):
        if not gs.alive or gs.bound is None:
            continue
        for pos in range(len(alts)):
            cost = gs.mins.cost_of(pos)
            if cost is not None and cost > gs.bound:
                assert not gs.mins.is_visible(pos)


def test_final_state_check_by_strategy(q3s_fixture):
    cat, q = q3s_fixture
    report = DeclarativeOptimizer(cat, q, strategies=ALL).run().final_state_check()
    assert report["ok"], report
    # aggregate selection alone leaves alive-but-unused groups behind
    report = DeclarativeOptimizer(cat, q, strategies=AGGSEL).run().final_state_check()
    assert report["extra_groups"]
    # no strategies: the full space stays visible
    opt = DeclarativeOptimizer(cat, q, strategies=NONE).run()
    report = opt.final_state_check()
    _, total_and = opt.universe.totals()
    assert len(report["extra_rows"]) == total_and - len(opt.optimal_tree_rows())


def test_every_subset_matches_oracle(q5s_fixture):
    cat, q = q5s_fixture
    ref, _ = brute_force_optimize(q, cat)
    for st in SUBSETS:
        opt = DeclarativeOptimizer(cat, q, strategies=st).run()
        assert opt.best_plan() == ref, st.to_list()


def test_extraction_is_deterministic(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q).run()
    assert opt.best_plan() == opt.best_plan()
    assert opt.best_plan().cost == opt.best_cost()


def test_plan_tree_costs_sum(q3s_fixture):
    cat, q = q3s_fixture
    plan = DeclarativeOptimizer(cat, q).run().best_plan()

    def check(node):
        if node.children:
            local = node.cost - sum(c.cost for c in node.children)
            assert local > 0
            for c in node.children:
                check(c)

    check(plan)


def test_order_independence_seeded_shuffles(q3s_fixture):
    cat, q = q3s_fixture
    ref = DeclarativeOptimizer(cat, q).run().state_digest()
    for seed in range(8):
        got = DeclarativeOptimizer(cat, q, drain_order="random",
                                   drain_seed=seed).run().state_digest()
        assert got == ref


def test_snapshot_roundtrip(q5s_fixture):
    cat, q = q5s_fixture
    opt = DeclarativeOptimizer(cat, q).run()
    snap = json.loads(json.dumps(opt.to_snapshot()))
    back = DeclarativeOptimizer.from_snapshot(snap)
    assert back.state_digest() == opt.state_digest()
    assert back.best_plan() == opt.best_plan()


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
@pytest.mark.parametrize("name", ["q5s", "q8joins"])
def test_snapshot_lists_exactly_the_rows_with_state(name, label, request):
    """A saved row is one with a cost or a visible flag; every other row is
    left out, before and after re-optimization, and the sparse state loads
    back to the same state."""
    cat, q = request.getfixturevalue(f"{name}_fixture")
    opt = DeclarativeOptimizer(cat, q, strategies=STRATEGY_SUBSETS[label]).run()
    session = ReoptSession(opt)
    for u in [None, *make_update_batch(cat, 3, seed=5)]:
        if u is not None:
            session.add_updates([u])
            session.reoptimize()
        records = opt.state_digest()
        for g, gs, alts in _groups(opt):
            want = [alt.key for pos, alt in enumerate(alts)
                    if gs.mins.cost_of(pos) is not None or gs.mins.is_visible(pos)]
            gobj = next(o for o in records
                        if (o["expr"], o["prop"]) == (list(g[0].rels), str(g[1])))
            assert [(r["index"], r["phy_op"]) for r in gobj["rows"]] == want
            assert len(want) == (len(alts) if gs.alive else 0)
        snap = as_version1(opt.to_snapshot())
        assert snap["groups"] == records
        back = DeclarativeOptimizer.from_snapshot(json.loads(json.dumps(snap)))
        assert back.state_digest() == records


def test_tampered_snapshot_best_is_a_state_mismatch(q3s_fixture, q8joins_fixture, state_tamper):
    """Version-1 files, on q3s, and on q8joins, whose bounds, index
    nested-loop joins and sorted leaf give every field a value to corrupt."""
    for cat, q in (q3s_fixture, q8joins_fixture):
        opt = DeclarativeOptimizer(cat, q).run()
        snap = as_version1(opt.to_snapshot())
        back = DeclarativeOptimizer.from_snapshot(json.loads(json.dumps(snap)))
        assert back.best_plan() == opt.best_plan()
        tamper, message = state_tamper
        tamper(snap)
        with pytest.raises(StateMismatch, match=message):
            DeclarativeOptimizer.from_snapshot(snap)


def _edited_digest(snap: dict) -> dict:
    """``snap`` with the last hex digit of its ``state_sha256`` changed."""
    digest = snap["state_sha256"]
    return dict(snap, state_sha256=digest[:-1] + ("1" if digest[-1] == "0" else "0"))


def test_version2_state_with_an_edited_or_missing_digest_does_not_load(q3s_fixture,
                                                                      q8joins_fixture):
    for cat, q in (q3s_fixture, q8joins_fixture):
        snap = json.loads(json.dumps(DeclarativeOptimizer(cat, q).run().to_snapshot()))
        assert snap["version"] == 2 and "groups" not in snap
        with pytest.raises(StateMismatch, match=f"state_sha256 .*{DIFFERS}"):
            DeclarativeOptimizer.from_snapshot(_edited_digest(snap))
        del snap["state_sha256"]
        with pytest.raises(StateMismatch, match="has no 'state_sha256'"):
            DeclarativeOptimizer.from_snapshot(snap)


@pytest.mark.parametrize("corruption", sorted(LIVE_STATE_CORRUPTIONS))
def test_a_corrupted_live_state_saved_as_version2_does_not_load(q3s_fixture, q8joins_fixture,
                                                               corruption):
    """A live state that is not the one its header implies saves its own
    ``state_sha256``, so the installed state's digest differs on load."""
    for cat, q in (q3s_fixture, q8joins_fixture):
        opt = DeclarativeOptimizer(cat, q).run()
        LIVE_STATE_CORRUPTIONS[corruption](opt)
        snap = json.loads(json.dumps(opt.to_snapshot()))
        with pytest.raises(StateMismatch, match=f"state_sha256 .*{DIFFERS}"):
            DeclarativeOptimizer.from_snapshot(snap)


def test_state_with_an_infeasible_query_is_a_state_mismatch(q3s_fixture):
    """A saved query the catalog cannot join is a corrupted state (exit 1
    in the CLI), not an infeasible query."""
    cat, q = q3s_fixture
    snap = json.loads(json.dumps(DeclarativeOptimizer(cat, q).run().to_snapshot()))
    snap["query"]["relations"] = ["customer", "lineitem"]
    with pytest.raises(StateMismatch, match="corrupted state snapshot"):
        DeclarativeOptimizer.from_snapshot(snap)


_INSTALL_WORKLOADS = {
    "q3s": q3s,
    "q5s": q5s,
    "q8joins": q8joins,
    "chain-8": lambda: make_workload("chain", 8, 7),
    "star-6": lambda: make_workload("star", 6, 1),
    "clique-5": lambda: make_workload("clique", 5, 7),
    # the cold-chain16 and drift-clique8 benchmark shapes
    "chain-16": lambda: make_workload("chain", 16, 7),
    "clique-8": lambda: make_workload("clique", 8, 7),
}


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
@pytest.mark.parametrize("name", sorted(_INSTALL_WORKLOADS))
def test_install_equals_the_drained_build(name, label):
    """``install()`` writes the state a drain reaches, FIFO or shuffled, in
    the same group order, and clean under all three audits; a warm update
    stream then does the same work per rule from either start."""
    cat, q = _INSTALL_WORKLOADS[name]()
    strategies = STRATEGY_SUBSETS[label]
    installed = DeclarativeOptimizer(cat, q, strategies=strategies).install()
    assert installed.audit_refcounts() == installed.audit_fixpoint() == []
    assert installed.audit_costs() == []
    drained = [DeclarativeOptimizer(cat, q, strategies=strategies,
                                    drain_order="fifo" if seed is None else "random",
                                    drain_seed=seed).run()
               for seed in (None, 3, 4)]
    for opt in drained:
        assert opt.state_digest() == installed.state_digest()
    fifo = drained[0]
    assert list(installed.groups) == list(fifo.groups)
    sessions = [ReoptSession(fifo), ReoptSession(installed)]
    for u in make_update_batch(cat, 8, seed=7):
        work = []
        for session in sessions:
            session.add_updates([u])
            session.reoptimize()
            work.append((session.opt.deltas_by_rule(), session.opt.state_digest()))
        assert work[0] == work[1], u


def _tier_checked(opt) -> tuple[list, list[int]]:
    """Count ``opt``'s pending deltas per tier, the pushes and then each
    rule's output, through a wrapped ``push`` and wrapped rules.  Returns
    the list of pops made while a lower tier had a delta pending, and the
    pending count per tier."""
    tier = DRAIN_TIERS
    pending = [0] * (max(tier.values()) + 1)
    out_of_order = []
    engine = opt.engine
    push = engine.push

    def counted_push(deltas):
        if isinstance(deltas, tuple) and deltas and isinstance(deltas[0], str):
            deltas = [deltas]
        deltas = list(deltas)
        for d in deltas:
            pending[tier[d[0]]] += 1
        push(deltas)

    def counted(rel, rule):
        t = tier[rel]

        def run(d):
            pending[t] -= 1
            if any(pending[:t]):
                out_of_order.append((rel, list(pending)))
            out = list(rule(d) or ())
            for o in out:
                pending[tier[o[0]]] += 1
            return out
        return run

    engine.handlers = {rel: counted(rel, h) for rel, h in engine.handlers.items()}
    engine.push = counted_push
    return out_of_order, pending


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_every_drain_settles_lower_tiers_first(label, q8joins_fixture):
    """The cold build and a re-optimization both drain in ``DRAIN_TIERS``
    order: no delta is popped while a delta of a lower tier is pending."""
    cat, q = q8joins_fixture
    opt = DeclarativeOptimizer(cat, q, strategies=STRATEGY_SUBSETS[label])
    out_of_order, pending = _tier_checked(opt)
    opt.run()
    assert opt.engine.processed > 0
    assert out_of_order == [] and not any(pending), "cold build"
    session = ReoptSession(opt)
    session.add_updates(make_update_batch(cat, 6, seed=5))
    built = opt.engine.processed
    session.reoptimize()
    assert opt.engine.processed > built
    assert out_of_order == [] and not any(pending), "re-optimization"


def test_merge_join_wins_under_cheap_ordered_access():
    # with the ordered-access surcharge below 1, sorted index access is
    # cheaper than a plain scan and a merge join beats the hash join
    cat = Catalog(
        relations=(
            RelationMeta("A", 1000.0, ("x",), indexed_on=("x",)),
            RelationMeta("B", 1000.0, ("x",), indexed_on=("x",)),
        ),
        predicates=(JoinPredicate("A.x", "B.x", 0.001),),
    )
    validate_catalog(cat)
    q = Query(("A", "B"))
    cfg = CostConfig(index_scan_surcharge=0.8)
    plan = DeclarativeOptimizer(cat, q, config=cfg).run().best_plan()
    assert plan.phy_op == "merge_join"
    assert {c.phy_op for c in plan.children} == {"index_scan"}
    ref, _ = brute_force_optimize(q, cat, config=cfg)
    assert plan == ref
    opt = DeclarativeOptimizer(cat, q, config=cfg).run()
    assert opt.final_state_check()["ok"]


def test_query_over_catalog_subset(q5s_fixture):
    cat, _ = q5s_fixture
    q = Query(("customer", "orders"))
    opt = DeclarativeOptimizer(cat, q).run()
    ref, _ = brute_force_optimize(q, cat)
    assert opt.best_plan() == ref
    assert set(opt.root[0].rels) == {"customer", "orders"}


def test_trace_emits_stable_lines(q3s_fixture):
    """A cold build shows only the rows it keeps, so the hide (``-``) line
    comes from a re-optimization whose update changes q3s's plan."""
    cat, q = q3s_fixture
    lines = []
    opt = DeclarativeOptimizer(cat, q, trace=lines.append).run()
    cost, pos = opt._best_id(opt.root_id)
    rk = (opt.root, opt.universe.group_alts[opt.root_id][pos].key)
    assert f"searchspace + {rk!r} 0 1" in lines
    session = ReoptSession(opt)
    session.add_updates([StatUpdate("scan_cost", "orders", 8.0)])
    assert session.reoptimize()[1].plan_changed
    assert lines
    for line in lines:
        relation, op, rest = line.split(" ", 2)
        assert relation == "searchspace" and op in "+-"
        # a row flips between invisible (0) and visible (1), never further
        assert rest.endswith(" 0 1" if op == "+" else " 1 0")
    assert any(line.startswith("searchspace - ") for line in lines)


_FIFO_BUILDS = [("q3s", q3s), ("q5s", q5s), ("q8joins", q8joins)] + [
    (f"{shape}-{n}-seed{seed}", lambda shape=shape, n=n, seed=seed: make_workload(shape, n, seed))
    for shape, n in (("chain", 6), ("chain", 16), ("star", 6), ("star", 10),
                     ("clique", 5), ("clique", 8))
    for seed in (1, 2, 3, 7)
]


@pytest.mark.parametrize("label", ["aggsel,refcount", "aggsel,refcount,bounding"])
@pytest.mark.parametrize("name,make", _FIFO_BUILDS, ids=[n for n, _ in _FIFO_BUILDS])
def test_fifo_cold_build_shows_only_the_rows_it_keeps(name, make, label):
    """A FIFO cold build revives the root among dead groups and costs each
    revived group's rows before showing any, so under aggregate selection
    and reference counting it shows exactly the optimal tree's rows, once
    each, and hides none."""
    cat, q = make()
    lines = []
    opt = DeclarativeOptimizer(cat, q, strategies=STRATEGY_SUBSETS[label],
                               trace=lines.append).run()
    assert all(line.startswith("searchspace + ") for line in lines)
    assert len(lines) == len(opt.optimal_tree_rows())


def test_not_quiescent_guard(q3s_fixture):
    from incropt.deltaflow import Delta, INSERT
    from incropt.errors import NotQuiescent
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q).run()
    opt.engine.push(Delta("refilter", INSERT, opt.root_id))
    with pytest.raises(NotQuiescent):
        opt.best_plan()
    opt.engine.run()
    assert opt.best_plan()


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_narrowed_refilter_flips_what_a_full_rescan_flips(label):
    """``_h_refilter`` checks only a visible row or the minimum row of a dead
    group or of a fully costed group under aggregate selection.  Over cold
    builds and 20 re-optimizations each of clique-5 and star-6 (seeds 1, 2),
    under a FIFO and a shuffled drain, every refilter delta flips exactly the
    rows that a check of every row would, in the same order: the rows to
    show first, then the rows to hide, each in position order.  Its emitted
    deltas follow from those flips."""
    strategies = STRATEGY_SUBSETS[label]
    checked = narrowed = 0
    for (shape, n), seed, order in product((("clique", 5), ("star", 6)), (1, 2),
                                           ("fifo", "random")):
        cat, q = make_workload(shape, n, seed)
        opt = DeclarativeOptimizer(cat, q, strategies=strategies,
                                   drain_order=order, drain_seed=seed)
        flips = []
        opt._apply_row_visibility = (
            lambda row, op, apply=opt._apply_row_visibility, flips=flips:
            flips.append((row, op)) or apply(row, op))
        handler = opt.engine.handlers["refilter"]

        def refilter(d, handler=handler, opt=opt, flips=flips):
            nonlocal checked, narrowed
            i = d[2]
            gs = opt.groups.get(i)
            n_alts = len(opt.universe.group_alts[i])
            shown, hidden = [], []
            if gs is not None:
                for pos in range(n_alts):
                    target = gs.alive and not opt._pruned(gs, pos)
                    if target != gs.mins.is_visible(pos):
                        (shown if target else hidden).append(((i, pos), "+" if target else "-"))
                narrowed += not gs.alive or (strategies.aggsel and len(gs.mins) == n_alts)
            del flips[:]
            out = handler(d)
            assert flips == shown + hidden, (shape, n, seed, i)
            checked += 1
            return out

        opt.engine.handlers["refilter"] = refilter
        session = ReoptSession(opt.run())
        for u in make_update_batch(cat, 20, seed):
            session.add_updates([u])
            session.reoptimize()
    assert checked
    assert narrowed if strategies.aggsel else not narrowed


def _reoptimized(cat, q):
    session = ReoptSession(DeclarativeOptimizer(cat, q).run())
    session.add_updates([StatUpdate("scan_cost", "lineitem", 8.0)])
    session.reoptimize()
    return session.opt


def _checked(cat, q):
    opt = DeclarativeOptimizer(cat, q).run()
    assert opt.final_state_check()["ok"]
    return opt


@pytest.mark.parametrize("make", [
    lambda cat, q: DeclarativeOptimizer(cat, q).run(),
    lambda cat, q: DeclarativeOptimizer(cat, q).install(),
    lambda cat, q: DeclarativeOptimizer.from_snapshot(
        DeclarativeOptimizer(cat, q).run().to_snapshot()),
    _reoptimized,
    _checked,
], ids=["run", "install", "from_snapshot", "reoptimize", "final_state_check"])
def test_a_dropped_optimizer_is_freed_without_the_cycle_collector(q8joins_fixture, make):
    """Nothing an optimizer holds refers back to it, so dropping the last
    reference frees it and its universe at once, with the cyclic garbage
    collector off."""
    cat, q = q8joins_fixture
    gc.collect()
    gc.disable()
    try:
        opt = make(cat, q)
        refs = weakref.ref(opt), weakref.ref(opt.universe), weakref.ref(opt.engine)
        del opt
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("call", [
    "best_plan", "to_snapshot", "state_digest", "audit_refcounts",
    "audit_fixpoint", "audit_costs", "optimal_tree_rows", "final_state_check"])
def test_read_side_calls_leave_no_cyclic_garbage(q8joins_fixture, call):
    """A read of a live optimizer makes no reference cycle: what it built
    is freed by reference count, not held until a full collection."""
    cat, q = q8joins_fixture
    opt = DeclarativeOptimizer(cat, q).run()
    assert cyclic_garbage(getattr(opt, call)) == 0


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_cost_writes_queue_refilter_only_where_a_row_can_flip(label, q5s_fixture):
    """A write that moves the group's minimum emits ``bestcost`` and no
    ``refilter``: the ``bestcost`` queues it.  Under aggregate selection a
    write that leaves the minimum in place queues one ``refilter`` when a
    written row was visible at the write, and none while one is pending.
    Without it no write queues one, since every row of an alive group is
    shown.  Under bounding only the visible rows get a ``pbound``: a hidden
    row contributes no bound."""
    cat, q = q5s_fixture
    strategies = STRATEGY_SUBSETS[label]

    def root():
        opt = DeclarativeOptimizer(cat, q, strategies=strategies).run()
        i = opt.root_id
        gs, n = opt.groups[i], len(opt.universe.group_alts[i])
        # the root shows only its minimum under aggregate selection, else all
        assert sorted(gs.mins.visible()) == ([gs.mins.min_of()[1]] if strategies.aggsel
                                             else list(range(n))) and n > 1
        return opt, i, gs, n

    def emitted(out, rel):
        return [d[2] for d in out if d[0] == rel]

    # every row raised: the minimum moves
    opt, i, gs, n = root()
    visible = sorted(gs.mins.visible())
    out = opt._set_row_costs(i, gs, {pos: gs.mins.cost_of(pos) * 2 for pos in range(n)})
    assert emitted(out, "bestcost") == [i] and emitted(out, "refilter") == []
    assert emitted(out, "pbound") == ([(i, pos) for pos in visible]
                                      if strategies.bounding else [])

    # every row but the minimum raised, the minimum rewritten with its cost
    opt, i, gs, n = root()
    cost, low = gs.mins.min_of()
    changes = {pos: gs.mins.cost_of(pos) * 2 for pos in range(n)}
    changes[low] = cost
    out = opt._set_row_costs(i, gs, changes)
    assert gs.mins.min_of() == (cost, low) and emitted(out, "bestcost") == []
    assert emitted(out, "refilter") == ([i] if strategies.aggsel else [])
    assert emitted(out, "pbound") == ([(i, low)] if strategies.bounding else [])
    # the group's refilter is still queued, so the same write queues none
    assert emitted(opt._set_row_costs(i, gs, changes), "refilter") == []

    # hidden rows only, the minimum in place: no row can flip
    opt, i, gs, n = root()
    low = gs.mins.min_of()[1]
    out = opt._set_row_costs(i, gs, {pos: gs.mins.cost_of(pos) * 2
                                     for pos in range(n) if pos != low})
    assert out == []


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_a_group_has_at_most_one_refilter_pending(label):
    """Over the drains ``test_narrowed_refilter_flips_what_a_full_rescan_flips``
    checks (cold builds and 20 re-optimizations each of clique-5 and star-6,
    seeds 1 and 2, FIFO and shuffled), every processed ``refilter`` is one
    the optimizer marked pending, and no mark is left at quiescence."""
    strategies = STRATEGY_SUBSETS[label]
    processed = 0
    for (shape, n), seed, order in product((("clique", 5), ("star", 6)), (1, 2),
                                           ("fifo", "random")):
        cat, q = make_workload(shape, n, seed)
        opt = DeclarativeOptimizer(cat, q, strategies=strategies,
                                   drain_order=order, drain_seed=seed)
        handler = opt.engine.handlers["refilter"]

        def refilter(d, handler=handler, pending=opt._refiltering):
            nonlocal processed
            assert d[2] in pending, (shape, n, seed, order, d)
            processed += 1
            return handler(d)

        opt.engine.handlers["refilter"] = refilter
        session = ReoptSession(opt.run())
        assert not opt._refiltering
        for u in make_update_batch(cat, 20, seed):
            session.add_updates([u])
            session.reoptimize()
            assert not opt._refiltering, (shape, n, seed, order, u)
    assert processed

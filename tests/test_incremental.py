from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from incropt.algebra import ExprSig
from incropt.baselines import brute_force_optimize
from incropt import incremental
from incropt.catalog import StatUpdate, apply_update
from incropt.costmodel import BestCost, CostContext, alternative_cost
from incropt.deltaflow import INSERT
from incropt.fixtures import q3s, q5s, q8joins
from incropt.errors import UnknownTarget, ValidationError
from incropt.incremental import ReoptSession, stat_to_deltas
from incropt.optimizer import STRATEGY_SUBSETS, DeclarativeOptimizer, Strategies
from incropt.workload import UPDATE_FACTORS, make_update_batch, make_workload


def fresh_session(cat, q, **kw):
    opt = DeclarativeOptimizer(cat, q, **kw).run()
    return opt, ReoptSession(opt)


def test_identity_factor_produces_no_deltas(q3s_fixture):
    cat, q = q3s_fixture
    opt, _ = fresh_session(cat, q)
    assert stat_to_deltas(StatUpdate("scan_cost", "lineitem", 1.0), opt) == []


def test_scan_update_targets_exactly_leaf_rows(q3s_fixture):
    # with pruning off, everything stays alive and propagation covers the
    # rest, so the seeded deltas are exactly the leaf rows over the relation
    cat, q = q3s_fixture
    opt, _ = fresh_session(cat, q, strategies=Strategies.none())
    u = StatUpdate("scan_cost", "lineitem", 8.0)
    opt.rebind_catalog(apply_update(cat, u), [u])
    deltas = stat_to_deltas(StatUpdate("scan_cost", "lineitem", 8.0), opt)
    # one seed per reached group: (group id, positions)
    rows = {(d[2][0], pos) for d in deltas for pos in d[2][1]}
    universe = opt.universe
    expect = {(i, pos) for i in opt.groups
              if universe.group_keys[i][0] == ExprSig.of(["lineitem"])
              for pos in range(len(universe.group_alts[i]))}
    assert rows == expect and rows


def test_unknown_target_rejected(q3s_fixture):
    cat, q = q3s_fixture
    opt, _ = fresh_session(cat, q)
    with pytest.raises(UnknownTarget):
        stat_to_deltas(StatUpdate("scan_cost", "nope", 2.0), opt)
    with pytest.raises(UnknownTarget):
        stat_to_deltas(StatUpdate("join_selectivity", "a.x=b.y", 2.0), opt)


def test_noop_batch_converges_immediately(q3s_fixture):
    cat, q = q3s_fixture
    _, session = fresh_session(cat, q)
    session.add_updates([StatUpdate("scan_cost", "lineitem", 1.0)])
    plan, m = session.reoptimize()
    assert m.touched_and == 0 and m.touched_or == 0
    assert not m.plan_changed
    assert m.update_ratio_and == 0.0 and m.update_ratio_or == 0.0
    assert session.converged()


def test_reoptimize_equals_from_scratch_randomized():
    checked = 0
    for shape in ("chain", "star", "clique"):
        for n in (3, 4, 5):
            for seed in range(3):
                cat, q = make_workload(shape, n, seed)
                opt, session = fresh_session(cat, q)
                batch = make_update_batch(cat, 1 + seed, seed * 7 + n)
                session.add_updates(batch)
                plan, _ = session.reoptimize()
                updated = cat
                for u in batch:
                    updated = apply_update(updated, u)
                fresh, _ = brute_force_optimize(q, updated)
                assert plan == fresh, (shape, n, seed)
                assert opt.audit_refcounts() == []
                assert opt.audit_fixpoint() == []
                checked += 1
    assert checked == 27


def test_plan_change_is_detected(q5s_fixture):
    cat, q = q5s_fixture
    _, session = fresh_session(cat, q)
    before = session.plan
    u = StatUpdate("join_selectivity", "nation.n_regionkey=region.r_regionkey", 8.0)
    session.add_updates([u])
    plan, m = session.reoptimize()
    fresh, _ = brute_force_optimize(q, apply_update(cat, u))
    assert plan == fresh
    assert m.plan_changed == (plan.structure() != before.structure())
    assert m.plan_changed
    assert not session.converged()


def test_overflowed_cost_is_rejected_and_plan_kept(q5s_fixture):
    """A finite factor whose products overflow: the session raises instead
    of returning an inf plan, ``plan`` stays the last finite one, and the
    batch is rolled back, under every strategy subset: the state is the
    pre-batch one, and the next finite update reaches the oracle's plan."""
    cat, q = q5s_fixture
    u = StatUpdate("scan_cost", "lineitem", 8.0)
    oracle = brute_force_optimize(q, apply_update(cat, u))[0]
    for label, strategies in STRATEGY_SUBSETS.items():
        opt, session = fresh_session(cat, q, strategies=strategies)
        before, digest = session.plan, opt.state_digest()
        session.add_updates([StatUpdate("scan_cost", "lineitem", 1e308)])
        with pytest.raises(ValidationError, match="finite"):
            session.reoptimize()
        assert session.plan is before
        assert session.last_metrics is None
        assert not session.pending
        assert opt.catalog is cat and opt.state_digest() == digest, label
        assert opt.audit_refcounts() == opt.audit_fixpoint() == opt.audit_costs() == []
        session.add_updates([u])
        assert session.reoptimize()[0] == oracle, label


@pytest.mark.parametrize("bad", [
    StatUpdate("scan_cost", "nosuch", 1.0),
    StatUpdate("join_selectivity", "nosuch.a=lineitem.b", 1.0),
    StatUpdate("join_selectivity", "orders.nope=lineitem.l_orderkey", 1.0),
    StatUpdate("join_selectivity", "orders.nope=lineitem.l_orderkey", 2.0),
], ids=["scan_cost", "join_selectivity", "unknown_column_identity", "unknown_column"])
def test_a_batch_naming_an_unknown_target_changes_nothing(q5s_fixture, bad):
    """An unknown target, even in an identity update, fails its batch before
    anything is folded or rebound: the catalog and the state stay the
    pre-batch ones, and the saved state still loads.  A join-selectivity
    target must name a predicate's exact columns: two joined relations
    with an unknown column is no target."""
    cat, q = q5s_fixture
    opt, session = fresh_session(cat, q)
    before, sha = session.plan, opt.state_sha256()
    session.add_updates([StatUpdate("scan_cost", "lineitem", 8.0), bad])
    with pytest.raises(UnknownTarget):
        session.reoptimize()
    assert opt.catalog is cat and opt.state_sha256() == sha
    assert session.plan is before and not session.pending
    assert opt.audit_costs() == []
    back = DeclarativeOptimizer.from_snapshot(json.loads(json.dumps(opt.to_snapshot())))
    assert back.state_sha256() == sha


def test_a_raising_drain_stops_tracking(q5s_fixture):
    """The engine observes deltas only while a re-optimization tracks them:
    a cold build runs without an observer, and a drain that raises still
    turns tracking off."""
    cat, q = q5s_fixture
    opt, session = fresh_session(cat, q)
    assert opt.engine.observer is None and not opt._tracking

    def boom(d):
        raise RuntimeError("rule failed")

    opt.engine.handlers["recost"] = boom
    session.add_updates([StatUpdate("scan_cost", "lineitem", 8.0)])
    with pytest.raises(RuntimeError, match="rule failed"):
        session.reoptimize()
    assert opt.engine.observer is None and not opt._tracking
    assert opt.engine.pending


def test_second_identical_reoptimize_touches_nothing(q5s_fixture):
    cat, q = q5s_fixture
    _, session = fresh_session(cat, q)
    session.add_updates(make_update_batch(cat, 3, 11))
    session.reoptimize()
    _, m2 = session.reoptimize()
    assert (m2.touched_and, m2.touched_or) == (0, 0)
    assert session.converged()


def test_inverse_updates_restore_state(q3s_fixture, q5s_fixture):
    for cat, q in (q3s_fixture, q5s_fixture):
        opt, session = fresh_session(cat, q)
        before = opt.state_digest()
        batch = [StatUpdate("scan_cost", "lineitem", 8.0),
                 StatUpdate("join_selectivity",
                            "orders.o_orderkey=lineitem.l_orderkey", 0.25)]
        session.add_updates(batch)
        session.reoptimize()
        session.add_updates([u.inverse() for u in reversed(batch)])
        session.reoptimize()
        assert opt.state_digest() == before
        _, m3 = session.reoptimize()
        assert session.converged() and m3.touched_and == 0


def test_per_rule_delta_counts_sum_to_the_drain(q5s_fixture):
    cat, q = q5s_fixture
    opt, session = fresh_session(cat, q)
    for u in make_update_batch(cat, 6, 3):
        before = opt.engine.processed
        session.add_updates([u])
        _, m = session.reoptimize()
        assert set(m.deltas_by_rule) == set(opt.engine.handlers)
        assert sum(m.deltas_by_rule.values()) == opt.engine.processed - before > 0
        assert m.to_dict()["deltas_by_rule"] == m.deltas_by_rule


def test_touched_counters_and_ratios(q5s_fixture):
    cat, q = q5s_fixture
    opt, session = fresh_session(cat, q)
    session.add_updates([StatUpdate("scan_cost", "lineitem", 8.0)])
    _, m = session.reoptimize()
    assert 0 < m.touched_and < m.total_and
    assert 0 < m.touched_or <= m.total_or
    assert m.update_ratio_and == m.touched_and / m.total_and
    assert m.wall_time_ms >= 0.0


def test_locality_topmost_join_cheaper_than_leaf(q5s_fixture):
    # changes near the plan root reach fewer alternatives than a scan-cost
    # change on the largest relation, which sits deep in the plan
    cat, q = q5s_fixture
    base, _ = brute_force_optimize(q, cat)
    top_preds = cat.crossing_predicates(base.children[0].expr.rels,
                                        base.children[1].expr.rels)
    largest = max(cat.relations, key=lambda r: r.cardinality)
    assert largest.name == "lineitem"
    for factor in (0.125, 8.0):
        _, s_top = fresh_session(cat, q)
        s_top.add_updates([StatUpdate("join_selectivity", top_preds[0].name, factor)])
        _, m_top = s_top.reoptimize()
        _, s_leaf = fresh_session(cat, q)
        s_leaf.add_updates([StatUpdate("scan_cost", largest.name, factor)])
        _, m_leaf = s_leaf.reoptimize()
        assert m_top.touched_and < m_leaf.touched_and, factor


def test_batch_equals_sequential_at_quiescence(q3s_fixture):
    cat, q = q3s_fixture
    batch = [StatUpdate("scan_cost", "lineitem", 8.0),
             StatUpdate("scan_cost", "orders", 0.5)]
    opt_a, s_a = fresh_session(cat, q)
    s_a.add_updates(batch)
    s_a.reoptimize()
    opt_b, s_b = fresh_session(cat, q)
    for u in batch:
        s_b.add_updates([u])
        s_b.reoptimize()
    assert opt_a.state_digest() == opt_b.state_digest()


@pytest.mark.parametrize("factor", UPDATE_FACTORS)
def test_all_grid_factors(q3s_fixture, factor):
    cat, q = q3s_fixture
    _, session = fresh_session(cat, q)
    session.add_updates([StatUpdate("scan_cost", "orders", factor)])
    plan, _ = session.reoptimize()
    fresh, _ = brute_force_optimize(
        q, apply_update(cat, StatUpdate("scan_cost", "orders", factor)))
    assert plan == fresh


def test_pruned_row_readmitted_when_it_becomes_viable(q5s_fixture):
    # a row suppressed by aggregate selection is re-inserted once an update
    # makes it the group minimum
    cat, q = q5s_fixture
    opt, session = fresh_session(cat, q)
    before = set(opt.visible_rows())
    u = StatUpdate("join_selectivity", "nation.n_regionkey=region.r_regionkey", 8.0)
    session.add_updates([u])
    plan, m = session.reoptimize()
    assert m.plan_changed
    after = set(opt.visible_rows())
    readmitted = after - before
    assert readmitted, "expected previously pruned rows to come back"
    assert opt.final_state_check()["ok"]


def _update_stream(cat, seed):
    """36 single updates; every third is followed at once by its inverse,
    and the first six are undone in reverse order at the end."""
    stream = []
    for i, u in enumerate(make_update_batch(cat, 24, seed)):
        stream.append(u)
        if i % 3 == 2:
            stream.append(u.inverse())
    return stream + [u.inverse() for u in reversed(stream[:6])]


_DIGEST_WORKLOADS = {
    "q3s": q3s,
    "chain-5": lambda: make_workload("chain", 5, 1),
    "star-5": lambda: make_workload("star", 5, 2),
    "clique-4": lambda: make_workload("clique", 4, 3),
}


@pytest.mark.parametrize("name", sorted(_DIGEST_WORKLOADS))
def test_incremental_state_digest_equals_from_scratch(name):
    """The whole maintained state, not just the plan, equals a from-scratch
    run on the folded catalog, under FIFO and shuffled drains alike."""
    cat, q = _DIGEST_WORKLOADS[name]()
    for drain_seed in (None, 0, 1, 2):
        order = "fifo" if drain_seed is None else "random"
        opt, session = fresh_session(cat, q, drain_order=order, drain_seed=drain_seed)
        stream = _update_stream(cat, 31 + (drain_seed or 0))
        assert len(stream) >= 30
        for k, u in enumerate(stream, 1):
            session.add_updates([u])
            session.reoptimize()
            if k % 12 == 0 or k == len(stream):
                fresh = DeclarativeOptimizer(opt.catalog, q).run()
                assert opt.state_digest() == fresh.state_digest(), (name, drain_seed, k)


@pytest.mark.parametrize("name", sorted(_DIGEST_WORKLOADS))
def test_state_sha256_is_equal_exactly_when_the_records_are(name):
    """On the corpus above, under every strategy subset, FIFO and shuffled:
    two states' ``state_sha256`` are equal exactly when their
    ``state_digest`` records are, incremental against from-scratch and
    across checkpoints."""
    cat, q = _DIGEST_WORKLOADS[name]()
    seen = []  # (records, digest) of every state checked
    for strategies in STRATEGY_SUBSETS.values():
        for drain_seed in (None, 0, 1, 2):
            order = "fifo" if drain_seed is None else "random"
            opt, session = fresh_session(cat, q, strategies=strategies,
                                         drain_order=order, drain_seed=drain_seed)
            stream = _update_stream(cat, 31 + (drain_seed or 0))
            for k, u in enumerate(stream, 1):
                session.add_updates([u])
                session.reoptimize()
                if k % 12 == 0 or k == len(stream):
                    fresh = DeclarativeOptimizer(opt.catalog, q, strategies=strategies).run()
                    for state in (opt, fresh):
                        seen.append((state.state_digest(), state.state_sha256()))
                    assert seen[-1][1] == seen[-2][1], (name, drain_seed, k)
    for (records_a, digest_a), (records_b, digest_b) in combinations(seen, 2):
        assert (digest_a == digest_b) == (records_a == records_b)
    assert len({digest for _, digest in seen}) > len(STRATEGY_SUBSETS)


# one edit per field ``state_sha256`` covers, of a group with every field
# set; ``pos`` is a costed row that is not the group's best
_COVERED_FIELD_EDITS = {
    "refcount": lambda gs, pos: setattr(gs, "refcount", gs.refcount + 1),
    "synthetic": lambda gs, pos: setattr(gs, "synthetic", gs.synthetic + 1),
    "alive": lambda gs, pos: setattr(gs, "alive", not gs.alive),
    # the cached minimum alone, its row's cost left as it is
    "best": lambda gs, pos: setattr(gs.mins, "_min", (gs.mins.min_of()[0] / 2,
                                                      gs.mins.min_of()[1])),
    "bound": lambda gs, pos: setattr(gs, "bound", gs.bound / 2),
    "maxbound": lambda gs, pos: setattr(gs, "maxbound", gs.maxbound * 2),
    "row cost": lambda gs, pos: gs.mins.update({pos: gs.mins.cost_of(pos) * 3}),
    "row visible": lambda gs, pos: gs.mins.set_visible(pos, not gs.mins.is_visible(pos)),
}


@pytest.mark.parametrize("field", sorted(_COVERED_FIELD_EDITS))
def test_state_sha256_moves_with_each_covered_field(field, q8joins_fixture):
    cat, q = q8joins_fixture
    base = DeclarativeOptimizer(cat, q).install()
    opt = DeclarativeOptimizer(cat, q).install()
    gs = next(gs for gs in opt.groups.values()
              if gs.alive and gs.maxbound is not None and len(gs.mins) > 1)
    pos = next(p for p in gs.mins.members() if p != gs.mins.min_of()[1])
    _COVERED_FIELD_EDITS[field](gs, pos)
    assert opt.state_digest() != base.state_digest()
    assert opt.state_sha256() != base.state_sha256()


def test_state_sha256_does_not_depend_on_the_hash_seed(tmp_path):
    """Saved in one process, loaded in others: the digest leaks no set or
    dict order, so each hash seed computes the same one."""
    script = ("import json, sys\n"
              "from incropt.fixtures import q8joins\n"
              "from incropt.incremental import ReoptSession\n"
              "from incropt.optimizer import DeclarativeOptimizer\n"
              "from incropt.workload import make_update_batch\n"
              "cat, q = q8joins()\n"
              "opt = DeclarativeOptimizer(cat, q).run()\n"
              "session = ReoptSession(opt)\n"
              "session.add_updates(make_update_batch(cat, 6, 5))\n"
              "session.reoptimize()\n"
              "print(opt.state_sha256())\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
                              ).stdout.strip()
               for seed in ("0", "1", "4242")}
    assert len(digests) == 1 and len(digests.pop()) == 64


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_reoptimized_state_survives_snapshot_roundtrip(label):
    """A state saved after a re-optimization loads back equal and clean."""
    cat, q = q5s()
    opt, session = fresh_session(cat, q, strategies=STRATEGY_SUBSETS[label])
    session.add_updates(make_update_batch(cat, 4, 5))
    session.reoptimize()
    back = DeclarativeOptimizer.from_snapshot(json.loads(json.dumps(opt.to_snapshot())))
    assert back.state_digest() == opt.state_digest()
    assert back.audit_refcounts() == [] and back.audit_fixpoint() == []


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
@pytest.mark.parametrize("name", ["q5s", "q8joins"])
def test_resumed_session_does_the_live_sessions_work(name, label, request):
    """Before each of 30 updates the live state is saved and loaded back: a
    session resumed from it drains the same deltas per rule and reaches the
    same state as the live session it was saved from."""
    cat, q = request.getfixturevalue(f"{name}_fixture")
    opt, live = fresh_session(cat, q, strategies=STRATEGY_SUBSETS[label])
    for k, u in enumerate(make_update_batch(cat, 30, seed=7)):
        back = DeclarativeOptimizer.from_snapshot(json.loads(json.dumps(opt.to_snapshot())))
        resumed = ReoptSession(back)
        for session in (live, resumed):
            session.add_updates([u])
            session.reoptimize()
        assert back.deltas_by_rule() == opt.deltas_by_rule(), (k, u)
        assert back.state_digest() == opt.state_digest(), (k, u)


_COST_WORKLOADS = {
    "q5s": q5s,
    "q8joins": q8joins,
    "star-6": lambda: make_workload("star", 6, 2),
    "clique-5": lambda: make_workload("clique", 5, 4),
}


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
@pytest.mark.parametrize("name", sorted(_COST_WORKLOADS))
def test_retained_costs_equal_a_fresh_dp(name, label):
    """Under every pruning subset, each costed row of an alive group holds
    exactly its plan cost over a from-scratch best-cost DP on the current
    catalog, cold and after each of two re-optimizations.  Uncosted rows
    (cost None) are left out of the comparison."""
    cat, q = _COST_WORKLOADS[name]()
    opt, session = fresh_session(cat, q, strategies=STRATEGY_SUBSETS[label])
    for step in range(3):
        if step:
            session.add_updates(make_update_batch(opt.catalog, 3, 20 + step))
            session.reoptimize()
        dp = BestCost(opt.universe, CostContext(opt.catalog, q, opt.ctx.config))
        checked = 0
        for i, gs in opt.groups.items():
            if not gs.alive:
                continue
            g = opt.universe.group_keys[i]
            for pos, alt in enumerate(opt.universe.group_alts[i]):
                cost = gs.mins.cost_of(pos)
                if cost is not None:
                    assert cost == alternative_cost(dp.ctx, g, alt, dp.best), (g, alt, step)
                    checked += 1
        assert checked


def _reference_seeds(u: StatUpdate, opt: DeclarativeOptimizer) -> list[tuple]:
    """The seed rule as a walk over every alive group in id order, as
    ``(group id, positions)``: a join-selectivity update seeds every row of
    a group whose mask holds both ends; a scan-cost update every row of a
    leaf over the relation and, in a join group, the rows whose child
    holding the relation is dead."""
    u_ = opt.universe
    masks, alts, kids, groups = u_.group_masks, u_.group_alts, u_.group_kids, opt.groups
    t = 0
    for r in u.target_relations():
        t |= opt.catalog.relation_bits[r]
    seeds = []
    for i in sorted(groups):
        m, k = masks[i], kids[i]
        if not groups[i].alive:
            continue
        if u.kind == "join_selectivity":
            rows = range(len(alts[i])) if m & t == t else ()
        elif not k:
            rows = range(len(alts[i])) if m == t else ()
        elif m & t:
            rows = [pos for pos in range(len(k) // 2)
                    if not groups[k[2 * pos] if masks[k[2 * pos]] & t else k[2 * pos + 1]].alive]
        else:
            rows = ()
        if rows:
            seeds.append((i, tuple(rows)))
    return seeds


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
@pytest.mark.parametrize("name", sorted(_COST_WORKLOADS))
def test_seeds_equal_a_walk_over_every_group(name, label, monkeypatch):
    """At each update of a 40-update mixed stream, under every strategy
    subset, the seeds ``stat_to_deltas`` reads from the DP's reach lists
    equal, in order, the walk over every alive group."""
    cat, q = _COST_WORKLOADS[name]()
    opt, session = fresh_session(cat, q, strategies=STRATEGY_SUBSETS[label])
    seeded: dict[str, int] = {}

    def checked(u, o):
        got = stat_to_deltas(u, o)
        assert all(d[:2] == ("recost", INSERT) for d in got)
        assert [(i, tuple(rows)) for i, rows in (d[2] for d in got)] == \
            _reference_seeds(u, o), (u, sum(seeded.values()))
        seeded[u.kind] = seeded.get(u.kind, 0) + len(got)
        return got

    monkeypatch.setattr(incremental, "stat_to_deltas", checked)
    for u in make_update_batch(cat, 40, 31):
        session.add_updates([u])
        session.reoptimize()
    assert seeded.keys() == {"scan_cost", "join_selectivity"} and all(seeded.values())


_SETTLE_WORKLOADS = (("clique", 6), ("star", 7), ("chain", 8))


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_unchanged_plan_kills_and_revives_no_group(label):
    """The re-optimization drain settles costs before it prunes, so an update
    that leaves the plan unchanged retires and revives no group on the way."""
    unchanged = 0
    for shape, n in _SETTLE_WORKLOADS:
        for seed in (1, 2, 3):
            cat, q = make_workload(shape, n, seed)
            opt, session = fresh_session(cat, q, strategies=STRATEGY_SUBSETS[label])
            flips = []
            for name in ("_kill_group", "_revive_group"):
                def counted(g, _orig=getattr(opt, name), _name=name):
                    flips.append((_name, g))
                    return _orig(g)
                setattr(opt, name, counted)
            for u in make_update_batch(cat, 40, seed):
                del flips[:]
                session.add_updates([u])
                _, m = session.reoptimize()
                if not m.plan_changed:
                    assert flips == [], (shape, n, seed, u)
                    unchanged += 1
    assert unchanged


def test_universe_totals_are_kept_and_stay_exact():
    """``ReoptSession`` reads ``totals()`` on every op; the universe counts
    them once, and after 30 updates they still equal a recount."""
    cat, q = make_workload("clique", 6, 3)
    session = ReoptSession(DeclarativeOptimizer(cat, q).run())
    universe = session.opt.universe
    for u in make_update_batch(cat, 30, 5):
        session.add_updates([u])
        _, m = session.reoptimize()
    gs = universe.groups()
    recount = (len(gs), sum(len(universe.alternatives(g)) for g in gs))
    assert universe.totals() == recount == (m.total_or, m.total_and)


@pytest.mark.parametrize("name", ["q5s", "clique-5"])
def test_warm_state_equals_install_after_every_update(name):
    """Group-at-a-time recosts, bulk minimum writes and the one
    ``refilter`` per pending group leave the same state as the closed form:
    after each of 60 single updates, the warm ``state_sha256`` equals
    ``install()``'s on the folded catalog, under every strategy subset, in
    FIFO order and three shuffled orders."""
    cat, q = {"q5s": q5s, "clique-5": lambda: make_workload("clique", 5, 4)}[name]()
    stream = make_update_batch(cat, 60, 17)
    assert {u.kind for u in stream} == {"scan_cost", "join_selectivity"}
    for label, strategies in STRATEGY_SUBSETS.items():
        for drain_seed in (None, 0, 1, 2):
            order = "fifo" if drain_seed is None else "random"
            opt, session = fresh_session(cat, q, strategies=strategies,
                                         drain_order=order, drain_seed=drain_seed)
            for k, u in enumerate(stream):
                session.add_updates([u])
                session.reoptimize()
                want = DeclarativeOptimizer(opt.catalog, q, strategies=strategies).install()
                assert opt.state_sha256() == want.state_sha256(), (label, drain_seed, k)

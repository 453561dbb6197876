"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are exact unless stated otherwise: every engine
shares one arithmetic path, so equality of costs and plan trees is required
bit-for-bit, not approximately.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
from __future__ import annotations

import time

from incropt.baselines import brute_force_optimize, systemr_optimize, volcano_optimize
from incropt.catalog import StatUpdate, apply_update
from incropt.fixtures import q3s, q5s, q8joins
from incropt.incremental import ReoptSession
from incropt.optimizer import STRATEGY_SUBSETS, DeclarativeOptimizer, Strategies
from incropt.workload import UPDATE_FACTORS, make_update_batch, make_workload

FIXTURES = {
    "q3s": q3s(),
    "q5s": q5s(),
    "q8joins": q8joins(),
    "chain4": make_workload("chain", 4, 17),
    "star5": make_workload("star", 5, 23),
    "clique4": make_workload("clique", 4, 29),
}
BIG_FIXTURES = {k: v for k, v in FIXTURES.items() if len(v[1].relations) >= 4}

# seeds per query size; clique-6 universes are the costly tail
_SWEEP_SEEDS = {3: 26, 4: 22, 5: 12, 6: 8}


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_optimality_equivalence_across_engines_and_strategies():
    """Every engine and strategy subset returns the oracle's cost and tree."""
    start = time.perf_counter()
    catalogs = 0
    for shape in ("chain", "star", "clique"):
        for n, seeds in _SWEEP_SEEDS.items():
            for seed in range(seeds):
                cat, q = make_workload(shape, n, seed)
                catalogs += 1
                ref, _ = brute_force_optimize(q, cat)
                assert systemr_optimize(q, cat)[0] == ref, (shape, n, seed)
                assert volcano_optimize(q, cat)[0] == ref, (shape, n, seed)
                for label, st in STRATEGY_SUBSETS.items():
                    opt = DeclarativeOptimizer(cat, q, strategies=st).run()
                    assert opt.best_plan() == ref, (shape, n, seed, label)
    elapsed = time.perf_counter() - start
    _report("optimality-equivalence", catalogs >= 200 and elapsed < 120.0,
            f"{catalogs} catalogs x {2 + len(STRATEGY_SUBSETS)} engines in {elapsed:.1f}s")


def test_incremental_equals_from_scratch():
    """Re-optimization converges to the from-scratch answer, exactly."""
    start = time.perf_counter()
    trials = 0
    for shape in ("chain", "star", "clique"):
        for n in (3, 4, 5):
            for seed in range(14):
                cat, q = make_workload(shape, n, seed)
                base = DeclarativeOptimizer(cat, q).run()
                snap = base.to_snapshot()
                for k in (1, 2, 5, 10):
                    opt = DeclarativeOptimizer.from_snapshot(snap)
                    session = ReoptSession(opt)
                    batch = make_update_batch(cat, k, seed * 101 + k)
                    assert all(u.factor in UPDATE_FACTORS for u in batch)
                    session.add_updates(batch)
                    plan, _ = session.reoptimize()
                    updated = cat
                    for u in batch:
                        updated = apply_update(updated, u)
                    fresh, _ = brute_force_optimize(q, updated)
                    assert plan.cost == fresh.cost, (shape, n, seed, k)
                    assert plan == fresh, (shape, n, seed, k)
                    trials += 1
    elapsed = time.perf_counter() - start
    _report("incremental-equals-from-scratch", trials >= 500 and elapsed < 180.0,
            f"{trials} trials in {elapsed:.1f}s")


def test_final_state_minimality():
    """All three strategies leave exactly the optimal tree's rows visible."""
    for name, (cat, q) in FIXTURES.items():
        opt = DeclarativeOptimizer(cat, q, strategies=Strategies.all()).run()
        report = opt.final_state_check()
        assert report["ok"], (name, report)
    _report("final-state-minimality", True, f"{len(FIXTURES)} fixtures")


def test_order_independence_of_drain():
    """50 seeded shuffles of the delta drain reach the same visible state."""
    for name, (cat, q) in FIXTURES.items():
        ref = DeclarativeOptimizer(cat, q).run().state_digest()
        for seed in range(50):
            got = DeclarativeOptimizer(cat, q, drain_order="random",
                                       drain_seed=seed).run().state_digest()
            assert got == ref, (name, seed)
    _report("order-independence", True, f"50 shuffles x {len(FIXTURES)} fixtures")


def test_refcount_and_bound_fixed_point_audits():
    """Recounts equal maintained refcounts; bound equations hold by scan."""
    for name, (cat, q) in FIXTURES.items():
        for label, st in STRATEGY_SUBSETS.items():
            opt = DeclarativeOptimizer(cat, q, strategies=st).run()
            assert opt.audit_refcounts() == [], (name, label)
            assert opt.audit_fixpoint() == [], (name, label)
    _report("refcount-bound-audits", True,
            f"{len(FIXTURES)} fixtures x {len(STRATEGY_SUBSETS)} strategy subsets")


def test_locality_trend_on_q5_fixture():
    """A topmost-join selectivity change touches fewer alternatives than a
    scan-cost change on the largest relation, at factors 1/8 and 8."""
    cat, q = FIXTURES["q5s"]
    base, _ = brute_force_optimize(q, cat)
    top_pred = cat.crossing_predicates(base.children[0].expr.rels,
                                       base.children[1].expr.rels)[0]
    largest = max(cat.relations, key=lambda r: r.cardinality)
    detail = []
    for factor in (0.125, 8.0):
        opt_t = DeclarativeOptimizer(cat, q).run()
        st = ReoptSession(opt_t)
        st.add_updates([StatUpdate("join_selectivity", top_pred.name, factor)])
        _, m_top = st.reoptimize()
        opt_l = DeclarativeOptimizer(cat, q).run()
        sl = ReoptSession(opt_l)
        sl.add_updates([StatUpdate("scan_cost", largest.name, factor)])
        _, m_leaf = sl.reoptimize()
        assert m_top.touched_and < m_leaf.touched_and, factor
        detail.append(f"x{factor}: {m_top.touched_and}<{m_leaf.touched_and}")
    _report("locality-trend", True, "; ".join(detail))


def test_strategy_monotonicity():
    """Visible state shrinks as strategies are added; disabled strategies
    still find the oracle cost."""
    order = ("aggsel,refcount,bounding", "aggsel,refcount", "aggsel", "none")
    for name, (cat, q) in BIG_FIXTURES.items():
        ref, _ = brute_force_optimize(q, cat)
        sizes = []
        for label in order:
            opt = DeclarativeOptimizer(cat, q, strategies=STRATEGY_SUBSETS[label]).run()
            assert opt.best_cost() == ref.cost, (name, label)
            sizes.append(opt.visible_counts())
        for smaller, larger in zip(sizes, sizes[1:]):
            assert smaller <= larger, (name, sizes)
    _report("strategy-monotonicity", True, f"{len(BIG_FIXTURES)} fixtures")


def test_convergence_on_repeat():
    """A second identical re-optimization touches zero nodes."""
    for name, (cat, q) in FIXTURES.items():
        opt = DeclarativeOptimizer(cat, q).run()
        session = ReoptSession(opt)
        session.add_updates(make_update_batch(cat, 3, 41))
        session.reoptimize()
        _, m2 = session.reoptimize()
        assert (m2.touched_and, m2.touched_or) == (0, 0), name
        assert session.converged(), name
    _report("convergence", True, f"{len(FIXTURES)} fixtures")


def test_effort_advantage_of_single_update():
    """One statistics update re-derives strictly less than the full space."""
    detail = []
    for name, (cat, q) in BIG_FIXTURES.items():
        largest = max(cat.relations, key=lambda r: r.cardinality)
        opt = DeclarativeOptimizer(cat, q).run()
        session = ReoptSession(opt)
        session.add_updates([StatUpdate("scan_cost", largest.name, 8.0)])
        _, m = session.reoptimize()
        assert 0 < m.touched_and < m.total_and, (name, m.touched_and, m.total_and)
        detail.append(f"{name}: {m.touched_and}/{m.total_and}")
    _report("effort-advantage", True, "; ".join(detail))

from __future__ import annotations

import hashlib

import pytest

from incropt.algebra import Query, SearchUniverse
from incropt.baselines import (
    _group_sort_key, brute_force_optimize, systemr_optimize, volcano_optimize,
)
from incropt.catalog import Catalog, RelationMeta, validate_catalog
from incropt.costmodel import CostContext, alternative_cost
from incropt.errors import InfeasibleQuery, TooLarge
from incropt.fixtures import q3s, q5s, q8joins
from incropt.workload import make_workload

from conftest import cyclic_garbage


def test_two_relation_query_direct_min(co_fixture):
    # independent recursive-descent check of the oracle on a 2-way join
    cat, q = co_fixture
    plan, metrics = brute_force_optimize(q, cat)
    ctx = CostContext(cat, q)
    universe = SearchUniverse(cat, q)

    def descend(group):
        return min((alternative_cost(ctx, group, alt, descend), alt.key)
                      for alt in universe.alternatives(group))

    expect_cost, expect_key = descend(universe.root)
    assert plan.cost == expect_cost
    winning = next(a for a in universe.alternatives(universe.root)
                   if a.key == expect_key)
    assert plan.phy_op == winning.phy_op


def test_oracle_too_large():
    rels = tuple(RelationMeta(f"R{i}", 10.0, ("x",)) for i in range(9))
    cat = Catalog(relations=rels, predicates=())
    validate_catalog(cat)
    with pytest.raises(TooLarge):
        brute_force_optimize(Query(tuple(r.name for r in rels)), cat)


def test_oracle_infeasible_on_disconnected():
    cat = Catalog(
        relations=(RelationMeta("A", 10.0, ("x",)), RelationMeta("B", 5.0, ("x",))),
        predicates=(),
    )
    with pytest.raises(InfeasibleQuery):
        brute_force_optimize(Query(("A", "B")), cat)


@pytest.mark.parametrize("shape,n,seed", [
    ("chain", 4, 1), ("star", 5, 2), ("clique", 4, 3), ("chain", 6, 4),
])
def test_baselines_match_oracle(shape, n, seed):
    cat, q = make_workload(shape, n, seed)
    ref, _ = brute_force_optimize(q, cat)
    sr, _ = systemr_optimize(q, cat)
    vol, _ = volcano_optimize(q, cat)
    assert sr == ref
    assert vol == ref


def test_fixture_equality(q3s_fixture, q5s_fixture, q8joins_fixture):
    for cat, q in (q3s_fixture, q5s_fixture, q8joins_fixture):
        ref, _ = brute_force_optimize(q, cat)
        assert systemr_optimize(q, cat)[0] == ref
        assert volcano_optimize(q, cat)[0] == ref


def test_systemr_visits_each_group_once(q5s_fixture):
    cat, q = q5s_fixture
    _, metrics = systemr_optimize(q, cat)
    assert len(metrics.visit_log) == len(set(metrics.visit_log))
    universe = SearchUniverse(cat, q)
    assert set(metrics.visit_log) == set(universe.groups())
    assert metrics.pruned_or == 0 and metrics.pruned_and == 0
    # bottom-up: every group is resolved in size order, after its children
    assert metrics.visit_log == sorted(universe.groups(), key=_group_sort_key)


def test_volcano_with_limits_prunes_without_changing_cost(
        q3s_fixture, q5s_fixture, q8joins_fixture):
    for cat, q in (q3s_fixture, q5s_fixture, q8joins_fixture):
        ref, sr = systemr_optimize(q, cat)
        got, vol = volcano_optimize(q, cat)
        assert got == ref
        assert vol.visited_and + vol.pruned_and <= sr.visited_and


def test_shared_tie_break_yields_identical_trees():
    # symmetric costs force ties; all engines must resolve them identically
    from incropt.catalog import JoinPredicate
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
    ref, _ = brute_force_optimize(q, cat)
    assert systemr_optimize(q, cat)[0] == ref
    assert volcano_optimize(q, cat)[0] == ref


# (visited_and, visited_or, pruned_and, pruned_or, first 16 hex digits of the
# sha256 of the visit log, one "rels|prop" line per group), as the
# GroupKey-keyed memo DP reported them before the DP moved to dense ids
_PINNED_METRICS = {
    ("q3s", "oracle"): (23, 14, 0, 0, "27e2e5d0c31b03b0"),
    ("q3s", "systemr"): (23, 14, 0, 0, "72d47c0226ceef22"),
    ("q3s", "volcano"): (15, 13, 7, 0, "c0e0dfcb15fae21d"),
    ("q5s", "oracle"): (120, 40, 0, 0, "73bcf97fcfcf85cb"),
    ("q5s", "systemr"): (120, 40, 0, 0, "b14e64c218d27532"),
    ("q5s", "volcano"): (26, 37, 85, 12, "77a9308d1126c4fb"),
    ("q8joins", "oracle"): (161, 54, 0, 0, "ab38e16d142b9a47"),
    ("q8joins", "systemr"): (161, 54, 0, 0, "79803c8014576010"),
    ("q8joins", "volcano"): (56, 49, 100, 8, "a41d47e45ab27f12"),
}
_FIXTURES = {"q3s": q3s, "q5s": q5s, "q8joins": q8joins}
_ENGINES = {"oracle": brute_force_optimize, "systemr": systemr_optimize,
            "volcano": volcano_optimize}


@pytest.mark.parametrize("fixture,engine", sorted(_PINNED_METRICS))
def test_baseline_metrics_are_pinned(fixture, engine):
    cat, q = _FIXTURES[fixture]()
    _, m = _ENGINES[engine](q, cat)
    log = "\n".join(f"{'/'.join(g[0].rels)}|{g[1]}" for g in m.visit_log)
    digest = hashlib.sha256(log.encode()).hexdigest()[:16]
    assert (m.visited_and, m.visited_or, m.pruned_and, m.pruned_or, digest) == \
        _PINNED_METRICS[fixture, engine]


@pytest.mark.parametrize("engine,shape", [
    (brute_force_optimize, "q8joins"),
    (systemr_optimize, "q8joins"), (systemr_optimize, "chain-16"),
    (volcano_optimize, "q8joins"), (volcano_optimize, "chain-16"),
], ids=["oracle-q8joins", "systemr-q8joins", "systemr-chain-16",
        "volcano-q8joins", "volcano-chain-16"])
def test_engines_leave_no_cyclic_garbage(engine, shape):
    """An engine's universe, tables and memo are freed by reference count
    when it returns, so a long-running caller holds no search space until a
    full collection.  Chain-16 is past the oracle's relation budget."""
    cat, q = q8joins() if shape == "q8joins" else make_workload("chain", 16, 1)
    assert cyclic_garbage(lambda: engine(q, cat)) == 0

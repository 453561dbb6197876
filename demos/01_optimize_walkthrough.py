"""Walkthrough: optimizing a 3-way join with every engine.

Builds the small customer/orders/lineitem fixture, peeks at the search
space the optimizer reasons over, runs the declarative engine next to the
Volcano-style, System-R-style, and exhaustive baselines, and prints the
winning operator tree.

Run:  python3 demos/01_optimize_walkthrough.py
"""
from incropt import (
    DeclarativeOptimizer, Strategies, brute_force_optimize, systemr_optimize,
    volcano_optimize,
)
from incropt.algebra import SearchUniverse
from incropt.fixtures import q3s

cat, query = q3s()
print("Relations:")
for r in cat.relations:
    print(f"  {r.name:10s} rows={r.cardinality:>10.0f} indexed_on={list(r.indexed_on)}")
print("Join predicates:")
for p in cat.predicates:
    print(f"  {p.name}  selectivity={p.selectivity:.6f}")

# The search space is an and-or graph: OR nodes are (expression, property)
# groups, AND nodes are physical alternatives. The universe below is what
# every engine enumerates.
universe = SearchUniverse(cat, query)
n_groups, n_alts = universe.totals()
print(f"\nSearch space: {n_groups} groups, {n_alts} alternatives")
root = universe.root
print(f"Root group {root[0]} under property '{root[1]}':")
for alt in universe.alternatives(root):
    print(f"  #{alt.index:<2d} {alt.phy_op:15s} {alt.l_expr} [{alt.l_prop}]"
          f"  x  {alt.r_expr} [{alt.r_prop}]")

# Run all four engines. They share the split function and the cost model,
# so their best costs must agree exactly, and under the common tie-break
# the trees are identical too.
oracle_plan, oracle_metrics = brute_force_optimize(query, cat)
sr_plan, sr_metrics = systemr_optimize(query, cat)
vol_plan, vol_metrics = volcano_optimize(query, cat)
opt = DeclarativeOptimizer(cat, query, strategies=Strategies.all()).run()

print(f"\nbrute force : cost={oracle_plan.cost:.2f} "
      f"(visited {oracle_metrics.visited_or} groups / {oracle_metrics.visited_and} alts)")
print(f"system-r    : cost={sr_plan.cost:.2f} "
      f"(visited {sr_metrics.visited_or} groups / {sr_metrics.visited_and} alts)")
print(f"volcano     : cost={vol_plan.cost:.2f} "
      f"(pruned {vol_metrics.pruned_and} alts via branch-and-bound)")
print(f"declarative : cost={opt.best_cost():.2f} "
      f"({opt.engine.processed} deltas to fixpoint)")
assert oracle_plan == sr_plan == vol_plan == opt.best_plan()

print("\nOptimal plan (cost is the subtree total):")


def show(node, depth=0):
    bar = "  " * depth
    print(f"{bar}{node.phy_op:15s} {node.expr}  cost={node.cost:>12.2f} "
          f"out_rows={node.summary_card:,.0f}")
    for child in node.children:
        show(child, depth + 1)


show(opt.best_plan())

# With all three pruning strategies on, the quiescent visible state is
# exactly the optimal tree: nothing else survives.
report = opt.final_state_check()
print(f"\nVisible rows == optimal tree nodes: {report['ok']}")
assert report["ok"], report

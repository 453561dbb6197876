"""Walkthrough: what each pruning strategy buys.

Three strategies gate what survives in the maintained search space:

* aggregate selection: only the group minimum stays visible, losers are
  suppressed back out of the search space;
* reference counting: groups no surviving plan points at are retired
  wholesale (and revived if an update makes them interesting again);
* recursive bounding: branch-and-bound generalized to any exploration
  order through a recursively maintained bound per group.

This script runs the ablation on the 8-way join fixture and prints the
visible state each subset leaves behind.

Run:  python3 demos/03_pruning_strategies.py
"""
from incropt import DeclarativeOptimizer, Strategies, brute_force_optimize
from incropt.fixtures import q8joins
from incropt.optimizer import STRATEGY_SUBSETS

cat, query = q8joins()
ref, _ = brute_force_optimize(query, cat)
print(f"oracle cost: {ref.cost:.2f}")

print(f"\n{'strategies':26s} {'groups':>8s} {'alts':>8s} {'pruned':>8s}  cost ok")
for label, st in STRATEGY_SUBSETS.items():
    opt = DeclarativeOptimizer(cat, query, strategies=st).run()
    total_or, total_and = opt.universe.totals()
    vis_or, vis_and = opt.visible_counts()
    pruned = 1.0 - vis_and / total_and
    cost_ok = opt.best_cost() == ref.cost
    print(f"{label:26s} {vis_or:>8d} {vis_and:>8d} {pruned:>7.0%}   {cost_ok}")
    assert cost_ok, label

# However much is pruned, the answer never changes; with everything on,
# the surviving rows are exactly the optimal plan's nodes.
opt = DeclarativeOptimizer(cat, query, strategies=Strategies.all()).run()
minimal = opt.final_state_check()["ok"]
print(f"\nfull space: {opt.universe.totals()[1]} alternatives; "
      f"final visible state: {opt.visible_counts()[1]} rows (minimal: {minimal})")
assert minimal

# The maintained relations can be audited directly against their defining
# equations at any quiescent point.
refcount_bad, fixpoint_bad = opt.audit_refcounts(), opt.audit_fixpoint()
print(f"refcount audit violations: {len(refcount_bad)}")
print(f"bound fixpoint violations: {len(fixpoint_bad)}")
assert not refcount_bad and not fixpoint_bad, refcount_bad + fixpoint_bad

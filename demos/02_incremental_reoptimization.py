"""Walkthrough: statistics drift and incremental re-optimization.

The optimizer's state is a set of incrementally-maintained relations, so
when a cost estimate changes we push deltas instead of starting over. This
script injects the classic drift scenario (a relation turns out 8x more
expensive to scan than predicted), re-optimizes, and shows how little of
the search space was re-derived; then it undoes the drift and checks the
state snaps back exactly.

Run:  python3 demos/02_incremental_reoptimization.py
"""
from incropt import DeclarativeOptimizer, ReoptSession, StatUpdate, brute_force_optimize
from incropt.catalog import apply_update
from incropt.fixtures import q5s

cat, query = q5s()
opt = DeclarativeOptimizer(cat, query).run()
session = ReoptSession(opt)
print(f"initial plan cost: {session.plan.cost:.2f}")
before_digest = opt.state_digest()

# Scanning lineitem turns out 8x costlier than the catalog promised.
drift = StatUpdate("scan_cost", "lineitem", 8.0)
session.add_updates([drift])
plan, metrics = session.reoptimize()
print(f"\nafter lineitem scan cost x8:")
print(f"  new cost     : {plan.cost:.2f} (plan changed: {metrics.plan_changed})")
print(f"  touched      : {metrics.touched_and}/{metrics.total_and} alternatives, "
      f"{metrics.touched_or}/{metrics.total_or} groups")
print(f"  update ratio : {metrics.update_ratio_and:.2f} of the full space")

# The incremental answer must equal a from-scratch optimization over the
# updated catalog, cost-exact and tree-identical.
fresh, _ = brute_force_optimize(query, apply_update(cat, drift))
assert plan == fresh
print("  equals from-scratch optimization: True")

# Re-optimizing again with nothing new pending touches nothing at all.
_, again = session.reoptimize()
print(f"\nre-optimize with no new updates: touched {again.touched_and} "
      f"alternatives, converged={session.converged()}")
assert session.converged()

# Undo the drift: the visible state is restored bit-for-bit.
session.add_updates([drift.inverse()])
plan, metrics = session.reoptimize()
print(f"\nafter the inverse update:")
print(f"  cost back to : {plan.cost:.2f}")
restored = opt.state_digest() == before_digest
print(f"  state restored exactly: {restored}")
assert restored

# A change near the top of the plan is cheaper to absorb than one at a
# deep, widely shared leaf: fewer plans depend on it.
base, _ = brute_force_optimize(query, cat)
top_pred = cat.crossing_predicates(base.children[0].expr.rels,
                                   base.children[1].expr.rels)[0]
for update, label in (
        (StatUpdate("join_selectivity", top_pred.name, 8.0), "topmost join selectivity"),
        (StatUpdate("scan_cost", "lineitem", 8.0), "lineitem scan cost")):
    o = DeclarativeOptimizer(cat, query).run()
    s = ReoptSession(o)
    s.add_updates([update])
    _, m = s.reoptimize()
    print(f"  x8 on {label:26s} -> touched {m.touched_and:3d} alternatives")

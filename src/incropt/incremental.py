"""Re-optimization sessions: statistics updates in, new optimal plan out.

An update batch is first folded into the catalog, then converted into
recost deltas aimed at exactly the state the changed numbers can reach:

* a scan-cost change touches the leaf rows over that relation, plus any
  alive row whose affected child subtree is currently pruned away (those
  rows cannot hear about the change through delta propagation, so they are
  refreshed directly);
* a join-selectivity change touches every alternative of every alive group
  whose expression contains both endpoint relations, since their output or
  input summaries change.

Both tests run on the universe's relation bitmasks (``group_masks``), one
per group id.  The seeds are grouped: one ``recost`` per reached group,
whose payload ``(group id, positions)`` lists the reached rows, so the
group's rule costs them in one pass and moves its minimum at most once.
Everything else is reached through ordinary fixpoint propagation, and the
result provably equals a from-scratch optimization over the updated
catalog.

The catalog swap drops cached summaries and fallback best costs by the same
subset rule: an update reaches an expression only when the expression holds
all of its target relations (see ``CostContext.rebased`` and
``BestCost.invalidate``, which also keeps every local cost a scan-cost
update cannot move; ``recost`` reads those retained local costs too).
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .catalog import (JOIN_SELECTIVITY, SCAN_COST, Catalog, StatUpdate, apply_update,
                      find_predicate)
from .costmodel import target_mask
from .deltaflow import DeltaTuple, INSERT
from .errors import UnknownTarget, ValidationError
from .optimizer import DeclarativeOptimizer
from .plan import PlanNode, require_finite


@dataclass
class ReoptMetrics:
    touched_and: int
    touched_or: int
    total_and: int
    total_or: int
    update_ratio_and: float
    update_ratio_or: float
    wall_time_ms: float
    plan_changed: bool
    # deltas the re-optimization drain processed, per rule (relation)
    deltas_by_rule: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_target(u: StatUpdate, cat: Catalog) -> None:
    """Raise ``UnknownTarget`` unless ``u`` names a relation or predicate of ``cat``."""
    if u.kind == SCAN_COST:
        cat.relation(u.target)  # raises UnknownTarget
    elif u.kind == JOIN_SELECTIVITY:
        find_predicate(cat, u.target)  # raises UnknownTarget
    else:
        raise UnknownTarget(f"unknown update kind {u.kind!r}")


def stat_to_deltas(u: StatUpdate, opt: DeclarativeOptimizer) -> list[DeltaTuple]:
    """Convert one statistics update into recost deltas over the live state,
    one ``(group id, positions)`` seed per reached group.

    The optimizer's catalog must already reflect the update.  A factor of
    1.0 is an identity and produces no deltas.
    """
    _check_target(u, opt.catalog)
    if u.factor == 1.0:
        return []
    t = target_mask(u, opt.universe.catalog)
    masks, alts, kids = opt.universe.group_masks, opt.universe.group_alts, opt.universe.group_kids
    groups = opt.groups
    out: list[DeltaTuple] = []
    for i, gs in groups.items():
        if not gs.alive:
            continue
        m = masks[i]
        if u.kind == JOIN_SELECTIVITY:
            if m & t == t:
                out.append(("recost", INSERT, (i, range(len(alts[i])))))
            continue
        # scan-cost update: leaf rows over the relation, plus rows whose
        # affected child is currently pruned and hence unreachable by
        # propagation
        if not m & t:
            continue
        k = kids[i]
        if not k:
            out.append(("recost", INSERT, (i, range(len(alts[i])))))
            continue
        # the children split the relations, so exactly one holds the target
        positions = tuple(pos for pos, (l, r) in enumerate(zip(k[::2], k[1::2]))
                          if not groups[l if masks[l] & t else r].alive)
        if positions:
            out.append(("recost", INSERT, (i, positions)))
    return out


class ReoptSession:
    """Single-owner re-optimization loop over one quiescent optimizer."""

    def __init__(self, opt: DeclarativeOptimizer):
        self.opt = opt
        self.pending: list[StatUpdate] = []
        self.last_metrics: ReoptMetrics | None = None
        self._last_plan: PlanNode = opt.best_plan()

    @property
    def plan(self) -> PlanNode:
        return self._last_plan

    def add_updates(self, updates) -> None:
        self.pending.extend(updates)

    def reoptimize(self) -> tuple[PlanNode, ReoptMetrics]:
        """Apply the pending batch, drain to fixpoint, report touch metrics.

        Raises UnknownTarget before anything changes when any update names
        no relation or predicate.  Raises ValidationError when the new best
        plan's cost is not finite (finite factors whose products overflow).
        The batch is then rolled back: the optimizer is rebound to the
        previous catalog and the quiescent state installed for it, and
        ``plan`` stays the last finite plan."""
        start = time.perf_counter()
        opt = self.opt
        batch, self.pending = self.pending, []
        old_cat = new_cat = opt.catalog
        for u in batch:
            _check_target(u, old_cat)
        effective = [u for u in batch if u.factor != 1.0]
        for u in effective:
            new_cat = apply_update(new_cat, u)
        if effective:
            opt.rebind_catalog(new_cat, effective)
        opt.set_tracking(True)
        try:
            deltas: list[DeltaTuple] = []
            for u in batch:
                deltas.extend(stat_to_deltas(u, opt))
            opt.engine.push(deltas)
            opt.engine.run()
        finally:
            opt.set_tracking(False)
        touched_and = len(opt.touched_and)
        touched_or = len(opt.touched_or)
        plan = opt.best_plan()
        try:
            require_finite(plan)
        except ValidationError:
            opt.rebind_catalog(old_cat, effective)
            opt.install()
            raise
        changed = plan.structure() != self._last_plan.structure()
        self._last_plan = plan
        total_or, total_and = opt.universe.totals()
        metrics = ReoptMetrics(
            touched_and=touched_and,
            touched_or=touched_or,
            total_and=total_and,
            total_or=total_or,
            update_ratio_and=touched_and / total_and if total_and else 0.0,
            update_ratio_or=touched_or / total_or if total_or else 0.0,
            wall_time_ms=(time.perf_counter() - start) * 1000.0,
            plan_changed=changed,
            deltas_by_rule=opt.deltas_by_rule(),
        )
        self.last_metrics = metrics
        return plan, metrics

    def converged(self) -> bool:
        """True iff the last re-optimization touched nothing and kept the plan."""
        m = self.last_metrics
        return (m is not None and m.touched_and == 0 and m.touched_or == 0
                and not m.plan_changed)

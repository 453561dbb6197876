"""Physical plan trees and their JSON form."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import ExprSig, PropertySpec
from .costmodel import CostContext
from .errors import ValidationError


@dataclass(frozen=True)
class PlanNode:
    """One operator of a resolved plan; ``cost`` is the subtree total."""

    expr: ExprSig
    prop: PropertySpec
    log_op: str
    phy_op: str
    cost: float
    summary_card: float
    children: tuple["PlanNode", ...] = ()

    def to_dict(self) -> dict:
        return {
            "op": self.log_op,
            "phy_op": self.phy_op,
            "expr": list(self.expr.rels),
            "prop": str(self.prop),
            "cost": self.cost,
            "summary_card": self.summary_card,
            "children": [c.to_dict() for c in self.children],
        }

    def structure(self) -> tuple:
        """Operator tree shape without cost annotations; two plans with the
        same structure execute identically."""
        return (self.phy_op, self.expr.rels,
                tuple(c.structure() for c in self.children))


def build_plan(universe, ctx: CostContext, best, i: int) -> PlanNode:
    """Resolve the operator tree rooted at group id ``i`` from a best map.

    ``best(i) -> (cost, position)``, a position in ``universe.group_alts[i]``;
    alternatives come from the shared universe so every engine materializes
    identical trees for identical best maps.
    """
    cost, pos = best(i)
    alt = universe.group_alts[i][pos]
    children = tuple(build_plan(universe, ctx, best, c)
                     for c in universe.group_kids[i][2 * pos:2 * pos + 2])
    e, p = universe.group_keys[i]
    return PlanNode(
        expr=e, prop=p, log_op=alt.log_op, phy_op=alt.phy_op, cost=cost,
        summary_card=ctx.summary(universe.group_masks[i]).cardinality,
        children=children,
    )


def require_finite(plan: PlanNode) -> None:
    """Reject a plan whose cost overflowed: the inputs are finite, but their
    products are not."""
    if not math.isfinite(plan.cost):
        raise ValidationError(
            f"best plan cost is {plan.cost!r}, not a finite number: the catalog "
            f"and updates overflow the cost model")

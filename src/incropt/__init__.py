"""incropt: a cost-based join-order optimizer whose entire search and cost
state is incrementally maintainable, with Volcano-style, System-R-style,
and exhaustive baselines sharing one cost model."""

from .algebra import (
    Alternative, ExprSig, PropertySpec, Query, SearchUniverse,
    connected_subexprs, leaf_alternatives, load_query, split,
)
from .baselines import (
    BaselineMetrics, brute_force_optimize, systemr_optimize, volcano_optimize,
)
from .catalog import (
    Catalog, JoinPredicate, RelationMeta, StatUpdate, apply_update,
    load_catalog, load_updates,
)
from .costmodel import (
    CostConfig, CostContext, Summary, nonscan_cost, nonscan_summary,
    scan_cost, scan_summary, sum_cost,
)
from .deltaflow import Delta, FixpointEngine, MinGroupState
from .incremental import ReoptMetrics, ReoptSession, stat_to_deltas
from .optimizer import DeclarativeOptimizer, Strategies
from .plan import PlanNode

__version__ = "0.1.0"

__all__ = [
    "Alternative", "BaselineMetrics", "Catalog", "CostConfig", "CostContext",
    "DeclarativeOptimizer", "Delta", "ExprSig", "FixpointEngine",
    "JoinPredicate", "MinGroupState", "PlanNode", "PropertySpec", "Query",
    "RelationMeta", "ReoptMetrics", "ReoptSession", "SearchUniverse",
    "StatUpdate", "Strategies", "Summary", "apply_update",
    "brute_force_optimize", "connected_subexprs", "leaf_alternatives",
    "load_catalog", "load_query", "load_updates", "nonscan_cost",
    "nonscan_summary", "scan_cost", "scan_summary", "split", "stat_to_deltas",
    "sum_cost", "systemr_optimize", "volcano_optimize",
]

"""Span tracing around incropt's public entry points, from outside the package.

``Tracer.installed()`` swaps each entry point named in ``_TARGETS`` (and every
``FixpointEngine`` rule handler) for a wrapper that records a span at the call
boundary, and restores the originals on exit.  Spans nest: a span's *self*
time is its duration minus the time covered by the spans it encloses, so the
self times of all spans inside an op add up to the op's duration.

Hot callees (``MinGroupState.min_of`` runs about a million times on one
clique-8 optimization) are never stored one by one.  Each span name keeps
only running totals: calls, self time, inclusive time and a per-name extra
count (rule handlers: calls that emitted follow-up deltas; ``stat_to_deltas``:
deltas returned).  Memory stays bounded however long the run.
"""
from __future__ import annotations

import contextlib
import time

from incropt import algebra, baselines, costmodel, deltaflow, incremental, optimizer
from incropt.catalog import Catalog

_now = time.perf_counter_ns

# (owner, attribute, span name).  Module attributes are patched where the
# caller looks them up: ``split`` in algebra (``SearchUniverse``),
# ``apply_update`` and ``stat_to_deltas`` in incremental (``ReoptSession``),
# ``build_plan`` in optimizer and baselines (its own recursion stays inside
# one span), the summary functions in costmodel (``CostContext.summary``).
_TARGETS = (
    (algebra, "split", "algebra.split"),
    (Catalog, "crossing_predicates", "catalog.crossing_predicates"),
    (incremental, "apply_update", "catalog.apply_update"),
    (costmodel.CostContext, "local_cost", "costmodel.local_cost"),
    (costmodel.CostContext, "summary", "costmodel.summary"),
    (costmodel, "scan_summary", "costmodel.summary_miss"),
    (costmodel, "nonscan_summary", "costmodel.summary_miss"),
    (deltaflow.FixpointEngine, "run", "deltaflow.run"),
    (deltaflow.MinGroupState, "min_of", "deltaflow.min_of"),
    (deltaflow.MinGroupState, "update", "deltaflow.min_update"),
    (deltaflow.MinGroupState, "visible_min", "deltaflow.visible_min"),
    (deltaflow.MinGroupState, "set_visible", "deltaflow.set_visible"),
    (deltaflow.MinGroupState, "members", "deltaflow.members"),
    (optimizer.DeclarativeOptimizer, "run", "optimizer.run"),
    (optimizer.DeclarativeOptimizer, "to_snapshot", "optimizer.to_snapshot"),
    (optimizer.DeclarativeOptimizer, "from_snapshot", "optimizer.from_snapshot"),
    (incremental.ReoptSession, "reoptimize", "incremental.reoptimize"),
    (incremental, "stat_to_deltas", "incremental.stat_to_deltas"),
    (optimizer, "build_plan", "plan.build_plan"),
    (baselines, "build_plan", "plan.build_plan"),
    (baselines, "systemr_optimize", "baselines.systemr"),
    (baselines, "volcano_optimize", "baselines.volcano"),
)

_CALLS, _SELF, _INCL, _EXTRA = range(4)


class Tracer:
    """Aggregated span statistics for one traced section of a run."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        # one child-time accumulator (ns) per open span
        self._open: list[int] = []

    def reset(self) -> None:
        self.stats = {}

    def _close(self, name: str, start: int, extra: int = 0) -> None:
        dur = _now() - start
        child = self._open.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[_CALLS] += 1
        st[_SELF] += dur - child
        st[_INCL] += dur
        st[_EXTRA] += extra
        if self._open:
            self._open[-1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append(0)
        start = _now()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, name: str, fn, extra=None):
        """``fn`` wrapped in a span; ``extra(result)`` feeds the extra count."""
        def traced(*args, **kwargs):
            self._open.append(0)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(name, start, extra(result) if extra and result else 0)
        return traced

    def _traced_run(self, run):
        """``FixpointEngine.run`` in a span, each rule handler in its own.

        The handlers are swapped in for the drain only, so engines built
        before tracing started are traced too and none keeps a wrapper."""
        traced = self.wrap("deltaflow.run", run)
        rule = self.wrap

        def run_rules(engine):
            handlers = engine.handlers
            engine.handlers = {rel: rule(f"optimizer.rule.{rel}", h, extra=lambda out: 1)
                               for rel, h in handlers.items()}
            try:
                return traced(engine)
            finally:
                engine.handlers = handlers
        return run_rules

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _TARGETS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, orig.__func__)))
                elif attr == "stat_to_deltas":
                    setattr(owner, attr, self.wrap(name, orig, extra=len))
                elif name == "deltaflow.run":
                    setattr(owner, attr, self._traced_run(orig))
                else:
                    setattr(owner, attr, self.wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- read-out ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[_CALLS]

    def extra(self, name: str) -> int:
        st = self.stats.get(name)
        return st[_EXTRA] if st else 0

    def self_ms(self, name: str) -> float:
        st = self.stats.get(name)
        return st[_SELF] / 1e6 if st else 0.0

    def incl_ms(self, name: str) -> float:
        st = self.stats.get(name)
        return st[_INCL] / 1e6 if st else 0.0

    def self_ms_by_layer(self) -> dict[str, float]:
        """Self time summed per layer, the layer being a span name's first part."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st[_SELF] / 1e6
        return out


@contextlib.contextmanager
def no_span(name: str):
    yield

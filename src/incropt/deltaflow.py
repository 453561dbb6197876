"""Minimal incremental dataflow substrate: delta tuples, min-aggregation
with next-best recovery and per-member visibility, and an order-independent
fixpoint driver.

A delta is a three-field tuple ``(relation, op, payload)`` with two ops,
insert and delete; a changed value travels as a notification naming its key,
and the receiving rule reads the current value from maintained state.  Rules
emit plain tuples and the engine reads every delta by position, so building
one costs a tuple display; ``Delta`` is the same record as a NamedTuple, and
pushes of either kind drain alike.

State discipline: every row has exactly one derivation, so its visibility
is a flag, kept as membership in its group's visible set, not a signed
count.  A group owns its state: one ``MinGroupState`` holds its members'
costs, their minimum and its visible set.  It retains every value it has
been handed, including ones above the minimum, so the next-best is
recoverable when the minimum is deleted or raised.  The minimum is cached
beside the members: a change below it replaces it in O(1), and only deleting
or raising the minimum member rescans the group.  A minimum is the builtin
``min`` over ``(cost, member)`` tuples, so ties break on the member key.

Drain order: FIFO, a seeded shuffle across every pending delta, or FIFO
tiers set by the caller.  The optimizer tiers every drain, its cold build
and each re-optimization alike (costs, then bounds, then visibility), so
pruning reads settled costs instead of stale ones; a shuffled drain ignores
the tiers.

The drain kernel is one loop over FIFO lanes, one per tier (one lane
without tiers or when shuffled), fed through a relation -> lane map built
at drain start.  It pops the lowest non-empty lane's head, or a seeded
swap-pop of it.  Per delta the loop counts the drain, checks the ceiling,
calls the observer only if one is installed, counts the relation and calls
its rule.  The rules are read from ``handlers`` at drain start, so a caller
may swap them between drains; a ``WeakRule`` is bound to its owner there,
so an owner holding its engine forms no reference cycle and the loop still
calls bound methods.  A drain cut short by an exception puts every lane
back pending, in tier order.

The engine instance is single-owner: hand it between threads whole, never
share it for concurrent mutation.  The drain-order independence of the
fixpoint is the extension point for any future parallel drain.
"""
from __future__ import annotations

import random
import weakref
from collections import deque
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import NonTermination, ValidationError

INSERT = "+"
DELETE = "-"


class Delta(NamedTuple):
    """A change flowing through the engine: ``payload`` is the tuple inserted
    or deleted, or the key of the tuple whose value changed.  The engine
    reads any delta by position, so a plain ``(relation, op, payload)``
    tuple is one too."""

    relation: str
    op: str
    payload: Any = None


# what the engine queues and hands to rules: a Delta or a plain tuple
DeltaTuple = tuple[str, str, Any]


class MinGroupState:
    """One group's multiset of (member -> cost) with recoverable next-best.

    A group owns one instance: its members' costs, their cached minimum and
    its visible set.  Each member also carries a visibility flag, the one
    record of whether its row is in the visible search space; a flag is
    independent of the member's value.  The *retained* minimum ranges over
    every member (pruned ones included) while the *visible* minimum ranges
    over visible members only.  Ordering is lexicographic on (cost, member
    key) so ties resolve deterministically.

    Invariant: ``_min`` is the lexicographic minimum of ``_costs``, or None
    when ``_costs`` is empty.  ``update`` keeps it so, rescanning at most
    once per call and only when the minimum member is deleted or raised.
    """

    __slots__ = ("_costs", "_min", "_visible")

    def __init__(self):
        self._costs: dict[Any, float] = {}
        self._min: tuple[float, Any] | None = None
        self._visible: set[Any] = set()

    def __len__(self) -> int:
        """The number of members holding a value."""
        return len(self._costs)

    def members(self) -> dict[Any, float]:
        return dict(self._costs)

    def cost_of(self, member: Any) -> float | None:
        """``member``'s retained value, or None when it has none."""
        return self._costs.get(member)

    def min_of(self) -> tuple[float, Any] | None:
        return self._min

    def visible_min(self) -> tuple[float, Any] | None:
        costs = self._costs
        return min(((costs[k], k) for k in self._visible if k in costs),
                   default=None)

    def is_visible(self, member: Any) -> bool:
        return member in self._visible

    def visible(self) -> Iterator[Any]:
        """Every visible member, in no particular order."""
        return iter(self._visible)

    def canonical(self) -> tuple[list[tuple[Any, float]], list[Any]]:
        """Its ``(member, value)`` pairs and its visible members, each sorted
        by member: equal for equal states, whatever order wrote them."""
        return sorted(self._costs.items()), sorted(self._visible)

    def set_visible(self, member: Any, visible: bool) -> None:
        if visible:
            self._visible.add(member)
        else:
            self._visible.discard(member)

    def update(self, changes: Mapping[Any, float | None]) -> bool:
        """Set each member's value in ``changes``, deleting it where the
        value is None; report whether the minimum changed.

        The minimum is rescanned at most once: the lowest written
        ``(cost, member)`` replaces a minimum it is below, since every
        unwritten member is above that minimum; otherwise only deleting or
        raising the minimum member forces the one rescan.  The last delete
        empties the group.
        """
        before = self._min
        entries = self._costs
        low = None
        stale = False
        for member, cost in changes.items():
            if cost is None:
                # visibility flags are written only by set_visible, so a
                # value deletion leaves them alone (the row may stay visible)
                if entries.pop(member, None) is None:
                    continue
            else:
                entries[member] = cost
                cand = (cost, member)
                if low is None or cand < low:
                    low = cand
            if before is not None and member == before[1] and cost != before[0]:
                stale = True
        if low is not None and (before is None or low < before):
            self._min = low
        elif stale:
            self._min = min(zip(entries.values(), entries), default=None)
        return self._min != before


class WeakRule:
    """A rule handler that is a method of an owner the engine must not keep
    alive.

    An owner that holds its engine and hands it its own bound methods forms
    a reference cycle, which only the cyclic garbage collector frees.  A
    ``WeakRule`` holds its owner weakly.  A drain binds it to the owner
    once, at drain start, so the loop calls a plain bound method; called
    directly, it binds per call."""

    __slots__ = ("_owner", "_func")

    def __init__(self, method: Callable[[DeltaTuple], Iterable[DeltaTuple]]):
        self._owner = weakref.ref(method.__self__)
        self._func = method.__func__

    def bind(self) -> Callable[[DeltaTuple], Iterable[DeltaTuple]]:
        return self._func.__get__(self._owner())

    def __call__(self, d: DeltaTuple) -> Iterable[DeltaTuple]:
        return self._func(self._owner(), d)


# K: an optimizer's drain may process the deltas pushed before it started plus
# K per alternative of its universe before it counts as a wiring bug.  K is
# over six times the largest drain measured per alternative, net of its pushed
# deltas: 156, a cold chain-16 build in shuffled order (131,245 deltas over 843
# alternatives).  Shuffled cold chain-16 builds read 49 in the median.  A cold
# build in tier order reads at most 5.5 on chain-16, clique-8 and star-10 at
# seed 7: 4,531 deltas over 833 alternatives, chain-16 with no strategy.
DELTAS_PER_ALTERNATIVE = 1000

# the per-drain budget of an engine that is not told its universe's size
DEFAULT_DELTA_CEILING = 10 ** 8


class FixpointEngine:
    """Drains a delta queue through a fixed rule set until quiescence.

    ``handlers`` maps a relation name to a callable producing follow-up
    deltas.  The drain order is FIFO by default, or seeded random across
    every pending delta for order-independence checks.  While ``tiers``
    maps relations to tier numbers, a FIFO drain pops from its lowest
    non-empty tier first.  The quiescent visible state must not depend on
    the order.  A drain raises ``NonTermination`` once it has processed more
    than the deltas pending at its start plus ``max_deltas``, a guard
    against wiring bugs; ``processed`` counts every delta over the engine's
    life and ``drained_by_rule`` the last drain's deltas per relation.
    ``observer``, when set, sees every delta a drain processes.
    """

    def __init__(self, handlers: dict[str, Callable[[DeltaTuple], Iterable[DeltaTuple]]],
                 *, max_deltas: int = DEFAULT_DELTA_CEILING,
                 order: str = "fifo", seed: int | None = None,
                 observer: Callable[[DeltaTuple], None] | None = None):
        if order not in ("fifo", "random"):
            raise ValidationError(f"unknown drain order {order!r}")
        self.handlers = handlers
        self.max_deltas = max_deltas
        self.order = order
        self._rng = random.Random(seed)
        self.observer = observer
        self.tiers: dict[str, int] | None = None
        self._queue: deque[DeltaTuple] = deque()
        self.processed = 0
        self.drained_by_rule: dict[str, int] = {}

    def _drain_handlers(self) -> dict[str, Callable[[DeltaTuple], Iterable[DeltaTuple]]]:
        """``handlers`` for one drain, each ``WeakRule`` bound to its owner."""
        return {rel: h.bind() if type(h) is WeakRule else h
                for rel, h in self.handlers.items()}

    def push(self, deltas: Iterable[DeltaTuple] | DeltaTuple) -> None:
        """Queue one delta, or every delta of an iterable.  A tuple whose
        first field is a relation name is one delta, never three."""
        if isinstance(deltas, tuple) and deltas and isinstance(deltas[0], str):
            self._queue.append(deltas)
        else:
            self._queue.extend(deltas)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def run(self) -> int:
        """Drain to quiescence; returns the number of deltas processed.

        Pending deltas go into one FIFO lane per tier, a relation without a
        tier into the last; with ``tiers`` None, or a shuffled order, there
        is one lane.  Each pop takes the lowest non-empty lane's head, or
        in a shuffled drain a seeded swap-pop of it."""
        queue = self._queue
        tiers = (self.tiers if self.order == "fifo" else None) or {}
        lanes = [deque() for _ in range(max(tiers.values(), default=0) + 1)]
        route = {rel: lanes[t].append for rel, t in tiers.items()}
        last = lanes[-1].append
        for d in queue:
            route.get(d[0], last)(d)
        queue.clear()
        randrange = self._rng.randrange if self.order == "random" else None
        handlers = self._drain_handlers()
        observer = self.observer
        ceiling = sum(map(len, lanes)) + self.max_deltas
        counts = self.drained_by_rule = {}
        drained = 0
        try:
            while True:
                for lane in lanes:
                    if lane:
                        break
                else:
                    break
                if randrange is None:
                    d = lane.popleft()
                else:
                    i = randrange(len(lane))
                    lane[i], lane[-1] = lane[-1], lane[i]
                    d = lane.pop()
                drained += 1
                if drained > ceiling:
                    raise NonTermination(
                        f"delta count exceeded ceiling {ceiling}; wiring bug?")
                if observer is not None:
                    observer(d)
                rel = d[0]
                counts[rel] = counts.get(rel, 0) + 1
                handler = handlers.get(rel)
                if handler is not None:
                    out = handler(d)
                    if out:
                        for o in out:
                            route.get(o[0], last)(o)
        finally:
            self.processed += drained
            # a drain cut short leaves its lanes pending, in tier order
            for lane in lanes:
                queue.extend(lane)
        return drained

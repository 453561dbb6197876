"""Minimal incremental dataflow substrate: delta tuples, min-aggregation
with next-best recovery and per-member visibility, and an order-independent
fixpoint driver.

A delta is a three-field record ``(relation, op, payload)`` with two ops,
insert and delete; a changed value travels as a notification naming its key,
and the receiving rule reads the current value from maintained state.

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
tiers set by the caller.  The optimizer tiers its re-optimization drains
(costs, then bounds, then visibility), so pruning reads settled costs
instead of ones the update has made stale; its initial build stays plain
FIFO, since a cold state holds no stale costs and tiering it costs more
deltas than it saves.

The engine instance is single-owner: hand it between threads whole, never
share it for concurrent mutation.  The drain-order independence of the
fixpoint is the extension point for any future parallel drain.
"""
from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import NonTermination, ValidationError

INSERT = "+"
DELETE = "-"


class Delta(NamedTuple):
    """A change flowing through the engine: ``payload`` is the tuple inserted
    or deleted, or the key of the tuple whose value changed."""

    relation: str
    op: str
    payload: Any = None


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
    when ``_costs`` is empty.  ``update`` keeps it so in O(1) except when the
    minimum member is deleted or raised, the only two cases that rescan.
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

    def set_visible(self, member: Any, visible: bool) -> None:
        if visible:
            self._visible.add(member)
        else:
            self._visible.discard(member)

    def update(self, member: Any, cost: float | None) -> bool:
        """Set ``member``'s value, or delete it when ``cost`` is None; report
        whether the minimum changed.

        The cached minimum follows four cases: a value below the minimum
        replaces it; deleting the minimum member, or raising it, rescans the
        group for the next-best; any other change leaves it alone; the last
        delete empties it.
        """
        before = self._min
        entries = self._costs
        if cost is None:
            # visibility flags are written only by set_visible, so a value
            # deletion leaves them alone (the row may stay visible)
            if member not in entries:
                return False
            del entries[member]
            if not entries:
                self._min = None
                return True
            if before[1] != member:
                return False
        else:
            entries[member] = cost
            cand = (cost, member)
            if before is None or cand < before:
                self._min = cand
                return True
            if before[1] != member or cost == before[0]:
                return False
        self._min = min(zip(entries.values(), entries))
        return True


DEFAULT_DELTA_CEILING = 10 ** 8


class FixpointEngine:
    """Drains a delta queue through a fixed rule set until quiescence.

    ``handlers`` maps a relation name to a callable producing follow-up
    deltas.  The drain order is FIFO by default, or seeded random across
    every pending delta for order-independence checks.  While ``tiers``
    maps relations to tier numbers, a FIFO drain pops from its lowest
    non-empty tier first.  The quiescent visible state must not depend on
    the order.  A ceiling on the deltas of any one drain guards against
    wiring bugs; ``processed`` counts every delta over the engine's life and
    ``drained_by_rule`` the last drain's deltas per relation.
    """

    def __init__(self, handlers: dict[str, Callable[[Delta], Iterable[Delta]]],
                 *, max_deltas: int = DEFAULT_DELTA_CEILING,
                 order: str = "fifo", seed: int | None = None,
                 observer: Callable[[Delta], None] | None = None):
        if order not in ("fifo", "random"):
            raise ValidationError(f"unknown drain order {order!r}")
        self.handlers = handlers
        self.max_deltas = max_deltas
        self.order = order
        self._rng = random.Random(seed)
        self.observer = observer
        self.tiers: dict[str, int] | None = None
        self._queue: deque[Delta] = deque()
        self.processed = 0
        self.drained_by_rule: dict[str, int] = {}

    def push(self, deltas: Iterable[Delta] | Delta) -> None:
        if isinstance(deltas, Delta):
            self._queue.append(deltas)
        else:
            self._queue.extend(deltas)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _pop_random(self) -> Delta:
        queue = self._queue
        if not queue:
            raise IndexError("pop from an empty queue")
        i = self._rng.randrange(len(queue))
        queue[i], queue[-1] = queue[-1], queue[i]
        return queue.pop()

    def run(self) -> int:
        """Drain to quiescence; returns the number of deltas processed."""
        queue = self._queue
        tiers = self.tiers if self.order == "fifo" else None
        if tiers is None:
            pop = queue.popleft if self.order == "fifo" else self._pop_random
            emit = queue.extend
        else:
            lanes = [deque() for _ in range(max(tiers.values(), default=0) + 1)]
            route = {rel: lanes[t] for rel, t in tiers.items()}
            last = lanes[-1]

            def pop() -> Delta:
                for lane in lanes:
                    if lane:
                        return lane.popleft()
                raise IndexError("pop from an empty queue")

            def emit(out: Iterable[Delta]) -> None:
                for d in out:
                    route.get(d.relation, last).append(d)

            emit(queue)
            queue.clear()
        handlers = self.handlers
        observer = self.observer
        ceiling = self.max_deltas
        counts = self.drained_by_rule = {}
        drained = 0
        try:
            while True:
                try:
                    d = pop()
                except IndexError:
                    break
                drained += 1
                if drained > ceiling:
                    raise NonTermination(
                        f"delta count exceeded ceiling {ceiling}; wiring bug?")
                if observer is not None:
                    observer(d)
                rel = d.relation
                counts[rel] = counts.get(rel, 0) + 1
                handler = handlers.get(rel)
                if handler is None:
                    continue
                out = handler(d)
                if out:
                    emit(out)
        finally:
            self.processed += drained
            if tiers is not None:
                # a drain cut short leaves its lanes pending, in tier order
                for lane in lanes:
                    queue.extend(lane)
        return drained

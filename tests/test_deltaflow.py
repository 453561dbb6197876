from __future__ import annotations

import copy
import pickle
import random
import types
from collections import deque

import pytest

from incropt.algebra import ExprSig, PropertySpec
from incropt.deltaflow import (
    DELETE, DELTAS_PER_ALTERNATIVE, Delta, FixpointEngine, INSERT, MinGroupState,
)
from incropt.errors import NonTermination
from incropt.incremental import ReoptSession
from incropt.optimizer import STRATEGY_SUBSETS, DeclarativeOptimizer
from incropt.workload import make_update_batch, make_workload


def test_delta_is_a_three_field_record():
    d = Delta("bestcost", INSERT, "g")
    assert d == ("bestcost", INSERT, "g") and d._fields == ("relation", "op", "payload")
    assert Delta("expr", DELETE).payload is None


class TestMinGroupState:
    def test_insertion_lowers_min(self):
        m = MinGroupState()
        assert m.update({"a": 0.30}) and m.min_of() == (0.30, "a")
        assert m.update({"b": 0.25}) and m.min_of() == (0.25, "b")

    def test_insertion_above_min_is_silent(self):
        m = MinGroupState()
        m.update({"a": 0.25})
        assert not m.update({"b": 0.30})
        assert m.min_of() == (0.25, "a")

    def test_deleting_min_promotes_next_best(self):
        m = MinGroupState()
        m.update({"a": 0.25})
        m.update({"b": 0.30})
        assert m.update({"a": None}) and m.min_of() == (0.30, "b")

    def test_raising_min_promotes_min_of_new_and_next_best(self):
        m = MinGroupState()
        m.update({"a": 0.25})
        m.update({"b": 0.30})
        assert m.update({"a": 0.40}) and m.min_of() == (0.30, "b")

    def test_lowering_nonmin_competes(self):
        m = MinGroupState()
        m.update({"a": 0.30})
        m.update({"b": 0.50})
        assert m.update({"b": 0.20}) and m.min_of() == (0.20, "b")

    def test_retains_all_members(self):
        m = MinGroupState()
        for i, c in enumerate((5.0, 3.0, 4.0)):
            m.update({f"m{i}": c})
        assert len(m.members()) == 3
        assert m.cost_of("m1") == 3.0 and m.cost_of("zz") is None

    def test_last_delete_emits_group_delete(self):
        m = MinGroupState()
        m.update({"a": 1.0})
        assert m.update({"a": None}) and m.min_of() is None

    def test_visible_min_tracks_visibility(self):
        m = MinGroupState()
        m.update({"a": 1.0})
        m.update({"b": 2.0})
        m.set_visible("a", True)
        m.set_visible("b", True)
        assert m.visible_min() == (1.0, "a")
        m.set_visible("a", False)
        assert m.visible_min() == (2.0, "b")
        assert m.min_of() == (1.0, "a")

    def test_visibility_is_a_flag(self):
        g, h = MinGroupState(), MinGroupState()
        assert not g.is_visible("a") and list(g.visible()) == []
        g.set_visible("a", True)
        g.set_visible("a", True)
        h.set_visible("b", True)
        assert g.is_visible("a") and not g.is_visible("b")
        assert list(g.visible()) == ["a"] and list(h.visible()) == ["b"]
        g.set_visible("a", False)
        assert not g.is_visible("a")
        assert list(g.visible()) == [] and list(h.visible()) == ["b"]
        # visibility is independent of the member's value
        assert h.min_of() is None and h.visible_min() is None

    def test_bulk_update_equals_one_update_per_member(self):
        """``update`` writes several members and rescans at most once; it
        leaves the same values and minimum as one single-member ``update``
        per member, in any order, and reports whether that minimum moved."""
        rng = random.Random(5)
        for _ in range(400):
            bulk, single = MinGroupState(), MinGroupState()
            for pos in range(6):
                if rng.random() < 0.7:
                    cost = float(rng.randrange(4))
                    bulk.update({pos: cost})
                    single.update({pos: cost})
            # a cost drawn from few values makes (cost, position) ties common
            changes = {pos: rng.choice((None, 0.0, 1.0, 2.0, 3.0, 4.0))
                       for pos in rng.sample(range(8), rng.randrange(1, 8))}
            before = single.min_of()
            for pos, cost in changes.items():
                single.update({pos: cost})
            moved = bulk.update(changes)
            assert bulk.members() == single.members()
            assert bulk.min_of() == single.min_of() == min(
                zip(single.members().values(), single.members()), default=None)
            assert moved == (single.min_of() != before)

    def test_canonical_form_does_not_depend_on_write_order(self):
        """Colliding positions iterate in insertion order, in the set as in
        the dict; the canonical form sorts both."""
        a, b = MinGroupState(), MinGroupState()
        for m, members in ((a, (0, 8, 16)), (b, (16, 8, 0))):
            for pos in members:
                m.update({pos: 1.0 + pos})
                m.set_visible(pos, True)
        assert list(a.visible()) != list(b.visible())
        assert a.canonical() == b.canonical() == (
            [(0, 1.0), (8, 9.0), (16, 17.0)], [0, 8, 16])


class TestCountedState:
    """The searchspace trace kept the line format of the retired CountedState:
    ``relation op row before after``, one line per visibility flip."""

    def test_trace_format(self, q3s_fixture):
        from incropt.optimizer import DeclarativeOptimizer
        cat, q = q3s_fixture
        lines = []
        opt = DeclarativeOptimizer(cat, q, trace=lines.append).run()
        mins = opt.groups[opt.root_id].mins
        row = (opt.root_id, mins.min_of()[1])
        rk = (opt.root, opt.universe.group_alts[opt.root_id][row[1]].key)
        assert mins.is_visible(row[1])
        lines.clear()
        opt._apply_row_visibility(row, DELETE)
        assert not mins.is_visible(row[1])
        opt._apply_row_visibility(row, INSERT)
        assert mins.is_visible(row[1])
        assert lines == [f"searchspace - {rk!r} 1 0", f"searchspace + {rk!r} 0 1"]


def _scan_min(m):
    """The (cost, member) minimum of ``m`` by full scan, or None when empty."""
    return min(((c, k) for k, c in m.members().items()), default=None)


class TestMinGroupModel:
    """The cached minimum against a brute-force scan after every step."""

    MEMBERS = [(i, op) for i in (1, 2, 3) for op in ("hash_join", "merge_join")]
    COSTS = (1.0, 2.0, 2.0, 3.0, 5.0)   # a repeated cost makes ties likely

    def step(self, m, member, cost):
        """One update; its result must say exactly whether the minimum moved."""
        before = _scan_min(m)
        changed = m.update({member: cost})
        after = _scan_min(m)
        assert m.min_of() == after
        assert changed == (before != after)
        return changed

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_match_brute_force(self, seed):
        rng = random.Random(seed)
        groups = {name: MinGroupState() for name in ("g1", "g2", "g3")}
        for _ in range(600):
            m = groups[rng.choice(sorted(groups))]
            member = rng.choice(self.MEMBERS)
            cost = rng.choice(self.COSTS)
            present = m.members()
            roll = rng.random()
            if roll < 0.4:
                # setting a member already present is an update
                pass
            elif roll < 0.7:
                # deleting an absent member is a no-op
                cost = None
            elif present:
                member = rng.choice(sorted(present))
                if cost == present[member]:
                    cost += 1.0
            else:
                continue
            self.step(m, member, cost)
        for m in groups.values():
            assert m.min_of() == _scan_min(m)

    def test_cost_tie_broken_by_member_key(self):
        m = MinGroupState()
        self.step(m, (2, "hash_join"), 1.0)
        assert self.step(m, (1, "merge_join"), 1.0)
        assert m.min_of() == (1.0, (1, "merge_join"))
        assert not self.step(m, (3, "hash_join"), 1.0)

    def test_equal_cost_update_of_non_min_member(self):
        m = MinGroupState()
        self.step(m, (2, "a"), 1.0)
        self.step(m, (1, "a"), 4.0)
        self.step(m, (3, "a"), 4.0)
        # a larger key tying the minimum leaves it alone
        assert not self.step(m, (3, "a"), 1.0)
        # a smaller key tying the minimum takes it over
        assert self.step(m, (1, "a"), 1.0)
        assert m.min_of() == (1.0, (1, "a"))

    def test_raising_min_rescans_including_ties(self):
        m = MinGroupState()
        for key, c in (("a", 1.0), ("c", 2.0), ("b", 2.0)):
            self.step(m, key, c)
        assert self.step(m, "a", 2.0) and m.min_of() == (2.0, "a")
        assert self.step(m, "a", 9.0) and m.min_of() == (2.0, "b")

    def test_deleting_min_and_last_delete(self):
        m = MinGroupState()
        self.step(m, "a", 1.0)
        self.step(m, "b", 3.0)
        assert not self.step(m, "zz", None)
        assert self.step(m, "a", None) and m.min_of() == (3.0, "b")
        assert self.step(m, "b", None)
        assert m.min_of() is None and m.members() == {}
        assert not self.step(m, "b", None)
        assert self.step(m, "b", 2.0) and m.min_of() == (2.0, "b")

    def test_reinserting_existing_member_is_an_update(self):
        m = MinGroupState()
        self.step(m, "a", 1.0)
        self.step(m, "b", 2.0)
        assert not self.step(m, "a", 1.0)
        assert self.step(m, "a", 5.0) and m.min_of() == (2.0, "b")
        assert len(m.members()) == 2


class TestGroupKeys:
    KEYS = [ExprSig.of(["b", "a"]), ExprSig.of(["c"]), PropertySpec.none(),
            PropertySpec.sorted_on("a.x"), PropertySpec.index_on("b.y")]

    def test_equal_values_hash_equal(self):
        assert hash(ExprSig.of(["a", "b"])) == hash(ExprSig(("a", "b")))
        assert ExprSig.of(["a", "b"]) == ExprSig(("a", "b"))
        assert hash(PropertySpec("sorted", "a.x")) == hash(PropertySpec.sorted_on("a.x"))
        assert PropertySpec.parse("none") == PropertySpec()
        assert hash(PropertySpec.parse("none")) == hash(PropertySpec())
        groups = {(ExprSig.of(["a", "b"]), PropertySpec.sorted_on("a.x")): 1}
        assert groups[(ExprSig(("a", "b")), PropertySpec("sorted", "a.x"))] == 1

    def test_order_and_repr_unchanged(self):
        assert ExprSig(("a",)) < ExprSig(("a", "b")) < ExprSig(("b",))
        assert PropertySpec("index", "z.z") < PropertySpec("none") < PropertySpec("sorted", "a.a")
        assert repr(ExprSig.of(["b", "a"])) == "ExprSig(rels=('a', 'b'))"
        assert repr(PropertySpec.sorted_on("a.x")) == "PropertySpec(kind='sorted', attr='a.x')"
        assert str(ExprSig.of(["b", "a"])) == "(a,b)"

    def test_no_instance_dict(self):
        for key in self.KEYS:
            assert not hasattr(key, "__dict__")

    @pytest.mark.parametrize("clone", [lambda k: pickle.loads(pickle.dumps(k)),
                                       copy.deepcopy, copy.copy])
    def test_survive_pickle_and_copy(self, clone):
        for key in self.KEYS:
            back = clone(key)
            assert back == key and hash(back) == hash(key) and repr(back) == repr(key)
        group = (self.KEYS[0], self.KEYS[3])
        assert clone({group: 1})[group] == 1


class TestFixpointEngine:
    def test_empty_queue_is_noop(self):
        eng = FixpointEngine({})
        assert eng.run() == 0

    def test_ceiling_guards_nontermination(self):
        eng = FixpointEngine({"loop": lambda d: [Delta("loop", INSERT, "x")]},
                             max_deltas=100)
        eng.push(Delta("loop", INSERT, "x"))
        with pytest.raises(NonTermination):
            eng.run()

    def test_ceiling_is_per_drain(self):
        def count_down(d):
            return [Delta("step", INSERT, d.payload - 1)] if d.payload > 1 else []

        eng = FixpointEngine({"step": count_down}, max_deltas=100)
        # three 60-delta drains: 180 in total, none above the ceiling
        for _ in range(3):
            eng.push(Delta("step", INSERT, 60))
            assert eng.run() == 60
        assert eng.processed == 180

    def test_per_rule_counts_sum_to_the_drain(self):
        eng = FixpointEngine({"a": lambda d: [Delta("b", INSERT, d.payload)] * 2,
                              "b": lambda d: []})
        eng.push([Delta("a", INSERT, 1), Delta("a", INSERT, 2)])
        drained = eng.run()
        assert eng.drained_by_rule == {"a": 2, "b": 4}
        assert sum(eng.drained_by_rule.values()) == drained == eng.processed

    def test_tiered_drain_settles_lower_tiers_first(self):
        order = []

        def log(d):
            order.append(d.payload)
            # each visibility delta re-opens the cost tier
            return [Delta("cost", INSERT, d.payload + "'")] if d.relation == "vis" else []

        eng = FixpointEngine({"cost": log, "vis": log})
        eng.push([Delta("vis", INSERT, "v1"), Delta("cost", INSERT, "c1"),
                  Delta("vis", INSERT, "v2"), Delta("cost", INSERT, "c2")])
        eng.tiers = {"cost": 0, "vis": 1}
        assert eng.run() == 6
        assert order == ["c1", "c2", "v1", "v1'", "v2", "v2'"]
        # without tiers the same pushes drain in plain FIFO order
        order.clear()
        eng.tiers = None
        eng.push([Delta("vis", INSERT, "v1"), Delta("cost", INSERT, "c1")])
        eng.run()
        assert order == ["v1", "c1", "v1'"]

    @pytest.mark.parametrize("order, tiers, processed", [
        ("fifo", {"boom": 0, "a": 1}, 1), ("fifo", None, 2), ("random", None, 3)],
        ids=["tiered", "fifo", "shuffled"])
    def test_cut_short_drain_stays_pending(self, order, tiers, processed):
        """A drain cut short by a raising rule leaves every delta it did not
        pop pending, and the next drain processes them."""
        def boom(d):
            raise RuntimeError("handler failed")

        seen = []
        eng = FixpointEngine({"boom": boom, "a": lambda d: seen.append(d[2])},
                             order=order, seed=5)
        eng.tiers = tiers
        eng.push([Delta("a", INSERT, 1), Delta("boom", INSERT), Delta("a", INSERT, 2),
                  Delta("a", INSERT, 3)])
        with pytest.raises(RuntimeError):
            eng.run()
        assert eng.processed == processed and eng.pending == 4 - processed
        assert len(seen) == processed - 1
        eng.handlers["boom"] = lambda d: []
        assert eng.run() == 4 - processed
        assert sorted(seen) == [1, 2, 3] and eng.pending == 0

    def test_shuffled_drain_matches_fifo(self):
        # toy counting network: edges propagate increments to reachable nodes
        edges = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}

        def run(order, seed=None):
            counts = {k: 0 for k in edges}

            def bump(d):
                node = d.payload
                counts[node] += 1
                return [Delta("bump", INSERT, nxt) for nxt in edges[node]]

            eng = FixpointEngine({"bump": bump}, order=order, seed=seed)
            eng.push([Delta("bump", INSERT, "a"), Delta("bump", INSERT, "b")])
            eng.run()
            return counts

        fifo = run("fifo")
        for seed in range(10):
            assert run("random", seed) == fifo

    def test_plain_tuples_and_deltas_drain_alike(self):
        seen = []
        eng = FixpointEngine({"a": lambda d: [("b", INSERT, d[2])],
                              "b": lambda d: seen.append(d) or []})
        eng.push([Delta("a", INSERT, 1), ("a", INSERT, 2)])
        eng.push(("b", DELETE, 3))
        assert eng.run() == 5
        assert seen == [("b", DELETE, 3), ("b", INSERT, 1), ("b", INSERT, 2)]
        assert eng.drained_by_rule == {"a": 2, "b": 3}

    def test_push_takes_a_bare_tuple_as_one_delta(self):
        eng = FixpointEngine({})
        eng.push(("expr", INSERT, 7))
        eng.push(Delta("expr", DELETE, 7))
        assert eng.pending == 2
        eng.push((("expr", INSERT, 8), ("expr", INSERT, 9)))
        eng.push(iter([("expr", INSERT, 10)]))
        assert eng.pending == 5
        assert eng.run() == 5 and eng.drained_by_rule == {"expr": 5}

    def test_ceiling_counts_the_deltas_pushed_before_the_drain(self):
        eng = FixpointEngine({"leaf": lambda d: []}, max_deltas=3)
        eng.push([("leaf", INSERT, i) for i in range(50)])
        assert eng.run() == 50
        eng.tiers = {"leaf": 0}
        eng.push([("leaf", INSERT, i) for i in range(50)])
        assert eng.run() == 50


def reference_run(self: FixpointEngine) -> int:
    """The generic drain loop, kept as the reference for
    ``FixpointEngine.run``: one loop whose ``pop`` and ``emit`` are chosen
    per drain, tier lanes behind closures, a per-pop ``try`` and a flat
    ceiling.  The order it processes deltas in is the order the engine must
    keep."""
    queue = self._queue
    tiers = self.tiers if self.order == "fifo" else None
    if tiers is None:
        def pop_random():
            if not queue:
                raise IndexError("pop from an empty queue")
            i = self._rng.randrange(len(queue))
            queue[i], queue[-1] = queue[-1], queue[i]
            return queue.pop()

        pop = queue.popleft if self.order == "fifo" else pop_random
        emit = queue.extend
    else:
        lanes = [deque() for _ in range(max(tiers.values(), default=0) + 1)]
        route = {rel: lanes[t] for rel, t in tiers.items()}
        last = lanes[-1]

        def pop():
            for lane in lanes:
                if lane:
                    return lane.popleft()
            raise IndexError("pop from an empty queue")

        def emit(out):
            for d in out:
                route.get(d[0], last).append(d)

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
                raise NonTermination(f"delta count exceeded ceiling {ceiling}")
            if observer is not None:
                observer(d)
            rel = d[0]
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
            for lane in lanes:
                queue.extend(lane)
    return drained


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_drain_with_tiers_processes_the_reference_sequence(seed):
    """A shuffled drain ignores ``tiers``: with them set it pops exactly the
    deltas, in exactly the order, that ``reference_run`` does."""
    def drain(run):
        seen = []

        def rule(d):
            seen.append(tuple(d))
            n = d[2]
            return [("cost", INSERT, n - 1), ("vis", INSERT, n - 1)] if n else []

        eng = FixpointEngine({"cost": rule, "vis": rule}, order="random", seed=seed)
        eng.tiers = {"cost": 0, "vis": 1}
        eng.push([("vis", INSERT, 4), ("cost", INSERT, 4)])
        assert run(eng) == len(seen) == 62
        return seen

    assert drain(FixpointEngine.run) == drain(reference_run)


def _recorded_run(cat, q, strategies, order, seed, updates, reference):
    """Every delta a cold build and then one re-optimization per update
    process, as ``(relation, op, payload)``, plus each drain's per-rule
    counts and touched totals and the final state."""
    opt = DeclarativeOptimizer(cat, q, strategies=strategies,
                               drain_order=order, drain_seed=seed)
    if reference:
        opt.engine.run = types.MethodType(reference_run, opt.engine)
    seen = []

    def recording(h):
        def rule(d):
            seen.append(tuple(d))
            return h(d)
        return rule

    opt.engine.handlers = {rel: recording(h) for rel, h in opt.engine.handlers.items()}
    session = ReoptSession(opt.run())
    drains = [opt.deltas_by_rule()]
    for u in updates:
        session.add_updates([u])
        _, m = session.reoptimize()
        drains.append((m.deltas_by_rule, m.touched_and, m.touched_or))
    return seen, drains, opt.state_digest()


@pytest.mark.parametrize("label", sorted(STRATEGY_SUBSETS))
def test_kernel_processes_the_reference_sequence(label):
    """The engine processes exactly the deltas, in exactly the order, that
    the former generic loop does: tiered cold builds and re-optimization
    drains, and seeded random drains of clique-5 and star-6, 20 updates each."""
    strategies = STRATEGY_SUBSETS[label]
    for shape, n in (("clique", 5), ("star", 6)):
        cat, q = make_workload(shape, n, 1)
        updates = make_update_batch(cat, 20, 1)
        for order in ("fifo", "random"):
            runs = [_recorded_run(cat, q, strategies, order, 3, updates, reference)
                    for reference in (False, True)]
            assert runs[0][0], (shape, order)
            assert runs[0] == runs[1], (shape, order)


def test_self_looping_rule_fails_within_the_scaled_ceiling(q3s_fixture):
    cat, q = q3s_fixture
    opt = DeclarativeOptimizer(cat, q).run()
    alternatives = opt.universe.totals()[1]
    assert opt.engine.max_deltas == DELTAS_PER_ALTERNATIVE * alternatives
    opt.engine.handlers["refilter"] = lambda d: [d]
    pushed = [("refilter", INSERT, opt.root_id), ("refilter", INSERT, opt.root_id)]
    before = opt.engine.processed
    with pytest.raises(NonTermination):
        opt.engine.push(pushed)
        opt.engine.run()
    assert opt.engine.processed - before == len(pushed) + opt.engine.max_deltas + 1

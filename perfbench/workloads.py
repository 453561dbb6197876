"""The benchmark's workloads: set-up, one timed op, and the correctness gate.

Every workload is a closed loop with one caller: ``op(i)`` returns only when
its plan is there, and the next op starts after it.  Inputs (catalogs and
update streams) come from the seed alone and are made in the constructor,
outside the timed set-up; ``setup(i)`` is the program's own set-up.  Where a
single seeded catalog would make the figures depend on which catalog the seed
happened to draw, the workload uses ``queries`` catalogs from sub-seeds of the
run's seed and visits them round-robin, so a run measures whole rounds over
the same set.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from incropt import baselines
from incropt.catalog import apply_update
from incropt.errors import IncroptError
from incropt.fixtures import q8joins
from incropt.incremental import ReoptSession
from incropt.optimizer import DeclarativeOptimizer
from incropt.workload import make_update_batch, make_workload

from spans import no_span

# sub-seed i of run seed s is s + SUBSEED_STRIDE * i, so sub-seed 0 is s itself
SUBSEED_STRIDE = 100_000
# updates generated per stream; make_update_batch is prefix-stable, so a run
# uses as many as its time allows and the same seed always yields the same ones
STREAM_LENGTH = 20_000
# stream prefix over which resume-q8joins probes the updates it does not time
PROBE_LENGTH = 1_500


class Incorrect(Exception):
    """A timed answer failed its correctness check."""


def _key(update) -> tuple:
    return (update.kind, update.target, update.factor)


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Sample:
    """One op: its wall time, named sub-timings, and what the gate checks."""

    ms: float
    query: int = 0
    parts: dict[str, float] = field(default_factory=dict)
    kind: str | None = None
    counts: dict[str, float] = field(default_factory=dict)
    output: Any = None


class Workload:
    name = ""
    setups = 1      # set-ups per run; setup_s is their median
    queries = 1     # distinct queries visited round-robin by ops
    count_ops = 1   # ops in the deterministic count pass
    probed = 0      # stream prefix replayed by unreadable_states()
    # figures printed under the workload's own names:
    # (name, Sample.parts key or None for the whole op, tail percentiles)
    figures: tuple[tuple[str, str | None, tuple[int, ...]], ...] = ()

    def __init__(self, seed: int, span=no_span):
        self.seed = seed
        self.span = span

    def subseed(self, i: int) -> int:
        return self.seed + SUBSEED_STRIDE * i

    def setup(self, i: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Sample:
        raise NotImplementedError

    def check(self, sample: Sample) -> bool:
        """Gate one op outside its timed region; True iff the op failed.

        Raises ``Incorrect`` when an answer is wrong."""
        return False

    def finish(self) -> None:
        """End-of-run gate, outside every timed region."""

    def unreadable_states(self) -> int:
        """Saved states that cannot be read back (ROADMAP 4c), among the first
        ``probed`` stream updates, from those the timed loop leaves out."""
        return 0

    def universe_totals(self) -> tuple[int, int]:
        """(groups, alternatives) summed over the distinct queries exercised."""
        raise NotImplementedError

    def digest(self) -> str:
        """Hash of the final answers, compared between same-seed runs."""
        raise NotImplementedError


class ColdChain16(Workload):
    """From-scratch optimization of chain-16 by all three engines."""

    name = "cold-chain16"
    setups = queries = count_ops = 6
    figures = tuple((part, part, (90,)) for part in
                    ("optimize_ms", "systemr_ms", "volcano_ms"))

    def __init__(self, seed, span=no_span):
        super().__init__(seed, span)
        self.inputs = [make_workload("chain", 16, self.subseed(i))
                       for i in range(self.queries)]
        self.universes = {}
        self.plans = {}

    def setup(self, i):
        # warm-up run: lazily built catalog indexes are set-up, not op time
        DeclarativeOptimizer(*self.inputs[i]).run()

    def op(self, i):
        q = i % self.queries
        cat, query = self.inputs[q]
        with self.span("op"):
            t0 = time.perf_counter()
            opt = DeclarativeOptimizer(cat, query).run()
            decl = opt.best_plan()
            t1 = time.perf_counter()
            sysr, sysr_m = baselines.systemr_optimize(query, cat)
            t2 = time.perf_counter()
            volc, volc_m = baselines.volcano_optimize(query, cat)
            t3 = time.perf_counter()
        self.universes[q] = opt.universe
        return Sample(
            ms=(t3 - t0) * 1000.0, query=q,
            parts={"optimize_ms": (t1 - t0) * 1000.0,
                   "systemr_ms": (t2 - t1) * 1000.0,
                   "volcano_ms": (t3 - t2) * 1000.0},
            counts={"optimizer.visible_and": opt.visible_counts()[1],
                    "baselines.systemr.visited_and": sysr_m.visited_and,
                    "baselines.volcano.visited_and": volc_m.visited_and,
                    "baselines.volcano.pruned_and": volc_m.pruned_and},
            output=(decl, sysr, volc),
        )

    def check(self, sample):
        decl, sysr, volc = (p.to_dict() for p in sample.output)
        if not decl == sysr == volc:
            raise Incorrect(f"query {sample.query}: declarative, System-R and "
                            "Volcano plans differ")
        self.plans[sample.query] = decl
        return False

    def universe_totals(self):
        totals = [u.totals() for u in self.universes.values()]
        return sum(g for g, _ in totals), sum(a for _, a in totals)

    def digest(self):
        return _digest(sorted(self.plans.items()))


class DriftClique8(Workload):
    """A warm session per clique-8 catalog fed one statistics update per op."""

    name = "drift-clique8"
    setups = queries = 6
    count_ops = 60
    figures = (("reopt_ms", None, (90,)),)

    def __init__(self, seed, span=no_span):
        super().__init__(seed, span)
        self.inputs = [make_workload("clique", 8, self.subseed(i))
                       for i in range(self.queries)]
        self.streams = [make_update_batch(cat, STREAM_LENGTH, self.subseed(i))
                        for i, (cat, _) in enumerate(self.inputs)]
        self.sessions = []

    def setup(self, i):
        self.sessions.append(ReoptSession(DeclarativeOptimizer(*self.inputs[i]).run()))

    def op(self, i):
        q = i % self.queries
        session = self.sessions[q]
        update = self.streams[q][i // self.queries]
        with self.span("op"):
            t0 = time.perf_counter()
            session.add_updates([update])
            _plan, m = session.reoptimize()
            ms = (time.perf_counter() - t0) * 1000.0
        return Sample(
            ms=ms, query=q, parts={"reopt_ms": ms}, kind=update.kind,
            counts={"optimizer.visible_and": session.opt.visible_counts()[1],
                    "incremental.touched_and": m.touched_and,
                    "incremental.touched_or": m.touched_or,
                    "incremental.update_ratio_and": m.update_ratio_and,
                    "incremental.plan_changed": int(m.plan_changed)},
        )

    def finish(self):
        # the whole maintained state must equal a from-scratch run on the
        # folded catalog, and the plan must equal the exhaustive oracle's
        for q, session in enumerate(self.sessions):
            opt = session.opt
            fresh = DeclarativeOptimizer(opt.catalog, opt.query).run()
            if opt.state_digest() != fresh.state_digest():
                raise Incorrect(f"session {q}: incremental state differs from "
                                "a from-scratch optimization")
            oracle, _ = baselines.brute_force_optimize(opt.query, opt.catalog)
            if session.plan.to_dict() != oracle.to_dict():
                raise Incorrect(f"session {q}: plan differs from the oracle's")

    def universe_totals(self):
        totals = [s.opt.universe.totals() for s in self.sessions]
        return sum(g for g, _ in totals), sum(a for _, a in totals)

    def digest(self):
        return _digest([s.opt.state_digest() for s in self.sessions])


class ResumeQ8Joins(Workload):
    """The ``reoptimize --state`` path on q8joins, with state text in memory.

    The seeded stream keeps the full factor grid.  An update that would push
    a join selectivity above 1 (factor 8 on region=nation's 0.2) hits
    ROADMAP 4c: ``reoptimize`` accepts it, but the state it saves is rejected
    on load.  The timed loop takes only the updates that keep every
    selectivity a probability, so its ops do not fail by design;
    ``unreadable_states()`` replays the others untimed and counts the saved
    states that cannot be read back, so the defect stays measured."""

    name = "resume-q8joins"
    setups = 9
    count_ops = 150
    probed = PROBE_LENGTH
    figures = (("resume_ms", None, (99,)),
               *((f"resume.{part}", part, ()) for part in ("load_ms", "reopt_ms", "save_ms")))

    def __init__(self, seed, span=no_span):
        super().__init__(seed, span)
        self.catalog, self.query = q8joins()
        stream = make_update_batch(self.catalog, STREAM_LENGTH, self.seed)
        in_range = {}
        for u in stream:
            if _key(u) not in in_range:
                in_range[_key(u)] = all(p.selectivity <= 1.0 for p in
                                        apply_update(self.catalog, u).predicates)
        self.updates = [u for u in stream if in_range[_key(u)]]
        self.out_of_range = [u for u in stream[:self.probed] if not in_range[_key(u)]]
        self.base = ""
        self.expected = {}
        self.universe = None
        self.last_state = ""

    def setup(self, i):
        opt = DeclarativeOptimizer(self.catalog, self.query).run()
        # same text as `incropt optimize --save-state` writes
        self.base = json.dumps(opt.to_snapshot(), indent=2, sort_keys=True) + "\n"

    def _resume(self, update, span):
        """Load the base state, apply one update, save; with timestamps."""
        with span("op"):
            t0 = time.perf_counter()
            with span("cli.json"):
                snap = json.loads(self.base)
            opt = DeclarativeOptimizer.from_snapshot(snap)
            t1 = time.perf_counter()
            session = ReoptSession(opt)
            session.add_updates([update])
            plan, m = session.reoptimize()
            t2 = time.perf_counter()
            saved = opt.to_snapshot()
            with span("cli.json"):
                text = json.dumps(saved, indent=2, sort_keys=True) + "\n"
            t3 = time.perf_counter()
        return opt, plan, m, text, (t0, t1, t2, t3)

    def op(self, i):
        update = self.updates[i]
        opt, plan, m, text, (t0, t1, t2, t3) = self._resume(update, self.span)
        self.universe = opt.universe
        return Sample(
            ms=(t3 - t0) * 1000.0,
            parts={"load_ms": (t1 - t0) * 1000.0, "reopt_ms": (t2 - t1) * 1000.0,
                   "save_ms": (t3 - t2) * 1000.0},
            kind=update.kind,
            counts={"optimizer.visible_and": opt.visible_counts()[1],
                    "incremental.touched_and": m.touched_and,
                    "incremental.touched_or": m.touched_or,
                    "incremental.update_ratio_and": m.update_ratio_and,
                    "incremental.plan_changed": int(m.plan_changed)},
            output=(update, plan, text),
        )

    def _from_scratch(self, update) -> dict:
        got = self.expected.get(_key(update))
        if got is None:
            cat = apply_update(self.catalog, update)
            got = DeclarativeOptimizer(cat, self.query).run().best_plan().to_dict()
            self.expected[_key(update)] = got
        return got

    def _unreadable(self, update, plan, text) -> bool:
        """Gate one resumed answer; True iff its saved state cannot be read back."""
        expected = self._from_scratch(update)
        if plan.to_dict() != expected:
            raise Incorrect(f"update {update}: resumed plan differs from a "
                            "from-scratch optimization")
        try:
            reloaded = DeclarativeOptimizer.from_snapshot(json.loads(text))
        except IncroptError:
            return True
        if reloaded.best_plan().to_dict() != expected:
            raise Incorrect(f"update {update}: saved state reloads to another plan")
        return False

    def check(self, sample):
        update, plan, text = sample.output
        self.last_state = text
        return self._unreadable(update, plan, text)  # a failed op

    def unreadable_states(self):
        verdict = {}
        for u in self.out_of_range:
            if _key(u) not in verdict:
                _opt, plan, _m, text, _t = self._resume(u, no_span)
                verdict[_key(u)] = self._unreadable(u, plan, text)
        return sum(verdict[_key(u)] for u in self.out_of_range)

    def universe_totals(self):
        return self.universe.totals()

    def digest(self):
        return _digest(self.last_state)


WORKLOADS = {w.name: w for w in (ColdChain16, DriftClique8, ResumeQ8Joins)}

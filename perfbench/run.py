"""incropt benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` sets up the workload, times ops for ``--seconds`` and prints
every end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` does the same,
then runs a fixed count pass with spans around incropt's entry points, repeats
that pass in a second process to prove the deterministic counts repeat, and
prints every per-layer metric.  Human-readable lines come first; the last line
of standard output is the JSON result.  Exit status: 0 when every answer was
correct, 1 when a correctness check failed, 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RULES = ("expr", "recost", "bestcost", "refcount", "refilter", "refilterrow",
         "pbound", "maxbound", "bound")
LAYERS = ("algebra", "catalog", "costmodel", "deltaflow", "optimizer",
          "incremental", "baselines", "plan", "cli")


def _import_package():
    """Import incropt from this checkout's src/, or return None."""
    if not (SRC / "incropt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import incropt
    if Path(incropt.__file__).resolve().parent != SRC / "incropt":
        return None
    return incropt


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stratified_median(samples, value) -> float:
    """Median per stratum (query and update kind), averaged over strata.

    Reopt latency is bimodal by update kind (on clique-8 a scan-cost update
    costs several times a selectivity update), so a plain median would jump
    between the modes as the seeded mix of kinds shifts."""
    strata: dict[tuple, list[float]] = {}
    for s in samples:
        v = value(s)
        if v is not None:
            strata.setdefault((s.query, s.kind), []).append(v)
    if not strata:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in strata.values())


def _tail(values, p: int) -> float | None:
    """The p-th percentile, or None unless ten samples lie beyond it."""
    if len(values) * (100 - p) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- the untraced, timed run ---------------------------------------------------

def _set_up(wl) -> list[float]:
    times = []
    for i in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup(i)
        times.append(time.perf_counter() - t0)
        gc.collect()
    return times


def timed_run(cls, seed: int, seconds: float) -> dict:
    wl = cls(seed)
    setup_times = _set_up(wl)
    samples, failed, i = [], 0, 0
    start = time.perf_counter()
    # whole rounds only, so every query gets the same number of ops
    while i % wl.queries or time.perf_counter() - start < seconds:
        sample = wl.op(i)
        failed += wl.check(sample)
        sample.output = None
        samples.append(sample)
        i += 1
    peak = _peak_rss_mb()
    wl.finish()
    return {"setup_times": setup_times, "samples": samples, "failed": failed,
            "peak_rss_mb": peak, "unreadable_states": wl.unreadable_states()}


def end_to_end(run: dict) -> dict[str, float]:
    samples = run["samples"]
    return {
        "setup_s": statistics.median(run["setup_times"]),
        "latency_ms.p50": _stratified_median(samples, lambda s: s.ms),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def report_lines(cls, run: dict) -> list[str]:
    """The workload's end-to-end figures under their own names, with counts."""
    samples = run["samples"]
    n = len(samples)
    lines = [f"setup_s = {statistics.median(run['setup_times']):.4f} s "
             f"(median of n={len(run['setup_times'])} set-ups)"]
    for label, part, tails in cls.figures:
        values = [s.parts[part] if part else s.ms for s in samples]
        lines.append(f"{label}.p50 = {statistics.median(values):.3f} ms (n={n})")
        for p in tails:
            v = _tail(values, p)
            shown = (f"{v:.3f} ms" if v is not None
                     else "not reported: fewer than 10 samples beyond it")
            lines.append(f"{label}.p{p} = {shown} (n={n})")
    lines.append(f"failed_ratio = {run['failed'] / n:.6f} ({run['failed']} failed of n={n} ops)")
    if cls.probed:
        k = run["unreadable_states"]
        lines.append(f"unreadable_ratio = {k / cls.probed:.6f} ({k} of the first "
                     f"n={cls.probed} stream updates push a selectivity above 1 and "
                     "save a state that cannot be read back, ROADMAP 4c; replayed "
                     "untimed, not in the timed loop)")
    lines.append(f"peak_rss_mb = {run['peak_rss_mb']:.1f} MB (process high-water mark)")
    return lines


# -- the traced count pass -----------------------------------------------------

def count_pass(cls, seed: int, tracer, trace_setup: bool) -> dict:
    """Set up, then run the workload's fixed ``count_ops`` ops under spans."""
    wl = cls(seed, span=tracer.span)
    setup0 = None
    for i in range(wl.setups):
        if i == 0 and trace_setup:
            with tracer.installed():
                t0 = time.perf_counter()
                wl.setup(0)
                setup0 = time.perf_counter() - t0
        else:
            wl.setup(i)
    tracer.reset()
    with tracer.installed():
        samples = [wl.op(i) for i in range(wl.count_ops)]
    for s in samples:
        wl.check(s)
    return {"samples": samples, "setup0": setup0,
            "counts": deterministic_counts(tracer, samples, wl)}


def deterministic_counts(tracer, samples, wl) -> dict:
    """Work counts of the count pass; two same-seed runs must agree exactly."""
    groups, alts = wl.universe_totals()
    summary_calls = tracer.calls("costmodel.summary")
    misses = tracer.calls("costmodel.summary_miss")
    rule_calls = {r: tracer.calls(f"optimizer.rule.{r}") for r in RULES}

    def total(key):
        return sum(s.counts.get(key, 0) for s in samples)

    c = {
        "algebra.split.calls": tracer.calls("algebra.split"),
        "algebra.universe.groups": groups,
        "algebra.universe.alts": alts,
        "catalog.crossing_predicates.calls": tracer.calls("catalog.crossing_predicates"),
        "costmodel.local_cost.calls": tracer.calls("costmodel.local_cost"),
        "costmodel.summary.hit_ratio": 1.0 - misses / summary_calls if summary_calls else 0.0,
        "deltaflow.deltas": sum(rule_calls.values()),
        "deltaflow.min_of.calls": tracer.calls("deltaflow.min_of"),
        "deltaflow.min_update.calls": tracer.calls("deltaflow.min_update"),
        "optimizer.visible_and": total("optimizer.visible_and") / len(samples),
        "incremental.seed_deltas": tracer.extra("incremental.stat_to_deltas"),
        "incremental.touched_and": total("incremental.touched_and"),
        "incremental.touched_or": total("incremental.touched_or"),
        "incremental.update_ratio_and": total("incremental.update_ratio_and") / len(samples),
        "incremental.plan_changed_ratio": total("incremental.plan_changed") / len(samples),
        "baselines.systemr.visited_and": total("baselines.systemr.visited_and"),
        "baselines.volcano.visited_and": total("baselines.volcano.visited_and"),
        "baselines.volcano.pruned_and": total("baselines.volcano.pruned_and"),
        "cli.unreadable_states": wl.unreadable_states(),
        "digest": wl.digest(),
    }
    for r, n in rule_calls.items():
        c[f"optimizer.rule.{r}.deltas"] = n
        c[f"optimizer.rule.{r}.effective_ratio"] = tracer.extra(f"optimizer.rule.{r}") / n if n else 0.0
    return c


def layer_times(tracer, n_ops: int, deltas: int) -> dict[str, float]:
    """Self times per op and each layer's share of the traced op time."""
    per_op = {name: tracer.self_ms(span) / n_ops for name, span in (
        ("algebra.split.self_ms", "algebra.split"),
        ("catalog.crossing_predicates.self_ms", "catalog.crossing_predicates"),
        ("catalog.apply_update.self_ms", "catalog.apply_update"),
        ("costmodel.local_cost.self_ms", "costmodel.local_cost"),
        ("deltaflow.run.self_ms", "deltaflow.run"),
        ("deltaflow.min_of.self_ms", "deltaflow.min_of"),
        ("deltaflow.min_update.self_ms", "deltaflow.min_update"),
        ("optimizer.from_snapshot.self_ms", "optimizer.from_snapshot"),
        ("optimizer.to_snapshot.self_ms", "optimizer.to_snapshot"),
        ("incremental.stat_to_deltas.self_ms", "incremental.stat_to_deltas"),
        ("plan.build_plan.self_ms", "plan.build_plan"),
        ("cli.json.self_ms", "cli.json"),
    )}
    for r in RULES:
        per_op[f"optimizer.rule.{r}.self_ms"] = tracer.self_ms(f"optimizer.rule.{r}") / n_ops
    per_op["deltaflow.us_per_delta"] = (
        tracer.incl_ms("deltaflow.run") * 1000.0 / deltas if deltas else 0.0)
    op_ms = tracer.incl_ms("op")
    by_layer = tracer.self_ms_by_layer()
    for layer in LAYERS:
        per_op[f"share.{layer}"] = by_layer.get(layer, 0.0) / op_ms
    per_op["share.other"] = 1.0 - sum(per_op[f"share.{layer}"] for layer in LAYERS)
    return per_op


def untraced_layer_figures(samples) -> dict[str, float]:
    """Per-layer timings that need no spans, from the untraced ops."""
    from incropt.catalog import JOIN_SELECTIVITY, SCAN_COST

    def part(name):
        return _stratified_median(samples, lambda s: s.parts.get(name))

    out = {"optimizer.optimize_ms.p50": part("optimize_ms"),
           "baselines.systemr_ms.p50": part("systemr_ms"),
           "baselines.volcano_ms.p50": part("volcano_ms")}
    for kind in (SCAN_COST, JOIN_SELECTIVITY):
        values = [s.parts["reopt_ms"] for s in samples if s.kind == kind]
        out[f"incremental.reopt_ms.{kind}.p50"] = statistics.median(values) if values else 0.0
    return out


def counts_in_child(name: str, seed: int) -> dict:
    """The count pass again in a fresh process with another hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--counts-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"count pass in a second process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- entry point -----------------------------------------------------------------

def _emit(specs: list[dict], values: dict, correct: bool, attempted: int, failed: int) -> None:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def traced_figures(cls, seed: int, run: dict, e2e: dict) -> tuple[dict, set[str]]:
    """Per-layer metrics (count pass, cross-process count check, overheads),
    and the names of those that are deterministic counts."""
    from spans import Tracer
    from workloads import Incorrect

    untraced = untraced_layer_figures(run["samples"])
    gc.collect()
    rss_before = _peak_rss_mb()
    tracer = Tracer()
    cp = count_pass(cls, seed, tracer, trace_setup=True)
    rss_after = _peak_rss_mb()
    counts = cp["counts"]
    other = counts_in_child(cls.name, seed)
    differ = sorted(k for k in counts if counts[k] != other.get(k))
    if differ:
        raise Incorrect(f"deterministic counts differ between two same-seed runs: {differ}")

    traced = cp["samples"]
    values = {k: v for k, v in counts.items() if k != "digest"}
    counted = set(values)
    values.update(layer_times(tracer, len(traced), counts["deltaflow.deltas"]))
    values.update(untraced)
    values.update({
        "overhead.setup_s": cp["setup0"] - statistics.median(run["setup_times"]),
        "overhead.latency_ms.p50":
            _stratified_median(traced, lambda s: s.ms) - e2e["latency_ms.p50"],
        "overhead.peak_rss_mb": rss_after - rss_before,
    })
    print(f"# count pass: {len(traced)} traced ops; a second process with another "
          f"hash seed produced identical counts (digest {counts['digest']})")
    return values, counted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--counts-only", action="store_true",
                    help="run only the count pass and print its counts as JSON")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if _import_package() is None:
        print(f"cannot import incropt from {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Incorrect

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.counts_only:
        print(json.dumps(count_pass(cls, args.seed, Tracer(), trace_setup=False)["counts"]))
        return 0
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = specs["per_layer" if args.trace else "end_to_end"]

    attempted, failed = 1, 0
    try:
        run = timed_run(cls, args.seed, args.seconds)
        attempted, failed = len(run["samples"]), run["failed"]
        print(f"# {cls.name} seed={args.seed}: closed loop, one caller, "
              f"{attempted} ops over {cls.queries} queries")
        for line in report_lines(cls, run):
            print(line)
        values = end_to_end(run)
        if args.trace:
            values, counted = traced_figures(cls, args.seed, run, values)
            for title, deterministic in (("deterministic counts", True),
                                         ("times, shares and overheads", False)):
                print(f"# {title}")
                for s in specs:
                    if (s["name"] in counted) == deterministic:
                        print(f"{s['name']} = {values[s['name']]} {s['unit']}")
    except Incorrect as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        _emit(specs, {s["name"]: 0 for s in specs}, False, attempted, failed)
        return 1
    _emit(specs, values, True, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: optimize / reoptimize / bench / verify.

Exit codes: 0 success; 1 parse/validation/state errors (a state that fails
``verify --audit-state`` included); 2 infeasible query; 3 verification
mismatch.  All commands are deterministic; bench and verify
draw their workloads from --seed (INCROPT_SEED overrides it); bench omits
wall-clock columns unless --timing is given so identical seeds produce
byte-identical CSV.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .algebra import Query, load_query
from .baselines import brute_force_optimize, systemr_optimize, volcano_optimize
from .catalog import Catalog, apply_update, load_catalog, load_updates
from .costmodel import CostConfig
from .errors import (
    IncroptError, InfeasibleQuery, ParseError, StateMismatch, ValidationError,
)
from .incremental import ReoptSession
from .optimizer import STRATEGY_SUBSETS, DeclarativeOptimizer, Strategies, _first_difference
from .plan import require_finite
from .workload import SHAPES, make_update_batch, make_workload

SCHEMA_VERSION = 1

_BENCH_COLUMNS = [
    "engine", "shape", "n_rels", "seed", "trial", "query",
    "total_or", "total_and", "visible_or", "visible_and",
    "pruning_ratio_or", "pruning_ratio_and",
    "touched_or", "touched_and", "update_ratio_or", "update_ratio_and",
    "plan_changed",
]
_TIMING_COLUMNS = ["wall_ms_opt", "wall_ms_reopt"]

ENGINES = ("declarative", "volcano", "systemr", "oracle")


def _seed_from(args) -> int:
    env = os.environ.get("INCROPT_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_counts(args) -> None:
    """Reject a negative --trials or --updates-per-trial."""
    for flag in ("--trials", "--updates-per-trial"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 0:
            raise ValidationError(f"{flag} must be at least 0, got {value}")


def _load_inputs(args) -> tuple[Catalog, Query, CostConfig]:
    cat = load_catalog(args.catalog)
    query = load_query(args.query, cat)
    config = CostConfig.load(args.cost_config) if args.cost_config else CostConfig()
    return cat, query, config


def _run_engine(engine: str, cat: Catalog, query: Query, config: CostConfig,
                strategies: Strategies):
    """Returns (plan, metrics_dict, optimizer_or_None)."""
    if engine in ("oracle", "systemr"):
        optimize = brute_force_optimize if engine == "oracle" else systemr_optimize
        plan, m = optimize(query, cat, config=config)
        base = m.to_dict()
        base.update({"engine": engine, "pruning_ratio_or": 0.0,
                     "pruning_ratio_and": 0.0, "best_cost": plan.cost})
        return plan, base, None
    if engine == "volcano":
        plan, m = volcano_optimize(query, cat, config=config)
        total_or = max(m.visited_or, 1)
        total_and = max(m.visited_and + m.pruned_and, 1)
        base = m.to_dict()
        base.update({"engine": engine,
                     "pruning_ratio_or": m.pruned_or / total_or,
                     "pruning_ratio_and": m.pruned_and / total_and,
                     "best_cost": plan.cost})
        return plan, base, None
    if engine == "declarative":
        start = time.perf_counter()
        opt = DeclarativeOptimizer(cat, query, strategies=strategies,
                                   config=config).run()
        wall = (time.perf_counter() - start) * 1000.0
        plan = opt.best_plan()
        total_or, total_and = opt.universe.totals()
        vis_or, vis_and = opt.visible_counts()
        base = {
            "engine": engine, "strategies": strategies.to_list(),
            "total_or": total_or, "total_and": total_and,
            "visible_or": vis_or, "visible_and": vis_and,
            "pruning_ratio_or": 1.0 - vis_or / total_or if total_or else 0.0,
            "pruning_ratio_and": 1.0 - vis_and / total_and if total_and else 0.0,
            "processed_deltas": opt.engine.processed,
            "deltas_by_rule": opt.deltas_by_rule(),
            "wall_time_ms": wall, "best_cost": plan.cost,
        }
        return plan, base, opt
    raise ValidationError(f"unknown engine {engine!r}")


def cmd_optimize(args) -> int:
    cat, query, config = _load_inputs(args)
    strategies = Strategies.parse(args.strategies) if args.strategies else Strategies.all()
    plan, metrics, opt = _run_engine(args.engine, cat, query, config, strategies)
    require_finite(plan)  # before any plan or state is written
    if args.emit_plan:
        _write_json(args.emit_plan, plan.to_dict())
    if args.metrics:
        _write_json(args.metrics, metrics)
    if args.save_state:
        if opt is None:
            raise ValidationError("--save-state requires --engine declarative")
        _write_json(args.save_state, opt.to_snapshot())
    print(f"optimize engine={args.engine} best_cost={plan.cost!r}")
    return 0


def _read_state(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateMismatch(f"corrupted state snapshot: {exc}") from exc


def cmd_reoptimize(args) -> int:
    opt = DeclarativeOptimizer.from_snapshot(_read_state(args.state))
    if args.catalog and load_catalog(args.catalog).content_hash() != opt.catalog.content_hash():
        raise StateMismatch("state snapshot was built against a different catalog")
    session = ReoptSession(opt)
    session.add_updates(load_updates(args.updates))
    plan, metrics = session.reoptimize()  # rejects an overflowed plan itself
    if args.emit_plan:
        _write_json(args.emit_plan, plan.to_dict())
    if args.metrics:
        _write_json(args.metrics, metrics.to_dict())
    if args.save_state:
        _write_json(args.save_state, opt.to_snapshot())
    print(f"reoptimize plan_changed={metrics.plan_changed} "
          f"touched_and={metrics.touched_and} touched_or={metrics.touched_or} "
          f"best_cost={plan.cost!r}")
    return 0


def _bench_plan(args) -> tuple[list[str], list[int], list[str], Strategies]:
    """Parse and check the sweep flags before any output is written."""
    def names(flag: str, text: str, known) -> list[str]:
        items = [t for t in (t.strip() for t in text.split(",")) if t]
        for t in items:
            if t not in known:
                raise ValidationError(f"{flag} names unknown value {t!r}")
        return items

    shapes = names("--shapes", args.shapes, SHAPES)
    engines = names("--engines", args.engines, ENGINES)
    sizes = [t.strip() for t in args.sizes.split(",") if t.strip()]
    if not all(t.isdigit() and int(t) >= 1 for t in sizes):
        raise ValidationError(
            f"--sizes must be integers of at least 1, got {args.sizes!r}")
    try:
        strategies = (Strategies.parse(args.strategies)
                      if args.strategies else Strategies.all())
    except ValidationError as exc:
        raise ValidationError(f"--strategies: {exc}") from exc
    return shapes, [int(t) for t in sizes], engines, strategies


def _bench_rows(args, seed: int, sweep):
    shapes, sizes, engines, strategies = sweep
    for shape in shapes:
        for n in sizes:
            for trial in range(args.trials):
                trial_seed = seed + trial
                cat, query = make_workload(shape, n, trial_seed)
                batch = (make_update_batch(cat, args.updates_per_trial, trial_seed)
                         if args.updates_per_trial else [])
                for engine in engines:
                    row = {c: "" for c in _BENCH_COLUMNS + _TIMING_COLUMNS}
                    row.update({
                        "engine": engine, "shape": shape, "n_rels": n,
                        "seed": trial_seed, "trial": trial,
                        "query": "+".join(query.relations),
                    })
                    t0 = time.perf_counter()
                    plan, metrics, opt = _run_engine(engine, cat, query,
                                                     CostConfig(), strategies)
                    row["wall_ms_opt"] = f"{(time.perf_counter() - t0) * 1000.0:.3f}"
                    if engine == "declarative":
                        row.update({k: metrics[k] for k in (
                            "total_or", "total_and", "visible_or", "visible_and")})
                    else:
                        row.update({"total_or": metrics.get("visited_or", ""),
                                    "total_and": metrics.get("visited_and", ""),
                                    "visible_or": "", "visible_and": ""})
                    row["pruning_ratio_or"] = repr(metrics["pruning_ratio_or"])
                    row["pruning_ratio_and"] = repr(metrics["pruning_ratio_and"])
                    if engine == "declarative" and batch:
                        session = ReoptSession(opt)
                        session.add_updates(batch)
                        t1 = time.perf_counter()
                        _, rm = session.reoptimize()
                        row["wall_ms_reopt"] = f"{(time.perf_counter() - t1) * 1000.0:.3f}"
                        row.update({
                            "touched_or": rm.touched_or,
                            "touched_and": rm.touched_and,
                            "update_ratio_or": repr(rm.update_ratio_or),
                            "update_ratio_and": repr(rm.update_ratio_and),
                            "plan_changed": rm.plan_changed,
                        })
                    yield row


def cmd_bench(args) -> int:
    if args.schema_version:
        print(f"schema-version: {SCHEMA_VERSION}")
        return 0
    _require_counts(args)
    sweep = _bench_plan(args)
    seed = _seed_from(args)
    columns = _BENCH_COLUMNS + (_TIMING_COLUMNS if args.timing else [])
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write(f"# schema-version: {SCHEMA_VERSION}\n")
        writer = csv.DictWriter(out, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in _bench_rows(args, seed, sweep):
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return 0


def _verify_trial(shape: str, n: int, seed: int, k_updates: int,
                  fault_engine: str | None) -> list[str]:
    """Run the full equivalence suite on one workload; return mismatch notes."""
    cat, query = make_workload(shape, n, seed)
    problems: list[str] = []
    config = CostConfig()
    faulty = CostConfig(index_scan_surcharge=config.index_scan_surcharge + 1e-3)

    def cfg(engine: str) -> CostConfig:
        return faulty if fault_engine == engine else config

    oracle_plan, _ = brute_force_optimize(query, cat, config=cfg("oracle"))
    ref = oracle_plan.to_dict()
    sr_plan, _ = systemr_optimize(query, cat, config=cfg("systemr"))
    if sr_plan.to_dict() != ref:
        problems.append("systemr plan differs from oracle")
    vp, _ = volcano_optimize(query, cat, config=cfg("volcano"))
    if vp.to_dict() != ref:
        problems.append("volcano plan differs from oracle")
    for label, strategies in STRATEGY_SUBSETS.items():
        opt = DeclarativeOptimizer(cat, query, strategies=strategies,
                                   config=cfg("declarative")).run()
        if opt.best_plan().to_dict() != ref:
            problems.append(f"declarative[{label}] plan differs from oracle")
            break
    # incremental vs from-scratch on the updated catalog: the plan against
    # the oracle's, the whole state against install()'s
    batch = make_update_batch(cat, k_updates, seed)
    opt = DeclarativeOptimizer(cat, query, config=cfg("declarative")).run()
    session = ReoptSession(opt)
    session.add_updates(batch)
    new_plan, _ = session.reoptimize()
    new_cat = cat
    for u in batch:
        new_cat = apply_update(new_cat, u)
    fresh, _ = brute_force_optimize(query, new_cat, config=cfg("oracle"))
    if new_plan.to_dict() != fresh.to_dict():
        problems.append("incremental re-optimization differs from from-scratch")
    want = DeclarativeOptimizer(new_cat, query, config=cfg("declarative")).install()
    if opt.state_sha256() != want.state_sha256():
        problems.append("incremental state differs from install() on the updated catalog: "
                        + _first_difference(opt.state_digest(), want.state_digest()))
    return problems


def _audit_state(path: str) -> int:
    """Load a saved state and audit it by direct scan; any violation is a
    ``StateMismatch`` (exit 1)."""
    opt = DeclarativeOptimizer.from_snapshot(_read_state(path))
    problems = opt.audit_refcounts() + opt.audit_fixpoint() + opt.audit_costs()
    for problem in problems:
        print(f"verify: {problem}", file=sys.stderr)
    if problems:
        raise StateMismatch(f"state {path} fails {len(problems)} audit check(s)")
    print(f"verify: state {path} OK ({len(opt.groups)} groups audited)")
    return 0


def cmd_verify(args) -> int:
    if args.audit_state:
        return _audit_state(args.audit_state)
    _require_counts(args)
    if args.max_rels < 3:
        raise ValidationError(
            f"--max-rels must be at least 3 (the smallest verified size), "
            f"got {args.max_rels}")
    seed = _seed_from(args)
    if args.trials == 0:
        print("verify: warning: --trials 0, nothing checked", file=sys.stderr)
        return 0
    sizes = list(range(3, args.max_rels + 1))
    trial = 0
    checked = 0
    while checked < args.trials:
        shape = SHAPES[trial % len(SHAPES)]
        n = sizes[(trial // len(SHAPES)) % len(sizes)]
        trial_seed = seed + trial
        problems = _verify_trial(shape, n, trial_seed, args.updates_per_trial,
                                 args.inject_fault)
        if problems:
            cat, query = make_workload(shape, n, trial_seed)
            reproducer = {
                "shape": shape, "n_rels": n, "seed": trial_seed,
                "catalog": cat.to_dict(),
                "query": {"relations": list(query.relations),
                          "filters": [{"relation": r, "selectivity": s}
                                      for r, s in query.filters]},
                "updates": [{"kind": u.kind, "target": u.target, "factor": u.factor}
                            for u in make_update_batch(cat, args.updates_per_trial,
                                                       trial_seed)],
                "problems": problems,
            }
            path = args.reproducer_out or "incropt-reproducer.json"
            _write_json(path, reproducer)
            print(f"verify: MISMATCH on {shape}/{n} seed={trial_seed}: "
                  f"{'; '.join(problems)} (reproducer: {path})", file=sys.stderr)
            return 3
        trial += 1
        checked += 1
    print(f"verify: {checked} trials OK")
    return 0


def cmd_fixtures(args) -> int:
    from .fixtures import write_fixture_files
    for path in write_fixture_files(args.out):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incropt",
        description="Incrementally re-optimizable cost-based join-order optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize a query from scratch")
    p.add_argument("--catalog", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--engine", default="declarative", choices=ENGINES)
    p.add_argument("--strategies", default=None,
                   help="comma list from {aggsel,refcount,bounding}; bounding requires aggsel")
    p.add_argument("--cost-config", default=None)
    p.add_argument("--emit-plan", default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--save-state", default=None)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("reoptimize", help="incrementally re-optimize from saved state")
    p.add_argument("--state", required=True)
    p.add_argument("--updates", required=True)
    p.add_argument("--catalog", default=None,
                   help="optional catalog file; hash-checked against the state")
    p.add_argument("--emit-plan", default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--save-state", default=None)
    p.set_defaults(fn=cmd_reoptimize)

    p = sub.add_parser("bench", help="seeded workload sweep with CSV report")
    p.add_argument("--shapes", default="chain,star,clique")
    p.add_argument("--sizes", default="3,4,5")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engines", default="declarative,volcano,systemr,oracle")
    p.add_argument("--strategies", default=None)
    p.add_argument("--updates-per-trial", type=int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock columns (breaks byte-identical CSV)")
    p.add_argument("--schema-version", action="store_true",
                   help="print the CSV schema version and exit")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="oracle/engine/incremental equivalence suite")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rels", type=int, default=6)
    p.add_argument("--updates-per-trial", type=int, default=3)
    p.add_argument("--inject-fault", default=None, choices=ENGINES,
                   help="testing hook: perturb one engine's cost model")
    p.add_argument("--reproducer-out", default=None)
    p.add_argument("--audit-state", default=None, metavar="STATE",
                   help="instead of the trials, load a saved state and check its "
                        "refcounts, bounds and row costs against a direct scan")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fixtures", help="write the TPC-H-shaped fixture files")
    p.add_argument("--out", default="fixtures")
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InfeasibleQuery as exc:
        print(f"error: infeasible query: {exc}", file=sys.stderr)
        return 2
    except IncroptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

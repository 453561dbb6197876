from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from incropt.cli import SCHEMA_VERSION, main
from incropt.costmodel import BestCost
from incropt.fixtures import write_fixture_files
from incropt.optimizer import DeclarativeOptimizer
from incropt.workload import make_workload

from conftest import DIFFERS, LIVE_STATE_CORRUPTIONS, STATE_TAMPERS, as_version1


@pytest.fixture()
def fixture_files(tmp_path):
    write_fixture_files(str(tmp_path))
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_optimize_writes_plan_and_metrics(fixture_files, tmp_path):
    plan = tmp_path / "plan.json"
    metrics = tmp_path / "metrics.json"
    code = run("optimize",
               "--catalog", str(fixture_files / "q3s.catalog.json"),
               "--query", str(fixture_files / "q3s.query.json"),
               "--strategies", "aggsel,refcount,bounding",
               "--emit-plan", str(plan), "--metrics", str(metrics))
    assert code == 0
    tree = json.loads(plan.read_text())
    assert set(tree) == {"op", "phy_op", "expr", "prop", "cost", "summary_card", "children"}
    m = json.loads(metrics.read_text())
    assert m["engine"] == "declarative"
    assert 0.0 <= m["pruning_ratio_and"] <= 1.0
    assert sum(m["deltas_by_rule"].values()) == m["processed_deltas"] > 0


@pytest.mark.parametrize("engine", ["volcano", "systemr", "oracle"])
def test_optimize_other_engines(fixture_files, tmp_path, engine):
    plan = tmp_path / f"{engine}.json"
    code = run("optimize",
               "--catalog", str(fixture_files / "q3s.catalog.json"),
               "--query", str(fixture_files / "q3s.query.json"),
               "--engine", engine, "--emit-plan", str(plan))
    assert code == 0
    assert json.loads(plan.read_text())["cost"] > 0


def test_all_engines_agree_on_plan_files(fixture_files, tmp_path):
    costs = {}
    for engine in ("declarative", "volcano", "systemr", "oracle"):
        plan = tmp_path / f"{engine}.json"
        assert run("optimize",
                   "--catalog", str(fixture_files / "q5s.catalog.json"),
                   "--query", str(fixture_files / "q5s.query.json"),
                   "--engine", engine, "--emit-plan", str(plan)) == 0
        costs[engine] = json.loads(plan.read_text())
    assert len({json.dumps(v, sort_keys=True) for v in costs.values()}) == 1


def test_oracle_rejects_nine_relations(tmp_path):
    cat = {"relations": [{"name": f"R{i}", "cardinality": 10,
                          "attributes": ["x"]} for i in range(9)],
           "predicates": [{"left": f"R{i}.x", "right": f"R{i+1}.x",
                           "selectivity": 0.1} for i in range(8)]}
    (tmp_path / "cat.json").write_text(json.dumps(cat))
    (tmp_path / "q.json").write_text(json.dumps(
        {"relations": [f"R{i}" for i in range(9)]}))
    code = run("optimize", "--catalog", str(tmp_path / "cat.json"),
               "--query", str(tmp_path / "q.json"), "--engine", "oracle")
    assert code == 1


def test_bounding_without_aggsel_is_refused(fixture_files):
    code = run("optimize",
               "--catalog", str(fixture_files / "q3s.catalog.json"),
               "--query", str(fixture_files / "q3s.query.json"),
               "--strategies", "bounding")
    assert code == 1


@pytest.mark.parametrize("text", ["none", ""])
def test_optimize_selects_the_empty_strategy_subset(fixture_files, tmp_path, text):
    metrics = tmp_path / "metrics.json"
    assert run("optimize",
               "--catalog", str(fixture_files / "q3s.catalog.json"),
               "--query", str(fixture_files / "q3s.query.json"),
               "--strategies", text, "--metrics", str(metrics)) == 0
    m = json.loads(metrics.read_text())
    assert m["strategies"] == []
    assert m["visible_and"] == m["total_and"] and m["pruning_ratio_and"] == 0.0


def test_infeasible_query_exit_code(tmp_path):
    (tmp_path / "cat.json").write_text(json.dumps({
        "relations": [{"name": "A", "cardinality": 10, "attributes": ["x"]},
                      {"name": "B", "cardinality": 10, "attributes": ["x"]}],
        "predicates": []}))
    (tmp_path / "q.json").write_text(json.dumps({"relations": ["A", "B"]}))
    code = run("optimize", "--catalog", str(tmp_path / "cat.json"),
               "--query", str(tmp_path / "q.json"))
    assert code == 2


def test_parse_error_exit_code(tmp_path):
    (tmp_path / "cat.json").write_text("{broken")
    (tmp_path / "q.json").write_text("{}")
    code = run("optimize", "--catalog", str(tmp_path / "cat.json"),
               "--query", str(tmp_path / "q.json"))
    assert code == 1


def _save_state(fixture_files, tmp_path, name="q5s"):
    state = tmp_path / "state.json"
    assert run("optimize",
               "--catalog", str(fixture_files / f"{name}.catalog.json"),
               "--query", str(fixture_files / f"{name}.query.json"),
               "--save-state", str(state)) == 0
    return state


def test_reoptimize_roundtrip(fixture_files, tmp_path):
    state = _save_state(fixture_files, tmp_path)
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([
        {"kind": "scan_cost", "target": "lineitem", "factor": 8.0}]))
    plan = tmp_path / "plan.json"
    metrics = tmp_path / "metrics.json"
    code = run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--catalog", str(fixture_files / "q5s.catalog.json"),
               "--emit-plan", str(plan), "--metrics", str(metrics))
    assert code == 0
    m = json.loads(metrics.read_text())
    assert m["update_ratio_and"] < 1.0
    assert m["touched_and"] > 0
    assert m["deltas_by_rule"]["recost"] > 0


def test_reoptimize_identity_updates(fixture_files, tmp_path):
    state = _save_state(fixture_files, tmp_path)
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([
        {"kind": "scan_cost", "target": "lineitem", "factor": 1.0}]))
    metrics = tmp_path / "metrics.json"
    code = run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--metrics", str(metrics))
    assert code == 0
    m = json.loads(metrics.read_text())
    assert m["plan_changed"] is False
    assert m["update_ratio_and"] == 0.0 and m["update_ratio_or"] == 0.0


def test_reoptimize_catalog_hash_mismatch(fixture_files, tmp_path):
    state = _save_state(fixture_files, tmp_path)
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([]))
    code = run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--catalog", str(fixture_files / "q3s.catalog.json"))
    assert code == 1


def test_reoptimize_corrupted_state(fixture_files, tmp_path):
    state = _save_state(fixture_files, tmp_path)
    snap = json.loads(state.read_text())
    snap["catalog"]["relations"][0]["cardinality"] = 999.0
    state.write_text(json.dumps(snap))
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([]))
    assert run("reoptimize", "--state", str(state), "--updates", str(updates)) == 1
    state.write_text("{truncated")
    assert run("reoptimize", "--state", str(state), "--updates", str(updates)) == 1


def test_reoptimize_tampered_best_exits_1(fixture_files, tmp_path, capsys, state_tamper):
    state = _save_state(fixture_files, tmp_path, name="q3s")
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([
        {"kind": "scan_cost", "target": "lineitem", "factor": 2.0}]))
    assert run("reoptimize", "--state", str(state), "--updates", str(updates)) == 0
    snap = as_version1(json.loads(state.read_text()))
    tamper, message = state_tamper
    tamper(snap)
    state.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run("reoptimize", "--state", str(state), "--updates", str(updates)) == 1
    assert message in capsys.readouterr().err


GOLDEN_STATE = Path(__file__).resolve().parent / "data" / "q5s_reoptimized.state.json"


def test_reoptimized_q5s_state_matches_the_golden_file(fixture_files, tmp_path):
    """optimize q5s under every strategy, then reoptimize it with a
    join-selectivity and a scan-cost update: the saved state is the
    committed file byte for byte, and that file loads and saves unchanged."""
    state, resumed = tmp_path / "state.json", tmp_path / "resumed.json"
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([
        {"kind": "join_selectivity", "target": "orders.o_orderkey=lineitem.l_orderkey",
         "factor": 0.125},
        {"kind": "scan_cost", "target": "lineitem", "factor": 8.0}]))
    assert run("optimize",
               "--catalog", str(fixture_files / "q5s.catalog.json"),
               "--query", str(fixture_files / "q5s.query.json"),
               "--strategies", "aggsel,refcount,bounding",
               "--save-state", str(state)) == 0
    assert run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--save-state", str(resumed)) == 0
    golden = GOLDEN_STATE.read_text()
    assert resumed.read_text() == golden
    back = DeclarativeOptimizer.from_snapshot(json.loads(golden))
    assert json.dumps(back.to_snapshot(), indent=2, sort_keys=True) + "\n" == golden


FULL_ROWS_STATE = GOLDEN_STATE.with_name("q5s_reoptimized.full_rows.state.json")
SPARSE_ROWS_STATE = GOLDEN_STATE.with_name("q5s_reoptimized.sparse_rows.state.json")


def test_full_row_state_loads_and_resaves_sparse():
    """The golden state as two version-1 files, saved when every row was
    listed (dead groups' empty rows included) and when only rows with state
    were: each loads to the same state, passes all three audits, and saves
    as the version-2 golden file byte for byte."""
    full = json.loads(FULL_ROWS_STATE.read_text())
    assert any(r["cost"] is None for g in full["groups"] for r in g["rows"])
    for path in (FULL_ROWS_STATE, SPARSE_ROWS_STATE):
        snap = json.loads(path.read_text())
        assert snap["version"] == 1
        back = DeclarativeOptimizer.from_snapshot(snap)
        assert back.audit_refcounts() == [], path.name
        assert back.audit_fixpoint() == [], path.name
        assert back.audit_costs() == [], path.name
        text = json.dumps(back.to_snapshot(), indent=2, sort_keys=True) + "\n"
        assert text == GOLDEN_STATE.read_text(), path.name


# state files whose header is malformed: each exits 1 naming the field, with
# no traceback, from both commands that read a state
_MALFORMED_STATES = {
    "root-array": (lambda snap: [snap], "state snapshot must be a JSON object"),
    "root-string": (lambda snap: "incropt-state", "state snapshot must be a JSON object"),
    "version-99": (lambda snap: dict(snap, version=99), "'version' must be 1 or 2, got 99"),
    "version-banana": (lambda snap: dict(snap, version="banana"),
                       "'version' must be 1 or 2, got \"banana\""),
    "version-2.0": (lambda snap: dict(snap, version=2.0), "'version' must be 1 or 2, got 2.0"),
    "version-true": (lambda snap: dict(snap, version=True), "'version' must be 1 or 2, got true"),
    "version-missing": (lambda snap: {k: v for k, v in snap.items() if k != "version"},
                        "'version' must be 1 or 2, got null"),
    "version-1-without-groups": (lambda snap: dict(snap, version=1),
                                 "version-1 state snapshot has no 'groups'"),
    "version-2-without-state-sha256": (
        lambda snap: {k: v for k, v in snap.items() if k != "state_sha256"},
        "version-2 state snapshot has no 'state_sha256'"),
    "strategies-string": (lambda snap: dict(snap, strategies="aggsel"),
                          "'strategies' must be a JSON array, got \"aggsel\""),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_STATES))
def test_malformed_state_header_exits_1(case, fixture_files, tmp_path, capsys):
    state = _save_state(fixture_files, tmp_path)
    edit, message = _MALFORMED_STATES[case]
    state.write_text(json.dumps(edit(json.loads(state.read_text()))))
    updates = tmp_path / "updates.json"
    updates.write_text("[]")
    capsys.readouterr()
    for argv in (("reoptimize", "--state", str(state), "--updates", str(updates)),
                 ("verify", "--audit-state", str(state))):
        assert message in _assert_clean_exit_1(run(*argv), capsys), argv


def test_array_wrapped_clique8_state_prints_one_short_error_line(tmp_path, capsys):
    """An error names the JSON type it found, never the value: a version-1
    clique-8 state (about 140 KB) wrapped in an array gets one short line."""
    cat, q = make_workload("clique", 8, 7)
    snap = as_version1(DeclarativeOptimizer(cat, q).run().to_snapshot())
    state = tmp_path / "state.json"
    state.write_text(json.dumps([snap], indent=2))
    assert state.stat().st_size > 100_000
    capsys.readouterr()
    err = _assert_clean_exit_1(run("verify", "--audit-state", str(state)), capsys)
    assert err.count("\n") == 1 and len(err) < 200, err[:300]
    assert "state snapshot must be a JSON object, got an array" in err


def _set_first_relation(key, value):
    def edit(cat: dict) -> None:
        cat["relations"][0][key] = value
    return edit


# inputs holding a number that is not finite or out of range: each makes the
# command exit 1 with an ``error:`` line, never a traceback or a NaN plan
_BAD_CATALOGS = {
    "cardinality-nan": _set_first_relation("cardinality", float("nan")),
    "cardinality-inf": _set_first_relation("cardinality", float("inf")),
    "scan-cost-factor-nan": _set_first_relation("scan_cost_factor", float("nan")),
    "scan-cost-factor-inf": _set_first_relation("scan_cost_factor", float("inf")),
}
_BAD_COST_CONFIGS = {
    "inlj-log-base-1": {"inlj_log_base": 1.0},
    "inlj-log-base-nan": {"inlj_log_base": float("nan")},
    "surcharge-negative": {"index_scan_surcharge": -5},
    "surcharge-inf": {"index_scan_surcharge": float("inf")},
}
_BAD_UPDATES = {
    "factor-nan": [{"kind": "scan_cost", "target": "lineitem", "factor": float("nan")}],
    "factor-inf": [{"kind": "join_selectivity",
                    "target": "orders.o_orderkey=lineitem.l_orderkey",
                    "factor": float("inf")}],
    "folds-to-inf": [{"kind": "scan_cost", "target": "lineitem", "factor": 1e308}] * 2,
    "cost-overflows": [{"kind": "scan_cost", "target": "lineitem", "factor": 1e308}],
}


def _assert_clean_exit_1(code, capsys) -> str:
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("case", sorted(_BAD_CATALOGS))
def test_optimize_rejects_a_non_finite_catalog_number(case, fixture_files, capsys):
    path = fixture_files / "q5s.catalog.json"
    cat = json.loads(path.read_text())
    _BAD_CATALOGS[case](cat)
    path.write_text(json.dumps(cat))
    code = run("optimize", "--catalog", str(path),
               "--query", str(fixture_files / "q5s.query.json"))
    assert "finite" in _assert_clean_exit_1(code, capsys)


@pytest.mark.parametrize("case", sorted(_BAD_COST_CONFIGS))
def test_optimize_rejects_a_bad_cost_config(case, fixture_files, tmp_path, capsys):
    config = tmp_path / "cost.json"
    config.write_text(json.dumps(_BAD_COST_CONFIGS[case]))
    code = run("optimize", "--catalog", str(fixture_files / "q5s.catalog.json"),
               "--query", str(fixture_files / "q5s.query.json"),
               "--cost-config", str(config))
    assert "cost config" in _assert_clean_exit_1(code, capsys)


@pytest.mark.parametrize("case", sorted(_BAD_UPDATES))
def test_reoptimize_rejects_a_non_finite_update(case, fixture_files, tmp_path, capsys):
    state = _save_state(fixture_files, tmp_path)
    saved = state.read_text()
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps(_BAD_UPDATES[case]))
    capsys.readouterr()
    code = run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--save-state", str(state))
    assert "finite" in _assert_clean_exit_1(code, capsys)
    assert state.read_text() == saved


def _set_entry(key, value):
    def edit(data: dict) -> None:
        data[key] = [value] + list(data.get(key, []))[1:]
    return edit


def _set_field(key, field, value):
    def edit(data: dict) -> None:
        data[key][0][field] = value
    return edit


# an entry that is not a JSON object, or a name, attribute or relation that
# is not a JSON string or an array of them, where one is expected: (file
# edited, edit, the text the error line must name)
_NON_OBJECT_INPUTS = {
    "relation-entry": ("catalog", _set_entry("relations", 5),
                       "relation entry 0 must be a JSON object, got a number"),
    "predicate-entry": ("catalog", _set_entry("predicates", "x"),
                        "predicate entry 0 must be a JSON object, got a string"),
    "query-filter": ("query", _set_entry("filters", 5),
                     "query filter entry 0 must be a JSON object, got a number"),
    "attributes-string": ("catalog", _set_field("relations", "attributes", "c_custkey"),
                          "relation entry 0 'attributes' must be a JSON array, got a string"),
    "indexed-on-nested": ("catalog", _set_field("relations", "indexed_on", [["x"]]),
                          "'indexed_on' entry 0 must be a JSON string, got an array"),
    "sorted-on-array": ("catalog", _set_field("relations", "sorted_on", ["x"]),
                        "'sorted_on' must be a JSON string, got an array"),
    "name-number": ("catalog", _set_field("relations", "name", 5),
                    "relation entry 0 'name' must be a JSON string, got a number"),
    "predicate-left": ("catalog", _set_field("predicates", "left", 5),
                       "predicate entry 0 'left' must be a JSON string, got a number"),
    "query-relation": ("query", _set_entry("relations", ["customer"]),
                       "query 'relations' entry 0 must be a JSON string, got an array"),
    "filter-relation": ("query", _set_field("filters", "relation", None),
                        "filter entry 0 'relation' must be a JSON string, got null"),
}


@pytest.mark.parametrize("case", sorted(_NON_OBJECT_INPUTS))
def test_optimize_rejects_a_non_object_entry(case, fixture_files, capsys):
    which, edit, named = _NON_OBJECT_INPUTS[case]
    path = fixture_files / f"q5s.{which}.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = run("optimize", "--catalog", str(fixture_files / "q5s.catalog.json"),
               "--query", str(fixture_files / "q5s.query.json"))
    assert named in _assert_clean_exit_1(code, capsys)


# an update field that is not a JSON string: field -> (value, the text the
# error line must name)
_NON_STRING_UPDATES = {
    "target": (5, "update entry 0 'target' must be a JSON string, got a number"),
    "kind": (["scan_cost"], "update entry 0 'kind' must be a JSON string, got an array"),
}


@pytest.mark.parametrize("field", sorted(_NON_STRING_UPDATES))
def test_reoptimize_rejects_a_non_string_update_field(field, fixture_files, tmp_path, capsys):
    value, named = _NON_STRING_UPDATES[field]
    state = _save_state(fixture_files, tmp_path, "q3s")
    saved = state.read_text()
    update = {"kind": "join_selectivity", "target": "orders.o_orderkey=lineitem.l_orderkey",
              "factor": 2.0, field: value}
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([update]))
    capsys.readouterr()
    code = run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--save-state", str(state))
    assert named in _assert_clean_exit_1(code, capsys)
    assert state.read_text() == saved


def test_optimize_rejects_a_non_object_cost_config(fixture_files, tmp_path, capsys):
    config = tmp_path / "cost.json"
    config.write_text("5")
    code = run("optimize", "--catalog", str(fixture_files / "q5s.catalog.json"),
               "--query", str(fixture_files / "q5s.query.json"),
               "--cost-config", str(config))
    assert "cost config must be a JSON object" in _assert_clean_exit_1(code, capsys)


def test_reoptimize_rejects_a_non_object_update(fixture_files, tmp_path, capsys):
    state = _save_state(fixture_files, tmp_path)
    saved = state.read_text()
    updates = tmp_path / "updates.json"
    updates.write_text("[5]")
    capsys.readouterr()
    code = run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--save-state", str(state))
    assert "update entry 0 must be a JSON object" in _assert_clean_exit_1(code, capsys)
    assert state.read_text() == saved


def test_optimize_has_no_seed_flag(fixture_files):
    assert run("optimize",
               "--catalog", str(fixture_files / "q3s.catalog.json"),
               "--query", str(fixture_files / "q3s.query.json"),
               "--seed", "1") == 1


def test_bench_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--shapes", "chain,star", "--sizes", "3,4", "--trials", "2",
            "--seed", "9"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()
    assert header[0] == f"# schema-version: {SCHEMA_VERSION}"
    assert header[1].startswith("engine,shape,n_rels,seed,")


def test_bench_oracle_rows_have_zero_pruning(tmp_path):
    out = tmp_path / "o.csv"
    assert run("bench", "--shapes", "chain", "--sizes", "4", "--trials", "2",
               "--engines", "oracle", "--seed", "3", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    header = out.read_text().splitlines()[1].split(",")
    i_or = header.index("pruning_ratio_or")
    i_and = header.index("pruning_ratio_and")
    for row in rows:
        assert float(row[i_or]) == 0.0 and float(row[i_and]) == 0.0


@pytest.mark.parametrize("text", ["none", ""])
def test_bench_selects_the_empty_strategy_subset(tmp_path, text):
    out = tmp_path / "d.csv"
    assert run("bench", "--shapes", "chain", "--sizes", "5", "--trials", "2",
               "--engines", "declarative", "--strategies", text, "--seed", "1",
               "--out", str(out)) == 0
    header, *rows = out.read_text().splitlines()[1:]
    i_and = header.split(",").index("pruning_ratio_and")
    assert rows
    for row in rows:
        assert float(row.split(",")[i_and]) == 0.0


def test_bench_declarative_prunes_on_chain_sweep(tmp_path):
    out = tmp_path / "d.csv"
    assert run("bench", "--shapes", "chain", "--sizes", "5", "--trials", "3",
               "--engines", "declarative", "--seed", "1", "--out", str(out)) == 0
    header, *rows = out.read_text().splitlines()[1:]
    cols = header.split(",")
    i_and = cols.index("pruning_ratio_and")
    for row in rows:
        assert float(row.split(",")[i_and]) > 0.0


def test_bench_schema_version_flag(capsys):
    assert run("bench", "--schema-version") == 0
    assert f"schema-version: {SCHEMA_VERSION}" in capsys.readouterr().out


def test_env_seed_override(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("INCROPT_SEED", "123")
    assert run("bench", "--shapes", "chain", "--sizes", "3", "--trials", "1",
               "--seed", "0", "--out", str(a)) == 0
    monkeypatch.delenv("INCROPT_SEED")
    assert run("bench", "--shapes", "chain", "--sizes", "3", "--trials", "1",
               "--seed", "123", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_clean_run():
    assert run("verify", "--trials", "6", "--seed", "0") == 0


def test_verify_checks_the_whole_state_after_a_batch(monkeypatch, tmp_path, capsys):
    """An invalidation that skips one reached group leaves a stale value
    that the plan check alone does not see on chain/3 seed 0; the check of
    ``state_sha256`` against ``install()`` names the first differing group
    and exits 3."""
    reached = BestCost.reached
    monkeypatch.setattr(BestCost, "reached", lambda dp, t: reached(dp, t)[1:])
    repro = tmp_path / "repro.json"
    assert run("verify", "--trials", "1", "--seed", "0",
               "--reproducer-out", str(repro)) == 3
    problems = json.loads(repro.read_text())["problems"]
    assert len(problems) == 1
    assert problems[0].startswith("incremental state differs from install()")
    assert "snapshot group (R0,R1,R2)|none has rows[0]" in problems[0]
    assert "MISMATCH on chain/3 seed=0" in capsys.readouterr().err


def test_verify_zero_trials_warns(capsys):
    assert run("verify", "--trials", "0") == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["declarative", "volcano", "systemr", "oracle"])
def test_verify_detects_injected_fault(engine, tmp_path):
    repro = tmp_path / "repro.json"
    code = run("verify", "--trials", "3", "--seed", "0",
               "--inject-fault", engine, "--reproducer-out", str(repro))
    assert code == 3
    dump = json.loads(repro.read_text())
    assert dump["problems"]
    assert "catalog" in dump and "query" in dump


@pytest.mark.parametrize("args", [
    ("verify", "--max-rels", "2"),
    ("verify", "--trials", "-1"),
    ("verify", "--updates-per-trial", "-1"),
])
def test_verify_rejects_bad_counts(args, capsys):
    assert run(*args) == 1
    err = capsys.readouterr()
    assert err.err.startswith("error: ") and "Traceback" not in err.err
    assert "trials OK" not in err.out


@pytest.mark.parametrize("flag", ["--trials", "--updates-per-trial"])
def test_bench_rejects_negative_counts(flag, tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run("bench", "--shapes", "chain", "--sizes", "3", flag, "-2",
               "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be at least 0")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--shapes", "bogus"), ("--engines", "bogus"), ("--strategies", "bogus"),
    ("--sizes", "0"), ("--sizes", "x"),
])
def test_bench_rejects_bad_sweep_flags(flag, value, tmp_path, capsys):
    # every sweep flag is checked before the CSV is opened
    out = tmp_path / "b.csv"
    args = {"--shapes": "chain", "--sizes": "3", "--engines": "declarative",
            "--trials": "1"}
    args[flag] = value
    argv = [x for kv in args.items() for x in kv]
    assert run("bench", *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert not out.exists()


def test_bench_rejects_an_oracle_sweep_past_its_budget(tmp_path, capsys):
    # the default engines include the oracle, whose budget is 8 relations;
    # the sweep is refused before the CSV is opened, not after its first rows
    out = tmp_path / "b.csv"
    assert run("bench", "--shapes", "chain", "--sizes", "9", "--trials", "1",
               "--updates-per-trial", "0", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --sizes") and "--engines" in err
    assert not out.exists()


def test_module_entry_point_smoke(fixture_files, tmp_path):
    """``python -m incropt`` end to end in a child process: optimize and save,
    reoptimize the saved state and save again, reoptimize that state; a
    malformed updates file exits 1."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "incropt", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    cat = str(fixture_files / "q5s.catalog.json")
    state, resumed = tmp_path / "state.json", tmp_path / "resumed.json"
    metrics, updates = tmp_path / "metrics.json", tmp_path / "updates.json"
    updates.write_text(json.dumps([
        {"kind": "scan_cost", "target": "lineitem", "factor": 8.0}]))
    done = cli("optimize", "--catalog", cat,
               "--query", str(fixture_files / "q5s.query.json"),
               "--save-state", str(state))
    assert done.returncode == 0, done.stderr
    done = cli("reoptimize", "--state", str(state), "--updates", str(updates),
               "--save-state", str(resumed), "--metrics", str(metrics))
    assert done.returncode == 0, done.stderr
    assert json.loads(metrics.read_text())["deltas_by_rule"]["recost"] > 0
    done = cli("reoptimize", "--state", str(resumed), "--updates", str(updates))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("reoptimize ")
    updates.write_text('[{"kind": "scan_cost", "target": "lineitem"')
    done = cli("reoptimize", "--state", str(resumed), "--updates", str(updates))
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


def test_verify_audit_state_accepts_saved_states(fixture_files, tmp_path, capsys):
    state = _save_state(fixture_files, tmp_path)
    resumed = tmp_path / "resumed.json"
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps([
        {"kind": "join_selectivity", "target": "orders.o_orderkey=lineitem.l_orderkey",
         "factor": 0.125},
        {"kind": "scan_cost", "target": "lineitem", "factor": 8.0}]))
    assert run("reoptimize", "--state", str(state), "--updates", str(updates),
               "--save-state", str(resumed)) == 0
    for path in (state, resumed):
        capsys.readouterr()
        assert run("verify", "--audit-state", str(path)) == 0
        assert "OK" in capsys.readouterr().out


def test_verify_audit_state_rejects_a_tampered_row_cost(fixture_files, tmp_path, capsys):
    """A non-best row cost tripled stays above the group minimum, yet the
    saved state no longer equals the installed one, so the state does not
    load and the audit exits 1: a version-1 file names the row, a version-2
    file saved from the live state names its ``state_sha256``.  The
    row-cost audit itself still reports such a row in a live optimizer,
    and only that row."""
    state = _save_state(fixture_files, tmp_path)
    snap = json.loads(state.read_text())
    opt = DeclarativeOptimizer.from_snapshot(json.loads(json.dumps(snap)))
    gs = opt.groups[opt.root_id]
    pos = next(p for p in range(len(opt.universe.group_alts[opt.root_id]))
               if p != gs.mins.min_of()[1])
    gs.mins.update({pos: gs.mins.cost_of(pos) * 3})
    assert opt.audit_refcounts() == [] and opt.audit_fixpoint() == []
    problems = opt.audit_costs()
    assert len(problems) == 1 and "cost" in problems[0]
    state.write_text(json.dumps(opt.to_snapshot()))
    capsys.readouterr()
    assert run("verify", "--audit-state", str(state)) == 1
    err = capsys.readouterr().err
    assert "state_sha256" in err and DIFFERS in err
    snap = as_version1(snap)
    STATE_TAMPERS["non-best-row-x3"][0](snap)
    state.write_text(json.dumps(snap))
    assert run("verify", "--audit-state", str(state)) == 1
    err = capsys.readouterr().err
    assert "rows[" in err and "cost" in err


@pytest.mark.parametrize("corruption", sorted(LIVE_STATE_CORRUPTIONS))
def test_a_corrupted_live_state_saved_as_version2_exits_1(corruption, fixture_files,
                                                          tmp_path, capsys):
    """The row-cost corruption above, extended to the refcount, alive, bound
    and visibility fields: each state fails to load in both commands."""
    state = _save_state(fixture_files, tmp_path)
    opt = DeclarativeOptimizer.from_snapshot(json.loads(state.read_text()))
    LIVE_STATE_CORRUPTIONS[corruption](opt)
    state.write_text(json.dumps(opt.to_snapshot()))
    updates = tmp_path / "updates.json"
    updates.write_text("[]")
    capsys.readouterr()
    for argv in (("reoptimize", "--state", str(state), "--updates", str(updates)),
                 ("verify", "--audit-state", str(state))):
        err = _assert_clean_exit_1(run(*argv), capsys)
        assert "state_sha256" in err and DIFFERS in err, argv


def test_verify_audit_state_rejects_unloadable_states(fixture_files, tmp_path,
                                                      capsys, state_tamper):
    state = _save_state(fixture_files, tmp_path)
    snap = as_version1(json.loads(state.read_text()))
    tamper, message = state_tamper
    tamper(snap)
    state.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run("verify", "--audit-state", str(state)) == 1
    assert message in capsys.readouterr().err
    state.write_text("{truncated")
    assert run("verify", "--audit-state", str(state)) == 1
    assert run("verify", "--audit-state", str(tmp_path / "missing.json")) == 1

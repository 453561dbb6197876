from __future__ import annotations

import copy
import json
import math
import pickle
from dataclasses import replace

import pytest

from incropt.catalog import (
    StatUpdate, apply_update, catalog_from_dict, load_catalog, load_updates,
)
from incropt.errors import ParseError, UnknownTarget, ValidationError

THREE_REL = {
    "relations": [
        {"name": "C", "cardinality": 1500, "attributes": ["ck"], "indexed_on": ["ck"],
         "sorted_on": None, "scan_cost_factor": 1.0},
        {"name": "O", "cardinality": 15000, "attributes": ["ok", "ck"],
         "indexed_on": ["ok"], "sorted_on": None, "scan_cost_factor": 1.0},
        {"name": "L", "cardinality": 60000, "attributes": ["ok"], "indexed_on": ["ok"],
         "sorted_on": "ok", "scan_cost_factor": 1.0},
    ],
    "predicates": [
        {"left": "C.ck", "right": "O.ck", "selectivity": 0.001},
        {"left": "O.ok", "right": "L.ok", "selectivity": 0.0001},
    ],
}


def test_load_roundtrip(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(THREE_REL))
    cat = load_catalog(str(path))
    assert len(cat.relations) == 3
    assert len(cat.predicates) == 2
    # re-serialization identity
    assert catalog_from_dict(cat.to_dict()) == cat


def test_load_deterministic(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(THREE_REL))
    assert load_catalog(str(path)) == load_catalog(str(path))
    assert load_catalog(str(path)).content_hash() == load_catalog(str(path)).content_hash()


def test_empty_relations_rejected():
    with pytest.raises(ValidationError):
        catalog_from_dict({"relations": [], "predicates": []})


def test_dangling_predicate_rejected():
    data = json.loads(json.dumps(THREE_REL))
    data["predicates"].append({"left": "X.a", "right": "C.ck", "selectivity": 0.5})
    with pytest.raises(ValidationError):
        catalog_from_dict(data)


def test_unknown_keys_rejected():
    data = json.loads(json.dumps(THREE_REL))
    data["relations"][0]["rows"] = 12
    with pytest.raises(ParseError):
        catalog_from_dict(data)
    data = json.loads(json.dumps(THREE_REL))
    data["extra"] = True
    with pytest.raises(ParseError):
        catalog_from_dict(data)


_JSON_TYPES = [(list(range(50_000)), "an array"), ({"C": 1}, "an object"),
               ("C" * 50_000, "a string"), (7, "a number"), (2.5, "a number"),
               (True, "a boolean"), (None, "null")]


@pytest.mark.parametrize("value, found", _JSON_TYPES)
def test_shape_errors_name_the_json_type_not_the_value(value, found):
    """A value of the wrong JSON type is named by its type, never printed:
    it may be a whole file."""
    if found != "an object":
        with pytest.raises(ParseError) as exc:
            catalog_from_dict(value)
        assert str(exc.value) == f"catalog root must be a JSON object, got {found}"
    if found != "an array":
        with pytest.raises(ParseError) as exc:
            catalog_from_dict(dict(THREE_REL, relations=value))
        assert str(exc.value) == f"catalog 'relations' must be a JSON array, got {found}"


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_catalog(str(path))


@pytest.mark.parametrize("field,value", [
    ("cardinality", 0), ("scan_cost_factor", -1.0),
])
def test_bad_numbers_rejected(field, value):
    data = json.loads(json.dumps(THREE_REL))
    data["relations"][0][field] = value
    with pytest.raises(ValidationError):
        catalog_from_dict(data)


def test_bad_selectivity_rejected():
    data = json.loads(json.dumps(THREE_REL))
    data["predicates"][0]["selectivity"] = 1.5
    with pytest.raises(ValidationError):
        catalog_from_dict(data)


def test_symmetric_predicate_lookup():
    cat = catalog_from_dict(THREE_REL)
    assert cat.predicates_between("C", "O") == cat.predicates_between("O", "C")
    assert cat.predicates_between("C", "O")[0].selectivity == 0.001


def test_crossing_predicates_in_canonical_order():
    data = json.loads(json.dumps(THREE_REL))
    # a second C-O predicate, declared first but sorting last
    data["relations"][0]["attributes"].append("x")
    data["relations"][1]["attributes"].append("x")
    data["predicates"].insert(0, {"left": "O.x", "right": "C.x", "selectivity": 0.5})
    cat = catalog_from_dict(data)
    got = cat.crossing_predicates(("O",), ("C",))
    assert [p.name for p in got] == ["C.ck=O.ck", "O.x=C.x"]
    assert cat.crossing_predicates(("C",), ("L",)) == ()
    assert [p.name for p in cat.crossing_predicates(("O",), ("C", "L"))] == [
        "C.ck=O.ck", "O.ok=L.ok", "O.x=C.x"]


def test_apply_scan_cost_update():
    cat = catalog_from_dict(THREE_REL)
    out = apply_update(cat, StatUpdate("scan_cost", "L", 8.0))
    assert out.relation("L").scan_cost_factor == 8.0
    # everything else bit-identical
    assert out.relation("C") == cat.relation("C")
    assert out.predicates == cat.predicates


def test_apply_selectivity_update():
    cat = catalog_from_dict(THREE_REL)
    out = apply_update(cat, StatUpdate("join_selectivity", "O.ok=L.ok", 0.125))
    assert out.predicates_between("O", "L")[0].selectivity == 0.0001 * 0.125
    assert out.relations == cat.relations


def test_apply_update_unknown_target():
    cat = catalog_from_dict(THREE_REL)
    with pytest.raises(UnknownTarget):
        apply_update(cat, StatUpdate("scan_cost", "X", 2.0))
    with pytest.raises(UnknownTarget):
        apply_update(cat, StatUpdate("join_selectivity", "C.ck=L.ok", 2.0))


def test_update_inverse_restores_within_one_ulp():
    cat = catalog_from_dict(THREE_REL)
    for u in (StatUpdate("scan_cost", "L", 3.7),
              StatUpdate("join_selectivity", "C.ck=O.ck", 0.31)):
        # slotted: a session buffers one update per status change
        assert not hasattr(u, "__dict__")
        assert u.inverse() == replace(u, factor=1.0 / u.factor) != u
        twin = StatUpdate(u.kind, u.target, u.factor)
        assert twin == u and hash(twin) == hash(u) and len({u, twin}) == 1
        assert copy.deepcopy(u) == u == pickle.loads(pickle.dumps(u))
        back = apply_update(apply_update(cat, u), u.inverse())
        for r0, r1 in zip(cat.relations, back.relations):
            assert abs(r0.scan_cost_factor - r1.scan_cost_factor) <= math.ulp(r0.scan_cost_factor)
        for p0, p1 in zip(cat.predicates, back.predicates):
            assert abs(p0.selectivity - p1.selectivity) <= math.ulp(p0.selectivity)


def test_power_of_two_factors_invert_exactly():
    cat = catalog_from_dict(THREE_REL)
    for f in (0.125, 0.25, 0.5, 2.0, 4.0, 8.0):
        u = StatUpdate("scan_cost", "L", f)
        assert apply_update(apply_update(cat, u), u.inverse()) == cat


def test_load_updates(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps([
        {"kind": "scan_cost", "target": "L", "factor": 8.0},
        {"kind": "join_selectivity", "target": "O.ok=L.ok", "factor": 0.125},
    ]))
    ups = load_updates(str(path))
    assert len(ups) == 2 and ups[0].factor == 8.0
    path.write_text(json.dumps([{"kind": "scan_cost", "target": "L",
                                 "factor": 8.0, "oops": 1}]))
    with pytest.raises(ParseError):
        load_updates(str(path))
    path.write_text(json.dumps([{"kind": "scan_cost", "target": "L", "factor": -1}]))
    with pytest.raises(ValidationError):
        load_updates(str(path))

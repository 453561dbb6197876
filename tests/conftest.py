from __future__ import annotations

import gc
import json

import pytest

from incropt.algebra import ExprSig, PropertySpec, Query, SearchUniverse, query_from_dict
from incropt.catalog import (
    Catalog, JoinPredicate, RelationMeta, catalog_from_dict, validate_catalog,
)
from incropt.fixtures import q3s, q5s, q8joins
from incropt.optimizer import DeclarativeOptimizer


@pytest.fixture(scope="session")
def q3s_fixture():
    return q3s()


@pytest.fixture(scope="session")
def q5s_fixture():
    return q5s()


@pytest.fixture(scope="session")
def q8joins_fixture():
    return q8joins()


def cyclic_garbage(call) -> int:
    """Objects that only the cyclic garbage collector can free once
    ``call()`` has run and its result is dropped (0 when reference counting
    frees everything it made)."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def tiny_catalog() -> tuple[Catalog, Query]:
    """Two relations, one predicate; small enough to check by hand."""
    cat = Catalog(
        relations=(
            RelationMeta("C", 1500.0, ("ck", "seg"), indexed_on=("ck",)),
            RelationMeta("O", 15000.0, ("ok", "ck"), indexed_on=("ok", "ck")),
        ),
        predicates=(JoinPredicate("C.ck", "O.ck", 0.001),),
    )
    validate_catalog(cat)
    return cat, Query(("C", "O"))


@pytest.fixture()
def co_fixture():
    return tiny_catalog()


def as_version1(snap: dict) -> dict:
    """A copy of ``snap`` as a version-1 file: the same header, with the
    state's group records (``state_digest()``) saved as ``groups`` in place
    of its ``state_sha256``."""
    v1 = json.loads(json.dumps(snap))
    v1["groups"] = DeclarativeOptimizer.from_snapshot(snap).state_digest()
    v1["version"] = 1
    del v1["state_sha256"]
    return json.loads(json.dumps(v1))


def _root_group(snap: dict) -> dict:
    rels = sorted(snap["query"]["relations"])
    return next(g for g in snap["groups"] if g["expr"] == rels and g["prop"] == "none")


def _root_rows(snap: dict, best: bool) -> list[dict]:
    """The root group's best row (``best``) or its other costed rows."""
    root = _root_group(snap)
    key = (root["best"]["index"], root["best"]["phy_op"])
    return [r for r in root["rows"] if r["cost"] is not None
            and ((r["index"], r["phy_op"]) == key) == best]


def _scale_root_best(snap: dict) -> None:
    _root_group(snap)["best"]["cost"] *= 10


def _null_root_best(snap: dict) -> None:
    _root_group(snap)["best"]["cost"] = None


def _lower_non_best_root_row(snap: dict) -> None:
    _root_rows(snap, best=False)[0]["cost"] = _root_group(snap)["best"]["cost"] / 2


def _root_best_row_counted_twice(snap: dict) -> None:
    _root_rows(snap, best=True)[0]["ss_count"] = 2


def _revive_dead_group(snap: dict) -> None:
    next(g for g in snap["groups"] if not g["alive"])["alive"] = True


def _kill_alive_group(snap: dict) -> None:
    root = _root_group(snap)
    next(g for g in snap["groups"] if g["alive"] and g is not root)["alive"] = False


def _synthetic_non_root_group(snap: dict) -> None:
    root = _root_group(snap)
    next(g for g in snap["groups"] if g is not root)["synthetic"] = 1


def _dead_group_row(snap: dict, cost: float | None, ss_count: int) -> None:
    """List a row of a dead group (a sparse state lists none) with the given
    cost and visibility flag."""
    cat = catalog_from_dict(snap["catalog"])
    universe = SearchUniverse(cat, query_from_dict(snap["query"], cat))
    dead = next(g for g in snap["groups"] if not g["alive"])
    group = (ExprSig.of(dead["expr"]), PropertySpec.parse(dead["prop"]))
    alt = universe.alternatives(group)[0]
    dead["rows"] = [{"index": alt.index, "phy_op": alt.phy_op,
                     "ss_count": ss_count, "cost": cost}]


def _cost_dead_group_row(snap: dict) -> None:
    _dead_group_row(snap, 1.0, 0)


def _show_dead_group_row(snap: dict) -> None:
    _dead_group_row(snap, None, 1)


def _unlist_non_best_root_row(snap: dict) -> None:
    _root_group(snap)["rows"] = _root_rows(snap, best=True)


def _list_root_row_twice(snap: dict) -> None:
    rows = _root_group(snap)["rows"]
    rows.append(dict(rows[0]))


def _unknown_strategy(snap: dict) -> None:
    snap["strategies"].append("bogus")


def _alive_group_with(snap: dict, key: str) -> dict:
    """The first alive group whose ``key`` is set."""
    return next(g for g in snap["groups"] if g["alive"] and g[key] is not None)


def _halve_bound(snap: dict) -> None:
    _alive_group_with(snap, "bound")["bound"] /= 2


def _raise_maxbound(snap: dict) -> None:
    _alive_group_with(snap, "maxbound")["maxbound"] *= 2


def _raise_refcount(snap: dict) -> None:
    next(g for g in snap["groups"] if g["alive"] and g["refcount"])["refcount"] += 4


def _hide_root_best_row(snap: dict) -> None:
    _root_rows(snap, best=True)[0]["ss_count"] = 0


def _show_losing_root_row(snap: dict) -> None:
    next(r for r in _root_rows(snap, best=False) if not r["ss_count"])["ss_count"] = 1


def _triple_non_best_root_row(snap: dict) -> None:
    _root_rows(snap, best=False)[0]["cost"] *= 3


# version-1 saved-state corruptions that leave the snapshot well-formed and
# the catalog hash intact: each must be reported as a state mismatch on load,
# with the given message.  A load installs the state the header implies and
# compares the saved groups with it, so every corruption of ``groups`` fails
# that one comparison.  Apply them to ``as_version1(snap)``.
DIFFERS = "but its catalog, query and strategies imply"
STATE_TAMPERS = {
    "root-best-x10": (_scale_root_best, DIFFERS),
    "root-best-null": (_null_root_best, DIFFERS),
    "non-best-row-below-best": (_lower_non_best_root_row, DIFFERS),
    "unknown-strategy": (_unknown_strategy, "unknown strategies"),
    "ss-count-2": (_root_best_row_counted_twice, DIFFERS),
    "dead-group-alive": (_revive_dead_group, DIFFERS),
    "alive-group-dead": (_kill_alive_group, DIFFERS),
    "non-root-synthetic": (_synthetic_non_root_group, DIFFERS),
    "dead-group-row-costed": (_cost_dead_group_row, DIFFERS),
    "dead-group-row-visible": (_show_dead_group_row, DIFFERS),
    "alive-group-row-unlisted": (_unlist_non_best_root_row, DIFFERS),
    "row-listed-twice": (_list_root_row_twice, DIFFERS),
    "bound-halved": (_halve_bound, DIFFERS),
    "maxbound-raised": (_raise_maxbound, DIFFERS),
    "refcount-plus-4": (_raise_refcount, DIFFERS),
    "best-row-hidden": (_hide_root_best_row, DIFFERS),
    "losing-row-shown": (_show_losing_root_row, DIFFERS),
    "non-best-row-x3": (_triple_non_best_root_row, DIFFERS),
}


@pytest.fixture(params=sorted(STATE_TAMPERS))
def state_tamper(request):
    """A (tamper, expected error message) pair."""
    return STATE_TAMPERS[request.param]


def _losing_root_row(opt) -> tuple:
    """The root's state and its first costed row that is not its best."""
    gs = opt.groups[opt.root_id]
    best = gs.mins.min_of()[1]
    return gs, next(p for p in range(len(opt.universe.group_alts[opt.root_id]))
                    if p != best and gs.mins.cost_of(p) is not None)


def _triple_live_row_cost(opt) -> None:
    gs, pos = _losing_root_row(opt)
    gs.mins.update({pos: gs.mins.cost_of(pos) * 3})


def _raise_live_refcount(opt) -> None:
    next(gs for gs in opt.groups.values() if gs.alive and gs.refcount).refcount += 4


def _revive_live_dead_group(opt) -> None:
    next(gs for gs in opt.groups.values() if not gs.alive).alive = True


def _halve_live_bound(opt) -> None:
    gs = next(gs for gs in opt.groups.values() if gs.alive and gs.bound is not None)
    gs.bound /= 2


def _show_live_losing_row(opt) -> None:
    gs, pos = _losing_root_row(opt)
    gs.mins.set_visible(pos, True)


# corruptions of a live optimizer's quiescent state, one per kind of field the
# version-2 ``state_sha256`` covers: saved through ``to_snapshot()``, each
# state's digest differs from the one its header implies, so it must not load
LIVE_STATE_CORRUPTIONS = {
    "row-cost-x3": _triple_live_row_cost,
    "refcount-plus-4": _raise_live_refcount,
    "dead-group-alive": _revive_live_dead_group,
    "bound-halved": _halve_live_bound,
    "losing-row-shown": _show_live_losing_row,
}

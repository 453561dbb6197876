from __future__ import annotations

import itertools

import pytest

from incropt.algebra import (
    ExprSig, PropertySpec, Query, SearchUniverse, connected_subexprs,
    leaf_alternatives, query_from_dict, split,
)
from incropt.catalog import Catalog, JoinPredicate, RelationMeta, validate_catalog
from incropt.errors import NoAlternatives, ParseError, ValidationError


def chain_col() -> Catalog:
    cat = Catalog(
        relations=(
            RelationMeta("C", 1500.0, ("ck",), indexed_on=("ck",)),
            RelationMeta("O", 15000.0, ("ok", "ck"), indexed_on=("ok", "ck")),
            RelationMeta("L", 60000.0, ("ok",), indexed_on=("ok",), sorted_on="ok"),
        ),
        predicates=(
            JoinPredicate("C.ck", "O.ck", 0.001),
            JoinPredicate("O.ok", "L.ok", 0.0001),
        ),
    )
    validate_catalog(cat)
    return cat


def star_cat(leaves: int) -> Catalog:
    rels = [RelationMeta("H", 100.0, tuple(f"a{i}" for i in range(leaves)))]
    preds = []
    for i in range(leaves):
        rels.append(RelationMeta(f"S{i}", 10.0, ("b",)))
        preds.append(JoinPredicate(f"H.a{i}", f"S{i}.b", 0.1))
    cat = Catalog(relations=tuple(rels), predicates=tuple(preds))
    validate_catalog(cat)
    return cat


def test_exprsig_canonical():
    assert ExprSig.of(["O", "C", "L"]) == ExprSig.of(("L", "O", "C"))
    assert ExprSig.of(["C"]).rels == ("C",)
    assert str(ExprSig.of(["O", "C"])) == "(C,O)"
    with pytest.raises(ValidationError):
        ExprSig.of([])


def test_is_leaf():
    assert ExprSig.of(["C"]).is_leaf
    assert not ExprSig.of(["C", "O", "L"]).is_leaf
    assert not ExprSig.of(["O", "L"]).is_leaf


def test_leaf_alternatives():
    cat = chain_col()
    l = ExprSig.of(["L"])
    # indexed access when the property asks for the indexed attribute
    alts = leaf_alternatives(l, PropertySpec.index_on("L.ok"), cat)
    assert [a.phy_op for a in alts] == ["index_scan"]
    # unobtainable property: O is neither sorted nor indexed on C's key
    o = ExprSig.of(["O"])
    assert leaf_alternatives(o, PropertySpec.sorted_on("O.missing"), cat) == []
    # plain scan under no property
    c = ExprSig.of(["C"])
    assert [a.phy_op for a in leaf_alternatives(c, PropertySpec.none(), cat)] == ["seq_scan"]
    # sorted satisfied by physical sort order
    assert [a.phy_op for a in leaf_alternatives(l, PropertySpec.sorted_on("L.ok"), cat)] == ["index_scan"]


def test_split_col_includes_merge_and_inlj():
    cat = chain_col()
    alts = split(ExprSig.of(["C", "O", "L"]), PropertySpec.none(), cat)
    merge = [a for a in alts if a.phy_op == "merge_join"
             and {a.l_expr, a.r_expr} == {ExprSig.of(["C"]), ExprSig.of(["O", "L"])}]
    assert merge, "expected a merge join of (C) with (O,L)"
    assert merge[0].l_prop.kind == "sorted" and merge[0].r_prop.kind == "sorted"
    inlj = [a for a in alts if a.phy_op == "index_nl_join"
            and a.l_expr == ExprSig.of(["L"])]
    assert inlj, "expected an indexed nested-loop join with inner (L)"
    assert inlj[0].l_prop == PropertySpec.index_on("L.ok")
    assert inlj[0].r_expr == ExprSig.of(["C", "O"])


def test_split_disconnected_partition_raises():
    cat = chain_col()
    with pytest.raises(NoAlternatives):
        split(ExprSig.of(["C", "L"]), PropertySpec.none(), cat)


def test_split_co_matches_hand_listing():
    # {C}|{O} is the only partition; operators: hash, two indexed-NL
    # (either side is an indexed leaf), and a merge per crossing predicate
    cat = chain_col()
    alts = split(ExprSig.of(["C", "O"]), PropertySpec.none(), cat)
    got = [(a.phy_op, a.l_expr.rels, a.r_expr.rels) for a in alts]
    assert got == [
        ("hash_join", ("C",), ("O",)),
        ("index_nl_join", ("C",), ("O",)),
        ("index_nl_join", ("O",), ("C",)),
        ("merge_join", ("C",), ("O",)),
    ]
    assert [a.index for a in alts] == [1, 2, 3, 4]


def test_split_deterministic():
    cat = chain_col()
    e, p = ExprSig.of(["C", "O", "L"]), PropertySpec.none()
    assert split(e, p, cat) == split(e, p, cat)


def test_split_children_partition_parent():
    cat = chain_col()
    e = ExprSig.of(["C", "O", "L"])
    for a in split(e, PropertySpec.none(), cat):
        assert set(a.l_expr.rels) | set(a.r_expr.rels) == set(e.rels)
        assert not set(a.l_expr.rels) & set(a.r_expr.rels)


def test_split_sorted_property_requires_matching_merge_key():
    cat = chain_col()
    alts = split(ExprSig.of(["O", "L"]), PropertySpec.sorted_on("O.ok"), cat)
    assert all(a.phy_op == "merge_join" for a in alts)
    for a in alts:
        assert "O.ok" in (a.l_prop.attr, a.r_prop.attr)
    with pytest.raises(NoAlternatives):
        split(ExprSig.of(["O", "L"]), PropertySpec.sorted_on("O.ck"), cat)


def _independent_connected(subset, cat):
    # union-find, written independently of the BFS in algebra
    parent = {r: r for r in subset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in cat.predicates:
        a, b = p.left_relation, p.right_relation
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    return len({find(r) for r in subset}) == 1


def test_connected_subexprs_chain():
    cat = chain_col()
    got = connected_subexprs(ExprSig.of(["C", "O", "L"]), cat)
    expect = {ExprSig.of(x) for x in (["C"], ["O"], ["L"], ["C", "O"], ["O", "L"],
                                      ["C", "O", "L"])}
    assert got == expect
    assert len(got) == 6


def test_connected_subexprs_star_and_oracle():
    cat = star_cat(3)
    query = ExprSig.of(["H", "S0", "S1", "S2"])
    got = connected_subexprs(query, cat)
    assert len(got) == 11
    # cross-check against an independently written connectivity oracle
    expect = set()
    rels = query.rels
    for size in range(1, len(rels) + 1):
        for combo in itertools.combinations(rels, size):
            if _independent_connected(combo, cat):
                expect.add(ExprSig.of(combo))
    assert got == expect


def test_connected_subexprs_single():
    cat = chain_col()
    assert connected_subexprs(ExprSig.of(["C"]), cat) == {ExprSig.of(["C"])}


def test_universe_buildable_filters_unreachable_props():
    cat = chain_col()
    u = SearchUniverse(cat, Query(("C", "O", "L")))
    # the merge join of (C) with (O,L) requires (O,L) sorted on O.ck,
    # which no operator can produce: the raw split has it, the buildable
    # alternatives do not
    root = (ExprSig.of(["C", "O", "L"]), PropertySpec.none())
    raw_ops = {(a.phy_op, a.l_expr.rels) for a in split(*root, cat)}
    assert ("merge_join", ("C",)) in raw_ops
    kept_ops = {(a.phy_op, a.l_expr.rels) for a in u.alternatives(root)}
    assert ("merge_join", ("C",)) not in kept_ops
    assert u.feasible
    groups = u.groups()
    assert groups[0] == root
    n_groups, n_alts = u.totals()
    assert n_groups == len(groups)
    assert n_alts == sum(len(u.alternatives(g)) for g in groups)


def test_universe_infeasible_when_disconnected():
    cat = Catalog(
        relations=(RelationMeta("A", 10.0, ("x",)), RelationMeta("B", 10.0, ("x",))),
        predicates=(),
    )
    u = SearchUniverse(cat, Query(("A", "B")))
    assert not u.feasible


def test_query_parsing():
    cat = chain_col()
    q = query_from_dict({"relations": ["C", "O"],
                         "filters": [{"relation": "C", "selectivity": 0.5}]}, cat)
    assert q.filter_selectivities("C") == (0.5,)
    with pytest.raises(ValidationError):
        query_from_dict({"relations": ["C", "X"]}, cat)
    with pytest.raises(ParseError):
        query_from_dict({"relations": ["C"], "oops": 1}, cat)
    with pytest.raises(ValidationError):
        query_from_dict({"relations": []}, cat)

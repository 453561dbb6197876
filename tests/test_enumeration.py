"""Bottom-up enumeration against the brute-force subset scan.

``reference_split`` is the original enumerator: every ``combinations`` subset
of at most half the expression, kept when both halves pass a set-based
connectivity test.  ``ReferenceUniverse`` filters its output by the original
recursive buildability rule (a group is buildable when one of its
alternatives has only buildable children).  The production universe, built
from csg-cmp pairs and predicate masks, must hold exactly the same groups, in
the same order, with the same alternatives, indexes included, and the same
child ids, because the ``(cost, index, phy_op)`` tie-break and the engine's
dense ids depend on them.
"""
from __future__ import annotations

from itertools import combinations

import pytest

from incropt import algebra
from incropt.algebra import (
    HASH_JOIN, INDEX_NL_JOIN, LOG_JOIN, MERGE_JOIN, PROP_SORTED, Alternative,
    ExprSig, GroupKey, PropertySpec, Query, SearchUniverse, connected_subexprs,
    expr_mask, leaf_alternatives,
)
from incropt.catalog import Catalog, JoinPredicate, RelationMeta, validate_catalog
from incropt.errors import NoAlternatives, ValidationError
from incropt.fixtures import q3s, q5s, q8joins
from incropt.workload import make_workload


def _adjacency(cat: Catalog) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {r.name: set() for r in cat.relations}
    for p in cat.predicates:
        a, b = p.left.split(".", 1)[0], p.right.split(".", 1)[0]
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _is_connected(rels, adj) -> bool:
    remaining = set(rels)
    stack = [rels[0]]
    remaining.discard(rels[0])
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt in remaining:
                remaining.discard(nxt)
                stack.append(nxt)
    return not remaining


def _crossing(cat: Catalog, left, right):
    lset, rset = set(left), set(right)
    out = []
    for p in cat.predicates:
        a, b = p.left.split(".", 1)[0], p.right.split(".", 1)[0]
        if (a in lset and b in rset) or (a in rset and b in lset):
            out.append(p)
    out.sort(key=lambda p: (p.left, p.right))
    return out


def reference_split(e: ExprSig, p: PropertySpec, cat: Catalog,
                    parts=None) -> list[Alternative]:
    """The subset-scan enumerator; ``parts`` is accepted and ignored."""
    if e.is_leaf:
        raise ValidationError(f"split called on leaf {e}")
    adj = _adjacency(cat)
    rels = e.rels
    out: list[Alternative] = []
    seen: set[frozenset[str]] = set()

    def emit(phy_op, l_expr, l_prop, r_expr, r_prop):
        out.append(Alternative(len(out) + 1, LOG_JOIN, phy_op, l_expr, l_prop, r_expr, r_prop))

    for size in range(1, len(rels) // 2 + 1):
        for combo in combinations(rels, size):
            side_a = frozenset(combo)
            if side_a in seen:
                continue
            side_b = tuple(r for r in rels if r not in side_a)
            seen.add(side_a)
            seen.add(frozenset(side_b))
            if not _is_connected(combo, adj) or not _is_connected(side_b, adj):
                continue
            crossing = _crossing(cat, combo, side_b)
            if not crossing:
                continue
            a_sig, b_sig = ExprSig.of(combo), ExprSig.of(side_b)
            sides = [(q.left, q.right) if q.left.split(".", 1)[0] in side_a
                     else (q.right, q.left) for q in crossing]
            if p.is_none:
                emit(HASH_JOIN, a_sig, PropertySpec.none(), b_sig, PropertySpec.none())
                for attr_a, attr_b in sides:
                    for inner_sig, inner_attr, outer_sig in ((a_sig, attr_a, b_sig),
                                                             (b_sig, attr_b, a_sig)):
                        rel_name, _, bare = inner_attr.partition(".")
                        if inner_sig.is_leaf and bare in cat.relation(rel_name).indexed_on:
                            emit(INDEX_NL_JOIN, inner_sig, PropertySpec.index_on(inner_attr),
                                 outer_sig, PropertySpec.none())
            for attr_a, attr_b in sides:
                if p.is_none or (p.kind == PROP_SORTED and p.attr in (attr_a, attr_b)):
                    emit(MERGE_JOIN, a_sig, PropertySpec.sorted_on(attr_a),
                         b_sig, PropertySpec.sorted_on(attr_b))
    if not out:
        raise NoAlternatives(f"no operator yields {p} for {e}")
    return out


class ReferenceUniverse:
    """The universe by the subset scan and the recursive buildability rule.

    ``probed`` maps every group whose buildability the rule asked for to
    the answer, the way the rule memoized it."""

    def __init__(self, cat: Catalog, query: Query):
        self.cat = cat
        self.root: GroupKey = (query.sig, PropertySpec.none())
        self.probed: dict[GroupKey, bool] = {}

    def raw(self, group: GroupKey) -> tuple[Alternative, ...]:
        e, p = group
        if e.is_leaf:
            return tuple(leaf_alternatives(e, p, self.cat))
        try:
            return tuple(reference_split(e, p, self.cat))
        except NoAlternatives:
            return ()

    def buildable(self, group: GroupKey) -> bool:
        got = self.probed.get(group)
        if got is None:
            got = any(all(self.buildable(c) for c in alt.children())
                      for alt in self.raw(group))
            self.probed[group] = got
        return got

    def alternatives(self, group: GroupKey) -> tuple[Alternative, ...]:
        return tuple(a for a in self.raw(group)
                     if all(self.buildable(c) for c in a.children()))

    def rows(self) -> list[tuple[GroupKey, tuple[Alternative, ...], list[int]]]:
        """Per group reachable from the root, breadth-first: its
        alternatives and the ids of their children, left then right, a
        group's id being the order in which the walk first meets it."""
        ids = {self.root: 0}
        order = [self.root]
        rows = []
        for g in order:
            alts = self.alternatives(g)
            kids = []
            for alt in alts:
                for child in alt.children():
                    if child not in ids:
                        ids[child] = len(order)
                        order.append(child)
                    kids.append(ids[child])
            rows.append((g, alts, kids))
        return rows


def assert_same_universe(cat: Catalog, query: Query) -> None:
    u = SearchUniverse(cat, query)
    got = [(g, u.alternatives(g), list(u.group_kids[u.group_id(g)])) for g in u.groups()]
    want = ReferenceUniverse(cat, query).rows()
    assert [g for g, _, _ in got] == [g for g, _, _ in want]
    for (g, alts, kids), (_, ref, ref_kids) in zip(got, want):
        assert alts == ref, g
        assert kids == ref_kids, g


def _rel(name, attrs, indexed=()):
    return RelationMeta(name, 100.0, attrs, indexed_on=indexed)


def _cat(relations, predicates) -> Catalog:
    cat = Catalog(relations=tuple(relations),
                  predicates=tuple(JoinPredicate(l, r, 0.01) for l, r in predicates))
    validate_catalog(cat)
    return cat


def cycle_catalog() -> tuple[Catalog, Query]:
    # A-B-C-D-E-A: every arc of the ring is connected, so are most complements
    names = "ABCDE"
    rels = [_rel(n, ("x", "y"), indexed=("x",)) for n in names]
    preds = [(f"{names[i]}.y", f"{names[(i + 1) % 5]}.x") for i in range(5)]
    return _cat(rels, preds), Query(tuple(names))


def double_edge_catalog() -> tuple[Catalog, Query]:
    # two predicates between A and B, declared out of canonical order
    rels = [_rel("A", ("p", "q"), indexed=("q",)), _rel("B", ("p", "q"), indexed=("p",)),
            _rel("C", ("z",), indexed=("z",))]
    preds = [("A.q", "B.q"), ("B.p", "A.p"), ("B.q", "C.z")]
    return _cat(rels, preds), Query(("A", "B", "C"))


def chain4_catalog() -> tuple[Catalog, Query]:
    # the 2|2 split {A,B}|{C,D} has both halves connected; {A,C}|{B,D} none
    rels = [_rel(n, ("l", "r"), indexed=("l",)) for n in "ABCD"]
    preds = [("A.r", "B.l"), ("B.r", "C.l"), ("C.r", "D.l")]
    return _cat(rels, preds), Query(("A", "B", "C", "D"))


def hub_catalog() -> tuple[Catalog, Query]:
    # H.k is the left side of three predicates: a merge on any one of them
    # sorts its side on H.k, so the others can merge next
    rels = [RelationMeta("H", 100.0, ("k",), sorted_on="k")] + [
        _rel(n, ("k",), indexed=("k",)) for n in "ABC"]
    preds = [("H.k", "A.k"), ("H.k", "B.k"), ("H.k", "C.k")]
    return _cat(rels, preds), Query(("A", "B", "C", "H"))


def sorted_chain_catalog() -> tuple[Catalog, Query]:
    # every join attribute is sorted and indexed, and each inner relation
    # joins both neighbours on it, so merge joins survive on composite
    # sides and sorted: groups nest
    rels = [RelationMeta(n, 100.0, ("k",), indexed_on=("k",), sorted_on="k") for n in "ABCD"]
    preds = [("A.k", "B.k"), ("B.k", "C.k"), ("C.k", "D.k")]
    return _cat(rels, preds), Query(("A", "B", "C", "D"))


EDGE_CASES = [cycle_catalog, double_edge_catalog, chain4_catalog, hub_catalog,
              sorted_chain_catalog]


SEEDED = [(shape, n, seed)
          for shape, sizes in (("chain", (2, 3, 5, 6, 9)), ("star", (4, 6, 9)),
                               ("clique", (3, 5, 8)))
          for n in sizes for seed in (1, 2)]


@pytest.mark.parametrize("shape,n,seed", SEEDED)
def test_seeded_universe_matches_subset_scan(shape, n, seed):
    assert_same_universe(*make_workload(shape, n, seed))


@pytest.mark.parametrize("fixture", [q3s, q5s, q8joins])
def test_fixture_universe_matches_subset_scan(fixture):
    assert_same_universe(*fixture())


@pytest.mark.parametrize("build", EDGE_CASES)
def test_edge_case_universe_matches_subset_scan(build):
    assert_same_universe(*build())


@pytest.mark.parametrize("build", [hub_catalog, sorted_chain_catalog])
def test_merge_joins_survive_on_composite_sides(build):
    """A composite side's sort orders come from the merge joins below it:
    a merge on one predicate sorts on its attributes, and so on every
    predicate sharing one of them."""
    cat, query = build()
    u = SearchUniverse(cat, query)
    merges = [a for g in u.groups() for a in u.alternatives(g) if a.phy_op == MERGE_JOIN]
    assert any(not a.l_expr.is_leaf or not a.r_expr.is_leaf for a in merges)
    # sorted: groups nest, a sorted group merging a composite sorted group
    assert any(not a.l_expr.is_leaf or not a.r_expr.is_leaf
               for g in u.groups() if g[1].kind == PROP_SORTED
               for a in u.alternatives(g) if a.phy_op == MERGE_JOIN)


@pytest.mark.parametrize("build", EDGE_CASES)
def test_split_matches_subset_scan_for_every_subexpression(build):
    # raw split output, including unbuildable properties and NoAlternatives
    cat, query = build()
    props = [PropertySpec.none()] + [
        PropertySpec.sorted_on(f"{r.name}.{a}") for r in cat.relations for a in r.attributes
    ]
    rels = query.sig.rels
    for size in range(2, len(rels) + 1):
        for combo in combinations(rels, size):
            e = ExprSig.of(combo)
            for p in props:
                try:
                    want = reference_split(e, p, cat)
                except NoAlternatives:
                    with pytest.raises(NoAlternatives):
                        algebra.split(e, p, cat)
                    continue
                assert algebra.split(e, p, cat) == want, (e, p)


def test_equal_halves_keep_the_side_with_the_first_relation():
    cat, query = chain4_catalog()
    parts = algebra.partitions(query.sig, cat)
    assert [(a.rels, b.rels) for a, b, _ in parts] == [
        (("A",), ("B", "C", "D")),
        (("D",), ("A", "B", "C")),
        (("A", "B"), ("C", "D")),
    ]


def _oriented(a: ExprSig, crossed: int, cat: Catalog) -> tuple[tuple[str, str], ...]:
    """Per predicate in ``crossed`` (bit ``j`` is ``cat.predicate_bits[j]``),
    its (side a attribute, side b attribute)."""
    return tuple((p.left, p.right) if p.left_relation in a.rels else (p.right, p.left)
                 for j, (_, _, p) in enumerate(cat.predicate_bits) if crossed >> j & 1)


def test_partition_orients_each_crossing_predicate():
    cat, query = double_edge_catalog()
    parts = {(a.rels, b.rels): _oriented(a, crossed, cat)
             for a, b, crossed in algebra.partitions(query.sig, cat)}
    # canonical (left, right) order puts A.q=B.q before B.p=A.p
    assert parts[(("A",), ("B", "C"))] == (("A.q", "B.q"), ("A.p", "B.p"))
    assert parts[(("C",), ("A", "B"))] == (("C.z", "B.q"),)


@pytest.mark.parametrize("shape,n,seed,totals", [
    ("chain", 16, 1, (166, 861)),
    ("chain", 16, 2, (163, 843)),
    ("chain", 16, 3, (159, 859)),
    ("clique", 8, 1, (304, 5075)),
])
def test_universe_totals_are_pinned(shape, n, seed, totals):
    cat, query = make_workload(shape, n, seed)
    assert SearchUniverse(cat, query).totals() == totals


@pytest.mark.parametrize("make", [q3s, q5s, q8joins, lambda: make_workload("clique", 6, 1)],
                         ids=["q3s", "q5s", "q8joins", "clique-6"])
def test_position_order_is_alternative_key_order(make):
    """Engine rows and group minima are keyed by position in
    ``group_alts``; the ``(cost, index, phy_op)`` tie-break holds only if,
    in every group, position order is strictly ``(index, phy_op)`` order."""
    cat, query = make()
    u = SearchUniverse(cat, query)
    groups = u.groups()
    for g in groups:
        keys = [a.key for a in u.group_alts[u.group_id(g)]]
        assert keys and all(a < b for a, b in zip(keys, keys[1:])), g
    assert len(groups) == len(u.parents())


def disconnected_catalog() -> tuple[Catalog, Query]:
    # no predicate at all: the query has no partition and no plan
    cat = Catalog(relations=(RelationMeta("A", 10.0, ("x",)), RelationMeta("B", 10.0, ("x",))),
                  predicates=())
    return cat, Query(("A", "B"))


def _seeded(shape, n, seed):
    return lambda: make_workload(shape, n, seed)


PAIR_SHAPES = [(shape, n, seed) for shape, n in (("chain", 9), ("star", 8), ("clique", 7))
               for seed in (1, 2)]


@pytest.mark.parametrize("build", [_seeded(*case) for case in PAIR_SHAPES]
                         + [cycle_catalog, double_edge_catalog],
                         ids=[f"{s}-{n}-{seed}" for s, n, seed in PAIR_SHAPES]
                         + ["cycle", "double_edge"])
def test_pair_buckets_match_subset_scan(build):
    cat, query = build()
    adj = _adjacency(cat)
    bits = cat.relation_bits

    def mask(rels) -> int:
        return sum(bits[r] for r in rels)

    buckets = algebra.csg_cmp_pairs(expr_mask(query.sig, cat), cat.adjacency_masks)
    listed = 0
    for e in connected_subexprs(query.sig, cat):
        want = set()
        for size in range(1, len(e)):
            for combo in combinations(e.rels, size):
                rest = tuple(r for r in e.rels if r not in combo)
                if (_is_connected(combo, adj) and _is_connected(rest, adj)
                        and _crossing(cat, combo, rest)):
                    want.add(frozenset((mask(combo), mask(rest))))
        got = buckets.get(expr_mask(e, cat), [])
        assert all(not s1 & s2 for s1, s2 in got), e
        assert len({frozenset(pair) for pair in got}) == len(got), e  # each pair once
        assert {frozenset(pair) for pair in got} == want, e
        listed += len(got)
    # every bucket belongs to a connected sub-expression
    assert listed == sum(len(b) for b in buckets.values())


BUILDABILITY_CASES = [_seeded(*case) for case in SEEDED] + [
    q3s, q5s, q8joins, cycle_catalog, double_edge_catalog, chain4_catalog,
    hub_catalog, sorted_chain_catalog, disconnected_catalog]


@pytest.mark.parametrize("build", BUILDABILITY_CASES,
                         ids=[f"{s}-{n}-{seed}" for s, n, seed in SEEDED]
                         + ["q3s", "q5s", "q8joins", "cycle", "double_edge", "chain4",
                            "hub", "sorted_chain", "disconnected"])
def test_mask_buildability_matches_recursive_rule(build):
    cat, query = build()
    ref = ReferenceUniverse(cat, query)
    ref.buildable(ref.root)
    ref.rows()
    u = SearchUniverse(cat, query)
    for g, want in ref.probed.items():
        assert u.buildable(g) == want, g
    assert u.feasible == ref.probed[ref.root]


@pytest.mark.parametrize("build", [cycle_catalog, hub_catalog, sorted_chain_catalog, q8joins,
                                   disconnected_catalog],
                         ids=["cycle", "hub", "sorted_chain", "q8joins", "disconnected"])
def test_walked_universe_drops_its_kernel_and_answers_alike(build):
    """Once ``groups()`` has walked the universe its scratch tables are
    gone; buildability then comes from the group tables, or from a kernel
    built again for a group outside them, with the same answers."""
    cat, query = build()
    ref = ReferenceUniverse(cat, query)
    ref.buildable(ref.root)
    ref.rows()
    u = SearchUniverse(cat, query)
    u.groups()
    assert u._kernel is None
    for g, want in ref.probed.items():
        assert u.buildable(g) == want, g
    assert u.feasible == ref.probed[ref.root]


@pytest.mark.parametrize("build", [cycle_catalog, double_edge_catalog, chain4_catalog,
                                   q5s, q8joins, _seeded("clique", 5, 1)],
                         ids=["cycle", "double_edge", "chain4", "q5s", "q8joins", "clique-5-1"])
def test_filtered_split_drops_only_unbuildable_merge_joins(build):
    cat, query = build()
    u = SearchUniverse(cat, query)
    ref = ReferenceUniverse(cat, query)
    subexprs = sorted(connected_subexprs(query.sig, cat))
    sortable = {s: u.sortable(s) for s in subexprs}
    props = [PropertySpec.none()] + [
        PropertySpec.sorted_on(f"{r}.{a}") for r in query.relations
        for a in cat.relation(r).attributes
    ]
    dropped = 0
    for e in subexprs:
        if e.is_leaf:
            continue
        for p in props:
            try:
                raw = algebra.split(e, p, cat)
            except NoAlternatives:
                raw = []
            want = [a for a in raw if a.phy_op != MERGE_JOIN
                    or all(ref.buildable(c) for c in a.children())]
            dropped += len(raw) - len(want)
            if not want:
                with pytest.raises(NoAlternatives):
                    algebra.split(e, p, cat, sortable=sortable)
                continue
            assert algebra.split(e, p, cat, sortable=sortable) == want, (e, p)
    assert dropped  # the filter was exercised

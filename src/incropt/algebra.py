"""Expressions, physical properties, and the merged logical+physical split.

An expression signature is the canonical set of base relations a
subexpression joins.  A property is a requirement or guarantee on the
physical form of the output: none, sorted on a qualified attribute, or
reachable through an index on a qualified attribute.  ``split`` enumerates,
for a composite expression and a requested output property, every binary
partition under the join graph crossed with every physical join operator
that can satisfy the property.

Conventions baked in here:

* bushy enumeration over connected partitions only (no cross products);
* partitions come from the csg-cmp pairs of the query (DPccp, Moerkotte &
  Neumann, VLDB 2006): every pair of disjoint connected relation subsets
  linked by a predicate, listed once per universe over relation bitmasks
  and bucketed by union, so an expression's partitions are its bucket; no
  subset of an expression is scanned;
* partitions are ordered by the size of the smaller side, then by its
  lexicographic relation tuple; with equal halves only the lexicographically
  smaller side (the one holding the expression's first relation) is side a.
  Alternative indexes, and with them the ``(cost, index, phy_op)``
  tie-break, follow this order;
* buildability is decided by sortable sets, the attributes an expression
  can be produced sorted on, computed bottom-up from its partitions; no
  ``split`` output is kept or probed to decide it.  ``split`` takes the
  sortable sets and skips the merge joins whose sides cannot produce their
  orders, each skipped join keeping its index, so ``SearchUniverse`` keeps
  exactly what ``split`` emits;
* ``SearchUniverse`` computes each expression's partitions once and hands
  them to ``split`` for every property of that expression; a sort-order
  property visits only the partitions whose crossing predicates carry its
  attribute, which ``partitions`` indexes once per expression;
* ``SearchUniverse`` numbers its groups densely, in the order enumeration
  first meets them; each id carries its expression's relation bitmask and
  its alternatives' child ids, the tables ``costmodel.BestCost`` runs on.
  It also interns partition sides by relation mask, so one expression has
  one signature object across the universe;
* symmetric operators (hash, merge) are emitted once in canonical side
  order, the asymmetric indexed nested-loop join is emitted once per
  indexed inner side, with the indexed inner on the left;
* orders are produced only by merge joins and index scans; there are no
  enforcer (explicit sort) operators.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

from .catalog import Catalog, json_array, json_object
from .errors import NoAlternatives, ParseError, ValidationError

LOG_JOIN = "join"
LOG_SCAN = "scan"

HASH_JOIN = "hash_join"
MERGE_JOIN = "merge_join"
INDEX_NL_JOIN = "index_nl_join"
SEQ_SCAN = "seq_scan"
INDEX_SCAN = "index_scan"

PROP_NONE = "none"
PROP_SORTED = "sorted"
PROP_INDEX = "index"


# Group keys are hashed on every dict lookup of the fixpoint, so ExprSig and
# PropertySpec compute their hash once, at construction, into a slot (a
# per-instance dict would cost more memory than the hash saves).  Pickling
# rebuilds through the constructor, because a str hash differs per process.


@dataclass(frozen=True, order=True, slots=True)
class ExprSig:
    """Canonical signature of a subexpression: a sorted tuple of relations."""

    rels: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.rels,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return ExprSig, (self.rels,)

    @classmethod
    def of(cls, names) -> "ExprSig":
        rels = tuple(sorted(set(names)))
        if not rels:
            raise ValidationError("expression signature must be non-empty")
        return cls(rels)

    @property
    def is_leaf(self) -> bool:
        return len(self.rels) == 1

    @property
    def sole(self) -> str:
        return self.rels[0]

    def __len__(self) -> int:
        return len(self.rels)

    def __str__(self) -> str:
        return "(" + ",".join(self.rels) + ")"


@dataclass(frozen=True, order=True, slots=True)
class PropertySpec:
    """Physical property requirement/guarantee; ``attr`` is qualified ``"R.a"``."""

    kind: str = PROP_NONE
    attr: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.attr)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return PropertySpec, (self.kind, self.attr)

    @classmethod
    def none(cls) -> "PropertySpec":
        return _PROP_NONE_SINGLETON

    @classmethod
    def sorted_on(cls, attr: str) -> "PropertySpec":
        return _spec(PROP_SORTED, attr)

    @classmethod
    def index_on(cls, attr: str) -> "PropertySpec":
        return _spec(PROP_INDEX, attr)

    @property
    def is_none(self) -> bool:
        return self.kind == PROP_NONE

    def __str__(self) -> str:
        if self.kind == PROP_NONE:
            return "none"
        return f"{self.kind}:{self.attr}"

    @classmethod
    def parse(cls, text: str) -> "PropertySpec":
        if text == PROP_NONE:
            return cls.none()
        kind, _, attr = text.partition(":")
        if kind not in (PROP_SORTED, PROP_INDEX) or not attr:
            raise ParseError(f"bad property spec {text!r}")
        return cls(kind, attr)


_PROP_NONE_SINGLETON = PropertySpec(PROP_NONE, None)


@lru_cache(maxsize=4096)
def _spec(kind: str, attr: str) -> PropertySpec:
    """One spec per (kind, attribute): enumeration asks for each
    predicate's orders once per expression holding it."""
    return PropertySpec(kind, attr)

GroupKey = tuple[ExprSig, PropertySpec]
AltKey = tuple[int, str]


class Alternative:
    """One physical plan alternative (an AND node) for an (expr, prop) pair.

    A plain ``__slots__`` class, built an order of magnitude faster than a
    frozen dataclass; treat it as immutable.  Equality and hash range over
    the seven fields.  ``key`` is built once: every row key, parent-index
    entry and DP candidate of the alternative then shares one tuple.
    """

    __slots__ = ("index", "log_op", "phy_op", "l_expr", "l_prop", "r_expr", "r_prop",
                 "key")

    def __init__(self, index: int, log_op: str, phy_op: str,
                 l_expr: ExprSig | None = None, l_prop: PropertySpec | None = None,
                 r_expr: ExprSig | None = None, r_prop: PropertySpec | None = None):
        self.index = index
        self.log_op = log_op
        self.phy_op = phy_op
        self.l_expr = l_expr
        self.l_prop = l_prop
        self.r_expr = r_expr
        self.r_prop = r_prop
        self.key: AltKey = (index, phy_op)

    def _fields(self) -> tuple:
        return (self.index, self.log_op, self.phy_op,
                self.l_expr, self.l_prop, self.r_expr, self.r_prop)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Alternative:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"Alternative(index={self.index!r}, log_op={self.log_op!r}, "
                f"phy_op={self.phy_op!r}, l_expr={self.l_expr!r}, l_prop={self.l_prop!r}, "
                f"r_expr={self.r_expr!r}, r_prop={self.r_prop!r})")

    @property
    def is_scan(self) -> bool:
        return self.log_op == LOG_SCAN

    def children(self) -> tuple[GroupKey, ...]:
        if self.is_scan:
            return ()
        return ((self.l_expr, self.l_prop), (self.r_expr, self.r_prop))


@dataclass(frozen=True)
class Query:
    """A join query: the relations to join plus per-relation filter selectivities."""

    relations: tuple[str, ...]
    filters: tuple[tuple[str, float], ...] = ()

    @property
    def sig(self) -> ExprSig:
        return ExprSig.of(self.relations)

    def filter_selectivities(self, rel: str) -> tuple[float, ...]:
        return tuple(s for r, s in self.filters if r == rel)


_QUERY_KEYS = {"relations", "filters"}
_FILTER_KEYS = {"relation", "selectivity"}


def query_from_dict(data: dict, cat: Catalog) -> Query:
    json_object(data, "query root")
    extra = set(data) - _QUERY_KEYS
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)} in query")
    rels = json_array(data, "relations", "query")
    if not rels:
        raise ValidationError("query declares no relations")
    filters = []
    for k, obj in enumerate(json_array(data, "filters", "query")):
        json_object(obj, f"query filter entry {k}")
        extra = set(obj) - _FILTER_KEYS
        if extra:
            raise ParseError(f"unknown keys {sorted(extra)} in query filter")
        try:
            filters.append((obj["relation"], float(obj["selectivity"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed query filter entry {k}: {exc}") from exc
    q = Query(relations=tuple(rels), filters=tuple(filters))
    validate_query(q, cat)
    return q


def validate_query(q: Query, cat: Catalog) -> None:
    declared = {r.name for r in cat.relations}
    if len(set(q.relations)) != len(q.relations):
        raise ValidationError("query relations are not distinct")
    for r in q.relations:
        if r not in declared:
            raise ValidationError(f"query references undeclared relation {r!r}")
    for r, s in q.filters:
        if r not in q.relations:
            raise ValidationError(f"filter on {r!r} which is not in the query")
        if not (0.0 < s <= 1.0):
            raise ValidationError(f"filter selectivity on {r!r} must be in (0, 1]")


def load_query(path: str, cat: Catalog) -> Query:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read query file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"query file {path} is not valid JSON: {exc}") from exc
    return query_from_dict(data, cat)


def _neighbours(mask: int, adj: tuple[int, ...]) -> int:
    """Union of the adjacency masks of every relation in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _grow(s: int, excluded: int, mask: int, adj: tuple[int, ...], out: list[int]) -> None:
    """EnumerateCsgRec: every connected subset of ``mask`` that strictly
    contains ``s`` and reaches no relation in ``excluded``, once each.

    A growth step adds a nonempty subset of the neighbours not yet offered;
    the neighbours it offered are excluded from every later step."""
    frontier = _neighbours(s, adj) & mask & ~excluded
    if not frontier:
        return
    grown = []
    sub = frontier
    while sub:
        grown.append(s | sub)
        sub = (sub - 1) & frontier
    out.extend(grown)
    excluded |= frontier
    for t in grown:
        _grow(t, excluded, mask, adj, out)


def _connected_subsets(mask: int, adj: tuple[int, ...]) -> list[int]:
    """Every connected subset of ``mask``, once each.

    EnumerateCsg (Moerkotte & Neumann, VLDB 2006): a subset is grown from
    its lowest bit only, by adding neighbours above that bit.
    """
    out: list[int] = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low)
        _grow(low, (low << 1) - 1, mask, adj, out)
        rest ^= low
    return out


def csg_cmp_pairs(mask: int, adj: tuple[int, ...]) -> dict[int, list[tuple[int, int]]]:
    """Every csg-cmp pair of ``mask``, once each, bucketed by union mask.

    A pair is two disjoint connected subsets joined by a predicate.
    EnumerateCmp (DPccp, Moerkotte & Neumann, VLDB 2006) grows the
    complement of each connected subset ``s1`` from its neighbours above
    ``s1``'s lowest bit, avoiding ``s1`` and every relation at or below
    that bit, so each unordered pair is listed once, lower-bit side first.
    A union's bucket is then every split of it into two connected, linked
    sides.
    """
    buckets: dict[int, list[tuple[int, int]]] = {}
    cmps: list[int] = []
    for s1 in _connected_subsets(mask, adj):
        low = s1 & -s1
        excluded = s1 | (low - 1)  # s1 and every relation at or below its lowest bit
        near = _neighbours(s1, adj) & mask & ~excluded
        while near:
            v = 1 << (near.bit_length() - 1)  # neighbours in descending order
            near ^= v
            cmps.append(v)
            _grow(v, excluded | near | v, mask, adj, cmps)
            for s2 in cmps:
                union = s1 | s2
                bucket = buckets.get(union)
                if bucket is None:
                    buckets[union] = [(s1, s2)]
                else:
                    bucket.append((s1, s2))
            cmps.clear()
    return buckets


def expr_mask(e: ExprSig, cat: Catalog) -> int:
    """``e``'s relations as a bitmask of ``cat.relation_bits``."""
    bits = cat.relation_bits
    mask = 0
    for r in e.rels:
        mask |= bits[r]
    return mask


def _sig_of(mask: int, e: ExprSig, cat: Catalog) -> ExprSig:
    bits = cat.relation_bits
    return ExprSig(tuple(r for r in e.rels if bits[r] & mask))


def connected_subexprs(query: ExprSig, cat: Catalog) -> set[ExprSig]:
    """All subsets of the query inducing a connected join subgraph."""
    full = expr_mask(query, cat)
    return {_sig_of(s, query, cat) for s in _connected_subsets(full, cat.adjacency_masks)}


# (side a, side b, one (sorted on side a's attribute, sorted on side b's
# attribute) pair per crossing predicate)
Partition = tuple[ExprSig, ExprSig, tuple[tuple[PropertySpec, PropertySpec], ...]]


class Partitions(tuple):
    """One expression's partitions in ``split`` order.

    ``crossed_by`` indexes them by predicate, flat, three items per
    predicate inside the expression: its left attribute, its right
    attribute and a position mask whose bit ``k`` is set when partition
    ``k`` has a crossing pair from it.  A sort order on an attribute comes
    only from those partitions, so ``split`` visits no other.
    """

    crossed_by: tuple

    def sorted_on(self, attr: str) -> list[Partition]:
        """The partitions with a crossing pair sorted on ``attr``, in order."""
        positions = 0
        flat = iter(self.crossed_by)
        for left, right, crossed in zip(flat, flat, flat):
            if attr == left or attr == right:
                positions |= crossed
        out = []
        while positions:
            low = positions & -positions
            out.append(self[low.bit_length() - 1])
            positions ^= low
        return out


def partitions(e: ExprSig, cat: Catalog, sigs: dict[int, ExprSig] | None = None,
               pairs: list[tuple[int, int]] | None = None) -> Partitions:
    """The partitions of composite ``e`` into two connected, linked sides,
    in ``split`` order.

    ``pairs`` is ``e``'s bucket of ``csg_cmp_pairs``, enumerated here over
    ``e`` alone when not given.  Side a is the smaller side; when the
    halves are equal, it is the one holding ``e``'s first relation.
    Ordered by the size of side a, then by its relation tuple: the order
    in which ``itertools.combinations`` would list side a.  ``sigs``
    interns the sides by relation mask, so every partition of a universe
    that names an expression shares one signature.
    """
    if sigs is None:
        sigs = {}
    full = expr_mask(e, cat)
    if pairs is None:
        pairs = csg_cmp_pairs(full, cat.adjacency_masks).get(full, ())
    first = cat.relation_bits[e.rels[0]]
    # the sort orders are built once per predicate, so every merge join of
    # every property of ``e`` shares them
    preds = []
    touching: dict[int, int] = {}  # relation bit -> bit j per predicate j on it
    for lbit, rbit, pred in cat.predicate_bits:
        if lbit & full and rbit & full:
            j = 1 << len(preds)
            touching[lbit] = touching.get(lbit, 0) | j
            touching[rbit] = touching.get(rbit, 0) | j
            left, right = PropertySpec.sorted_on(pred.left), PropertySpec.sorted_on(pred.right)
            preds.append((lbit, (left, right), (right, left), pred))
    found = []
    for s, rest in pairs:
        size, other = s.bit_count(), rest.bit_count()
        if size > other or (size == other and not s & first):
            s, rest = rest, s
        # a predicate crosses when exactly one of its relations is on side
        # a, so side a's relations' predicate masks XOR to the crossing ones
        crossed = 0  # bit j: predicate j crosses this partition
        m = s
        while m:
            low = m & -m
            crossed ^= touching[low]
            m ^= low
        crossing = []
        m = crossed
        while m:
            low = m & -m
            lbit, fwd, rev, _ = preds[low.bit_length() - 1]
            crossing.append(fwd if lbit & s else rev)
            m ^= low
        a_sig = sigs.get(s) or sigs.setdefault(s, _sig_of(s, e, cat))
        b_sig = sigs.get(rest) or sigs.setdefault(rest, _sig_of(rest, e, cat))
        found.append((a_sig, b_sig, tuple(crossing), crossed))
    found.sort(key=lambda part: (len(part[0]), part[0].rels))
    positions = [0] * len(preds)
    for k, part in enumerate(found):
        crossed = part[3]
        while crossed:
            low = crossed & -crossed
            positions[low.bit_length() - 1] |= 1 << k
            crossed ^= low
    parts = Partitions(part[:3] for part in found)
    parts.crossed_by = tuple(item for (_, _, _, pred), at in zip(preds, positions)
                             for item in (pred.left, pred.right, at))
    return parts


def leaf_alternatives(e: ExprSig, p: PropertySpec, cat: Catalog) -> list[Alternative]:
    """Scan operators producing property ``p`` over a single relation.

    An empty list signals that the property is unobtainable from this leaf.
    """
    rel = cat.relation(e.sole)
    if p.is_none:
        return [Alternative(1, LOG_SCAN, SEQ_SCAN)]
    rel_name, _, attr = (p.attr or "").partition(".")
    if rel_name != rel.name or not attr:
        return []
    if p.kind == PROP_SORTED and (attr == rel.sorted_on or attr in rel.indexed_on):
        return [Alternative(1, LOG_SCAN, INDEX_SCAN)]
    if p.kind == PROP_INDEX and attr in rel.indexed_on:
        return [Alternative(1, LOG_SCAN, INDEX_SCAN)]
    return []


def split(e: ExprSig, p: PropertySpec, cat: Catalog, parts: Partitions | None = None,
          sortable: dict[ExprSig, frozenset[str]] | None = None) -> list[Alternative]:
    """Enumerate join alternatives for composite ``e`` under output property ``p``.

    ``parts`` is ``partitions(e, cat)``, computed here when not given.
    Deterministic: partitions ordered by the size of the smaller side, then
    by its relation tuple (with equal halves, only the lexicographically
    smaller side is side a); operators in a fixed order within each
    partition; 1-based indexes in emission order.

    ``sortable``, when given, maps every side of ``parts`` to the
    attributes it can be produced sorted on.  A merge join whose sides
    cannot produce their orders is then skipped, but it still takes its
    index, so every alternative kept has the index it has unfiltered.
    Raises NoAlternatives when no operator is left to satisfy ``p``.
    """
    if e.is_leaf:
        raise ValidationError(f"split called on leaf {e}")
    if parts is None:
        parts = partitions(e, cat)
    out: list[Alternative] = []
    index = 0  # alternatives emitted or skipped so far
    none = PropertySpec.none()
    if p.is_none:
        for a_sig, b_sig, crossing in parts:
            index += 1
            out.append(Alternative(index, LOG_JOIN, HASH_JOIN, a_sig, none, b_sig, none))
            if len(a_sig) == 1 or len(b_sig) == 1:
                for sort_a, sort_b in crossing:
                    for inner_sig, inner_attr, outer_sig in (
                        (a_sig, sort_a.attr, b_sig),
                        (b_sig, sort_b.attr, a_sig),
                    ):
                        if not inner_sig.is_leaf:
                            continue
                        rel_name, _, bare = inner_attr.partition(".")
                        if bare in cat.relation(rel_name).indexed_on:
                            index += 1
                            out.append(Alternative(index, LOG_JOIN, INDEX_NL_JOIN, inner_sig,
                                                   PropertySpec.index_on(inner_attr),
                                                   outer_sig, none))
            a_sorts, b_sorts = _sorts(sortable, a_sig), _sorts(sortable, b_sig)
            for sort_a, sort_b in crossing:
                index += 1
                if sort_a.attr in a_sorts and sort_b.attr in b_sorts:
                    out.append(Alternative(index, LOG_JOIN, MERGE_JOIN,
                                           a_sig, sort_a, b_sig, sort_b))
    elif p.kind == PROP_SORTED:
        # only a merge join yields an order, and only from a partition with
        # a crossing pair sorted on the attribute
        for a_sig, b_sig, crossing in parts.sorted_on(p.attr):
            a_sorts, b_sorts = _sorts(sortable, a_sig), _sorts(sortable, b_sig)
            for sort_a, sort_b in crossing:
                if p.attr in (sort_a.attr, sort_b.attr):
                    index += 1
                    if sort_a.attr in a_sorts and sort_b.attr in b_sorts:
                        out.append(Alternative(index, LOG_JOIN, MERGE_JOIN,
                                               a_sig, sort_a, b_sig, sort_b))
    if not out:
        raise NoAlternatives(f"no operator yields {p} for {e}")
    return out


class _AnyOrder:
    """The sortable set of a side when ``split`` is not filtered."""

    def __contains__(self, attr: str) -> bool:
        return True


_ANY_ORDER = _AnyOrder()


def _sorts(sortable: dict[ExprSig, frozenset[str]] | None, side: ExprSig):
    return _ANY_ORDER if sortable is None else sortable[side]


class SearchUniverse:
    """The reachable (expr, prop) group universe for one (catalog, query) pair.

    Enumerates bottom-up, with no speculative ``split``: on first use it
    lists every csg-cmp pair of the query once (``csg_cmp_pairs``), and
    each expression's partitions come from its bucket, which is dropped
    once read.  Buildability comes from per-expression sortable sets, the
    attributes an expression can be produced sorted on: a leaf's sorted
    and indexed attributes, a composite's crossing pairs whose sides can
    each produce their order.  A group is buildable when it is a leaf with
    a scan, a composite with no required order and a partition, or a
    composite whose sortable set holds its order.  ``split`` is called only
    for buildable groups, once each, with the sortable sets, so what it
    emits is exactly the group's alternatives; no raw split output is kept.
    The universe also exposes the full-space totals used as
    pruning/update-ratio denominators.

    Groups get dense ids in the order ``alternatives`` first meets them (a
    group, then its alternatives' children).  Per id: ``group_keys`` is its
    key, ``group_masks`` its expression's relation bitmask, ``group_alts``
    its alternatives (None until computed) and ``group_kids`` the ids of
    their children, left then right, two per join alternative.  Within a
    group, alternative indexes rise with position, so position order is
    ``(index, phy_op)`` order.  ``parents()`` is the reverse of
    ``group_kids`` over the whole universe.
    """

    def __init__(self, cat: Catalog, query: Query):
        self.catalog = cat
        self.query = query
        self.root: GroupKey = (query.sig, PropertySpec.none())
        self._ids: dict[GroupKey, int] = {}
        self.group_keys: list[GroupKey] = []
        self.group_masks: list[int] = []
        self.group_alts: list[tuple[Alternative, ...] | None] = []
        self.group_kids: list[array | None] = []
        self._parts: dict[ExprSig, Partitions] = {}
        self._sigs: dict[int, ExprSig] = {expr_mask(query.sig, cat): query.sig}
        self._pairs: dict[int, list[tuple[int, int]]] | None = None
        self._sortable: dict[ExprSig, frozenset[str]] = {}
        self._groups: list[GroupKey] | None = None
        self._parents: list[list[tuple[int, int]]] | None = None
        self._totals: tuple[int, int] | None = None

    def partitions(self, e: ExprSig) -> Partitions:
        """``partitions(e)``, memoized, from ``e``'s bucket of the query's pairs."""
        got = self._parts.get(e)
        if got is None:
            if self._pairs is None:
                self._pairs = csg_cmp_pairs(expr_mask(self.query.sig, self.catalog),
                                            self.catalog.adjacency_masks)
            mask = expr_mask(e, self.catalog)
            got = self._parts[e] = partitions(e, self.catalog, self._sigs,
                                              self._pairs.pop(mask, ()))
        return got

    def sortable(self, e: ExprSig) -> frozenset[str]:
        """The attributes ``e`` can be produced sorted on (memoized)."""
        got = self._sortable.get(e)
        if got is None:
            if e.is_leaf:
                rel = self.catalog.relation(e.sole)
                got = frozenset(f"{rel.name}.{a}" for a in (rel.sorted_on, *rel.indexed_on) if a)
            else:
                attrs = set()
                for a_sig, b_sig, crossing in self.partitions(e):
                    a_sorts, b_sorts = self.sortable(a_sig), self.sortable(b_sig)
                    for sort_a, sort_b in crossing:
                        if sort_a.attr in a_sorts and sort_b.attr in b_sorts:
                            attrs.add(sort_a.attr)
                            attrs.add(sort_b.attr)
                got = frozenset(attrs)
            self._sortable[e] = got
        return got

    def buildable(self, group: GroupKey) -> bool:
        """True when ``group`` has at least one plan."""
        e, p = group
        if e.is_leaf:
            return bool(leaf_alternatives(e, p, self.catalog))
        if p.is_none:
            return bool(self.partitions(e))
        return p.kind == PROP_SORTED and p.attr in self.sortable(e)

    def alternatives(self, group: GroupKey) -> tuple[Alternative, ...]:
        """``group``'s buildable alternatives (none when it is unbuildable)."""
        return self.group_alts[self.group_id(group)]

    def group_id(self, group: GroupKey) -> int:
        """``group``'s dense id, with its alternatives and their child ids
        computed."""
        i = self._number(group)
        if self.group_alts[i] is None:
            self._fill(i)
        return i

    def _fill(self, i: int) -> None:
        """Compute group ``i``'s alternatives and number their children."""
        group = self.group_keys[i]
        e, p = group
        kids = array("i")
        if e.is_leaf:
            got = tuple(leaf_alternatives(e, p, self.catalog))
        elif self.buildable(group):
            self.sortable(e)  # fills the sortable set of every side of ``e``
            got = tuple(split(e, p, self.catalog, self.partitions(e), self._sortable))
            for a in got:
                kids.append(self._number((a.l_expr, a.l_prop)))
                kids.append(self._number((a.r_expr, a.r_prop)))
        else:
            got = ()
        self.group_alts[i] = got
        self.group_kids[i] = kids

    def _number(self, group: GroupKey) -> int:
        i = self._ids.get(group)
        if i is None:
            i = self._ids[group] = len(self.group_keys)
            self.group_keys.append(group)
            self.group_masks.append(expr_mask(group[0], self.catalog))
            self.group_alts.append(None)
            self.group_kids.append(None)
        return i

    @property
    def feasible(self) -> bool:
        return self.buildable(self.root)

    def groups(self) -> list[GroupKey]:
        """Buildable groups reachable from the root, root first, BFS order."""
        if self._groups is None:
            order = [self.group_id(self.root)]
            seen = set(order)
            alts, kids = self.group_alts, self.group_kids
            for i in order:  # grows as the walk meets new groups
                if alts[i] is None:
                    self._fill(i)
                for c in kids[i]:
                    if c not in seen:
                        seen.add(c)
                        order.append(c)
            self._groups = [self.group_keys[i] for i in order]
        return self._groups

    def parents(self) -> list[list[tuple[int, int]]]:
        """Per group id, the ``(parent id, position)`` of every alternative
        with that group as a child, in parent id then position order.

        Enumerates every group reachable from the root, once; a universe
        enumerated breadth-first from its root numbers groups in the order
        a FIFO build creates them."""
        if self._parents is None:
            self.groups()
            parents: list[list[tuple[int, int]]] = [[] for _ in self.group_keys]
            for p, kids in enumerate(self.group_kids):
                for k, c in enumerate(kids or ()):
                    parents[c].append((p, k >> 1))
            self._parents = parents
        return self._parents

    def totals(self) -> tuple[int, int]:
        """(number of groups, number of alternatives) over the full space,
        counted once: ``groups()`` never changes once built."""
        if self._totals is None:
            gs = self.groups()
            self._totals = len(gs), sum(len(self.alternatives(g)) for g in gs)
        return self._totals

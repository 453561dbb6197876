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
* partitions carry predicate masks: predicate ``j`` is bit ``j``, the
  ``j``-th of ``cat.predicate_bits``, and a partition's crossing mask is
  ``touch(a) & touch(b)``, each side's mask of the predicates on its
  relations.  Work per partition is a few integer operations plus one step
  per alternative it emits, never one per crossing predicate;
* sort orders are two predicate masks per expression: ``LS`` holds the
  predicates whose left attribute it can be produced sorted on, ``RS``
  those whose right attribute.  A leaf's come from its sorted and indexed
  attributes; a composite's are the OR, over its buildable merge joins, of
  the predicates sharing an attribute with the merge's predicate.  A merge
  join on crossing predicate ``j`` is buildable iff ``j`` is in
  ``(LS(a) & RS(b)) | (RS(a) & LS(b))``, so buildability is decided
  bottom-up from the partitions, and no ``split`` output is kept or probed
  to decide it.  ``split`` skips the merge joins that are not buildable,
  each skipped join keeping its index, so ``SearchUniverse`` keeps exactly
  what ``split`` emits;
* ``SearchUniverse`` builds each expression's partitions once and hands
  them to ``split`` for every property of that expression; a sort-order
  property emits only from the partitions whose crossing mask meets the
  predicates on its attribute, one AND per partition.  The partition
  tables are scratch: they are dropped once the universe has been walked;
* ``SearchUniverse`` numbers its groups densely, in the order enumeration
  first meets them; each id carries its expression's relation bitmask and
  its alternatives' child ids, the tables ``costmodel.BestCost`` runs on.
  Partition sides are interned by relation mask, so one expression has one
  signature object across the universe;
* symmetric operators (hash, merge) are emitted once in canonical side
  order, the asymmetric indexed nested-loop join is emitted once per
  indexed inner side, with the indexed inner on the left;
* orders are produced only by merge joins and index scans; there are no
  enforcer (explicit sort) operators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .catalog import (
    Catalog, json_array, json_object, json_string, json_strings, read_json, reject_unknown,
)
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
    the seven fields.  ``key`` is built on read: engines name an alternative
    by its position in its group, so only the edges (plans, snapshots,
    audits, traces) ask for it.
    """

    __slots__ = ("index", "log_op", "phy_op", "l_expr", "l_prop", "r_expr", "r_prop")

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
    def key(self) -> AltKey:
        return self.index, self.phy_op

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
    reject_unknown(data, _QUERY_KEYS, "query")
    rels = json_strings(data.get("relations", []), "query 'relations'")
    if not rels:
        raise ValidationError("query declares no relations")
    filters = []
    for k, obj in enumerate(json_array(data, "filters", "query")):
        where = f"query filter entry {k}"
        json_object(obj, where)
        reject_unknown(obj, _FILTER_KEYS, "query filter")
        try:
            filters.append((json_string(obj["relation"], f"{where} 'relation'"),
                            float(obj["selectivity"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed query filter entry {k}: {exc}") from exc
    q = Query(relations=rels, filters=tuple(filters))
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
    return query_from_dict(read_json(path, "query file"), cat)


class _Neighbours(dict):
    """Relation mask -> the union of its relations' adjacency masks, each
    computed on its first lookup: enumeration asks for every connected
    subset's neighbours many times."""

    __slots__ = ("adj",)

    def __init__(self, adj: tuple[int, ...]):
        super().__init__()
        self.adj = adj

    def __missing__(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= self.adj[low.bit_length() - 1]
            m ^= low
        self[mask] = out
        return out


def _grow(s: int, excluded: int, mask: int, near: _Neighbours, out: list[int]) -> None:
    """EnumerateCsgRec: every connected subset of ``mask`` that strictly
    contains ``s`` and reaches no relation in ``excluded``, once each.

    A growth step adds a nonempty subset of the neighbours not yet offered;
    the neighbours it offered are excluded from every later step."""
    frontier = near[s] & mask & ~excluded
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
        _grow(t, excluded, mask, near, out)


def _connected_subsets(mask: int, near: _Neighbours) -> list[int]:
    """Every connected subset of ``mask``, once each.

    EnumerateCsg (Moerkotte & Neumann, VLDB 2006): a subset is grown from
    its lowest bit only, by adding neighbours above that bit.
    """
    out: list[int] = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low)
        _grow(low, (low << 1) - 1, mask, near, out)
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
    neighbours = _Neighbours(adj)
    for s1 in _connected_subsets(mask, neighbours):
        low = s1 & -s1
        excluded = s1 | (low - 1)  # s1 and every relation at or below its lowest bit
        near = neighbours[s1] & mask & ~excluded
        while near:
            v = 1 << (near.bit_length() - 1)  # neighbours in descending order
            near ^= v
            cmps.append(v)
            _grow(v, excluded | near | v, mask, neighbours, cmps)
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
    return {_sig_of(s, query, cat)
            for s in _connected_subsets(full, _Neighbours(cat.adjacency_masks))}


def _or(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


# One partition of an expression: (side a's rank, side a, side b, crossing
# predicates, buildable merge predicates, side a's relation mask, side b's
# relation mask).  The rank orders an expression's partitions.
Partition = tuple[int, ExprSig, ExprSig, int, int, int, int]


class _Kernel:
    """The predicate masks and partition tables of one enumeration over the
    connected subsets of ``e``.

    Predicate ``j`` is bit ``j`` of a predicate mask: the ``j``-th of
    ``cat.predicate_bits``.  A side's touch mask holds the predicates on its
    relations, so a partition's crossing predicates are ``touch(a) &
    touch(b)``.  ``orders`` maps a side's relation mask to its sort orders
    ``(LS, RS)``: the predicates whose left (``LS``) or right (``RS``)
    attribute the side can be produced sorted on.  A merge join on crossing
    predicate ``j`` is buildable iff ``j`` is in ``(LS(a) & RS(b)) | (RS(a)
    & LS(b))``; with ``orders`` None every merge join is.
    """

    def __init__(self, cat: Catalog, e: ExprSig,
                 orders: dict[int, tuple[int, int]] | None = None):
        full = expr_mask(e, cat)
        touch = [0] * len(cat.relations)  # relation bit position -> predicates on it
        lefts: dict[str, int] = {}  # attribute -> predicates with it on the left
        rights: dict[str, int] = {}
        for j, (lbit, rbit, pred) in enumerate(cat.predicate_bits):
            touch[lbit.bit_length() - 1] |= 1 << j
            touch[rbit.bit_length() - 1] |= 1 << j
            lefts[pred.left] = lefts.get(pred.left, 0) | 1 << j
            rights[pred.right] = rights.get(pred.right, 0) | 1 << j
        # per predicate: its left relation bit, then sorted and indexed on
        # its left and on its right attribute
        self.preds = [(lbit, PropertySpec.sorted_on(p.left), PropertySpec.sorted_on(p.right),
                       PropertySpec.index_on(p.left), PropertySpec.index_on(p.right))
                      for lbit, _, p in cat.predicate_bits]
        # attribute -> (predicates with it on the left, on the right)
        self.attrs = {a: (lefts.get(a, 0), rights.get(a, 0)) for a in {*lefts, *rights}}
        # per predicate: the (LS, RS) a merge join on it yields, the
        # predicates sharing one of its attributes on their left, on their right
        self.shares = [(lefts.get(p.left, 0) | lefts.get(p.right, 0),
                        rights.get(p.left, 0) | rights.get(p.right, 0))
                       for _, _, p in cat.predicate_bits]
        # leaf bit -> the predicates whose attribute on the leaf is indexed
        self.indexed: dict[int, int] = {}
        self.leaf_orders: dict[int, tuple[int, int]] = {}
        for r in cat.relations:
            b = cat.relation_bits[r.name]
            if b & full:
                indexed = [f"{r.name}.{a}" for a in r.indexed_on]
                sorts = indexed + ([f"{r.name}.{r.sorted_on}"] if r.sorted_on else [])
                self.indexed[b] = _or(lefts.get(a, 0) | rights.get(a, 0) for a in indexed)
                self.leaf_orders[b] = (_or(lefts.get(a, 0) for a in sorts),
                                       _or(rights.get(a, 0) for a in sorts))
        # union mask -> its csg-cmp pairs, dropped once read
        self.pairs = csg_cmp_pairs(full, cat.adjacency_masks)
        # every connected subset -> (rank, signature, touch mask), in rank
        # order: by size, then by relation tuple
        sigs = {m: _sig_of(m, e, cat) for m in (*self.leaf_orders, *self.pairs)}
        self.sides = {m: (rank, sigs[m], _or(touch[k] for k in range(m.bit_length())
                                             if m >> k & 1))
                      for rank, m in enumerate(sorted(
                          sigs, key=lambda m: (m.bit_count(), sigs[m].rels)))}
        self.masks = {sig: m for m, sig in sigs.items()}
        self.orders = orders
        self.parts: dict[int, list[Partition]] = {}

    @classmethod
    def universe(cls, cat: Catalog, e: ExprSig) -> "_Kernel":
        """A kernel deciding merges by the sides' own sort orders, with every
        connected subset's partitions built in rank order, so a side's
        orders are known before any partition reads them."""
        kernel = cls(cat, e, {})
        kernel.orders.update(kernel.leaf_orders)
        for m in kernel.sides:
            if m & (m - 1):
                kernel.partitions(m)
        return kernel

    def partitions(self, mask: int) -> list[Partition]:
        """The partitions of connected ``mask`` into two connected, linked
        sides, in ``split`` order (memoized).  Side a is the side of lower
        rank: the smaller side or, with equal halves, the one holding the
        expression's first relation.  Records the expression's own sort
        orders, the shares of its buildable merge joins."""
        got = self.parts.get(mask)
        if got is not None:
            return got
        sides, orders = self.sides, self.orders
        got = []
        merged = 0
        for s, t in self.pairs.pop(mask, ()):
            rank, a_sig, a_touch = sides[s]
            b_rank, b_sig, b_touch = sides[t]
            if rank > b_rank:
                s, t, rank, a_sig, a_touch, b_sig, b_touch = (
                    t, s, b_rank, b_sig, b_touch, a_sig, a_touch)
            crossed = a_touch & b_touch
            if orders is None:
                merges = crossed
            else:
                a_left, a_right = orders[s]
                b_left, b_right = orders[t]
                merges = crossed & ((a_left & b_right) | (a_right & b_left))
                merged |= merges
            got.append((rank, a_sig, b_sig, crossed, merges, s, t))
        got.sort()
        if orders is not None:
            left = right = 0
            while merged:
                low = merged & -merged
                share_l, share_r = self.shares[low.bit_length() - 1]
                left |= share_l
                right |= share_r
                merged ^= low
            orders[mask] = (left, right)
        self.parts[mask] = got
        return got

    def buildable(self, mask: int, p: PropertySpec) -> bool:
        """True when composite ``mask`` has a plan under ``p`` (a universe
        kernel)."""
        if p.is_none:
            return bool(self.parts.get(mask))
        if p.kind != PROP_SORTED:
            return False
        on_left, on_right = self.attrs.get(p.attr, (0, 0))
        left, right = self.orders.get(mask, (0, 0))
        return bool(left & on_left or right & on_right)

    def emit(self, e: ExprSig, p: PropertySpec) -> list[Alternative]:
        """``split``'s alternatives for composite ``e`` under ``p``."""
        parts = self.partitions(self.masks.get(e, 0))
        out: list[Alternative] = []
        index = 0  # alternatives emitted or skipped so far
        if p.is_none:
            none = _PROP_NONE_SINGLETON
            preds, indexed = self.preds, self.indexed
            for _, a_sig, b_sig, crossed, merges, a_mask, b_mask in parts:
                index += 1
                out.append(Alternative(index, LOG_JOIN, HASH_JOIN, a_sig, none, b_sig, none))
                # an index nested-loop join per indexed leaf side, per
                # crossing predicate, side a first
                on_a = indexed.get(a_mask, 0) & crossed
                on_b = indexed.get(b_mask, 0) & crossed
                m = on_a | on_b
                while m:
                    low = m & -m
                    lbit, _, _, index_l, index_r = preds[low.bit_length() - 1]
                    if low & on_a:
                        index += 1
                        out.append(Alternative(index, LOG_JOIN, INDEX_NL_JOIN, a_sig,
                                               index_l if lbit & a_mask else index_r,
                                               b_sig, none))
                    if low & on_b:
                        index += 1
                        out.append(Alternative(index, LOG_JOIN, INDEX_NL_JOIN, b_sig,
                                               index_l if lbit & b_mask else index_r,
                                               a_sig, none))
                    m ^= low
                if merges:
                    self._merges(out, index, crossed, merges, a_sig, b_sig, a_mask)
                index += crossed.bit_count()
        elif p.kind == PROP_SORTED:
            # only a merge join yields an order, and only on a crossing
            # predicate with the attribute on one side
            on_left, on_right = self.attrs.get(p.attr, (0, 0))
            on = on_left | on_right
            for _, a_sig, b_sig, crossed, merges, a_mask, _ in parts:
                hit = crossed & on
                if hit:
                    if merges & hit:
                        self._merges(out, index, hit, merges, a_sig, b_sig, a_mask)
                    index += hit.bit_count()
        return out

    def _merges(self, out: list[Alternative], base: int, crossed: int, keep: int,
                a_sig: ExprSig, b_sig: ExprSig, a_mask: int) -> None:
        """Append the merge joins of the predicates in both ``crossed`` and
        ``keep``, after ``base``; each has the index it has unfiltered, one
        per predicate of ``crossed``."""
        keep &= crossed
        while keep:
            low = keep & -keep
            lbit, sort_l, sort_r, _, _ = self.preds[low.bit_length() - 1]
            sort_a, sort_b = (sort_l, sort_r) if lbit & a_mask else (sort_r, sort_l)
            out.append(Alternative(base + (crossed & (low - 1)).bit_count() + 1, LOG_JOIN,
                                   MERGE_JOIN, a_sig, sort_a, b_sig, sort_b))
            keep ^= low


def partitions(e: ExprSig, cat: Catalog) -> list[tuple[ExprSig, ExprSig, int]]:
    """The partitions of composite ``e`` into two connected, linked sides,
    in ``split`` order, as ``(side a, side b, crossing predicates)``.

    Side a is the smaller side; when the halves are equal, it is the one
    holding ``e``'s first relation.  Ordered by the size of side a, then by
    its relation tuple: the order in which ``itertools.combinations`` would
    list side a.  Bit ``j`` of the crossing mask is the ``j``-th predicate
    of ``cat.predicate_bits``.
    """
    kernel = _Kernel(cat, e)
    return [part[1:4] for part in kernel.partitions(expr_mask(e, cat))]


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


def split(e: ExprSig, p: PropertySpec, cat: Catalog,
          sortable: dict[ExprSig, tuple[int, int]] | None = None,
          kernel: _Kernel | None = None) -> list[Alternative]:
    """Enumerate join alternatives for composite ``e`` under output property ``p``.

    Deterministic: partitions ordered by the size of the smaller side, then
    by its relation tuple (with equal halves, only the lexicographically
    smaller side is side a); per partition a hash join, the index
    nested-loop joins of its indexed leaf sides, then a merge join per
    crossing predicate, in canonical predicate order; 1-based indexes in
    emission order.

    ``sortable``, when given, maps every side of ``e``'s partitions to its
    sort orders ``(LS, RS)`` (``SearchUniverse.sortable``).  A merge join
    whose sides cannot produce their orders is then skipped, but it still
    takes its index, so every alternative kept has the index it has
    unfiltered.  ``kernel`` is the enumeration to read ``e``'s partitions
    from, built over ``e`` here when not given.
    Raises NoAlternatives when no operator is left to satisfy ``p``.
    """
    if e.is_leaf:
        raise ValidationError(f"split called on leaf {e}")
    if kernel is None:
        kernel = _Kernel(cat, e, None if sortable is None else
                         {expr_mask(s, cat): orders for s, orders in sortable.items()})
    out = kernel.emit(e, p)
    if not out:
        raise NoAlternatives(f"no operator yields {p} for {e}")
    return out


class SearchUniverse:
    """The reachable (expr, prop) group universe for one (catalog, query) pair.

    Enumerates bottom-up, with no speculative ``split``: on first use a
    kernel (``_Kernel.universe``) lists every csg-cmp pair of the query
    once and builds every connected subset's partitions, smaller subsets
    first, each with its crossing and buildable merge predicate masks and
    the subset's own sort orders.  A group is buildable when it is a leaf
    with a scan, a composite with no required order and a partition, or a
    composite whose sort orders hold its order.  ``split`` is called only
    for buildable groups, once each, on the kernel, so what it emits is
    exactly the group's alternatives; no raw split output is kept.  Once
    ``groups()`` has walked the universe the kernel is dropped, and
    ``buildable`` answers from the filled group tables; a later question
    about a group outside them builds the kernel again.  The universe also
    exposes the full-space totals used as pruning/update-ratio denominators.

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
        # (relations, property kind, property attribute) -> group id: plain
        # values hash in C, where a GroupKey calls two Python __hash__ methods
        self._ids: dict[tuple, int] = {}
        self.group_keys: list[GroupKey] = []
        self.group_masks: list[int] = []
        self.group_alts: list[tuple[Alternative, ...] | None] = []
        self.group_kids: list[list[int] | None] = []
        self._kernel: _Kernel | None = None
        self._groups: list[GroupKey] | None = None
        self._parents: list[list[tuple[int, int]]] | None = None
        self._totals: tuple[int, int] | None = None

    def _built_kernel(self) -> _Kernel:
        """The enumeration kernel over the query, built when not held."""
        if self._kernel is None:
            self._kernel = _Kernel.universe(self.catalog, self.root[0])
        return self._kernel

    def sortable(self, e: ExprSig) -> tuple[int, int]:
        """``e``'s sort orders ``(LS, RS)``, the predicates whose left or
        right attribute ``e`` can be produced sorted on."""
        return self._built_kernel().orders.get(expr_mask(e, self.catalog), (0, 0))

    def buildable(self, group: GroupKey) -> bool:
        """True when ``group`` has at least one plan."""
        e, p = group
        i = self._ids.get((e.rels, p.kind, p.attr))
        if i is not None and self.group_alts[i] is not None:
            return bool(self.group_alts[i])
        if e.is_leaf:
            return bool(leaf_alternatives(e, p, self.catalog))
        return self._built_kernel().buildable(expr_mask(e, self.catalog), p)

    def alternatives(self, group: GroupKey) -> tuple[Alternative, ...]:
        """``group``'s buildable alternatives (none when it is unbuildable)."""
        return self.group_alts[self.group_id(group)]

    def group_id(self, group: GroupKey) -> int:
        """``group``'s dense id, with its alternatives and their child ids
        computed."""
        i = self._number(*group)
        if self.group_alts[i] is None:
            self._fill(i)
        return i

    def _fill(self, i: int) -> None:
        """Compute group ``i``'s alternatives and number their children."""
        e, p = self.group_keys[i]
        # a list holds the id objects ``_ids`` already holds; iterating an
        # array would box a new int per read
        kids: list[int] = []
        if e.is_leaf:
            got = tuple(leaf_alternatives(e, p, self.catalog))
        elif self._built_kernel().buildable(self.group_masks[i], p):
            got = tuple(split(e, p, self.catalog, kernel=self._kernel))
            ids, number = self._ids, self._number
            for a in got:
                left, right = a.l_prop, a.r_prop
                c = ids.get((a.l_expr.rels, left.kind, left.attr))
                kids.append(number(a.l_expr, left) if c is None else c)
                c = ids.get((a.r_expr.rels, right.kind, right.attr))
                kids.append(number(a.r_expr, right) if c is None else c)
        else:
            got = ()
        self.group_alts[i] = got
        self.group_kids[i] = kids

    def _number(self, e: ExprSig, p: PropertySpec) -> int:
        key = (e.rels, p.kind, p.attr)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.group_keys)
            self.group_keys.append((e, p))
            self.group_masks.append(expr_mask(e, self.catalog))
            self.group_alts.append(None)
            self.group_kids.append(None)
        return i

    @property
    def feasible(self) -> bool:
        return self.buildable(self.root)

    def groups(self) -> list[GroupKey]:
        """Buildable groups reachable from the root, root first, BFS order.
        The first walk fills every group and then drops the kernel."""
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
            self._totals = len(order), sum(len(alts[i]) for i in order)
            self._kernel = None
        return self._groups

    def parents(self) -> list[list[tuple[int, int]]]:
        """Per group id, the ``(parent id, position)`` of every alternative
        with that group as a child, in parent id then position order.

        Enumerates every group reachable from the root, once; a universe
        enumerated breadth-first from its root numbers groups in the order
        a cold build creates them."""
        if self._parents is None:
            self.groups()
            parents: list[list[tuple[int, int]]] = [[] for _ in self.group_keys]
            for p, kids in enumerate(self.group_kids):
                for pos in range(len(kids or ()) >> 1):
                    row = (p, pos)  # one tuple for both children
                    parents[kids[2 * pos]].append(row)
                    parents[kids[2 * pos + 1]].append(row)
            self._parents = parents
        return self._parents

    def totals(self) -> tuple[int, int]:
        """(number of groups, number of alternatives) over the full space,
        counted once, by the walk of ``groups()``."""
        self.groups()
        return self._totals

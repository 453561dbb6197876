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
* partitions come from connected-complement enumeration over relation
  bitmasks: the connected subsets of at most half the expression (grown
  DPccp-style, Moerkotte & Neumann, VLDB 2006) whose complement is
  connected too; no subset of the expression is scanned;
* partitions are ordered by the size of the smaller side, then by its
  lexicographic relation tuple; with equal halves only the lexicographically
  smaller side (the one holding the expression's first relation) is kept.
  Alternative indexes, and with them the ``(cost, index, phy_op)``
  tie-break, follow this order;
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
from collections import deque
from dataclasses import dataclass, field

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
        return cls(PROP_SORTED, attr)

    @classmethod
    def index_on(cls, attr: str) -> "PropertySpec":
        return cls(PROP_INDEX, attr)

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

GroupKey = tuple[ExprSig, PropertySpec]
AltKey = tuple[int, str]


@dataclass(frozen=True)
class Alternative:
    """One physical plan alternative (an AND node) for an (expr, prop) pair.

    ``key`` is built once: every row key, parent-index entry and DP
    candidate of the alternative then shares one tuple.
    """

    index: int
    log_op: str
    phy_op: str
    l_expr: ExprSig | None = None
    l_prop: PropertySpec | None = None
    r_expr: ExprSig | None = None
    r_prop: PropertySpec | None = None
    key: AltKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (self.index, self.phy_op))

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


def _mask_connected(mask: int, adj: tuple[int, ...]) -> bool:
    """Flood fill from the lowest bit; true when it reaches all of ``mask``."""
    reached = frontier = mask & -mask
    while frontier:
        frontier = _neighbours(frontier, adj) & mask & ~reached
        reached |= frontier
    return reached == mask


def _connected_subsets(mask: int, adj: tuple[int, ...], limit: int) -> list[int]:
    """Every connected subset of ``mask`` with at most ``limit`` members, once each.

    EnumerateCsg (Moerkotte & Neumann, VLDB 2006): a subset is grown from
    its lowest bit only, by adding neighbours above that bit which earlier
    steps of the same growth have not already offered.
    """
    out: list[int] = []

    def grow(s: int, excluded: int) -> None:
        frontier = _neighbours(s, adj) & mask & ~excluded
        if not frontier:
            return
        room = limit - s.bit_count()
        grown = []
        sub = frontier
        while sub:
            if sub.bit_count() <= room:
                grown.append(s | sub)
            sub = (sub - 1) & frontier
        out.extend(grown)
        excluded |= frontier
        for t in grown:
            if t.bit_count() < limit:
                grow(t, excluded)

    rest = mask
    while rest:
        low = rest & -rest
        out.append(low)
        grow(low, (low << 1) - 1)
        rest ^= low
    return out


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
            for s in _connected_subsets(full, cat.adjacency_masks, len(query))}


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


def partitions(e: ExprSig, cat: Catalog,
               sigs: dict[int, ExprSig] | None = None) -> Partitions:
    """The connected-complement partitions of composite ``e``, in ``split`` order.

    Side a is a connected subset of at most half of ``e`` whose complement,
    side b, is connected too and linked to it by at least one predicate.
    When the halves are equal, side a is the one holding ``e``'s first
    relation.  Ordered by the size of side a, then by its relation tuple:
    the order in which ``itertools.combinations`` would list side a.
    ``sigs`` interns the sides by relation mask, so every partition of a
    universe that names an expression shares one signature.
    """
    if sigs is None:
        sigs = {}
    full = expr_mask(e, cat)
    adj = cat.adjacency_masks
    first = cat.relation_bits[e.rels[0]]
    # the sort orders are built once per predicate, so every merge join of
    # every property of ``e`` shares them
    preds = []
    for lbit, rbit, pred in cat.predicate_bits:
        if lbit & full and rbit & full:
            left, right = PropertySpec.sorted_on(pred.left), PropertySpec.sorted_on(pred.right)
            preds.append((lbit, rbit, (left, right), (right, left), pred))
    n = len(e)
    found = []
    for s in _connected_subsets(full, adj, n // 2):
        if 2 * s.bit_count() == n and not s & first:
            continue
        rest = full ^ s
        if not _mask_connected(rest, adj):
            continue
        crossing = []
        crossed = 0  # bit j: predicate j crosses this partition
        for j, (lbit, rbit, fwd, rev, _) in enumerate(preds):
            if bool(lbit & s) != bool(rbit & s):
                crossing.append(fwd if lbit & s else rev)
                crossed |= 1 << j
        if crossing:
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
    parts.crossed_by = tuple(item for (_, _, _, _, pred), at in zip(preds, positions)
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


def split(e: ExprSig, p: PropertySpec, cat: Catalog,
          parts: Partitions | None = None) -> list[Alternative]:
    """Enumerate join alternatives for composite ``e`` under output property ``p``.

    ``parts`` is ``partitions(e, cat)``, computed here when not given.
    Deterministic: partitions ordered by the size of the smaller side, then
    by its relation tuple (with equal halves, only the lexicographically
    smaller side is side a); operators in a fixed order within each
    partition; 1-based indexes in emission order.  Raises NoAlternatives
    when no operator can satisfy ``p`` over any connected partition.
    """
    if e.is_leaf:
        raise ValidationError(f"split called on leaf {e}")
    if parts is None:
        parts = partitions(e, cat)
    out: list[Alternative] = []

    def emit(phy_op: str, l_expr: ExprSig, l_prop: PropertySpec,
             r_expr: ExprSig, r_prop: PropertySpec) -> None:
        out.append(Alternative(len(out) + 1, LOG_JOIN, phy_op, l_expr, l_prop, r_expr, r_prop))

    if p.is_none:
        for a_sig, b_sig, crossing in parts:
            emit(HASH_JOIN, a_sig, PropertySpec.none(), b_sig, PropertySpec.none())
            for sort_a, sort_b in crossing:
                for inner_sig, inner_attr, outer_sig in (
                    (a_sig, sort_a.attr, b_sig),
                    (b_sig, sort_b.attr, a_sig),
                ):
                    if not inner_sig.is_leaf:
                        continue
                    rel_name, _, bare = inner_attr.partition(".")
                    if bare in cat.relation(rel_name).indexed_on:
                        emit(INDEX_NL_JOIN, inner_sig, PropertySpec.index_on(inner_attr),
                             outer_sig, PropertySpec.none())
            for sort_a, sort_b in crossing:
                emit(MERGE_JOIN, a_sig, sort_a, b_sig, sort_b)
    elif p.kind == PROP_SORTED:
        # only a merge join yields an order, and only from a partition with
        # a crossing pair sorted on the attribute
        for a_sig, b_sig, crossing in parts.sorted_on(p.attr):
            for sort_a, sort_b in crossing:
                if p.attr in (sort_a.attr, sort_b.attr):
                    emit(MERGE_JOIN, a_sig, sort_a, b_sig, sort_b)
    if not out:
        raise NoAlternatives(f"no operator yields {p} for {e}")
    return out


class SearchUniverse:
    """The reachable (expr, prop) group universe for one (catalog, query) pair.

    Memoizes each expression's partitions and each group's split output,
    filters alternatives down to the buildable ones (every child group can
    produce at least one plan), and exposes the full-space totals used as
    pruning/update-ratio denominators.  A group's raw split output is
    dropped once its buildable alternatives are known (an unbuildable group
    memoizes none), so ``split`` still runs once per group.

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
        self._raw: dict[GroupKey, tuple[Alternative, ...]] = {}
        self._alts: dict[GroupKey, tuple[Alternative, ...]] = {}
        self._buildable: dict[GroupKey, bool] = {}
        self._groups: list[GroupKey] | None = None
        self._parents: list[list[tuple[int, int]]] | None = None
        self._totals: tuple[int, int] | None = None

    def raw_alternatives(self, group: GroupKey) -> tuple[Alternative, ...]:
        got = self._raw.get(group)
        if got is None:
            e, p = group
            if e.is_leaf:
                got = tuple(leaf_alternatives(e, p, self.catalog))
            else:
                parts = self._parts.get(e)
                if parts is None:
                    parts = self._parts[e] = partitions(e, self.catalog, self._sigs)
                try:
                    got = tuple(split(e, p, self.catalog, parts))
                except NoAlternatives:
                    got = ()
            self._raw[group] = got
        return got

    def buildable(self, group: GroupKey) -> bool:
        # not folded into ``alternatives``: ``any`` stops at the first
        # buildable alternative, and one memo for both raised chain-16
        # (seed 7) from 4880 to 5079 ``split`` calls
        got = self._buildable.get(group)
        if got is None:
            got = any(
                all(self.buildable(c) for c in alt.children())
                for alt in self.raw_alternatives(group)
            )
            self._buildable[group] = got
            if not got:
                self._alts[group] = ()
                del self._raw[group]
        return got

    def alternatives(self, group: GroupKey) -> tuple[Alternative, ...]:
        got = self._alts.get(group)
        if got is None:
            i = self._number(group)
            kept: list[Alternative] = []
            kids = array("i")
            for a in self.raw_alternatives(group):
                if a.is_scan:
                    kept.append(a)
                    continue
                left, right = a.children()
                if self.buildable(left) and self.buildable(right):
                    kept.append(a)
                    kids.append(self._number(left))
                    kids.append(self._number(right))
            got = self._alts[group] = tuple(kept)
            self._buildable[group] = bool(got)
            del self._raw[group]
            self.group_alts[i] = got
            self.group_kids[i] = kids
        return got

    def _number(self, group: GroupKey) -> int:
        i = self._ids.get(group)
        if i is None:
            i = self._ids[group] = len(self.group_keys)
            self.group_keys.append(group)
            self.group_masks.append(expr_mask(group[0], self.catalog))
            self.group_alts.append(None)
            self.group_kids.append(None)
        return i

    def group_id(self, group: GroupKey) -> int:
        """``group``'s dense id, with its alternatives and their child ids
        computed."""
        i = self._ids.get(group)
        if i is None or self.group_alts[i] is None:
            alts = self.alternatives(group)
            i = self._number(group)
            if self.group_alts[i] is None:
                # unbuildable, so ``buildable`` memoized it without numbering
                self.group_alts[i] = alts
                self.group_kids[i] = array("i")
        return i

    @property
    def feasible(self) -> bool:
        return self.buildable(self.root)

    def groups(self) -> list[GroupKey]:
        """Buildable groups reachable from the root, root first, BFS order."""
        if self._groups is None:
            order: list[GroupKey] = []
            seen = {self.root}
            frontier = deque([self.root])
            while frontier:
                g = frontier.popleft()
                order.append(g)
                for alt in self.alternatives(g):
                    for child in alt.children():
                        if child not in seen:
                            seen.add(child)
                            frontier.append(child)
            self._groups = order
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

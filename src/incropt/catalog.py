"""Base-relation statistics, index metadata, and join-predicate selectivities.

The catalog is the sole source of numbers the cost model consumes.  It is an
immutable value: statistics updates return a new catalog rather than mutating
in place, so a loaded catalog is safe to share read-only.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ParseError, UnknownTarget, ValidationError

SCAN_COST = "scan_cost"
JOIN_SELECTIVITY = "join_selectivity"


@dataclass(frozen=True)
class RelationMeta:
    """Statistics and physical metadata for one base relation."""

    name: str
    cardinality: float
    attributes: tuple[str, ...]
    indexed_on: tuple[str, ...] = ()
    sorted_on: str | None = None
    scan_cost_factor: float = 1.0


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left = right`` with a scalar selectivity.

    ``left`` and ``right`` are qualified attributes of the form ``"R.a"``.
    Lookup is symmetric: the predicate is retrievable from either side.
    """

    left: str
    right: str
    selectivity: float

    @cached_property
    def left_relation(self) -> str:
        return self.left.split(".", 1)[0]

    @cached_property
    def right_relation(self) -> str:
        return self.right.split(".", 1)[0]

    @property
    def name(self) -> str:
        return f"{self.left}={self.right}"

    def relations(self) -> frozenset[str]:
        return frozenset((self.left_relation, self.right_relation))


@dataclass(frozen=True, slots=True)
class StatUpdate:
    """A multiplicative change to one catalog number.

    ``kind`` is ``"scan_cost"`` (target is a relation name) or
    ``"join_selectivity"`` (target is ``"R.a=S.b"``).  Applying an update and
    then its inverse restores the catalog within one ulp per touched number.
    Slotted: a re-optimizing session buffers one per status update.
    """

    kind: str
    target: str
    factor: float

    def __reduce__(self):
        # Python 3.10 cannot copy or pickle a frozen slotted dataclass by default
        return StatUpdate, (self.kind, self.target, self.factor)

    def inverse(self) -> "StatUpdate":
        return replace(self, factor=1.0 / self.factor)

    def target_relations(self) -> frozenset[str]:
        """Relations whose derived statistics this update can touch."""
        if self.kind == SCAN_COST:
            return frozenset((self.target,))
        left, right = self.target.split("=", 1)
        return frozenset((left.split(".", 1)[0], right.split(".", 1)[0]))


@dataclass(frozen=True)
class Catalog:
    relations: tuple[RelationMeta, ...]
    predicates: tuple[JoinPredicate, ...]

    @cached_property
    def _by_name(self) -> dict[str, RelationMeta]:
        return {r.name: r for r in self.relations}

    @cached_property
    def _pred_index(self) -> dict[frozenset[str], tuple[JoinPredicate, ...]]:
        idx: dict[frozenset[str], list[JoinPredicate]] = {}
        for p in self.predicates:
            idx.setdefault(p.relations(), []).append(p)
        return {k: tuple(v) for k, v in idx.items()}

    @cached_property
    def _sorted_predicates(self) -> tuple[JoinPredicate, ...]:
        return tuple(sorted(self.predicates, key=lambda p: (p.left, p.right)))

    @cached_property
    def relation_bits(self) -> dict[str, int]:
        """One bit per relation, in declaration order: relation sets as masks."""
        return {r.name: 1 << i for i, r in enumerate(self.relations)}

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per bit position, the mask of relations sharing a predicate with it."""
        adj = [0] * len(self.relations)
        for lbit, rbit, _ in self.predicate_bits:
            adj[lbit.bit_length() - 1] |= rbit
            adj[rbit.bit_length() - 1] |= lbit
        return tuple(adj)

    @cached_property
    def predicate_bits(self) -> tuple[tuple[int, int, JoinPredicate], ...]:
        """``(left relation bit, right relation bit, predicate)`` in canonical
        (left, right) order."""
        bits = self.relation_bits
        return tuple((bits[p.left_relation], bits[p.right_relation], p)
                     for p in self._sorted_predicates)

    @cached_property
    def name_order_bits(self) -> tuple[int, ...]:
        """The relation bits in relation-name order: a mask's first relation
        by name, as ``ExprSig`` sorts them, is the first of these it holds."""
        bits = self.relation_bits
        return tuple(bits[name] for name in sorted(bits))

    @cached_property
    def incident_selectivities(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per bit position, ``(other relation's bit, selectivity)`` of every
        predicate on that relation, in ``predicate_bits`` order."""
        out: list[list[tuple[int, float]]] = [[] for _ in self.relations]
        for lbit, rbit, p in self.predicate_bits:
            out[lbit.bit_length() - 1].append((rbit, p.selectivity))
            out[rbit.bit_length() - 1].append((lbit, p.selectivity))
        return tuple(map(tuple, out))

    def relation(self, name: str) -> RelationMeta:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTarget(f"unknown relation {name!r}") from None

    def predicates_between(self, r1: str, r2: str) -> tuple[JoinPredicate, ...]:
        return self._pred_index.get(frozenset((r1, r2)), ())

    def crossing_predicates(self, left: frozenset[str] | tuple[str, ...],
                            right: frozenset[str] | tuple[str, ...]) -> tuple[JoinPredicate, ...]:
        """All predicates with one endpoint in ``left`` and the other in ``right``.

        Returned in canonical (left, right) string order so selectivity
        products are reproducible.
        """
        lset, rset = set(left), set(right)
        return tuple(
            p for p in self._sorted_predicates
            if (p.left_relation in lset and p.right_relation in rset)
            or (p.left_relation in rset and p.right_relation in lset)
        )

    def to_dict(self) -> dict:
        return {
            "relations": [
                {
                    "name": r.name,
                    "cardinality": r.cardinality,
                    "attributes": list(r.attributes),
                    "indexed_on": list(r.indexed_on),
                    "sorted_on": r.sorted_on,
                    "scan_cost_factor": r.scan_cost_factor,
                }
                for r in self.relations
            ],
            "predicates": [
                {"left": p.left, "right": p.right, "selectivity": p.selectivity}
                for p in self.predicates
            ],
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_RELATION_KEYS = {"name", "cardinality", "attributes", "indexed_on", "sorted_on", "scan_cost_factor"}
_PREDICATE_KEYS = {"left", "right", "selectivity"}
_CATALOG_KEYS = {"relations", "predicates"}
_UPDATE_KEYS = {"kind", "target", "factor"}


def _json_type(value) -> str:
    """The JSON type of a parsed value, as an error message names it: never
    the value itself, which may be a whole file."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    return "an array" if isinstance(value, list) else "an object"


def json_object(obj, where: str) -> dict:
    """``obj`` when it is a JSON object, else a ParseError naming ``where``
    and the JSON type found there."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object, got {_json_type(obj)}")
    return obj


def json_array(data: dict, key: str, where: str) -> list:
    """``data[key]`` (an empty list when absent) when it is a JSON array."""
    got = data.get(key, [])
    if not isinstance(got, list):
        raise ParseError(f"{where} {key!r} must be a JSON array, got {_json_type(got)}")
    return got


def json_string(value, where: str) -> str:
    """``value`` when it is a JSON string, else a ParseError naming ``where``
    and the JSON type found there."""
    if not isinstance(value, str):
        raise ParseError(f"{where} must be a JSON string, got {_json_type(value)}")
    return value


def json_strings(value, where: str) -> tuple[str, ...]:
    """``value`` as a tuple when it is a JSON array of strings."""
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a JSON array, got {_json_type(value)}")
    return tuple(json_string(v, f"{where} entry {k}") for k, v in enumerate(value))


def reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    """A ParseError listing the keys of ``obj`` outside ``allowed``."""
    extra = set(obj) - allowed
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)} in {where}")


def read_json(path: str, what: str):
    """The parsed JSON of the file at ``path``; a ParseError names ``what``
    when it cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc


def _qualified(attr: str, where: str) -> tuple[str, str]:
    if attr.count(".") != 1:
        raise ParseError(f"attribute {attr!r} in {where} must be qualified as 'R.a'")
    rel, a = attr.split(".", 1)
    return rel, a


def catalog_from_dict(data: dict) -> Catalog:
    """Build and validate a catalog from the JSON object layout."""
    json_object(data, "catalog root")
    reject_unknown(data, _CATALOG_KEYS, "catalog")
    relations = []
    for k, obj in enumerate(json_array(data, "relations", "catalog")):
        where = f"catalog relation entry {k}"
        json_object(obj, where)
        reject_unknown(obj, _RELATION_KEYS, f"relation {obj.get('name')!r}")
        try:
            sorted_on = obj.get("sorted_on")
            relations.append(RelationMeta(
                name=json_string(obj["name"], f"{where} 'name'"),
                cardinality=float(obj["cardinality"]),
                attributes=json_strings(obj["attributes"], f"{where} 'attributes'"),
                indexed_on=json_strings(obj.get("indexed_on", []), f"{where} 'indexed_on'"),
                sorted_on=None if sorted_on is None
                else json_string(sorted_on, f"{where} 'sorted_on'"),
                scan_cost_factor=float(obj.get("scan_cost_factor", 1.0)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed relation entry: {exc}") from exc
    predicates = []
    for k, obj in enumerate(json_array(data, "predicates", "catalog")):
        where = f"catalog predicate entry {k}"
        json_object(obj, where)
        reject_unknown(obj, _PREDICATE_KEYS, "predicate")
        try:
            predicates.append(JoinPredicate(
                left=json_string(obj["left"], f"{where} 'left'"),
                right=json_string(obj["right"], f"{where} 'right'"),
                selectivity=float(obj["selectivity"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed predicate entry: {exc}") from exc
    cat = Catalog(relations=tuple(relations), predicates=tuple(predicates))
    validate_catalog(cat)
    return cat


def validate_catalog(cat: Catalog) -> None:
    if not cat.relations:
        raise ValidationError("catalog declares no relations")
    names = [r.name for r in cat.relations]
    if len(set(names)) != len(names):
        raise ValidationError("relation names are not unique")
    for r in cat.relations:
        # NaN fails every comparison, so each test is written to pass
        # only a finite value in range
        if not (math.isfinite(r.cardinality) and r.cardinality >= 1):
            raise ValidationError(
                f"relation {r.name}: cardinality must be finite and >= 1, got {r.cardinality}")
        if not (math.isfinite(r.scan_cost_factor) and r.scan_cost_factor > 0):
            raise ValidationError(
                f"relation {r.name}: scan_cost_factor must be finite and positive, "
                f"got {r.scan_cost_factor}")
        attrs = set(r.attributes)
        if r.sorted_on is not None and r.sorted_on not in attrs:
            raise ValidationError(f"relation {r.name}: sorted_on {r.sorted_on!r} not an attribute")
        for a in r.indexed_on:
            if a not in attrs:
                raise ValidationError(f"relation {r.name}: indexed_on {a!r} not an attribute")
    declared = set(names)
    for p in cat.predicates:
        for side in (p.left, p.right):
            rel, attr = _qualified(side, "predicate")
            if rel not in declared:
                raise ValidationError(f"predicate references undeclared relation {rel!r}")
            if attr not in cat.relation(rel).attributes:
                raise ValidationError(f"predicate references undeclared attribute {side!r}")
        if p.left_relation == p.right_relation:
            raise ValidationError(f"predicate {p.name} joins a relation with itself")
        if not (0.0 < p.selectivity <= 1.0):
            raise ValidationError(f"predicate {p.name}: selectivity must be in (0, 1]")


def load_catalog(path: str) -> Catalog:
    """Parse and validate a catalog file; deterministic for identical bytes."""
    return catalog_from_dict(read_json(path, "catalog file"))


def load_updates(path: str) -> list[StatUpdate]:
    data = read_json(path, "updates file")
    if not isinstance(data, list):
        raise ParseError("updates file must be a JSON array")
    out = []
    for k, obj in enumerate(data):
        where = f"update entry {k}"
        json_object(obj, where)
        reject_unknown(obj, _UPDATE_KEYS, "update")
        try:
            u = StatUpdate(kind=json_string(obj["kind"], f"{where} 'kind'"),
                           target=json_string(obj["target"], f"{where} 'target'"),
                           factor=float(obj["factor"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed update entry: {exc}") from exc
        if u.kind not in (SCAN_COST, JOIN_SELECTIVITY):
            raise ParseError(f"unknown update kind {u.kind!r}")
        _check_factor(u.factor)
        out.append(u)
    return out


def _check_factor(factor: float) -> None:
    if not (math.isfinite(factor) and factor > 0):
        raise ValidationError(f"update factor must be finite and positive, got {factor}")


def _check_folded(what: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"update makes {what} {value}, not a finite number")
    return value


def find_predicate(cat: Catalog, target: str) -> JoinPredicate:
    """The predicate joining exactly the two columns of ``target``
    (``"R.a=S.b"``, either side first); ``UnknownTarget`` if none does."""
    if "=" not in target:
        raise UnknownTarget(f"join_selectivity target {target!r} must look like 'R.a=S.b'")
    left, right = target.split("=", 1)
    for p in cat.predicates:
        if {p.left, p.right} == {left, right}:
            return p
    raise UnknownTarget(f"no predicate {target!r} in catalog")


def apply_update(cat: Catalog, u: StatUpdate) -> Catalog:
    """Return a catalog with the one targeted number multiplied by ``u.factor``.

    Everything else is carried over bit-identically.  A factor, or a
    folded value, that is not a finite number is rejected.
    """
    _check_factor(u.factor)
    if u.kind == SCAN_COST:
        rel = cat.relation(u.target)
        factor = _check_folded(f"scan_cost_factor of {rel.name}",
                               rel.scan_cost_factor * u.factor)
        new_rel = replace(rel, scan_cost_factor=factor)
        rels = tuple(new_rel if r.name == u.target else r for r in cat.relations)
        return Catalog(relations=rels, predicates=cat.predicates)
    if u.kind == JOIN_SELECTIVITY:
        pred = find_predicate(cat, u.target)
        new_pred = replace(pred, selectivity=_check_folded(
            f"selectivity of {pred.name}", pred.selectivity * u.factor))
        preds = tuple(new_pred if p is pred else p for p in cat.predicates)
        return Catalog(relations=cat.relations, predicates=preds)
    raise UnknownTarget(f"unknown update kind {u.kind!r}")

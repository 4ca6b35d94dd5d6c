"""Input documents for the CLI: one space, named fuzzy sets, families and
sequences, loaded from UTF-8 JSON and fully validated.

Schema (top level):
  "space":      {"type": "euclidean", "dim": m} or {"type": "finite", "matrix": [[...]]}
  "fuzzy_sets": [{"name": ..., "levels": [{"alpha": a, "points": [...]}, ...]}, ...]
  "families":   [{"name": ..., "members": [names]} or
                 {"name": ..., "generator": {"kind", "params", "count", "seed"}}, ...]
  "sequences":  [{"name": ..., "members": [names]}, ...]

Levels list full cuts: alphas strictly decreasing starting at 1.0 and each
lower level lists a superset of the level above. Points are coordinate arrays
in euclidean mode and integer indices in finite mode. Generator-expanded
members are registered as fuzzy sets named "<family>[k]". Sequences may
repeat names; sequence lookups fall back to family names, so a generated
family can be used directly as a sequence.

The loader checks the JSON shape: objects, lists, names, references,
generator kinds and params, and euclidean points as lists. Every value is
checked, as in a library call, by the constructor that uses it (MetricSpace,
point_array, make_fuzzy, the generators' checks), whose error the loader
prefixes with the space, fuzzy set or family. Generators are checked at
load, which fixes their member names; a family is built when it or one of
its members is first read, and kept.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from json.encoder import encode_basestring_ascii as _name
from typing import Any, Iterator, Mapping

from .common import InputError
from .families import FuzzyFamily, fuzzy_family
from .fuzzy import StepFuzzySet, make_fuzzy
from .generators import (
    collapse_count,
    collapse_family,
    crisp_interval_count,
    crisp_interval_family,
    random_count,
    random_family,
    translates_count,
    translates_family,
)
from .sets import finite_set
from .space import EUCLIDEAN, FINITE, MetricSpace, validate_metric
from .certificates import Verdict


class _BuiltOnRead(Mapping):
    """A read-only view, in insertion order, of a document's fuzzy sets or
    families. A generated family and its members share one pending build (a
    functools.partial returning the family's name and the family), called on
    the first read of any of them, once even under concurrent first reads.
    Under the lock the document's two views share, the family and its members
    then replace it; only values change, so iterating a view stays valid."""

    def __init__(self, values: dict[str, Any], fams: dict[str, Any], sets: dict[str, Any], lock: threading.Lock):
        self._values, self._fams, self._sets, self._lock = values, fams, sets, lock

    def __getitem__(self, key: str) -> Any:
        if type(self._values[key]) is partial:
            with self._lock:
                if type(self._values[key]) is partial:
                    name, fam = self._values[key]()
                    self._fams[name] = fam
                    self._sets.update(zip(fam.names, fam.members))
        return self._values[key]

    def __contains__(self, key: object) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


@dataclass(frozen=True)
class Document:
    space: MetricSpace
    fuzzy_sets: Mapping[str, StepFuzzySet]
    declared: tuple[str, ...]
    families: Mapping[str, FuzzyFamily] = field(default_factory=dict)
    sequences: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def fuzzy(self, name: str) -> StepFuzzySet:
        try:
            return self.fuzzy_sets[name]
        except KeyError:
            raise InputError(f"unknown fuzzy set {name!r}") from None

    def family(self, name: str) -> FuzzyFamily:
        try:
            return self.families[name]
        except KeyError:
            raise InputError(f"unknown family {name!r}") from None

    def sequence(self, name: str) -> list[StepFuzzySet]:
        """Resolve a sequence name; family names are accepted as sequences in
        member order."""
        if name in self.sequences:
            return [self.fuzzy(m) for m in self.sequences[name]]
        if name in self.families:
            return list(self.families[name].members)
        raise InputError(f"unknown sequence {name!r}")


def _need(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    return obj[key]


@contextmanager
def _prefixed(where: str) -> Iterator[None]:
    """Prefix the InputError of a library check with the part of the
    document it concerns."""
    try:
        yield
    except InputError as e:
        raise InputError(f"{where}: {e}") from None


def _check_name(name: Any, where: str) -> str:
    if not isinstance(name, str) or not name:
        raise InputError(f"{where}: name must be a nonempty string")
    if any(c in name for c in ",\n\r"):
        raise InputError(f"{where}: name {name!r} contains a comma or newline")
    return name


def _parse_space(obj: Any) -> MetricSpace:
    if not isinstance(obj, Mapping):
        raise InputError("space: must be an object")
    kind = _need(obj, "type", "space")
    if kind == EUCLIDEAN:
        dim = _need(obj, "dim", "space")
        with _prefixed("space"):
            return MetricSpace.euclidean(dim)
    if kind == FINITE:
        matrix = _need(obj, "matrix", "space")
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise InputError("space: matrix must be a list of rows")
        with _prefixed("space"):
            space = MetricSpace.finite(matrix)
        cert = validate_metric(space)
        if cert.verdict is not Verdict.PASS:
            raise InputError(f"space: matrix is not a metric ({cert.witness})")
        return space
    raise InputError(f"space: unknown type {kind!r}")


def _parse_points(space: MetricSpace, raw: Any, where: str) -> list:
    if not isinstance(raw, list):
        raise InputError(f"{where}: points must be a list")
    # a euclidean point must be a list, although point_array takes a number
    # as a point in dimension 1
    if space.mode == EUCLIDEAN:
        for p in raw:
            if not isinstance(p, list):
                raise InputError(f"{where}: euclidean point must be a coordinate list, got {p!r}")
    return raw


def _entries(data: Mapping, key: str) -> list[Mapping]:
    """The objects listed under a top-level key; none when it is absent."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise InputError(f"document: {key} must be a list")
    if not all(isinstance(obj, Mapping) for obj in entries):
        raise InputError(f"{key}: entries must be objects")
    return entries


def _members(obj: Mapping, where: str, fuzzy_sets: Mapping[str, StepFuzzySet]) -> list[str]:
    """The member names of a family or sequence: a nonempty list of names of
    fuzzy sets declared or generated before it."""
    names = _need(obj, "members", where)
    if not isinstance(names, list) or not names or not all(isinstance(m, str) for m in names):
        raise InputError(f"{where}: members must be a nonempty list of names")
    for m in names:
        if m not in fuzzy_sets:
            raise InputError(f"{where}: unknown member {m!r}")
    return names


def _parse_fuzzy(space: MetricSpace, obj: Mapping) -> tuple[str, StepFuzzySet]:
    name = _check_name(_need(obj, "name", "fuzzy_sets"), "fuzzy_sets")
    where = f"fuzzy set {name!r}"
    raw_levels = _need(obj, "levels", where)
    if not isinstance(raw_levels, list) or not raw_levels:
        raise InputError(f"{where}: levels must be a nonempty list")
    levels = []
    for lv in raw_levels:
        if not isinstance(lv, Mapping):
            raise InputError(f"{where}: each level must be an object")
        levels.append((_need(lv, "alpha", where), _parse_points(space, _need(lv, "points", where), where)))
    with _prefixed(where):
        return name, make_fuzzy([(alpha, finite_set(space, pts)) for alpha, pts in levels])


# Per kind: the family generator, its check and the params it takes. Members
# are built through this table when first read.
_GENERATORS = {
    "translates": (translates_family, translates_count, ("start", "step")),
    "collapse": (collapse_family, collapse_count, ("base", "far")),
    "crisp_intervals": (crisp_interval_family, crisp_interval_count, ("low", "high", "step")),
    "random": (random_family, random_count, ("box", "max_levels", "max_points")),
}


def _check_generator(space: MetricSpace, name: str, gen: Any, default_seed: int) -> tuple[partial, tuple[str, ...]]:
    """The call that builds a generated family, and its member names. The
    loader checks the JSON shape; the generator's check, the values."""
    if not isinstance(gen, Mapping):
        raise InputError(f"family {name!r}: generator must be an object")
    kind = _need(gen, "kind", f"family {name!r} generator")
    if not isinstance(kind, str) or kind not in _GENERATORS:
        raise InputError(f"family {name!r}: unknown generator kind {kind!r}")
    if kind == "crisp_intervals" and "count" in gen:
        raise InputError(f"family {name!r}: crisp_intervals derives its count from the grid")
    params = gen.get("params", {})
    if not isinstance(params, Mapping):
        raise InputError(f"family {name!r}: generator params must be an object")
    fields = ("kind", "params") + ("count",) * (kind != "crisp_intervals") + ("seed",) * (kind == "random")
    for what, given, allowed in (("fields", gen, fields), ("params", params, _GENERATORS[kind][2])):
        bad = sorted(set(given) - set(allowed))
        if bad:
            raise InputError(f"family {name!r}: unknown generator {what} {bad} (allowed: {list(allowed)})")
    args = () if kind == "crisp_intervals" else (_need(gen, "count", f"family {name!r} generator"),)
    kwargs = {**params, "seed": gen.get("seed", default_seed)} if kind == "random" else dict(params)
    with _prefixed(f"family {name!r}"):
        count = _GENERATORS[kind][1](space, *args, **kwargs)
    names = tuple(f"{name}[{k + 1}]" for k in range(count))
    return partial(_generate, kind, name, names, space, *args, **kwargs), names


def _generate(kind: str, name: str, names: tuple[str, ...], *args, **kwargs) -> tuple[str, FuzzyFamily]:
    # the generator validated the family, and these names are distinct too
    return name, replace(_GENERATORS[kind][0](*args, **kwargs), names=names)


def parse_document(data: Any, default_seed: int = 0) -> Document:
    """Validate a decoded JSON document, generators included; each generated
    family is built when it or one of its members is first read."""
    if not isinstance(data, Mapping):
        raise InputError("document: top level must be an object")
    space = _parse_space(_need(data, "space", "document"))
    sets: dict[str, Any] = {}
    for obj in _entries(data, "fuzzy_sets"):
        name, u = _parse_fuzzy(space, obj)
        if name in sets:
            raise InputError(f"duplicate fuzzy set name {name!r}")
        sets[name] = u
    declared = tuple(sets)
    fams: dict[str, Any] = {}
    lock = threading.Lock()
    fuzzy_sets, families = (_BuiltOnRead(values, fams, sets, lock) for values in (sets, fams))
    for obj in _entries(data, "families"):
        name = _check_name(_need(obj, "name", "families"), "families")
        if name in fams:
            raise InputError(f"duplicate family name {name!r}")
        if ("members" in obj) == ("generator" in obj):
            raise InputError(f"family {name!r}: needs exactly one of members or generator")
        if "members" in obj:
            member_names = _members(obj, f"family {name!r}", fuzzy_sets)
            fams[name] = fuzzy_family([fuzzy_sets[m] for m in member_names], member_names)
        else:
            fams[name], names = _check_generator(space, name, obj["generator"], default_seed)
            clash = next(filter(sets.__contains__, names), None)
            if clash is not None:
                raise InputError(f"generated name {clash!r} collides with a fuzzy set")
            sets.update(dict.fromkeys(names, fams[name]))
    sequences: dict[str, tuple[str, ...]] = {}
    for obj in _entries(data, "sequences"):
        name = _check_name(_need(obj, "name", "sequences"), "sequences")
        if name in sequences:
            raise InputError(f"duplicate sequence name {name!r}")
        sequences[name] = tuple(_members(obj, f"sequence {name!r}", fuzzy_sets))
    return Document(space, fuzzy_sets, declared, families, sequences)


def load_document(path: str, default_seed: int = 0) -> Document:
    """Load and validate a document from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:  # text that is not UTF-8, or an integer of more digits than int() takes
        raise InputError(f"{path}: {e}") from None
    return parse_document(data, default_seed)


# One line from the C encoder; json.dumps with an indent runs pure Python.
_encode = json.JSONEncoder().encode


def _array(items: list[str], indent: str) -> str:
    """Encoded items laid out as json.dumps(indent=2) lays out an array."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]" if items else "[]"


def _leaves(arrays: list[list], indent: str) -> list[str]:
    """Arrays of numbers, or all of arrays of numbers, from one C encoder call:
    numbers hold no bracket, comma or NUL, so separators are indented in place."""
    one, two, end = "\n" + indent + "  ", "\n" + indent + "    ", "\n" + indent + "]"
    text = _encode(arrays)[1:-1]
    if text.startswith("[["):
        text = (text.replace("]], [[", "]]\0[[").replace("], [", f"{one}],{one}[{two}")
                .replace(", ", "," + two).replace("[[", f"[{one}[{two}").replace("]]", f"{one}]{end}"))
    else:
        text = text.replace("], [", "]\0[").replace(", ", "," + one).replace("[", "[" + one).replace("]", end)
    return text.split("\0") if arrays else []


def dumps_document(doc: Document) -> str:
    """The document with every generator expanded, as json.dumps(indent=2,
    sort_keys=True) writes it, read from the Document: one C encoder call per
    kind of leaf and one template per kind of object. Cuts hash by identity,
    so each distinct cut is encoded once; the cut texts, then the level texts,
    are freed once the objects holding them are laid out."""
    sets = list(doc.fuzzy_sets.items())
    levels = [lv for _, u in sets for lv in u.levels]
    cuts = dict.fromkeys(cut for _, cut in levels)
    texts = dict(zip(cuts, _leaves([cut.array.tolist() for cut in cuts], " " * 10)))
    alphas = _encode([a for a, _ in levels])[1:-1].split(", ")
    level_objs = iter([f'{{\n          "alpha": {a},\n          "points": {texts[cut]}\n        }}'
                       for a, (_, cut) in zip(alphas, levels)])
    del texts

    def named(key: str, items: list[str], name: str) -> str:
        return f'{{\n      "{key}": {_array(items, " " * 6)},\n      "name": {_name(name)}\n    }}'

    fuzzy_sets = [named("levels", [next(level_objs) for _ in u.levels], name) for name, u in sets]
    del level_objs
    families = [named("members", list(map(_name, fam.names)), name) for name, fam in doc.families.items()]
    sequences = [named("members", list(map(_name, members)), name) for name, members in doc.sequences.items()]
    space = doc.space
    shape = (f'"dim": {_encode(space.dim)}' if space.mode == EUCLIDEAN
             else f'"matrix": {_leaves([space.matrix_array.tolist()], "    ")[0]}')
    return (f'{{\n  "families": {_array(families, "  ")},\n  "fuzzy_sets": {_array(fuzzy_sets, "  ")},\n'
            f'  "sequences": {_array(sequences, "  ")},\n'
            f'  "space": {{\n    {shape},\n    "type": {_name(space.mode)}\n  }}\n}}')

"""The one JSON mapping shared by every report dataclass.

Every report, harness.ExperimentReport included, serializes through it.
Exact values stay exact: a Fraction is written as its exact string ("12/7"),
a GroupSubset (a frozen dataclass, as is its GroupSpec) as its ascending
index list.  No record holds an mpmath value: cascade_audit formats each one
as a string (cascade._fmt) at the ledger's working precision while it builds
the ledger.  Nested records, lists, tuples and dicts are mapped value by
value; everything else (None, bool, int, float, str) passes through
unchanged.

A field's JSON key is its name unless field(metadata={"json": key}) says
otherwise; a key of None leaves the field out, for a record whose to_json
writes a derived key in its place.

The module also owns both encodings of a mapped document.  to_text writes
the CLI's report, the text of json.dumps(doc, indent=2, sort_keys=True);
canonical_bytes writes the compact sorted form that report comparisons
read.  With an indent, json.dumps runs CPython's pure-Python encoder on
every value, some 33k-entry index lists included; to_text hands each
container that holds no container to the C encoder, with the line break
and indent of its depth as the item separator, and adds the indent at its
two ends itself.  Other containers recurse; their str, int, bool and None
items are written as json writes them, and any other item by the C
encoder.  Keys must be str: json.dumps would write an int key as a string,
which no report does, so to_text refuses it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import fields
from fractions import Fraction

from .subsets import GroupSubset


class Record:
    """Mixin giving a dataclass the shared to_json."""

    def to_json(self) -> dict:
        doc = {}
        for f in fields(self):
            key = f.metadata.get("json", f.name)
            if key is not None:
                doc[key] = _jsonable(getattr(self, f.name))
        return doc


# written unchanged; a set, since the types of a scan's index lists are tested against it
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _jsonable(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, GroupSubset):
        return value.to_index_list()
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _PLAIN:  # one C-level pass over a scan's index lists
            return list(value)
        return [v if type(v) in _PLAIN else _jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


_CONTAINERS = (dict, list, tuple)
_INDENT = "  "
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# the scalars a report holds most, as json writes them, without an encoder call each
_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def canonical_bytes(doc) -> bytes:
    """json.dumps(doc, sort_keys=True, separators=(",", ":")), encoded."""
    return _COMPACT.encode(doc).encode()


def to_text(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True); a key that is not a str raises TypeError."""
    return _indented(doc, 0)


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder of a container at `depth` whose items are all scalars."""
    return json.JSONEncoder(separators=(",\n" + _INDENT * (depth + 1), ": "), sort_keys=True)


def _indented(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value `depth` levels down."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:  # floats, and subclasses of the scalar types, as the C encoder writes them
        return _COMPACT.encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    outer = "\n" + _INDENT * depth
    inner = outer + _INDENT
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        text = _flat_encoder(depth).encode(value)  # the items, joined by "," + inner
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(value, dict):
        parts = [_encode_str(k) + ": " + _indented(value[k], depth + 1) for k in sorted(value)]
        opening, closing = "{}"
    else:
        parts = [_indented(v, depth + 1) for v in value]
        opening, closing = "[]"
    return opening + inner + ("," + inner).join(parts) + outer + closing

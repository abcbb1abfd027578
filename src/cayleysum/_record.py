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
"""

from __future__ import annotations

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


# written unchanged; a set, since every entry of a scan's index lists is tested
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
        return [v if type(v) in _PLAIN else _jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value

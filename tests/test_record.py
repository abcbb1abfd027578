"""The report mapping and writers of _record against the json module they stand in for.

to_text must give the text of json.dumps(doc, indent=2, sort_keys=True) on
every document a report can hold, and canonical_bytes the compact sorted
encoding; a key that is not a str must raise rather than be written.
_jsonable must map every list or tuple to a list, with its records,
Fractions and subsets mapped in turn.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum._record import Record, _jsonable, canonical_bytes, to_text
from cayleysum.groups import parse_group
from cayleysum.subsets import GroupSubset

# control characters, quotes, backslashes, non-ASCII, astral and line-separator text
_AWKWARD = st.text(st.sampled_from('a"\\/\x00\x01\x1f\x7f\n\t\r é€ \U0001f600'), max_size=6)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, True, False, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    _AWKWARD,
)
KEYS = st.one_of(st.text(max_size=4), _AWKWARD)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    )


DOCS = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=200, deadline=None, database=None)
@given(doc=DOCS)
def test_to_text_equals_indented_json_dumps(doc):
    assert to_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None, database=None)
@given(doc=DOCS)
def test_canonical_bytes_equal_compact_json_dumps(doc):
    assert canonical_bytes(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]]],
        {"leaf": {"x": 1, "y": [1, 2]}},
        [1, [2, 3], {"k": True}, 4, (5,)],
        {"n": [True, 1, False, 0, 2**70, -(2**64), None]},
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324],
        {"é\x00": "\x1f ", "a": ["\U0001f600", '"\\']},
        "plain",
        7,
    ],
)
def test_to_text_on_chosen_documents(doc):
    assert to_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
@settings(max_examples=30, deadline=None, database=None)
@given(value=DOCS, depth=st.integers(0, 3))
def test_non_str_key_raises(key, value, depth):
    # json.dumps would write the key as a string; no report has one, so the
    # writer refuses it, in a dict of scalars (which the C encoder writes) and
    # in one that recurses alike
    for bad in ({key: 0}, {key: value}, {key: [value]}):
        for _ in range(depth):
            bad = {"outer": [0, bad]}
        with pytest.raises(TypeError):
            to_text(bad)


@dataclass
class _Pair(Record):
    ratio: Fraction
    rows: tuple


@pytest.mark.parametrize("plain", [list(range(0, 16000, 2)), [0, "a", 1.5, True, None], []])
def test_plain_sequences_map_to_new_lists(plain):
    # a list or tuple of plain entries takes the one-pass path: out comes a
    # list, never the record's own object
    for value in (plain, tuple(plain)):
        mapped = _jsonable(value)
        assert type(mapped) is list and mapped == plain and mapped is not value


def test_sequences_with_records_map_each_entry():
    g = parse_group("z12")
    value = (
        3,
        Fraction(1, 2),
        GroupSubset.from_indices(g, [5, 1]),
        _Pair(Fraction(2, 7), (1, (2, 3))),
        [_Pair(Fraction(-1, 3), ())],
        (4, 5),
        {"k": (Fraction(3, 4),)},
    )
    mapped = _jsonable([value, 0])
    assert mapped == [
        [
            3,
            "1/2",
            [1, 5],
            {"ratio": "2/7", "rows": [1, [2, 3]]},
            [{"ratio": "-1/3", "rows": []}],
            [4, 5],
            {"k": ["3/4"]},
        ],
        0,
    ]
    assert type(mapped[0]) is list and type(mapped[0][5]) is list

"""The one-pass JSON writer against ``json.dumps`` of the type mapping it
replaced: the same bytes on every report, and the same error on an object
it cannot write."""

import dataclasses
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace.reports import _key, _past_limit, dumps_csv, dumps_json, \
    frac_str, to_jsonable
from foldspace.walk import ExperimentConfig, run_walk


def old_to_jsonable(obj):
    """The type mapping as ``json.dumps`` was given it: exact numbers as
    ``frac_str`` text, ints past the digit limit in hex, non-finite floats
    as strings, dataclasses as their fields, keys through ``_key``, sets
    sorted by ``str``."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return hex(obj) if _past_limit(obj) else obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: old_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): old_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [old_to_jsonable(x) for x in sorted(obj, key=str)]
    if isinstance(obj, (list, tuple, range)):
        return [old_to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def old_dumps_json(obj):
    return json.dumps(old_to_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@dataclasses.dataclass(frozen=True)
class Pair:
    left: object
    right: object = None


@dataclasses.dataclass
class Empty:
    pass


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_EDGE_INTS = [10 ** (_LIMIT - 1), 10 ** (_LIMIT - 1) - 1, 10 ** _LIMIT,
              10 ** _LIMIT + 1, 2 ** 2000, 2 ** 1999 - 1]
_EDGE_INTS += [-n for n in _EDGE_INTS]
_EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308,
                5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7]



def _edge_int(i):
    return _EDGE_INTS[i]


# drawn by index: hypothesis cannot repr an int past the digit limit
_edge_ints = st.integers(0, len(_EDGE_INTS) - 1).map(_edge_int)
_ints = st.one_of(st.integers(), _edge_ints)
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_fractions = st.one_of(
    st.fractions(),
    _edge_ints.map(lambda n: Fraction(n, 7)),
    _edge_ints.map(lambda n: Fraction(3, abs(n) + 1)))
_texts = st.text(st.characters(codec=None, exclude_categories=()),
                 max_size=8)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _fractions,
                     _texts)
_hashables = st.one_of(_scalars, st.tuples(st.integers(), _texts))
_keys = st.one_of(_texts, st.integers(-5, 5), st.booleans(), st.none(),
                  st.fractions(max_denominator=4),
                  st.tuples(st.integers(0, 3), st.integers(0, 3)),
                  st.tuples(_texts, st.integers(), st.booleans()),
                  st.sampled_from(["1:2", "0:0", "True", "None"]))
_unsupported = st.sampled_from([1 + 2j, b"bytes", object(), Decimal("1.5"),
                                Pair, bytearray(b"x")])


def _children(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.builds(range, st.integers(-3, 3), st.integers(-3, 6)),
        st.sets(_hashables, max_size=5),
        st.frozensets(_hashables, max_size=5),
        st.dictionaries(_keys, inner, max_size=5),
        st.builds(Pair, inner, inner),
        st.just(Empty()),
    )


_reports = st.recursive(_scalars, _children, max_leaves=30)
_bad_reports = st.recursive(st.one_of(_scalars, _unsupported), _children,
                            max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(obj=_reports)
def test_writer_matches_json_dumps(obj):
    # a set holding an int past the digit limit cannot be sorted by str:
    # both writers raise the same ValueError
    text = _outcome(dumps_json, obj)
    assert text == _outcome(old_dumps_json, obj)
    if isinstance(text, str):
        assert to_jsonable(obj) == old_to_jsonable(obj)


@settings(max_examples=300, deadline=None)
@given(obj=_bad_reports)
def test_writer_raises_what_json_dumps_raised(obj):
    assert _outcome(dumps_json, obj) == _outcome(old_dumps_json, obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), set(), frozenset(), range(0), Empty(), "", {"a": {}},
    [[], {}], {(1, 2): "tuple", "1:2": "string"},
    {"1:2": "string", (1, 2): "tuple"}, {True: 1, "True": 2},
    [True, 1, False, 0, None], "café \x00\x1f  \ud800",
    [math.inf, -math.inf, math.nan, -0.0, 1e308, 5e-324],
    _EDGE_INTS, {str(n % 7): Fraction(n, 3) for n in _EDGE_INTS},
])
def test_edge_cases_match_json_dumps(obj):
    assert dumps_json(obj) == old_dumps_json(obj)


@pytest.mark.parametrize("obj", [
    object(), 1j, [1, 2, b"x"], {"a": {"b": Decimal(1)}}, Pair,
    {"b": object(), "a": 1j},
    # a later key overwrites an earlier one, whose value is still met
    {(1, 2): object(), "1:2": 0},
    {10 ** _LIMIT: 1},
])
def test_unsupported_objects_raise_the_same_error(obj):
    expected = _outcome(old_dumps_json, obj)
    assert isinstance(expected, tuple)
    assert _outcome(dumps_json, obj) == expected


def test_walk_report_matches_json_dumps():
    report = {"walk": run_walk(ExperimentConfig(seed=3, steps=300))}
    assert dumps_json(report) == old_dumps_json(report)


def test_csv_keeps_the_sign_of_an_infinity():
    """CSV cells write infinities as the JSON writer does: -inf stays
    negative (``fold --format csv`` writes -inf for a zero maximum)."""
    assert dumps_csv(("level", "log_extreme"),
                     [(0, -math.inf), (1, math.inf), (2, 0.5)]) == \
        "level,log_extreme\n0,-inf\n1,inf\n2,0.5\n"

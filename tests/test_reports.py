"""The one-pass JSON writer against ``json.dumps`` of the type mapping it
replaced: the same bytes on every report, and the same error on an object
it cannot write."""

import csv
import dataclasses
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspace.reports import _key, _rows, dumps_csv, dumps_json, \
    frac_str, to_jsonable
from foldspace.walk import ExperimentConfig, run_walk


def _past_limit(n):
    """Whether ``str(n)`` is refused by the int-to-str digit limit."""
    if n.bit_length() < 2000:   # 603 digits, under every allowed limit
        return False
    try:
        str(n)
    except ValueError:
        return True
    return False


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


class _Int(int):
    def __repr__(self):
        return f"_Int({int(self)})"


class _Float(float):
    def __repr__(self):
        return f"_Float({float(self)})"


# the shapes the writer's run and row paths take, and their near misses
_plain_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                     1.7976931348623157e308, 0.1, 1e16, 1e-7]))
_plain_ints = st.one_of(st.integers(), st.integers(-3, 3))
# ints past the digit limit, drawn by index as ``_edge_ints`` are
_past_limit_ints = st.sampled_from([2, 3, 8, 9]).map(_edge_int)
_seq_type = st.sampled_from([list, tuple])


@st.composite
def _with_one(draw, items, extra):
    """``items`` with one ``extra`` at its start, middle or end."""
    items = list(draw(items))
    at = draw(st.sampled_from([0, len(items) // 2, len(items)]))
    items.insert(at, draw(extra))
    return items


_float_runs = st.one_of(
    st.lists(_plain_floats, min_size=1, max_size=8),
    _with_one(st.lists(_plain_floats, max_size=6),
              st.sampled_from([math.inf, -math.inf, math.nan])))
_int_runs = st.one_of(
    st.lists(_plain_ints, min_size=1, max_size=8),
    _with_one(st.lists(_plain_ints, max_size=6),
              _past_limit_ints))
_other_runs = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.lists(_plain_ints.map(_Int), min_size=1, max_size=6),
    st.lists(_plain_floats.map(_Float), min_size=1, max_size=6),
    _with_one(st.lists(_plain_ints, min_size=1, max_size=5),
              st.one_of(st.booleans(), _plain_ints.map(_Int),
                        _plain_floats, _plain_floats.map(_Float),
                        st.fractions(), st.none())),
    _with_one(st.lists(_plain_floats, min_size=1, max_size=5),
              st.one_of(st.booleans(), _plain_ints,
                        _plain_floats.map(_Float), st.fractions())))
_runs = st.one_of(_float_runs, _int_runs, _other_runs)


@st.composite
def _rows_of(draw, runs):
    """Rows drawn from ``runs``: pairs, or ragged lengths with an empty
    row now and then, each row and the whole a list or a tuple."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        runs = runs.filter(lambda r: len(r) >= width).map(
            lambda r: r[:width])
    rows = draw(st.lists(runs, min_size=1, max_size=6))
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), [])
    return [draw(_seq_type)(row) for row in rows]


# rows of one plain kind with one near-miss row among them: the first and
# last items alone cannot tell these from rows that form a run
_rows_with_an_odd_one = st.one_of(
    _with_one(st.lists(st.lists(_plain_floats, min_size=1, max_size=3),
                       min_size=2, max_size=4), _other_runs),
    _with_one(st.lists(st.lists(_plain_ints, min_size=1, max_size=3),
                       min_size=2, max_size=4), st.one_of(_float_runs,
                                                          _int_runs,
                                                          _other_runs)))

_number_shapes = st.one_of(
    _runs,
    _rows_with_an_odd_one,
    _rows_of(st.lists(_plain_floats, min_size=1, max_size=4)),
    _rows_of(st.lists(_plain_ints, min_size=1, max_size=4)),
    _rows_of(_float_runs),
    _rows_of(_int_runs),
    _rows_of(_runs),
    _rows_of(st.lists(st.one_of(_plain_floats, _plain_ints), min_size=1,
                      max_size=3)))


@st.composite
def _placed(draw, shapes):
    """A drawn shape as a list or a tuple, at a drawn depth."""
    obj = draw(_seq_type)(draw(shapes))
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from([
            lambda x: {"key": x, "other": 1},
            lambda x: [x, "s"], lambda x: (x,), lambda x: Pair(x)]))(obj)
    return obj


@settings(max_examples=600, deadline=None)
@given(obj=_placed(_number_shapes))
def test_runs_and_rows_match_json_dumps(obj):
    """Runs of plain floats or ints and rows of them, and the near misses
    that must be written item by item: a non-finite float, an int past
    the digit limit, bools, subclasses with their own ``__repr__``, mixed
    types, an empty row."""
    text = _outcome(dumps_json, obj)
    assert text == _outcome(old_dumps_json, obj)
    assert isinstance(text, str)


@pytest.mark.parametrize("obj", [
    [-0.0, 5e-324, 1e308], [1.0, math.nan], (math.inf, 2.0), [1, 10 ** 5000],
    [10 ** 5000, 1], [True, False], [_Int(3), _Int(4)], [_Float(0.5)],
    [1, True, 2], (1, _Int(2), 3), [0.5, _Float(1.0), 2.0], [1, 2.0, 3],
    [[1.0, 2.0], [3.0, 4.0]], ((1.0, 2.0), [3.0]), [(1, 2), (3,), (4, 5, 6)],
    [[1.0], []], [[], [1.0]], [[1.0, 2], [3, 4.0]], [[1, 2], [3, 10 ** 5000]],
    [[1.0, math.inf]], [[True, False]], [[_Int(1), _Int(2)]],
    [[1.0, 2.0], [True, False], [3.0]], [[1, 2], [_Int(3)], [4]],
    [(0.5,), (_Float(0.25),), (1.5,)], [[1.0], [math.nan], [2.0]],
    [[1], [2.0], [3]], [[1, 2], [10 ** 5000], [3]],
    {"lengths": ((0.5, 0.5), (0.25, 0.75)), "choices": (0, 1, 1)},
])
def test_run_and_row_cases_match_json_dumps(obj):
    assert dumps_json(obj) == old_dumps_json(obj)


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


def _old_csv_cell(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, float):
        return str(x) if math.isinf(x) else x
    if isinstance(x, int) and not isinstance(x, bool) and _past_limit(x):
        return hex(x)
    return x


def _old_dumps_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_old_csv_cell(x) for x in row])
    return buf.getvalue()


# 4300 and 4301 decimal digits, either sign: the two sides of the default
# int-to-str digit limit
_AT_LIMIT = [s * n for n in (10 ** 4299, 10 ** 4300 - 1, 10 ** 4300,
                             10 ** 4300 + 1) for s in (1, -1)]
_AT_LIMIT_NUMBERS = (_AT_LIMIT + [Fraction(n, 7) for n in _AT_LIMIT]
                     + [Fraction(7, n) for n in _AT_LIMIT]
                     + [Fraction(n, 10 ** 4300 + 3) for n in _AT_LIMIT])


def test_numbers_at_the_digit_limit_keep_their_bytes():
    """One conversion per number, hex when it is refused: the JSON and CSV
    bytes that a digit test before each conversion gave, on both sides of
    the limit."""
    for x in _AT_LIMIT_NUMBERS:
        report = {"x": x, "row": [x, 1, True], "q": Fraction(1, 3)}
        assert dumps_json(report) == old_dumps_json(report)
        rows = [(x, True), (1, x), (-2, 0.5)]
        assert dumps_csv(("x", "y"), rows) == _old_dumps_csv(("x", "y"),
                                                             rows)
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 4300:
        ok, big = 10 ** 4300 - 1, 10 ** 4300
        assert dumps_csv(("x",), [(ok,), (-ok,), (big,), (-big,)]) == (
            f"x\n{ok}\n-{ok}\n{hex(big)}\n{hex(-big)}\n")
        assert json.loads(dumps_json([ok, -big])) == [ok, hex(-big)]


# rows of exact ints and finite floats mixed freely, as the cone reports'
# (depth, diameter) rows are, each a list or a tuple
_mixed_rows = st.lists(
    st.tuples(_seq_type, st.lists(st.one_of(_plain_floats, _plain_ints),
                                  min_size=1, max_size=3))
    .map(lambda drawn: drawn[0](drawn[1])),
    min_size=1, max_size=6)


@settings(max_examples=600, deadline=None)
@given(rows=_mixed_rows, odd=st.one_of(
    st.none(), st.booleans(), _past_limit_ints, _plain_ints.map(_Int),
    _plain_floats.map(_Float), st.fractions(),
    st.sampled_from([math.inf, -math.inf, math.nan])), data=st.data())
def test_mixed_int_and_float_rows_match_json_dumps(rows, odd, data):
    """Mixed rows take the row path; one near miss anywhere among them (a
    bool, an int past the digit limit, a subclass, a fraction or a
    non-finite float) sends them item by item, with the same bytes."""
    if odd is None:
        assert _rows(rows, "\n") is not None
    else:
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        items = list(rows[row])
        items.insert(data.draw(st.integers(0, len(items)), label="at"), odd)
        rows[row] = items
        assert _rows(rows, "\n") is None
    want = json.dumps(old_to_jsonable(rows), sort_keys=True, indent=2) + "\n"
    assert dumps_json(rows) == want
    assert dumps_json({"cone": Pair(rows, 0.5)}) == old_dumps_json(
        {"cone": Pair(rows, 0.5)})


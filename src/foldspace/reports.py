"""Deterministic report serialization.

Exact rationals are written as ``num/den`` strings; floats appear only in
report output, never in the propagation core.  JSON output is key-sorted
so identical inputs produce identical bytes.

``dumps_json`` is a one-pass writer: it maps each object to JSON text as it
meets it and writes the bytes that ``json.dumps(..., indent=2,
sort_keys=True)`` writes for the mapped value, with scalars through
``float.__repr__``, ``int.__repr__`` and the C string encoder.  (The
``json`` module runs its C encoder only without ``indent``, and its
pure-Python one took twice the time on a walk report.)  The mapping:
dataclasses become their fields, dict keys ``_key`` strings, sets lists
sorted by ``str``, non-finite floats the strings ``"inf"``, ``"-inf"`` and
``"nan"``, and fractions ``frac_str`` strings.

Lists of plain numbers are written at C speed, with the same bytes.  A list
or tuple is a run when its items are all exact ``float``s, each finite, or
all exact ``int``s; a run is written with one ``map(repr, ...)``.  A list or
tuple of nonempty lists or tuples of exact ints and finite floats, mixed
freely (a walk report's 2001 float pairs, a cone report's (depth,
diameter) rows), is written with one ``%``-format per row, built once per
row length; ``'%r' % x`` is ``float.__repr__`` or ``int.__repr__`` for
these exact types.  Only exact types and finite floats qualify, because
only their ``repr`` is their JSON text: ``bool`` writes ``true``, a
subclass of ``int`` or ``float`` may have its own ``repr``, and a
non-finite float becomes a string.  These, mixed flat lists and an int
past the digit limit (whose ``ValueError`` the conversion raises) take the
per-item path.  The first item's type decides whether a list is scanned at
all, so a list of fractions, dicts or strings pays one type check.

Python refuses to write an int of more than ``sys.get_int_max_str_digits()``
decimal digits (4300 by default) in decimal, and conversion to hex has no
such limit.  So an exact number with a part past that limit is written in
hex: an int as ``0x...`` (``-0x...`` when negative) and a fraction as
``0x.../0x...``, both parts in hex; ``int(part, 0)`` reads either form
back exactly.  This holds for fractions, for JSON ints (which then become
strings) and for CSV cells.  Numbers within the limit keep their decimal
form.  Each part is converted once: the decimal conversion is tried, and
its ``ValueError`` selects hex, so no digit count is taken first.  The
limit itself is left as the interpreter has it.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
from fractions import Fraction

_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite
_flat = itertools.chain.from_iterable
_NUMBERS = (float, int)
_SEQUENCES = (list, tuple)


def frac_str(q):
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:          # a part is past the int-to-str digit limit
        return hex(num) if den == 1 else f"{hex(num)}/{hex(den)}"


def _csv_cell(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, float):
        return str(x) if math.isinf(x) else x
    if isinstance(x, int):
        try:
            return str(x)
        except ValueError:      # past the int-to-str digit limit
            return hex(x)
    return x


def _key(k):
    if isinstance(k, tuple):
        return ":".join(str(x) for x in k)
    return str(k)


def _scalar(obj):
    """JSON text of a number, string, bool or None; None for a container
    (every text returned is nonempty)."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _float_repr(obj)
        if math.isnan(obj):
            return '"nan"'
        return '"inf"' if obj > 0 else '"-inf"'
    if isinstance(obj, int):
        if obj is True or obj is False:
            return "true" if obj else "false"
        try:
            return _int_repr(obj)
        except ValueError:      # past the int-to-str digit limit
            return f'"{hex(obj)}"'
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return f'"{frac_str(obj)}"'
    return None


def _run(items, kind):
    """The texts of ``items`` if each has the exact type ``kind`` (``float``
    or ``int``), each float is finite and each int within the digit limit;
    None otherwise."""
    if set(map(type, items)) != {kind} \
            or kind is float and not all(map(_isfinite, items)):
        return None
    try:
        return list(map(kind.__repr__, items))
    except ValueError:          # past the int-to-str digit limit
        return None


def _rows(rows, inner):
    """The texts of ``rows``, nonempty lists or tuples of exact ints and
    finite floats, mixed freely, with one ``%``-format per row length; None
    otherwise.  The ends of the first and last rows are checked before any
    scan, so a cone's profile of infinite diameters costs no scan."""
    first, last = rows[0], rows[-1]
    if not first or type(last) not in _SEQUENCES or not last:
        return None
    ends = (first[0], first[-1], last[0], last[-1])
    if not set(map(type, ends)) <= {float, int} \
            or not all(_isfinite(x) for x in ends if type(x) is float):
        return None
    if not set(map(type, rows)) <= {list, tuple} or not all(rows):
        return None
    kinds = set(map(type, _flat(rows)))
    if not kinds <= {float, int}:
        return None
    if float in kinds:
        # ``math.isfinite`` overflows on a large int, so a mixed row's
        # floats are picked out first
        floats = _flat(rows) if int not in kinds else (
            x for x in _flat(rows) if type(x) is float)
        if not all(map(_isfinite, floats)):
            return None
    deeper = inner + "  "
    formats = {n: "[" + deeper + ("," + deeper).join(["%r"] * n) + inner
               + "]" for n in set(map(len, rows))}
    try:
        return [formats[len(row)] % tuple(row) for row in rows]
    except ValueError:          # an int past the int-to-str digit limit
        return None


def _container(obj, pad):
    """JSON text of a dataclass, dict, set or sequence whose first line
    starts at the indent ``pad`` (a newline and the indent).  Children are
    converted in the order they are met, so the first unsupported object
    raises."""
    inner = pad + "  "
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        items = {_key(k): _scalar(v) or _container(v, inner)
                 for k, v in obj.items()}
        texts = [f"{_encode_str(k)}: {v}" for k, v in sorted(items.items())]
        brackets = "{}"
    else:
        texts = None
        if type(obj) in _SEQUENCES:
            # the first item's type decides whether a scan is worth it
            kind = type(obj[0]) if obj else None
            if kind in _NUMBERS:
                if type(obj[-1]) is kind:
                    texts = _run(obj, kind)
            elif kind in _SEQUENCES:
                texts = _rows(obj, inner)
        elif isinstance(obj, (set, frozenset)):
            obj = sorted(obj, key=str)
        elif not isinstance(obj, (list, tuple, range)):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        if texts is None:
            texts = [_scalar(x) or _container(x, inner) for x in obj]
        brackets = "[]"
    if not texts:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(texts) + pad
            + brackets[1])


def dumps_json(obj):
    """Indent-2, key-sorted JSON text of a report, ending in a newline: the
    bytes of ``json.dumps(..., sort_keys=True, indent=2)`` on the
    ``to_jsonable`` form, written in one pass."""
    return (_scalar(obj) or _container(obj, "\n")) + "\n"


def to_jsonable(obj):
    """The plain JSON value (dict, list, str, int, float, bool or None)
    that ``dumps_json`` writes for ``obj``."""
    return json.loads(dumps_json(obj))


def dumps_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(x) for x in row])
    return buf.getvalue()


def write_text(text, out=None):
    if out is None:
        print(text, end="")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)

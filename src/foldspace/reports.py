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
import json
import math
from fractions import Fraction

_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__


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
        if isinstance(obj, (set, frozenset)):
            obj = sorted(obj, key=str)
        elif not isinstance(obj, (list, tuple, range)):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
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

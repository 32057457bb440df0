"""Deterministic report serialization.

Exact rationals are written as ``num/den`` strings; floats appear only in
report output, never in the propagation core.  JSON output is key-sorted
so identical inputs produce identical bytes.

Python refuses to write an int of more than ``sys.get_int_max_str_digits()``
decimal digits (4300 by default) in decimal, and conversion to hex has no
such limit.  So an exact number with a part past that limit is written in
hex: an int as ``0x...`` (``-0x...`` when negative) and a fraction as
``0x.../0x...``, both parts in hex; ``int(part, 0)`` reads either form
back exactly.  This holds for fractions, for JSON ints (which then become
strings) and for CSV cells.  Numbers within the limit keep their decimal
form.  The limit itself is left as the interpreter has it.
"""

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction


def _past_limit(n):
    """Whether ``str(n)`` is refused by the int-to-str digit limit."""
    if n.bit_length() < 2000:   # 603 digits, under every allowed limit
        return False
    try:
        str(n)
    except ValueError:
        return True
    return False


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
        return "inf" if math.isinf(x) else x
    if isinstance(x, int) and not isinstance(x, bool) and _past_limit(x):
        return hex(x)
    return x


def _key(k):
    if isinstance(k, tuple):
        return ":".join(str(x) for x in k)
    return str(k)


def to_jsonable(obj):
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
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(x) for x in sorted(obj, key=str)]
    if isinstance(obj, (list, tuple, range)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj):
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


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

"""Deterministic JSON and CSV emission.

Floats are printed with 17 significant digits so identical inputs produce
byte-identical output; the stdlib json module cannot control float
formatting, hence the small writer here.  Keys keep insertion order.
String values and keys go through one `str.translate` table, `_ESCAPES`:
`"`, `\\`, newline, tab and carriage return get their short escapes, the
other control characters below U+0020 become `\\u00XX`, and every other code
point, non-ASCII included, is written as is.
"""

from __future__ import annotations

import math
from typing import Any


def format_float(v: float) -> str:
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if math.isnan(v):
        return '"nan"'
    return format(v, ".17g")


_ESCAPES = str.maketrans({chr(c): f"\\u{c:04x}" for c in range(0x20)}
                        | {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"})


def dumps(obj: Any) -> str:
    """Serialize dicts/lists/str/bool/None/int/float deterministically."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f'"{str(k).translate(_ESCAPES)}": {dumps(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return dumps(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_cell(v: Any) -> str:
    if isinstance(v, float):
        s = format(v, ".17g")
    else:
        s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    """CSV text with LF line endings and 17-significant-digit floats."""
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(csv_cell(row.get(f, "")) for f in fieldnames))
    return "\n".join(lines) + "\n"

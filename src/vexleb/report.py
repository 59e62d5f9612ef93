"""Deterministic report serialization.

JSON reports spell each float in the shortest form that reads back
exactly (so an integral float keeps its ``.0``), and ``NaN``,
``Infinity`` and ``-Infinity`` as JavaScript does; CSV cells spell each
float with 17 significant digits.  Keys keep insertion order, so a rerun
with the same results writes the same bytes.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["to_json_text", "write_json", "write_csv", "fmt_float"]


_FLOATS = (float, np.floating)


def fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return format(float(x), ".17g")


def _plain(obj):
    """The Python value of a numpy array or scalar, for ``json.dumps``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, default=_plain)


def write_json(path: Path, obj) -> None:
    path.write_bytes((to_json_text(obj) + "\n").encode("utf-8"))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """One line per row: float cells as ``fmt_float`` prints them, others by
    ``str``.  Each row is printed by one %-format per row of cell types; a
    row holding inf or NaN, which "%.17g" spells otherwise, is printed cell
    by cell.  Returns the bytes written."""
    lines = [",".join(header)]
    formats = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                ["%.17g" if issubclass(k, _FLOATS) else "%s" for k in kinds])
        line = fmt % row
        if "inf" in line or "nan" in line:
            line = ",".join([fmt_float(float(c)) if isinstance(c, _FLOATS) else str(c)
                             for c in row])
        lines.append(line)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return data

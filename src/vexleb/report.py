"""Deterministic report serialization.

Floats are rendered with 17 significant digits and keys keep insertion
order, so identical results yield byte-identical files.
"""
from __future__ import annotations

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


def _esc(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def to_json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return f'"{_esc(obj)}"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{_esc(str(k))}": {to_json_text(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {to_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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

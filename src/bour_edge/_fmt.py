"""Deterministic text output: floats at 17 significant digits, fixed ordering."""

from __future__ import annotations

import math


def fmt17(x):
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == 0.0:
            return "0"
        return format(x, ".17g")
    return str(x)


def to_json17(obj, indent=0):
    """Serialize dicts/lists/scalars to JSON with fmt17 floats.

    Dict keys keep insertion order, so callers control field ordering.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {to_json17(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(to_json17(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if obj in (math.inf, -math.inf):  # the spelling json.loads reads, as for NaN
            return "Infinity" if obj > 0 else "-Infinity"
        return fmt17(obj)
    if isinstance(obj, int):
        return str(obj)
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'

"""Deterministic text output: floats at 17 significant digits, fixed ordering."""

from __future__ import annotations

import math


def fmt17(x):
    """A float at 17 significant digits as ``fill17`` writes it; anything else by ``str``."""
    if isinstance(x, float):
        return fill17("%.17g", (x,))
    return str(x)


def fill17(template, values):
    """``template % values`` for a template whose fields are all ``%.17g``.

    Each value is written as a float, correctly rounded to 17 significant
    digits, except that -0.0 is written ``0`` (adding 0.0 makes it +0.0) and NaN
    is ``NaN`` (``%g`` writes ``nan``, which no other ``%.17g`` output contains);
    infinities are ``inf`` and ``-inf``. The template's own text must not hold
    ``nan``. One call formats a whole row of a mesh file.
    """
    return (template % tuple([v + 0.0 for v in values])).replace("nan", "NaN")


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

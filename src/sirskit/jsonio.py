"""Deterministic JSON emission for reports.

Reports are written by the standard ``json`` module with a two-space
indent.  Each float is its shortest round-trip ``repr``, so it reads back
with the same bits: an integral float keeps its ``.0`` and -0.0 keeps its
sign.  Dict keys keep insertion order, and output is byte-identical
across runs for identical inputs.  Non-finite numbers become null, since
strict JSON has no representation for them.
"""

from __future__ import annotations

import json
import math


def _finite(value):
    """``value`` with every NaN or infinite float, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def dumps(value) -> str:
    """Serialise ``value`` to a newline-terminated JSON document."""
    return json.dumps(_finite(value), indent=2) + "\n"

"""Strict JSON for the reports and artifacts the package writes: a
non-finite float is written as null, so every output parses with a
parser that rejects NaN and Infinity. (SureReport keeps its own rule,
inf as the string "inf".)"""

from __future__ import annotations

import json
import math


def _finite(value):
    """value with every non-finite float in it, nested in dicts, lists
    and tuples, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def strict_dumps(obj, **kwargs) -> str:
    """json.dumps(obj, **kwargs) with non-finite floats written as null."""
    return json.dumps(_finite(obj), allow_nan=False, **kwargs)

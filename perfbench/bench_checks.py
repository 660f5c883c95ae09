"""Output checks: every operation's simulated outputs against a reference.

An operation's outputs are flattened into ``{path: value}`` leaves (a
list of records becomes one column per field).  Against a stored
reference, integers, strings, booleans and ``None`` must match exactly
(counts, placements, completed/rejected/lost) and floats to 1e-9
relative (Joules, simulated seconds, latency quantiles), the
observatory's exact-gate policy.  Seeds without a stored reference are
checked against invariants instead (see the workloads).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

REL_TOL = 1e-9


def flatten(obj: Any, prefix: str = "") -> dict[str, Any]:
    """``{dotted path: scalar or list of scalars}`` for a JSON-like value."""
    out: dict[str, Any] = {}
    if isinstance(obj, Mapping):
        for key in sorted(obj):
            out.update(flatten(obj[key], f"{prefix}{key}."))
        return out
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(item, Mapping) for item in obj):
            fields = sorted({k for item in obj for k in item})
            for key in fields:
                column = [item.get(key) for item in obj]
                if any(isinstance(v, (Mapping, list, tuple)) for v in column):
                    for i, item in enumerate(obj):
                        out.update(flatten(item.get(key),
                                           f"{prefix}{i}.{key}."))
                else:
                    out[f"{prefix}{key}"] = column
            return out
        if any(isinstance(item, (Mapping, list, tuple)) for item in obj):
            for i, item in enumerate(obj):
                out.update(flatten(item, f"{prefix}{i}."))
            return out
        out[prefix.rstrip(".")] = list(obj)
        return out
    out[prefix.rstrip(".")] = obj
    return out


def _same_scalar(expected: Any, actual: Any, rel_tol: float) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool):
            return expected is actual
        if not isinstance(expected, (int, float)) or \
                not isinstance(actual, (int, float)):
            return False
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=0.0)
    return type(expected) is type(actual) and expected == actual


def mismatches(expected: Mapping[str, Any], actual: Mapping[str, Any],
               rel_tol: float = REL_TOL, limit: int = 5) -> list[str]:
    """Describe up to ``limit`` leaves where ``actual`` misses
    ``expected``; ``rel_tol=0`` demands bit-identical floats."""
    problems: list[str] = []
    for path in sorted(set(expected) | set(actual)):
        if path not in actual or path not in expected:
            problems.append(f"{path}: present on one side only")
        else:
            want, got = expected[path], actual[path]
            if isinstance(want, list) or isinstance(got, list):
                ok = (isinstance(want, list) and isinstance(got, list)
                      and len(want) == len(got)
                      and all(_same_scalar(w, g, rel_tol)
                              for w, g in zip(want, got)))
            else:
                ok = _same_scalar(want, got, rel_tol)
            if not ok:
                problems.append(f"{path}: expected {want!r}, got {got!r}"
                                [:200])
        if len(problems) >= limit:
            break
    return problems


def close(a: float, b: float) -> bool:
    """``a`` equals ``b`` to the 1e-9 relative reconciliation tolerance."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)

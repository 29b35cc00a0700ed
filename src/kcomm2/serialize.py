"""JSON encoding/decoding for matrices, map tables, systems, and verdicts.

Canonical output: keys sorted, entries row-major, exact scalars rendered as
reduced fraction strings.  Any JSON the package emits re-parses to an
identical value (byte-stable for exact fields).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InputError
from .fields import FieldTag
from .matrices import Mat2

# classify and preserver are imported by the functions that build or test
# their types, so that decoding a matrix loads neither.
if TYPE_CHECKING:
    from .classify import SandwichSystem, Verdict
    from .preserver import CampaignReport, Decomposition, MapTable, PreservationVerdict


def mat_to_json(M: Mat2) -> dict:
    enc = M.field.encode
    a11, a12, a21, a22 = M.entries
    return {"field": M.field.variant, "entries": [[enc(a11), enc(a12)], [enc(a21), enc(a22)]]}


def mat_from_json(obj, field: FieldTag | None = None, tolerance: float = 1e-9) -> Mat2:
    """Decode a matrix over field, or over the field its JSON names (default Q)
    with the given tolerance."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputError(f"matrix JSON must be an object with 'entries', got {obj!r}")
    if field is None:
        field = FieldTag(obj.get("field", "Q"), tolerance)
    elif "field" in obj and obj["field"] != field.variant:
        raise InputError(f"matrix declares field {obj['field']!r}, expected {field.variant!r}")
    rows = obj["entries"]
    if not (isinstance(rows, (list, tuple)) and len(rows) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in rows)):
        raise InputError(f"matrix entries must be a 2x2 array, got {rows!r}")
    return Mat2(field, tuple(field.parse(rows[i][j]) for i in (0, 1) for j in (0, 1)))


def maptable_to_json(table: MapTable) -> dict:
    return {
        "field": table.field.variant,
        "k": table.k,
        "entries": [
            {"in": mat_to_json(a), "out": mat_to_json(b)} for a, b in table.entries
        ],
    }


def maptable_from_json(obj, tolerance: float = 1e-9) -> MapTable:
    from .preserver import MapTable, _check_table_size

    try:
        field = FieldTag(obj["field"], tolerance)
        k = obj["k"]
        listed = list(obj["entries"])
        _check_table_size(len(listed))
        entries = tuple(
            (mat_from_json(e["in"], field), mat_from_json(e["out"], field)) for e in listed
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad map table JSON: {exc!r}") from exc
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"map table k must be an integer, got {k!r}")
    return MapTable(field=field, k=k, entries=entries)


def array_from_json(obj, what: str) -> list:
    """obj if it is a JSON array; anything else is an InputError naming what."""
    if not isinstance(obj, list):
        raise InputError(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


def pair_from_json(obj, field: FieldTag | None, tolerance: float) -> tuple:
    """Decode an [A, B] array of two matrices, each as mat_from_json does."""
    pair = array_from_json(obj, "a matrix pair")
    if len(pair) != 2:
        raise InputError(f"a matrix pair must hold 2 matrices, got {len(pair)}")
    return mat_from_json(pair[0], field, tolerance), mat_from_json(pair[1], field, tolerance)


def sandwich_from_json(obj: dict, tolerance: float = 1e-9) -> SandwichSystem:
    """Decode {"left": [[A, B], ...], "right": [[C, D], ...]}."""
    from .classify import SandwichSystem

    left, right = (
        [pair_from_json(p, None, tolerance) for p in array_from_json(obj.get(side), side)]
        for side in ("left", "right")
    )
    return SandwichSystem(left=left, right=right)


def verdict_to_json(v: Verdict) -> dict:
    out = {"holds": v.holds}
    if v.witness is not None:
        out["witness"] = mat_to_json(v.witness)
    if v.detail is not None:
        out["detail"] = mat_to_json(v.detail)
    return out


def preservation_to_json(v: PreservationVerdict) -> dict:
    out = {"holds": v.holds}
    if not v.holds:
        out["pair"] = [mat_to_json(v.pair[0]), mat_to_json(v.pair[1])]
        out["left_bracket"] = mat_to_json(v.left)
        out["right_bracket"] = mat_to_json(v.right)
    return out


def decomposition_to_json(dec: Decomposition, field: FieldTag) -> dict:
    return {
        "lambda": field.encode(dec.lam),
        "h": [{"in": mat_to_json(a), "value": field.encode(v)} for a, v in dec.h_table],
        "verified_pairs": dec.verified_pairs,
    }


def solver_result_to_json(result, field: FieldTag) -> dict:
    from .classify import NotAnIdentity

    if isinstance(result, NotAnIdentity):
        return {
            "identity": False,
            "witness": mat_to_json(result.witness),
            "left_value": mat_to_json(result.left_value),
            "right_value": mat_to_json(result.right_value),
        }
    return {
        "identity": True,
        "mode": result.mode,
        "coefficients": [[field.encode(c) for c in row] for row in result.coeffs],
    }


def campaign_to_json(report: CampaignReport) -> dict:
    return {
        "field": report.field.variant,
        "k": report.k,
        "trials": report.trials,
        "valid_ok": report.valid_ok,
        "perturbed_rejected": report.perturbed_rejected,
        "rejection_kinds": dict(sorted(report.rejection_kinds.items())),
        "anomalies": list(report.anomalies),
    }


def canonical_dumps(obj) -> str:
    """Strict JSON: a non-finite float raises ValueError instead of printing NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)

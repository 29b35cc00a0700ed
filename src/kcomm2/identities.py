"""Closed-form bracket identities used as golden fixtures.

Each family pairs concrete (A, B) inputs with an independently written-down
closed form for the order-k bracket, so the evaluators can be pinned against
hand formulas rather than against each other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fields import FieldTag
from .matrices import Mat2, matrix_units


class BracketIdentity(NamedTuple):
    name: str
    A: Mat2
    B: Mat2
    k: int
    expected: Mat2


def offdiagonal_scaling_identity(field: FieldTag, k: int, a) -> BracketIdentity:
    """[a*E12, E11]_k = (-1)^k * a * E12."""
    e11, e12, _, _ = matrix_units(field)
    a = field.coerce(a)
    sign = field.coerce(-1 if k % 2 else 1)
    return BracketIdentity(
        name=f"offdiag-scale(a={a})",
        A=e12.scale(a),
        B=e11,
        k=k,
        expected=e12.scale(sign * a),
    )


def symmetric_swap_identity(field: FieldTag, k: int) -> BracketIdentity:
    """[E11, E12+E21]_k = 2^(k-1)*(E12-E21) for odd k, 2^(k-1)*(E11-E22) even."""
    e11, e12, e21, e22 = matrix_units(field)
    if k < 1:
        raise ValueError("identity stated for k >= 1")
    c = field.coerce(2 ** (k - 1))
    body = (e12 - e21) if k % 2 else (e11 - e22)
    return BracketIdentity(
        name="symmetric-swap",
        A=e11,
        B=e12 + e21,
        k=k,
        expected=body.scale(c),
    )


def corner_sum_identity(field: FieldTag, k: int) -> BracketIdentity:
    """[E21, E11+E12]_k = -E11 - (1+(-1)^k)*E12 + E21 + E22."""
    e11, e12, e21, e22 = matrix_units(field)
    par = field.coerce(0 if k % 2 else 2)
    return BracketIdentity(
        name="corner-sum",
        A=e21,
        B=e11 + e12,
        k=k,
        expected=-e11 - e12.scale(par) + e21 + e22,
    )


OFFDIAG_SCALES = (1, 2, Fraction(-3, 5))


def golden_identities(field: FieldTag, k: int):
    """All fixture families at one order k."""
    out = [offdiagonal_scaling_identity(field, k, a) for a in OFFDIAG_SCALES]
    out.append(symmetric_swap_identity(field, k))
    out.append(corner_sum_identity(field, k))
    return out

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


OFFDIAG_SCALES = (1, 2, Fraction(-3, 5))


def golden_identities(field: FieldTag, k: int):
    """All fixture families at one order k >= 1, in this order:

    - offdiag-scale, once per a in OFFDIAG_SCALES: [a*E12, E11]_k = (-1)^k * a * E12;
    - symmetric-swap: [E11, E12+E21]_k = 2^(k-1)*(E12-E21) for odd k, 2^(k-1)*(E11-E22) even;
    - corner-sum: [E21, E11+E12]_k = -E11 - (1+(-1)^k)*E12 + E21 + E22.
    """
    if k < 1:
        raise ValueError("identity stated for k >= 1")
    e11, e12, e21, e22 = matrix_units(field)
    odd = k % 2
    sign = field.coerce(-1 if odd else 1)
    # sign * a, not -a: over C64, -(a+0j) has imaginary part -0.0
    offdiag = [BracketIdentity(f"offdiag-scale(a={a})", e12.scale(a), e11, k, e12.scale(sign * a))
               for a in map(field.coerce, OFFDIAG_SCALES)]
    swap = ((e12 - e21) if odd else (e11 - e22)).scale(field.coerce(2 ** (k - 1)))
    corner = -e11 - e12.scale(field.coerce(0 if odd else 2)) + e21 + e22
    return [*offdiag, BracketIdentity("symmetric-swap", e11, e12 + e21, k, swap),
            BracketIdentity("corner-sum", e21, e11 + e12, k, corner)]

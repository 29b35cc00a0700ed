"""Seeded random scalars and rank-one matrices for the sampled certifier and
the probe campaign.

Everything takes an explicit ``random.Random`` so both are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .fields import FieldTag, GaussianRational
from .matrices import Mat2, outer


def _draw(field: FieldTag, rng: Random, span: int = 9, denominators: bool = False):
    """The draw of ``random_scalar``, except that an integer draw over Q stays an int."""

    def q():
        if denominators:
            return Fraction(rng.randint(-span, span), rng.randint(1, 4))
        return rng.randint(-span, span)

    if not field.is_exact:
        if field.is_complex:
            return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        return rng.uniform(-1.0, 1.0)
    if not field.is_complex:
        return q()
    if denominators:
        return GaussianRational(q(), q())
    return GaussianRational._raw(rng.randint(-span, span), rng.randint(-span, span), 1)


def random_scalar(field: FieldTag, rng: Random, span: int = 9, denominators: bool = False):
    """Uniform small scalar of the field; integer-valued unless ``denominators`` is set."""
    x = _draw(field, rng, span, denominators)
    return Fraction(x) if type(x) is int else x


def random_nonzero_vec(field: FieldTag, rng: Random, **kw):
    """Two coordinates, not both zero; over Q an integer draw stays an int for ``outer``."""
    while True:
        v = (_draw(field, rng, **kw), _draw(field, rng, **kw))
        if not (field.is_zero(v[0]) and field.is_zero(v[1])):
            return v


def random_rank_one(field: FieldTag, rng: Random) -> Mat2:
    """x f* for random nonzero x, f; rank exactly one by construction."""
    while True:
        A = outer(field, random_nonzero_vec(field, rng), random_nonzero_vec(field, rng))
        if not A.is_zero():
            return A

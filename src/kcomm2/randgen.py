"""Seeded random scalars and rank-one matrices for the sampled certifier and
the probe campaign.

Everything takes an explicit ``random.Random`` so both are reproducible.
"""

from __future__ import annotations

from random import Random

from .fields import FieldTag, GaussianRational, raw_fraction
from .matrices import Mat2, outer


def random_scalar(field: FieldTag, rng: Random, span: int = 9, denominators: bool = False):
    """Uniform small scalar of the field; integer-valued unless ``denominators`` is set.

    ``randrange(n) + lo`` consumes the stream of ``randint(lo, lo + n - 1)``.
    """
    if not field.is_exact:
        if field.is_complex:
            return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        return rng.uniform(-1.0, 1.0)
    n = 2 * span + 1
    if not denominators:
        if field.is_complex:
            return GaussianRational._raw(rng.randrange(n) - span, rng.randrange(n) - span, 1)
        return raw_fraction(rng.randrange(n) - span, 1)
    a, b = rng.randrange(n) - span, rng.randrange(4) + 1
    if not field.is_complex:
        return raw_fraction(a, b)
    c, d = rng.randrange(n) - span, rng.randrange(4) + 1
    return GaussianRational._raw(a * d, c * b, b * d)  # a/b + (c/d) i


def random_nonzero_vec(field: FieldTag, rng: Random, **kw):
    """Two coordinates, not both zero."""
    while True:
        v = (random_scalar(field, rng, **kw), random_scalar(field, rng, **kw))
        if not (field.is_zero(v[0]) and field.is_zero(v[1])):
            return v


def random_rank_one(field: FieldTag, rng: Random) -> Mat2:
    """x f* for random nonzero x, f; a product that the field calls zero is drawn again."""
    while True:
        A = outer(field, random_nonzero_vec(field, rng), random_nonzero_vec(field, rng))
        if not A.is_zero():
            return A

"""Seeded random scalars and rank-one matrices for the sampled certifier and
the probe campaign.

Everything takes an explicit ``random.Random`` so both are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .fields import FieldTag, GaussianRational
from .matrices import Mat2, integer_outer, outer


def _draw(field: FieldTag, rng: Random, span: int = 9, denominators: bool = False):
    """The draw of ``random_scalar``, except that an integer draw over Q stays an int.

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
        return rng.randrange(n) - span
    re = Fraction(rng.randrange(n) - span, rng.randrange(4) + 1)
    if not field.is_complex:
        return re
    return GaussianRational(re, Fraction(rng.randrange(n) - span, rng.randrange(4) + 1))


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


def _integer_vec(field: FieldTag, rng: Random, span: int = 9) -> list:
    """The integer parts of ``random_nonzero_vec(field, rng)`` over Q or Q(i), from
    the same random calls: (x0, x1), or (re0, im0, re1, im1) over Q(i)."""
    n = 2 * span + 1
    while True:
        v = [rng.randrange(n) - span for _ in range(4 if field.is_complex else 2)]
        if any(v):
            return v


def random_rank_one(field: FieldTag, rng: Random) -> Mat2:
    """x f* for random nonzero x, f; rank exactly one by construction.

    Over Q and Q(i) the coordinates are integers, so ``integer_outer`` builds
    x f* straight from their products; over R64 and C64 a product that the
    field calls zero is drawn again.
    """
    if field.is_exact:
        return integer_outer(field, _integer_vec(field, rng), _integer_vec(field, rng))
    while True:
        A = outer(field, random_nonzero_vec(field, rng), random_nonzero_vec(field, rng))
        if not A.is_zero():
            return A

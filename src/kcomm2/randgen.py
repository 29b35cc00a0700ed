"""Seeded random generation of scalars, matrices, and structured fixtures.

Everything takes an explicit ``random.Random`` so sampled certifiers and
campaigns are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .fields import FieldTag, GaussianRational
from .matrices import Mat2, outer


def random_scalar(field: FieldTag, rng: Random, span: int = 9, denominators: bool = False):
    """Uniform small scalar; integer-valued unless ``denominators`` is set."""

    def q():
        if denominators:
            return Fraction(rng.randint(-span, span), rng.randint(1, 4))
        return Fraction(rng.randint(-span, span))

    if not field.is_exact:
        if field.is_complex:
            return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        return rng.uniform(-1.0, 1.0)
    if not field.is_complex:
        return q()
    if denominators:
        return GaussianRational(q(), q())
    return GaussianRational._raw(rng.randint(-span, span), rng.randint(-span, span), 1)


def random_mat(field: FieldTag, rng: Random, **kw) -> Mat2:
    return Mat2(field, tuple(random_scalar(field, rng, **kw) for _ in range(4)))


def random_nonzero_vec(field: FieldTag, rng: Random, **kw):
    while True:
        v = (random_scalar(field, rng, **kw), random_scalar(field, rng, **kw))
        if not (field.is_zero(v[0]) and field.is_zero(v[1])):
            return v


def random_rank_one(field: FieldTag, rng: Random, **kw) -> Mat2:
    """x f* for random nonzero x, f; rank exactly one by construction."""
    while True:
        A = outer(field, random_nonzero_vec(field, rng, **kw), random_nonzero_vec(field, rng, **kw))
        if not A.is_zero():
            return A


def random_scalar_plus_nilpotent(field: FieldTag, rng: Random, **kw) -> Mat2:
    """lam*I + N with N^2 = 0 (N is a scaled rank-one trace-zero matrix)."""
    lam = random_scalar(field, rng, **kw)
    # nilpotent 2x2: x (x rotated by 90deg)* pattern, trace forced to zero
    a = random_scalar(field, rng, **kw)
    b = random_scalar(field, rng, **kw)
    if field.is_zero(b):
        N = Mat2(field, (0, a, 0, 0))
    else:
        # [[a*b, -a*a], [b*b, -a*b]] squares to zero for any a, b
        N = Mat2(field, (a * b, -(a * a), b * b, -(a * b)))
    return Mat2.identity(field).scale(lam) + N


def random_diagonalizable(field: FieldTag, rng: Random):
    """S = P diag(alpha, beta) P^-1 with exact inverse and alpha != beta, plus eigendata.

    Returns (S, alpha, beta, x, f) where S x = alpha x and S* f = conj(beta) f;
    x is the first column of P and f* is the second row of P^-1.
    """
    while True:
        p11, p12, p21, p22 = (random_scalar(field, rng) for _ in range(4))
        det = p11 * p22 - p12 * p21
        if not field.is_zero(det):
            break
    alpha = random_scalar(field, rng)
    while True:
        beta = random_scalar(field, rng)
        if not field.eq(alpha, beta):
            break
    P = Mat2(field, (p11, p12, p21, p22))
    Pinv = Mat2(field, (p22 / det, -p12 / det, -p21 / det, p11 / det))
    D = Mat2.diag(field, alpha, beta)
    S = P @ D @ Pinv
    x = (p11, p21)
    c = field.conj
    f = (c(Pinv.entries[2]), c(Pinv.entries[3]))
    return S, alpha, beta, x, f

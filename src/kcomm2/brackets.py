"""Iterated bracket evaluation: recursion, closed binomial form, the
Cayley-Hamilton kernel and the eigenpair formula.

The recursion is the designated oracle; every other evaluator is tested
against it.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidOrder, NotAnEigenpair, ResultTooLarge
from .fields import FieldTag, GaussianRational, require_same_field
from .matrices import Mat2, RankOneFactor, outer

# Exact powers whose estimated size passes this many bits are refused: their
# cost grows faster than linearly (a bracket at the cap takes about 0.19 s over
# Q and 0.56 s over Qi on a 2-vCPU x86 box, nearly all in the gcds of its entries).
MAX_POWER_BITS = 1 << 18

# Trial counts of the sampled certifier and the probe campaign are capped so
# that a hostile count has bounded cost: as a CLI child on a 2-vCPU x86 box
# 10**4 campaign trials at k = 1000 take 4.6-5.1 s (Q), 4.6-5.9 s (Qi),
# 4.7-4.8 s (R64) or 5.1-6.3 s (C64), every bracket of a campaign being O(1)
# in k, and 10**4 float certifier probes 0.32-0.34 s.
MAX_TRIALS = 10_000

# Bracket orders read from outside the program (a map table's k, fixtures
# --kmax, a campaign's k) are capped where O(k) work remains: fixtures, and
# the k + 1 roots of unity a campaign lists.  Every bracket of a map table is
# O(1) in k: decompose on a probe table at k = 1000 makes 72 kernel calls and
# takes 0.08-0.10 s as a CLI child, interpreter start included, on every
# field (2-vCPU x86 box).  fixtures steps each family's bracket one order at
# a time, O(kmax) steps in all, so a fixtures --kmax 1000 request (a CLI
# child) takes 0.26-0.28 s (Q) to 0.52-0.70 s (Qi), most of it printing
# entries of up to 1,000 bits.
MAX_ORDER = 1_000


def _check_order(k, minimum=0, name="bracket order", maximum=None):
    if not isinstance(k, int) or isinstance(k, bool) or k < minimum:
        raise InvalidOrder(f"{name} must be an integer >= {minimum}, got {k!r}")
    if maximum is not None and k > maximum:
        raise InvalidOrder(f"{name} must be at most {maximum}, got {k}")


def kcomm_recursive(A: Mat2, B: Mat2, k: int) -> Mat2:
    """Ground-truth oracle: order-0 bracket is A, then R -> R@B - B@R, k times."""
    _check_order(k)
    require_same_field(A.field, B.field)
    R = A
    for _ in range(k):
        R = R @ B - B @ R
    return R


def kcomm_closed(A: Mat2, B: Mat2, k: int) -> Mat2:
    """Alternating binomial sum over B^i A B^(k-i) with exact coefficients."""
    _check_order(k)
    require_same_field(A.field, B.field)
    powers = [Mat2.identity(B.field)]
    for _ in range(k):
        powers.append(powers[-1] @ B)
    acc = Mat2.zero(A.field)
    for i in range(k + 1):
        term = powers[i] @ A @ powers[k - i]
        c = math.comb(k, i)
        acc = acc + term.scale(-c if i % 2 else c)
    return acc


def _growth_bits(x) -> int:
    """Bits each factor of the exact scalar x adds to x**m; 0 for zero and units."""
    if isinstance(x, GaussianRational):
        mag = max(x.a * x.a + x.b * x.b, x.den * x.den)
        return (mag.bit_length() + 1) // 2 if mag > 1 else 0
    mag = max(abs(x.numerator), x.denominator)
    return mag.bit_length() if mag > 1 else 0


def _power(field: FieldTag, x, n: int, name: str):
    """x**n for an exponent that grows with the bracket order; the one such power.

    Over Q and Q(i) a power past MAX_POWER_BITS raises ResultTooLarge before
    it is computed; over R64 and C64 a power that overflows raises it after,
    whether Python raises OverflowError or returns an inf or a nan, as it
    does for (1e200+1e200j)**2.
    """
    if field.is_exact:
        if n * _growth_bits(x) > MAX_POWER_BITS:
            raise ResultTooLarge(f"{name}**{n} would need more than {MAX_POWER_BITS} bits")
        return x if n == 1 else x**n  # Fraction ** 1 costs a Fraction construction
    try:
        power = x**n
    except OverflowError as exc:
        raise ResultTooLarge(f"{name}**{n} overflows {field.variant}") from exc
    if not cmath.isfinite(power):
        raise ResultTooLarge(f"{name}**{n} overflows {field.variant}")
    return power


def kcomm(A: Mat2, B: Mat2, k: int, method: str = "auto") -> Mat2:
    """Order-k bracket in O(1) operations: at most two commutators and one power.

    T(R) = RB - BR satisfies T^3 = delta*T on 2x2 matrices, where
    delta = tr(B)^2 - 4 det(B) = (b11 - b22)^2 + 4 b12 b21: expand T^3 and
    reduce B^2 = tr(B) B - det(B) I by Cayley-Hamilton.  Hence, for k >= 1,

        [A, B]_k = delta^((k-1)//2) * [A, B]_(1 if k odd else 2).

    delta is ``B.discriminant()``, the second form, which avoids the
    cancellation of tr^2 - 4 det on floats.  Special cases:

    - B a rank-one idempotent: delta = 1, so the brackets have period 2;
    - B square-zero: delta = 0, so they vanish for k >= 3;
    - Lemma 2.3: the order-k >= 3 brackets of every A against S vanish iff
      delta(S) = 0, i.e. iff S is scalar plus square-zero;
    - x f* with S x = alpha x, S* f = conj(beta) f: delta = (alpha - beta)^2,
      giving (beta - alpha)^k x f* (``kcomm_eigenpair``).

    The factor delta^m, m = (k-1)//2, is settled first.  Over Q and Q(i) an
    exact zero returns the zero matrix before any product, so a
    scalar-plus-square-zero B costs one discriminant; over R64 and C64 the
    products are always made, so signed zeros and 0*inf come out as they would
    from the scaled bracket.

    The first commutator is A @ B - B @ A, two ``Mat2`` products, so every
    answer passes through ``@``.  The second, at even k, is
    ``R.commutator(B)``: one integer-form step over Q and Q(i), the two
    products and their difference over R64 and C64.  An exact call therefore
    makes 2 products at every k >= 1 (0 when delta^m is zero), a float one 2
    at odd k and 4 at even k.

    ``method`` must be "auto"; the oracle and the binomial sum are called as
    ``kcomm_recursive`` and ``kcomm_closed``.

    Raises ResultTooLarge when delta^((k-1)//2) would pass MAX_POWER_BITS over
    an exact field, or when a float result is not finite.
    """
    if method != "auto":
        raise ValueError(f"unknown bracket method {method!r}")
    _check_order(k)
    field = A.field
    if B.field is not field:
        require_same_field(field, B.field)
    if k == 0:
        return A
    m = (k - 1) // 2
    if m:
        c = _power(field, B.discriminant(), m, "discriminant")
        if field.is_exact and field.is_zero(c):
            return Mat2.zero(field)
    R = A @ B - B @ A
    if k % 2 == 0:
        R = R.commutator(B)
    if m:
        R = R.scale(c)
    entries = R.entries  # built here, not left to the caller
    if not field.is_exact and not all(cmath.isfinite(x) for x in entries):
        raise ResultTooLarge(f"order-{k} bracket overflows {field.variant}")
    return R


def kcomm_eigenpair(factor: RankOneFactor, S: Mat2, k: int, alpha, beta) -> Mat2:
    """Bracket of x f* against S when S x = alpha x and S* f = conj(beta) f.

    Returns (beta - alpha)^k * (x f*); the eigen-relations are checked, not
    assumed.  The power is refused where ``kcomm``'s is (ResultTooLarge).
    """
    _check_order(k)
    f = S.field
    alpha = f.coerce(alpha)
    beta = f.coerce(beta)
    x, fv = factor.x, factor.f
    e1 = (f.one(), f.zero())
    X = outer(f, x, e1)  # x in the first column
    if not (S @ X).eq(X.scale(alpha)):
        raise NotAnEigenpair("x is not an eigenvector of S for alpha")
    F = outer(f, e1, fv)  # f* in the first row: F S = beta F is S* f = conj(beta) f
    if not (F @ S).eq(F.scale(beta)):
        raise NotAnEigenpair("f is not an eigenvector of S* for conj(beta)")
    return outer(f, x, fv).scale(_power(f, beta - alpha, k, "(beta - alpha)"))

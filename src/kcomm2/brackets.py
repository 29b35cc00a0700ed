"""Iterated bracket evaluation: recursion, closed binomial form, the
Cayley-Hamilton kernel, fast paths.

The recursion is the designated oracle; every other evaluator is tested
against it.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    InvalidOrder,
    KTooSmall,
    NotAnEigenpair,
    NotIdempotent,
    NotNilpotent,
    ResultTooLarge,
)
from .fields import GaussianRational, require_same_field
from .matrices import Mat2, RankOneFactor, is_idempotent, outer

# Exact powers whose estimated size passes this many bits are refused: their
# cost grows faster than linearly (a Qi bracket at 1 << 18 bits takes about
# 0.4 s on a 2-vCPU x86 box, most of it in the gcds that reduce its entries).
MAX_POWER_BITS = 1 << 18


def _check_order(k, minimum=0):
    if not isinstance(k, int) or isinstance(k, bool) or k < minimum:
        raise InvalidOrder(f"bracket order must be an integer >= {minimum}, got {k!r}")


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


def _kcomm_cayley_hamilton(A: Mat2, B: Mat2, k: int) -> Mat2:
    """Order-k bracket in O(1) matrix products: at most two commutators and one power.

    T(R) = RB - BR satisfies T^3 = delta*T on 2x2 matrices, where
    delta = tr(B)^2 - 4 det(B) = (b11 - b22)^2 + 4 b12 b21: expand T^3 and
    reduce B^2 = tr(B) B - det(B) I by Cayley-Hamilton.  Hence, for k >= 1,

        [A, B]_k = delta^((k-1)//2) * [A, B]_(1 if k odd else 2).

    delta is ``B.discriminant()``, the second form, which avoids the
    cancellation of tr^2 - 4 det on floats.  Special cases:

    - B a rank-one idempotent: delta = 1, so the brackets have period 2
      (``kcomm_idempotent_fast``);
    - B square-zero: delta = 0, so they vanish for k >= 3
      (``kcomm_nilpotent_fast``);
    - Lemma 2.3: the order-k >= 3 brackets of every A against S vanish iff
      delta(S) = 0, i.e. iff S is scalar plus square-zero;
    - x f* with S x = alpha x, S* f = conj(beta) f: delta = (alpha - beta)^2,
      giving (beta - alpha)^k x f* (``kcomm_eigenpair``).

    Raises ResultTooLarge when delta^((k-1)//2) would pass MAX_POWER_BITS over
    an exact field, or when a float result is not finite.
    """
    _check_order(k)
    require_same_field(A.field, B.field)
    if k == 0:
        return A
    field = A.field
    R = A @ B - B @ A
    if k % 2 == 0:
        R = R @ B - B @ R
    m = (k - 1) // 2
    if m:
        delta = B.discriminant()
        if field.is_exact and m * _growth_bits(delta) > MAX_POWER_BITS:
            raise ResultTooLarge(f"discriminant**{m} would need more than {MAX_POWER_BITS} bits")
        try:
            R = R.scale(delta**m)
        except OverflowError as exc:
            raise ResultTooLarge(f"discriminant**{m} overflows {field.variant}") from exc
    entries = R.entries  # built here, not left to the caller
    if not field.is_exact and not all(cmath.isfinite(x) for x in entries):
        raise ResultTooLarge(f"order-{k} bracket overflows {field.variant}")
    return R


def kcomm(A: Mat2, B: Mat2, k: int, method: str = "recursive") -> Mat2:
    """Order-k bracket by the named evaluator.

    "auto" is the Cayley-Hamilton kernel, O(1) matrix products in k;
    "recursive" is the oracle (2k products) and "closed" the paper's
    alternating binomial sum (3k + 2 products).
    """
    if method == "recursive":
        return kcomm_recursive(A, B, k)
    if method == "closed":
        return kcomm_closed(A, B, k)
    if method == "auto":
        return _kcomm_cayley_hamilton(A, B, k)
    raise ValueError(f"unknown bracket method {method!r}")


def kcomm_idempotent_fast(A: Mat2, Q: Mat2, k: int) -> Mat2:
    """Bracket against a checked idempotent Q, k >= 1: the kernel at order 1 or 2.

    delta(Q) is 1 (0 for Q = 0 or I), so the brackets have period 2.  The
    order is reduced before the kernel runs: over floats delta is 1 only up
    to rounding, and delta**((k - 1)//2) would drift or overflow for huge k.
    """
    _check_order(k, minimum=1)
    require_same_field(A.field, Q.field)
    if not is_idempotent(Q):
        raise NotIdempotent(f"{Q} is not idempotent")
    return kcomm(A, Q, 2 - k % 2, method="auto")


def kcomm_nilpotent_fast(A: Mat2, N: Mat2, k: int) -> Mat2:
    """Zero without computation: every k >= 3 summand holds N to a power >= 2.

    The vanishing is genuinely false below k = 3 (e.g. the order-2 bracket of
    E_21 against E_12 is -2*E_12), hence the KTooSmall guard.
    """
    _check_order(k)
    require_same_field(A.field, N.field)
    if not (N @ N).is_zero():
        raise NotNilpotent(f"{N} does not square to zero")
    if k < 3:
        raise KTooSmall(f"vanishing only guaranteed for k >= 3, got {k}")
    return Mat2.zero(A.field)


def kcomm_eigenpair(factor: RankOneFactor, S: Mat2, k: int, alpha, beta) -> Mat2:
    """Bracket of x f* against S when S x = alpha x and S* f = conj(beta) f.

    Returns (beta - alpha)^k * (x f*); the eigen-relations are checked, not
    assumed.
    """
    _check_order(k)
    f = S.field
    alpha = f.coerce(alpha)
    beta = f.coerce(beta)
    x, fv = factor.x, factor.f
    a11, a12, a21, a22 = S.entries
    sx = (a11 * x[0] + a12 * x[1], a21 * x[0] + a22 * x[1])
    if not (f.eq(sx[0], alpha * x[0]) and f.eq(sx[1], alpha * x[1])):
        raise NotAnEigenpair("x is not an eigenvector of S for alpha")
    St = S.conj_t()
    b11, b12, b21, b22 = St.entries
    sf = (b11 * fv[0] + b12 * fv[1], b21 * fv[0] + b22 * fv[1])
    cb = f.conj(beta)
    if not (f.eq(sf[0], cb * fv[0]) and f.eq(sf[1], cb * fv[1])):
        raise NotAnEigenpair("f is not an eigenvector of S* for conj(beta)")
    coeff = (beta - alpha) ** k
    return outer(f, x, fv).scale(coeff)

"""Iterated bracket evaluation: recursion, closed binomial form, the
Cayley-Hamilton kernel and the eigenpair formula.

The recursion is the designated oracle; every other evaluator is tested
against it.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidOrder, NotAnEigenpair, ResultTooLarge
from .fields import FieldTag, coprime_fraction, require_same_field
from .matrices import Mat2, RankOneFactor, outer

# Exact powers whose estimated size passes this many bits are refused: their
# cost grows faster than linearly (a bracket at the cap takes about 0.008 s over
# Q and 0.02-0.03 s over Qi on a 2-vCPU x86 box, most of it the power, since
# the reduction in ``Mat2._bracket_step`` starts each gcd from an operand of the
# unscaled size).  This cap alone bounds a kcomm request: a bracket under it
# with more digits than the interpreter prints is refused by FieldTag.encode,
# at the cap in 0.08-0.11 s (Q) or 0.09-0.10 s (Qi) as a CLI child.
MAX_POWER_BITS = 1 << 18

# Trial counts of the sampled certifier and the probe campaign are capped so
# that a hostile count has bounded cost: as a CLI child on a shared 2-vCPU x86
# box 10**4 campaign trials at k = 1000 take 2.7-4.8 s (Q), 4.0-7.5 s (Qi),
# 2.9-6.4 s (R64) or 3.2-6.6 s (C64), every bracket of a campaign being O(1)
# in k, and 10**4 float certifier probes 0.32-0.34 s.
MAX_TRIALS = 10_000

# Bracket orders read from outside the program (a map table's k, fixtures
# --kmax, a campaign's k) are capped where O(k) work remains: fixtures, and
# the k + 1 roots of unity a campaign lists.  Every bracket of a map table is
# O(1) in k: decompose on a probe table at k = 1000 makes 72 kernel calls and
# takes 0.08-0.10 s as a CLI child, interpreter start included, on every
# field (2-vCPU x86 box).  fixtures prints every order up to kmax of each
# family and checks it with one kernel call, so a fixtures --kmax 1000 request
# (a CLI child) takes 0.20-0.52 s (Q, R64, C64) to 0.53-0.86 s (Qi), most of
# it printing entries of up to 1,000 bits.
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


def _power(field: FieldTag, x, n: int, name: str):
    """x**n for an exponent that grows with the bracket order; the one such power.

    Over Q and Q(i) a power past MAX_POWER_BITS raises ResultTooLarge before
    it is computed; over R64 and C64 a power that overflows raises it after,
    whether Python raises OverflowError or returns an inf or a nan, as it
    does for (1e200+1e200j)**2.
    """
    if field.is_exact:
        # each factor adds the bits of x's largest part (its modulus over Q(i)); none for 0 and 1
        if field.is_complex:
            mag = max(x.a * x.a + x.b * x.b, x.den * x.den)
            bits = (mag.bit_length() + 1) // 2 if mag > 1 else 0
        else:
            p, q = x._numerator, x._denominator
            mag = max(abs(p), q)
            bits = mag.bit_length() if mag > 1 else 0
        if n * bits > MAX_POWER_BITS:
            raise ResultTooLarge(f"{name}**{n} would need more than {MAX_POWER_BITS} bits")
        if n == 1:
            return x
        if field.is_complex:
            return x**n  # GaussianRational.__pow__ reduces by a shift, with no gcd
        # powers of coprime parts stay coprime: no gcd, and none of Fraction.__pow__'s checks
        return coprime_fraction(p**n, q**n)
    try:
        power = x**n
    except OverflowError as exc:
        raise ResultTooLarge(f"{name}**{n} overflows {field.variant}") from exc
    if not cmath.isfinite(power):
        raise ResultTooLarge(f"{name}**{n} overflows {field.variant}")
    return power


def kcomm(A: Mat2, B: Mat2, k: int, method: str = "auto") -> Mat2:
    """Order-k bracket in O(1) operations: two products, one power and one fused step.

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

    The factor delta^m, m = (k-1)//2, is settled first: a zero (over R64 and
    C64 also one that underflows) returns the zero matrix before any product,
    so a scalar-plus-square-zero B costs one discriminant.

    Then the two ``Mat2`` products A @ B and B @ A are made, so every answer
    passes through ``@``, and ``Mat2._bracket_step`` builds the rest in one
    step: their difference, at even k its bracket with B, and the scale by
    delta^m: three ``Mat2`` objects at every k >= 1 (none when delta^m is
    zero).  Every answer is traceless, and an exact one is its reduced integer
    form, its entries built on first read with no gcd of the power's size.

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
    c = None
    if m:
        c = _power(field, B.discriminant(), m, "discriminant")
        if not c:
            return Mat2.zero(field)
    R = (A @ B)._bracket_step(B @ A, None if k % 2 else B, c)
    if not field.is_exact:
        w, x, y, z = R.entries
        if not (cmath.isfinite(w) and cmath.isfinite(x) and cmath.isfinite(y) and cmath.isfinite(z)):
            raise ResultTooLarge(f"order-{k} bracket overflows {field.variant}")
    return R


def kcomm_eigenpair(factor: RankOneFactor, S: Mat2, k: int, alpha, beta) -> Mat2:
    """Bracket of x f* against S when S x = alpha x and S* f = conj(beta) f.

    Returns (beta - alpha)^k * (x f*); the eigen-relations are checked, not
    assumed.  The power is refused where ``kcomm``'s is (ResultTooLarge).  Under
    the cap the power is applied by ``Mat2.scale``, one product and one gcd of
    two operands of the power's size: at the largest k the cap admits, with
    x f* = [[-2, 1], [-4, 2]], the call takes 80-110 ms over Q (beta - alpha =
    17/31, k = 52,428) and 32-39 ms over Q(i) ((1 + 3i)/97, k = 37,449), and the
    first read of the result's entries 0.3 s and 0.05 s more, each entry reduced
    by its own gcd (in-process, 2-vCPU x86 box).
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

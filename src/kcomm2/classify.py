"""Executable structure tests: scalar witnesses, scalar-plus-nilpotent
detection, and the rank-one sandwich-identity solver.

vec ordering is row-major (t11, t12, t21, t22) everywhere; the 4x4 sandwich
matrices use that convention on both axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .brackets import _check_order, kcomm
from .errors import (
    EmptySystem,
    InvariantViolation,
    KTooSmall,
    NotScalarPlusNilpotent,
    SingularSystem,
)
from .fields import FieldTag, require_same_field
from .matrices import Mat2, SpectralSplit, spectral_split
from .randgen import random_rank_one


@dataclass(frozen=True)
class Verdict:
    """Outcome of a vanishing test; a failing witness carries its bracket."""

    holds: bool
    witness: Mat2 | None = None
    detail: Mat2 | None = None


@dataclass(frozen=True)
class SpectralVerdict:
    holds: bool
    split: SpectralSplit | None
    discriminant: object


@dataclass(frozen=True)
class SandwichSystem:
    """Two sums of sandwich terms compared on all rank-one inputs."""

    left: list  # [(A_i, B_i), ...]
    right: list  # [(C_j, D_j), ...]

    def field(self) -> FieldTag:
        if not self.left or not self.right:
            raise EmptySystem("both sides need at least one pair")
        f = self.left[0][0].field
        for X, Y in list(self.left) + list(self.right):
            require_same_field(f, X.field)
            require_same_field(f, Y.field)
        return f


@dataclass(frozen=True)
class NotAnIdentity:
    """The two sandwich sums differ; witness is rank one."""

    witness: Mat2
    left_value: Mat2
    right_value: Mat2


@dataclass(frozen=True)
class Coefficients:
    """coeffs[i][j] expresses target i in the span of the opposite side."""

    mode: str  # "b-in-d" or "a-in-c"
    coeffs: list


def _witness_idempotents(field: FieldTag):
    """Rank-one idempotent probe set; the first two already force scalarity."""
    half = field.coerce(Fraction(1, 2))
    one, zero = field.one(), field.zero()
    return [
        Mat2.unit(field, 1, 1),
        Mat2.from_rows(field, [[one, one], [zero, zero]]),
        Mat2.unit(field, 2, 2),
        Mat2.from_rows(field, [[one, zero], [one, zero]]),
        Mat2(field, (half, half, half, half)),
    ]


def scalar_witness_test(Z: Mat2, k: int) -> Verdict:
    """Vanishing of order-k brackets against rank-one idempotents.

    For exact fields the result provably coincides with Z being a scalar
    matrix, and that equivalence is checked here.
    """
    _check_order(k, minimum=1)
    verdict = Verdict(holds=True)
    for Q in _witness_idempotents(Z.field):
        bracket = kcomm(Z, Q, k, method="auto")
        if not bracket.is_zero():
            verdict = Verdict(holds=False, witness=Q, detail=bracket)
            break
    if Z.field.is_exact and verdict.holds != Z.is_scalar():
        raise InvariantViolation("witness set failed to decide scalarity")
    return verdict


def scalar_plus_nilpotent_spectral(S: Mat2) -> SpectralVerdict:
    """Exact classifier: S = lam*I + N iff the discriminant vanishes."""
    try:
        split = spectral_split(S)
    except NotScalarPlusNilpotent as exc:
        return SpectralVerdict(holds=False, split=None, discriminant=exc.discriminant)
    return SpectralVerdict(holds=True, split=split, discriminant=split.discriminant)


def scalar_plus_nilpotent_kcomm(S: Mat2, k: int, trials: int = 32, seed: int = 0) -> Verdict:
    """Sampled certifier: order-k brackets of rank-one matrices against S.

    Probes the four matrix units plus ``trials`` seeded-random rank-one
    matrices.  The spectral test is the authoritative classifier; agreement of
    the two is a tested property, not an assumption.
    """
    _check_order(k, minimum=1)
    if k < 3:
        raise KTooSmall(f"the vanishing criterion needs k >= 3, got {k}")
    field = S.field
    probes = [Mat2.unit(field, i, j) for i in (1, 2) for j in (1, 2)]
    rng = Random(seed)
    probes += [random_rank_one(field, rng) for _ in range(trials)]
    for A in probes:
        bracket = kcomm(A, S, k, method="auto")
        if not bracket.is_zero():
            return Verdict(holds=False, witness=A, detail=bracket)
    return Verdict(holds=True)


# -- sandwich operators and the rank-one identity solver ---------------------

_VEC_INDEX = [(0, 0), (0, 1), (1, 0), (1, 1)]


def vec(T: Mat2):
    """Row-major vectorization (t11, t12, t21, t22)."""
    return list(T.entries)


def unvec(field: FieldTag, v) -> Mat2:
    return Mat2(field, tuple(v))


def sandwich_operator(pairs) -> list:
    """4x4 matrix of T -> sum A_i T B_i over the unit basis, row-major vec."""
    if not pairs:
        raise EmptySystem("need at least one (A, B) pair")
    field = pairs[0][0].field
    for A, B in pairs:
        require_same_field(field, A.field)
        require_same_field(field, B.field)
    columns = []
    for p, q in _VEC_INDEX:
        T = Mat2.unit(field, p + 1, q + 1)
        acc = Mat2.zero(field)
        for A, B in pairs:
            acc = acc + A @ T @ B
        columns.append(vec(acc))
    # columns[c][r] -> matrix[r][c]
    return [[columns[c][r] for c in range(4)] for r in range(4)]


def _pivot_row(field: FieldTag, aug, col, start):
    """Row index of the pivot for this column, or None. Floats pick max magnitude."""
    if field.is_exact:
        for r in range(start, len(aug)):
            if not field.is_zero(aug[r][col]):
                return r
        return None
    best, best_mag = None, field.tolerance
    for r in range(start, len(aug)):
        mag = field.abs2(aug[r][col])
        if mag > best_mag:
            best, best_mag = r, mag
    return best


def _gauss_jordan(field: FieldTag, rows, n: int):
    """Reduced row echelon form of rows, pivoting on the first n columns only.

    Columns past n (right-hand sides) are carried through the row operations.
    Returns the reduced rows and their pivot columns.
    """
    work = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == len(work):
            break
        p = _pivot_row(field, work, col, row)
        if p is None:
            continue
        work[row], work[p] = work[p], work[row]
        piv = work[row][col]
        work[row] = [a / piv for a in work[row]]
        for r in range(len(work)):
            if r != row and not field.is_zero(work[r][col]):
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
    return work, pivots


def solve_linear(field: FieldTag, rows, rhs_list):
    """One solution of rows * x = rhs for every rhs in rhs_list, or None if
    any of them is inconsistent.

    One Gauss-Jordan pass serves all right-hand sides; free variables are set
    to zero.  Float fields pivot on magnitude and treat sub-tolerance values
    as zero.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [rhs[r] for rhs in rhs_list] for r, row in enumerate(rows)]
    work, pivots = _gauss_jordan(field, aug, n)
    if any(not field.is_zero(v) for row in work[len(pivots):] for v in row[n:]):
        return None
    solutions = []
    for j in range(n, n + len(rhs_list)):
        x = [field.zero()] * n
        for i, col in enumerate(pivots):
            x[col] = work[i][j]
        solutions.append(x)
    return solutions


def matrix_rank(field: FieldTag, rows) -> int:
    return len(_gauss_jordan(field, rows, len(rows[0]) if rows else 0)[1])


def rank_one_identity_solve(system: SandwichSystem, mode: str = "auto"):
    """Decide the rank-one sandwich identity; extract span coefficients.

    Equality on the four unit matrices (rank one, spanning) settles the
    identity for all rank-one T since both sides are linear in T.  On failure
    the differing basis unit is itself a rank-one witness.  Modes:

    - "b-in-d": requires the left first components to be linearly independent;
      expresses each left second component in the span of the right second
      components.
    - "a-in-c": the mirrored direction (right-side independence hypothesis on
      the left second components, solving into the right first components).
    - "auto": tries "b-in-d" first, then "a-in-c"; raises SingularSystem if
      neither independence hypothesis holds.
    """
    field = system.field()
    L = sandwich_operator(system.left)
    R = sandwich_operator(system.right)
    # column c of an operator is its value on the c-th unit matrix
    for c, (p, q) in enumerate(_VEC_INDEX):
        lv = [L[r][c] for r in range(4)]
        rv = [R[r][c] for r in range(4)]
        if not all(field.eq(a, b) for a, b in zip(lv, rv)):
            return NotAnIdentity(witness=Mat2.unit(field, p + 1, q + 1),
                                 left_value=unvec(field, lv), right_value=unvec(field, rv))

    def try_mode(m):
        if m == "b-in-d":
            indep = [vec(A) for A, _ in system.left]
            targets = [vec(B) for _, B in system.left]
            span = [vec(D) for _, D in system.right]
        else:
            indep = [vec(B) for _, B in system.left]
            targets = [vec(A) for A, _ in system.left]
            span = [vec(C) for C, _ in system.right]
        if matrix_rank(field, indep) != len(indep):
            return None
        cols = [[span[j][r] for j in range(len(span))] for r in range(4)]
        out = solve_linear(field, cols, targets)
        if out is None:
            # cannot happen when the identity holds and independence does
            raise InvariantViolation("span extraction failed on a valid identity")
        return Coefficients(mode=m, coeffs=out)

    if mode in ("b-in-d", "a-in-c"):
        result = try_mode(mode)
        if result is None:
            raise SingularSystem(f"independence hypothesis for mode {mode!r} fails")
        return result
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    for m in ("b-in-d", "a-in-c"):
        result = try_mode(m)
        if result is not None:
            return result
    raise SingularSystem("identity holds but neither side is linearly independent")

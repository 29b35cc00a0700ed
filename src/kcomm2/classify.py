"""Executable structure tests: scalar witnesses, scalar-plus-nilpotent
detection, and the rank-one sandwich-identity solver.

The solver reads the images of the matrix units from ``matrices.unit_images``,
fused on the integer form over Q and Q(i), one unit at a time, and stops at the
first unit whose images differ.  Its row reduction is fraction-free
on the matrices' integer forms over Q and Q(i) (Bareiss), pivoting on the first
nonzero entry, and Gauss-Jordan with magnitude pivoting over R64 and C64.

A matrix is vectorised as its ``.entries``, row-major (t11, t12, t21, t22);
the 4x4 sandwich matrices use that order on both axes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import NamedTuple

from .brackets import MAX_TRIALS, _check_order, kcomm
from .errors import EmptySystem, InvariantViolation, KTooSmall, SingularSystem
from .fields import FieldTag, GaussianRational, raw_fraction
from .matrices import Mat2, integer_entries, matrix_units, unit_images
from .randgen import random_rank_one


class Verdict(NamedTuple):
    """Outcome of a vanishing test; a failing witness carries its bracket."""

    holds: bool
    witness: Mat2 | None = None
    detail: Mat2 | None = None


class SpectralSplit(NamedTuple):
    """Normal form S = lam*I + N with N^2 = 0."""

    lam: object
    nilpotent: Mat2


class SpectralVerdict(NamedTuple):
    holds: bool
    split: SpectralSplit | None
    discriminant: object


class SandwichSystem(NamedTuple):
    """Two sums of sandwich terms compared on all rank-one inputs."""

    left: list  # [(A_i, B_i), ...]
    right: list  # [(C_j, D_j), ...]

    def field(self) -> FieldTag:
        """The field of the first matrix; ``unit_images`` checks every matrix against it."""
        if not self.left or not self.right:
            raise EmptySystem("both sides need at least one pair")
        return self.left[0][0].field


class NotAnIdentity(NamedTuple):
    """The two sandwich sums differ; witness is rank one."""

    witness: Mat2
    left_value: Mat2
    right_value: Mat2


class Coefficients(NamedTuple):
    """coeffs[i][j] expresses target i in the span of the opposite side."""

    mode: str  # "b-in-d" or "a-in-c"
    coeffs: list


@lru_cache(maxsize=8)
def _witness_idempotents(field: FieldTag) -> tuple:
    """Rank-one idempotent probes: E11 and E11 + E12 over Q and Q(i), where
    they force scalarity, and three more over R64 and C64.

    For an idempotent P the bracket [Z, P]_k is (1 - P) Z P -+ P Z (1 - P),
    two terms in complementary corners, so it vanishes iff Z commutes with P.
    Commuting with E11 makes Z diagonal, and then with E11 + E12 makes
    z11 = z22.  Over the float fields that holds only up to about three times
    the tolerance, so they keep all five probes while their zero test stays
    absolute.
    """
    e11, _, _, e22 = matrix_units(field)
    probes = (e11, Mat2(field, (1, 1, 0, 0)))
    if field.is_exact:
        return probes
    half = Fraction(1, 2)
    return (*probes, e22, Mat2(field, (1, 0, 1, 0)), Mat2(field, (half, half, half, half)))


def _certifier_probes(field: FieldTag, trials: int, seed: int):
    """The matrix units, then over R64 and C64 only ``trials`` rank-one matrices
    drawn from Random(seed), each when the caller asks for it."""
    yield from matrix_units(field)
    if not field.is_exact:
        rng = Random(seed)
        yield from (random_rank_one(field, rng) for _ in range(trials))


def scalar_witness_test(Z: Mat2, k: int) -> Verdict:
    """Lemma 2.2: vanishing of order-k brackets against rank-one idempotents.

    An idempotent P has delta(P) = 1, so [Z, P]_k is [Z, P] for odd k and
    [[Z, P], P] for even k; these are (1 - P) Z P - P Z (1 - P) and
    (1 - P) Z P + P Z (1 - P), whose terms lie in complementary corners, so
    each vanishes exactly when Z commutes with P.  Over Q and Q(i) the probes
    are E11, whose commutant is the diagonal matrices, and E11 + E12, which
    then forces z11 = z22: the verdict is Z being scalar, and a non-scalar Z
    is refuted by the first of them whose bracket does not vanish.  R64 and
    C64 keep five probes (``_witness_idempotents``).
    """
    _check_order(k, minimum=1)
    for Q in _witness_idempotents(Z.field):
        bracket = kcomm(Z, Q, k)
        if not bracket.is_zero():
            return Verdict(holds=False, witness=Q, detail=bracket)
    return Verdict(holds=True)


def scalar_plus_nilpotent_spectral(S: Mat2) -> SpectralVerdict:
    """Lemma 2.3: S = lam*I + N with N^2 = 0 iff the discriminant vanishes.

    The discriminant is ``S.discriminant()``, which avoids the cancellation of
    tr^2 - 4 det on floats; float fields compare it to zero under the field
    tolerance.  When it vanishes, lam = tr/2 and N = S - lam*I.
    """
    f = S.field
    disc = S.discriminant()
    if not f.is_zero(disc):
        return SpectralVerdict(holds=False, split=None, discriminant=disc)
    lam = S.trace() / 2
    split = SpectralSplit(lam=lam, nilpotent=S - Mat2.identity(f).scale(lam))
    return SpectralVerdict(holds=True, split=split, discriminant=disc)


def scalar_plus_nilpotent_kcomm(S: Mat2, k: int, trials: int = 32, seed: int = 0) -> Verdict:
    """Sampled certifier: order-k brackets of rank-one matrices against S.

    Probes the four matrix units, then over R64 and C64 only ``trials``
    rank-one matrices drawn from Random(``seed``), and stops at the first
    bracket that does not vanish.  A -> [A, S]_k is linear, so over Q and Q(i)
    the units decide the verdict; the kernel on non-unit inputs is checked there
    by ``TestCayleyHamilton``, not at run time, and over the float fields
    linearity holds only up to rounding.  The spectral test is the
    authoritative classifier; agreement of the two is a tested property.
    """
    _check_order(k, minimum=1)
    if k < 3:
        raise KTooSmall(f"the vanishing criterion needs k >= 3, got {k}")
    _check_order(trials, name="trials", maximum=MAX_TRIALS)
    for A in _certifier_probes(S.field, trials, seed):
        bracket = kcomm(A, S, k)
        if not bracket.is_zero():
            return Verdict(holds=False, witness=A, detail=bracket)
    return Verdict(holds=True)


# -- sandwich operators and the rank-one identity solver ---------------------

def sandwich_operator(pairs) -> list:
    """4x4 matrix of T -> sum A_i T B_i over the unit basis, vectorised in
    ``.entries`` order.

    Column c is the entries of the image of the c-th matrix unit.
    """
    columns = [image.entries for image in unit_images(pairs)]
    return [[columns[c][r] for c in range(4)] for r in range(4)]


def _gauss_jordan(field: FieldTag, rows, n: int):
    """Reduced row echelon form of float rows, pivoting on the first n columns only.

    Each column pivots on the first of its largest magnitudes, unless the field
    calls that zero.  Columns past n (right-hand sides) are carried through the
    row operations.  Returns the reduced rows and their pivot columns.  Each
    pivot's row operations start at its column: left of it the pivot row is zero
    to the field and no column there is read again.
    """
    work = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == len(work):
            break
        p = max(range(row, len(work)), key=lambda r: field.abs2(work[r][col]))
        if field.is_zero(work[p][col]):
            continue
        work[row], work[p] = work[p], work[row]
        piv = work[row][col]
        reduced = work[row][col:] = [a / piv for a in work[row][col:]]
        for r in range(len(work)):
            if r != row and not field.is_zero(work[r][col]):
                factor = work[r][col]
                work[r][col:] = [a - factor * b for a, b in zip(work[r][col:], reduced)]
        pivots.append(col)
    return work, pivots


def _int_update(p, f, q, row, top):
    """(p * row - f * top) / q on integers; the division is exact."""
    return [(p * a - f * b) // q for a, b in zip(row, top)]


def _gaussian_update(p, f, q, row, top):
    """(p * row - f * top) / q on Gaussian integers (re, im), dividing by q as
    conj(q) / |q|**2; the division is exact."""
    (pr, pi), (fr, fi), (qr, qi) = p, f, q
    n = qr * qr + qi * qi
    out = []
    for (ar, ai), (br, bi) in zip(row, top):
        ur = pr * ar - pi * ai - fr * br + fi * bi
        ui = pr * ai + pi * ar - fr * bi - fi * br
        out.append(((ur * qr + ui * qi) // n, (ui * qr - ur * qi) // n))
    return out


def _fraction_free(field: FieldTag, rows, n: int):
    """Gauss-Jordan on rows of ints, or of Gaussian integers (re, im) (Bareiss 1968),
    pivoting on the first nonzero entry of each of the first n columns.

    Each pivot p replaces every other row r by (p * r - r[col] * pivot row) / q,
    q the previous pivot (1 at first); by Sylvester's identity every entry is
    then a minor of the input, so the division is exact.  At the end each pivot
    row is the last pivot times its reduced row.  Returns the rows, their pivot
    columns and the last pivot.  As in ``_gauss_jordan``, columns left of a
    pivot are not updated again.
    """
    update, zero, last = (_gaussian_update, (0, 0), (1, 0)) if field.is_complex else (_int_update, 0, 1)
    work = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == len(work):
            break
        for p in range(row, len(work)):
            if work[p][col] != zero:
                break
        else:
            continue
        work[row], work[p] = work[p], work[row]
        top = work[row][col:]
        pivot = top[0]
        for r, w in enumerate(work):
            if r != row:
                w[col:] = update(pivot, w[col], last, w[col:], top)
        last = pivot
        pivots.append(col)
    return work, pivots, last


def _quotient(field: FieldTag, last, dens):
    """The map from an entry z of ``_fraction_free``'s rows in column j, right-hand
    side t, to the scalar z * dens[j] / (last * dens[t]), reduced by one gcd."""
    if not field.is_complex:
        s = -1 if last < 0 else 1  # raw_fraction takes a positive denominator
        return lambda z, j, t: raw_fraction(s * z * dens[j], s * last * dens[t])
    qr, qi = last  # z / q = z * conj(q) / |q|**2
    n, raw = qr * qr + qi * qi, GaussianRational._raw
    return lambda z, j, t: raw((z[0] * qr + z[1] * qi) * dens[j], (z[1] * qr - z[0] * qi) * dens[j],
                               n * dens[t])


def solve_linear(field: FieldTag, span, targets):
    """Coefficients x with sum_j x[j] * span[j] = target for every target matrix,
    or None if any target is outside the span; free unknowns are set to zero.

    One elimination serves all targets: a row per entry position, a column per
    matrix, span then targets.  Over Q and Q(i) column j is matrix j times its
    denominator d_j, which keeps every zero and so every pivot: a reduced entry y
    gives y * d_j / (last pivot * d_t) for target t.  R64 and C64 pivot on
    magnitude and treat sub-tolerance values as zero.
    """
    n, mats = len(span), [*span, *targets]
    if field.is_exact:
        dens, numerators = integer_entries(mats)
        work, pivots, last = _fraction_free(field, zip(*numerators), n)
        scalar = _quotient(field, last, dens)
        is_zero = ((0, 0) if field.is_complex else 0).__eq__  # last != 0, so v / last is zero iff v is
    else:
        work, pivots = _gauss_jordan(field, zip(*[M.entries for M in mats]), n)
        scalar = lambda v, j, t: v  # the reduced rows hold the solution
        is_zero = field.is_zero
    if not all(is_zero(v) for row in work[len(pivots):] for v in row[n:]):
        return None
    solutions, zero = [], field.zero()
    for t in range(n, len(mats)):
        x = [zero] * n
        for i, col in enumerate(pivots):
            x[col] = scalar(work[i][t], col, t)
        solutions.append(x)
    return solutions


def matrix_rank(field: FieldTag, mats) -> int:
    """How many of mats are linearly independent; one row per matrix."""
    if field.is_exact:
        return len(_fraction_free(field, integer_entries(mats)[1], 4)[1])
    return len(_gauss_jordan(field, [M.entries for M in mats], 4)[1])


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
    if mode not in ("auto", "b-in-d", "a-in-c"):
        raise ValueError(f"unknown mode {mode!r}")
    field = system.field()
    images = zip(matrix_units(field), unit_images(system.left, field), unit_images(system.right, field))
    for E, left, right in images:
        if not left.eq(right):
            return NotAnIdentity(witness=E, left_value=left, right_value=right)

    for m in ("b-in-d", "a-in-c") if mode == "auto" else (mode,):
        i = m == "a-in-c"  # pair member that must be independent; the other is solved for
        indep = [pair[i] for pair in system.left]
        if matrix_rank(field, indep) != len(indep):
            continue
        out = solve_linear(field, [pair[1 - i] for pair in system.right],
                           [pair[1 - i] for pair in system.left])
        if out is None:
            # cannot happen when the identity holds and independence does
            raise InvariantViolation("span extraction failed on a valid identity")
        return Coefficients(mode=m, coeffs=out)
    if mode == "auto":
        raise SingularSystem("identity holds but neither side is linearly independent")
    raise SingularSystem(f"independence hypothesis for mode {mode!r} fails")

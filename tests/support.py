"""Builders shared by the heavier test modules."""

from random import Random

from kcomm2 import FieldTag, Mat2, SandwichSystem
from kcomm2.classify import matrix_rank
from kcomm2.randgen import random_scalar


def random_mat(field: FieldTag, rng: Random, **kw) -> Mat2:
    return Mat2(field, tuple(random_scalar(field, rng, **kw) for _ in range(4)))


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


def span_system(field, rng: Random, n: int, m: int) -> SandwichSystem:
    """Sandwich system satisfying the identity by construction.

    Left first components are linearly independent; B_i = sum_j c_ij D_j and
    C_j = sum_i c_ij A_i make both sandwich sums equal for every T.
    """
    while True:
        A = [random_mat(field, rng, span=3) for _ in range(n)]
        if matrix_rank(field, A) == n:
            break
    D = [random_mat(field, rng, span=3) for _ in range(m)]
    coeffs = [[random_scalar(field, rng, span=3) for _ in range(m)] for _ in range(n)]
    B = []
    for i in range(n):
        acc = Mat2.zero(field)
        for j in range(m):
            acc = acc + D[j].scale(coeffs[i][j])
        B.append(acc)
    C = []
    for j in range(m):
        acc = Mat2.zero(field)
        for i in range(n):
            acc = acc + A[i].scale(coeffs[i][j])
        C.append(acc)
    return SandwichSystem(left=list(zip(A, B)), right=list(zip(C, D)))


def apply_operator(field, op, T: Mat2) -> Mat2:
    """The 4x4 operator op applied to T's entries, as a matrix."""
    v = T.entries
    out = [sum((op[r][c] * v[c] for c in range(4)), field.zero()) for r in range(4)]
    return Mat2(field, tuple(out))


def random_complex_pair_real_matrix(field, rng: Random) -> Mat2:
    """Real 2x2 matrix with tr^2 < 4 det (complex conjugate eigenvalue pair)."""
    while True:
        S = random_mat(field, rng, span=5)
        tr = S.trace()
        if tr * tr < 4 * S.det():
            return S


class Poly:
    """Polynomial with integer coefficients over named variables.

    A monomial is the sorted tuple of its variable names, each repeated by its
    power; ``terms`` maps monomials to nonzero coefficients, so equal
    polynomials have equal ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def var(cls, name):
        return cls({(name,): 1})

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in Poly._lift(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly._lift(other)

    def __rsub__(self, other):
        return Poly._lift(other) - self

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly._lift(other).terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def __floordiv__(self, n: int):
        """Exact division by an int that divides every coefficient."""
        if any(c % n for c in self.terms.values()):
            raise ValueError(f"{n} does not divide every coefficient")
        return Poly({m: c // n for m, c in self.terms.items()})

    def __eq__(self, other):
        return self.terms == Poly._lift(other).terms


def poly_matrix(prefix: str) -> tuple:
    """Generic 2x2 matrix (x11, x12, x21, x22) of fresh variables, row-major."""
    return tuple(Poly.var(f"{prefix}{i}{j}") for i in (1, 2) for j in (1, 2))


def poly_matmul(X, Y) -> tuple:
    return (X[0] * Y[0] + X[1] * Y[2], X[0] * Y[1] + X[1] * Y[3],
            X[2] * Y[0] + X[3] * Y[2], X[2] * Y[1] + X[3] * Y[3])


def poly_bracket(R, B) -> tuple:
    """RB - BR on row-major polynomial matrices."""
    return tuple(p - q for p, q in zip(poly_matmul(R, B), poly_matmul(B, R)))


def reference_gauss_jordan(rows, n: int):
    """Gauss-Jordan on exact field scalars, one gcd per scalar operation: the
    row reduction ``classify`` ran over Q and Q(i) before its fraction-free one.

    Each of the first n columns pivots on its first nonzero entry at or under
    the current row.  Returns the reduced rows and their pivot columns.
    """
    work = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        row = len(pivots)
        p = next((r for r in range(row, len(work)) if work[r][col]), None)
        if p is None:
            continue
        work[row], work[p] = work[p], work[row]
        piv = work[row][col]
        work[row] = [a / piv for a in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
    return work, pivots


def reference_solve(field, rows, rhs_list):
    """``solve_linear`` on ``reference_gauss_jordan``, given the system's rows and
    right-hand sides as scalars: free unknowns are zero, and an inconsistent
    right-hand side gives None."""
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [rhs[r] for rhs in rhs_list] for r, row in enumerate(rows)]
    work, pivots = reference_gauss_jordan(aug, n)
    if any(v for row in work[len(pivots):] for v in row[n:]):
        return None
    solutions = []
    for j in range(n, n + len(rhs_list)):
        x = [field.zero()] * n
        for i, col in enumerate(pivots):
            x[col] = work[i][j]
        solutions.append(x)
    return solutions


def entry_rows(mats) -> list:
    """The matrices' entries transposed: row r holds entry r of each matrix, so
    matrix j is column j, as ``solve_linear`` reads a span."""
    return [[M.entries[r] for M in mats] for r in range(4)]


def random_span_system(field, rng: Random):
    """(span, targets) of 1-5 random exact matrices and 1-3 targets.

    Some matrices are combinations of earlier ones, some entry positions are
    zero in every matrix of the span, the entries have unequal denominators,
    and the targets are both a combination of the span (consistent) and random
    matrices (outside the span when it is rank deficient).
    """
    n = rng.randint(1, 5)
    kw = dict(span=rng.choice((2, 9, 1000)), denominators=rng.random() < 0.7)
    zero = [rng.random() < 0.15 for _ in range(4)]
    span = []
    for _ in range(n):
        if span and rng.random() < 0.4:  # a dependent matrix
            picks = rng.sample(span, rng.randint(1, len(span)))
            span.append(sum((M.scale(random_scalar(field, rng, **kw)) for M in picks), Mat2.zero(field)))
        else:
            entries = [random_scalar(field, rng, **kw) for _ in range(4)]
            span.append(Mat2(field, [field.zero() if z else v for z, v in zip(zero, entries)]))
    x = [random_scalar(field, rng, **kw) for _ in range(n)]
    targets = [sum((M.scale(c) for M, c in zip(span, x)), Mat2.zero(field))]
    targets += [random_mat(field, rng, **kw) for _ in range(rng.randint(0, 2))]
    rng.shuffle(targets)
    return span, targets


def random_unimodular(field, rng: Random):
    """(S, S^-1) for S drawn from GL2(Z) with det +-1: the identity moved by 4-10
    random row operations (add t times one row to the other, |t| <= 2, or swap
    the rows), so that S^-1 = det(S) * adj(S) is integral too."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(4, 10)):
        move, t = rng.randrange(3), rng.choice((-2, -1, 1, 2))
        if move == 0:
            a, b = a + t * c, b + t * d
        elif move == 1:
            c, d = c + t * a, d + t * b
        else:
            a, b, c, d = c, d, a, b
    det = a * d - b * c
    return Mat2(field, (a, b, c, d)), Mat2(field, (det * d, -det * b, -det * c, det * a))


def transposed(M: Mat2) -> Mat2:
    a11, a12, a21, a22 = M.entries
    return Mat2(M.field, (a11, a21, a12, a22))


def conjugated(M: Mat2) -> Mat2:
    """M with the field's conjugation applied entrywise (M itself over a real field)."""
    return Mat2(M.field, tuple(M.field.conj(x) for x in M.entries))

"""Builders shared by the heavier test modules."""

from random import Random

from kcomm2 import Mat2, SandwichSystem
from kcomm2.classify import matrix_rank, unvec, vec
from kcomm2.randgen import random_mat, random_scalar


def span_system(field, rng: Random, n: int, m: int) -> SandwichSystem:
    """Sandwich system satisfying the identity by construction.

    Left first components are linearly independent; B_i = sum_j c_ij D_j and
    C_j = sum_i c_ij A_i make both sandwich sums equal for every T.
    """
    while True:
        A = [random_mat(field, rng, span=3) for _ in range(n)]
        if matrix_rank(field, [vec(a) for a in A]) == n:
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
    """The 4x4 operator op applied to vec(T), as a matrix."""
    v = vec(T)
    out = [sum((op[r][c] * v[c] for c in range(4)), field.zero()) for r in range(4)]
    return unvec(field, out)


def random_complex_pair_real_matrix(field, rng: Random) -> Mat2:
    """Real 2x2 matrix with tr^2 < 4 det (complex conjugate eigenvalue pair)."""
    while True:
        S = random_mat(field, rng, span=5)
        tr = S.trace()
        if tr * tr < 4 * S.det():
            return S

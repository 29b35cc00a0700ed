"""An exhaustive oracle for the "only if" half of the theorem over a prime field.

If Phi satisfies [Phi(A), Phi(B)]_k = [A, B]_k for all A, B in M2(F_p), then
Phi(A) = lambda*A + h(A)*I with lambda**(k + 1) = 1.  Brackets do not change
when a scalar matrix is added to either argument, so such a Phi induces a map
phi on the p**3 classes of M2(F_p) modulo scalars with
[phi(a), phi(b)]_k = [a, b]_k.  This file lists every such class map, by arc
consistency and backtracking, and checks that they are exactly a -> lambda*a
with lambda**(k + 1) = 1: gcd(k + 1, p - 1) maps.

Everything here is plain integers mod p, independent of kcomm2, and it holds
lambda that no exact field of kcomm2 holds (over Q and Q(i) an even k has
lambda = 1 only).
"""

import math
from itertools import product

import pytest


def _mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _step(r, b, p):
    """R B - B R on row-major 4-tuples mod p."""
    return tuple((s - t) % p for s, t in zip(_mul(r, b, p), _mul(b, r, p)))


def classes(p):
    """One matrix per class modulo scalars: [[x, y], [z, 0]], which is A - a22*I."""
    return [(x, y, z, 0) for x, y, z in product(range(p), repeat=3)]


def bracket_table(p, k):
    """table[i][j] = [a_i, a_j]_k over F_p, each 4-tuple coded as one integer."""
    reps = classes(p)
    table = []
    for a in reps:
        row = []
        for b in reps:
            r = a
            for _ in range(k):
                r = _step(r, b, p)
            row.append(r[0] + p * (r[1] + p * (r[2] + p * r[3])))
        table.append(row)
    return table


def preserving_class_maps(p, k):
    """Every map phi on the classes (as a tuple of images) with
    [phi(a_i), phi(a_j)]_k = [a_i, a_j]_k for all i, j."""
    table = bracket_table(p, k)
    n = len(table)
    # pairs[u][(s, t)]: the values v with [u, v]_k = s and [v, u]_k = t
    pairs = [{} for _ in range(n)]
    for u in range(n):
        for v in range(n):
            pairs[u].setdefault((table[u][v], table[v][u]), set()).add(v)

    def supports(i, j, u):
        return pairs[u].get((table[i][j], table[j][i]), ())

    # arc consistency on the full problem: a value u stays for i while every j
    # has a value v that agrees with it
    domains = [set(range(n)) for _ in range(n)]
    queue = {(i, j) for i in range(n) for j in range(n) if i != j}
    while queue:
        i, j = queue.pop()
        keep = {u for u in domains[i] if not domains[j].isdisjoint(supports(i, j, u))}
        if keep != domains[i]:
            domains[i] = keep
            if not keep:
                return []
            queue |= {(h, i) for h in range(n) if h != i and h != j}

    solutions = []

    def search(assigned, domains):
        if len(assigned) == n:
            solutions.append(tuple(assigned[i] for i in range(n)))
            return
        i = min((j for j in range(n) if j not in assigned), key=lambda j: len(domains[j]))
        for u in sorted(domains[i]):
            narrowed = list(domains)
            narrowed[i] = {u}
            for j in range(n):
                if j not in assigned and j != i:
                    narrowed[j] = narrowed[j] & supports(i, j, u)
                    if not narrowed[j]:
                        break
            else:
                search({**assigned, i: u}, narrowed)

    search({}, domains)
    return solutions


def scalings(p, k):
    """The class maps a -> lambda*a with lambda**(k + 1) = 1 in F_p."""
    index = {a: i for i, a in enumerate(classes(p))}
    return {tuple(index[tuple(lam * x % p for x in a)] for a in classes(p))
            for lam in range(1, p) if pow(lam, k + 1, p) == 1}


def test_brackets_are_class_functions():
    """[a + cI, b + dI]_k = [a, b]_k, so the maps on classes are well defined."""
    p = 3
    for a, b in product(product(range(p), repeat=4), repeat=2):
        for c, d in ((1, 0), (0, 2), (2, 1)):
            r, s = a, b
            r2 = ((a[0] + c) % p, a[1], a[2], (a[3] + c) % p)
            s2 = ((b[0] + d) % p, b[1], b[2], (b[3] + d) % p)
            for _ in range(3):
                r, r2 = _step(r, s, p), _step(r2, s2, p)
                assert r == r2


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_only_scalings_preserve(p, k):
    found = preserving_class_maps(p, k)
    assert len(found) == len(set(found))
    assert set(found) == scalings(p, k)
    assert len(found) == math.gcd(k + 1, p - 1)

from fractions import Fraction
from random import Random

import pytest

from kcomm2 import (
    FLOAT_C,
    FLOAT_R,
    GAUSSIAN_QI,
    RATIONAL_Q,
    GaussianRational,
    Mat2,
    RankOneFactor,
    kcomm,
    kcomm_closed,
    kcomm_eigenpair,
    kcomm_idempotent_fast,
    kcomm_nilpotent_fast,
    kcomm_recursive,
    outer,
)
from kcomm2 import brackets as brackets_module
from kcomm2.errors import (
    InvalidOrder,
    KTooSmall,
    NotAnEigenpair,
    NotIdempotent,
    NotNilpotent,
    ResultTooLarge,
)
from kcomm2.identities import golden_identities
from kcomm2.randgen import random_mat, random_scalar

from conftest import units


class TestRecursive:
    def test_order_zero_is_first_argument(self, any_field):
        rng = Random(0)
        A = random_mat(any_field, rng)
        B = random_mat(any_field, rng)
        assert kcomm_recursive(A, B, 0).eq(A)

    def test_offdiag_against_diag_unit(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        assert kcomm_recursive(e12, e11, 3).eq(-e12)

    def test_order_two_corner(self, exact_field):
        # order-2 bracket of E21 against E12; expanded by hand
        _, e12, e21, _ = units(exact_field)
        expected = e12.scale(exact_field.coerce(-2))
        assert kcomm_recursive(e21, e12, 2).eq(expected)

    def test_negative_order_rejected(self):
        eye = Mat2.identity(RATIONAL_Q)
        with pytest.raises(InvalidOrder):
            kcomm_recursive(eye, eye, -1)


class TestClosedForm:
    def test_golden_identities_small(self, exact_field):
        for k in range(1, 7):
            for ident in golden_identities(exact_field, k):
                assert kcomm_closed(ident.A, ident.B, k).eq(ident.expected), ident.name

    def test_matches_recursive_on_random_input(self):
        rng = Random(21)
        for _ in range(40):
            A = random_mat(GAUSSIAN_QI, rng)
            B = random_mat(GAUSSIAN_QI, rng)
            for k in range(0, 7):
                assert kcomm_closed(A, B, k).eq(kcomm_recursive(A, B, k))

    def test_dispatch_methods_agree(self):
        rng = Random(2)
        A = random_mat(RATIONAL_Q, rng, denominators=True)
        B = random_mat(RATIONAL_Q, rng, denominators=True)
        for k in (0, 2, 5, 9):
            r = kcomm(A, B, k, method="recursive")
            assert kcomm(A, B, k, method="closed").eq(r)
            assert kcomm(A, B, k, method="auto").eq(r)


def _as_complex(x):
    if isinstance(x, GaussianRational):
        return complex(float(x.re), float(x.im))
    return complex(float(x))


class TestCayleyHamilton:
    def test_cubic_identity_symbolic(self):
        sp = pytest.importorskip("sympy")
        R = sp.Matrix(2, 2, sp.symbols("r11 r12 r21 r22"))
        B = sp.Matrix(2, 2, sp.symbols("b11 b12 b21 b22"))

        def T(X):
            return X * B - B * X

        delta = B.trace() ** 2 - 4 * B.det()
        assert (T(T(T(R))) - delta * T(R)).expand() == sp.zeros(2, 2)
        assert sp.expand(delta - ((B[0, 0] - B[1, 1]) ** 2 + 4 * B[0, 1] * B[1, 0])) == 0

    def test_auto_equals_oracle_exactly(self, exact_field):
        rng = Random(64)
        for i in range(12):
            A = random_mat(exact_field, rng, denominators=i % 2 == 1)
            B = random_mat(exact_field, rng, denominators=i % 3 == 1)
            R = A  # the oracle's recurrence, one step per order
            for k in range(65):
                if k:
                    R = R @ B - B @ R
                assert kcomm(A, B, k, method="auto").entries == R.entries, (i, k)
            assert kcomm_recursive(A, B, 64).entries == R.entries

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_order_64_matches_exact_reference(self, field):
        """Within 1e-9 of the largest entry of the bracket of the exactly lifted input."""
        exact = RATIONAL_Q if field is FLOAT_R else GAUSSIAN_QI

        def lift(M):
            if field is FLOAT_R:
                return Mat2(exact, tuple(Fraction(x) for x in M.entries))
            return Mat2(exact, tuple(GaussianRational(Fraction(z.real), Fraction(z.imag))
                                     for z in M.entries))

        rng = Random(12)
        for _ in range(20):
            A, B = random_mat(field, rng), random_mat(field, rng)
            ref = [_as_complex(r) for r in kcomm_recursive(lift(A), lift(B), 64).entries]
            got = kcomm(A, B, 64, method="auto").entries
            err = max(abs(g - r) for g, r in zip(got, ref))
            assert err <= 1e-9 * max(abs(r) for r in ref)

    def test_idempotent_and_square_zero_special_cases(self, exact_field):
        e11, e12, e21, _ = units(exact_field)
        huge = 10**30
        assert kcomm(e21, e11, huge + 1, method="auto").eq(kcomm_recursive(e21, e11, 1))
        assert kcomm(e21, e11, huge, method="auto").eq(kcomm_recursive(e21, e11, 2))
        assert kcomm(e21, e12, huge, method="auto").is_zero()

    def test_exact_size_cap(self, exact_field):
        e12 = Mat2.unit(exact_field, 1, 2)
        B = Mat2.diag(exact_field, 3, 0)  # delta = 9
        with pytest.raises(ResultTooLarge):
            kcomm(e12, B, 10**6, method="auto")

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_overflow_is_typed(self, field):
        A = Mat2.from_rows(field, [[1e10, 1.0], [0.0, 1.0]])
        B = Mat2.from_rows(field, [[1e10, 3.0], [1.0, 0.0]])
        with pytest.raises(ResultTooLarge):
            kcomm(A, B, 201, method="auto")

    def test_boolean_order_rejected(self):
        eye = Mat2.identity(RATIONAL_Q)
        for method in ("auto", "recursive"):
            with pytest.raises(InvalidOrder):
                kcomm(eye, eye, True, method=method)


class TestAlgebraicLaws:
    def test_recurrence(self, exact_field):
        rng = Random(31)
        A = random_mat(exact_field, rng)
        B = random_mat(exact_field, rng)
        for k in range(0, 6):
            step = kcomm_recursive(A, B, k)
            assert kcomm_recursive(A, B, k + 1).eq(step @ B - B @ step)

    def test_linearity_in_first_slot(self, exact_field):
        rng = Random(32)
        A, A2, B = (random_mat(exact_field, rng) for _ in range(3))
        for k in range(0, 6):
            lhs = kcomm_recursive(A + A2, B, k)
            assert lhs.eq(kcomm_recursive(A, B, k) + kcomm_recursive(A2, B, k))

    def test_scaling_law(self, exact_field):
        rng = Random(33)
        A, B = random_mat(exact_field, rng), random_mat(exact_field, rng)
        lam = random_scalar(exact_field, rng, denominators=True)
        mu = random_scalar(exact_field, rng, denominators=True)
        for k in range(0, 5):
            lhs = kcomm_recursive(A.scale(lam), B.scale(mu), k)
            rhs = kcomm_recursive(A, B, k).scale(lam * mu**k)
            assert lhs.eq(rhs)

    def test_central_translation_invariance(self, exact_field):
        rng = Random(34)
        A, B = random_mat(exact_field, rng), random_mat(exact_field, rng)
        c = random_scalar(exact_field, rng)
        shift = Mat2.identity(exact_field).scale(c)
        for k in range(0, 5):
            base = kcomm_recursive(A, B, k)
            assert kcomm_recursive(A, B + shift, k).eq(base)
            if k >= 1:
                assert kcomm_recursive(A + shift, B, k).eq(base)


class TestIdempotentFast:
    def test_periodicity_example(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        assert kcomm_idempotent_fast(e12, e11, 5).eq(kcomm_recursive(e12, e11, 1))
        assert kcomm_idempotent_fast(e12, e11, 5).eq(-e12)

    def test_identity_commutes(self, any_field):
        rng = Random(8)
        A = random_mat(any_field, rng)
        eye = Mat2.identity(any_field)
        for k in (1, 2, 5):
            assert kcomm_idempotent_fast(A, eye, k).is_zero()

    def test_even_order(self, exact_field):
        e11, _, e21, _ = units(exact_field)
        result = kcomm_idempotent_fast(e21, e11, 4)
        assert result.eq(kcomm_recursive(e21, e11, 2))
        assert result.eq(e21)

    def test_agrees_with_oracle_randomly(self, exact_field):
        rng = Random(41)
        idempotents = [
            Mat2.unit(exact_field, 1, 1),
            Mat2.from_rows(exact_field, [[1, 1], [0, 0]]),
            Mat2.from_rows(
                exact_field,
                [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
            ),
        ]
        for Q in idempotents:
            A = random_mat(exact_field, rng)
            for k in range(1, 8):
                assert kcomm_idempotent_fast(A, Q, k).eq(kcomm_recursive(A, Q, k))

    def test_runs_through_the_kernel(self, monkeypatch, exact_field):
        calls = []
        kernel = brackets_module._kcomm_cayley_hamilton
        monkeypatch.setattr(brackets_module, "_kcomm_cayley_hamilton",
                            lambda A, B, k: calls.append(k) or kernel(A, B, k))
        e11, e12, _, _ = units(exact_field)
        assert kcomm_idempotent_fast(e12, e11, 7).eq(-e12)
        assert calls == [1]

    def test_float_rounding_does_not_drift_at_huge_order(self):
        # delta(Q) = 1 + 1.7e-12 here: delta**m drifts, then overflows
        Q = outer(FLOAT_R, (1.0, 0.3), (1 / 1.09, 0.3 / 1.09 * (1 + 1e-11)))
        A = Mat2.from_rows(FLOAT_R, [[1, 2], [3, 4]])
        for k in (10**12 + 1, 10**30 + 1):
            assert kcomm_idempotent_fast(A, Q, k).entries == kcomm_recursive(A, Q, 1).entries
        assert kcomm_idempotent_fast(A, Q, 10**30).entries == kcomm_recursive(A, Q, 2).entries

    def test_rejects_non_idempotent(self, exact_field):
        with pytest.raises(NotIdempotent):
            kcomm_idempotent_fast(Mat2.identity(exact_field), Mat2.unit(exact_field, 1, 2), 3)

    def test_rejects_order_zero(self, exact_field):
        with pytest.raises(InvalidOrder):
            kcomm_idempotent_fast(Mat2.identity(exact_field), Mat2.unit(exact_field, 1, 1), 0)


class TestNilpotentFast:
    def test_vanishing(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        assert kcomm_nilpotent_fast(e11, e12, 3).is_zero()
        rng = Random(17)
        assert kcomm_nilpotent_fast(random_mat(exact_field, rng), e12, 7).is_zero()

    def test_agrees_with_oracle(self, exact_field):
        rng = Random(18)
        from kcomm2.randgen import random_scalar_plus_nilpotent
        from kcomm2 import spectral_split

        for _ in range(20):
            N = spectral_split(random_scalar_plus_nilpotent(exact_field, rng)).nilpotent
            A = random_mat(exact_field, rng)
            for k in (3, 4, 6):
                assert kcomm_recursive(A, N, k).eq(kcomm_nilpotent_fast(A, N, k))

    def test_order_two_counterexample(self, exact_field):
        _, e12, e21, _ = units(exact_field)
        with pytest.raises(KTooSmall):
            kcomm_nilpotent_fast(e21, e12, 2)
        # the guard exists because the bracket genuinely fails to vanish there
        assert kcomm_recursive(e21, e12, 2).eq(e12.scale(exact_field.coerce(-2)))

    def test_rejects_non_nilpotent(self, exact_field):
        with pytest.raises(NotNilpotent):
            kcomm_nilpotent_fast(Mat2.identity(exact_field), Mat2.unit(exact_field, 1, 1), 3)


class TestEigenpair:
    def one_factor(self, field):
        return RankOneFactor(x=(field.one(), field.zero()), f=(field.zero(), field.one()))

    def test_diagonal_examples(self, exact_field):
        f = exact_field
        fac = self.one_factor(f)
        S = Mat2.diag(f, 1, 2)
        assert kcomm_eigenpair(fac, S, 1, 1, 2).eq(Mat2.unit(f, 1, 2))
        S = Mat2.diag(f, 1, 3)
        assert kcomm_eigenpair(fac, S, 2, 1, 3).eq(Mat2.unit(f, 1, 2).scale(f.coerce(4)))

    def test_equal_eigenvalues_vanish(self, exact_field):
        f = exact_field
        fac = RankOneFactor(x=(f.one(), f.zero()), f=(f.one(), f.zero()))
        S = Mat2.diag(f, 1, 3)
        assert kcomm_eigenpair(fac, S, 2, 1, 1).is_zero()

    def test_agrees_with_oracle_on_random_diagonalizable(self):
        from kcomm2.randgen import random_diagonalizable

        rng = Random(55)
        for _ in range(20):
            S, alpha, beta, x, f = random_diagonalizable(GAUSSIAN_QI, rng)
            fac = RankOneFactor(x=x, f=f)
            A = outer(GAUSSIAN_QI, x, f)
            for k in (1, 2, 4):
                assert kcomm_eigenpair(fac, S, k, alpha, beta).eq(kcomm_recursive(A, S, k))

    def test_bad_eigenvector_rejected(self, exact_field):
        fac = self.one_factor(exact_field)
        S = Mat2.from_rows(exact_field, [[1, 1], [0, 2]])
        with pytest.raises(NotAnEigenpair):
            kcomm_eigenpair(fac, S, 1, 2, 1)

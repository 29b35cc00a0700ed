from fractions import Fraction
from random import Random

import pytest

from kcomm2 import (
    GAUSSIAN_QI,
    RATIONAL_Q,
    Coefficients,
    Mat2,
    NotAnIdentity,
    SandwichSystem,
    kcomm_recursive,
    rank_one_identity_solve,
    sandwich_operator,
    scalar_plus_nilpotent_kcomm,
    scalar_plus_nilpotent_spectral,
    scalar_witness_test,
)
from kcomm2.errors import EmptySystem, InvalidOrder, KTooSmall, SingularSystem
from kcomm2.randgen import random_mat, random_scalar_plus_nilpotent

from conftest import units
from support import apply_operator, span_system as _span_system


class TestScalarWitness:
    def test_scalar_passes(self, exact_field):
        Z = Mat2.identity(exact_field).scale(exact_field.coerce(3))
        assert scalar_witness_test(Z, 2).holds

    def test_offdiagonal_fails_even_order(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        verdict = scalar_witness_test(e12, 4)
        assert not verdict.holds
        assert verdict.witness.eq(e11)
        assert verdict.detail.eq(e12)

    def test_diagonal_unit_fails_odd_order(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        verdict = scalar_witness_test(e11, 3)
        assert not verdict.holds
        assert verdict.witness.eq(Mat2.from_rows(exact_field, [[1, 1], [0, 0]]))
        assert verdict.detail.eq(e12)

    def test_order_zero_rejected(self, exact_field):
        with pytest.raises(InvalidOrder):
            scalar_witness_test(Mat2.identity(exact_field), 0)

    def test_equivalence_with_scalarity(self, exact_field):
        rng = Random(101)
        for _ in range(150):
            Z = random_mat(exact_field, rng, span=3)
            for k in (1, 2, 3, 5):
                # scalar_witness_test asserts the equivalence internally
                assert scalar_witness_test(Z, k).holds == Z.is_scalar()

    def test_failing_witness_brackets_recompute(self, exact_field):
        rng = Random(103)
        for _ in range(30):
            Z = random_mat(exact_field, rng, span=3)
            v = scalar_witness_test(Z, 3)
            if not v.holds:
                assert kcomm_recursive(Z, v.witness, 3).eq(v.detail)
                assert not v.detail.is_zero()


class TestScalarPlusNilpotent:
    def test_jordan_form_accepted(self, exact_field):
        S = Mat2.from_rows(exact_field, [[1, 1], [0, 1]])
        v = scalar_plus_nilpotent_spectral(S)
        assert v.holds
        assert exact_field.eq(v.split.lam, exact_field.one())
        assert v.split.nilpotent.eq(Mat2.unit(exact_field, 1, 2))

    def test_distinct_eigenvalues_rejected(self, exact_field):
        v = scalar_plus_nilpotent_spectral(Mat2.diag(exact_field, 1, 2))
        assert not v.holds
        assert exact_field.eq(v.discriminant, exact_field.one())

    def test_rotation_rejected(self):
        v = scalar_plus_nilpotent_spectral(Mat2.from_rows(RATIONAL_Q, [[0, 1], [-1, 0]]))
        assert not v.holds

    def test_kcomm_accepts_shifted_nilpotent(self, exact_field):
        S = Mat2.identity(exact_field).scale(exact_field.coerce(5)) + Mat2.unit(exact_field, 1, 2)
        assert scalar_plus_nilpotent_kcomm(S, 3).holds

    def test_kcomm_rejects_diag_with_witness(self, exact_field):
        S = Mat2.diag(exact_field, 1, 2)
        v = scalar_plus_nilpotent_kcomm(S, 3)
        assert not v.holds
        assert v.witness.eq(Mat2.unit(exact_field, 1, 2))
        assert v.detail.eq(Mat2.unit(exact_field, 1, 2))  # (2-1)^3 * E12

    def test_kcomm_rejects_rotation_even_order(self):
        S = Mat2.from_rows(RATIONAL_Q, [[0, 1], [-1, 0]])
        v = scalar_plus_nilpotent_kcomm(S, 4)
        assert not v.holds
        assert kcomm_recursive(v.witness, S, 4).eq(v.detail)

    def test_small_order_rejected(self, exact_field):
        with pytest.raises(KTooSmall):
            scalar_plus_nilpotent_kcomm(Mat2.identity(exact_field), 2)

    @pytest.mark.parametrize("k", [3.0, True, "3"])
    def test_non_integer_order_rejected(self, k):
        with pytest.raises(InvalidOrder):
            scalar_plus_nilpotent_kcomm(Mat2.identity(RATIONAL_Q), k)

    def test_agreement_of_both_classifiers(self):
        rng = Random(202)
        for _ in range(150):
            if rng.random() < 0.5:
                S = random_scalar_plus_nilpotent(GAUSSIAN_QI, rng, span=3)
            else:
                S = random_mat(GAUSSIAN_QI, rng, span=3)
            spectral = scalar_plus_nilpotent_spectral(S).holds
            for k in (3, 4, 5):
                assert scalar_plus_nilpotent_kcomm(S, k, trials=8, seed=9).holds == spectral


class TestSandwichOperator:
    def test_identity_pair(self, exact_field):
        op = sandwich_operator([(Mat2.identity(exact_field), Mat2.identity(exact_field))])
        one, zero = exact_field.one(), exact_field.zero()
        assert all(
            exact_field.eq(op[r][c], one if r == c else zero)
            for r in range(4)
            for c in range(4)
        )

    def test_corner_projection(self, exact_field):
        e11 = Mat2.unit(exact_field, 1, 1)
        op = sandwich_operator([(e11, e11)])
        expected_diag = [1, 0, 0, 0]
        for r in range(4):
            for c in range(4):
                want = exact_field.coerce(expected_diag[r] if r == c else 0)
                assert exact_field.eq(op[r][c], want)

    def test_swap_pair(self, exact_field):
        # E12 T E21 picks t22 into position t11
        e12 = Mat2.unit(exact_field, 1, 2)
        e21 = Mat2.unit(exact_field, 2, 1)
        op = sandwich_operator([(e12, e21)])
        for r in range(4):
            for c in range(4):
                want = exact_field.one() if (r, c) == (0, 3) else exact_field.zero()
                assert exact_field.eq(op[r][c], want)

    def test_vectorization_consistency(self, exact_field):
        rng = Random(303)
        for _ in range(20):
            pairs = [
                (random_mat(exact_field, rng, span=3), random_mat(exact_field, rng, span=3))
                for _ in range(rng.randint(1, 3))
            ]
            op = sandwich_operator(pairs)
            T = random_mat(exact_field, rng, span=3)
            direct = Mat2.zero(exact_field)
            for A, B in pairs:
                direct = direct + A @ T @ B
            assert apply_operator(exact_field, op, T).eq(direct)

    def test_empty_rejected(self):
        with pytest.raises(EmptySystem):
            sandwich_operator([])


class TestIdentitySolver:
    def test_split_identity(self, exact_field):
        e11, e12, _, e22 = units(exact_field)
        system = SandwichSystem(left=[(e11, e12), (e22, e12)], right=[(Mat2.identity(exact_field), e12)])
        result = rank_one_identity_solve(system)
        assert isinstance(result, Coefficients)
        for row in result.coeffs:
            assert exact_field.eq(row[0], exact_field.one())

    def test_not_an_identity_with_witness(self, exact_field):
        e11, e12, e21, e22 = units(exact_field)
        system = SandwichSystem(
            left=[(e11, e12), (e22, e21)], right=[(Mat2.identity(exact_field), e12)]
        )
        result = rank_one_identity_solve(system)
        assert isinstance(result, NotAnIdentity)
        assert result.witness.eq(e21)
        assert result.left_value.is_zero()
        assert result.right_value.eq(e22)

    def test_reflexive_identity(self, exact_field):
        e11, _, _, e22 = units(exact_field)
        shared = [(e11, e11), (e22, e22)]
        result = rank_one_identity_solve(SandwichSystem(left=shared, right=shared))
        assert isinstance(result, Coefficients)
        for i, row in enumerate(result.coeffs):
            reassembled = Mat2.zero(exact_field)
            for j, c in enumerate(row):
                reassembled = reassembled + shared[j][1].scale(c)
            assert reassembled.eq(shared[i][1])

    def test_constructed_systems_recover_coefficients(self):
        rng = Random(404)
        for _ in range(25):
            system = _span_system(GAUSSIAN_QI, rng, rng.randint(1, 3), rng.randint(1, 3))
            result = rank_one_identity_solve(system, mode="b-in-d")
            assert isinstance(result, Coefficients)
            for i, row in enumerate(result.coeffs):
                reassembled = Mat2.zero(GAUSSIAN_QI)
                for j, c in enumerate(row):
                    reassembled = reassembled + system.right[j][1].scale(c)
                assert reassembled.eq(system.left[i][1])

    def test_singular_system(self, exact_field):
        # both sides linearly dependent: the same pair listed twice
        e11 = Mat2.unit(exact_field, 1, 1)
        system = SandwichSystem(
            left=[(e11, e11), (e11, e11)], right=[(e11, e11), (e11, e11)]
        )
        with pytest.raises(SingularSystem):
            rank_one_identity_solve(system)

    def test_witness_is_rank_one(self, exact_field):
        rng = Random(405)
        from kcomm2 import rank_one_factor

        for _ in range(20):
            left = [(random_mat(exact_field, rng, span=2), random_mat(exact_field, rng, span=2))]
            right = [(random_mat(exact_field, rng, span=2), random_mat(exact_field, rng, span=2))]
            try:
                result = rank_one_identity_solve(SandwichSystem(left=left, right=right))
            except SingularSystem:
                continue
            if isinstance(result, NotAnIdentity):
                rank_one_factor(result.witness)  # raises if not rank one
                lhs = left[0][0] @ result.witness @ left[0][1]
                rhs = right[0][0] @ result.witness @ right[0][1]
                assert not lhs.eq(rhs)

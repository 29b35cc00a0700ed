import hashlib
from fractions import Fraction
from random import Random

import pytest

from kcomm2 import (
    FLOAT_C,
    FLOAT_R,
    GAUSSIAN_QI,
    RATIONAL_Q,
    Coefficients,
    FieldTag,
    GaussianRational,
    Mat2,
    NotAnIdentity,
    SandwichSystem,
    classify,
    kcomm_recursive,
    rank_one_identity_solve,
    sandwich_operator,
    scalar_plus_nilpotent_kcomm,
    scalar_plus_nilpotent_spectral,
    scalar_witness_test,
)
from kcomm2 import matrices as matrices_module
from kcomm2.errors import EmptySystem, FieldMismatch, InvalidOrder, KTooSmall, SingularSystem
from kcomm2.randgen import random_rank_one, random_scalar
from kcomm2.serialize import canonical_dumps, solver_result_to_json

from conftest import units
from support import (apply_operator, conjugated, entry_rows, random_mat, random_scalar_plus_nilpotent,
                     random_span_system, random_unimodular, reference_gauss_jordan,
                     reference_solve, span_system as _span_system, transposed)


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
                # the witness set decides scalarity over exact fields
                assert scalar_witness_test(Z, k).holds == Z.is_scalar()

    @staticmethod
    def five_probe_verdict(Z, k):
        """The witness test as it was before it was decided on two probes."""
        e11, e12, e21, e22 = units(Z.field)
        half = Z.field.coerce(Fraction(1, 2))
        for P in (e11, e11 + e12, e22, e11 + e21, (e11 + e12 + e21 + e22).scale(half)):
            bracket = kcomm_recursive(Z, P, k)
            if not bracket.is_zero():
                return (False, P, bracket)
        return (True, None, None)

    @pytest.mark.parametrize("field, probes", [(RATIONAL_Q, 2), (GAUSSIAN_QI, 2),
                                               (FLOAT_R, 5), (FLOAT_C, 5)],
                             ids=["Q", "Qi", "R64", "C64"])
    def test_holding_z_brackets_two_probes_over_exact_fields(self, monkeypatch, field, probes):
        calls = []
        kcomm = classify.kcomm
        monkeypatch.setattr(classify, "kcomm", lambda *a: calls.append(a) or kcomm(*a))
        Z = Mat2.identity(field).scale(field.coerce(3))
        for k in range(1, 7):
            calls.clear()
            assert scalar_witness_test(Z, k).holds
            assert len(calls) == probes

    def test_two_probes_give_the_five_probe_verdict(self, exact_field):
        rng = Random(107)
        for i in range(600):
            if i % 3 == 0:  # scalar
                Z = Mat2.identity(exact_field).scale(random_scalar(exact_field, rng, denominators=True))
            elif i % 3 == 1:  # entries in {-1, 0, 1}: often diagonal or triangular
                Z = random_mat(exact_field, rng, span=1)
            else:
                Z = random_mat(exact_field, rng, span=3, denominators=True)
            for k in range(1, 7):
                v = scalar_witness_test(Z, k)
                holds, witness, detail = self.five_probe_verdict(Z, k)
                assert v.holds == holds
                assert (v.witness is None) == (witness is None)
                if not holds:
                    assert v.witness.eq(witness) and v.detail.eq(detail)

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

    def test_discriminant_past_the_print_limit_is_a_verdict(self):
        # the discriminant a**2 has 5,000 digits, more than repr will print
        a = int("7" * 2500)
        v = scalar_plus_nilpotent_spectral(Mat2.from_rows(RATIONAL_Q, [[a, 1], [0, 0]]))
        assert not v.holds
        assert v.discriminant == a * a

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

    @pytest.mark.parametrize("trials", [-1, True, 2.0])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(InvalidOrder):
            scalar_plus_nilpotent_kcomm(Mat2.identity(RATIONAL_Q), 3, trials=trials)

    def test_trials_past_the_cap_rejected(self):
        from kcomm2.brackets import MAX_TRIALS

        S = Mat2.from_rows(RATIONAL_Q, [[0, 1], [-1, 0]])  # refuted by the units
        with pytest.raises(InvalidOrder):
            scalar_plus_nilpotent_kcomm(S, 3, trials=10**9)
        assert not scalar_plus_nilpotent_kcomm(S, 3, trials=MAX_TRIALS).holds

    def test_float_spectral_verdict_agrees_with_certifier(self):
        # a discriminant of 1 that tr^2 - 4 det would cancel to 0.0
        S = Mat2.from_rows(FLOAT_R, [[1e8 + 1, 1], [0, 1e8]])
        verdict = scalar_plus_nilpotent_spectral(S)
        assert (verdict.holds, verdict.discriminant) == (False, 1.0)
        assert not scalar_plus_nilpotent_kcomm(S, 3).holds

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

    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI, FLOAT_R, FLOAT_C],
                             ids=lambda f: f.variant)
    def test_equals_the_sum_of_products(self, field):
        # signed zeros included: R64/C64 entries of either sign, compared by repr
        rng = Random(41)
        for _ in range(60):
            pairs = [(random_mat(field, rng, span=3, denominators=True),
                      random_mat(field, rng, span=3, denominators=True))
                     for _ in range(rng.randint(1, 3))]
            if not field.is_exact:
                pairs = [tuple(Mat2(field, [x if rng.random() < 0.6 else -0.0 * x for x in M.entries])
                               for M in pair) for pair in pairs]
            columns = []
            for E in units(field):
                acc = Mat2.zero(field)
                for A, B in pairs:
                    acc = acc + A @ E @ B
                columns.append(acc.entries)
            expected = [[columns[c][r] for c in range(4)] for r in range(4)]
            got = sandwich_operator(pairs)
            assert got == expected and repr(got) == repr(expected)

    def test_empty_rejected(self):
        with pytest.raises(EmptySystem):
            sandwich_operator([])

    @pytest.mark.parametrize("other", [FLOAT_R, GAUSSIAN_QI], ids=lambda f: f.variant)
    def test_mixed_fields_rejected(self, other):
        eye = Mat2.identity(RATIONAL_Q)
        for pairs in ([(eye, Mat2.identity(other))], [(eye, eye), (Mat2.identity(other), eye)]):
            with pytest.raises(FieldMismatch):
                sandwich_operator(pairs)
            with pytest.raises(FieldMismatch):
                rank_one_identity_solve(SandwichSystem(left=pairs, right=[(eye, eye)]))


class TestIdentitySolver:
    def test_split_identity(self, exact_field):
        e11, e12, _, e22 = units(exact_field)
        system = SandwichSystem(left=[(e11, e12), (e22, e12)], right=[(Mat2.identity(exact_field), e12)])
        result = rank_one_identity_solve(system)
        assert isinstance(result, Coefficients)
        for row in result.coeffs:
            assert exact_field.eq(row[0], exact_field.one())

    def test_each_matrix_field_is_checked_once(self, exact_field, monkeypatch):
        checked, real = [], matrices_module.require_same_field

        def counting(a, b):
            checked.append(b)
            return real(a, b)

        monkeypatch.setattr(matrices_module, "require_same_field", counting)
        # and classify's own binding, should it check any matrix again
        monkeypatch.setattr(classify, "require_same_field", counting, raising=False)
        e11, e12, e21, e22 = units(exact_field)
        system = SandwichSystem(left=[(e11, e12), (e22, e21)], right=[(e11, e12), (e21, e22)])
        assert isinstance(rank_one_identity_solve(system), NotAnIdentity)
        assert len(checked) == 8

    def test_first_matrix_off_the_first_field_is_named(self):
        # every matrix is checked against the first one's field, left side first
        q, qi, r64 = (Mat2.identity(f) for f in (RATIONAL_Q, GAUSSIAN_QI, FLOAT_R))
        for i in range(1, 8):
            for j in range(i + 1, 9):
                slots = [q] * 8
                slots[i] = qi
                if j < 8:
                    slots[j] = r64
                system = SandwichSystem(left=[tuple(slots[0:2]), tuple(slots[2:4])],
                                        right=[tuple(slots[4:6]), tuple(slots[6:8])])
                with pytest.raises(FieldMismatch, match=r"^Q vs Qi$"):
                    rank_one_identity_solve(system)

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

    def test_unknown_mode_rejected(self, exact_field):
        e11 = Mat2.unit(exact_field, 1, 1)
        system = SandwichSystem(left=[(e11, e11)], right=[(e11, e11)])
        with pytest.raises(ValueError, match="unknown mode 'x'"):
            rank_one_identity_solve(system, mode="x")

    @pytest.mark.parametrize("holds", [True, False])
    def test_unknown_mode_rejected_before_the_identity_is_decided(self, exact_field, holds):
        e11, e12, _, _ = units(exact_field)
        system = SandwichSystem(left=[(e11, e11)], right=[(e11, e11 if holds else e12)])
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            rank_one_identity_solve(system, mode="bogus")

    # A T B = (2A) T (B/2 + eps*E12) holds up to eps, inside the float
    # tolerance for eps = 1e-12 and refuted on E11 for eps = 1.
    @pytest.mark.parametrize("field, a, b, eps, expected", [
        (FLOAT_R, [[1, 2], [0, 1]], [[0.5, 0], [1, 2]], 1e-12,
         '{"coefficients":[[2.0]],"identity":true,"mode":"b-in-d"}'),
        (FLOAT_R, [[1, 2], [0, 1]], [[0.5, 0], [1, 2]], 1.0,
         '{"identity":false,"left_value":{"entries":[[0.5,0.0],[0.0,0.0]],"field":"R64"},'
         '"right_value":{"entries":[[0.5,2.0],[0.0,0.0]],"field":"R64"},'
         '"witness":{"entries":[[1.0,0.0],[0.0,0.0]],"field":"R64"}}'),
        (FLOAT_C, [[1, 1j], [0, 1]], [[0.5, 0], [1 - 1j, 2]], 1e-12,
         '{"coefficients":[[{"im":0.0,"re":2.0}]],"identity":true,"mode":"b-in-d"}'),
        (FLOAT_C, [[1, 1j], [0, 1]], [[0.5, 0], [1 - 1j, 2]], 1.0,
         '{"identity":false,"left_value":{"entries":[[{"im":0.0,"re":0.5},{"im":0.0,"re":0.0}],'
         '[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"field":"C64"},'
         '"right_value":{"entries":[[{"im":0.0,"re":0.5},{"im":0.0,"re":2.0}],'
         '[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"field":"C64"},'
         '"witness":{"entries":[[{"im":0.0,"re":1.0},{"im":0.0,"re":0.0}],'
         '[{"im":0.0,"re":0.0},{"im":0.0,"re":0.0}]],"field":"C64"}}'),
    ], ids=["R64-1e-12", "R64-1", "C64-1e-12", "C64-1"])
    def test_float_systems_are_pinned(self, field, a, b, eps, expected):
        A, B = Mat2.from_rows(field, a), Mat2.from_rows(field, b)
        D = B.scale(0.5) + Mat2.from_rows(field, [[0, eps], [0, 0]])
        system = SandwichSystem(left=[(A, B)], right=[(A.scale(2.0), D)])
        result = rank_one_identity_solve(system)
        assert canonical_dumps(solver_result_to_json(result, field)) == expected

    def test_refuted_at_e11_builds_one_image_a_side(self, exact_field, monkeypatch):
        # E11 E11 E11 = E11 but E11 E11 E12 = E12: the first unit refutes, and no
        # image past it is built on either side
        e11, e12, _, _ = units(exact_field)
        system = SandwichSystem(left=[(e11, e11)], right=[(e11, e12)])
        built, normalised = [], matrices_module._normalised
        monkeypatch.setattr(matrices_module, "_normalised", lambda f, z: built.append(z) or normalised(f, z))
        result = rank_one_identity_solve(system)
        assert isinstance(result, NotAnIdentity)
        assert (result.witness, result.left_value, result.right_value) == (e11, e11, e12)
        assert len(built) == 2

    def test_first_image_is_the_sum_at_e11(self, exact_field):
        rng = Random(406)
        e11 = units(exact_field)[0]
        for _ in range(40):
            pairs = [(random_mat(exact_field, rng, span=3, denominators=True),
                      random_mat(exact_field, rng, span=3, denominators=True))
                     for _ in range(rng.randint(1, 3))]
            want = Mat2.zero(exact_field)
            for A, B in pairs:
                want = want + A @ e11 @ B
            assert next(matrices_module.unit_images(pairs)) == want

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


class TestExactElimination:
    """The fraction-free elimination on the matrices' integer forms against
    ``support.reference_gauss_jordan``, Gauss-Jordan on the field scalars of their
    transposed entries: the same solutions and ranks, scalar type included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_scalar_reference(self, exact_field, seed):
        rng = Random(f"elimination/{exact_field.variant}/{seed}")
        inconsistent = deficient = 0
        for _ in range(150):
            span, targets = random_span_system(exact_field, rng)
            rows = entry_rows(span)
            want = reference_solve(exact_field, rows, [T.entries for T in targets])
            got = classify.solve_linear(exact_field, span, targets)
            assert got == want
            if want is None:
                inconsistent += 1
            else:
                assert [[type(v) for v in x] for x in got] == [[type(v) for v in x] for x in want]
            rank = len(reference_gauss_jordan(rows, len(span))[1])
            assert classify.matrix_rank(exact_field, span) == rank
            deficient += rank < min(4, len(span))
        assert inconsistent > 10 and deficient > 30

    def test_rank_reads_columns_in_order(self, exact_field):
        # matrix 1 is twice matrix 0, so the pivots are columns 0 and 2
        span = [Mat2(exact_field, e) for e in ((1, 3, 0, 0), (2, 6, 0, 0), (0, 1, 0, 0))]
        inside, outside = Mat2(exact_field, (1, 4, 0, 0)), Mat2(exact_field, (1, 4, 1, 0))
        f = exact_field.coerce
        assert classify.matrix_rank(exact_field, span) == 2
        assert classify.solve_linear(exact_field, span, [inside]) == [[f(1), f(0), f(1)]]
        assert classify.solve_linear(exact_field, span, [outside]) is None


class TestSolveLinear:
    """Float pivoting: the first row of largest magnitude, none at or under tolerance.

    The expected solutions are the ones the rule gave before it read
    ``FieldTag.is_zero``, float for float.
    """

    @staticmethod
    def mats(*entries):
        return [Mat2(FLOAT_R, e) for e in entries]

    def test_sub_tolerance_column_has_no_pivot(self):
        # matrix 0 holds 4e-10 and -1e-9 = -tolerance: both zero, so x0 is free
        span = self.mats((4e-10, -1e-9, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0))
        got = classify.solve_linear(FLOAT_R, span, self.mats((1.0, 2.0 + 4e-10, 0.0, 0.0)))
        assert got == [[0.0, 1.0000000002]]
        assert classify.solve_linear(FLOAT_R, span, self.mats((1.0, 2.5, 0.0, 0.0))) is None

    def test_magnitude_tie_takes_the_first_row(self):
        # taking row 1 instead gives [-0.14, 0.07999999999999999]
        span = self.mats((1.0, -1.0, 0.0, 0.0), (3.0, 7.0, 0.0, 0.0))
        got = classify.solve_linear(FLOAT_R, span, self.mats((0.1, 0.7, 0.0, 0.0)))
        assert got == [[-0.13999999999999996, 0.07999999999999999]]


class TestConjugationLaws:
    """Conjugating every matrix by one S drawn from GL2(Z) with det +-1 keeps each
    verdict over Q and Q(i): an oracle that shares no elimination with the solver.

    T -> S T S^-1 maps rank-one matrices onto rank-one matrices, so both sandwich
    sums move together and independence and span coefficients are kept; Z is
    scalar, and S is scalar plus square-zero, exactly when their conjugates are;
    and the discriminant and tr/2 do not move while N is conjugated.
    """

    CASES = 300

    @staticmethod
    def _solve(system, mode):
        try:
            return rank_one_identity_solve(system, mode)
        except SingularSystem:
            return SingularSystem

    @staticmethod
    def _system(field, rng):
        """An identity from ``span_system``; 30% of them broken by a matrix unit
        added to D_1, and 20% given one more term on both sides, a multiple of
        the first left pair, so that the left first components are dependent."""
        system = _span_system(field, rng, rng.randint(1, 3), rng.randint(1, 3))
        left, right = list(system.left), list(system.right)
        if rng.random() < 0.3:
            C, D = right[0]
            right[0] = (C, D + rng.choice(units(field)))
        if rng.random() < 0.2:
            (A, B), q = left[0], random_scalar(field, rng, denominators=True) or field.one()
            extra = (A.scale(q), B.scale(rng.choice((q, field.one()))))
            left, right = left + [extra], right + [extra]
        return SandwichSystem(left=left, right=right)

    def test_solver_verdicts_and_coefficients(self, exact_field):
        rng = Random(f"conjugation/solver/{exact_field.variant}")
        seen = set()
        for _ in range(self.CASES):
            system = self._system(exact_field, rng)
            S, Sinv = random_unimodular(exact_field, rng)
            assert (S @ Sinv).eq(Mat2.identity(exact_field))
            conj = lambda pairs: [(S @ X @ Sinv, S @ Y @ Sinv) for X, Y in pairs]
            moved = SandwichSystem(left=conj(system.left), right=conj(system.right))
            for mode in ("auto", "b-in-d", "a-in-c"):
                want, got = self._solve(system, mode), self._solve(moved, mode)
                if isinstance(want, NotAnIdentity):
                    assert isinstance(got, NotAnIdentity)
                else:
                    assert got == want
                seen.add(want if want is SingularSystem else type(want))
        assert seen == {Coefficients, NotAnIdentity, SingularSystem}

    @staticmethod
    def _classifier_input(field, rng, i):
        """A scalar, a scalar plus square-zero or a general matrix, as i is 0, 1 or 2 mod 3."""
        if i % 3 == 0:
            return Mat2.identity(field).scale(random_scalar(field, rng, denominators=True))
        if i % 3 == 1:
            return random_scalar_plus_nilpotent(field, rng, denominators=True)
        return random_mat(field, rng, denominators=True)

    def test_classifier_verdicts(self, exact_field):
        rng = Random(f"conjugation/classify/{exact_field.variant}")
        held = 0
        for i in range(self.CASES):
            S, Sinv = random_unimodular(exact_field, rng)
            Z = self._classifier_input(exact_field, rng, i)
            W = S @ Z @ Sinv
            k = rng.randint(1, 6)
            assert scalar_witness_test(W, k).holds == scalar_witness_test(Z, k).holds
            k = rng.randint(3, 6)
            verdict = scalar_plus_nilpotent_kcomm(Z, k)
            assert scalar_plus_nilpotent_kcomm(W, k).holds == verdict.holds
            held += verdict.holds
            want, got = scalar_plus_nilpotent_spectral(Z), scalar_plus_nilpotent_spectral(W)
            assert got.holds == want.holds and got.discriminant == want.discriminant
            if want.holds:
                assert got.split.lam == want.split.lam
                assert got.split.nilpotent.eq(S @ want.split.nilpotent @ Sinv)
        assert self.CASES // 2 < held < self.CASES


# (field, move) of the exact laws below: transposition over Q and Qi, and
# entrywise conjugation over Qi
_MOVES = {"Q-transpose": (RATIONAL_Q, transposed), "Qi-transpose": (GAUSSIAN_QI, transposed),
          "Qi-conjugate": (GAUSSIAN_QI, conjugated)}


def _outcome(result):
    """SingularSystem, NotAnIdentity or Coefficients: what a solve decided."""
    return result if result is SingularSystem else type(result)


class TestTranspositionAndConjugationLaws:
    """Transposing every matrix, or over Q(i) conjugating every entry, keeps each
    verdict, with the inputs drawn as ``TestConjugationLaws`` draws them.

    Both moves keep scalars, square-zero matrices and rank one, and move the
    discriminant and tr/2 as they move an entry.  Transposition turns
    sum A T B into sum B^T T^T A^T, so the pairs (A, B) become (B^T, A^T): the
    modes swap and the span coefficients stay.  Conjugation keeps the modes and
    conjugates the coefficients.
    """

    CASES = TestConjugationLaws.CASES

    @pytest.mark.parametrize("name", sorted(_MOVES))
    def test_classifier_verdicts(self, name):
        field, move = _MOVES[name]
        scalar = (lambda x: x) if move is transposed else field.conj
        rng = Random(f"{name}/classify")
        held = 0
        for i in range(self.CASES):
            Z = TestConjugationLaws._classifier_input(field, rng, i)
            W = move(Z)
            k = rng.randint(1, 6)
            assert scalar_witness_test(W, k).holds == scalar_witness_test(Z, k).holds
            k = rng.randint(3, 6)
            verdict = scalar_plus_nilpotent_kcomm(Z, k)
            assert scalar_plus_nilpotent_kcomm(W, k).holds == verdict.holds
            held += verdict.holds
            want, got = scalar_plus_nilpotent_spectral(Z), scalar_plus_nilpotent_spectral(W)
            assert got.holds == want.holds and got.discriminant == scalar(want.discriminant)
            if want.holds:
                assert got.split.lam == scalar(want.split.lam)
                assert got.split.nilpotent == move(want.split.nilpotent)
        assert self.CASES // 2 < held < self.CASES

    @pytest.mark.parametrize("name", sorted(_MOVES))
    def test_solver_verdicts_and_coefficients(self, name):
        field, move = _MOVES[name]
        swap = move is transposed
        modes = {"b-in-d": "a-in-c", "a-in-c": "b-in-d"} if swap else {m: m for m in ("b-in-d", "a-in-c")}
        rng = Random(f"{name}/solver")
        solve = TestConjugationLaws._solve
        seen = set()
        for _ in range(self.CASES):
            system = TestConjugationLaws._system(field, rng)
            left, right = ([(move(Y), move(X)) if swap else (move(X), move(Y)) for X, Y in side]
                           for side in system)
            moved = SandwichSystem(left=left, right=right)
            want = solve(system, "auto")
            assert _outcome(solve(moved, "auto")) == _outcome(want)
            seen.add(_outcome(want))
            for mode in ("b-in-d", "a-in-c"):
                want, got = solve(system, mode), solve(moved, modes[mode])
                if isinstance(want, Coefficients):
                    coeffs = [[c if swap else field.conj(c) for c in row] for row in want.coeffs]
                    assert got == Coefficients(modes[mode], coeffs)
                else:
                    assert _outcome(got) == _outcome(want)
        assert seen == {Coefficients, NotAnIdentity, SingularSystem}


# -- the certifier's probe stream --------------------------------------------

_F, _G = Fraction, GaussianRational
_CERTIFIER_INPUTS = {
    "Q-jordan": (RATIONAL_Q, [[_F(1, 2), 3], [0, _F(1, 2)]]),
    "Q-nilpotent": (RATIONAL_Q, [[6, -4], [9, -6]]),
    "Q-diag": (RATIONAL_Q, [[1, 0], [0, 2]]),
    "Q-rotation": (RATIONAL_Q, [[0, 1], [-1, 0]]),
    "Q-lower": (RATIONAL_Q, [[_F(2, 3), 0], [5, _F(-1, 4)]]),
    "Qi-jordan": (GAUSSIAN_QI, [[_G(1, 1), 0], [_G(2, _F(-1, 3)), _G(1, 1)]]),
    "Qi-refuted": (GAUSSIAN_QI, [[_G(0, 1), 1], [0, 2]]),
    "Qi-upper": (GAUSSIAN_QI, [[_G(_F(1, 2)), _G(0, _F(2, 3))], [0, _G(0, -1)]]),
    "R64-jordan": (FLOAT_R, [[1, 2], [0, 1]]),
    "C64-jordan": (FLOAT_C, [[1, 2], [0, 1]]),
}
# (input, k, witness, detail) of every refuted case at seed 7; a unit refutes each
# one, so none may draw a random probe
_REFUTED = [
    ("Q-diag", 3, "[[0, 1], [0, 0]]", "[[0, 1], [0, 0]]"),
    ("Q-diag", 4, "[[0, 1], [0, 0]]", "[[0, 1], [0, 0]]"),
    ("Q-diag", 5, "[[0, 1], [0, 0]]", "[[0, 1], [0, 0]]"),
    ("Q-rotation", 3, "[[1, 0], [0, 0]]", "[[0, -4], [-4, 0]]"),
    ("Q-rotation", 4, "[[1, 0], [0, 0]]", "[[8, 0], [0, -8]]"),
    ("Q-rotation", 5, "[[1, 0], [0, 0]]", "[[0, 16], [16, 0]]"),
    ("Q-lower", 3, "[[1, 0], [0, 0]]", "[[0, 0], [-605/144, 0]]"),
    ("Q-lower", 4, "[[1, 0], [0, 0]]", "[[0, 0], [-6655/1728, 0]]"),
    ("Q-lower", 5, "[[1, 0], [0, 0]]", "[[0, 0], [-73205/20736, 0]]"),
    ("Qi-refuted", 3, "[[1, 0], [0, 0]]", "[[0, 3+-4i], [0, 0]]"),
    ("Qi-refuted", 4, "[[1, 0], [0, 0]]", "[[0, 2+-11i], [0, 0]]"),
    ("Qi-refuted", 5, "[[1, 0], [0, 0]]", "[[0, -7+-24i], [0, 0]]"),
    ("Qi-upper", 3, "[[1, 0], [0, 0]]", "[[0, -2/3+-1/2i], [0, 0]]"),
    ("Qi-upper", 4, "[[1, 0], [0, 0]]", "[[0, -1/6+11/12i], [0, 0]]"),
    ("Qi-upper", 5, "[[1, 0], [0, 0]]", "[[0, 1+-7/24i], [0, 0]]"),
]
# (field, seed): first probe and SHA-256 prefix of the 32 random rank-one
# probes drawn from Random(seed), one str(Mat2) per line
_STREAMS = {
    ("Q", 7): ("[[3, -8], [-15, 40]]", "2fa79bc94a2474e1"),
    ("Qi", 7): ("[[-47+27i, -16+28i], [-85+32i, -34+42i]]", "c84a24fd1e950d48"),
    ("Q", 0): ("[[-24, -3], [-32, -4]]", "ee9afe8141294797"),
    ("Qi", 0): ("[[45+10i, 9+12i], [-62+41i, -24+-3i]]", "3111323c6e3ffb23"),
    ("R64", 0): ("[[-0.10942753277579195, -0.3321373569430923], "
                 "[-0.08195564177308581, -0.24875394294834596]]", "08ab6cf1b48e39a6"),
    ("R64", 7): ("[[-0.10635883522717851, 0.30129086894178136], "
                 "[-0.21079558378053972, 0.5971368948397396]]", "846833bb44dabafc"),
    ("C64", 0): ("[[(-0.08255758961911228+0.1426044976604469j), (0.18804034874114645+0.5638019625803006j)], "
                 "[(0.08809301513910132-0.04107631058540511j), (0.09950533553376632-0.3361665813800645j)]]",
                 "ed731094f767a6e7"),
    ("C64", 7): ("[[(0.16229436848044648-0.1447577744187933j), (0.30107965991058494+0.6225398923943518j)], "
                 "[(0.2513695073528121+0.019721318184126632j), (-0.2795697962639852+0.7514452501986201j)]]",
                 "3e6f7b4ad9e87d96"),
}
# (field, seed): first draw and SHA-256 prefix of 32 random_scalar(field, Random(seed),
# denominators=True) draws, one str per line: the stream of the campaign's h_random
_SCALAR_STREAMS = {
    ("Q", 0): ("3/4", "da82f7bf70890692"),
    ("Q", 11): ("5/4", "e6c8358717143e27"),
    ("Qi", 0): ("3/4+-8/3i", "eb1441e5e6895e89"),
    ("Qi", 11): ("5/4+5/2i", "13fbf40d1d5eadc2"),
    ("R64", 0): ("0.6888437030500962", "aa9c9f7aa264c19f"),
    ("R64", 11): ("-0.09524089298036276", "156c6b080fef6b55"),
    ("C64", 0): ("(0.6888437030500962+0.515908805880605j)", "974478ed9d62e209"),
    ("C64", 11): ("(-0.09524089298036276+0.11954477216099191j)", "125b4ddd09d825a8"),
}


def _certifier_input(name):
    field, rows = _CERTIFIER_INPUTS[name]
    return Mat2.from_rows(field, rows)


def _digest(probes):
    return hashlib.sha256("\n".join(str(p) for p in probes).encode()).hexdigest()[:16]


@pytest.fixture
def drawn(monkeypatch):
    """Every random probe the certifier draws, in order."""
    probes = []

    def counting(*args, **kwargs):
        probes.append(random_rank_one(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(classify, "random_rank_one", counting)
    return probes


class TestCertifierStream:
    @pytest.mark.parametrize("name, k, witness, detail", _REFUTED,
                             ids=[f"{name}-k{k}" for name, k, _, _ in _REFUTED])
    def test_refuted_cases_are_pinned_and_draw_nothing(self, drawn, name, k, witness, detail):
        v = scalar_plus_nilpotent_kcomm(_certifier_input(name), k, seed=7)
        assert (v.holds, str(v.witness), str(v.detail)) == (False, witness, detail)
        assert drawn == []

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("name", ["Q-jordan", "Q-nilpotent", "Qi-jordan"])
    def test_exact_positive_cases_bracket_the_units_only(self, drawn, monkeypatch, name, k):
        # A -> [A, S]_k is linear: over Q and Qi the four units decide, whatever trials and seed
        brackets, kernel = [], classify.kcomm
        monkeypatch.setattr(classify, "kcomm", lambda A, B, k: brackets.append(A) or kernel(A, B, k))
        for trials in (0, 32):
            for seed in (0, 7):
                brackets.clear()
                v = scalar_plus_nilpotent_kcomm(_certifier_input(name), k, trials=trials, seed=seed)
                assert (v.holds, v.witness, v.detail) == (True, None, None)
                assert drawn == [] and len(brackets) == 4

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("name", ["Q-jordan", "Q-nilpotent", "Qi-jordan", "R64-jordan", "C64-jordan"])
    def test_positive_cases_draw_the_pinned_stream(self, drawn, name, k):
        # the pinned stream is empty over Q and Qi, where the units decide, and the
        # 32 probes of _STREAMS at seed 7 over R64 and C64
        S = _certifier_input(name)
        v = scalar_plus_nilpotent_kcomm(S, k, seed=7)
        assert (v.holds, v.witness, v.detail) == (True, None, None)
        if S.field.is_exact:
            assert drawn == []
        else:
            first, digest = _STREAMS[(S.field.variant, 7)]
            assert len(drawn) == 32 and str(drawn[0]) == first and _digest(drawn) == digest

    @pytest.mark.parametrize("variant, seed", sorted(_STREAMS))
    def test_random_rank_one_stream(self, variant, seed):
        rng = Random(seed)
        probes = [random_rank_one(FieldTag(variant), rng) for _ in range(32)]
        assert (str(probes[0]), _digest(probes)) == _STREAMS[(variant, seed)]

    @pytest.mark.parametrize("variant, seed", sorted(_SCALAR_STREAMS))
    def test_random_scalar_stream(self, variant, seed):
        rng = Random(seed)
        draws = [random_scalar(FieldTag(variant), rng, denominators=True) for _ in range(32)]
        assert (str(draws[0]), _digest(draws)) == _SCALAR_STREAMS[(variant, seed)]


@pytest.fixture
def constructed(monkeypatch):
    """The field of every matrix built through the checked constructor."""
    fields = []
    init = Mat2.__init__

    def counting(self, field, entries):
        fields.append(field)
        init(self, field, entries)

    monkeypatch.setattr(Mat2, "__init__", counting)
    return fields


class TestHotLoopsConstructNoMatrix:
    """Once a field's constant matrices exist, the solver and a positive
    certifier make every matrix as an operation result."""

    def test_sandwich_solve(self, any_field, request):
        system = _span_system(any_field, Random(8), 2, 2)
        (A, B), other = system.left  # A != 0, so adding E12 to B breaks the identity
        broken = SandwichSystem(left=[(A, B + units(any_field)[1]), other], right=system.right)
        rank_one_identity_solve(system)  # warm-up
        built = request.getfixturevalue("constructed")
        assert isinstance(rank_one_identity_solve(system), Coefficients)
        assert isinstance(rank_one_identity_solve(broken), NotAnIdentity)
        assert built == []

    def test_positive_certifier(self, any_field, request):
        S = random_scalar_plus_nilpotent(any_field, Random(9))
        assert scalar_plus_nilpotent_kcomm(S, 3, seed=1).holds  # warm-up
        built = request.getfixturevalue("constructed")
        assert scalar_plus_nilpotent_kcomm(S, 3, seed=2).holds
        assert scalar_plus_nilpotent_kcomm(S, 4, seed=3).holds
        assert built == []


class TestPositiveCertifierProducts:
    """Counted, not timed: delta(S) = 0 settles every bracket of a positive
    certifier before a product, on every field; a float delta(S) that rounds to
    a nonzero leaves each of the 36 kernel calls its two products, at odd and
    even k alike."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_matrix_products(self, monkeypatch, any_field, k):
        calls = []
        matmul = Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: calls.append(1) or matmul(X, Y))
        S = random_scalar_plus_nilpotent(any_field, Random(9))
        assert scalar_plus_nilpotent_kcomm(S, k, seed=k - 1).holds
        assert len(calls) == (0 if not S.discriminant() else 36 * 2)

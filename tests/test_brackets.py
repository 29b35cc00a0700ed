import itertools
import math
import sys
from fractions import Fraction
from random import Random

import pytest

from kcomm2 import (
    FLOAT_C,
    FLOAT_R,
    GAUSSIAN_QI,
    RATIONAL_Q,
    FieldTag,
    GaussianRational,
    Mat2,
    RankOneFactor,
    kcomm,
    kcomm_closed,
    kcomm_eigenpair,
    kcomm_recursive,
    outer,
)
from kcomm2 import brackets as brackets_module
from kcomm2 import matrices as matrices_module
from kcomm2 import serialize
from kcomm2.brackets import MAX_ORDER
from kcomm2.cli import main
from kcomm2.errors import InvalidOrder, NotAnEigenpair, ResultTooLarge
from kcomm2.identities import golden_identities
from kcomm2.preserver import MapTable, all_pairs, verify_preserving
from kcomm2.randgen import random_scalar

from conftest import units
from support import (Poly, conjugated, poly_bracket, poly_matrix, random_diagonalizable, random_mat,
                     random_scalar_plus_nilpotent, random_unimodular, transposed)

# the four fields, the float ones at tolerance 0, so a golden pin holds bit for bit
STRICT_FIELDS = [RATIONAL_Q, GAUSSIAN_QI, FieldTag("R64", 0), FieldTag("C64", 0)]
_each_strict_field = pytest.mark.parametrize("field", STRICT_FIELDS, ids=lambda f: f.variant)


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

    @_each_strict_field
    def test_golden_identities(self, field):
        # the oracle against the hand-written closed forms it shares no code with
        for k in range(1, 13):
            for ident in golden_identities(field, k):
                assert kcomm_recursive(ident.A, ident.B, k).eq(ident.expected), (ident.name, k)


class TestClosedForm:
    def test_golden_identities_small(self, exact_field):
        for k in range(1, 7):
            for ident in golden_identities(exact_field, k):
                assert kcomm_closed(ident.A, ident.B, k).eq(ident.expected), ident.name

    @pytest.mark.parametrize("k", [0, -1])
    def test_golden_identities_stated_from_order_one(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            golden_identities(RATIONAL_Q, k)

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
            r = kcomm_recursive(A, B, k)
            assert kcomm_closed(A, B, k).eq(r)
            assert kcomm(A, B, k, method="auto").eq(r)

    @pytest.mark.parametrize("method", ["recursive", "closed", "Auto", None])
    def test_kcomm_refuses_other_methods(self, method):
        eye = Mat2.identity(RATIONAL_Q)
        with pytest.raises(ValueError, match="unknown bracket method"):
            kcomm(eye, eye, 3, method=method)


def _as_complex(x):
    if isinstance(x, GaussianRational):
        return complex(float(x.re), float(x.im))
    return complex(float(x))


class TestCayleyHamilton:
    def test_cubic_identity_symbolic(self):
        R, B = poly_matrix("r"), poly_matrix("b")
        b11, b12, b21, b22 = B
        delta = (b11 + b22) ** 2 - 4 * (b11 * b22 - b12 * b21)  # tr^2 - 4 det
        assert delta == (b11 - b22) ** 2 + 4 * b12 * b21
        T = poly_bracket(R, B)
        assert poly_bracket(poly_bracket(T, B), B) == tuple(delta * t for t in T)

    def test_scaled_and_translated_brackets_symbolic(self):
        """[lam A + a I, lam B + b I]_k = lam^(k+1) [A, B]_k, by expansion."""
        A, B = poly_matrix("a"), poly_matrix("b")
        lam, a, b = Poly.var("lam"), Poly.var("a"), Poly.var("b")

        def shifted(X, c):
            return (lam * X[0] + c, lam * X[1], lam * X[2], lam * X[3] + c)

        left, right = shifted(A, a), A
        for k in range(1, 7):
            left, right = poly_bracket(left, shifted(B, b)), poly_bracket(right, B)
            assert left == tuple(lam ** (k + 1) * r for r in right), k

    @_each_strict_field
    def test_golden_identities(self, field):
        # the kernel against the same closed forms, at low orders and up to MAX_ORDER
        for k in (*range(1, 7), *range(995, 1001)):
            for ident in golden_identities(field, k):
                assert kcomm(ident.A, ident.B, k).eq(ident.expected), (ident.name, k)

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

    def test_kernel_equals_recurrence_on_the_small_cube(self):
        """All 3**8 pairs with entries in {-1, 0, 1} over Q at k = 1..8: delta < 0,
        = 0 and > 0 and both parities of k, not a sample of them."""
        cube = [Mat2(RATIONAL_Q, e) for e in itertools.product((-1, 0, 1), repeat=4)]
        for A, B in itertools.product(cube, repeat=2):
            R = A
            for k in range(1, 9):
                R = R @ B - B @ R
                assert kcomm(A, B, k) == R, (A.entries, B.entries, k)

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

    def test_default_method_is_the_kernel(self, monkeypatch, any_field):
        rng = Random(5)
        A, B = random_mat(any_field, rng), random_mat(any_field, rng)
        expected = kcomm_recursive(A, B, 5)

        def no_oracle(*args):
            raise RuntimeError("the oracle ran")

        monkeypatch.setattr(brackets_module, "kcomm_recursive", no_oracle)
        assert kcomm(A, B, 5).eq(expected)

    def test_boolean_order_rejected(self):
        eye = Mat2.identity(RATIONAL_Q)
        for evaluator in (kcomm, kcomm_recursive):
            with pytest.raises(InvalidOrder):
                evaluator(eye, eye, True)


def _made(fn):
    """fn()'s result and the ``Mat2`` objects made while it ran, by the function that
    made each: ``Mat2.__init__``, or the ``object.__new__`` calls of ``matrices.py``."""
    new, init, made = object.__new__, Mat2.__init__.__code__, []

    def profile(frame, event, arg):
        if event == "c_call" and arg is new and frame.f_globals is vars(matrices_module):
            made.append(frame.f_code.co_name)
        elif event == "call" and frame.f_code is init:
            made.append("__init__")

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, made


class TestProducts:
    """Cost in ``Mat2`` products.  The oracle makes two at each of its k steps.  The
    kernel makes A @ B and B @ A and builds its answer from them in one
    ``Mat2._bracket_step``, or makes none when delta**m is zero."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls, matmul = [], Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: calls.append(1) or matmul(X, Y))
        return calls

    @pytest.mark.parametrize("k", [0, 1, 64])
    @pytest.mark.parametrize("generic", [False, True], ids=["E11-E22", "generic"])
    def test_oracle_makes_two_at_every_step(self, any_field, products, generic, k):
        """Every field steps all k times, also once the bracket is zero (from order 1
        for E11 against E22)."""
        if generic:
            rng = Random(k)
            A, B = random_mat(any_field, rng), random_mat(any_field, rng)
        else:
            A, _, _, B = units(any_field)
        products.clear()
        R = kcomm_recursive(A, B, k)
        assert len(products) == 2 * k
        assert R.is_zero() == (k > 0 and not generic)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 12, 64, 1000])
    def test_exact_kernel_makes_two_at_every_order(self, any_field, products, k):
        """Exactly two on every field, none when delta**m is zero: the even-order
        step is fused into ``Mat2._bracket_step``.  A float B is scaled into
        [-0.3, 0.3], so that delta**499 cannot overflow; it underflows to zero."""
        rng = Random(k)
        A, B = random_mat(any_field, rng), random_mat(any_field, rng, denominators=True)
        if not any_field.is_exact:
            B = B.scale(0.3)
        assert not any_field.is_zero(B.discriminant())
        products.clear()
        kcomm(A, B, k)
        vanishes = k > 2 and not B.discriminant() ** ((k - 1) // 2)
        assert vanishes == (k == 1000 and not any_field.is_exact)
        assert len(products) == (0 if vanishes else 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 64, 1000])
    def test_kernel_makes_only_the_products_and_the_answer(self, any_field, monkeypatch, k):
        """The whole bracket after the two products is one step: the only ``Mat2``
        objects a call makes are A @ B, B @ A and the answer it returns, and none
        when delta**m is zero (the float delta**499 here underflows)."""
        rng = Random(k)
        A, B = random_mat(any_field, rng), random_mat(any_field, rng, denominators=True)
        if not any_field.is_exact:
            B = B.scale(0.3)
        Mat2.zero(any_field)  # built once per field, before the count
        products, matmul = [], Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: products.append(matmul(X, Y)) or products[-1])
        R, made = _made(lambda: kcomm(A, B, k))
        if k == 1000 and not any_field.is_exact:
            assert R is Mat2.zero(any_field) and products == [] and made == []
            return
        assert len(products) == 2 and all(R is not P for P in products)
        assert len(made) == 3, made


class TestKernelLaws:
    """Laws of every ``kcomm`` answer on every field: it is traceless, its (2,2) entry
    the (1,1) one negated, and [A, B]_k^T = (-1)^k [A^T, B^T]_k, exactly over Q and
    Qi and by value over R64 and C64, where transposition is exact.  Over Q and Qi
    both evaluators keep the similarity law [SAS^-1, SBS^-1]_k = S [A, B]_k S^-1
    exactly, S drawn from GL2(Z) with det +-1 so that S^-1 is integral, and over
    Qi the conjugation law [conj A, conj B]_k = conj [A, B]_k, entrywise."""

    ORDERS = (1, 2, 3, 4, 5, 12, 63, 64)

    def pairs(self, field, seed):
        rng = Random(seed)
        for i in range(1_000):
            yield (random_mat(field, rng, denominators=i % 2 == 1),
                   random_mat(field, rng, denominators=i % 3 == 1))

    def test_answer_is_traceless(self, any_field):
        for A, B in self.pairs(any_field, 37):
            for k in self.ORDERS:
                a11, _, _, a22 = kcomm(A, B, k).entries
                assert a22 == -a11, (A, B, k)

    def test_transposition(self, any_field):
        for A, B in self.pairs(any_field, 38):
            for k in self.ORDERS:
                want = kcomm(transposed(A), transposed(B), k)
                assert transposed(kcomm(A, B, k)) == (-want if k % 2 else want), (A, B, k)

    def test_similarity(self, exact_field):
        rng = Random(f"similarity/{exact_field.variant}")
        for _, (A, B) in zip(range(300), self.pairs(exact_field, 39)):
            S, Sinv = random_unimodular(exact_field, rng)
            SA, SB = S @ A @ Sinv, S @ B @ Sinv
            for k in self.ORDERS:
                assert kcomm(SA, SB, k) == S @ kcomm(A, B, k) @ Sinv, (A, B, S, k)
                assert kcomm_recursive(SA, SB, k) == S @ kcomm_recursive(A, B, k) @ Sinv, (A, B, S, k)

    def test_entrywise_conjugation(self):
        for _, (A, B) in zip(range(300), self.pairs(GAUSSIAN_QI, 40)):
            barA, barB = conjugated(A), conjugated(B)
            for k in self.ORDERS:
                assert kcomm(barA, barB, k) == conjugated(kcomm(A, B, k)), (A, B, k)
                assert kcomm_recursive(barA, barB, k) == conjugated(kcomm_recursive(A, B, k)), (A, B, k)


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
    """The kernel against an idempotent Q: delta(Q) is 1 (0 for Q = 0 or I), so
    the brackets have period 2 in k."""

    def test_periodicity_example(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        assert kcomm(e12, e11, 5).eq(kcomm_recursive(e12, e11, 1))
        assert kcomm(e12, e11, 5).eq(-e12)

    def test_identity_commutes(self, any_field):
        rng = Random(8)
        A = random_mat(any_field, rng)
        eye = Mat2.identity(any_field)
        for k in (1, 2, 5):
            assert kcomm(A, eye, k).is_zero()

    def test_even_order(self, exact_field):
        e11, _, e21, _ = units(exact_field)
        result = kcomm(e21, e11, 4)
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
            Mat2.identity(exact_field),
        ]
        for Q in idempotents:
            A = random_mat(exact_field, rng)
            for k in range(1, 8):
                assert kcomm(A, Q, k).eq(kcomm_recursive(A, Q, k))
                assert kcomm(A, Q, k).eq(kcomm_recursive(A, Q, 2 - k % 2))

    def test_runs_through_the_kernel(self, monkeypatch, exact_field):
        """The same number of matrix products at k = 7 and k = 10**30 + 1."""
        calls = []
        matmul = Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: calls.append(1) or matmul(X, Y))
        e11, e12, _, _ = units(exact_field)
        assert kcomm(e12, e11, 7).eq(-e12)
        products = len(calls)
        assert kcomm(e12, e11, 10**30 + 1).eq(-e12)
        assert len(calls) == 2 * products


class TestNilpotentFast:
    """The kernel against a square-zero N: delta(N) = 0, so the brackets vanish
    from k = 3 on, and not before."""

    def test_vanishing(self, exact_field):
        e11, e12, _, _ = units(exact_field)
        assert kcomm(e11, e12, 3).is_zero()
        rng = Random(17)
        A = random_mat(exact_field, rng)
        for k in (3, 4, 7):
            assert kcomm(A, e12, k).is_zero()

    def test_agrees_with_oracle(self, exact_field):
        rng = Random(18)
        from kcomm2 import scalar_plus_nilpotent_spectral

        for _ in range(20):
            S = random_scalar_plus_nilpotent(exact_field, rng)
            N = scalar_plus_nilpotent_spectral(S).split.nilpotent
            A = random_mat(exact_field, rng)
            for k in (3, 4, 6):
                assert kcomm_recursive(A, N, k).eq(kcomm(A, N, k))

    def test_order_two_counterexample(self, exact_field):
        # the vanishing starts at k = 3: the order-2 bracket of E21 against E12 is -2*E12
        _, e12, e21, _ = units(exact_field)
        expected = e12.scale(exact_field.coerce(-2))
        assert kcomm(e21, e12, 2).eq(expected)
        assert kcomm_recursive(e21, e12, 2).eq(expected)


class TestCostAtTheCap:
    """A bracket at the size cap costs what its gcds cost, so count their operand
    sizes instead of timing it: every gcd of ``kcomm`` (``math.gcd`` for the
    scalars, ``matrices.gcd`` for the integer forms) has one operand no larger
    than the unscaled inputs, however large the delta power makes the other."""

    # the README reproducers, at orders whose delta power is the largest the cap lets through
    REPRODUCERS = [
        pytest.param(GAUSSIAN_QI, GaussianRational(Fraction(1, 3), Fraction(2, 7)), 34953, id="Qi-34953"),
        pytest.param(RATIONAL_Q, Fraction(1, 3), 58255, id="Q-58255"),
    ]

    @staticmethod
    def gcd_sizes(monkeypatch) -> list:
        """The sorted operand bit lengths of each gcd made until ``monkeypatch.undo()``."""
        sizes, real_gcd = [], math.gcd

        def recorded_gcd(*args):
            sizes.append(sorted(abs(v).bit_length() for v in args))
            return real_gcd(*args)

        monkeypatch.setattr(math, "gcd", recorded_gcd)
        monkeypatch.setattr(matrices_module, "gcd", recorded_gcd)
        return sizes

    @staticmethod
    def limit(*mats) -> int:
        """r * N(x) for a form (r; x), N(x) = |x| or a^2 + b^2: three times its largest part."""
        return 3 * max(abs(v).bit_length() for M in mats for v in M._z) + 2

    @pytest.mark.parametrize("field, b11, k", REPRODUCERS)
    def test_every_gcd_has_an_operand_of_the_inputs_size(self, monkeypatch, field, b11, k):
        A, B = Mat2(field, (1, 2, 3, 4)), Mat2(field, (b11, 2, 3, 5))
        unscaled = kcomm(A, B, 2 - k % 2)  # the bracket delta**((k - 1) // 2) scales
        limit = self.limit(A, B, unscaled)
        sizes = self.gcd_sizes(monkeypatch)
        R = kcomm(A, B, k)
        read = R.entries  # the first read divides by the factors the kernel step kept
        monkeypatch.undo()
        assert max(s[-1] for s in sizes) > brackets_module.MAX_POWER_BITS // 2  # at the cap
        assert [s for s in sizes if s[0] > limit] == []
        assert R == Mat2(field, read)

    @pytest.mark.parametrize("argv", [["kcomm"], ["classify", "--lemma", "2.3-kcomm"]],
                             ids=["kcomm", "classify-2.3-kcomm"])
    def test_unprintable_q_answer_at_the_cap(self, monkeypatch, capsys, tmp_path, argv):
        # over Q an answer past the print limit is refused on its bit lengths, and the
        # entries that refusal reads make no large gcd; the certifier's first probe,
        # E11, already gives a bracket at the cap.  Over Qi ``fields._part_str``
        # reduces each printed part by a gcd of the power's size.
        field, b11, k = self.REPRODUCERS[1].values
        A, B = Mat2(field, (1, 2, 3, 4)), Mat2(field, (b11, 2, 3, 5))
        inputs = (A, *units(field))
        limit = self.limit(B, *inputs, *[kcomm(M, B, 2 - k % 2) for M in inputs])
        request = {"A": A, "B": B} if argv == ["kcomm"] else {"S": B}
        path = tmp_path / "request.json"
        path.write_text(serialize.canonical_dumps({key: serialize.mat_to_json(M)
                                                   for key, M in request.items()}))
        sizes = self.gcd_sizes(monkeypatch)
        code = main([*argv, "--k", str(k), "--input", str(path)])
        monkeypatch.undo()
        assert code == 2 and capsys.readouterr().out.startswith('{"error":"ResultTooLarge",')
        assert max(s[-1] for s in sizes) > brackets_module.MAX_POWER_BITS // 2  # at the cap
        assert [s for s in sizes if s[0] > limit] == []

    @pytest.mark.parametrize("field, b11", [
        pytest.param(GAUSSIAN_QI, GaussianRational(Fraction(1, 3**160), Fraction(2, 7)), id="Qi"),
        pytest.param(RATIONAL_Q, Fraction(1, 3**160), id="Q"),
    ])
    def test_failing_verify_map_pair_at_the_cap(self, monkeypatch, capsys, tmp_path, field, b11):
        # A -> 2A, B -> B at k = 1000: (A, A) holds, and (A, B) fails with both brackets
        # near the size cap.  The pair check reads no entries, and the first read of
        # the verdict's divides by the factors the kernel step kept: no large gcd either.
        A, B = Mat2(field, (1, 2, 3, 4)), Mat2(field, (b11, 2, 3, 5))
        twice = A.scale(field.coerce(2))
        table = MapTable(field, MAX_ORDER, ((A, twice), (B, B)))
        path = tmp_path / "table.json"
        path.write_text(serialize.canonical_dumps(serialize.maptable_to_json(table)))
        limit = self.limit(A, B, twice, kcomm(A, B, 2), kcomm(twice, B, 2))
        sizes = self.gcd_sizes(monkeypatch)
        verdict = verify_preserving(table, all_pairs(table.inputs()))
        read = verdict.left.entries, verdict.right.entries
        # printing too over Q: past the print limit, the entries are refused on their
        # bit lengths.  Over Qi ``fields._part_str`` reduces each real and imaginary
        # part by its own gcd with the denominator, of the power's size.
        if field is RATIONAL_Q:
            assert main(["verify-map", "--input", str(path)]) == 2
            assert capsys.readouterr().out.startswith('{"error":"ResultTooLarge",')
        monkeypatch.undo()
        assert verdict.pair == (A, B) and read[0] != read[1]
        assert max(s[-1] for s in sizes) > brackets_module.MAX_POWER_BITS // 2  # at the cap
        assert [s for s in sizes if s[0] > limit] == []


class TestZeroFactor:
    """delta(B)^m is settled before the commutators: a zero returns the zero
    matrix at once, on every field."""

    def test_agrees_with_oracle(self, exact_field):
        rng = Random(19)
        _, e12, e21, _ = units(exact_field)
        for B in (e12, e21, random_scalar_plus_nilpotent(exact_field, rng, denominators=True)):
            A = random_mat(exact_field, rng, denominators=True)
            for k in range(10):
                assert kcomm(A, B, k) == kcomm_recursive(A, B, k)

    def test_makes_no_product(self, monkeypatch, exact_field):
        calls = []
        matmul = Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: calls.append(1) or matmul(X, Y))
        A = random_mat(exact_field, Random(20))
        _, e12, _, _ = units(exact_field)
        assert kcomm(A, e12, 3) is Mat2.zero(exact_field)
        assert kcomm(A, e12, 4) is Mat2.zero(exact_field)
        assert calls == []

    @pytest.mark.parametrize("field, k, text", [
        (FLOAT_R, 3, "(0.0, 0.0, 0.0, 0.0)"),
        (FLOAT_R, 4, "(0.0, 0.0, 0.0, 0.0)"),
        (FLOAT_C, 3, "(0j, 0j, 0j, 0j)"),
        (FLOAT_C, 4, "(0j, 0j, 0j, 0j)"),
    ], ids=["R64-k3", "R64-k4", "C64-k3", "C64-k4"])
    def test_float_keeps_its_signed_zeros(self, monkeypatch, field, k, text):
        """delta(E12) = 0.0: the zero matrix, every zero +0.0, with no product; its
        inputs' -0.0 entries do not reach it."""
        A = Mat2(field, (1.5, -2.0, -0.0, 3.0))
        calls, matmul = [], Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: calls.append(1) or matmul(X, Y))
        R = kcomm(A, Mat2(field, (-0.0, 1.0, -0.0, -0.0)), k)
        assert R is Mat2.zero(field) and repr(R.entries) == text and calls == []

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=["R64", "C64"])
    def test_float_zero_times_inf_still_overflows(self, field, k):
        # delta of 1e308 E12 is 0 exactly, but 4 * 1e308 overflows before the zero
        # factor: the float delta is inf * 0.0 = nan, so the bracket is refused
        big = Mat2(field, (1e308,) * 4)
        with pytest.raises(ResultTooLarge):
            kcomm(big, units(field)[1].scale(1e308), k)


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

    def test_bad_left_eigenvector_rejected(self, any_field):
        # S x = 1 x holds for x = e1; S* f = 2 f for f = e2, so beta = 3 is wrong
        fac = self.one_factor(any_field)
        S = Mat2.diag(any_field, 1, 2)
        assert kcomm_eigenpair(fac, S, 1, 1, 2).eq(Mat2.unit(any_field, 1, 2))
        with pytest.raises(NotAnEigenpair, match="f is not"):
            kcomm_eigenpair(fac, S, 1, 1, 3)

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_left_eigenvector_tolerance(self, field):
        fac = self.one_factor(field)
        S = Mat2.diag(field, 1, 2)
        inside = 2 + field.tolerance / 2
        assert kcomm_eigenpair(fac, S, 1, 1, inside).eq(Mat2.unit(field, 1, 2))
        with pytest.raises(NotAnEigenpair, match="f is not"):
            kcomm_eigenpair(fac, S, 1, 1, 2 + 2 * field.tolerance)

    @pytest.mark.parametrize("field, beta", [
        (FLOAT_R, 1e200),  # float ** raises OverflowError
        (FLOAT_C, 1e200),
        (FLOAT_C, 1e200 + 1e200j),  # complex ** returns nan+nanj and raises nothing
    ], ids=["R64", "C64", "C64-nan"])
    def test_float_power_overflow_is_result_too_large(self, field, beta):
        fac = self.one_factor(field)
        S = Mat2.diag(field, 0, beta)
        with pytest.raises(ResultTooLarge, match=rf"^\(beta - alpha\)\*\*2 overflows {field.variant}$"):
            kcomm_eigenpair(fac, S, 2, 0, beta)

    def test_exact_power_capped_as_in_kcomm(self, monkeypatch):
        # 3 adds two bits per factor, so 3**131072 is the largest power the cap allows
        fac = self.one_factor(RATIONAL_Q)
        S = Mat2.diag(RATIONAL_Q, 0, 3)
        k = brackets_module.MAX_POWER_BITS // 2
        assert kcomm_eigenpair(fac, S, k, 0, 3).entries[1] == 3**k

        def no_power(self, n):
            raise RuntimeError("the power was taken")

        monkeypatch.setattr(Fraction, "__pow__", no_power)
        monkeypatch.setattr(brackets_module, "coprime_fraction", no_power)
        with pytest.raises(ResultTooLarge, match=rf"^\(beta - alpha\)\*\*{k + 1} would need more than"):
            kcomm_eigenpair(fac, S, k + 1, 0, 3)


class TestExactPower:
    @pytest.mark.parametrize("m", [1, 2, 5, 31, 499])
    @pytest.mark.parametrize("x", [Fraction(-7, 3), Fraction(-2), Fraction(0), Fraction(1), Fraction(-1),
                                   Fraction(5, 12), Fraction(-1, 9)], ids=str)
    def test_rational_power_is_fraction_pow(self, x, m):
        """Over Q, ``_power`` builds x**m from the powered numerator and denominator,
        which stay coprime: the same parts, value and hash as ``Fraction.__pow__``."""
        got, want = brackets_module._power(RATIONAL_Q, x, m, "x"), x**m
        assert (type(got), got.numerator, got.denominator) == (Fraction, want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want)

import json
import math
from fractions import Fraction
from pathlib import Path
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
    decompose,
    generate_map,
    kcomm,
    kcomm_recursive,
    preserver,
    probe_campaign,
    probe_set,
    roots_of_unity,
    scalar_plus_nilpotent_spectral,
    verify_preserving,
)
from kcomm2 import brackets
from kcomm2.brackets import MAX_ORDER
from kcomm2.classify import _witness_idempotents
from kcomm2.errors import (
    DuplicateInput,
    FieldMismatch,
    InputNotInTable,
    InvalidOrder,
    LambdaNotRootOfUnity,
    NotTheoremForm,
    PreservationFailed,
    ProbeSetIncomplete,
    ResultTooLarge,
)
from kcomm2.preserver import (
    MAX_TABLE_INPUTS,
    MapTable,
    all_pairs,
    h_det,
    h_random,
    h_trace,
    h_zero,
)
from kcomm2.randgen import random_scalar

from conftest import units

# probe_campaign reports over four fields x k in {1, 2, 3, 5, 6} x seeds {0, 1, 7}
CAMPAIGN_PINS = json.loads((Path(__file__).parent / "pinned" / "campaign-reports.json").read_text())


class TestGenerateMap:
    def test_imaginary_lambda(self):
        i = GaussianRational(0, 1)
        e11 = Mat2.unit(GAUSSIAN_QI, 1, 1)
        table = generate_map(i, h_zero, [e11], 3)
        assert table.lookup(e11).eq(e11.scale(i))

    def test_det_rule(self):
        e11 = Mat2.unit(RATIONAL_Q, 1, 1)
        table = generate_map(Fraction(-1), h_det, [e11], 3)
        assert table.lookup(e11).eq(-e11)

    def test_lambda_parity_rejected(self):
        e11 = Mat2.unit(RATIONAL_Q, 1, 1)
        with pytest.raises(LambdaNotRootOfUnity) as exc:
            generate_map(Fraction(-1), h_zero, [e11], 2)
        assert exc.value.power == Fraction(-1)

    def test_float_lambda_whose_power_overflows(self):
        with pytest.raises(LambdaNotRootOfUnity) as exc:
            generate_map(1e300, h_zero, [Mat2.unit(FLOAT_R, 1, 1)], 3)
        assert exc.value.power is None

    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI], ids=lambda f: f.variant)
    def test_exact_lambda_power_past_the_size_cap(self, field):
        # 2**262 adds 263 bits per factor: lambda**996 fits the kernel's
        # 2**18-bit cap and is computed, lambda**1001 does not; so large a
        # power is not 1, so lambda is refused with no power computed
        e11 = Mat2.unit(field, 1, 1)
        with pytest.raises(LambdaNotRootOfUnity) as exc:
            generate_map(2**262, h_zero, [e11], 995)
        assert exc.value.power == 2 ** (262 * 996)
        with pytest.raises(LambdaNotRootOfUnity) as exc:
            generate_map(2**262, h_zero, [e11], 1000)
        assert exc.value.power is None
        table = MapTable(field, 1000, tuple((p, p.scale(2**262)) for p in probe_set(field)))
        with pytest.raises(LambdaNotRootOfUnity) as exc:
            decompose(table)
        assert exc.value.power is None

    def test_order_zero_rejected(self):
        with pytest.raises(InvalidOrder):
            generate_map(Fraction(1), h_zero, [Mat2.unit(RATIONAL_Q, 1, 1)], 0)

    def test_no_inputs_rejected(self):
        with pytest.raises(InvalidOrder, match="map table inputs must be an integer >= 1, got 0"):
            generate_map(Fraction(1), h_zero, [], 1)

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_non_integer_order_rejected(self, k):
        with pytest.raises(InvalidOrder):
            generate_map(Fraction(1), h_zero, [Mat2.unit(RATIONAL_Q, 1, 1)], k)

    def test_entries_over_another_field_rejected(self):
        # refused when the table is built, not at its first lookup
        A, B = Mat2.unit(RATIONAL_Q, 1, 1), Mat2.unit(GAUSSIAN_QI, 1, 2)
        with pytest.raises(FieldMismatch):
            MapTable(RATIONAL_Q, 1, ((A, A), (B, B)))
        with pytest.raises(FieldMismatch):
            MapTable(RATIONAL_Q, 1, ((A, Mat2.unit(FLOAT_R, 1, 1)),))
        with pytest.raises(FieldMismatch):
            generate_map(1, h_zero, [A, B], 1)

    def test_duplicate_inputs_rejected(self):
        e11 = Mat2.unit(RATIONAL_Q, 1, 1)
        with pytest.raises(ValueError):
            MapTable(RATIONAL_Q, 1, ((e11, e11), (e11, e11)))

    @pytest.mark.parametrize("field", [RATIONAL_Q, FLOAT_R], ids=lambda f: f.variant)
    def test_inputs_past_the_cap_rejected(self, field):
        cap = preserver.MAX_TABLE_INPUTS
        entries = tuple((Mat2.identity(field).scale(field.coerce(n)),) * 2 for n in range(cap + 1))
        assert len(MapTable(field, 1, entries[:cap]).inputs()) == cap
        with pytest.raises(InvalidOrder, match="map table inputs"):
            MapTable(field, 1, entries)
        with pytest.raises(InvalidOrder, match="map table inputs"):
            generate_map(Fraction(1), h_zero, [A for A, _ in entries], 1)

    @pytest.mark.parametrize("field", [GAUSSIAN_QI, FLOAT_R], ids=lambda f: f.variant)
    def test_lookup_and_duplicates_by_value(self, field):
        # Qi tables index inputs by value, R64 tables scan within the tolerance
        e11, e12 = Mat2.unit(field, 1, 1), Mat2.unit(field, 1, 2)
        if field.is_exact:
            twin = e12 @ Mat2.unit(field, 2, 1)  # E11, computed
        else:
            twin = Mat2(field, (1.0 + 1e-12, 0.0, 0.0, 0.0))
        table = MapTable(field, 1, ((e11, e12), (e12, e11)))
        assert table.lookup(twin).eq(e12) and table.lookup(e12).eq(e11)
        assert table.has_input(twin) and not table.has_input(Mat2.identity(field))
        with pytest.raises(InputNotInTable):
            table.lookup(Mat2.identity(field))
        with pytest.raises(FieldMismatch):
            table.lookup(Mat2.unit(RATIONAL_Q, 1, 1))
        with pytest.raises(DuplicateInput):
            MapTable(field, 1, ((e11, e12), (twin, e11)))


class TestVerifyPreserving:
    def test_identity_map(self, exact_field):
        probes = probe_set(exact_field)
        table = MapTable(exact_field, 3, tuple((p, p) for p in probes))
        assert verify_preserving(table, all_pairs(probes)).holds

    def test_exact_tolerance_does_not_hide_inputs(self):
        # a Q table whose tag carries a tolerance, checked on pairs over the plain tag
        loose = FieldTag("Q", 1e-3)
        inputs = [Mat2.unit(loose, i, j) for i in (1, 2) for j in (1, 2)]
        table = generate_map(Fraction(-1), h_det, inputs, 3)
        units = [Mat2.unit(RATIONAL_Q, i, j) for i in (1, 2) for j in (1, 2)]
        assert verify_preserving(table, all_pairs(units)).holds

    def test_canonical_form_preserves(self):
        probes = probe_set(GAUSSIAN_QI)
        table = generate_map(GaussianRational(0, 1), h_trace, probes, 3)
        assert verify_preserving(table, all_pairs(probes)).holds

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_brackets_compared_relative_to_their_size(self, field):
        # at k = 41 the probe brackets reach 2**40 ~ 1.1e12: a relative error
        # of 1e-13 per output is far below one part in 1e9 of them, 1e-6 is not
        probes = probe_set(field)
        pairs = all_pairs(probes)
        for c, holds in ((1 + 1e-13, True), (1 + 1e-6, False)):
            table = MapTable(field, 41, tuple((p, p.scale(c)) for p in probes))
            assert verify_preserving(table, pairs).holds is holds

    def test_plain_doubling_fails(self, exact_field):
        probes = probe_set(exact_field)
        two = exact_field.coerce(2)
        table = MapTable(exact_field, 3, tuple((p, p.scale(two)) for p in probes))
        e11, e12 = probes[0], probes[2]
        verdict = verify_preserving(table, [(e12, e11)])
        assert not verdict.holds
        # scaling law: the left bracket is 2 * 2^3 = 16 times the right one
        assert verdict.left.eq(verdict.right.scale(exact_field.coerce(16)))

    @pytest.fixture
    def lookups(self, monkeypatch):
        """The inputs passed to ``MapTable.lookup``, in call order."""
        calls, real = [], MapTable.lookup

        def counting(table, A):
            calls.append(A)
            return real(table, A)

        monkeypatch.setattr(MapTable, "lookup", counting)
        return calls

    def test_table_inputs_are_not_looked_up(self, any_field, lookups):
        probes = probe_set(any_field)
        table = generate_map(any_field.one(), h_trace, probes, 3)
        assert verify_preserving(table, all_pairs(probes)).holds
        assert decompose(table).verified_pairs == 36
        assert lookups == []

    def test_other_objects_are_looked_up_by_value_at_each_pair(self, any_field, lookups):
        probes = probe_set(any_field)
        table = generate_map(any_field.one(), h_trace, probes, 3)
        twins = [Mat2(any_field, p.entries) for p in probes]  # equal values, other objects
        pairs = all_pairs(twins) + list(zip(probes, twins))
        assert verify_preserving(table, pairs).holds
        sides = [*(A for pair in all_pairs(twins) for A in pair), *twins]
        assert [id(A) for A in lookups] == [id(A) for A in sides]
        lookups.clear()
        decoded = MapTable(any_field, 3, tuple((twin, out) for twin, (_, out) in zip(twins, table.entries)))
        assert decompose(decoded).verified_pairs == 36
        assert lookups == []  # decompose pairs the decoded table's own inputs

    def test_inputs_from_a_generator_keep_their_ids(self, exact_field):
        # fresh objects that only the pair being checked holds: an id freed with
        # an earlier pair and reused by a later input must not find its image
        probes = probe_set(exact_field)
        table = generate_map(exact_field.one(), h_trace, probes, 3)
        fresh = ((Mat2(exact_field, A.entries), Mat2(exact_field, B.entries))
                 for A, B in all_pairs(probes))
        assert verify_preserving(table, fresh).holds

    @pytest.mark.parametrize("seed", range(6))
    def test_first_failure_is_the_per_pair_one(self, any_field, seed):
        # impostors of every campaign kind, on shuffled pair lists
        rng = Random(seed)
        probes = probe_set(any_field)
        h = h_random(any_field, seed)
        lam = any_field.coerce(rng.choice([1, 2, -2, 3]))
        entries = list(preserver._theorem_form(lam, h, probes))
        i, j = rng.sample(range(6), 2)
        if seed % 3 == 1:
            entries[i] = (entries[i][0], entries[i][1] + Mat2.unit(any_field, 1, 2))
        elif seed % 3 == 2:
            (Ai, Oi), (Aj, Oj) = entries[i], entries[j]
            entries[i], entries[j] = (Ai, Oj), (Aj, Oi)
        table = MapTable(any_field, rng.choice([1, 2, 3, 6]), tuple(entries))
        pairs = all_pairs(probes)
        rng.shuffle(pairs)
        verdict = verify_preserving(table, pairs)
        want = _verify_per_pair(table, pairs)
        if want is None:
            assert verdict.holds
        else:
            pair, left, right = want
            assert not verdict.holds
            assert verdict.pair[0] is pair[0] and verdict.pair[1] is pair[1]
            assert verdict.left == left and verdict.right == right

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_missing_input_raises_at_its_pair(self, exact_field, monkeypatch, bad_first):
        probes = probe_set(exact_field)
        two = exact_field.coerce(2)
        entries = [(p, p) for p in probes if p is not probes[3]]  # E21 is missing
        if bad_first:
            entries[0] = (probes[0], probes[0].scale(two))  # E11 -> 2 E11: the first pair fails
        table = MapTable(exact_field, 3, tuple(entries))
        pairs = [(probes[0], probes[4]), (probes[1], probes[2]), (probes[3], probes[1]),
                 (probes[4], probes[5])]
        checked = []
        monkeypatch.setattr(preserver, "kcomm", lambda *args: checked.append(args) or kcomm(*args))
        # two brackets per pair, the images' then the pair's own: count the pairs
        if bad_first:
            verdict = verify_preserving(table, pairs)
            assert verdict.pair == pairs[0] and len(checked) == 2
            assert [args[:2] for args in checked[1::2]] == pairs[:1]
            return
        with pytest.raises(InputNotInTable):
            verify_preserving(table, pairs)
        assert len(checked) == 4  # both pairs before (E21, E22) were checked
        assert [args[:2] for args in checked[1::2]] == pairs[:2]

    @pytest.mark.parametrize("k", [1, 2, 1000])
    def test_right_side_never_runs_the_oracle(self, any_field, monkeypatch, k):
        # both sides go through the O(1) kernel on every field
        def no_oracle(*args):
            raise RuntimeError("the oracle ran")

        for module in (preserver, brackets):
            monkeypatch.setattr(module, "kcomm_recursive", no_oracle)
        checked = []
        monkeypatch.setattr(preserver, "kcomm", lambda *args: checked.append(args) or kcomm(*args))
        probes = probe_set(any_field)
        pairs = all_pairs(probes)
        table = generate_map(any_field.one(), h_trace, probes, k)
        assert verify_preserving(table, pairs).holds
        assert [args[:2] for args in checked[1::2]] == pairs

    def test_exact_right_side_past_the_power_cap_is_refused(self, exact_field):
        # delta(X) = 2**600, so delta**499 passes MAX_POWER_BITS: the right side
        # is refused as a left side would be, though [X, X]_k is zero
        X = Mat2(exact_field, (2**300, 1, 0, 0))
        table = MapTable(exact_field, MAX_ORDER, ((X, Mat2.unit(exact_field, 1, 1)),))
        with pytest.raises(ResultTooLarge):
            verify_preserving(table, [(X, X)])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_right_side_that_overflows_is_refused(self, field, k):
        # [A, B]_1 = [[1e400, -1e200], [0, -1e400]] is inf, and at k = 3 the
        # kernel scales it by delta(B) = 1; the images' bracket is zero, so
        # inf <= inf must not hold.  The refusal is the kernel's own for the same pair.
        A, B = Mat2(field, (0, 1e200, 0, 0)), Mat2(field, (1, 0, 1e200, 0))
        table = MapTable(field, k, ((A, Mat2.zero(field)), (B, Mat2.identity(field))))
        message = rf"^order-{k} bracket overflows {field.variant}$"
        with pytest.raises(ResultTooLarge, match=message):
            kcomm(A, B, k)
        with pytest.raises(ResultTooLarge, match=message):
            verify_preserving(table, [(A, B)])

    def test_full_exact_table_at_the_order_cap_costs_o1_per_pair(self, any_field, monkeypatch):
        # 36 inputs at k = MAX_ORDER, an even order: every bracket makes two
        # products on every field (none over Q and Q(i) when delta**499 is
        # zero).  Float entries stay in [-0.3, 0.3], so that delta**499 cannot
        # overflow.
        products = []
        matmul = Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: products.append(1) or matmul(X, Y))
        rng = Random(36)
        inputs = []
        while len(inputs) < MAX_TABLE_INPUTS:
            entries = [random_scalar(any_field, rng, span=9) for _ in range(4)]
            A = Mat2(any_field, entries if any_field.is_exact else [0.3 * x for x in entries])
            if A not in inputs:
                inputs.append(A)
        table = generate_map(any_field.one(), h_trace, inputs, MAX_ORDER)
        pairs = all_pairs(inputs)
        products.clear()
        assert verify_preserving(table, pairs).holds
        assert len(products) <= 2 * 2 * len(pairs)


def _verify_per_pair(table, pairs):
    """The first failing (pair, left, right) with two lookups per pair, or None."""
    field, k = table.field, table.k
    for A, B in pairs:
        left = kcomm(table.lookup(A), table.lookup(B), k)
        right = kcomm(A, B, k)
        if field.is_exact:
            same = left.eq(right)
        else:
            same = (left - right).max_abs() <= field.tolerance * max(1.0, right.max_abs())
        if not same:
            return (A, B), left, right
    return None


def test_cached_probes_are_constructed_values(any_field):
    """``probe_set`` and the witness idempotents return constructor values with
    their entries built, so equal calls do equal work."""
    half = Fraction(1, 2)
    literals = {
        probe_set: [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0)],
        _witness_idempotents: [(1, 0, 0, 0), (1, 1, 0, 0)]
        + ([] if any_field.is_exact else [(0, 0, 0, 1), (1, 0, 1, 0), (half, half, half, half)]),
    }
    for cached, entries in literals.items():
        got = cached.__wrapped__(any_field)  # a fresh call past the cache
        assert len(got) == len(entries)
        for M, literal in zip(got, entries):
            assert M._e is not None  # before anything reads .entries
            want = Mat2(any_field, literal)
            assert repr(M.entries) == repr(want.entries)
            assert M == want and hash(M) == hash(want)


class TestDecompose:
    def test_negated_map_with_det(self):
        probes = probe_set(RATIONAL_Q)
        table = generate_map(Fraction(-1), h_det, probes, 3)
        dec = decompose(table)
        assert dec.lam == Fraction(-1)
        assert dec.h_of(probes[0]) == Fraction(0)
        assert dec.h_of(probes[4]) == Fraction(0)  # det(E11 + E12) = 0

    def test_identity_map(self, exact_field):
        probes = probe_set(exact_field)
        table = MapTable(exact_field, 4, tuple((p, p) for p in probes))
        dec = decompose(table)
        assert exact_field.eq(dec.lam, exact_field.one())
        for p in probes:
            assert exact_field.is_zero(dec.h_of(p))
        assert dec.verified_pairs == 36

    def test_offdiagonal_image_rejected(self, exact_field):
        probes = probe_set(exact_field)
        entries = [(p, p) for p in probes]
        entries[0] = (probes[0], probes[2])  # E11 -> E12
        table = MapTable(exact_field, 3, tuple(entries))
        with pytest.raises(NotTheoremForm) as exc:
            decompose(table)
        assert exc.value.stage == "image-of-E11-not-diagonal"
        assert exc.value.input.eq(probes[0])
        assert exc.value.residue.eq(probes[2])

    def test_nonscalar_residue_names_its_input(self, exact_field):
        probes = probe_set(exact_field)
        entries = [(p, p) for p in probes]
        entries[4] = (probes[4], probes[4] + probes[2])  # lambda = 1, residue E12
        table = MapTable(exact_field, 3, tuple(entries))
        with pytest.raises(NotTheoremForm) as exc:
            decompose(table)
        assert exc.value.stage == "nonscalar-residue"
        assert exc.value.input.eq(probes[4])
        assert exc.value.residue.eq(probes[2])

    def test_power_past_the_print_limit_is_typed(self):
        # lambda = 10**10 at k = 1000: lambda**(k+1) has 10,011 digits, more than str prints
        probes = probe_set(RATIONAL_Q)
        table = MapTable(RATIONAL_Q, 1000, tuple((p, p.scale(10**10)) for p in probes))
        with pytest.raises(LambdaNotRootOfUnity) as exc:
            decompose(table)
        assert exc.value.power == 10**10010
        assert str(exc.value) == "lambda**(k+1) is not 1"

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_inputs_near_the_probes_stand_in_for_them(self, field):
        # a valid table over inputs within the tolerance of the probes: its
        # preservation is checked on those inputs, not on the probes beside them
        for i in range(1, 6):  # E11 alone sets lambda
            for slot in range(4):
                near = [list(p.entries) for p in probe_set(field)]
                near[i][slot] += 9e-10
                table = generate_map(-1, h_zero, [Mat2(field, e) for e in near], 3)
                assert decompose(table).verified_pairs == 36

    @pytest.mark.parametrize("k, lam", [(3, 1), (3, -1), (5, 1), (5, -1), (12, 1)])
    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_input_near_e11_sets_lambda_on_its_own_scale(self, field, k, lam):
        # lambda is the image's diagonal difference over the input's: read off
        # the image alone, it is off by the input's error, and so is
        # lambda**(k+1) by about (k + 1) times that, past the tolerance
        for slot, error in ((0, 5e-10), (0, -5e-10), (3, 9e-10), (3, -9e-10)):
            near = [list(p.entries) for p in probe_set(field)]
            near[0][slot] += error
            table = generate_map(lam, h_zero, [Mat2(field, e) for e in near], k)
            dec = decompose(table)
            assert dec.verified_pairs == 36
            assert abs(dec.lam - lam) <= 1e-15

    @pytest.mark.parametrize("variant", ["R64", "C64"])
    def test_input_with_no_diagonal_difference_is_not_divided_by(self, variant):
        # under a tolerance of 1/2 the all-halves matrix stands for every probe,
        # E_11 included; lambda is then the image's diagonal difference, zero
        field = FieldTag(variant, 0.5)
        X = Mat2(field, (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(NotTheoremForm) as exc:
            decompose(MapTable(field, 3, ((X, X.scale(-1.0)),)))
        assert exc.value.stage == "lambda-zero"

    def test_c64_lambda_of_e11_itself_is_not_divided(self):
        # lambda = (-1 - 0j) - 0j = -1 - 0j, and (-1 - 0j) / (1 + 0j) is -1 + 0j:
        # a division by the input's diagonal difference, exactly 1 here, would
        # flip the sign of this zero
        probes = probe_set(FLOAT_C)
        image = Mat2(FLOAT_C, (complex(-1.0, -0.0), 0, 0, 0))
        table = MapTable(FLOAT_C, 1, ((probes[0], image),) + tuple((p, p.scale(-1.0)) for p in probes[1:]))
        got = decompose(table).lam
        assert (got.real, math.copysign(1.0, got.imag)) == (-1.0, -1.0)

    def test_probe_coverage_checked(self, exact_field):
        e11 = Mat2.unit(exact_field, 1, 1)
        table = MapTable(exact_field, 3, ((e11, e11),))
        with pytest.raises(ProbeSetIncomplete) as exc:
            decompose(table)
        assert len(exc.value.missing) == 5

    def test_round_trip_random_h(self):
        probes = probe_set(GAUSSIAN_QI)
        for lam in roots_of_unity(GAUSSIAN_QI, 4):
            h = h_random(GAUSSIAN_QI, seed=77)
            table = generate_map(lam, h, probes, 3)
            dec = decompose(table)
            assert dec.lam == lam
            for p in probes:
                assert dec.h_of(p) == h(p)

    def test_exact_h_lookups_by_value(self, monkeypatch):
        probes = probe_set(GAUSSIAN_QI)
        h = h_random(GAUSSIAN_QI, seed=5)
        dec = decompose(generate_map(GaussianRational(0, 1), h, probes, 3))
        twin = Mat2.unit(GAUSSIAN_QI, 1, 2) @ Mat2.unit(GAUSSIAN_QI, 2, 1)  # E11, computed

        def no_scan(self, other):
            raise AssertionError("exact lookups must not scan with Mat2.eq")

        monkeypatch.setattr(Mat2, "eq", no_scan)
        assert dec.h_of(twin) == dec.h_of(probes[0]) == h(twin) == h(probes[0])
        with pytest.raises(InputNotInTable):
            dec.h_of(Mat2.identity(GAUSSIAN_QI))

    def test_h_is_read_without_building_residue_entries(self, exact_field, monkeypatch):
        residues, is_scalar = [], Mat2.is_scalar
        monkeypatch.setattr(Mat2, "is_scalar", lambda M: residues.append(M) or is_scalar(M))
        probes = probe_set(exact_field)
        h = h_random(exact_field, seed=3)
        dec = decompose(generate_map(exact_field.one(), h, probes, 3))
        assert [value for _, value in dec.h_table] == [h(p) for p in probes]
        assert len(residues) == 6 and all(R._e is None for R in residues)

    def test_h_table_lists_the_table_inputs_in_order(self, exact_field):
        inputs = [*reversed(probe_set(exact_field)), Mat2.identity(exact_field)]
        table = generate_map(exact_field.one(), h_trace, inputs, 3)
        assert [A for A, _ in decompose(table).h_table] == table.inputs()

    def test_canonical_images_track_structure(self):
        # scalar inputs map to scalars; scalar+nilpotent inputs stay in that set
        probes = [
            *probe_set(GAUSSIAN_QI),
            Mat2.identity(GAUSSIAN_QI).scale(GaussianRational(3)),
            Mat2.identity(GAUSSIAN_QI) + Mat2.unit(GAUSSIAN_QI, 1, 2),
        ]
        table = generate_map(GaussianRational(0, -1), h_trace, probes, 3)
        for A, out in table.entries:
            if scalar_plus_nilpotent_spectral(A).holds:
                assert scalar_plus_nilpotent_spectral(out).holds
            if A.is_scalar():
                assert out.is_scalar()


class TestCampaign:
    def test_gaussian_campaign_clean(self):
        report = probe_campaign(3, GAUSSIAN_QI, trials=60, seed=7)
        assert report.clean
        assert report.valid_ok + report.perturbed_rejected == 60
        assert report.perturbed_rejected > 0

    def test_rational_even_k_only_unit_lambda(self):
        assert roots_of_unity(RATIONAL_Q, 3) == [Fraction(1)]
        report = probe_campaign(2, RATIONAL_Q, trials=40, seed=7)
        assert report.clean

    def test_rational_k1_lambda_pm1(self):
        assert roots_of_unity(RATIONAL_Q, 2) == [Fraction(1), Fraction(-1)]
        report = probe_campaign(1, RATIONAL_Q, trials=40, seed=7)
        assert report.clean

    @pytest.mark.parametrize("pin", CAMPAIGN_PINS,
                             ids=lambda p: f"{p['field']}-k{p['k']}-seed{p['seed']}")
    def test_report_is_pinned(self, pin):
        # the campaign stream: lam, h and impostor draws, and which stage rejects
        report = probe_campaign(pin["k"], FieldTag(pin["field"]), pin["trials"], pin["seed"])
        assert (report.valid_ok, report.perturbed_rejected, report.anomalies) == (
            pin["valid_ok"], pin["perturbed_rejected"], pin["anomalies"])
        assert sorted(map(list, report.rejection_kinds.items())) == pin["rejection_kinds"]

    def test_reproducible(self):
        a = probe_campaign(3, GAUSSIAN_QI, trials=30, seed=42)
        b = probe_campaign(3, GAUSSIAN_QI, trials=30, seed=42)
        assert a == b

    def test_order_zero_rejected(self):
        with pytest.raises(InvalidOrder):
            probe_campaign(0, RATIONAL_Q, trials=1, seed=0)

    def test_trials_past_the_cap_rejected(self, monkeypatch):
        from kcomm2.brackets import MAX_TRIALS

        def no_trial(*args):
            raise RuntimeError("a trial ran")

        monkeypatch.setattr(preserver, "generate_map", no_trial)
        with pytest.raises(InvalidOrder):
            probe_campaign(1, RATIONAL_Q, trials=10**9, seed=0)
        with pytest.raises(RuntimeError):
            probe_campaign(1, RATIONAL_Q, trials=MAX_TRIALS, seed=0)

    def test_float_campaign_products_do_not_grow_with_k(self, monkeypatch):
        # k + 1 is odd at both orders, so the same seed draws the same roots
        # (only 1 over R64) and the same h and impostors
        products = []
        matmul = Mat2.__matmul__
        monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: products.append(1) or matmul(X, Y))
        counts = []
        for k in (6, MAX_ORDER):
            products.clear()
            assert probe_campaign(k, FLOAT_R, trials=40, seed=5).clean
            counts.append(len(products))
        assert counts[0] > 0 and counts[1] == counts[0]

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_float_campaign_clean(self, field, k):
        report = probe_campaign(k, field, trials=60, seed=11)
        assert report.clean
        assert report.valid_ok + report.perturbed_rejected == 60
        # the bad-lambda impostors: _bad_lambda draws a candidate _check_root refuses
        assert report.rejection_kinds.get("LambdaNotRootOfUnity", 0) > 0

    @pytest.mark.parametrize("field, k", [(FLOAT_C, 20), (FLOAT_R, 40)], ids=["C64-20", "R64-40"])
    def test_high_order_float_campaign_clean(self, field, k):
        # float brackets grow like 2**k; an absolute tolerance rejected valid maps here
        report = probe_campaign(k, field, trials=60, seed=1)
        assert report.anomalies == []
        assert report.valid_ok + report.perturbed_rejected == 60

    @pytest.mark.parametrize("k", [1, 3, 440, 441, 1000])
    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI, FLOAT_R, FLOAT_C],
                             ids=lambda f: f.variant)
    def test_bad_lambda_is_never_a_root(self, field, k):
        # the candidates are 2, 3, 5, -2, -1 and, over a complex field, i; of
        # those only -1 (order 2) and i (order 4) are roots of unity at all
        orders = {-1: 2, 1j: 4}
        drawn = set()
        for seed in range(40):
            lam = FLOAT_C.coerce(preserver._bad_lambda(field, k, Random(seed)))
            order = orders.get(lam)
            assert order is None or (k + 1) % order != 0, (lam, k)
            drawn.add(lam)
        assert len(drawn) >= 4

    def test_round_trip_mismatch_is_an_anomaly(self, monkeypatch):
        real = preserver.decompose

        def one_wrong_h(table):
            dec = real(table)
            (A, value), *rest = dec.h_table
            return dec._replace(h_table=((A, value + 1), *rest))

        monkeypatch.setattr(preserver, "decompose", one_wrong_h)
        report = probe_campaign(1, RATIONAL_Q, trials=10, seed=3)
        assert report.valid_ok == 0
        assert report.anomalies != []
        assert all(a.endswith(": round-trip mismatch") for a in report.anomalies)
        assert report.perturbed_rejected == 10 - len(report.anomalies)

    def test_accepted_impostor_is_an_anomaly(self, monkeypatch):
        real = preserver.decompose

        def accept_all(table):
            try:
                return real(table)
            except (NotTheoremForm, LambdaNotRootOfUnity, PreservationFailed):
                return preserver.Decomposition(table.field.one(), (), 0)

        monkeypatch.setattr(preserver, "decompose", accept_all)
        report = probe_campaign(1, RATIONAL_Q, trials=10, seed=3)
        assert report.perturbed_rejected == 0
        assert report.valid_ok > 0
        assert len(report.anomalies) == 10 - report.valid_ok
        assert all(" was accepted" in a and ": impostor (" in a for a in report.anomalies)

    def test_preservation_failure_is_an_anomaly(self, monkeypatch):
        probes = probe_set(RATIONAL_Q)  # the inputs of every campaign table

        def wrong_bracket(A, B, k):
            # only the bracket of table outputs is wrong; the probes' own is kept
            if any(A is p for p in probes):
                return kcomm(A, B, k)
            return kcomm_recursive(A, B, k) + Mat2.unit(A.field, 1, 2)

        monkeypatch.setattr(preserver, "kcomm", wrong_bracket)
        report = probe_campaign(1, RATIONAL_Q, trials=10, seed=3)
        assert not report.clean
        assert report.valid_ok == 0

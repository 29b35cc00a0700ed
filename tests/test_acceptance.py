"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is either asserted exactly (exact fields) or
bounded by the stated residual tolerance (float fields).
"""

import time
from random import Random

from kcomm2 import (
    FLOAT_C,
    GAUSSIAN_QI,
    RATIONAL_Q,
    Coefficients,
    Mat2,
    NotAnIdentity,
    RankOneFactor,
    SandwichSystem,
    decompose,
    generate_map,
    kcomm,
    kcomm_closed,
    kcomm_eigenpair,
    kcomm_recursive,
    outer,
    probe_campaign,
    probe_set,
    rank_one_factor,
    rank_one_identity_solve,
    roots_of_unity,
    scalar_plus_nilpotent_kcomm,
    scalar_plus_nilpotent_spectral,
    scalar_witness_test,
    verify_preserving,
)
from kcomm2.classify import sandwich_operator
from kcomm2.identities import golden_identities
from kcomm2.preserver import all_pairs, h_random
from kcomm2.randgen import random_scalar

from support import (random_complex_pair_real_matrix, random_diagonalizable, random_mat,
                     random_scalar_plus_nilpotent, span_system)


def _report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_golden_identity_suite():
    t0 = time.perf_counter()
    ok = True
    # closed-form anchor families over Q, k = 1..10, both evaluators
    for k in range(1, 11):
        for ident in golden_identities(RATIONAL_Q, k):
            ok = ok and kcomm_recursive(ident.A, ident.B, k).eq(ident.expected)
            ok = ok and kcomm_closed(ident.A, ident.B, k).eq(ident.expected)
    # eigenpair anchor: 50 seeded diagonalizable S over Q(i)
    rng = Random(2024)
    for i in range(50):
        S, alpha, beta, x, f = random_diagonalizable(GAUSSIAN_QI, rng)
        k = (i % 10) + 1
        fac = RankOneFactor(x=x, f=f)
        expected = kcomm_eigenpair(fac, S, k, alpha, beta)
        ok = ok and kcomm_recursive(outer(GAUSSIAN_QI, x, f), S, k).eq(expected)
    elapsed = time.perf_counter() - t0
    _report(1, "golden identity suite", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = Random(1234)
    mismatches = 0
    for i in range(2000):
        A = random_mat(GAUSSIAN_QI, rng)
        B = random_mat(GAUSSIAN_QI, rng)
        R = A  # recursive oracle evaluated through its defining recurrence
        for k in range(13):
            if k:
                R = R @ B - B @ R
            if not kcomm_closed(A, B, k).eq(R):
                mismatches += 1
            if not kcomm(A, B, k).eq(R):  # the kernel that verify_preserving runs on both sides
                mismatches += 1
        if i % 250 == 0:
            # anchor the incremental evaluation to the public oracle entrypoint
            assert kcomm_recursive(A, B, 12).eq(R)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "closed/kernel/recursive oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"2000 pairs, k<=12, {elapsed:.2f}s",
    )


def test_criterion_3_scalar_witness_equivalence():
    rng = Random(33)
    disagreements = 0
    eye = Mat2.identity(GAUSSIAN_QI)
    for i in range(1000):
        if i % 3 == 0:
            Z = eye.scale(random_scalar(GAUSSIAN_QI, rng, span=4))
        else:
            Z = random_mat(GAUSSIAN_QI, rng, span=4)
        for k in range(1, 7):
            if scalar_witness_test(Z, k).holds != Z.is_scalar():
                disagreements += 1
    _report(3, "scalar-witness equivalence", disagreements == 0, "1000 Z, k=1..6")


def test_criterion_4_scalar_plus_nilpotent_equivalence():
    rng = Random(44)
    disagreements = 0
    for i in range(1000):
        if i % 5 < 2:
            S = random_scalar_plus_nilpotent(GAUSSIAN_QI, rng, span=3)
        else:
            S = random_mat(GAUSSIAN_QI, rng, span=3)
        spectral = scalar_plus_nilpotent_spectral(S).holds
        for k in (3, 4, 5):
            sampled = scalar_plus_nilpotent_kcomm(S, k, trials=8, seed=i).holds
            if sampled != spectral:
                disagreements += 1
    # complex-conjugate-pair rejection over the reals
    rejected = 0
    for i in range(200):
        S = random_complex_pair_real_matrix(RATIONAL_Q, rng)
        if not scalar_plus_nilpotent_spectral(S).holds:
            if not scalar_plus_nilpotent_kcomm(S, 3, trials=4, seed=i).holds:
                if not scalar_plus_nilpotent_kcomm(S, 4, trials=4, seed=i).holds:
                    rejected += 1
    _report(
        4,
        "scalar-plus-nilpotent equivalence",
        disagreements == 0 and rejected == 200,
        "1000 S, k=3..5; 200 complex-pair rejections",
    )


def test_criterion_5_sandwich_solver():
    rng = Random(55)
    recovered = 0
    for _ in range(200):
        system = span_system(GAUSSIAN_QI, rng, rng.randint(1, 3), rng.randint(1, 3))
        result = rank_one_identity_solve(system, mode="b-in-d")
        assert isinstance(result, Coefficients)
        good = True
        for i, row in enumerate(result.coeffs):
            reassembled = Mat2.zero(GAUSSIAN_QI)
            for j, c in enumerate(row):
                reassembled = reassembled + system.right[j][1].scale(c)
            good = good and reassembled.eq(system.left[i][1])
        recovered += good

    witnessed = 0
    for _ in range(200):
        while True:
            system = span_system(GAUSSIAN_QI, rng, rng.randint(1, 3), rng.randint(1, 3))
            j = rng.randrange(len(system.right))
            C, D = system.right[j]
            bumped = list(system.right)
            bumped[j] = (C, D + random_mat(GAUSSIAN_QI, rng, span=2))
            perturbed = SandwichSystem(left=system.left, right=bumped)
            L = sandwich_operator(perturbed.left)
            R = sandwich_operator(perturbed.right)
            if any(L[r][c] != R[r][c] for r in range(4) for c in range(4)):
                break  # perturbation actually broke the identity
        result = rank_one_identity_solve(perturbed)
        assert isinstance(result, NotAnIdentity)
        T = result.witness
        rank_one_factor(T)  # witness must be rank one
        lhs = Mat2.zero(GAUSSIAN_QI)
        for A, B in perturbed.left:
            lhs = lhs + A @ T @ B
        rhs = Mat2.zero(GAUSSIAN_QI)
        for C, D in perturbed.right:
            rhs = rhs + C @ T @ D
        witnessed += not lhs.eq(rhs)
    _report(
        5,
        "sandwich identity solver",
        recovered == 200 and witnessed == 200,
        "200 recovered, 200 witnessed",
    )


def test_criterion_6_round_trip():
    t0 = time.perf_counter()
    failures = 0
    for field in (RATIONAL_Q, GAUSSIAN_QI):
        probes = probe_set(field)
        pairs = all_pairs(probes)
        for k in range(1, 7):
            for lam in roots_of_unity(field, k + 1):
                for trial in range(100):
                    h = h_random(field, seed=trial * 7919 + k)
                    table = generate_map(lam, h, probes, k)
                    if trial % 10 == 0 and not verify_preserving(table, pairs).holds:
                        failures += 1
                        continue
                    # decompose re-checks every probe pair with verify_preserving's pair rule
                    dec = decompose(table)
                    if dec.verified_pairs != len(pairs):
                        failures += 1
                    if not field.eq(dec.lam, field.coerce(lam)):
                        failures += 1
                    h_values = dict(dec.h_table)
                    for p in probes:
                        if not field.eq(h_values[p], field.coerce(h(p))):
                            failures += 1
    elapsed = time.perf_counter() - t0
    _report(6, "decomposition round-trip", failures == 0 and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_7_rejection_campaign():
    combos = [(RATIONAL_Q, k) for k in (1, 2, 3, 4, 5, 6)] + [
        (GAUSSIAN_QI, k) for k in (1, 2, 3, 4, 5, 6)
    ]
    ok = True
    total_perturbed = 0
    for field, k in combos:
        # ~50% of trials are perturbed; 1000 trials yield >= 500 impostors w.h.p.
        report = probe_campaign(k, field, trials=1000, seed=1000 * k + ord(field.variant[0]))
        ok = ok and report.clean and report.perturbed_rejected >= 450
        total_perturbed += report.perturbed_rejected
    _report(7, "impostor rejection campaign", ok, f"{total_perturbed} impostors rejected")


def test_criterion_8_float_field_sanity():
    field = FLOAT_C
    max_residual = 0.0
    ok = True
    # criterion 1 families over floats, k <= 6
    for k in range(1, 7):
        for ident in golden_identities(field, k):
            got = kcomm_recursive(ident.A, ident.B, k)
            resid = max(abs(a - b) for a, b in zip(got.entries, ident.expected.entries))
            max_residual = max(max_residual, resid)
    # criterion 6 grid over floats
    probes = probe_set(field)
    pairs = all_pairs(probes)
    for k in range(1, 7):
        for lam in roots_of_unity(field, k + 1):
            for trial in range(100):
                h = h_random(field, seed=trial * 104729 + k)
                table = generate_map(lam, h, probes, k)
                if trial % 10 == 0 and not verify_preserving(table, pairs).holds:
                    ok = False
                # decompose re-checks every probe pair with verify_preserving's pair rule
                dec = decompose(table)
                if dec.verified_pairs != len(pairs):
                    ok = False
                max_residual = max(max_residual, abs(dec.lam - lam))
                h_values = dict(dec.h_table)
                for p in probes:
                    max_residual = max(max_residual, abs(h_values[p] - h(p)))
    ok = ok and max_residual < 1e-6
    _report(8, "float-field sanity", ok, f"max residual {max_residual:.2e}")

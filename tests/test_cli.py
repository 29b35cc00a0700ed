import argparse
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcomm2
from kcomm2 import FLOAT_R, GAUSSIAN_QI, RATIONAL_Q, GaussianRational, Mat2
from kcomm2.cli import build_parser, main
from kcomm2.serialize import (
    canonical_dumps,
    mat_from_json,
    mat_to_json,
    maptable_from_json,
    maptable_to_json,
)
from kcomm2 import cli, preserver
from kcomm2.brackets import MAX_ORDER, kcomm, kcomm_recursive
from kcomm2.errors import ResultTooLarge
from kcomm2.preserver import generate_map, h_det, probe_set

from fractions import Fraction

PINNED = Path(__file__).parent / "pinned"  # stdout of CLI requests, byte for byte
IMPOSTORS = json.loads((PINNED / "cli-impostors.json").read_text())
IMPOSTOR_IDS = [f"{pin['argv'][0]}-{n}" for n, pin in enumerate(IMPOSTORS)]


def run_cli(capsys, argv, stdin_obj=None, monkeypatch=None, tmp_path=None):
    if stdin_obj is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(stdin_obj))
        argv = argv + ["--input", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


E = {
    "e11": {"field": "Q", "entries": [["1", "0"], ["0", "0"]]},
    "e12": {"field": "Q", "entries": [["0", "1"], ["0", "0"]]},
}


class TestSerialization:
    def test_matrix_round_trip_exact(self):
        M = Mat2.from_rows(RATIONAL_Q, [[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
        assert mat_from_json(mat_to_json(M)).eq(M)

    def test_gaussian_round_trip(self):
        obj = {
            "field": "Qi",
            "entries": [
                [{"re": "1/2", "im": "-3"}, {"re": "0", "im": "0"}],
                [{"re": "2", "im": "1/7"}, {"re": "-1", "im": "0"}],
            ],
        }
        M = mat_from_json(obj)
        assert mat_to_json(M) == obj

    def test_byte_stable_canonical_form(self):
        M = Mat2.from_rows(RATIONAL_Q, [[Fraction(2, 4), 1], [0, 1]])
        text = canonical_dumps(mat_to_json(M))
        again = canonical_dumps(mat_to_json(mat_from_json(json.loads(text))))
        assert text == again

    def test_maptable_round_trip(self):
        table = generate_map(Fraction(-1), h_det, probe_set(RATIONAL_Q), 3)
        text = canonical_dumps(maptable_to_json(table))
        parsed = maptable_from_json(json.loads(text))
        assert canonical_dumps(maptable_to_json(parsed)) == text


class TestKcommCommand:
    def test_symmetric_swap_bracket(self, capsys, tmp_path):
        data = {
            "A": E["e11"],
            "B": {"field": "Q", "entries": [["0", "1"], ["1", "0"]]},
        }
        code, out = run_cli(capsys, ["kcomm", "--k", "3"], data, tmp_path=tmp_path)
        assert code == 0
        assert out["bracket"]["entries"] == [["0", "4"], ["-4", "0"]]

    def test_zero_discriminant_is_never_refused_as_unprintable(self, capsys, tmp_path):
        # delta(E12) = 0, so every entry r * delta**m of an odd order past 1 is 0
        code, out = run_cli(capsys, ["kcomm", "--k", "5"], {"A": E["e11"], "B": E["e12"]},
                            tmp_path=tmp_path)
        assert (code, out) == (0, {"bracket": {"entries": [["0", "0"], ["0", "0"]], "field": "Q"}})

    @pytest.mark.parametrize("k, response", [
        (1, (2, {"error": "ResultTooLarge", "message": "order-1 bracket overflows R64"})),
        (3, (0, {"bracket": {"entries": [[0.0, 0.0], [0.0, 0.0]], "field": "R64"}})),
    ], ids=["1-2", "3-0"])
    def test_float_zero_discriminant_settles_an_overflowing_bracket(self, capsys, tmp_path, k, response):
        # [A, B]_1 of A = 1e200 E12, B = 1e200 E21 overflows and is refused; delta(B) = 0,
        # so at k = 3 the bracket is the zero matrix, its exact value
        data = {"A": {"field": "R64", "entries": [[0.0, 1e200], [0.0, 0.0]]},
                "B": {"field": "R64", "entries": [[0.0, 0.0], [1e200, 0.0]]}}
        assert run_cli(capsys, ["kcomm", "--k", str(k)], data, tmp_path=tmp_path) == response

    def test_bad_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        nested = '{"A":' + "[" * 1000 + "]" * 1000 + "}"  # json.loads raises RecursionError
        long_int = '{"A":' + "7" * 5000 + "}"  # past the int-to-string digit limit
        for text in ("{not json", nested, long_int):
            path.write_text(text)
            code = main(["kcomm", "--k", "1", "--input", str(path)])
            out = json.loads(capsys.readouterr().out)
            assert code == 2
            assert out["error"] == "input"


class TestClassifyCommand:
    def test_spectral_rotation_rejected_exit_1(self, capsys, tmp_path):
        data = {"S": {"field": "Q", "entries": [["0", "1"], ["-1", "0"]]}}
        code, out = run_cli(
            capsys, ["classify", "--lemma", "2.3-spectral"], data, tmp_path=tmp_path
        )
        assert code == 1
        assert out["holds"] is False
        assert out["discriminant"] == "-4"

    def test_scalar_witness_holds(self, capsys, tmp_path):
        data = {"Z": {"field": "Q", "entries": [["3", "0"], ["0", "3"]]}}
        code, out = run_cli(
            capsys, ["classify", "--lemma", "2.2", "--k", "2"], data, tmp_path=tmp_path
        )
        assert code == 0
        assert out["holds"] is True

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("S, code", [
        ({"field": "Q", "entries": [["1/2", "3"], ["0", "1/2"]]}, 0),
        ({"field": "Q", "entries": [["0", "1"], ["-1", "0"]]}, 1),
        ({"field": "Qi", "entries": [[{"re": "1", "im": "1"}, "0"], [{"re": "2", "im": "-1/3"},
                                                                    {"re": "1", "im": "1"}]]}, 0),
        ({"field": "Qi", "entries": [[{"re": "0", "im": "1"}, "1"], ["0", "2"]]}, 1),
    ], ids=["Q-holds", "Q-refuted", "Qi-holds", "Qi-refuted"])
    def test_exact_kcomm_classifier_ignores_trials_and_seed(self, capsys, tmp_path, S, code, k):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"S": S}))
        runs = set()
        for trials in ("0", "32"):
            for seed in ("0", "5"):
                argv = ["classify", "--lemma", "2.3-kcomm", "--k", str(k), "--trials", trials,
                        "--seed", seed, "--input", str(path)]
                runs.add((main(argv), capsys.readouterr().out))
        assert len(runs) == 1 and runs.pop()[0] == code

    def test_kcomm_classifier_witness(self, capsys, tmp_path):
        data = {"S": {"field": "Q", "entries": [["1", "0"], ["0", "2"]]}}
        code, out = run_cli(
            capsys, ["classify", "--lemma", "2.3-kcomm", "--k", "3"], data, tmp_path=tmp_path
        )
        assert code == 1
        assert out["witness"]["entries"] == [["0", "1"], ["0", "0"]]


class TestMapCommands:
    def test_gen_verify_decompose_pipeline(self, capsys, tmp_path):
        code, table = run_cli(
            capsys,
            ["gen-map", "--field", "Qi", "--k", "3"],
            {"lambda": {"re": "0", "im": "1"}, "h": "trace"},
            tmp_path=tmp_path,
        )
        assert code == 0

        code, verdict = run_cli(capsys, ["verify-map"], table, tmp_path=tmp_path)
        assert code == 0 and verdict["holds"] is True

        code, dec = run_cli(capsys, ["decompose-map"], table, tmp_path=tmp_path)
        assert code == 0
        assert dec["lambda"] == {"re": "0", "im": "1"}

    def test_float_root_within_the_tolerance_decomposes(self, capsys, tmp_path):
        # lam**2 = 0.5 is 1 within the tolerance 0.5, though lam**(-1) is not lam within it
        lam = 0.7071067811865476
        flags = ["--tolerance", "0.5"]
        argv = ["gen-map", "--field", "R64", "--k", "1"] + flags
        code, table = run_cli(capsys, argv, {"lambda": lam}, tmp_path=tmp_path)
        assert code == 0
        code, verdict = run_cli(capsys, ["verify-map"] + flags, table, tmp_path=tmp_path)
        assert code == 0 and verdict["holds"] is True
        code, dec = run_cli(capsys, ["decompose-map"] + flags, table, tmp_path=tmp_path)
        assert code == 0
        assert (dec["lambda"], dec["verified_pairs"]) == (lam, 36)

    def test_near_degenerate_float_table_verifies(self, capsys, tmp_path):
        # delta of the second input is -1e-3, about 5e-10 of its terms: the
        # recurrence's right side lost every digit (top-left -2.58 where the
        # exact bracket's is 0.14167), while the kernel gives 0.14167 on both sides
        def mat(rows):
            return {"field": "R64", "entries": rows}
        inputs = [mat([[700, -300], [250, 900]]), mat([[1000, 333.3333333333333], [-750.00000075, 0]])]
        argv = ["gen-map", "--k", "5", "--field", "R64"]
        code, table = run_cli(capsys, argv, {"lambda": -1, "h": "zero", "inputs": inputs}, tmp_path=tmp_path)
        assert code == 0
        assert run_cli(capsys, ["verify-map"], table, tmp_path=tmp_path) == (0, {"holds": True})

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("field", ["R64", "C64"])
    def test_float_right_side_that_overflows_exits_2(self, capsys, tmp_path, field, k):
        # [A, B]_1 of A = 1e200 E12, B = E11 + 1e200 E21 is inf, and at k = 3 the
        # kernel scales it by delta(B) = 1; the images' bracket is zero, so
        # inf <= inf must not hold
        def mat(rows):
            return {"field": field, "entries": rows}
        zero = [[0.0, 0.0], [0.0, 0.0]]
        table = {"field": field, "k": k, "entries": [
            {"in": mat([[0.0, 1e200], [0.0, 0.0]]), "out": mat(zero)},
            {"in": mat([[1.0, 0.0], [1e200, 0.0]]), "out": mat([[1.0, 0.0], [0.0, 1.0]])}]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(table))
        assert main(["verify-map", "--input", str(path)]) == 2
        assert capsys.readouterr().out == (
            f'{{"error":"ResultTooLarge","message":"order-{k} bracket overflows {field}"}}\n')

    def test_identity_table_decomposition(self, capsys, tmp_path):
        probes = probe_set(RATIONAL_Q)
        table = {
            "field": "Q",
            "k": 1,
            "entries": [
                {"in": mat_to_json(p), "out": mat_to_json(p)} for p in probes
            ],
        }
        code, dec = run_cli(capsys, ["decompose-map"], table, tmp_path=tmp_path)
        assert code == 0
        assert dec["lambda"] == "1"
        assert all(h["value"] == "0" for h in dec["h"])

    def test_non_canonical_table_rejected(self, capsys, tmp_path):
        probes = probe_set(RATIONAL_Q)
        entries = [{"in": mat_to_json(p), "out": mat_to_json(p)} for p in probes]
        entries[0]["out"] = mat_to_json(probes[2])  # E11 -> E12
        table = {"field": "Q", "k": 1, "entries": entries}
        code, out = run_cli(capsys, ["decompose-map"], table, tmp_path=tmp_path)
        assert code == 1
        assert "rejected" in out


def _q(rows):
    return {"field": "Q", "entries": rows}


def _q_table(k, entries):
    return {"field": "Q", "k": k, "entries": [{"in": a, "out": b} for a, b in entries]}


_PROBES = [_q([["1", "0"], ["0", "0"]]), _q([["0", "0"], ["0", "1"]]),
           _q([["0", "1"], ["0", "0"]]), _q([["0", "0"], ["1", "0"]]),
           _q([["1", "1"], ["0", "0"]]), _q([["0", "1"], ["1", "0"]])]
# A -> 2A on the probes at k = 1: lambda**2 = 4 != 1, so no preserver
_IMPOSTOR = _q_table(1, [(p, _q([[str(2 * int(x)) for x in row] for row in p["entries"]]))
                         for p in _PROBES])


def _r64(rows):
    return {"field": "R64", "entries": rows}


def _c64(entries):
    z = [{"re": x.real, "im": x.imag} for x in map(complex, entries)]
    return {"field": "C64", "entries": [z[:2], z[2:]]}


def _c64_identity():
    """B_i = sum_j c_ij D_j and C_j = sum_i c_ij A_i, so the sums agree for every T;
    the coefficients c_ij come back through float row reduction, rounding included."""
    A = [(1, 1j, 0, 1), (0.5, 0, 1 - 1j, 2)]
    D = [(1 + 1j, 0, 0.1, -1), (0, 3, 1j, 0.7)]
    c = [[0.1 + 0.2j, -1], [0.3j, 2 - 0.7j]]
    B = [[c[i][0] * D[0][t] + c[i][1] * D[1][t] for t in range(4)] for i in range(2)]
    C = [[c[0][j] * A[0][t] + c[1][j] * A[1][t] for t in range(4)] for j in range(2)]
    return {"left": [[_c64(A[i]), _c64(B[i])] for i in range(2)],
            "right": [[_c64(C[j]), _c64(D[j])] for j in range(2)]}


def _exact_span_identity(field, A, D, c, mirrored=False):
    """An exact identity built like ``_c64_identity``, on scalars written as strings
    or (re, im) string pairs.  The second members of D are dependent, so the solved
    coefficients have a free variable, which the solver sets to zero.

    Mirrored, D lists the right first components instead: A_i = sum_j c_ij D_j and
    the right second components are sum_i c_ij A_i, which is what "a-in-c" solves."""
    def scalar(x):
        return GaussianRational(*map(Fraction, x)) if isinstance(x, tuple) else GaussianRational(Fraction(x))

    def matrix(entries):
        return [scalar(x) for x in entries]

    def combine(coeffs, mats):
        return [sum((k * M[t] for k, M in zip(coeffs, mats)), GaussianRational()) for t in range(4)]

    def encode(entries):
        z = [str(x.re) if not x.b else {"re": str(x.re), "im": str(x.im)} for x in entries]
        return {"field": field, "entries": [z[:2], z[2:]]}

    A, D = [matrix(m) for m in A], [matrix(m) for m in D]
    c = [[scalar(x) for x in row] for row in c]
    B = [combine(c[i], D) for i in range(len(A))]
    C = [combine([row[j] for row in c], A) for j in range(len(D))]
    left, right = ([(B[i], A[i]) for i in range(len(A))], [(D[j], C[j]) for j in range(len(D))]) \
        if mirrored else ([(A[i], B[i]) for i in range(len(A))], [(C[j], D[j]) for j in range(len(D))])
    return {"left": [[encode(X), encode(Y)] for X, Y in left],
            "right": [[encode(X), encode(Y)] for X, Y in right]}


# D_2 = 2 D_1 over Q, D_2 = (1 + i) D_1 over Q(i); the left first components are independent
_Q_SPAN = dict(A=[("1", "2", "0", "1"), ("0", "1/2", "3", "0")],
               D=[("1", "0", "1", "-1"), ("2", "0", "2", "-2")],
               c=[["1/3", "-2"], ["5", "1/7"]])
_QI_SPAN = dict(A=[("1", ("0", "1"), "0", "1"), ("1/2", "0", ("1", "1"), "2")],
                D=[("1", "0", ("0", "1"), "-1"), (("1", "1"), "0", ("-1", "1"), ("-1", "-1"))],
                c=[[("0", "1/3"), "-2"], ["5", ("1/7", "-1")]])


def _c64_dependent_identity():
    """``_c64_identity`` with D_2 = 2i D_1: float pivoting leaves a free variable at zero."""
    A = [(1, 1j, 0, 1), (0.5, 0, 1 - 1j, 2)]
    D = [(1 + 1j, 0, 0.1, -1), (2j - 2, 0, 0.2j, -2j)]
    c = [[0.1 + 0.2j, -1], [0.3j, 2 - 0.7j]]
    B = [[c[i][0] * D[0][t] + c[i][1] * D[1][t] for t in range(4)] for i in range(2)]
    C = [[c[0][j] * A[0][t] + c[1][j] * A[1][t] for t in range(4)] for j in range(2)]
    return {"left": [[_c64(A[i]), _c64(B[i])] for i in range(2)],
            "right": [[_c64(C[j]), _c64(D[j])] for j in range(2)]}


class TestPinnedBodies:
    """Success and rejection bodies of the handlers, byte for byte."""

    @pytest.mark.parametrize("argv, body, code, text", [
        (["classify", "--lemma", "2.3-spectral"], {"S": _q([["1/2", "1/4"], ["-1/4", "1"]])}, 0,
         '{"discriminant":"0","holds":true,"lambda":"3/4",'
         '"nilpotent":{"entries":[["-1/4","1/4"],["-1/4","1/4"]],"field":"Q"}}'),
        (["verify-map"], _IMPOSTOR, 1,
         '{"holds":false,"left_bracket":{"entries":[["0","4"],["0","0"]],"field":"Q"},'
         '"pair":[{"entries":[["1","0"],["0","0"]],"field":"Q"},'
         '{"entries":[["0","1"],["0","0"]],"field":"Q"}],'
         '"right_bracket":{"entries":[["0","1"],["0","0"]],"field":"Q"}}'),
        (["verify-map"], {"table": _IMPOSTOR, "pairs": [_PROBES[:2], _PROBES[2:4]]}, 1,
         '{"holds":false,"left_bracket":{"entries":[["4","0"],["0","-4"]],"field":"Q"},'
         '"pair":[{"entries":[["0","1"],["0","0"]],"field":"Q"},'
         '{"entries":[["0","0"],["1","0"]],"field":"Q"}],'
         '"right_bracket":{"entries":[["1","0"],["0","-1"]],"field":"Q"}}'),
        (["verify-map"], {"table": _IMPOSTOR, "pairs": [_PROBES[:2]]}, 0, '{"holds":true}'),
        (["gen-map", "--k", "3"],
         {"lambda": "-1", "h": "det",
          "inputs": [_q([["1", "2"], ["3", "4"]]), _q([["0", "1/2"], ["1", "0"]])]}, 0,
         '{"entries":[{"in":{"entries":[["1","2"],["3","4"]],"field":"Q"},'
         '"out":{"entries":[["-3","-2"],["-3","-6"]],"field":"Q"}},'
         '{"in":{"entries":[["0","1/2"],["1","0"]],"field":"Q"},'
         '"out":{"entries":[["-1/2","-1/2"],["-1","-1/2"]],"field":"Q"}}],"field":"Q","k":3}'),
        (["decompose-map"], _IMPOSTOR, 1, '{"power":"4","rejected":"lambda-not-root-of-unity"}'),
        (["decompose-map"], _q_table(1, [(p, _q([["0", "0"], ["0", "0"]])) for p in _PROBES]), 1,
         '{"input":{"entries":[["1","0"],["0","0"]],"field":"Q"},'
         '"rejected":"lambda-zero","residue":{"entries":[["0","0"],["0","0"]],"field":"Q"}}'),
        # the identity map, except that [[1, 1], [0, 0]] goes to [[1, 2], [0, 0]]
        (["decompose-map"], _q_table(3, [(p, p) for p in _PROBES[:4]]
                                     + [(_PROBES[4], _q([["1", "2"], ["0", "0"]]))]
                                     + [(p, p) for p in _PROBES[5:]]), 1,
         '{"input":{"entries":[["1","1"],["0","0"]],"field":"Q"},'
         '"rejected":"nonscalar-residue","residue":{"entries":[["0","1"],["0","0"]],"field":"Q"}}'),
        (["sandwich"], {"left": [], "right": [[_PROBES[0], _PROBES[0]]]}, 2,
         '{"error":"EmptySystem","message":"both sides need at least one pair"}'),
        # the identity holds, but the left first components are dependent
        (["sandwich", "--mode", "b-in-d"],
         {"left": [[_PROBES[0], _PROBES[0]]] * 2,
          "right": [[_PROBES[0], _q([["2", "0"], ["0", "0"]])]]}, 2,
         '{"error":"SingularSystem","message":"independence hypothesis for mode \'b-in-d\' fails"}'),
        # each sum starts from the zero matrix: started from its first term instead,
        # left_value would print as [[-0.0, 0.0], [-0.0, 0.0]]
        (["sandwich"], {"left": [[_r64([[-1, -1], [-1, -2]]), _r64([[0, 0], [0, -1]])]],
                        "right": [[_r64([[1, 0.5], [-2, 0.5]]), _r64([[1, -2], [1, 1]])]]}, 1,
         '{"identity":false,"left_value":{"entries":[[0.0,0.0],[0.0,0.0]],"field":"R64"},'
         '"right_value":{"entries":[[1.0,-2.0],[-2.0,4.0]],"field":"R64"},'
         '"witness":{"entries":[[1.0,0.0],[0.0,0.0]],"field":"R64"}}'),
        (["sandwich"], _c64_identity(), 0,
         '{"coefficients":[[{"im":0.2,"re":0.10000000000000002},{"im":0.0,"re":-1.0}],'
         '[{"im":0.3,"re":0.0},{"im":-0.6999999999999998,"re":2.0}]],'
         '"identity":true,"mode":"b-in-d"}'),
        # dependent right second (or, mirrored, first) components: one free variable, set to zero
        (["sandwich", "--mode", "b-in-d"], _exact_span_identity("Q", **_Q_SPAN), 0,
         '{"coefficients":[["-11/3","0"],["37/7","0"]],"identity":true,"mode":"b-in-d"}'),
        (["sandwich", "--mode", "a-in-c"], _exact_span_identity("Q", **_Q_SPAN, mirrored=True), 0,
         '{"coefficients":[["-11/3","0"],["37/7","0"]],"identity":true,"mode":"a-in-c"}'),
        # mirrored, the left first components are dependent, so "auto" falls through to "a-in-c"
        (["sandwich"], _exact_span_identity("Q", **_Q_SPAN, mirrored=True), 0,
         '{"coefficients":[["-11/3","0"],["37/7","0"]],"identity":true,"mode":"a-in-c"}'),
        (["sandwich", "--mode", "b-in-d"], _exact_span_identity("Qi", **_QI_SPAN), 0,
         '{"coefficients":[[{"im":"-5/3","re":"-2"},{"im":"0","re":"0"}],'
         '[{"im":"-6/7","re":"43/7"},{"im":"0","re":"0"}]],"identity":true,"mode":"b-in-d"}'),
        (["sandwich", "--mode", "a-in-c"], _exact_span_identity("Qi", **_QI_SPAN, mirrored=True), 0,
         '{"coefficients":[[{"im":"-5/3","re":"-2"},{"im":"0","re":"0"}],'
         '[{"im":"-6/7","re":"43/7"},{"im":"0","re":"0"}]],"identity":true,"mode":"a-in-c"}'),
        (["sandwich"], _exact_span_identity("Qi", **_QI_SPAN), 0,
         '{"coefficients":[[{"im":"-5/3","re":"-2"},{"im":"0","re":"0"}],'
         '[{"im":"-6/7","re":"43/7"},{"im":"0","re":"0"}]],"identity":true,"mode":"b-in-d"}'),
        (["sandwich"], _c64_dependent_identity(), 0,
         '{"coefficients":[[{"im":-1.7999999999999998,"re":0.09999999999999998},{"im":0.0,"re":0.0}],'
         '[{"im":4.3,"re":1.4000000000000001},{"im":0.0,"re":0.0}]],"identity":true,"mode":"b-in-d"}'),
    ], ids=["spectral-holds", "verify-refuted", "verify-pairs-refuted", "verify-pairs-hold",
            "gen-map-inputs", "decompose-power", "decompose-lambda-zero",
            "decompose-nonscalar-residue", "sandwich-empty-left",
            "sandwich-b-in-d-dependent", "sandwich-R64-signed-zeros",
            "sandwich-C64-coefficients", "sandwich-Q-b-in-d-free", "sandwich-Q-a-in-c-free",
            "sandwich-Q-auto-a-in-c", "sandwich-Qi-b-in-d-free", "sandwich-Qi-a-in-c-free",
            "sandwich-Qi-auto-b-in-d", "sandwich-C64-free"])
    def test_body(self, capsys, tmp_path, argv, body, code, text):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        assert main(argv + ["--input", str(path)]) == code
        assert capsys.readouterr().out == text + "\n"

    def test_decompose_preservation_failed(self, capsys, tmp_path, monkeypatch):
        # a correct kernel never reaches this body: the table is the identity map.
        # verify_preserving brackets a pair's images, then the pair itself; only
        # the images' bracket (the first of each two calls) is forced to zero
        calls, real = itertools.count(), preserver.kcomm
        monkeypatch.setattr(preserver, "kcomm",
                            lambda A, B, k: Mat2.zero(A.field) if next(calls) % 2 == 0 else real(A, B, k))
        path = tmp_path / "in.json"
        path.write_text(json.dumps(_q_table(1, [(p, p) for p in _PROBES])))
        assert main(["decompose-map", "--input", str(path)]) == 1
        assert capsys.readouterr().out == (
            '{"pair":[{"entries":[["1","0"],["0","0"]],"field":"Q"},'
            '{"entries":[["0","1"],["0","0"]],"field":"Q"}],"rejected":"preservation-failed"}\n')

    @pytest.mark.parametrize("field", ["Q", "Qi", "R64", "C64"])
    def test_fixtures(self, capsys, field):
        # the five fixture families at k = 1..3, float signed zeros included
        assert main(["fixtures", "--kmax", "3", "--field", field]) == 0
        assert capsys.readouterr().out == (PINNED / f"fixtures-kmax3-{field}.json").read_text()

    @pytest.mark.parametrize("field, lam", [("Q", "1"), ("Qi", "1"), ("R64", 1.0),
                                            ("C64", {"re": 1.0, "im": 0.0})])
    def test_gen_map_random_h(self, capsys, tmp_path, field, lam):
        # the h_random stream: one random_scalar draw per probe, from --seed 11
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"lambda": lam, "h": "random"}))
        assert main(["gen-map", "--field", field, "--seed", "11", "--input", str(path)]) == 0
        pinned = PINNED / f"gen-map-random-h-seed11-{field}.json"
        assert capsys.readouterr().out == pinned.read_text()

    @pytest.mark.parametrize("pin", IMPOSTORS, ids=IMPOSTOR_IDS)
    def test_impostor_body_is_pinned(self, capsys, monkeypatch, pin):
        # the cli workload's verify-map and decompose-map impostors (lambda = 2),
        # bench seeds 1-3: the first failing pair and its witness, byte for byte
        data = pin["stdin"].encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(pin["argv"]) == pin["code"]
        assert capsys.readouterr().out == pin["stdout"]

    @pytest.mark.parametrize("field", ["R64", "C64"])
    def test_low_order_float_campaign(self, capsys, field):
        assert main(["campaign", "--field", field, "--k", "3", "--trials", "8"]) == 0
        assert capsys.readouterr().out == (
            f'{{"anomalies":[],"field":"{field}","k":3,"perturbed_rejected":3,'
            '"rejection_kinds":{"NotTheoremForm":3},"trials":8,"valid_ok":5}\n')

    def test_output_file_gets_the_body(self, capsys, tmp_path):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps(_IMPOSTOR))
        assert main(["decompose-map", "--input", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert out.read_text() == '{"power":"4","rejected":"lambda-not-root-of-unity"}\n'


class TestCampaignAndFixtures:
    def test_campaign_clean(self, capsys):
        code, out = run_cli(
            capsys,
            ["campaign", "--field", "Qi", "--k", "3", "--trials", "20", "--seed", "5"],
        )
        assert code == 0
        assert out["anomalies"] == []
        assert out["valid_ok"] + out["perturbed_rejected"] == 20

    @pytest.mark.parametrize("k", [441, 500])
    @pytest.mark.parametrize("field", ["R64", "C64"])
    def test_float_campaign_where_a_bad_lambda_power_overflows(self, capsys, field, k):
        # 5.0 ** (k + 1) overflows a float from k = 441 on
        code = main(["campaign", "--field", field, "--k", str(k), "--trials", "8", "--seed", "3"])
        body = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code in (0, 1)
        assert body["trials"] == 8
        assert body["rejection_kinds"]["LambdaNotRootOfUnity"] > 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_c64_campaign_at_tolerance_0_reports_its_refused_roots(self, capsys, k):
        # a listed root of unity whose power misses 1 by a rounding error is
        # refused by generate_map: an anomaly of the report, not an error exit
        code = main(["campaign", "--field", "C64", "--k", str(k), "--trials", "6", "--tolerance", "0"])
        body = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 1
        assert body["valid_ok"] + body["perturbed_rejected"] + len(body["anomalies"]) == 6
        assert ("trial 0: valid map rejected: LambdaNotRootOfUnity('lambda**(k+1) is not 1')"
                in body["anomalies"])

    def test_fixtures_emit_and_self_check(self, capsys, tmp_path):
        out_path = tmp_path / "golden.json"
        code = main(["fixtures", "--kmax", "6", "--output", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["identities"]) == 5 * 6  # five families per order
        # spot check the odd/even split of the symmetric-swap family
        swaps = {d["k"]: d for d in data["identities"] if d["name"] == "symmetric-swap"}
        assert swaps[3]["expected"]["entries"] == [["0", "4"], ["-4", "0"]]
        assert swaps[4]["expected"]["entries"] == [["8", "0"], ["0", "-8"]]

    def test_fixtures_step_each_family_one_order(self, capsys, monkeypatch):
        orders = []

        def counting(A, B, k):
            orders.append(k)
            return kcomm_recursive(A, B, k)

        monkeypatch.setattr(cli, "kcomm_recursive", counting)
        assert main(["fixtures", "--kmax", "40"]) == 0
        assert len(json.loads(capsys.readouterr().out)["identities"]) == 5 * 40
        assert orders == [1] * 200  # one recursion step per (family, k), not k of them

    def test_fixtures_self_check_failure_exits_2(self, capsys, monkeypatch):
        # an oracle that returns twice the bracket
        monkeypatch.setattr(cli, "kcomm_recursive",
                            lambda A, B, k: kcomm_recursive(A, B, k).scale(2))
        assert main(["fixtures", "--kmax", "3"]) == 2
        assert capsys.readouterr().out == ('{"error":"InvariantViolation",'
                                           '"message":"fixture offdiag-scale(a=1) at k=1 failed self-check"}\n')

    def test_sandwich_command(self, capsys, tmp_path):
        e11 = mat_to_json(Mat2.unit(RATIONAL_Q, 1, 1))
        e22 = mat_to_json(Mat2.unit(RATIONAL_Q, 2, 2))
        e12 = mat_to_json(Mat2.unit(RATIONAL_Q, 1, 2))
        eye = mat_to_json(Mat2.identity(RATIONAL_Q))
        system = {"left": [[e11, e12], [e22, e12]], "right": [[eye, e12]]}
        code, out = run_cli(capsys, ["sandwich"], system, tmp_path=tmp_path)
        assert code == 0
        assert out["identity"] is True
        assert out["coefficients"] == [["1"], ["1"]]


class TestStdin:
    NOT_UTF8 = b'{"A": "\xff"}'

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(self.NOT_UTF8)
        assert main(["kcomm", "--input", str(path)]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "input" and "can't decode byte 0xff" in body["message"]

    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch):
        import io

        # as the interpreter opens stdin: undecodable bytes become surrogate escapes
        stdin = io.TextIOWrapper(io.BytesIO(self.NOT_UTF8), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["kcomm"]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"] == "input" and "can't decode byte 0xff" in body["message"]

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        import io

        data = json.dumps({"A": E["e12"], "B": E["e11"]})
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code = main(["kcomm", "--k", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["bracket"]["entries"] == [["0", "-1"], ["0", "0"]]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class TestHostileInputs:
    """Each input exits 2 with a JSON error body that parses as strict JSON, except
    a map table whose rejection cannot print its lambda power: that exits 1."""

    def run_text(self, capsys, tmp_path, argv, text):
        if "--input" in FLAGS[argv[0]]:  # campaign and fixtures read no body
            path = tmp_path / "in.json"
            path.write_text(text)
            argv = argv + ["--input", str(path)]
        code = main(argv)
        body = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 2
        assert "error" in body
        return body

    def table(self):
        return maptable_to_json(generate_map(Fraction(1), h_det, probe_set(RATIONAL_Q), 1))

    def table_text(self, mutate):
        table = self.table()
        mutate(table)
        return json.dumps(table)

    @pytest.mark.parametrize("argv, make_body", [
        (["verify-map"], lambda t: 5),
        (["verify-map"], lambda t: None),
        (["kcomm"], lambda t: [E["e11"], E["e12"]]),
        (["verify-map"], lambda t: {"table": t, "pairs": 5}),
        (["verify-map"], lambda t: {"table": t, "pairs": [5]}),
        (["verify-map"], lambda t: {"table": t, "pairs": [[E["e11"]]]}),
        (["verify-map"], lambda t: {"table": t, "pairs": [[E["e11"], E["e12"], E["e11"]]]}),
        (["gen-map"], lambda t: {"lambda": "1", "inputs": 5}),
        (["gen-map"], lambda t: {"lambda": "1", "h": [1]}),
        (["sandwich"], lambda t: {"left": [[E["e11"], E["e12"], E["e11"]]], "right": []}),
        (["sandwich"], lambda t: {"right": []}),
    ], ids=["number-body", "null-body", "array-body", "pairs-number", "pair-number",
            "pair-of-one", "pair-of-three", "inputs-number", "h-array", "sandwich-triple",
            "sandwich-no-left"])
    def test_malformed_body(self, capsys, tmp_path, argv, make_body):
        body = make_body(self.table())
        assert self.run_text(capsys, tmp_path, argv, json.dumps(body))["error"] == "input"

    @pytest.mark.parametrize("field, lam", [("R64", 1e300), ("C64", {"re": 1e300, "im": 1.0})])
    def test_float_lambda_whose_power_overflows(self, capsys, tmp_path, field, lam):
        argv = ["gen-map", "--field", field, "--k", "3"]
        body = self.run_text(capsys, tmp_path, argv, json.dumps({"lambda": lam}))
        assert body["error"] == "LambdaNotRootOfUnity"

    def unprintable_power(self, capsys, tmp_path, field, lam, k):
        """decompose-map on the probe table of A -> lam*A: exit 1, as for a printable power."""
        entries = preserver._theorem_form(field.coerce(lam), lambda A: 0, probe_set(field))
        path = tmp_path / "in.json"
        path.write_text(json.dumps(maptable_to_json(preserver.MapTable(field, k, entries))))
        assert main(["decompose-map", "--input", str(path)]) == 1
        assert capsys.readouterr().out == '{"power":null,"rejected":"lambda-not-root-of-unity"}\n'

    def test_float_table_whose_lambda_power_overflows(self, capsys, tmp_path):
        # lam**2 = 1e400 is inf, which strict JSON cannot print
        self.unprintable_power(capsys, tmp_path, FLOAT_R, 1e200, 1)

    def test_exact_table_whose_lambda_power_passes_the_print_limit(self, capsys, tmp_path):
        # lam**1001 = 10**10010 is under the size cap but past the 4,300-digit print limit
        self.unprintable_power(capsys, tmp_path, RATIONAL_Q, 10**10, 1000)

    @pytest.mark.parametrize("command", ["gen-map", "decompose-map"])
    def test_exact_lambda_whose_power_passes_the_size_cap(self, capsys, tmp_path, command):
        # lambda**1001, about 13 million bits, is never computed: a power past
        # the size cap is not 1, so lambda is refused as no root of unity
        lam = Fraction("7" * 4000)
        if command == "decompose-map":
            self.unprintable_power(capsys, tmp_path, RATIONAL_Q, lam, 1000)
            return
        text = json.dumps({"lambda": str(lam)})
        body = self.run_text(capsys, tmp_path, ["gen-map", "--k", "1000"], text)
        assert body == {"error": "LambdaNotRootOfUnity", "message": "lambda**(k+1) is not 1"}

    def test_spectral_discriminant_past_the_print_limit(self, capsys, tmp_path):
        text = json.dumps({"S": {"field": "Q", "entries": [["7" * 2500, "1"], ["0", "0"]]}})
        body = self.run_text(capsys, tmp_path, ["classify", "--lemma", "2.3-spectral"], text)
        assert body["error"] == "ResultTooLarge"

    def test_gen_map_without_inputs(self, capsys, tmp_path):
        text = json.dumps({"lambda": "1", "inputs": []})
        body = self.run_text(capsys, tmp_path, ["gen-map"], text)
        assert body == {"error": "InvalidOrder",
                        "message": "map table inputs must be an integer >= 1, got 0"}

    @pytest.mark.parametrize("field, part", [("Qi", {"re": True, "im": 0}),
                                             ("C64", {"re": "1", "im": "2"})],
                             ids=["Qi-boolean-part", "C64-string-parts"])
    def test_complex_scalar_part_of_the_wrong_kind(self, capsys, tmp_path, field, part):
        # a part follows the rule of the real scalar: Q refuses true, R64 refuses "1"
        text = json.dumps({"A": {"field": field, "entries": [[part, 0], [0, 1]]},
                           "B": {"field": field, "entries": [[1, 2], [3, 4]]}})
        assert self.run_text(capsys, tmp_path, ["kcomm"], text)["error"] == "input"

    def test_entries_not_an_array(self, capsys, tmp_path):
        text = json.dumps({"A": {"field": "Q", "entries": 5}, "B": E["e11"]})
        body = self.run_text(capsys, tmp_path, ["kcomm"], text)
        assert body == {"error": "input", "message": "matrix entries must be a 2x2 array, got 5"}

    def test_nan_scalar(self, capsys, tmp_path):
        text = ('{"A":{"field":"R64","entries":[[NaN,0.5],[0.0,1.0]]},'
                '"B":{"field":"R64","entries":[[1.0,0.0],[0.5,0.0]]}}')
        body = self.run_text(capsys, tmp_path, ["kcomm"], text)
        assert body == {"error": "input", "message": "bad scalar nan for field R64"}

    def test_negative_trials(self, capsys, tmp_path):
        body = self.run_text(capsys, tmp_path, ["campaign", "--k", "1", "--trials", "-1"], "")
        assert body == {"error": "InvalidOrder",
                        "message": "campaign trials must be an integer >= 0, got -1"}

    def test_negative_certifier_trials(self, capsys, tmp_path):
        text = json.dumps({"S": {"field": "Q", "entries": [["1", "0"], ["0", "1"]]}})
        body = self.run_text(capsys, tmp_path, ["classify", "--lemma", "2.3-kcomm", "--trials", "-1"], text)
        assert body == {"error": "InvalidOrder", "message": "trials must be an integer >= 0, got -1"}

    def test_boolean_table_order(self, capsys, tmp_path):
        text = self.table_text(lambda t: t.update(k=True))
        body = self.run_text(capsys, tmp_path, ["verify-map"], text)
        assert body == {"error": "input", "message": "map table k must be an integer, got True"}

    def test_duplicate_table_inputs(self, capsys, tmp_path):
        text = self.table_text(lambda t: t["entries"].append(t["entries"][2]))
        body = self.run_text(capsys, tmp_path, ["decompose-map"], text)
        assert body == {"error": "input", "message": "map table inputs must be pairwise distinct"}

    @pytest.mark.parametrize("argv, text", [
        (["classify", "--lemma", "2.2", "--tolerance", "nan"],
         '{"Z":{"field":"R64","entries":[[3.0,0.0],[0.0,3.0]]}}'),
        (["classify", "--lemma", "2.2", "--tolerance", "inf"],
         '{"Z":{"field":"R64","entries":[[3.0,1.0],[0.0,5.0]]}}'),
        (["campaign", "--field", "R64", "--tolerance", "nan"], ""),
        (["campaign", "--field", "Q", "--tolerance", "inf"], ""),
    ], ids=["classify-nan", "classify-inf", "campaign-R64-nan", "campaign-Q-inf"])
    def test_non_finite_tolerance(self, capsys, tmp_path, argv, text):
        body = self.run_text(capsys, tmp_path, argv, text)
        assert body["error"] == "input"
        assert body["message"].startswith("tolerance must be finite and >= 0")

    def test_trials_past_the_cap(self, capsys, tmp_path, monkeypatch):
        text = json.dumps({"S": {"field": "Q", "entries": [["0", "1"], ["-1", "0"]]}})
        argv = ["classify", "--lemma", "2.3-kcomm", "--trials", "1000000000"]
        assert self.run_text(capsys, tmp_path, argv, text)["error"] == "InvalidOrder"

        def no_trial(*args):
            raise RuntimeError("a trial ran")

        monkeypatch.setattr(preserver, "generate_map", no_trial)
        argv = ["campaign", "--k", "1", "--trials", "1000000000"]
        assert self.run_text(capsys, tmp_path, argv, "")["error"] == "InvalidOrder"

    @pytest.mark.parametrize("field", ["R64", "C64"])
    def test_float_overflow_never_prints_nan(self, capsys, tmp_path, field):
        text = json.dumps({"A": {"field": field, "entries": [[1e10, 1.0], [0.0, 1.0]]},
                           "B": {"field": field, "entries": [[1e10, 3.0], [1.0, 0.0]]}})
        body = self.run_text(capsys, tmp_path, ["kcomm", "--k", "201"], text)
        assert body == {"error": "ResultTooLarge", "message": f"discriminant**100 overflows {field}"}

    @pytest.mark.parametrize("k", [5, 6])
    def test_c64_nan_discriminant_power(self, capsys, tmp_path, k):
        # delta = 1e200 + 1e200j, whose square Python returns as nan+nanj
        z = {"re": 0.0, "im": 0.0}
        text = json.dumps({"A": {"field": "C64", "entries": [[{"re": 1.0, "im": 0.0}, z], [z, z]]},
                           "B": {"field": "C64", "entries": [[z, {"re": 1.0, "im": 0.0}],
                                                             [{"re": 2.5e199, "im": 2.5e199}, z]]}})
        body = self.run_text(capsys, tmp_path, ["kcomm", "--k", str(k)], text)
        assert body == {"error": "ResultTooLarge", "message": "discriminant**2 overflows C64"}

    def test_exact_result_too_large(self, capsys, tmp_path):
        text = json.dumps({"A": E["e12"], "B": {"field": "Q", "entries": [["3", "0"], ["0", "0"]]}})
        body = self.run_text(capsys, tmp_path, ["kcomm", "--k", "1000001"], text)
        assert body["error"] == "ResultTooLarge"

    # the reproducer: kcomm prints its answer up to k = 1998, and from k = 1999
    # on an entry has more digits than the interpreter prints
    _PAST_THE_LIMIT = json.dumps({"A": {"field": "Qi", "entries": [["1", "2"], ["3", "4"]]},
                                  "B": {"field": "Qi", "entries": [[{"re": "1/3", "im": "2/7"}, "2"],
                                                                   ["3", "5"]]}})

    @pytest.fixture
    def default_digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    _Q_PAST_THE_LIMIT = json.dumps({"A": {"field": "Q", "entries": [["1", "2"], ["3", "4"]]},
                                    "B": {"field": "Q", "entries": [["1/3", "2"], ["3", "5"]]}})

    def test_exact_result_past_the_print_limit(self, capsys, tmp_path, default_digit_limit):
        # under the kernel's size cap, but an entry has more than 4300 digits
        body = self.run_text(capsys, tmp_path, ["kcomm", "--k", "34001"], self._PAST_THE_LIMIT)
        assert body["error"] == "ResultTooLarge"
        assert body["message"].startswith("exact value too large to print")

    @pytest.mark.parametrize("text, k", [
        pytest.param(_PAST_THE_LIMIT, 3999, id="Qi-3999"),
        # at the kernel's power cap: the largest delta power MAX_POWER_BITS lets through
        pytest.param(_PAST_THE_LIMIT, 34953, id="Qi-34953"),
        pytest.param(_Q_PAST_THE_LIMIT, 58255, id="Q-58255"),
    ])
    def test_exact_result_refused_where_printed(self, capsys, tmp_path, default_digit_limit, text, k):
        # computed under MAX_POWER_BITS, then refused where it is printed
        body = self.run_text(capsys, tmp_path, ["kcomm", "--k", str(k)], text)
        assert body["error"] == "ResultTooLarge"
        assert body["message"].startswith("exact value too large to print")

    @pytest.mark.parametrize("field, b11, k", [
        (GAUSSIAN_QI, GaussianRational(Fraction(1, 3), Fraction(2, 7)), 34953),
        (RATIONAL_Q, Fraction(1, 3), 58255),
    ], ids=["Qi-34953", "Q-58255"])
    def test_cap_bracket_is_refused_without_a_large_gcd(self, monkeypatch, default_digit_limit,
                                                        field, b11, k):
        """A part whose reduced numerator has more digits than the limit, whatever its gcd
        with the denominator, is refused on bit lengths: printing the bracket at the
        power cap takes no gcd of two operands past 2**17 bits."""
        R = kcomm(Mat2(field, (1, 2, 3, 4)), Mat2(field, (b11, 2, 3, 5)), k)
        sizes, real_gcd = [], math.gcd

        def recorded_gcd(*args):
            sizes.append(sorted(abs(v).bit_length() for v in args))
            return real_gcd(*args)

        monkeypatch.setattr(math, "gcd", recorded_gcd)
        with pytest.raises(ResultTooLarge, match="exact value too large to print: Exceeds the limit"):
            mat_to_json(R)
        monkeypatch.undo()
        assert [s for s in sizes if len(s) > 1 and s[-2] > 1 << 17] == []

    def test_orders_1997_and_1998_print_and_1999_is_refused(self, capsys, tmp_path, default_digit_limit):
        # 1997 and 1998 both scale by delta**998, 1999 first by delta**999
        path = tmp_path / "in.json"
        path.write_text(self._PAST_THE_LIMIT)
        for k in ("1997", "1998"):
            assert main(["kcomm", "--k", k, "--input", str(path)]) == 0
            entries = json.loads(capsys.readouterr().out)["bracket"]["entries"]
            digits = [len(n.lstrip("-")) for row in entries for z in row for part in z.values()
                      for n in part.split("/")]
            assert 4200 < max(digits) <= 4300
        body = self.run_text(capsys, tmp_path, ["kcomm", "--k", "1999"], self._PAST_THE_LIMIT)
        assert body["error"] == "ResultTooLarge" and "Exceeds the limit" in body["message"]

    @pytest.mark.parametrize("argv", [
        ["kcomm", "--method", "closed"],
        ["kcomm", "--field", "Qi"],
        ["verify-map", "--seed", "1"],
        ["campaign", "--input", "in.json"],
        ["fixtures", "--input", "in.json"],
        ["fixtures", "--tolerance", "1e-3"],
        ["kcomm", "--k", "x"],
        ["classify"],
        ["no-such-command"],
    ], ids=" ".join)
    def test_usage_errors(self, capsys, argv):
        code = main(argv)
        body = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 2
        assert body["error"] == "input"

    def test_value_error_backstop(self, capsys, monkeypatch):
        # a handler whose body strict JSON cannot print: canonical_dumps raises ValueError
        _, *rest = cli._COMMANDS["fixtures"]
        monkeypatch.setitem(cli._COMMANDS, "fixtures", (lambda args: ({"x": float("nan")}, 0), *rest))
        assert main(["fixtures"]) == 2
        assert capsys.readouterr().out == (
            '{"error":"value","message":"Out of range float values are not JSON compliant"}\n')

    def test_missing_input_file(self, capsys, tmp_path):
        code = main(["kcomm", "--input", str(tmp_path / "missing.json")])
        body = json.loads(capsys.readouterr().out)
        assert (code, body["error"]) == (2, "io")

    def test_output_into_missing_directory(self, capsys, tmp_path):
        text = json.dumps({"A": E["e12"], "B": E["e11"]})
        argv = ["kcomm", "--output", str(tmp_path / "no-such-dir" / "out.json")]
        assert self.run_text(capsys, tmp_path, argv, text)["error"] == "io"

    @pytest.mark.parametrize("command", ["verify-map", "decompose-map", "gen-map", "fixtures"])
    def test_order_past_the_cap(self, capsys, tmp_path, monkeypatch, command):
        def no_bracket(*args, **kwargs):
            raise RuntimeError("a bracket ran")

        for module in (preserver, cli):
            monkeypatch.setattr(module, "kcomm_recursive", no_bracket)
        monkeypatch.setattr(preserver, "kcomm", no_bracket)
        k = str(MAX_ORDER + 1)
        if command == "fixtures":
            argv, text = ["fixtures", "--kmax", k], ""
        elif command == "gen-map":
            argv, text = ["gen-map", "--k", k], json.dumps({"lambda": "1"})
        else:
            argv, text = [command], self.table_text(lambda t: t.update(k=MAX_ORDER + 1))
        assert self.run_text(capsys, tmp_path, argv, text)["error"] == "InvalidOrder"

    @pytest.mark.parametrize("command", ["gen-map", "verify-map", "verify-map-pairs"])
    def test_table_size_past_the_cap(self, capsys, tmp_path, monkeypatch, command):
        def no_bracket(*args, **kwargs):
            raise RuntimeError("a bracket ran")

        monkeypatch.setattr(preserver, "kcomm_recursive", no_bracket)
        monkeypatch.setattr(preserver, "kcomm", no_bracket)
        cap = preserver.MAX_TABLE_INPUTS
        inputs = [{"field": "Q", "entries": [[str(n), "0"], ["0", "0"]]} for n in range(cap + 1)]
        if command == "gen-map":
            argv, body = ["gen-map"], {"lambda": "1", "inputs": inputs}
        elif command == "verify-map":
            argv, body = ["verify-map"], {"field": "Q", "k": 1,
                                          "entries": [{"in": m, "out": m} for m in inputs]}
        else:
            table = self.table()
            argv, body = ["verify-map"], {"table": table, "pairs": [[E["e11"]] * 2] * (cap**2 + 1)}
        text = json.dumps(body)
        assert self.run_text(capsys, tmp_path, argv, text)["error"] == "InvalidOrder"

    def test_table_size_refused_before_any_matrix_is_decoded(self, capsys, tmp_path, monkeypatch):
        def no_decode(*args, **kwargs):
            raise RuntimeError("a matrix was decoded")

        monkeypatch.setattr(cli.ser, "mat_from_json", no_decode)
        cap = preserver.MAX_TABLE_INPUTS
        table = {"field": "Q", "k": 1, "entries": [{"in": E["e11"], "out": E["e11"]}] * (cap + 1)}
        for command in ("verify-map", "decompose-map"):
            body = self.run_text(capsys, tmp_path, [command], json.dumps(table))
            assert body == {"error": "InvalidOrder",
                            "message": f"map table inputs must be at most {cap}, got {cap + 1}"}
        inputs = [E["e11"]] * (cap + 1)
        body = self.run_text(capsys, tmp_path, ["gen-map"], json.dumps({"lambda": "1", "inputs": inputs}))
        assert body == {"error": "InvalidOrder",
                        "message": f"map table inputs must be at most {cap}, got {cap + 1}"}
        table["entries"].pop()
        with pytest.raises(RuntimeError, match="decoded"):
            maptable_from_json(table)

    def test_exponent_past_the_print_limit(self, capsys, tmp_path):
        huge = {"field": "Q", "entries": [["1e1000000", "0"], ["0", "0"]]}
        text = json.dumps({"A": huge, "B": E["e12"]})
        body = self.run_text(capsys, tmp_path, ["kcomm"], text)
        assert body["error"] == "input" and "exponent" in body["message"]

    @pytest.mark.parametrize("trials, message", [
        (0, "bracket order must be at most 1000, got 5000"),
        (1, "bracket order must be at most 1000, got 5000"),
        (100, "bracket order must be at most 1000, got 5000"),
    ])
    def test_campaign_order_past_the_cap(self, capsys, tmp_path, monkeypatch, trials, message):
        def no_roots(*args):
            raise RuntimeError("the roots were listed")

        monkeypatch.setattr(preserver, "roots_of_unity", no_roots)
        argv = ["campaign", "--field", "C64", "--k", "5000", "--trials", str(trials)]
        body = self.run_text(capsys, tmp_path, argv, "")
        assert body == {"error": "InvalidOrder", "message": message}

    def test_canonical_dumps_refuses_non_finite(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                canonical_dumps({"x": value})


# The flags each subcommand reads, besides the --output path.
FLAGS = {
    "kcomm": {"--input", "--k"},
    "classify": {"--input", "--lemma", "--k", "--seed", "--trials", "--tolerance"},
    "sandwich": {"--input", "--mode", "--tolerance"},
    "gen-map": {"--input", "--field", "--tolerance", "--seed", "--k"},
    "verify-map": {"--input", "--tolerance"},
    "decompose-map": {"--input", "--tolerance"},
    "campaign": {"--field", "--tolerance", "--seed", "--trials", "--k"},
    "fixtures": {"--field", "--kmax"},
}


class TestParser:
    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert declared == {name: flags | {"--output"} for name, flags in FLAGS.items()}
        assert sum(len(flags) for flags in declared.values()) == 35

    def test_a_subcommand_builds_only_its_own_subparser(self):
        for name in FLAGS:
            (sub,) = [a for a in build_parser(name)._actions
                      if isinstance(a, argparse._SubParsersAction)]
            assert list(sub.choices) == [name]
        for first in (None, "-h", "no-such-command"):
            (sub,) = [a for a in build_parser(first)._actions
                      if isinstance(a, argparse._SubParsersAction)]
            assert list(sub.choices) == list(FLAGS)


# Help, usage errors and their exit codes; argparse's wording and layout vary
# with the Python minor version the pins were recorded under.
USAGE = json.loads((PINNED / "cli-usage.json").read_text())
_each_pin = pytest.mark.parametrize("pin", USAGE["responses"],
                                    ids=lambda pin: " ".join(pin["argv"]) or "none")


def _usage_response(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
    return code, capsys.readouterr().out


class TestUsage:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @_each_pin
    def test_response_is_pinned(self, capsys, pin):
        if "%d.%d" % sys.version_info[:2] != USAGE["python"]:
            pytest.skip(f"pinned under Python {USAGE['python']}")
        assert _usage_response(capsys, pin["argv"]) == (pin["code"], pin["stdout"])

    @_each_pin
    def test_response_is_the_full_parsers(self, capsys, monkeypatch, pin):
        got = _usage_response(capsys, pin["argv"])
        full = build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == _usage_response(capsys, pin["argv"])


class TestTolerance:
    """--tolerance reaches the matrices read from input."""

    NEAR_SCALAR = {"Z": {"field": "R64", "entries": [[1.0, 1e-7], [0.0, 1.0]]}}
    EYE = {"field": "R64", "entries": [[1.0, 0.0], [0.0, 1.0]]}
    NEAR_EYE = {"field": "R64", "entries": [[1.0 + 1e-7, 0.0], [0.0, 1.0]]}

    @pytest.mark.parametrize("flags, code", [([], 1), (["--tolerance", "1e-3"], 0)])
    def test_classify(self, capsys, tmp_path, flags, code):
        argv = ["classify", "--lemma", "2.2", "--k", "1"] + flags
        got, out = run_cli(capsys, argv, self.NEAR_SCALAR, tmp_path=tmp_path)
        assert (got, out["holds"]) == (code, code == 0)

    @pytest.mark.parametrize("flags, code", [([], 1), (["--tolerance", "1e-3"], 0)])
    def test_sandwich(self, capsys, tmp_path, flags, code):
        system = {"left": [[self.EYE, self.EYE]], "right": [[self.NEAR_EYE, self.EYE]]}
        got, out = run_cli(capsys, ["sandwich"] + flags, system, tmp_path=tmp_path)
        assert (got, out["identity"]) == (code, code == 0)


# The names ``kcomm2`` exported when it still imported every submodule eagerly.
PACKAGE_NAMES = [
    "Coefficients", "Decomposition", "FLOAT_C", "FLOAT_R", "FieldTag", "GAUSSIAN_QI",
    "GaussianRational", "MapTable", "Mat2", "NotAnIdentity", "RATIONAL_Q", "RankOneFactor",
    "SandwichSystem", "SpectralSplit", "Verdict", "brackets", "classify", "decompose", "errors",
    "fields", "generate_map", "kcomm", "kcomm_closed", "kcomm_eigenpair", "kcomm_recursive",
    "matrices", "matrix_units", "outer", "preserver", "probe_campaign", "probe_set", "randgen",
    "rank_one_factor", "rank_one_identity_solve", "roots_of_unity", "sandwich_operator",
    "scalar_plus_nilpotent_kcomm", "scalar_plus_nilpotent_spectral", "scalar_witness_test",
    "verify_preserving",
]

# What every subcommand loads: the parser, the codec and the bracket kernel.
_CORE = {"kcomm2", "kcomm2.brackets", "kcomm2.cli", "kcomm2.errors", "kcomm2.fields",
         "kcomm2.matrices", "kcomm2.serialize"}
_PRESERVER = _CORE | {"kcomm2.preserver", "kcomm2.randgen"}
_CHILD = ("import json, sys\n"
          "from kcomm2 import cli\n"
          "code = cli.main(sys.argv[1:])\n"
          "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('kcomm2', 'dataclasses'))\n"
          "print(json.dumps([code, loaded]))\n")


def _valid_table():
    return maptable_to_json(generate_map(Fraction(1), h_det, probe_set(RATIONAL_Q), 1))


class TestColdStart:
    """A fresh interpreter loads only the modules its subcommand runs."""

    @pytest.mark.parametrize("argv, body, loaded", [
        (["kcomm"], {"A": E["e12"], "B": E["e11"]}, _CORE),
        (["classify", "--lemma", "2.2"], {"Z": _q([["2", "0"], ["0", "2"]])},
         _CORE | {"kcomm2.classify", "kcomm2.randgen"}),
        (["sandwich"], {"left": [[E["e11"], E["e12"]]], "right": [[E["e11"], E["e12"]]]},
         _CORE | {"kcomm2.classify", "kcomm2.randgen"}),
        (["gen-map"], {"lambda": "1"}, _PRESERVER),
        (["verify-map"], _valid_table(), _PRESERVER),
        (["decompose-map"], _valid_table(), _PRESERVER),
        (["campaign", "--k", "1", "--trials", "2"], {}, _PRESERVER),
        (["fixtures", "--kmax", "1"], {}, _CORE | {"kcomm2.identities"}),
    ], ids=["kcomm", "classify", "sandwich", "gen-map", "verify-map", "decompose-map", "campaign",
            "fixtures"])
    def test_subcommand_loads_only_its_modules(self, argv, body, loaded):
        src = str(Path(kcomm2.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", _CHILD, *argv], input=json.dumps(body),
                             capture_output=True, text=True, env=env, timeout=60, check=True)
        code, modules = json.loads(out.stdout.splitlines()[-1])
        assert code == 0
        assert set(modules) == loaded  # and never dataclasses

    def test_package_names(self):
        assert kcomm2.__all__ == PACKAGE_NAMES
        namespace = {}
        exec("from kcomm2 import *", namespace)
        for name in PACKAGE_NAMES:
            assert namespace[name] is getattr(kcomm2, name)
        assert kcomm2.Mat2 is Mat2 and kcomm2.decompose is preserver.decompose
        with pytest.raises(AttributeError):
            kcomm2.no_such_name

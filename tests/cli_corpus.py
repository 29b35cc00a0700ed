"""The CLI byte-identity corpus: (argv, stdin, exit code, sha256 of stdout) per request.

The requests are the benchmark's ``cli_ops`` mix for seeds 1-3 (five blocks
each, so every one of the ten hostile kinds three times), ``fixtures --kmax 50``
and ``campaign --trials 12`` at k in {1, 2, 3, 6, 12} on the four fields, and
then this file's own R64 and C64 requests for the subcommands the mix sends
only exact bodies to (``float_requests``) and its Q and Qi sandwich requests
with fractional entries, which the mix's integer systems lack
(``exact_sandwich_requests``).
``tests/test_cli_corpus.py`` replays them through ``cli.main``.  Float bodies
that go through ``pow`` depend on the C library, and usage errors on the
Python version, so the corpus records the platform it was made on.

A change that alters a body on purpose records the corpus again:

    python tests/cli_corpus.py

and lists each changed body in ``CHANGES.md``.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path
from random import Random
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "pinned" / "cli-corpus.json"
FIELDS = ("Q", "Qi", "R64", "C64")


def this_platform() -> dict:
    return {"python": platform.python_version(), "system": platform.system(),
            "machine": platform.machine(), "libc": " ".join(platform.libc_ver())}


def run(argv, stdin: str):
    """``cli.main`` with stdin as a process gets it (bytes behind ``.buffer``):
    (exit code, stdout)."""
    from kcomm2 import cli

    data = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8", "surrogateescape")), encoding="utf-8")
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", data), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8", "surrogateescape")).hexdigest()


def requests():
    """(label, argv, stdin) of every request, built by the benchmark's generators."""
    sys.path.insert(0, str(ROOT / "bench"))
    import families

    for seed in (1, 2, 3):
        for op in families.cli_ops(Random(f"kcomm2-bench/cli/{seed}"), 5):
            argv, stdin = op.args
            yield op.label, list(argv), stdin
    for field in FIELDS:
        yield "fixtures", ["fixtures", "--field", field, "--kmax", "50"], ""
        for k in (1, 2, 3, 6, 12):
            yield "campaign", ["campaign", "--field", field, "--k", str(k), "--trials", "12",
                               "--seed", "0"], ""
    yield from float_requests()
    yield from exact_sandwich_requests()


def _enc(x):
    return {"re": x.real, "im": x.imag} if isinstance(x, complex) else x


def _mat(field, e):
    """Matrix JSON of the row-major entries e."""
    return {"field": field, "entries": [[_enc(e[0]), _enc(e[1])], [_enc(e[2]), _enc(e[3])]]}


def _times(w, e):
    return tuple(w * x for x in e)


def _plus(e, f):
    return tuple(x + y for x, y in zip(e, f))


# E11, E22, E12, E21, E11 + E12 and E12 + E21: the inputs decompose needs
PROBES = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
          (0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0))


def _table(field, k, inputs, lam=1.0, h="trace"):
    """Map table JSON of A -> lam*A + h(A)*I, h the trace or zero, in float arithmetic."""
    kind = complex if field == "C64" else float
    entries = []
    for a in inputs:
        a = tuple(kind(x) for x in a)
        s = a[0] + a[3] if h == "trace" else kind(0)
        out = (lam * a[0] + s, lam * a[1], lam * a[2], lam * a[3] + s)
        entries.append({"in": _mat(field, a), "out": _mat(field, out)})
    return {"field": field, "k": k, "entries": entries}


def _tweak(table, i, f):
    """The table with the (1,2) entry of output i replaced by f of it."""
    out = json.loads(json.dumps(table))
    row = out["entries"][i]["out"]["entries"][0]
    x = row[1]
    row[1] = _enc(f(complex(x["re"], x["im"]) if isinstance(x, dict) else x))
    return out


def float_requests():
    """(label, argv, stdin) of R64 and C64 requests for classify, sandwich, gen-map,
    verify-map and decompose-map, written out here: the inputs whose float verdicts
    depend on scale, order or rounding, so that a change to any of them shows."""
    for field in ("R64", "C64"):
        w = 1.0 if field == "R64" else 0.5 + 1j  # C64 takes each input times w
        scalar, split, generic = (2.5, 0.0, 0.0, 2.5), (2.0, 1.0, 0.0, 2.0), (1.0, 2.0, 3.0, -4.0)
        for name, Z in (("scalar", scalar), ("split", split), ("generic", generic)):
            for k in ("1", "4"):
                yield (f"classify.2.2.{field}", ["classify", "--lemma", "2.2", "--k", k],
                       json.dumps({"Z": _mat(field, _times(w, Z))}))
        # diag(1e-5, 0) is a small rank-one matrix: its verdict must not differ from diag(1, 0)'s
        small, unit, large = (1e-5, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1e5, 0.0, 0.0, 0.0)
        for S in (scalar, split, generic, small, unit, large):
            body = json.dumps({"S": _mat(field, _times(w, S))})
            yield f"classify.2.3-spectral.{field}", ["classify", "--lemma", "2.3-spectral"], body
            for k in ("3", "4"):
                yield (f"classify.2.3-kcomm.{field}",
                       ["classify", "--lemma", "2.3-kcomm", "--k", k, "--seed", "1"], body)
        # B_i = sum_j c_ij D_j and C_j = sum_i c_ij A_i make an identity; the second
        # components scaled by 2**j keep it, and E12 added to D_1 breaks it
        A = (_times(w, (1.0, 2.0, 3.0, 4.0)), _times(w, (0.0, 1.0, 1.0, 1.0)))
        D = ((2.0, 0.0, 1.0, 1.0), (1.0, -1.0, 0.0, 3.0))
        c = ((1.5, -2.0), (0.5, 3.0))
        B = [_plus(_times(c[i][0], D[0]), _times(c[i][1], D[1])) for i in range(2)]
        C = [_plus(_times(c[0][j], A[0]), _times(c[1][j], A[1])) for j in range(2)]
        for j, perturb in ((0, False), (40, False), (-30, False), (0, True)):
            Dj = (_plus(D[0], (0.0, 1.0, 0.0, 0.0)) if perturb else D[0], D[1])
            body = {"left": [[_mat(field, A[i]), _mat(field, _times(2.0 ** j, B[i]))] for i in range(2)],
                    "right": [[_mat(field, C[i]), _mat(field, _times(2.0 ** j, Dj[i]))] for i in range(2)]}
            yield f"sandwich.{field}", ["sandwich"], json.dumps(body)
        lam = 1.0 if field == "R64" else 1j  # a fourth root of unity, for k = 3
        yield (f"gen-map.{field}", ["gen-map", "--field", field, "--k", "3"],
               json.dumps({"lambda": _enc(lam), "h": "trace"}))
        yield (f"gen-map.{field}", ["gen-map", "--field", field, "--k", "1", "--seed", "5"],
               json.dumps({"lambda": -1.0, "h": "random", "inputs": [_mat(field, _times(w, generic))]}))
        # a valid probe table, and impostors whose failing pair prints even-order brackets
        valid = _table(field, 3, PROBES, lam)
        yield f"verify-map.{field}", ["verify-map"], json.dumps(valid)
        for k in (4, 12):
            yield f"verify-map.{field}", ["verify-map"], json.dumps(_tweak(_table(field, k, PROBES), 2, lambda x: 2 * x))
        yield f"decompose-map.{field}", ["decompose-map"], json.dumps(valid)
        yield (f"decompose-map.{field}", ["decompose-map"],
               json.dumps(_table(field, 3, PROBES, 2.0 * lam)))
    # inputs near s*I, s = 1e6: the table is valid, and exact arithmetic preserves it
    near = [_plus((1e6, 0.0, 0.0, 1e6), P) for P in ((0.3, 2.7, -1.9, 0.45), (1.3, -0.7, 2.1, 0.9))]
    for k in (1, 3):
        yield "verify-map.R64", ["verify-map"], json.dumps(_table("R64", k, near))
    # inputs near scalar plus square-zero, valid and with one output's (1,2) entry times 1.0001
    degenerate = ((1.0, 1.0, 1e-7, 1.0), (0.25, 1.0, -1e-6, 0.25), (2.0, 0.5, 0.0, 2.0))
    for k in (3, 13):
        table = _table("R64", k, degenerate)
        yield "verify-map.R64", ["verify-map"], json.dumps(table)
        yield "verify-map.R64", ["verify-map"], json.dumps(_tweak(table, 0, lambda x: 1.0001 * x))
    # a probe table with 5e-10 added to the (1,2) entry of one output, below the tolerance
    table = _table("R64", 3, PROBES, h="zero")
    for i in range(len(PROBES)):
        yield "decompose-map.R64", ["decompose-map"], json.dumps(_tweak(table, i, lambda x: x + 5e-10))


def exact_sandwich_requests():
    """(label, argv, stdin) of Q and Qi sandwich requests whose entries are fractions
    of unequal denominators, one for each way the solver ends: solved in auto,
    b-in-d and a-in-c mode, solved on a dependent span, SingularSystem (exit 2)
    and a broken identity (exit 1)."""
    from fractions import Fraction as F

    from kcomm2 import FieldTag, Mat2
    from kcomm2.fields import GaussianRational
    from kcomm2.serialize import mat_to_json

    for variant in ("Q", "Qi"):
        f = FieldTag(variant)
        w, s = (f.one(), f.one()) if variant == "Q" else (GaussianRational(F(2, 3), F(-1, 5)),
                                                          GaussianRational(1, F(-1, 2)))

        def mat(*e):  # over Qi every input is times w, so entries are not real
            return Mat2(f, e).scale(w)

        def comb(cs, Ms):
            return Ms[0].scale(cs[0]) + Ms[1].scale(cs[1])

        def request(left, right, *argv):
            body = {side: [[mat_to_json(X), mat_to_json(Y)] for X, Y in pairs]
                    for side, pairs in (("left", left), ("right", right))}
            return f"sandwich.{variant}.fractions", ["sandwich", *argv], json.dumps(body)

        # B_i = sum_j c_ij D_j and C_j = sum_i c_ij A_i make an identity; over Qi two
        # of the c_ij are not real
        A = (mat(F(1, 2), 2, F(-3, 7), 1), mat(0, F(5, 3), 1, F(1, 4)))
        D = (mat(2, F(-1, 6), 1, F(3, 5)), mat(F(7, 9), -1, 0, 3))
        c = ((f.coerce(F(3, 2)), s * F(-2, 7)), (s * F(1, 5), f.coerce(3)))
        B = [comb(c[i], D) for i in range(2)]
        C = [comb((c[0][j], c[1][j]), A) for j in range(2)]
        yield request(list(zip(A, B)), list(zip(C, D)))
        yield request(list(zip(C, D)), list(zip(A, B)), "--mode", "b-in-d")
        # left first components G/3 and 5G/4 are dependent, so b-in-d has no hypothesis
        G, q = A[1], (F(1, 3), F(5, 4))
        yield request([(G.scale(q[0]), D[0]), (G.scale(q[1]), D[1])], [(G, comb(q, D))],
                      "--mode", "a-in-c")
        # D_2 = 4/11 D_1: the span is dependent and its free coefficient is zero
        Dd = (D[0], D[0].scale(F(4, 11)))
        yield request([(A[i], comb(c[i], Dd)) for i in range(2)], list(zip(C, Dd)))
        # both members of the left side are dependent: neither mode applies
        yield request([(A[0], D[0]), (A[0].scale(F(2, 3)), D[0].scale(F(5, 7)))],
                      [(A[0], D[0].scale(F(31, 21)))])
        # E12/3 added to D_1 breaks the identity
        broken = (D[0] + Mat2(f, (0, F(1, 3), 0, 0)), D[1])
        yield request(list(zip(A, B)), list(zip(C, broken)))


def record() -> None:
    entries = []
    for label, argv, stdin in requests():
        code, out = run(argv, stdin)
        entries.append({"label": label, "argv": argv, "stdin": stdin, "exit": code,
                        "stdout_sha256": digest(out)})
    lines = [json.dumps(entry, separators=(",", ":")) for entry in entries]  # one request a line
    CORPUS.write_text('{"platform":%s,\n"requests":[\n%s\n]}\n'
                      % (json.dumps(this_platform()), ",\n".join(lines)))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record()

"""The three operation families the workloads are built from.

Each family has an input generator (seeded, deterministic), a runner that calls
the public API of ``kcomm2`` for one operation (``harness.py`` times it), and
a checker that compares every answer with an exact reference outside the
timed region:

- ``kernel``: ``brackets.kcomm(A, B, k, method="auto")`` on distinct pairs
  over Q, Qi, R64 and C64 at k in {1, 3, 12, 64}; the reference is the exact
  bracket of ``reference.py`` (floats are lifted exactly).
- ``verdicts``: ``probe_campaign``, the three structure classifiers and
  ``rank_one_identity_solve`` over Q and Qi at low k; references are the
  scalar and discriminant tests computed here and reassembly of the solver's
  coefficients.

Every reference, and every input whose correctness matters (identity
systems, scalar-plus-nilpotent matrices, map tables), is computed with the
plain exact arithmetic of ``reference.py``, never with ``Mat2`` or the field
scalars under test.
- ``cli``: ``python -m kcomm2.cli`` requests, one child process at a time;
  the expected exit code comes from the documented contract (0 holds,
  1 falsified/rejected with a JSON body, 2 input error with a JSON error),
  never from what the program happens to do.

The library is always reached through module attributes (``brackets.kcomm``
and not a name imported from it), so that the tracer's wrappers and the
tests' stubs are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random

import reference as ref
from kcomm2 import brackets, classify, cli, preserver, serialize
from kcomm2.errors import Kcomm2Error
from kcomm2.fields import FLOAT_C, FLOAT_R, GAUSSIAN_QI, RATIONAL_Q, GaussianRational
from kcomm2.matrices import Mat2

FIELDS = {"Q": RATIONAL_Q, "Qi": GAUSSIAN_QI, "R64": FLOAT_R, "C64": FLOAT_C}
KERNEL_KS = (1, 3, 12, 64)
FLOAT_REL_TOL = 1e-9
CHILD_TIMEOUT_S = 60
# Failures present at seed: counted in ``failed`` like any other, but they do
# not make a run incorrect.  The ``auto`` bracket loses float accuracy at high
# k (its alternating binomial sum cancels), and five hostile CLI inputs break
# the exit-code contract.  A failure under any other key does.
KNOWN_SEED_DEFECTS = frozenset(
    [f"kernel.{v}.k{k}" for v in ("R64", "C64") for k in (12, 64)]
    + ["cli.kcomm.R64.k12"]
    + [f"cli.hostile.{kind}" for kind in ("entries_int", "nan_scalar", "trials_negative",
                                          "k_true", "duplicate_inputs")])


@dataclass
class Op:
    """One operation: what to call, its inputs, and what to check afterwards."""

    family: str
    kind: str  # the metric group: "exact"/"float", "campaign"/"classify"/"sandwich", a subcommand
    label: str  # finer grouping for the failure breakdown
    args: tuple
    weight: int = 1  # operations it stands for (a campaign stands for its trials)
    expect: object = None  # data the checker needs


@dataclass
class Timed:
    op: Op
    seconds: float
    result: object
    error: BaseException | None = None


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    failures: dict = dc_field(default_factory=dict)

    def add(self, op: Op, bad: int):
        self.attempted += op.weight
        if bad:
            self.failed += bad
            key = f"{op.family}.{op.label}"
            self.failures[key] = self.failures.get(key, 0) + bad


# -- scalars and matrices ------------------------------------------------------


def _rational(rng: Random, fractional: bool) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4, 5, 7)) if fractional else 1)


def random_scalar(variant: str, rng: Random, fractional: bool = False):
    if variant == "Q":
        return _rational(rng, fractional)
    if variant == "Qi":
        return GaussianRational(_rational(rng, fractional), _rational(rng, fractional))
    if variant == "R64":
        return rng.uniform(-1.0, 1.0)
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def random_mat(variant: str, rng: Random, fractional: bool = False) -> Mat2:
    return Mat2(FIELDS[variant], tuple(random_scalar(variant, rng, fractional) for _ in range(4)))


def _scalar_plus_nilpotent(variant: str, rng: Random) -> Mat2:
    """lam*I + N with N = [[ab, -a^2], [b^2, -ab]], which squares to zero."""
    lam, a, b = (ref.of_scalar(variant, random_scalar(variant, rng)) for _ in range(3))
    return ref.to_mat(FIELDS[variant], (lam + a * b, -(a * a), b * b, lam - a * b))


# -- kernel family -------------------------------------------------------------


def kernel_ops(rng: Random, blocks: int, seen: set) -> list:
    """Blocks of 32 distinct pairs: 2 per (field, k); exact pairs are one
    integer and one fractional.  ``seen`` is shared across calls so that no
    pair repeats anywhere in a run (warm-up included)."""
    ops = []
    for _ in range(blocks):
        block = []
        for variant in FIELDS:
            exact = variant in ("Q", "Qi")
            for k in KERNEL_KS:
                for fractional in (False, True):
                    while True:
                        A = random_mat(variant, rng, fractional and exact)
                        B = random_mat(variant, rng, fractional and exact)
                        key = (variant, A.entries, B.entries, k)
                        if key not in seen:
                            break
                    seen.add(key)
                    block.append(Op("kernel", "exact" if exact else "float",
                                    f"{variant}.k{k}", (A, B, k)))
        rng.shuffle(block)
        ops.extend(block)
    return ops


def run_kernel_op(op: Op):
    A, B, k = op.args
    return brackets.kcomm(A, B, k, method="auto")


def bracket_ok(A: Mat2, B: Mat2, k: int, R) -> bool:
    """Exact fields: equal to the exact reference bracket.  Float fields: within
    FLOAT_REL_TOL of the exact bracket's largest entry."""
    if not isinstance(R, Mat2) or R.field.variant != A.field.variant:
        return False
    if A.field.is_exact:
        return ref.of_mat(R) == ref.bracket(ref.of_mat(A), ref.of_mat(B), k)
    want = ref.float_bracket(A, B, k)
    scale = max(abs(r) for r in want)
    err = max(abs(complex(x) - r) for x, r in zip(R.entries, want))
    return err <= FLOAT_REL_TOL * scale


def check_kernel(t: Timed) -> int:
    A, B, k = t.op.args
    return 0 if t.error is None and bracket_ok(A, B, k, t.result) else 1


# -- verdicts family -----------------------------------------------------------

CAMPAIGN_KS = (1, 3, 6)
CAMPAIGN_TRIALS = 4
# classifier and solver calls are ~100x cheaper than a campaign trial; repeat
# them so that their rates rest on enough samples
CHEAP_REPEATS = 3


def _independent_pair(variant: str, rng: Random) -> list:
    """Two reference matrices whose vectorisations are linearly independent."""
    while True:
        X, Y = (ref.of_mat(random_mat(variant, rng)) for _ in range(2))
        if ref.independent(X, Y):
            return [X, Y]


def sandwich_system(variant: str, rng: Random, perturb: bool) -> classify.SandwichSystem:
    """Identity by construction: B_i = sum_j c_ij D_j and C_j = sum_i c_ij A_i.

    The perturbed variant adds E_12 to D_1, which breaks the identity because
    C_1 is nonzero (checked)."""
    A = _independent_pair(variant, rng)
    D = _independent_pair(variant, rng)
    while True:
        c = [[ref.of_scalar(variant, random_scalar(variant, rng)) for _ in range(2)] for _ in range(2)]
        C = [ref.combine(A, [c[0][j], c[1][j]]) for j in range(2)]
        if not ref.is_zero(C[0]):
            break
    B = [ref.combine(D, row) for row in c]
    if perturb:
        D = [ref.add(D[0], (0, 1, 0, 0)), D[1]]
    f = FIELDS[variant]
    left = [(ref.to_mat(f, X), ref.to_mat(f, Y)) for X, Y in zip(A, B)]
    right = [(ref.to_mat(f, X), ref.to_mat(f, Y)) for X, Y in zip(C, D)]
    return classify.SandwichSystem(left=left, right=right)


def verdict_ops(rng: Random, blocks: int) -> list:
    ops = []
    for _ in range(blocks):
        for variant in ("Q", "Qi"):
            f = FIELDS[variant]
            for k in CAMPAIGN_KS:
                ops.append(Op("verdicts", "campaign", f"campaign.{variant}.k{k}",
                              (k, f, CAMPAIGN_TRIALS, rng.randrange(1 << 30)),
                              weight=CAMPAIGN_TRIALS))
            for _ in range(CHEAP_REPEATS):
                for k in range(1, 7):
                    if k % 3 == 1:
                        c = random_scalar(variant, rng)
                        Z = Mat2(f, (c, f.zero(), f.zero(), c))
                    else:
                        Z = random_mat(variant, rng)
                    ops.append(Op("verdicts", "classify", "witness", (Z, k)))
                for k in (3, 4, 5):
                    S = _scalar_plus_nilpotent(variant, rng) if k == 3 else random_mat(variant, rng)
                    ops.append(Op("verdicts", "classify", "spn_kcomm", (S, k, rng.randrange(1 << 30))))
                for i in range(3):
                    S = _scalar_plus_nilpotent(variant, rng) if i == 0 else random_mat(variant, rng)
                    ops.append(Op("verdicts", "classify", "spectral", (S,)))
                for perturb in (False, False, True):
                    ops.append(Op("verdicts", "sandwich", "perturbed" if perturb else "identity",
                                  (sandwich_system(variant, rng, perturb),), expect=perturb))
    rng.shuffle(ops)
    return ops


def run_verdict_op(op: Op):
    if op.kind == "campaign":
        return preserver.probe_campaign(*op.args)
    if op.kind == "sandwich":
        return classify.rank_one_identity_solve(op.args[0])
    if op.label == "witness":
        return classify.scalar_witness_test(*op.args)
    if op.label == "spn_kcomm":
        S, k, seed = op.args
        return classify.scalar_plus_nilpotent_kcomm(S, k, seed=seed)
    return classify.scalar_plus_nilpotent_spectral(*op.args)


def _sandwich_value(pairs, T) -> tuple:
    """sum X T Y over the pairs, on reference tuples."""
    acc = (0, 0, 0, 0)
    for X, Y in pairs:
        acc = ref.add(acc, ref.mul(ref.mul(ref.of_mat(X), T), ref.of_mat(Y)))
    return acc


def _verdict_ok(op: Op, r) -> bool:
    if op.label == "witness":
        Z, k = op.args
        if r.holds != ref.is_scalar(ref.of_mat(Z)):
            return False
        detail = ref.of_mat(r.detail) if not r.holds else None
        return r.holds or (not ref.is_zero(detail)
                           and detail == ref.bracket(ref.of_mat(Z), ref.of_mat(r.witness), k))
    if op.label == "spn_kcomm":
        S, k, _ = op.args
        if r.holds != (ref.discriminant(ref.of_mat(S)) == 0):
            return False
        detail = ref.of_mat(r.detail) if not r.holds else None
        return r.holds or (not ref.is_zero(detail)
                           and detail == ref.bracket(ref.of_mat(r.witness), ref.of_mat(S), k))
    (S,) = op.args
    variant = S.field.variant
    disc = ref.discriminant(ref.of_mat(S))
    if r.holds != (disc == 0) or ref.of_scalar(variant, r.discriminant) != disc:
        return False
    if not r.holds:
        return True
    return _split_ok(S, ref.of_scalar(variant, r.split.lam), r.split.nilpotent)


def _split_ok(S: Mat2, lam, N: Mat2) -> bool:
    """S = lam*I + N with N^2 = 0 (lam a reference scalar)."""
    n = ref.of_mat(N)
    return ref.add(ref.scalar_matrix(lam), n) == ref.of_mat(S) and ref.is_zero(ref.mul(n, n))


def _sandwich_ok(system, perturbed: bool, r) -> bool:
    if perturbed:  # must be refuted with a rank-one witness
        if not isinstance(r, classify.NotAnIdentity):
            return False
        W = ref.of_mat(r.witness)
        left, right = ref.of_mat(r.left_value), ref.of_mat(r.right_value)
        return (not ref.is_zero(W) and ref.det(W) == 0
                and left == _sandwich_value(system.left, W)
                and right == _sandwich_value(system.right, W)
                and left != right)
    if not isinstance(r, classify.Coefficients) or len(r.coeffs) != len(system.left):
        return False
    if r.mode == "b-in-d":
        targets = [B for _, B in system.left]
        span = [D for _, D in system.right]
    elif r.mode == "a-in-c":
        targets = [A for A, _ in system.left]
        span = [C for C, _ in system.right]
    else:
        return False
    variant = targets[0].field.variant
    span = [ref.of_mat(M) for M in span]
    return all(ref.combine(span, [ref.of_scalar(variant, c) for c in row]) == ref.of_mat(t)
               for t, row in zip(targets, r.coeffs))


def check_verdict(t: Timed) -> int:
    op, r = t.op, t.result
    if op.kind == "campaign":
        if t.error is not None or r.trials != op.weight:
            return op.weight
        return max(op.weight - (r.valid_ok + r.perturbed_rejected), len(r.anomalies))
    if t.error is not None:
        return 1
    try:
        ok = _sandwich_ok(op.args[0], op.expect, r) if op.kind == "sandwich" else _verdict_ok(op, r)
    except (AttributeError, TypeError, ValueError):
        ok = False
    return 0 if ok else 1


# -- cli family ----------------------------------------------------------------

# Hostile requests, one JSON-input flaw each; the contract says exit 2 with a
# JSON error for every one of them.
HOSTILE_KINDS = ("entries_int", "nan_scalar", "trials_negative", "k_true", "duplicate_inputs",
                 "bad_json", "unknown_field", "bad_shape", "negative_k", "missing_key")


def _enc(M: Mat2) -> dict:
    return serialize.mat_to_json(M)


# The probe set a map table must cover (preserver.probe_set): E11, E22, E12,
# E21, E11 + E12, E12 + E21.
PROBES = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0))


def _table_json(variant: str, k: int, lam, h_name: str) -> tuple:
    """Map table A -> lam*A + h(A)*I over the probe set, built here, and the
    body ``decompose-map`` must return for it (lam a kcomm2 scalar)."""
    f = FIELDS[variant]
    lam_ref = ref.of_scalar(variant, lam)
    h = {"zero": lambda A: 0, "trace": ref.trace, "det": ref.det}[h_name]

    def out(A):
        return ref.add(ref.scale(lam_ref, A), ref.scalar_matrix(h(A)))

    entries = [{"in": _enc(ref.to_mat(f, A)), "out": _enc(ref.to_mat(f, out(A)))} for A in PROBES]
    decomposition = {"h": [{"in": _enc(ref.to_mat(f, A)), "value": f.encode(ref.to_scalar(f, h(A)))}
                           for A in PROBES],
                     "lambda": f.encode(lam), "verified_pairs": len(PROBES) ** 2}
    return {"entries": entries, "field": variant, "k": k}, decomposition


def _hostile(kind: str, rng: Random):
    A, B = random_mat("Q", rng), random_mat("Q", rng)
    pair = {"A": _enc(A), "B": _enc(B)}
    if kind == "entries_int":
        return ["kcomm"], json.dumps({"A": {"field": "Q", "entries": 5}, "B": _enc(B)})
    if kind == "nan_scalar":
        x = rng.uniform(-1.0, 1.0)
        return ["kcomm"], ('{"A":{"field":"R64","entries":[[NaN,%r],[0.0,1.0]]},'
                           '"B":{"field":"R64","entries":[[1.0,0.0],[%r,0.0]]}}' % (x, x))
    if kind == "trials_negative":
        return ["campaign", "--field", "Q", "--k", "1", "--trials", "-1",
                "--seed", str(rng.randrange(1000))], ""
    if kind == "k_true":
        table, _ = _table_json("Q", 1, Fraction(1), "trace")
        table["k"] = True
        return ["verify-map"], json.dumps(table)
    if kind == "duplicate_inputs":
        table, _ = _table_json("Q", 1, Fraction(1), "det")
        table["entries"].append(table["entries"][rng.randrange(6)])
        return ["decompose-map"], json.dumps(table)
    if kind == "bad_json":
        return ["kcomm"], json.dumps(pair)[:-rng.randint(2, 9)]
    if kind == "unknown_field":
        pair["A"]["field"] = "F7"
        return ["kcomm"], json.dumps(pair)
    if kind == "bad_shape":
        pair["B"]["entries"] = [["1", "2", "3"], ["4", "5"]]
        return ["kcomm"], json.dumps(pair)
    if kind == "negative_k":
        return ["kcomm", "--k", str(-rng.randint(1, 5))], json.dumps(pair)
    return ["classify", "--lemma", "2.2"], json.dumps({"S": _enc(A)})


def _root_of_unity(variant: str, k: int, rng: Random):
    """A (k+1)-th root of unity inside Q or Qi."""
    roots = [1] + ([-1] if (k + 1) % 2 == 0 else [])
    if variant == "Qi" and (k + 1) % 4 == 0:
        roots += [GaussianRational(0, 1), GaussianRational(0, -1)]
    return FIELDS[variant].coerce(rng.choice(roots))


def cli_ops(rng: Random, blocks: int) -> list:
    """Blocks of 20 requests with a fixed composition (seeded contents)."""
    ops = []

    def req(kind, label, argv, stdin, code, expect=None):
        ops.append(Op("cli", kind, label, (argv, stdin), expect=(code, expect)))

    for b in range(blocks):
        for variant, k in (("Q", 1), ("Qi", 3), ("R64", 12), ("C64", 4), ("Q", 12)):
            A, B = random_mat(variant, rng), random_mat(variant, rng)
            req("kcomm", f"kcomm.{variant}.k{k}", ["kcomm", "--k", str(k)],
                json.dumps({"A": _enc(A), "B": _enc(B)}), 0, (A, B, k))
        for scalar in (True, False):
            variant = rng.choice(("Q", "Qi"))
            c = random_scalar(variant, rng)
            f = FIELDS[variant]
            Z = Mat2(f, (c, f.zero(), f.zero(), c)) if scalar else random_mat(variant, rng)
            req("classify", "classify.2.2", ["classify", "--lemma", "2.2", "--k", str(rng.randint(1, 4))],
                json.dumps({"Z": _enc(Z)}), 0 if scalar else 1, Z)
        S = _scalar_plus_nilpotent("Qi", rng)
        req("classify", "classify.2.3-spectral", ["classify", "--lemma", "2.3-spectral"],
            json.dumps({"S": _enc(S)}), 0, S)
        S = random_mat("Q", rng)
        req("classify", "classify.2.3-kcomm", ["classify", "--lemma", "2.3-kcomm", "--k", "3",
                                                "--seed", str(rng.randrange(1000))],
            json.dumps({"S": _enc(S)}), 0 if ref.discriminant(ref.of_mat(S)) == 0 else 1, S)
        for variant, perturb in (("Q", False), ("Qi", True)):
            system = sandwich_system(variant, rng, perturb)
            body = {"left": [[_enc(X), _enc(Y)] for X, Y in system.left],
                    "right": [[_enc(X), _enc(Y)] for X, Y in system.right]}
            req("sandwich", f"sandwich.{'perturbed' if perturb else 'identity'}", ["sandwich"],
                json.dumps(body), 1 if perturb else 0, system)
        variant = rng.choice(("Q", "Qi"))
        k = rng.choice((1, 3))
        lam = _root_of_unity(variant, k, rng)
        h_name = rng.choice(("zero", "trace", "det"))
        table, decomposition = _table_json(variant, k, lam, h_name)
        req("gen-map", "gen-map", ["gen-map", "--field", variant, "--k", str(k)],
            json.dumps({"lambda": decomposition["lambda"], "h": h_name}), 0, table)
        req("verify-map", "verify-map.valid", ["verify-map"], json.dumps(table), 0, table)
        req("decompose-map", "decompose-map.valid", ["decompose-map"], json.dumps(table), 0,
            decomposition)
        bad, _ = _table_json(variant, k, FIELDS[variant].coerce(2), h_name)
        req("verify-map", "verify-map.impostor", ["verify-map"], json.dumps(bad), 1, bad)
        req("decompose-map", "decompose-map.impostor", ["decompose-map"], json.dumps(bad), 1, bad)
        req("campaign", "campaign", ["campaign", "--field", "Q", "--k", "1", "--trials", "4",
                                     "--seed", str(rng.randrange(1000))], "", 0, 4)
        req("fixtures", "fixtures", ["fixtures", "--field", "Q", "--kmax", "3"], "", 0, 3)
        for j in (2 * b, 2 * b + 1):
            kind = HOSTILE_KINDS[j % len(HOSTILE_KINDS)]
            argv, stdin = _hostile(kind, rng)
            req(argv[0], f"hostile.{kind}", argv, stdin, 2)
    return ops


def run_cli_child(op: Op, env: dict, cwd: str):
    """One request in a fresh interpreter; returns (exit code, stdout)."""
    argv, stdin = op.args
    proc = subprocess.run([sys.executable, "-m", "kcomm2.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_inprocess(op: Op):
    """The same request through ``cli.main`` with stdin/stdout swapped.

    An uncaught exception is what a child process reports as exit 1."""
    argv, stdin = op.args
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a traceback in a child process exits 1
        code = 1
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _cli_body_ok(op: Op, body) -> bool:
    code, expect = op.expect
    if code == 2:
        return isinstance(body, dict) and "error" in body
    kind = op.kind
    if kind == "kcomm":
        A, B, k = expect
        return bracket_ok(A, B, k, serialize.mat_from_json(body["bracket"]))
    if kind == "classify":
        S = expect
        if op.label == "classify.2.2":
            return body["holds"] == ref.is_scalar(ref.of_mat(S))
        disc = ref.discriminant(ref.of_mat(S))
        if op.label == "classify.2.3-kcomm":
            return body["holds"] == (disc == 0)
        f = S.field
        if body["holds"] != (disc == 0) or body["discriminant"] != f.encode(ref.to_scalar(f, disc)):
            return False
        return _split_ok(S, ref.of_scalar(f.variant, f.parse(body["lambda"])),
                         serialize.mat_from_json(body["nilpotent"], f))
    if kind == "sandwich":
        system = expect
        f = system.left[0][0].field
        if code == 1:
            mats = [serialize.mat_from_json(body[key], f)
                    for key in ("witness", "left_value", "right_value")]
            return body["identity"] is False and _sandwich_ok(system, True, classify.NotAnIdentity(*mats))
        coeffs = [[f.parse(c) for c in row] for row in body["coefficients"]]
        return body["identity"] is True and _sandwich_ok(
            system, False, classify.Coefficients(mode=body["mode"], coeffs=coeffs))
    if kind in ("gen-map", "decompose-map") and code == 0:
        return body == expect
    if kind == "verify-map":
        if code == 0:
            return body == {"holds": True}
        f = FIELDS[expect["field"]]
        A, B = (ref.of_mat(serialize.mat_from_json(M, f)) for M in body["pair"])
        left, right = (ref.of_mat(serialize.mat_from_json(body[key], f))
                       for key in ("left_bracket", "right_bracket"))
        phi = {ref.of_mat(serialize.mat_from_json(e["in"], f)): ref.of_mat(serialize.mat_from_json(e["out"], f))
               for e in expect["entries"]}
        k = expect["k"]
        return (body["holds"] is False and left != right
                and left == ref.bracket(phi[A], phi[B], k) and right == ref.bracket(A, B, k))
    if kind == "decompose-map":  # impostor: lambda = 2 is no root of unity
        return body.get("rejected") == "lambda-not-root-of-unity"
    if kind == "campaign":
        return (body["trials"] == expect and body["anomalies"] == []
                and body["valid_ok"] + body["perturbed_rejected"] == expect)
    if kind == "fixtures":
        items = body["identities"]
        if len(items) != 5 * expect:
            return False
        f = FIELDS[body["field"]]
        for it in items:
            A, B, expected = (ref.of_mat(serialize.mat_from_json(it[key], f)) for key in ("A", "B", "expected"))
            if expected != ref.bracket(A, B, it["k"]):
                return False
        return True
    return False


def check_cli(t: Timed) -> int:
    if t.error is not None:
        return 1
    code, stdout = t.result
    if code != t.op.expect[0]:
        return 1
    try:
        body = strict_json(stdout)
        return 0 if _cli_body_ok(t.op, body) else 1
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            ZeroDivisionError, Kcomm2Error):
        return 1


CHECKERS = {"kernel": check_kernel, "verdicts": check_verdict, "cli": check_cli}

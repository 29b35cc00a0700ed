"""Command-line front end.

One binary, subcommand style; matrices always arrive as JSON on stdin or via
--input (rational entries are hostile to shell quoting).  Exit status: 0 on
success/holds, 1 on a falsified property or structural rejection (with a JSON
diagnostic), 2 on input or I/O errors, whose JSON body always goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify as cls
from .brackets import MAX_ORDER, _check_order, kcomm, kcomm_recursive
from .errors import (
    InputError,
    InvariantViolation,
    Kcomm2Error,
    LambdaNotRootOfUnity,
    NotTheoremForm,
    PreservationFailed,
)
from .fields import FIELD_CODES, FieldTag
from .identities import golden_identities
from .preserver import (
    all_pairs,
    decompose,
    generate_map,
    h_det,
    h_random,
    h_trace,
    h_zero,
    probe_campaign,
    probe_set,
    verify_preserving,
)
from . import serialize as ser


def _read_input(args):
    if args.input and args.input != "-":
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _emit(args, obj):
    """Write obj as canonical JSON to --output or stdout (stdout when args is None)."""
    text = ser.canonical_dumps(obj) + "\n"
    path = args.output if args is not None else None
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"expected JSON object with key {key!r}")
    return obj[key]


def cmd_kcomm(args) -> int:
    data = _read_input(args)
    A = ser.mat_from_json(_require(data, "A"))
    B = ser.mat_from_json(_require(data, "B"))
    result = kcomm(A, B, args.k)
    _emit(args, {"bracket": ser.mat_to_json(result)})
    return 0


def cmd_classify(args) -> int:
    data = _read_input(args)
    if args.lemma == "2.2":
        Z = ser.mat_from_json(_require(data, "Z"), tolerance=args.tolerance)
        verdict = cls.scalar_witness_test(Z, args.k)
        _emit(args, ser.verdict_to_json(verdict))
        return 0 if verdict.holds else 1
    S = ser.mat_from_json(_require(data, "S"), tolerance=args.tolerance)
    if args.lemma == "2.3-spectral":
        verdict = cls.scalar_plus_nilpotent_spectral(S)
        out = {"holds": verdict.holds, "discriminant": S.field.encode(verdict.discriminant)}
        if verdict.holds:
            out["lambda"] = S.field.encode(verdict.split.lam)
            out["nilpotent"] = ser.mat_to_json(verdict.split.nilpotent)
        _emit(args, out)
        return 0 if verdict.holds else 1
    # 2.3-kcomm
    verdict = cls.scalar_plus_nilpotent_kcomm(S, args.k, trials=args.trials, seed=args.seed)
    _emit(args, ser.verdict_to_json(verdict))
    return 0 if verdict.holds else 1


def cmd_sandwich(args) -> int:
    data = _read_input(args)
    system = ser.sandwich_from_json(data, tolerance=args.tolerance)
    result = cls.rank_one_identity_solve(system, mode=args.mode)
    _emit(args, ser.solver_result_to_json(result, system.field()))
    return 0 if isinstance(result, cls.Coefficients) else 1


_H_RULES = {"zero": lambda f, s: h_zero, "trace": lambda f, s: h_trace,
            "det": lambda f, s: h_det, "random": h_random}


def cmd_gen_map(args) -> int:
    data = _read_input(args)
    field = FieldTag(args.field, args.tolerance)
    lam = field.parse(_require(data, "lambda"))
    rule_name = data.get("h", "zero")
    if rule_name not in _H_RULES:
        raise InputError(f"unknown h rule {rule_name!r}; choose from {sorted(_H_RULES)}")
    h = _H_RULES[rule_name](field, args.seed)
    if "inputs" in data:
        inputs = [ser.mat_from_json(m, field) for m in data["inputs"]]
    else:
        inputs = probe_set(field)
    table = generate_map(lam, h, inputs, args.k)
    _emit(args, ser.maptable_to_json(table))
    return 0


def cmd_verify_map(args) -> int:
    data = _read_input(args)
    table = ser.maptable_from_json(_require(data, "table") if "table" in data else data,
                                   tolerance=args.tolerance)
    if isinstance(data, dict) and "pairs" in data:
        pairs = [
            (ser.mat_from_json(p[0], table.field), ser.mat_from_json(p[1], table.field))
            for p in data["pairs"]
        ]
    else:
        pairs = all_pairs(table.inputs())
    verdict = verify_preserving(table, pairs)
    _emit(args, ser.preservation_to_json(verdict))
    return 0 if verdict.holds else 1


def cmd_decompose_map(args) -> int:
    data = _read_input(args)
    table = ser.maptable_from_json(data, tolerance=args.tolerance)
    try:
        dec = decompose(table)
    except NotTheoremForm as exc:
        _emit(args, {"rejected": exc.stage, "residue": ser.mat_to_json(exc.residue)})
        return 1
    except LambdaNotRootOfUnity as exc:
        _emit(args, {"rejected": "lambda-not-root-of-unity",
                     "power": table.field.encode(exc.power)})
        return 1
    except PreservationFailed as exc:
        _emit(args, {"rejected": "preservation-failed",
                     "pair": [ser.mat_to_json(exc.pair[0]), ser.mat_to_json(exc.pair[1])]})
        return 1
    _emit(args, ser.decomposition_to_json(dec, table.field))
    return 0


def cmd_campaign(args) -> int:
    field = FieldTag(args.field, args.tolerance)
    report = probe_campaign(args.k, field, args.trials, args.seed)
    _emit(args, ser.campaign_to_json(report))
    return 0 if report.clean else 1


def cmd_fixtures(args) -> int:
    field = FieldTag(args.field, args.tolerance)
    _check_order(args.kmax, name="kmax", maximum=MAX_ORDER)
    items = []
    for k in range(1, args.kmax + 1):
        for ident in golden_identities(field, k):
            computed = kcomm_recursive(ident.A, ident.B, k)
            if not computed.eq(ident.expected):
                raise InvariantViolation(f"fixture {ident.name} at k={k} failed self-check")
            items.append(
                {
                    "k": k,
                    "name": ident.name,
                    "A": ser.mat_to_json(ident.A),
                    "B": ser.mat_to_json(ident.B),
                    "expected": ser.mat_to_json(ident.expected),
                }
            )
    _emit(args, {"field": field.variant, "identities": items})
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they leave main like any bad input."""

    def error(self, message):
        raise InputError(message)


# The flags some subcommands share; each subcommand declares the ones it reads.
_FLAGS = {
    "field": dict(default="Q", choices=FIELD_CODES),
    "tolerance": dict(type=float, default=1e-9,
                      help="comparison tolerance of the float fields R64 and C64"),
    "seed": dict(type=int, default=0),
    "trials": dict(type=int, default=32),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kcomm2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags, k=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", default=None, help="JSON input path ('-' for stdin)")
        p.add_argument("--output", default=None, help="JSON output path ('-' for stdout)")
        if k is not None:
            p.add_argument("--k", type=int, default=k)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("kcomm", cmd_kcomm, "evaluate an order-k bracket", k=1)
    p = command("classify", cmd_classify, "run a structure classifier",
                "seed", "trials", "tolerance", k=3)
    p.add_argument("--lemma", required=True, choices=("2.2", "2.3-spectral", "2.3-kcomm"))
    p = command("sandwich", cmd_sandwich, "decide a rank-one sandwich identity", "tolerance")
    p.add_argument("--mode", default="auto", choices=("auto", "b-in-d", "a-in-c"))
    command("gen-map", cmd_gen_map, "build a canonical-form map table",
            "field", "tolerance", "seed", k=1)
    command("verify-map", cmd_verify_map, "check the bracket identity on a table", "tolerance")
    command("decompose-map", cmd_decompose_map, "extract (lambda, h) from a table", "tolerance")
    command("campaign", cmd_campaign, "randomized accept/reject exercise",
            "field", "tolerance", "seed", "trials", k=3)
    p = command("fixtures", cmd_fixtures, "emit the golden bracket identities", "field", "tolerance")
    p.add_argument("--kmax", type=int, default=10)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error leaves as a JSON body on stdout with exit 2."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        body = {"error": "input", "message": str(exc)}
    except Kcomm2Error as exc:
        body = {"error": type(exc).__name__, "message": str(exc)}
    except ValueError as exc:  # e.g. a non-finite float refused by canonical_dumps
        body = {"error": "value", "message": str(exc)}
    except OSError as exc:  # --input or --output cannot be opened
        body = {"error": "io", "message": str(exc)}
    _emit(None, body)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

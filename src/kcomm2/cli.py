"""Command-line front end.

One binary, subcommand style; matrices arrive as JSON on stdin or via --input
(rational entries are hostile to shell quoting), except in campaign and
fixtures, which read none.  Exit status: 0 on success/holds, 1 on a falsified
property or structural rejection (with a JSON diagnostic), 2 on input or I/O
errors, whose JSON body always goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brackets import MAX_ORDER, _check_order, kcomm, kcomm_recursive
from .errors import (
    InputError,
    InvariantViolation,
    Kcomm2Error,
    LambdaNotRootOfUnity,
    NotTheoremForm,
    PreservationFailed,
    ResultTooLarge,
)
from .fields import FIELD_CODES, FieldTag
from . import serialize as ser

# The handlers import classify, preserver and identities themselves, so a
# request loads only the modules its subcommand runs.


def _read_bytes(path) -> bytes:
    """The bytes of --input, or of stdin; a text stream put in place of stdin (an
    in-process caller's) is read as text and taken back to the bytes it decoded."""
    if path and path != "-":
        with open(path, "rb") as fh:
            return fh.read()
    stdin = sys.stdin
    if hasattr(stdin, "buffer"):
        return stdin.buffer.read()
    return stdin.read().encode("utf-8", "surrogateescape")


def _read_input(args) -> dict:
    """The request body: a JSON object, UTF-8 encoded, read from --input or stdin."""
    try:
        data = json.loads(_read_bytes(args.input).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, bad syntax, an oversized int, deep nesting
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"input must be a JSON object, got {type(data).__name__}")
    return data


def _emit(path, obj):
    """Write obj as canonical JSON to path, or to stdout when path is None or '-'."""
    text = ser.canonical_dumps(obj) + "\n"
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(obj: dict, key):
    if key not in obj:
        raise InputError(f"expected JSON object with key {key!r}")
    return obj[key]


# Each handler returns its response as (JSON body, exit code); main writes it.


def cmd_kcomm(args) -> tuple[dict, int]:
    data = _read_input(args)
    A = ser.mat_from_json(_require(data, "A"))
    B = ser.mat_from_json(_require(data, "B"))
    result = kcomm(A, B, args.k)
    return {"bracket": ser.mat_to_json(result)}, 0


def cmd_classify(args) -> tuple[dict, int]:
    from . import classify as cls

    data = _read_input(args)
    if args.lemma == "2.2":
        Z = ser.mat_from_json(_require(data, "Z"), tolerance=args.tolerance)
        verdict = cls.scalar_witness_test(Z, args.k)
        return ser.verdict_to_json(verdict), 0 if verdict.holds else 1
    S = ser.mat_from_json(_require(data, "S"), tolerance=args.tolerance)
    if args.lemma == "2.3-spectral":
        verdict = cls.scalar_plus_nilpotent_spectral(S)
        out = {"holds": verdict.holds, "discriminant": S.field.encode(verdict.discriminant)}
        if verdict.holds:
            out["lambda"] = S.field.encode(verdict.split.lam)
            out["nilpotent"] = ser.mat_to_json(verdict.split.nilpotent)
        return out, 0 if verdict.holds else 1
    # 2.3-kcomm
    verdict = cls.scalar_plus_nilpotent_kcomm(S, args.k, trials=args.trials, seed=args.seed)
    return ser.verdict_to_json(verdict), 0 if verdict.holds else 1


def cmd_sandwich(args) -> tuple[dict, int]:
    from . import classify as cls

    system = ser.sandwich_from_json(_read_input(args), tolerance=args.tolerance)
    result = cls.rank_one_identity_solve(system, mode=args.mode)
    code = 0 if isinstance(result, cls.Coefficients) else 1
    return ser.solver_result_to_json(result, system.field()), code


def cmd_gen_map(args) -> tuple[dict, int]:
    from .preserver import (_check_table_size, generate_map, h_det, h_random, h_trace, h_zero,
                            probe_set)

    rules = {"zero": lambda f, s: h_zero, "trace": lambda f, s: h_trace,
             "det": lambda f, s: h_det, "random": h_random}
    data = _read_input(args)
    field = FieldTag(args.field, args.tolerance)
    lam = field.parse(_require(data, "lambda"))
    rule_name = data.get("h", "zero")
    if not (isinstance(rule_name, str) and rule_name in rules):
        raise InputError(f"unknown h rule {rule_name!r}; choose from {sorted(rules)}")
    h = rules[rule_name](field, args.seed)
    if "inputs" in data:
        listed = ser.array_from_json(data["inputs"], "inputs")
        _check_table_size(len(listed))  # before any input is decoded
        inputs = [ser.mat_from_json(m, field) for m in listed]
    else:
        inputs = probe_set(field)
    return ser.maptable_to_json(generate_map(lam, h, inputs, args.k)), 0


def cmd_verify_map(args) -> tuple[dict, int]:
    from .preserver import MAX_TABLE_INPUTS, all_pairs, verify_preserving

    data = _read_input(args)
    table = ser.maptable_from_json(data.get("table", data), tolerance=args.tolerance)
    if "pairs" in data:
        listed = ser.array_from_json(data["pairs"], "pairs")
        _check_order(len(listed), name="verify-map pairs", maximum=MAX_TABLE_INPUTS ** 2)
        pairs = [ser.pair_from_json(p, table.field, args.tolerance) for p in listed]
    else:
        pairs = all_pairs(table.inputs())
    verdict = verify_preserving(table, pairs)
    return ser.preservation_to_json(verdict), 0 if verdict.holds else 1


def cmd_decompose_map(args) -> tuple[dict, int]:
    from .preserver import decompose

    table = ser.maptable_from_json(_read_input(args), tolerance=args.tolerance)
    try:
        return ser.decomposition_to_json(decompose(table), table.field), 0
    except NotTheoremForm as exc:
        out = {"rejected": exc.stage, "input": ser.mat_to_json(exc.input),
               "residue": ser.mat_to_json(exc.residue)}
    except LambdaNotRootOfUnity as exc:
        try:
            power = None if exc.power is None else table.field.encode(exc.power)
        except ResultTooLarge:  # a NaN C64 power, or past the digits an exact value prints with
            power = None
        out = {"rejected": "lambda-not-root-of-unity", "power": power}
    except PreservationFailed as exc:
        out = {"rejected": "preservation-failed",
               "pair": [ser.mat_to_json(exc.pair[0]), ser.mat_to_json(exc.pair[1])]}
    return out, 1


def cmd_campaign(args) -> tuple[dict, int]:
    from .preserver import probe_campaign

    field = FieldTag(args.field, args.tolerance)
    report = probe_campaign(args.k, field, args.trials, args.seed)
    return ser.campaign_to_json(report), 0 if report.clean else 1


def cmd_fixtures(args) -> tuple[dict, int]:
    from .identities import golden_identities

    field = FieldTag(args.field)
    _check_order(args.kmax, name="kmax", maximum=MAX_ORDER)
    items, previous = [], {}
    for k in range(1, args.kmax + 1):
        for ident in golden_identities(field, k):
            # a family's A and B do not depend on k: step its order-(k-1) bracket once
            computed = kcomm_recursive(previous.get(ident.name, ident.A), ident.B, 1)
            previous[ident.name] = computed
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
    return {"field": field.variant, "identities": items}, 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they leave main like any bad input."""

    def error(self, message):
        raise InputError(message)


# The flags the subcommands read besides --input and --output (see build_parser).
_FLAGS = {
    "field": dict(default="Q", choices=FIELD_CODES),
    "tolerance": dict(type=float, default=1e-9,
                      help="comparison tolerance of the float fields R64 and C64"),
    "seed": dict(type=int, default=0),
    "trials": dict(type=int, default=32),
    "lemma": dict(required=True, choices=("2.2", "2.3-spectral", "2.3-kcomm")),
    "mode": dict(default="auto", choices=("auto", "b-in-d", "a-in-c")),
    "kmax": dict(type=int, default=10),
}

# name: (handler, help, default of --k or None when it reads no --k, its other flags)
_COMMANDS = {
    "kcomm": (cmd_kcomm, "evaluate an order-k bracket", 1, ()),
    "classify": (cmd_classify, "run a structure classifier", 3,
                 ("seed", "trials", "tolerance", "lemma")),
    "sandwich": (cmd_sandwich, "decide a rank-one sandwich identity", None, ("tolerance", "mode")),
    "gen-map": (cmd_gen_map, "build a canonical-form map table", 1, ("field", "tolerance", "seed")),
    "verify-map": (cmd_verify_map, "check the bracket identity on a table", None, ("tolerance",)),
    "decompose-map": (cmd_decompose_map, "extract (lambda, h) from a table", None, ("tolerance",)),
    "campaign": (cmd_campaign, "randomized accept/reject exercise", 3,
                 ("field", "tolerance", "seed", "trials")),
    "fixtures": (cmd_fixtures, "emit the golden bracket identities", None, ("field", "kmax")),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The kcomm2 parser with the subparser of ``command`` alone, or with all
    of them when ``command`` names none: ``main`` passes the first argument,
    so a request builds only the subparser it runs, and ``-h``, an unknown
    name or no argument see every subcommand."""
    parser = _Parser(prog="kcomm2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        func, help, k, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        if name not in ("campaign", "fixtures"):  # the two that read no body
            p.add_argument("--input", default=None, help="JSON input path ('-' for stdin)")
        p.add_argument("--output", default=None, help="JSON output path ('-' for stdout)")
        if k is not None:
            p.add_argument("--k", type=int, default=k)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error leaves as a JSON body on stdout with exit 2."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        body, code = args.func(args)
        _emit(args.output, body)
        return code
    except InputError as exc:
        body = {"error": "input", "message": str(exc)}
    except Kcomm2Error as exc:
        body = {"error": type(exc).__name__, "message": str(exc)}
    except ValueError as exc:  # a backstop, e.g. a non-finite float reaching canonical_dumps
        body = {"error": "value", "message": str(exc)}
    except OSError as exc:  # --input or --output cannot be opened
        body = {"error": "io", "message": str(exc)}
    _emit(None, body)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

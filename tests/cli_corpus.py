"""The CLI byte-identity corpus: (argv, stdin, exit code, sha256 of stdout) per request.

The requests are the benchmark's ``cli_ops`` mix for seeds 1-3 (five blocks
each, so every one of the ten hostile kinds three times), ``fixtures --kmax 50``
and ``campaign --trials 12`` at k in {1, 2, 3, 6, 12} on the four fields.
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

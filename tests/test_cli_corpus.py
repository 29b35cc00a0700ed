"""Every request of the CLI corpus gives the recorded exit code and stdout, byte for byte."""

import json

import pytest

from cli_corpus import CORPUS, digest, run, this_platform

HOSTILE_KINDS = ("entries_int", "nan_scalar", "trials_negative", "k_true", "duplicate_inputs",
                 "bad_json", "unknown_field", "bad_shape", "negative_k", "missing_key")


def test_every_request_replays_byte_identical():
    corpus = json.loads(CORPUS.read_text())
    if corpus["platform"] != this_platform():
        pytest.skip(f"recorded on {corpus['platform']}")
    requests = corpus["requests"]
    labels = {r["label"] for r in requests}
    assert {f"hostile.{kind}" for kind in HOSTILE_KINDS} <= labels
    assert {r["exit"] for r in requests} == {0, 1, 2}
    for i, r in enumerate(requests):
        code, out = run(r["argv"], r["stdin"])
        if (code, digest(out)) != (r["exit"], r["stdout_sha256"]):
            pytest.fail(f"request {i} ({r['label']}, argv {r['argv']}) exits {code} with "
                        f"stdout {out[:300]!r}; recorded exit {r['exit']}, sha256 {r['stdout_sha256']}")

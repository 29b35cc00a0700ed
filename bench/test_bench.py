"""Tests of the benchmark itself: determinism, declared names, a live gate.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import sys
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import families as fam  # noqa: E402
import harness  # noqa: E402
import kcomm2.brackets  # noqa: E402
import kcomm2.preserver  # noqa: E402
from kcomm2.matrices import Mat2  # noqa: E402

TINY = {"kernel": 1.0, "verdicts": 1.0, "cli": 1.0}


@pytest.fixture
def tiny(monkeypatch):
    """One block of each family per workload, so a run takes seconds."""
    monkeypatch.setattr(harness, "WORKLOADS", {w: TINY for w in harness.WORKLOADS})


def _declared(kind):
    return {m["name"] for m in harness.load_spec()[kind]}


def test_same_seed_same_inputs_and_counts(tiny):
    _, _, digest_a = harness.build_ops("verdicts", 7, 1)
    _, _, digest_b = harness.build_ops("verdicts", 7, 1)
    assert digest_a == digest_b
    units = {m["name"]: m["unit"] for m in harness.load_spec()["per_layer"]}
    runs = [harness.run_workload("verdicts", 7, 1, trace=True)["result"] for _ in range(2)]
    counts = [{n: m["value"] for n, m in r["metrics"].items() if units[n] in ("count", "bytes")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["preserver.brackets_per_decompose"] == 72
    assert (runs[0]["attempted"], runs[0]["failed"]) == (runs[1]["attempted"], runs[1]["failed"])


def test_different_seed_different_inputs(tiny):
    assert harness.build_ops("kernel", 1, 1)[2] != harness.build_ops("kernel", 2, 1)[2]


def test_trace_restores_originals(tiny):
    matmul = Mat2.__dict__["__matmul__"]
    recursive = kcomm2.brackets.kcomm_recursive
    harness.run_workload("cli", 3, 1, trace=True)
    assert Mat2.__dict__["__matmul__"] is matmul
    assert kcomm2.brackets.kcomm_recursive is recursive
    assert kcomm2.preserver.kcomm_recursive is recursive


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_declared(tiny, trace):
    result = harness.run_workload("kernel", 5, 1, trace=trace)["result"]
    assert set(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    assert result["attempted"] > 0
    assert result["correct"] is True  # at most the known seed defects fail


def _kernel_checked():
    ops = fam.kernel_ops(Random(0), 2, set())
    return harness.check_all(harness.time_ops(ops, "inprocess"))


def test_gate_counts_a_wrong_evaluator(monkeypatch):
    def wrong(A, B, k, method="recursive"):
        return kcomm2.brackets.kcomm_recursive(A, B, k).scale(2)

    monkeypatch.setattr(kcomm2.brackets, "kcomm", wrong)
    checked = _kernel_checked()
    assert checked.attempted == 64
    assert checked.failed == 64


def test_gate_does_not_trust_mat2(monkeypatch):
    """A wrong matrix product corrupts the answer but not the reference."""
    product = Mat2.__dict__["__matmul__"]
    monkeypatch.setattr(Mat2, "__matmul__", lambda X, Y: product(X, Y).scale(2))
    checked = _kernel_checked()
    assert checked.failed == checked.attempted == 64


def test_unknown_failure_makes_a_run_incorrect(tiny, monkeypatch):
    def wrong(A, B, k, method="recursive"):
        return kcomm2.brackets.kcomm_recursive(A, B, k).scale(2)

    monkeypatch.setattr(kcomm2.brackets, "kcomm", wrong)
    out = harness.run_workload("kernel", 5, 1, trace=False)
    assert out["result"]["correct"] is False
    assert "kernel.Q.k1" in out["report"]["failures_outside_known_seed_defects"]


def test_gate_passes_the_oracle(monkeypatch):
    monkeypatch.setattr(kcomm2.brackets, "kcomm",
                        lambda A, B, k, method="recursive": kcomm2.brackets.kcomm_recursive(A, B, k))
    checked = _kernel_checked()
    assert (checked.attempted, checked.failed) == (64, 0)


def test_cli_contract_rejects_nan_output():
    with pytest.raises(ValueError):
        fam.strict_json('{"bracket": NaN}')


def test_speed_factor_scales_times_only():
    ops = [fam.Op("kernel", "exact", "Q.k1", None), fam.Op("kernel", "float", "R64.k1", None),
           fam.Op("verdicts", "campaign", "campaign.Q.k1", None, weight=4),
           fam.Op("verdicts", "classify", "witness", None), fam.Op("verdicts", "sandwich", "identity", None),
           fam.Op("cli", "kcomm", "kcomm.Q.k1", None)]
    rounds = [[fam.Timed(op, 0.01 * (i + 1), None) for i, op in enumerate(ops)]]
    checked = harness.check_all([])
    checked.attempted = 9
    raw, _ = harness.summarise(rounds, [(0, 0.05, 0.2)], [1.0], checked)
    slow, _ = harness.summarise(rounds, [(0, 0.05, 0.2)], [2.0], checked)
    for name, value in raw.items():
        unit = {m["name"]: m["unit"] for m in harness.load_spec()["end_to_end"]}[name]
        expected = {"1/s": 2 * value, "us": value / 2, "ms": value / 2, "s": value / 2}.get(unit, value)
        assert slow[name] == pytest.approx(expected), name

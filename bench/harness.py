"""Runs one workload and computes its metrics.

A workload is a mix of the three operation families in ``families.py``, in
blocks whose number is fixed by the workload and ``--seconds``; so one
(workload, seed, seconds) always does the same work, and every count repeats
exactly.  Each workload gives one family most of the time and the other two
a small slice, so that every end-to-end metric is measured on every
workload (``WORKLOADS`` below gives the reason for each).

``--trace 0`` reports the end-to-end metrics: every operation is timed, then
every answer is checked.  Set-up (a fresh-interpreter import plus a warm-up
slice) is measured ``SETUP_REPEATS`` times, the first before any timed work
and the rest spread over the rounds, and reported as the median.  Every
timing is normalised by the machine's speed during its round (see
``CAL_REFERENCE_S``).  ``--trace 1`` reports the per-layer metrics: the same
operations run once untraced and once traced (CLI requests through
``cli.main`` in-process both times), then every kernel input goes through
each of the three public bracket evaluators.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

import families as fam  # noqa: E402  (needs src/ on sys.path, see run.py)
import spans as tr  # noqa: E402
from kcomm2 import brackets  # noqa: E402

# Blocks per --seconds of each family (kernel: 32 calls; verdicts: 6 campaigns
# of 4 trials, 72 classifier calls, 18 solves; cli: 20 requests), and the
# reason for the mix.
WORKLOADS = {
    # brackets over 4 fields x 4 orders, no pair repeated: fields, matrices
    # and brackets do the work, a memo cannot help.
    "kernel": {"kernel": 16.0, "verdicts": 2.0, "cli": 0.2},
    # campaigns, classifiers and the sandwich solver on Q/Qi at low k:
    # preserver and classify do the work on a fixed probe family that
    # repeats most of its brackets.
    "verdicts": {"kernel": 3.2, "verdicts": 4.0, "cli": 0.2},
    # one child process per request: interpreter start, import and
    # serialize dominate, kernel work barely shows.
    "cli": {"kernel": 3.2, "verdicts": 2.0, "cli": 0.5},
}
# The families run interleaved in this many rounds, so that every metric
# samples the whole run and not one stretch of it (the speed of a shared
# machine drifts over tens of seconds).
ROUNDS = 80
# set-up samples per run; one every ROUNDS // SETUP_REPEATS rounds
SETUP_REPEATS = 10
# Machine-speed normalisation.  On a shared machine the speed of the same code
# drifts by up to 2x over tens of seconds, and all timings of a run move
# together.  So every timing is divided by the speed factor of its round:
# machine_speed() measured before and after the round, over CAL_REFERENCE_S,
# a fixed time inside the 4-10 ms the loop took in runs on a 2-vCPU Intel
# Xeon.  A change to kcomm2 moves the timings and not the factor; the raw
# wall-clock figures are in the report.
CAL_STEPS = 75
CAL_REFERENCE_S = 0.005
WARMUP_VERDICTS = ("campaign.Q.k1", "witness", "spn_kcomm", "spectral", "identity", "perturbed")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kcomm2, kcomm2.cli; "
                "print(time.perf_counter() - t)")
EVALUATORS = {
    "recursive": lambda A, B, k: brackets.kcomm_recursive(A, B, k),
    "closed": lambda A, B, k: brackets.kcomm_closed(A, B, k),
    "auto": lambda A, B, k: brackets.kcomm(A, B, k, method="auto"),
}
NOTES = ["closed loop, one caller, at most one child process alive: no queue and no second "
         "thread, so wait-time metrics do not exist and none is reported"]


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def block_counts(workload: str, seconds: int) -> dict:
    return {family: max(1, round(rate * seconds)) for family, rate in WORKLOADS[workload].items()}


def build_ops(workload: str, seed: int, seconds: int):
    """(timed ops per family, warm-up op lists, digest of every input)."""
    rng = Random(f"kcomm2-bench/{workload}/{seed}")
    counts = block_counts(workload, seconds)
    seen = set()
    ops = {
        "kernel": fam.kernel_ops(rng, counts["kernel"], seen),
        "verdicts": fam.verdict_ops(rng, counts["verdicts"]),
        "cli": fam.cli_ops(rng, counts["cli"]),
    }
    warmups = []
    for _ in range(SETUP_REPEATS):
        verdicts = {}
        for op in fam.verdict_ops(rng, 1):
            verdicts.setdefault(op.label, op)
        warmups.append(fam.kernel_ops(rng, 1, seen) + [verdicts[label] for label in WARMUP_VERDICTS]
                       + fam.cli_ops(rng, 1)[:1])
    digest = hashlib.sha256()
    for family_ops in list(ops.values()) + warmups:
        for op in family_ops:
            digest.update(repr((op.family, op.label, op.args)).encode())
    return ops, warmups, digest.hexdigest()


def rounds(ops: dict) -> list:
    """ROUNDS lists, each with the next 1/ROUNDS of every family's operations."""
    out = []
    for r in range(ROUNDS):
        out.append([op for family_ops in ops.values()
                    for op in family_ops[r * len(family_ops) // ROUNDS:(r + 1) * len(family_ops) // ROUNDS]])
    return out


def _caller(op, cli_mode: str):
    if op.family == "kernel":
        return fam.run_kernel_op(op)
    if op.family == "verdicts":
        return fam.run_verdict_op(op)
    if cli_mode == "child":
        return fam.run_cli_child(op, child_env(), str(ROOT))
    return fam.run_cli_inprocess(op)


def time_ops(ops, cli_mode: str) -> list:
    timed = []
    for op in ops:
        error = result = None
        t0 = perf_counter()
        try:
            result = _caller(op, cli_mode)
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed operation
            error = exc
        timed.append(fam.Timed(op, perf_counter() - t0, result, error))
    return timed


def check_all(timed, checked: fam.Checked | None = None) -> fam.Checked:
    checked = checked or fam.Checked()
    for t in timed:
        checked.add(t.op, fam.CHECKERS[t.op.family](t))
    return checked


def _pct(values, p: int) -> float:
    """p-th percentile, interpolated (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _import_probe() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         env=child_env(), cwd=str(ROOT), timeout=fam.CHILD_TIMEOUT_S, check=True)
    return float(out.stdout)


def _interpreter_probe() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=str(ROOT),
                   timeout=fam.CHILD_TIMEOUT_S, check=True)
    return perf_counter() - t0


def setup_once(warmup_ops) -> tuple:
    """(fresh-interpreter import of kcomm2 + kcomm2.cli, untimed warm-up of one
    fresh slice of each family), in seconds."""
    imported = _import_probe()
    t0 = perf_counter()
    time_ops(warmup_ops, "child")
    return imported, perf_counter() - t0


def provenance(workload, seed, seconds, trace, digest) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kcomm2").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "blocks": block_counts(workload, seconds), "input_digest": digest,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "cpu": cpu, "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def machine_speed() -> float:
    """Seconds for a fixed stdlib-only loop (Fraction and int arithmetic), the
    fastest of three, with the garbage collector off so that the program's
    heap does not slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            a, b, c, d = Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(5, 11)
            e, f, g, h = Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(4, 5)
            for _ in range(CAL_STEPS):
                a, b, c, d = (a * e + b * g - e * a - f * c, a * f + b * h - e * b - f * d,
                              c * e + d * g - g * a - h * c, c * f + d * h - g * b - h * d)
                if a.denominator > 10**30:
                    a, b, c, d = Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(5, 11)
            x = 0
            for i in range(10000):
                x += i * i % 7
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


def summarise(timed_rounds, setups, factors, checked) -> tuple:
    """End-to-end metrics from per-round timings, each time divided by its
    round's speed factor (all 1.0 gives the raw wall-clock figures)."""
    timed = {"kernel": [], "verdicts": [], "cli": []}
    for round_timed, factor in zip(timed_rounds, factors):
        for t in round_timed:
            timed[t.op.family].append((t.op, t.seconds / factor))

    def rate(kind):
        picked = [(op, s) for op, s in timed["kernel"] + timed["verdicts"] if op.kind == kind]
        return sum(op.weight for op, _ in picked), sum(s for _, s in picked)

    brackets_us = [1e6 * s for _, s in timed["kernel"]]
    cli_ms = [1e3 * s for _, s in timed["cli"]]
    rates = {name: rate(kind) for name, kind in (
        ("bracket_exact_per_s", "exact"), ("bracket_float_per_s", "float"),
        ("campaign_trials_per_s", "campaign"), ("classify_per_s", "classify"),
        ("sandwich_per_s", "sandwich"))}
    setup = [(i / factors[r], w / factors[r]) for r, i, w in setups]
    metrics = {
        "setup_s": statistics.median(i + w for i, w in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (checked.attempted - checked.failed) / checked.attempted,
        "bracket_p50_us": _pct(brackets_us, 50),
        "bracket_p99_us": _pct(brackets_us, 99),
        "cli_p50_ms": _pct(cli_ms, 50),
        "cli_p90_ms": _pct(cli_ms, 90),
    }
    metrics.update({name: n / s for name, (n, s) in rates.items()})
    samples = {
        "setup_s": {"import_s": statistics.median(i for i, _ in setup),
                    "warmup_s": statistics.median(w for _, w in setup),
                    "repeats": len(setup), "statistic": "median",
                    "placement": f"before round 0 and every {ROUNDS // len(setup)} rounds"},
        "bracket_p50_us": {"samples": len(brackets_us), "percentile": 50},
        "bracket_p99_us": {"samples": len(brackets_us), "percentile": 99},
        "cli_p50_ms": {"samples": len(cli_ms), "percentile": 50},
        "cli_p90_ms": {"samples": len(cli_ms), "percentile": 90},
    }
    samples.update({name: {"operations": n, "busy_s": s} for name, (n, s) in rates.items()})
    return metrics, samples


def end_to_end(ops, warmups) -> tuple:
    setup_before = {i * ROUNDS // len(warmups): w for i, w in enumerate(warmups)}
    setups = []  # (round, import seconds, warm-up seconds)
    timed_rounds = []
    speed = [machine_speed()]
    checked = fam.Checked()
    for r, round_ops in enumerate(rounds(ops)):  # checking each round spreads the timed work over the whole run
        if r in setup_before:
            setups.append((r, *setup_once(setup_before[r])))
        timed_rounds.append(time_ops(round_ops, "child"))
        speed.append(machine_speed())
        check_all(timed_rounds[-1], checked)
        for t in timed_rounds[-1]:  # answers are checked: holding them would only grow the heap
            t.result = None
    factors = [(speed[r] + speed[r + 1]) / (2 * CAL_REFERENCE_S) for r in range(len(timed_rounds))]
    metrics, samples = summarise(timed_rounds, setups, factors, checked)
    raw, _ = summarise(timed_rounds, setups, [1.0] * len(timed_rounds), checked)
    q = statistics.quantiles(factors, n=4)
    samples["speed_factor"] = {"reference_s": CAL_REFERENCE_S, "median": statistics.median(factors),
                               "q1": q[0], "q3": q[2], "rounds": len(factors)}
    samples["raw_wall_clock"] = raw
    return metrics, checked, samples


def per_layer(ops) -> tuple:
    everything = [op for round_ops in rounds(ops) for op in round_ops]
    t0 = perf_counter()
    untraced = time_ops(everything, "inprocess")
    wall_untraced = perf_counter() - t0
    checked = check_all(untraced)

    tracer = tr.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        traced = time_ops(everything, "inprocess")
        wall_traced = perf_counter() - t0
    finally:
        tracer.restore()
    consistent = all(_same(a, b) for a, b in zip(untraced, traced))

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced

    per_eval = {}
    for op in ops["kernel"]:
        A, B, k = op.args
        for ev, call in EVALUATORS.items():
            t0 = perf_counter()
            call(A, B, k)
            per_eval.setdefault((ev, op.label), []).append(perf_counter() - t0)
    for (ev, label), secs in per_eval.items():
        variant, kk = label.split(".")
        metrics[f"brackets.{ev}_us.{variant}.{kk}"] = 1e6 * statistics.median(secs)
    first = {}
    for op in ops["kernel"]:
        first.setdefault(op.args[2], op.args)
    counter = tr.Tracer()
    counter.install()
    try:
        for ev, call in EVALUATORS.items():
            for k, (A, B, _) in first.items():
                before = counter.counts["matrices.Mat2.__matmul__"]
                call(A, B, k)
                metrics[f"brackets.matmul_per_call.{ev}.k{k}"] = counter.counts["matrices.Mat2.__matmul__"] - before
    finally:
        counter.restore()

    by_sub = {}
    for t in untraced:
        if t.op.family == "cli":
            by_sub.setdefault(t.op.kind, []).append(t.seconds)
    metrics.update({f"cli.main_ms.{sub}": 1e3 * statistics.median(s) for sub, s in by_sub.items()})
    metrics["cli.exit_mismatch"] = sum(
        1 for t in untraced if t.op.family == "cli" and (t.error is not None or t.result[0] != t.op.expect[0]))
    metrics["cli.interpreter_ms"] = 1e3 * statistics.median(_interpreter_probe() for _ in range(SETUP_REPEATS))
    metrics["cli.import_ms"] = 1e3 * statistics.median(_import_probe() for _ in range(SETUP_REPEATS))
    samples = {
        "brackets.*_us": {"statistic": "median", "samples_per_name": {
            f"{ev}.{label}": len(s) for (ev, label), s in sorted(per_eval.items())}},
        "cli.main_ms.*": {"statistic": "median", "samples_per_name": {
            sub: len(s) for sub, s in sorted(by_sub.items())}},
        "cli.interpreter_ms": {"statistic": "median", "samples": SETUP_REPEATS},
        "cli.import_ms": {"statistic": "median", "samples": SETUP_REPEATS},
        "trace": {"untraced_wall_s": wall_untraced, "traced_wall_s": wall_traced,
                  "spans": len(tracer.span_t0)},
    }
    return metrics, checked, samples, consistent


def _same(a: fam.Timed, b: fam.Timed) -> bool:
    """Tracing must not change an answer (errors compare by type and text)."""
    if a.error is not None or b.error is not None:
        return repr(a.error) == repr(b.error)
    return a.result == b.result


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Returns {"report": provenance and samples, "result": the last line printed}."""
    ops, warmups, digest = build_ops(workload, seed, seconds)
    consistent = True
    if trace:
        values, checked, samples, consistent = per_layer(ops)
    else:
        values, checked, samples = end_to_end(ops, warmups)
    spec = load_spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(declared):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"metrics without a finite value: {bad}")
    # a failure outside the known seed defects means the program is wrong
    unknown = sorted(set(checked.failures) - fam.KNOWN_SEED_DEFECTS)
    result = {
        "correct": consistent and not unknown,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }
    report = {
        "provenance": provenance(workload, seed, seconds, int(trace), digest),
        "samples": samples,
        "failures": dict(sorted(checked.failures.items())),
        "failures_outside_known_seed_defects": unknown,
        "notes": NOTES,
    }
    return {"report": report, "result": result}

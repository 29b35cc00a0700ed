"""In-memory tracing of ``kcomm2`` from outside, by wrapping its callables.

Wrappers are installed by identity: a module function is rebound in every
``kcomm2.*`` namespace that holds the same object, because ``preserver``,
``classify`` and ``cli`` call each other through names bound by
``from .x import y``.  Methods of ``Mat2``, ``GaussianRational``, ``FieldTag``,
``MapTable`` and the arithmetic of ``fractions.Fraction`` (the Q scalars) are
wrapped on the class.  ``Tracer.restore`` puts every original back, so that
untraced runs never pay for tracing.

Two kinds of wrapper:

- count-only, for the scalar layer (``fields``, ``Fraction``) and table
  lookups, which run millions of times; their time belongs to the caller;
- span, for everything else: a span has a name, a parent span and start/end
  times, kept in flat arrays; self time is a span's duration minus that of
  its child spans.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

from kcomm2 import preserver
from kcomm2.fields import FieldTag, GaussianRational
from kcomm2.matrices import Mat2

SPAN_MODULES = ("matrices", "brackets", "classify", "preserver", "serialize", "cli")
COUNT_MODULES = ("fields",)
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__")
QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
          "__rtruediv__", "__neg__", "__pow__", "inverse", "conjugate")
MAT2_METHODS = ("__add__", "__sub__", "__neg__", "__matmul__", "scale", "__rmul__", "power",
                "conj_t", "trace", "det", "eq", "is_zero", "is_scalar", "max_abs",
                "from_rows", "zero", "identity", "unit", "diag")
FIELDTAG_METHODS = ("coerce", "eq", "is_zero", "zero", "one", "conj", "abs2", "encode", "parse")
VERDICT_SPANS = ("classify.scalar_witness_test", "classify.scalar_plus_nilpotent_kcomm")
BRACKET_ENTRY_ARGS = ("kcomm", "kcomm_recursive", "kcomm_closed", "kcomm_idempotent_fast",
                      "kcomm_nilpotent_fast")


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.names = []  # span name table
        self._name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.span_ok = array("b")
        self.stack = []
        self.bracket_keys = set()
        self.bracket_entries = 0
        self.brackets_under = Counter()  # span id -> bracket entries inside it
        self.campaign_trials = 0
        self.bytes_out = 0
        self._restore = []

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def counting(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def spanning(self, fn, name):
        tracer = self
        counts = self.counts
        nid = self._name_id(name)
        stack = self.stack
        before = self._before_hooks().get(name)
        after = self._after_hooks().get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = len(tracer.span_t0)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_ok.append(0)
            tracer.span_t1.append(0.0)
            tracer.span_t0.append(0.0)
            if before is not None:
                before(args)
            stack.append(sid)
            tracer.span_t0[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                tracer.span_ok[sid] = 1
            finally:
                tracer.span_t1[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_hooks(self):
        hooks = {f"brackets.{n}": self._bracket_entry for n in BRACKET_ENTRY_ARGS}
        hooks["preserver.probe_campaign"] = self._campaign
        return hooks

    def _after_hooks(self):
        return {"serialize.canonical_dumps": self._dumped}

    def _dumped(self, text):
        self.bytes_out += len(text.encode())

    def _bracket_entry(self, args):
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0 and self.names[self.span_name[parent]].startswith("brackets."):
            return  # kcomm -> kcomm_closed is one bracket, not two
        self.bracket_entries += 1
        if len(args) < 3:  # called with keywords: counted, but no key to compare
            return
        A, B, k = args[:3]
        self.bracket_keys.add((A.field.variant, A.entries, B.entries, k))
        for open_sid in reversed(self.stack):
            name = self.names[self.span_name[open_sid]]
            if name in VERDICT_SPANS or name == "preserver.decompose":
                self.brackets_under[open_sid] += 1
                break

    def _campaign(self, args):
        trials = args[2] if len(args) > 2 else 0
        self.campaign_trials += max(trials, 0) if isinstance(trials, int) else 0

    # -- install / restore -----------------------------------------------------

    def _set(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_method(self, cls, attr, name, counting):
        raw = cls.__dict__[attr]
        make = self.counting if counting else self.spanning
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__, name)))
        else:
            self._set(cls, attr, make(raw, name))

    def install(self):
        packages = [m for n, m in sys.modules.items() if n == "kcomm2" or n.startswith("kcomm2.")]
        for short in SPAN_MODULES + COUNT_MODULES:
            module = sys.modules[f"kcomm2.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                make = self.counting if short in COUNT_MODULES else self.spanning
                wrapper = make(obj, f"{short}.{attr}")
                for ns in packages:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._set(ns, ns_attr, wrapper)
        for attr in FRACTION_OPS:
            self._wrap_method(Fraction, attr, "fields.scalar_ops.Q", True)
        for attr in QI_OPS:
            self._wrap_method(GaussianRational, attr, "fields.scalar_ops.Qi", True)
        self._wrap_method(GaussianRational, "_raw", "fields.qi_normalise", True)
        self._wrap_method(GaussianRational, "_coerce", "fields.coerce", True)
        for attr in FIELDTAG_METHODS:
            self._wrap_method(FieldTag, attr, f"fields.FieldTag.{attr}", True)
        for attr in MAT2_METHODS:
            self._wrap_method(Mat2, attr, f"matrices.Mat2.{attr}", False)
        for attr in ("lookup", "has_input"):
            self._wrap_method(preserver.MapTable, attr, "preserver.lookup", True)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.span_t0)
        name_of, parent_of = self.span_name, self.span_parent
        dur = array("d", (t1 - t0 for t0, t1 in zip(self.span_t0, self.span_t1)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent_of[i] >= 0:
                child[parent_of[i]] += dur[i]
        layer = [name.split(".", 1)[0] for name in self.names]  # by name id

        def ids(wanted):
            return {self._name_ids[w] for w in wanted if w in self._name_ids}

        def self_ms(which):
            wanted = {i for i, lay in enumerate(layer) if lay == which}
            return 1e3 * sum(dur[i] - child[i] for i in range(n) if name_of[i] in wanted)

        def mean_us(*names, outermost=False):
            wanted = ids(names)
            picked = [dur[i] for i in range(n) if name_of[i] in wanted
                      and not (outermost and parent_of[i] >= 0
                               and layer[name_of[parent_of[i]]] == layer[name_of[i]])]
            return 1e6 * sum(picked) / len(picked) if picked else float("nan")

        def brackets_per_span(*names, only_ok=False):
            wanted = ids(names)
            spans = [i for i in range(n) if name_of[i] in wanted and (self.span_ok[i] or not only_ok)]
            return sum(self.brackets_under[i] for i in spans) / len(spans) if spans else float("nan")

        serialize = [s for s in self.names if s.startswith("serialize.")]
        decoders = [s for s in serialize if s.endswith(("_from_json", "_from_code"))]
        encoders = [s for s in serialize if s.endswith("_to_json")]
        campaign = ids(["preserver.probe_campaign"])
        c = self.counts
        return {
            "fields.scalar_ops.Q": c["fields.scalar_ops.Q"],
            "fields.scalar_ops.Qi": c["fields.scalar_ops.Qi"],
            "fields.qi_normalise_calls": c["fields.qi_normalise"],
            "fields.coerce_calls": c["fields.coerce"] + c["fields.FieldTag.coerce"],
            "fields.eq_calls": c["fields.FieldTag.eq"],
            "matrices.matmul_calls": c["matrices.Mat2.__matmul__"],
            "matrices.addsub_calls": sum(c[f"matrices.Mat2.{m}"] for m in ("__add__", "__sub__", "__neg__")),
            "matrices.scale_calls": c["matrices.Mat2.scale"],
            "matrices.predicate_calls": sum(c[f"matrices.Mat2.{m}"] for m in ("eq", "is_zero", "is_scalar")),
            "matrices.self_ms": self_ms("matrices"),
            "brackets.calls": self.bracket_entries,
            "brackets.distinct_arg_ratio": (len(self.bracket_keys) / self.bracket_entries
                                            if self.bracket_entries else float("nan")),
            "classify.witness_test_us": mean_us("classify.scalar_witness_test"),
            "classify.spn_kcomm_us": mean_us("classify.scalar_plus_nilpotent_kcomm"),
            "classify.spn_spectral_us": mean_us("classify.scalar_plus_nilpotent_spectral"),
            "classify.sandwich_solve_us": mean_us("classify.rank_one_identity_solve"),
            "classify.brackets_per_verdict": brackets_per_span(*VERDICT_SPANS),
            "classify.row_reduce_calls": c["classify.solve_linear"] + c["classify.matrix_rank"],
            "preserver.generate_map_us": mean_us("preserver.generate_map"),
            "preserver.verify_us": mean_us("preserver.verify_preserving"),
            "preserver.decompose_us": mean_us("preserver.decompose"),
            "preserver.campaign_trial_us": (
                1e6 * sum(dur[i] for i in range(n) if name_of[i] in campaign)
                / self.campaign_trials if self.campaign_trials else float("nan")),
            "preserver.brackets_per_decompose": brackets_per_span("preserver.decompose", only_ok=True),
            "preserver.lookup_calls": c["preserver.lookup"],
            "preserver.self_ms": self_ms("preserver"),
            "serialize.decode_us": mean_us(*decoders, outermost=True),
            "serialize.encode_us": mean_us(*encoders, outermost=True),
            "serialize.dumps_us": mean_us("serialize.canonical_dumps"),
            "serialize.bytes_out": self.bytes_out,
        }


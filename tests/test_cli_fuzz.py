"""Every request either computes or exits 2 with a JSON error.

``cli.main`` runs in-process on all eight subcommands. The request bodies are
arbitrary JSON, arbitrary text, and valid bodies (matrices, tables, sandwich
systems, gen-map and verify-map bodies) mutated at one or two random nodes.
Orders and trial counts stay small, so each example costs milliseconds.
"""

import contextlib
import copy
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kcomm2 import cli
from kcomm2.fields import FIELD_CODES, FieldTag, roots_of_unity
from kcomm2.preserver import generate_map, h_det, h_trace, h_zero, probe_set
from kcomm2.serialize import maptable_to_json

# Integers are small (bracket orders a mutation writes into a body stay
# cheap) or far past every cap.
INTS = st.integers(-4, 8) | st.integers(min_value=2**40) | st.integers(max_value=-(2**40))
JSON = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
FIELDS = st.sampled_from(FIELD_CODES)

_RATIONALS = st.fractions(max_denominator=9).filter(lambda q: abs(q) < 100).map(str)
_FLOATS = st.floats(-1e3, 1e3) | st.sampled_from([1e200, -1e300, 5e-324])
_SCALARS = {
    "Q": _RATIONALS | st.integers(-9, 9),
    "Qi": _RATIONALS | st.fixed_dictionaries({"re": _RATIONALS, "im": _RATIONALS}),
    "R64": _FLOATS,
    "C64": st.fixed_dictionaries({"re": _FLOATS, "im": _FLOATS}),
}


def matrices(field):
    scalar = _SCALARS[field]
    return st.fixed_dictionaries({
        "field": st.just(field),
        "entries": st.lists(st.lists(scalar, min_size=2, max_size=2), min_size=2, max_size=2),
    })


def pairs(field):
    return st.lists(matrices(field), min_size=2, max_size=2)


@st.composite
def tables(draw):
    """A canonical-form table over the probes, as gen-map prints it."""
    field = FieldTag(draw(FIELDS))
    k = draw(st.integers(1, 3))
    lam = draw(st.sampled_from(roots_of_unity(field, k + 1)))
    h = draw(st.sampled_from([h_zero, h_trace, h_det]))
    return maptable_to_json(generate_map(lam, h, probe_set(field), k))


@st.composite
def verify_bodies(draw):
    table = draw(tables())
    if draw(st.booleans()):
        return table
    inputs = [e["in"] for e in table["entries"]]
    chosen = st.lists(st.lists(st.sampled_from(inputs), min_size=2, max_size=2), max_size=3)
    return {"table": table, "pairs": draw(chosen)}


@st.composite
def gen_bodies(draw):
    field = draw(FIELDS)
    body = {"lambda": draw(st.sampled_from(["1", "-1", 1.0, -1.0, {"re": "0", "im": "1"}])
                           | _SCALARS[field]),
            "h": draw(st.sampled_from(["zero", "trace", "det", "random"]))}
    if draw(st.booleans()):
        body["inputs"] = draw(st.lists(matrices(field), min_size=1, max_size=3))
    return body


VALID = {
    "kcomm": FIELDS.flatmap(lambda f: st.fixed_dictionaries({"A": matrices(f), "B": matrices(f)})),
    "classify": FIELDS.flatmap(lambda f: st.fixed_dictionaries({"Z": matrices(f),
                                                                "S": matrices(f)})),
    "sandwich": FIELDS.flatmap(lambda f: st.fixed_dictionaries({
        "left": st.lists(pairs(f), min_size=1, max_size=2),
        "right": st.lists(pairs(f), min_size=1, max_size=2)})),
    "gen-map": gen_bodies(),
    "verify-map": verify_bodies(),
    "decompose-map": tables(),
    "campaign": st.just({}),
    "fixtures": st.just({}),
}

SMALL = st.integers(0, 3).map(str)
FLAGS = {
    "kcomm": st.tuples(st.just("--k"), SMALL),
    "classify": st.tuples(st.just("--lemma"), st.sampled_from(["2.2", "2.3-spectral", "2.3-kcomm"]),
                          st.just("--k"), SMALL, st.just("--trials"), SMALL),
    "sandwich": st.tuples(st.just("--mode"), st.sampled_from(["auto", "b-in-d", "a-in-c"])),
    "gen-map": st.tuples(st.just("--field"), FIELDS, st.just("--k"), SMALL),
    "verify-map": st.just(()),
    "decompose-map": st.just(()),
    "campaign": st.tuples(st.just("--field"), FIELDS, st.just("--k"), SMALL,
                          st.just("--trials"), st.sampled_from(["0", "1", "2"])),
    "fixtures": st.tuples(st.just("--field"), FIELDS, st.just("--kmax"), SMALL),
}


def _nodes(obj, path=()):
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated(draw, valid):
    """valid with one or two nodes replaced by arbitrary JSON, dropped or duplicated."""
    body = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_nodes(body))
        if draw(st.booleans()):  # half the time, the body or one of its keys
            paths = [path for path in paths if len(path) <= 1]
        path = draw(st.sampled_from(paths))
        if not path:
            body = draw(JSON)
            continue
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace":
            parent[key] = draw(JSON)
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return body


def requests(command):
    body = JSON | VALID[command] | mutated(VALID[command])
    text = body.map(json.dumps) | st.text(max_size=12)
    return st.tuples(FLAGS[command].map(lambda flags: [command, *flags]), text)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _run(argv, text):
    """``cli.main`` on text sent as a process's stdin is: bytes behind ``.buffer``."""
    data = text.encode("utf-8", "surrogateescape")
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _is_rejection(body) -> bool:
    return (body.get("holds") is False or body.get("identity") is False
            or "rejected" in body or bool(body.get("anomalies")))


@pytest.mark.parametrize("command", sorted(VALID))
def test_every_request_computes_or_exits_2(command):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(requests(command))
    def check(request):
        code, out = _run(*request)
        assert code in (0, 1, 2)
        body = json.loads(out, parse_constant=_reject_constant)
        assert isinstance(body, dict)
        if code == 2:
            assert set(body) == {"error", "message"}
        else:
            assert "error" not in body
        if code == 1:
            assert _is_rejection(body), body

    check()

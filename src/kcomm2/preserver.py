"""Finite map tables, the preservation identity, and the constructive
decomposition into the canonical form lam*A + h(A)*I with lam**(k+1) = 1.
"""

from __future__ import annotations

from functools import lru_cache, partial
from random import Random
from typing import NamedTuple

from .brackets import MAX_ORDER, MAX_TRIALS, _check_order, _power, kcomm
from .brackets import kcomm_recursive  # noqa: F401 - unused; bench/test_bench.py still reads it here
from .errors import (
    DuplicateInput,
    InputNotInTable,
    LambdaNotRootOfUnity,
    NotTheoremForm,
    PreservationFailed,
    ProbeSetIncomplete,
    ResultTooLarge,
)
from .fields import FieldTag, GaussianRational, require_same_field, roots_of_unity
from .matrices import Mat2, matrix_units
from .randgen import random_scalar

# A map table holds at most this many inputs, and verify-map checks at most
# MAX_TABLE_INPUTS ** 2 pairs: at k = 1000 a full 36-input table (1,296 pairs)
# takes 0.07 s (Q), 0.23-0.24 s (Qi), 0.03 s (R64) or 0.04 s (C64) in-process
# on a 2-vCPU x86 box, and 0.09-0.26 s as a CLI child.  Its inputs are random:
# integer entries in [-9, 9] over Q and Qi, entries in [-0.3, 0.3] over R64
# and C64, so that no bracket overflows.
MAX_TABLE_INPUTS = 36
_check_table_size = partial(_check_order, name="map table inputs", maximum=MAX_TABLE_INPUTS)


@lru_cache(maxsize=8)
def probe_set(field: FieldTag) -> tuple:
    """The fixed probe inputs a table must cover for decomposition (built once per field)."""
    e11, e12, e21, e22 = matrix_units(field)
    return e11, e22, e12, e21, Mat2(field, (1, 1, 0, 0)), Mat2(field, (0, 1, 1, 0))


class _InputIndex:
    """Values keyed by input matrix.

    Exact inputs are dict keys (``Mat2`` hashes its canonical integer form);
    float inputs are scanned with the field tolerance.
    """

    __slots__ = ("_exact", "_scan")

    def __init__(self):
        self._exact = {}
        self._scan = []

    def get(self, A: Mat2):
        """The value stored for A, or None."""
        if A.field.is_exact:
            return self._exact.get(A)
        return next((value for inp, value in self._scan if inp.eq(A)), None)

    def add(self, A: Mat2, value):
        if A.field.is_exact:
            self._exact[A] = value
        else:
            self._scan.append((A, value))


class MapTable:
    """A finite sampled map: (input, output) matrix pairs plus field/k metadata.

    ``MapTable(field, k, entries)`` with entries ((input, output), ...); every
    input and output is over the field, and the inputs are pairwise distinct.
    """

    __slots__ = ("field", "k", "entries", "_index")

    def __init__(self, field: FieldTag, k: int, entries: tuple):
        _check_table_size(len(entries))
        index = _InputIndex()
        for entry in entries:
            A, out = entry
            require_same_field(field, A.field)
            require_same_field(field, out.field)
            if index.get(A) is not None:
                raise DuplicateInput("map table inputs must be pairwise distinct")
            index.add(A, entry)
        self.field, self.k, self.entries, self._index = field, k, entries, index

    def _find(self, A: Mat2):
        """The entry (input, output) whose input equals A, or None."""
        if A.field is not self.field:
            require_same_field(self.field, A.field)
        return self._index.get(A)

    def lookup(self, A: Mat2) -> Mat2:
        entry = self._find(A)
        if entry is None:
            raise InputNotInTable("matrix is not a table input")
        return entry[1]

    def has_input(self, A: Mat2) -> bool:
        return self._find(A) is not None

    def inputs(self):
        return [a for a, _ in self.entries]


class Decomposition(NamedTuple):
    """lam and the h values ((input, scalar), ...) of a table in the theorem's form."""

    lam: object
    h_table: tuple
    verified_pairs: int


class PreservationVerdict(NamedTuple):
    holds: bool
    pair: tuple | None = None
    left: Mat2 | None = None
    right: Mat2 | None = None


# -- built-in h rules --------------------------------------------------------


def h_zero(A: Mat2):
    return A.field.zero()


def h_trace(A: Mat2):
    return A.trace()


def h_det(A: Mat2):
    return A.det()


def h_random(field: FieldTag, seed: int):
    """A random scalar rule: the n-th distinct input queried takes the n-th
    ``random_scalar`` draw of one ``Random(seed)``, seeded once, and a repeated
    input (within the tolerance over R64/C64) reuses its value and draws nothing."""
    cache, rng = _InputIndex(), Random(seed)

    def rule(A: Mat2):
        value = cache.get(A)
        if value is None:
            value = random_scalar(field, rng, denominators=field.is_exact)
            cache.add(A, value)
        return value

    return rule


def _root_power(field: FieldTag, lam, k: int):
    """(lam**(k+1), whether it is 1 in the field); (None, False) for a power that
    ``brackets._power`` refuses (past the exact size cap, or a float overflow)."""
    try:
        power = _power(field, lam, k + 1, "lambda")
    except ResultTooLarge:
        return None, False
    return power, field.eq(power, field.one())


def _check_root(field: FieldTag, lam, k: int):
    power, is_root = _root_power(field, lam, k)
    if not is_root:
        raise LambdaNotRootOfUnity(power)


def _theorem_form(lam, h_spec, inputs) -> tuple:
    """The entries (A, lam*A + h(A)*I) over the given inputs."""
    return tuple((A, A.scale(lam).shift(h_spec(A))) for A in inputs)


def generate_map(lam, h_spec, inputs, k: int) -> MapTable:
    """Table of A -> lam*A + h(A)*I over the given inputs."""
    _check_order(k, minimum=1, maximum=MAX_ORDER)
    _check_table_size(len(inputs), minimum=1)
    field = inputs[0].field
    lam = field.coerce(lam)
    _check_root(field, lam, k)
    return MapTable(field=field, k=k, entries=_theorem_form(lam, h_spec, inputs))


def _failed_pair(field: FieldTag, k: int, A: Mat2, B: Mat2, FA: Mat2, FB: Mat2):
    """None when [FA, FB]_k matches [A, B]_k, else the failing verdict on (A, B).

    Exact brackets must be equal; float ones, whose entries grow like 2**k, must
    agree within the tolerance times the right side's largest entry (at least 1).
    The exact brackets are compared on their integer forms, and a failing verdict
    holds the two that were compared, their entries still unbuilt.
    """
    left, right = kcomm(FA, FB, k), kcomm(A, B, k)
    if field.is_exact:
        if left.eq(right):
            return None
    elif (left - right).max_abs() <= field.tolerance * max(1.0, right.max_abs()):
        return None
    return PreservationVerdict(holds=False, pair=(A, B), left=left, right=right)


def verify_preserving(table: MapTable, pairs) -> PreservationVerdict:
    """Check the order-k bracket identity [F(A), F(B)]_k = [A, B]_k on listed pairs.

    Both sides go through the Cayley-Hamilton kernel ``kcomm`` on every
    field, so a pair costs O(1) in k; the kernel is checked against the
    recursive oracle by the tests, not here.  Either side raises
    ResultTooLarge where the kernel does: an exact delta power past
    MAX_POWER_BITS, or a float bracket that is not finite.  The two sides
    are compared as ``decompose`` compares them (``_failed_pair``).

    A table input object finds its image by identity (the table keeps it
    alive, so its id is not reused); any other object is looked up by value at
    its pair, so a pair whose input is not in the table raises InputNotInTable
    only after every earlier pair held.
    """
    field, k = table.field, table.k
    _check_order(k, maximum=MAX_ORDER)
    images = {id(A): out for A, out in table.entries}
    for A, B in pairs:
        FA = images.get(id(A)) or table.lookup(A)
        FB = images.get(id(B)) or table.lookup(B)
        failed = _failed_pair(field, k, A, B, FA, FB)
        if failed is not None:
            return failed
    return PreservationVerdict(holds=True)


def all_pairs(inputs):
    return [(A, B) for A in inputs for B in inputs]


def decompose(table: MapTable) -> Decomposition:
    """Extract (lam, h) from a table and validate the canonical form globally.

    lam comes from the table input standing for E_11 and its image alone: the
    image's diagonal difference over the input's, which is exactly 1 over Q
    and Q(i) (no division is made then, so no float signed zero moves, nor
    when a tolerance of 1/2 or more lets an input with no diagonal difference
    stand for E_11).  Every
    entry is then required to leave a scalar residue, and the preservation
    identity is re-checked as cross-validation on all pairs of the table
    inputs that stand for the probes (equal to them, or within the tolerance
    over R64 and C64).  The h table lists every table input, in table order.
    """
    field = table.field
    k = table.k
    _check_order(k, minimum=1, maximum=MAX_ORDER)
    probes = probe_set(field)
    found = [table._find(p) for p in probes]
    missing = [p for p, entry in zip(probes, found) if entry is None]
    if missing:
        raise ProbeSetIncomplete(missing)

    E, D = found[0]  # the input standing for E_11, and its image
    d11, d12, d21, d22 = D.entries
    if not (field.is_zero(d12) and field.is_zero(d21)):
        raise NotTheoremForm("image-of-E11-not-diagonal", probes[0], D)
    lam = d11 - d22
    e11, _, _, e22 = E.entries
    scale = e11 - e22  # exactly 1 over Q and Q(i)
    if scale != 1 and scale != 0:  # a float input near E_11; 0 needs a tolerance of 1/2 or more
        lam = lam / scale
    if field.is_zero(lam):
        raise NotTheoremForm("lambda-zero", probes[0], D)
    _check_root(field, lam, k)

    h_table = []
    for A, out in table.entries:
        residue = out - A.scale(lam)
        if not residue.is_scalar():
            raise NotTheoremForm("nonscalar-residue", A, residue)
        h_table.append((A, residue.top_left()))

    for (A, FA), (B, FB) in all_pairs(found):  # the table's own entries: no lookup
        failed = _failed_pair(field, k, A, B, FA, FB)
        if failed is not None:
            raise PreservationFailed(failed.pair, failed.left, failed.right)
    return Decomposition(lam=lam, h_table=tuple(h_table), verified_pairs=len(found) ** 2)


# -- randomized exercise of the equivalence ----------------------------------


class CampaignReport(NamedTuple):
    """Counts and anomalies of one probe campaign."""

    field: FieldTag
    k: int
    trials: int
    valid_ok: int
    perturbed_rejected: int
    anomalies: list
    rejection_kinds: dict

    @property
    def clean(self) -> bool:
        return not self.anomalies


@lru_cache(maxsize=8)
def _bad_lambdas(field: FieldTag, k: int) -> tuple:
    """The lams of a fixed candidate list that ``_check_root`` refuses, in list order;
    filtered once per field and order, not once per bad-lambda trial."""
    candidates = [field.coerce(c) for c in (2, 3, 5, -2, -1)]
    if field.is_complex:
        candidates.append(field.coerce(GaussianRational(0, 1)))
    return tuple(lam for lam in candidates if not _root_power(field, lam, k)[1])


def probe_campaign(k: int, field: FieldTag, trials: int, seed: int) -> CampaignReport:
    """Alternate valid round-trips with perturbed maps that must be rejected.

    Valid iterations draw lam from the (k+1)-th roots of unity and a random h,
    then require an exact decomposition round-trip (``decompose`` checks
    preservation on all probe pairs).
    Perturbed iterations use a non-root lam, a non-scalar additive bump, or a
    swapped pair of outputs, and must raise a structural rejection carrying a
    witness.  Every deviation is recorded as an anomaly.
    """
    _check_order(k, minimum=1, maximum=MAX_ORDER)  # before the k + 1 roots are listed
    _check_order(trials, name="campaign trials", maximum=MAX_TRIALS)
    rng = Random(seed)
    valid_ok = perturbed_rejected = 0
    anomalies = []
    rejection_kinds = {}
    probes = probe_set(field)
    roots = roots_of_unity(field, k + 1)

    for trial in range(trials):
        lam = rng.choice(roots)
        h = h_random(field, seed=rng.randrange(1 << 30))
        try:
            table = generate_map(lam, h, probes, k)
        except LambdaNotRootOfUnity as exc:  # a listed root, by rounding at a tolerance near 0
            anomalies.append(f"trial {trial}: valid map rejected: {exc!r}")
            continue
        if rng.random() < 0.5:
            try:
                dec = decompose(table)
            except Exception as exc:  # noqa: BLE001 - any rejection is an anomaly here
                anomalies.append(f"trial {trial}: valid map rejected: {exc!r}")
                continue
            if field.eq(dec.lam, lam) and all(field.eq(value, h(A)) for A, value in dec.h_table):
                valid_ok += 1
            else:
                anomalies.append(f"trial {trial}: round-trip mismatch")
        else:
            kind = rng.choice(("bad-lambda", "residue", "swap"))
            entries = list(table.entries)
            if kind == "bad-lambda":
                entries = _theorem_form(rng.choice(_bad_lambdas(field, k)), h, probes)
            elif kind == "residue":
                idx = rng.randrange(len(entries))
                A, out = entries[idx]
                entries[idx] = (A, out + matrix_units(field)[1])
            else:
                i, j = rng.sample(range(len(entries)), 2)
                (Ai, Oi), (Aj, Oj) = entries[i], entries[j]
                entries[i], entries[j] = (Ai, Oj), (Aj, Oi)
            bad_table = MapTable(field=field, k=k, entries=tuple(entries))
            try:
                decompose(bad_table)
            except (NotTheoremForm, LambdaNotRootOfUnity, PreservationFailed) as exc:
                perturbed_rejected += 1
                name = type(exc).__name__
                rejection_kinds[name] = rejection_kinds.get(name, 0) + 1
            else:
                anomalies.append(f"trial {trial}: impostor ({kind}) was accepted")
    return CampaignReport(field, k, trials, valid_ok, perturbed_rejected, anomalies, rejection_kinds)

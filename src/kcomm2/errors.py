"""Exception types shared across the package."""


class Kcomm2Error(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(Kcomm2Error):
    """Operands live in different scalar fields."""


class InvalidOrder(Kcomm2Error):
    """A bracket order k outside the operation's allowed range."""


class RankNotOne(Kcomm2Error):
    """Matrix is zero or invertible, so no rank-one factorization exists."""


class KTooSmall(Kcomm2Error):
    """The Lemma 2.3 bracket certifier was asked for an order below 3."""


class NotAnEigenpair(Kcomm2Error):
    """Supplied vectors fail the required eigen-relations."""


class EmptySystem(Kcomm2Error):
    pass


class SingularSystem(Kcomm2Error):
    """Identity holds but neither side satisfies the independence hypothesis."""


class LambdaNotRootOfUnity(Kcomm2Error):
    """lambda**(k+1) != 1; carries the offending power, or None for a power
    too large to compute (past the exact size cap, or a float overflow).

    The message leaves the power out: an exact power can have more digits
    than ``str`` will print.
    """

    def __init__(self, power):
        self.power = power
        super().__init__("lambda**(k+1) is not 1")


class InputNotInTable(Kcomm2Error):
    pass


class ProbeSetIncomplete(Kcomm2Error):
    """Map table does not cover the required probe inputs."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"table is missing {len(self.missing)} probe input(s)")


class NotTheoremForm(Kcomm2Error):
    """Decomposition failed a structural requirement; carries the table input
    whose image failed it and the residue."""

    def __init__(self, stage, input, residue):
        self.stage = stage
        self.input = input
        self.residue = residue
        super().__init__(f"rejected at {stage}")


class PreservationFailed(Kcomm2Error):
    """Cross-validation found a pair whose brackets disagree."""

    def __init__(self, pair, left, right):
        self.pair = pair
        self.left = left
        self.right = right
        super().__init__("bracket mismatch during cross-validation")


class InputError(Kcomm2Error):
    """Malformed external input (JSON, CLI flags)."""


class DuplicateInput(InputError, ValueError):
    """A map table lists the same input matrix twice."""


class ResultTooLarge(Kcomm2Error):
    """The bracket's value exceeds the exact size cap or the float range."""


class InvariantViolation(Kcomm2Error):
    """An identity the mathematics guarantees failed to hold: a library fault."""

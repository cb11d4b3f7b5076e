"""Exception types shared across the toolkit.

Every failure mode raised by the library derives from QsarBenchError so
callers (notably the CLI) can map errors to exit codes without matching on
message text.
"""

from __future__ import annotations


class QsarBenchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(QsarBenchError):
    """Invalid experiment configuration or CLI arguments."""


class DataError(QsarBenchError):
    """Problem with input data files or their contents."""


class InvariantViolation(QsarBenchError):
    """An internal consistency check failed; indicates a toolkit bug."""


# --- SMILES parsing ---------------------------------------------------------

class SmilesParseError(DataError):
    """Base for parse failures; carries the byte offset of the offender."""

    def __init__(self, message: str, text: str, offset: int):
        super().__init__(f"{message} at offset {offset} in {text!r}")
        self.message = message
        self.text = text
        self.offset = offset

    def __reduce__(self):
        return (type(self), (self.message, self.text, self.offset))


class UnbalancedParenthesis(SmilesParseError):
    pass


class UnclosedRingBond(SmilesParseError):
    pass


class ConflictingRingBond(SmilesParseError):
    pass


class UnknownElement(SmilesParseError):
    pass


class InvalidCharge(SmilesParseError):
    pass


class UnexpectedCharacter(SmilesParseError):
    pass


# --- fingerprints -----------------------------------------------------------

class EmptyMolecule(DataError):
    """Fingerprint requested for a graph with zero atoms."""


class LengthMismatch(QsarBenchError):
    """Two sequences that must be aligned have different lengths."""


# --- dataset loading and splitting ------------------------------------------

class MissingColumn(DataError):
    pass


class UnreadableFile(DataError):
    pass


class NonBinaryLabel(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class UnknownId(DataError):
    pass


class SingleClass(DataError):
    """Undersampling requires both classes to be present."""


class EmptyTrainSet(DataError):
    """Subsampling reduced the training set to zero rows."""


# --- PCA ---------------------------------------------------------------------

class DegenerateInput(DataError):
    """Fewer than two rows; a covariance cannot be formed."""


class KTooLarge(DataError):
    """Requested more principal components than feature dimensions."""


# --- training ----------------------------------------------------------------

class EmptyBatch(QsarBenchError):
    pass


class NonFiniteTraining(InvariantViolation):
    """An epoch ended with a non-finite mean loss or parameter vector."""


# --- quantum simulator --------------------------------------------------------

class NotPowerOfTwo(QsarBenchError):
    pass


class QubitOutOfRange(QsarBenchError):
    pass


class SameQubit(QsarBenchError):
    pass


# --- clustering ----------------------------------------------------------------

class EmptyInput(DataError):
    pass


class NoLargeClusters(DataError):
    """No cluster exceeds the minimum size for training-set construction."""


# --- metrics -------------------------------------------------------------------

class EmptySequence(QsarBenchError):
    pass


class NoPositives(QsarBenchError):
    """Recall is undefined when the truth contains no positive labels."""

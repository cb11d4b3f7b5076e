"""Exception types shared across the toolkit.

An error's type says its CLI exit code; its message says which check fired.

    type                 exit  raised for
    ConfigError          1     an invalid experiment config or CLI flag
    DataError            2     an unusable input file or input value
    SmilesParseError     2     a SMILES string that does not parse (a DataError)
    InvariantViolation   3     a failed internal check: a toolkit bug or a misused call
    QsarBenchError       3     the base of all four
"""

from __future__ import annotations


class QsarBenchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(QsarBenchError):
    """Invalid experiment configuration or CLI arguments."""


class DataError(QsarBenchError):
    """Problem with input data files or their contents."""


class SmilesParseError(DataError):
    """A SMILES parse failure; carries the byte offset of the offender."""

    def __init__(self, message: str, text: str, offset: int):
        super().__init__(f"{message} at offset {offset} in {text!r}")
        self.message = message
        self.text = text
        self.offset = offset

    def __reduce__(self):
        return (type(self), (self.message, self.text, self.offset))


class InvariantViolation(QsarBenchError):
    """An internal consistency check failed: a toolkit bug or a misused library call."""

"""Exception hierarchy shared by all wiring modules."""

import re


class WiringError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WiringError, ValueError):
    """A value violates a structural invariant (duplicate wires, dangling
    cable references, unsoldered wires, malformed permutations, negative
    case counts, ...)."""


class InterfaceError(WiringError):
    """Stars or typings do not line up at a composition or evaluation
    boundary."""


class TypeMismatchError(WiringError):
    """A wire's value domain disagrees with the cable it is soldered to."""


class EnumerationLimitError(WiringError):
    """A brute-force enumeration would exceed its configured size bound."""


class ScriptError(WiringError):
    """A script failed to lex, parse, or resolve.

    Carries a 1-based source position when one is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column or 0}: {message}"
        super().__init__(message)


class CsvFormatError(WiringError):
    """A CSV file does not match the declared star or its domains."""


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for the file at ``path``, which is not UTF-8 text: ``exc``
    comes from decoding the whole file, and the message places its first bad
    byte at a line and column, lines ending as text mode reads them."""
    # the bytes before the bad one decode
    lines = re.split("\r\n|\r|\n", exc.object[: exc.start].decode("utf-8"))
    return f"{path}:{len(lines)}:{len(lines[-1]) + 1}: not UTF-8 text: {exc.reason}"

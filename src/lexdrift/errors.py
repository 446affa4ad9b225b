"""Exception types. All data/validation problems derive from DataError so the
CLI can map them to exit code 1 (I/O and usage problems exit 2). The readers
of corpus and count files share their line source, and with the query parser
the message for text that is not UTF-8; the readers of corpus and lexicon
files and the query parser share the one for an integer too long to convert."""

from __future__ import annotations

import sys
from itertools import repeat
from pathlib import Path
from typing import Iterator


class DataError(Exception):
    """A data or validation problem in user-supplied input."""


class _LineError(DataError):
    """A problem on one line of an input file, worded ``line N: problem``."""

    def __init__(self, problem: str, line: int):
        super().__init__(problem, line)  # as args, so a copy or pickle is rebuilt
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


class CorpusFormatError(_LineError):
    pass


class LexiconError(DataError):
    pass


class QueryError(DataError):
    pass


class QuerySyntaxError(QueryError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownNameError(QuerySyntaxError):
    pass


class UnindexedTermError(QueryError):
    def __init__(self, term: str):
        super().__init__(
            f"term {term!r} is not in the index vocabulary; "
            "evaluate it with a corpus scan instead"
        )
        self.term = term


class UnknownYearError(QueryError):
    pass


class IndexBuildError(DataError):
    pass


class IndexFileError(DataError):
    pass


class IndexVersionError(IndexFileError):
    pass


class IndexChecksumError(IndexFileError):
    pass


class CountsFormatError(_LineError):
    pass


class UndefinedChangeError(DataError):
    """A relative change whose reference value is zero; reported as a gap."""


def text_lines(source, newline: str | None = None) -> Iterator[tuple[str, bool]]:
    """Each line of *source*, a file path or an iterable of lines, and
    whether it was read from bytes: a file's, opened with *newline*, or a
    ``bytes`` line. Bytes are decoded as UTF-8 with ``surrogateescape``, so
    a bad byte becomes a lone surrogate and its line is reported by number.
    A reader that stops early closes this generator, and so the file."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", errors="surrogateescape", newline=newline) as stream:
            yield from zip(stream, repeat(True))
        return
    for line in source:
        raw = isinstance(line, (bytes, bytearray))
        yield (line.decode("utf-8", "surrogateescape") if raw else line), raw


def undecodable(text: str) -> str | None:
    """Why *text*, read from a file or argv with ``errors="surrogateescape"``,
    was not valid UTF-8, naming its first bad byte; None if it was. A lone
    surrogate that no byte escapes to is named as such."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        if 0xDC80 <= code <= 0xDCFF:
            return f"not valid UTF-8 (byte 0x{code - 0xDC00:02x})"
        return f"not valid Unicode (lone surrogate U+{code:04X})"
    return None


def long_integer() -> str:
    """What ``json.loads`` and ``int()`` refuse with a plain ValueError: an
    integer of more digits than Python converts from text (4,300 unless
    the interpreter is told otherwise)."""
    return f"integer of more than {sys.get_int_max_str_digits()} digits"


def lone_surrogate(text: str) -> str | None:
    """The first lone surrogate in *text*, such as a JSON escape like
    ``\\ud800`` decodes to, named ``lone surrogate U+D800``; None if there
    is none. No UTF-8 output can hold one."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"lone surrogate U+{ord(text[exc.start]):04X}"
    return None

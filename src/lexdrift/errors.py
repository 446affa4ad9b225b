"""Exception types. All data/validation problems derive from DataError so the
CLI can map them to exit code 1 (I/O and usage problems exit 2). The readers
of corpus and count files and the query parser share the message for text
that is not UTF-8."""

from __future__ import annotations


class DataError(Exception):
    """A data or validation problem in user-supplied input."""


class CorpusFormatError(DataError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


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


class CountsFormatError(DataError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UndefinedChangeError(DataError):
    """A relative change whose reference value is zero; reported as a gap."""


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

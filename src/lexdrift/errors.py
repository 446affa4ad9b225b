"""Exception types. All data/validation problems derive from DataError so the
CLI can map them to exit code 1 (I/O and usage problems exit 2). The readers
of corpus and count files share the message for a line that is not UTF-8."""

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
    """Why *text*, read from a file with ``errors="surrogateescape"``, was
    not valid UTF-8, naming its first bad byte; None if it was."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(text[exc.start]) - 0xDC00
        return f"not valid UTF-8 (byte 0x{byte:02x})"
    return None

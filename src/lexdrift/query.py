"""Boolean marker-query language.

Surface syntax (keywords are case-insensitive)::

    query := or
    or    := and ( OR and )*
    and   := atom ( AND atom )*
    atom  := '(' or ')'
           | '"..."'                       quoted phrase
           | ANY '(' name {',' name} ')'
           | ATLEAST '(' k ',' name {',' name} ')'
           | word

AND binds tighter than OR. Inside ``any()`` / ``atleast()``, a bare name must
resolve against the active lexicon: either a group name (adjective, adverb,
control, extra, disclosure, strong, medium, weak) which expands to its member
terms, or a lexicon term. Quoted strings in those lists are taken literally.
A bare word outside the operators is a plain term and need not be in the
lexicon (such terms can only be counted by a corpus scan, not via an index).
A word or quoted phrase that names a lexicon term means the entry spelled
exactly so, else the one entry equal to it ignoring case; a name that only
case tells apart from several entries is an ``UnknownNameError``.

Syntax errors report the byte offset of the offending input. Parentheses
nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
from typing import Union

from .corpus import TOKEN_RE, raw_tokens, tokenize
from .errors import QueryError, QuerySyntaxError, UnknownNameError, undecodable
from .lexicon import Lexicon
from .value import Value


# The nodes set their fields directly, not through Value._init, because a
# parse builds many of them and the loop there doubles the cost of each.


class Term(Value):
    __slots__ = ("term",)

    def __init__(self, term: str):
        object.__setattr__(self, "term", term)


class Phrase(Value):
    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple[str, ...]):
        if not tokens:
            raise ValueError("phrase needs at least one token")
        object.__setattr__(self, "tokens", tokens)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


class AnyOf(Value):
    __slots__ = ("members",)

    def __init__(self, members: tuple[str, ...]):
        if not members:
            raise ValueError("any() needs at least one member")
        object.__setattr__(self, "members", members)


class AtLeastK(Value):
    __slots__ = ("k", "members")

    def __init__(self, k: int, members: tuple[str, ...]):
        if k < 1:
            raise ValueError("k must be at least 1")
        if k > len(members):
            raise ValueError(f"k={k} exceeds the {len(members)} listed members")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "members", members)


class And(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Query, ...]):
        if not parts:
            raise ValueError("and needs at least one operand")
        object.__setattr__(self, "parts", parts)


class Or(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Query, ...]):
        if not parts:
            raise ValueError("or needs at least one operand")
        object.__setattr__(self, "parts", parts)


Query = Union[Term, Phrase, AnyOf, AtLeastK, And, Or]

# Deepest parenthesis nesting the parser accepts; it recurses once per level,
# so this keeps a hostile query far from the interpreter's recursion limit.
MAX_NESTING = 100

# A word is what the corpus tokenizer reads as one token.
_LEX_RE = re.compile(
    rf"""(?P<space>\s+)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<number>\d+)
      | (?P<quoted>"[^"]*")
      | (?P<word>{TOKEN_RE.pattern})
    """,
    re.VERBOSE,
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _scan(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _LEX_RE.match(text, pos)
        if m is None:
            off = _byte_offset(text, pos)
            if text[pos] == '"':
                raise QuerySyntaxError("unterminated quoted phrase", off)
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", off)
        kind = m.lastgroup
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def query_vocabulary(q: Query) -> set[str]:
    """All term/phrase strings the query refers to."""
    if isinstance(q, Term):
        return {q.term}
    if isinstance(q, Phrase):
        return {q.text}
    if isinstance(q, (AnyOf, AtLeastK)):
        return set(q.members)
    if isinstance(q, (And, Or)):
        return set().union(*(query_vocabulary(p) for p in q.parts))
    raise TypeError(f"not a query node: {q!r}")


class _Parser:
    def __init__(self, text: str, lexicon: Lexicon):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0
        self.depth = 0
        self.lexicon = lexicon
        self.groups = {g.casefold(): ts for g, ts in lexicon.groups().items()}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, pos: int, cls=QuerySyntaxError):
        raise cls(message, _byte_offset(self.text, pos))

    def entry_term(self, name: str, pos: int) -> str | None:
        """The lexicon entry *name* refers to (see ``Lexicon.resolve``), or
        None when it names none; a name that only case tells apart from
        several entries is an UnknownNameError."""
        found = self.lexicon.resolve(name)
        if len(found) > 1:
            self.error(
                f"{name!r} is ambiguous: lexicon entries "
                f"{', '.join(map(repr, found))} differ only in case",
                pos, UnknownNameError,
            )
        return found[0] if found else None

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {what}", tok[2])
        return tok

    def parse(self) -> Query:
        q = self.parse_or()
        tok = self.peek()
        if tok[0] != "eof":
            self.error(f"unexpected input {tok[1]!r}", tok[2])
        return q

    def parse_or(self) -> Query:
        parts = [self.parse_and()]
        while self.peek()[0] == "word" and self.peek()[1].casefold() == "or":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Query:
        parts = [self.parse_atom()]
        while self.peek()[0] == "word" and self.peek()[1].casefold() == "and":
            self.next()
            parts.append(self.parse_atom())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_atom(self) -> Query:
        kind, value, pos = self.next()
        if kind == "lparen":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            q = self.parse_or()
            self.expect("rparen", "')'")
            self.depth -= 1
            return q
        if kind == "quoted":
            return self.quoted_atom(value, pos)
        if kind == "word":
            keyword = value.casefold()
            if keyword in ("and", "or"):
                self.error(f"unexpected keyword {value!r}", pos)
            if keyword in ("any", "atleast") and self.peek()[0] == "lparen":
                return self.call_atom(keyword, pos)
            toks = tokenize(value)
            if len(toks) != 1:
                # The lexer's word class admits numeric characters such as
                # '¾' that tokenization drops or splits on.
                self.error(f"{value!r} is not a single word token", pos)
            return Term(self.entry_term(value, pos) or toks[0])
        self.error("expected a term, phrase, group operator or '('", pos)

    def quoted_atom(self, value: str, pos: int) -> Query:
        toks = self.quoted_tokens(value, pos)
        if len(toks) == 1:
            return Term(toks[0])
        return Phrase(tuple(toks))

    def quoted_tokens(self, value: str, pos: int) -> list[str]:
        """The tokens of a quoted phrase: those of the lexicon entry it
        names, else its case-folded tokens."""
        text = value[1:-1]
        term = self.entry_term(" ".join(raw_tokens(text)), pos)
        if term is not None:
            return term.split(" ")
        toks = tokenize(text)
        if not toks:
            self.error("quoted phrase contains no tokens", pos)
        return toks

    def call_atom(self, keyword: str, pos: int) -> Query:
        self.expect("lparen", "'('")
        k = None
        if keyword == "atleast":
            num = self.expect("number", "a count for atleast(k, ...)")
            k = int(num[1])
            if k < 1:
                self.error("atleast count must be at least 1", num[2])
            self.expect("comma", "','")
        members = self.parse_names()
        self.expect("rparen", "')'")
        if keyword == "any":
            return AnyOf(members)
        if k > len(members):
            self.error(
                f"atleast count {k} exceeds the {len(members)} listed terms", pos
            )
        return AtLeastK(k, members)

    def parse_names(self) -> tuple[str, ...]:
        members: list[str] = []
        seen: set[str] = set()

        def add(term: str) -> None:
            if term not in seen:
                seen.add(term)
                members.append(term)

        while True:
            kind, value, pos = self.next()
            if kind == "word":
                name = value.casefold()
                if name in self.groups:
                    for term in self.groups[name]:
                        add(term)
                elif (term := self.entry_term(value, pos)) is not None:
                    add(term)
                else:
                    self.error(
                        f"unknown group or term {value!r}", pos, UnknownNameError
                    )
            elif kind == "quoted":
                add(" ".join(self.quoted_tokens(value, pos)))
            else:
                self.error("expected a group or term name", pos)
            if self.peek()[0] != "comma":
                return tuple(members)
            self.next()


def parse_query(text: str, lexicon: Lexicon) -> Query:
    """Parse a query string, expanding group names via *lexicon*. Text that
    is not valid UTF-8, such as argv bytes that are not, is a QueryError."""
    problem = None if text.isascii() else undecodable(text)
    if problem is not None:
        raise QueryError(f"query text is {problem}")
    return _Parser(text, lexicon).parse()

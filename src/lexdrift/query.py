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

AND binds tighter than OR. ``any(NAMES)`` is ``atleast(1, NAMES)`` and
parses to the same ``AtLeastK``. Inside ``any()`` / ``atleast()``, a bare
name must resolve against the active lexicon: either a group name
(adjective, adverb, control, extra, disclosure, strong, medium, weak) which
expands to its member terms, or a lexicon term. Quoted strings in those
lists are taken literally. A bare word outside the operators is a plain term
and need not be in the lexicon (such terms can only be counted by a corpus
scan, not via an index).
A word or quoted phrase is a ``Term``: the lexicon entry it names, spelled
exactly so, else the one equal to it ignoring case (a name case alone tells
apart from several is an ``UnknownNameError``), else its case-folded tokens
joined by single spaces.

Syntax errors report the byte offset of the offending input. Parentheses
nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Union

from .corpus import ASCII_TOKEN, TOKEN_RE, raw_tokens, tokenize
from .errors import QueryError, QuerySyntaxError, UnknownNameError, long_integer, undecodable
from .lexicon import Lexicon
from .value import Value


# The nodes set their fields directly, not through Value._init, because a
# parse builds many of them and the loop there doubles the cost of each.


class Term(Value):
    __slots__ = ("term",)

    def __init__(self, term: str):
        object.__setattr__(self, "term", term)


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


Query = Union[Term, AtLeastK, And, Or]

# Deepest parenthesis nesting the parser accepts; it recurses once per level,
# so this keeps a hostile query far from the interpreter's recursion limit.
MAX_NESTING = 100


def _lexer(word: str) -> tuple[str, str]:
    """The lexer and cover patterns of a query text whose words *word*
    matches.

    A token is a parenthesis, a comma, a number, a quoted phrase or a word,
    which is what the corpus tokenizer reads as one token; the parser tells
    them apart by their first character, and reads the end of the text as "".
    The lexer matches a token and the whitespace before it, or any other
    character as a token of its own, which the parser refuses. It is run on
    text with no trailing whitespace, so every search matches where it
    starts: in a trailing run, one would start again at each character of
    the run and read the rest of it. The cover matches the stretch of a
    text, from its start, that tokens and whitespace cover; it is read only
    when a query is refused."""
    token = rf'[(),]|\d+|"[^"]*"|{word}'
    return rf"\s*({token}|\S)", rf"(?:\s*(?:{token}))*\s*"


# The patterns for ASCII text and for any other, compiled on first use
# through re's cache, so a command that reads one ASCII query compiles only
# the ASCII ones. Their \s is Unicode's in both, as it is in the tokenizer:
# re.ASCII's would leave out \x1c-\x1f.
_LEXERS = {True: _lexer(ASCII_TOKEN), False: _lexer(TOKEN_RE.pattern)}
# Every case spelling of the keywords, which are compared after case folding:
# no character but an ASCII letter folds to letters of theirs.
_OR, _AND = ({"".join(s) for s in product(*zip(w, w.upper()))} for w in ("or", "and"))


def query_vocabulary(q: Query) -> set[str]:
    """All term strings the query refers to."""
    if isinstance(q, Term):
        return {q.term}
    if isinstance(q, AtLeastK):
        return set(q.members)
    if isinstance(q, (And, Or)):
        return set().union(*(query_vocabulary(p) for p in q.parts))
    raise TypeError(f"not a query node: {q!r}")


class _Parser:
    def __init__(self, text: str, lexicon: Lexicon):
        self.text = text
        self.lexer, self.cover = _LEXERS[text.isascii()]
        self.tokens = re.findall(self.lexer, text.rstrip()) + [""]
        self.i = 0  # the next token
        self.depth = 0
        self.lexicon = lexicon
        # The lexicon's own tables, read and never changed. Group names are
        # role and strength names: lowercase already.
        self.groups = lexicon._groups
        self.folded = lexicon._folded

    def error(self, message: str, i: int, cls=QuerySyntaxError):
        """Raise *message* at token *i*, found again in the text, unless a
        character that starts no token comes first: that is the error."""
        text = self.text
        end = re.match(self.cover, text).end()
        if end < len(text):
            offset = len(text[:end].encode("utf-8"))
            if text[end] == '"':
                raise QuerySyntaxError("unterminated quoted phrase", offset)
            raise QuerySyntaxError(f"unexpected character {text[end]!r}", offset)
        pos = [m.start(1) for m in re.finditer(self.lexer, text.rstrip())] + [len(text)]
        raise cls(message, len(text[:pos[i]].encode("utf-8")))

    def entry_term(self, name: str, i: int) -> str | None:
        """The lexicon entry *name* refers to (see ``Lexicon.resolve``), or
        None when it names none; a name that only case tells apart from
        several entries is an UnknownNameError."""
        found = self.lexicon.resolve(name)
        if len(found) > 1:
            self.error(
                f"{name!r} is ambiguous: lexicon entries "
                f"{', '.join(map(repr, found))} differ only in case",
                i, UnknownNameError,
            )
        return found[0] if found else None

    def expect(self, token: str, what: str) -> None:
        if self.tokens[self.i] != token:
            self.error(f"expected {what}", self.i)
        self.i += 1

    def parse(self) -> Query:
        q = self.parse_or()
        if self.tokens[self.i]:
            self.error(f"unexpected input {self.tokens[self.i]!r}", self.i)
        return q

    def parse_or(self) -> Query:
        q = self.parse_and()
        if self.tokens[self.i] not in _OR:
            return q
        parts = [q]
        while self.tokens[self.i] in _OR:
            self.i += 1
            parts.append(self.parse_and())
        return Or(tuple(parts))

    def parse_and(self) -> Query:
        q = self.parse_atom()
        if self.tokens[self.i] not in _AND:
            return q
        parts = [q]
        while self.tokens[self.i] in _AND:
            self.i += 1
            parts.append(self.parse_atom())
        return And(tuple(parts))

    def parse_atom(self) -> Query:
        i = self.i
        token = self.tokens[i]
        first = token[:1]  # "" at the end of the text
        self.i = i + 1
        if first == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}", i)
            self.depth += 1
            q = self.parse_or()
            self.expect(")", "')'")
            self.depth -= 1
            return q
        if first == '"':
            return Term(self.quoted_text(token, i))
        if first not in ")," and not first.isdecimal():  # a word
            keyword = token.casefold()
            if keyword == "and" or keyword == "or":
                self.error(f"unexpected keyword {token!r}", i)
            if (keyword == "any" or keyword == "atleast") and self.tokens[i + 1] == "(":
                return self.call_atom(keyword, i)
            # An ASCII word that starts with a letter is one corpus token; a
            # lone "'" or "-" is none, and tokenization refuses it.
            toks = [keyword] if first.isalpha() and token.isascii() else tokenize(token)
            if len(toks) != 1:
                # The lexer's word class admits numeric characters such as
                # '¾' that tokenization drops or splits on.
                self.error(f"{token!r} is not a single word token", i)
            return Term(self.entry_term(token, i) or toks[0])
        self.error("expected a term, phrase, group operator or '('", i)

    def quoted_text(self, token: str, i: int) -> str:
        """The term a quoted phrase names: the lexicon entry it names, else
        its case-folded tokens joined by single spaces."""
        text = token[1:-1]
        # The text of an entry that folds to itself is that entry.
        if text in self.folded.get(text, ()):
            return text
        term = self.entry_term(" ".join(raw_tokens(text)), i)
        if term is not None:
            return term
        toks = tokenize(text)
        if not toks:
            self.error("quoted phrase contains no tokens", i)
        return " ".join(toks)

    def call_atom(self, keyword: str, i: int) -> Query:
        self.i += 1  # the '(' the caller saw
        k = 1  # any(NAMES) is atleast(1, NAMES)
        if keyword == "atleast":
            at = self.i
            count = self.tokens[at]
            if not count[:1].isdecimal():
                self.error("expected a count for atleast(k, ...)", at)
            self.i += 1
            try:
                k = int(count)
            except ValueError:
                self.error(f"atleast count is an {long_integer()}", at)
            if k < 1:
                self.error("atleast count must be at least 1", at)
            self.expect(",", "','")
        members = self.parse_names()
        self.expect(")", "')'")
        if k > len(members):
            self.error(f"atleast count {k} exceeds the {len(members)} listed terms", i)
        return AtLeastK(k, members)

    def parse_names(self) -> tuple[str, ...]:
        members: dict[str, None] = {}  # in the order first named
        tokens, groups, folded = self.tokens, self.groups, self.folded
        while True:
            i = self.i
            token = tokens[i]
            first = token[:1]
            self.i = i + 1
            if first == '"':
                members[self.quoted_text(token, i)] = None
            elif first not in "()," and not first.isdecimal():  # a word
                # A name spelled as a group or an entry is found as it
                # stands. The folded table lists an entry under its own
                # spelling only if that folds to itself, and so to no group.
                group = groups.get(token)
                if group is None and token in folded.get(token, ()):
                    members[token] = None
                elif group is not None or (group := groups.get(token.casefold())) is not None:
                    members.update(dict.fromkeys(group))
                elif (term := self.entry_term(token, i)) is not None:
                    members[term] = None
                else:
                    self.error(f"unknown group or term {token!r}", i, UnknownNameError)
            else:
                self.error("expected a group or term name", i)
            if tokens[self.i] != ",":
                return tuple(members)
            self.i += 1


def parse_query(text: str, lexicon: Lexicon) -> Query:
    """Parse a query string, expanding group names via *lexicon*. Text that
    is not valid UTF-8, such as argv bytes that are not, is a QueryError."""
    problem = None if text.isascii() else undecodable(text)
    if problem is not None:
        raise QueryError(f"query text is {problem}")
    return _Parser(text, lexicon).parse()

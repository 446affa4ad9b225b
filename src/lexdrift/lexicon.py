"""Marker-term lexicons.

A lexicon holds role entries (adjective / adverb / control / extra /
disclosure), the strength tiers (strong / medium / weak) used for combined
queries, and optional per-term case sensitivity. The built-in lexicon ships
the default marker vocabulary: twelve adjectives and twelve adverbs that are
over-represented in LLM-generated text, twelve subject-neutral control words,
two extra markers, and six disclosure terms (two of them phrases).

Lexicon JSON files mirror the in-memory structure::

    {"name": "...",
     "entries": [{"term": "intricate", "role": "adjective"}, ...],
     "groups": {"strong": [...], "medium": [...], "weak": [...]}}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .corpus import raw_tokens, tokenize
from .errors import LexiconError
from .value import Value

ROLES = ("adjective", "adverb", "control", "extra", "disclosure")
STRENGTH_GROUPS = ("strong", "medium", "weak")


class TermEntry(NamedTuple):
    term: str
    role: str
    case_sensitive: bool = False


class Lexicon(Value):
    """Immutable named vocabulary; freely shareable once constructed."""

    __slots__ = ("name", "entries", "strength", "_folded", "_groups")
    __hash__ = None  # strength is a dict

    def __init__(self, name: str, entries: Iterable[TermEntry],
                 strength: Mapping[str, Iterable[str]] = {}):  # read, never kept
        self._init(name, tuple(entries), {g: tuple(ts) for g, ts in strength.items()})
        self._validate()
        # Derived once, because every query parse reads both.
        folded: dict[str, tuple[str, ...]] = {}
        for entry in self.entries:
            key = _fold(entry.term)
            folded[key] = folded.get(key, ()) + (entry.term,)
        object.__setattr__(self, "_folded", folded)
        groups: dict[str, tuple[str, ...]] = {}
        for role in ROLES:
            members = tuple(e.term for e in self.entries if e.role == role)
            if members:
                groups[role] = members
        for group in STRENGTH_GROUPS:
            members = self.strength.get(group, ())
            if members:
                groups[group] = members
        object.__setattr__(self, "_groups", groups)

    def _validate(self) -> None:
        if not self.name:
            raise LexiconError("lexicon name must be non-empty")
        by_term: dict[str, TermEntry] = {}
        for entry in self.entries:
            if entry.role not in ROLES:
                raise LexiconError(f"unknown role {entry.role!r} for term {entry.term!r}")
            if not entry.term:
                raise LexiconError("empty term")
            if entry.term in by_term:
                raise LexiconError(f"duplicate term {entry.term!r}")
            toks = raw_tokens(entry.term) if entry.case_sensitive else tokenize(entry.term)
            canon = entry.term if entry.case_sensitive else entry.term.casefold()
            canon = canon.replace("’", "'")
            if not toks or " ".join(toks) != canon:
                raise LexiconError(
                    f"term {entry.term!r} does not survive tokenization; "
                    "terms must be plain tokens (or token phrases)"
                )
            if len(toks) > 1 and entry.role != "disclosure":
                raise LexiconError(
                    f"term {entry.term!r}: phrases are only permitted for the "
                    "disclosure role"
                )
            by_term[entry.term] = entry
        assigned: dict[str, str] = {}
        for group, terms in self.strength.items():
            if group not in STRENGTH_GROUPS:
                raise LexiconError(f"unknown strength group {group!r}")
            seen: set[str] = set()
            for term in terms:
                if term in seen:
                    raise LexiconError(f"duplicate term {term!r} in group {group!r}")
                seen.add(term)
                if term in assigned:
                    raise LexiconError(
                        f"term {term!r} appears in both {assigned[term]!r} and {group!r}"
                    )
                assigned[term] = group
                entry = by_term.get(term)
                if entry is None or entry.role not in ("adjective", "adverb"):
                    raise LexiconError(
                        f"strength group member {term!r} is not an adjective or "
                        "adverb entry"
                    )

    def terms(self) -> tuple[str, ...]:
        """All entry terms, in entry order; this is the index vocabulary."""
        return tuple(e.term for e in self.entries)

    def resolve(self, name: str) -> tuple[str, ...]:
        """The entry terms *name* refers to: the entry spelled exactly so,
        else every entry equal to it ignoring case (more than one makes the
        name ambiguous), else none."""
        found = self._folded.get(_fold(name), ())
        return (name,) if name in found else found

    def groups(self) -> dict[str, tuple[str, ...]]:
        """Named, non-empty term groups: one per role plus strength tiers."""
        return dict(self._groups)


def _fold(term: str) -> str:
    """*term* as the folded tokens of a valid entry spell it."""
    return term.casefold().replace("’", "'")


_ADJECTIVES = (
    "commendable", "innovative", "meticulous", "intricate", "notable",
    "versatile", "noteworthy", "invaluable", "pivotal", "potent", "fresh",
    "ingenious",
)
_ADVERBS = (
    "meticulously", "reportedly", "lucidly", "innovatively", "aptly",
    "methodically", "excellently", "compellingly", "impressively",
    "undoubtedly", "scholarly", "strategically",
)
_CONTROLS = (
    "consider", "conclusion", "furthermore", "relative", "technical", "blue",
    "red", "yellow", "before", "after", "earlier", "later",
)
_EXTRAS = ("groundbreaking", "outwith")
_DISCLOSURE = (
    "chatgpt", "gpt", "openai", "llm", "large language model",
    "artificial intelligence",
)
_STRENGTH = {
    "strong": ("intricate", "meticulous", "meticulously", "commendable"),
    "medium": ("notable", "pivotal", "invaluable", "noteworthy",
               "methodically", "strategically"),
    "weak": ("innovative", "versatile"),
}


def builtin_lexicon() -> Lexicon:
    """The default marker lexicon (all entries case-insensitive)."""
    entries = (
        [TermEntry(t, "adjective") for t in _ADJECTIVES]
        + [TermEntry(t, "adverb") for t in _ADVERBS]
        + [TermEntry(t, "control") for t in _CONTROLS]
        + [TermEntry(t, "extra") for t in _EXTRAS]
        + [TermEntry(t, "disclosure") for t in _DISCLOSURE]
    )
    return Lexicon(name="builtin", entries=tuple(entries), strength=dict(_STRENGTH))


def lexicon_to_dict(lex: Lexicon) -> dict:
    entries = []
    for e in lex.entries:
        item: dict = {"term": e.term, "role": e.role}
        if e.case_sensitive:
            item["case_sensitive"] = True
        entries.append(item)
    return {
        "name": lex.name,
        "entries": entries,
        "groups": {g: list(ts) for g, ts in lex.strength.items()},
    }


def lexicon_from_dict(data: dict) -> Lexicon:
    if not isinstance(data, dict):
        raise LexiconError("lexicon file must contain a JSON object")
    name = data.get("name")
    if not isinstance(name, str):
        raise LexiconError("lexicon 'name' must be a string")
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise LexiconError("lexicon 'entries' must be a list")
    entries = []
    for item in raw_entries:
        if not isinstance(item, dict) or not isinstance(item.get("term"), str) \
                or not isinstance(item.get("role"), str):
            raise LexiconError(f"malformed entry: {item!r}")
        cs = item.get("case_sensitive", False)
        if not isinstance(cs, bool):
            raise LexiconError(f"entry {item['term']!r}: case_sensitive must be a bool")
        entries.append(TermEntry(item["term"], item["role"], cs))
    groups = data.get("groups", {})
    if not isinstance(groups, dict):
        raise LexiconError("lexicon 'groups' must be an object")
    strength = {}
    for g, ts in groups.items():
        if not isinstance(ts, list) or not all(isinstance(t, str) for t in ts):
            raise LexiconError(f"group {g!r} must be a list of terms")
        strength[g] = tuple(ts)
    return Lexicon(name=name, entries=tuple(entries), strength=strength)


def save_lexicon(lex: Lexicon, path) -> None:
    Path(path).write_text(
        json.dumps(lexicon_to_dict(lex), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_lexicon(path) -> Lexicon:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LexiconError(f"invalid lexicon JSON: {exc.msg} (line {exc.lineno})")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"lexicon file is not UTF-8 (byte offset {exc.start})")
    except RecursionError:
        raise LexiconError("invalid lexicon JSON: nested too deeply") from None
    return lexicon_from_dict(data)

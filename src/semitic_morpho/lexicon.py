"""Lexicon trees (one per lexical tape) with morpheme entries and features.

Entries live in edge-labelled tries. A node may carry several entries
(homographs such as the two kfl roots of the broken-plural data); walking an
entry's form from the tree root always ends at the node holding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .alphabet import BOUNDARY, DecodeError, SymbolString, tokenize_lexical
from .features import FeatureStructure, make_fs

TAPES = ("pattern", "root", "vocalism")


class LexiconError(Exception):
    pass


class DuplicateEntry(LexiconError):
    pass


@dataclass(frozen=True)
class MorphemeEntry:
    id: str
    tape: str                    # pattern | root | vocalism | word
    form: SymbolString           # ends with "+", no interior "+"
    features: FeatureStructure
    gloss: str = ""
    kind: str = ""               # "", "prefix", "suffix", "word"

    @property
    def body(self) -> SymbolString:
        """Form without the trailing boundary."""
        return self.form[:-1]


class Node:
    """One trie node; `edges` maps a symbol to the child node, in symbol
    order, so that walks branch in a fixed order."""

    __slots__ = ("edges", "entries", "depth")

    def __init__(self, depth: int = 0):
        self.edges: Dict[str, Node] = {}
        self.entries: List[MorphemeEntry] = []
        self.depth = depth


class LexiconTree:
    def __init__(self):
        self.root = Node()
        self.entries: List[MorphemeEntry] = []

    def insert(self, entry: MorphemeEntry) -> None:
        node = self.root
        for sym in entry.form:
            child = node.edges.get(sym)
            if child is None:
                child = Node(node.depth + 1)
                in_order = not node.edges or sym > next(reversed(node.edges))
                node.edges[sym] = child
                if not in_order:
                    node.edges = dict(sorted(node.edges.items()))
            node = child
        node.entries.append(entry)
        self.entries.append(entry)


class Lexicon:
    """Three tapes of tries. Affixes and linear words live on the pattern tape."""

    def __init__(self):
        self.trees: Dict[str, LexiconTree] = {t: LexiconTree() for t in TAPES}
        self.by_id: Dict[Tuple[str, str], MorphemeEntry] = {}
        self.soft_attrs: frozenset = frozenset()
        # bumped by every add: a step memo built for an older revision
        # (engine.step_memo) is replaced
        self.revision = 0

    def tree(self, tape: str) -> LexiconTree:
        return self.trees[tape]

    def add(self, entry: MorphemeEntry) -> None:
        """Add an entry; an id names one entry per tape (DuplicateEntry)."""
        key = (entry.tape, entry.id)
        if key in self.by_id:
            raise DuplicateEntry(
                f"duplicate entry {entry.id!r} on tape {entry.tape!r}")
        self.trees[entry.tape].insert(entry)
        self.by_id[key] = entry
        self.revision += 1

    def entry(self, tape: str, entry_id: str) -> Optional[MorphemeEntry]:
        return self.by_id.get((tape, entry_id))

    def entries(self, tape: Optional[str] = None) -> List[MorphemeEntry]:
        if tape is None:
            return [e for t in TAPES for e in self.trees[t].entries]
        return list(self.trees[tape].entries)

    def max_entry_length(self) -> int:
        forms = [len(e.form) for t in TAPES for e in self.trees[t].entries]
        return max(forms, default=1)


_RESERVED = {"id", "kind", "stem"}


def load_lexicon(text: str) -> Lexicon:
    """Parse the lexicon text format.

    One entry per line: ``tape<TAB>form<TAB>k=v;k=v<TAB>gloss``. Forms are
    written without the trailing boundary. ``#`` starts a comment; a line
    ``!soft<TAB>attr[,attr...]`` declares soft (preference) attributes.
    Multi-valued features use ``attr=v1|v2``. ``kind=prefix`` and
    ``kind=suffix`` mark affixes, on pattern lines only.
    """
    lex = Lexicon()
    soft: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cols = line.split("\t")
        if cols[0] == "!soft":
            if len(cols) < 2:
                raise LexiconError(f"line {lineno}: !soft needs attribute names")
            soft.extend(a.strip() for a in cols[1].split(",") if a.strip())
            continue
        if len(cols) < 2:
            raise LexiconError(f"line {lineno}: expected tape<TAB>form")
        tape, form_text = cols[0].strip(), cols[1].strip()
        featcol = cols[2].strip() if len(cols) > 2 else ""
        gloss = cols[3].strip() if len(cols) > 3 else ""
        if tape == "word":
            tape, kind = "pattern", "word"
        elif tape in TAPES:
            kind = ""
        else:
            raise LexiconError(f"line {lineno}: unknown tape {tape!r}")
        try:
            body = tokenize_lexical(form_text)
        except DecodeError as exc:
            raise LexiconError(f"line {lineno}: bad form {form_text!r}: {exc}") from None
        if not body:
            raise LexiconError(f"line {lineno}: empty form")
        if BOUNDARY in body:
            raise LexiconError(f"line {lineno}: interior boundary in {form_text!r}")
        meta: Dict[str, str] = {}
        feats: Dict[str, object] = {}
        if featcol:
            for item in featcol.split(";"):
                item = item.strip()
                if not item:
                    continue
                if "=" not in item:
                    raise LexiconError(f"line {lineno}: bad feature {item!r}")
                attr, value = item.split("=", 1)
                attr, value = attr.strip(), value.strip()
                if attr in _RESERVED:
                    meta[attr] = value
                else:
                    feats[attr] = value.split("|") if "|" in value else value
        if "kind" in meta:
            if kind or tape != "pattern" or \
               meta["kind"] not in ("prefix", "suffix"):
                raise LexiconError(f"line {lineno}: bad kind {meta['kind']!r}: "
                                   f"only pattern lines take kind=prefix or "
                                   f"kind=suffix")
            kind = meta["kind"]
        entry = MorphemeEntry(
            id=meta.get("id", form_text),
            tape=tape,
            form=body + (BOUNDARY,),
            features=make_fs(feats),
            gloss=gloss,
            kind=kind,
        )
        try:
            lex.add(entry)
        except DuplicateEntry as exc:
            raise DuplicateEntry(f"line {lineno}: {exc}") from None
    lex.soft_attrs = frozenset(soft)
    return lex

"""Symbol inventory, symbol classes and the ASCII transliteration table.

Symbols are plain strings: one-character surface letters (``k``, ``a``, ``H``),
the morpheme boundary ``+`` and the multi-character pattern slots (``c1``..``c4``,
``v1``, ``v2``). Long vowels are two adjacent identical short-vowel symbols
(``aa``, ``ii``, ``uu``); there is no separate long-vowel symbol.
"""

from __future__ import annotations

from typing import Iterable, Tuple

SymbolString = Tuple[str, ...]


class AlphabetError(Exception):
    pass


class UnknownSymbol(AlphabetError):
    def __init__(self, symbol: str):
        super().__init__(f"unknown symbol: {symbol!r}")
        self.symbol = symbol


class DecodeError(AlphabetError):
    def __init__(self, text: str, offset: int):
        super().__init__(f"cannot decode {text[offset]!r} at offset {offset}")
        self.text = text
        self.offset = offset


# ASCII transliteration: emphatic/guttural consonants use capitals, the rest
# are themselves. Values are the phonetic names used by dump-alphabet.
TRANSLITERATION = {
    "A": "glottal stop",
    "H": "h with underdot (emphatic h)",
    "T": "t with underdot (emphatic t)",
    "S": "s with underdot (emphatic s)",
    "W": "s with caron (sh)",
    "J": "j with circumflex",
    "c": "ayn (voiced pharyngeal)",
    "b": "b", "d": "d", "f": "f", "h": "h", "k": "k", "l": "l",
    "m": "m", "n": "n", "q": "q", "r": "r", "s": "s", "t": "t",
    "w": "w", "y": "y",
    "a": "short a", "i": "short i", "u": "short u",
}

SHORT_VOWELS = frozenset("aiu")
CONSONANTS = frozenset(TRANSLITERATION) - SHORT_VOWELS
LETTERS = frozenset(TRANSLITERATION)

BOUNDARY = "+"
PATTERN_C_SLOTS = ("c1", "c2", "c3", "c4")
PATTERN_V_SLOTS = ("v1", "v2")
SLOTS = frozenset(PATTERN_C_SLOTS) | frozenset(PATTERN_V_SLOTS)

ALL_SYMBOLS = LETTERS | SLOTS | {BOUNDARY}


def slot_index(symbol: str) -> int:
    """1-based position a pattern slot points at (c3 -> 3, v2 -> 2)."""
    return int(symbol[1:])


def classify(symbol: str) -> frozenset:
    """All classes containing *symbol* (excluding 'letter'/'any' umbrella sets)."""
    if symbol not in ALL_SYMBOLS:
        raise UnknownSymbol(symbol)
    out = set()
    if symbol in CONSONANTS:
        out |= {"consonant", "non_vowel"}
    elif symbol in SHORT_VOWELS:
        out.add("short_vowel")
    elif symbol == BOUNDARY:
        out |= {"boundary", "non_vowel"}
    elif symbol in PATTERN_C_SLOTS:
        out |= {"pattern_consonant_slot", "non_vowel"}
    else:
        out |= {"pattern_vowel_slot", "non_vowel"}
    return frozenset(out)


def decode(text: str) -> SymbolString:
    """Surface ASCII string to a symbol tuple; reports the first bad offset."""
    for i, ch in enumerate(text):
        if ch not in LETTERS:
            raise DecodeError(text, i)
    return tuple(text)


def encode(symbols: Iterable[str]) -> str:
    """Inverse of decode. Only surface letters are encodable."""
    syms = tuple(symbols)
    for s in syms:
        if s not in LETTERS:
            raise UnknownSymbol(s)
    return "".join(syms)


def tokenize_lexical(text: str) -> SymbolString:
    """Split a lexical-side string into symbols.

    Slot symbols are a letter plus a digit (``c1``, ``v2``); everything else is
    one character. Used by the grammar and lexicon file parsers.
    """
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "cv" and i + 1 < len(text) and text[i + 1].isdigit():
            sym = text[i : i + 2]
            if sym not in SLOTS:
                raise DecodeError(text, i)
            out.append(sym)
            i += 2
            continue
        if ch not in LETTERS and ch != BOUNDARY:
            raise DecodeError(text, i)
        out.append(ch)
        i += 1
    return tuple(out)


def dump_table() -> str:
    """The transliteration table as tab-separated ``ascii<TAB>name`` lines."""
    lines = [f"{ch}\t{name}" for ch, name in sorted(TRANSLITERATION.items())]
    return "\n".join(lines) + "\n"

"""Bundled normative grammar and lexicon, plus the verbal-stem table."""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Tuple

from .alphabet import decode
from .dsl import parse_grammar
from .engine import analyze
from .grammar import Grammar
from .lexicon import Lexicon, load_lexicon

GRAMMAR_FILE = "arabic.tlr"
LEXICON_FILE = "arabic.lex"

ACTIVE_VOCALISM = "a"
PASSIVE_VOCALISM = "ui"


@dataclass(frozen=True)
class VerbTable:
    rows: Tuple[Tuple[str, str, Optional[str]], ...]

    def cells(self):
        for measure, active, passive in self.rows:
            yield measure, "act", active
            if passive is not None:
                yield measure, "pass", passive


# Arabic verbal stems: measure, active, passive (measures 9 and 11-15 have
# no passive cell).
VERB_TABLE = VerbTable(rows=(
    ("1", "katab", "kutib"),
    ("2", "kattab", "kuttib"),
    ("3", "kaatab", "kuutib"),
    ("4", "Aaktab", "Auktib"),
    ("5", "takattab", "tukuttib"),
    ("6", "takaatab", "tukuutib"),
    ("7", "nkatab", "nkutib"),
    ("8", "ktatab", "ktutib"),
    ("9", "ktabab", None),
    ("10", "staktab", "stuktib"),
    ("11", "ktaabab", None),
    ("12", "ktawtab", None),
    ("13", "ktawwab", None),
    ("14", "ktanbab", None),
    ("15", "ktanbay", None),
    ("Q1", "daHraJ", "duHriJ"),
    ("Q2", "tadaHraJ", "tuduHriJ"),
    ("Q3", "dHanraJ", "dHunriJ"),
    ("Q4", "dHarJaJ", "dHurJiJ"),
))


def measure_pattern_id(measure: str) -> str:
    return measure if measure.startswith("Q") else f"M{measure}"


def data_text(name: str) -> str:
    """Bundled data file contents; SEMITIC_MORPHO_DATA overrides the directory."""
    override = os.environ.get("SEMITIC_MORPHO_DATA")
    if override:
        path = os.path.join(override, name)
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return resources.files(__package__).joinpath("data", name).read_text("utf-8")


def load_builtin() -> Tuple[Grammar, Lexicon, VerbTable]:
    grammar = parse_grammar(data_text(GRAMMAR_FILE))
    lexicon = load_lexicon(data_text(LEXICON_FILE))
    return grammar, lexicon, VERB_TABLE


def verify_table(grammar: Grammar, lexicon: Lexicon,
                 table: VerbTable) -> List[str]:
    """Check that every table cell analyzes to its measure and voice.

    Returns a list of failure descriptions; empty means the table verifies.
    """
    failures: List[str] = []
    for measure, voice, surface in table.cells():
        expected_pattern = measure_pattern_id(measure)
        expected_voc = ACTIVE_VOCALISM if voice == "act" else PASSIVE_VOCALISM
        analyses = analyze(decode(surface), grammar, lexicon)
        if not analyses:
            failures.append(
                f"{surface} ({expected_pattern} {voice}): no analysis")
            continue
        hits = [
            a for a in analyses
            if a.stems and a.stems[-1].pattern.id == expected_pattern
            and a.stems[-1].vocalism.id == expected_voc
        ]
        if not hits:
            got = sorted({
                f"{a.stems[-1].pattern.id}/{a.stems[-1].vocalism.id}"
                for a in analyses if a.stems})
            failures.append(
                f"{surface} ({expected_pattern} {voice}): expected "
                f"{expected_pattern}/{expected_voc}, got {got}")
    return failures

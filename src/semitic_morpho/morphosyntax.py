"""Morphosyntactic parsing of analyses and repair of feature clashes.

A morphologically sound word may still pick a pattern the root does not
admit for the inflection (broken plurals). Full unification of the stem and
affix feature structures detects the clash; repair regenerates the expected
form(s) for the root in generation mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .alphabet import SymbolString
from .engine import (Analysis, optional_deletion_rules, scripted_surfaces,
                     selection_scripts)
# perfbench/tracing.py wraps morphosyntax.generate
from .engine import generate  # noqa: F401
from .features import FeatureStructure, conflicts, unify_all
from .grammar import Grammar
from .lexicon import Lexicon

PREFERENCE_ATTR = "bp_pattern"
PAIRED_VOCALISM_ATTR = "bp_voc"


@dataclass(frozen=True)
class MorphoParse:
    stem_features: FeatureStructure
    affix_features: FeatureStructure
    inflection: Optional[str]


@dataclass(frozen=True)
class FeatureClash:
    root_id: str
    pattern_id: str
    inflection: Optional[str]
    expected_patterns: Tuple[str, ...]
    attribute: str


def parse_word(analysis: Analysis,
               lexicon: Lexicon) -> Union[MorphoParse, FeatureClash]:
    """Unify the stem feature structures plus affix features.

    Returns a MorphoParse, or a FeatureClash naming the pattern-preference
    conflict (other attribute conflicts are reported under their own
    attribute name; analyses reaching here normally agree on hard features).
    """
    if not analysis.stems:
        affix_fs = unify_all(*(a.features for a in analysis.affixes())) or {}
        return MorphoParse(stem_features={}, affix_features=affix_fs,
                           inflection=None)
    stem = analysis.stems[-1]
    voc_infl = stem.vocalism.features.get("infl", ())
    inflection = voc_infl[0] if len(voc_infl) == 1 else None
    unified = unify_all(stem.pattern.features, stem.root.features,
                        stem.vocalism.features)
    if unified is not None:
        affix_fs = unify_all(*(a.features for a in analysis.affixes()))
        if affix_fs is None:
            affix_fs = {}
        infl = unified.get("infl", ())
        return MorphoParse(stem_features=unified, affix_features=affix_fs,
                           inflection=infl[0] if len(infl) == 1 else inflection)
    bad = conflicts(stem.root.features, stem.pattern.features)
    attribute = PREFERENCE_ATTR if PREFERENCE_ATTR in bad else (bad[0] if bad else "?")
    return FeatureClash(
        root_id=stem.root.id,
        pattern_id=stem.pattern.id,
        inflection=inflection,
        expected_patterns=stem.root.features.get(PREFERENCE_ATTR, ()),
        attribute=attribute,
    )


class UnknownPattern(Exception):
    pass


def repair_clash(clash: FeatureClash, grammar: Grammar,
                 lexicon: Lexicon) -> List[SymbolString]:
    """One fully vocalised surface per pattern the root expects.

    Each expected pattern carries the vocalism paired with it for the
    inflection; generation runs with the optional deletions disabled, and
    reads only the first surface of each selection.
    """
    skip = optional_deletion_rules(grammar)
    out: List[SymbolString] = []
    for pattern_id in clash.expected_patterns:
        entry = lexicon.entry("pattern", pattern_id)
        if entry is None:
            raise UnknownPattern(
                f"root {clash.root_id} expects pattern {pattern_id!r}, "
                f"absent from the lexicon")
        voc = entry.features.get(PAIRED_VOCALISM_ATTR, ())
        selection = {
            "pattern": pattern_id,
            "root": clash.root_id,
            "vocalism": voc[0] if voc else None,
            "affixes": (),
        }
        surface = next(scripted_surfaces(selection_scripts(selection, lexicon),
                                         grammar, lexicon, skip), None)
        if surface is not None:
            out.append(surface)
    return out

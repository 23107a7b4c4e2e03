"""Multi-tape two-level morphology with integrated error correction."""

from .alphabet import (DecodeError, UnknownSymbol, classify, decode, encode,
                       tokenize_lexical)
from .arabic_data import VERB_TABLE, load_builtin, verify_table
from .corrector import CorrectionCandidate, correct
from .dsl import parse_grammar, print_grammar
from .engine import (Analysis, PartitionRecord, SearchState, analyze,
                     generate, is_optional_deletion)
from .features import unify, unify_all
from .grammar import ErrorRule, Grammar, TwoLevelRule
from .lexicon import Lexicon, MorphemeEntry, load_lexicon
from .morphosyntax import (FeatureClash, MorphoParse, parse_word, repair_clash)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "CorrectionCandidate", "DecodeError", "ErrorRule",
    "FeatureClash", "Grammar", "Lexicon", "MorphemeEntry", "MorphoParse",
    "PartitionRecord", "SearchState", "TwoLevelRule", "UnknownSymbol",
    "VERB_TABLE", "analyze", "classify", "correct", "decode", "encode",
    "generate", "is_optional_deletion", "load_builtin", "load_lexicon",
    "parse_grammar", "parse_word", "print_grammar", "repair_clash",
    "tokenize_lexical", "unify", "unify_all", "verify_table",
]

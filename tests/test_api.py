"""The package's public names: a name added to or dropped from the API
shows up here."""

import semitic_morpho

PUBLIC = [
    "Analysis", "CorrectionCandidate", "DecodeError", "ErrorRule",
    "FeatureClash", "Grammar", "Lexicon", "MorphemeEntry", "MorphoParse",
    "PartitionRecord", "SearchState", "TwoLevelRule", "UnknownSymbol",
    "VERB_TABLE", "analyze", "classify", "correct", "decode", "encode",
    "generate", "is_optional_deletion", "load_builtin", "load_lexicon",
    "parse_grammar", "parse_word", "print_grammar", "repair_clash",
    "tokenize_lexical", "unify", "unify_all", "verify_table",
]


def test_public_names_are_pinned():
    assert semitic_morpho.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in semitic_morpho.__all__:
        assert getattr(semitic_morpho, name, None) is not None, name

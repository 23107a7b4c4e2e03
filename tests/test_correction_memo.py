"""Correction's two tables in the step memo (engine.StepMemo): the surface
regenerated for each morpheme selection (`surfaces`, read by
corrector.regenerate) and the analyses of each word that has one (`words`,
read by corrector.analyze for the base analysis and every verification).

A traced run (perfbench/tracing.py) replaces corrector.analyze with
engine.analyze, so the count contract never reads the word table; the
searches behind both tables are counted here instead."""

import pytest

from semitic_morpho import corrector, load_builtin
from semitic_morpho.alphabet import LETTERS, decode
from semitic_morpho.arabic_data import LEXICON_FILE, data_text
from semitic_morpho.corrector import correct
from semitic_morpho.engine import analyze, scripted_surfaces, step_memo
from semitic_morpho.lexicon import load_lexicon

from oracles import damerau_edits
from test_acceptance import DEFAULT_SWEEP
from test_corrector import _full
from test_order_contract import ERROR_EXAMPLES


@pytest.fixture(scope="module")
def words(grammar, lexicon):
    """ERROR_EXAMPLES, then every distinct unanalyzable single Damerau edit
    of the DEFAULT_SWEEP words."""
    out = list(ERROR_EXAMPLES)
    for source in DEFAULT_SWEEP:
        for _, _, edited in damerau_edits(source, sorted(LETTERS)):
            if edited not in out and \
               not analyze(decode(edited), grammar, lexicon):
                out.append(edited)
    return tuple(out)


def _corrections(pair, words, max_positions=None):
    grammar, lexicon = pair[:2]
    return {word: _full(correct(decode(word), grammar, lexicon,
                                max_candidates=None,
                                max_positions=max_positions))
            for word in words}


@pytest.mark.parametrize("max_positions", (None, 2))
def test_tables_change_no_correction(words, max_positions, monkeypatch):
    # one pass on a fresh pair, in which every read of either table equals
    # a fresh search for the same selection or word: whatever earlier
    # corrections filled the tables with, a correction reads what it would
    # have found without them
    grammar, lexicon, _ = load_builtin()
    memo = step_memo(grammar, lexicon)
    hits = [0, 0]
    regenerate, analyze_kept = corrector.regenerate, corrector.analyze

    def checked_regenerate(analysis, g, l, skip_rules):
        kept = len(memo.surfaces)
        got = regenerate(analysis, g, l, skip_rules)
        hits[0] += len(memo.surfaces) == kept
        assert got == next(scripted_surfaces(analysis.morphemes, g, l,
                                             skip_rules), None)
        return got

    def checked_analyze(word, g, l):
        kept = len(memo.words)
        got = analyze_kept(word, g, l)
        hits[1] += bool(got) and len(memo.words) == kept
        assert got == tuple(analyze(word, g, l)), word
        return got

    monkeypatch.setattr(corrector, "regenerate", checked_regenerate)
    monkeypatch.setattr(corrector, "analyze", checked_analyze)
    for word in words:
        correct(decode(word), grammar, lexicon, max_candidates=None,
                max_positions=max_positions)
    # both tables were read back, not only filled
    assert hits[0] and hits[1]
    # a word with no analysis is never kept: not the inputs, none at all
    assert all(memo.words.values())
    assert not set(memo.words) & {decode(word) for word in words}


def test_analyses_are_read_only():
    # corrections over one pair share the kept analyses, so none can be
    # changed under a later correction
    grammar, lexicon, _ = load_builtin()
    before = _corrections((grammar, lexicon), ("katbb",))
    analysis = correct(decode("katbb"), grammar, lexicon)[0].analyses[0]
    with pytest.raises(TypeError):
        analysis.morphemes["root"] = ()
    with pytest.raises(TypeError):
        analysis.stems[0].features["cat"] = ("noun",)
    assert _corrections((grammar, lexicon), ("katbb",)) == before


def test_second_pass_searches_for_no_regeneration_or_verification(
        monkeypatch):
    regenerated, analyzed = [], []

    def scripted_surfaces(scripts, *args):
        regenerated.append(scripts)
        return real_surfaces(scripts, *args)

    def engine_analyze(word, *args):
        analyzed.append(word)
        return real_analyze(word, *args)

    real_surfaces = corrector.scripted_surfaces
    real_analyze = corrector.engine_analyze
    monkeypatch.setattr(corrector, "scripted_surfaces", scripted_surfaces)
    monkeypatch.setattr(corrector, "engine_analyze", engine_analyze)
    pair = load_builtin()
    inputs = [decode(word) for word in ERROR_EXAMPLES]
    first = _corrections(pair, ERROR_EXAMPLES)
    assert regenerated and len(analyzed) > len(inputs)
    del regenerated[:], analyzed[:]
    assert _corrections(pair, ERROR_EXAMPLES) == first
    # only the base analyses search again: no input analyzes, so none is
    # kept
    assert regenerated == [] and analyzed == inputs


EXTRA_ROOT = "root\tktb\tid=ktb_bis;radicals=3;cat=verb\thomograph of ktb\n"


def test_lexicon_add_empties_both_tables():
    grammar, lexicon, _ = load_builtin()
    before = _corrections((grammar, lexicon), ("katbb",))
    memo = step_memo(grammar, lexicon)
    assert memo.surfaces and memo.words and memo.hard
    lexicon.add(load_lexicon(EXTRA_ROOT).entries("root")[0])
    memo = step_memo(grammar, lexicon)
    assert memo.surfaces == {} and memo.words == {}
    # the stem checks' table keys entries by identity: it goes too
    assert memo.hard == {}
    # the next correction reads the new root, as on a lexicon loaded with it
    after = _corrections((grammar, lexicon), ("katbb",))
    extended = load_lexicon(data_text(LEXICON_FILE) + EXTRA_ROOT)
    assert after == _corrections((grammar, extended), ("katbb",))
    assert after != before
    assert any("ktb_bis" in [e.id for e in a.morphemes["root"]]
               for c in correct(decode("katbb"), grammar, lexicon)
               for a in c.analyses)

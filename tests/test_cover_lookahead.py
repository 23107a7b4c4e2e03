"""The cover lookahead: a search state below which no error rule applies is
not expanded once the symbols it still has to read on the spelling tape
(the rest of its morpheme there, then whole morphemes) cannot spell the
unread surface symbol for symbol (engine._fits in the spelling tape's
mode, _spelled, _spelling, _spelling_tape).

The lookahead must change no output, must read each symbol's spelling off
the grammar's rules, must apply only to a grammar on one of whose tapes
every rule reads exactly one symbol and spells at most one, must not check
a state a reap chain can still correct or the error-free pass of
correction that finds the failure point, and must not recurse over the
word.
"""

import inspect
import itertools
import re
import sys

import pytest

from semitic_morpho import corrector, engine
from semitic_morpho.alphabet import decode, encode
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (PATTERN, ROOT, VOCALISM, FreeRef, _fits,
                                   _search, _SearchContext, _spelling,
                                   _surface_fits, analysis_start, analyze,
                                   step_memo)
from semitic_morpho.lexicon import load_lexicon

from oracles import oracle_micro_analyze
from test_order_contract import ERROR_EXAMPLES
from test_surface_lookahead import (_required_below, _subsequence,
                                    checked_budget)
from steps import successors_made
from workloads import unanalyzable_edits, well_formed_words


def _no_cover(monkeypatch):
    # the walk passes every spelling-tape cursor and walks the other tapes
    fits = engine._fits
    monkeypatch.setattr(engine, "_fits", lambda ctx, ti, *args:
                        ti == ctx.memo.spelling or fits(ctx, ti, *args))


def _candidates(cands):
    # error records hold FreeRefs, which compare by identity: compare what
    # a candidate reports instead
    return [(c.corrected_word, c.error_trace, c.rank_key, c.analyses)
            for c in cands]


def _edits(source=None):
    return list(dict.fromkeys(edited for word, _, _, edited
                              in unanalyzable_edits()
                              if source in (None, word)))


def test_analyses_equal_those_without_the_cover(grammar, lexicon,
                                                monkeypatch):
    words = list(well_formed_words()) + _edits() + list(ERROR_EXAMPLES)
    pruned = [analyze(decode(w), grammar, lexicon) for w in words]
    _no_cover(monkeypatch)
    assert [analyze(decode(w), grammar, lexicon) for w in words] == pruned
    assert sum(map(bool, pruned)) == len(well_formed_words())


@pytest.mark.parametrize("max_positions", (1, 2, None))
def test_corrections_equal_those_without_the_cover(grammar, lexicon,
                                                   monkeypatch,
                                                   max_positions):
    def run():
        return [_candidates(corrector.correct(decode(w), grammar, lexicon,
                                              max_positions=max_positions))
                for w in ERROR_EXAMPLES]

    pruned = run()
    _no_cover(monkeypatch)
    assert run() == pruned


def test_the_patch_turns_off_every_check(monkeypatch):
    # as in test_surface_lookahead: the patched walk reaches every place a
    # successor is checked, so apply_rule and try_error_rules make more
    pruned, unpruned = successors_made(monkeypatch, _no_cover,
                                       ERROR_EXAMPLES)
    assert unpruned[0] > pruned[0] and unpruned[1] > pruned[1]


def test_unbounded_corrections_of_a_sweep_word(grammar, lexicon,
                                               monkeypatch):
    def run():
        return [_candidates(corrector.correct(decode(w), grammar, lexicon,
                                              max_candidates=None))
                for w in edits]

    edits = _edits("mdiintA")
    pruned = run()
    _no_cover(monkeypatch)
    assert run() == pruned
    assert all(pruned)


def test_spellings_of_the_bundled_grammar(grammar, lexicon):
    ctx = _SearchContext(grammar, lexicon)
    cons, vowel = grammar.classes["cons"], grammar.classes["vowel"]
    # every rule reads one pattern symbol, through a literal or a variable
    assert ctx.memo.spelling == PATTERN
    # R1 and R5 spell a consonant slot as a consonant, glottal_change as w
    assert "w" in cons
    for slot in ("c1", "c2", "c3", "c4"):
        assert _spelling(ctx, PATTERN, slot) == (cons, False)
    # R2 and R6 spell a vowel slot as a vowel; R8 and R9 drop it
    for slot in ("v1", "v2"):
        assert _spelling(ctx, PATTERN, slot) == (vowel, True)
    # R0 spells a pattern letter as itself; R7 drops a short vowel
    for letter in "tnwA":
        assert _spelling(ctx, PATTERN, letter) == ({letter}, False)
    assert _spelling(ctx, PATTERN, "a") == ({"a"}, True)
    # R3 and R4 read the boundary and spell nothing
    assert _spelling(ctx, PATTERN, "+") == (frozenset(), True)
    # the walk reads the same derivation on the other tapes
    assert _spelling(ctx, ROOT, "A") == ({"A", "w"}, False)
    assert _spelling(ctx, PATTERN, "v1")[1]
    assert _spelling(ctx, VOCALISM, "a")[1]
    assert _spelling(ctx, PATTERN, "c1") == (cons, False)


def _nodes(node):
    yield node
    for child in node.edges.values():
        yield from _nodes(child)


def _spells_regex(ctx, form):
    """A regular expression for what the symbols of `form` spell."""
    out = []
    for sym in form:
        emits, vanishes = _spelling(ctx, PATTERN, sym)
        one = "." if emits is None else \
            "[" + "".join(map(re.escape, sorted(emits))) + "]" if emits \
            else "(?!)"
        out.append(f"(?:{one})?" if vanishes else one)
    return "".join(out)


def test_verdicts_equal_a_regular_expression(grammar, lexicon):
    ctx = _SearchContext(grammar, lexicon)
    root = lexicon.tree("pattern").root
    whole = "|".join(_spells_regex(ctx, e.form)
                     for e in lexicon.tree("pattern").entries)
    nodes = list(_nodes(root))
    covers = {}
    for node in nodes:
        rest = "|".join(_spells_regex(ctx, e.form[node.depth:])
                        for n in _nodes(node) for e in n.entries)
        covers[node] = re.compile(f"(?:{rest})(?:{whole})*" if node.depth
                                  else f"(?:{whole})*")
    words = list(well_formed_words()) + list(ERROR_EXAMPLES) + \
        _edits("kuttib")
    suffixes = {tuple(decode(w))[i:] for w in words
                for i in range(len(decode(w)) + 1)}
    assert all(len(sym) == 1 for suffix in suffixes for sym in suffix)
    verdicts = set()
    for suffix in sorted(suffixes):
        # a search's tables read its one word
        ctx = _SearchContext(grammar, lexicon)
        for node in nodes:
            want = covers[node].fullmatch("".join(suffix)) is not None
            assert _fits(ctx, PATTERN, root, node, suffix, 0, ()) == want, \
                (node.depth, suffix)
            verdicts.add(want)
    assert verdicts == {True, False}
    # a FreeRef in the spliced prefix covers what one symbol it admits does
    vowel = FreeRef(grammar.classes["vowel"], ("u",))
    for word in map(decode, ("ktb", "katab", "kutib", "ktbiyy")):
        for node in nodes:
            ctx = _SearchContext(grammar, lexicon)
            got = _fits(ctx, PATTERN, root, node, word, 0, (vowel,))
            want = any(covers[node].fullmatch(s + "".join(word))
                       for s in ("a", "i"))
            assert got == want, (node.depth, word)


def test_a_misfit_the_subsequence_check_passes(grammar, lexicon):
    # kqudW after E2 inserted d at position 1: k and d were read as c1 and
    # c2, and the rest qudW is a subsequence of what the pattern still reads
    # but no continuation spells all four symbols
    ctx = _SearchContext(grammar, lexicon)
    root = lexicon.tree("pattern").root
    node = root.edges["c1"].edges["v1"].edges["c2"]
    word = decode("kqudW")
    assert any(_subsequence(req, word[1:])
               for req in _required_below(ctx, PATTERN, node))
    assert not _fits(ctx, PATTERN, root, node, word, 1, ())


# the micro grammar of test_engine on the pattern tape, and two that break
# the spelling tape's premise: a rule that leaves the pattern slot empty,
# and a rule with two surface slots
MICRO = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
"""
ROOT_READ = MICRO + "rule C: * - X - *  =>  * - (0, X, 0) - *  where lt(X)\n"
DOUBLED = MICRO + "rule G: * - k k - *  =>  * - k - *\n"


@pytest.mark.parametrize("text", (ROOT_READ, DOUBLED))
def test_grammar_without_a_spelling_tape_gets_no_cover(text):
    entries = ("a", "ab", "b", "ka")
    lex = load_lexicon("".join(f"pattern\t{e}\t\t\n" for e in entries))
    assert step_memo(parse_grammar(MICRO), lex).spelling == PATTERN
    g = parse_grammar(text)
    assert step_memo(g, lex).spelling is None
    rules = {"A": {"kind": "identity", "letters": set("abk")},
             "B": {"kind": "boundary"}}
    # C finds no root entry and G no kk in these words
    for n in range(1, 5):
        for word in map("".join, itertools.product("ab", repeat=n)):
            got = {(a.rule_trace,
                    "".join(t[PATTERN] for r in a.records for t in r.lex_seg
                            if t[PATTERN] is not None))
                   for a in analyze(decode(word), g, lex)}
            want = {(tuple(name for name, _, _ in trace), tape)
                    for trace, tape in oracle_micro_analyze(rules, entries,
                                                            word)}
            assert got == want, word


def test_a_rule_with_two_surface_slots_would_break_the_cover(monkeypatch):
    lex = load_lexicon("pattern\tka\t\t\n")
    g = parse_grammar(DOUBLED)
    assert [a.rule_trace for a in analyze(decode("kka"), g, lex)] == \
        [("G", "A", "B")]
    # a cover on the pattern tape would lose that analysis: k and a spell
    # at most two symbols
    monkeypatch.setattr(engine, "_spelling_tape", lambda grammar: PATTERN)
    assert analyze(decode("kka"), parse_grammar(DOUBLED), lex) == []


def _frontier(grammar, lexicon, word):
    frontier = {}

    def record(ctx, state):
        frontier.setdefault(state.pos, []).append(state)
        return ()

    ctx = _SearchContext(grammar, lexicon)
    for _ in _search(ctx, [analysis_start(grammar, lexicon, word)],
                     error_step=record):
        pass
    return frontier


def test_failure_point_search_is_not_checked(grammar, lexicon, monkeypatch):
    seen = []
    error_roots = corrector._error_roots

    def recording(ctx, frontier, max_positions):
        # the pass made no cover verdict
        assert ctx.covers == {} and ctx.spans == {}
        seen.append({pos: len(states) for pos, states in frontier.items()})
        return error_roots(ctx, frontier, max_positions)

    monkeypatch.setattr(corrector, "_error_roots", recording)
    uncovered = 0
    for word in map(decode, ERROR_EXAMPLES):
        seen.clear()
        corrector.correct(word, grammar, lexicon)
        with monkeypatch.context() as m:
            _no_cover(m)
            frontier = _frontier(grammar, lexicon, word)
        assert seen == [{pos: len(states)
                         for pos, states in frontier.items()}], word
        # the cover would cut some of the states the pass records
        ctx = _SearchContext(grammar, lexicon)
        root = lexicon.tree("pattern").root
        uncovered += sum(
            not _fits(ctx, PATTERN, root, s.tapes[PATTERN].cursor.node,
                      s.word, s.pos, s.spliced)
            for states in frontier.values() for s in states)
    assert uncovered > 0


# a reap chain inserts one symbol at each input position; every rule reads
# one root symbol, so the root tape spells the surface
REAP = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - (0, X, 0) - *  where lt(X)
rule B: * - 0 - *  =>  (0, B1, 0) - (0, +, 0) - *  where B1 != +
erule F: 0 => X  { * - * }  reap=y  where lt(X)
erule G: X => 0  { * - * }  reap=n  where lt(X)
"""


def test_a_reap_chain_is_not_checked(monkeypatch):
    g = parse_grammar(REAP)
    lex = load_lexicon("root\tabab\tcat=noun\t\n")
    assert step_memo(g, lex).spelling == ROOT
    budgets, covered = [], []

    def spy_fits(ctx, *args):
        budgets.append(checked_budget())
        return _surface_fits(ctx, *args)

    def spy_walk(ctx, ti, *args):
        covered.append(ti)
        return _fits(ctx, ti, *args)

    monkeypatch.setattr(engine, "_surface_fits", spy_fits)
    monkeypatch.setattr(engine, "_fits", spy_walk)
    words = [encode(c.corrected_word)
             for c in corrector.correct(decode("bb"), g, lex)]
    # two insertions, at positions 0 and 1, make the word
    assert "abab" in words
    assert 2 in budgets and 1 not in budgets
    assert ROOT in covered


@pytest.mark.parametrize("unit, times, analyses",
                         (("katab", 400, 1), ("ktbq", 500, 0)))
def test_long_words_do_not_recurse(grammar, lexicon, monkeypatch, unit,
                                   times, analyses):
    word = decode(unit * times)
    limit = sys.getrecursionlimit()
    # the walk over whole morphemes keeps its own stack; only the walk
    # inside one morpheme recurses
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = analyze(word, grammar, lexicon)
    finally:
        sys.setrecursionlimit(limit)
    assert len(got) == analyses
    _no_cover(monkeypatch)
    assert analyze(word, grammar, lexicon) == got

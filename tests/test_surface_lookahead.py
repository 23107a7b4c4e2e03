"""The surface-fit lookahead: a search state below which no error rule
applies is not expanded once some cursor sits inside a morpheme whose
unread symbols no entry below it can still surface, in order, inside the
unread surface (engine._surface_fits, _fits in the mode of a tape that does
not spell the surface, _spelling).

The lookahead must change no output, must read each symbol's surface set
off the grammar's rules, must not check a state a reap chain can still
correct, and must not reach the error-free pass of correction that finds
the failure point.
"""

import itertools
import sys

import pytest

from semitic_morpho import corrector, engine
from semitic_morpho.alphabet import BOUNDARY, decode, encode
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (PATTERN, ROOT, VOCALISM, FreeRef,
                                   StepMemo, _fits, _search, _SearchContext,
                                   _spans, _spelling, _surface_fits,
                                   analysis_start, analyze)
from semitic_morpho.lexicon import TAPES, load_lexicon

from oracles import oracle_micro_analyze
from test_order_contract import ERROR_EXAMPLES
from steps import successors_made
from workloads import unanalyzable_edits, well_formed_words


def _no_lookahead(monkeypatch):
    monkeypatch.setattr(engine, "_surface_fits", lambda ctx, *args: True)


def _candidates(cands):
    # error records hold FreeRefs, which compare by identity: compare what
    # a candidate reports instead
    return [(c.corrected_word, c.error_trace, c.rank_key, c.analyses)
            for c in cands]


def _edits(source=None):
    return list(dict.fromkeys(edited for word, _, _, edited
                              in unanalyzable_edits()
                              if source in (None, word)))


def test_analyses_equal_those_without_the_lookahead(grammar, lexicon,
                                                    monkeypatch):
    words = list(well_formed_words()) + _edits()
    pruned = [analyze(decode(w), grammar, lexicon) for w in words]
    _no_lookahead(monkeypatch)
    assert [analyze(decode(w), grammar, lexicon) for w in words] == pruned
    assert sum(map(bool, pruned)) == len(well_formed_words())


@pytest.mark.parametrize("max_positions", (1, 2, None))
def test_corrections_equal_those_without_the_lookahead(grammar, lexicon,
                                                       monkeypatch,
                                                       max_positions):
    def run():
        return [_candidates(corrector.correct(decode(w), grammar, lexicon,
                                              max_positions=max_positions))
                for w in ERROR_EXAMPLES]

    pruned = run()
    _no_lookahead(monkeypatch)
    assert run() == pruned


def test_the_patch_turns_off_every_check(monkeypatch):
    # the tests above compare with a search without the lookahead only if
    # the patch reaches every place a successor is checked, apply_rule and
    # try_error_rules: then both make more successors
    pruned, unpruned = successors_made(monkeypatch, _no_lookahead,
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
    _no_lookahead(monkeypatch)
    assert run() == pruned
    assert all(pruned)


def test_symbol_sets_of_the_bundled_grammar(grammar, lexicon):
    ctx = _SearchContext(grammar, lexicon)
    cons = grammar.classes["cons"]
    for sym in "ktbdHrJ":
        assert _spelling(ctx, ROOT, sym) == ({sym}, False)
    # glottal_change surfaces a root glottal stop as w
    assert _spelling(ctx, ROOT, "A") == ({"A", "w"}, False)
    # R1 and R5 surface a consonant slot as the root consonant it reads
    # or copies, glottal_change as w
    for slot in ("c1", "c2", "c3", "c4"):
        assert _spelling(ctx, PATTERN, slot) == (cons, False)
    for letter in "tnwA":
        assert _spelling(ctx, PATTERN, letter) == ({letter}, False)
    # R7-R9 let vowels and vowel slots vanish, and the boundary never shows
    for sym in ("a", "i", "u", "v1", "v2", BOUNDARY):
        assert _need_not_surface(ctx, PATTERN, sym)
    for sym in ("a", "i", "u", BOUNDARY):
        assert _need_not_surface(ctx, VOCALISM, sym)
    # a spelling is derived from the grammar alone: another search over
    # the pair, on the same step memo, reads the same one
    other = _SearchContext(grammar, lexicon)
    assert other.memo is ctx.memo
    assert _spelling(other, ROOT, "A") == ({"A", "w"}, False)


def _need_not_surface(ctx, ti, sym):
    """`sym` may vanish, or no rule reads it."""
    emits, vanishes = _spelling(ctx, ti, sym)
    return vanishes or emits == frozenset()


def _nodes(node):
    yield node
    for child in node.edges.values():
        yield from _nodes(child)


def _required_below(ctx, ti, node):
    """The required sequence of every entry at or below `node` that a
    record can still read, as sets: each unread symbol that cannot vanish.
    An entry with an unread symbol that no rule reads has none."""
    out = []
    for n in _nodes(node):
        for entry in n.entries:
            spellings = [_spelling(ctx, ti, s)
                         for s in entry.form[node.depth:]]
            if all(vanishes or emits != frozenset()
                   for emits, vanishes in spellings):
                out.append([emits for emits, vanishes in spellings
                            if not vanishes])
    return out


def _matches(want, item):
    if want is None:
        return True
    if isinstance(item, FreeRef):
        return any(item.admits(s) for s in want)
    return item in want


def _subsequence(required, surface):
    rest = iter(surface)
    return all(any(_matches(want, item) for item in rest)
               for want in required)


def test_verdicts_equal_a_scan_of_the_entries(grammar, lexicon):
    ctx = _SearchContext(grammar, lexicon)
    # a memo of its own that names no spelling tape, so that the walk reads
    # every tape, the pattern tape's vanishing symbols too, in the mode
    # this scan describes (the spelling mode is checked against a regular
    # expression in test_cover_lookahead)
    ctx.memo = StepMemo(grammar, lexicon)
    ctx.memo.spelling = None
    every = [(ti, n) for ti, tape in enumerate(TAPES)
             for n in _nodes(lexicon.tree(tape).root)]
    nodes = [(ti, n) for ti, n in every if n.depth]
    assert {ti for ti, _ in nodes} == {ROOT, PATTERN, VOCALISM}
    below = {id(n): _required_below(ctx, ti, n) for ti, n in nodes}
    suffixes = {tuple(decode(w))[i:] for w in well_formed_words()
                for i in range(len(decode(w)) + 1)}
    vowel = FreeRef(grammar.classes["vowel"], ())
    not_k = FreeRef(None, ("k",))
    verdicts = set()
    for suffix in sorted(suffixes):
        for spliced in ((), (vowel,), (not_k, "t")):
            # the tables' keys do not name the word
            ctx.covers, ctx.spans = {}, {}
            for ti, n in nodes:
                want = any(_subsequence(req, spliced + suffix)
                           for req in below[id(n)])
                root = lexicon.tree(TAPES[ti]).root
                assert _fits(ctx, ti, root, n, suffix, 0, spliced) == want, (
                    TAPES[ti], n.depth, suffix, spliced)
                verdicts.add(want)
    assert verdicts == {True, False}
    # the trie as the lookahead walks it: one entry per node
    assert len(ctx.memo.cover_steps) <= len(every)


def _spelled_counts(spellings, surface):
    """The k such that symbols with these spellings spell exactly the first
    k items of `surface`: each takes the next item or vanishes."""
    counts = {0}
    for emits, vanishes in spellings:
        counts = {k + 1 for k in counts
                  if k < len(surface) and _matches(emits, surface[k])} | \
            (counts if vanishes else set())
    return counts


def _bits(mask):
    return {k for k in range(mask.bit_length()) if mask >> k & 1}


def test_bitmasks_equal_a_scan_of_the_entries(grammar, lexicon):
    suffixes = sorted({tuple(decode(w))[i:] for w in well_formed_words()
                       for i in range(len(decode(w)) + 1)})
    splices = ((), (FreeRef(grammar.classes["vowel"], ("u",)),))
    # the spelling mode, on the bundled grammar's spelling tape: bit k when
    # the rest of some entry below the node spells the first k items
    ctx = _SearchContext(grammar, lexicon)
    assert ctx.memo.spelling == PATTERN
    nodes = list(_nodes(lexicon.tree("pattern").root))
    rests = {id(n): [[_spelling(ctx, PATTERN, s) for s in e.form[n.depth:]]
                     for m in _nodes(n) for e in m.entries] for n in nodes}
    several = False
    for suffix in suffixes:
        for spliced in splices:
            # the table's keys do not name the word
            ctx.spans = {}
            for n in nodes:
                want = set().union(*(_spelled_counts(r, spliced + suffix)
                                     for r in rests[id(n)]))
                got = _spans(ctx, PATTERN, n, suffix, 0, spliced)
                assert _bits(got) == want, (n.depth, suffix, spliced)
                several |= len(want) > 1
    assert several
    # the subsequence mode, on every tape and at every node: nonzero when
    # the scan of test_verdicts_equal_a_scan_of_the_entries accepts
    ctx.memo = StepMemo(grammar, lexicon)
    ctx.memo.spelling = None
    every = [(ti, n) for ti, tape in enumerate(TAPES)
             for n in _nodes(lexicon.tree(tape).root)]
    below = {id(n): _required_below(ctx, ti, n) for ti, n in every}
    verdicts = set()
    for suffix in suffixes:
        for spliced in splices:
            ctx.spans = {}
            for ti, n in every:
                want = any(_subsequence(req, spliced + suffix)
                           for req in below[id(n)])
                got = _spans(ctx, ti, n, suffix, 0, spliced)
                assert (got != 0) == want, (TAPES[ti], n.depth, suffix,
                                            spliced)
                verdicts.add(want)
    assert verdicts == {True, False}


# the micro grammar of criterion 9c on the root tape, with a rule that
# reads k and surfaces nothing
DELETION = """\
class lt = {a, b, k}
class dl = {k}
rule A: * - X - *  =>  * - (0, X, 0) - *  where lt(X)
rule B: * - 0 - *  =>  (0, B1, 0) - (0, +, 0) - *  where B1 != +
rule D: * - 0 - *  =>  * - (0, X, 0) - *  where dl(X)
"""


def test_a_symbol_a_rule_deletes_is_optional():
    g = parse_grammar(DELETION)
    entries = ("a", "ab", "b", "ka")
    lex = load_lexicon("".join(f"root\t{e}\tcat=noun\t\n" for e in entries))
    ctx = _SearchContext(g, lex)
    assert _need_not_surface(ctx, ROOT, "k")
    assert _spelling(ctx, ROOT, "a") == ({"a"}, False)
    rules = {"A": {"kind": "identity", "letters": set("abk")},
             "B": {"kind": "boundary"},
             "D": {"kind": "deletion", "letters": {"k"}}}
    deleted = 0
    for n in range(1, 5):
        for word in map("".join, itertools.product("abk", repeat=n)):
            got = {(a.rule_trace,
                    "".join(t[ROOT] for r in a.records for t in r.lex_seg))
                   for a in analyze(decode(word), g, lex)}
            want = {(tuple(name for name, _, _ in trace), tape)
                    for trace, tape in oracle_micro_analyze(rules, entries,
                                                            word)}
            assert got == want, word
            deleted += sum("D" in trace for trace, _ in got)
    assert deleted


# the micro grammar of criterion 9c on the root tape, with a rule that
# spells two surface symbols, so that no tape spells the surface one for one
UNREAD = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - (0, X, 0) - *  where lt(X)
rule B: * - 0 - *  =>  (0, B1, 0) - (0, +, 0) - *  where B1 != +
rule G: * - q q - *  =>  * - (0, q, 0) - *
"""


def test_a_symbol_no_rule_reads_ends_the_walk():
    g = parse_grammar(UNREAD)
    entries = ("a", "ab", "b", "kdb")
    lex = load_lexicon("".join(f"root\t{e}\tcat=noun\t\n" for e in entries))
    ctx = _SearchContext(g, lex)
    assert ctx.memo.spelling is None
    assert _spelling(ctx, ROOT, "d") == (frozenset(), False)
    # no record reads the d of kdb, so a root cursor in front of it fits no
    # surface, though the b behind it is a subsequence of the unread b
    root = lex.tree("root").root
    assert not _fits(ctx, ROOT, root, root.edges["k"], decode("kb"), 1, ())
    rules = {"A": {"kind": "identity", "letters": set("abk")},
             "B": {"kind": "boundary"}}
    # G finds no qq in these words
    for n in range(1, 5):
        for word in map("".join, itertools.product("abdk", repeat=n)):
            got = {(a.rule_trace,
                    "".join(t[ROOT] for r in a.records for t in r.lex_seg))
                   for a in analyze(decode(word), g, lex)}
            want = {(tuple(name for name, _, _ in trace), tape)
                    for trace, tape in oracle_micro_analyze(rules, entries,
                                                            word)}
            assert got == want, word


# a reap chain inserts one symbol at each input position
REAP = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - (0, X, 0) - *  where lt(X)
rule B: * - 0 - *  =>  (0, B1, 0) - (0, +, 0) - *  where B1 != +
erule F: 0 => X  { * - * }  reap=y  where lt(X)
erule G: X => 0  { * - * }  reap=n  where lt(X)
"""


def checked_budget() -> int:
    """Inside the lookahead, the budget of the state it checks, read off
    the function that checks it: a successor of apply_rule keeps the budget
    of the state the rule applies at, one of try_error_rules has its own,
    and analyze checks its start state, whose budget is 0."""
    frame = sys._getframe(1)
    while frame.f_code.co_name not in ("apply_rule", "try_error_rules",
                                       "analyze"):
        frame = frame.f_back
    caller = frame.f_locals
    if frame.f_code.co_name == "analyze":
        return caller["start"].budget
    return caller.get("budget", caller["state"].budget)


def test_a_reap_chain_is_not_checked(monkeypatch):
    g = parse_grammar(REAP)
    lex = load_lexicon("root\tabab\tcat=noun\t\n")
    checked = []

    def spy(ctx, *args):
        checked.append(checked_budget())
        return _surface_fits(ctx, *args)

    monkeypatch.setattr(engine, "_surface_fits", spy)
    words = [encode(c.corrected_word)
             for c in corrector.correct(decode("bb"), g, lex)]
    # two insertions, at positions 0 and 1, make the word
    assert "abab" in words
    assert 2 in checked and 1 not in checked
    # on the way, with "ab" read and "b" unread, the entry cannot fit
    ctx = _SearchContext(g, lex)
    node = lex.tree("root").root.edges["a"].edges["b"]
    assert not _fits(ctx, ROOT, lex.tree("root").root, node, decode("bb"),
                     1, ())


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


def test_failure_point_search_sees_every_state(grammar, lexicon,
                                               monkeypatch):
    seen = []
    error_roots = corrector._error_roots

    def recording(ctx, frontier, max_positions):
        # the pass fitted no surface
        assert ctx.covers == {} and ctx.spans == {}
        seen.append({pos: len(states) for pos, states in frontier.items()})
        return error_roots(ctx, frontier, max_positions)

    monkeypatch.setattr(corrector, "_error_roots", recording)
    unfit = 0
    for word in map(decode, ERROR_EXAMPLES):
        seen.clear()
        corrector.correct(word, grammar, lexicon)
        # the frontier of a search that cannot prune by the lookahead
        with monkeypatch.context() as m:
            _no_lookahead(m)
            frontier = _frontier(grammar, lexicon, word)
        assert seen == [{pos: len(states)
                         for pos, states in frontier.items()}], word
        # the lookahead would cut some of the states the pass records
        ctx = _SearchContext(grammar, lexicon)
        unfit += sum(not _surface_fits(ctx, state.tapes, state.word,
                                       state.pos, state.spliced)
                     for states in frontier.values() for state in states)
    assert unfit > 0


def test_error_rules_skip_states_the_stem_lookahead_rules_out(
        grammar, lexicon, monkeypatch):
    tried = []
    try_error_rules = corrector.try_error_rules

    def recording(ctx, state):
        tried.append(ctx.memo.stems is None
                     or engine._stems_meet(ctx, state.tapes))
        return try_error_rules(ctx, state)

    monkeypatch.setattr(corrector, "try_error_rules", recording)
    for word in map(decode, ERROR_EXAMPLES):
        corrector.correct(word, grammar, lexicon)
    assert tried and all(tried)


def test_generation_does_not_look_ahead(grammar, lexicon, monkeypatch):
    def fail(ctx, *args):
        raise AssertionError("generation has no input to fit")

    monkeypatch.setattr(engine, "_surface_fits", fail)
    surfaces = engine.generate({"pattern": "M1", "root": "ktb",
                                "vocalism": "a"}, grammar, lexicon)
    assert decode("katab") in surfaces


@pytest.mark.parametrize("lookahead", ("_stems_meet", "_surface_fits"))
def test_a_cut_successor_is_not_built(grammar, lexicon, monkeypatch,
                                      lookahead):
    # where a lookahead cuts a successor, it cuts it before its
    # obligations, watches, history node, record or state are made, in
    # apply_rule and in try_error_rules alike
    built = []

    def spy(module, name):
        real = getattr(module, name)

        def made(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, made)

    for name in ("_feed_obligations", "_scan_coercions", "_obligation",
                 "PartitionRecord", "SearchState"):
        spy(engine, name)
    for name in ("_feed_obligations", "Obligation", "PartitionRecord",
                 "SearchState"):
        spy(corrector, name)
    spy(_SearchContext, "history")

    def successors(verdict, errors):
        # the successors of the roots of two searches: those of every rule,
        # or those of every error rule
        monkeypatch.setattr(engine, lookahead, lambda *args: verdict)
        ctx = _SearchContext(grammar, lexicon)
        roots = [analysis_start(grammar, lexicon, decode(word))
                 for word in ("katab", "ktabat")]
        del built[:]
        if errors:
            return [s for root in roots
                    for s in corrector.try_error_rules(ctx, root)]
        return [s for root in roots for plan in ctx.grammar.plans.values()
                for s in engine.apply_rule(ctx, root, plan.rule)]

    assert successors(True, False) and built
    assert successors(False, False) == [] and built == []
    if lookahead == "_stems_meet":
        # an error keeps the tapes, so only the surface fit checks it
        return
    assert any(s.budget == 2 for s in successors(True, True))
    # an error successor that spends the budget is checked, one of a reap
    # chain is not
    kept = successors(False, True)
    assert all(s.budget == 1 for s in kept)
    assert built.count("SearchState") == len(kept)
    assert built.count("PartitionRecord") == len(kept)

"""The stem lookahead: an analysis search does not expand a state once no
root entry reachable from its root cursor unifies with any vocalism entry
reachable from its vocalism cursor (engine._stems_meet, StepMemo.stems).

The lookahead must change no output, must not apply to a grammar that can
close a root or vocalism morpheme on its own, and must not reach the
error-free pass of correction that finds the failure point.
"""

import itertools

import pytest

from semitic_morpho import corrector, engine
from semitic_morpho.alphabet import decode
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (TapeState, TrieCursor, _search,
                                   _SearchContext, _stems_meet,
                                   analysis_start, analyze, step_memo)
from semitic_morpho.features import restrict, unify_all
from semitic_morpho.lexicon import TAPES, load_lexicon

from oracles import oracle_micro_analyze
from test_order_contract import ERROR_EXAMPLES
from steps import successors_made
from workloads import unanalyzable_edits, well_formed_words

ROOT, VOCALISM = TAPES.index("root"), TAPES.index("vocalism")


def _no_lookahead(monkeypatch):
    monkeypatch.setattr(engine, "_stems_meet", lambda ctx, tapes: True)


def _candidates(cands):
    # error records hold FreeRefs, which compare by identity: compare what
    # a candidate reports instead
    return [(c.corrected_word, c.error_trace, c.rank_key, c.analyses)
            for c in cands]


def test_analyses_equal_those_without_the_lookahead(grammar, lexicon,
                                                    monkeypatch):
    words = list(well_formed_words()) + list(dict.fromkeys(
        edited for _, _, _, edited in unanalyzable_edits()))
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
    # the patch reaches every place it is checked: apply_rule, where a
    # successor is made, and corrector._error_roots, which applies no error
    # rule at a failure-pass state it rules out. Then apply_rule and
    # try_error_rules make more successors
    pruned, unpruned = successors_made(monkeypatch, _no_lookahead,
                                       ERROR_EXAMPLES)
    assert unpruned[0] > pruned[0] and unpruned[1] > pruned[1]


def _nodes(node):
    yield node
    for child in node.edges.values():
        yield from _nodes(child)


def _hard_below(node, soft):
    return [restrict(e.features, soft)
            for n in _nodes(node) for e in n.entries]


def _tapes(lexicon, root, voc):
    """Tapes whose root and vocalism cursors sit at `root` and `voc`."""
    tapes = [TapeState(TrieCursor(lexicon.tree(t))) for t in TAPES]
    tapes[ROOT] = TapeState(TrieCursor(lexicon.tree("root"), root))
    tapes[VOCALISM] = TapeState(TrieCursor(lexicon.tree("vocalism"), voc))
    return tapes


def test_verdicts_equal_pairwise_unification(grammar, lexicon):
    ctx = _SearchContext(grammar, lexicon)
    assert ctx.memo.stems is not None
    soft = lexicon.soft_attrs
    roots = list(_nodes(lexicon.tree("root").root))
    vocs = list(_nodes(lexicon.tree("vocalism").root))
    verdicts = set()
    for r in roots:
        for v in vocs:
            want = not r.depth or not v.depth or any(
                unify_all(rf, vf) is not None
                for rf in _hard_below(r, soft) for vf in _hard_below(v, soft))
            assert _stems_meet(ctx, _tapes(lexicon, r, v)) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    # one verdict per pair of nodes inside a morpheme, and no more
    assert len(ctx.memo.stems) == (len(roots) - 1) * (len(vocs) - 1)
    # a soft attribute is a preference, which the stem check leaves out
    lex = load_lexicon("!soft\tpref\nroot\tk\tpref=x\t\n"
                       "vocalism\ta\tpref=y\t\n")
    ctx = _SearchContext(grammar, lex)
    assert _stems_meet(ctx, _tapes(lex, lex.tree("root").root.edges["k"],
                                   lex.tree("vocalism").root.edges["a"]))


# the micro grammar of criterion 9c on the root tape: its boundary rule
# closes a root morpheme alone
ROOT_MICRO = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - (0, X, 0) - *  where lt(X)
rule B: * - 0 - *  =>  (0, B1, 0) - (0, +, 0) - *  where B1 != +
"""
# root and vocalism tapes, each closed alone, in any order
TWO_TAPES = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - (0, X, 0) - *  where lt(X)
rule B: * - 0 - *  =>  * - (0, +, 0) - *
rule V: * - Y - *  =>  * - (0, 0, Y) - *  where lt(Y)
rule W: * - 0 - *  =>  * - (0, 0, +) - *
"""


def test_grammar_closing_a_root_alone_gets_no_lookahead(grammar, lexicon):
    assert step_memo(grammar, lexicon).stems is not None
    entries = ("a", "ab", "b", "ka")
    lex = load_lexicon("".join(f"root\t{e}\tcat=noun\t\n" for e in entries))
    g = parse_grammar(ROOT_MICRO)
    assert step_memo(g, lex).stems is None
    rules = {"A": {"kind": "identity", "letters": set("abk")},
             "B": {"kind": "boundary"}}
    for n in range(1, 5):
        for word in map("".join, itertools.product("ab", repeat=n)):
            got = {(a.rule_trace,
                    "".join(t[ROOT] for r in a.records for t in r.lex_seg))
                   for a in analyze(decode(word), g, lex)}
            want = {(tuple(name for name, _, _ in trace), tape)
                    for trace, tape in oracle_micro_analyze(rules, entries,
                                                            word)}
            assert got == want, word
    # a root and a vocalism that clash, each closed alone: no stem check
    # reads them together, so every order of reading them analyzes
    g = parse_grammar(TWO_TAPES)
    lex = load_lexicon("root\tk\tcat=verb\t\nvocalism\ta\tcat=noun\t\n")
    assert step_memo(g, lex).stems is None
    assert {a.rule_trace for a in analyze(decode("ka"), g, lex)} == {
        ("A", "B", "V", "W"), ("A", "V", "B", "W"), ("A", "V", "W", "B")}


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


def test_failure_point_search_sees_every_state(grammar, lexicon, monkeypatch):
    seen = []
    error_roots = corrector._error_roots

    def recording(ctx, frontier, max_positions):
        seen.append({pos: len(states) for pos, states in frontier.items()})
        return error_roots(ctx, frontier, max_positions)

    monkeypatch.setattr(corrector, "_error_roots", recording)
    ctx = _SearchContext(grammar, lexicon)
    cut = 0
    for word in map(decode, ERROR_EXAMPLES):
        seen.clear()
        corrector.correct(word, grammar, lexicon)
        # the frontier of a search that cannot prune by the lookahead
        with monkeypatch.context() as m:
            _no_lookahead(m)
            frontier = _frontier(grammar, lexicon, word)
        assert seen == [{pos: len(states)
                         for pos, states in frontier.items()}], word
        cut += sum(not _stems_meet(ctx, state.tapes)
                   for states in frontier.values() for state in states)
    # the lookahead would cut some of the states the pass records
    assert cut > 0

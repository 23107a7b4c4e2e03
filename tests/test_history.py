"""Hash-consed search histories: one node per partition prefix and search,
left-context verdicts read off the node's scan memo in dispatch, and the
lean successor step that commits only the tapes a rule read.

The searches checked are those of `correct` over the paper's error examples
and every single Damerau edit of mdiintA: base analysis, both phases of the
error search, regeneration and verification.
"""

import gc
import weakref

from semitic_morpho import engine
from semitic_morpho.alphabet import LETTERS, decode
from semitic_morpho.corrector import correct
from semitic_morpho.engine import (History, _dispatch, _left_bindings,
                                   _search, _SearchContext, analysis_start,
                                   apply_rule)

from oracles import damerau_edits, flattened, match_left_contexts
from test_order_contract import ERROR_EXAMPLES

WORDS = tuple(ERROR_EXAMPLES) + tuple(
    edit for _, _, edit in damerau_edits("mdiintA", sorted(LETTERS)))


def _expanded(monkeypatch, grammar, lexicon, word):
    """(context, state) for every state the searches of correct(word)
    expand."""
    seen = []
    successors = engine._successors

    def recording(ctx, state, error_step):
        seen.append((ctx, state))
        return successors(ctx, state, error_step)

    monkeypatch.setattr(engine, "_successors", recording)
    correct(decode(word), grammar, lexicon)
    monkeypatch.undo()
    return seen


def _signature(state):
    """What a successor is, with cursors named by their node (and script
    position) rather than by the cursor object."""
    return ([(t.cursor.node, getattr(t.cursor, "ei", None), t.morphemes)
             for t in state.tapes],
            state.word, state.spliced, state.records, state.history,
            state.free_vars, state.obligations, state.budget, state.pos,
            state.lex_run, state.last_nonconsuming)


def _on_terminal(state):
    return any(t.cursor.terminal_entries() for t in state.tapes)


def test_searches_keep_one_node_per_history_and_exact_verdicts(
        grammar, lexicon, monkeypatch):
    plans = [plan for plan in grammar.plans.values() if plan.sides]
    compared = 0
    for word in WORDS:
        checked = set()
        for ctx, state in _expanded(monkeypatch, grammar, lexicon, word):
            # no cursor rests on a terminal: the step that reaches one
            # commits it
            assert not _on_terminal(state), word
            node = state.history
            if id(node) in checked:
                continue
            checked.add(id(node))
            # equal (parent, segments) are one node of the search
            if node.parent is not None:
                assert ctx.histories[node.parent, node.lex_seg,
                                     node.surf_seg] is node, word
            # the verdict read off the node's memo is the left contexts
            # matched afresh over the flattened history
            for plan in plans:
                assert _left_bindings(ctx, plan, node, {}) == \
                    match_left_contexts(plan, node, {}), (word, plan.rule.name)
                compared += 1
    assert compared > 0


def test_dispatch_drops_only_rules_that_yield_nothing(grammar, lexicon,
                                                      monkeypatch):
    # every plan the bitmasks admit, run through apply_rule, yields what
    # _successors yields, in the same order; every third word, to keep the
    # suite quick
    for word in WORDS[::3]:
        for ctx, state in _expanded(monkeypatch, grammar, lexicon, word):
            got = list(engine._successors(ctx, state, None))
            _, plans = _dispatch(ctx, state)
            want = [succ for plan in plans
                    for succ in apply_rule(ctx, state, plan.rule)]
            assert list(map(_signature, got)) == \
                list(map(_signature, want)), word
            assert not any(map(_on_terminal, got)), word


def test_history_nodes_are_interned(grammar, lexicon):
    ctx = _SearchContext(grammar, lexicon)
    root = History()
    lex, surf = (("k", None, None),), ("k",)
    node = ctx.history(root, lex, surf)
    assert ctx.history(root, (("k", None, None),), ("k",)) is node
    assert ctx.history(root, lex, ()) is not node
    assert ctx.history(node, (), ()) is node
    assert flattened(node) == (lex, surf)
    child = ctx.history(node, (("t", None, None),), ())
    assert flattened(child) == ((("k", None, None), ("t", None, None)),
                                ("k",))


def _live_histories():
    gc.collect()
    return sum(isinstance(o, History) for o in gc.get_objects())


def test_histories_are_released_with_their_search(grammar, lexicon):
    before = _live_histories()
    ctx = _SearchContext(grammar, lexicon)
    finals = list(_search(ctx, [analysis_start(grammar, lexicon,
                                               decode("kattab"))]))
    assert finals and ctx.histories
    assert _live_histories() > before
    search = weakref.ref(ctx)
    del ctx, finals
    assert search() is None
    assert _live_histories() == before
    # nothing shared by searches, such as the step memo, keeps a node
    assert correct(decode("mdiitA"), grammar, lexicon)
    assert _live_histories() == before

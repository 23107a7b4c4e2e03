"""The one left-context matcher (engine._left_bindings): every plan's left
contexts are matched off the history nodes, segment by segment, with the
scans memoised at the node ends (History.scans) and each group matched
against each window once per grammar and lexicon (StepMemo.contexts).
Hoisted verdicts, read from the scans memoised at the state's node, plans
matched after the walk and coercion watches all read it.

At every history node the searches expand, it must equal the reference
matcher over the flattened history (oracles.match_left_contexts), with no
bindings given and with the bindings of every lexical advance of each plan
there; and on micro grammars, analyses must not change with the reference
patched into the engine.
"""

import itertools

import pytest

from semitic_morpho import engine, generate
from semitic_morpho.alphabet import decode
from semitic_morpho.corrector import correct
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (_advance_tapes, _left_bindings, analyze,
                                   optional_deletion_rules)
from semitic_morpho.grammar import match_context
from semitic_morpho.lexicon import load_lexicon

from oracles import match_left_contexts
from test_order_contract import ERROR_EXAMPLES
from workloads import table_selection, well_formed_words


def _expanded(monkeypatch, run):
    """(context, state) for every state the searches of `run()` expand."""
    seen = []
    successors = engine._successors

    def recording(ctx, state, error_step):
        seen.append((ctx, state))
        return successors(ctx, state, error_step)

    with monkeypatch.context() as m:
        m.setattr(engine, "_successors", recording)
        run()
    return seen


def _check_matcher(grammar, seen):
    """Every plan with left contexts, at every distinct node in `seen`: the
    matcher with no bindings given, which is a hoisted plan's verdict, and
    the matcher under the bindings of each lexical advance the plan makes at
    the state, each equal the reference. Then every group-window match in
    the step memo still equals a fresh one: no caller bound into a shared
    table entry. Returns the number compared."""
    plans = [plan for plan in grammar.plans.values() if plan.sides]
    compared, nodes, memos = 0, set(), {}
    for ctx, state in seen:
        history = state.history
        if id(history) in nodes:
            continue
        nodes.add(id(history))
        memos[id(ctx.memo)] = ctx.memo
        for plan in plans:
            want = match_left_contexts(plan, history, {})
            assert _left_bindings(ctx, plan, history, {}) == want, \
                plan.rule.name
            for *_, b in _advance_tapes(ctx, plan, state, {}):
                assert _left_bindings(ctx, plan, history, b) == \
                    match_left_contexts(plan, history, b), (plan.rule.name, b)
                compared += 1
            compared += 1
    for memo in memos.values():
        for ((side, j, values), window), got in memo.contexts.items():
            given = {v: x for v, x in zip(side.reads[j], values)
                     if x is not None}
            fresh = match_context(side.groups[j], window, given, side.guards,
                                  side.lexical)
            assert got == (None if fresh is None else {
                v: x for v, x in fresh.items() if v not in given})
    return compared


def test_the_bundled_left_contexts_all_read_off_the_node(grammar):
    with_left = [name for name, plan in grammar.plans.items() if plan.sides]
    assert with_left == ["R3", "R4", "R5", "R6", "R7", "R8", "R9"]
    assert all(grammar.plans[name].hoisted for name in with_left)
    r9 = grammar.plans["R9"].sides[0]
    assert r9.lexical and [len(group) for group in r9.groups] == [1, 1]
    assert r9.reads == (("Pw", "V"), ("C1", "P1", "Pw", "V"))


def test_verdicts_equal_the_flattened_match(grammar, lexicon, monkeypatch):
    words = list(well_formed_words())
    seen = _expanded(monkeypatch, lambda: [
        analyze(decode(w), grammar, lexicon) for w in words])
    assert _check_matcher(grammar, seen) > 1000


def test_verdicts_equal_the_flattened_match_in_correction(grammar, lexicon,
                                                          monkeypatch):
    seen = _expanded(monkeypatch, lambda: [
        correct(decode(w), grammar, lexicon) for w in ERROR_EXAMPLES])
    assert _check_matcher(grammar, seen) > 1000


def test_verdicts_equal_the_flattened_match_in_generation(
        grammar, lexicon, verb_table, monkeypatch):
    skip = optional_deletion_rules(grammar)

    def run():
        for measure, voice, _ in verb_table.cells():
            pattern, root, voc = table_selection(measure, voice)
            for skip_rules in (skip, frozenset()):
                generate({"pattern": pattern, "root": root,
                          "vocalism": voc}, grammar, lexicon,
                         skip_rules=skip_rules)

    assert _check_matcher(grammar, _expanded(monkeypatch, run)) > 1000


# ---------------------------------------------------------------------------
# micro grammars: contexts the bundled grammar does not have

HEADER = """\
class lt = {a, b, k}
class av = {a}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
"""
ENTRIES = ("a", "ab", "aba", "b", "ka", "bak")

# rule -> True for a hoisted rule, or the one entry of a rule matched after
# the walk, whose lexical-only deletions would make the search over the
# shared entries large. B records have an empty surface segment,
# so a surface context reads past them.
RULES = {
    # an earlier group before the flush item
    "rule F: * - 0 - *  =>  (Y, 0, 0) ... (k, 0, 0) - (a, 0, 0) - *"
    "  where lt(Y)": True,
    # two earlier groups and no flush item
    "rule D: * - 0 - *  =>  (Y, 0, 0) ... (b, 0, 0) ... - (a, 0, 0) - *"
    "  where lt(Y)": True,
    # a surface left context, flush, as in the acceptance tests' COERCE
    "rule O: k - b - *  <=>  * - (a, 0, 0) - *": True,
    # a surface and a lexical left context, the lexical one with an
    # earlier group
    "rule G: b - 0 - *  =>  (a, 0, 0) ... - (k, 0, 0) - *": True,
    # a group of two items, on either tape
    "rule V: b k - 0 - *  =>  * - (a, 0, 0) - *": True,
    "rule T: * - 0 - *  =>  (a, 0, 0) (b, 0, 0) - (a, 0, 0) - *": True,
    # a variable in two groups
    "rule S: * - 0 - *  =>  (Y, 0, 0) ... (Y, 0, 0) - (a, 0, 0) - *"
    "  where lt(Y)": True,
    # a != guard across groups
    "rule N: * - 0 - *  =>  (Y, 0, 0) ... (Z, 0, 0) - (a, 0, 0) - *"
    "  where lt(Y), lt(Z), Y != Z": True,
    # a variable in both the LLC and the LSC
    "rule U: X - 0 - *  =>  (X, 0, 0) - (b, 0, 0) - *  where lt(X)": True,
    # matched after the walk, with its bindings, each over the one entry
    # of its test in tests/test_grammar.py: a variable shared with the
    # lexical expression, a != guard linking the two, and both at once
    # with a surface variable
    "rule P: * - 0 - * => (X, 0, 0) ... - X - * where lt(X)": "aba",
    "rule L: * - 0 - * => (Y, 0, 0) ... - X - * where av(X), X != Y": "baa",
    "rule Q: * - X - * => (Z, 0, 0) ... (Y, 0, 0) - Y - * where X != Z":
        "babb",
    # an obligatory rule with an earlier group and no flush item, which A
    # violates: its watches match a lexical left context
    "rule W: * - k - *  <=>  (a, 0, 0) ... - (b, 0, 0) - *": True,
}
WORDS = [w for n in range(1, 5) for w in map("".join,
                                             itertools.product("abk",
                                                               repeat=n))]


def _micro(rule, entries=ENTRIES):
    grammar = parse_grammar(HEADER + rule + "\n")
    lexicon = load_lexicon("".join(f"pattern\t{e}\t\t\n" for e in entries))
    return grammar, lexicon, grammar.plans[rule.split()[1].rstrip(":")]


def _analyses(grammar, lexicon):
    return [[(a.rule_trace, a.records) for a in analyze(decode(w), grammar,
                                                        lexicon)]
            for w in WORDS]


def _reference(ctx, plan, history, bindings):
    return match_left_contexts(plan, history, bindings)


@pytest.mark.parametrize("rule", list(RULES))
def test_micro_grammars_analyse_alike_without_the_fact(rule, monkeypatch):
    """The matcher equals the reference at every node the analyses expand,
    and the analyses are alike without the facts it keeps (History.scans,
    StepMemo.contexts): with the reference, which keeps none, patched into
    the engine in its place."""
    hoisted = RULES[rule] is True
    grammar, lexicon, plan = _micro(rule, ENTRIES if hoisted
                                    else (RULES[rule],))
    assert plan.sides and plan.hoisted == hoisted
    seen = _expanded(monkeypatch, lambda: _analyses(grammar, lexicon))
    assert _check_matcher(grammar, seen)
    got = _analyses(grammar, lexicon)
    assert any(plan.rule.name in trace for word in got for trace, _ in word)
    monkeypatch.setattr(engine, "_left_bindings", _reference)
    assert _analyses(grammar, lexicon) == got


def test_a_watch_matches_a_lexical_left_context():
    # W surfaces a lexical b as k once a lexical a came before it. A record
    # of A that keeps such a b opens a watch for W, which prunes it; a b
    # with no a before it opens none.
    grammar, lexicon, _ = _micro(
        "rule W: * - k - *  <=>  (a, 0, 0) ... - (b, 0, 0) - *",
        ("ab", "bak", "babb"))

    def traces(word):
        return [a.rule_trace for a in analyze(decode(word), grammar, lexicon)]

    assert traces("ak") == [("A", "W", "B")]
    assert traces("ab") == []
    assert traces("babb") == []
    assert traces("bak") == [("A", "A", "A", "B")]
    assert traces("bakk") == [("A", "A", "W", "W", "B")]

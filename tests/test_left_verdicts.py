"""Left-context verdicts read off the history nodes (engine._verdict): a plan
whose left contexts qualify (grammar.RulePlan.sides) has its verdict made
from its node's own segments and its parent's cached tails, out of item
matches kept in the step memo (StepMemo.contexts), rather than by matching
the flattened history.

At every history node the searches reach, that verdict must equal the left
contexts matched afresh (_match_left_contexts); and on micro grammars on
both sides of the rule that derives the fact, analyses must not change with
the fact patched off.
"""

import itertools
import sys
from pathlib import Path

import pytest

from semitic_morpho import engine, generate
from semitic_morpho.alphabet import decode
from semitic_morpho.corrector import correct
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (_match_left_contexts, _verdict, analyze,
                                   optional_deletion_rules)
from semitic_morpho.lexicon import load_lexicon

from test_order_contract import ERROR_EXAMPLES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import table_selection, well_formed_words  # noqa: E402


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


def _check_verdicts(grammar, seen):
    """Every plan with sides, at every distinct node in `seen`: the verdict
    read off the node equals the left contexts matched afresh, and one made
    by merging is not a table entry. Returns the number compared."""
    plans = [plan for plan in grammar.plans.values() if plan.sides]
    compared, nodes = 0, set()
    for ctx, state in seen:
        if id(state.history) in nodes:
            continue
        nodes.add(id(state.history))
        for plan in plans:
            want = _match_left_contexts(plan, state, {})
            got = _verdict(ctx, plan, state)
            assert got == want, (plan.rule.name, state.history.lexical())
            if got is not None and _merges(plan):
                assert all(got is not shared
                           for shared in ctx.memo.contexts.values())
            compared += 1
    return compared


def _merges(plan):
    """Is the plan's verdict merged from more than one item match?"""
    return len(plan.sides) > 1 or any(side.flush is not None and side.chain
                                      for side in plan.sides)


def test_the_bundled_left_contexts_all_read_off_the_node(grammar):
    with_left = [name for name, plan in grammar.plans.items() if plan.left]
    assert with_left == ["R3", "R4", "R5", "R6", "R7", "R8", "R9"]
    assert all(grammar.plans[name].sides for name in with_left)
    r9 = grammar.plans["R9"].sides[0]
    assert r9.lexical and r9.flush is not None and len(r9.chain) == 1


def test_verdicts_equal_the_flattened_match(grammar, lexicon, monkeypatch):
    words = list(well_formed_words())
    seen = _expanded(monkeypatch, lambda: [
        analyze(decode(w), grammar, lexicon) for w in words])
    assert _check_verdicts(grammar, seen) > 1000


def test_verdicts_equal_the_flattened_match_in_correction(grammar, lexicon,
                                                          monkeypatch):
    seen = _expanded(monkeypatch, lambda: [
        correct(decode(w), grammar, lexicon) for w in ERROR_EXAMPLES])
    assert _check_verdicts(grammar, seen) > 1000


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

    assert _check_verdicts(grammar, _expanded(monkeypatch, run)) > 1000


# ---------------------------------------------------------------------------
# micro grammars on both sides of the derived rule

HEADER = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
"""
ENTRIES = ("a", "ab", "aba", "b", "ka", "bak")

# rule -> whether its left contexts are read off the node. B records have an
# empty surface segment, so a surface context reads past them.
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
    "rule V: b k - 0 - *  =>  * - (a, 0, 0) - *": False,
    "rule T: * - 0 - *  =>  (a, 0, 0) (b, 0, 0) - (a, 0, 0) - *": False,
    # a variable in two groups
    "rule S: * - 0 - *  =>  (Y, 0, 0) ... (Y, 0, 0) - (a, 0, 0) - *"
    "  where lt(Y)": False,
    # a != guard across groups
    "rule N: * - 0 - *  =>  (Y, 0, 0) ... (Z, 0, 0) - (a, 0, 0) - *"
    "  where lt(Y), lt(Z), Y != Z": False,
    # a variable in both the LLC and the LSC
    "rule U: X - 0 - *  =>  (X, 0, 0) - (b, 0, 0) - *  where lt(X)": False,
}
WORDS = [w for n in range(1, 5) for w in map("".join,
                                             itertools.product("abk",
                                                               repeat=n))]


def _analyses(grammar, lexicon):
    return [[(a.rule_trace, a.records) for a in analyze(decode(w), grammar,
                                                        lexicon)]
            for w in WORDS]


@pytest.mark.parametrize("rule", list(RULES))
def test_micro_grammars_analyse_alike_without_the_fact(rule, monkeypatch):
    grammar = parse_grammar(HEADER + rule + "\n")
    lexicon = load_lexicon("".join(f"pattern\t{e}\t\t\n" for e in ENTRIES))
    plan = grammar.plans[rule.split()[1].rstrip(":")]
    assert plan.hoisted and (plan.sides is not None) == RULES[rule]
    seen = _expanded(monkeypatch,
                     lambda: _analyses(grammar, lexicon))
    if plan.sides:
        assert _check_verdicts(grammar, seen)
    with_fact = _analyses(grammar, lexicon)
    assert any(plan.rule.name in trace for word in with_fact
               for trace, _ in word)
    for other in grammar.plans.values():
        monkeypatch.setattr(other, "sides", None)
    assert _analyses(grammar, lexicon) == with_fact

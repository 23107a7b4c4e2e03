"""The step memo (engine.StepMemo): the lexicon side of rule application,
filled once per (grammar, lexicon) pair and shared by every analysis and
generation over it."""

import gc
import itertools
import weakref

from hypothesis import given, settings, strategies as st

from semitic_morpho import load_builtin
from semitic_morpho.alphabet import LETTERS, decode, encode
from semitic_morpho.arabic_data import LEXICON_FILE, VERB_TABLE, data_text
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (ScriptCursor, SearchState, TapeState,
                                   TrieCursor, _advance_tapes,
                                   _hard_features, _search, _SearchContext,
                                   _walk, analyze, generate,
                                   optional_deletion_rules, step_memo)
from semitic_morpho.features import restrict, unify_all
from semitic_morpho.lexicon import TAPES, load_lexicon

from oracles import damerau_edits
from test_acceptance import AFFIXED_SURFACES, NOMINAL_SURFACES

CELLS = tuple(s for _, _, s in VERB_TABLE.cells())
ALPHABET = sorted(LETTERS)


def _key(analyses):
    return [(a.rule_trace, {t: [e.id for e in es]
                            for t, es in a.morphemes.items()})
            for a in analyses]


# ---------------------------------------------------------------------------
# a warm memo answers as a fresh one


_WARM = load_builtin()
_FRESH = {}


def _fresh(word):
    """`word` analyzed on a pair that has analyzed nothing else."""
    if word not in _FRESH:
        grammar, lexicon, _ = load_builtin()
        _FRESH[word] = _key(analyze(decode(word), grammar, lexicon))
    return _FRESH[word]


@st.composite
def _edit(draw):
    word = draw(st.sampled_from(CELLS + AFFIXED_SURFACES))
    edits = list(damerau_edits(word, ALPHABET))
    return draw(st.sampled_from(edits))[2]


_WORDS = st.one_of(st.sampled_from(CELLS), st.sampled_from(AFFIXED_SURFACES),
                   _edit())


@settings(max_examples=60, deadline=None)
@given(st.lists(_WORDS, min_size=1, max_size=6))
def test_warm_memo_answers_as_a_fresh_pair(words):
    grammar, lexicon, _ = _WARM
    for word in words:
        assert _key(analyze(decode(word), grammar, lexicon)) == _fresh(word), \
            word


# (pattern, root, vocalism, affixes) of every stem analysis of the table
# cells, the nominal words and the affixed words
SELECTIONS = tuple(sorted({
    (a.stems[-1].pattern.id, a.stems[-1].root.id, a.stems[-1].vocalism.id,
     tuple(e.id for e in a.affixes()))
    for word in CELLS + NOMINAL_SURFACES + AFFIXED_SURFACES
    for a in analyze(decode(word), *_WARM[:2]) if a.stems}))
_FRESH_GENERATED = {}


def _generate(pair, selection, full):
    grammar, lexicon = pair[:2]
    pattern, root, vocalism, affixes = selection
    skip = optional_deletion_rules(grammar) if full else frozenset()
    return generate({"pattern": pattern, "root": root, "vocalism": vocalism,
                     "affixes": affixes}, grammar, lexicon, skip_rules=skip)


def _fresh_generated(selection, full):
    """`selection` generated on a pair that has done nothing else."""
    if (selection, full) not in _FRESH_GENERATED:
        _FRESH_GENERATED[selection, full] = _generate(load_builtin(),
                                                      selection, full)
    return _FRESH_GENERATED[selection, full]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SELECTIONS), st.booleans()),
                min_size=1, max_size=6))
def test_warm_memo_generates_as_a_fresh_pair(calls):
    assert {s[1] for s in SELECTIONS} > {"ktb", "dHrJ"}
    assert any(s[3] for s in SELECTIONS)
    for selection, full in calls:
        assert _generate(_WARM, selection, full) == \
            _fresh_generated(selection, full), (selection, full)


def test_generation_memo_is_bounded_by_the_lexicon():
    # A stored walk holds nothing of the script that filled it, so a second
    # pass over the same selections, in another order, adds no entry.
    pair = load_builtin()
    memo = step_memo(*pair[:2])
    calls = [(selection, full) for selection in SELECTIONS
             for full in (True, False)]
    sizes = []
    for order in (calls, calls[::-1]):
        for selection, full in order:
            _generate(pair, selection, full)
        sizes.append((len(memo.walks), [len(m) for m in memo.masks],
                      len(memo.paths)))
    assert sizes[0] == sizes[1] and sizes[0][0] > 0


def _unified(lexicon, pattern, root, vocalism):
    soft = lexicon.soft_attrs
    return unify_all(restrict(pattern.features, soft),
                     restrict(root.features, soft),
                     restrict(vocalism.features, soft))


def test_stem_table_holds_the_unified_features():
    # every entry triple the analyses of the table cells, the nominal and
    # affixed words and their edits close, in the table the stem check and
    # the analyses' stems read, is the triple's unification
    grammar, lexicon, _ = load_builtin()
    words = CELLS + NOMINAL_SURFACES + AFFIXED_SURFACES
    for word in words + tuple(edited for word in words[::4]
                              for _, _, edited in damerau_edits(word,
                                                                ALPHABET)):
        analyze(decode(word), grammar, lexicon)
    hard = step_memo(grammar, lexicon).hard
    assert len(hard) > 10
    assert any(value[3] is None for value in hard.values())
    for key, (pattern, root, vocalism, features) in hard.items():
        assert key == (id(pattern), id(root), id(vocalism))
        assert features == _unified(lexicon, pattern, root, vocalism)
    # and every triple of the lexicon's entries reads as unified directly,
    # the second time from the table
    ctx = _SearchContext(grammar, lexicon)
    for triple in itertools.product(lexicon.entries("pattern"),
                                    lexicon.entries("root"),
                                    lexicon.entries("vocalism")):
        features = _hard_features(ctx, *triple)
        assert features == _unified(lexicon, *triple), triple
        assert _hard_features(ctx, *triple) is features


def test_add_after_analyze_matches_a_fresh_lexicon():
    # Without measure 5 the words do not analyze, and the memo holds walks
    # and dispatch masks from pattern nodes the added entry extends.
    grammar, full, _ = load_builtin()
    lines = data_text(LEXICON_FILE).splitlines(keepends=True)
    m5 = next(line for line in lines if "id=M5;" in line)
    partial = load_lexicon("".join(line for line in lines if line != m5))
    words = ("takattab", "tukuttib")
    before = [_key(analyze(decode(w), grammar, partial)) for w in words]
    assert before == [[], []]
    partial.add(load_lexicon(m5).entries("pattern")[0])
    after = [_key(analyze(decode(w), grammar, partial)) for w in words]
    assert after == [_key(analyze(decode(w), grammar, full)) for w in words]
    assert all(after)


def test_memo_is_released_with_its_lexicon_or_grammar():
    for release in ("lexicon", "grammar"):
        grammar, lexicon, _ = load_builtin()
        analyze(decode("katab"), grammar, lexicon)
        memo = weakref.ref(step_memo(grammar, lexicon))
        assert memo().walks
        owner = weakref.ref(lexicon if release == "lexicon" else grammar)
        if release == "lexicon":
            del lexicon
        else:
            del grammar
        gc.collect()
        assert owner() is None and memo() is None, release
        if release == "lexicon":
            assert not grammar.step_memos


# ---------------------------------------------------------------------------
# the memo key holds every part the walk reads


# D surfaces a pattern slot as `a` when the slot indexes the next root
# position, without reading the root tape: the root node is in D's key only
# through its aligned guard.
ALIGNED_ONLY = """\
class pc = {c1, c2}
class cons = {k, t}
rule C: * - C - * => * - (P, C, 0) - * where pc(P), cons(C), aligned(P, root)
rule D: * - a - * => * - (P, 0, 0) - * where pc(P), aligned(P, root)
rule B: * - 0 - * => * - (+, +, 0) - *
"""


def test_key_holds_a_tape_named_only_by_an_aligned_guard():
    # In <aa>, D reads c1 at root depth 0, reaching the pattern node after
    # c1 with the root still at depth 0, where D cannot take c2. In <ka>, C
    # reads c1 with k, and D meets the same pattern node at root depth 1,
    # where c2 is the next root position.
    g = parse_grammar(ALIGNED_ONLY)
    assert g.plans["D"].read_tapes == (0, 1)
    lex = load_lexicon("pattern\tc1c2\t\t\nroot\tk\t\t\n")
    traces = [[a.rule_trace for a in analyze(decode(w), g, lex)]
              for w in ("aa", "ka")]
    assert traces == [[], [("C", "D", "B")]]


# N deletes a pattern letter X unlike the letter Y before it.
UNLIKE = """\
class lt = {a, b}
rule N: * - 0 - * => (Y, 0, 0) - (X, 0, 0) - * where lt(X), X != Y
"""


def test_key_holds_the_inequality_partner_of_a_lexical_variable():
    # apply_rule never starts a walk with a != partner bound (RulePlan hoists
    # no context linked to the walk by !=, and pre-binds no variable a guard
    # names), so the walk is driven directly: from the root of lexicon
    # {a, b}, X takes the letter Y is not.
    g = parse_grammar(UNLIKE)
    plan = g.plans["N"]
    assert plan.read_vars == ("X", "Y")
    lex = load_lexicon("pattern\ta\t\t\npattern\tb\t\t\n")
    ctx = _SearchContext(g, lex)
    state = SearchState(tapes=tuple(TapeState(cursor=TrieCursor(lex.tree(t)))
                                    for t in TAPES), word=("a",))
    for y in ("a", "b", "a"):
        walked = [(c, t, b) for _, c, t, b in _walk(
            ctx, plan, [t.cursor for t in state.tapes], {"Y": y})]
        memo = [(c, t, b) for _, c, t, b in _advance_tapes(ctx, plan, state,
                                                           {"Y": y})]
        assert memo == walked and len(walked) == 1, y
        assert walked[0][2]["X"] != y


def test_scripted_key_holds_the_offset_an_aligned_guard_reads():
    # Generation with the pattern cursor on c2: D may read it only when the
    # root cursor, which D does not advance, has read k (depth 1), so that
    # c2 indexes the next root position. The two root offsets share a form.
    g = parse_grammar(ALIGNED_ONLY)
    plan = g.plans["D"]
    lex = load_lexicon("pattern\tc1c2\t\t\nroot\tk\t\t\n")
    ctx = _SearchContext(g, lex)

    def cursor(tape, *read):
        c = ScriptCursor.over(lex.entries(tape), ctx.memo)
        for sym in read:
            c = c.advance(sym)
        return c

    def cursors(walks):
        return [([(c.ei, c.node) for c in curs], consumed, tuples, b)
                for curs, consumed, tuples, b in walks]

    for root_read in ((), ("k",), ()):
        state = SearchState(tapes=(
            TapeState(cursor("pattern", "c1")),
            TapeState(cursor("root", *root_read)),
            TapeState(cursor("vocalism"))), word=None)
        walked = cursors(_walk(ctx, plan, [t.cursor for t in state.tapes],
                               {}))
        memo = cursors(_advance_tapes(ctx, plan, state, {}))
        assert memo == walked and len(walked) == len(root_read), root_read
    assert [encode(s) for s in generate({"pattern": "c1c2", "root": "k"},
                                        g, lex)] == ["ka"]


def test_homographs_share_walks_and_commit_the_scripted_root():
    # The two kfl roots share one form, hence every walk entry, and differ
    # only in a soft feature: each must still commit itself.
    grammar, lexicon, _ = load_builtin()
    roots = [lexicon.entry("root", i) for i in ("kfl_kaafil", "kfl_kafiil")]
    assert roots[0].form == roots[1].form
    scripts = {"pattern": (lexicon.entry("pattern", "CuCCaC"),),
               "vocalism": (lexicon.entry("vocalism", "ua"),)}
    root_i = TAPES.index("root")
    walks = []
    for root in roots + roots:
        ctx = _SearchContext(grammar, lexicon,
                             skip_rules=optional_deletion_rules(grammar))
        scripts["root"] = (root,)
        initial = SearchState(tapes=tuple(
            TapeState(ScriptCursor.over(scripts.get(t, ()), ctx.memo))
            for t in TAPES), word=None)
        finals = list(_search(ctx, [initial]))
        assert [encode(s.history.surface()) for s in finals] == ["kuffal"]
        assert [s.tapes[root_i].morphemes for s in finals] == [(root,)]
        walks.append(len(ctx.memo.walks))
    assert walks[0] > 0 and len(set(walks)) == 1

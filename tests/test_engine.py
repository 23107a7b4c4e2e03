import dataclasses
import itertools

import pytest

from semitic_morpho.alphabet import LETTERS, decode, encode
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (FreeRef, History, PartitionRecord,
                                   _table_key, analysis_start, analyze,
                                   generate, is_optional_deletion,
                                   optional_deletion_rules)
from semitic_morpho.grammar import Grammar
from semitic_morpho.lexicon import TAPES, load_lexicon

from oracles import (check_licensed, check_obligatory, damerau_edits,
                     oracle_micro_analyze, orthography_set, reference_surface)
from steps import step
from test_acceptance import AFFIXED_SURFACES, NOMINAL_SURFACES


def _analyses(grammar, lexicon, word):
    return analyze(decode(word), grammar, lexicon)


def _stem(a):
    return (a.stems[-1].pattern.id, a.stems[-1].root.id,
            a.stems[-1].vocalism.id) if a.stems else None


# ---------------------------------------------------------------------------
# worked derivations


def test_kuttib_decomposition(grammar, lexicon):
    got = _analyses(grammar, lexicon, "kuttib")
    assert len(got) == 1
    assert _stem(got[0]) == ("M2", "ktb", "ui")


def test_ktb_two_analyses(grammar, lexicon):
    got = _analyses(grammar, lexicon, "ktb")
    assert len(got) == 2
    assert {_stem(a) for a in got} == {("M1", "ktb", "a"), ("M1", "ktb", "ui")}
    traces = {_stem(a)[2]: a.rule_trace for a in got}
    assert traces["a"] == ("R1", "R8", "R1", "R9", "R1", "R4")
    assert traces["ui"] == ("R1", "R8", "R1", "R8", "R1", "R4")


def test_dHunriJa_trace(grammar, lexicon):
    got = _analyses(grammar, lexicon, "dHunriJa")
    assert len(got) == 1
    a = got[0]
    assert a.rule_trace == ("R1", "R1", "R2", "R0", "R1", "R2", "R1", "R4",
                            "R0", "R3")
    assert _stem(a) == ("Q3", "dHrJ", "ui")
    assert [e.id for e in a.affixes()] == ["suf_a"]


def test_spreading_traces(grammar, lexicon):
    katab, = _analyses(grammar, lexicon, "katab")
    assert katab.rule_trace == ("R1", "R2", "R1", "R6", "R1", "R4")
    kattab, = _analyses(grammar, lexicon, "kattab")
    assert kattab.rule_trace == ("R1", "R2", "R1", "R5", "R6", "R1", "R4")
    kaatab, = _analyses(grammar, lexicon, "kaatab")
    assert kaatab.rule_trace == ("R1", "R2", "R6", "R1", "R6", "R1", "R4")


def test_spread_symbol_equals_antecedent(grammar, lexicon):
    for word, rule in (("kattab", "R5"), ("kaatab", "R6")):
        a, = _analyses(grammar, lexicon, word)
        for i, rec in enumerate(a.records):
            if rec.rule_name != rule:
                continue
            spread = rec.surf_seg[0]
            earlier = [r for r in a.records[:i] if r.surf_seg]
            assert any(r.surf_seg[0] == spread for r in earlier)


def test_linear_word(grammar, lexicon):
    got = _analyses(grammar, lexicon, "mdiintA")
    assert len(got) == 1
    assert got[0].rule_trace == ("R0",) * 7 + ("R3",)


def test_no_analysis_is_empty_list(grammar, lexicon):
    assert _analyses(grammar, lexicon, "qqq") == []


def test_empty_word_has_no_analysis(grammar, lexicon):
    assert analyze((), grammar, lexicon) == []


def test_glottal_change_obligatory(grammar, lexicon):
    # lexical glottal stop may not surface unchanged before {iyy} for roots
    # marked for the change, so *samaaAiyy has no analysis while the
    # corrected form carries a glottal_change record
    assert _analyses(grammar, lexicon, "samaaAiyy") == []
    got = _analyses(grammar, lexicon, "samaawiyy")
    assert got and all("glottal_change" in a.rule_trace for a in got)
    # without the suffix the coercion context never completes
    assert _analyses(grammar, lexicon, "samaaA")
    # unmarked roots are untouched either way
    assert _analyses(grammar, lexicon, "hawaaAiyy")
    assert _analyses(grammar, lexicon, "hawaaA")


def test_glottal_change_generation(grammar, lexicon):
    got = generate({"pattern": "CaCaaC", "root": "smA", "vocalism": "a",
                    "affixes": ["suf_iyy"]}, grammar, lexicon,
                   skip_rules=optional_deletion_rules(grammar))
    assert [encode(s) for s in got] == ["samaawiyy"]
    got = generate({"pattern": "CaCaaC", "root": "hwA", "vocalism": "a",
                    "affixes": ["suf_iyy"]}, grammar, lexicon,
                   skip_rules=optional_deletion_rules(grammar))
    assert [encode(s) for s in got] == ["hawaaAiyy"]


def test_prefix_generation(grammar, lexicon):
    got = generate({"pattern": "M1", "root": "ktb", "vocalism": "ui",
                    "affixes": ["pre_wa"]}, grammar, lexicon,
                   skip_rules=optional_deletion_rules(grammar))
    assert [encode(s) for s in got] == ["wakutib"]


# ---------------------------------------------------------------------------
# step


def _initial(grammar, lexicon, word):
    return analysis_start(grammar, lexicon, decode(word))


def test_step_first_consonant(grammar, lexicon):
    succ = step(_initial(grammar, lexicon, "katab"), grammar, lexicon)
    r1 = [s for s in succ if s.records[-1].rule_name == "R1"]
    assert r1 and r1[0].records[-1].lex_seg == (("c1", "k", None),)


def test_step_stem_boundary(grammar, lexicon):
    # step() reproduces every record of the analysis, ending with R4 reading
    # the three boundary symbols simultaneously
    a, = _analyses(grammar, lexicon, "katab")
    state = _initial(grammar, lexicon, "katab")
    for rec in a.records:
        succ = step(state, grammar, lexicon)
        state = next(s for s in succ if s.records[-1] == rec)
    assert state.records[-1].rule_name == "R4"
    assert state.records[-1].lex_seg == (("+", "+", "+"),)
    assert state.spliced == () and state.pos == len("katab")


def test_step_optional_deletion(grammar, lexicon):
    state = _initial(grammar, lexicon, "ktb")
    state = next(s for s in step(state, grammar, lexicon)
                 if s.records[-1].rule_name == "R1")
    succ = step(state, grammar, lexicon)
    deletions = [s for s in succ if s.records[-1].rule_name == "R8"]
    assert deletions and deletions[0].records[-1].surf_seg == ()


# ---------------------------------------------------------------------------
# generation


def test_generate_full_vocalised(grammar, lexicon):
    got = generate({"pattern": "M1", "root": "ktb", "vocalism": "a"},
                   grammar, lexicon,
                   skip_rules=optional_deletion_rules(grammar))
    assert [encode(s) for s in got] == ["katab"]


def test_generate_all_orthographies_matches_oracle(grammar, lexicon):
    got = generate({"pattern": "M1", "root": "ktb", "vocalism": "ui"},
                   grammar, lexicon)
    words = {encode(s) for s in got}
    assert {"kutib", "ktb", "kutb", "ktib"} <= words
    pattern = lexicon.entry("pattern", "M1").body
    expected = orthography_set(pattern, ("k", "t", "b"), ("u", "i"))
    assert words == expected


def test_generate_broken_plural(grammar, lexicon):
    got = generate({"pattern": "CuCC", "root": "kdW", "vocalism": "u"},
                   grammar, lexicon,
                   skip_rules=optional_deletion_rules(grammar))
    assert [encode(s) for s in got] == ["kudW"]


def test_generate_unknown_morpheme(grammar, lexicon):
    from semitic_morpho.engine import UnknownMorpheme
    with pytest.raises(UnknownMorpheme):
        generate({"pattern": "M99", "root": "ktb", "vocalism": "a"},
                 grammar, lexicon)


@pytest.mark.parametrize("affix", ["M2", "mdiintA"])
def test_generate_rejects_a_non_affix_as_affix(grammar, lexicon, affix):
    # a stem pattern or a linear word is no prefix or suffix
    from semitic_morpho.engine import UnknownMorpheme
    with pytest.raises(UnknownMorpheme, match=affix):
        generate({"pattern": "M1", "root": "ktb", "vocalism": "ui",
                  "affixes": [affix]}, grammar, lexicon)


@pytest.mark.parametrize("selection", [
    {}, {"pattern": None, "root": None, "vocalism": None, "affixes": []}])
def test_empty_selection_generates_nothing(grammar, lexicon, selection):
    # the empty surface is no word: analyze(()) is [] as well
    assert generate(selection, grammar, lexicon) == []
    assert analyze((), grammar, lexicon) == []


def test_generate_outputs_reanalyze(grammar, lexicon, verb_table):
    for measure, voice, surface in itertools.islice(verb_table.cells(), 8):
        a, = [x for x in _analyses(grammar, lexicon, surface)
              if x.stems][:1] or [None]
        assert a is not None
        sel = {"pattern": a.stems[-1].pattern.id,
               "root": a.stems[-1].root.id,
               "vocalism": a.stems[-1].vocalism.id}
        for out in generate(sel, grammar, lexicon):
            assert any(_stem(x) == (sel["pattern"], sel["root"],
                                    sel["vocalism"])
                       for x in analyze(out, grammar, lexicon))


def test_is_optional_deletion_classification(grammar):
    names = {r.name for r in grammar.rules if is_optional_deletion(r)}
    assert names == optional_deletion_rules(grammar) == {"R7", "R8", "R9"}


# ---------------------------------------------------------------------------
# invariants


def test_partition_soundness(grammar, lexicon, verb_table):
    for measure, voice, surface in verb_table.cells():
        for a in _analyses(grammar, lexicon, surface):
            joined = tuple(s for r in a.records for s in r.surf_seg)
            assert joined == tuple(surface)
            # each tape's lexical symbols spell its committed entries
            for ti, tape in enumerate(TAPES):
                syms = tuple(t[ti] for r in a.records for t in r.lex_seg
                             if t[ti] is not None)
                spelled = tuple(s for e in a.morphemes[tape] for s in e.form)
                assert syms == spelled


def test_round_trip_all_cells(grammar, lexicon, verb_table):
    skip = optional_deletion_rules(grammar)
    for measure, voice, surface in verb_table.cells():
        analyses = _analyses(grammar, lexicon, surface)
        assert analyses, surface
        a = next(x for x in analyses if x.stems)
        sel = {"pattern": a.stems[-1].pattern.id, "root": a.stems[-1].root.id,
               "vocalism": a.stems[-1].vocalism.id}
        out = generate(sel, grammar, lexicon, skip_rules=skip)
        assert tuple(decode(surface)) in out, surface


def test_determinism(grammar, lexicon):
    first = _analyses(grammar, lexicon, "ktb")
    second = _analyses(grammar, lexicon, "ktb")
    assert [a.rule_trace for a in first] == [a.rule_trace for a in second]
    assert [a.records for a in first] == [a.records for a in second]


def test_reference_surface_agrees_with_generation(grammar, lexicon,
                                                  verb_table):
    from semitic_morpho.arabic_data import (ACTIVE_VOCALISM,
                                            PASSIVE_VOCALISM,
                                            measure_pattern_id)
    skip = optional_deletion_rules(grammar)
    for measure, voice, surface in verb_table.cells():
        pattern = lexicon.entry("pattern", measure_pattern_id(measure)).body
        voc_id = ACTIVE_VOCALISM if voice == "act" else PASSIVE_VOCALISM
        voc = lexicon.entry("vocalism", voc_id).body
        root_id = "ktb" if not measure.startswith("Q") else "dHrJ"
        root = lexicon.entry("root", root_id).body
        assert reference_surface(pattern, root, voc) == surface


# ---------------------------------------------------------------------------
# obligatory rules


SYNTH = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
rule O: k - b - *  <=>  * - (a, 0, 0) - *
"""

SYNTH_LEX = "pattern\tka\t\t\npattern\tkb\t\t\npattern\ta\t\t\npattern\tb\t\t\npattern\tk\t\t\n"


def test_check_obligatory_synthetic_violation():
    g = parse_grammar(SYNTH)
    from semitic_morpho.engine import PartitionRecord
    records = (
        PartitionRecord("A", ("k",), (("k", None, None),)),
        PartitionRecord("A", ("a",), (("a", None, None),)),
        PartitionRecord("B", (), (("+", None, None),)),
    )
    violations = check_obligatory(records, g)
    assert violations == [(1, "O")]


def test_check_obligatory_empty_partition(grammar):
    assert check_obligatory((), grammar) == []


def test_check_obligatory_engine_output_clean(grammar, lexicon, verb_table):
    for _, _, surface in verb_table.cells():
        for a in _analyses(grammar, lexicon, surface):
            assert check_obligatory(a.records, grammar,
                                    a.morphemes) == []


def _demoted(grammar):
    """The grammar with every <=> rule weakened to =>."""
    return Grammar([dataclasses.replace(r, op="=>") for r in grammar.rules],
                   grammar.erules, grammar.classes)


def _key(a):
    return a.rule_trace, {t: [e.id for e in es] for t, es in a.morphemes.items()}


def test_online_watch_agrees_with_posthoc_oracle(grammar, lexicon, verb_table):
    # the search prunes <=> violations online; analyzing without obligatory
    # rules and filtering with the post-hoc oracle must give the same
    # analyses in the same order
    demoted = _demoted(grammar)
    assert not demoted.obligatory_rules
    blocked = _analyses(demoted, lexicon, "samaaAiyy")
    assert _analyses(grammar, lexicon, "samaaAiyy") == []
    assert len(blocked) == 4
    assert all(check_obligatory(a.records, grammar, a.morphemes)
               == [(5, "glottal_change")] for a in blocked)

    words = [s for _, _, s in verb_table.cells()] + list(
        NOMINAL_SURFACES + AFFIXED_SURFACES)
    for word in ("samaawiyy", "hawaaAiyy"):
        words += [edit for _, _, edit in damerau_edits(word, sorted(LETTERS))]
    for word in dict.fromkeys(words):
        analyses = _analyses(grammar, lexicon, word)
        weakened = _analyses(demoted, lexicon, word)
        for a in analyses + weakened:
            assert check_licensed(a.records, grammar, a.morphemes) == [], word
        online = [_key(a) for a in analyses]
        posthoc = [_key(a) for a in weakened
                   if not check_obligatory(a.records, grammar, a.morphemes)]
        assert online == posthoc, word


# lexical a surfaces as b before a surface k: the coercion watch of an a:a
# record completes only through its right-surface-context queue
RSC = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
rule O: * - b - k  <=>  * - (a, 0, 0) - *
"""

RSC_LEX = "".join(f"pattern\t{e}\t\t\n" for e in ("a", "ak", "b", "k", "ka"))


def test_right_surface_context_watch_agrees_with_posthoc_oracle():
    g = parse_grammar(RSC)
    lex = load_lexicon(RSC_LEX)
    demoted = _demoted(g)
    rejected = 0
    for n in range(1, 6):
        for word in map("".join, itertools.product("abk", repeat=n)):
            analyses = analyze(decode(word), g, lex)
            online = [_key(a) for a in analyses]
            posthoc = []
            for a in analyze(decode(word), demoted, lex):
                assert check_licensed(a.records, g, a.morphemes) == [], word
                if check_obligatory(a.records, g, a.morphemes):
                    rejected += 1
                else:
                    posthoc.append(_key(a))
            assert online == posthoc, word
            assert all(check_licensed(a.records, g, a.morphemes) == []
                       for a in analyses), word
    # the watch must prune: some analyses violate O only through its
    # right surface context
    assert rejected
    assert analyze(decode("ak"), demoted, lex)
    assert analyze(decode("ak"), g, lex) == []
    assert analyze(decode("bk"), g, lex)


# lexical b surfaces as a before a surface k, by an optional rule whose own
# right surface context is a deferred obligation like any other
RSC_OWN = """\
class ak = {a, k}
rule A: * - X - *  =>  * - X - *  where ak(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
rule R: * - a - k  =>  * - (b, 0, 0) - *
erule D3: X => Y  { * - * }  reap=n
"""

RSC_OWN_LEX = "pattern\tbk\t\t\n"


def test_own_right_surface_context_generates():
    g = parse_grammar(RSC_OWN)
    lex = load_lexicon(RSC_OWN_LEX)
    assert generate({"pattern": "bk"}, g, lex) == [decode("ak")]
    got = analyze(decode("ak"), g, lex)
    assert [a.rule_trace for a in got] == [("R", "A", "B")]
    assert check_licensed(got[0].records, g, got[0].morphemes) == []
    # the context is read from the surface, not assumed
    assert analyze(decode("a"), g, lex) == []


def test_engine_respects_coercion():
    g = parse_grammar(SYNTH)
    lex = load_lexicon(SYNTH_LEX)
    # lexical a after surface k must surface as b: "ka" has no analysis,
    # "kb" analyzes via the coercion rule
    assert analyze(decode("ka"), g, lex) == []
    got = analyze(decode("kb"), g, lex)
    assert any(a.rule_trace == ("A", "O", "B") for a in got)


# ---------------------------------------------------------------------------
# micro-grammar oracle equivalence


MICRO = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
"""


def test_micro_oracle_equivalence():
    g = parse_grammar(MICRO)
    entries = ("a", "ab", "b", "ka")
    lex = load_lexicon("".join(f"pattern\t{e}\t\t\n" for e in entries))
    rules = {
        "A": {"kind": "identity", "letters": set("abk")},
        "B": {"kind": "boundary"},
    }
    for n in range(1, 6):
        for word in itertools.product("ab", repeat=n):
            word = "".join(word)
            got = analyze(decode(word), g, lex)
            engine_set = {
                (tuple(r.rule_name for r in a.records),
                 "".join(t[0] for r in a.records for t in r.lex_seg
                         if t[0] is not None))
                for a in got
            }
            oracle_set = {
                (tuple(name for name, _, _ in trace), tape)
                for trace, tape in oracle_micro_analyze(rules, entries, word)
            }
            assert engine_set == oracle_set, word


def test_micro_oracle_equivalence_with_coercion():
    g = parse_grammar(SYNTH)
    entries = ("ka", "kb", "a", "b", "k")
    lex = load_lexicon(SYNTH_LEX)
    rules = {
        "A": {"kind": "identity", "letters": set("abk")},
        "B": {"kind": "boundary"},
        "O": {"kind": "coerce", "lsc": "k", "lex": "a", "surf": "b",
              "obligatory": True},
    }
    for n in range(1, 5):
        for word in itertools.product("abk", repeat=n):
            word = "".join(word)
            got = analyze(decode(word), g, lex)
            engine_set = {
                (tuple(r.rule_name for r in a.records),
                 "".join(t[0] for r in a.records for t in r.lex_seg
                         if t[0] is not None))
                for a in got
            }
            oracle_set = {
                (tuple(name for name, _, _ in trace), tape)
                for trace, tape in oracle_micro_analyze(rules, entries, word)
            }
            assert engine_set == oracle_set, word


# ---------------------------------------------------------------------------
# failure-table keys of budget-spent states


# the history the states of one search start from
ROOT_HISTORY = History()


def _spent(grammar, lexicon, spliced, **fields):
    fields.setdefault("history", ROOT_HISTORY)
    return dataclasses.replace(analysis_start(grammar, lexicon, ()),
                               spliced=spliced, budget=2, **fields)


CONS = frozenset("ktb")


def test_table_key_ignores_ref_numbering_records_and_error_apps(grammar,
                                                                lexicon):
    a, b = FreeRef(CONS, ("t",)), FreeRef(CONS, ("t",))
    assert a.ref_id != b.ref_id
    first = _spent(grammar, lexicon, (a, "a", a))
    second = _spent(
        grammar, lexicon, (b, "a", b),
        records=(PartitionRecord("E2", (), (), error_origin="E2",
                                 corr=(b,)),))
    assert _table_key(first) == _table_key(second)


def test_table_key_names_the_history_by_its_node(grammar, lexicon):
    # equal content made apart is two nodes; a search interns its nodes
    assert _table_key(_spent(grammar, lexicon, ())) != \
        _table_key(_spent(grammar, lexicon, (), history=History()))


def test_table_key_tells_a_shared_ref_from_two_refs(grammar, lexicon):
    shared = FreeRef(CONS, ())
    one, other = FreeRef(CONS, ()), FreeRef(CONS, ())
    assert _table_key(_spent(grammar, lexicon, (shared, shared))) != \
        _table_key(_spent(grammar, lexicon, (one, other)))

import pytest
from hypothesis import given, strategies as st

from semitic_morpho.alphabet import decode
from semitic_morpho.dsl import parse_grammar, print_grammar
from semitic_morpho.engine import analyze
from semitic_morpho.grammar import (ANY, ELLIPSIS, EPS, WILDCARD,
                                    DuplicateRuleName, Grammar, GrammarError,
                                    Guards, RuleSyntaxError, TwoLevelRule,
                                    UndeclaredClass,
                                    match_context, match_lex,
                                    match_partition_context,
                                    match_record_pattern, rule_vars)
from semitic_morpho.lexicon import load_lexicon

MICRO_HEADER = "class vowel = {a, i, u}\nclass cons = {b, d, k, t}\n"


def test_bundled_counts(grammar):
    assert [r.name for r in grammar.rules] == [
        "R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
        "glottal_change"]
    assert [r.name for r in grammar.erules] == [
        "E0", "E0a", "E1", "E2", "E3", "E4", "D0", "D1", "D2", "D3"]


def test_bundled_aliases(grammar):
    assert grammar.canonical("om_stmv") == "R8"
    assert grammar.canonical("om_sprv") == "R9"
    assert grammar.canonical("om_affv") == "R7"
    assert grammar.same_rule("om_stmv", "R8")


def test_operators(grammar):
    assert grammar.plans["glottal_change"].rule.obligatory
    assert all(not r.obligatory for r in grammar.rules
               if r.name != "glottal_change")
    assert all(not er.reap for er in grammar.erules
               if er.name not in ("E0", "E0a", "E1"))


def test_identity_rule_shorthand_expansion():
    g = parse_grammar(MICRO_HEADER + "rule R0: * - X - * => * - X - *\n")
    rule = g.rules[0]
    assert rule.lex == ((("var", "X"), EPS, EPS),)
    assert rule.surf == (("var", "X"),)
    assert rule.llc == WILDCARD and rule.rlc == WILDCARD


def test_ellipsis_in_rlc_rejected():
    text = MICRO_HEADER + \
        "rule R1: * - X - * => * - X - (b, 0, 0) ...\n"
    with pytest.raises(RuleSyntaxError):
        parse_grammar(text)


@pytest.mark.parametrize("operand", ["zz", "0", "*"])
def test_inequality_operand_is_a_variable_or_symbol(operand):
    text = MICRO_HEADER + \
        f"rule R1: * - X - * => * - X - * where X != {operand}\n"
    with pytest.raises(RuleSyntaxError) as exc:
        parse_grammar(text)
    assert (exc.value.line, exc.value.column) == (3, 44)


def test_inequality_operands_parsed():
    g = parse_grammar(MICRO_HEADER + "rule R1: * - X Y - * => * - X Y - * "
                      "where X != Y, X != +, Y != a\n")
    assert g.rules[0].guards.diseq == (("X", "Y", True), ("X", "+", False),
                                       ("Y", "a", False))


@pytest.mark.parametrize("contexts, column", [
    ("{ * - [*, *, *] ... }", 34),     # an ellipsis in a PRC
    ("{ [*, *, *] * - * }", 30),       # a '*' not alone in a PLC
])
def test_partition_context_errors_have_position(contexts, column):
    text = MICRO_HEADER + f"erule E: X => 0  {contexts}  reap=n\n"
    with pytest.raises(RuleSyntaxError) as exc:
        parse_grammar(text)
    assert (exc.value.line, exc.value.column) == (3, column)


@pytest.mark.parametrize("item", ["0", "(0, 0, 0)"])
def test_record_pattern_lexical_item_cannot_be_empty(item):
    # no record's lexical tuple is empty on every tape, so such an item
    # could match nothing
    text = MICRO_HEADER + f"erule E: X => 0  {{ [*, *, {item}] ... - * }}  " \
        "reap=n\n"
    with pytest.raises(RuleSyntaxError, match="empty on every tape") as exc:
        parse_grammar(text)
    assert exc.value.line == 3


def test_rule_vars_of_both_rule_kinds():
    g = parse_grammar(MICRO_HEADER + (
        "rule R1: L - X - *  =>  (P, 0, 0) ... - (Q, X, 0) - (R, 0, 0)  "
        "where cons(X)\n"
        "erule E: X Y => Z  { [*, U, *] ... - [*, *, (V, 0, 0)] }  reap=n\n"))
    assert rule_vars(g.rules[0]) == {"L", "X", "P", "Q", "R"}
    assert rule_vars(g.erules[0]) == {"X", "Y", "Z", "U", "V"}


def test_undeclared_class():
    with pytest.raises(UndeclaredClass):
        parse_grammar("rule R1: * - X - * => * - X - * where weird(X)\n")


def test_duplicate_rule_name():
    text = MICRO_HEADER + (
        "rule A: * - X - * => * - X - * where cons(X)\n"
        "rule A: * - X - * => * - X - * where vowel(X)\n")
    with pytest.raises(DuplicateRuleName):
        parse_grammar(text)


def test_syntax_error_position():
    with pytest.raises(RuleSyntaxError):
        parse_grammar("rule ! broken\n")


def test_print_parse_roundtrip(grammar):
    printed = print_grammar(grammar)
    again = parse_grammar(printed)
    assert [r.name for r in again.rules] == [r.name for r in grammar.rules]
    for a, b in zip(again.rules, grammar.rules):
        assert (a.surf, a.lex, a.op, a.lsc, a.rsc, a.llc, a.rlc) == \
               (b.surf, b.lex, b.op, b.lsc, b.rsc, b.llc, b.rlc)
        assert a.guards == b.guards
    for a, b in zip(again.erules, grammar.erules):
        assert (a.err, a.corr, a.plc, a.prc, a.reap) == \
               (b.err, b.corr, b.plc, b.prc, b.reap)


def test_print_parse_roundtrip_of_an_intersected_domain():
    # no class equals X's domain {i}, but the two that guard it intersect
    # to it
    text = ("class a1 = {a, i}\nclass a2 = {i, u}\n"
            "rule R: * - X - * => * - (X, 0, 0) - *  where a1(X), a2(X)\n")
    g = parse_grammar(text)
    assert g.rules[0].guards.allowed == {"X": frozenset({"i"})}
    again = parse_grammar(print_grammar(g))
    assert again.classes == g.classes
    assert [(r.name, r.surf, r.lex, r.guards) for r in again.rules] == \
        [(r.name, r.surf, r.lex, r.guards) for r in g.rules]
    assert print_grammar(again) == print_grammar(g)


def test_print_rejects_undeclared_guard_domain():
    # a hand-built grammar can restrict a variable to a set no class names;
    # the printer reports it as a grammar error, which the CLI catches
    rule = TwoLevelRule("R", surf=(("var", "X"),),
                        lex=((("var", "X"), EPS, EPS),),
                        op="=>",
                        guards=Guards(allowed={"X": frozenset({"a", "k"})}))
    g = Grammar([rule], [], {"vowel": frozenset({"a", "i", "u"})})
    with pytest.raises(GrammarError, match="no declared class"):
        print_grammar(g)


# ---------------------------------------------------------------------------
# compiled rules: when left contexts may be matched before the lexical walk


def test_bundled_left_contexts_are_matched_first(grammar):
    assert list(grammar.plans) == [r.name for r in grammar.rules]
    assert all(plan.hoisted for plan in grammar.plans.values())


def test_aligned_guard_must_name_a_tape():
    with pytest.raises(GrammarError):
        parse_grammar(MICRO_HEADER + "rule R1: * - C - * => * - (P, C, 0) - *"
                      "  where cons(C), aligned(P, melody)\n")


# A one-tape micro grammar: A surfaces a letter, B closes a morpheme.
FALLBACK_HEADER = (
    "class lt = {a, b}\n"
    "class av = {a}\n"
    "rule A: * - X - * => * - X - * where lt(X)\n"
    "rule B: * - 0 - * => (B1, 0, 0) - + - * where B1 != +\n")


def _traces(rule_text, entry, word):
    g = parse_grammar(FALLBACK_HEADER + rule_text)
    lexicon = load_lexicon(f"pattern\t{entry}\t\t\n")
    return g, [a.rule_trace for a in analyze(decode(word), g, lexicon)]


def test_left_context_sharing_a_lexical_variable_is_matched_after_walk():
    # S deletes a lexical letter that occurs anywhere earlier. Lexical "aba"
    # against <ab>: A takes a and b, and S deletes the final a, because with
    # X = a bound by the walk the ellipsis group finds the a two tuples back.
    # Matched first, the group would commit to the nearest tuple, bind X = b,
    # and the final a could not be deleted: no analysis at all.
    g, traces = _traces(
        "rule S: * - 0 - * => (X, 0, 0) ... - X - * where lt(X)\n",
        "aba", "ab")
    assert not g.plans["S"].hoisted
    assert traces == [("A", "A", "S", "B")]


def test_left_context_linked_by_inequality_is_matched_after_walk():
    # L deletes a lexical a that follows, somewhere earlier, a letter other
    # than itself. Lexical "baa" against <ba>: either the second a is
    # deleted (the nearest tuple that differs from it is the second-nearest,
    # b) or the first one is (its nearest tuple is b). Matched first, the
    # group would commit to the nearest tuple, bind Y = a for the second a,
    # and keep only the second analysis.
    g, traces = _traces(
        "rule L: * - 0 - * => (Y, 0, 0) ... - X - * where av(X), X != Y\n",
        "baa", "ba")
    assert not g.plans["L"].hoisted
    assert traces == [("A", "A", "L", "B"), ("A", "L", "A", "B")]


def test_surface_variable_linked_to_left_context_is_not_prebound():
    # Q surfaces any X for a lexical Y that repeats the tuple before it,
    # where X differs from the letter Z of the nearest tuple before that.
    # Lexical "babb" against <baba>: at the last b the nearest Z is a, equal
    # to the surface a, so Q fails and nothing analyzes; against <babb> it
    # applies. Bound from the surface head first, X = a would push the group
    # past a to Z = b and analyze <baba>.
    rule = "rule Q: * - X - * => (Z, 0, 0) ... (Y, 0, 0) - Y - * where X != Z\n"
    g, traces = _traces(rule, "babb", "baba")
    assert not g.plans["Q"].hoisted and g.plans["Q"].prebind is None
    assert traces == []
    assert _traces(rule, "babb", "babb")[1] == [("A", "A", "A", "A", "B"),
                                                ("A", "A", "A", "Q", "B")]


# ---------------------------------------------------------------------------
# matching


def _guards(**allowed):
    return Guards(allowed={k: frozenset(v) for k, v in allowed.items()})


def test_match_lex_binds_consonant():
    expr = ((("var", "Pc"), ("var", "C"), EPS),)
    got = match_lex(expr, (("c1", "k", None),), {},
                    _guards(Pc={"c1", "c2"}, C={"k", "t", "b"}))
    assert got == {"Pc": "c1", "C": "k"}


def test_match_lex_binds_vowel():
    expr = ((("var", "Pv"), EPS, ("var", "V")),)
    got = match_lex(expr, (("v1", None, "u"),), {},
                    _guards(Pv={"v1"}, V={"a", "i", "u"}))
    assert got == {"Pv": "v1", "V": "u"}


def test_match_lex_eps_mismatch():
    expr = ((("var", "Pc"), ("var", "C"), EPS),)
    got = match_lex(expr, (("c1", None, "u"),), {},
                    _guards(Pc={"c1"}, C={"k"}))
    assert got is None


def test_guards_excluded_by_inequality():
    guards = Guards(diseq=(("X", "Y", True), ("X", "+", False)))
    assert guards.excluded("X", {"Y": "a"}) == ("a", "+")
    assert guards.excluded("Y", {"X": "b"}) == ("b",)
    assert guards.excluded("X", {}) == ("+",)
    assert guards.excluded("Y", {}) == ()
    assert guards.named() == {"X", "Y"}
    assert not guards.permits("X", "+", {})
    assert guards.permits("Y", "+", {"X": "b"})


def test_match_context_wildcard():
    assert match_context(WILDCARD, [("a", None, None)], {}) == {}


def test_match_context_nearest_anchor():
    # LLC "(v1, 0, V) ..." against two vowel tuples: nearest one wins
    pat = ((("lit", "v1"), EPS, ("var", "V")), ELLIPSIS)
    segment = [("v1", None, "u"), ("c2", "t", None), ("v1", None, "a")]
    got = match_context(pat, segment, {}, _guards(V={"a", "i", "u"}))
    assert got == {"V": "a"}


def test_match_context_flush_without_ellipsis():
    pat = ((("var", "B"), EPS, EPS),)
    segment = [("a", None, None), ("+", None, None)]
    guards = Guards(allowed={"B": frozenset("ab+")},
                    diseq=(("B", "+", False),))
    assert match_context(pat, segment, {}, guards) is None
    assert match_context(pat, segment[:1], {}, guards) == {"B": "a"}


@given(st.lists(st.sampled_from("aiu"), min_size=1, max_size=8))
def test_nearest_match_picks_rightmost(vowels):
    # for a committed-nearest left pattern, the variable binds the rightmost
    # matching tuple
    pat = ((("lit", "v1"), EPS, ("var", "V")), ELLIPSIS)
    segment = [("v1", None, v) for v in vowels]
    got = match_context(pat, segment, {}, _guards(V={"a", "i", "u"}))
    assert got == {"V": vowels[-1]}


class _Rec:
    def __init__(self, rule_name, surf_seg, lex_seg):
        self.rule_name = rule_name
        self.surf_seg = surf_seg
        self.lex_seg = lex_seg


def test_match_partition_context_e0(grammar):
    # E0's PLC: [om_stmv, 0, (*, *, X)] ... against a partition containing
    # an om_stmv record with vocalism u
    e0 = grammar.erules[0]
    records = [
        _Rec("R1", ("d",), (("c1", "d", None),)),
        _Rec("R8", (), (("v1", None, "u"),)),
        _Rec("R1", ("H",), (("c2", "H", None),)),
    ]
    got = match_partition_context(e0.plc, records, {}, e0.guards,
                                  grammar.same_rule)
    assert got == {"X": "u"}


def test_match_partition_context_wildcard_empty(grammar):
    assert match_partition_context(WILDCARD, [], {}, Guards(),
                                   grammar.same_rule) == {}


def test_match_record_pattern_e4_prc_named(grammar):
    # a PRC is fed record by record: E4's one item against the next record
    e4 = grammar.erules[5]
    assert e4.name == "E4"
    rec = _Rec("glottal_change", ("w",), (("c3", "A", None),))
    got = match_record_pattern(e4.prc[0], rec, {}, e4.guards,
                               grammar.same_rule)
    assert got is not None and got["Pc"] == "c3"

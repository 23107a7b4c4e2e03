import pytest

from semitic_morpho import corrector, engine, load_builtin
from semitic_morpho.alphabet import LETTERS, decode, encode
from semitic_morpho.corrector import (correct, iter_corrections, rank_key,
                                      try_error_rules)
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (FreeRef, _SearchContext, _search,
                                   analysis_start, analyze, apply_rule)
from semitic_morpho.lexicon import load_lexicon

from oracles import damerau_edits, reference_search
from steps import ground_variable, step
from test_engine import RSC_OWN, RSC_OWN_LEX
from test_order_contract import ERROR_EXAMPLES


def _correct(grammar, lexicon, word, **kw):
    return correct(decode(word), grammar, lexicon, **kw)


def _words(cands):
    return [encode(c.corrected_word) for c in cands]


def test_vowel_shift_dHruJi(grammar, lexicon):
    cands = _correct(grammar, lexicon, "dHruJi")
    assert _words(cands)[0] == "duHriJ"
    top = cands[0]
    rules = [r for r, p, e, c in top.error_trace]
    assert rules == ["E0", "E0"]
    stem = top.analyses[0].stems[-1]
    assert (stem.pattern.id, stem.vocalism.id) == ("Q1", "ui")


def test_vowel_shift_wkatubi(grammar, lexicon):
    cands = _correct(grammar, lexicon, "wkatubi")
    assert "wakutib" in _words(cands)
    top = next(c for c in cands if encode(c.corrected_word) == "wakutib")
    names = {r for r, p, e, c in top.error_trace}
    assert names <= {"E0", "E0a", "E1"}


def test_deleted_consonant_and_long_vowel(grammar, lexicon):
    cands = _correct(grammar, lexicon, "tuktib")
    words = _words(cands)
    assert words[:2] == ["tukuttib", "tukuutib"]
    first, second = cands[0], cands[1]
    assert first.error_trace[0][0] == "E2"
    assert second.error_trace[0][0] == "E3"
    assert any(a.stems[-1].pattern.id == "M5" for a in first.analyses)
    assert any(a.stems[-1].pattern.id == "M6" for a in second.analyses)


def test_glottal_idiosyncrasy(grammar, lexicon):
    cands = _correct(grammar, lexicon, "samaaAiyy")
    assert "samaawiyy" in _words(cands)
    cand = next(c for c in cands if encode(c.corrected_word) == "samaawiyy")
    assert any(r == "E4" for r, p, e, c in cand.error_trace)
    # the contrast pair analyzes without correction
    assert analyze(decode("hawaaAiyy"), grammar, lexicon)
    got = _correct(grammar, lexicon, "hawaaAiyy")
    assert len(got) == 1 and got[0].zero_error


def test_syncopation(grammar, lexicon):
    cands = _correct(grammar, lexicon, "mdiitA")
    assert "mdiintA" in _words(cands)
    cand = next(c for c in cands if encode(c.corrected_word) == "mdiintA")
    rule, pos, err, corr = cand.error_trace[0]
    assert rule == "E2" and err == () and corr == ("n",)


def test_analyzable_word_returns_itself(grammar, lexicon):
    cands = _correct(grammar, lexicon, "katab")
    assert len(cands) == 1
    assert cands[0].zero_error
    assert encode(cands[0].corrected_word) == "katab"


def test_uncorrectable_returns_empty(grammar, lexicon):
    assert _correct(grammar, lexicon, "qqqqqqqq") == []


def test_spread_shift_uses_e1(grammar, lexicon):
    # tadaHraJ with its first spread vowel shifted right one consonant
    cands = _correct(grammar, lexicon, "tadHaraJ")
    hit = next(c for c in cands if encode(c.corrected_word) == "tadaHraJ")
    assert any(r == "E1" for r, p, e, c in hit.error_trace)


def test_candidate_soundness(grammar, lexicon):
    for word in ("dHruJi", "tuktib", "mdiitA", "wkatubi"):
        for cand in _correct(grammar, lexicon, word):
            assert cand.analyses
            fresh = analyze(cand.corrected_word, grammar, lexicon)
            assert [a.records for a in fresh] == \
                   [a.records for a in cand.analyses]


def test_budget_no_mixed_rules(grammar, lexicon):
    reap = {r.name for r in grammar.erules if r.reap}
    for word in ("dHruJi", "tuktib", "wkatubi", "samaaAiyy", "ktba"):
        for cand in _correct(grammar, lexicon, word):
            names = [r for r, p, e, c in cand.error_trace]
            assert (all(n in reap for n in names) or
                    (len(names) == 1 and names[0] not in reap))


def test_reap_chain_counts_as_one_event(grammar, lexicon):
    cands = _correct(grammar, lexicon, "dHruJi")
    top = cands[0]
    assert len(top.error_trace) == 2
    assert top.rank_key[0] == 1


def test_rank_zero_error_first(grammar, lexicon):
    key0 = rank_key(grammar, (), tuple("katab"))
    key1 = rank_key(grammar, (("E2", 3, (), ("t",)),), tuple("katab"))
    assert key0 < key1


def test_rank_is_total_and_stable(grammar, lexicon):
    cands = _correct(grammar, lexicon, "tuktib")
    assert sorted(reversed(cands), key=lambda c: c.rank_key) == cands


def test_max_candidates_cap(grammar, lexicon):
    cands = _correct(grammar, lexicon, "tuktib", max_candidates=1)
    assert len(cands) == 1


@pytest.mark.parametrize("word", ERROR_EXAMPLES + ("shamaawiyy", "washum"))
def test_bounded_correct_is_the_ranked_prefix(grammar, lexicon, word):
    # correct(k) holds the k best candidates, not the first k reached
    full = _full(_correct(grammar, lexicon, word, max_candidates=None))
    for k in range(1, 6):
        got = _full(_correct(grammar, lexicon, word, max_candidates=k))
        assert got == full[:k], (word, k)


def test_max_positions_window(grammar, lexicon):
    # with a tight window, errors at the very start of the word are skipped
    full = _words(_correct(grammar, lexicon, "tuktib"))
    tight = _words(_correct(grammar, lexicon, "tuktib", max_positions=2))
    assert "stuktib" in full
    assert "stuktib" not in tight
    assert "tukuttib" in tight


@pytest.mark.parametrize("bound", ["max_candidates", "max_positions"])
@pytest.mark.parametrize("value", [0, -3])
def test_correct_rejects_bounds_below_one(grammar, lexicon, bound, value):
    with pytest.raises(ValueError, match=bound):
        _correct(grammar, lexicon, "katbb", **{bound: value})


@pytest.mark.parametrize("value", [0, -2])
def test_iter_corrections_rejects_max_positions_below_one(grammar, lexicon,
                                                          value):
    with pytest.raises(ValueError, match="max_positions"):
        list(iter_corrections(decode("katbb"), grammar, lexicon,
                              max_positions=value))


def test_iter_corrections_lazy_membership(grammar, lexicon):
    target = decode("takaatab")
    for cand in iter_corrections(decode("takaata"), grammar, lexicon):
        if cand.corrected_word == target:
            break
    else:
        pytest.fail("takaatab not reachable")


# ---------------------------------------------------------------------------
# the error search's failure table against the untabled reference search

# two DEFAULT_SWEEP words, every single Damerau edit of each
TABLE_SWEEP_WORDS = ("mdiintA", "Aashum")


def _full(cands):
    return [(c.corrected_word, c.error_trace, c.rank_key,
             [(a.rule_trace, {t: [e.id for e in es]
                              for t, es in a.morphemes.items()})
              for a in c.analyses])
            for c in cands]


def _traced_correct(monkeypatch, search, grammar, lexicon, word,
                    max_positions):
    """correct() run with `search` as the error search; returns its full
    output and the number of apply_rule calls."""
    calls = []

    def counted(ctx, state, rule):
        calls.append(None)
        return apply_rule(ctx, state, rule)

    monkeypatch.setattr(corrector, "_search", search)
    monkeypatch.setattr(engine, "apply_rule", counted)
    got = _full(correct(decode(word), grammar, lexicon,
                        max_positions=max_positions))
    return got, len(calls)


# the words whose apply_rule calls are compared across two runs
COUNTED_WORDS = ("katbb", "samaaAiyy")


def _pairs(grammar, lexicon, fresh):
    """A (grammar, lexicon) pair for each of two runs: fresh ones when their
    apply_rule calls are compared, since the step memo keeps the first
    run's regenerations and verifications for the second."""
    if fresh:
        return load_builtin()[:2], load_builtin()[:2]
    return (grammar, lexicon), (grammar, lexicon)


def test_failure_table_matches_reference_search(grammar, lexicon,
                                                monkeypatch):
    words = list(ERROR_EXAMPLES)
    for source in TABLE_SWEEP_WORDS:
        words += [edit for _, _, edit in damerau_edits(source,
                                                       sorted(LETTERS))]
    calls = {}
    outputs = {}
    for max_positions in (None, 1, 2):
        for word in words:
            mine, theirs = _pairs(grammar, lexicon, max_positions is None
                                  and word in COUNTED_WORDS)
            tabled, n_tabled = _traced_correct(monkeypatch, _search, *mine,
                                               word, max_positions)
            plain, n_plain = _traced_correct(monkeypatch, reference_search,
                                             *theirs, word, max_positions)
            assert tabled == plain, (word, max_positions)
            calls[word, max_positions] = n_tabled, n_plain
            outputs[word, max_positions] = tabled
    # a position window keeps a prefix of the ranked candidates
    for (word, max_positions), got in outputs.items():
        assert got == outputs[word, None][:len(got)], (word, max_positions)
    # the table and the lookaheads skip subtrees that yield nothing, so
    # fewer rules are tried
    for word in COUNTED_WORDS:
        n_tabled, n_plain = calls[word, None]
        assert n_tabled < n_plain, word


def test_failure_table_alone_tries_fewer_rules(grammar, lexicon, monkeypatch):
    # a key that never repeats turns the table off and leaves the lookaheads
    # on, so the difference in rules tried is the table's alone
    for word in COUNTED_WORDS:
        mine, theirs = _pairs(grammar, lexicon, True)
        tabled, n_tabled = _traced_correct(monkeypatch, _search, *mine, word,
                                           None)
        with monkeypatch.context() as m:
            m.setattr(engine, "_table_key", lambda state: object())
            untabled, n_untabled = _traced_correct(monkeypatch, _search,
                                                   *theirs, word, None)
        assert tabled == untabled, word
        assert n_tabled < n_untabled, word


# ---------------------------------------------------------------------------
# grounding


def _state_after(grammar, lexicon, word, prefix_rules):
    ctx = _SearchContext(grammar, lexicon)
    state = analysis_start(grammar, lexicon, decode(word))
    for rule_name, lex in prefix_rules:
        succ = step(state, grammar, lexicon, ctx)
        state = next(s for s in succ
                     if s.records[-1].rule_name == rule_name and
                     (lex is None or s.records[-1].lex_seg[0] == lex))
    return ctx, state


def _viable(ctx, grammar, grounded):
    """Grounded symbols whose continuation completes an analysis."""
    out = set()
    for sym, succ in grounded:
        if any(True for _ in _search(ctx, [succ])):
            out.add(sym)
    return out


def test_ground_variable_geminate(grammar, lexicon):
    # E2's variable inside tuk|tib grounds to t only (spreading rule)
    ctx, state = _state_after(grammar, lexicon, "tuktib",
                              [("R0", ("t", None, None)),
                               ("R2", ("v1", None, "u")),
                               ("R1", ("c1", "k", None)),
                               ("R9", ("v1", None, None)),
                               ("R1", ("c2", "t", None))])
    e2 = [s for s in try_error_rules(ctx, state)
          if s.records[-1].rule_name == "E2"]
    assert e2
    grounded = ground_variable(e2[0], grammar, lexicon)
    assert "t" in {sym for sym, _ in grounded}
    assert _viable(ctx, grammar, grounded) == {"t"}


def test_ground_variable_long_vowel(grammar, lexicon):
    # E3's variable inside tuk|tib grounds to u only (spread of v1=u)
    ctx, state = _state_after(grammar, lexicon, "tuktib",
                              [("R0", ("t", None, None)),
                               ("R2", ("v1", None, "u")),
                               ("R1", ("c1", "k", None))])
    e3 = [s for s in try_error_rules(ctx, state)
          if s.records[-1].rule_name == "E3"]
    assert e3
    grounded = ground_variable(e3[0], grammar, lexicon)
    assert {sym for sym, _ in grounded} == {"u"}


def test_ground_variable_empty_intersection(grammar, lexicon, monkeypatch):
    # E2 carries a consonant guard; where only vowels could surface next,
    # grounding offers no vowel symbols. No analysis lies past this E2, so
    # the surface-fit lookahead would cut it where it is made: the
    # grounding is checked without the lookahead
    monkeypatch.setattr(engine, "_surface_fits", lambda ctx, *args: True)
    ctx, state = _state_after(grammar, lexicon, "dHnraJ",
                              [("R1", ("c1", "d", None)),
                               ("R1", ("c2", "H", None))])
    e2 = [s for s in try_error_rules(ctx, state)
          if s.records[-1].rule_name == "E2"]
    assert e2
    grounded = ground_variable(e2[0], grammar, lexicon)
    assert all(sym not in "aiu" for sym, _ in grounded)


def test_grounding_splices_every_occurrence(grammar, lexicon):
    # E3's 0 => X X shares one free variable between two slots: grounding
    # the first splices the symbol into the second, and no state keeps a
    # grounded FreeRef in its spliced surface
    ctx, state = _state_after(grammar, lexicon, "tuktib",
                              [("R0", ("t", None, None)),
                               ("R2", ("v1", None, "u")),
                               ("R1", ("c1", "k", None))])
    e3 = next(s for s in try_error_rules(ctx, state)
              if s.records[-1].rule_name == "E3")
    ref = e3.spliced[0]
    assert isinstance(ref, FreeRef) and e3.spliced[:2] == (ref, ref)
    grounded = ground_variable(e3, grammar, lexicon)
    assert grounded
    for sym, succ in grounded:
        assert sym == "u"
        assert succ.spliced[0] == "u"
    frontier = [e3]
    for _ in range(3):
        frontier = [s for st in frontier
                    for s in step(st, grammar, lexicon, ctx)]
        assert frontier
        for s in frontier:
            done = dict(s.free_vars)
            assert not [it for it in s.spliced if isinstance(it, FreeRef)
                        and it.ref_id in done]


def test_budget_spent_blocks_error_rules(grammar, lexicon):
    ctx, state = _state_after(grammar, lexicon, "tuktib",
                              [("R0", ("t", None, None)),
                               ("R2", ("v1", None, "u")),
                               ("R1", ("c1", "k", None))])
    e3 = [s for s in try_error_rules(ctx, state)
          if s.records[-1].rule_name == "E3"][0]
    assert e3.budget == 2
    assert try_error_rules(ctx, e3) == []


def test_reap_budget_allows_same_family(grammar, lexicon):
    ctx, state = _state_after(grammar, lexicon, "dHruJi",
                              [("R1", ("c1", "d", None)),
                               ("R8", ("v1", None, "u")),
                               ("R1", ("c2", "H", None)),
                               ("R1", ("c3", "r", None))])
    e0 = [s for s in try_error_rules(ctx, state)
          if s.records[-1].rule_name == "E0"]
    assert e0 and e0[0].budget == 1
    again = try_error_rules(ctx, e0[0])
    assert all(s.records[-1].rule_name in ("E0", "E0a", "E1")
               for s in again)


# ---------------------------------------------------------------------------
# partition right contexts of error rules

# P deletes an a; its PRC names the reap error rule Q, which deletes a b
PRC = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
erule P: a => 0  { * - [Q, 0, *] }  reap=y
erule Q: b => 0  { * - * }  reap=y
"""


def test_error_rule_prc_constrains_the_next_error_record():
    g = parse_grammar(PRC)
    lex = load_lexicon("pattern\tk\t\t\n")

    def found(word):
        return [(encode(c.corrected_word), [(r, p) for r, p, _, _ in
                                            c.error_trace])
                for c in correct(decode(word), g, lex)]

    # the record after P is a Q record: accepted
    assert found("abk") == [("k", [("P", 0), ("Q", 1)])]
    assert found("abbk") == [("k", [("P", 0), ("Q", 1), ("Q", 2)])]
    # the record after P is another P record, or an ordinary one: rejected
    assert found("aabk") == []
    assert found("ak") == []
    assert found("bk") == [("k", [("Q", 0)])]


def test_two_item_prc_needs_two_following_error_records():
    g = parse_grammar(PRC.replace("{ * - [Q, 0, *] }",
                                  "{ * - [Q, 0, *] [Q, 0, *] }"))
    lex = load_lexicon("pattern\tk\n")

    def found(word):
        return [(encode(c.corrected_word),
                 [f"{r}@{p}" for r, p, _, _ in c.error_trace])
                for c in correct(decode(word), g, lex)]

    assert found("abbk") == [("k", ["P@0", "Q@1", "Q@2"])]
    assert found("abbbk") == [("k", ["P@0", "Q@1", "Q@2", "Q@3"])]
    # the PRC is met by the last records of the word
    assert found("kabb") == [("k", ["P@1", "Q@2", "Q@3"])]
    # one Q record, the word ending with the PRC unmet, or a P record
    # where a Q record is due: rejected
    assert found("abk") == []
    assert found("kab") == []
    assert found("aabbk") == []


def test_right_surface_context_reads_the_corrected_surface():
    # R's surface context k is met by the symbol D3 splices after it, and
    # regenerating the correction runs R in generation
    g = parse_grammar(RSC_OWN)
    lex = load_lexicon(RSC_OWN_LEX)

    def found(word):
        return [(encode(c.corrected_word), [
            f"{r}@{p} {encode(e)}->{encode(c_)}" for r, p, e, c_ in
            c.error_trace]) for c in correct(decode(word), g, lex)]

    assert found("ab") == [("ak", ["D3@1 b->k"])]
    assert found("kk") == [("ak", ["D3@0 k->a"])]


# ---------------------------------------------------------------------------
# the spliced surface: what error rules read of it, and where records sit

# P splices the b that Q reads: a reap chain through a spliced symbol
SPLICED = """\
class lt = {a, b, c, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
erule P: a => b  { * - * }  reap=y
erule Q: b => c  { * - * }  reap=y
"""


def _error_paths(g, lex, word):
    return [(encode(c.corrected_word), [
        f"{r}@{p} {encode(e)}->{encode(c_)}" for r, p, e, c_ in
        c.error_trace]) for c in correct(decode(word), g, lex)]


def test_reap_chain_reads_a_spliced_symbol_at_input_positions():
    # Q's record sits after the a that P consumed: positions count input
    # symbols, not the spliced b that Q reads
    g = parse_grammar(SPLICED)
    ck = load_lexicon("pattern\tck\n")
    assert _error_paths(g, ck, "ak") == [("ck", ["P@0 a->b", "Q@1 b->c"])]
    assert _error_paths(g, ck, "bk") == [("ck", ["Q@0 b->c"])]
    kc = load_lexicon("pattern\tkc\n")
    assert _error_paths(g, kc, "ka") == [("kc", ["P@1 a->b", "Q@2 b->c"])]


def test_no_error_rule_reads_an_ungrounded_free_variable():
    # F splices a free variable; Q, which its reap budget allows, cannot
    # read it before an ordinary rule grounds it through the lexicon
    g = parse_grammar(SPLICED.replace(
        "erule P: a => b  { * - * }  reap=y",
        "erule F: a => X  { * - * }  reap=y  where lt(X)"))
    lex = load_lexicon("pattern\tck\n")
    ctx = _SearchContext(g, lex)
    after = try_error_rules(ctx, analysis_start(g, lex, decode("ak")))
    assert [s.records[-1].rule_name for s in after] == ["F"]
    assert try_error_rules(ctx, after[0]) == []
    assert _error_paths(g, lex, "ak") == [("ck", ["F@0 a->c"])]

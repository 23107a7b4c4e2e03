"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
SEMITIC_FULL=1 widens the Damerau sweep (criterion 9a) from the default
representative word set to every generable fully vocalised word.
"""

import itertools
import os

import pytest

from semitic_morpho.alphabet import LETTERS, decode, encode
from semitic_morpho.arabic_data import (ACTIVE_VOCALISM, PASSIVE_VOCALISM,
                                        measure_pattern_id, verify_table)
from semitic_morpho.corrector import correct, iter_corrections
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import analyze, generate, optional_deletion_rules
from semitic_morpho.features import restrict, unify, unify_all
from semitic_morpho.lexicon import load_lexicon
from semitic_morpho.morphosyntax import FeatureClash, parse_word, repair_clash

from oracles import damerau_edits, oracle_micro_analyze, orthography_set


def _report(ident, description, ok):
    print(f"ACCEPTANCE {ident}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {ident}: {description}"


def _stem(a):
    return (a.stems[-1].pattern.id, a.stems[-1].vocalism.id) if a.stems \
        else None


# --------------------------------------------------------------------------
# 1. verb table


def test_criterion_1_verb_table(grammar, lexicon, verb_table):
    failures = verify_table(grammar, lexicon, verb_table)
    total = sum(1 for _ in verb_table.cells())
    _report(1, f"all {total} verbal-stem surfaces analyze to their "
               f"measure and voice ({len(failures)} failures)",
            not failures)


# --------------------------------------------------------------------------
# 2. consonantal ambiguity with enumeration oracle


def test_criterion_2_ktb_ambiguity(grammar, lexicon):
    got = {_stem(a) for a in analyze(decode("ktb"), grammar, lexicon)}

    # independent oracle: enumerate measure x vocalism, build every
    # orthography by string-walking the lexicon data, keep combinations
    # whose orthography set contains <ktb>
    root = lexicon.entry("root", "ktb")
    soft = lexicon.soft_attrs
    oracle = set()
    for entry in lexicon.entries("pattern"):
        if not entry.id.startswith(("M", "Q")) or entry.kind:
            continue
        for voc_id in (ACTIVE_VOCALISM, PASSIVE_VOCALISM):
            voc = lexicon.entry("vocalism", voc_id)
            if unify_all(restrict(entry.features, soft),
                         restrict(root.features, soft),
                         restrict(voc.features, soft)) is None:
                continue
            if "ktb" in orthography_set(entry.body, root.body, voc.body):
                oracle.add((entry.id, voc_id))
    ok = got == {("M1", "a"), ("M1", "ui")} and \
        {(p, v) for p, v in got} == oracle and len(
            analyze(decode("ktb"), grammar, lexicon)) == 2
    _report(2, f"<ktb> analyses {sorted(got)} equal the enumeration "
               f"oracle {sorted(oracle)}", ok)


# --------------------------------------------------------------------------
# 3. derivation traces


def test_criterion_3_traces(grammar, lexicon):
    got = analyze(decode("dHunriJa"), grammar, lexicon)
    trace_ok = len(got) == 1 and got[0].rule_trace == (
        "R1", "R1", "R2", "R0", "R1", "R2", "R1", "R4", "R0", "R3")
    kuttib = analyze(decode("kuttib"), grammar, lexicon)
    decomposition_ok = len(kuttib) == 1 and \
        _stem(kuttib[0]) == ("M2", "ui") and \
        kuttib[0].stems[-1].root.id == "ktb"
    _report(3, "dHunriJa reproduces the 1,1,2,0,1,2,1,4,0,3 trace and "
               "kuttib the pattern/root/vocalism decomposition",
            trace_ok and decomposition_ok)


# --------------------------------------------------------------------------
# 4. vowel shift


def test_criterion_4_vowel_shift(grammar, lexicon):
    cands = correct(decode("dHruJi"), grammar, lexicon)
    top = cands[0] if cands else None
    reap = {r.name for r in grammar.erules if r.reap}
    top_ok = top is not None and encode(top.corrected_word) == "duHriJ" and \
        len(top.error_trace) == 2 and \
        all(r == "E0" for r, p, e, c in top.error_trace)
    wk = correct(decode("wkatubi"), grammar, lexicon)
    wk_words = [encode(c.corrected_word) for c in wk]
    wk_ok = "wakutib" in wk_words and all(
        r in reap for c in wk if encode(c.corrected_word) == "wakutib"
        for r, p, e, co in c.error_trace)
    _report(4, "dHruJi tops out at duHriJ via a single E0 reap chain; "
               "wkatubi includes wakutib", top_ok and wk_ok)


# --------------------------------------------------------------------------
# 5. deleted consonant / long vowel


def test_criterion_5_tuktib(grammar, lexicon):
    cands = correct(decode("tuktib"), grammar, lexicon)
    words = [encode(c.corrected_word) for c in cands]
    ok = words[:2] == ["tukuttib", "tukuutib"]
    if ok:
        first, second = cands[0], cands[1]
        ok = first.error_trace[0][0] == "E2" and \
            second.error_trace[0][0] == "E3" and \
            any(a.stems[-1].pattern.id == "M5" for a in first.analyses) and \
            any(a.stems[-1].pattern.id == "M6" for a in second.analyses)
    _report(5, "tuktib corrects to exactly tukuttib (M5, E2) then "
               "tukuutib (M6, E3) under the shipped rule order", ok)


# --------------------------------------------------------------------------
# 6. glottal idiosyncrasy


def test_criterion_6_glottal(grammar, lexicon):
    cands = correct(decode("samaaAiyy"), grammar, lexicon)
    words = [encode(c.corrected_word) for c in cands]
    with_corr = "samaawiyy" in words
    contrast = analyze(decode("hawaaAiyy"), grammar, lexicon)
    plain = correct(decode("hawaaAiyy"), grammar, lexicon)
    without_corr = bool(contrast) and len(plain) == 1 and plain[0].zero_error
    _report(6, "samaaAiyy corrects to samaawiyy; hawaaAiyy analyzes "
               "without correction", with_corr and without_corr)


# --------------------------------------------------------------------------
# 7. syncopation


def test_criterion_7_syncopation(grammar, lexicon):
    cands = correct(decode("mdiitA"), grammar, lexicon)
    words = [encode(c.corrected_word) for c in cands]
    _report(7, "mdiitA corrects to mdiintA", "mdiintA" in words)


# --------------------------------------------------------------------------
# 8. broken plural repair


def _repairs(grammar, lexicon, word):
    out = []
    for a in analyze(decode(word), grammar, lexicon):
        parsed = parse_word(a, lexicon)
        if isinstance(parsed, FeatureClash) and parsed.attribute == "bp_pattern":
            repaired = [encode(s)
                        for s in repair_clash(parsed, grammar, lexicon)]
            out.append((parsed.root_id, repaired))
    return out


def test_criterion_8_broken_plurals(grammar, lexicon):
    kidaaW = _repairs(grammar, lexicon, "kidaaW")
    kidaaW_ok = [r for _, r in kidaaW] == [["kudW"]]
    kaafil_row_ok = True
    # *kufalaaA misused for kaafil: the kaafil reading repairs to kuffal
    for root_id, repaired in _repairs(grammar, lexicon, "kufalaaA"):
        if root_id == "kfl_kaafil":
            kaafil_row_ok &= repaired == ["kuffal"]
    # *kuffaal: each root reading repairs to its own sound plural
    expectations = {"kfl_kaafil": ["kuffal"], "kfl_kafiil": ["kufalaaA"]}
    got = dict(_repairs(grammar, lexicon, "kuffaal"))
    kaafil_row_ok &= got == expectations
    sahm_ok = all(repaired == ["suhuum", "Aashum"]
                  for _, repaired in _repairs(grammar, lexicon, "Aashaam"))
    sahm_ok &= bool(_repairs(grammar, lexicon, "Aashaam"))
    _report(8, "kidaaW repairs to exactly kudW; kaafil and sahm rows "
               "return exactly the unstarred plurals",
            kidaaW_ok and kaafil_row_ok and sahm_ok)


# --------------------------------------------------------------------------
# 9a. Damerau completeness


NOMINAL_SURFACES = ("kudW", "kuffal", "kufalaaA", "suhuum", "Aashum",
                    "kadiW", "kaafil", "kafiil", "sahm", "samaaA", "hawaaA")
AFFIXED_SURFACES = ("dHunriJa", "samaawiyy", "hawaaAiyy", "wakutib",
                    "mdiintA")
DEFAULT_SWEEP = ("katab", "kuttib", "kaatab", "Aaktab", "tukuttib",
                 "ktanbay", "staktab", "duHriJ", "kudW", "Aashum",
                 "mdiintA", "wakutib")


def _generable_words(verb_table):
    words = [s for _, _, s in
             ((m, v, s) for m, v, s in verb_table.cells())]
    return tuple(words) + NOMINAL_SURFACES + AFFIXED_SURFACES


def test_criterion_9a_damerau_roundtrip(grammar, lexicon, verb_table):
    full = os.environ.get("SEMITIC_FULL") == "1"
    words = _generable_words(verb_table) if full else DEFAULT_SWEEP
    alphabet = sorted(LETTERS)
    missed = []
    checked = 0
    for word in words:
        assert analyze(decode(word), grammar, lexicon), word
        target = tuple(decode(word))
        for kind, pos, edited in damerau_edits(word, alphabet):
            if analyze(decode(edited), grammar, lexicon):
                continue
            checked += 1
            for cand in iter_corrections(decode(edited), grammar, lexicon):
                if cand.corrected_word == target:
                    break
            else:
                missed.append((word, kind, pos, edited))
    scope = "all generable words" if full else f"{len(words)} representative words"
    _report("9a", f"Damerau round-trip over {scope}: {checked} unanalyzable "
                  f"edits, {len(missed)} missed {missed[:5]}", not missed)


# --------------------------------------------------------------------------
# 9b. analyze/generate round trip


def test_criterion_9b_roundtrip(grammar, lexicon, verb_table):
    skip = optional_deletion_rules(grammar)
    bad = []
    for measure, voice, surface in verb_table.cells():
        analyses = analyze(decode(surface), grammar, lexicon)
        if not analyses:
            bad.append(surface)
            continue
        a = next(x for x in analyses if x.stems)
        sel = {"pattern": a.stems[-1].pattern.id,
               "root": a.stems[-1].root.id,
               "vocalism": a.stems[-1].vocalism.id}
        if tuple(decode(surface)) not in generate(sel, grammar, lexicon,
                                                  skip_rules=skip):
            bad.append(surface)
    _report("9b", f"analyze/generate round-trip on all table cells "
                  f"({len(bad)} failures)", not bad)


# --------------------------------------------------------------------------
# 9c. engine equivalence with a brute-force oracle on micro-grammars


MICRO = """\
class lt = {a, b, k}
rule A: * - X - *  =>  * - X - *  where lt(X)
rule B: * - 0 - *  =>  (B1, 0, 0) - + - *  where B1 != +
"""
COERCE = MICRO + "rule O: k - b - *  <=>  * - (a, 0, 0) - *\n"


def test_criterion_9c_micro_oracle(grammar):
    entries = ("a", "ab", "b", "ka")
    lex = load_lexicon("".join(f"pattern\t{e}\t\t\n" for e in entries))
    cases = [
        (parse_grammar(MICRO),
         {"A": {"kind": "identity", "letters": set("abk")},
          "B": {"kind": "boundary"}}),
        (parse_grammar(COERCE),
         {"A": {"kind": "identity", "letters": set("abk")},
          "B": {"kind": "boundary"},
          "O": {"kind": "coerce", "lsc": "k", "lex": "a", "surf": "b",
                "obligatory": True}}),
    ]
    mismatches = 0
    for g, rules in cases:
        for n in range(1, 6):
            for word in map("".join, itertools.product("ab", repeat=n)):
                engine_set = {
                    (tuple(r.rule_name for r in a.records),
                     "".join(t[0] for r in a.records for t in r.lex_seg
                             if t[0] is not None))
                    for a in analyze(decode(word), g, lex)
                }
                oracle_set = {
                    (tuple(name for name, _, _ in trace), tape)
                    for trace, tape in oracle_micro_analyze(rules, entries,
                                                            word)
                }
                mismatches += engine_set != oracle_set
    _report("9c", f"engine agrees with the brute-force partition oracle "
                  f"on micro-grammars ({mismatches} mismatches)",
            mismatches == 0)


# --------------------------------------------------------------------------
# 9d. unification algebra


def test_criterion_9d_unify_laws():
    domain = [{}, {"x": ("1",)}, {"x": ("1", "2")}, {"x": ("2",)},
              {"y": ("1",)}, {"x": ("1",), "y": ("2", "3")}]

    def norm(fs):
        return None if fs is None else \
            {k: frozenset(v) for k, v in fs.items()}

    ok = True
    for f1, f2 in itertools.product(domain, repeat=2):
        ok &= norm(unify(f1, f2)) == norm(unify(f2, f1))
        ok &= norm(unify(f1, f1)) == norm(f1)
    for f1, f2, f3 in itertools.product(domain, repeat=3):
        left = unify(f1, f2)
        right = unify(f2, f3)
        a = unify(left, f3) if left is not None else None
        b = unify(f1, right) if right is not None else None
        ok &= norm(a) == norm(b)
    _report("9d", "unification is commutative, associative and idempotent",
            ok)


# --------------------------------------------------------------------------
# 9e. budget invariant


def test_criterion_9e_budget(grammar, lexicon):
    reap = {r.name for r in grammar.erules if r.reap}
    bad = []
    for word in ("dHruJi", "wkatubi", "tuktib", "samaaAiyy", "mdiitA",
                 "tadHaraJ", "ktb" + "a" * 0):
        for cand in correct(decode(word), grammar, lexicon):
            names = [r for r, p, e, c in cand.error_trace]
            if not names:
                continue
            if all(n in reap for n in names):
                continue
            if len(names) == 1:
                continue
            bad.append((word, names))
    _report("9e", f"no candidate mixes two distinct error rules "
                  f"({len(bad)} violations)", not bad)

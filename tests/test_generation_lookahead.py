"""The alignment lookahead: a search over scripted tapes does not make a
state whose current entry on an aligned tape has an unread non-boundary
position that no symbol its serving tape has still to read indexes
(engine._slots_reach, _aligned_tapes, StepMemo.aligned, StepMemo.slots).

The lookahead must change no output of generation, must read the premise
off what the rule walk checks, never off symbol names, and must not apply
to a grammar with no aligned tape.
"""

import pytest

from semitic_morpho import engine, load_builtin, morphosyntax
from semitic_morpho.alphabet import decode, encode
from semitic_morpho.dsl import parse_grammar
from semitic_morpho.engine import (PATTERN, ROOT, VOCALISM, generate,
                                   optional_deletion_rules, step_memo)
from semitic_morpho.lexicon import load_lexicon

from steps import successors_made
from workloads import AFFIXED, NOMINAL, REPAIR_WORDS, VERB_TABLE, \
    table_selection


def _no_lookahead(monkeypatch):
    monkeypatch.setattr(engine, "_slots_reach", lambda ctx, tapes: True)


def _selections(lexicon):
    """(pattern, root, vocalism, affixes) of every table, nominal and
    affixed selection, and of every stem pattern over ktb and dHrJ with
    ui."""
    out = [(*table_selection(m, v), ()) for m, v, _ in VERB_TABLE.cells()]
    out += [(pattern, root, voc, ()) for _, pattern, root, voc in NOMINAL]
    out += list(AFFIXED.values())
    out += [(e.id, root, "ui", ()) for e in lexicon.tree("pattern").entries
            if e.kind not in ("prefix", "suffix", "word")
            for root in ("ktb", "dHrJ")]
    return out


def _generated(grammar, lexicon):
    full = optional_deletion_rules(grammar)
    return [generate({"pattern": pattern, "root": root, "vocalism": voc,
                      "affixes": affixes}, grammar, lexicon, skip_rules=skip)
            for pattern, root, voc, affixes in _selections(lexicon)
            for skip in (full, frozenset())]


def _repairs(grammar, lexicon):
    out = []
    for word in REPAIR_WORDS:
        for a in engine.analyze(decode(word), grammar, lexicon):
            parsed = morphosyntax.parse_word(a, lexicon)
            if isinstance(parsed, morphosyntax.FeatureClash):
                out.append((word, parsed.root_id, morphosyntax.repair_clash(
                    parsed, grammar, lexicon)))
    return out


def test_generation_equals_that_without_the_lookahead(grammar, lexicon,
                                                      monkeypatch):
    pruned = _generated(grammar, lexicon)
    repairs = _repairs(grammar, lexicon)
    assert sum(map(bool, pruned)) < len(pruned) and len(repairs) > 4
    _no_lookahead(monkeypatch)
    assert _generated(*load_builtin()[:2]) == pruned
    assert _repairs(*load_builtin()[:2]) == repairs


def test_a_repair_is_the_first_surface_generated(grammar, lexicon):
    # repair_clash reads one surface per expected pattern, lazily: the one
    # generate lists first
    skip = optional_deletion_rules(grammar)
    for word in REPAIR_WORDS:
        for a in engine.analyze(decode(word), grammar, lexicon):
            clash = morphosyntax.parse_word(a, lexicon)
            if not isinstance(clash, morphosyntax.FeatureClash):
                continue
            want = []
            for pattern in clash.expected_patterns:
                voc = lexicon.entry("pattern", pattern).features["bp_voc"]
                want += generate({"pattern": pattern, "root": clash.root_id,
                                  "vocalism": voc[0]}, grammar, lexicon,
                                 skip_rules=skip)[:1]
            assert morphosyntax.repair_clash(clash, grammar, lexicon) == want


def test_the_premise_of_the_bundled_grammar(grammar, lexicon):
    # R1 and glottal_change read the root, R2 and R8 the vocalism, each
    # with a pattern variable aligned to it; R0 reads the pattern tape
    # with nothing before it, and R4's (+, +, +) reads only boundaries
    memo = step_memo(grammar, lexicon)
    assert memo.aligned == ((ROOT, (PATTERN,)), (VOCALISM, (PATTERN,)))
    generate({"pattern": "M1", "root": "ktb", "vocalism": "a"}, grammar,
             lexicon)
    paths = set()
    for root in memo.paths.values():
        node = root
        while True:
            paths.add(node)
            if not node.edges:
                break
            (node,) = node.edges.values()
    assert memo.slots and set(memo.slots) <= paths
    m1 = memo.path(lexicon.entry("pattern", "M1").form)
    ktb = memo.path(lexicon.entry("root", "ktb").form)
    # c1 v1 c2 v2 c3 + index 1, 2 and 3; k t b + has letters at 1, 2, 3
    assert memo.slots[m1] == (0b1110, 0b111110)
    assert memo.slots[ktb] == (0, 0b1110)


def test_a_selection_no_slot_can_read_expands_nothing(grammar, lexicon,
                                                      monkeypatch):
    # M1 has no c4 for dHrJ's fourth consonant: the start is cut
    expanded = []
    successors = engine._successors

    def counted(ctx, state, error_step):
        expanded.append(state)
        return successors(ctx, state, error_step)

    monkeypatch.setattr(engine, "_successors", counted)
    selection = {"pattern": "M1", "root": "dHrJ", "vocalism": "ui"}
    assert generate(selection, grammar, lexicon) == []
    assert len(expanded) <= 1
    expanded.clear()
    _no_lookahead(monkeypatch)
    assert generate(selection, grammar, lexicon) == []
    assert len(expanded) > 1


def test_the_patch_turns_off_the_check(monkeypatch):
    # correction regenerates each selection it reaches: the patch makes
    # apply_rule yield more there, and leaves the error search as it was
    pruned, unpruned = successors_made(monkeypatch, _no_lookahead,
                                       ("samaaAiyy",))
    assert unpruned[0] > pruned[0] and unpruned[1] == pruned[1]


# Micro grammars over the pattern and root tapes. ALIGNED reads a root
# consonant only at the consonant slot aligned with its position; the
# others read it at a slot no guard aligns, at a literal slot, or through
# a variable an earlier slot of the rule has bound, which the walk does not
# check again.
_MICRO = """\
class pc = {c1, c2}
class cons = {k, t}
rule B: * - 0 - * => * - (+, +, 0) - *
"""
ALIGNED = _MICRO + (
    "rule C: * - C - * => * - (P, C, 0) - * where pc(P), cons(C), "
    "aligned(P, root)\n")
UNALIGNED = _MICRO + (
    "rule C: * - C - * => * - (P, C, 0) - * where pc(P), cons(C)\n")
LITERAL = _MICRO + (
    "rule C: * - C - * => * - (c1, C, 0) - * where cons(C)\n"
    "rule D: * - C - * => * - (c2, C, 0) - * where cons(C)\n")
REBOUND = _MICRO + (
    "rule C: * - C D - * => * - (P, C, 0) (P, D, 0) - * where pc(P), "
    "cons(C), cons(D), aligned(P, root)\n")
MICRO_LEXICON = "".join(f"{tape}\t{form}\t\t\n" for tape, form in (
    ("pattern", "c1"), ("pattern", "c1c2"), ("pattern", "c2c1"),
    ("pattern", "c1c1"), ("pattern", "c2c2"), ("root", "k"),
    ("root", "kt"), ("root", "tk")))


@pytest.mark.parametrize("text, aligned", (
    (ALIGNED, ((ROOT, (PATTERN,)),)), (UNALIGNED, ()), (LITERAL, ()),
    (REBOUND, ())), ids=("aligned", "unaligned", "literal", "rebound"))
def test_micro_grammars(text, aligned, monkeypatch):
    lexicon = load_lexicon(MICRO_LEXICON)
    grammar = parse_grammar(text)
    assert step_memo(grammar, lexicon).aligned == aligned

    def run():
        return [[encode(s) for s in generate(
            {"pattern": p.id, "root": r.id}, grammar, lexicon)]
            for p in lexicon.tree("pattern").entries
            for r in lexicon.tree("root").entries]

    pruned = run()
    assert any(pruned)
    _no_lookahead(monkeypatch)
    assert run() == pruned

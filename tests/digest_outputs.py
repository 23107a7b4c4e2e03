"""Digests of the library's outputs on fixed inputs, for comparing two trees.

A change that only makes the search cheaper must leave every output, and
its order, as it was. This script prints one sha256 digest per group of
outputs, so that two trees can be compared by running it in each:

- the analyses of every distinct input below: the well-formed words, the
  paper's error examples, the words that show the open morphotactics
  (ROADMAP item 1) and every unanalyzable single Damerau edit of the sweep
  words;
- the full ranked candidates, `correct(max_candidates=None)`, of the error
  examples and the unanalyzable edits, at `max_positions` None and 2;
- `generate` of every verb-table and nominal selection, fully vocalised and
  in every orthography.

Run it as ``python3 tests/digest_outputs.py``; it takes about half a minute.
It is not a test: pytest collects no file of this name.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

from semitic_morpho import engine, load_builtin  # noqa: E402
from semitic_morpho.alphabet import decode, encode  # noqa: E402
from semitic_morpho.corrector import correct  # noqa: E402
from test_order_contract import ERROR_EXAMPLES  # noqa: E402
from workloads import (NOMINAL, VERB_TABLE, table_selection,  # noqa: E402
                       unanalyzable_edits, well_formed_words)

# stacked stems and suffixes the bundled morphotactics still admit, and
# stems whose consonant slots copy an earlier root consonant (R5)
OPEN_MORPHOTACTICS = ("katabkatab", "ktbktbktb", "samaawiyya",
                      "samaawiyyiyy", "kuttibiyyiyyiyy", "samAaAiyy",
                      "katabbabab", "katattatab")


def _analysis(a):
    return [encode(a.surface),
            [[r.rule_name, encode(r.surf_seg), [list(t) for t in r.lex_seg],
              r.error_origin, encode(r.err_seg), r.pos] for r in a.records],
            {tape: [e.id for e in entries]
             for tape, entries in sorted(a.morphemes.items())},
            [[s.pattern.id, s.root.id, s.vocalism.id,
              sorted((k, list(v)) for k, v in s.features.items())]
             for s in a.stems],
            [[rule, pos, encode(err), encode(corr)]
             for rule, pos, err, corr in a.errors]]


def _candidate(c):
    events, depth, rule_index, word = c.rank_key
    return [encode(c.corrected_word),
            [[rule, pos, encode(err), encode(corr)]
             for rule, pos, err, corr in c.error_trace],
            [events, depth, rule_index, encode(word)],
            [_analysis(a) for a in c.analyses]]


def _edits():
    return list(dict.fromkeys(edited for _, _, _, edited
                              in unanalyzable_edits()))


def groups(grammar, lexicon):
    """(name, number of inputs, outputs) for each group of outputs."""
    misspelt = list(dict.fromkeys([*ERROR_EXAMPLES, *_edits()]))
    inputs = list(dict.fromkeys([*well_formed_words(), *OPEN_MORPHOTACTICS,
                                 *misspelt]))
    yield "analyses", len(inputs), [
        [word, [_analysis(a) for a in engine.analyze(decode(word), grammar,
                                                     lexicon)]]
        for word in inputs]
    for window in (None, 2):
        yield f"correct max_positions={window}", len(misspelt), [
            [word, [_candidate(c) for c in correct(
                decode(word), grammar, lexicon, max_candidates=None,
                max_positions=window)]]
            for word in misspelt]
    selections = [table_selection(m, v) for m, v, _ in VERB_TABLE.cells()]
    selections += [(pattern, root, voc) for _, pattern, root, voc in NOMINAL]
    full = engine.optional_deletion_rules(grammar)
    yield "generate", len(selections), [
        [[pattern, root, voc, style],
         [encode(s) for s in engine.generate(
             {"pattern": pattern, "root": root, "vocalism": voc,
              "affixes": ()}, grammar, lexicon, skip_rules=skip)]]
        for pattern, root, voc in selections
        for style, skip in (("full", full), ("all", frozenset()))]


def main():
    grammar, lexicon, _ = load_builtin()
    for name, count, outputs in groups(grammar, lexicon):
        text = json.dumps(outputs, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{name}: {count} inputs, {len(outputs)} outputs, {digest}")


if __name__ == "__main__":
    main()

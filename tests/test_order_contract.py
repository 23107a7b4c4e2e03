"""The order contract: analyses and ranked candidates in their exact order.

Analysis order and candidate order are part of the library's contract, so
a change that only makes the search cheaper must leave both untouched. The
expected values in order_contract.json were recorded from the engine before
rule dispatch was compiled; regenerate them (``PYTHONPATH=src
python3 tests/test_order_contract.py``) only in a change that means to alter the
order, and say so in its description.
"""

import json
from pathlib import Path

from semitic_morpho.alphabet import decode, encode
from semitic_morpho.corrector import correct
from semitic_morpho.engine import analyze

EXPECTED = Path(__file__).with_name("order_contract.json")

AFFIXED_WORDS = ("dHunriJa", "samaawiyy", "hawaaAiyy", "wakutib", "mdiintA")

# The paper's error examples (acceptance criteria 4-7) and two edits of
# verb-table cells.
ERROR_EXAMPLES = ("samaaAiyy", "kattabq", "dHruJi", "katbb", "wkatubi",
                  "tadHaraJ", "tuktib", "mdiitA")


def _analysis(a):
    return {"trace": list(a.rule_trace),
            "morphemes": {tape: [e.id for e in entries]
                          for tape, entries in sorted(a.morphemes.items())}}


def _candidate(c):
    events, depth, rule_index, word = c.rank_key
    return {"word": encode(c.corrected_word),
            "errors": [[rule, pos, encode(err), encode(corr)]
                       for rule, pos, err, corr in c.error_trace],
            "rank_key": [events, depth, rule_index, encode(word)]}


def analysis_words(verb_table):
    cells = [surface for _, _, surface in verb_table.cells()]
    return cells + list(AFFIXED_WORDS)


def observed_analyses(grammar, lexicon, verb_table):
    return {word: [_analysis(a) for a in analyze(decode(word), grammar,
                                                 lexicon)]
            for word in analysis_words(verb_table)}


def observed_candidates(grammar, lexicon):
    return {word: [_candidate(c) for c in correct(decode(word), grammar,
                                                  lexicon)]
            for word in ERROR_EXAMPLES}


def expected():
    return json.loads(EXPECTED.read_text("utf-8"))


def test_analysis_order(grammar, lexicon, verb_table):
    want = expected()["analyses"]
    assert list(want) == analysis_words(verb_table)
    assert observed_analyses(grammar, lexicon, verb_table) == want


def test_candidate_order(grammar, lexicon):
    want = expected()["candidates"]
    assert list(want) == list(ERROR_EXAMPLES)
    assert observed_candidates(grammar, lexicon) == want


if __name__ == "__main__":
    from semitic_morpho import load_builtin

    grammar, lexicon, table = load_builtin()
    payload = {"analyses": observed_analyses(grammar, lexicon, table),
               "candidates": observed_candidates(grammar, lexicon)}
    EXPECTED.write_text(json.dumps(payload, indent=1) + "\n", "utf-8")

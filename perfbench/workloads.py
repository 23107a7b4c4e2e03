"""Benchmark workloads: seeded inputs, the calls they make, and known-answer
checks that do not depend on the code under test.

Every input is derived from `corpus.json` (frozen when the benchmark was
defined), the verb table, the hand-written tables below, and the seed. The
program receives only the generated words and selections.
"""

from __future__ import annotations

import collections
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from semitic_morpho import cli, corrector, engine, morphosyntax
from semitic_morpho.alphabet import decode, encode
from semitic_morpho.arabic_data import (ACTIVE_VOCALISM, PASSIVE_VOCALISM,
                                        VERB_TABLE, measure_pattern_id)

from oracles import damerau_edits, orthography_set, reference_surface

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = json.loads((HERE / "corpus.json").read_text("utf-8"))

# Nominal selections, written from the lexicon's glosses:
# surface, pattern, root, vocalism.
NOMINAL = (
    ("kudW", "CuCC", "kdW", "u"),
    ("kuffal", "CuCCaC", "kfl_kaafil", "ua"),
    ("kufalaaA", "CuCaCaaA", "kfl_kafiil", "ua"),
    ("suhuum", "CuCuuC", "shm", "u"),
    ("Aashum", "AaCCuC", "shm", "au"),
    ("kadiW", "CaCiC", "kdW", "ai"),
    ("kaafil", "CaaCiC", "kfl_kaafil", "ai"),
    ("kafiil", "CaCiiC", "kfl_kafiil", "ai"),
    ("sahm", "CaCC", "shm", "a"),
    ("samaaA", "CaCaaC", "smA", "a"),
    ("hawaaA", "CaCaaC", "hwA", "a"),
)

# Affixed and linear words: surface -> (stem pattern, root, vocalism, affixes).
AFFIXED = {
    "dHunriJa": ("Q3", "dHrJ", "ui", ("suf_a",)),
    "samaawiyy": ("CaCaaC", "smA", "a", ("suf_iyy",)),
    "hawaaAiyy": ("CaCaaC", "hwA", "a", ("suf_iyy",)),
    "wakutib": ("M1", "ktb", "ui", ("pre_wa",)),
    "mdiintA": (None, None, None, ()),
}

# The paper's error examples and the word each must correct to (acceptance
# criteria 4-7; katbb and kattabq are edits of verb-table cells). They are
# listed slowest first, so that a run that ends before the last of them
# leaves out only cheap ones.
PAPER_EXAMPLES = (
    ("samaaAiyy", "samaawiyy"), ("kattabq", "kattab"), ("dHruJi", "duHriJ"),
    ("katbb", "katab"), ("wkatubi", "wakutib"), ("tadHaraJ", "tadaHraJ"),
    ("tuktib", "tukuttib"), ("mdiitA", "mdiintA"),
)
REAP_RULES = frozenset({"E0", "E0a", "E1"})

# Broken-plural misuse words (acceptance criterion 8).
REPAIR_WORDS = ("kidaaW", "kufalaaA", "kuffaal", "Aashaam")

EDIT_KINDS = ("omission", "insertion", "transposition", "substitution")
EDIT_SHARE = 0.2


@dataclass
class Checked:
    failed: int         # operations that missed their known answer
    problems: list      # one description per miss
    encoded: object     # the output, as the digest reads it
    top1: bool = None   # correct-typo: the source word is ranked first


@dataclass
class Op:
    kind: str
    label: str          # the input as the user writes it
    arg: object         # what the call receives
    expect: object
    weight: int = 1     # operations it counts for


def selection_sig(pattern, root, vocalism, affixes=()):
    return (pattern, root, vocalism, tuple(affixes))


def analysis_sig(a):
    """Stem morphemes and affixes of an analysis, as the CLI prints them."""
    affixes = (e.id for e in a.affixes())
    if not a.stems:
        return selection_sig(None, None, None, affixes)
    stem = a.stems[-1]
    return selection_sig(stem.pattern.id, stem.root.id, stem.vocalism.id,
                         affixes)


def encode_analyses(analyses):
    return [[list(a.rule_trace), list(analysis_sig(a))] for a in analyses]


def table_selection(measure, voice):
    root = "dHrJ" if measure.startswith("Q") else "ktb"
    voc = ACTIVE_VOCALISM if voice == "act" else PASSIVE_VOCALISM
    return measure_pattern_id(measure), root, voc


def well_formed_words():
    """Every distinct well-formed word -> the selections it must analyze to."""
    expect = {}
    for surface, pattern, root, voc in CORPUS["table_orthographies"]:
        expect.setdefault(surface, set()).add(selection_sig(pattern, root, voc))
    for measure, voice, surface in VERB_TABLE.cells():
        expect.setdefault(surface, set()).add(
            selection_sig(*table_selection(measure, voice)))
    for surface, pattern, root, voc in NOMINAL:
        expect.setdefault(surface, set()).add(selection_sig(pattern, root, voc))
    for surface, sig in AFFIXED.items():
        expect.setdefault(surface, set()).add(selection_sig(*sig))
    return expect


def unanalyzable_edits():
    """(source, kind, position, edited) for every sweep-word edit that has no
    analysis."""
    out = []
    for word in CORPUS["sweep_words"]:
        analyzable = set(CORPUS["analyzable_edits"][word])
        for kind, pos, edited in damerau_edits(word, CORPUS["alphabet"]):
            if edited not in analyzable:
                out.append((word, kind, pos, edited))
    return out


def _len_spread(labels):
    lengths = [len(decode(w)) for w in labels]
    return {"min": min(lengths), "median": statistics.median(lengths),
            "max": max(lengths)}


class Workload:
    name = ""
    digest_ops = 1        # the digest covers this many leading operations
    in_process = True     # the program runs in the benchmark's process

    def __init__(self, seed, grammar, lexicon):
        self.rng = random.Random(seed)
        self.grammar = grammar
        self.lexicon = lexicon

    def check(self, op, result) -> Checked:
        raise NotImplementedError


class AnalyzeText(Workload):
    """analyze over running text: Zipf-skewed well-formed words, and a fifth
    distinct unanalyzable edits."""

    name = "analyze-text"
    digest_ops = 500

    def __init__(self, seed, grammar, lexicon):
        super().__init__(seed, grammar, lexicon)
        self.expect = well_formed_words()
        # Frequent words are the short ones, as in running text; the rank
        # order is fixed so that the seed changes the stream, not its mix.
        self.vocab = sorted(self.expect, key=lambda w: (len(w), w))
        self.cum = list(itertools.accumulate(
            1.0 / rank for rank in range(1, len(self.vocab) + 1)))
        self.edits = unanalyzable_edits()
        self.rng.shuffle(self.edits)

    def ops(self):
        rng = self.rng
        while True:
            for source, kind, pos, edited in self.edits:
                while rng.random() >= EDIT_SHARE:
                    word = rng.choices(self.vocab, cum_weights=self.cum)[0]
                    yield Op("analyze", word, decode(word), self.expect[word])
                yield Op("analyze", edited, decode(edited), None)
            rng.shuffle(self.edits)

    def call(self, op):
        return engine.analyze(op.arg, self.grammar, self.lexicon)

    def check(self, op, analyses):
        sigs = {analysis_sig(a) for a in analyses}
        if op.expect is None:
            bad = bool(analyses)
            why = f"{op.label}: edit analyzes as {sorted(sigs, key=str)}"
        else:
            bad = not op.expect <= sigs
            why = (f"{op.label}: expected {sorted(op.expect, key=str)} among "
                   f"{sorted(sigs, key=str)}")
        return Checked(int(bad), [why] if bad else [],
                       encode_analyses(analyses))

    def properties(self, done):
        labels = [op.label for op in done]
        hits = sum(op.expect is not None for op in done)
        return {"operations": len(done),
                "repeated_share": 1 - len(set(labels)) / len(labels),
                "word_length": _len_spread(labels),
                "hit_share": hits / len(done),
                "miss_share": 1 - hits / len(done)}


class CorrectTypo(Workload):
    """correct over the paper's error examples, then distinct unanalyzable
    edits of the sweep words.

    The cost of a correction depends mostly on the word, the edit kind and
    the edit position, and little on the inserted or substituted letter. So
    the edits are a stratified sample: each round takes one paper example
    (while they last) and one edit of every sweep word, the kinds rotating
    from round to round; each (word, kind) steps through its edit positions
    in turn, starting from a point that differs by word, so that one round
    spreads its edits from the start to the end of the words. The seed picks
    the letter. Every prefix of the stream then has nearly the same mix, and
    runs with different seeds measure the same kind of work.
    """

    name = "correct-typo"
    digest_ops = 2 * 13   # two rounds

    def __init__(self, seed, grammar, lexicon):
        super().__init__(seed, grammar, lexicon)
        strata = {}
        for source, kind, pos, edited in unanalyzable_edits():
            strata.setdefault((source, kind), {}).setdefault(pos, []).append(
                edited)
        words = CORPUS["sweep_words"]
        self.queues = {}
        for (source, kind), by_pos in strata.items():
            for edits in by_pos.values():
                self.rng.shuffle(edits)
            queue = collections.deque(by_pos[pos] for pos in sorted(by_pos))
            queue.rotate(-(words.index(source) * len(queue)) // len(words))
            self.queues[(source, kind)] = queue

    def ops(self):
        # edits of two sweep words, or of a sweep word and a paper example,
        # can coincide
        used = {word for word, _ in PAPER_EXAMPLES}
        for rnd in itertools.count():
            if rnd < len(PAPER_EXAMPLES):
                word, source = PAPER_EXAMPLES[rnd]
                yield Op("correct", word, decode(word), (source, "paper"))
            for i, source in enumerate(CORPUS["sweep_words"]):
                edited = None
                for k in range(len(EDIT_KINDS)):
                    kind = EDIT_KINDS[(rnd + i + k) % len(EDIT_KINDS)]
                    edited = self._next_edit(self.queues.get((source, kind)),
                                             used)
                    if edited is not None:
                        break
                if edited is None:
                    return
                used.add(edited)
                yield Op("correct", edited, decode(edited), (source, kind))

    @staticmethod
    def _next_edit(queue, used):
        """An unused edit at the next position that has one; the positions
        are visited in turn, again and again."""
        for _ in range(len(queue or ())):
            edits = queue[0]
            queue.rotate(-1)
            while edits:
                edited = edits.pop()
                if edited not in used:
                    return edited
        return None

    def call(self, op):
        return corrector.correct(op.arg, self.grammar, self.lexicon)

    def check(self, op, cands):
        source, kind = op.expect
        words = [encode(c.corrected_word) for c in cands]
        problems = []
        if source not in words:
            problems.append(f"{op.label}: {source} not among {words}")
        if kind == "paper":
            problems += paper_answer(op.label, cands, words)
        encoded = [[w, [[r, p, encode(e), encode(c)]
                        for r, p, e, c in cand.error_trace]]
                   for w, cand in zip(words, cands)]
        return Checked(int(bool(problems)), problems, encoded,
                       top1=words[:1] == [source])

    def properties(self, done):
        labels = [op.label for op in done]
        mix = collections.Counter(op.expect[1] for op in done)
        return {"operations": len(done),
                "repeated_share": 1 - len(set(labels)) / len(labels),
                "word_length": _len_spread(labels),
                "edit_kinds": {k: mix[k] / len(done)
                               for k in ("paper",) + EDIT_KINDS}}


def paper_answer(word, cands, words):
    """The hand-written answers of acceptance criteria 4-7."""
    def rules(i):
        return [r for r, _, _, _ in cands[i].error_trace]

    def patterns(i):
        return {a.stems[-1].pattern.id for a in cands[i].analyses if a.stems}

    ok = True
    if word == "dHruJi":
        ok = words[:1] == ["duHriJ"] and rules(0) == ["E0", "E0"]
    elif word == "wkatubi":
        ok = "wakutib" in words and \
            set(rules(words.index("wakutib"))) <= REAP_RULES
    elif word == "tuktib":
        ok = words[:2] == ["tukuttib", "tukuutib"] and \
            rules(0)[:1] == ["E2"] and rules(1)[:1] == ["E3"] and \
            "M5" in patterns(0) and "M6" in patterns(1)
    return [] if ok else [f"{word}: candidates {words} break the paper's "
                          f"answer"]


class GenerateRepair(Workload):
    """generate for every table and nominal selection in both styles, and
    parse_word plus repair_clash on the broken-plural misuse words."""

    name = "generate-repair"

    def __init__(self, seed, grammar, lexicon):
        super().__init__(seed, grammar, lexicon)
        skip = frozenset(r.name for r in grammar.rules
                         if engine.is_optional_deletion(r))
        self.base = []
        selections = [(surface,) + table_selection(m, v)
                      for m, v, surface in VERB_TABLE.cells()]
        selections += list(NOMINAL)
        for surface, pattern, root, voc in selections:
            bodies = (lexicon.entry("pattern", pattern).body,
                      lexicon.entry("root", root).body,
                      lexicon.entry("vocalism", voc).body)
            sel = {"pattern": pattern, "root": root, "vocalism": voc,
                   "affixes": ()}
            ref = reference_surface(*bodies)
            label = f"{pattern}/{root}/{voc}"
            self.base.append(Op("generate", label + " full", (sel, skip),
                                {ref, surface}))
            self.base.append(Op("generate", label + " all", (sel, frozenset()),
                                {ref} | orthography_set(*bodies)))
        for word in REPAIR_WORDS:
            analyses = engine.analyze(decode(word), grammar, lexicon)
            self.base.append(Op("repair", word, analyses, None))
        self.digest_ops = len(self.base)

    def ops(self):
        while True:
            batch = list(self.base)
            self.rng.shuffle(batch)
            yield from batch

    def call(self, op):
        if op.kind == "generate":
            sel, skip = op.arg
            return engine.generate(sel, self.grammar, self.lexicon,
                                   skip_rules=skip)
        out = []
        for a in op.arg:
            parsed = morphosyntax.parse_word(a, self.lexicon)
            if isinstance(parsed, morphosyntax.FeatureClash) and \
               parsed.attribute == "bp_pattern":
                repaired = morphosyntax.repair_clash(parsed, self.grammar,
                                                     self.lexicon)
                out.append((parsed.root_id, [encode(s) for s in repaired]))
        return out

    def check(self, op, result):
        if op.kind == "generate":
            surfaces = [encode(s) for s in result]
            bad = not op.expect <= set(surfaces)
            why = f"{op.label}: {sorted(op.expect)} not all in {surfaces}"
            return Checked(int(bad), [why] if bad else [], surfaces)
        bad = not repair_answer(op.label, result)
        return Checked(int(bad), [f"{op.label}: repairs {result}"] if bad
                       else [], [list(pair) for pair in result])

    def properties(self, done):
        kinds = collections.Counter(
            "generate " + op.label.rsplit(" ", 1)[-1]
            if op.kind == "generate" else "repair" for op in done)
        return {"operations": len(done),
                "repeated_share": 1 - len(self.base) / len(done),
                "distinct_inputs": len(self.base),
                "op_mix": {k: v / len(done) for k, v in sorted(kinds.items())}}


def repair_answer(word, result):
    """The hand-written answers of acceptance criterion 8."""
    got = dict(result)
    if word == "kidaaW":
        return [r for _, r in result] == [["kudW"]]
    if word == "kufalaaA":
        return got.get("kfl_kaafil") == ["kuffal"]
    if word == "kuffaal":
        return got == {"kfl_kaafil": ["kuffal"], "kfl_kafiil": ["kufalaaA"]}
    return bool(result) and all(r == ["suhuum", "Aashum"] for _, r in result)


class CliStdin(Workload):
    """One `--format json analyze --stdin` process per operation batch, fed
    every distinct well-formed word once."""

    name = "cli-stdin"
    digest_ops = 1
    in_process = False    # traced runs call cli.run in-process instead
    argv = ["--format", "json", "analyze", "--stdin"]

    def __init__(self, seed, grammar, lexicon):
        super().__init__(seed, grammar, lexicon)
        self.expect = well_formed_words()
        self.words = sorted(self.expect)
        self.rng.shuffle(self.words)
        self.text = "".join(w + "\n" for w in self.words)

    def ops(self):
        while True:
            yield Op("cli", "stdin", self.text, self.words,
                     weight=len(self.words))

    def command(self):
        return [sys.executable, "-m", "semitic_morpho.cli"] + self.argv

    def env(self):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        return env

    def call(self, op):
        if not self.in_process:
            done = subprocess.run(self.command(), input=op.arg,
                                  capture_output=True, text=True,
                                  env=self.env(), cwd=ROOT, timeout=120)
            return done.returncode, done.stdout
        saved, sys.stdin = sys.stdin, io.StringIO(op.arg)
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                status = cli.run(self.argv)
        finally:
            sys.stdin = saved
        return status, out.getvalue()

    def check(self, op, result):
        status, text = result
        docs = []
        decoder = json.JSONDecoder()
        pos = 0
        text = text.strip()
        while pos < len(text):
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
            while pos < len(text) and text[pos].isspace():
                pos += 1
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        encoded = []
        for i, word in enumerate(op.expect):
            doc = docs[i] if i < len(docs) else {"word": None, "analyses": []}
            sigs = {selection_sig(m["pattern"], m["root"], m["vocalism"],
                                  m["affixes"])
                    for m in (a["morphemes"] for a in doc["analyses"])}
            if doc["word"] != word or not self.expect[word] <= sigs:
                problems.append(f"{word}: got {doc['word']} "
                                f"{sorted(sigs, key=str)}")
            encoded.append([[a["rule_trace"], [a["morphemes"][k] for k in
                                              ("pattern", "root", "vocalism",
                                               "affixes")]]
                            for a in doc["analyses"]])
        failed = len(op.expect) if status != 0 else \
            min(len(problems), len(op.expect))
        return Checked(failed, problems, encoded)

    def properties(self, done):
        return {"operations": sum(op.weight for op in done),
                "invocations": len(done),
                "words_per_invocation": len(self.words),
                "repeated_share": 1 - 1 / len(done),
                "word_length": _len_spread(self.words)}


WORKLOADS = {w.name: w for w in (AnalyzeText, CorrectTypo, GenerateRepair,
                                 CliStdin)}

"""Independent reference implementations used as test oracles.

Apart from the reference search, nothing here calls the engine: surfaces
and orthography sets are computed by direct string walks over the lexicon
data, the micro partition oracle enumerates alignments exhaustively, and the
licensing and obligatory-rule checkers read a complete partition after the
fact with the grammar's slot and context matchers. The reference search is
the plain depth-first search over the engine's successor function, without
the error search's failure table, and the reference left-context matcher
matches a search state's history, flattened by walking its nodes' parents,
with the grammar's context matcher.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from semitic_morpho.alphabet import BOUNDARY
from semitic_morpho.engine import _complete, _successors
from semitic_morpho.lexicon import TAPES
from semitic_morpho.grammar import (EPS, WILDCARD, match_context, match_lex,
                                    match_slot)

C_SLOTS = {"c1": 1, "c2": 2, "c3": 3, "c4": 4}
V_SLOTS = {"v1": 1, "v2": 2}
SPREADABLE_C = {"c2", "c3", "c4"}


def reference_positions(pattern: Sequence[str], root: Sequence[str],
                        voc: Sequence[str]) -> Optional[List[Tuple[str, str]]]:
    """Fully vocalised surface as (symbol, kind) pairs, or None if the
    morpheme combination is underivable.

    kind: cons | cons_spread | vowel | vowel_spread | lit. Slot indices bind
    tape positions; unconsumable slots copy the nearest consumed symbol of
    their kind.
    """
    ri = vi = 0
    out: List[Tuple[str, str]] = []
    for slot in pattern:
        if slot in C_SLOTS:
            if C_SLOTS[slot] == ri + 1 and ri < len(root):
                out.append((root[ri], "cons"))
                ri += 1
            else:
                if slot not in SPREADABLE_C:
                    return None
                src = next((s for s, k in reversed(out) if k == "cons"), None)
                if src is None:
                    return None
                out.append((src, "cons_spread"))
        elif slot in V_SLOTS:
            if V_SLOTS[slot] == vi + 1 and vi < len(voc):
                out.append((voc[vi], "vowel"))
                vi += 1
            else:
                src = next((s for s, k in reversed(out) if k == "vowel"), None)
                if src is None:
                    return None
                out.append((src, "vowel_spread"))
        else:
            out.append((slot, "lit"))
    if ri != len(root) or vi != len(voc):
        return None
    return out


def reference_surface(pattern, root, voc) -> Optional[str]:
    pos = reference_positions(pattern, root, voc)
    return "".join(s for s, _ in pos) if pos is not None else None


def _deletable(pattern: Sequence[str], positions, i: int) -> bool:
    """Whether the vowel at slot i may be omitted (stem-vowel/spread-vowel
    omission): the previous slot must be a consumed consonant, the next
    slot a consonant slot, and a root consonant must still be consumed at
    or after it."""
    if i == 0 or i + 1 >= len(pattern):
        return False
    if positions[i - 1][1] != "cons":
        return False
    if pattern[i + 1] not in C_SLOTS:
        return False
    return any(k == "cons" for _, k in positions[i + 1:])


def orthography_set(pattern, root, voc) -> Set[str]:
    """Every orthography licensed by optional stem/spread vowel omission."""
    positions = reference_positions(pattern, root, voc)
    if positions is None:
        return set()
    deletable = [i for i, (_, k) in enumerate(positions)
                 if k in ("vowel", "vowel_spread")
                 and _deletable(pattern, positions, i)]
    out = set()
    for mask in itertools.product((False, True), repeat=len(deletable)):
        drop = {i for i, m in zip(deletable, mask) if m}
        out.add("".join(s for i, (s, _) in enumerate(positions)
                        if i not in drop))
    return out


def damerau_edits(word: str, alphabet: Sequence[str]):
    """All single Damerau edits of a word: omission of a letter, insertion
    of an alphabet letter, adjacent transposition, substitution."""
    seen = set()
    for i in range(len(word)):
        yield_word = word[:i] + word[i + 1:]
        if yield_word and yield_word not in seen:
            seen.add(yield_word)
            yield ("omission", i, yield_word)
    for i in range(len(word) + 1):
        for ch in alphabet:
            cand = word[:i] + ch + word[i:]
            if cand not in seen:
                seen.add(cand)
                yield ("insertion", i, cand)
    for i in range(len(word) - 1):
        if word[i] != word[i + 1]:
            cand = word[:i] + word[i + 1] + word[i] + word[i + 2:]
            if cand not in seen:
                seen.add(cand)
                yield ("transposition", i, cand)
    for i in range(len(word)):
        for ch in alphabet:
            if ch != word[i]:
                cand = word[:i] + ch + word[i + 1:]
                if cand not in seen:
                    seen.add(cand)
                    yield ("substitution", i, cand)


# ---------------------------------------------------------------------------
# brute-force partition oracle for micro-grammars (single pattern tape,
# identity/boundary/coercion rules without ellipsis)


def oracle_micro_analyze(rules: Dict[str, dict], entries: Sequence[str],
                         word: str, max_entries: int = 0) -> Set[tuple]:
    """All rule-name/lexical-string partitions of `word`.

    rules: name -> {kind: "identity"|"boundary"|"coerce", ...attrs}:
      identity: {"letters": set}                lex X -> surf X
      deletion: {"letters": set}                lex X -> nothing
      boundary: {}                              lex + -> nothing, prev != +
      coerce:   {"lsc": ch, "lex": ch, "surf": ch, "obligatory": bool}
    entries: morpheme bodies (no boundary); the tape string is a
    concatenation of chosen entries, each followed by "+".
    Returns a set of (trace, tape_string) pairs, violations filtered.
    """
    results: Set[tuple] = set()
    if not max_entries:
        max_entries = len(word) + 1
    for n in range(1, max_entries + 1):
        for combo in itertools.product(entries, repeat=n):
            tape = "".join(e + "+" for e in combo)
            for trace in _micro_partitions(rules, tape, word):
                results.add((trace, tape))
    return results


def _micro_partitions(rules, tape: str, word: str):
    complete: List[tuple] = []

    def walk(ti: int, wi: int, trace: tuple):
        if ti == len(tape) and wi == len(word):
            if not _micro_violates(rules, tape, word, trace):
                complete.append(trace)
            return
        for name, spec in rules.items():
            kind = spec["kind"]
            if kind == "identity":
                if ti < len(tape) and wi < len(word) and \
                   tape[ti] == word[wi] and tape[ti] in spec["letters"]:
                    walk(ti + 1, wi + 1, trace + ((name, ti, wi),))
            elif kind == "deletion":
                if ti < len(tape) and tape[ti] in spec["letters"]:
                    walk(ti + 1, wi, trace + ((name, ti, wi),))
            elif kind == "boundary":
                if ti < len(tape) and tape[ti] == "+" and ti > 0 and \
                   tape[ti - 1] != "+":
                    walk(ti + 1, wi, trace + ((name, ti, wi),))
            elif kind == "coerce":
                if ti < len(tape) and wi < len(word) and \
                   tape[ti] == spec["lex"] and word[wi] == spec["surf"] and \
                   wi > 0 and word[wi - 1] == spec["lsc"]:
                    walk(ti + 1, wi + 1, trace + ((name, ti, wi),))

    walk(0, 0, ())
    return complete


def _micro_violates(rules, tape, word, trace) -> bool:
    for name, spec in rules.items():
        if spec["kind"] != "coerce" or not spec.get("obligatory"):
            continue
        for rec_name, ti, wi in trace:
            if rec_name == name:
                continue
            rec = rules[rec_name]
            if rec["kind"] != "identity":
                continue
            # this record consumed tape[ti] -> word[wi]
            if tape[ti] == spec["lex"] and wi > 0 and \
               word[wi - 1] == spec["lsc"] and word[wi] != spec["surf"]:
                return True
    return False


# ---------------------------------------------------------------------------
# post-hoc licensing and obligatory-rule checking (independent of the
# engine's deferred obligations)


def _partition_walk(records, n: int):
    """For each record: (index, record, lexical tuples before it, surface
    before it, lexical tuples after it, surface after it, per-tape index of
    the morpheme being read, i.e. the boundaries consumed before it)."""
    all_lex = [t for r in records for t in r.lex_seg]
    all_surf = [s for r in records for s in r.surf_seg]
    lex_at = surf_at = 0
    morph_idx = [0] * n
    for ri, rec in enumerate(records):
        lex_end = lex_at + len(rec.lex_seg)
        surf_end = surf_at + len(rec.surf_seg)
        yield (ri, rec, all_lex[:lex_at], all_surf[:surf_at],
               all_lex[lex_end:], all_surf[surf_end:], tuple(morph_idx))
        for tup in rec.lex_seg:
            for ti, sym in enumerate(tup):
                if sym == BOUNDARY:
                    morph_idx[ti] += 1
        lex_at, surf_at = lex_end, surf_end


def _match_surface(pats, syms, b, guards) -> Optional[dict]:
    if len(pats) != len(syms):
        return None
    for pat, sym in zip(pats, syms):
        b = match_slot(pat, sym, b, guards)
        if b is None:
            return None
    return b


def _left_contexts(rule, b, history, surface) -> Optional[dict]:
    b = match_context(rule.llc, history, b, rule.guards)
    if b is None:
        return None
    return match_context(rule.lsc, surface, b, rule.guards, lexical=False)


def flattened(history) -> Tuple[tuple, tuple]:
    """The lexical tuples and the surface an engine history node has
    consumed, read by walking its parents."""
    nodes = []
    while history is not None:
        nodes.append(history)
        history = history.parent
    nodes.reverse()
    return (tuple(t for n in nodes for t in n.lex_seg),
            tuple(s for n in nodes for s in n.surf_seg))


def match_left_contexts(plan, history, bindings) -> Optional[dict]:
    """The reference for engine._left_bindings: the plan's LLC, then its
    LSC, matched with grammar.match_context over the flattened history."""
    return _left_contexts(plan.rule, bindings, *flattened(history))


def _right_contexts(rule, b, rest_lex, rest_surf, n: int) -> Optional[dict]:
    """The RLC over the following tuples per tape, then the RSC flush
    against the following surface (the parser forbids ellipsis there)."""
    b = _match_rlc_posthoc(rule.rlc, rest_lex, b, rule.guards, n)
    if b is None:
        return None
    return match_context(rule.rsc, rest_surf[:len(rule.rsc)], b, rule.guards,
                         lexical=False)


def _feature_verdicts(rule, grammar, morphemes, morph_idx):
    """Per feature guard of `rule`: whether the morpheme its tape was
    reading has the feature, or None when that morpheme never committed."""
    for tape, attr, val in rule.guards.feats:
        seq = morphemes.get(tape, ())
        mi = morph_idx[TAPES.index(tape)]
        yield None if mi >= len(seq) else val in seq[mi].features.get(attr, ())


def check_obligatory(records, grammar, morphemes=None) -> List[Tuple[int, str]]:
    """Violations of obligatory rules over a complete partition.

    Returns (record index, rule name) pairs. Error-origin records are exempt.
    Feature guards are resolved against `morphemes` when given, else assumed
    satisfied.
    """
    n = len(TAPES)
    violations: List[Tuple[int, str]] = []
    for ri, rec, history, surface, rest_lex, rest_surf, morph_idx in \
            _partition_walk(records, n):
        if rec.error_origin is not None or not rec.lex_seg:
            continue
        for rule in grammar.obligatory_rules:
            if grammar.same_rule(rule.name, rec.rule_name):
                continue
            b = match_lex(rule.lex, rec.lex_seg, {}, rule.guards)
            if b is not None:
                b = _left_contexts(rule, b, history, surface)
            if b is not None:
                b = _right_contexts(rule, b, rest_lex, rest_surf, n)
            if b is None:
                continue
            if morphemes is not None and not all(
                    _feature_verdicts(rule, grammar, morphemes, morph_idx)):
                continue
            required = _emit_surface(rule.surf, b)
            if required is not None and tuple(required) != rec.surf_seg:
                violations.append((ri, rule.name))
    return violations


def check_licensed(records, grammar, morphemes) -> List[int]:
    """Indices of the non-error records of a complete partition that their
    own rule does not license: its lexical or surface expression, one of
    its four contexts, or a feature guard fails. A feature guard on a
    morpheme that never commits is not decided, so it does not fail."""
    n = len(TAPES)
    unlicensed: List[int] = []
    for ri, rec, history, surface, rest_lex, rest_surf, morph_idx in \
            _partition_walk(records, n):
        if rec.error_origin is not None:
            continue
        rule = grammar.plans[rec.rule_name].rule
        b = match_lex(rule.lex, rec.lex_seg, {}, rule.guards)
        if b is not None:
            b = _left_contexts(rule, b, history, surface)
        if b is not None:
            b = _match_surface(rule.surf, rec.surf_seg, b, rule.guards)
        if b is not None:
            b = _right_contexts(rule, b, rest_lex, rest_surf, n)
        if b is None or False in _feature_verdicts(rule, grammar, morphemes,
                                                  morph_idx):
            unlicensed.append(ri)
    return unlicensed


def _match_rlc_posthoc(pat, rest_lex: Sequence[tuple], bindings, guards,
                       n: int) -> Optional[dict]:
    """Right lexical context over the actual following tuples, per tape."""
    if pat == WILDCARD:
        return bindings
    streams: List[List[str]] = [[] for _ in range(n)]
    for tup in rest_lex:
        for ti, sym in enumerate(tup):
            if sym is not None:
                streams[ti].append(sym)
    b = dict(bindings)
    offsets = [0] * n
    for item in pat:
        for ti, slot in enumerate(item):
            if slot == EPS:
                continue
            if offsets[ti] >= len(streams[ti]):
                return None
            res = match_slot(slot, streams[ti][offsets[ti]], b, guards)
            if res is None:
                return None
            b = res
            offsets[ti] += 1
    return b


def _emit_surface(surf, bindings) -> Optional[List[str]]:
    """The surface a rule's surface expression spells under `bindings`."""
    out = []
    for pat in surf:
        if pat[0] == "lit":
            out.append(pat[1])
        elif pat[0] == "var" and pat[1] in bindings:
            out.append(bindings[pat[1]])
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# reference search (no failure table)


def reference_search(ctx, roots, error_step=None):
    """The engine's depth-first search without the failure table: every
    state is expanded. A drop-in for `engine._search`."""
    stack = [iter(roots)]
    while stack:
        try:
            state = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        if _complete(state):
            yield state
            continue
        stack.append(_successors(ctx, state, error_step))

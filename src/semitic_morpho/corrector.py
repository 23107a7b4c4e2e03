"""Error detection and correction layered on the engine.

Error rules fire where ordinary rules fail (depth-first backtracking tries
them at successively earlier points). A rule consumes its error surface from
the input, splices the corrected surface in its place — possibly as free
variables grounded later by normal lexical matching — and normal analysis
resumes at the same position. At most one error per word, except the
reapplying vowel-shift family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .alphabet import SymbolString
from .engine import (Analysis, ErrorApplication, FreeRef, PartitionRecord,
                     RecordObligation, SearchState, TapeState, TrieCursor,
                     _item_symbol, _SearchContext, _search, analyze,
                     is_optional_deletion, to_analysis)
from .grammar import (WILDCARD, ErrorRule, Grammar, match_partition_context,
                      match_record_pattern, match_slot)
from .lexicon import Lexicon


@dataclass(frozen=True)
class CorrectionCandidate:
    corrected_word: SymbolString
    analyses: Tuple[Analysis, ...]
    error_trace: Tuple[Tuple[str, int, Tuple[str, ...], Tuple[str, ...]], ...]
    rank_key: tuple

    @property
    def zero_error(self) -> bool:
        return not self.error_trace


def _deletion_rule_names(grammar: Grammar) -> frozenset:
    return frozenset(r.name for r in grammar.rules if is_optional_deletion(r))


def _budget_allows(state: SearchState, rule: ErrorRule) -> bool:
    if state.budget == 0:
        return True
    if state.budget == 1:
        return rule.reap
    return False


def _splice_corr(rule: ErrorRule, bindings) -> Tuple[tuple, ...]:
    """Resolve the corrected surface into remaining-surface items; unbound
    variables become FreeRefs shared across repeated occurrences."""
    items: List[tuple] = []
    refs: Dict[str, FreeRef] = {}
    for pat in rule.corr:
        if pat[0] == "lit":
            items.append(("spl", pat[1]))
            continue
        name = pat[1]
        val = bindings.get(name)
        if val is not None:
            items.append(("spl", val))
            continue
        ref = refs.get(name)
        if ref is None:
            excluded: List[str] = []
            for v, other, other_is_var in rule.guards.diseq:
                if v == name:
                    tgt = bindings.get(other) if other_is_var else other
                    if tgt is not None:
                        excluded.append(tgt)
                elif other_is_var and other == name:
                    tgt = bindings.get(v)
                    if tgt is not None:
                        excluded.append(tgt)
            ref = FreeRef(rule.guards.domain(name), tuple(excluded))
            refs[name] = ref
        items.append(("free", ref))
    return tuple(items)


def try_error_rules(ctx: _SearchContext, state: SearchState) -> List[SearchState]:
    """Successor states obtained by applying one error rule at this state."""
    if state.remaining is None:
        return []
    grammar = ctx.grammar
    if ctx.max_positions is not None and \
       ctx.deepest - state.pos >= ctx.max_positions:
        return []
    out: List[SearchState] = []
    free_map = state.free_map()
    for rule in grammar.erules:
        if not _budget_allows(state, rule):
            continue
        b = match_partition_context(rule.plc, state.records, "left", {},
                                    rule.guards, names_equal=grammar.same_rule)
        if b is None:
            continue
        # match the error surface against the input at this position
        consumed: List[str] = []
        orig = 0
        ok = True
        for i, pat in enumerate(rule.err):
            if i >= len(state.remaining):
                ok = False
                break
            item = state.remaining[i]
            sym = _item_symbol(item, free_map)
            if sym is None:
                ok = False
                break
            res = match_slot(pat, sym, b, rule.guards)
            if res is None:
                ok = False
                break
            b = res
            consumed.append(sym)
            if isinstance(item, str):
                orig += 1
        if not ok:
            continue
        nonconsuming = not consumed
        if nonconsuming and state.last_nonconsuming:
            continue
        splice = _splice_corr(rule, b)
        record = PartitionRecord(rule_name=rule.name, surf_seg=(), lex_seg=(),
                                 error_origin=rule.name,
                                 err_seg=tuple(consumed), pos=state.pos)
        rec_obls: List[RecordObligation] = []
        violated = False
        for ro in state.record_obls:
            rb = match_record_pattern(ro.patterns[0], record, dict(ro.bindings),
                                      ro.guards, grammar.same_rule)
            if rb is None:
                violated = True
                break
            if ro.patterns[1:]:
                rec_obls.append(RecordObligation(ro.patterns[1:],
                                                 tuple(sorted(rb.items())),
                                                 ro.guards))
        if violated:
            continue
        if rule.prc != WILDCARD:
            rec_obls.append(RecordObligation(tuple(rule.prc),
                                             tuple(sorted(b.items())),
                                             rule.guards))
        app = ErrorApplication(rule.name, state.pos, tuple(consumed),
                               tuple(s[1] for s in splice))
        out.append(SearchState(
            tapes=state.tapes,
            remaining=splice + state.remaining[len(rule.err):],
            records=state.records + (record,),
            lex_tuples=state.lex_tuples,
            surface_out=state.surface_out,
            free_vars=state.free_vars,
            obligations=state.obligations,
            watches=state.watches,
            record_obls=tuple(rec_obls),
            budget=1 if rule.reap else 2,
            error_apps=state.error_apps + (app,),
            pos=state.pos + orig,
            lex_run=state.lex_run,
            last_nonconsuming=nonconsuming,
        ))
    return out


def ground_variable(state: SearchState, grammar: Grammar,
                    lexicon: Lexicon) -> List[Tuple[str, SearchState]]:
    """Ground the free variable at the head of the remaining surface.

    One successor per symbol reachable by an applicable two-level rule whose
    lexical side can extend along the lexicon trees — lexically impossible
    correction characters are never considered.
    """
    from .engine import step

    if state.remaining is None or not state.remaining:
        return []
    head = state.remaining[0]
    if isinstance(head, str) or head[0] != "free":
        return []
    ref = head[1]
    out = []
    for succ in step(state, grammar, lexicon):
        bound = dict(succ.free_vars).get(ref.ref_id)
        if bound is not None:
            out.append((bound, succ))
    return out


def rank_key(grammar: Grammar, errors: Sequence, corrected: SymbolString) -> tuple:
    """Total order: fewest error events (a reap chain is one), deepest
    first-error position (backtracking reaches the failure frontier first
    and retreats to successively earlier points), grammar order of the
    first error rule, then the word."""
    if not errors:
        return (0, 1, -1, corrected)
    reap_names = {r.name for r in grammar.erules if r.reap}
    events = 0
    if any(e[0] in reap_names for e in errors):
        events += 1
    events += sum(1 for e in errors if e[0] not in reap_names)
    first = errors[0]
    return (events, -first[1],
            grammar.erule_index[grammar.canonical(first[0])], corrected)


def rank(grammar: Grammar,
         cands: Sequence[CorrectionCandidate]) -> List[CorrectionCandidate]:
    return sorted(cands, key=lambda c: c.rank_key)


def regenerate(analysis: Analysis, grammar: Grammar, lexicon: Lexicon,
               skip_rules: frozenset) -> Optional[SymbolString]:
    """Canonical surface of an analysis: rerun the rule relation over the
    analysis' own morpheme sequences with an open surface tape."""
    from .engine import ScriptCursor, _SearchContext, _search

    ctx = _SearchContext(grammar, lexicon, allow_errors=False,
                         skip_rules=skip_rules)
    ctx.generation = True
    initial = SearchState(
        tapes=tuple(TapeState(cursor=ScriptCursor(analysis.morphemes.get(t, ())))
                    for t in grammar.tapes),
        remaining=None,
    )
    for s in _search(ctx, initial):
        return s.surface_out
    return None


def iter_corrections(word: SymbolString, grammar: Grammar, lexicon: Lexicon,
                     max_positions: Optional[int] = None
                     ) -> Iterator[CorrectionCandidate]:
    """Yield correction candidates lazily in search order.

    A corrected word is yielded when first reached and again whenever a
    better-ranked error path to it turns up; correct() is the ranked,
    deduplicated front end. If the word already analyzes, only the
    zero-error candidate is yielded.
    """
    base = analyze(word, grammar, lexicon)
    if base:
        yield CorrectionCandidate(corrected_word=tuple(word),
                                  analyses=tuple(base), error_trace=(),
                                  rank_key=(0, 1, -1, tuple(word)))
        return
    skip = _deletion_rule_names(grammar)
    ctx = _SearchContext(grammar, lexicon, allow_errors=True,
                         max_positions=max_positions)
    initial = SearchState(
        tapes=tuple(TapeState(cursor=TrieCursor(lexicon.tree(t)))
                    for t in grammar.tapes),
        remaining=tuple(word),
    )
    seen: Dict[SymbolString, tuple] = {}
    analysis_cache: Dict[SymbolString, tuple] = {}
    # regenerated surfaces by morpheme selection, each entry named by id and
    # form (an id alone may repeat on a tape)
    regenerated: Dict[tuple, Optional[SymbolString]] = {}
    for final in _search(ctx, initial, error_step=try_error_rules):
        if not final.error_apps:
            continue
        partial = to_analysis(ctx, final)
        selection = tuple(tuple((e.id, e.form) for e in partial.morphemes[t])
                          for t in grammar.tapes)
        if selection not in regenerated:
            regenerated[selection] = regenerate(partial, grammar, lexicon,
                                                skip)
        corrected = regenerated[selection]
        if corrected is None:
            continue
        if corrected in analysis_cache:
            verified = analysis_cache[corrected]
        else:
            verified = tuple(analyze(corrected, grammar, lexicon))
            analysis_cache[corrected] = verified
        if not verified:
            continue
        key = rank_key(grammar, partial.errors, corrected)
        held = seen.get(corrected)
        if held is not None and held <= key:
            continue
        seen[corrected] = key
        yield CorrectionCandidate(corrected_word=corrected, analyses=verified,
                                  error_trace=partial.errors, rank_key=key)


def correct(word: SymbolString, grammar: Grammar, lexicon: Lexicon,
            max_candidates: Optional[int] = 32,
            max_positions: Optional[int] = None) -> List[CorrectionCandidate]:
    """Ordered correction candidates for a word.

    If the word already analyzes, it is returned unchanged as the sole
    zero-error candidate. Otherwise the search is rerun with error rules
    enabled; each complete partition is regenerated to its fully vocalised
    surface, deduplicated by corrected word (best error trace kept), and
    ranked.
    """
    best: Dict[SymbolString, CorrectionCandidate] = {}
    for cand in iter_corrections(word, grammar, lexicon,
                                 max_positions=max_positions):
        best[cand.corrected_word] = cand
        if max_candidates is not None and len(best) >= max_candidates:
            break
    return rank(grammar, best.values())

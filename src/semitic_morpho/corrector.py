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
from .engine import (Analysis, FreeRef, Obligation, PartitionRecord,
                     SearchState, _feed_obligations, _SearchContext, _search,
                     _unread, analysis_start, analyze,
                     optional_deletion_rules, scripted_surfaces, to_analysis)
from .grammar import (WILDCARD, ErrorRule, Grammar, match_partition_context,
                      match_slot)
# unused here: perfbench/tracing.py wraps this name (PRCs feed in engine)
from .grammar import match_record_pattern  # noqa: F401
from .lexicon import TAPES, Lexicon


@dataclass(frozen=True)
class CorrectionCandidate:
    corrected_word: SymbolString
    analyses: Tuple[Analysis, ...]
    error_trace: Tuple[Tuple[str, int, Tuple[str, ...], Tuple[str, ...]], ...]
    rank_key: tuple

    @property
    def zero_error(self) -> bool:
        return not self.error_trace


def _budget_allows(state: SearchState, rule: ErrorRule) -> bool:
    if state.budget == 0:
        return True
    if state.budget == 1:
        return rule.reap
    return False


def _splice_corr(rule: ErrorRule, bindings) -> Tuple[object, ...]:
    """Resolve the corrected surface into symbols to splice; unbound
    variables become FreeRefs shared across repeated occurrences."""
    items: List[object] = []
    refs: Dict[str, FreeRef] = {}
    for pat in rule.corr:
        val = pat[1] if pat[0] == "lit" else bindings.get(pat[1])
        if val is not None:
            items.append(val)
            continue
        name = pat[1]
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
        items.append(ref)
    return tuple(items)


def try_error_rules(ctx: _SearchContext, state: SearchState) -> List[SearchState]:
    """Successor states obtained by applying one error rule at this state."""
    if state.word is None:
        return []
    grammar = ctx.grammar
    if ctx.max_positions is not None and \
       ctx.deepest - state.pos >= ctx.max_positions:
        return []
    out: List[SearchState] = []
    for rule in grammar.erules:
        if not _budget_allows(state, rule):
            continue
        b = match_partition_context(rule.plc, state.records, {}, rule.guards,
                                    names_equal=grammar.same_rule)
        if b is None:
            continue
        # match the error surface against the unread surface; an
        # ungrounded FreeRef matches nothing
        consumed = _unread(state, len(rule.err))
        if consumed is None or any(isinstance(sym, FreeRef)
                                   for sym in consumed):
            continue
        for pat, sym in zip(rule.err, consumed):
            b = match_slot(pat, sym, b, rule.guards)
            if b is None:
                break
        if b is None:
            continue
        nonconsuming = not consumed
        if nonconsuming and state.last_nonconsuming:
            continue
        splice = _splice_corr(rule, b)
        record = PartitionRecord(rule_name=rule.name, surf_seg=(), lex_seg=(),
                                 error_origin=rule.name,
                                 err_seg=consumed, pos=state.pos, corr=splice)
        # an error record has no tape or surface material: it advances only
        # the pending PRCs
        pending = _feed_obligations(ctx, state.obligations,
                                    ((),) * len(TAPES), (), record)
        if pending is None:
            continue
        if rule.prc != WILDCARD:
            pending.append(Obligation(((),) * (len(TAPES) + 1),
                                      tuple(sorted(b.items())), rule.guards,
                                      (), records=tuple(rule.prc)))
        out.append(SearchState(
            tapes=state.tapes,
            word=state.word,
            spliced=splice + state.spliced[len(rule.err):],
            records=state.records + (record,),
            lex_tuples=state.lex_tuples,
            surface_out=state.surface_out,
            free_vars=state.free_vars,
            obligations=tuple(pending),
            budget=1 if rule.reap else 2,
            pos=state.pos + max(0, len(rule.err) - len(state.spliced)),
            lex_run=state.lex_run,
            last_nonconsuming=nonconsuming,
        ))
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
    return next(scripted_surfaces(analysis.morphemes, grammar, lexicon,
                                  skip_rules), None)


def _check_bound(name: str, bound: Optional[int]) -> None:
    if bound is not None and bound < 1:
        raise ValueError(f"{name} must be at least 1 or None, not {bound!r}")


def iter_corrections(word: SymbolString, grammar: Grammar, lexicon: Lexicon,
                     max_positions: Optional[int] = None
                     ) -> Iterator[CorrectionCandidate]:
    """Yield correction candidates lazily in search order.

    A corrected word is yielded when first reached and again whenever a
    better-ranked error path to it turns up; correct() is the ranked,
    deduplicated front end. If the word already analyzes, only the
    zero-error candidate is yielded. max_positions is None (unbounded) or
    at least 1; ValueError otherwise.
    """
    _check_bound("max_positions", max_positions)
    base = analyze(word, grammar, lexicon)
    if base:
        yield CorrectionCandidate(corrected_word=tuple(word),
                                  analyses=tuple(base), error_trace=(),
                                  rank_key=rank_key(grammar, (), tuple(word)))
        return
    skip = optional_deletion_rules(grammar)
    ctx = _SearchContext(grammar, lexicon, max_positions=max_positions)
    seen: Dict[SymbolString, tuple] = {}
    analysis_cache: Dict[SymbolString, tuple] = {}
    # regenerated surfaces by morpheme selection, each entry named by id and
    # form (an id alone may repeat on a tape)
    regenerated: Dict[tuple, Optional[SymbolString]] = {}
    for final in _search(ctx, analysis_start(grammar, lexicon, word),
                         error_step=try_error_rules):
        if final.budget == 0:
            continue
        partial = to_analysis(ctx, final)
        selection = tuple(tuple((e.id, e.form) for e in entries)
                          for entries in partial.morphemes.values())
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
    ranked. Each bound is None (unbounded) or at least 1; ValueError
    otherwise.
    """
    _check_bound("max_candidates", max_candidates)
    best: Dict[SymbolString, CorrectionCandidate] = {}
    for cand in iter_corrections(word, grammar, lexicon,
                                 max_positions=max_positions):
        best[cand.corrected_word] = cand
        if max_candidates is not None and len(best) >= max_candidates:
            break
    return rank(grammar, best.values())

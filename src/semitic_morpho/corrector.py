"""Error detection and correction layered on the engine.

Error rules fire where ordinary rules fail: first at the failure point, the
deepest input position the error-free search reaches, then at successively
earlier points. A rule consumes its error surface from the input, splices
the corrected surface in its place — possibly as free variables grounded
later by normal lexical matching — and normal analysis resumes at the same
position. At most one error per word, except the reapplying vowel-shift
family, whose chain takes at most one error at each input position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import engine
from .alphabet import SymbolString
from .engine import (Analysis, FreeRef, Obligation, PartitionRecord,
                     SearchState, _feed_obligations, _SearchContext, _search,
                     _unread, analysis_start, optional_deletion_rules,
                     scripted_surfaces, step_memo, to_analysis)
from .engine import analyze as engine_analyze
from .grammar import (WILDCARD, ErrorRule, Grammar, match_partition_context,
                      match_tuple)
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
            ref = refs[name] = FreeRef(rule.guards.allowed.get(name),
                                       rule.guards.excluded(name, bindings))
        items.append(ref)
    return tuple(items)


def try_error_rules(ctx: _SearchContext, state: SearchState) -> List[SearchState]:
    """Successor states obtained by applying one error rule at this state.

    A successor that spends the budget is checked by the surface-fit
    lookahead right after its splice, and one that fails gets no
    obligation, record or state. The stem lookahead is not checked again:
    an error keeps the tapes, and this function sees only states whose
    tapes met it, those of the failure pass through _error_roots and those
    of the error search where they were made."""
    # budget 1 is a reap chain: it takes one error per input position, so
    # insertions cannot feed each other without bound
    if state.budget == 1 and any(r.error_origin is not None and
                                 r.pos == state.pos for r in state.records):
        return []
    grammar = ctx.grammar
    out: List[SearchState] = []
    for rule in grammar.erules:
        # budget 0 takes any error rule, 1 only reap rules, 2 none
        if state.budget and not (state.budget == 1 and rule.reap):
            continue
        b = match_partition_context(grammar.plcs[rule.name], state.records,
                                    {}, rule.guards, grammar.same_rule)
        if b is None:
            continue
        # match the error surface against the unread surface; an
        # ungrounded FreeRef matches nothing
        consumed = _unread(state, len(rule.err))
        if consumed is None or any(isinstance(sym, FreeRef)
                                   for sym in consumed):
            continue
        b = match_tuple(rule.err, consumed, b, rule.guards)
        if b is None:
            continue
        nonconsuming = not consumed
        if nonconsuming and state.last_nonconsuming:
            continue
        splice = _splice_corr(rule, b)
        spliced = splice + state.spliced[len(rule.err):]
        pos = state.pos + max(0, len(rule.err) - len(state.spliced))
        budget = 1 if rule.reap else 2
        # no error is to come once the budget is spent (engine._search), so
        # the whole surface is fixed: what was consumed, then the rest
        held = None
        if budget == 2:
            held = engine._held(ctx, state.word, pos,
                                engine._surface(state.records) + spliced)
            if not engine._surface_fits(ctx, state.tapes, state.word, pos,
                                        spliced, held):
                continue
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
            spliced=spliced,
            records=state.records + (record,),
            history=state.history,
            free_vars=state.free_vars,
            obligations=tuple(pending),
            budget=budget,
            pos=pos,
            lex_run=state.lex_run,
            last_nonconsuming=nonconsuming,
            held=held,
        ))
    return out


def rank_key(grammar: Grammar, errors: Sequence, corrected: SymbolString) -> tuple:
    """Total order: fewest error events (a reap chain is one), deepest
    first-error position (error rules are tried at the failure point
    first, then at successively earlier points), grammar order of the
    first error rule, then the word."""
    if not errors:
        return (0, 1, -1, corrected)
    reap_names = {r.name for r in grammar.erules if r.reap}
    events = (any(e[0] in reap_names for e in errors)
              + sum(e[0] not in reap_names for e in errors))
    first = errors[0]
    return (events, -first[1],
            grammar.erule_index[grammar.canonical(first[0])], corrected)


def analyze(word: SymbolString, grammar: Grammar,
            lexicon: Lexicon) -> Tuple[Analysis, ...]:
    """engine.analyze for correction's base analysis and verifications,
    kept per word in the step memo (StepMemo.words) when it finds one."""
    words = step_memo(grammar, lexicon).words
    word = tuple(word)
    analyses = words.get(word)
    if analyses is None:
        analyses = tuple(engine_analyze(word, grammar, lexicon))
        if analyses:
            words[word] = analyses
    return analyses


def regenerate(analysis: Analysis, grammar: Grammar, lexicon: Lexicon,
               skip_rules: frozenset) -> Optional[SymbolString]:
    """Canonical surface of an analysis: rerun the rule relation over the
    analysis' own morpheme sequences with an open surface tape. It is kept
    per selection in the step memo (StepMemo.surfaces)."""
    surfaces = step_memo(grammar, lexicon).surfaces
    key = (tuple(tuple(e.id for e in analysis.morphemes.get(tape, ()))
                 for tape in TAPES), skip_rules)
    if key not in surfaces:
        surfaces[key] = next(scripted_surfaces(
            analysis.morphemes, grammar, lexicon, skip_rules), None)
    return surfaces[key]


def _check_bound(name: str, bound: Optional[int]) -> None:
    if bound is not None and bound < 1:
        raise ValueError(f"{name} must be at least 1 or None, not {bound!r}")


def _error_roots(ctx: _SearchContext, frontier: Dict[int, List[SearchState]],
                 max_positions: Optional[int]) -> Iterator[SearchState]:
    """Error successors of the recorded states, from the failure point down
    to 0 or through max_positions positions; at each, by error rule.

    A state the stem lookahead rules out gets no error rule: an error
    successor keeps its tapes, so the search would drop it at once. It
    still counts for the failure point, which `frontier` fixes."""
    point = max(frontier, default=0)
    stop = -1 if max_positions is None else max(-1, point - max_positions)
    for pos in range(point, stop, -1):
        yield from sorted((succ for state in frontier.get(pos, ())
                           if engine._stems_meet(ctx, state.tapes)
                           for succ in try_error_rules(ctx, state)),
                          key=lambda s: ctx.grammar.erule_index[
                              s.records[-1].rule_name])


def iter_corrections(word: SymbolString, grammar: Grammar, lexicon: Lexicon,
                     max_positions: Optional[int] = None
                     ) -> Iterator[CorrectionCandidate]:
    """Yield correction candidates lazily, each corrected word once, by
    nondecreasing `rank_key[:3]`.

    If the word already analyzes, only the zero-error candidate is yielded.
    Otherwise phase 1 reruns the error-free search, recording its states by
    input position; the deepest is the failure point. Its states have
    budget 0 in a search with an error step, which no lookahead prunes
    (engine._search), since they would leave some states out.
    Phase 2 searches from their error successors (`_error_roots`). A path
    is one error event whose first record is its root, so the first path to
    a word carries its final rank key. Each new selection is regenerated
    and each new corrected word verified through `regenerate` and
    `analyze`, which keep their results in the step memo. max_positions
    (None, or at least 1; ValueError otherwise) keeps the positions p with
    failure point - p < max_positions.
    """
    _check_bound("max_positions", max_positions)
    base = analyze(word, grammar, lexicon)
    if base:
        yield CorrectionCandidate(corrected_word=tuple(word),
                                  analyses=tuple(base), error_trace=(),
                                  rank_key=rank_key(grammar, (), tuple(word)))
        return
    skip = optional_deletion_rules(grammar)
    ctx = _SearchContext(grammar, lexicon)
    frontier: Dict[int, List[SearchState]] = {}

    def record(ctx: _SearchContext, state: SearchState) -> Tuple[()]:
        frontier.setdefault(state.pos, []).append(state)
        return ()

    for _ in _search(ctx, [analysis_start(grammar, lexicon, word)],
                     error_step=record):
        pass
    # morpheme selections (by id: an id names one entry on a tape) and
    # corrected words seen: a later path to either ranks no better
    selections, checked = set(), set()
    for final in _search(ctx, _error_roots(ctx, frontier, max_positions),
                         error_step=try_error_rules):
        selection = tuple(tuple(e.id for e in tape.morphemes)
                          for tape in final.tapes)
        if selection in selections:
            continue
        selections.add(selection)
        partial = to_analysis(ctx, final)
        corrected = regenerate(partial, grammar, lexicon, skip)
        if corrected is None or corrected in checked:
            continue
        checked.add(corrected)
        verified = tuple(analyze(corrected, grammar, lexicon))
        if verified:
            yield CorrectionCandidate(
                corrected_word=corrected, analyses=verified,
                error_trace=partial.errors,
                rank_key=rank_key(grammar, partial.errors, corrected))


def correct(word: SymbolString, grammar: Grammar, lexicon: Lexicon,
            max_candidates: Optional[int] = 32,
            max_positions: Optional[int] = None) -> List[CorrectionCandidate]:
    """The max_candidates best correction candidates for a word, ranked.

    If the word already analyzes, it is returned unchanged as the sole
    zero-error candidate. Otherwise iter_corrections is read until
    max_candidates are held and the next ranks worse up to the word, which
    is exact. Each bound is None (unbounded) or at least 1; ValueError
    otherwise.
    """
    _check_bound("max_candidates", max_candidates)
    taken: List[CorrectionCandidate] = []
    for cand in iter_corrections(word, grammar, lexicon,
                                 max_positions=max_positions):
        if max_candidates is not None and len(taken) >= max_candidates \
           and cand.rank_key[:3] != taken[-1].rank_key[:3]:
            break
        taken.append(cand)
    taken.sort(key=lambda c: c.rank_key)
    return taken[:max_candidates]

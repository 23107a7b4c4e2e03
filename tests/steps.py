"""Single search steps, for tests that walk a partition record by record,
and the successors a search makes where they are checked."""

from __future__ import annotations

from typing import List, Optional, Tuple

from semitic_morpho import corrector, engine, load_builtin
from semitic_morpho.alphabet import decode
from semitic_morpho.engine import (FreeRef, SearchState, _SearchContext,
                                   _successors)


def step(state: SearchState, grammar, lexicon,
         ctx: Optional[_SearchContext] = None) -> List[SearchState]:
    """Ordinary-rule successors of a state, in search order, as a search
    with an error step makes them: no lookahead cuts a successor with no
    error applied, as in correction's error-free pass, so a walk can follow
    a misspelt word up to its error (engine._search)."""
    if ctx is None:
        ctx = _SearchContext(grammar, lexicon)
    return list(_successors(ctx, state, _no_error))


def _no_error(ctx: _SearchContext, state: SearchState) -> List[SearchState]:
    return []


def ground_variable(state: SearchState, grammar,
                    lexicon) -> List[Tuple[str, SearchState]]:
    """(symbol, successor) for each way an ordinary rule grounds the free
    variable at the head of the unread surface: only symbols the lexicon
    tries can extend to are offered."""
    ref = state.spliced[0] if state.spliced else None
    if not isinstance(ref, FreeRef):
        return []
    out = []
    for succ in step(state, grammar, lexicon):
        bound = dict(succ.free_vars).get(ref.ref_id)
        if bound is not None:
            out.append((bound, succ))
    return out


def successors_made(monkeypatch, patch, words) -> Tuple[List[int],
                                                       List[int]]:
    """The successors engine.apply_rule yields and corrector.try_error_rules
    returns, the two places successors are made and checked, over
    `correct` of each word: ([apply_rule's, try_error_rules'] as it is,
    the same with `patch(monkeypatch)` applied). Each correction runs on a
    fresh pair, so that the step memo hands no run another's work."""
    counts = [0, 0]
    apply_rule, try_error_rules = engine.apply_rule, corrector.try_error_rules

    def counted_rule(ctx, state, rule):
        for succ in apply_rule(ctx, state, rule):
            counts[0] += 1
            yield succ

    def counted_errors(ctx, state):
        succs = try_error_rules(ctx, state)
        counts[1] += len(succs)
        return succs

    monkeypatch.setattr(engine, "apply_rule", counted_rule)
    monkeypatch.setattr(corrector, "try_error_rules", counted_errors)
    made = []
    for patched in (False, True):
        if patched:
            patch(monkeypatch)
        counts[:] = [0, 0]
        for word in words:
            corrector.correct(decode(word), *load_builtin()[:2])
        made.append(list(counts))
    return made[0], made[1]

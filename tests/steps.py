"""Single search steps, for tests that walk a partition record by record."""

from __future__ import annotations

from typing import List, Optional, Tuple

from semitic_morpho.engine import (FreeRef, SearchState, _SearchContext,
                                   _successors)


def step(state: SearchState, grammar, lexicon,
         ctx: Optional[_SearchContext] = None) -> List[SearchState]:
    """Ordinary-rule successors of a state, in search order."""
    if ctx is None:
        ctx = _SearchContext(grammar, lexicon)
    return list(_successors(ctx, state, None))


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

"""Single search steps, for tests that walk a partition record by record."""

from __future__ import annotations

from typing import List, Optional, Tuple

from semitic_morpho.engine import SearchState, _SearchContext, _successors


def step(state: SearchState, grammar, lexicon,
         ctx: Optional[_SearchContext] = None) -> List[SearchState]:
    """Ordinary-rule successors of a state, in search order."""
    if ctx is None:
        ctx = _SearchContext(grammar, lexicon)
    return list(_successors(ctx, state, None))


def ground_variable(state: SearchState, grammar,
                    lexicon) -> List[Tuple[str, SearchState]]:
    """(symbol, successor) for each way an ordinary rule grounds the free
    variable at the head of the remaining surface: only symbols the lexicon
    tries can extend to are offered."""
    if not state.remaining:
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

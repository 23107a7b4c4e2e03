"""Two-level interpreter: partition search over one surface and n lexical tapes.

Analysis aligns a known surface string with paths through the lexicon trees;
generation runs the same rule relation with scripted tapes and an open
surface. Right contexts and obligatory-rule coercions are enforced as
deferred obligations fed by subsequently consumed material, so they hold
against the actual continuation rather than an existential lexicon walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .alphabet import BOUNDARY, SymbolString, slot_index
from .features import FeatureStructure, restrict, unify_all
from .grammar import (EPS, WILDCARD, Bindings, Grammar, Guards, LexTuple,
                      RecordPattern, RulePlan, TwoLevelRule, match_context,
                      match_lex, match_record_pattern, match_slot)
from .lexicon import Lexicon, LexiconTree, MorphemeEntry, Node


class EngineError(Exception):
    pass


class UnknownMorpheme(EngineError):
    pass


class UnsupportedInGeneration(EngineError):
    pass


@dataclass(frozen=True)
class PartitionRecord:
    rule_name: str
    surf_seg: Tuple[str, ...]            # corrected-surface content
    lex_seg: Tuple[LexTuple, ...]        # consumed lexical tuples
    error_origin: Optional[str] = None
    err_seg: Tuple[str, ...] = ()        # original error surface consumed
    pos: int = 0                         # original-surface offset of the record


@dataclass(frozen=True)
class ErrorApplication:
    rule: str
    pos: int
    err: Tuple[str, ...]
    corr: Tuple[object, ...]             # symbols or FreeRef placeholders

    def resolved_corr(self, free_vars: Dict[int, str]) -> Tuple[str, ...]:
        out = []
        for item in self.corr:
            if isinstance(item, FreeRef):
                out.append(free_vars.get(item.ref_id, "?"))
            else:
                out.append(item)
        return tuple(out)


class FreeRef:
    """An ungrounded corrected-surface symbol awaiting lexicon grounding."""

    __slots__ = ("ref_id", "domain", "excluded")
    _counter = itertools.count()

    def __init__(self, domain: Optional[FrozenSet[str]], excluded: Tuple[str, ...]):
        self.ref_id = next(self._counter)
        self.domain = domain
        self.excluded = excluded

    def admits(self, sym: str) -> bool:
        if self.domain is not None and sym not in self.domain:
            return False
        return sym not in self.excluded


# Remaining-surface items: a plain str is an original input symbol,
# ("spl", sym) a spliced corrected symbol, ("free", ref) an ungrounded one.
# A FreeRef is grounded in place: once a rule grounds it, every remaining
# occurrence becomes ("spl", sym).
def _item_symbol(item) -> Optional[str]:
    if isinstance(item, str):
        return item
    if item[0] == "spl":
        return item[1]
    return None


def _ground(items: Tuple[object, ...], grounded: Dict[int, str]) -> tuple:
    """`items` with every FreeRef in `grounded` (ref id -> symbol) replaced
    by its spliced symbol."""
    return tuple(("spl", grounded[it[1].ref_id])
                 if not isinstance(it, str) and it[0] == "free"
                 and it[1].ref_id in grounded else it for it in items)


# ---------------------------------------------------------------------------
# tape cursors


class TrieCursor:
    __slots__ = ("tree", "node")

    def __init__(self, tree: LexiconTree, node: Optional[Node] = None):
        self.tree = tree
        self.node = node if node is not None else tree.root

    def edges(self) -> Dict[str, Node]:
        return self.node.edges

    def advance(self, sym: str) -> Optional["TrieCursor"]:
        child = self.node.edges.get(sym)
        return TrieCursor(self.tree, child) if child is not None else None

    def terminal_entries(self) -> List[MorphemeEntry]:
        return self.node.entries

    @property
    def depth(self) -> int:
        return self.node.depth

    def done(self) -> bool:
        """At a morpheme boundary: no morpheme is half read."""
        return self.node is self.tree.root

    def reset(self) -> "TrieCursor":
        return TrieCursor(self.tree)


class ScriptCursor:
    """Cursor over a fixed sequence of morpheme entries (generation mode)."""

    __slots__ = ("entries", "ei", "off")

    def __init__(self, entries: Tuple[MorphemeEntry, ...], ei: int = 0, off: int = 0):
        self.entries = entries
        self.ei = ei
        self.off = off

    def edges(self) -> Dict[str, "ScriptCursor"]:
        if self.ei >= len(self.entries):
            return {}
        form = self.entries[self.ei].form
        if self.off >= len(form):
            return {}
        return {form[self.off]: ScriptCursor(self.entries, self.ei, self.off + 1)}

    def advance(self, sym: str) -> Optional["ScriptCursor"]:
        return self.edges().get(sym)

    def terminal_entries(self) -> List[MorphemeEntry]:
        if self.ei < len(self.entries) and self.off == len(self.entries[self.ei].form):
            return [self.entries[self.ei]]
        return []

    @property
    def depth(self) -> int:
        return self.off

    def done(self) -> bool:
        """Every scripted morpheme has been read."""
        return self.ei >= len(self.entries) and self.off == 0

    def reset(self) -> "ScriptCursor":
        return ScriptCursor(self.entries, self.ei + 1, 0)


@dataclass(frozen=True)
class TapeState:
    cursor: object
    morphemes: Tuple[MorphemeEntry, ...] = ()
    pending_feats: Tuple[Tuple[str, str], ...] = ()   # (attr, value) requirements


# ---------------------------------------------------------------------------
# deferred obligations

@dataclass(frozen=True)
class Obligation:
    """Pending right-lexical-context of an applied rule: per-tape symbol
    pattern queues that upcoming tape consumption must satisfy."""

    queues: Tuple[Tuple[tuple, ...], ...]
    bindings: Tuple[Tuple[str, str], ...]
    guards: Guards

    def done(self) -> bool:
        return all(not q for q in self.queues)


@dataclass(frozen=True)
class CoercionWatch:
    """A potential violation of an obligatory rule, pending its right
    contexts and feature requirements. If everything completes, the branch
    is pruned."""

    rule_name: str
    queues: Tuple[Tuple[tuple, ...], ...]
    surf_queue: Tuple[tuple, ...]
    bindings: Tuple[Tuple[str, str], ...]
    guards: Guards
    feats: Tuple[Tuple[str, str, str, int], ...]   # (tape, attr, val, morpheme_idx)

    def contexts_done(self) -> bool:
        return all(not q for q in self.queues) and not self.surf_queue


@dataclass(frozen=True)
class RecordObligation:
    """PRC of an error rule: patterns the next record(s) must satisfy."""

    patterns: Tuple[RecordPattern, ...]
    bindings: Tuple[Tuple[str, str], ...]
    guards: Guards


def _feed_queues(queues, consumed, bindings: Dict[str, str], guards: Guards):
    """Advance per-tape pattern queues over consumed symbols.

    Returns (new_queues, new_bindings) or None on mismatch. `consumed` is a
    sequence of per-tape symbol tuples for this record.
    """
    new_queues = []
    b = dict(bindings)
    for q, syms in zip(queues, consumed):
        q = list(q)
        for sym in syms:
            if not q:
                continue
            res = match_slot(q[0], sym, b, guards)
            if res is None:
                return None
            b = res
            q.pop(0)
        new_queues.append(tuple(q))
    return tuple(new_queues), b


# ---------------------------------------------------------------------------
# search state


@dataclass(frozen=True)
class SearchState:
    tapes: Tuple[TapeState, ...]
    remaining: Optional[Tuple[object, ...]]          # None in generation mode
    records: Tuple[PartitionRecord, ...] = ()
    lex_tuples: Tuple[LexTuple, ...] = ()            # non-empty lex history
    surface_out: Tuple[str, ...] = ()                # corrected surface so far
    free_vars: Tuple[Tuple[int, str], ...] = ()      # (ref id, symbol) log
    obligations: Tuple[Obligation, ...] = ()
    watches: Tuple[CoercionWatch, ...] = ()
    record_obls: Tuple[RecordObligation, ...] = ()
    budget: int = 0                                   # 0 none, 1 reap chain, 2 spent
    error_apps: Tuple[ErrorApplication, ...] = ()
    pos: int = 0                                      # original symbols consumed
    lex_run: int = 0                                  # lexical-only progress
    last_nonconsuming: bool = False


@dataclass(frozen=True)
class StemInfo:
    pattern: MorphemeEntry
    root: MorphemeEntry
    vocalism: MorphemeEntry
    features: FeatureStructure


@dataclass(frozen=True)
class Analysis:
    surface: SymbolString                            # corrected surface
    records: Tuple[PartitionRecord, ...]
    morphemes: Dict[str, Tuple[MorphemeEntry, ...]]
    stems: Tuple[StemInfo, ...]
    errors: Tuple[Tuple[str, int, Tuple[str, ...], Tuple[str, ...]], ...]

    @property
    def rule_trace(self) -> Tuple[str, ...]:
        return tuple(r.rule_name for r in self.records)

    def affixes(self) -> Tuple[MorphemeEntry, ...]:
        return tuple(e for e in self.morphemes["pattern"]
                     if e.kind in ("prefix", "suffix"))


def is_optional_deletion(rule: TwoLevelRule) -> bool:
    """True for rules that silently consume non-boundary lexical material
    (the optional-vocalisation deletions skipped by full_vocalised output)."""
    if rule.surf:
        return False
    for tup in rule.lex:
        for slot in tup:
            if slot == EPS:
                continue
            if slot == ("lit", BOUNDARY):
                continue
            return True
    return False


def optional_deletion_rules(grammar: Grammar) -> FrozenSet[str]:
    """Names of the grammar's optional-deletion rules: the skip_rules that
    give fully vocalised generation."""
    return frozenset(r.name for r in grammar.rules if is_optional_deletion(r))


class _SearchContext:
    """Shared knobs and mutable frontier info for one search."""

    def __init__(self, grammar: Grammar, lexicon: Lexicon,
                 skip_rules: FrozenSet[str] = frozenset(),
                 max_positions: Optional[int] = None):
        self.grammar = grammar
        self.lexicon = lexicon
        self.skip_rules = skip_rules
        self.max_positions = max_positions
        self.deepest = 0
        self.lex_cap = lexicon.max_entry_length() + 4
        self.n = len(grammar.tapes)
        self.tape_index = {t: i for i, t in enumerate(grammar.tapes)}
        # the compiled rules this search may apply, in grammar order
        self.plans = tuple(plan for name, plan in grammar.plans.items()
                           if name not in skip_rules)


# ---------------------------------------------------------------------------
# rule application


def _advance_tapes(ctx: _SearchContext, plan: RulePlan, state: SearchState,
                   bindings: Bindings):
    """Enumerate tape advances matching the rule's lexical expression.

    Advances come in the lexicographic order of the symbols taken, slot by
    slot (trie edges are kept sorted). A bound variable follows its one
    edge. Yields (cursors, consumed_per_tape, lex_tuples, bindings).
    """
    guards = plan.rule.guards
    walks = [([t.cursor for t in state.tapes], [None] * plan.width, bindings)]
    for flat, ti, tag, value, domain, aligned, named in plan.steps:
        taken = []
        for curs, syms, b in walks:
            cursor = curs[ti]
            if tag == "lit" or value in b:
                sym = value if tag == "lit" else b[value]
                child = cursor.advance(sym)
                choices = ((sym, child, b),) if child is not None else ()
            else:
                choices = []
                for sym in cursor.edges():
                    nb = b
                    if tag == "var":
                        if domain is not None and sym not in domain:
                            continue
                        if named and not guards.permits(value, sym, b):
                            continue
                        if aligned and not _indexes_next(curs, aligned, sym):
                            continue
                        nb = dict(b)
                        nb[value] = sym
                    choices.append((sym, cursor.advance(sym), nb))
            for sym, child, nb in choices:
                nc = list(curs)
                nc[ti] = child
                ns = list(syms)
                ns[flat] = sym
                taken.append((nc, ns, nb))
        walks = taken
        if not walks:
            return
    n = ctx.n
    for curs, syms, b in walks:
        consumed = tuple(tuple(s for s in syms[ti::n] if s is not None)
                         for ti in range(n))
        tuples = tuple(tuple(syms[k:k + n]) for k in range(0, len(syms), n))
        yield curs, consumed, tuples, b


def _indexes_next(cursors, tapes: Tuple[int, ...], sym: str) -> bool:
    """Does the slot symbol index the next position of each aligned tape?"""
    for ti in tapes:
        try:
            if slot_index(sym) != cursors[ti].depth + 1:
                return False
        except (ValueError, IndexError):
            return False
    return True


def _consume_surface(state: SearchState, surf: Tuple[tuple, ...],
                     bindings: Bindings, guards: Guards):
    """Match the rule's surface expression against the remaining surface.

    Returns (consumed_syms, orig_count, grounded, bindings) or None, where
    `grounded` maps the id of each FreeRef grounded along the way to its
    symbol.
    """
    remaining = state.remaining
    consumed: List[str] = []
    grounded: Dict[int, str] = {}
    orig = 0
    b = bindings
    for i, pat in enumerate(surf):
        if i >= len(remaining):
            return None
        item = remaining[i]
        sym = _item_symbol(item)
        if sym is None:
            ref = item[1]
            sym = grounded.get(ref.ref_id)
        if sym is None:                      # ungrounded FreeRef
            if pat[0] == "lit":
                val = pat[1]
            elif pat[0] == "var":
                val = b.get(pat[1])
                if val is None:
                    return None
            else:
                return None
            if not ref.admits(val):
                return None
            grounded[ref.ref_id] = val
            consumed.append(val)
        else:
            res = match_slot(pat, sym, b, guards)
            if res is None:
                return None
            b = res
            consumed.append(sym)
        if isinstance(item, str):
            orig += 1
    return consumed, orig, grounded, b


def _emit_surface(surf: Tuple[tuple, ...], bindings: Bindings):
    out = []
    for pat in surf:
        if pat[0] == "lit":
            out.append(pat[1])
        elif pat[0] == "var":
            val = bindings.get(pat[1])
            if val is None:
                return None
            out.append(val)
        else:
            return None
    return out


def _bind_slot(slot: tuple, bindings: Bindings) -> tuple:
    """A variable slot bound in `bindings` becomes its literal."""
    if slot[0] == "var" and slot[1] in bindings:
        return ("lit", bindings[slot[1]])
    return slot


def _rlc_to_queues(ctx: _SearchContext, pat, bindings: Bindings) -> Optional[Tuple]:
    """Decompose an RLC into per-tape pattern queues, substituting bound vars."""
    if pat == WILDCARD:
        return None
    queues: List[List[tuple]] = [[] for _ in range(ctx.n)]
    for item in pat:
        for ti, slot in enumerate(item):
            if slot != EPS:
                queues[ti].append(_bind_slot(slot, bindings))
    return tuple(tuple(q) for q in queues)


def _feed_deferred(state: SearchState, consumed, surf_syms: Sequence[str]):
    """Feed the state's obligations and coercion watches with this record's
    consumption. Returns (obligations, watches), or None if the branch dies."""
    # rule right-context obligations
    new_obls = []
    for obl in state.obligations:
        fed = _feed_queues(obl.queues, consumed, dict(obl.bindings), obl.guards)
        if fed is None:
            return None
        queues, b = fed
        if any(queues):
            new_obls.append(Obligation(queues, tuple(sorted(b.items())), obl.guards))

    # coercion watches, the surface queue fed after the tapes: a mismatch
    # kills the watch; completed watches are settled after the morpheme
    # commit
    new_watches = []
    for w in state.watches:
        fed = _feed_queues(w.queues + (w.surf_queue,),
                           tuple(consumed) + (surf_syms,), dict(w.bindings),
                           w.guards)
        if fed is None:
            continue
        queues, b = fed
        new_watches.append(CoercionWatch(w.rule_name, queues[:-1], queues[-1],
                                         tuple(sorted(b.items())), w.guards,
                                         w.feats))
    return tuple(new_obls), tuple(new_watches)


def _feed_record_obls(ctx: _SearchContext, state: SearchState,
                      record: PartitionRecord) -> Optional[List[RecordObligation]]:
    """Feed the state's partition right contexts (error-rule PRCs) with the
    next record. Returns the obligations still pending, or None if the
    record violates one."""
    pending = []
    for ro in state.record_obls:
        b = match_record_pattern(ro.patterns[0], record, dict(ro.bindings),
                                 ro.guards, ctx.grammar.same_rule)
        if b is None:
            return None
        if ro.patterns[1:]:
            pending.append(RecordObligation(ro.patterns[1:],
                                            tuple(sorted(b.items())),
                                            ro.guards))
    return pending


def _watch_feats_state(w: CoercionWatch, tapes: Sequence[TapeState]):
    """True = violation confirmed, False = watch void, None = undecided.

    Commits only append morphemes, so a verdict once decided never changes.
    """
    for tape_i, attr, val, midx in w.feats:
        tape = tapes[tape_i]
        if len(tape.morphemes) <= midx:
            return None
        entry = tape.morphemes[midx]
        if val not in entry.features.get(attr, ()):
            return False
    return True


def _scan_coercions(ctx: _SearchContext, state: SearchState,
                    record: PartitionRecord,
                    applied_rule: str) -> Tuple[CoercionWatch, ...]:
    """Watches for every obligatory rule the freshly made record could
    violate: its lexical side and left contexts match, its surface differs."""
    if record.error_origin is not None or not record.lex_seg:
        return ()
    watches = []
    for rule in ctx.grammar.obligatory_rules:
        if ctx.grammar.same_rule(rule.name, applied_rule):
            continue
        if rule.name in ctx.skip_rules:
            continue
        b = match_lex(rule.lex, record.lex_seg, {}, rule.guards)
        if b is None:
            continue
        b = _match_left_contexts(ctx.grammar.plans[rule.name], state, b)
        if b is None:
            continue
        required = _emit_surface(rule.surf, b)
        if required is None or tuple(required) == record.surf_seg:
            continue
        queues = _rlc_to_queues(ctx, rule.rlc, b) or tuple(() for _ in range(ctx.n))
        surf_q = ()
        if rule.rsc != WILDCARD:
            surf_q = tuple(_bind_slot(s, b) for s in rule.rsc)
        feats = tuple(
            (ctx.tape_index[tape], attr, val,
             len(state.tapes[ctx.tape_index[tape]].morphemes))
            for tape, attr, val in rule.guards.feats)
        watches.append(CoercionWatch(rule.name, queues, surf_q,
                                     tuple(sorted(b.items())), rule.guards,
                                     feats))
    return tuple(watches)


def _affix_order_ok(prior: Tuple[MorphemeEntry, ...], entry: MorphemeEntry) -> bool:
    """Simple prefix < stem/word < suffix ordering on the pattern tape."""
    if entry.kind == "prefix":
        return all(e.kind == "prefix" for e in prior)
    if entry.kind == "suffix":
        return any(e.kind not in ("prefix", "suffix") for e in prior)
    return all(e.kind != "suffix" for e in prior)


def _commit_morphemes(ctx: _SearchContext, tapes: List[TapeState]):
    """Resolve tapes sitting on entry terminals into entry choices.

    Yields fully committed tape tuples (choice points over homographs),
    filtered by pending feature requirements and affix ordering.
    """
    pattern_i = ctx.tape_index.get("pattern")
    options: List[List[TapeState]] = []
    for ti, tape in enumerate(tapes):
        entries = tape.cursor.terminal_entries()
        if not entries:
            options.append([tape])
            continue
        choices = []
        for entry in entries:
            if not all(val in entry.features.get(attr, ())
                       for attr, val in tape.pending_feats):
                continue
            if ti == pattern_i and not _affix_order_ok(tape.morphemes, entry):
                continue
            choices.append(TapeState(cursor=tape.cursor.reset(),
                                     morphemes=tape.morphemes + (entry,),
                                     pending_feats=()))
        if not choices:
            return
        options.append(choices)
    for combo in itertools.product(*options):
        yield tuple(combo)


def _stem_ok(ctx: _SearchContext, before: Sequence[TapeState],
             after: Sequence[TapeState]) -> bool:
    """False when the stem tapes just closed a morpheme whose hard
    features clash."""
    idx = ctx.tape_index
    ri, vi, pi = idx.get("root"), idx.get("vocalism"), idx.get("pattern")
    if ri is None or vi is None or pi is None:
        return True
    if len(after[ri].morphemes) == len(before[ri].morphemes) or \
       len(after[vi].morphemes) == len(before[vi].morphemes):
        return True
    if not after[pi].morphemes:
        return True
    soft = ctx.lexicon.soft_attrs
    return unify_all(restrict(after[pi].morphemes[-1].features, soft),
                     restrict(after[ri].morphemes[-1].features, soft),
                     restrict(after[vi].morphemes[-1].features, soft)) \
        is not None


def _match_left_contexts(plan: RulePlan, state: SearchState,
                         bindings: Bindings) -> Optional[Bindings]:
    guards = plan.rule.guards
    if plan.llc != WILDCARD:
        bindings = match_context(plan.llc, state.lex_tuples, "left", bindings,
                                 guards)
        if bindings is None:
            return None
    if plan.lsc != WILDCARD:
        bindings = match_context(plan.lsc, state.surface_out, "left",
                                 bindings, guards, lexical=False)
    return bindings


def apply_rule(ctx: _SearchContext, state: SearchState,
               rule: TwoLevelRule) -> Iterator[SearchState]:
    """All successor states of applying one two-level rule at `state`.

    Independent left contexts are matched before the tries are walked, and
    a first surface variable bound by them or by the surface head limits
    the walk; see RulePlan.
    """
    plan = ctx.grammar.plans[rule.name]
    start: Bindings = {}
    if plan.hoisted:
        start = _match_left_contexts(plan, state, start)
        if start is None:
            return
    var = plan.surf_var
    if var is not None and state.remaining:
        head = _item_symbol(state.remaining[0])
        if head is not None:
            bound = start.get(var)
            if bound is not None:
                if bound != head:
                    return
            elif var == plan.prebind:
                if not rule.guards.permits(var, head, start):
                    return
                start = dict(start)
                start[var] = head
    for cursors, consumed, lex_tuples, b in _advance_tapes(ctx, plan, state,
                                                           start):
        if not plan.hoisted:
            b = _match_left_contexts(plan, state, b)
            if b is None:
                continue
        free_vars = state.free_vars
        rest = None
        if state.remaining is None:
            emitted = _emit_surface(rule.surf, b)
            if emitted is None:
                continue
            if rule.rsc != WILDCARD:
                raise UnsupportedInGeneration(
                    f"rule {rule.name}: right surface context in generation")
            surf_syms = tuple(emitted)
            orig = 0
        else:
            got = _consume_surface(state, rule.surf, b, rule.guards)
            if got is None:
                continue
            consumed_syms, orig, grounded, b = got
            surf_syms = tuple(consumed_syms)
            rest = state.remaining[len(rule.surf):]
            if grounded:
                rest = _ground(rest, grounded)
                free_vars += tuple(grounded.items())
            if rule.rsc != WILDCARD:
                seg = tuple(_item_symbol(it) for it in rest)
                if any(s is None for s in seg[:len(rule.rsc)]):
                    continue
                if match_context(rule.rsc, seg, "right", b, rule.guards,
                                 lexical=False) is None:
                    continue
        total_consumed = sum(len(c) for c in consumed)
        nonconsuming = total_consumed == 0 and not surf_syms and orig == 0
        if nonconsuming and state.last_nonconsuming:
            continue
        if surf_syms or orig:
            lex_run = 0
        else:
            lex_run = state.lex_run + total_consumed
            if lex_run > ctx.lex_cap:
                continue

        record = PartitionRecord(
            rule_name=rule.name,
            surf_seg=surf_syms,
            lex_seg=lex_tuples,
            pos=state.pos,
        )
        tapes_mid = [TapeState(cursor=c, morphemes=t.morphemes,
                               pending_feats=t.pending_feats)
                     for c, t in zip(cursors, state.tapes)]
        # feature guards of this rule attach to the affected tapes
        for tape_name, attr, val in rule.guards.feats:
            ti = ctx.tape_index[tape_name]
            tapes_mid[ti] = TapeState(
                cursor=tapes_mid[ti].cursor,
                morphemes=tapes_mid[ti].morphemes,
                pending_feats=tapes_mid[ti].pending_feats + ((attr, val),))

        fed = _feed_deferred(state, consumed, surf_syms)
        if fed is None:
            continue
        obligations, pending = fed
        rec_obls = _feed_record_obls(ctx, state, record)
        if rec_obls is None:
            continue
        pending += _scan_coercions(ctx, state, record, rule.name)
        own_queues = _rlc_to_queues(ctx, rule.rlc, b)
        if own_queues is not None and any(own_queues):
            obligations += (
                Obligation(own_queues, tuple(sorted(
                    (k, v) for k, v in b.items())), rule.guards),)

        for tapes_after in _commit_morphemes(ctx, tapes_mid):
            if not _stem_ok(ctx, state.tapes, tapes_after):
                continue
            # a watch whose contexts are complete is settled here, once the
            # record's morphemes are committed
            watches = []
            dead = False
            for w in pending:
                if w.contexts_done():
                    verdict = _watch_feats_state(w, tapes_after)
                    if verdict is True:
                        dead = True
                        break
                    if verdict is None:
                        watches.append(w)
                else:
                    watches.append(w)
            if dead:
                continue
            yield SearchState(
                tapes=tapes_after,
                remaining=rest,
                records=state.records + (record,),
                lex_tuples=state.lex_tuples + record.lex_seg,
                surface_out=state.surface_out + surf_syms,
                free_vars=free_vars,
                obligations=obligations,
                watches=tuple(watches),
                record_obls=tuple(rec_obls),
                budget=state.budget,
                error_apps=state.error_apps,
                pos=state.pos + orig,
                lex_run=lex_run,
                last_nonconsuming=nonconsuming,
            )


def _complete(state: SearchState) -> bool:
    return (not state.remaining
            and all(tape.cursor.done() for tape in state.tapes)
            and all(obl.done() for obl in state.obligations)
            and not state.record_obls)


def _successors(ctx: _SearchContext, state: SearchState,
                error_step) -> Iterator[SearchState]:
    """Rule successors in grammar order, then error successors.

    A rule whose first surface slot cannot take the surface head, or whose
    first lexical tuple needs an edge a cursor lacks, is not tried.
    """
    remaining = state.remaining
    head = _item_symbol(remaining[0]) if remaining else None
    edges = [t.cursor.edges() for t in state.tapes]
    for plan in ctx.plans:
        if remaining is not None and plan.rule.surf:
            if not remaining:
                continue
            if head is not None and not plan.admits_head(head):
                continue
        if not plan.admits_edges(edges, head):
            continue
        yield from apply_rule(ctx, state, plan.rule)
    # no error rule applies once the budget is spent
    if error_step is not None and state.budget != 2:
        yield from error_step(ctx, state)


def _table_key(state: SearchState, ids: Dict[object, int]) -> tuple:
    """Everything the subtree of a budget-spent state reads, each part
    interned to a small id in `ids` (one dict per search).

    A FreeRef in `remaining` (always ungrounded) keeps its first-occurrence
    index, domain and exclusions, so a shared ref stays shared and the
    global ref numbering drops out. Morphemes, trie nodes and guards are
    named by identity (they live as long as the grammar and lexicon).
    `records` and `error_apps` are left out: only error-rule partition
    contexts read records, and no error rule is tried once the budget is
    spent.
    """
    remaining = []
    first: Dict[int, int] = {}
    for item in state.remaining:
        if isinstance(item, str) or item[0] == "spl":
            remaining.append(item)
            continue
        ref = item[1]
        remaining.append((first.setdefault(ref.ref_id, len(remaining)),
                          ref.domain, ref.excluded))
    tapes = tuple([(id(t.cursor.node), tuple(map(id, t.morphemes)),
                    t.pending_feats) for t in state.tapes])
    deferred = ()
    if state.obligations or state.watches or state.record_obls:
        deferred = (
            tuple([(o.queues, o.bindings, id(o.guards))
                   for o in state.obligations]),
            tuple([(w.rule_name, w.queues, w.surf_queue, w.bindings,
                    id(w.guards), w.feats) for w in state.watches]),
            tuple([(r.patterns, r.bindings, id(r.guards))
                   for r in state.record_obls]))
    parts = (tuple(remaining), tapes, state.lex_tuples, state.surface_out,
             deferred)
    return tuple([ids.setdefault(p, len(ids)) for p in parts]) + (
        state.pos, state.lex_run, state.last_nonconsuming)


def _search(ctx: _SearchContext, initial: SearchState,
            error_step=None) -> Iterator[SearchState]:
    """Depth-first search; yields complete states in deterministic order.

    Ordinary successors are explored before error successors of the same
    state, which realizes "error rules are considered when ordinary rules
    fail ... at successively earlier points" under chronological backtracking.
    Successor streams are lazy, so early-exiting consumers skip unexplored
    siblings.

    With an error step, the search tables failed budget-spent states: a
    state whose budget is spent and whose subtree yielded no complete state
    has its key (`_table_key`) recorded, and a later state with the same
    key is not expanded. This is exact. Skipping a subtree that yields
    nothing leaves the sequence of yielded states, hence candidates, ranks
    and analysis order, unchanged. Below a spent budget no error successor
    exists, so the subtree does not depend on `ctx.deepest` (which only
    grows, and under `max_positions` only removes error successors); and
    since `pos` is in the key, the positions the skipped subtree would reach
    are already folded into `deepest`. Searches without an error step do no
    work for the table.
    """
    stack: List[Iterator[SearchState]] = [iter([initial])]
    # budget-spent frames on the stack as (depth, key, yields before the
    # push), innermost last; the keys of those that yielded nothing; and
    # the interned key parts
    tabled: List[Tuple[int, tuple, int]] = []
    failed = set()
    ids: Dict[object, int] = {}
    yielded = 0
    while stack:
        try:
            state = next(stack[-1])
        except StopIteration:
            stack.pop()
            if tabled and tabled[-1][0] == len(stack):
                _, key, before = tabled.pop()
                if yielded == before:
                    failed.add(key)
            continue
        if state.remaining is not None:
            ctx.deepest = max(ctx.deepest, state.pos)
        if _complete(state):
            yielded += 1
            yield state
            continue
        if error_step is not None and state.budget == 2:
            key = _table_key(state, ids)
            if key in failed:
                continue
            tabled.append((len(stack), key, yielded))
        stack.append(_successors(ctx, state, error_step))


def analyze(word: SymbolString, grammar: Grammar,
            lexicon: Lexicon) -> List[Analysis]:
    """All no-error analyses of a decoded word, deterministically ordered.
    The empty word has none."""
    if not word:
        return []
    ctx = _SearchContext(grammar, lexicon)
    initial = SearchState(
        tapes=tuple(TapeState(cursor=TrieCursor(lexicon.tree(t)))
                    for t in grammar.tapes),
        remaining=tuple(word),
    )
    return [to_analysis(ctx, s) for s in _search(ctx, initial)]


def to_analysis(ctx: _SearchContext, state: SearchState) -> Analysis:
    free = dict(state.free_vars)
    morphemes = {t: state.tapes[i].morphemes
                 for i, t in enumerate(ctx.grammar.tapes)}
    stems = _collect_stems(ctx, state)
    errors = tuple((e.rule, e.pos, e.err, e.resolved_corr(free))
                   for e in state.error_apps)
    return Analysis(surface=state.surface_out, records=state.records,
                    morphemes=morphemes, stems=stems, errors=errors)


def _collect_stems(ctx: _SearchContext, state: SearchState) -> Tuple[StemInfo, ...]:
    idx = ctx.tape_index
    ri, vi, pi = idx.get("root"), idx.get("vocalism"), idx.get("pattern")
    if ri is None or vi is None or pi is None:
        return ()
    roots = state.tapes[ri].morphemes
    vocs = state.tapes[vi].morphemes
    if not roots or len(roots) != len(vocs):
        return ()
    # pair each root/vocalism with the templatic pattern entry in order
    patterns = [e for e in state.tapes[pi].morphemes
                if e.kind not in ("prefix", "suffix", "word")]
    stems = []
    soft = ctx.lexicon.soft_attrs
    for i, (r, v) in enumerate(zip(roots, vocs)):
        if i >= len(patterns):
            break
        p = patterns[i]
        hard = unify_all(restrict(p.features, soft), restrict(r.features, soft),
                         restrict(v.features, soft))
        stems.append(StemInfo(p, r, v, hard if hard is not None else {}))
    return tuple(stems)


def generate(selection: Dict[str, object], grammar: Grammar, lexicon: Lexicon,
             skip_rules: FrozenSet[str] = frozenset()) -> List[SymbolString]:
    """Surfaces licensed for a morpheme selection.

    selection: {"pattern": id or None, "root": id or None,
                "vocalism": id or None, "affixes": [ids]}.
    Pass the optional-deletion rule names in skip_rules for fully vocalised
    output; an empty set enumerates every licensed orthography.
    """
    def lookup(tape: str, key: str) -> Optional[MorphemeEntry]:
        ident = selection.get(key)
        if ident is None:
            return None
        entry = lexicon.entry(tape, str(ident))
        if entry is None:
            raise UnknownMorpheme(f"no {key} morpheme {ident!r}")
        return entry

    pattern = lookup("pattern", "pattern")
    root = lookup("root", "root")
    voc = lookup("vocalism", "vocalism")
    affixes = []
    for ident in selection.get("affixes", ()) or ():
        entry = lexicon.entry("pattern", str(ident))
        if entry is None:
            raise UnknownMorpheme(f"no affix morpheme {ident!r}")
        affixes.append(entry)

    prefixes = tuple(e for e in affixes if e.kind == "prefix")
    suffixes = tuple(e for e in affixes if e.kind != "prefix")
    pattern_seq = prefixes + ((pattern,) if pattern else ()) + suffixes

    scripts = {
        "pattern": pattern_seq,
        "root": (root,) if root else (),
        "vocalism": (voc,) if voc else (),
    }
    return list(dict.fromkeys(scripted_surfaces(scripts, grammar, lexicon,
                                                skip_rules)))


def scripted_surfaces(scripts: Dict[str, Sequence[MorphemeEntry]],
                      grammar: Grammar, lexicon: Lexicon,
                      skip_rules: FrozenSet[str] = frozenset()
                      ) -> Iterator[SymbolString]:
    """Surfaces of the complete partitions over fixed morpheme sequences
    (tape name -> entries), lazily in search order; a surface repeats when
    several partitions produce it."""
    ctx = _SearchContext(grammar, lexicon, skip_rules=skip_rules)
    initial = SearchState(
        tapes=tuple(TapeState(cursor=ScriptCursor(tuple(scripts.get(t, ()))))
                    for t in grammar.tapes),
        remaining=None,
    )
    for s in _search(ctx, initial):
        yield s.surface_out

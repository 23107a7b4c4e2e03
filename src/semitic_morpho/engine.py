"""Two-level interpreter: partition search over one surface and n lexical tapes.

Analysis aligns a known surface string with paths through the lexicon trees;
generation runs the same rule relation with scripted tapes and an open
surface. Right contexts and obligatory-rule coercions are enforced as
deferred obligations fed by subsequently consumed material, so they hold
against the actual continuation rather than an existential lexicon walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .alphabet import BOUNDARY, SymbolString, slot_index
from .features import FeatureStructure, restrict, unify_all
from .grammar import (EPS, WILDCARD, Bindings, Grammar, Guards, LexTuple,
                      RecordPattern, RulePlan, TwoLevelRule, match_context,
                      match_record_pattern, match_slot, match_tuple)
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
def _item_symbol(item, free_vars) -> Optional[str]:
    if isinstance(item, str):
        return item
    if item[0] == "spl":
        return item[1]
    return free_vars.get(item[1].ref_id)


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

    def at_start(self) -> bool:
        return self.node is self.tree.root

    def reset(self) -> "TrieCursor":
        return TrieCursor(self.tree)

    def exhausted(self) -> bool:
        return self.at_start()


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

    def at_start(self) -> bool:
        return self.off == 0

    def reset(self) -> "ScriptCursor":
        return ScriptCursor(self.entries, self.ei + 1, 0)

    def exhausted(self) -> bool:
        return self.ei >= len(self.entries) and self.off == 0


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
    free_vars: Tuple[Tuple[int, str], ...] = ()
    obligations: Tuple[Obligation, ...] = ()
    watches: Tuple[CoercionWatch, ...] = ()
    record_obls: Tuple[RecordObligation, ...] = ()
    budget: int = 0                                   # 0 none, 1 reap chain, 2 spent
    error_apps: Tuple[ErrorApplication, ...] = ()
    pos: int = 0                                      # original symbols consumed
    lex_run: int = 0                                  # lexical-only progress
    last_nonconsuming: bool = False

    def free_map(self) -> Dict[int, str]:
        return dict(self.free_vars)


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

    @property
    def stem_features(self) -> Optional[FeatureStructure]:
        return self.stems[-1].features if self.stems else None

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


class _SearchContext:
    """Shared knobs and mutable frontier info for one search."""

    def __init__(self, grammar: Grammar, lexicon: Lexicon, allow_errors: bool,
                 skip_rules: FrozenSet[str] = frozenset(),
                 max_positions: Optional[int] = None):
        self.grammar = grammar
        self.lexicon = lexicon
        self.allow_errors = allow_errors
        self.skip_rules = skip_rules
        self.max_positions = max_positions
        self.deepest = 0
        self.lex_cap = lexicon.max_entry_length() + 4
        self.n = len(grammar.tapes)
        self.tape_index = {t: i for i, t in enumerate(grammar.tapes)}
        self.generation = False
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
                     bindings: Bindings, guards: Guards,
                     free_map: Dict[int, str]):
    """Match the rule's surface expression against the remaining surface.

    Returns (consumed_syms, n_items, orig_count, new_free_pairs, bindings)
    or None. Grounds FreeRefs encountered along the way.
    """
    remaining = state.remaining
    consumed: List[str] = []
    new_free: List[Tuple[int, str]] = []
    orig = 0
    b = bindings
    for i, pat in enumerate(surf):
        if i >= len(remaining):
            return None
        item = remaining[i]
        sym = _item_symbol(item, free_map)
        if sym is None:                      # ungrounded FreeRef
            ref = item[1]
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
            already = free_map.get(ref.ref_id)
            if already is not None and already != val:
                return None
            if already is None:
                new_free.append((ref.ref_id, val))
                free_map = dict(free_map)
                free_map[ref.ref_id] = val
            consumed.append(val)
        else:
            res = match_slot(pat, sym, b, guards)
            if res is None:
                return None
            b = res
            consumed.append(sym)
        if isinstance(item, str):
            orig += 1
    return consumed, len(surf), orig, new_free, b


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


def _rlc_to_queues(ctx: _SearchContext, pat, bindings: Bindings) -> Optional[Tuple]:
    """Decompose an RLC into per-tape pattern queues, substituting bound vars."""
    if pat == WILDCARD:
        return None
    queues: List[List[tuple]] = [[] for _ in range(ctx.n)]
    for item in pat:
        for ti, slot in enumerate(item):
            if slot == EPS:
                continue
            if slot[0] == "var" and slot[1] in bindings:
                slot = ("lit", bindings[slot[1]])
            queues[ti].append(slot)
    return tuple(tuple(q) for q in queues)


def _feed_deferred(ctx: _SearchContext, state_fields: dict, consumed,
                   surf_syms: Sequence[str], tapes_after) -> bool:
    """Feed obligations and coercion watches with this record's consumption.
    Mutates state_fields in place; returns False if the branch dies."""
    # rule right-context obligations
    new_obls = []
    for obl in state_fields["obligations"]:
        fed = _feed_queues(obl.queues, consumed, dict(obl.bindings), obl.guards)
        if fed is None:
            return False
        queues, b = fed
        if any(queues):
            new_obls.append(Obligation(queues, tuple(sorted(b.items())), obl.guards))
    state_fields["obligations"] = tuple(new_obls)

    # coercion watches: mismatch kills the watch, completion kills the branch
    new_watches = []
    for w in state_fields["watches"]:
        fed = _feed_queues(w.queues, consumed, dict(w.bindings), w.guards)
        if fed is None:
            continue
        queues, b = fed
        surf_q = list(w.surf_queue)
        dead = False
        for sym in surf_syms:
            if not surf_q:
                break
            res = match_slot(surf_q[0], sym, b, w.guards)
            if res is None:
                dead = True
                break
            b = res
            surf_q.pop(0)
        if dead:
            continue
        w2 = CoercionWatch(w.rule_name, queues, tuple(surf_q),
                           tuple(sorted(b.items())), w.guards, w.feats)
        if w2.contexts_done():
            verdict = _watch_feats_state(w2, tapes_after)
            if verdict is True:
                return False          # genuine violation
            if verdict is None:
                new_watches.append(w2) # awaiting morpheme commitment
            # verdict False: feature requirement failed, watch dies
        else:
            new_watches.append(w2)
    state_fields["watches"] = tuple(new_watches)
    return True


def _watch_feats_state(w: CoercionWatch, tapes: Sequence[TapeState]):
    """True = violation confirmed, False = watch void, None = undecided."""
    for tape_i, attr, val, midx in w.feats:
        tape = tapes[tape_i]
        if len(tape.morphemes) <= midx:
            return None
        entry = tape.morphemes[midx]
        if val not in entry.features.get(attr, ()):
            return False
    return True


def _scan_coercions(ctx: _SearchContext, state: SearchState,
                    record: PartitionRecord, state_fields: dict,
                    applied_rule: str) -> bool:
    """Check the freshly appended record against every obligatory rule.
    Returns False if an immediate violation is confirmed."""
    if record.error_origin is not None or not record.lex_seg:
        return True
    for rule in ctx.grammar.obligatory_rules:
        if ctx.grammar.same_rule(rule.name, applied_rule):
            continue
        if rule.name in ctx.skip_rules:
            continue
        if len(rule.lex) != len(record.lex_seg):
            continue
        b = {}
        ok = True
        for pat, tup in zip(rule.lex, record.lex_seg):
            res = match_tuple(pat, tup, b, rule.guards)
            if res is None:
                ok = False
                break
            b = res
        if not ok:
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
            surf_q = tuple(("lit", b[s[1]]) if s[0] == "var" and s[1] in b else s
                           for s in rule.rsc)
        feats = tuple(
            (ctx.tape_index[tape], attr, val,
             len(state.tapes[ctx.tape_index[tape]].morphemes))
            for tape, attr, val in rule.guards.feats)
        w = CoercionWatch(rule.name, queues, surf_q, tuple(sorted(b.items())),
                          rule.guards, feats)
        if w.contexts_done():
            verdict = _watch_feats_state(w, state_fields["tapes"])
            if verdict is True:
                return False
            if verdict is None:
                state_fields["watches"] += (w,)
        else:
            state_fields["watches"] += (w,)
    return True


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


def _stem_check(ctx: _SearchContext, before: Sequence[TapeState],
                after: Sequence[TapeState]):
    """When the stem tapes just closed a morpheme, unify hard features.

    Returns the StemInfo or None (no stem closed) or False (clash).
    """
    idx = ctx.tape_index
    committed = [len(after[i].morphemes) > len(before[i].morphemes)
                 for i in range(ctx.n)]
    if ctx.n < 3:
        return None
    ri, vi, pi = idx.get("root"), idx.get("vocalism"), idx.get("pattern")
    if ri is None or vi is None or pi is None:
        return None
    if not (committed[ri] and committed[vi]):
        return None
    if not after[pi].morphemes:
        return None
    pattern = after[pi].morphemes[-1]
    root = after[ri].morphemes[-1]
    voc = after[vi].morphemes[-1]
    soft = ctx.lexicon.soft_attrs
    hard = unify_all(restrict(pattern.features, soft),
                     restrict(root.features, soft),
                     restrict(voc.features, soft))
    if hard is None:
        return False
    return StemInfo(pattern, root, voc, hard)


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
    free_map = state.free_map()
    start: Bindings = {}
    if plan.hoisted:
        start = _match_left_contexts(plan, state, start)
        if start is None:
            return
    var = plan.surf_var
    if var is not None and state.remaining:
        head = _item_symbol(state.remaining[0], free_map)
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
        new_free: List[Tuple[int, str]] = []
        if state.remaining is None:
            emitted = _emit_surface(rule.surf, b)
            if emitted is None:
                continue
            if rule.rsc != WILDCARD:
                raise UnsupportedInGeneration(
                    f"rule {rule.name}: right surface context in generation")
            surf_syms = tuple(emitted)
            n_items = 0
            orig = 0
            local_free = free_map
        else:
            got = _consume_surface(state, rule.surf, b,
                                   rule.guards, dict(free_map))
            if got is None:
                continue
            consumed_syms, n_items, orig, new_free, b = got
            surf_syms = tuple(consumed_syms)
            local_free = dict(free_map)
            local_free.update(new_free)
            rest = state.remaining[n_items:]
            if rule.rsc != WILDCARD:
                seg = tuple(_item_symbol(it, local_free) for it in rest)
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
            lex_seg=tuple(t for t in lex_tuples),
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

        fields = {
            "obligations": state.obligations,
            "watches": state.watches,
            "tapes": tuple(tapes_mid),
        }
        if not _feed_deferred(ctx, fields, consumed, surf_syms, tuple(tapes_mid)):
            continue
        # PRC obligations from error rules constrain this record
        rec_obls = []
        violated = False
        for ro in state.record_obls:
            rb = match_record_pattern(ro.patterns[0], record, dict(ro.bindings),
                                      ro.guards, ctx.grammar.same_rule)
            if rb is None:
                violated = True
                break
            rest_pats = ro.patterns[1:]
            if rest_pats:
                rec_obls.append(RecordObligation(rest_pats,
                                                 tuple(sorted(rb.items())),
                                                 ro.guards))
        if violated:
            continue
        if not _scan_coercions(ctx, state, record, fields, rule.name):
            continue
        own_queues = _rlc_to_queues(ctx, rule.rlc, b)
        if own_queues is not None and any(own_queues):
            fields["obligations"] += (
                Obligation(own_queues, tuple(sorted(
                    (k, v) for k, v in b.items())), rule.guards),)

        for tapes_after in _commit_morphemes(ctx, list(fields["tapes"])):
            stem = _stem_check(ctx, state.tapes, tapes_after)
            if stem is False:
                continue
            # completed watches may now be decidable
            watches = []
            dead = False
            for w in fields["watches"]:
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
                remaining=None if state.remaining is None
                          else state.remaining[n_items:],
                records=state.records + (record,),
                lex_tuples=state.lex_tuples + record.lex_seg,
                surface_out=state.surface_out + surf_syms,
                free_vars=tuple(sorted(local_free.items())),
                obligations=fields["obligations"],
                watches=tuple(watches),
                record_obls=tuple(rec_obls),
                budget=state.budget,
                error_apps=state.error_apps,
                pos=state.pos + orig,
                lex_run=lex_run,
                last_nonconsuming=nonconsuming,
            )


def step(state: SearchState, grammar: Grammar, lexicon: Lexicon,
         ctx: Optional[_SearchContext] = None) -> List[SearchState]:
    """Ordinary-rule successors of a state, in deterministic order."""
    if ctx is None:
        ctx = _SearchContext(grammar, lexicon, allow_errors=False)
    return list(_successors(ctx, state, None))


def _complete(ctx: _SearchContext, state: SearchState) -> bool:
    if state.remaining is not None and state.remaining:
        return False
    for tape in state.tapes:
        if state.remaining is None:
            if not tape.cursor.exhausted():
                return False
        elif not tape.cursor.at_start():
            return False
    if any(not obl.done() for obl in state.obligations):
        return False
    if state.record_obls:
        return False
    return True


def _successors(ctx: _SearchContext, state: SearchState,
                error_step) -> Iterator[SearchState]:
    """Rule successors in grammar order, then error successors.

    A rule whose first surface slot cannot take the surface head, or whose
    first lexical tuple needs an edge a cursor lacks, is not tried.
    """
    remaining = state.remaining
    head = _item_symbol(remaining[0], state.free_map()) if remaining else None
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
    if error_step is not None:
        yield from error_step(ctx, state)


def _search(ctx: _SearchContext, initial: SearchState,
            error_step=None) -> Iterator[SearchState]:
    """Depth-first search; yields complete states in deterministic order.

    Ordinary successors are explored before error successors of the same
    state, which realizes "error rules are considered when ordinary rules
    fail ... at successively earlier points" under chronological backtracking.
    Successor streams are lazy, so early-exiting consumers skip unexplored
    siblings.
    """
    stack: List[Iterator[SearchState]] = [iter([initial])]
    while stack:
        try:
            state = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        if state.remaining is not None:
            ctx.deepest = max(ctx.deepest, state.pos)
        if _complete(ctx, state):
            yield state
            continue
        stack.append(_successors(ctx, state, error_step))


def analyze(word: SymbolString, grammar: Grammar, lexicon: Lexicon,
            skip_rules: FrozenSet[str] = frozenset()) -> List[Analysis]:
    """All no-error analyses of a decoded word, deterministically ordered.
    The empty word has none."""
    if not word:
        return []
    ctx = _SearchContext(grammar, lexicon, allow_errors=False,
                         skip_rules=skip_rules)
    initial = SearchState(
        tapes=tuple(TapeState(cursor=TrieCursor(lexicon.tree(t)))
                    for t in grammar.tapes),
        remaining=tuple(word),
    )
    return [to_analysis(ctx, s) for s in _search(ctx, initial)]


def to_analysis(ctx: _SearchContext, state: SearchState) -> Analysis:
    free = state.free_map()
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
    ctx = _SearchContext(grammar, lexicon, allow_errors=False,
                         skip_rules=skip_rules)
    ctx.generation = True
    initial = SearchState(
        tapes=tuple(TapeState(cursor=ScriptCursor(scripts.get(t, ())))
                    for t in grammar.tapes),
        remaining=None,
    )
    seen = set()
    out: List[SymbolString] = []
    for s in _search(ctx, initial):
        if s.surface_out not in seen:
            seen.add(s.surface_out)
            out.append(s.surface_out)
    return out


# ---------------------------------------------------------------------------
# post-hoc obligatory-rule checking (independent of the engine's watches)


def check_obligatory(records: Sequence[PartitionRecord], grammar: Grammar,
                     morphemes: Optional[Dict[str, Sequence[MorphemeEntry]]] = None
                     ) -> List[Tuple[int, str]]:
    """Violations of obligatory rules over a complete partition.

    Returns (record index, rule name) pairs. Error-origin records are exempt.
    Feature guards are resolved against `morphemes` when given, else assumed
    satisfied.
    """
    n = len(grammar.tapes)
    tape_index = {t: i for i, t in enumerate(grammar.tapes)}
    lex_history: List[LexTuple] = []
    surface: List[str] = []
    # per-tape morpheme index at each record (number of boundaries consumed)
    morph_idx = [0] * n
    violations: List[Tuple[int, str]] = []
    all_lex = [t for r in records for t in r.lex_seg]
    all_surf = [s for r in records for s in r.surf_seg]

    for ri, rec in enumerate(records):
        if rec.error_origin is None and rec.lex_seg:
            for rule in grammar.obligatory_rules:
                if grammar.same_rule(rule.name, rec.rule_name):
                    continue
                if len(rule.lex) != len(rec.lex_seg):
                    continue
                b: Optional[Bindings] = {}
                for pat, tup in zip(rule.lex, rec.lex_seg):
                    b = match_tuple(pat, tup, b, rule.guards)
                    if b is None:
                        break
                if b is None:
                    continue
                b2 = match_context(rule.llc, lex_history, "left", b, rule.guards)
                if b2 is None:
                    continue
                b2 = match_context(rule.lsc, surface, "left", b2, rule.guards,
                                   lexical=False)
                if b2 is None:
                    continue
                rest_lex = all_lex[len(lex_history) + len(rec.lex_seg):]
                b3 = _match_rlc_posthoc(rule.rlc, rest_lex, b2, rule.guards, n)
                if b3 is None:
                    continue
                rest_surf = all_surf[len(surface) + len(rec.surf_seg):]
                b4 = match_context(rule.rsc, rest_surf, "right", b3, rule.guards,
                                   lexical=False)
                if b4 is None:
                    continue
                if morphemes is not None and rule.guards.feats:
                    ok = True
                    for tape, attr, val in rule.guards.feats:
                        seq = morphemes.get(tape, ())
                        mi = morph_idx[tape_index[tape]]
                        if mi >= len(seq) or val not in seq[mi].features.get(attr, ()):
                            ok = False
                            break
                    if not ok:
                        continue
                required = _emit_surface(rule.surf, b4)
                if required is not None and tuple(required) != rec.surf_seg:
                    violations.append((ri, rule.name))
        for tup in rec.lex_seg:
            for ti, sym in enumerate(tup):
                if sym == BOUNDARY:
                    morph_idx[ti] += 1
        lex_history.extend(rec.lex_seg)
        surface.extend(rec.surf_seg)
    return violations


def _match_rlc_posthoc(pat, rest_lex: Sequence[LexTuple], bindings, guards,
                       n: int) -> Optional[Bindings]:
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

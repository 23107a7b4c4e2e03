"""Two-level interpreter: partition search over one surface tape and the
three lexical tapes of lexicon.TAPES.

Analysis aligns a known surface string with paths through the lexicon trees;
generation runs the same rule relation with scripted tapes and an open
surface. Right contexts, feature guards and error-rule partition right
contexts (PRCs) are enforced as one kind of deferred obligation, fed by the
material later records consume (tapes, then the corrected or generated
surface, then the record itself) and settled after each morpheme commit, so
they hold against the actual continuation rather than an existential lexicon
walk. An applied rule's own obligation must be met; a watch for an
obligatory rule the record could violate prunes the branch once met. Rules
with a right surface context therefore generate, and read a surface that an
error rule has corrected. An error application lives in its record alone:
the record keeps what it consumed and spliced, and Analysis.errors is read
from the records. Searches in both modes take rule dispatch and trie
walks from a step memo per (grammar, lexicon) pair, keyed by all they read. A
scripted tape reads its current morpheme's form along a one-path trie, so
what it offers a walk is that form and the offset into it. The lexical
tuples and surface a partition has consumed are one history node per
partition prefix, interned per search, so equal histories are one object:
every left context is matched off the nodes, scanning their segments back
from the end and memoising the scan at each node end it passes, which is
each node's one table. The left contexts matched before the tries are
walked are read from that memo at the state's node, dispatch drops the
rules whose verdict fails, and the failure table names a history by its
node; the surface a partition consumed is read off its records. A search
over a word does not make a state whose root and vocalism cursors sit
inside morphemes of which no pair unifies, since the stem check would reject
every stem they could close (_stems_meet), nor one with a cursor whose
unread symbols can no longer surface in the unread surface (_fits): each
successor is checked where it is made, before its obligations, history
node and record, and analyze checks its start. One memoised walk down
the trie answers that on every tape (_spans): on the tape that spells the
surface symbol for symbol (_spelling_tape), it gives the numbers of
unread items the rest of some entry below a node spells, and the rest of
the morpheme and then whole morphemes, each read through the same walk
from the trie root, must spell all of it (_spelled); inside a morpheme on
another tape, the rest of some entry must surface in order somewhere in
it. A slot symbol of the spelling tape that copies a symbol read on
another tape to the surface, as a root consonant at a consonant slot,
spells there only the symbols of that tape's entries that surface in order
inside the whole surface of the path, since a complete state reads whole
entries (_copied_tape, _copy_literals, _held). That holds except
where the search must see every state: whether these lookaheads apply is
worked out from each state (_search), and which tape spells the surface
and which it copies from the grammar, in the step memo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

from .alphabet import BOUNDARY, SymbolString, slot_index
from .features import FeatureStructure, restrict, unify, unify_all
from .grammar import (EPS, WILDCARD, Bindings, Grammar, Guards, LeftSide,
                      LexTuple, RecordPattern, RulePlan, TwoLevelRule,
                      match_context, match_lex, match_record_pattern,
                      match_slot)
from .lexicon import TAPES, Lexicon, LexiconTree, MorphemeEntry, Node

# the indices of the stem tapes in TAPES
PATTERN, ROOT, VOCALISM = range(len(TAPES))


class EngineError(Exception):
    pass


class UnknownMorpheme(EngineError):
    pass


class PartitionRecord(NamedTuple):
    rule_name: str
    surf_seg: Tuple[str, ...]            # corrected-surface content
    lex_seg: Tuple[LexTuple, ...]        # consumed lexical tuples
    error_origin: Optional[str] = None
    err_seg: Tuple[str, ...] = ()        # original error surface consumed
    pos: int = 0                         # input symbols consumed before it
    corr: Tuple[object, ...] = ()        # spliced symbols or FreeRefs (error)


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


def _ground(spliced: tuple, grounded: Dict[int, str]) -> tuple:
    """The spliced prefix with every FreeRef in `grounded` (ref id ->
    symbol) replaced by its symbol: once a rule grounds a FreeRef, no
    unread occurrence of it remains."""
    return tuple(grounded.get(it.ref_id, it) if isinstance(it, FreeRef)
                 else it for it in spliced)


# ---------------------------------------------------------------------------
# tape cursors


class TrieCursor:
    __slots__ = ("tree", "node")

    def __init__(self, tree: LexiconTree, node: Optional[Node] = None):
        self.tree = tree
        self.node = node if node is not None else tree.root

    def advance(self, sym: str) -> Optional["TrieCursor"]:
        child = self.node.edges.get(sym)
        return TrieCursor(self.tree, child) if child is not None else None

    def mark(self) -> "TrieCursor":
        """What a stored walk keeps of the cursor it reached: the cursor
        itself, which belongs to no one search."""
        return self

    def moved(self, mark: "TrieCursor") -> "TrieCursor":
        """This cursor moved as a stored walk moved one at its node."""
        return mark

    def terminal_entries(self) -> Sequence[MorphemeEntry]:
        return self.node.entries

    def done(self) -> bool:
        """At a morpheme boundary: no morpheme is half read."""
        return self.node is self.tree.root

    def reset(self) -> "TrieCursor":
        return TrieCursor(self.tree)


class ScriptCursor:
    """Cursor over a fixed sequence of morpheme entries (generation mode).

    It reads the form of entry `ei` along that form's one-path trie
    (StepMemo.path): its node stands for the form and the offset into it,
    which is the node's depth. `paths` holds each entry's path root, then
    the empty path that the cursor rests on once every entry is read.
    """

    __slots__ = ("entries", "paths", "ei", "node")

    def __init__(self, entries: Tuple[MorphemeEntry, ...],
                 paths: Tuple[Node, ...], ei: int = 0,
                 node: Optional[Node] = None):
        self.entries = entries
        self.paths = paths
        self.ei = ei
        self.node = paths[ei] if node is None else node

    @classmethod
    def over(cls, entries: Sequence[MorphemeEntry],
             memo: "StepMemo") -> "ScriptCursor":
        """A cursor at the start of `entries`, on the memo's paths."""
        entries = tuple(entries)
        return cls(entries, tuple(memo.path(e.form) for e in entries)
                   + (memo.path(()),))

    def advance(self, sym: str) -> Optional["ScriptCursor"]:
        child = self.node.edges.get(sym)
        return self.moved(child) if child is not None else None

    def mark(self) -> Node:
        """What a stored walk keeps of the cursor it reached: its node, and
        nothing of the script."""
        return self.node

    def moved(self, node: Node) -> "ScriptCursor":
        """This cursor moved to `node` of its form's path."""
        return ScriptCursor(self.entries, self.paths, self.ei, node)

    def terminal_entries(self) -> Sequence[MorphemeEntry]:
        if self.node.edges or self.ei == len(self.entries):
            return ()
        return (self.entries[self.ei],)

    def done(self) -> bool:
        """Every scripted morpheme has been read."""
        return self.ei == len(self.entries)

    def reset(self) -> "ScriptCursor":
        return ScriptCursor(self.entries, self.paths, self.ei + 1)


@dataclass(slots=True)
class TapeState:
    cursor: object
    morphemes: Tuple[MorphemeEntry, ...] = ()


# ---------------------------------------------------------------------------
# deferred obligations

class Obligation(NamedTuple):
    """Right contexts and feature guards of a rule applied (or, for a
    watch, applicable) at one record, pending the material that decides
    them.

    `queues` holds one slot queue per tape, then one surface queue: the
    rule's RLC and RSC with bound variables substituted. `records` holds
    the record patterns of an error rule's PRC that the next records must
    match, one record each. `feats` holds (tape index, attr, value,
    morpheme index) requirements on the morpheme each tape was reading.
    `coerces` is None for the applied rule's own obligation, which must be
    met; for a watch it names the obligatory rule whose violation is
    confirmed, pruning the branch, once the watch is met.
    """

    queues: Tuple[Tuple[tuple, ...], ...]
    bindings: Tuple[Tuple[str, str], ...]
    guards: Guards
    feats: Tuple[Tuple[int, str, str, int], ...]
    coerces: Optional[str] = None
    records: Tuple[RecordPattern, ...] = ()

    def contexts_done(self) -> bool:
        return not self.records and not any(self.queues)


def _feed_queues(queues, material, bindings: Bindings, guards: Guards):
    """Advance slot queues over one record's material, a symbol sequence
    per queue; symbols past the end of a queue are not read.

    Returns (new_queues, new_bindings) or None on mismatch.
    """
    new_queues = []
    b = bindings
    for q, syms in zip(queues, material):
        for pat, sym in zip(q, syms):
            b = match_slot(pat, sym, b, guards)
            if b is None:
                return None
        new_queues.append(q[len(syms):])
    return tuple(new_queues), b


# ---------------------------------------------------------------------------
# search state


class History:
    """The lexical tuples and surface a partition prefix has consumed: its
    parent's, then the segments of its last record that consumed any.

    A search interns its nodes by (parent, segments)
    (_SearchContext.history), so equal histories made the same way are one
    object. Left contexts are matched off the nodes, segment by segment,
    never off a flattened history (_left_bindings). `scans`, made on first
    use, is the node's one table: it memoises the scans of a context's
    groups from this node's end, on each tape it has a segment on:
    (LeftSide, group index j, the values of the bindings groups j, ..., 0
    read) -> the bindings those groups add, or None (_scan). The surface a
    partition consumed is read off its records, not off the node.
    """

    __slots__ = ("parent", "lex_seg", "surf_seg", "scans")

    def __init__(self, parent: Optional["History"] = None,
                 lex_seg: Tuple[LexTuple, ...] = (),
                 surf_seg: Tuple[str, ...] = ()):
        self.parent = parent
        self.lex_seg = lex_seg
        self.surf_seg = surf_seg
        self.scans: Optional[Dict[tuple, Optional[Bindings]]] = None


@dataclass(slots=True)
class SearchState:
    """One node of the partition search. In analysis the unread surface is
    `spliced + word[pos:]`: `spliced` holds what error rules spliced in
    front of the input, as symbols and ungrounded FreeRefs, and `pos`
    counts the input symbols consumed. Rules and error rules read only from
    the front, and error rules splice only there. `word` is None in
    generation. `history` holds the lexical tuples and surface consumed.
    `held` holds the symbols that the slot symbols of the spelling tape may
    copy to the surface below the state (_held), or None where nothing
    narrows them: it is worked out where the whole surface a path reads is
    first fixed, at analyze's start and at an error that spends the budget,
    and a rule's successors keep it."""

    tapes: Tuple[TapeState, ...]
    word: Optional[SymbolString]
    spliced: Tuple[object, ...] = ()
    records: Tuple[PartitionRecord, ...] = ()
    history: History = field(default_factory=History)
    free_vars: Tuple[Tuple[int, str], ...] = ()      # (ref id, symbol) log
    obligations: Tuple[Obligation, ...] = ()
    budget: int = 0                                   # 0 none, 1 reap chain, 2 spent
    pos: int = 0                                      # input symbols consumed
    lex_run: int = 0                                  # lexical-only progress
    last_nonconsuming: bool = False
    held: Optional[FrozenSet[str]] = None


@dataclass(frozen=True)
class StemInfo:
    pattern: MorphemeEntry
    root: MorphemeEntry
    vocalism: MorphemeEntry
    features: Mapping[str, Tuple[str, ...]]          # read-only


@dataclass(frozen=True)
class Analysis:
    """One analysis of a word. It is read-only, mappings too: correction
    keeps analyses in the step memo (StepMemo.words) and hands the same
    objects to every later correction over the grammar and lexicon."""

    surface: SymbolString                            # corrected surface
    records: Tuple[PartitionRecord, ...]
    morphemes: Mapping[str, Tuple[MorphemeEntry, ...]]   # read-only
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


class StepMemo:
    """The lexicon side of rule application for one (grammar, lexicon)
    pair, filled lazily and shared by every search over the pair, and
    correction's regenerations and verifications over it.

    Each table holds a pure function of trie nodes (by identity), surface
    symbols and bindings, so a hit returns what the walk would compute;
    `surfaces` and `words` hold pure functions of a morpheme selection and
    of a word, so a hit returns what the search would find. A
    scripted cursor's node is a node of the one-path trie of the form it
    reads (`paths`), so its key is that form and the offset into it, and
    homographs share their entries. Lexicon.add bumps the lexicon's
    revision, which replaces the memo (step_memo).

    masks    per tape, trie node -> bitmask of the plans whose first lexical
             tuple finds the edges it needs there (bit i: the i-th rule in
             grammar order; RulePlan.admits_edges)
    heads    grounded surface head -> bitmask of the plans that can take it:
             those with an empty surface expression and those whose first
             surface slot admits it
    surfaced bitmask of the plans with a non-empty surface expression
    by_mask  bitmask -> its plans in grammar order
    walks    (plan, node per read tape, value per read variable) -> the
             plan's trie walks in walk order, each as (mark of the cursor
             reached per read tape, symbols consumed per tape, lexical
             tuples, bindings added); see _advance_tapes
    paths    form -> the root of the one-path trie that spells it
    watches  (plan, lexical segment of a record it made) -> the watch rules
             whose lexical expression matches the segment, each with the
             bindings of that match, in plan.watch order; see
             _scan_coercions
    contexts ((LeftSide, group index j, values of LeftSide.reads[j]),
             window) -> the bindings the group adds matched against the
             window, the lexical tuples or surface symbols it would cover,
             or None: what the left-context scans over the history nodes
             are made of (_group_match, _scan)
    hard     identities of a (pattern, root, vocalism) entry triple -> the
             triple's entries and their unified hard features, or None when
             they clash: the stem check's (_stem_ok) and the stems' of an
             analysis (_collect_stems), through _hard_features. The entries
             are kept with the value, so no identity in a key is reused
    stems    (root trie node, vocalism trie node) -> whether some root entry
             at or below the one unifies in hard features with some
             vocalism entry at or below the other: the stem lookahead's
             verdicts (_stems_meet). A root/vocalism clash fails the stem
             check with every pattern, and where the grammar closes a root
             and a vocalism only together with a pattern
             (_closes_stems_together) that check reads all three, so a
             state whose cursors reach no pair that meets has no complete
             successor (_stem_ok). None for any other grammar, which gets
             no lookahead.
    spelling the tape on which each record reads exactly one symbol and
             spells at most one surface symbol for it (_spelling_tape), or
             None: derived here, on the first search over the pair
    copied   the tape whose symbols the spelling tape's slot symbols copy to
             the surface (_copied_tape), or None: derived here with
             `spelling`. Which symbols copy it, and what else they may
             spell, is derived per trie edge with the rest of its spelling
             (_copy_literals, cover_steps)
    cover_steps  trie node -> (whether an entry ends at or below it after
             symbols that may all vanish, each (surface set, may vanish,
             child, copy literals) of its edges): the trie as the
             surface-fit walk (_spans) reads it on every tape, whole
             morphemes from the spelling tape's root too, one entry per
             node (_cover_steps); only a tape other than the spelling tape
             reads the flag, and only the spelling tape has copy literals
    lex_cap  the longest lexical-only run a partition may make
    surfaces (entry ids per tape in TAPES order, skip rules) -> the first
             surface the rule relation gives that morpheme selection, or
             None: correction's regenerations (corrector.regenerate)
    words    word -> its analyses, for a word that has one: correction's
             base analyses and verifications (corrector.analyze); a word
             with no analysis is not kept, so the table holds at most the
             analysable words that corrections reach
    """

    def __init__(self, grammar: Grammar, lexicon: Lexicon):
        self.revision = lexicon.revision
        self.plans = tuple(grammar.plans.values())
        self.masks: Tuple[Dict[object, int], ...] = tuple({} for _ in TAPES)
        self.heads: Dict[str, int] = {}
        self.surfaced = self.mask(lambda plan: bool(plan.rule.surf))
        self.by_mask: Dict[int, Tuple[RulePlan, ...]] = {}
        self.walks: Dict[tuple, tuple] = {}
        self.paths: Dict[SymbolString, Node] = {}
        self.watches: Dict[tuple, tuple] = {}
        self.contexts: Dict[tuple, Optional[Bindings]] = {}
        self.hard: Dict[Tuple[int, int, int], tuple] = {}
        self.stems: Optional[Dict[Tuple[Node, Node], bool]] = \
            {} if _closes_stems_together(grammar) else None
        self.spelling = _spelling_tape(grammar)
        self.copied = _copied_tape(grammar, self.spelling)
        self.cover_steps: Dict[Node, tuple] = {}
        self.lex_cap = lexicon.max_entry_length() + 4
        self.surfaces: Dict[tuple, Optional[SymbolString]] = {}
        self.words: Dict[SymbolString, Tuple[Analysis, ...]] = {}

    def mask(self, admits) -> int:
        """Bitmask of the plans for which `admits(plan)` holds."""
        return sum(1 << i for i, plan in enumerate(self.plans) if admits(plan))

    def head_mask(self, head: str) -> int:
        m = self.heads.get(head)
        if m is None:
            m = self.heads[head] = self.mask(
                lambda plan: not plan.rule.surf or plan.admits_head(head))
        return m

    def plans_in(self, mask: int) -> Tuple[RulePlan, ...]:
        plans = self.by_mask.get(mask)
        if plans is None:
            plans = self.by_mask[mask] = tuple(
                plan for i, plan in enumerate(self.plans) if mask >> i & 1)
        return plans

    def path(self, form: SymbolString) -> Node:
        """The root of the one-path trie that spells `form`."""
        root = self.paths.get(form)
        if root is None:
            root = node = self.paths[form] = Node()
            for sym in form:
                child = node.edges[sym] = Node(node.depth + 1)
                node = child
        return root


def step_memo(grammar: Grammar, lexicon: Lexicon) -> StepMemo:
    """The step memo of a (grammar, lexicon) pair. It lives on the grammar,
    keyed weakly by the lexicon, so releasing either releases it."""
    memo = grammar.step_memos.get(lexicon)
    if memo is None or memo.revision != lexicon.revision:
        memo = grammar.step_memos[lexicon] = StepMemo(grammar, lexicon)
    return memo


class _SearchContext:
    """What one search reads: the grammar, the lexicon and its step memo,
    and the rules it may apply; and the tables that live as long as the
    search, each of which reads the search's one word:
    - `histories`, which interns its history nodes;
    - `spans`, the surface-fit walk's values: (trie node, pos, spliced
      prefix) -> on the spelling tape, the bitmask of the numbers of items
      of `spliced + word[pos:]` the rest of some entry below the node
      spells; on another tape, nonzero when that rest surfaces in order
      inside it (_spans). The key also holds the symbols that slot symbols
      of the spelling tape may copy (SearchState.held), None where nothing
      narrows them, as on another tape. A FreeRef in the prefix is keyed
      by its domain and exclusions, all the walk reads of it: `refs` maps
      them to the first FreeRef with them, which stands for every other
      (_canonical);
    - `covers`, the spelling tape's verdicts under the same keys: whether
      the rest of the morpheme and then whole morphemes spell it
      (_spelled);
    - `held`, those sets, by the whole surface a path reads (_held).
    Where the lookaheads apply is a fact of each successor, worked out
    where it is made (apply_rule, corrector.try_error_rules) from its word,
    its budget and `errors`: whether the search that expands the state has
    an error step (_lookaheads). _successors sets it before it applies the
    rules, since apply_rule(ctx, state, rule) is told nothing else of the
    search.
    """

    def __init__(self, grammar: Grammar, lexicon: Lexicon,
                 skip_rules: FrozenSet[str] = frozenset()):
        self.grammar = grammar
        self.lexicon = lexicon
        self.skip_rules = skip_rules
        self.memo = step_memo(grammar, lexicon)
        # the compiled rules this search may apply
        self.allowed = self.memo.mask(
            lambda plan: plan.rule.name not in skip_rules)
        self.errors = False
        self.histories: Dict[tuple, History] = {}
        self.covers: Dict[tuple, bool] = {}
        self.spans: Dict[tuple, int] = {}
        self.refs: Dict[tuple, FreeRef] = {}
        self.held: Dict[tuple, FrozenSet[str]] = {}

    def history(self, parent: History, lex_seg: Tuple[LexTuple, ...],
                surf_seg: Tuple[str, ...]) -> History:
        """`parent` extended by a record's segments: the one node of this
        search for them, or `parent` itself when they are empty."""
        if not lex_seg and not surf_seg:
            return parent
        key = (parent, lex_seg, surf_seg)
        node = self.histories.get(key)
        if node is None:
            node = self.histories[key] = History(parent, lex_seg, surf_seg)
        return node


# ---------------------------------------------------------------------------
# rule application


def _advance_tapes(ctx: _SearchContext, plan: RulePlan, state: SearchState,
                   bindings: Bindings):
    """Enumerate tape advances matching the rule's lexical expression.
    Yields (cursors, consumed_per_tape, lex_tuples, bindings).

    The walks come from the step memo. The key is all the walk reads: the
    plan, the node of each tape in plan.read_tapes and the binding of each
    variable in plan.read_vars. The walks store what they add to the
    bindings and, per read tape, the mark of the cursor reached, which the
    current cursor is moved to, so a hit yields what _walk would.
    """
    cursors = [t.cursor for t in state.tapes]
    read = plan.read_tapes
    key = (plan, *[cursors[ti].node for ti in read],
           *[bindings.get(v) for v in plan.read_vars])
    walks = ctx.memo.walks.get(key)
    if walks is None:
        walks = ctx.memo.walks[key] = tuple(
            (tuple([curs[ti].mark() for ti in read]), consumed, tuples,
             tuple([(v, sym) for v, sym in b.items() if v not in bindings]))
            for curs, consumed, tuples, b in _walk(ctx, plan, cursors,
                                                   bindings))
    for marks, consumed, tuples, added in walks:
        curs = list(cursors)
        for ti, mark in zip(read, marks):
            curs[ti] = cursors[ti].moved(mark)
        b = bindings
        if added:
            b = dict(bindings)
            b.update(added)
        yield curs, consumed, tuples, b


def _walk(ctx: _SearchContext, plan: RulePlan, cursors: list,
          bindings: Bindings):
    """The tape advances of _advance_tapes, walked from `cursors`.

    Advances come in the lexicographic order of the symbols taken, slot by
    slot (trie edges are kept sorted). A bound variable follows its one
    edge.
    """
    guards = plan.rule.guards
    walks = [(cursors, [None] * plan.width, bindings)]
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
                for sym in cursor.node.edges:
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
    n = len(TAPES)
    for curs, syms, b in walks:
        consumed = tuple(tuple(s for s in syms[ti::n] if s is not None)
                         for ti in range(n))
        tuples = tuple(tuple(syms[k:k + n]) for k in range(0, len(syms), n))
        yield curs, consumed, tuples, b


def _indexes_next(cursors, tapes: Tuple[int, ...], sym: str) -> bool:
    """Does the slot symbol index the next position of each aligned tape?"""
    for ti in tapes:
        try:
            if slot_index(sym) != cursors[ti].node.depth + 1:
                return False
        except (ValueError, IndexError):
            return False
    return True


def _unread(state: SearchState, k: int) -> Optional[tuple]:
    """The next `k` items of the unread surface, `spliced + word[pos:]`, or
    None if fewer remain."""
    spliced = state.spliced
    if k <= len(spliced):
        return spliced[:k]
    end = state.pos + k - len(spliced)
    if end > len(state.word):
        return None
    return spliced + state.word[state.pos:end]


def _consume_surface(state: SearchState, surf: Tuple[tuple, ...],
                     bindings: Bindings, guards: Guards):
    """Match the rule's surface expression against the unread surface.

    Returns (consumed_syms, grounded, bindings) or None, where `grounded`
    maps the id of each FreeRef grounded along the way to its symbol.
    """
    items = _unread(state, len(surf))
    if items is None:
        return None
    consumed: List[str] = []
    grounded: Dict[int, str] = {}
    b = bindings
    for pat, item in zip(surf, items):
        sym = grounded.get(item.ref_id) if isinstance(item, FreeRef) else item
        if sym is None:                      # ungrounded FreeRef
            if pat[0] == "lit":
                val = pat[1]
            elif pat[0] == "var":
                val = b.get(pat[1])
                if val is None:
                    return None
            else:
                return None
            if not item.admits(val):
                return None
            grounded[item.ref_id] = val
            consumed.append(val)
        else:
            res = match_slot(pat, sym, b, guards)
            if res is None:
                return None
            b = res
            consumed.append(sym)
    return consumed, grounded, b


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


def _obligation(ctx: _SearchContext, state: SearchState, rule: TwoLevelRule,
                bindings: Bindings, coerces: Optional[str] = None) -> Obligation:
    """`rule`'s right contexts and feature guards under `bindings`, for a
    record made at `state`."""
    queues: List[List[tuple]] = [[] for _ in TAPES]
    if rule.rlc != WILDCARD:
        for item in rule.rlc:
            for ti, slot in enumerate(item):
                if slot != EPS:
                    queues[ti].append(_bind_slot(slot, bindings))
    surf = () if rule.rsc == WILDCARD else \
        tuple(_bind_slot(slot, bindings) for slot in rule.rsc)
    feats = tuple((TAPES.index(tape), attr, val,
                   len(state.tapes[TAPES.index(tape)].morphemes))
                  for tape, attr, val in rule.guards.feats)
    return Obligation(tuple(map(tuple, queues)) + (surf,),
                      tuple(sorted(bindings.items())), rule.guards, feats,
                      coerces)


def _feed_obligations(ctx: _SearchContext, obligations: Sequence[Obligation],
                      consumed: tuple, surf_syms: Tuple[str, ...],
                      record: PartitionRecord) -> Optional[List[Obligation]]:
    """Feed each obligation's tape queues, then its surface queue, with one
    record's material, then match its first pending record pattern against
    the record. A mismatch drops a watch, and kills the branch (None) for
    an own obligation."""
    if not obligations:
        return []
    material = consumed + (surf_syms,)
    fed_obls = []
    for o in obligations:
        fed = _feed_queues(o.queues, material, dict(o.bindings), o.guards)
        if fed is not None and o.records:
            b = match_record_pattern(o.records[0], record, fed[1], o.guards,
                                     ctx.grammar.same_rule)
            fed = None if b is None else (fed[0], b)
        if fed is None:
            if o.coerces is None:
                return None
            continue
        queues, b = fed
        fed_obls.append(Obligation(queues, tuple(sorted(b.items())), o.guards,
                                   o.feats, o.coerces, o.records[1:]))
    return fed_obls


def _requirements_hold(o: Obligation,
                       tapes: Sequence[TapeState]) -> Optional[bool]:
    """True when every feature requirement holds, False when one fails,
    None while one waits for its morpheme. Commits only append morphemes,
    so a verdict once decided never changes."""
    verdict: Optional[bool] = True
    for tape_i, attr, val, midx in o.feats:
        morphemes = tapes[tape_i].morphemes
        if len(morphemes) <= midx:
            verdict = None
        elif val not in morphemes[midx].features.get(attr, ()):
            return False
    return verdict


def _settle(obligations: Sequence[Obligation],
            tapes: Sequence[TapeState]) -> Optional[Tuple[Obligation, ...]]:
    """The obligations still pending after a morpheme commit, or None if
    the branch dies. A failed requirement kills an own obligation and voids
    a watch; complete contexts with holding requirements meet an own
    obligation and let a watch kill the branch."""
    if not obligations:
        return ()
    pending = []
    for o in obligations:
        holds = _requirements_hold(o, tapes)
        if holds is False:
            if o.coerces is None:
                return None
        elif holds and o.contexts_done():
            if o.coerces is not None:
                return None
        else:
            pending.append(o)
    return tuple(pending)


def _scan_coercions(ctx: _SearchContext, state: SearchState,
                    record: PartitionRecord,
                    plan: RulePlan) -> List[Obligation]:
    """Watches for every obligatory rule the record, freshly made by
    `plan`'s rule, could violate: its lexical side and left contexts match,
    its surface differs.

    The lexical matches come from the step memo."""
    if not record.lex_seg:
        return []
    key = (plan, record.lex_seg)
    matches = ctx.memo.watches.get(key)
    if matches is None:
        found = []
        for rule in plan.watch:
            b = match_lex(rule.lex, record.lex_seg, {}, rule.guards)
            if b is not None:
                found.append((rule, b))
        matches = ctx.memo.watches[key] = tuple(found)
    watches = []
    for rule, b in matches:
        if rule.name in ctx.skip_rules:
            continue
        b = _left_bindings(ctx, ctx.grammar.plans[rule.name], state.history,
                           b)
        if b is None:
            continue
        required = _emit_surface(rule.surf, b)
        if required is None or tuple(required) == record.surf_seg:
            continue
        watches.append(_obligation(ctx, state, rule, b, coerces=rule.name))
    return watches


def _affix_order_ok(prior: Tuple[MorphemeEntry, ...], entry: MorphemeEntry) -> bool:
    """Simple prefix < stem/word < suffix ordering on the pattern tape."""
    if entry.kind == "prefix":
        return all(e.kind == "prefix" for e in prior)
    if entry.kind == "suffix":
        return any(e.kind not in ("prefix", "suffix") for e in prior)
    return all(e.kind != "suffix" for e in prior)


def _commit_morphemes(tapes: List[TapeState],
                      read: Tuple[int, ...]) -> List[Tuple[TapeState, ...]]:
    """Resolve the tapes in `read` that sit on entry terminals into entry
    choices.

    Returns the fully committed tape tuples (choice points over homographs,
    in tape order), filtered by affix ordering. Only a tape a step read can
    sit on a terminal: the step that reaches one commits it.
    """
    options: List[Tuple[int, List[TapeState]]] = []
    for ti in read:
        tape = tapes[ti]
        entries = tape.cursor.terminal_entries()
        if not entries:
            continue
        choices = []
        for entry in entries:
            if ti == PATTERN and not _affix_order_ok(tape.morphemes, entry):
                continue
            choices.append(TapeState(cursor=tape.cursor.reset(),
                                     morphemes=tape.morphemes + (entry,)))
        if not choices:
            return []
        options.append((ti, choices))
    if not options:
        return [tuple(tapes)]
    out = []
    for combo in itertools.product(*[choices for _, choices in options]):
        committed = list(tapes)
        for (ti, _), tape in zip(options, combo):
            committed[ti] = tape
        out.append(tuple(committed))
    return out


def _stem_ok(ctx: _SearchContext, before: Sequence[TapeState],
             after: Sequence[TapeState]) -> bool:
    """False when the stem tapes just closed a morpheme whose hard
    features clash, read from the step memo (_hard_features).

    Analyses look ahead to this check (_stems_meet), and the lookahead is
    exact. Where the grammar closes stems together
    (_closes_stems_together), a root and a vocalism morpheme close only
    together, at a step that commits a pattern morpheme as well, and this
    check then unifies that pattern with the root and vocalism read. Since
    unification only narrows values, a root and a vocalism that clash fail
    with every pattern, so a state whose cursors can reach no root and
    vocalism that unify closes no stem that passes here, and yields no
    complete state.
    """
    if len(after[ROOT].morphemes) == len(before[ROOT].morphemes) or \
       len(after[VOCALISM].morphemes) == len(before[VOCALISM].morphemes) or \
       not after[PATTERN].morphemes:
        return True
    return _hard_features(ctx, after[PATTERN].morphemes[-1],
                          after[ROOT].morphemes[-1],
                          after[VOCALISM].morphemes[-1]) is not None


def _hard_features(ctx: _SearchContext, pattern: MorphemeEntry,
                   root: MorphemeEntry,
                   vocalism: MorphemeEntry) -> Optional[FeatureStructure]:
    """The unified features of a stem without the soft attributes, or None
    when they clash; filled once per entry triple (StepMemo.hard)."""
    key = (id(pattern), id(root), id(vocalism))
    got = ctx.memo.hard.get(key)
    if got is None:
        soft = ctx.lexicon.soft_attrs
        got = ctx.memo.hard[key] = (pattern, root, vocalism, unify_all(
            restrict(pattern.features, soft), restrict(root.features, soft),
            restrict(vocalism.features, soft)))
    return got[3]


def _reads(slot: tuple, sym: str, guards: Guards) -> bool:
    """Can a lexical slot read `sym`? Only its class domain is read."""
    if slot[0] == "lit":
        return slot[1] == sym
    if slot[0] == "var":
        domain = guards.allowed.get(slot[1])
        return domain is None or sym in domain
    return slot != EPS


def _closes_stems_together(grammar: Grammar) -> bool:
    """Does every lexical tuple of the grammar's rules that can read a
    boundary on the root or vocalism tape read one on all three tapes, as
    R4's (+, +, +) does? A form ends at its only boundary, so then a root
    and a vocalism morpheme close only together, with a pattern morpheme:
    the premise of the stem lookahead (_stem_ok)."""
    plus = ("lit", BOUNDARY)
    for rule in grammar.rules:
        for tup in rule.lex:
            if (_reads(tup[ROOT], BOUNDARY, rule.guards)
                    or _reads(tup[VOCALISM], BOUNDARY, rule.guards)) \
                    and any(slot != plus for slot in tup):
                return False
    return True


def _entries_below(node: Node) -> Iterator[MorphemeEntry]:
    """The entries at `node` and at every node under it."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield from node.entries
        stack.extend(node.edges.values())


def _stems_meet(ctx: _SearchContext, tapes: Sequence[TapeState]) -> bool:
    """False when the root and vocalism cursors both sit inside a morpheme
    (neither at its trie root) and no root entry still reachable from the
    one unifies in hard features with any vocalism entry still reachable
    from the other: then no stem they close passes _stem_ok. The verdict
    per node pair is filled on first use (StepMemo.stems). True for a
    grammar that has no such verdicts, for which the lookahead is not
    exact."""
    stems = ctx.memo.stems
    root, voc = tapes[ROOT].cursor.node, tapes[VOCALISM].cursor.node
    if stems is None or not root.depth or not voc.depth:
        return True
    key = (root, voc)
    meet = stems.get(key)
    if meet is None:
        soft = ctx.lexicon.soft_attrs
        vocs = [restrict(v.features, soft) for v in _entries_below(voc)]
        meet = stems[key] = any(
            unify(restrict(r.features, soft), v) is not None
            for r in _entries_below(root) for v in vocs)
    return meet


def _spelling(ctx: _SearchContext, ti: int,
              sym: str) -> Tuple[Optional[FrozenSet[str]], bool]:
    """What one record that reads `sym` on tape `ti` spells: the surface
    symbols it can emit, None for any symbol, and whether `sym` may vanish.
    The surface-fit walk derives it once per trie edge, when it fills the
    node the edge leaves (_cover_steps).

    `sym` may vanish when some rule that can read it reads more than one
    symbol of the tape or has other than one surface slot, as the rules
    that delete it and the boundary rules do. Each other rule that can read
    it emits one surface symbol at its one surface slot: a literal, `sym`
    itself when the slot is the variable that reads it, or else any value
    of the slot's variable. Guards only narrow these sets, so only class
    domains are read. A symbol no rule reads has an empty set and does not
    vanish.
    """
    out, anything, vanishes = set(), False, False
    for rule in ctx.grammar.rules:
        slots = [tup[ti] for tup in rule.lex if tup[ti] != EPS]
        if not any(_reads(slot, sym, rule.guards) for slot in slots):
            continue
        if len(slots) != 1 or len(rule.surf) != 1:
            vanishes = True
            continue
        surf = rule.surf[0]
        if surf[0] == "lit":
            out.add(surf[1])
        elif surf == slots[0]:
            out.add(sym)
        else:
            domain = rule.guards.allowed.get(surf[1]) \
                if surf[0] == "var" else None
            if domain is None:
                anything = True
            else:
                out |= domain
    return None if anything else frozenset(out), vanishes


def _spelling_tape(grammar: Grammar) -> Optional[int]:
    """The first tape on which every rule of the grammar has exactly one
    lexical tuple, that tuple's slot is a literal or a variable, and the
    rule has at most one surface slot; None when no tape is. Then each
    record reads exactly one symbol of the tape and spells at most one
    surface symbol for it: the premise of the walk's spelling mode
    (_fits)."""
    for ti in range(len(TAPES)):
        if all(len(rule.lex) == 1 and rule.lex[0][ti][0] in ("lit", "var")
               and len(rule.surf) <= 1 for rule in grammar.rules):
            return ti
    return None


def _copied_tape(grammar: Grammar, spelling: Optional[int]) -> Optional[int]:
    """The first tape other than the spelling tape that some rule copies to
    the surface: the rule's one surface slot is the variable of its slot on
    that tape, as R1's C on the root tape. None when no rule does, or the
    grammar has no spelling tape: the premise of the copy narrowing
    (_copy_literals, _held)."""
    if spelling is None:
        return None
    for ti in range(len(TAPES)):
        if ti != spelling and any(
                len(rule.surf) == 1 and rule.surf[0][0] == "var"
                and rule.surf[0] == rule.lex[0][ti] for rule in grammar.rules):
            return ti
    return None


def _copy_literals(ctx: _SearchContext, sym: str) -> Optional[FrozenSet[str]]:
    """The literals a record that reads `sym` on the spelling tape may
    spell, when every other surface symbol it may spell is a symbol read on
    the copied tape T (StepMemo.copied); None when it may spell something
    else, or never spells a symbol read on T. The surface-fit walk derives
    it once per trie edge, with the edge's spelling (_cover_steps).

    Each rule that can read `sym` must spell nothing, a literal, or a
    variable that a T slot reads: the slot of its own tuple on T, as R1's
    C, or a slot on T of its lexical left context, as R5's C, which binds
    it to a symbol an earlier record read on T. In the bundled grammar the
    consonant slots c1-c4 copy root consonants, and w (glottal_change) is
    their one literal."""
    memo = ctx.memo
    t = memo.copied
    lits, copies = set(), False
    for rule in ctx.grammar.rules:
        tup = rule.lex[0]
        if not rule.surf or not _reads(tup[memo.spelling], sym, rule.guards):
            continue
        surf = rule.surf[0]
        if surf[0] == "lit":
            lits.add(surf[1])
        elif surf[0] == "var" and (surf == tup[t] or (
                rule.llc != WILDCARD and any(
                    len(item) == len(TAPES) and item[t] == surf
                    for item in rule.llc))):
            copies = True
        else:
            return None
    return frozenset(lits) if copies else None


def _canonical(ctx: _SearchContext, items: tuple) -> tuple:
    """`items` with each FreeRef replaced by the first FreeRef of the
    search with its domain and exclusions (ctx.refs), which is all the
    surface-fit walk reads of it (_takes)."""
    refs = ctx.refs
    return tuple([refs.setdefault((it.domain, it.excluded), it)
                  if isinstance(it, FreeRef) else it for it in items])


def _held(ctx: _SearchContext, word: SymbolString, pos: int,
          front: tuple) -> Optional[FrozenSet[str]]:
    """The symbols of the entries on the copied tape (StepMemo.copied) that
    surface in order inside `front + word[pos:]`, the whole surface a path
    reads: each edge whose child's rest still surfaces in order after the
    edge's symbol takes its first match, as the walk's mode for a tape
    other than the spelling tape reads it (_spans), is followed from the
    trie root. None for a grammar with no copied tape. Kept per search by
    that surface (ctx.held).

    A complete state reads whole entries on every tape, and on a tape other
    than the spelling tape their symbols surface in order in what its
    records consume. So every symbol a complete state below reads on the
    copied tape is held, and a slot symbol that copies one spells a held
    symbol or one of its literals (_copy_literals): SearchState.held."""
    tape = ctx.memo.copied
    if tape is None:
        return None
    front = _canonical(ctx, front)
    whole = front + tuple(word[pos:])
    held = ctx.held.get(whole)
    if held is None:
        got = set()
        stack = [(ctx.lexicon.tree(TAPES[tape]).root, pos, front)]
        while stack:
            node, at, before = stack.pop()
            _, edges = ctx.memo.cover_steps.get(node) or \
                _cover_steps(ctx, tape, node)
            for sym, (emits, vanishes, child, _) in zip(node.edges, edges):
                after = (at, before) if vanishes else \
                    _after(emits, word, at, before)
                if after is not None and _spans(ctx, tape, child, word,
                                                *after):
                    got.add(sym)
                    stack.append((child, *after))
        held = ctx.held[whole] = frozenset(got)
    return held


def _surface_fits(ctx: _SearchContext, tapes: Sequence[TapeState],
                  word: SymbolString, pos: int, spliced: tuple,
                  held: Optional[FrozenSet[str]] = None) -> bool:
    """False when the symbols some tape's cursor still has to read cannot
    surface in the unread surface `spliced + word[pos:]` (_fits): the
    spelling tape's cursor always, and another tape's only inside a
    morpheme (not at its trie root). On the spelling tape a slot symbol
    that copies spells only `held` symbols and its literals, where `held`
    is given (SearchState.held). The walk reads a FreeRef only through its
    domain and exclusions (_takes), so the first FreeRef of the search with
    them stands for each (_canonical), and successors spliced apart share
    their verdicts."""
    if spliced:
        spliced = _canonical(ctx, spliced)
    spelling = ctx.memo.spelling
    for ti, tape in enumerate(tapes):
        node = tape.cursor.node
        if (node.depth or ti == spelling) and not _fits(
                ctx, ti, tape.cursor.tree.root, node, word, pos, spliced,
                held):
            return False
    return True


def _fits(ctx: _SearchContext, ti: int, root: Node, node: Node,
          word: SymbolString, pos: int, spliced: tuple,
          held: Optional[FrozenSet[str]] = None) -> bool:
    """Can the symbols tape `ti` still reads from `node` surface in the
    unread surface `spliced + word[pos:]`? On the spelling tape
    (StepMemo.spelling) the rest of the morpheme and then whole morphemes
    from the trie's `root` must spell it, a slot symbol that copies only
    as a `held` symbol or one of its literals where `held` is given
    (_spelled); on another tape the rest of some entry below the node must
    surface in order inside it (_spans)."""
    if ti == ctx.memo.spelling:
        return _spelled(ctx, ti, root, node, word, pos, spliced, held)
    return _spans(ctx, ti, node, word, pos, spliced) != 0


def _spans(ctx: _SearchContext, ti: int, node: Node, word: SymbolString,
           pos: int, spliced: tuple,
           held: Optional[FrozenSet[str]] = None) -> int:
    """What the rest of some entry below `node` on tape `ti` can spell of
    the unread surface `spliced + word[pos:]`. Each symbol spells one
    surface symbol of its set, or none where it may vanish (_spelling); a
    FreeRef matches a set when it admits one of its symbols.
    - On the spelling tape (StepMemo.spelling), the bitmask of the k such
      that the rest of some entry spells exactly the first k items: each
      symbol takes the next item or vanishes. Where `held` is given, a slot
      symbol that copies the copied tape spells only a held symbol or one
      of its literals (_copy_literals, SearchState.held).
    - On another tape, nonzero when the rest of some entry surfaces in
      order inside it: a symbol that cannot vanish takes its first match at
      or after the front, which leaves the longest rest, and one that may
      vanish is only stepped over. A node below which an entry ends after
      symbols that may all vanish fits with no value kept: only this mode
      reads that flag of StepMemo.cover_steps.

    The values are kept per (node, pos, spliced prefix, held) in ctx.spans.
    One is worked out from those of the node's children, so it recurses
    only inside one morpheme, no deeper than the longest entry.
    """
    ends, edges = ctx.memo.cover_steps.get(node) or \
        _cover_steps(ctx, ti, node)
    spelling = ti == ctx.memo.spelling
    if ends and not spelling:
        return 1
    key = (node, pos, spliced, held)
    spans = ctx.spans.get(key)
    if spans is None:
        spans = 1 if node.entries else 0
        if spelling:
            # the one item a symbol can take, and the rest after it
            item = spliced[0] if spliced else \
                word[pos] if pos < len(word) else None
            rest = (pos, spliced[1:]) if spliced else (pos + 1, ())
        for emits, vanishes, child, copies in edges:
            if spans and not spelling:
                break
            if copies is not None and held is not None:
                emits = held | copies if emits is None else \
                    emits & (held | copies)
            if vanishes:
                spans |= _spans(ctx, ti, child, word, pos, spliced, held)
            # the unread surface after the symbol spells one item: the next
            # on the spelling tape; elsewhere the first it matches, where a
            # symbol that may vanish is only stepped over
            if spelling:
                after = rest if item is not None and _takes(emits, item) \
                    else None
            else:
                after = None if vanishes else _after(emits, word, pos, spliced)
            if after is not None:
                spans |= _spans(ctx, ti, child, word, *after, held) << 1
        ctx.spans[key] = spans
    return spans


def _after(emits: Optional[FrozenSet[str]], word: SymbolString, pos: int,
           spliced: tuple) -> Optional[Tuple[int, tuple]]:
    """The unread surface `spliced + word[pos:]` after the first item a
    record with the surface set `emits` can spell, as (pos, spliced
    prefix), or None when none can."""
    for k, item in enumerate(spliced):
        if _takes(emits, item):
            return pos, spliced[k + 1:]
    for j in range(pos, len(word)):
        if emits is None or word[j] in emits:
            return j + 1, ()
    return None


def _takes(emits: Optional[FrozenSet[str]], item) -> bool:
    """Can a record with the surface set `emits` (None for any symbol)
    spell the unread item, a symbol or a FreeRef?"""
    if emits is None:
        return True
    if isinstance(item, str):
        return item in emits
    return any(map(item.admits, emits))


def _spelled(ctx: _SearchContext, ti: int, root: Node, node: Node,
             word: SymbolString, pos: int, spliced: tuple,
             held: Optional[FrozenSet[str]] = None) -> bool:
    """Do the symbols the spelling tape `ti` still reads from `node`, the
    rest of its morpheme and then whole morphemes from the trie's `root`,
    spell `spliced + word[pos:]`? The rests after the current morpheme are
    read off its bitmask (_spans): each k >= 0 below the root, and each
    k > 0 at the root, since a morpheme that spells nothing can be left
    out. Where `held` is given, a slot symbol that copies spells only a
    held symbol or one of its literals, in the current morpheme and in each
    whole one (_spans, SearchState.held): a stem that no root the surface
    can hold fills covers nothing. The verdicts are kept in ctx.covers under
    the key of the bitmask, `held` with it, and worked out with a stack of
    the rests still undecided, never by recursion over the word: each
    morpheme read from the root leaves a shorter rest, and the longest
    morpheme is tried first."""
    covers = ctx.covers
    top = (node, pos, spliced, held)
    fit = covers.get(top)
    if fit is not None:
        return fit
    stack = [top]
    pending: Dict[tuple, list] = {}
    while top not in covers:
        key = stack[-1]
        rests = pending.get(key)
        if rests is None:
            at_node, at, before, _ = key
            if at_node is root and not before and at == len(word):
                covers[key] = True
                stack.pop()
                continue
            # the rest after the current morpheme spells k items
            n = len(before)
            spans = _spans(ctx, ti, at_node, word, at, before, held)
            rests = pending[key] = [
                (root, at, before[k:], held) if k <= n
                else (root, at + k - n, (), held)
                for k in range(1 if at_node is root else 0, spans.bit_length())
                if spans >> k & 1]
        while rests and covers.get(rests[-1]) is False:
            rests.pop()
        if not rests or covers.get(rests[-1]):
            covers[key] = bool(rests)
            stack.pop()
        else:
            stack.append(rests[-1])
    return covers[top]


def _cover_steps(ctx: _SearchContext, ti: int, node: Node
                 ) -> Tuple[bool, Tuple[Tuple[Optional[FrozenSet[str]], bool,
                                              Node, Optional[FrozenSet[str]]],
                                        ...]]:
    """Whether an entry ends at or below `node` on tape `ti` after symbols
    that may all vanish, and each (surface set, may vanish, child, copy
    literals) of the node's edges (StepMemo.cover_steps). Only the walk's
    mode for a tape other than the spelling tape reads the flag, and only
    the spelling tape has copy literals, for a symbol that copies the
    copied tape (_copy_literals); an edge on any other tape, or whose
    symbol copies nothing, has None."""
    steps = ctx.memo.cover_steps.get(node)
    if steps is None:
        copying = ti == ctx.memo.spelling and ctx.memo.copied is not None
        edges = tuple((*_spelling(ctx, ti, sym), child,
                       _copy_literals(ctx, sym) if copying else None)
                      for sym, child in node.edges.items())
        ends = bool(node.entries) or any(
            vanishes and _cover_steps(ctx, ti, child)[0]
            for _, vanishes, child, _ in edges)
        steps = ctx.memo.cover_steps[node] = (ends, edges)
    return steps


_UNSEEN = object()


def _left_bindings(ctx: _SearchContext, plan: RulePlan, history: History,
                   bindings: Bindings) -> Optional[Bindings]:
    """`bindings` extended by the plan's left contexts matched at the end
    of `history`, LLC then LSC, as grammar.match_context matches them, or
    None when one fails: the one left-context matcher, read by hoisted
    plans before the walk (with none given), by plans matched after it and
    by coercion watches. Each side's scan is memoised at the last node end
    on its tape (_scan), so a hoisted plan's verdict is read from that
    memo. The result may be `bindings` itself: callers copy it before they
    bind."""
    for side in plan.sides:
        seg = history.lex_seg if side.lexical else history.surf_seg
        got = _scan(ctx, side, len(side.groups) - 1, history, len(seg),
                    bindings)
        if got is None:
            return None
        if got:
            bindings = {**bindings, **got}
    return bindings


def _before(node: Optional[History], i: int,
            lexical: bool) -> Tuple[Optional[History], int]:
    """Position `i` of `node`'s segment on the tape (it may be 0 or
    negative: that many items before its start) as (node, offset) with the
    offset inside or at the end of the node's segment; (None, 0) for the
    start of the history."""
    while node is not None and i <= 0:
        node = node.parent
        while node is not None and not (node.lex_seg if lexical
                                         else node.surf_seg):
            node = node.parent
        if node is not None:
            i += len(node.lex_seg if lexical else node.surf_seg)
    return node, i


def _window(node: History, i: int, size: int,
            lexical: bool) -> Optional[tuple]:
    """The `size` items left of position `i` of `node`'s segment, which
    holds fewer before it, read back across the nodes above it; None when
    fewer precede it."""
    items = (node.lex_seg if lexical else node.surf_seg)[:i]
    while len(items) < size:
        node, _ = _before(node, 0, lexical)
        if node is None:
            return None
        seg = node.lex_seg if lexical else node.surf_seg
        items = seg[len(items) - size:] + items
    return items


def _scan(ctx: _SearchContext, side: LeftSide, j: int,
          node: Optional[History], i: int,
          bindings: Bindings) -> Optional[Bindings]:
    """F(p, j, b): the bindings that groups j, j-1, ..., 0 of `side` add
    when matched under `bindings` leftwards from position p, `i` items into
    `node`'s segment on the side's tape; None when one finds no match. The
    last group of the context takes only the window flush against p; an
    earlier one takes the nearest window that matches, and the groups
    before it scan on from its start.

    The scan walks the segments back from the node, a window of the
    group's size at a time (_window), and matches each window once per
    grammar and lexicon (_group_match). F of any group at a node's end is
    memoised on the node (History.scans), keyed by the values of the
    variables the groups read (LeftSide.reads). The scan is monotone:
    from every node end it passes before its match, it would scan on
    exactly as it does, so each of them gets its answer, and a memoised end
    it reaches answers for it."""
    groups = side.groups
    while j >= 0 and not groups[j]:
        j -= 1
    if j < 0:
        return {}
    lexical = side.lexical
    size = len(groups[j])
    flush = j == len(groups) - 1
    key = (side, j, tuple([bindings.get(v) for v in side.reads[j]])
           if bindings else ())
    contexts = ctx.memo.contexts
    passed = []
    got = None
    if i <= 0:
        node, i = _before(node, i, lexical)
    while node is not None:
        seg = node.lex_seg if lexical else node.surf_seg
        if i == len(seg):
            scans = node.scans
            if scans is None:
                scans = node.scans = {}
            else:
                hit = scans.get(key, _UNSEEN)
                if hit is not _UNSEEN:
                    got = hit
                    break
            passed.append(scans)
        window = seg[i - size:i] if i >= size else \
            _window(node, i, size, lexical)
        if window is None:
            break
        added = contexts.get((key, window), _UNSEEN)
        if added is _UNSEEN:
            added = _group_match(ctx, key, window)
        if added is not None:
            got = added
            if j:
                start, at = _before(node, i - size, lexical)
                rest = _scan(ctx, side, j - 1, start, at,
                             {**bindings, **added})
                got = None if rest is None else {**added, **rest}
            break
        if flush:
            break
        i -= 1
        if not i:
            node, i = _before(node, 0, lexical)
    for scans in passed:
        scans[key] = got
    return got


def _group_match(ctx: _SearchContext, key: tuple,
                 window: tuple) -> Optional[Bindings]:
    """The bindings that group j of a LeftSide adds matched against
    `window`, under the values of its reads that `key`, (side, j, values),
    holds (none when empty), or None: filled once per grammar and lexicon
    through match_context (StepMemo.contexts). The bindings are shared:
    callers copy them before they bind."""
    side, j, values = key
    given = {v: x for v, x in zip(side.reads[j], values) if x is not None}
    got = match_context(side.groups[j], window, given, side.guards,
                        side.lexical)
    if got is not None and given:
        got = {v: x for v, x in got.items() if v not in given}
    ctx.memo.contexts[key, window] = got
    return got


def apply_rule(ctx: _SearchContext, state: SearchState,
               rule: TwoLevelRule) -> Iterator[SearchState]:
    """All successor states of applying one two-level rule at `state`.

    Independent left contexts are matched before the tries are walked, and
    a first surface variable bound by them or by the surface head limits
    the walk; see RulePlan.

    A successor keeps the state's budget, so the lookaheads that apply to
    it are those that apply to the state (_lookaheads). They are checked once
    the step's morphemes are committed, and a successor that fails one
    gets no obligation, watch, history node, record or state. A successor
    no lookahead checks is committed only after its obligations are fed:
    most generation steps fail there, and would commit for nothing.
    """
    plan = ctx.grammar.plans[rule.name]
    word = state.word
    stems, fit = _lookaheads(state, ctx.errors)
    start: Bindings = {}
    if plan.hoisted:
        start = _left_bindings(ctx, plan, state.history, {})
        if start is None:
            return
    var = plan.surf_var
    if var is not None and word is not None:
        unread = _unread(state, 1)
        head = unread[0] if unread else None
        if isinstance(head, str):
            bound = start.get(var)
            if bound is not None:
                if bound != head:
                    return
            elif var == plan.prebind:
                # _successors admitted the head (RulePlan.admits_head), and
                # no != guard names a pre-bound variable
                start = dict(start)
                start[var] = head
    read = plan.read_tapes
    for cursors, consumed, lex_tuples, b in _advance_tapes(ctx, plan, state,
                                                           start):
        if not plan.hoisted:
            b = _left_bindings(ctx, plan, state.history, b)
            if b is None:
                continue
        free_vars = state.free_vars
        spliced = ()
        orig = 0
        if word is None:
            emitted = _emit_surface(rule.surf, b)
            if emitted is None:
                continue
            surf_syms = tuple(emitted)
        else:
            got = _consume_surface(state, rule.surf, b, rule.guards)
            if got is None:
                continue
            consumed_syms, grounded, b = got
            surf_syms = tuple(consumed_syms)
            orig = max(0, len(surf_syms) - len(state.spliced))
            spliced = state.spliced[len(surf_syms):]
            if grounded:
                spliced = _ground(spliced, grounded)
                free_vars += tuple(grounded.items())
        total_consumed = sum(map(len, consumed))
        nonconsuming = total_consumed == 0 and not surf_syms
        if nonconsuming and state.last_nonconsuming:
            continue
        if surf_syms:
            lex_run = 0
        else:
            lex_run = state.lex_run + total_consumed
            if lex_run > ctx.memo.lex_cap:
                continue
        pos = state.pos + orig
        tapes_mid = list(state.tapes)
        for ti in read:
            tapes_mid[ti] = TapeState(cursors[ti], tapes_mid[ti].morphemes)
        committed = None
        if stems:
            committed = [
                tapes for tapes in _commit_morphemes(tapes_mid, read)
                if _stems_meet(ctx, tapes)
                and (not fit or _surface_fits(ctx, tapes, word, pos, spliced,
                                              state.held))]
            if not committed:
                continue

        record = PartitionRecord(rule.name, surf_syms, lex_tuples,
                                 pos=state.pos)
        pending = _feed_obligations(ctx, state.obligations, consumed,
                                    surf_syms, record)
        if pending is None:
            continue
        pending += _scan_coercions(ctx, state, record, plan)
        if rule.rlc != WILDCARD or rule.rsc != WILDCARD or rule.guards.feats:
            pending.append(_obligation(ctx, state, rule, b))
        history = ctx.history(state.history, lex_tuples, surf_syms)

        if committed is None:
            committed = _commit_morphemes(tapes_mid, read)
        for tapes_after in committed:
            obligations = _settle(pending, tapes_after)
            if obligations is None:
                continue
            if not _stem_ok(ctx, state.tapes, tapes_after):
                continue
            yield SearchState(
                tapes=tapes_after,
                word=word,
                spliced=spliced,
                records=state.records + (record,),
                history=history,
                free_vars=free_vars,
                obligations=obligations,
                budget=state.budget,
                pos=pos,
                lex_run=lex_run,
                last_nonconsuming=nonconsuming,
                held=state.held,
            )


def _complete(state: SearchState) -> bool:
    """The input is read, every tape is done, every obligation is met, and
    some morpheme is not an affix: a word is more than its affixes."""
    return ((state.word is None
             or (not state.spliced and state.pos == len(state.word)))
            and all(tape.cursor.done() for tape in state.tapes)
            and all(o.coerces is not None or o.contexts_done()
                    for o in state.obligations)
            and any(e.kind not in ("prefix", "suffix")
                    for tape in state.tapes for e in tape.morphemes))


def _dispatch(ctx: _SearchContext, state: SearchState
              ) -> Tuple[Optional[str], Tuple[RulePlan, ...]]:
    """The grounded surface head (None in generation, at the end of the
    input or on a FreeRef), and the plans in grammar order whose first
    surface slot can take it and whose first lexical tuple finds the edges
    it needs on every cursor. Both tests are bitmasks from the step memo.
    """
    memo = ctx.memo
    mask = ctx.allowed
    head = None
    if state.word is not None:
        unread = _unread(state, 1)
        if unread is None:
            mask &= ~memo.surfaced
        elif isinstance(unread[0], str):
            head = unread[0]
            mask &= memo.head_mask(head)
    for ti, t in enumerate(state.tapes):
        node = t.cursor.node
        masks = memo.masks[ti]
        m = masks.get(node)
        if m is None:
            m = masks[node] = memo.mask(
                lambda plan: plan.admits_edges(ti, node.edges))
        mask &= m
    return head, memo.plans_in(mask)


def _successors(ctx: _SearchContext, state: SearchState,
                error_step) -> Iterator[SearchState]:
    """Rule successors in grammar order, then error successors.

    Of the plans _dispatch admits, a rule is not tried when a tape it reads
    the pre-bound head from lacks the head's edge, when its hoisted left
    contexts fail at this history, or when they bind its first surface
    variable to a symbol other than the head: apply_rule would yield
    nothing for it.
    """
    ctx.errors = error_step is not None
    head, plans = _dispatch(ctx, state)
    for plan in plans:
        if head is not None and plan.prebind_tapes and any(
                head not in state.tapes[ti].cursor.node.edges
                for ti in plan.prebind_tapes):
            continue
        if plan.sides and plan.hoisted:
            start = _left_bindings(ctx, plan, state.history, {})
            if start is None:
                continue
            if head is not None and plan.surf_var is not None and \
                    start.get(plan.surf_var, head) != head:
                continue
        yield from apply_rule(ctx, state, plan.rule)
    # no error rule applies once the budget is spent
    if error_step is not None and state.budget != 2:
        yield from error_step(ctx, state)


def _table_key(state: SearchState) -> tuple:
    """Everything the subtree of a budget-spent state reads, by content.

    The unread surface is keyed by its spliced prefix: the input behind it
    follows from `pos`, and the input is one word per search. A FreeRef
    there (always ungrounded) keeps its first-occurrence index, domain and
    exclusions, so a shared ref stays shared and the global ref numbering
    drops out. Each tape is keyed by its cursor's trie node and the
    identities of its morpheme entries; trie nodes, entries and guards live
    as long as the grammar and lexicon. The history is named by its node,
    which the search interns (_SearchContext.history): equal content split
    into the same records is one node, so the key misses a content hit
    only across different splits, and the node carries the left-context
    scans its subtree reads (History.scans).
    `records` is left out: only error rules read records, through their
    partition left contexts, and no error rule is tried once the budget is
    spent. A pending PRC reads the records to come, and it is in the key
    as the record patterns its obligation holds.
    """
    spliced = ()
    if state.spliced:
        items = []
        first: Dict[int, int] = {}
        for item in state.spliced:
            items.append((first.setdefault(item.ref_id, len(items)),
                          item.domain, item.excluded)
                         if isinstance(item, FreeRef) else item)
        spliced = tuple(items)
    deferred = tuple([(o.queues, o.bindings, id(o.guards), o.feats, o.coerces,
                       o.records) for o in state.obligations])
    pattern, root, vocalism = state.tapes
    return (spliced, deferred, pattern.cursor.node,
            tuple(map(id, pattern.morphemes)), root.cursor.node,
            tuple(map(id, root.morphemes)), vocalism.cursor.node,
            tuple(map(id, vocalism.morphemes)), state.history, state.pos,
            state.lex_run, state.last_nonconsuming)


def _lookaheads(state: SearchState, errors: bool) -> Tuple[bool, bool]:
    """Whether the stem lookahead and the surface fit apply at `state` in a
    search with an error step (`errors`) or without, which is also where
    they apply at the successors of its rules, since those keep its budget
    (apply_rule; see _search)."""
    stems = state.word is not None and (state.budget > 0 or not errors)
    return stems, stems and (state.budget == 2 or not errors)


def _search(ctx: _SearchContext, roots: Iterable[SearchState],
            error_step=None) -> Iterator[SearchState]:
    """Depth-first search from each root in turn; yields complete states in
    deterministic order.

    Ordinary successors are explored before the error successors of the
    same state, which `error_step(ctx, state)` returns at every state whose
    budget is not spent. Successor streams, and `roots`, are read lazily,
    so early-exiting consumers skip unexplored siblings.

    With an error step, the search tables failed budget-spent states: a
    state whose budget is spent and whose subtree yielded no complete state
    has its key (`_table_key`) recorded, and a later state with the same
    key is not expanded. This is exact. Two states with one key read the
    same history node, trie nodes, morpheme entries and everything else
    their subtrees read, so the later subtree yields nothing either; and
    skipping a subtree that yields nothing leaves the sequence of yielded
    states, hence candidates, ranks and analysis order, unchanged. Each
    frame of the stack holds its successors, its state's key (None when
    the state is not tabled) and the number of states yielded before it
    was pushed. Searches without an error step do no work for the table.

    The lookaheads are exact by the same token, and a state is checked by
    them when it has a word and is not a budget-0 state of a search with
    an error step (_lookaheads). Generation has no word, and its cursors
    walk the paths of scripted forms, with no lexicon entries below them.
    A budget-0 state of a search with an error step belongs to
    correction's error-free pass, which records every state it expands to
    fix the failure point; a lookahead would leave some out and could move
    it.
    The roots of correction's second pass are error successors, whose
    budget is 1 or 2.

    A successor is checked where it is made, before anything else is built
    for it: apply_rule checks its successors once their morphemes are
    committed, and corrector.try_error_rules its error successors right
    after the splice. This search checks no state, its roots included. Of
    the roots the library searches from, only analyze's start can fail a
    lookahead, and analyze checks it: the stems trivially meet at the trie
    roots, generation has no word, the error-free pass is not pruned, and
    the error search's roots are error successors, checked by
    try_error_rules and corrector._error_roots. A complete state passes
    both lookaheads, so checking before _complete, as the makers do, cuts
    no more than checking after it.

    Each expansion reads two per-state checks from tables rather than
    working them out: a hoisted plan's left-context verdict is the one
    matcher's scan memoised at the end of the state's history node, and a
    scan that misses there walks the node's segments back only to the
    nearest node end that memoises the rest, out of group-window matches
    kept in the step memo (_left_bindings, History.scans,
    StepMemo.contexts); and the stem check unifies each (pattern, root,
    vocalism) entry triple once (StepMemo.hard).

    The stem lookahead (_stems_meet) skips only incomplete states whose
    subtrees yield no complete state (_stem_ok).

    The surface-fit lookahead (_surface_fits) is exact at a state below
    which no error rule applies: in a search without an error step, or
    once the budget is spent. With no error rule to come, the records below
    the state consume exactly the unread surface `spliced + word[pos:]`,
    in order, and a complete state below it has every cursor done
    (_complete). The lookahead is one memoised walk down the trie from
    each cursor (_fits, _spans), in the mode of its tape:
    - On the spelling tape (_spelling_tape) each record reads exactly one
      symbol and spells at most one surface symbol, from that symbol's
      surface set, or none only where the symbol may vanish (_spelling).
      So the symbols a complete descendant still reads on that tape, the
      rest of the current morpheme and then whole morphemes up to the trie
      root, spell the unread surface symbol for symbol. The walk gives the
      numbers of unread items the rest of the morpheme can spell, and from
      the root those whole morphemes spell. Leaving out a morpheme that
      spells nothing leaves such a cover a cover, so the stack over the
      rests takes from the root only morphemes that spell some surface
      (_spelled), and never loops through it. The check reads no
      obligation or other tape: it is a necessary condition, and holds
      wherever the premise on the grammar does.
    - On another tape a complete descendant finishes the morpheme each
      cursor is inside, so it reads the unread symbols of some entry below
      the cursor. Each that cannot vanish is read by a record of its own
      that emits one surface symbol of its set, so they surface in order
      inside the unread surface; no complete state lies past a symbol that
      no rule reads.
    - The same holds of every entry a complete state reads on another
      tape, inside the whole surface its records consume: with no error to
      come, what the path has consumed and then the unread surface. So on
      the spelling tape a slot symbol that copies a symbol read on the
      copied tape (_copy_literals), a root consonant at a consonant slot in
      the bundled grammar, spells a symbol of an entry of that tape that
      surfaces in order inside the whole surface, or one of its literals.
      Those symbols are worked out where the whole surface is fixed, at
      analyze's start and at the error that spends the budget, and kept
      on the states below (SearchState.held, _held). A stem that no root
      the surface can hold fills, as a stacked stem over an untouched typo
      on an error path, fails the walk at its first consonant slot. The
      narrowing needs no whole root in what is left of the word: a slot
      may copy a root consonant an earlier stem read, as R5 does.
    A state that fails the walk on some tape has no complete descendant. A
    reap chain (budget 1) can still take an error, which changes the input,
    so its states are not checked; nor are those of the error-free pass, as
    above.
    """
    stack: List[Tuple[Iterator[SearchState], Optional[tuple], int]] = [
        (iter(roots), None, 0)]
    failed = set()       # the keys of tabled states that yielded nothing
    yielded = 0
    while stack:
        try:
            state = next(stack[-1][0])
        except StopIteration:
            _, key, before = stack.pop()
            if key is not None and yielded == before:
                failed.add(key)
            continue
        if _complete(state):
            yielded += 1
            yield state
            continue
        key = _table_key(state) if error_step and state.budget == 2 else None
        if key in failed:
            continue
        stack.append((_successors(ctx, state, error_step), key, yielded))


def analyze(word: SymbolString, grammar: Grammar,
            lexicon: Lexicon) -> List[Analysis]:
    """All no-error analyses of a decoded word, deterministically ordered.
    The empty word has none."""
    if not word:
        return []
    ctx = _SearchContext(grammar, lexicon)
    start = analysis_start(grammar, lexicon, word)
    # with no error to take, the whole surface is the word
    start.held = _held(ctx, start.word, 0, ())
    # the one root a lookahead can cut: its cursors sit at the trie roots,
    # where the stems trivially meet (_search)
    if not _surface_fits(ctx, start.tapes, start.word, 0, (), start.held):
        return []
    return [to_analysis(ctx, s) for s in _search(ctx, [start])]


def analysis_start(grammar: Grammar, lexicon: Lexicon,
                   word: SymbolString) -> SearchState:
    """The initial state of a search over `word`: every tape at the root of
    its lexicon tree."""
    return SearchState(
        tapes=tuple(TapeState(cursor=TrieCursor(lexicon.tree(t)))
                    for t in TAPES),
        word=tuple(word),
    )


def _surface(records: Sequence[PartitionRecord]) -> SymbolString:
    """The corrected (or generated) surface the records consumed, in
    order."""
    return tuple(sym for r in records for sym in r.surf_seg)


def to_analysis(ctx: _SearchContext, state: SearchState) -> Analysis:
    free = dict(state.free_vars)
    morphemes = MappingProxyType({t: state.tapes[i].morphemes
                                  for i, t in enumerate(TAPES)})
    stems = _collect_stems(ctx, state)
    errors = tuple((r.rule_name, r.pos, r.err_seg,
                    tuple(free.get(c.ref_id, "?") if isinstance(c, FreeRef)
                          else c for c in r.corr))
                   for r in state.records if r.error_origin is not None)
    return Analysis(surface=_surface(state.records), records=state.records,
                    morphemes=morphemes, stems=stems, errors=errors)


def _collect_stems(ctx: _SearchContext, state: SearchState) -> Tuple[StemInfo, ...]:
    roots = state.tapes[ROOT].morphemes
    vocs = state.tapes[VOCALISM].morphemes
    if not roots or len(roots) != len(vocs):
        return ()
    # pair each root/vocalism with the templatic pattern entry in order
    patterns = [e for e in state.tapes[PATTERN].morphemes
                if e.kind not in ("prefix", "suffix", "word")]
    stems = []
    for i, (r, v) in enumerate(zip(roots, vocs)):
        if i >= len(patterns):
            break
        p = patterns[i]
        hard = _hard_features(ctx, p, r, v)
        stems.append(StemInfo(p, r, v, MappingProxyType(hard or {})))
    return tuple(stems)


def generate(selection: Dict[str, object], grammar: Grammar, lexicon: Lexicon,
             skip_rules: FrozenSet[str] = frozenset()) -> List[SymbolString]:
    """Surfaces licensed for a morpheme selection.

    selection: {"pattern": id or None, "root": id or None,
                "vocalism": id or None, "affixes": [ids]}. An id that
    names no entry, or an affix id that names no prefix or suffix, raises
    UnknownMorpheme.
    Pass the optional-deletion rule names in skip_rules for fully vocalised
    output; an empty set enumerates every licensed orthography. A selection
    that names no morpheme generates nothing.
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
        if entry is None or entry.kind not in ("prefix", "suffix"):
            raise UnknownMorpheme(f"no affix morpheme {ident!r}")
        affixes.append(entry)

    prefixes = tuple(e for e in affixes if e.kind == "prefix")
    suffixes = tuple(e for e in affixes if e.kind == "suffix")
    pattern_seq = prefixes + ((pattern,) if pattern else ()) + suffixes

    scripts = {
        "pattern": pattern_seq,
        "root": (root,) if root else (),
        "vocalism": (voc,) if voc else (),
    }
    if not any(scripts.values()):
        return []
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
        tapes=tuple(TapeState(cursor=ScriptCursor.over(scripts.get(t, ()),
                                                       ctx.memo))
                    for t in TAPES),
        word=None,
    )
    for s in _search(ctx, [initial]):
        yield _surface(s.records)

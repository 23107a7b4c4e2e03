"""Rule data model and matching for the multi-tape two-level formalism.

A rule licenses a pairing of a surface segment with a tuple of lexical-tape
segments in four contexts (left/right, surface/lexical). Slot patterns are
tagged tuples:

    ("lit", sym)   a literal symbol
    ("var", name)  a variable, single assignment per rule application
    EPS            the empty slot (matches no symbol)
    ANY            wildcard slot (matches a symbol or nothing)

Lexical tuples in partitions use ``None`` for an empty slot.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .lexicon import TAPES

EPS = ("eps",)
ANY = ("any",)
ELLIPSIS = ("ellipsis",)

Slot = tuple
TuplePattern = Tuple[Slot, ...]
LexTuple = Tuple[Optional[str], ...]
Bindings = Dict[str, str]

WILDCARD = "*"


class GrammarError(Exception):
    pass


class RuleSyntaxError(GrammarError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        where = f" (line {line}, column {column})" if line else ""
        super().__init__(message + where)
        self.line = line
        self.column = column


class UndeclaredClass(GrammarError):
    pass


class DuplicateRuleName(GrammarError):
    pass


@dataclass(frozen=True)
class Guards:
    """Variable constraints collected from a rule's where-clause: class
    domains, `aligned` and `feat` guards, and `!=` guards, whose other
    operand is a variable or an alphabet symbol. A `!=` guard is symmetric,
    and forbids a value once its operand is known (`excluded`)."""

    allowed: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    diseq: Tuple[Tuple[str, str, bool], ...] = ()   # (var, other, other_is_var)
    aligned: Tuple[Tuple[str, str], ...] = ()       # (var, tape name)
    feats: Tuple[Tuple[str, str, str], ...] = ()    # (tape, attr, value)

    def permits(self, var: str, sym: str, bindings: Bindings) -> bool:
        """May `var` take `sym` under `bindings`? Allocates nothing when
        the rule has no != guard."""
        dom = self.allowed.get(var)
        if dom is not None and sym not in dom:
            return False
        return not self.diseq or sym not in self.excluded(var, bindings)

    def excluded(self, var: str, bindings: Bindings) -> Tuple[str, ...]:
        """The symbols the != guards forbid `var` under `bindings`, in
        guard order: each literal operand, and each variable operand that
        is bound."""
        out = []
        for v, other, other_is_var in self.diseq:
            if v == var:
                target = bindings.get(other) if other_is_var else other
            elif other_is_var and other == var:
                target = bindings.get(v)
            else:
                continue
            if target is not None:
                out.append(target)
        return tuple(out)

    def named(self) -> FrozenSet[str]:
        """The variables a != guard names, on either side."""
        return frozenset([v for v, _, _ in self.diseq]
                         + [o for _, o, is_var in self.diseq if is_var])


# A context pattern is either WILDCARD or a sequence of items
# (tuple patterns and/or ELLIPSIS markers).
ContextPattern = object


@dataclass(frozen=True)
class TwoLevelRule:
    name: str
    surf: Tuple[Slot, ...]            # surface expression (may be empty)
    lex: Tuple[TuplePattern, ...]     # lexical expression, one or more tuples
    op: str                           # "=>" or "<=>"
    lsc: ContextPattern = WILDCARD
    rsc: ContextPattern = WILDCARD
    llc: ContextPattern = WILDCARD
    rlc: ContextPattern = WILDCARD
    guards: Guards = field(default_factory=Guards)
    aliases: Tuple[str, ...] = ()

    @property
    def obligatory(self) -> bool:
        return self.op == "<=>"


@dataclass(frozen=True)
class RecordPattern:
    """One PLC/PRC item: [RuleName|*, SurfPattern, LexTuplePattern]."""

    rule_name: str                    # name or "*"
    surf: Tuple[Slot, ...]            # () means empty surface; (ANY,) wildcard
    lex: TuplePattern


@dataclass(frozen=True)
class ErrorRule:
    name: str
    err: Tuple[Slot, ...]             # error surface (may be empty)
    corr: Tuple[Slot, ...]            # corrected surface (may be empty)
    plc: ContextPattern = WILDCARD
    prc: ContextPattern = WILDCARD
    reap: bool = False
    guards: Guards = field(default_factory=Guards)
    aliases: Tuple[str, ...] = ()


@dataclass
class Grammar:
    rules: List[TwoLevelRule]
    erules: List[ErrorRule]
    classes: Dict[str, FrozenSet[str]]

    def __post_init__(self):
        self.by_name: Dict[str, str] = {}
        for r in list(self.rules) + list(self.erules):
            for n in (r.name,) + tuple(r.aliases):
                if n in self.by_name:
                    raise DuplicateRuleName(f"rule name {n!r} declared twice")
                self.by_name[n] = r.name
        self.erule_index = {r.name: i for i, r in enumerate(self.erules)}
        self.obligatory_rules: List[TwoLevelRule] = [
            r for r in self.rules if r.obligatory]
        self.plans: Dict[str, RulePlan] = {
            r.name: RulePlan(r, tuple(
                o for o in self.obligatory_rules
                if not self.same_rule(o.name, r.name)))
            for r in self.rules}
        # each error rule's partition left context, split at its ellipses
        # once, as RulePlan splits a rule's left contexts
        self.plcs: Dict[str, ContextPattern] = {
            r.name: r.plc if r.plc == WILDCARD else split_left(r.plc)
            for r in self.erules}
        # the engine's step memo per lexicon (engine.StepMemo), released
        # with the lexicon
        self.step_memos = weakref.WeakKeyDictionary()

    def canonical(self, name: str) -> str:
        return self.by_name.get(name, name)

    def same_rule(self, name_a: str, name_b: str) -> bool:
        return self.canonical(name_a) == self.canonical(name_b)


# ---------------------------------------------------------------------------
# slot / tuple matching


def match_slot(pat: Slot, sym: Optional[str], bindings: Bindings,
               guards: Guards) -> Optional[Bindings]:
    """Match one slot pattern against a symbol (None = empty slot)."""
    tag = pat[0]
    if tag == "eps":
        return bindings if sym is None else None
    if tag == "any":
        return bindings
    if tag == "lit":
        return bindings if sym == pat[1] else None
    # variable: needs an actual symbol
    if sym is None:
        return None
    name = pat[1]
    bound = bindings.get(name)
    if bound is not None:
        return bindings if bound == sym else None
    if not guards.permits(name, sym, bindings):
        return None
    out = dict(bindings)
    out[name] = sym
    return out


def match_tuple(pat: Sequence[Slot], tup: Sequence[Optional[str]],
                bindings: Bindings, guards: Guards) -> Optional[Bindings]:
    """Match a slot-pattern sequence against a symbol sequence of the same
    length, slot by slot: a lexical tuple, or a surface segment."""
    if len(pat) != len(tup):
        return None
    b = bindings
    for p, s in zip(pat, tup):
        b = match_slot(p, s, b, guards)
        if b is None:
            return None
    return b


def match_lex(expr: Sequence[TuplePattern], tuples: Sequence[LexTuple],
              bindings: Bindings, guards: Guards = Guards()) -> Optional[Bindings]:
    """Match a lexical expression against concrete tuples, extending bindings."""
    if len(expr) != len(tuples):
        return None
    b = bindings
    for pat, tup in zip(expr, tuples):
        b = match_tuple(pat, tup, b, guards)
        if b is None:
            return None
    return b


# ---------------------------------------------------------------------------
# context matching

class LeftContext(tuple):
    """A left context split at its ellipses into groups of items."""


def split_left(items: Sequence) -> LeftContext:
    groups: List[List] = [[]]
    for it in items:
        if it == ELLIPSIS:
            groups.append([])
        else:
            groups[-1].append(it)
    return LeftContext(tuple(g) for g in groups)


def _match_group_at(group, segment, start, bindings, guards, match_item):
    b = bindings
    for off, pat in enumerate(group):
        b = match_item(pat, segment[start + off], b, guards)
        if b is None:
            return None
    return b


def _match_left(items, segment, bindings, guards, match_item) -> Optional[Bindings]:
    """Left context with committed nearest-match ellipsis anchoring.

    The group right of the last ellipsis must sit flush against the core;
    every earlier group is matched at the nearest position to the right that
    admits it, and that choice is committed (no backtracking to farther ones).
    `items` may come split already (a LeftContext).
    """
    groups = items if isinstance(items, LeftContext) else split_left(items)
    pos = len(segment)
    last = groups[-1]
    if last:
        start = pos - len(last)
        if start < 0:
            return None
        bindings = _match_group_at(last, segment, start, bindings, guards, match_item)
        if bindings is None:
            return None
        pos = start
    for group in reversed(groups[:-1]):
        if not group:
            continue
        found = None
        for start in range(pos - len(group), -1, -1):
            b = _match_group_at(group, segment, start, bindings, guards, match_item)
            if b is not None:
                found = (start, b)
                break
        if found is None:
            return None
        pos, bindings = found
    return bindings


def match_context(pat: ContextPattern, segment: Sequence, bindings: Bindings,
                  guards: Guards = Guards(),
                  lexical: bool = True) -> Optional[Bindings]:
    """Match a left context pattern against the material consumed so far:
    LexTuples for a lexical context, surface symbols for a surface one.
    Failure is None. Right contexts are fed to deferred obligations as
    later records are made (engine.Obligation).
    """
    if pat == WILDCARD:
        return bindings
    match_item = match_tuple if lexical else match_slot
    return _match_left(pat, segment, bindings, guards, match_item)


def match_record_pattern(pat: RecordPattern, record, bindings: Bindings,
                         guards: Guards, same_rule) -> Optional[Bindings]:
    """Match one PLC/PRC record pattern against a PartitionRecord-like object
    (anything exposing .rule_name, .surf_seg and .lex_seg). A named pattern
    takes a record of that rule under any of its names (`same_rule`, the
    grammar's Grammar.same_rule). Its surface matches the record's whole
    surface segment and its lexical tuple the record's one lexical tuple;
    `*` in either place matches anything."""
    if pat.rule_name != WILDCARD and not same_rule(pat.rule_name,
                                                   record.rule_name):
        return None
    b = bindings
    if pat.surf != (ANY,):
        b = match_tuple(pat.surf, record.surf_seg, b, guards)
        if b is None:
            return None
    if pat.lex == (ANY,):
        return b
    if len(record.lex_seg) != 1:
        return None
    return match_tuple(pat.lex, record.lex_seg[0], b, guards)


def match_partition_context(pat: ContextPattern, records: Sequence,
                            bindings: Bindings, guards: Guards,
                            same_rule) -> Optional[Bindings]:
    """Match a partition left context (PLC) against the PartitionRecords
    made so far: each record pattern against one record
    (match_record_pattern, with the grammar's `same_rule`), ellipsis groups
    anchored as in any left context; `pat` may come split already
    (Grammar.plcs). A PRC is matched record by record as the records are
    made, as the record patterns of a deferred obligation
    (engine.Obligation)."""
    if pat == WILDCARD:
        return bindings

    def item(p, rec, b, g):
        return match_record_pattern(p, rec, b, g, same_rule)

    return _match_left(pat, records, bindings, guards, item)


# ---------------------------------------------------------------------------
# compiled rules


def slot_vars(slot: Slot):
    if slot[0] == "var":
        yield slot[1]


def context_vars(pat):
    """The variables of a context's items: surface slots, lexical tuples or
    record patterns."""
    if pat == WILDCARD:
        return
    for item in pat:
        if isinstance(item, RecordPattern):
            slots = item.surf + item.lex
        elif isinstance(item[0], tuple):          # a lexical tuple
            slots = item
        else:                                     # a surface slot, ELLIPSIS
            slots = (item,)
        for s in slots:
            yield from slot_vars(s)


def rule_vars(rule) -> Set[str]:
    """Every variable a two-level or error rule uses in its expressions
    and contexts."""
    if isinstance(rule, ErrorRule):
        slots, contexts = rule.err + rule.corr, (rule.plc, rule.prc)
    else:
        slots = rule.surf + tuple(s for tup in rule.lex for s in tup)
        contexts = (rule.lsc, rule.rsc, rule.llc, rule.rlc)
    return {v for s in slots for v in slot_vars(s)} | {
        v for pat in contexts for v in context_vars(pat)}


class LeftSide:
    """One left context of a rule (RulePlan.sides): its groups as split at
    the ellipses, the tape it reads, and per group j the variables whose
    bindings the matches of groups j, j-1, ..., 0 read, those the groups
    name and their != partners (`reads`). An object per context, so that
    tables key it by identity."""

    __slots__ = ("groups", "lexical", "guards", "reads")

    def __init__(self, groups: LeftContext, lexical: bool, guards: Guards):
        self.groups = groups
        self.lexical = lexical
        self.guards = guards
        named: Set[str] = set()
        reads = []
        for group in groups:
            named |= set(context_vars(group))
            partners = {v for pair in guards.diseq if pair[2]
                        and set(pair[:2]) & named for v in pair[:2]}
            reads.append(tuple(sorted(named | partners)))
        self.reads = tuple(reads)


class RulePlan:
    """A two-level rule analysed once per grammar, for rule dispatch.

    Each part is a necessary condition for the rule to apply, or an order
    of checks that cannot influence each other, so a rule applied through
    its plan yields the same successors in the same order as before.

    hoisted      LLC and LSC share no variable with the lexical expression
                 and no != guard links the two, so they are matched once per
                 state, with no bindings given, before the tries are walked.
                 Otherwise they are matched after each lexical advance, with
                 the walk's bindings: an ellipsis group commits to its
                 nearest match, and bindings can move it.
    sides        the left contexts as LeftSides, LLC first; empty when both
                 are WILDCARD. Every caller matches them off the history
                 nodes (engine._left_bindings).
    surf_lit     the first surface slot's literal, or None.
    surf_var     the first surface slot's variable, or None, and its
    surf_domain  class (None when unrestricted).
    prebind      surf_var when it can be bound from the surface head before
                 the walk: it is in no context, and no aligned or != guard
                 names it (a != guard could move a left context's match).
    steps        the non-empty lexical slots in walk order: (index into the
                 flattened tuples, tape, tag, literal or variable name,
                 domain, indices of aligned tapes, whether a != guard names
                 the variable).
    head_steps   the steps of the first lexical tuple, whose edges the
                 cursors must offer.
    prebind_tapes  the tapes of the head steps that read the pre-bound
                 variable: they must offer the surface head itself.
    read_tapes   the tapes whose trie nodes the walk reads: those its steps
                 advance and those its aligned guards name (by depth).
    read_vars    the bindings the walk reads: its lexical variables and
                 their != partners. With read_tapes they determine the walk.
    watch        the obligatory rules a record made by this rule could
                 violate, in grammar order: every one but the rule itself.
    """

    def __init__(self, rule: TwoLevelRule, watch: Tuple[TwoLevelRule, ...]):
        guards = rule.guards
        n = len(TAPES)
        self.rule = rule
        self.width = len(rule.lex) * n
        lex_vars = {v for tup in rule.lex for s in tup for v in slot_vars(s)}
        left_vars = set(context_vars(rule.llc)) | set(context_vars(rule.lsc))
        linked = any(
            is_var and ({v, other} & lex_vars) and ({v, other} & left_vars)
            for v, other, is_var in guards.diseq)
        self.hoisted = not (lex_vars & left_vars) and not linked
        self.sides = tuple(LeftSide(split_left(pat), lexical, guards)
                           for pat, lexical in ((rule.llc, True),
                                                (rule.lsc, False))
                           if pat != WILDCARD)

        head = rule.surf[0] if rule.surf else ANY
        self.surf_lit = head[1] if head[0] == "lit" else None
        self.surf_var = head[1] if head[0] == "var" else None
        self.surf_domain = guards.allowed.get(self.surf_var)
        in_context = left_vars | set(context_vars(rule.rsc)) \
            | set(context_vars(rule.rlc))
        for v, tape in guards.aligned:
            if tape not in TAPES:
                raise GrammarError(
                    f"rule {rule.name}: aligned({v}, {tape}) names no tape")
        named = guards.named()
        guarded = named | {v for v, _ in guards.aligned}
        self.prebind = self.surf_var if (
            self.surf_var is not None
            and self.surf_var not in in_context | guarded) else None

        steps = []
        for k, tup in enumerate(rule.lex):
            for ti, slot in enumerate(tup):
                if slot == EPS:
                    continue
                value = slot[1] if len(slot) > 1 else None
                var = value if slot[0] == "var" else None
                aligned = tuple(TAPES.index(t) for v, t in guards.aligned
                                if v == var)
                steps.append((k * n + ti, ti, slot[0], value,
                              guards.allowed.get(var), aligned, var in named))
        self.steps = tuple(steps)
        self.head_steps = tuple(st for st in steps if st[0] < n)
        self.prebind_tapes = tuple(
            ti for _, ti, tag, value, _, _, _ in self.head_steps
            if tag == "var" and value == self.prebind)
        self.read_tapes = tuple(sorted(
            {st[1] for st in steps} | {ti for st in steps for ti in st[5]}))
        partners = {other if v in lex_vars else v
                    for v, other, is_var in guards.diseq
                    if is_var and {v, other} & lex_vars}
        self.read_vars = tuple(sorted(lex_vars | partners))
        self.watch = watch

    def admits_head(self, head: str) -> bool:
        """Can the first surface slot take `head`, a grounded symbol?"""
        if self.surf_lit is not None:
            return head == self.surf_lit
        return self.surf_domain is None or head in self.surf_domain

    def admits_edges(self, ti: int, offered) -> bool:
        """Do `offered`, the outgoing edges of tape `ti`, hold each edge the
        first lexical tuple needs there? The pre-bound variable counts as
        unbound; a surface head it takes must be offered as well
        (prebind_tapes)."""
        for _, t, tag, value, domain, _, _ in self.head_steps:
            if t != ti:
                continue
            if tag == "lit":
                ok = value in offered
            elif domain is not None:
                ok = not domain.isdisjoint(offered)
            else:
                ok = bool(offered)
            if not ok:
                return False
        return True

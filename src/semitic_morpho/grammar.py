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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .alphabet import slot_index

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
    """Variable constraints collected from a rule's where-clause."""

    allowed: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    diseq: Tuple[Tuple[str, str, bool], ...] = ()   # (var, other, other_is_var)
    aligned: Tuple[Tuple[str, str], ...] = ()       # (var, tape name)
    feats: Tuple[Tuple[str, str, str], ...] = ()    # (tape, attr, value)

    def permits(self, var: str, sym: str, bindings: Bindings) -> bool:
        dom = self.allowed.get(var)
        if dom is not None and sym not in dom:
            return False
        for v, other, other_is_var in self.diseq:
            if v == var:
                target = bindings.get(other) if other_is_var else other
                if target is not None and sym == target:
                    return False
            elif other_is_var and other == var:
                target = bindings.get(v)
                if target is not None and sym == target:
                    return False
        return True

    def domain(self, var: str) -> Optional[FrozenSet[str]]:
        return self.allowed.get(var)


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
    tapes: Tuple[str, ...] = ("pattern", "root", "vocalism")
    source: str = ""

    def __post_init__(self):
        self.by_name: Dict[str, str] = {}
        for r in list(self.rules) + list(self.erules):
            for n in (r.name,) + tuple(r.aliases):
                if n in self.by_name:
                    raise DuplicateRuleName(f"rule name {n!r} declared twice")
                self.by_name[n] = r.name
        self.erule_index = {r.name: i for i, r in enumerate(self.erules)}
        self.plans: Dict[str, RulePlan] = {
            r.name: RulePlan(r, self.tapes) for r in self.rules}

    def canonical(self, name: str) -> str:
        return self.by_name.get(name, name)

    def same_rule(self, name_a: str, name_b: str) -> bool:
        return self.canonical(name_a) == self.canonical(name_b)

    def rule(self, name: str) -> TwoLevelRule:
        canon = self.canonical(name)
        for r in self.rules:
            if r.name == canon:
                return r
        raise KeyError(name)

    @property
    def obligatory_rules(self) -> List[TwoLevelRule]:
        return [r for r in self.rules if r.obligatory]


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


def match_tuple(pat: TuplePattern, tup: LexTuple, bindings: Bindings,
                guards: Guards) -> Optional[Bindings]:
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


def _match_right(items, segment, bindings, guards, match_item) -> Optional[Bindings]:
    """Right context: items anchor flush after the core (no ellipsis)."""
    if len(segment) < len(items):
        return None
    return _match_group_at(list(items), segment, 0, bindings, guards, match_item)


def _surface_item(pat: Slot, sym: Optional[str], bindings, guards):
    return match_slot(pat, sym, bindings, guards)


def _lex_item(pat: TuplePattern, tup: LexTuple, bindings, guards):
    return match_tuple(pat, tup, bindings, guards)


def match_context(pat: ContextPattern, segment: Sequence, side: str,
                  bindings: Bindings, guards: Guards = Guards(),
                  lexical: bool = True) -> Optional[Bindings]:
    """Match a context pattern against consumed (left) or remaining (right)
    material. For lexical contexts the segment holds LexTuples, for surface
    contexts surface symbols. Failure is None.
    """
    if pat == WILDCARD:
        return bindings
    match_item = _lex_item if lexical else _surface_item
    if side == "left":
        return _match_left(pat, segment, bindings, guards, match_item)
    items = [it for it in pat if it != ELLIPSIS]
    if len(items) != len(pat):
        raise GrammarError("ellipsis is only legal in left contexts")
    return _match_right(items, segment, bindings, guards, match_item)


def match_record_pattern(pat: RecordPattern, record, bindings: Bindings,
                         guards: Guards, names_equal=None) -> Optional[Bindings]:
    """Match one PLC/PRC record pattern against a PartitionRecord-like object
    (anything exposing .rule_name, .surf_seg and .lex_seg)."""
    if pat.rule_name != WILDCARD:
        if names_equal is None:
            if pat.rule_name != record.rule_name:
                return None
        elif not names_equal(pat.rule_name, record.rule_name):
            return None
    b = bindings
    if pat.surf != (ANY,):
        if len(record.surf_seg) != len(pat.surf):
            return None
        for p, s in zip(pat.surf, record.surf_seg):
            b = match_slot(p, s, b, guards)
            if b is None:
                return None
    if pat.lex == (ANY,):
        return b
    if len(record.lex_seg) != 1:
        return None
    return match_tuple(pat.lex, record.lex_seg[0], b, guards)


def match_partition_context(pat: ContextPattern, records: Sequence, side: str,
                            bindings: Bindings, guards: Guards = Guards(),
                            names_equal=None) -> Optional[Bindings]:
    """Match a partition context (PLC/PRC) against PartitionRecords."""
    if pat == WILDCARD:
        return bindings

    def item(p, rec, b, g):
        return match_record_pattern(p, rec, b, g, names_equal)

    if side == "left":
        return _match_left(pat, records, bindings, guards, item)
    items = [it for it in pat if it != ELLIPSIS]
    return _match_right(items, records, bindings, guards, item)


# ---------------------------------------------------------------------------
# compiled rules


def slot_vars(slot: Slot):
    if slot[0] == "var":
        yield slot[1]


def context_vars(pat, lexical: bool):
    if pat == WILDCARD:
        return
    for item in pat:
        if item == ELLIPSIS:
            continue
        if isinstance(item, RecordPattern):
            for s in item.surf + item.lex:
                yield from slot_vars(s)
        elif lexical:
            for s in item:
                yield from slot_vars(s)
        else:
            yield from slot_vars(item)


class RulePlan:
    """A two-level rule analysed once per grammar, for rule dispatch.

    Each part is a necessary condition for the rule to apply, or an order
    of checks that cannot influence each other, so a rule applied through
    its plan yields the same successors in the same order as before.

    hoisted      LLC and LSC share no variable with the lexical expression
                 and no != guard links the two, so they are matched once per
                 state, before the tries are walked. Otherwise they are
                 matched after each lexical advance: an ellipsis group
                 commits to its nearest match, and bindings can move it.
    llc, lsc     the left contexts, split at their ellipses, or WILDCARD.
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
    """

    def __init__(self, rule: TwoLevelRule, tapes: Sequence[str]):
        guards = rule.guards
        n = len(tapes)
        self.rule = rule
        self.width = len(rule.lex) * n
        lex_vars = {v for tup in rule.lex for s in tup for v in slot_vars(s)}
        left_vars = set(context_vars(rule.llc, lexical=True))
        left_vars.update(context_vars(rule.lsc, lexical=False))
        linked = any(
            is_var and ({v, other} & lex_vars) and ({v, other} & left_vars)
            for v, other, is_var in guards.diseq)
        self.hoisted = not (lex_vars & left_vars) and not linked
        self.llc = rule.llc if rule.llc == WILDCARD else split_left(rule.llc)
        self.lsc = rule.lsc if rule.lsc == WILDCARD else split_left(rule.lsc)

        head = rule.surf[0] if rule.surf else ANY
        self.surf_lit = head[1] if head[0] == "lit" else None
        self.surf_var = head[1] if head[0] == "var" else None
        self.surf_domain = guards.allowed.get(self.surf_var)
        in_context = left_vars | set(context_vars(rule.rsc, lexical=False)) \
            | set(context_vars(rule.rlc, lexical=True))
        for v, tape in guards.aligned:
            if tape not in tapes:
                raise GrammarError(
                    f"rule {rule.name}: aligned({v}, {tape}) names no tape")
        named = {v for v, _, _ in guards.diseq}
        named.update(o for _, o, is_var in guards.diseq if is_var)
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
                aligned = tuple(tapes.index(t) for v, t in guards.aligned
                                if v == var)
                steps.append((k * n + ti, ti, slot[0], value,
                              guards.allowed.get(var), aligned, var in named))
        self.steps = tuple(steps)
        self.head_steps = tuple(st for st in steps if st[0] < n)

    def admits_head(self, head: str) -> bool:
        """Can the first surface slot take `head`, a grounded symbol?"""
        if self.surf_lit is not None:
            return head == self.surf_lit
        return self.surf_domain is None or head in self.surf_domain

    def admits_edges(self, edges: Sequence, head: Optional[str]) -> bool:
        """Do the cursors offer each edge the first lexical tuple needs?

        `edges` holds each tape's outgoing edges; `head` is the grounded
        surface head, which the pre-bound variable takes, or None.
        """
        for _, ti, tag, value, domain, _, _ in self.head_steps:
            offered = edges[ti]
            if tag == "lit":
                ok = value in offered
            elif tag == "var" and value == self.prebind and head is not None:
                ok = head in offered
            elif domain is not None:
                ok = not domain.isdisjoint(offered)
            else:
                ok = bool(offered)
            if not ok:
                return False
        return True

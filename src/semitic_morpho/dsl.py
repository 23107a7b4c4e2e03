"""Parser and printer for the grammar text format.

One rule per logical line (``\\`` continues a line). Layout mirrors the
tabular presentation of two-level rules:

    class vowel = {a, i, u}
    rule R1: * - C - *  =>  * - (Pc, C, 0) - *  where pc(Pc), cons(C)
    erule E2: 0 => X  { * - * }  reap=n  where cons(X)

``0`` is the empty slot, ``*`` a wildcard, ``...`` ellipsis (left lexical and
partition-left contexts only). Variables start with a capital letter;
everything else in symbol position must be an alphabet symbol, a pattern
slot or ``+``.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .alphabet import ALL_SYMBOLS
from .grammar import (ANY, ELLIPSIS, EPS, WILDCARD, ContextPattern, ErrorRule,
                      Grammar, Guards, RecordPattern, RuleSyntaxError, Slot,
                      TuplePattern, TwoLevelRule, UndeclaredClass,
                      context_vars, slot_vars)

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<op><=>|=>|!=|\.\.\.|reap=[yn])
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[][(){},\-*+=:0])
    """,
    re.VERBOSE,
)

TAPE_COUNT = 3


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Tok({self.text!r})"


def _tokenize_line(line: str, lineno: int) -> List[_Tok]:
    toks = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m:
            raise RuleSyntaxError(f"bad character {line[pos]!r}", lineno, pos + 1)
        if m.lastgroup != "ws":
            toks.append(_Tok(m.group(), lineno, pos + 1))
        pos = m.end()
    return toks


class _Cursor:
    def __init__(self, toks: List[_Tok], lineno: int):
        self.toks = toks
        self.i = 0
        self.lineno = lineno

    def peek(self) -> Optional[str]:
        return self.toks[self.i].text if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        if self.i >= len(self.toks):
            raise RuleSyntaxError("unexpected end of rule", self.lineno)
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise RuleSyntaxError(f"expected {text!r}, found {tok.text!r}",
                                  tok.line, tok.col)
        return tok

    def done(self) -> bool:
        return self.i >= len(self.toks)


def _is_var(text: str) -> bool:
    return text[0].isupper() and text not in ALL_SYMBOLS


def _slot_from_token(tok: _Tok) -> Slot:
    t = tok.text
    if t == "0":
        return EPS
    if t == "*":
        return ANY
    if _is_var(t):
        return ("var", t)
    if t in ALL_SYMBOLS:
        return ("lit", t)
    raise RuleSyntaxError(f"{t!r} is neither a symbol nor a variable",
                          tok.line, tok.col)


def _parse_tuple(cur: _Cursor) -> TuplePattern:
    cur.expect("(")
    slots = [_slot_from_token(cur.next())]
    while cur.peek() == ",":
        cur.next()
        slots.append(_slot_from_token(cur.next()))
    cur.expect(")")
    if len(slots) != TAPE_COUNT:
        raise RuleSyntaxError(f"lexical tuples take {TAPE_COUNT} slots",
                              cur.lineno)
    return tuple(slots)


def _expand_shorthand(slot: Slot) -> TuplePattern:
    """A bare symbol in lexical position assumes the empty slot elsewhere."""
    return (slot,) + (EPS,) * (TAPE_COUNT - 1)


def _check_tuple_not_all_eps(tup: TuplePattern, cur: _Cursor) -> None:
    if all(s == EPS for s in tup):
        raise RuleSyntaxError("a lexical tuple cannot be empty on every tape",
                              cur.lineno)


def _parse_lex_field(cur: _Cursor, stop: Sequence[str]) -> Tuple[TuplePattern, ...]:
    items: List[TuplePattern] = []
    while not cur.done() and cur.peek() not in stop:
        if cur.peek() == "(":
            tup = _parse_tuple(cur)
        else:
            slot = _slot_from_token(cur.next())
            if slot == EPS:
                continue  # "0" core: consumes nothing anywhere
            tup = _expand_shorthand(slot)
        _check_tuple_not_all_eps(tup, cur)
        items.append(tup)
    return tuple(items)


def _parse_surf_field(cur: _Cursor, stop: Sequence[str]) -> Tuple[Slot, ...]:
    items: List[Slot] = []
    while not cur.done() and cur.peek() not in stop:
        slot = _slot_from_token(cur.next())
        if slot == EPS:
            continue
        if slot == ANY:
            raise RuleSyntaxError("'*' is not allowed in a core surface form",
                                  cur.lineno)
        items.append(slot)
    return tuple(items)


def _parse_context_field(cur: _Cursor, stop: Sequence[str], lexical: bool,
                         allow_ellipsis: bool) -> ContextPattern:
    items: List = []
    while not cur.done() and cur.peek() not in stop:
        if cur.peek() == "...":
            tok = cur.next()
            if not allow_ellipsis:
                raise RuleSyntaxError("ellipsis is only legal in left lexical "
                                      "and partition-left contexts",
                                      tok.line, tok.col)
            items.append(ELLIPSIS)
        elif cur.peek() == "(" and lexical:
            tup = _parse_tuple(cur)
            _check_tuple_not_all_eps(tup, cur)
            items.append(tup)
        elif cur.peek() == "*":
            tok = cur.next()
            if items or (not cur.done() and cur.peek() not in stop):
                raise RuleSyntaxError("'*' must stand alone in a context",
                                      tok.line, tok.col)
            return WILDCARD
        else:
            slot = _slot_from_token(cur.next())
            if lexical:
                tup = _expand_shorthand(slot)
                _check_tuple_not_all_eps(tup, cur)
                items.append(tup)
            else:
                items.append(slot)
    return tuple(items) if items else WILDCARD


def _parse_record_pattern(cur: _Cursor) -> RecordPattern:
    cur.expect("[")
    name_tok = cur.next()
    name = name_tok.text if name_tok.text != "*" else WILDCARD
    cur.expect(",")
    surf_tok = cur.next()
    if surf_tok.text == "*":
        surf: Tuple[Slot, ...] = (ANY,)
    elif surf_tok.text == "0":
        surf = ()
    else:
        surf = (_slot_from_token(surf_tok),)
    cur.expect(",")
    if cur.peek() == "(":
        lex = _parse_tuple(cur)
    elif cur.peek() == "*":
        cur.next()
        lex = (ANY,)
    else:
        lex = _expand_shorthand(_slot_from_token(cur.next()))
    cur.expect("]")
    return RecordPattern(rule_name=name, surf=surf, lex=lex)


def _parse_partition_context(cur: _Cursor, stop: Sequence[str],
                             allow_ellipsis: bool) -> ContextPattern:
    items: List = []
    while not cur.done() and cur.peek() not in stop:
        if cur.peek() == "...":
            tok = cur.next()
            if not allow_ellipsis:
                raise RuleSyntaxError("ellipsis is only legal in the partition "
                                      "left context", tok.line, tok.col)
            items.append(ELLIPSIS)
        elif cur.peek() == "[":
            items.append(_parse_record_pattern(cur))
        elif cur.peek() == "*":
            cur.next()
            if items:
                raise RuleSyntaxError("'*' must stand alone in a context",
                                      cur.lineno)
            return WILDCARD
        else:
            tok = cur.next()
            raise RuleSyntaxError(f"unexpected {tok.text!r} in partition context",
                                  tok.line, tok.col)
    return tuple(items) if items else WILDCARD


def _parse_where(cur: _Cursor, classes: Dict[str, FrozenSet[str]],
                 tapes: Tuple[str, ...]) -> Guards:
    allowed: Dict[str, FrozenSet[str]] = {}
    diseq: List[Tuple[str, str, bool]] = []
    aligned: List[Tuple[str, str]] = []
    feats: List[Tuple[str, str, str]] = []
    while not cur.done():
        tok = cur.next()
        name = tok.text
        if cur.peek() == "(":
            cur.next()
            args = [cur.next().text]
            while cur.peek() == ",":
                cur.next()
                args.append(cur.next().text)
            cur.expect(")")
            if name == "aligned":
                if len(args) != 2 or args[1] not in tapes:
                    raise RuleSyntaxError("aligned(Var, tape) expected",
                                          tok.line, tok.col)
                aligned.append((args[0], args[1]))
            elif name == "feat":
                if len(args) != 3 or args[0] not in tapes:
                    raise RuleSyntaxError("feat(tape, attr, value) expected",
                                          tok.line, tok.col)
                feats.append((args[0], args[1], args[2]))
            else:
                if name not in classes:
                    raise UndeclaredClass(f"class {name!r} not declared "
                                          f"(line {tok.line})")
                if len(args) != 1 or not _is_var(args[0]):
                    raise RuleSyntaxError(f"{name}(Var) expected", tok.line, tok.col)
                var = args[0]
                dom = classes[name]
                allowed[var] = allowed.get(var, dom) & dom
        elif cur.peek() == "!=":
            cur.next()
            other = cur.next()
            if not _is_var(name):
                raise RuleSyntaxError("inequality needs a variable on the left",
                                      tok.line, tok.col)
            diseq.append((name, other.text, _is_var(other.text)))
        else:
            raise RuleSyntaxError(f"bad where-clause near {name!r}",
                                  tok.line, tok.col)
        if cur.peek() == ",":
            cur.next()
    return Guards(allowed=allowed, diseq=tuple(diseq), aligned=tuple(aligned),
                  feats=tuple(feats))


def _parse_name_and_aliases(cur: _Cursor) -> Tuple[str, Tuple[str, ...]]:
    name = cur.next().text
    aliases: List[str] = []
    if cur.peek() == "(":
        cur.next()
        aliases.append(cur.next().text)
        while cur.peek() == ",":
            cur.next()
            aliases.append(cur.next().text)
        cur.expect(")")
    cur.expect(":")
    return name, tuple(aliases)


def _parse_rule(cur: _Cursor, classes, tapes) -> TwoLevelRule:
    name, aliases = _parse_name_and_aliases(cur)
    lsc = _parse_context_field(cur, ("-",), lexical=False, allow_ellipsis=False)
    cur.expect("-")
    surf = _parse_surf_field(cur, ("-",))
    cur.expect("-")
    rsc = _parse_context_field(cur, ("=>", "<=>"), lexical=False,
                               allow_ellipsis=False)
    op_tok = cur.next()
    if op_tok.text not in ("=>", "<=>"):
        raise RuleSyntaxError("expected => or <=>", op_tok.line, op_tok.col)
    llc = _parse_context_field(cur, ("-",), lexical=True, allow_ellipsis=True)
    cur.expect("-")
    lex = _parse_lex_field(cur, ("-",))
    cur.expect("-")
    rlc = _parse_context_field(cur, ("where",), lexical=True,
                               allow_ellipsis=False)
    guards = Guards()
    if cur.peek() == "where":
        cur.next()
        guards = _parse_where(cur, classes, tapes)
    if not lex:
        raise RuleSyntaxError(f"rule {name}: empty lexical form", cur.lineno)
    rule = TwoLevelRule(name=name, surf=surf, lex=lex, op=op_tok.text,
                        lsc=lsc, rsc=rsc, llc=llc, rlc=rlc, guards=guards,
                        aliases=aliases)
    _check_variables(rule.name, _rule_vars(rule), guards, cur.lineno)
    return rule


def _parse_erule(cur: _Cursor, classes, tapes) -> ErrorRule:
    name, aliases = _parse_name_and_aliases(cur)
    err = _parse_surf_field(cur, ("=>",))
    cur.expect("=>")
    corr = _parse_surf_field(cur, ("{",))
    cur.expect("{")
    plc = _parse_partition_context(cur, ("-",), allow_ellipsis=True)
    cur.expect("-")
    prc = _parse_partition_context(cur, ("}",), allow_ellipsis=False)
    cur.expect("}")
    reap_tok = cur.next()
    if reap_tok.text not in ("reap=y", "reap=n"):
        raise RuleSyntaxError("expected reap=y or reap=n",
                              reap_tok.line, reap_tok.col)
    guards = Guards()
    if cur.peek() == "where":
        cur.next()
        guards = _parse_where(cur, classes, tapes)
    rule = ErrorRule(name=name, err=err, corr=corr, plc=plc, prc=prc,
                     reap=reap_tok.text == "reap=y", guards=guards,
                     aliases=aliases)
    _check_variables(rule.name, _erule_vars(rule), guards, cur.lineno)
    return rule


def _rule_vars(rule: TwoLevelRule):
    out = set()
    for s in rule.surf:
        out.update(slot_vars(s))
    for tup in rule.lex:
        for s in tup:
            out.update(slot_vars(s))
    out.update(context_vars(rule.lsc, lexical=False))
    out.update(context_vars(rule.rsc, lexical=False))
    out.update(context_vars(rule.llc, lexical=True))
    out.update(context_vars(rule.rlc, lexical=True))
    return out


def _erule_vars(rule: ErrorRule):
    out = set()
    for s in rule.err + rule.corr:
        out.update(slot_vars(s))
    out.update(context_vars(rule.plc, lexical=True))
    out.update(context_vars(rule.prc, lexical=True))
    return out


def _check_variables(name: str, used, guards: Guards, lineno: int) -> None:
    mentioned = set(guards.allowed)
    mentioned.update(v for v, _, _ in guards.diseq)
    mentioned.update(o for _, o, is_var in guards.diseq if is_var)
    mentioned.update(v for v, _ in guards.aligned)
    stray = mentioned - set(used)
    if stray:
        raise RuleSyntaxError(
            f"rule {name}: where-clause names unused variables {sorted(stray)}",
            lineno)


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a Grammar; rule order is preserved."""
    classes: Dict[str, FrozenSet[str]] = {}
    rules: List[TwoLevelRule] = []
    erules: List[ErrorRule] = []
    tapes: Tuple[str, ...] = ("pattern", "root", "vocalism")

    logical: List[Tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not pending:
            pending_line = lineno
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        logical.append((pending_line, pending + line))
        pending = ""
    if pending:
        logical.append((pending_line, pending))

    for lineno, line in logical:
        toks = _tokenize_line(line, lineno)
        cur = _Cursor(toks, lineno)
        head = cur.next().text
        if head == "class":
            name = cur.next().text
            cur.expect("=")
            cur.expect("{")
            members = []
            while cur.peek() != "}":
                tok = cur.next()
                if tok.text == ",":
                    continue
                if tok.text not in ALL_SYMBOLS:
                    raise RuleSyntaxError(f"{tok.text!r} is not an alphabet symbol",
                                          tok.line, tok.col)
                members.append(tok.text)
            cur.expect("}")
            classes[name] = frozenset(members)
        elif head == "rule":
            rules.append(_parse_rule(cur, classes, tapes))
        elif head == "erule":
            erules.append(_parse_erule(cur, classes, tapes))
        else:
            raise RuleSyntaxError(f"expected class, rule or erule, found {head!r}",
                                  lineno, 1)
        if not cur.done():
            tok = cur.next()
            raise RuleSyntaxError(f"trailing {tok.text!r}", tok.line, tok.col)

    g = Grammar(rules=rules, erules=erules, classes=classes, tapes=tapes,
                source=text)
    _check_partition_names(g)
    return g


def _check_partition_names(g: Grammar) -> None:
    known = set(g.by_name)
    for er in g.erules:
        for pat in (er.plc, er.prc):
            if pat == WILDCARD:
                continue
            for item in pat:
                if isinstance(item, RecordPattern) and item.rule_name != WILDCARD:
                    if item.rule_name not in known:
                        raise RuleSyntaxError(
                            f"error rule {er.name} references unknown rule "
                            f"{item.rule_name!r}")


# ---------------------------------------------------------------------------
# printer


def _fmt_slot(slot: Slot) -> str:
    tag = slot[0]
    if tag == "eps":
        return "0"
    if tag == "any":
        return "*"
    return slot[1]


def _fmt_tuple(tup: TuplePattern) -> str:
    return "(" + ", ".join(_fmt_slot(s) for s in tup) + ")"


def _fmt_surf(items: Sequence[Slot]) -> str:
    return " ".join(_fmt_slot(s) for s in items) if items else "0"


def _fmt_context(pat, lexical: bool) -> str:
    if pat == WILDCARD:
        return "*"
    parts = []
    for item in pat:
        if item == ELLIPSIS:
            parts.append("...")
        elif isinstance(item, RecordPattern):
            surf = "*" if item.surf == (ANY,) else _fmt_surf(item.surf)
            lex = "*" if item.lex == (ANY,) else _fmt_tuple(item.lex)
            parts.append(f"[{item.rule_name}, {surf}, {lex}]")
        elif lexical:
            parts.append(_fmt_tuple(item))
        else:
            parts.append(_fmt_slot(item))
    return " ".join(parts)


class GrammarErrorForPrint(Exception):
    pass


def _fmt_guards(guards: Guards, classes: Dict[str, FrozenSet[str]]) -> str:
    clauses = []
    for var, dom in guards.allowed.items():
        name = next((n for n, members in classes.items() if members == dom), None)
        if name is None:
            raise GrammarErrorForPrint(f"no declared class for domain of {var}")
        clauses.append(f"{name}({var})")
    for var, other, _ in guards.diseq:
        clauses.append(f"{var} != {other}")
    for var, tape in guards.aligned:
        clauses.append(f"aligned({var}, {tape})")
    for tape, attr, value in guards.feats:
        clauses.append(f"feat({tape}, {attr}, {value})")
    return ", ".join(clauses)


def print_grammar(g: Grammar) -> str:
    """Render a Grammar back to parseable text (round-trips with parse_grammar)."""
    out = []
    for name, members in g.classes.items():
        out.append(f"class {name} = {{{', '.join(sorted(members))}}}")
    out.append("")
    for r in g.rules:
        alias = f" ({', '.join(r.aliases)})" if r.aliases else ""
        head = (f"rule {r.name}{alias}: {_fmt_context(r.lsc, False)} - "
                f"{_fmt_surf(r.surf)} - {_fmt_context(r.rsc, False)}  {r.op}  "
                f"{_fmt_context(r.llc, True)} - "
                f"{' '.join(_fmt_tuple(t) for t in r.lex)} - "
                f"{_fmt_context(r.rlc, True)}")
        where = _fmt_guards(r.guards, g.classes)
        out.append(head + (f"  where {where}" if where else ""))
    out.append("")
    for er in g.erules:
        alias = f" ({', '.join(er.aliases)})" if er.aliases else ""
        head = (f"erule {er.name}{alias}: {_fmt_surf(er.err)} => "
                f"{_fmt_surf(er.corr)}  {{ {_fmt_context(er.plc, True)} - "
                f"{_fmt_context(er.prc, True)} }}  "
                f"reap={'y' if er.reap else 'n'}")
        where = _fmt_guards(er.guards, g.classes)
        out.append(head + (f"  where {where}" if where else ""))
    return "\n".join(out) + "\n"

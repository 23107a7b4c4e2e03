"""Layer tracing from outside the program.

The tracer replaces module attributes that the program looks up at call
time with timing wrappers and puts the originals back afterwards; the
program's source is not edited.

Two kinds of boundary are recorded:

* coarse boundaries (each operation, each correction phase, each generate,
  parse or repair call, grammar and lexicon parsing) are kept as spans with
  a name, start, end, parent and operation id. Their self time is their
  duration minus the coarse spans nested in them.
* hot functions (rule application, context matching, unification, trie
  advance, the search drivers) are kept as aggregated counts and self time,
  so that memory stays bounded. Their self time is their duration minus the
  hot functions nested in them.

The two hierarchies are independent: the engine work done inside a
correction phase counts towards the phase, and also towards the engine
functions that did it. A lazy generator (``apply_rule``, the error search)
is timed as the sum of its resumptions, not the call that creates it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from semitic_morpho import (arabic_data, cli, corrector, engine, grammar,
                            morphosyntax)


class Stat:
    __slots__ = ("calls", "hits", "yields", "self_s")

    def __init__(self):
        self.calls = 0
        self.hits = 0
        self.yields = 0
        self.self_s = 0.0


_DONE = object()


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.op_id = None
        self._fine = [0.0]            # nested hot-function time, innermost last
        self._coarse = [[0.0, None]]  # [nested span time, span id]
        self._next_span = 0
        self._selections = set()
        self._base_pending = False

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- coarse spans -------------------------------------------------------

    def open(self, name: str, detail=None):
        span_id = self._next_span
        self._next_span += 1
        parent = self._coarse[-1][1]
        self._coarse.append([0.0, span_id])
        return (name, span_id, parent, detail, perf_counter())

    def close(self, token, keep: bool = True) -> None:
        end = perf_counter()
        name, span_id, parent, detail, start = token
        nested, _ = self._coarse.pop()
        dt = end - start
        self._coarse[-1][0] += dt
        st = self.stat(name)
        st.calls += 1
        st.self_s += dt - nested
        if keep:
            self.spans.append((self.op_id, span_id, parent, name, start, end,
                               detail))

    def begin_op(self, op_id: int, name: str, detail):
        self.op_id = op_id
        self._selections = set()
        return self.open(name, detail)

    def end_op(self, token) -> None:
        self.close(token)
        self.stat("corrector.regenerate.distinct_selections").calls += \
            len(self._selections)

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token)
        return wrapper

    def span_generator(self, name: str, fn):
        """Each resumption of the generator is one span."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                token = self.open(name)
                try:
                    item = next(gen, _DONE)
                finally:
                    self.close(token)
                if item is _DONE:
                    return
                yield item
        return wrapper

    # -- hot functions ------------------------------------------------------

    def timed(self, name: str, fn, hit=None):
        st = self.stat(name)
        stack = self._fine

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                nested = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_s += dt - nested
            if hit is not None and hit(result):
                st.hits += 1
            return result
        return wrapper

    def timed_rules(self, fn):
        """apply_rule: counts, yields and resumption time, in total and per
        rule. A call is a hit when it yields at least one successor."""
        total = self.stat("engine.apply_rule")
        stack = self._fine

        def wrapper(ctx, state, rule):
            per = self.stat("engine.apply_rule." + rule.name)
            total.calls += 1
            per.calls += 1
            gen = fn(ctx, state, rule)
            first = True
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(gen, _DONE)
                finally:
                    dt = perf_counter() - start
                    nested = stack.pop()
                    stack[-1] += dt
                    total.self_s += dt - nested
                    per.self_s += dt - nested
                if item is _DONE:
                    return
                total.yields += 1
                per.yields += 1
                if first:
                    total.hits += 1
                    per.hits += 1
                    first = False
                yield item
        return wrapper

    def counted(self, name: str, method, hit):
        st = self.stat(name)

        def wrapper(*args):
            result = method(*args)
            st.calls += 1
            if hit(result):
                st.hits += 1
            return result
        return wrapper

    # -- the correction pipeline --------------------------------------------

    def correct_entry(self, fn):
        """corrector.correct: the next corrector.analyze call is the base
        analysis; the number of ranked candidates is counted."""
        st = self.stat("corrector.candidates")

        def wrapper(*args, **kwargs):
            self._base_pending = True
            result = fn(*args, **kwargs)
            st.calls += len(result)
            return result
        return wrapper

    def correction_analyze(self, fn):
        base = self.span("corrector.base_analyze", fn)
        verify = self.span("corrector.verify_analyze", fn)

        def wrapper(*args, **kwargs):
            if self._base_pending:
                self._base_pending = False
                return base(*args, **kwargs)
            return verify(*args, **kwargs)
        return wrapper

    def regenerate(self, fn):
        """regenerate, and the distinct morpheme sequences it is given."""
        traced = self.span("corrector.regenerate", fn)

        def wrapper(analysis, *args, **kwargs):
            self._selections.add(tuple(
                tuple(e.id for e in analysis.morphemes.get(tape, ()))
                for tape in sorted(analysis.morphemes)))
            return traced(analysis, *args, **kwargs)
        return wrapper

    def error_rules(self, fn):
        """try_error_rules: aggregated (it runs at every expanded state), and
        subtracted from the error-search span it runs in."""
        st = self.stat("corrector.try_error_rules")

        def wrapper(ctx, state):
            token = self.open("corrector.try_error_rules")
            try:
                result = fn(ctx, state)
            finally:
                self.close(token, keep=False)
            st.yields += len(result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def wrappers(self):
        """(owner, attribute, replacement) for every wrapped attribute."""
        analyze = self.timed("engine.analyze", engine.analyze)
        generate = self.timed("engine.generate", engine.generate)
        record = self.timed("grammar.match_record_pattern",
                            grammar.match_record_pattern)
        unify_all = self.timed("features.unify_all", engine.unify_all)
        parse = self.span("dsl.parse_grammar", cli.parse_grammar)
        load = self.span("lexicon.load_lexicon", cli.load_lexicon)
        return [
            (engine, "apply_rule", self.timed_rules(engine.apply_rule)),
            (engine, "match_context",
             self.timed("grammar.match_context", engine.match_context,
                        hit=_not_none)),
            (engine, "match_record_pattern", record),
            (engine, "unify_all", unify_all),
            (engine.TrieCursor, "advance",
             self.counted("engine.TrieCursor.advance",
                          engine.TrieCursor.advance, hit=_not_none)),
            (engine, "analyze", analyze),
            (engine, "generate", generate),
            (corrector, "correct", self.correct_entry(corrector.correct)),
            (corrector, "analyze", self.correction_analyze(analyze)),
            (corrector, "_search",
             self.span_generator("corrector.error_search",
                                 corrector._search)),
            (corrector, "regenerate", self.regenerate(corrector.regenerate)),
            (corrector, "try_error_rules",
             self.error_rules(corrector.try_error_rules)),
            (corrector, "match_partition_context",
             self.timed("grammar.match_partition_context",
                        corrector.match_partition_context)),
            (corrector, "match_record_pattern", record),
            (morphosyntax, "parse_word",
             self.span("morphosyntax.parse_word", morphosyntax.parse_word)),
            (morphosyntax, "repair_clash",
             self.span("morphosyntax.repair_clash",
                       morphosyntax.repair_clash)),
            (morphosyntax, "unify_all", unify_all),
            (morphosyntax, "generate",
             self.span("morphosyntax.generate", generate)),
            (cli, "analyze", self.span("cli.analyze", analyze)),
            (cli, "parse_grammar", parse),
            (cli, "load_lexicon", load),
            (arabic_data, "parse_grammar", parse),
            (arabic_data, "load_lexicon", load),
        ]

    @contextmanager
    def installed(self):
        """Wrap every traced attribute; always restore the originals."""
        saved = []
        try:
            for owner, attr, replacement in self.wrappers():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        rows = [{"op": op, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end,
                 **({"input": detail} if detail is not None else {})}
                for op, sid, parent, name, start, end, detail in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _not_none(result) -> bool:
    return result is not None


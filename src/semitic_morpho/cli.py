"""Command-line front end: analyze, correct, generate, repair, verify."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import arabic_data
from .alphabet import DecodeError, decode, dump_table, encode
from .corrector import CorrectionCandidate, correct
from .dsl import parse_grammar
from .engine import Analysis, UnknownMorpheme, analyze, generate, is_optional_deletion
from .grammar import GrammarError
from .lexicon import LexiconError, load_lexicon
from .morphosyntax import FeatureClash, parse_word, repair_clash

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_USAGE = 2


def _read(path: Optional[str], bundled: str) -> str:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return arabic_data.data_text(bundled)


def _load(args):
    """Grammar and lexicon; a file that cannot be read or parsed is an IO
    error (exit 2)."""
    try:
        grammar = parse_grammar(_read(args.grammar, arabic_data.GRAMMAR_FILE))
        lexicon = load_lexicon(_read(args.lexicon, arabic_data.LEXICON_FILE))
    except (OSError, UnicodeDecodeError, GrammarError, LexiconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return grammar, lexicon


def _fs_json(fs):
    return {attr: (vals[0] if len(vals) == 1 else list(vals))
            for attr, vals in sorted(fs.items())}


def analysis_json(a: Analysis) -> dict:
    stem = a.stems[-1] if a.stems else None
    return {
        "surface": encode(a.surface),
        "morphemes": {
            "pattern": stem.pattern.id if stem else None,
            "root": stem.root.id if stem else None,
            "vocalism": stem.vocalism.id if stem else None,
            "affixes": [e.id for e in a.affixes()],
        },
        "rule_trace": list(a.rule_trace),
        "features": _fs_json(stem.features if stem else {}),
        "errors": [
            {"rule": rule, "pos": pos, "from": encode(err), "to": encode(corr)}
            for rule, pos, err, corr in a.errors
        ],
    }


def _analysis_text(a: Analysis) -> str:
    stem = a.stems[-1] if a.stems else None
    parts = [encode(a.surface)]
    if stem:
        parts.append(f"pattern={stem.pattern.id} root={stem.root.id} "
                     f"vocalism={stem.vocalism.id}")
    affixes = a.affixes()
    if affixes:
        parts.append("affixes=" + ",".join(e.id for e in affixes))
    parts.append("trace=" + ",".join(a.rule_trace))
    return "  ".join(parts)


def _candidate_json(c: CorrectionCandidate) -> dict:
    return {
        "corrected": encode(c.corrected_word),
        "errors": [
            {"rule": rule, "pos": pos, "from": encode(err), "to": encode(corr)}
            for rule, pos, err, corr in c.error_trace
        ],
        "analyses": [analysis_json(a) for a in c.analyses],
    }


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _decode_or_fail(word: str):
    try:
        return decode(word)
    except DecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _each_word(args, bad_lines: List[int]):
    """(word, decoded word) for the WORD argument or each line of standard
    input. A line that does not decode is reported, added to `bad_lines`
    and skipped."""
    if not args.stdin:
        yield args.word, _decode_or_fail(args.word)
        return
    for lineno, line in enumerate(sys.stdin, start=1):
        word = line.strip()
        if not word:
            continue
        try:
            symbols = decode(word)
        except DecodeError as exc:
            print(f"error: line {lineno}: {word}: {exc}", file=sys.stderr)
            bad_lines.append(lineno)
            continue
        yield word, symbols


def cmd_analyze(args) -> int:
    grammar, lexicon = _load(args)
    status = EXIT_OK
    bad_lines: List[int] = []
    for word, symbols in _each_word(args, bad_lines):
        analyses = analyze(symbols, grammar, lexicon)
        if args.format == "json":
            _print_json({"word": word,
                         "analyses": [analysis_json(a) for a in analyses]})
        else:
            if not analyses:
                print(f"{word}: no analysis")
            for a in analyses:
                print(f"{word}: {_analysis_text(a)}")
        if not analyses:
            status = EXIT_NO_RESULT
    return EXIT_USAGE if bad_lines else status


def cmd_correct(args) -> int:
    grammar, lexicon = _load(args)
    status = EXIT_OK
    bad_lines: List[int] = []
    for word, symbols in _each_word(args, bad_lines):
        cands = correct(symbols, grammar, lexicon,
                        max_candidates=args.max_candidates,
                        max_positions=args.max_positions)
        if args.format == "json":
            _print_json({"word": word,
                         "candidates": [_candidate_json(c) for c in cands]})
        else:
            if not cands:
                print(f"{word}: no correction found")
            for c in cands:
                if c.zero_error:
                    print(f"{word}: well-formed")
                    continue
                trace = "; ".join(
                    f"{rule}@{pos} {encode(err) or '0'}->{encode(corr) or '0'}"
                    for rule, pos, err, corr in c.error_trace)
                print(f"{word}: {encode(c.corrected_word)}  [{trace}]")
        if not cands:
            status = EXIT_NO_RESULT
    return EXIT_USAGE if bad_lines else status


def cmd_generate(args) -> int:
    grammar, lexicon = _load(args)
    skip = frozenset(r.name for r in grammar.rules if is_optional_deletion(r)) \
        if args.style == "full_vocalised" else frozenset()
    selection = {"pattern": args.pattern, "root": args.root,
                 "vocalism": args.vocalism, "affixes": args.affix or []}
    try:
        surfaces = generate(selection, grammar, lexicon, skip_rules=skip)
    except UnknownMorpheme as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _print_json({"surfaces": [encode(s) for s in surfaces]})
    else:
        for s in surfaces:
            print(encode(s))
    return EXIT_OK if surfaces else EXIT_NO_RESULT


def cmd_repair(args) -> int:
    grammar, lexicon = _load(args)
    status = EXIT_OK
    bad_lines: List[int] = []
    for word, symbols in _each_word(args, bad_lines):
        analyses = analyze(symbols, grammar, lexicon)
        well_formed = []
        repairs: List[str] = []
        for a in analyses:
            parsed = parse_word(a, lexicon)
            if isinstance(parsed, FeatureClash):
                if parsed.attribute == "bp_pattern":
                    for s in repair_clash(parsed, grammar, lexicon):
                        enc = encode(s)
                        if enc not in repairs:
                            repairs.append(enc)
            else:
                well_formed.append(a)
        if args.format == "json":
            _print_json({"word": word,
                         "well_formed": bool(well_formed),
                         "repairs": repairs})
        else:
            if not analyses:
                print(f"{word}: no analysis")
            elif well_formed:
                print(f"{word}: well-formed")
            else:
                print(f"{word}: " + (" ".join(repairs) if repairs
                                     else "no repair"))
        if not analyses or (not well_formed and not repairs):
            status = EXIT_NO_RESULT
    return EXIT_USAGE if bad_lines else status


def cmd_verify(args) -> int:
    grammar, lexicon = _load(args)
    failures = arabic_data.verify_table(grammar, lexicon, arabic_data.VERB_TABLE)
    total = sum(1 for _ in arabic_data.VERB_TABLE.cells())
    if args.format == "json":
        _print_json({"cells": total, "failures": failures})
    else:
        for f in failures:
            print(f"FAIL {f}")
        print(f"{total - len(failures)}/{total} table cells verified")
    return EXIT_OK if not failures else EXIT_NO_RESULT


def cmd_dump_alphabet(args) -> int:
    sys.stdout.write(dump_table())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitic-morpho",
        description="Multi-tape two-level morphological analysis with "
                    "integrated error correction.")
    parser.add_argument("--grammar", help="grammar file (default: bundled)")
    parser.add_argument("--lexicon", help="lexicon file (default: bundled)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def word_command(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("word", nargs="?", help="word in ASCII transliteration")
        p.add_argument("--stdin", action="store_true",
                       help="read words from standard input, one per line")
        p.set_defaults(func=func)
        return p

    word_command("analyze", cmd_analyze, help="morphological analysis")
    p = word_command("correct", cmd_correct, help="error correction")
    p.add_argument("--max-candidates", type=int, default=32)
    p.add_argument("--max-positions", type=int, default=None)
    word_command("repair", cmd_repair,
                 help="repair morphosyntactically ill-formed words")

    p = sub.add_parser("generate", help="generation from a morpheme selection")
    p.add_argument("--pattern")
    p.add_argument("--root")
    p.add_argument("--vocalism")
    p.add_argument("--affix", action="append")
    p.add_argument("--style", choices=("full_vocalised", "all_orthographies"),
                   default="full_vocalised")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="verify the bundled verbal-stem table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump-alphabet", help="print the transliteration table")
    p.set_defaults(func=cmd_dump_alphabet)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "word", "skip") is None and not getattr(args, "stdin", False):
        parser.error(f"{args.command} needs a WORD or --stdin")
    return args.func(args)


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

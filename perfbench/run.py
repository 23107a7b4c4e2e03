"""Benchmark for semitic-morpho: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze-text, correct-typo, generate-repair, cli-stdin (see
workloads.py and BENCHMARK.json for why each was chosen). Load comes from
one closed-loop client: the next operation starts when the previous one
returns. Every output is checked against a known answer.

With --trace 0 the run measures the end-to-end metrics for S seconds. With
--trace 1 it runs the workload untraced for S/2 seconds, then the same
operations again with every layer wrapped (tracing.py), and reports the
per-layer metrics and the tracing overhead; end-to-end metrics come from
untraced runs only.

A report goes to standard output and to perfbench/out/; the last line of
standard output is one JSON object with the metrics of the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# setup_s is the median of set-ups timed before the timed phase and then
# between operations, at most one a second, so that it samples the machine
# over the whole run rather than one moment.
SETUP_FIRST = 3
SETUP_INTERVAL_S = 1.0
TRACE_SETUPS = 5

RULES = ("R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
         "glottal_change")

END_TO_END = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# The layer-to-metric map: each per-layer metric group, its fields, and the
# end-to-end metric it should move, on which workload. "no change" is the
# prediction for the workloads not named.
LAYERS = (
    ("engine.apply_rule", ("calls", "yields", "hit_ratio", "self_s"),
     "latency on correct-typo and analyze-text most, generate-repair less, "
     "cli-stdin ops_per_s diluted by start-up; rule dispatch should cut "
     "calls and raise hit_ratio"),
) + tuple(
    (f"engine.apply_rule.{rule}", ("calls", "yields", "self_s"),
     "as engine.apply_rule, for one rule") for rule in RULES
) + (
    ("engine.analyze", ("calls", "self_s"),
     "search driver: the same metrics as engine.apply_rule"),
    ("engine.generate", ("calls", "self_s"),
     "search driver: generate-repair latency and ops_per_s"),
    ("engine.TrieCursor.advance", ("calls", "hit_ratio"),
     "lexicon trie walk: latency on analyze-text and correct-typo"),
    ("grammar.match_context", ("calls", "hit_ratio", "self_s"),
     "context matching: latency on every engine workload"),
    ("grammar.match_partition_context", ("calls", "self_s"),
     "error-rule contexts: correct-typo latency only"),
    ("grammar.match_record_pattern", ("calls", "self_s"),
     "partition-context obligations: correct-typo latency only"),
    ("features.unify_all", ("calls", "self_s"),
     "stem check: latency on every engine workload"),
    ("corrector.base_analyze", ("calls", "self_s"),
     "correct-typo latency only; no change elsewhere"),
    ("corrector.error_search", ("calls", "self_s"),
     "correct-typo latency only; no change elsewhere"),
    ("corrector.regenerate", ("calls", "self_s", "distinct_selections"),
     "correct-typo latency only; memoising regenerate should bring calls "
     "down to distinct_selections"),
    ("corrector.verify_analyze", ("calls", "self_s"),
     "correct-typo latency only; no change elsewhere"),
    ("corrector.try_error_rules", ("calls", "successors", "self_s"),
     "correct-typo latency only; no change elsewhere"),
    ("corrector.candidates", ("count",),
     "correct-typo output size; must not change"),
    ("morphosyntax.parse_word", ("calls", "self_s"),
     "generate-repair latency only"),
    ("morphosyntax.repair_clash", ("calls", "self_s"),
     "generate-repair latency only"),
    ("dsl.parse_grammar", ("self_s",),
     "setup_s everywhere and cli-stdin ops_per_s (time per call)"),
    ("lexicon.load_lexicon", ("self_s",),
     "setup_s everywhere and cli-stdin ops_per_s (time per call)"),
    ("cli", ("self_s",),
     "CLI time outside engine and set-up: cli-stdin ops_per_s"),
    ("trace", ("overhead_ratio",),
     "traced over untraced wall time of the same operations"),
)

UNITS = {"calls": "count", "yields": "count", "successors": "count",
         "distinct_selections": "count", "count": "count", "self_s": "s",
         "hit_ratio": "ratio", "overhead_ratio": "ratio"}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(f"{group}.{field}" if field != "count" else group, UNITS[field],
             "higher" if field == "hit_ratio" else "lower")
            for group, fields, _ in LAYERS for field in fields]


class Pass:
    """Outcome of running a sequence of operations once."""

    def __init__(self, digest_ops: int):
        self.digest_ops = digest_ops
        self.latencies = []
        self.done = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.top1 = []
        self.prefix = hashlib.sha256()
        self.full = hashlib.sha256()

    def digest(self):
        return self.prefix.hexdigest() if len(self.done) >= self.digest_ops \
            else None


def run_pass(workload, ops, seconds=None, tracer=None, setups=None) -> Pass:
    """Run operations in a closed loop until they or the seconds run out.
    With a `setups` list, set-up times are sampled into it as well."""
    from workloads import Checked

    p = Pass(workload.digest_ops)
    start = last_setup = perf_counter()
    for i, op in enumerate(ops):
        now = perf_counter()
        if seconds is not None and now - start >= seconds:
            break
        if setups is not None and now - last_setup >= SETUP_INTERVAL_S:
            setups.append(setup_once(workload))
            last_setup = perf_counter()
        token = tracer.begin_op(i, "cli" if op.kind == "cli"
                                else "op." + op.kind, op.label) \
            if tracer else None
        t0 = perf_counter()
        try:
            result, error = workload.call(op), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, exc
        elapsed = perf_counter() - t0
        if tracer:
            tracer.end_op(token)
        p.latencies.append(elapsed)
        p.done.append(op)
        p.attempted += op.weight
        try:
            checked = workload.check(op, result) if error is None else \
                Checked(op.weight, [f"{op.label}: raised {error!r}"],
                        repr(error))
        except Exception as exc:  # unreadable output: a failed operation
            checked = Checked(op.weight, [f"{op.label}: check raised {exc!r}"],
                              repr(exc))
        p.failed += checked.failed
        p.problems += checked.problems
        if checked.top1 is not None:
            p.top1.append(checked.top1)
        blob = json.dumps(checked.encoded, separators=(",", ":")).encode()
        p.full.update(blob + b"\n")
        if i < workload.digest_ops:
            p.prefix.update(blob + b"\n")
    return p


def setup_once(workload) -> float:
    """Time one set-up: parsing the bundled grammar and lexicon in the
    workload's process (for cli-stdin, a CLI process given no input)."""
    from semitic_morpho import arabic_data

    t0 = perf_counter()
    if workload.in_process:
        arabic_data.load_builtin()
    else:
        subprocess.run(workload.command(), input="", capture_output=True,
                       env=workload.env(), cwd=ROOT, timeout=120, check=True)
    return perf_counter() - t0


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else \
        resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, p: Pass, setup_s: float):
    lat = p.latencies
    return {
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1
                           else lat[0]) * 1000,
        "ops_per_s": sum(op.weight for op in p.done) / sum(lat),
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": setup_s,
    }


def layer_metrics(tracer, overhead_ratio):
    stats = tracer.stats
    values = {}
    for group, fields, _ in LAYERS:
        st = stats.get(group)
        for field in fields:
            name = f"{group}.{field}" if field != "count" else group
            if group == "trace":
                value = overhead_ratio
            elif field == "distinct_selections":
                value = stats[name].calls if name in stats else 0
            elif st is None:
                value = 0
            elif field in ("calls", "count"):
                value = st.calls
            elif field in ("yields", "successors"):
                value = st.yields
            elif field == "hit_ratio":
                value = st.hits / st.calls if st.calls else 0.0
            elif group in ("dsl.parse_grammar", "lexicon.load_lexicon"):
                value = st.self_s / st.calls if st.calls else 0.0
            else:
                value = st.self_s
            values[name] = value
    return values


def untraced_run(workload, seconds, report):
    setups = [setup_once(workload) for _ in range(SETUP_FIRST)]
    p = run_pass(workload, workload.ops(), seconds, setups=setups)
    report["setup_samples"] = len(setups)
    metrics = end_to_end(workload, p, statistics.median(setups))
    units = {name: unit for name, unit, _ in END_TO_END}
    shown = {name: (value, units[name]) for name, value in metrics.items()}
    shown["failed_ratio"] = (p.failed / p.attempted, "ratio")
    if p.top1:
        shown["top1_ratio"] = (sum(p.top1) / len(p.top1), "ratio")
    return p, p.failed == 0, p.failed, metrics, units, shown


def traced_run(workload, seconds, report, seed):
    """Run untraced for half the time, then the same operations traced."""
    from semitic_morpho import arabic_data
    from tracing import Tracer

    workload.in_process = True
    untraced = run_pass(workload, workload.ops(), seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        for _ in range(TRACE_SETUPS):
            arabic_data.load_builtin()
        traced = run_pass(workload, untraced.done, tracer=tracer)
    overhead = sum(traced.latencies) / sum(untraced.latencies)
    same = traced.full.hexdigest() == untraced.full.hexdigest()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    tracer.write_spans(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["traced_digest_matches_untraced"] = same
    if workload.name == "correct-typo":
        # what the four phases and try_error_rules leave unaccounted
        report["correct_time_outside_phases_share"] = \
            tracer.stats["op.correct"].self_s / sum(traced.latencies)
    metrics = layer_metrics(tracer, overhead)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    shown = {name: (value, units[name]) for name, value in metrics.items()}
    failed = max(untraced.failed, traced.failed)
    return traced, same and failed == 0, failed, metrics, units, shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "semitic_morpho").is_dir() or \
       not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT} holds no semitic-morpho sources "
              "(src/semitic_morpho and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from semitic_morpho import arabic_data, engine
    from semitic_morpho.alphabet import decode
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    grammar, lexicon, _ = arabic_data.load_builtin()
    workload = WORKLOADS[args.workload](args.seed, grammar, lexicon)
    engine.analyze(decode("katab"), grammar, lexicon)   # warm-up, untimed

    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        p, correct, failed, metrics, units, shown = traced_run(
            workload, args.seconds, report, args.seed)
    else:
        p, correct, failed, metrics, units, shown = untraced_run(
            workload, args.seconds, report)
    report.update({
        "correct": correct,
        "attempted": p.attempted,
        "failed": failed,
        "latency_samples": len(p.latencies),
        "digest": p.digest(),
        "digest_operations": workload.digest_ops,
        "input": workload.properties(p.done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "failures": p.problems,
    })

    print(f"{workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{p.attempted} operations, {failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(f"  latency samples {len(p.latencies)}; digest over the first "
          f"{workload.digest_ops} operations: {p.digest()}")
    print(f"  input: {json.dumps(report['input'])}")
    for problem in p.problems:
        print(f"  FAILED {problem}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": p.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

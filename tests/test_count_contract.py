"""The count contract: per-layer call counts on fixed workload prefixes.

Wall times on a shared machine drift by more than many changes are worth,
but the number of calls each layer makes over a fixed prefix of operations
is deterministic. count_contract.json holds those counts (calls, yields,
successors, distinct selections and candidates; no times, no ratios) as the
benchmark's tracer reports them, on a fresh grammar and lexicon per
workload after the benchmark runner's warm-up. The test compares them
exactly, in both directions.

A refactor leaves the file unchanged. A change that means to alter the
work the layers do regenerates it (``PYTHONPATH=src
python3 tests/test_count_contract.py``), which prints each count it changes
as ``prefix: metric old -> new``, and states those deltas in its
description.
"""

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import run  # noqa: E402
from semitic_morpho import arabic_data, engine  # noqa: E402
from semitic_morpho.alphabet import decode  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED = Path(__file__).with_name("count_contract.json")

# (workload, seed, leading operations)
PREFIXES = (("correct-typo", 7, 48),
            ("analyze-text", 4242, 400),
            ("generate-repair", 4242, 300))

COUNT_FIELDS = (".calls", ".yields", ".successors", ".distinct_selections")


def observed_counts(name, seed, count):
    grammar, lexicon, _ = arabic_data.load_builtin()
    workload = WORKLOADS[name](seed, grammar, lexicon)
    engine.analyze(decode("katab"), grammar, lexicon)   # the runner's warm-up
    ops = list(itertools.islice(workload.ops(), count))
    tracer = Tracer()
    with tracer.installed():
        p = run.run_pass(workload, ops, tracer=tracer)
    assert p.failed == 0, p.problems
    return {metric: value
            for metric, value in run.layer_metrics(tracer, 1.0).items()
            if metric.endswith(COUNT_FIELDS)
            or metric == "corrector.candidates"}


def observed():
    return {f"{name} seed {seed} first {count}":
            observed_counts(name, seed, count)
            for name, seed, count in PREFIXES}


def test_counts_match_the_contract():
    want = json.loads(EXPECTED.read_text("utf-8"))
    got = observed()
    assert list(got) == list(want)
    for prefix in want:
        assert got[prefix] == want[prefix], prefix


def changes(old, new):
    """(prefix, metric, old value, new value) for each count that differs,
    in the new file's order; a count one side lacks reads None there."""
    out = []
    for prefix in dict.fromkeys([*new, *old]):
        was, now = old.get(prefix, {}), new.get(prefix, {})
        for metric in dict.fromkeys([*now, *was]):
            if was.get(metric) != now.get(metric):
                out.append((prefix, metric, was.get(metric), now.get(metric)))
    return out


if __name__ == "__main__":
    old = json.loads(EXPECTED.read_text("utf-8")) if EXPECTED.exists() else {}
    new = observed()
    EXPECTED.write_text(json.dumps(new, indent=1) + "\n", "utf-8")
    for prefix, metric, was, now in changes(old, new):
        print(f"{prefix}: {metric} {was} -> {now}")

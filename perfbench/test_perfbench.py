"""The benchmark's own checks: tracing changes no output and restores every
wrapped attribute, and BENCHMARK.json lists the metrics the runner prints.

    python3 -m pytest perfbench
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"),
                str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from semitic_morpho import arabic_data  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def builtin():
    grammar, lexicon, _ = arabic_data.load_builtin()
    return grammar, lexicon


def attributes():
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr, _ in Tracer().wrappers()}


# The cheapest corrections: two paper examples and an omission.
CHEAP_CORRECTIONS = ("tuktib", "mdiitA", "atab")


def sample(name, builtin, count):
    workload = WORKLOADS[name](7, *builtin)
    workload.in_process = True
    ops = list(itertools.islice(workload.ops(), count))
    if name == "correct-typo":
        ops = [op for op in ops if op.label in CHEAP_CORRECTIONS]
    return workload, ops


@pytest.mark.parametrize("name,count", [
    ("analyze-text", 60),
    ("correct-typo", 100),
    ("generate-repair", 90),
    ("cli-stdin", 1),
])
def test_tracing_keeps_outputs_and_restores_attributes(builtin, name, count):
    workload, ops = sample(name, builtin, count)
    before = attributes()
    untraced = run.run_pass(workload, ops)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(workload, ops, tracer=tracer)
    assert attributes() == before
    assert untraced.failed == traced.failed == 0, traced.problems
    assert traced.full.hexdigest() == untraced.full.hexdigest()
    metrics = run.layer_metrics(tracer, 1.0)
    assert list(metrics) == [m for m, _, _ in run.per_layer_metrics()]
    assert ops and tracer.spans


def test_attributes_restored_after_an_error():
    before = attributes()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("inside a traced run")
    assert attributes() == before


def test_correction_phases_account_for_correct_time(builtin):
    workload, ops = sample("correct-typo", builtin, 100)
    tracer = Tracer()
    with tracer.installed():
        p = run.run_pass(workload, ops, tracer=tracer)
    phases = sum(tracer.stats[name].self_s for name in (
        "corrector.base_analyze", "corrector.error_search",
        "corrector.regenerate", "corrector.verify_analyze",
        "corrector.try_error_rules"))
    assert phases >= 0.95 * sum(p.latencies)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_metrics()

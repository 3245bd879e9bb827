"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import contextlib
import dataclasses
import importlib
import io
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from speed import SpeedMeter, reference_over  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import DOC, WORKLOADS, Command, generate  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first, again = generate(workload, 7), generate(workload, 7)
    assert [dataclasses.asdict(c) for c in first] == [dataclasses.asdict(c) for c in again]
    other = generate(workload, 8)
    if workload != "enumerate":
        assert [c.document for c in first] != [c.document for c in other]


def test_wrong_expectation_counts_as_failure():
    commands = generate("classify", 3)[:3]
    wrong = dataclasses.replace(commands[1], expected_result=dict(
        commands[1].expected_result, unmixed=not commands[1].expected_result["unmixed"]))
    broken = Command(["classify", DOC], commands[0].expected_result,
                     "L: a\nR: b\nE: a-c\n", label="broken")
    res = run.run([commands[0], wrong, commands[2], broken], 0, 1)
    assert res["attempted"] == 4
    assert [f["command"] for f in res["failures"]] == [wrong.label, "broken"]
    assert "exit code 1" in res["failures"][1]["why"]


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "cmtgraphs" or name.startswith("cmtgraphs.")
            for attr, value in vars(module).items()}


def test_trace_wraps_every_binding_and_restores_it():
    cli = importlib.import_module("cmtgraphs.cli")
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for module, names in LAYERS.items():
            for name in names:
                assert before[(f"cmtgraphs.{module}", name)] is not getattr(
                    importlib.import_module(f"cmtgraphs.{module}"), name)
        # Bindings made by `from ... import` are wrapped as well.
        assert sys.modules["cmtgraphs"].classify is not before[("cmtgraphs", "classify")]
        assert sys.modules["cmtgraphs.classify"].find_pure_order is not before[
            ("cmtgraphs.classify", "find_pure_order")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", "--builtin", "fig1"]) == 0
    finally:
        assert tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["bigraph.find_pure_order.calls"] >= 1
    assert metrics["bigraph.parse_graph.calls"] == 1


def test_traced_counts_repeat_under_one_hash_seed(tmp_path):
    commands = generate("verify_blocks", 5)[:6]
    counts = []
    for _ in range(2):
        res = run.run(commands, 0, 5, spans_path=str(tmp_path / "spans.tsv"))
        assert not res["failures"]
        layers = res["rounds"][1]["layers"]
        counts.append({k: v for k, v in layers.items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["simplicial.reduced_homology.distinct"] > 0


def test_speed_meter_accounts_for_its_samples_and_stops():
    with SpeedMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
    assert len(meter.samples) >= 5
    assert meter.spent == pytest.approx(sum(took for _, took in meter.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_reference_over_widens_short_spans_to_the_window():
    samples = [[0.1 * i, 1.0 + (i >= 20)] for i in range(40)]  # slower from t = 2 s
    assert reference_over(samples, 0.0, 1.9) == 1.0
    assert reference_over(samples, 2.0, 3.9) == 2.0
    assert reference_over(samples, 1.0, 1.01) == 1.0  # 0.5-1.5 s
    assert reference_over(samples, 1.95, 1.96) == 1.5  # 1.45-2.45 s: 5 fast, 5 slow
    assert reference_over(samples, 9.0, 9.5) == 1.5  # no sample near: all count

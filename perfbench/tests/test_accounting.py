"""Checks of the benchmark's own accounting, on reduced workloads.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_run(work):
    """Spans and layer metrics of one traced run of ``work``."""
    with tracing.Tracer() as tracer:
        misses = workloads.table_misses()
        outcomes = work.run()
        metrics = tracing.layer_metrics(tracer.spans, workloads.table_misses() - misses)
        spans = list(tracer.spans)
    return spans, metrics, outcomes


@pytest.fixture(scope="module")
def phased_runs():
    work = workloads.PhasedSweep(seed=0)
    work.noise_draws = 1
    work.set_up()
    return [_traced_run(work) for _ in range(2)]


@pytest.fixture(scope="module")
def forward_runs(tmp_path_factory):
    work = workloads.ForwardSweep(seed=0, work_dir=tmp_path_factory.mktemp("forward"))
    work.directions = work.directions[:2]
    work.set_up()
    return [_traced_run(work) for _ in range(2)], work


def _both(phased_runs, forward_runs):
    runs, _ = forward_runs
    return list(phased_runs) + list(runs)


def test_child_self_times_within_parent(phased_runs, forward_runs):
    for spans, _, _ in _both(phased_runs, forward_runs):
        own = tracing.self_times(spans)
        child_self = np.zeros(len(spans))
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child_self[s.parent] += own[i]
        durations = np.array([s.end - s.start for s in spans])
        assert np.all(child_self <= durations + 1e-12)
        assert np.all(own >= -1e-12)


def test_count_metrics_repeat_exactly(phased_runs, forward_runs):
    for first, second in (phased_runs, forward_runs[0]):
        counts = [name for name in first[1] if tracing.unit_of(name) not in ("s", "ns")]
        assert counts
        assert {n: first[1][n] for n in counts} == {n: second[1][n] for n in counts}


def test_three_kernel_tables_per_assembly(phased_runs, forward_runs):
    for _, metrics, _ in _both(phased_runs, forward_runs):
        assert metrics["forward.assemble_system.calls"] > 0
        assert (metrics["kernels.kernel_tables.calls"]
                == 3 * metrics["forward.assemble_system.calls"])


# Exceptions of the kinds the library raises, and the causes they count as.
ERRORS = [FloatingPointError("forward solve failed at iteration 2: "
                             "linear solve residual too large: 3.1e-09"),
          ValueError("update at iteration 1 pinched the curve: self-intersection"),
          RuntimeError("anything else")]
CAUSES = [workloads.RESIDUAL_GATE, workloads.PINCHED, workloads.OTHER]


def _raising(errors):
    pending = iter(errors)

    def fake(*args, **kwargs):
        raise next(pending)
    return fake


def test_failures_are_counted_not_raised(monkeypatch, tmp_path):
    phased = workloads.PhasedSweep(seed=0)
    phased.data = [(f"op{i}", None, None) for i in range(len(ERRORS))]
    monkeypatch.setattr(workloads.aescatter, "run_phased", _raising(ERRORS))
    assert [out.cause for out in phased.run()] == CAUSES

    forward = workloads.ForwardSweep(seed=0, work_dir=tmp_path)
    forward.configs = [(("apple", 64, j), tmp_path / f"c{j}.json") for j in range(len(ERRORS))]
    monkeypatch.setattr(workloads.cli, "cmd_forward", _raising(ERRORS))
    assert [out.cause for out in forward.run()] == CAUSES

    ball = workloads.PhaselessBall(seed=0)
    for error, cause in zip(ERRORS, CAUSES):
        monkeypatch.setattr(workloads.aescatter, "run_phaseless", _raising([error]))
        assert [out.cause for out in ball.run()] == [cause]


def test_robustness_pass_covers_every_direction():
    work = workloads.PhasedSweep(seed=0)
    outcomes = work.robustness()
    assert [out.label for out in outcomes] == [f"theta{j}_draw0" for j in range(8)]
    assert not any(out.cause == workloads.WRONG_OUTPUT for out in outcomes)


def test_forward_outputs_match_reference(forward_runs):
    runs, work = forward_runs
    outcomes = runs[0][2]
    work.check(outcomes)
    assert len(outcomes) == 8 and not any(out.failed for out in outcomes)
    _, metrics, _ = runs[0]
    # Each (shape, grid) repeats once per extra direction: 4 of 8 calls.
    assert metrics["forward.assemble_system.repeat_frac"] == pytest.approx(4 / 8)
    assert metrics["cli.bytes_written"] > 0


def test_tracer_restores_the_library():
    import aescatter.forward as forward
    original = forward.kernel_tables
    with tracing.Tracer():
        assert forward.kernel_tables is not original
    assert forward.kernel_tables is original


def test_layer_metrics_match_benchmark_json(phased_runs):
    import json
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: tracing.unit_of(name) for name in phased_runs[0][1]}
    produced.update({"trace.run_s": "s", "trace.overhead_s": "s"})
    assert declared == produced


def test_forward_output_stays_in_work_dir(forward_runs):
    runs, work = forward_runs
    for out in runs[0][2]:
        assert all(Path(p).parent == work.work_dir for p in out.paths)

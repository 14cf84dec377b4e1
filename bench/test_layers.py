"""Checks of ``bench/layers.py``'s span aggregation, on synthetic spans.

    python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_span_rows_take_medians_of_calls_self_time_and_info():
    runs = [
        # a holds two b's, the first of which holds c
        [Span("a", 0.0, 10.0, -1, 24), Span("b", 1.0, 4.0, 0, 276),
         Span("c", 2.0, 3.0, 1), Span("b", 5.0, 7.0, 0, 276)],
        [Span("a", 0.0, 6.0, -1, 32), Span("b", 1.0, 2.0, 0, 276)],
        [Span("a", 0.0, 8.0, -1, 24), Span("b", 0.0, 1.0, 0, 276),
         Span("b", 2.0, 4.0, 0, 384)],
    ]
    rows = layers.span_rows(runs, tracing.self_times)
    assert list(rows) == ["a", "b", "c"]
    # self time of a: 10 - 3 - 2, 6 - 1 and 8 - 1 - 2 s, in ms
    assert rows["a"] == {"calls": 1, "self_ms": pytest.approx(5e3),
                         "total_ms": pytest.approx(8e3), "info": {"24": 1, "32": 0}}
    # b's self times 2 + 2, 1, 1 + 2; c, run 1 only, is 0 calls in the median run
    assert rows["b"] == {"calls": 2, "self_ms": pytest.approx(3e3),
                         "total_ms": pytest.approx(3e3), "info": {"276": 1, "384": 0}}
    assert rows["c"] == {"calls": 0, "self_ms": 0, "total_ms": 0, "info": {}}


def test_tracer_installs_the_traced_set_and_restores_it():
    from aescatter import forward, geometry

    traced, original = layers.traced_set(tracing), forward.discretize
    before = tracing.TRACED
    assert len({name for name, *_ in traced}) == len(traced) > len(before)
    with layers.tracer(tracing, traced) as active:
        assert tracing.TRACED is traced and forward.discretize is not original
        forward.discretize(geometry.make_apple(), forward.MaterialParams.default(),
                           geometry.NodeGrid(8))
    assert tracing.TRACED is before and forward.discretize is original
    assert [(s.name, s.info) for s in active.spans if s.name == "forward.discretize"] == [
        ("forward.discretize", 8)]


def test_iterate_grid_span_reads_the_chosen_n():
    from aescatter import forward, geometry, inverse_phased

    curve = inverse_phased.initial_curve(inverse_phased.InverseConfig((0.0, 0.0), 0.4, 0.1))
    with layers.tracer(tracing, layers.traced_set(tracing)) as active:
        grid, _ = inverse_phased._iterate_grid(curve, 64, forward.MaterialParams.default())
    spans = [(s.name, s.info) for s in active.spans]
    assert ("inverse_phased._iterate_grid", grid.n) in spans
    assert ("inverse_phased._strip_width", None) in spans
    assert isinstance(grid, geometry.NodeGrid) and grid.n == 24


def test_far_field_matrix_span_reads_the_n_of_its_jet():
    from aescatter import forward, geometry

    jets = geometry.jet(geometry.make_apple(), geometry.NodeGrid(12).nodes)
    with layers.tracer(tracing, layers.traced_set(tracing)) as active:
        forward.far_field_matrix(jets, forward.MaterialParams.default(), [0.0, 1.0])
    assert [(s.name, s.info) for s in active.spans if s.name == "forward.far_field_matrix"] == [
        ("forward.far_field_matrix", 12)]


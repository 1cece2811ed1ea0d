"""Tests of the benchmark harness itself (not of qphelm).

Run with ``PYTHONPATH=src python -m pytest -q bench``.  The end-to-end test
runs one short sweep op in a subprocess (a few seconds).
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qpbench import layers, loop, spans, workloads
from qpbench.loop import OpRecord, Outcome
from qpbench.spans import Span

from qphelm import cli, geometry, lattice, potentials, qpgreen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# --------------------------------------------------------------------------- #
# spans and self times


def _span(name, start, end, parent=None, op="0"):
    return Span(name, start, end, parent, op)


def test_self_times_on_nested_spans():
    sp = [_span("a", 0.0, 10.0),          # 0: children 1 and 3 cover 3 + 1
          _span("b", 1.0, 4.0, 0),        # 1: child 2 covers 1
          _span("c", 2.0, 3.0, 1),        # 2: leaf
          _span("d", 5.0, 6.0, 0),        # 3: leaf
          _span("e", 20.0, 22.0)]         # 4: second root
    assert spans.self_times(sp) == pytest.approx([6.0, 2.0, 1.0, 1.0, 2.0])


def test_self_time_subtracts_the_union_of_overlapping_children():
    sp = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0), _span("c", 3.0, 6.0, 0),
          _span("d", 9.0, 12.0, 0)]  # clipped to the parent's end
    assert spans.self_times(sp)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_count_recursion_once_in_inclusive_time():
    sp = [_span("f", 0.0, 10.0), _span("f", 2.0, 5.0, 0), _span("g", 3.0, 4.0, 1)]
    sp[1].counts = {"points": 7}
    sp[0].counts = {"points": 3}
    t = spans.layer_totals(sp)
    assert t["f"].calls == 2
    assert t["f"].total_s == pytest.approx(10.0)
    assert t["f"].self_s == pytest.approx(7.0 + 2.0)
    assert t["f"].counts == {"points": 10}
    assert spans.subtree(sp, 1) == {1, 2}


def test_per_layer_is_setup_plus_per_op_mean():
    sp = [_span("qpgreen.regular_part", 0.0, 1.0, op="setup"),
          _span("qpgreen.regular_part", 2.0, 4.0, op="0"),
          _span("qpgreen.regular_part", 5.0, 9.0, op="1")]
    for s, n in zip(sp, (10, 20, 40)):
        s.counts = {"points": n}
    out = layers.per_layer(sp, n_ops=2)
    assert out["qpgreen.regular_part.self_s"] == pytest.approx(1.0 + 6.0 / 2)
    assert out["qpgreen.regular_part.calls"] == pytest.approx(1 + 2 / 2)
    assert out["qpgreen.regular_part.points"] == pytest.approx(10 + 60 / 2)
    assert out["qpgreen.regular_part.points_per_s"] == pytest.approx(70 / 7.0)
    assert out["cli.run.self_s"] == 0.0


# --------------------------------------------------------------------------- #
# wrappers


def test_install_patches_every_name_binding_and_uninstall_restores():
    originals = (lattice.make_wave_context, lattice.spectrum_distance)
    tracer = spans.Tracer()
    undo = spans.install(tracer, ["lattice.make_wave_context",
                                  "lattice.spectrum_distance"])
    try:
        for mod in (lattice, qpgreen, cli):
            assert mod.make_wave_context is not originals[0]
            assert mod.make_wave_context.__wrapped__ is originals[0]
        assert cli.spectrum_distance.__wrapped__ is originals[1]
        qpgreen.make_green_evaluator(lattice.Lattice((1.0, 1.0), (0.4, 0.7)), 1.3)
    finally:
        spans.uninstall(undo)
    assert (lattice.make_wave_context, lattice.spectrum_distance) == originals
    assert qpgreen.make_wave_context is originals[0]
    assert cli.make_wave_context is originals[0]
    assert cli.spectrum_distance is originals[1]
    names = [s.name for s in tracer.spans]
    # make_green_evaluator -> make_wave_context (bound by name in qpgreen)
    # -> spectrum_distance (module global of lattice)
    assert names == ["lattice.make_wave_context", "lattice.spectrum_distance"]
    assert tracer.spans[1].parent == 0


def test_traced_outputs_are_bit_identical_and_counted():
    lat = workloads.lattice()
    green = qpgreen.make_green_evaluator(lat, 1.3)
    x = np.random.default_rng(0).uniform(-0.3, 0.3, size=(50, 2))
    plain = qpgreen.regular_part(green, x)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = qpgreen.regular_part(green, x)
    finally:
        spans.uninstall(undo)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain, traced))
    top = tracer.spans[0]
    assert top.name == "qpgreen.regular_part" and top.counts == {"points": 50}
    assert all(s.parent == 0 for s in tracer.spans[1:])


# --------------------------------------------------------------------------- #
# closed loop and summary statistics


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_fail_frac_counts_raising_and_gate_missing_ops():
    def good():
        return Outcome(1e-12, True, b"x")

    def raises():
        raise ArithmeticError("deliberate")

    def misses_gate():
        return Outcome(1e-3, False, b"y")

    cycle = [("good", good), ("raises", raises), ("gate", misses_gate)]
    records, elapsed = loop.closed_loop(cycle, seconds=30.0, clock=_Clock())
    s = loop.summarize(records, elapsed, len(cycle))
    assert s.attempted == 10
    assert [r.label for r in records[:4]] == ["good", "raises", "gate", "good"]
    assert s.failed == 6  # positions 1, 2, 4, 5, 7, 8
    assert s.fail_frac == pytest.approx(0.6)
    assert "ArithmeticError" in records[1].exception
    # whole cycles only: 3 good ops in the first 9, each op one clock tick
    assert s.ops_per_s == pytest.approx(3 / 9.0)
    assert loop.summarize(records[:2], 5.0, len(cycle)).ops_per_s == pytest.approx(1 / 5.0)
    assert s.worst_error == pytest.approx(1e-3)
    assert s.accuracy_digits == pytest.approx(3.0)


def _records(times):
    return [OpRecord("op", t, Outcome(1e-10, True, b"")) for t in times]


def test_median_percentile_and_sample_count():
    s = loop.summarize(_records([5.0, 1.0, 3.0, 2.0, 4.0]), elapsed=15.0)
    assert (s.op_s_p50, s.samples, s.tail) == (3.0, 5, None)
    s = loop.summarize(_records([1.0, 2.0, 3.0, 10.0]), elapsed=16.0)
    assert s.op_s_p50 == 2.5
    times = list(np.arange(1, 201, dtype=float))
    s = loop.summarize(_records(times), elapsed=1.0)
    assert s.samples == 200 and s.tail[0] == 95.0
    assert s.tail[1] == pytest.approx(np.percentile(times, 95.0))
    assert s.accuracy_digits == pytest.approx(10.0)


@pytest.mark.parametrize("n, p", [(19, None), (40, 75.0), (99, 75.0), (100, 90.0),
                                  (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert loop.tail_percentile(n) == p


def test_accuracy_digits_is_clipped():
    rec = [OpRecord("op", 1.0, Outcome(0.0, True, b"")),
           OpRecord("op", 1.0, Outcome(float("nan"), False, b""))]
    assert loop.summarize(rec[:1], 1.0).accuracy_digits == pytest.approx(16.0)
    assert loop.summarize(rec, 1.0).accuracy_digits == pytest.approx(-16.0)


# --------------------------------------------------------------------------- #
# seeded inputs


@pytest.mark.parametrize("name", ["bvp", "field", "sweep"])
def test_workload_inputs_are_seeded(name):
    draw = workloads.WORKLOADS[name].draw

    def flat(inputs):
        if isinstance(inputs, np.ndarray):
            return [inputs]
        return [a for item in inputs for a in flat(item)]

    one, again, other = flat(draw(3)), flat(draw(3)), flat(draw(4))
    assert all(np.array_equal(a, b) for a, b in zip(one, again))
    assert not any(np.array_equal(a, b) for a, b in zip(one, other))


def test_sweep_config_carries_the_criterion_8_fit_window(tmp_path):
    cfg = workloads.setup_sweep(workloads.draw_sweep(0), tmp_path).config["cli_config"]
    assert cfg["problem"]["fit_max_epsilon"] == 0.07


@pytest.mark.parametrize("shape", ["circle", "kite"])
def test_probes_clear_of_hole_and_images_never_trip_the_guard(shape):
    lat = workloads.lattice()
    curve = workloads.hole(shape)
    dc = geometry.discretize(curve, 128)  # the coarsest workload grid
    green = qpgreen.make_green_evaluator(lat, 1.3)
    zero = potentials.Density(curve=dc, values=np.zeros(dc.N))
    for seed in range(3):
        probes = workloads.draw_probes(np.random.default_rng(seed), curve, lat, 64)
        assert workloads.clear_of_hole(probes, curve, lat,
                                       workloads.PROBE_CLEARANCE).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", potentials.AccuracyGuardWarning)
            potentials.field_eval("single", zero, probes, green=green)
    if shape == "circle":
        images = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)]) + 0.5
        d = np.linalg.norm(probes[:, None, :] - images[None], axis=2)
        assert d.min() >= 0.35 + workloads.PROBE_CLEARANCE - 1e-3


def test_inside_test_rejects_points_in_the_hole_and_its_images():
    lat = workloads.lattice()
    curve = workloads.hole("kite")
    pts = np.array([[0.5, 0.5], [0.5, 0.5 + 1.0], [0.02, 0.02], [0.98, 0.98]])
    inside_or_near = ~workloads.clear_of_hole(pts, curve, lat, 0.0)
    assert inside_or_near.tolist() == [True, True, False, False]
    far = workloads.clear_of_hole(np.array([[0.97, 0.5]]), curve, lat, 0.15)
    assert far.tolist() == [True]


# --------------------------------------------------------------------------- #
# the command and BENCHMARK.json


def test_benchmark_json_lists_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.TRACE_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_sweep_run_prints_every_metric_then_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep", "--seed", "0",
         "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name in ("fail_frac", "op_s_p50", "ops_per_s", "accuracy_digits",
                 "peak_rss_mb", "setup_s"):
        assert any(line.startswith(f"sweep {name} ") for line in lines)
    assert not (ROOT / ".bench_work").exists()


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bvp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

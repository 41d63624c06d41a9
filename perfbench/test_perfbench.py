"""Tests of the benchmark's own code, at tiny shapes.

The full-scale workloads run only from ``run.py``; every test here swaps
in a tiny shape, so collecting this file costs a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench
from perfbench.layers import PER_LAYER_METRICS, LayerProbes, operation_metrics
from perfbench.workloads import WORKLOADS
from repro.telemetry import NULL_RECORDER, Recorder

ROOT = Path(__file__).resolve().parents[1]

_TINY_FLEET = {
    "grid": [2, 2],
    "users": 6,
    "horizon": 12,
    "runs": 2,
    "chunk_slots": 4,
    "panel": 1,
}
TINY = {
    "fig7_aware": {"n_cells": 5, "horizon": 8, "runs": 1, "panel": 2},
    "fleet_contended": {**_TINY_FLEET, "capacity": 4},
    "fleet_streamed": {**_TINY_FLEET, "capacity": 50, "run_stack": 2},
}


def tiny(name: str):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, shape={**workload.shape, **TINY[name]})


def fake_clock():
    ticks = iter(range(10**9))
    return lambda: float(next(ticks))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probes_and_recorder_leave_results_unchanged(name):
    workload = tiny(name)
    plain = [
        workload.digest(instance.run(NULL_RECORDER))
        for instance in workload.build(3, workload.shape)
    ]
    recorder = Recorder(clock=fake_clock())
    with LayerProbes(recorder):
        probed = [
            workload.digest(instance.run(recorder))
            for instance in workload.build(3, workload.shape)
        ]
    assert probed == plain
    assert recorder.spans, "the traced run recorded nothing"


def test_probes_restore_the_entry_points():
    from repro.core.eavesdropper.advanced import StrategyAwareDetector
    from repro.core.strategies import optimal_offline, robust
    from repro.core.strategies.impersonate import ImpersonatingStrategy
    from repro.mobility.markov import MarkovChain

    before = (
        optimal_offline.solve_optimal_offline,
        robust.solve_optimal_offline,
        vars(ImpersonatingStrategy)["generate_batch"],
        vars(StrategyAwareDetector)["detect_batch"],
        vars(MarkovChain)["sample_trajectories_batch"],
    )
    with LayerProbes(Recorder(clock=fake_clock())):
        assert optimal_offline.solve_optimal_offline is not before[0]
        assert robust.solve_optimal_offline is not before[1]
    after = (
        optimal_offline.solve_optimal_offline,
        robust.solve_optimal_offline,
        vars(ImpersonatingStrategy)["generate_batch"],
        vars(StrategyAwareDetector)["detect_batch"],
        vars(MarkovChain)["sample_trajectories_batch"],
    )
    assert after == before


def test_fig7_probes_reach_the_trellis_layers():
    workload = tiny("fig7_aware")
    recorder = Recorder(clock=fake_clock())
    with LayerProbes(recorder):
        for instance in workload.build(0, workload.shape):
            instance.run(recorder)
    metrics = operation_metrics(recorder)
    assert metrics["trellis.oo_solves"] > 0
    for name in (
        "trellis.oo_solve_s",
        "strategies.generate_s",
        "eavesdropper.detect_s",
        "mobility.sample_s",
    ):
        assert metrics[name] > 0, name
    assert metrics["kernel.slot_step_s"] == 0


def _fleet_metrics(name: str, seed: int) -> dict[str, float]:
    workload = tiny(name)
    recorder = Recorder(clock=fake_clock())
    (instance,) = workload.build(seed, workload.shape)
    instance.run(recorder)
    return operation_metrics(recorder)


def test_placement_counts_repeat_exactly():
    first = _fleet_metrics("fleet_contended", 5)
    second = _fleet_metrics("fleet_contended", 5)
    assert first["placement.admitted"] > 0
    assert first["placement.spilled"] > 0, "the tiny contended fleet should spill"
    for name in ("placement.admitted", "placement.spilled"):
        assert first[name] == second[name]


def test_streamed_fleet_spills_chunks_but_no_placements():
    metrics = _fleet_metrics("fleet_streamed", 5)
    assert metrics["kernel.spill_s"] > 0
    assert metrics["kernel.sample_s"] > 0
    assert metrics["placement.spilled"] == 0


def test_kernel_self_times_exclude_nested_kernel_spans():
    now = [0.0]
    recorder = Recorder(clock=lambda: now[0])
    with recorder.span("montecarlo/fleet"):  # 0 .. 8
        now[0] = 1.0
        with recorder.span("kernel/placement"):  # 1 .. 6
            now[0] = 2.0
            with recorder.span("kernel/spill"):  # 2 .. 3
                now[0] = 3.0
            now[0] = 6.0
        now[0] = 8.0
    metrics = operation_metrics(recorder)
    assert metrics["kernel.spill_s"] == 1.0
    assert metrics["kernel.slot_step_s"] == 4.0
    assert metrics["montecarlo.self_s"] == 3.0


@pytest.mark.parametrize("name", ["fig7_aware", "fleet_contended"])
def test_digest_gate_catches_a_perturbed_result(name):
    workload = tiny(name)
    instance = workload.build(1, workload.shape)[0]
    result = instance.run(NULL_RECORDER)
    reference = workload.digest(result)
    if name == "fig7_aware":
        key = sorted(result.scalars)[0]
        result.scalars[key] = np.nextafter(result.scalars[key], 2.0)
    else:
        result.cost_runs[0, 0] = np.nextafter(result.cost_runs[0, 0], np.inf)
    perturbed = workload.digest(result)
    assert perturbed != reference

    gate = bench.DigestGate({instance.key: reference})
    assert gate.check(instance.key, reference)
    assert not gate.check(instance.key, perturbed)
    unpinned = bench.DigestGate({})
    assert unpinned.check(instance.key, reference)
    assert not unpinned.check(instance.key, perturbed)


def test_failed_operations_are_counted_and_excluded():
    workload = tiny("fleet_contended")
    (instance,) = workload.build(2, workload.shape)
    gate = bench.DigestGate({instance.key: "0" * 64})
    assert bench.run_operation(workload, instance, gate, NULL_RECORDER) is None

    def boom(recorder):
        raise RuntimeError("injected")

    broken = dataclasses.replace(instance, run=boom)
    assert bench.run_operation(workload, broken, gate, NULL_RECORDER) is None
    assert (gate.attempted, gate.failed) == (2, 2)


def test_untraced_and_traced_measurements_at_tiny_shape(sigalrm_restored):
    workload = tiny("fig7_aware")
    instances = workload.build(4, workload.shape)
    gate = bench.DigestGate({})
    rates = bench.measure_untraced(workload, instances, gate, 0.0)
    assert rates["operations"] == len(instances)
    assert rates["episodes_per_s"]["q1"] <= rates["episodes_per_s"]["median"]
    assert rates["episodes_per_s"]["median"] <= rates["episodes_per_s"]["q3"]
    assert rates["normalised"] > 0
    assert rates["speed_sample_s"] > 0
    assert rates["speed_samples"] >= len(instances)
    layer, _ = bench.measure_traced(workload, instances, gate, 0.0)
    assert set(layer) == set(PER_LAYER_METRICS)
    assert layer["trace_overhead"] > 0
    # Traced results matched the untraced ones input by input.
    assert gate.failed == 0
    assert gate.attempted == 3 * len(instances)


def test_normalised_rate_sums_each_inputs_median_ratio():
    ratios = {"a": [2.0, 4.0, 3.0], "b": [1.0], "c": []}
    # Inputs a and b count (medians 3 and 1); c failed every operation.
    expected = 5 * 2 / ((3.0 + 1.0) * bench.SAMPLE_REFERENCE_S)
    assert bench._normalised_rate(5, ratios) == pytest.approx(expected)
    with pytest.raises(RuntimeError):
        bench._normalised_rate(5, {"a": []})


@pytest.fixture
def sigalrm_restored():
    """Put back the SIGALRM handler a SpeedSampler installs for good."""
    previous = signal.getsignal(signal.SIGALRM)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_speed_sampler_samples_during_the_block(sigalrm_restored):
    sampler = bench.SpeedSampler()
    with sampler:
        began = time.perf_counter()
        while time.perf_counter() - began < 5 * bench.SAMPLE_INTERVAL_S:
            sum(range(1000))
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent() < time.perf_counter() - began
    with sampler:
        pass
    # A block too short for the timer still gets one sample, after it.
    assert len(sampler.samples) == 1 and sampler.reading() > 0


def test_set_up_time_is_scaled_by_a_positive_reading():
    assert bench.at_reference_speed(0.0) == 0.0
    assert bench.at_reference_speed(1.0) > 0


def test_speed_sampler_leaves_results_unchanged(sigalrm_restored):
    sampler = bench.SpeedSampler()
    workload = tiny("fleet_contended")
    instance = workload.build(2, workload.shape)[0]
    gate = bench.DigestGate({})
    for _ in range(2):
        assert bench.run_operation(workload, instance, gate, NULL_RECORDER, sampler)
    assert bench.run_operation(workload, instance, gate, NULL_RECORDER)
    assert (gate.attempted, gate.failed) == (3, 0)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        bench.END_TO_END_METRICS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER_METRICS.items()
    }
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_reference_pins_every_input_of_the_proven_seeds():
    table = json.loads(bench.REFERENCE_PATH.read_text())
    for name, workload in WORKLOADS.items():
        panel = int(workload.shape.get("panel", 1))
        keys = {str(seed * panel + index) for seed in range(20) for index in range(panel)}
        assert keys <= set(table[name]), name

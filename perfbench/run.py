"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig7_aware --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics.  Every operation's result digest is checked against
``reference.json`` (or, for a seed it does not list, against the first
result of the same input in this run); a mismatch or an exception counts
as a failed operation.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is the run's record in the ``repro-telemetry/1`` metrics
shape with a ``provenance`` block.

Maintenance: ``--write-reference 0-19`` recomputes the pinned digests of
the given seeds for ``--workload`` and merges them into
``reference.json``.  Run it only on a commit whose results are known
good; the gate is only as strong as the digests it compares against.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections.abc import Mapping, Sequence  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

# One thread: OpenBLAS would otherwise start a pool as wide as the machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench.layers import PER_LAYER_METRICS, LayerProbes, operation_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Instance, Workload  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: End-to-end metric name -> unit.
END_TO_END_METRICS = {
    "episodes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh-interpreter set-ups measured per run besides the run's own.
SETUP_PROBES = 6

#: Speed samples that scale one set-up time.
SETUP_SAMPLES = 16


# -- correctness gate ---------------------------------------------------


class DigestGate:
    """Counts operations and checks each result digest against a reference.

    The reference of an input is its pinned digest when ``pinned`` lists
    it, else the first digest this gate saw for it.
    """

    def __init__(self, pinned: Mapping[str, str]) -> None:
        self.pinned = dict(pinned)
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, key: str, digest: str) -> bool:
        expected = self.pinned.get(key) or self.first.setdefault(key, digest)
        return digest == expected


def load_reference(workload: str) -> dict[str, str]:
    return dict(json.loads(REFERENCE_PATH.read_text()).get(workload, {}))


def run_operation(
    workload: Workload,
    instance: Instance,
    gate: DigestGate,
    recorder: Any,
    sampler: SpeedSampler | None = None,
) -> float | None:
    """Run one operation; its wall time, or ``None`` when it failed.

    With a ``sampler``, speed samples are taken while the operation runs
    and their own time is left out of the operation's.
    """
    gate.attempted += 1
    try:
        with sampler or contextlib.nullcontext():
            began = time.perf_counter()
            result = instance.run(recorder)
            elapsed = time.perf_counter() - began
            if sampler is not None:
                elapsed -= sampler.spent()
    except Exception:  # a raising operation is a failed one; keep measuring
        traceback.print_exc()
        gate.failed += 1
        return None
    if not gate.check(instance.key, workload.digest(result)):
        print(f"digest mismatch on input {instance.key}", file=sys.stderr)
        gate.failed += 1
        return None
    return elapsed


# -- set-up -------------------------------------------------------------


def set_up(workload: Workload, seed: int) -> tuple[list[Instance], float]:
    """Build the workload's inputs; seconds since the interpreter began."""
    instances = workload.build(seed, workload.shape)
    return instances, time.perf_counter() - _STARTED


def at_reference_speed(setup_s: float) -> float:
    """``setup_s`` scaled to the reference machine speed.

    The speed is the median of :data:`SETUP_SAMPLES` speed samples taken
    right after set-up, the same samples ``episodes_per_s`` is scaled by.
    """
    _sample_data()
    reading = statistics.median(speed_sample(round_) for round_ in range(SETUP_SAMPLES))
    return setup_s * SAMPLE_REFERENCE_S / reading


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of a fresh interpreter (imports included): scaled, wall."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["wall_s"])


# -- machine-speed sampling ---------------------------------------------

#: Wall seconds between two speed samples while an operation runs.
SAMPLE_INTERVAL_S = 0.02

#: Median seconds of one speed sample on the reference container
#: (2 vCPUs of a shared x86-64 host, Python 3.11, numpy 2.4).
SAMPLE_REFERENCE_S = 0.0012

#: Boxed floats a speed sample reads from, reads per sample from each of
#: the list and the dict, and samples before the reads repeat.
_SAMPLE_ITEMS = 300_000
_SAMPLE_READS = 1_500
_SAMPLE_ROUNDS = 48


@functools.cache
def _sample_data() -> tuple[list[float], list[int], dict[int, float], list[int]]:
    """A list and a dict of boxed floats (~25 MB) and random indexes into them."""
    rng = random.Random(0)
    reads = _SAMPLE_READS * _SAMPLE_ROUNDS
    values = [rng.random() for _ in range(_SAMPLE_ITEMS)]
    order = [rng.randrange(_SAMPLE_ITEMS) for _ in range(reads)]
    table = {index: float(index) for index in range(_SAMPLE_ITEMS // 3)}
    keys = [rng.randrange(len(table)) for _ in range(reads)]
    return values, order, table, keys


def speed_sample(round_: int) -> float:
    """Seconds of a fixed interpreter loop that runs no ``repro`` code.

    Its time tracks the speed the shared host gives this process at the
    moment; the code under test cannot move it.  The loop reads 1500
    boxed floats from a list and 1500 from a dict in random order, a
    different 1500 in each of :data:`_SAMPLE_ROUNDS` rounds, scattered
    over ~25 MB of heap, so it slows with the core's clock and with the
    cache and memory a neighbour shares, as the workloads do.  Two
    variants were dropped.  Reading the same floats in every round made
    the speed depend on where those floats happened to lie in memory:
    from one process to the next it moved by up to 2.4x on an idle
    machine.  Adding a loop of integer arithmetic made the samples miss
    part of the host's swings: when the host sped a workload up by
    1.8x, they sped up by only 1.5x.
    """
    values, order, table, keys = _sample_data()
    start = round_ % _SAMPLE_ROUNDS * _SAMPLE_READS
    reads = order[start : start + _SAMPLE_READS]
    lookups = keys[start : start + _SAMPLE_READS]
    began = time.perf_counter()
    total = 0.0
    for index in reads:
        total += values[index]
    for key in lookups:
        total += table[key]
    return time.perf_counter() - began


class SpeedSampler:
    """Takes a :func:`speed_sample` every :data:`SAMPLE_INTERVAL_S` of wall
    time while its block runs, from a ``SIGALRM`` handler.

    The host's speed swings within a second, so samples taken between
    operations miss much of what an operation met; samples taken during
    it do not.  The handler runs between bytecodes of the main thread,
    reads only its own data and touches no RNG, so the operation's
    result is unchanged (the digest gate checks it on every operation).
    A block too short for a sample gets one sample after it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._armed = False
        self._rounds = 0
        _sample_data()
        # Installed for good: a signal still in flight when a block ends
        # must find this handler, not the default that ends the process.
        signal.signal(signal.SIGALRM, self._take)

    def _take(self, signum: int, frame: Any) -> None:
        if self._armed:
            self._sample()

    def _sample(self) -> None:
        self.samples.append(speed_sample(self._rounds))
        self._rounds += 1

    def __enter__(self) -> SpeedSampler:
        self.samples = []
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._armed = False
        if not self.samples:
            self._sample()

    def spent(self) -> float:
        """Seconds the samples so far took."""
        return math.fsum(self.samples)

    def reading(self) -> float:
        """Mean seconds of one sample over the last block."""
        return statistics.fmean(self.samples)


# -- measurement --------------------------------------------------------


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_untraced(
    workload: Workload, instances: list[Instance], gate: DigestGate, seconds: float
) -> dict[str, Any]:
    """Cycle the inputs with telemetry off for ``seconds`` (every input once).

    Every operation runs under a :class:`SpeedSampler`; its ratio is its
    time over the mean of the speed samples taken while it ran.
    """
    from repro.telemetry import NULL_RECORDER

    times: dict[str, list[float]] = {instance.key: [] for instance in instances}
    ratios: dict[str, list[float]] = {instance.key: [] for instance in instances}
    readings: list[float] = []
    samples = 0
    sampler = SpeedSampler()
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(instances) or time.perf_counter() < deadline:
        instance = instances[done % len(instances)]
        done += 1
        elapsed = run_operation(workload, instance, gate, NULL_RECORDER, sampler)
        if elapsed is None:
            continue
        readings.append(sampler.reading())
        samples += len(sampler.samples)
        times[instance.key].append(elapsed)
        ratios[instance.key].append(elapsed / readings[-1])
    per_operation = workload.episodes(workload.shape)
    return {
        "episodes_per_s": _rate(per_operation, times),
        "normalised": _normalised_rate(per_operation, ratios),
        "speed_sample_s": statistics.median(readings),
        "speed_samples": samples,
        "operations": len(readings),
    }


def _rate(per_operation: int, times: Mapping[str, list[float]]) -> dict[str, float]:
    """Wall-clock episodes per second of one pass over the inputs, with quartiles.

    Each input's median time stands for that input; the quartiles swap
    in each input's first and third quartile times.  An input whose
    every operation failed drops out of the pass.
    """
    timed = [_quartiles(values) for values in times.values() if values]
    if not timed:
        raise RuntimeError("no operation of this run succeeded")
    episodes = per_operation * len(timed)
    return {
        "median": episodes / sum(q[1] for q in timed),
        "q1": episodes / sum(q[2] for q in timed),
        "q3": episodes / sum(q[0] for q in timed),
    }


def _normalised_rate(per_operation: int, ratios: Mapping[str, list[float]]) -> float:
    """Episodes per second of one pass at the reference machine speed.

    Each input's median ratio of operation time to the speed samples
    taken while it ran stands for that input; their sum, times
    :data:`SAMPLE_REFERENCE_S`, is the pass's time on a machine whose
    speed sample takes that long.
    """
    timed = [statistics.median(values) for values in ratios.values() if values]
    if not timed:
        raise RuntimeError("no operation of this run succeeded")
    return per_operation * len(timed) / (sum(timed) * SAMPLE_REFERENCE_S)


def measure_traced(
    workload: Workload, instances: list[Instance], gate: DigestGate, seconds: float
) -> tuple[dict[str, float], Any]:
    """Alternate untraced and traced passes; per-layer metrics per operation."""
    from repro.telemetry import NULL_RECORDER, Recorder, default_clock

    untraced_s = traced_s = 0.0
    traced_ops = 0
    totals: dict[str, float] = {}
    trace = Recorder(clock=default_clock)
    deadline = time.perf_counter() + seconds
    while traced_ops == 0 or time.perf_counter() < deadline:
        for instance in instances:
            plain = run_operation(workload, instance, gate, NULL_RECORDER)
            recorder = Recorder(clock=default_clock)
            with LayerProbes(recorder):
                probed = run_operation(workload, instance, gate, recorder)
            if plain is None or probed is None:
                continue
            untraced_s += plain
            traced_s += probed
            traced_ops += 1
            for name, value in operation_metrics(recorder).items():
                totals[name] = totals.get(name, 0.0) + value
            trace.merge(recorder.to_state())
    if traced_ops == 0:
        raise RuntimeError("no traced operation of this run succeeded")
    metrics = {name: totals[name] / traced_ops for name in totals}
    metrics["trace_overhead"] = traced_s / untraced_s
    return metrics, trace


# -- provenance and output ----------------------------------------------


def git_sha(root: Path) -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def provenance(
    workload: Workload, seed: int, seconds: float, trace: int, pinned: bool
) -> dict[str, Any]:
    import numpy as np

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workload": workload.name,
        "shape": dict(workload.shape),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reference": "pinned" if pinned else "first-result",
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_reference(workload: Workload, seeds: Sequence[int]) -> None:
    from repro.telemetry import NULL_RECORDER

    table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    pinned = table.setdefault(workload.name, {})
    for seed in seeds:
        for instance in workload.build(seed, workload.shape):
            pinned[instance.key] = workload.digest(instance.run(NULL_RECORDER))
        print(f"{workload.name}: seed {seed} pinned", flush=True)
    table[workload.name] = {key: pinned[key] for key in sorted(pinned, key=int)}
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.write_reference:
        write_reference(workload, _seed_range(args.write_reference))
        return 0
    instances, setup_wall_s = set_up(workload, args.seed)
    setup_s = at_reference_speed(setup_wall_s)
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s, "wall_s": setup_wall_s}))
        return 0

    from repro.telemetry import NULL_RECORDER, Recorder, default_clock, metrics_json

    pinned = load_reference(workload.name)
    gate = DigestGate(pinned)
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    tempfile.tempdir = str(scratch)  # the stream engine spills inside the checkout
    try:
        # Warm-up: lazy imports, allocator and per-chain caches.
        run_operation(workload, instances[0], gate, NULL_RECORDER)
        result = Recorder(clock=default_clock)
        if args.trace:
            layer, trace = measure_traced(workload, instances, gate, args.seconds)
            metrics = {name: layer.get(name, 0.0) for name in PER_LAYER_METRICS}
            units = {name: unit for name, (unit, _) in PER_LAYER_METRICS.items()}
            result.merge(trace.to_state())
        else:
            rates = measure_untraced(workload, instances, gate, args.seconds)
            probes = [
                probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)
            ]
            setups = [setup_s] + [scaled for scaled, _ in probes]
            setup_walls = [setup_wall_s] + [wall for _, wall in probes]
            metrics = {
                "episodes_per_s": rates["normalised"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_METRICS
            for stat, value in rates["episodes_per_s"].items():
                result.gauge(f"episodes_per_s/wall_{stat}", value)
            result.gauge("speed_sample_s/median", rates["speed_sample_s"])
            result.counter("speed_samples", rates["speed_samples"])
            result.counter("operations", rates["operations"])
            result.gauge("setup_s/wall_median", statistics.median(setup_walls))
            result.gauge("setup_s/samples", float(len(setups)))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    for name, value in metrics.items():
        result.gauge(name, value)
    result.counter("attempted", gate.attempted)
    result.counter("failed", gate.failed)
    record = metrics_json(result)
    record["provenance"] = provenance(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        all(instance.key in pinned for instance in instances),
    )
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.6g} {units[name]}")
    if not args.trace:
        quartiles = rates["episodes_per_s"]
        print(
            f"{'':24s} wall clock: median {quartiles['median']:.6g}, "
            f"quartiles {quartiles['q1']:.6g} .. {quartiles['q3']:.6g}, "
            f"speed sample {rates['speed_sample_s'] * 1e3:.4g} ms, "
            f"over {rates['operations']} operations"
        )
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

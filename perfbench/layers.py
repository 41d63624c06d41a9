"""Per-layer probes: spans around layer entry points, and the metrics they give.

Two sources feed the per-layer metrics of a traced operation:

* the spans the program already records when it is handed a live
  :class:`repro.telemetry.Recorder` (the fleet's ``kernel/*`` spans, the
  ``montecarlo/fleet`` span and the ``placement/*`` counters);
* spans this module records from the outside, by wrapping the entry
  points of the synthetic-figure layers for the duration of a
  :class:`LayerProbes` block.  Nothing inside ``src/`` is edited; the
  originals are restored when the block exits.

A wrapper only times a call: it passes arguments and results through
untouched and never touches an RNG, so a probed run is bit-identical to
an unprobed one (``test_perfbench.py`` checks it).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from typing import Any

#: Per-layer metric name -> (unit, one-line meaning).  The order is the
#: order ``run.py`` prints them in; ``BENCHMARK.json`` lists the same names.
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "trellis.oo_solve_s": ("s", "time in solve_optimal_offline, per operation"),
    "trellis.oo_solves": ("count", "solve_optimal_offline calls, per operation"),
    "strategies.generate_s": ("s", "time in ChaffStrategy.generate_batch"),
    "eavesdropper.detect_s": ("s", "time in StrategyAwareDetector.detect_batch"),
    "mobility.sample_s": ("s", "time in MarkovChain.sample_trajectories_batch"),
    "kernel.slot_step_s": ("s", "self time of kernel/placement spans"),
    "kernel.sample_s": ("s", "self time of kernel/sample spans"),
    "kernel.detect_s": ("s", "self time of kernel/detect spans"),
    "kernel.spill_s": ("s", "self time of kernel/spill spans"),
    "montecarlo.self_s": ("s", "montecarlo/fleet time outside kernel spans"),
    "placement.admitted": ("count", "placement/admitted counter, per operation"),
    "placement.spilled": ("count", "placement/spilled counter, per operation"),
    "trace_overhead": ("ratio", "traced / untraced wall time of the same ops"),
}

#: Outside spans: metric -> span name recorded by the wrappers.
_PROBE_SPANS = {
    "trellis.oo_solve_s": "probe/trellis.oo_solve",
    "strategies.generate_s": "probe/strategies.generate",
    "eavesdropper.detect_s": "probe/eavesdropper.detect",
    "mobility.sample_s": "probe/mobility.sample",
}

#: Program spans whose self time is reported: metric -> span name.
_KERNEL_SPANS = {
    "kernel.slot_step_s": "kernel/placement",
    "kernel.sample_s": "kernel/sample",
    "kernel.detect_s": "kernel/detect",
    "kernel.spill_s": "kernel/spill",
}


def _subclasses_defining(base: type, attribute: str) -> list[type]:
    """``base`` and every subclass whose own body defines ``attribute``."""
    found: list[type] = []
    pending = [base]
    seen: set[type] = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attribute in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


class LayerProbes:
    """Wraps the synthetic-figure layer entry points while the block is open.

    ``recorder`` receives one span per outermost call of each probed
    layer: a ``super()`` call or re-entry into the same layer inside a
    probed call is not counted twice.
    """

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder
        self._open: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable[..., Any], span: str) -> Callable[..., Any]:
        recorder = self.recorder
        open_spans = self._open

        @functools.wraps(fn)
        def probed(*args: Any, **kwargs: Any) -> Any:
            if span in open_spans:
                return fn(*args, **kwargs)
            open_spans.add(span)
            try:
                with recorder.span(span):
                    return fn(*args, **kwargs)
            finally:
                open_spans.discard(span)

        return probed

    def _patch(self, owner: object, attribute: str, span: str) -> None:
        original = vars(owner)[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, span))

    def __enter__(self) -> "LayerProbes":
        from repro.core.eavesdropper.advanced import StrategyAwareDetector
        from repro.core.strategies import optimal_offline, robust
        from repro.core.strategies.base import ChaffStrategy
        from repro.mobility.markov import MarkovChain

        solve = _PROBE_SPANS["trellis.oo_solve_s"]
        self._patch(optimal_offline, "solve_optimal_offline", solve)
        self._patch(robust, "solve_optimal_offline", solve)
        generate = _PROBE_SPANS["strategies.generate_s"]
        for cls in _subclasses_defining(ChaffStrategy, "generate_batch"):
            self._patch(cls, "generate_batch", generate)
        self._patch(
            StrategyAwareDetector,
            "detect_batch",
            _PROBE_SPANS["eavesdropper.detect_s"],
        )
        sample = _PROBE_SPANS["mobility.sample_s"]
        for cls in _subclasses_defining(MarkovChain, "sample_trajectories_batch"):
            self._patch(cls, "sample_trajectories_batch", sample)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _nested(inner: Mapping[str, Any], outer: Mapping[str, Any]) -> bool:
    """Whether span ``inner`` lies inside span ``outer`` (same lane, deeper)."""
    return (
        inner is not outer
        and inner.get("tid", 0) == outer.get("tid", 0)
        and inner["depth"] > outer["depth"]
        and inner["ts"] >= outer["ts"]
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    )


def _kernel_self_times(spans: list[Mapping[str, Any]]) -> tuple[dict[str, float], float]:
    """Self time per kernel span name, and the time covered by kernel spans.

    ``kernel/spill`` runs inside ``kernel/placement`` on the stream path,
    so each kernel span's self time excludes the kernel spans nested in
    it; the self times then add up to the kernel's total busy time.
    """
    kernel = [span for span in spans if str(span["name"]).startswith("kernel/")]
    self_times: dict[str, float] = {}
    for span in kernel:
        children = sum(
            child["dur"]
            for child in kernel
            if _nested(child, span)
            and not any(_nested(child, mid) and _nested(mid, span) for mid in kernel)
        )
        name = str(span["name"])
        self_times[name] = self_times.get(name, 0.0) + span["dur"] - children
    return self_times, sum(self_times.values())


def operation_metrics(recorder: Any) -> dict[str, float]:
    """The per-layer metrics of the operations recorded on ``recorder``.

    Times are seconds summed over everything the recorder saw; the
    caller divides by the number of operations.  ``trace_overhead`` is
    not a property of one recorder and is left to the caller.
    """
    spans = list(recorder.spans)
    metrics: dict[str, float] = {}
    for metric, name in _PROBE_SPANS.items():
        metrics[metric] = sum(s["dur"] for s in spans if s["name"] == name)
    metrics["trellis.oo_solves"] = float(
        sum(1 for s in spans if s["name"] == _PROBE_SPANS["trellis.oo_solve_s"])
    )
    self_times, kernel_total = _kernel_self_times(spans)
    for metric, name in _KERNEL_SPANS.items():
        metrics[metric] = self_times.get(name, 0.0)
    montecarlo = sum(s["dur"] for s in spans if s["name"] == "montecarlo/fleet")
    metrics["montecarlo.self_s"] = montecarlo - kernel_total
    metrics["placement.admitted"] = float(recorder.counters.get("placement/admitted", 0))
    metrics["placement.spilled"] = float(recorder.counters.get("placement/spilled", 0))
    return metrics

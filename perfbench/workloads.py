"""The benchmark's workloads: inputs made from a seed, one operation each.

Every workload is a list of *instances*, each a fixed input that one
operation runs through a public entry point of ``repro``.  An operation's
result is reduced to a digest, so repeated operations, traced and
untraced passes and the committed reference (``reference.json``) can be
compared bit for bit.

``shape`` holds every size the workload runs at; the tests pass a tiny
shape to the same build functions.  Nothing here imports ``repro`` at module
level: ``run.py`` times the imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

#: One prepared input: ``run(recorder)`` performs the operation.
Operation = Callable[[Any], Any]


@dataclass(frozen=True)
class Instance:
    """One input of a workload: its reference key and its operation."""

    key: str
    run: Operation


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build its instances and digest results."""

    name: str
    why: str
    shape: Mapping[str, Any]
    build: Callable[[int, Mapping[str, Any]], list[Instance]]
    digest: Callable[[Any], str]
    episodes: Callable[[Mapping[str, Any]], int]


def _hash_arrays(named: list[tuple[str, Any]]) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for name, array in named:
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# -- fig7_aware ---------------------------------------------------------


def _fig7_build(seed: int, shape: Mapping[str, Any]) -> list[Instance]:
    from repro.experiments.fig7 import run_fig7
    from repro.sim.config import SyntheticExperimentConfig

    panel = int(shape["panel"])
    instances = []
    for index in range(panel):
        config = SyntheticExperimentConfig(
            n_cells=int(shape["n_cells"]),
            horizon=int(shape["horizon"]),
            n_runs=int(shape["runs"]),
            seed=seed * panel + index,
            engine="batch",
            workers=1,
        )

        def run(recorder: Any, config: SyntheticExperimentConfig = config) -> Any:
            return run_fig7(config, n_services=int(shape["n_services"]))

        instances.append(Instance(key=str(config.seed), run=run))
    return instances


def _fig7_digest(result: Any) -> str:
    scalars = result.scalars
    payload = [[key, float(scalars[key]).hex()] for key in sorted(scalars)]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _fig7_episodes(shape: Mapping[str, Any]) -> int:
    # One episode is one (run, series) pair: 4 mobility models x 4 series.
    return int(shape["runs"]) * 16


# -- fleet workloads ----------------------------------------------------


def _fleet_build(seed: int, shape: Mapping[str, Any]) -> list[Instance]:
    from repro.core.eavesdropper.detector import MaximumLikelihoodDetector
    from repro.core.strategies.base import get_strategy
    from repro.mec.fleet import (
        FleetSimulation,
        FleetSimulationConfig,
        run_fleet_monte_carlo,
    )
    from repro.mec.topology import MECTopology
    from repro.mobility.grid import GridTopology
    from repro.mobility.models import paper_synthetic_models

    rows, cols = shape["grid"]
    topology = MECTopology.from_grid(
        GridTopology(rows, cols), capacity=int(shape["capacity"])
    )
    panel = int(shape["panel"])
    instances = []
    for index in range(panel):
        input_seed = seed * panel + index
        chain = paper_synthetic_models(rows * cols, seed=input_seed)[shape["mobility"]]
        simulation = FleetSimulation(
            topology,
            chain,
            strategy=get_strategy(shape["strategy"]),
            config=FleetSimulationConfig(
                n_users=int(shape["users"]),
                horizon=int(shape["horizon"]),
                n_chaffs=int(shape["chaffs"]),
            ),
        )

        def run(
            recorder: Any,
            simulation: FleetSimulation = simulation,
            input_seed: int = input_seed,
        ) -> Any:
            return run_fleet_monte_carlo(
                simulation,
                n_runs=int(shape["runs"]),
                seed=input_seed,
                detector=MaximumLikelihoodDetector(),
                workers=1,
                engine=shape["engine"],
                chunk_slots=int(shape["chunk_slots"]),
                run_stack=int(shape["run_stack"]),
                recorder=recorder,
            )

        instances.append(Instance(key=str(input_seed), run=run))
    return instances


def _fleet_digest(statistics: Any) -> str:
    return _hash_arrays(
        [
            ("tracking", statistics.tracking_runs),
            ("detection", statistics.detection_runs),
            ("cost", statistics.cost_runs),
            ("migrations", statistics.migrations_runs),
            ("spilled", statistics.spilled_runs),
        ]
    )


def _fleet_episodes(shape: Mapping[str, Any]) -> int:
    # One episode is one fleet run of M users.
    return int(shape["runs"])


_FLEET_BASE = {
    "grid": [5, 5],
    "mobility": "non-skewed",
    "strategy": "IM",
    "chaffs": 1,
}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig7_aware",
            why=(
                "Fig. 7's strategy-aware eavesdropper re-runs the chaff map, so "
                "the optimal-offline trellis is the hot path; mec/ is never touched"
            ),
            shape={
                "n_cells": 10,
                "horizon": 25,
                "n_services": 10,
                "runs": 1,
                "panel": 64,
            },
            build=_fig7_build,
            digest=_fig7_digest,
            episodes=_fig7_episodes,
        ),
        Workload(
            name="fleet_contended",
            why=(
                "capacity 40 per site: sites turn over every slot, so placement "
                "leaves the bincount fast path and walks movers one by one"
            ),
            shape={
                **_FLEET_BASE,
                "users": 200,
                "horizon": 200,
                "capacity": 40,
                "runs": 1,
                "panel": 16,
                "engine": "batch",
                "chunk_slots": 64,
                "run_stack": 1,
            },
            build=_fleet_build,
            digest=_fleet_digest,
            episodes=_fleet_episodes,
        ),
        Workload(
            name="fleet_streamed",
            why=(
                "ample capacity keeps placement on the fast path; time goes to "
                "sampling, the stacked stream engine and EpisodeStore chunks"
            ),
            shape={
                **_FLEET_BASE,
                "users": 500,
                "horizon": 512,
                "capacity": 1000,
                "runs": 10,
                "panel": 2,
                "engine": "stream",
                "chunk_slots": 64,
                "run_stack": 10,
            },
            build=_fleet_build,
            digest=_fleet_digest,
            episodes=_fleet_episodes,
        ),
    )
}

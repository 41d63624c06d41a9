"""Hypothesis fuzz: every placement engine equals the naive greedy walk.

The engines settle a slot in numpy (the exact greedy-turn test admits
every mover before the first full target in two bincounts) and walk
only the movers from there on one at a time.  These properties pin
them, slot after slot, to :mod:`oracles.placement_walk` — the greedy
id-order walk one mover at a time — on placed cells, site loads and
:class:`PlacementStats`:

* :class:`PlacementEngine`;
* :class:`ShardedPlacementEngine` with 2–3 regions (serial and threaded);
* ``_StackedPlacement`` with 1–4 runs whose loads differ per run.

Worlds are random ring, grid and complete topologies with capacities
1–4, filled completely, nearly or sparsely, and each slot's requests are
random moves, a pure site turnover (a permutation of the current cells)
or a shift to the next cell index.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.placement_walk import WalkPlacement

from repro.mec.placement import (
    PlacementEngine,
    PlacementStats,
    ShardedPlacementEngine,
    _turn_overflows,
)
from repro.mec.runstack import _StackedPlacement
from repro.mec.topology import MECTopology
from repro.mobility.grid import GridTopology

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def topologies(draw) -> MECTopology:
    capacity = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ring", "grid", "complete"]))
    if kind == "ring":
        return MECTopology.ring(draw(st.integers(2, 12)), capacity=capacity)
    if kind == "complete":
        return MECTopology.complete(draw(st.integers(2, 8)), capacity=capacity)
    grid = GridTopology(draw(st.integers(1, 4)), draw(st.integers(2, 4)))
    return MECTopology.from_grid(grid, capacity=capacity)


@st.composite
def fills(draw, topology: MECTopology) -> int:
    """A service count: full, near-full or anything that fits."""
    total = int(topology.base_capacities().sum())
    return draw(
        st.one_of(
            st.integers(0, 2).map(lambda gap: max(1, total - gap)),
            st.integers(1, total),
        )
    )


@st.composite
def slot_requests(draw, n_cells: int, n_services: int):
    """One slot's request rule: ``current cells -> desired cells``."""
    kind = draw(st.sampled_from(["random", "turnover", "shift"]))
    if kind == "turnover":
        perm = np.asarray(draw(st.permutations(range(n_services))), dtype=np.int64)
        return lambda current: current[perm]
    if kind == "shift":
        return lambda current: (current + 1) % n_cells
    moves = np.asarray(
        draw(st.lists(st.booleans(), min_size=n_services, max_size=n_services))
    )
    targets = np.asarray(
        draw(
            st.lists(
                st.integers(0, n_cells - 1),
                min_size=n_services,
                max_size=n_services,
            )
        ),
        dtype=np.int64,
    )
    return lambda current: np.where(moves, targets, current)


@st.composite
def worlds(draw, n_runs: int = 1):
    """A topology, per-run initial requests and per-run slot schedules."""
    topology = draw(topologies())
    n_cells = topology.n_cells
    n_services = draw(fills(topology))
    n_slots = draw(st.integers(1, 5))
    runs = []
    for _ in range(n_runs):
        initial = np.asarray(
            draw(
                st.lists(
                    st.integers(0, n_cells - 1),
                    min_size=n_services,
                    max_size=n_services,
                )
            ),
            dtype=np.int64,
        )
        slots = [
            draw(slot_requests(n_cells, n_services)) for _ in range(n_slots)
        ]
        runs.append((initial, slots))
    return topology, n_services, runs


def _oracle_after_initial(topology, engine) -> WalkPlacement:
    """An oracle holding ``engine``'s placed loads; both stats reset."""
    engine.stats = PlacementStats()
    return WalkPlacement(topology, engine.load)


def _assert_same(engine, oracle, placed, expected) -> None:
    assert placed.tolist() == expected.tolist()
    assert engine.load.tolist() == oracle.load.tolist()
    assert engine.stats.as_dict() == oracle.stats.as_dict()


def _check_engine(engine, topology, initial, slots) -> None:
    current = engine.place_initial(initial)
    oracle = _oracle_after_initial(topology, engine)
    for requests in slots:
        desired = requests(current)
        expected = oracle.resolve_moves(current, desired)
        placed = engine.resolve_moves(current, desired)
        _assert_same(engine, oracle, placed, expected)
        current = placed


class TestGreedyTurnTest:
    @_SETTINGS
    @given(data=st.data(), n_cells=st.integers(2, 12))
    def test_flags_every_full_turn(self, data, n_cells):
        """Exactly the movers that find their target full, if all move.

        Loads may exceed capacity (stranded services of a dynamic
        world); the walk below plays every mover as admitted.
        """
        cells = st.integers(0, n_cells - 1)
        capacities = np.asarray(
            data.draw(st.lists(st.integers(0, 4), min_size=n_cells, max_size=n_cells))
        )
        load = np.asarray(
            data.draw(st.lists(st.integers(0, 5), min_size=n_cells, max_size=n_cells))
        )
        pairs = data.draw(
            st.lists(st.tuples(cells, cells).filter(lambda p: p[0] != p[1]))
        )
        sources = np.asarray([s for s, _ in pairs], dtype=np.int64)
        targets = np.asarray([t for _, t in pairs], dtype=np.int64)
        occupancy = load.copy()
        expected = []
        for position, (source, target) in enumerate(pairs):
            if occupancy[target] >= capacities[target]:
                expected.append(position)
            occupancy[source] -= 1
            occupancy[target] += 1
        got = _turn_overflows(load, capacities, sources, targets)
        assert sorted(got.tolist()) == expected


class TestPlacementMatchesGreedyWalk:
    @_SETTINGS
    @given(world=worlds())
    def test_serial_engine(self, world):
        topology, _, [(initial, slots)] = world
        _check_engine(PlacementEngine(topology), topology, initial, slots)

    @_SETTINGS
    @given(
        world=worlds(),
        regions=st.integers(2, 3),
        workers=st.integers(1, 2),
    )
    def test_sharded_engine(self, world, regions, workers):
        topology, _, [(initial, slots)] = world
        engine = ShardedPlacementEngine(
            topology, regions=regions, workers=workers
        )
        _check_engine(engine, topology, initial, slots)

    @_SETTINGS
    @given(data=st.data(), n_runs=st.integers(1, 4))
    def test_stacked_placement(self, data, n_runs):
        topology, n_services, runs = data.draw(worlds(n_runs))
        stacked = _StackedPlacement(
            SimpleNamespace(topology=topology), n_services, n_runs
        )
        current = stacked.place_initial_rows(
            None, np.concatenate([initial for initial, _ in runs])
        )
        oracles = [
            _oracle_after_initial(topology, engine) for engine in stacked.engines
        ]
        n_rows = n_runs * n_services
        for slot in range(len(runs[0][1])):
            desired = np.concatenate(
                [
                    slots[slot](current[run * n_services : (run + 1) * n_services])
                    for run, (_, slots) in enumerate(runs)
                ]
            )
            # Half the slots resolve a row subset (the live rows of a
            # dynamic world); the rest resolve the whole stack.
            keep = np.asarray(
                data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
            )
            rows = None if data.draw(st.booleans()) else np.flatnonzero(keep)
            picked = slice(None) if rows is None else rows
            placed = stacked.resolve_rows(rows, current[picked], desired[picked])
            new_current = current.copy()
            new_current[picked] = placed
            for run, (engine, oracle) in enumerate(
                zip(stacked.engines, oracles, strict=True)
            ):
                run_rows = np.arange(run * n_services, (run + 1) * n_services)
                if rows is not None:
                    run_rows = np.intersect1d(run_rows, rows)
                expected = oracle.resolve_moves(current[run_rows], desired[run_rows])
                _assert_same(engine, oracle, new_current[run_rows], expected)
            current = new_current

"""The greedy id-order placement walk, one mover at a time.

This is the reference :meth:`repro.mec.placement.PlacementEngine.resolve_moves`
must reproduce exactly: movers are taken in service-id order and each one
is admitted at its requested site if that site has a free slot *at its
turn*, spilled to the nearest free site otherwise (ties towards the lowest
cell index), or rejected when no site beats the one it already occupies.
The walk below is the engine's per-mover fallback as it stood before the
exact greedy-turn settle replaced it; keep it naive on purpose.
"""

from __future__ import annotations

import numpy as np

from repro.mec.placement import PlacementStats
from repro.mec.topology import MECTopology


class WalkPlacement:
    """Occupancy, capacities and stats of one deployment, walked naively."""

    def __init__(self, topology: MECTopology, load: np.ndarray) -> None:
        self.capacities = topology.base_capacities()
        self.load = np.array(load, dtype=np.int64)
        self.stats = PlacementStats()
        self._hops = topology.hop_distance_matrix()

    def _nearest_free(self, cell: int) -> int | None:
        """Nearest site with a free slot (ties -> lowest cell index)."""
        free = np.flatnonzero(self.load < self.capacities)
        if free.size == 0:
            return None
        # ``free`` is ascending, so argmin's first-hit rule is the tiebreak.
        return int(free[np.argmin(self._hops[cell, free])])

    def resolve_moves(
        self, current_cells: np.ndarray, desired_cells: np.ndarray
    ) -> np.ndarray:
        """Resolve one slot's migration requests by the greedy walk."""
        current = np.asarray(current_cells, dtype=np.int64)
        desired = np.asarray(desired_cells, dtype=np.int64)
        movers = np.flatnonzero(desired != current)
        placed = current.copy()
        for index in movers:
            source = int(current[index])
            target = int(desired[index])
            if self.load[target] >= self.capacities[target]:
                spill = self._nearest_free(target)
                if spill is None or spill == source:
                    self.stats.rejected += 1
                    continue
                target = spill
                self.stats.spilled += 1
            else:
                self.stats.admitted += 1
            self.load[source] -= 1
            self.load[target] += 1
            placed[index] = target
        return placed

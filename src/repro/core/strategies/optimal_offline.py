"""Optimal offline (OO) chaff strategy — Algorithm 1 of the paper.

Given the user's *entire* trajectory, the OO strategy computes a chaff
trajectory that

* has likelihood at least as high as the user's (so the ML detector picks
  the chaff instead of the user), and
* among such trajectories, coincides with the user's trajectory in as few
  slots as possible (minimising the eavesdropper's tracking accuracy).

The paper solves this by dynamic programming over the trellis of Fig. 2
with an extra "remaining intersections" dimension ``i``: the cost-to-go
``K^i_t`` of layer ``i`` at slot ``t`` reads ``K^i_{t+1}`` everywhere
except on the user's cell, where sitting costs one unit of budget and it
reads ``K^{i-1}_{t+1}``.  The optimum ``i*`` is the first layer whose best
path beats the user's cost.

:func:`solve_optimal_offline_batch` solves a whole ``(B, T)`` batch of
users at once, sweeping *blocks* of layers instead of single layers:

* one backward sweep over ``t`` advances every layer ``[k0, k1)`` of
  every still-active user with one ``(B, K, L, L)`` add / ``min`` /
  ``argmin``.  The minima land in a ``(B, K + 1, L)`` slab whose entry 0
  is layer ``k0 - 1``, kept from the previous block, so layer ``k``'s
  user-cell ("lower") value is simply layer ``k - 1``'s same-layer value
  of the same step — never a second ``argmin``;
* blocks start at two layers and double, so a user with a small ``i*``
  pays for few layers while a tie-bound user (``i*`` close to ``T``)
  needs only ``O(log T)`` sweeps; a block is also never wider than keeps
  one step's tensor within ``_STEP_ELEMENTS``, so while many users are
  active the blocks stay narrow and few layers are swept past ``i*``;
* a user leaves the sweep as soon as one layer of a block beats it, and
  its ``i*`` is the *first* such layer, so the result — including every
  first-hit ``argmin`` tie-break — is exactly the layer-by-layer DP's;
* backtracking runs over all users at once, reading hop tables stored in
  the narrowest integer dtype that holds a cell index.

Infeasible rows (no trajectory at least as likely as the user's under the
row's mask) are reported, not raised, so one bad mask cannot abort a
batch.  :func:`solve_optimal_offline` is the single-user wrapper and
raises :class:`~repro.core.trellis.InfeasibleTrellisError` instead.

The ``allowed`` masks are how the robust ROO variant injects its random
exclusion sets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ...mobility.markov import MarkovChain
from ..trellis import (
    InfeasibleTrellisError,
    most_likely_trajectories,
    most_likely_trajectory,
    trajectory_cost,
    validate_allowed_mask,
)
from .base import ChaffStrategy, register_strategy

__all__ = [
    "OptimalOfflineStrategy",
    "OptimalOfflineResult",
    "OptimalOfflineBatch",
    "solve_optimal_offline",
    "solve_optimal_offline_batch",
]

_INF = np.inf

_NO_PATH = "optimal offline DP found no trajectory at least as likely as the user's"

#: Layers in the first block of the sweep; later blocks double.
_FIRST_BLOCK = 2

#: Float elements of one step's ``(B, K, L, L)`` candidate tensor;
#: the block width (and, for huge ``L``, the row chunk) shrinks to fit.
_STEP_ELEMENTS = 1 << 16

#: Bytes of one row chunk's hop table ``(B, T + 1, T - 1, L)``.
_HOP_BYTES = 1 << 22

@dataclass(frozen=True)
class OptimalOfflineResult:
    """Outcome of the OO dynamic program.

    Attributes
    ----------
    trajectory:
        The chaff trajectory of length ``T``.
    intersections:
        Optimal value ``i*`` — number of slots where chaff and user coincide.
    chaff_cost:
        Trellis cost (negative log-likelihood) of the chaff trajectory.
    user_cost:
        Trellis cost of the user's trajectory.
    strict:
        ``True`` if the chaff's likelihood strictly exceeds the user's;
        ``False`` if only a tie was achievable (the detector then guesses).
    """

    trajectory: np.ndarray
    intersections: int
    chaff_cost: float
    user_cost: float
    strict: bool


@dataclass(frozen=True)
class OptimalOfflineBatch:
    """Outcome of the OO dynamic program for a ``(B, T)`` batch of users.

    Row ``b`` of every field is :class:`OptimalOfflineResult`'s field for
    user ``b``.  Rows marked ``infeasible`` have no trajectory at least as
    likely as their user under their mask; their ``trajectories`` row is
    ``-1``, their ``intersections`` ``-1`` and their ``chaff_costs``
    ``nan``.
    """

    trajectories: np.ndarray
    intersections: np.ndarray
    chaff_costs: np.ndarray
    user_costs: np.ndarray
    strict: np.ndarray
    infeasible: np.ndarray

    def result(self, row: int) -> OptimalOfflineResult:
        """The single-user result of one feasible row."""
        if self.infeasible[row]:
            raise InfeasibleTrellisError(_NO_PATH)
        return OptimalOfflineResult(
            trajectory=self.trajectories[row].copy(),
            intersections=int(self.intersections[row]),
            chaff_cost=float(self.chaff_costs[row]),
            user_cost=float(self.user_costs[row]),
            strict=bool(self.strict[row]),
        )


def solve_optimal_offline(
    chain: MarkovChain,
    user_trajectory: npt.ArrayLike,
    *,
    allowed: npt.ArrayLike | None = None,
    tolerance: float = 1e-9,
) -> OptimalOfflineResult:
    """Run Algorithm 1 and return the optimal chaff trajectory.

    Parameters
    ----------
    chain:
        User mobility model.
    user_trajectory:
        The user's realised trajectory (length ``T``).
    allowed:
        Optional boolean mask of shape ``(T, L)``; the chaff may only visit
        cells marked ``True`` (used by the ROO strategy).
    tolerance:
        Numerical slack when comparing path costs.

    Raises :class:`~repro.core.trellis.InfeasibleTrellisError` when a slot
    allows no cell or no allowed trajectory is at least as likely as the
    user's.
    """
    user = np.asarray(user_trajectory, dtype=np.int64)
    if user.ndim != 1 or user.size == 0:
        raise ValueError("user trajectory must be a non-empty 1-D sequence")
    masks: np.ndarray | None = None
    if allowed is not None:
        masks = validate_allowed_mask(
            np.asarray(allowed), user.size, chain.n_states
        )[None]
    solved = solve_optimal_offline_batch(
        chain, user[None], allowed=masks, tolerance=tolerance
    )
    return solved.result(0)


def solve_optimal_offline_batch(
    chain: MarkovChain,
    users: npt.ArrayLike,
    *,
    allowed: npt.ArrayLike | None = None,
    tolerance: float = 1e-9,
) -> OptimalOfflineBatch:
    """Run Algorithm 1 for every row of a ``(B, T)`` user batch at once.

    ``allowed`` is ``None`` (every cell allowed) or a ``(B, T, L)``
    boolean mask stack, one mask per row.  Each row's result equals
    :func:`solve_optimal_offline` on that row exactly; infeasible rows are
    flagged in the result instead of raising.
    """
    user_rows = np.asarray(users, dtype=np.int64)
    if user_rows.ndim != 2 or user_rows.size == 0:
        raise ValueError("users must be a non-empty (B, T) array")
    n_rows, horizon = user_rows.shape
    n_cells = chain.n_states
    if user_rows.min() < 0 or user_rows.max() >= n_cells:
        raise ValueError("user trajectories contain out-of-range cells")
    masks: np.ndarray | None = None
    if allowed is not None:
        masks = np.asarray(allowed, dtype=bool)
        if masks.shape != (n_rows, horizon, n_cells):
            raise ValueError(
                f"allowed must have shape ({n_rows}, {horizon}, {n_cells}), "
                f"got {masks.shape}"
            )

    user_costs = np.array([trajectory_cost(chain, row) for row in user_rows])
    # Whether a strictly better path exists at all (unconstrained in
    # intersections) fixes the comparison used for i*.
    if masks is None:
        best_cost = trajectory_cost(chain, most_likely_trajectory(chain, horizon))
        best_costs = np.full(n_rows, best_cost)
        infeasible = np.zeros(n_rows, dtype=bool)
    else:
        best_paths, infeasible = most_likely_trajectories(chain, horizon, masks)
        best_costs = np.array(
            [
                _INF if bad else trajectory_cost(chain, path)
                for path, bad in zip(best_paths, infeasible, strict=True)
            ]
        )
    strict = best_costs < user_costs - tolerance

    trajectories = np.full((n_rows, horizon), -1, dtype=np.int64)
    neg_log_pi = -chain.log_stationary
    neg_log_P = -chain.log_transition_matrix
    hop_dtype = np.min_scalar_type(n_cells - 1)
    per_row = max(
        1,
        min(
            _STEP_ELEMENTS // (n_cells * n_cells),
            _HOP_BYTES
            // ((horizon + 1) * max(horizon - 1, 1) * n_cells * hop_dtype.itemsize),
        ),
    )
    pending = np.flatnonzero(~infeasible)
    for first in range(0, pending.size, per_row):
        rows = pending[first : first + per_row]
        found, paths = _solve_rows(
            neg_log_pi,
            neg_log_P,
            user_rows[rows],
            None if masks is None else masks[rows],
            strict[rows],
            user_costs[rows],
            tolerance,
            hop_dtype,
        )
        trajectories[rows[found]] = paths[found]
        infeasible[rows[~found]] = True

    feasible = ~infeasible
    intersections = np.where(
        feasible, np.sum(trajectories == user_rows, axis=1), -1
    ).astype(np.int64)
    chaff_costs = np.array(
        [
            trajectory_cost(chain, path) if ok else np.nan
            for path, ok in zip(trajectories, feasible, strict=True)
        ]
    )
    return OptimalOfflineBatch(
        trajectories=trajectories,
        intersections=intersections,
        chaff_costs=chaff_costs,
        user_costs=user_costs,
        strict=strict,
        infeasible=infeasible,
    )


def _solve_rows(
    neg_log_pi: np.ndarray,
    neg_log_P: np.ndarray,
    users: np.ndarray,
    masks: np.ndarray | None,
    strict: np.ndarray,
    user_costs: np.ndarray,
    tolerance: float,
    hop_dtype: np.dtype[Any],
) -> tuple[np.ndarray, np.ndarray]:
    """Block sweep plus backtracking for one chunk of feasible rows.

    Returns ``(found, trajectories)``: rows with ``found`` false have no
    layer that beats their user.
    """
    n_rows, horizon = users.shape
    n_cells = neg_log_P.shape[0]
    n_layers = horizon + 1
    on_user = users[:, :, None] == np.arange(n_cells)  # (B, T, L)
    # Adding 0 (allowed) or inf (forbidden) to a cost is exact, so this is
    # the DP's "forbidden cells cost inf" without a masked assignment.
    penalty = None if masks is None else np.where(masks, 0.0, _INF)
    beat_below = user_costs - tolerance
    tie_below = user_costs + tolerance

    # hops[b, t, k, x]: argmin over the next cell of layer k's same-layer
    # candidates at slot t.  On the user's cell, budget k reads layer k - 1.
    hops = np.empty((n_rows, horizon - 1, n_layers, n_cells), dtype=hop_dtype)
    chosen = np.full(n_rows, -1, dtype=np.int64)
    starts = np.zeros(n_rows, dtype=np.int64)
    # The last swept layer's per-slot same-layer minima (masked): the
    # user-cell input of the next block's first layer.
    lower = np.full((n_rows, horizon - 1, n_cells), _INF)
    active = np.arange(n_rows)
    first, width = 0, _FIRST_BLOCK
    while active.size and first < n_layers:
        fit = max(1, _STEP_ELEMENTS // (active.size * n_cells * n_cells))
        stop = min(n_layers, first + width, first + fit)
        costs, block_hops, lower[active] = _sweep_block(
            neg_log_P,
            on_user[active],
            None if penalty is None else penalty[active],
            lower[active],
            first,
            stop - first,
            hop_dtype,
        )
        hops[active, :, first:stop] = block_hops

        start_costs = neg_log_pi + costs  # (b, K, L)
        totals = start_costs.min(axis=2)
        wins = np.isfinite(totals) & np.where(
            strict[active, None],
            totals < beat_below[active, None],
            totals <= tie_below[active, None],
        )
        hit = wins.any(axis=1)
        layer = wins.argmax(axis=1)[hit]
        chosen[active[hit]] = first + layer
        starts[active[hit]] = start_costs[hit, layer].argmin(axis=1)
        active = active[~hit]
        first, width = stop, 2 * width

    found = chosen >= 0
    rows = np.flatnonzero(found)
    user_rows = users[rows]
    # Backtrack every solved row at once, spending one unit of budget
    # whenever the chaff sits on the user's cell.
    paths = np.empty((horizon, rows.size), dtype=np.int64)
    current = paths[0] = starts[rows]
    budget = chosen[rows]
    for t in range(horizon - 1):
        budget = budget - (current == user_rows[:, t])
        current = paths[t + 1] = hops[rows, t, budget, current]
    trajectories = np.empty((n_rows, horizon), dtype=np.int64)
    trajectories[rows] = paths.T
    return found, trajectories


def _sweep_block(
    neg_log_P: np.ndarray,
    on_user: np.ndarray,
    penalty: np.ndarray | None,
    lower: np.ndarray,
    first: int,
    width: int,
    hop_dtype: np.dtype[Any],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward sweep over ``t`` for layers ``[first, first + width)``.

    Returns the slot-0 cost-to-go ``(b, K, L)``, the same-layer hop table
    ``(b, T - 1, K, L)`` and the last layer's per-slot same-layer minima
    ``(b, T - 1, L)`` (the next block's ``lower``).
    """
    n_rows, horizon, n_cells = on_user.shape
    cost = np.zeros((n_rows, width, n_cells))
    if penalty is not None:
        cost += penalty[:, -1, None, :]
    if first == 0:
        cost[:, 0][on_user[:, -1]] = _INF
    # step[:, j]: masked min over the next cell for layer first - 1 + j at
    # the current slot; entry 0 is the previous block's last layer.
    step = np.empty((n_rows, width + 1, n_cells))
    last = np.empty_like(lower)
    hops = np.empty((n_rows, horizon - 1, width, n_cells), dtype=hop_dtype)
    argmins = np.empty((n_rows, width, n_cells), dtype=np.intp)
    candidate = np.empty((n_rows, width, n_cells, n_cells))
    for t in range(horizon - 2, -1, -1):
        np.add(cost[:, :, None, :], neg_log_P, out=candidate)
        step[:, 0] = lower[:, t]
        candidate.min(axis=3, out=step[:, 1:])
        candidate.argmin(axis=3, out=argmins)
        hops[:, t] = argmins
        if penalty is not None:
            step[:, 1:] += penalty[:, t, None, :]
        last[:, t] = step[:, width]
        # On the user's cell layer k costs layer k - 1's same-layer value.
        cost = np.where(on_user[:, t, None, :], step[:, :-1], step[:, 1:])
    return cost, hops, last


@register_strategy
class OptimalOfflineStrategy(ChaffStrategy):
    """Optimal offline strategy: one optimal chaff (extra budget replicates it)."""

    name = "OO"
    is_online = False
    is_deterministic = True

    def generate(
        self,
        chain: MarkovChain,
        user_trajectory: np.ndarray,
        n_chaffs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        user = self._validate_inputs(chain, user_trajectory, n_chaffs)
        # A deterministic detector is already defeated by the single optimal
        # chaff (Section IV-C); extra budget is spent on replicas, matching
        # the paper's observation that deterministic strategies cannot
        # benefit from more chaffs.
        chaff = solve_optimal_offline(chain, user).trajectory
        return np.tile(chaff, (n_chaffs, 1))

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Vectorised batch: one block-sweep solve over all runs."""
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )
        solved = solve_optimal_offline_batch(chain, users)
        if solved.infeasible.any():
            raise InfeasibleTrellisError(_NO_PATH)
        return np.repeat(solved.trajectories[:, None, :], n_chaffs, axis=1)

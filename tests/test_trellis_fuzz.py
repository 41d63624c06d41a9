"""Hypothesis fuzz: the batched OO block sweep equals the layer-by-layer DP.

:func:`repro.core.strategies.optimal_offline.solve_optimal_offline_batch`
advances blocks of intersection layers per backward sweep, drops a row as
soon as one of its layers beats the user, and backtracks all rows at once.
These properties pin every row of a batch to :mod:`oracles.optimal_offline`
— Algorithm 1 one layer and one slot at a time — on the trajectory,
``intersections``, chaff and user cost, ``strict`` and infeasibility:

* chains with dense or structurally sparse transition matrices (on the
  dense and on the sparse backend), ``L`` = 2–8, ``T`` = 1–30 (biased to
  short horizons), with quantised probabilities so that trellis ties (and
  hence the first-hit ``argmin`` rule) are common;
* users sampled from the chain, uniformly random, on the most likely path
  (which forces ties and ``i*`` up to ``T``) or one cell away from it;
* no masks, random masks, masks that exclude the user's own cells and
  masks with a fully blocked slot (infeasible rows);
* batches mixing all of these, so rows leave the sweep at different blocks;
* a zero tolerance next to the default one, so the strict and tie tests
  are exercised on exact equalities.

The strategy-aware detector's flags are pinned to the pairwise loop of
:func:`oracles.optimal_offline.flag_chaffs`, duplicate rows included.  The
oracle maps each row with one scalar ``generate`` call, so the property
also pins the batched ``ChaffStrategy.deterministic_map``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles.optimal_offline import flag_chaffs
from oracles.optimal_offline import solve_optimal_offline as oracle_solve

from repro.core.eavesdropper.advanced import StrategyAwareDetector
from repro.core.strategies.base import get_strategy
from repro.core.strategies.optimal_offline import (
    solve_optimal_offline,
    solve_optimal_offline_batch,
)
from repro.core.trellis import InfeasibleTrellisError, most_likely_trajectory
from repro.mobility.markov import MarkovChain
from repro.mobility.sparse import SparseMarkovChain

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Seeds of the numpy generators that build chains, users and masks.
_SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def chains(draw) -> MarkovChain:
    """An ergodic chain; weights 1–2 or 1–3 (0 when sparse) make ties common."""
    n_cells = draw(st.integers(2, 8))
    generator = np.random.default_rng(draw(_SEEDS))
    top = draw(st.sampled_from([2, 3]))
    weights = generator.integers(1, top + 1, size=(n_cells, n_cells)).astype(float)
    if draw(st.booleans()):
        weights[generator.random((n_cells, n_cells)) < 0.6] = 0.0
        # A self-loop and a ring edge keep the chain irreducible and aperiodic.
        cells = np.arange(n_cells)
        weights[cells, cells] = np.maximum(weights[cells, cells], 1.0)
        ring = (cells + 1) % n_cells
        weights[cells, ring] = np.maximum(weights[cells, ring], 1.0)
    chain = MarkovChain(weights / weights.sum(axis=1, keepdims=True))
    if draw(st.booleans()):
        return SparseMarkovChain.from_chain(chain)
    return chain


@st.composite
def users(draw, chain: MarkovChain, horizon: int) -> np.ndarray:
    """A user trajectory: sampled, uniform, on the ML path or next to it."""
    kind = draw(st.sampled_from(["sampled", "uniform", "ml", "near-ml"]))
    generator = np.random.default_rng(draw(_SEEDS))
    if kind == "sampled":
        return chain.sample_trajectory(horizon, generator)
    if kind == "uniform":
        return generator.integers(0, chain.n_states, size=horizon)
    path = most_likely_trajectory(chain, horizon).copy()
    if kind == "near-ml":
        slot = int(generator.integers(0, horizon))
        path[slot] = int(generator.integers(0, chain.n_states))
    return path


@st.composite
def masks(draw, user: np.ndarray, n_cells: int) -> np.ndarray:
    """An allowed mask: random, avoiding the user, or with a blocked slot."""
    horizon = user.size
    generator = np.random.default_rng(draw(_SEEDS))
    kind = draw(st.sampled_from(["random", "no-user", "blocked"]))
    mask = generator.random((horizon, n_cells)) >= draw(
        st.sampled_from([0.1, 0.3, 0.6])
    )
    if kind == "no-user":
        mask[np.arange(horizon), user] = False
    empty = ~mask.any(axis=1)
    mask[empty, generator.integers(0, n_cells, size=int(empty.sum()))] = True
    if kind == "blocked":
        mask[int(generator.integers(0, horizon))] = False
    return mask


@st.composite
def problems(draw):
    """A chain, a batch of users and (optionally) one mask per user."""
    chain = draw(chains())
    # Short horizons make exact cost ties (and so the strict/tie tests'
    # boundaries) common; long ones reach high i* and many blocks.
    horizon = draw(st.one_of(st.integers(1, 4), st.integers(1, 30)))
    n_rows = draw(st.integers(1, 6))
    rows = np.stack([draw(users(chain, horizon)) for _ in range(n_rows)])
    stack = None
    if draw(st.booleans()):
        stack = np.stack([draw(masks(row, chain.n_states)) for row in rows])
    tolerance = draw(st.sampled_from([1e-9, 0.0]))
    return chain, rows, stack, tolerance


#: Zero tolerance, and layer 0 holds a path exactly as costly as the user
#: while only layer 1 holds a strictly cheaper one: the strict test must
#: not accept the tie.
_EXACT_TIE = (
    MarkovChain(np.array([[1.0, 2.0], [2.0, 1.0]]) / 3.0),
    np.array([[0, 0, 1, 0]]),
    None,
    0.0,
)


@_SETTINGS
@given(problems())
@example(_EXACT_TIE)
def test_batched_rows_equal_the_layer_by_layer_dp(problem) -> None:
    chain, rows, stack, tolerance = problem
    solved = solve_optimal_offline_batch(
        chain, rows, allowed=stack, tolerance=tolerance
    )
    for row, user in enumerate(rows):
        allowed = None if stack is None else stack[row]
        try:
            expected = oracle_solve(chain, user, allowed=allowed, tolerance=tolerance)
        except InfeasibleTrellisError:
            assert solved.infeasible[row]
            with pytest.raises(InfeasibleTrellisError):
                solve_optimal_offline(
                    chain, user, allowed=allowed, tolerance=tolerance
                )
            continue
        assert not solved.infeasible[row]
        single = solve_optimal_offline(
            chain, user, allowed=allowed, tolerance=tolerance
        )
        for result in (solved.result(row), single):
            assert result.trajectory.tolist() == expected.trajectory.tolist()
            assert result.intersections == expected.intersections
            assert result.chaff_cost == expected.chaff_cost
            assert result.user_cost == expected.user_cost
            assert result.strict == expected.strict


@st.composite
def observations(draw):
    """An ``(R, N, T)`` tensor of users, their OO/ML/MO/CML maps and copies."""
    chain = draw(chains())
    horizon = draw(st.integers(1, 12))
    assumed = draw(st.sampled_from(["OO", "ML", "MO", "CML"]))
    strategy = get_strategy(assumed)
    n_runs = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 5))
    runs = []
    for _ in range(n_runs):
        pool = [draw(users(chain, horizon)) for _ in range(n_rows)]
        gammas = strategy.deterministic_map(chain, np.stack(pool))
        picks = draw(
            st.lists(
                st.integers(0, 2 * n_rows - 1), min_size=n_rows, max_size=n_rows
            )
        )
        candidates = [*pool, *gammas]
        runs.append(np.stack([candidates[pick] for pick in picks]))
    return chain, strategy, np.stack(runs)


@_SETTINGS
@given(observations())
def test_detector_flags_equal_the_pairwise_loop(case) -> None:
    chain, strategy, observed = case
    detector = StrategyAwareDetector(strategy)
    flagged = detector._flag_chaffs(chain, observed)
    for run in range(observed.shape[0]):
        expected = flag_chaffs(strategy, chain, observed[run])
        assert flagged[run].tolist() == expected.tolist()
    # A second pass is served from the memo and must flag the same rows.
    assert detector._flag_chaffs(chain, observed).tolist() == flagged.tolist()

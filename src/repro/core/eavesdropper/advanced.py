"""Advanced, strategy-aware eavesdropper (Section VI-A).

An advanced eavesdropper knows not only the user's mobility model but also
the chaff control strategy.  For deterministic single-chaff strategies the
chaff trajectory is a fixed function ``Gamma(x_1)`` of the user's
trajectory, so the eavesdropper can unmask chaffs: for every pair of
observed trajectories ``(x, x')`` with ``x' = Gamma(x)``, trajectory
``x'`` is flagged as a chaff and removed from consideration.  ML detection
is then run on the survivors; if every trajectory is flagged the detector
falls back to a uniform guess (the paper's "if both trajectories are
ignored, a random guess is made").

Against randomised strategies (IM, RML, ROO, RMO) the map ``Gamma`` is not
reproducible, so no trajectory matches and the detector degrades to plain
ML detection — which is exactly why the robust variants work.

``Gamma`` is the expensive part (against OO it is Algorithm 1), so the
detector memoises it per distinct trajectory and fills the memo one batch
at a time: the distinct not-yet-mapped rows of a whole ``(R, N, T)``
observation tensor go through one batched ``deterministic_map`` call.
Flagging then compares integer row ids — ``Gamma(x_s)`` against every
``x_t`` of the same run — instead of testing trajectory pairs one by one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...mobility.markov import MarkovChain
from ..strategies.base import ChaffStrategy
from .detector import (
    BatchDetectionOutcome,
    DetectionOutcome,
    MaximumLikelihoodDetector,
    TrajectoryDetector,
    _validate_batch,
    trajectory_log_likelihoods,
)

__all__ = ["StrategyAwareDetector"]


class StrategyAwareDetector(TrajectoryDetector):
    """ML detection preceded by strategy-based chaff filtering.

    Parameters
    ----------
    assumed_strategy:
        The chaff control strategy the eavesdropper believes the user
        employs.  Filtering uses the strategy's deterministic map; if the
        strategy is randomised (``deterministic_map`` returns ``None``)
        no filtering is possible and the detector reduces to plain ML.
    tolerance:
        Log-likelihood tolerance for tie breaking in the ML stage.
    """

    name = "strategy-aware"

    def __init__(
        self, assumed_strategy: ChaffStrategy, *, tolerance: float = 1e-9
    ) -> None:
        self.assumed_strategy = assumed_strategy
        self._ml = MaximumLikelihoodDetector(tolerance=tolerance)
        # Memo of trajectory bytes -> bytes of Gamma(trajectory).  The map
        # is expensive for the OO strategy and the trace-driven experiments
        # re-present the same fleet trajectories many times.
        self._map_cache: dict[bytes, bytes] = {}

    def detect(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rng: np.random.Generator,
        *,
        transition_stack: np.ndarray | None = None,
    ) -> DetectionOutcome:
        observed = np.asarray(trajectories, dtype=np.int64)
        if observed.ndim != 2 or observed.size == 0:
            raise ValueError("trajectories must be a non-empty (N, T) array")
        batch = self.detect_batch(
            chain, observed[None], [rng], transition_stack=transition_stack
        )
        return batch.outcome(0)

    def detect_batch(
        self,
        chain: MarkovChain,
        trajectories: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        transition_stack: np.ndarray | None = None,
    ) -> BatchDetectionOutcome:
        """Run the Section VI-A eavesdropper over an ``(R, N, T)`` batch.

        Chaff flagging maps the whole batch at once (see the module
        docstring) and the ML stage scores the whole tensor in one
        vectorised shot.  Each run consumes its generator exactly like a
        single-episode :meth:`detect` call (one tie-break draw, or one
        uniform guess when every trajectory was flagged), so batched and
        looped execution stay bit-identical.
        """
        observed = _validate_batch(trajectories)
        rngs = list(rngs)
        n_runs, n, _ = observed.shape
        if len(rngs) != n_runs:
            raise ValueError("need exactly one generator per run")
        all_scores = trajectory_log_likelihoods(chain, observed, transition_stack)
        flagged = self._flag_chaffs(chain, observed)
        scores = np.full((n_runs, n), -np.inf)
        chosen = np.empty(n_runs, dtype=np.int64)
        candidates_per_run: list[np.ndarray] = []
        for run in range(n_runs):
            survivors = np.flatnonzero(~flagged[run])
            if survivors.size == 0:
                # Everything was attributed to a chaff: fall back to a guess.
                scores[run] = np.nan
                chosen[run] = int(rngs[run].integers(0, n))
                candidates_per_run.append(np.arange(n))
                continue
            survivor_scores = all_scores[run, survivors]
            scores[run, survivors] = survivor_scores
            best = float(survivor_scores.max())
            candidates = survivors[survivor_scores >= best - self._ml.tolerance]
            chosen[run] = int(rngs[run].choice(candidates))
            candidates_per_run.append(candidates)
        return BatchDetectionOutcome(
            chosen_indices=chosen,
            scores=scores,
            candidate_indices=tuple(candidates_per_run),
        )

    # ------------------------------------------------------------------
    def _flag_chaffs(self, chain: MarkovChain, observed: np.ndarray) -> np.ndarray:
        """``(R, N)`` mask of trajectories that are Gamma of another in their run."""
        n_runs, n, horizon = observed.shape
        if not self.assumed_strategy.is_deterministic:
            # Randomised strategies have no reproducible map: nothing can
            # be flagged, and memoising ``None``s would only grow the memo
            # across Monte-Carlo batches for nothing.
            return np.zeros((n_runs, n), dtype=bool)
        rows = observed.reshape(-1, horizon)
        keys = [row.tobytes() for row in rows]
        # A distinct row's id is the index of its first occurrence.
        first: dict[bytes, int] = {}
        for index, key in enumerate(keys):
            first.setdefault(key, index)
        unseen = [index for key, index in first.items() if key not in self._map_cache]
        if unseen:
            maps = self.assumed_strategy.deterministic_map(chain, rows[unseen])
            for index, gamma in zip(unseen, np.asarray(maps, np.int64), strict=True):
                self._map_cache[keys[index]] = gamma.tobytes()
        row_ids = np.array([first[key] for key in keys]).reshape(n_runs, n)
        map_ids = np.array(
            [first.get(self._map_cache[key], -1) for key in keys]
        ).reshape(n_runs, n)
        # matches[r, s, t]: Gamma of row s is row t (s != t) in run r.
        matches = map_ids[:, :, None] == row_ids[:, None, :]
        matches[:, np.arange(n), np.arange(n)] = False
        return matches.any(axis=1)

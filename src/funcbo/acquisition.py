"""GP-UCB acquisition and its maximisation over subspace coordinates.

The acquisition value at a point is mean + sqrt(beta_t) * sd.  The
search over coordinates lam in [-box, box]^d runs `restarts` seeds in
lockstep: every local step applies one golden-section bracket shrink to
one coordinate (round-robin), evaluating both interior points of every
restart in a single batched posterior query.  The best candidate ever
evaluated is returned, so a restart can never end below its own seed.

Candidates whose function exceeds the norm cap are pulled back onto the
ball by radial scaling before scoring, so the returned function always
satisfies the constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gp
from .errors import InputError
from .gridfn import GridFunction

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class UcbSchedule:
    """Confidence-width schedule beta_t = 2 log(t^(d/2+2) pi^2 / (3 delta))."""

    delta: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InputError(f"delta must be in (0,1), got {self.delta}")
        if self.d < 1:
            raise InputError(f"dimension must be >= 1, got {self.d}")


def beta(schedule: UcbSchedule, t: int) -> float:
    """Exploration constant at iteration t >= 1; strictly increasing in t."""
    if t < 1:
        raise InputError(f"iteration index must be >= 1, got {t}")
    return 2.0 * (
        (schedule.d / 2.0 + 2.0) * math.log(t)
        + math.log(math.pi**2 / (3.0 * schedule.delta))
    )


def ucb_value(mean: float, variance: float, beta_t: float) -> float:
    return float(mean) + math.sqrt(beta_t) * math.sqrt(max(variance, 0.0))


@dataclass(frozen=True)
class AcqSearchConfig:
    restarts: int = 8
    local_steps: int = 40
    lambda_box: float = 4.0
    l_max: float = 10.0

    def __post_init__(self):
        for name in ("restarts", "local_steps"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        for name in ("lambda_box", "l_max"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")


def candidate_values(subspace, search: AcqSearchConfig, lam_batch: np.ndarray) -> np.ndarray:
    """Map coordinate rows to function value rows, radially capped at l_max."""
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    basis = np.array([h.values for h in subspace.basis])
    g = subspace.bias.values[None, :] + lam_batch @ basis
    weight = subspace.bias.spec.weight
    norms = np.sqrt(np.einsum("ij,ij->i", g, g) * weight)
    over = norms > search.l_max
    if np.any(over):
        g[over] *= (search.l_max / norms[over])[:, None]
    return g


def restart_seeds(search: AcqSearchConfig, d: int, rng) -> np.ndarray:
    """The only random draws of one coordinate search: one uniform seed
    per restart in [-box, box]^d.  Replay calls this to consume the same
    draws without running the search."""
    return rng.uniform(-search.lambda_box, search.lambda_box, size=(search.restarts, d))


def golden_multistart(score_batch, d: int, search: AcqSearchConfig, rng):
    """Maximise a batched score over [-box, box]^d; returns (lam, value).

    score_batch maps an (n, d) array of coordinate rows to n scores.
    Per coordinate, each restart owns the segment of the box closest to
    its seed (midpoints between sorted seeds), so the restart brackets
    tile the whole box instead of collapsing into one identical search.
    Deterministic given the rng: the only draws are the restart seeds.
    """
    box = search.lambda_box
    n = search.restarts
    seeds = restart_seeds(search, d, rng)
    lam = seeds.copy()
    best_lam = seeds.copy()
    best_val = np.asarray(score_batch(lam), dtype=float).copy()
    lo = np.empty((n, d))
    hi = np.empty((n, d))
    for j in range(d):
        order = np.argsort(seeds[:, j])
        sorted_vals = seeds[order, j]
        mids = (sorted_vals[:-1] + sorted_vals[1:]) / 2.0
        lo[order, j] = np.concatenate(([-box], mids))
        hi[order, j] = np.concatenate((mids, [box]))
    for step in range(search.local_steps):
        j = step % d
        span = hi[:, j] - lo[:, j]
        x1 = hi[:, j] - _INVPHI * span
        x2 = lo[:, j] + _INVPHI * span
        cand = np.vstack([lam, lam])
        cand[:n, j] = x1
        cand[n:, j] = x2
        vals = np.asarray(score_batch(cand), dtype=float)
        f1, f2 = vals[:n], vals[n:]
        first_better = f1 > f2
        hi[first_better, j] = x2[first_better]
        lo[~first_better, j] = x1[~first_better]
        lam[:, j] = np.where(first_better, x1, x2)
        cur = np.where(first_better, f1, f2)
        improved = cur > best_val
        best_val[improved] = cur[improved]
        best_lam[improved] = lam[improved]
    i = int(np.argmax(best_val))  # ties resolve to the lower restart index
    return best_lam[i].copy(), float(best_val[i])


def ucb_search(model: gp.GPModel, rows_fn, d: int, search: AcqSearchConfig, rng, sqrt_beta: float):
    """Maximise mean + sqrt_beta * sd over coordinates in [-box, box]^d;
    returns (lam, value).

    rows_fn maps an (n, d) array of coordinate rows to the model's query
    rows (capped function values for a subspace, the coordinates
    themselves for a model on the coordinates).
    """

    def score(lam_batch):
        mean, var = gp.posterior_batch(model, rows_fn(lam_batch))
        return mean + sqrt_beta * np.sqrt(var)

    return golden_multistart(score, d, search, rng)


def maximise(
    model: gp.GPModel,
    subspace,
    schedule: UcbSchedule,
    search: AcqSearchConfig,
    t: int,
    rng,
) -> tuple[np.ndarray, GridFunction, float]:
    """Multistart maximisation of the UCB over the subspace's coordinates.

    Returns (coordinates, capped function, acquisition value).
    """
    d = len(subspace.basis)
    if d < 1:
        raise InputError("subspace must have at least one basis function")
    lam, val = ucb_search(
        model,
        lambda lam_batch: candidate_values(subspace, search, lam_batch),
        d,
        search,
        rng,
        math.sqrt(beta(schedule, t)),
    )
    g_row = candidate_values(subspace, search, lam[None, :])[0]
    return lam, GridFunction(subspace.bias.spec, g_row), val

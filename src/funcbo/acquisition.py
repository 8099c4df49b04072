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

The search scores candidates from their coordinates, never from their
N grid values.  A candidate of the subspace b + span(h_1..h_d) is
c * (a @ A) with A = [b; h_1..h_d], a = [1, lam] and c the cap scale.
Once per search ``subspace_posterior`` computes the L2 Gram A Aᵀ, and
``gp.span_posterior`` the metric Gram and the projections of A on the
model's points.  Per row, a (A Aᵀ) aᵀ is the squared norm that sets c,
and the squared distances to the n observations cost O(d n) instead of
O(N n).  Only the pick is mapped to its N values, by
``candidate_values``; both paths take c from ``cap_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gp
from .errors import InputError

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
        if not math.isfinite(2.0 * float(self.lambda_box)):  # the seeds' box width
            raise InputError("lambda_box must be below 8.9e307, so that 2 * lambda_box is finite")


def cap_scale(sq_norms: np.ndarray, l_max: float) -> np.ndarray:
    """Radial scale factors that pull functions of the given squared L2
    norms back onto the ball of radius l_max: 1 inside it."""
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    scale = np.ones_like(norms)
    over = norms > l_max
    scale[over] = l_max / norms[over]
    return scale


def candidate_values(subspace, search: AcqSearchConfig, lam_batch: np.ndarray) -> np.ndarray:
    """Map coordinate rows to function value rows, radially capped at l_max."""
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    basis = np.array([h.values for h in subspace.basis])
    g = subspace.bias.values[None, :] + lam_batch @ basis
    sq_norms = np.einsum("ij,ij->i", g, g) * subspace.bias.spec.weight
    return g * cap_scale(sq_norms, search.l_max)[:, None]


def subspace_posterior(model: gp.GPModel, subspace, search: AcqSearchConfig):
    """Batched lam -> (mean, var) at the capped candidates of a subspace,
    computed from the coordinates: equal to posterior_batch on
    candidate_values(subspace, search, lam) up to rounding."""
    A = np.array([subspace.bias.values] + [h.values for h in subspace.basis])
    l2_gram = (A @ A.T) * subspace.bias.spec.weight
    span = gp.span_posterior(model, A)

    def posterior(lam_batch):
        lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
        a = np.hstack([np.ones((lam_batch.shape[0], 1)), lam_batch])
        sq_norms = np.einsum("ij,ij->i", a @ l2_gram, a)
        return span(a, cap_scale(sq_norms, search.l_max))

    return posterior


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


def ucb_search(posterior, d: int, search: AcqSearchConfig, rng, sqrt_beta: float):
    """Maximise mean + sqrt_beta * sd over coordinates in [-box, box]^d;
    returns (lam, value).

    posterior maps an (n, d) array of coordinate rows to the posterior
    (means, variances) there: ``subspace_posterior`` for a subspace, or
    ``gp.posterior_batch`` of a model on the coordinates themselves.
    """

    def score(lam_batch):
        mean, var = posterior(lam_batch)
        return mean + sqrt_beta * np.sqrt(var)

    return golden_multistart(score, d, search, rng)


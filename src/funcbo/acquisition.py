"""GP-UCB acquisition and its maximisation over subspace coordinates.

The acquisition value at a point is mean + sqrt(beta_t) * sd.  The
search over coordinates lam in [-box, box]^d runs `restarts` seeds in
lockstep: every local step applies one golden-section bracket shrink to
one coordinate (round-robin), evaluating both interior points of every
restart in a single batched posterior query.  The best candidate ever
evaluated is returned, so a restart can never end below its own seed.
A caller that needs to know only whether the maximum reaches a level
passes ``settled`` and gets the running best as soon as it does (the
regret certificate stops once it proves err >= epsilon).

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
``candidate_values``, which always takes c from ``cap_scale``.

Most searches cannot reach the cap, and those skip it.  By the triangle
inequality no candidate of the box is longer than B = ||b|| + box *
sum_j ||h_j||, the norms read off the diagonal of the L2 Gram.  When
B <= (1 - 1e-3) l_max, or l_max is infinite, the search scores the
points a @ A without c: every candidate's computed norm is then at most
l_max, so ``cap_scale`` would return exactly 1.0 and each skipped
product is a multiplication by 1.0.  The margin covers the rounding of
the Gram and of each row's quadratic form, and golden-section points an
ulp outside the box.  Under a finite l_max, a non-finite B takes the
capped path.

A search step scores its 2 * restarts candidates in one call, and the
call allocates little beyond its (q, n) arrays.  The golden-section loop
refills one candidate array per search, and ``subspace_posterior``
writes the rows [1, lam] into one buffer per search.  In
``gp.span_posterior`` the squared distances become kernel values
(``kernels.value_from_sqdist``), then posterior variances
(``gp.posterior_from_sqdist``), then UCB scores (``ucb_search``), each
in place in the array of the step before.  Every in-place step does the
float operations of the plain expression in the same order, up to exact
rewrites (y * x for x * y, x / -c for -x / c), so scores and picks are
bit-identical to a search that allocates at every step
(``tests/reference.py`` keeps that search as the test oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gp
from .errors import InputError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_CAP_MARGIN = 1e-3  # relative room below l_max that a search's norm bound must keep


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


# A candidate's squared norm is [1, lam] G [1, lam]ᵀ, G the Gram of the
# subspace's bias and basis: with |lam| <= 1e100 it stays far from overflow,
# where the cap scale would turn to 0 and the scores to NaN.
LAMBDA_BOX_MAX = 1e100


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
        if not self.lambda_box <= LAMBDA_BOX_MAX:
            raise InputError(f"lambda_box must be at most {LAMBDA_BOX_MAX:g}, so that "
                             "candidates' squared norms cannot overflow")


def cap_scale(sq_norms: np.ndarray, l_max: float) -> np.ndarray:
    """Radial scale factors that pull functions of the given squared L2
    norms back onto the ball of radius l_max: l_max / norm outside it, 1
    inside it and at a NaN norm.  An infinite l_max caps nothing, and
    would make the ratio inf / inf."""
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    if l_max == math.inf:
        return np.ones_like(norms)
    return l_max / np.fmax(norms, l_max)


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
    candidate_values(subspace, search, lam) up to rounding.  lam is a
    (q, d) array; the coefficient rows [1, lam] live in one buffer per
    search, reallocated only when q changes.  A search whose box cannot
    reach the cap scores without it (see the module docstring)."""
    A = np.array([subspace.bias.values] + [h.values for h in subspace.basis])
    l2_gram = (A @ A.T) * subspace.bias.spec.weight
    span = gp.span_posterior(model, A)
    norms = np.sqrt(np.diagonal(l2_gram)).tolist()
    bound = norms[0] + search.lambda_box * sum(norms[1:])
    uncapped = bound <= (1.0 - _CAP_MARGIN) * search.l_max  # always under l_max = inf
    a = np.ones((0, len(A)))

    def posterior(lam_batch):
        nonlocal a
        if len(a) != len(lam_batch):
            a = np.ones((len(lam_batch), len(A)))
        a[:, 1:] = lam_batch
        if uncapped:
            return span(a)
        sq_norms = np.einsum("ij,ij->i", a @ l2_gram, a)
        return span(a, cap_scale(sq_norms, search.l_max))

    return posterior


def restart_seeds(search: AcqSearchConfig, d: int, rng) -> np.ndarray:
    """The only random draws of one coordinate search: one uniform seed
    per restart in [-box, box]^d.  Replay calls this to consume the same
    draws without running the search."""
    return rng.uniform(-search.lambda_box, search.lambda_box, size=(search.restarts, d))


def golden_multistart(score_batch, d: int, search: AcqSearchConfig, rng, settled=None):
    """Maximise a batched score over [-box, box]^d; returns (lam, value).

    score_batch maps a (q, d) array of coordinate rows to a new array of
    q scores, which the search overwrites; it must not keep the rows'
    array, which the search refills for its next call.
    Per coordinate, each restart owns the segment of the box closest to
    its seed (midpoints between sorted seeds), so the restart brackets
    tile the whole box instead of collapsing into one identical search.
    Deterministic given the rng: the only draws are the restart seeds.

    settled, if given, is called with the running best value before
    each local step; once it returns True, the search returns its
    running best at once.
    """
    box = search.lambda_box
    n = search.restarts
    lam = restart_seeds(search, d, rng)
    best_lam = lam.copy()
    best_val = score_batch(lam)
    lo = np.empty((n, d))
    hi = np.empty((n, d))
    for j in range(d):
        order = np.argsort(lam[:, j])
        sorted_vals = lam[order, j]
        mids = (sorted_vals[:-1] + sorted_vals[1:]) / 2.0
        lo[order, j] = np.concatenate(([-box], mids))
        hi[order, j] = np.concatenate((mids, [box]))
    # the two interior points of every restart: cand[0] moves coordinate j
    # to x1, cand[1] to x2, the other coordinates stay at lam; rows views
    # cand as 2n coordinate rows
    cand = np.empty((2, n, d))
    rows = cand.reshape(2 * n, d)
    columns = [(lo[:, j], hi[:, j], lam[:, j], cand[0, :, j], cand[1, :, j]) for j in range(d)]
    for step in range(search.local_steps):
        if settled is not None and settled(float(best_val.max())):
            break
        lo_j, hi_j, lam_j, x1, x2 = columns[step % d]
        cand[:] = lam
        reach = hi_j - lo_j
        reach *= _INVPHI
        np.subtract(hi_j, reach, out=x1)
        np.add(lo_j, reach, out=x2)
        vals = score_batch(rows)
        f1, f2 = vals[:n], vals[n:]
        first_better = f1 > f2
        second_better = ~first_better
        np.copyto(hi_j, x2, where=first_better)
        np.copyto(lo_j, x1, where=second_better)
        np.copyto(lam_j, x1, where=first_better)
        np.copyto(lam_j, x2, where=second_better)
        np.copyto(f1, f2, where=second_better)  # f1 is now each restart's new value
        improved = f1 > best_val
        np.copyto(best_val, f1, where=improved)
        np.copyto(best_lam, lam, where=improved[:, None])
    i = int(np.argmax(best_val))  # ties resolve to the lower restart index
    return best_lam[i].copy(), float(best_val[i])


def ucb_search(posterior, d: int, search: AcqSearchConfig, rng, sqrt_beta: float,
               settled=None):
    """Maximise mean + sqrt_beta * sd over coordinates in [-box, box]^d;
    returns (lam, value).  settled may stop the search early, as in
    ``golden_multistart``.

    posterior maps a (q, d) array of coordinate rows to new arrays of the
    posterior (means, variances) there: ``subspace_posterior`` for a
    subspace, or ``gp.posterior_batch`` of a model on the coordinates
    themselves.  The score is formed in place in the variances' array.
    """

    def score(lam_batch):
        mean, var = posterior(lam_batch)
        sd = np.sqrt(var, out=var)
        sd *= sqrt_beta
        sd += mean
        return sd

    return golden_multistart(score, d, search, rng, settled)

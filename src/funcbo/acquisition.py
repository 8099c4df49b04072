"""GP-UCB acquisition and its maximisation over subspace coordinates.

The acquisition value at a point is mean + sqrt(beta_t) * sd.  The
search over coordinates lam in [-box, box]^d runs `restarts` seeds in
lockstep: every local step applies one golden-section bracket shrink to
one coordinate (round-robin) of every restart.  It is the textbook
search (Kiefer 1953) at every d.  The first visit to a coordinate
scores both interior points of its bracket.  After it, the winner of a
step is one interior point of the shrunk bracket, and the steps on the
other coordinates leave it there, with the restart's score at its
position (``cur``) known; so each later step scores only the other
interior point.  The best candidate ever evaluated is returned, so a
restart can never end below its own seed.  A caller that needs to know
only whether the maximum reaches a level passes ``settled`` and gets
the running best as soon as it does (the regret certificate stops once
it proves err >= epsilon).

A posterior call costs mostly its fixed numpy overhead, so one call
scores two later steps: a (3, n, d) stack of the step's new points and
the next step's, if each restart's first interior point wins (slice 1)
or its second (slice 2).  Each slice has the rows, row order and shape
of a call for one step, and the posterior runs per slice (a matmul with
leading axes is one BLAS call per slice), so the result is bit for bit
that of one call per step (``tests/reference.py``), which scoring the
3 n rows as one flat batch would not be.  A first visit, which scores
2 n rows, and an odd last step are scored alone, so at the defaults (40
local steps) a search makes 1 + d + ceil((40 - d) / 2) calls: 22 at
d = 1 and 2, 23 at d = 3.

Candidates whose function exceeds the norm cap are pulled back onto the
ball by radial scaling before scoring, so the returned function always
satisfies the constraint.

The search scores candidates from their coordinates, never from their
N grid values.  A candidate of the subspace b + span(h_1..h_d) is
c * (a @ A) with A = [b; h_1..h_d], a = [1, lam] and c the cap scale.
Once per search ``subspace_posterior`` computes the L2 Gram A Aᵀ, and
``gp.span_posterior`` folds the metric Gram of A, the projections of A
on the model's points and their norms into one matrix.  Per row,
a (A Aᵀ) aᵀ is the squared norm that sets c, and the squared distances
to the n observations are one product of the row's (d + 2)^2 pairwise
coefficient products with that matrix, instead of O(N n).  Only the pick
is mapped to its N values, by ``candidate_values``, which always takes c
from ``cap_scale``.

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

The search keeps each restart's bracket, position and best as Python
floats, one list per coordinate, and one pass over the restarts
resolves a call's steps.  ``subspace_posterior`` writes the rows
[1, c, c lam] into one buffer per search and row shape.  The scaled
squared distances become kernel values (``kernels.value_from_scaled``),
then posterior variances (``gp.posterior_from_sqdist``), then UCB
scores (``ucb_search``), each in place in the array of the step before.
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
    (..., q, d) array; the rows e = [1, c, c lam] of ``gp.span_posterior``
    live in one buffer per search, reallocated only when lam's shape
    changes.  A search whose box cannot reach the cap scores without it
    (see the module docstring)."""
    A = np.array([subspace.bias.values] + [h.values for h in subspace.basis])
    l2_gram = (A @ A.T) * subspace.bias.spec.weight
    span = gp.span_posterior(model, A)
    norms = np.sqrt(np.diagonal(l2_gram)).tolist()
    bound = norms[0] + search.lambda_box * sum(norms[1:])
    uncapped = bound <= (1.0 - _CAP_MARGIN) * search.l_max  # always under l_max = inf
    e = np.ones((0, len(A) + 1))

    def posterior(lam_batch):
        nonlocal e
        if e.shape[:-1] != lam_batch.shape[:-1]:
            e = np.ones(lam_batch.shape[:-1] + (len(A) + 1,))
        e[..., 2:] = lam_batch
        if not uncapped:
            a = e[..., 1:]
            a[..., 0] = 1.0
            sq_norms = np.einsum("...ij,...ij->...i", a @ l2_gram, a)
            a *= cap_scale(sq_norms, search.l_max)[..., None]
        return span(e)

    return posterior


def restart_seeds(search: AcqSearchConfig, d: int, rng) -> np.ndarray:
    """The only random draws of one coordinate search: one uniform seed
    per restart in [-box, box]^d.  Replay calls this to consume the same
    draws without running the search."""
    return rng.uniform(-search.lambda_box, search.lambda_box, size=(search.restarts, d))


def golden_multistart(score_batch, d: int, search: AcqSearchConfig, rng, settled=None):
    """Maximise a batched score over [-box, box]^d; returns (lam, value).

    score_batch maps coordinate rows, an array of shape (..., q, d), to
    their scores, shape (..., q); a row's score must not depend on the
    leading axes (see the module docstring).
    Per coordinate, each restart owns the segment of the box closest to
    its seed (midpoints between sorted seeds), so the restart brackets
    tile the whole box instead of collapsing into one identical search.
    Deterministic given the rng: the only draws are the restart seeds.

    settled, if given, is called with the running best value before
    each local step; once it returns True, the search returns its
    running best at once.
    """
    box = search.lambda_box
    n, steps = search.restarts, search.local_steps
    seeds = restart_seeds(search, d, rng)
    # per coordinate, one float per restart: the bracket ends, the position
    # and whether the position is the upper interior point of the bracket;
    # ``rows`` holds each restart's position too, for cheap copies of the best
    pos, rows = seeds.T.tolist(), seeds.tolist()
    lo, hi = [[-box] * n for _ in pos], [[box] * n for _ in pos]
    upper = [[False] * n for _ in pos]
    for lo_j, hi_j, pos_j in zip(lo, hi, pos):
        order = sorted(range(n), key=pos_j.__getitem__)
        for a, b in zip(order, order[1:]):
            hi_j[a] = lo_j[b] = (pos_j[a] + pos_j[b]) / 2.0
    cur = score_batch(seeds).tolist()  # each restart's score at its position
    best, best_pos = cur[:], seeds.tolist()

    def call(*slices):
        """The scores of a stack of slices, each given by its d columns."""
        stack = np.array(slices).transpose(0, 2, 1)
        return score_batch(np.ascontiguousarray(stack)).tolist()

    step = 0
    while step < steps and not (settled is not None and settled(max(best))):
        j, k = step % d, (step + 1) % d
        L, H, P, U = lo[j], hi[j], pos[j], upper[j]
        visit, pair = step < d, d <= step < steps - 1
        if visit:  # both interior points x1 < x2, in a call of its own; x1 becomes the position
            x1s = [h - (h - l) * _INVPHI for l, h in zip(L, H)]
            xs = [l + (h - l) * _INVPHI for l, h in zip(L, H)]
            cols = [col + col for col in pos]
            cols[j] = x1s + xs
            (vals,) = call(cols)
            cs, fs = vals[:n], vals[n:]  # the scores at x1 and at x2
        else:
            # A later step keeps the position, one of the bracket's interior
            # points x1 < x2, and scores the other.  Unless it is the last,
            # its call also scores the next step's new point after either
            # outcome: x1 is the upper interior point of [lo, x2], and x2 the
            # lower one of [x1, hi].
            xs, x1s, x2s, y1s, y2s = [], [], [], [], []
            for l, h, p, u in zip(L, H, P, U):
                r = (h - l) * _INVPHI
                if u:
                    x = x1 = h - r
                    x2 = p
                else:
                    x1 = p
                    x = x2 = l + r
                xs.append(x)
                if k == j:
                    y1s.append(x2 - (x2 - l) * _INVPHI)
                    y2s.append(x1 + (h - x1) * _INVPHI)
                else:
                    x1s.append(x1)
                    x2s.append(x2)
            if k != j:  # the next step's new point is the same after either outcome
                y1s = y2s = [h - (h - l) * _INVPHI if u else l + (h - l) * _INVPHI
                             for l, h, u in zip(lo[k], hi[k], upper[k])]
            first, one, two = pos[:], pos[:], pos[:]
            first[j], one[j], two[j] = xs, x1s, x2s
            one[k], two[k] = y1s, y2s
            # a last step's call scores its first slice only
            cs, (fs, gs1, gs2) = cur, call(first, one, two) if pair else call(first) * 3
        Lk, Hk, Pk, Uk = lo[k], hi[k], pos[k], upper[k]
        mid = []  # after the first of two steps: each restart's best and its position
        for i in range(n):
            x, fx, c = xs[i], fs[i], cs[i]
            if visit:
                P[i] = rows[i][j] = x1s[i]
            if U[i]:  # x is the lower interior point, the position the upper one
                if fx > c:
                    H[i], P[i], rows[i][j], c, won = P[i], x, x, fx, True
                else:
                    L[i], U[i], won = x, False, False
            elif c > fx:
                H[i], U[i], won = x, True, True
            else:
                L[i], P[i], rows[i][j], c, won = P[i], x, x, fx, False
            if c > best[i]:
                best[i], best_pos[i] = c, rows[i][:]
            if pair:  # the call's second step, on coordinate k, resolved the same way
                if settled is not None:
                    mid.append((best[i], best_pos[i]))
                x, fx = (y1s[i], gs1[i]) if won else (y2s[i], gs2[i])
                if Uk[i]:
                    if fx > c:
                        Hk[i], Pk[i], rows[i][k], c = Pk[i], x, x, fx
                    else:
                        Lk[i], Uk[i] = x, False
                elif c > fx:
                    Hk[i], Uk[i] = x, True
                else:
                    Lk[i], Pk[i], rows[i][k], c = Pk[i], x, x, fx
                if c > best[i]:
                    best[i], best_pos[i] = c, rows[i][:]
            cur[i] = c
        step += 1 + pair
        if mid and settled(max(v for v, _ in mid)):  # settled before the second step
            i = int(np.argmax([v for v, _ in mid]))
            return np.array(mid[i][1]), mid[i][0]
    i = int(np.argmax(best))  # ties resolve to the lower restart index
    return np.array(best_pos[i]), best[i]


def ucb_search(posterior, d: int, search: AcqSearchConfig, rng, sqrt_beta: float,
               settled=None):
    """Maximise mean + sqrt_beta * sd over coordinates in [-box, box]^d;
    returns (lam, value).  settled may stop the search early, as in
    ``golden_multistart``.

    posterior maps coordinate rows, shape (..., q, d), to new arrays of
    the posterior (means, variances) there, shape (..., q), such as
    ``subspace_posterior`` of a subspace.  The score is formed in place in
    the variances' array.
    """

    def score(lam_batch):
        mean, var = posterior(lam_batch)
        sd = np.sqrt(var, out=var)
        sd *= sqrt_beta
        sd += mean
        return sd

    return golden_multistart(score, d, search, rng, settled)

"""GP-UCB acquisition and its maximisation over subspace coordinates.

The acquisition value at a point is mean + sqrt(beta_t) * sd.  The
search over coordinates lam in [-box, box]^d runs `restarts` seeds in
lockstep: every local step applies one golden-section bracket shrink to
one coordinate (round-robin) of every restart.  At d = 1 this is the
textbook search (Kiefer 1953): the winner of a step is one interior
point of the shrunk bracket, so its score is carried over and only the
other interior point is new.  At d >= 2 both interior points are scored
at every step.  Carrying would be exact there too: the steps on the
other coordinates leave coordinate j's position at an interior point of
its bracket, and the restart's score at its position (``cur``) is known.
It is not done because no benchmark workload runs d >= 2, so its gain
could not be shown, and it would move those runs' traces at rounding
level.  The best candidate ever evaluated is returned, so a
restart can never end below its own seed.  A caller that needs to know
only whether the maximum reaches a level passes ``settled`` and gets
the running best as soon as it does (the regret certificate stops once
it proves err >= epsilon).

A posterior call costs mostly its fixed numpy overhead, so at d = 1
one call scores two local steps: a (3, n, 1) stack of the step's new
points and the next step's, if each restart's first interior point wins
(slice 1) or its second (slice 2).  Each slice has the rows, row order
and shape of a call for one step, and the posterior runs per slice (a
matmul with leading axes is one BLAS call per slice), so the result is
bit for bit that of one call per step (``tests/reference.py``), which
scoring the 3 n rows as one flat batch would not be.  The first step,
which scores two points per restart, and an odd last step are scored
alone, so at the defaults (40 local steps) a search makes 22 calls at
d = 1.  At d >= 2 nothing is carried, and a lookahead would score three
slices of 2 n rows to save one call, so each step is one call of 2 n
rows, 41 calls a search.

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

The search keeps each restart's bracket, position and best as Python
floats.  ``subspace_posterior`` writes the rows [1, lam] into one buffer
per search and row shape.  In ``gp.span_posterior`` the squared
distances become kernel values (``kernels.value_from_sqdist``), then
posterior variances (``gp.posterior_from_sqdist``), then UCB scores
(``ucb_search``), each in place in the array of the step before, with
the float operations of the plain expression in the same order, up to
exact rewrites (y * x for x * y, x / -c for -x / c).
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
    (..., q, d) array; the coefficient rows [1, lam] live in one buffer
    per search, reallocated only when lam's shape changes.  A search
    whose box cannot reach the cap scores without it (see the module
    docstring)."""
    A = np.array([subspace.bias.values] + [h.values for h in subspace.basis])
    l2_gram = (A @ A.T) * subspace.bias.spec.weight
    span = gp.span_posterior(model, A)
    norms = np.sqrt(np.diagonal(l2_gram)).tolist()
    bound = norms[0] + search.lambda_box * sum(norms[1:])
    uncapped = bound <= (1.0 - _CAP_MARGIN) * search.l_max  # always under l_max = inf
    a = np.ones((0, len(A)))

    def posterior(lam_batch):
        nonlocal a
        if a.shape[:-1] != lam_batch.shape[:-1]:
            a = np.ones(lam_batch.shape[:-1] + (len(A),))
        a[..., 1:] = lam_batch
        if uncapped:
            return span(a)
        sq_norms = np.einsum("...ij,...ij->...i", a @ l2_gram, a)
        return span(a, cap_scale(sq_norms, search.l_max))

    return posterior


def restart_seeds(search: AcqSearchConfig, d: int, rng) -> np.ndarray:
    """The only random draws of one coordinate search: one uniform seed
    per restart in [-box, box]^d.  Replay calls this to consume the same
    draws without running the search."""
    return rng.uniform(-search.lambda_box, search.lambda_box, size=(search.restarts, d))


def _interior(lo: list, hi: list, pos: list, upper: list) -> tuple[list, list]:
    """The interior points x1 < x2 of golden-section brackets [lo, hi],
    one bracket per restart: hi - (hi - lo) phi and lo + (hi - lo) phi,
    but a restart whose position pos is already the upper point (upper
    True) or the lower one (upper False) keeps it."""
    x1s, x2s = [], []
    for l, h, x, u in zip(lo, hi, pos, upper):
        r = (h - l) * _INVPHI
        x1s.append(x if u is False else h - r)
        x2s.append(x if u else l + r)
    return x1s, x2s


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
    lo, hi = np.empty((n, d)), np.empty((n, d))
    for j in range(d):
        order = np.argsort(seeds[:, j])
        sorted_vals = seeds[order, j]
        mids = (sorted_vals[:-1] + sorted_vals[1:]) / 2.0
        lo[order, j] = np.concatenate(([-box], mids))
        hi[order, j] = np.concatenate((mids, [box]))
    # one list per coordinate, one float per restart
    lo, hi, lam, best_lam = lo.T.tolist(), hi.T.tolist(), seeds.T.tolist(), seeds.T.tolist()
    cur = score_batch(seeds).tolist()  # each restart's score at its position
    best = cur[:]
    # at d = 1 after the first step, each position is one interior point
    # of its bracket, scored already: True if the upper one, False if not
    upper = [None] * n
    ahead = None  # this step's scores, when the call of the step before took them
    for step in range(steps):
        if settled is not None and settled(max(best)):
            break
        j = step % d
        lo_j, hi_j, lam_j = lo[j], hi[j], lam[j]
        x1s, x2s = _interior(lo_j, hi_j, lam_j, upper)
        carry = upper[0] is not None
        if ahead is not None:
            vals, later, ahead = ahead, None, None
        else:
            # coordinate j of the new rows: one per restart if carried, else
            # every restart at its first interior point, then at its second
            news = [a if u else b for a, b, u in zip(x1s, x2s, upper)] if carry else x1s + x2s
            if step + 1 < steps and carry:
                # (d = 1) the successor also scores one new point per restart:
                # the new lower point of [lo, x2], or the upper one of [x1, hi],
                # by the expressions of _interior, which the next step repeats
                rows = np.array([news, [b - (b - l) * _INVPHI for l, b in zip(lo_j, x2s)],
                                 [a + (h - a) * _INVPHI for a, h in zip(x1s, hi_j)]])
                vals, *later = score_batch(rows[..., None]).tolist()
            else:
                cols = [col * (len(news) // n) for col in lam]
                cols[j] = news
                vals, later = score_batch(np.array(cols).T.copy()).tolist(), None
        firsts = []
        for i, (x1, x2, u) in enumerate(zip(x1s, x2s, upper)):
            if u is None:
                f1, f2 = vals[i], vals[n + i]
            elif u:
                f1, f2 = vals[i], cur[i]
            else:
                f1, f2 = cur[i], vals[i]
            first = f1 > f2
            firsts.append(first)
            if first:
                hi_j[i], lam_j[i], c = x2, x1, f1
            else:
                lo_j[i], lam_j[i], c = x1, x2, f2
            cur[i] = c
            if c > best[i]:
                best[i] = c
                for col, at in zip(lam, best_lam):
                    at[i] = col[i]
        if d == 1:  # x1 is the upper point of [lo, x2], x2 the lower one of [x1, hi]
            upper = firsts
        if later:
            ahead = [a if f else b for f, a, b in zip(firsts, *later)]
    i = int(np.argmax(best))  # ties resolve to the lower restart index
    return np.array([col[i] for col in best_lam]), best[i]


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

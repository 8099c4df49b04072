"""Gaussian-process regression with incremental conditioning.

Given observations D = {(x_i, y_i)}, y_i = f(x_i) + eps, eps ~ N(0, s2),
the posterior of f ~ GP(0, K) at a query x is

    mean(x) = k(x, D) (K(D, D) + s2 I)^-1 y
    var(x)  = K(x, x) - k(x, D) (K(D, D) + s2 I)^-1 k(D, x)

A ``GPModel`` is an immutable snapshot with one candidate per
lengthscale.  Each candidate keeps W = L^-1, the inverse of the Cholesky
factor L of its regularised Gram matrix, and the whitened targets
z = W y (Rasmussen & Williams 2006, Alg. 2.1, with an explicit inverse
factor), stacked with the other candidates' in buffers of capacity
cap >= n that double when full.  The model is the candidate ``pick``
with the highest log marginal likelihood -z·z/2 + sum log W_ii -
n/2 log 2 pi; ``kernel``, ``W`` and ``z`` are that candidate's.  With
w = W k(D, x), one matrix product, the posterior mean is z·w and the
variance K(x, x) - w·w.

``condition`` writes the new point's row for every candidate in place
with a few batched products, O(C n^2), and picks again; rows below n
never change, so earlier models stay valid, and a model whose successor
already wrote row n cannot be conditioned again.

Kernels are distance-based: the GP takes functional kernels on grid
functions, or distance-based scalar kernels on coordinate vectors (used
by the line-search baseline).  A model keeps its points' metric rows
``MV`` (the rows themselves, or V G under the rkhs metric) and their
squared norms, which is all the distance expansion needs; it keeps
neither the points nor their values, only their count ``n``.

A posterior query is two steps: the squared distances from the queries
to the model's points, then ``posterior_from_sqdist``, the one step that
turns them into means and variances.  ``posterior_batch`` takes the
distances from raw query rows (N grid values per function).
``span_posterior`` takes them from coefficient rows over a few fixed
functions A, such as the bias and basis of a search subspace: the metric
Gram of A's rows and their inner products with the model's points are
computed once, after which a query costs O(d n) per row, not O(N n).

Prior sampling draws a GP(0, kappa) sample path on a grid as L z with
z ~ N(0, I) and L a Cholesky factor of the prior covariance at the grid
points.  The SE kernel is separable and the grid points are C-ordered,
so on a 2-d or 3-d grid its covariance is v G1 (x) G1 (x) ... with G1
the unit-variance gram of one axis, and L is sqrt(v) L1 (x) L1 (x) ...
(Saatci 2011): the draw applies the one n x n axis factor L1 along each
axis of z reshaped to the grid, O(N n) time per draw and O(n^2) memory
for the factor in place of O(N^2).  Every other case, any kernel on a
1-d grid and the Matern and linear kernels on any grid, factors the
dense N x N covariance.  Each factor is cached, and a factor that fails
with jitter 1e-10 v (1e-10 for an axis factor) retries with more, logged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import InputError, NumericalError, ShapeError
from .gridfn import GridFunction, GridSpec, grid_coordinates
from .kernels import FunctionalKernelSpec, ScalarKernelSpec

_LOG_2PI = float(np.log(2.0 * np.pi))
_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Observation:
    """One (point, noisy value) pair; point is a GridFunction or coordinates."""

    point: object
    y: float

    def __post_init__(self):
        if not np.isfinite(self.y):
            raise InputError(f"observation value must be finite, got {self.y}")


@dataclass(eq=False)
class GPModel:
    """GP posteriors on the same observations, one per candidate
    lengthscale; the most likely one, ``pick``, is the model.  Immutable
    snapshot: do not mutate fields after build."""

    kernel: object  # the kernel at the picked lengthscale
    noise_sq: float
    n: int  # the number of observations
    lengthscales: np.ndarray  # (C,) candidate lengthscales
    Ws: np.ndarray  # (C, cap, cap) inverse Cholesky factors L^-1, lower triangular
    zs: np.ndarray  # (C, cap) whitened targets W y
    pick: int  # the most likely candidate; ties go to the larger lengthscale
    grid: GridSpec | None
    MV: np.ndarray | None  # metric rows of the points: V, or V G under rkhs
    row_q: np.ndarray | None  # the points' squared metric norms

    @cached_property
    def W(self) -> np.ndarray:
        return self.Ws[self.pick, : self.n, : self.n]

    @cached_property
    def z(self) -> np.ndarray:
        return self.zs[self.pick, : self.n]


def _mode_of(kernel) -> str:
    if isinstance(kernel, FunctionalKernelSpec):
        return kernel.metric
    if isinstance(kernel, ScalarKernelSpec):
        if kernel.kind not in kernels.DISTANCE_KINDS:
            raise InputError(f"GP models need a distance-based kernel, got {kernel.kind!r}")
        return "coord"
    raise InputError(f"unsupported kernel spec {type(kernel).__name__}")


def _base_of(kernel) -> ScalarKernelSpec:
    return kernel.base if isinstance(kernel, FunctionalKernelSpec) else kernel


def _rep(kernel, point, grid: GridSpec | None) -> tuple[np.ndarray, GridSpec | None]:
    """Flatten a point to its 1-d representation, checking grid consistency."""
    if isinstance(kernel, FunctionalKernelSpec):
        if not isinstance(point, GridFunction):
            raise InputError("functional kernels take GridFunction points")
        if grid is not None and point.spec != grid:
            raise ShapeError(f"grid mismatch: {point.spec} vs {grid}")
        return point.values, point.spec
    x = np.atleast_1d(np.asarray(point, dtype=float))
    if x.ndim != 1:
        raise ShapeError(f"coordinate points must be 1-d, got shape {x.shape}")
    return x, None


def _metric_rows(kernel, X: np.ndarray) -> np.ndarray:
    """The metric rows M of X: X G under rkhs, X itself otherwise; the
    metric inner products of Y's rows with X's are Y @ M.T."""
    gram = getattr(kernel, "rkhs_gram", None)
    return X if gram is None else X @ gram


def _sqdist(model: GPModel, q_sq: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Squared metric distances, shape (q, n), from the queries' squared
    norms and their inner products with the model's points."""
    weight = model.grid.weight if _mode_of(model.kernel) == "l2grid" else 1.0
    r2 = (q_sq[:, None] + model.row_q[None, :] - 2.0 * cross) * weight
    return np.maximum(r2, 0.0)


def query_sqdist(model: GPModel, Q: np.ndarray) -> np.ndarray:
    """Squared metric distances from query rows to the model's points,
    shape (q, n)."""
    q_sq = np.einsum("ij,ij->i", Q, _metric_rows(model.kernel, Q))
    return _sqdist(model, q_sq, Q @ model.MV.T)


def _pick(lengthscales: np.ndarray, Ws: np.ndarray, zs: np.ndarray, n: int) -> int:
    """The candidate with the highest log marginal likelihood; ties go to
    the larger lengthscale.  Without data every candidate ties."""
    return int(np.lexsort((lengthscales, _lml(Ws[:, :n, :n], zs[:, :n])))[-1])


def empty_model(kernel, noise_sq: float, lengthscales=None) -> GPModel:
    """The prior, with one candidate per lengthscale; ``None`` keeps the
    kernel's own lengthscale as the only candidate."""
    _mode_of(kernel)  # rejects kernels the GP cannot model
    if not noise_sq > 0:
        raise InputError(f"noise variance must be positive, got {noise_sq}")
    if lengthscales is None:
        lengthscales = (_base_of(kernel).lengthscale,)
    lengthscales = np.array(lengthscales, dtype=float)
    if lengthscales.ndim != 1 or lengthscales.size == 0 or not all(
        map(kernels.has_normal_square, lengthscales)
    ):
        raise InputError("candidate lengthscales must be a non-empty list, each "
                         + kernels.NORMAL_SQUARE)
    with np.errstate(over="ignore"):  # condition rescales by ratios to earlier candidates
        ratio_sq = (np.maximum.accumulate(lengthscales) / lengthscales) ** 2
    if not np.isfinite(ratio_sq).all():
        raise InputError("no candidate lengthscale may be 1.3e154 or more times smaller "
                         "than an earlier one: their squared ratio overflows")
    C = len(lengthscales)
    Ws, zs = np.zeros((C, 0, 0)), np.zeros((C, 0))
    pick = _pick(lengthscales, Ws, zs, 0)
    return GPModel(kernel=kernel.with_lengthscale(float(lengthscales[pick])),
                   noise_sq=float(noise_sq), n=0, lengthscales=lengthscales,
                   Ws=Ws, zs=zs, pick=pick, grid=None, MV=None, row_q=None)


def condition(model: GPModel, obs: Observation) -> GPModel:
    """Append obs to every candidate at once and pick the most likely.

    With l = W k and the Schur complement s^2 = k_nn - l·l, row n of each
    W becomes [-l W / s, 1/s] and z_n = (y_n - l·z) / s, written in place;
    full buffers double.  Rows below n never change, so the given model
    stays valid.  A candidate with s^2 <= 0 is dropped and logged, and the
    survivors move to fresh buffers; NumericalError is raised when every
    candidate is dropped, InputError when a successor already wrote row n.
    """
    n, cap = model.n, model.zs.shape[1]
    if n < cap and model.Ws[0, n, n] != 0.0:  # a written row has W_nn = 1/s > 0
        raise InputError("this model was already conditioned; condition its successor")
    x, grid = _rep(model.kernel, obs.point, model.grid)
    x_row = x[None, :]
    mx = _metric_rows(model.kernel, x_row)
    q_x = np.einsum("ij,ij->i", x_row, mx)
    if n == 0:
        raw, MV, row_q = np.zeros((1, 0)), np.array(mx), q_x
    else:
        raw = _sqdist(model, q_x, x_row @ model.MV.T)
        MV, row_q = np.vstack([model.MV, mx]), np.append(model.row_q, q_x)
    # every candidate's kernel row: its lengthscale only rescales the
    # distances, always from the first candidate's
    lengthscales = model.lengthscales
    base = _base_of(model.kernel).with_lengthscale(float(lengthscales[0]))
    scale = (base.lengthscale / lengthscales) ** 2
    k_rows = kernels.value_from_sqdist(base, raw * scale[:, None])
    ell = (model.Ws[:, :n, :n] @ k_rows[:, :, None])[:, :, 0]
    s_sq = base.variance + model.noise_sq - np.einsum("ci,ci->c", ell, ell)
    keep = s_sq > 0.0
    for c in np.flatnonzero(~keep):
        _log.debug(
            "dropped lengthscale %r at n = %d: conditioning broke positive definiteness",
            float(lengthscales[c]), n + 1,
        )
    if not keep.any():
        raise NumericalError(
            "conditioning broke positive definiteness for every lengthscale; "
            "add jitter and rebuild"
        )
    W, z = model.Ws, model.zs
    if n == cap or not keep.all():
        cap = max(2 * cap, 16) if n == cap else cap
        W, z = np.zeros((keep.sum(), cap, cap)), np.zeros((keep.sum(), cap))
        W[:, :n, :n], z[:, :n] = model.Ws[keep, :n, :n], model.zs[keep, :n]
        ell, s_sq, lengthscales = ell[keep], s_sq[keep], lengthscales[keep]
    s = np.sqrt(s_sq)
    W[:, n, :n] = (ell[:, None, :] @ W[:, :n, :n])[:, 0, :] / -s[:, None]
    W[:, n, n] = 1.0 / s
    z[:, n] = (obs.y - np.einsum("ci,ci->c", ell, z[:, :n])) / s
    pick = _pick(lengthscales, W, z, n + 1)
    return replace(model, kernel=model.kernel.with_lengthscale(float(lengthscales[pick])),
                   n=n + 1, lengthscales=lengthscales, Ws=W, zs=z, pick=pick,
                   grid=model.grid if model.grid is not None else grid, MV=MV, row_q=row_q)


def posterior_from_sqdist(
    model: GPModel, raw: np.ndarray, prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of a batch of queries from their
    squared distances to the model's points, shape (q, n), and their
    prior variances.  The model holds at least one point.  With
    w = W kᵀ, one matrix product, the means are z·w and the variances
    prior - w·w, clamped at zero; every posterior query ends here."""
    k = kernels.value_from_sqdist(_base_of(model.kernel), raw)
    w = model.W @ k.T
    mean = model.z @ w
    var = prior - np.einsum("ij,ij->j", w, w)
    return mean, np.maximum(var, 0.0)


def posterior_batch(model: GPModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at a batch of raw query rows.

    Query rows are grid values for functional kernels (coefficient
    vectors under the rkhs metric) or coordinate vectors for scalar
    kernels.  Variances are clamped at zero.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    prior = np.full(Q.shape[0], _base_of(model.kernel).variance)
    if model.n == 0:
        return np.zeros(Q.shape[0]), prior
    return posterior_from_sqdist(model, query_sqdist(model, Q), prior)


def span_posterior(model: GPModel, A: np.ndarray):
    """Posterior queries at scaled combinations of the rows of A.

    Returns ``posterior(a, c)``: the posterior means and variances at the
    points c_i * (a_i @ A) for coefficient rows a (q, r) and scales c (q,).
    The metric Gram of A's rows (A Aᵀ, or A G Aᵀ under rkhs) and their
    inner products with the model's points (A Vᵀ, or A G Vᵀ) are computed
    once here, so a query costs O(q r n) and never forms a point of the
    grid's width.  Functional kernels only; A's rows lie on the model's grid.
    """
    variance = _base_of(model.kernel).variance
    if model.n == 0:
        return lambda a, c: (np.zeros(len(a)), np.full(len(a), variance))
    gram = _metric_rows(model.kernel, A) @ A.T
    proj = A @ model.MV.T

    def posterior(a, c):
        q_sq = c * c * np.einsum("ij,ij->i", a @ gram, a)
        raw = _sqdist(model, q_sq, c[:, None] * (a @ proj))
        return posterior_from_sqdist(model, raw, np.full(len(a), variance))

    return posterior


def posterior(model: GPModel, point) -> tuple[float, float]:
    """Posterior (mean, variance) at one point."""
    x, _ = _rep(model.kernel, point, model.grid)
    mean, var = posterior_batch(model, x[None, :])
    return float(mean[0]), float(var[0])


# --- prior sampling on a grid ------------------------------------------

_JITTERS = (1e-10, 1e-8, 1e-6)


@lru_cache(maxsize=32)
def _prior_chol(
    kernel: ScalarKernelSpec, spec: GridSpec, axis_of: GridSpec | None = None
) -> np.ndarray:
    """Cholesky factor of the kernel's gram on the grid, jittered as needed;
    ``axis_of`` names the grid whose per-axis factor this is, for the log."""
    gram = kernels.scalar_gram(kernel, grid_coordinates(spec))
    eye = np.eye(spec.size)
    for jitter in _JITTERS:
        try:
            L = np.linalg.cholesky(gram + jitter * kernel.variance * eye)
        except np.linalg.LinAlgError:
            continue
        if jitter != _JITTERS[0]:
            where = f"N = {spec.size}" if axis_of is None else (
                f"n = {spec.size} per axis of the {axis_of.dim}-d grid of N = {axis_of.size}"
            )
            _log.debug("prior factor of %r needed jitter %r at %s", kernel, jitter, where)
        L.setflags(write=False)
        return L
    raise NumericalError(
        f"prior covariance on the grid is not PD even with jitter {_JITTERS[-1]}"
    )


def sample_on_grid(kernel: ScalarKernelSpec, spec: GridSpec, rng) -> GridFunction:
    """Draw one GP(0, kernel) sample path on the grid (deterministic per rng)."""
    if kernel.kind == "se" and spec.dim >= 2:
        n = spec.points_per_axis
        L = _prior_chol(ScalarKernelSpec("se", kernel.lengthscale), GridSpec(1, n), spec)
        z = rng.standard_normal(spec.size)
        # each pass applies L along the leading axis and rotates that axis
        # to the back, so after dim passes the C order is restored
        for _ in range(spec.dim):
            z = (L @ z.reshape(n, -1)).T
        return GridFunction(spec, np.sqrt(kernel.variance) * z.ravel())
    L = _prior_chol(kernel, spec)
    return GridFunction(spec, L @ rng.standard_normal(spec.size))


# --- marginal likelihood ----------------------------------------------


def _lml(W: np.ndarray, z: np.ndarray):
    """Log marginal likelihoods from stacked W (..., n, n) and z (..., n)."""
    return (
        -0.5 * np.einsum("...i,...i->...", z, z)
        + np.log(np.diagonal(W, axis1=-2, axis2=-1)).sum(axis=-1)
        - 0.5 * z.shape[-1] * _LOG_2PI
    )

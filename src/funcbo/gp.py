"""Gaussian-process regression with incremental conditioning.

Given observations D = {(x_i, y_i)}, y_i = f(x_i) + eps, eps ~ N(0, s2),
the posterior of f ~ GP(0, K) at a query x is

    mean(x) = k(x, D) (K(D, D) + s2 I)^-1 y
    var(x)  = K(x, x) - k(x, D) (K(D, D) + s2 I)^-1 k(D, x)

A ``GPModel`` is an immutable value with one candidate per
lengthscale.  Each candidate keeps W = L^-1, the inverse of the Cholesky
factor L of its regularised Gram matrix, and the whitened targets
z = W y (Rasmussen & Williams 2006, Alg. 2.1, with an explicit inverse
factor), stacked with the other candidates' in buffers of capacity
cap >= n that grow by 16 rows when full, or at once to ``reserve`` rows,
the points a run knows it will hold.  The model is the candidate
``pick`` with the highest log marginal likelihood -z·z/2 + sum log W_ii -
n/2 log 2 pi; ``kernel``, ``W`` and ``z`` are that candidate's.  With
w = W k(D, x) the posterior mean is z·w = k(x, D) Wᵀz and the variance
K(x, x) - w·w; one matrix product of the kernel row with [Wᵀ | Wᵀz],
cached on the model as ``Wz``, gives both.

``condition`` writes the new point's row for every candidate in place
with a few batched products, O(C n^2), and picks again; rows below n
never change, so earlier models stay valid, and a model whose successor
already wrote row n cannot be conditioned again.

Kernels are distance-based: the GP takes functional kernels on grid
functions, or distance-based scalar kernels on coordinate vectors (only
tests condition those).  A model keeps its points' metric rows
``MV`` (the rows themselves, or V G under the rkhs metric) and their
squared norms, in buffers of the same capacity, which is all the
distance expansion needs; it keeps neither the points nor their values,
only their count ``n``.  A growth copies the buffers, so for that
moment the model holds about twice its rows; a fixed step of 16 rows,
not doubling, keeps the spare rows and that copy small, and a model
with a reserve allocates its buffers once, at its first point, and
never copies them.

A posterior query is two steps: the squared distances from the queries
to the model's points, divided by the kernel's ``sqdist_divisor``, then
``posterior_from_sqdist``, the one step that turns them into means and
variances.  ``posterior_batch`` takes the distances from raw query rows
(N grid values per function).  ``span_posterior`` takes them from
coefficient rows over a few fixed functions A, such as the bias and
basis of a search subspace: the norms of the model's points, their inner
products with A's rows and the metric Gram of A, with the grid weight
and the divisor, are folded once into one matrix P, after which a
row's distances are one product of its coefficients' pairwise products
with P, O(r^2 n) for r rows of A, not O(N n).

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

The two numerical fallbacks, a dropped candidate and a jittered prior
factor, are logged at DEBUG on the ``funcbo.gp`` logger; ``logging`` is
imported with the first such record, so a run without one never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import InputError, NumericalError, ShapeError
from .gridfn import GridFunction, GridSpec, grid_coordinates
from .kernels import FunctionalKernelSpec, ScalarKernelSpec

_LOG_2PI = float(np.log(2.0 * np.pi))
_GROWTH = 16  # rows a full model's buffers grow by


def _log_fallback(msg: str, *args) -> None:
    """Log a numerical fallback at DEBUG; ``logging`` loads with the first."""
    import logging

    logging.getLogger(__name__).debug(msg, *args)


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
    lengthscale; the most likely one, ``pick``, is the model.  Immutable:
    do not mutate fields after build."""

    kernel: object  # the kernel at the picked lengthscale
    noise_sq: float
    n: int  # the number of observations
    lengthscales: np.ndarray  # (C,) candidate lengthscales
    Ws: np.ndarray  # (C, cap, cap) inverse Cholesky factors L^-1, lower triangular
    zs: np.ndarray  # (C, cap) whitened targets W y
    pick: int  # the most likely candidate; ties go to the larger lengthscale
    grid: GridSpec | None
    MVs: np.ndarray | None  # (cap, width) metric rows of the points: V, or V G under rkhs
    row_qs: np.ndarray | None  # (cap,) the points' squared metric norms
    reserve: int = 0  # rows the first buffers get: the points the model will hold

    @cached_property
    def W(self) -> np.ndarray:
        return self.Ws[self.pick, : self.n, : self.n]

    @cached_property
    def z(self) -> np.ndarray:
        return self.zs[self.pick, : self.n]

    @cached_property
    def Wz(self) -> np.ndarray:
        """(n, n + 1): [Wᵀ | Wᵀz], the posterior's one matrix per query, in
        C order, which BLAS multiplies faster than the transposed W."""
        Wz = np.empty((self.n, self.n + 1))
        Wz[:, :-1] = self.W.T
        Wz[:, -1] = self.z @ self.W
        return Wz

    @cached_property
    def MV(self) -> np.ndarray | None:
        return None if self.MVs is None else self.MVs[: self.n]

    @cached_property
    def row_q(self) -> np.ndarray | None:
        return None if self.row_qs is None else self.row_qs[: self.n]


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


def _weight(model: GPModel) -> float:
    """The factor of the model's squared metric distances: the grid's cell
    weight under l2grid, 1 otherwise."""
    return model.grid.weight if _mode_of(model.kernel) == "l2grid" else 1.0


def _sqdist(q_sq: np.ndarray, row_q: np.ndarray, cross: np.ndarray, weight: float) -> np.ndarray:
    """Squared metric distances ((q_sq_i + row_q_k) - 2 cross_ik) weight,
    shape (..., q, n), from the queries' squared norms, the points' squared
    norms and their inner products.  Takes cross over as scratch space.
    Rounding can leave a distance slightly below zero; the kernel clamps
    it."""
    cross *= 2.0
    r2 = np.add.outer(q_sq, row_q)
    r2 -= cross
    r2 *= weight
    return r2


def query_sqdist(model: GPModel, Q: np.ndarray) -> np.ndarray:
    """Squared metric distances from query rows (..., q, width) to the
    model's points, shape (..., q, n), unclamped (see ``_sqdist``)."""
    q_sq = np.einsum("...ij,...ij->...i", Q, _metric_rows(model.kernel, Q))
    return _sqdist(q_sq, model.row_q, Q @ model.MV.T, _weight(model))


def _pick(lengthscales: np.ndarray, Ws: np.ndarray, zs: np.ndarray, n: int) -> int:
    """The candidate with the highest log marginal likelihood; ties go to
    the larger lengthscale.  Without data every candidate ties."""
    return int(np.lexsort((lengthscales, _lml(Ws[:, :n, :n], zs[:, :n])))[-1])


def empty_model(kernel, noise_sq: float, lengthscales=None, reserve: int = 0) -> GPModel:
    """The prior, with one candidate per lengthscale; ``None`` keeps the
    kernel's own lengthscale as the only candidate.  Its first point
    allocates buffers of ``reserve`` rows (at least 16)."""
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
                   Ws=Ws, zs=zs, pick=pick, grid=None, MVs=None, row_qs=None,
                   reserve=reserve)


def condition(model: GPModel, obs: Observation) -> GPModel:
    """Append obs to every candidate at once and pick the most likely.

    With l = W k and the Schur complement s^2 = k_nn - l·l, row n of each
    W becomes [-l W / s, 1/s] and z_n = (y_n - l·z) / s, written in place
    with the point's metric row; full buffers grow by 16 rows, or to the
    model's reserve if that is more.  Rows below n never change, so the
    given model stays valid.  A candidate with s^2 <= 0 is dropped and
    logged, and the survivors move to fresh buffers of the same capacity;
    NumericalError is raised when every candidate is dropped, InputError
    when a successor already wrote row n.
    """
    n, cap = model.n, model.zs.shape[1]
    if n < cap and model.Ws[0, n, n] != 0.0:  # a written row has W_nn = 1/s > 0
        raise InputError("this model was already conditioned; condition its successor")
    x, grid = _rep(model.kernel, obs.point, model.grid)
    x_row = x[None, :]
    mx = _metric_rows(model.kernel, x_row)
    q_x = np.einsum("ij,ij->i", x_row, mx)
    if n == 0:
        raw = np.zeros((1, 0))
    else:
        raw = _sqdist(q_x, model.row_q, x_row @ model.MV.T, _weight(model))
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
        _log_fallback(
            "dropped lengthscale %r at n = %d: conditioning broke positive definiteness",
            float(lengthscales[c]), n + 1,
        )
    if not keep.any():
        raise NumericalError(
            "conditioning broke positive definiteness for every lengthscale; "
            "add jitter and rebuild"
        )
    W, z, MVs, row_qs = model.Ws, model.zs, model.MVs, model.row_qs
    if n == cap or not keep.all():
        cap = max(cap + _GROWTH, model.reserve) if n == cap else cap
        W, z = np.zeros((keep.sum(), cap, cap)), np.zeros((keep.sum(), cap))
        MVs, row_qs = np.zeros((cap, mx.shape[1])), np.zeros(cap)
        # a slice is a view; a mask would copy every candidate's rows once more
        kept = slice(None) if keep.all() else keep
        W[:, :n, :n], z[:, :n] = model.Ws[kept, :n, :n], model.zs[kept, :n]
        if n:
            MVs[:n], row_qs[:n] = model.MV, model.row_q
        ell, s_sq, lengthscales = ell[keep], s_sq[keep], lengthscales[keep]
    MVs[n], row_qs[n] = mx[0], q_x[0]
    s = np.sqrt(s_sq)
    W[:, n, :n] = (ell[:, None, :] @ W[:, :n, :n])[:, 0, :] / -s[:, None]
    W[:, n, n] = 1.0 / s
    z[:, n] = (obs.y - np.einsum("ci,ci->c", ell, z[:, :n])) / s
    pick = _pick(lengthscales, W, z, n + 1)
    return replace(model, kernel=model.kernel.with_lengthscale(float(lengthscales[pick])),
                   n=n + 1, lengthscales=lengthscales, Ws=W, zs=z, pick=pick,
                   grid=model.grid if model.grid is not None else grid, MVs=MVs, row_qs=row_qs)


def posterior_from_sqdist(
    model: GPModel, x: np.ndarray, prior
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of a batch of queries from their
    squared distances to the model's points divided by the kernel's
    ``kernels.sqdist_divisor``, shape (..., q, n), and their prior
    variances (an array, or one scalar for all).  The model holds at least
    one point.  The kernel values k overwrite x; one matrix product per
    (q, n) slice with the model's [Wᵀ | Wᵀz] gives the rows of w = W kᵀ
    and the means z·w, and the variances are prior - w·w, clamped at
    zero.  Every posterior query ends here.  Leading axes change no row's
    bits: numpy runs one BLAS call per slice, with the shapes of a call on
    that slice alone."""
    k = kernels.value_from_scaled(_base_of(model.kernel), x)
    wm = k @ model.Wz
    w = wm[..., :-1]
    var = np.einsum("...ij,...ij->...i", w, w)
    np.subtract(prior, var, out=var)
    return wm[..., -1], np.maximum(var, 0.0, out=var)


def posterior_batch(model: GPModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at a batch of raw query rows,
    shape (..., q, width), as arrays of shape (..., q).

    Query rows are grid values for functional kernels (coefficient
    vectors under the rkhs metric) or coordinate vectors for scalar
    kernels.  Variances are clamped at zero.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    base = _base_of(model.kernel)
    if model.n == 0:
        return np.zeros(Q.shape[:-1]), np.full(Q.shape[:-1], base.variance)
    x = query_sqdist(model, Q)
    x /= kernels.sqdist_divisor(base)
    return posterior_from_sqdist(model, x, base.variance)


def span_posterior(model: GPModel, A: np.ndarray):
    """Posterior queries at combinations of the rows of A.

    Returns ``posterior(e)``: the posterior means and variances at the
    points b_i @ A for rows e_i = [1, b_i], shape (..., q, r + 1) for the
    r rows of A.  Under the metric, the squared distance from b @ A to a
    model point v is |v|^2 - 2 b·(A v) + b (A Aᵀ) bᵀ = (e ⊗ e)·P_v, with
    P_v the (r + 1) x (r + 1) matrix [[|v|^2, -(A v)ᵀ], [-A v, A Aᵀ]].
    P stacks every point's P_v, flattened, times the grid weight over the
    kernel's ``sqdist_divisor``, once here; a query is then one
    (..., q, (r + 1)^2) by ((r + 1)^2, n) product and never forms a point
    of the grid's width.  Functional kernels only; A's rows lie on the
    model's grid.
    """
    base = _base_of(model.kernel)
    if model.n == 0:
        return lambda e: (np.zeros(e.shape[:-1]), np.full(e.shape[:-1], base.variance))
    r = len(A)
    terms = np.empty((r + 1, r + 1, model.n))
    terms[0, 0] = model.row_q
    terms[0, 1:] = terms[1:, 0] = -(A @ model.MV.T)
    terms[1:, 1:] = (_metric_rows(model.kernel, A) @ A.T)[:, :, None]
    P = terms.reshape(-1, model.n)
    P *= _weight(model) / kernels.sqdist_divisor(base)

    ee = np.empty((0, r + 1, r + 1))  # e's pairwise products, one buffer per row shape

    def posterior(e):
        nonlocal ee
        if ee.shape[:-2] != e.shape[:-1]:
            ee = np.empty(e.shape + (r + 1,))
        np.multiply(e[..., :, None], e[..., None, :], out=ee)
        return posterior_from_sqdist(model, ee.reshape(e.shape[:-1] + (-1,)) @ P, base.variance)

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
            _log_fallback("prior factor of %r needed jitter %r at %s", kernel, jitter, where)
        L.setflags(write=False)
        return L
    raise NumericalError(
        f"prior covariance on the grid is not PD even with jitter {_JITTERS[-1]}"
    )


def prior_per_axis(kind: str, dim: int) -> bool:
    """Whether the prior is factored per axis: SE on a 2-d or 3-d grid."""
    return kind == "se" and dim >= 2


def sample_on_grid(kernel: ScalarKernelSpec, spec: GridSpec, rng) -> GridFunction:
    """Draw one GP(0, kernel) sample path on the grid (deterministic per rng)."""
    if prior_per_axis(kernel.kind, spec.dim):
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

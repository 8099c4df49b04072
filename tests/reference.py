"""Reference implementations that only the tests use.

Brute-force kernel evaluation (one pair at a time) and the biased-prior
identity that validates chaining a model across subspaces; the library's
fast paths are checked against these.  ``rebuild_model`` builds a GP
model from scratch on a whole dataset with one dense Cholesky factor,
and ``log_marginal_likelihood`` reads a model's evidence; the library's
incremental ``gp.condition`` is checked against them.  ``inverse_factor``
reads the picked candidate's W and z out of a model's buffers.
``tune_lengthscale`` drives the library's candidate chain on a dataset,
and ``candidates`` splits a model into one model per lengthscale, so
that tests can check them against models rebuilt from scratch.  The
grid-function helpers ``zeros``, ``constant``, ``from_callable``,
``linear_combine``, ``l2_norm`` and ``rkhs_dist_sq`` build and measure
test functions, and ``write_function_csv`` and ``read_function_csv``
write and read one the plain way, row by row.  ``read_trace_csv`` reads
a trace CSV of
``bench.run_bench`` back.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from funcbo import gp, gridfn
from funcbo.errors import InputError, NumericalError, ShapeError
from funcbo.gridfn import GridFunction, GridSpec, grid_coordinates
from funcbo.kernels import FunctionalKernelSpec, ScalarKernelSpec, scalar_gram, value_from_sqdist


# --- grid functions ------------------------------------------------------


def zeros(spec: GridSpec) -> GridFunction:
    return GridFunction(spec, np.zeros(spec.size))


def constant(spec: GridSpec, value: float) -> GridFunction:
    return GridFunction(spec, np.full(spec.size, float(value)))


def from_callable(spec: GridSpec, fn) -> GridFunction:
    """Sample fn at the grid points; fn takes an (N, dim) coordinate array."""
    return GridFunction(spec, np.asarray(fn(grid_coordinates(spec)), dtype=float))


def linear_combine(
    bias: GridFunction, basis: list[GridFunction], lam: np.ndarray
) -> GridFunction:
    """Return bias + sum_j lam[j] * basis[j]."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(basis),):
        raise ShapeError(f"{len(basis)} basis functions but {lam.shape} coordinates")
    if not np.all(np.isfinite(lam)):
        raise InputError("coordinates must be finite")
    out = bias.values.copy()
    for coeff, h in zip(lam, basis):
        gridfn._check_same_spec(bias, h)
        out += coeff * h.values
    return GridFunction(bias.spec, out)


def l2_norm(g: GridFunction) -> float:
    return float(np.sqrt(np.dot(g.values, g.values) * g.spec.weight))


def rkhs_dist_sq(
    alpha: np.ndarray, alpha_prime: np.ndarray, gram: np.ndarray
) -> float:
    """Squared RKHS distance (a - a')^T G (a - a') between coefficient vectors."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(alpha_prime, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"coefficient shape mismatch: {a.shape} vs {b.shape}")
    if gram.shape != (a.size, a.size):
        raise ShapeError(f"gram shape {gram.shape} does not match {a.size} coefficients")
    d = a - b
    return max(float(d @ gram @ d), 0.0)


def write_function_csv(g: GridFunction, path) -> None:
    """The per-row writer: the bytes that ``gridfn.write_function_csv`` must write."""
    coords = grid_coordinates(g.spec)
    header = ",".join(f"x{k}" for k in range(g.spec.dim)) + ",value"
    lines = [header]
    for row, val in zip(coords, g.values):
        lines.append(",".join(repr(float(c)) for c in row) + "," + repr(float(val)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_function_csv(path) -> GridFunction:
    """The per-row reader: the values and errors of ``gridfn.read_function_csv``."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise InputError(f"empty function file: {path}")
    header = lines[0].split(",")
    dim = len(header) - 1
    if dim < 1 or header[-1] != "value" or any(h != f"x{k}" for k, h in enumerate(header[:-1])):
        raise InputError(f"bad function CSV header: {lines[0]!r}")
    n = len(lines) - 1
    rho = round(n ** (1.0 / dim))
    if rho**dim != n:
        raise InputError(f"{n} rows is not a full {dim}-d grid")
    spec = GridSpec(dim, rho)
    table = np.empty((n, dim + 1))
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise InputError(f"bad row {i} in function CSV: {line!r}")
        try:
            table[i] = [float(p) for p in parts]
        except ValueError:
            raise InputError(f"row {i} of the function CSV is not numeric: {line!r}") from None
    off_grid = ~np.isclose(table[:, :-1], grid_coordinates(spec), atol=1e-9).all(axis=1)
    if off_grid.any():
        i = int(np.argmax(off_grid))
        raise InputError(f"row {i} coordinates do not match the cell-center grid")
    return GridFunction(spec, table[:, -1])


# --- kernels and GP models -------------------------------------------------


def scalar_eval(spec: ScalarKernelSpec, x, y) -> float:
    """kappa(x, y) for points in [0,1]^m."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ShapeError(f"point shape mismatch: {x.shape} vs {y.shape}")
    if spec.kind == "linear":
        return float(spec.variance * np.dot(x, y))
    d = x - y
    return float(value_from_sqdist(spec, np.dot(d, d)))


def functional_eval(spec: FunctionalKernelSpec, g: GridFunction, h: GridFunction) -> float:
    """K(g, h) with the squared distance taken under the configured metric."""
    if spec.metric == "l2grid":
        r_sq = gridfn.l2_dist_sq(g, h)
    else:
        # values are read as coefficient vectors of the basis prior's gram
        if g.spec != h.spec:
            raise ShapeError(f"grid mismatch: {g.spec} vs {h.spec}")
        gram = scalar_gram(spec.prior, grid_coordinates(g.spec))
        r_sq = rkhs_dist_sq(g.values, h.values, gram)
    return float(value_from_sqdist(spec.base, r_sq))


def gram_matrix(spec, points) -> np.ndarray:
    """Pairwise covariance matrix; upper triangle evaluated, mirrored down."""
    points = list(points)
    if not points:
        raise InputError("gram_matrix needs at least one point")
    evaluate = functional_eval if isinstance(spec, FunctionalKernelSpec) else scalar_eval
    n = len(points)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = evaluate(spec, points[i], points[j])
            m[j, i] = m[i, j]
    return m


def rebuild_model(kernel, noise_sq: float, observations) -> gp.GPModel:
    """Build a model from scratch on a non-empty dataset of (point, y)
    pairs, at the kernel's own lengthscale: one Cholesky factor L of the
    regularised Gram matrix, then W = L^-1 and z = W y by a triangular
    solve."""
    points, y = zip(*observations)
    grid = points[0].spec
    if any(p.spec != grid for p in points):
        raise ShapeError("observations on different grids")
    V = np.array([p.values for p in points])
    MV = gp._metric_rows(kernel, grid, V)
    q = np.einsum("ij,ij->i", V, MV)
    y = np.array(y)
    model = replace(gp.empty_model(kernel, noise_sq, grid), n=len(y), MVs=MV, row_qs=q)
    raw = gp._sqdist(q, q, V @ MV.T, grid.weight if kernel.metric == "l2grid" else 1.0)
    np.fill_diagonal(raw, 0.0)  # the expansion leaves rounding residue here
    k = value_from_sqdist(kernel.base, raw)
    k = (k + k.T) / 2.0
    k[np.diag_indices_from(k)] += noise_sq
    try:
        L = np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Cholesky of the regularised Gram matrix failed") from exc
    Wz = solve_triangular(L, np.column_stack((np.eye(len(y)), y)), lower=True)
    return replace(model, Ws=Wz[None, :, :-1], zs=Wz[None, :, -1])


def inverse_factor(model: gp.GPModel) -> tuple[np.ndarray, np.ndarray]:
    """(W, z) of the model's picked candidate: its inverse Cholesky factor
    L^-1 and its whitened targets W y, views of the model's buffers."""
    return model.Ws[model.pick, : model.n, : model.n], model.zs[model.pick, : model.n]


def log_marginal_likelihood(model: gp.GPModel) -> float:
    """log p(y) of the model's picked candidate, -z·z/2 + sum log W_ii -
    n/2 log 2 pi."""
    if model.n == 0:
        raise InputError("log marginal likelihood needs at least one observation")
    return float(gp._lml(*inverse_factor(model)))


def tune_lengthscale(observations, template, candidates, noise_sq: float):
    """The kernel the engines' candidate chain selects: one model per
    candidate lengthscale, each conditioned on the (point, y) pairs in
    turn, then the most likely one's spec."""
    observations = list(observations)
    if not observations:
        raise InputError("lengthscale tuning needs data")
    if len(candidates) == 0:
        raise InputError("no candidate lengthscales")
    model = gp.empty_model(template, noise_sq, observations[0][0].spec, candidates)
    for point, y in observations:
        model = gp.condition(model, point, y)
    return model.kernel


def candidates(model):
    """One model per candidate lengthscale of a GP model, each picking its
    own candidate."""
    return [
        replace(model, pick=c, kernel=model.kernel.with_lengthscale(float(g)))
        for c, g in enumerate(model.lengthscales)
    ]


def _cross_gram(kernel, pts_a, pts_b) -> np.ndarray:
    evaluate = functional_eval if isinstance(kernel, FunctionalKernelSpec) else scalar_eval
    return np.array([[evaluate(kernel, a, b) for b in pts_b] for a in pts_a])


def biased_posterior_equivalence_check(
    kernel, noise_sq: float, obs_prev, obs_new, probes, tol: float = 1e-6
) -> bool:
    """Check that conditioning on all data at once equals conditioning a
    prior already biased by the earlier data on the new data only.

    Side one is the plain posterior given obs_prev + obs_new.  Side two
    treats the posterior given obs_prev as a new (non-zero-mean) prior
    and conditions it on obs_new.  Returns True when posterior mean and
    variance agree at every probe within tol.
    """
    obs_prev, obs_new, probes = list(obs_prev), list(obs_new), list(probes)
    joint = rebuild_model(kernel, noise_sq, obs_prev + obs_new)
    mean1 = np.array([gp.posterior(joint, p)[0] for p in probes])
    var1 = np.array([gp.posterior(joint, p)[1] for p in probes])

    if not obs_prev:
        prior_mean_new = np.zeros(len(obs_new))
        prior_mean_q = np.zeros(len(probes))

        def post_cov(pa, pb):
            return _cross_gram(kernel, pa, pb)

    else:
        pts_prev = [p for p, _ in obs_prev]
        y_prev = np.array([v for _, v in obs_prev])
        k_pp = _cross_gram(kernel, pts_prev, pts_prev)
        k_pp[np.diag_indices_from(k_pp)] += noise_sq
        k_pp_inv = np.linalg.inv(k_pp)

        def prior_mean(pts):
            return _cross_gram(kernel, pts, pts_prev) @ k_pp_inv @ y_prev

        def post_cov(pa, pb):
            kab = _cross_gram(kernel, pa, pb)
            ka = _cross_gram(kernel, pa, pts_prev)
            kb = _cross_gram(kernel, pb, pts_prev)
            return kab - ka @ k_pp_inv @ kb.T

        pts_new = [p for p, _ in obs_new]
        prior_mean_new = prior_mean(pts_new)
        prior_mean_q = prior_mean(probes)

    pts_new = [p for p, _ in obs_new]
    y_new = np.array([v for _, v in obs_new])
    c_nn = post_cov(pts_new, pts_new)
    c_nn[np.diag_indices_from(c_nn)] += noise_sq
    c_qn = post_cov(probes, pts_new)
    w = np.linalg.solve(c_nn, y_new - prior_mean_new)
    mean2 = prior_mean_q + c_qn @ w
    var2 = np.array(
        [post_cov([p], [p])[0, 0] for p in probes]
    ) - np.einsum("ij,ij->i", c_qn, np.linalg.solve(c_nn, c_qn.T).T)

    return bool(
        np.max(np.abs(mean1 - mean2)) <= tol and np.max(np.abs(var1 - var2)) <= tol
    )


def read_trace_csv(path) -> list[dict]:
    """Rows of a trace CSV written by ``bench.run_bench``, as dicts (the CSV
    carries no coordinates and no aux structure beyond its columns)."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise InputError(f"bad trace row: {line!r}")
        row = dict(zip(header, parts))
        for key in ("eval_index", "s", "t"):
            row[key] = int(row[key])
        for key in header[3:]:
            row[key] = float(row[key])
        rows.append(row)
    return rows


# --- the acquisition search, one fresh array per step -----------------------
# The coordinate search as plain array expressions, from the UCB score down
# to the kernel values, with one posterior call of 2-d rows per local step:
# the oracle that the library's search (``acquisition.ucb_search`` on
# ``acquisition.subspace_posterior`` or on ``gp.posterior_batch``), which
# scores two steps per call in place, must match bit for bit, draws
# included.  A query's squared distances come divided by the kernel's
# divisor (-2 gamma^2 for se, 1 for Matern), and its posterior from one
# product with [Wᵀ | Wᵀz].

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT3 = np.sqrt(3.0)


def _divisor(base: ScalarKernelSpec) -> float:
    return -2.0 * base.lengthscale * base.lengthscale if base.kind == "se" else 1.0


def kernel_values(base: ScalarKernelSpec, x) -> np.ndarray:
    """The kernel at squared distances divided by ``_divisor``."""
    x = np.asarray(x, dtype=float)
    if base.kind == "se":
        return base.variance * np.exp(np.minimum(x, 0.0))
    r = np.sqrt(np.maximum(x, 0.0))
    g = base.lengthscale
    if base.kind == "matern12":
        return base.variance * np.exp(-r / g)
    a = _SQRT3 * r / g
    return base.variance * (1.0 + a) * np.exp(-a)


def _posterior_from_sqdist(model, x, prior):
    k = kernel_values(model.kernel.base, x)
    W, z = inverse_factor(model)
    wm = k @ np.ascontiguousarray(np.column_stack((W.T, z @ W)))
    w = wm[:, :-1]
    var = prior - np.einsum("ij,ij->i", w, w)
    return wm[:, -1], np.maximum(var, 0.0)


def posterior_batch(model, Q):
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    base = model.kernel.base
    prior = np.full(Q.shape[0], base.variance)
    if model.n == 0:
        return np.zeros(Q.shape[0]), prior
    weight = model.grid.weight if model.kernel.metric == "l2grid" else 1.0
    q_sq = np.einsum("ij,ij->i", Q, gp._metric_rows(model.kernel, model.grid, Q))
    r2 = (q_sq[:, None] + model.row_q[None, :] - 2.0 * (Q @ model.MV.T)) * weight
    return _posterior_from_sqdist(model, r2 / _divisor(base), prior)


def span_posterior(model, A):
    """posterior(e) at the points e[:, 1:] @ A, for rows e with e[:, 0] = 1:
    the squared distances are (e ⊗ e) @ P, P the terms of every point."""
    base = model.kernel.base
    if model.n == 0:
        return lambda e: (np.zeros(len(e)), np.full(len(e), base.variance))
    r, n = len(A), model.n
    weight = model.grid.weight if model.kernel.metric == "l2grid" else 1.0
    proj = A @ model.MV.T
    terms = np.zeros((r + 1, r + 1, n))
    terms[0, 0] = model.row_q
    terms[0, 1:] = -proj
    terms[1:, 0] = -proj
    terms[1:, 1:] = (gp._metric_rows(model.kernel, model.grid, A) @ A.T)[:, :, None]
    P = terms.reshape(-1, n) * (weight / _divisor(base))

    def posterior(e):
        ee = np.einsum("qi,qj->qij", e, e).reshape(len(e), -1)
        return _posterior_from_sqdist(model, ee @ P, np.full(len(e), base.variance))

    return posterior


def cap_scale(sq_norms, l_max):
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    scale = np.ones_like(norms)
    over = norms > l_max
    scale[over] = l_max / norms[over]
    return scale


def subspace_posterior(model, subspace, search):
    A = subspace.A
    l2_gram = (A @ A.T) * subspace.grid.weight
    span = span_posterior(model, A)

    def posterior(lam_batch):
        lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
        ones = np.ones((lam_batch.shape[0], 1))
        a = np.hstack([ones, lam_batch])
        sq_norms = np.einsum("ij,ij->i", a @ l2_gram, a)
        return span(np.hstack([ones, cap_scale(sq_norms, search.l_max)[:, None] * a]))

    return posterior


def _brackets(seeds, box):
    """Each restart's bracket per coordinate: the segment of the box
    closest to its seed, cut at the midpoints between sorted seeds."""
    lo, hi = np.empty(seeds.shape), np.empty(seeds.shape)
    for j in range(seeds.shape[1]):
        order = np.argsort(seeds[:, j])
        sorted_vals = seeds[order, j]
        mids = (sorted_vals[:-1] + sorted_vals[1:]) / 2.0
        lo[order, j] = np.concatenate(([-box], mids))
        hi[order, j] = np.concatenate((mids, [box]))
    return lo, hi


def golden_multistart(score_batch, d, search, rng):
    """The textbook golden-section search, one coordinate per step
    (round-robin), in lockstep over the restarts.  A first visit to a
    coordinate scores both interior points of its bracket; after it, each
    restart's position on that coordinate is one interior point of its
    bracket, scored (``cur``) at the last step, whichever coordinate that
    step moved, and each later visit scores only the other point."""
    box = search.lambda_box
    n = search.restarts
    seeds = rng.uniform(-box, box, size=(n, d))
    lam = seeds.copy()
    best_lam = seeds.copy()
    cur = np.asarray(score_batch(lam), dtype=float).copy()
    best_val = cur.copy()
    lo, hi = _brackets(seeds, box)
    upper = np.zeros((n, d), dtype=bool)  # whether a position is its bracket's upper point
    for step in range(search.local_steps):
        j = step % d
        span = hi[:, j] - lo[:, j]
        x1 = hi[:, j] - _INVPHI * span
        x2 = lo[:, j] + _INVPHI * span
        if step < d:
            cand = np.vstack([lam, lam])
            cand[:n, j] = x1
            cand[n:, j] = x2
            vals = np.asarray(score_batch(cand), dtype=float)
            f1, f2 = vals[:n], vals[n:]
        else:
            up = upper[:, j]
            x1 = np.where(up, x1, lam[:, j])
            x2 = np.where(up, lam[:, j], x2)
            cand = lam.copy()
            cand[:, j] = np.where(up, x1, x2)
            vals = np.asarray(score_batch(cand), dtype=float)
            f1 = np.where(up, vals, cur)
            f2 = np.where(up, cur, vals)
        first_better = f1 > f2
        hi[first_better, j] = x2[first_better]
        lo[~first_better, j] = x1[~first_better]
        lam[:, j] = np.where(first_better, x1, x2)
        cur = np.where(first_better, f1, f2)
        improved = cur > best_val
        best_val[improved] = cur[improved]
        best_lam[improved] = lam[improved]
        # x1 is the upper point of [lo, x2], x2 the lower one of [x1, hi]
        upper[:, j] = first_better
    i = int(np.argmax(best_val))
    return best_lam[i].copy(), float(best_val[i])


def two_point_golden_multistart(score_batch, d, search, rng):
    """The search that scores both interior points at every step, also at
    d = 1: it evaluates the textbook search's points up to rounding, and
    returns its value to within about 1e-11."""
    box = search.lambda_box
    n = search.restarts
    seeds = rng.uniform(-box, box, size=(n, d))
    lam = seeds.copy()
    best_lam = seeds.copy()
    best_val = np.asarray(score_batch(lam), dtype=float).copy()
    lo, hi = _brackets(seeds, box)
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
    i = int(np.argmax(best_val))
    return best_lam[i].copy(), float(best_val[i])


def ucb_search(posterior, d, search, rng, sqrt_beta, maximise=golden_multistart):
    def score(lam_batch):
        mean, var = posterior(lam_batch)
        return mean + sqrt_beta * np.sqrt(var)

    return maximise(score, d, search, rng)

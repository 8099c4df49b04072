import functools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_1D, random_grid_function, short_grid_function
from funcbo import gp, kernels
from funcbo.errors import InputError, NumericalError
from funcbo.gp import (
    condition,
    empty_model,
    posterior,
    posterior_batch,
    sample_on_grid,
)
from funcbo.gridfn import GridFunction, GridSpec, grid_coordinates, l2_dist_sq
from funcbo.kernels import FunctionalKernelSpec, ScalarKernelSpec, scalar_gram
from reference import (
    biased_posterior_equivalence_check,
    candidates,
    functional_eval,
    inverse_factor,
    log_marginal_likelihood,
    rebuild_model,
    tune_lengthscale,
)

SE_L2 = FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "l2grid")
_RKHS_PRIOR = ScalarKernelSpec("se", 0.3)  # the basis prior whose gram is the rkhs metric


def _l2(kind, lengthscale, variance=1.0):
    return FunctionalKernelSpec(ScalarKernelSpec(kind, lengthscale, variance), "l2grid")


def _functional_dataset(rng, n, kernel=SE_L2, noise=0.05):
    points = [random_grid_function(rng) for _ in range(n)]
    y = rng.standard_normal(n)
    return [(p, float(v)) for p, v in zip(points, y)]


def _dense_posterior(kernel, noise_sq, observations, query):
    """Straight dense-inverse implementation of the posterior equations."""
    pts = [p for p, _ in observations]
    y = np.array([v for _, v in observations])
    n = len(pts)
    K = np.array(
        [[functional_eval(kernel, pts[i], pts[j]) for j in range(n)] for i in range(n)]
    )
    k = np.array([functional_eval(kernel, query, p) for p in pts])
    inv = np.linalg.inv(K + noise_sq * np.eye(n))
    mean = k @ inv @ y
    var = functional_eval(kernel, query, query) - k @ inv @ k
    return float(mean), float(var)


def test_posterior_single_observation_closed_form():
    rng = np.random.default_rng(1)
    g0 = random_grid_function(rng)
    model = rebuild_model(SE_L2, 0.01, [(g0, 2.0)])
    mean, var = posterior(model, g0)
    # hand-computed 1x1 inverse: y*K/(K+s2), K - K^2/(K+s2) with K=1, s2=0.01
    assert mean == pytest.approx(1.9801980198019802, abs=1e-12)
    assert var == pytest.approx(0.00990099009900991, abs=1e-12)


@pytest.mark.parametrize("metric", ["l2grid", "rkhs"])
def test_posterior_matches_dense_oracle(metric):
    rng = np.random.default_rng(2)
    if metric == "rkhs":
        kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 2.0), metric, _RKHS_PRIOR)
    else:
        kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 0.8), metric)
    obs = _functional_dataset(rng, 6, kernel)
    model = rebuild_model(kernel, 0.04, obs)
    for _ in range(5):
        q = random_grid_function(rng)
        mean, var = posterior(model, q)
        mean_o, var_o = _dense_posterior(kernel, 0.04, obs, q)
        assert mean == pytest.approx(mean_o, abs=1e-8)
        assert var == pytest.approx(var_o, abs=1e-8)


def test_condition_on_empty_equals_rebuild():
    rng = np.random.default_rng(3)
    o = (random_grid_function(rng), 1.3)
    inc = condition(empty_model(SE_L2, 0.01, GRID_1D), *o)
    reb = rebuild_model(SE_L2, 0.01, [o])
    q = random_grid_function(rng)
    assert posterior(inc, q) == pytest.approx(posterior(reb, q), abs=1e-12)


def test_condition_chain_equals_rebuild():
    rng = np.random.default_rng(4)
    obs = _functional_dataset(rng, 30)
    model = empty_model(SE_L2, 0.01, GRID_1D)
    for o in obs:
        model = condition(model, *o)
    reb = rebuild_model(SE_L2, 0.01, obs)
    for _ in range(10):
        q = random_grid_function(rng)
        m1, v1 = posterior(model, q)
        m2, v2 = posterior(reb, q)
        assert m1 == pytest.approx(m2, abs=1e-8)
        assert v1 == pytest.approx(v2, abs=1e-8)


def test_condition_leaves_original_untouched():
    rng = np.random.default_rng(5)
    base = rebuild_model(SE_L2, 0.01, _functional_dataset(rng, 3))
    n_before = base.n
    q = random_grid_function(rng)
    before = posterior(base, q)
    condition(base, random_grid_function(rng), 0.5)
    assert base.n == n_before
    assert posterior(base, q) == before


def test_condition_duplicate_point_moves_mean_little():
    rng = np.random.default_rng(6)
    g0 = random_grid_function(rng)
    noise_sq = 0.01
    model = rebuild_model(SE_L2, noise_sq, [(g0, 2.0)])
    before, _ = posterior(model, g0)
    model2 = condition(model, g0, 2.0)
    after, _ = posterior(model2, g0)
    assert abs(after - before) < 2 * noise_sq * 2.0
    # and the chain still matches a rebuild
    reb = rebuild_model(SE_L2, noise_sq, [(g0, 2.0), (g0, 2.0)])
    assert after == pytest.approx(posterior(reb, g0)[0], abs=1e-10)


def test_condition_breakdown_raises():
    # at lengthscale 1e6 the kernel between the two nearby one-point
    # functions rounds to 1, and the noise is below float resolution of the
    # kernel diagonal, so the Schur complement cancels to exactly zero
    model = rebuild_model(_l2("se", 1e6), 1e-20, [(short_grid_function(0.0), 1.0)])
    with pytest.raises(NumericalError):
        condition(model, short_grid_function(1e-3), 1.0)


@pytest.mark.blas_threads
def test_condition_drops_broken_candidate_and_logs(caplog):
    # at lengthscale 1e6 the kernel between the two nearby one-point
    # functions rounds to 1, so with noise below float resolution the Schur
    # complement cancels to zero; at 1e-4 the points are nearly independent
    models = condition(
        empty_model(SE_L2, 1e-20, GridSpec(1, 1), (1e-4, 1e6)), short_grid_function(0.0), 1.0
    )
    with caplog.at_level(logging.DEBUG, logger="funcbo"):
        survivors = condition(models, short_grid_function(1e-3), -1.0)
    assert [m.kernel.base.lengthscale for m in candidates(survivors)] == [1e-4]
    assert survivors.kernel.base.lengthscale == 1e-4
    assert survivors.n == 2
    dropped = [r for r in caplog.records if "dropped lengthscale" in r.getMessage()]
    assert len(dropped) == 1
    assert dropped[0].levelno == logging.DEBUG
    assert "1000000.0" in dropped[0].getMessage() and "n = 2" in dropped[0].getMessage()


def test_model_whose_successor_dropped_a_candidate_conditions_again():
    # a drop moves the survivors to fresh buffers, metric rows included, so
    # the given model can take another point without touching the successor
    model = condition(
        empty_model(SE_L2, 1e-20, GridSpec(1, 1), (1e-4, 1e6)), short_grid_function(0.0), 1.0
    )
    survivors = condition(model, short_grid_function(1e-3), -1.0)
    rows = survivors.MV.copy()
    other = condition(model, short_grid_function(0.5), 0.0)
    np.testing.assert_array_equal(survivors.MV, rows)
    assert other.n == 2 and other.MV[1, 0] == 0.5


def test_linear_scalar_kernel_is_rejected():
    # the GP models functions under distance-based kernels only; linear is
    # for prior draws, and no scalar kernel makes a model
    kernel = ScalarKernelSpec("linear", 1.0)
    with pytest.raises(InputError):
        FunctionalKernelSpec(kernel, "l2grid")
    for scalar in (kernel, ScalarKernelSpec("se", 1.0)):
        with pytest.raises(InputError, match="FunctionalKernelSpec"):
            empty_model(scalar, 0.01, GRID_1D)


def test_pick_ties_go_to_larger_lengthscale():
    empty = empty_model(SE_L2, 0.01, GridSpec(1, 1), (0.5, 2.0, 1.0))
    assert empty.kernel.base.lengthscale == 2.0
    obs = (short_grid_function(0.3), 0.5)  # one point: every lengthscale ties
    assert condition(empty, *obs).kernel.base.lengthscale == 2.0


@pytest.mark.parametrize("kind", ["se", "matern12", "matern32"])
@pytest.mark.parametrize("metric", ["l2grid", "rkhs"])
def test_empty_model_queries_give_the_prior_exactly(metric, kind):
    # with no point every product runs over an empty axis, which gives +0.0:
    # the means are 0.0 and the variances the base variance, bit for bit
    rng = np.random.default_rng(27)
    kernel = FunctionalKernelSpec(ScalarKernelSpec(kind, 0.7, variance=1.7), metric,
                                  _RKHS_PRIOR if metric == "rkhs" else None)
    model = empty_model(kernel, 0.01, GRID_1D, (0.3, 0.7, 2.0))
    A = rng.standard_normal((2, GRID_1D.size))
    e = np.concatenate((np.ones((3, 5, 1)), rng.standard_normal((3, 5, 2))), axis=-1)
    for mean, var in (posterior_batch(model, rng.standard_normal((3, 5, GRID_1D.size))),
                      gp.span_posterior(model, A)(e)):
        assert mean.shape == var.shape == (3, 5)
        assert np.all(mean == 0.0) and not np.signbit(mean).any() and np.all(var == 1.7)
    mean, var = posterior(model, random_grid_function(rng))
    assert mean == 0.0 and math.copysign(1.0, mean) == 1.0 and var == 1.7


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(["l2grid", "rkhs", "short"]),
    kind=st.sampled_from(["se", "matern12", "matern32"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_candidate_chain_matches_rebuild(mode, kind, n, seed):
    # after every step, each candidate of the chain equals its model
    # rebuilt from scratch on the same data
    rng = np.random.default_rng(seed)
    if mode == "short":  # two-point functions in the unit square
        template = _l2(kind, 1.0)
        points = [short_grid_function(*rng.uniform(0.0, 1.0, 2)) for _ in range(n)]
        probes = [short_grid_function(*rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
    else:
        prior = _RKHS_PRIOR if mode == "rkhs" else None
        template = FunctionalKernelSpec(ScalarKernelSpec(kind, 1.0), mode, prior)
        points = [random_grid_function(rng, scale=0.3) for _ in range(n)]
        probes = [random_grid_function(rng, scale=0.3) for _ in range(3)]
    noise_sq = 0.01
    obs = [(p, float(v)) for p, v in zip(points, rng.standard_normal(n))]
    models = empty_model(template, noise_sq, points[0].spec, np.geomspace(0.1, 10.0, 5))
    for i, o in enumerate(obs, start=1):
        models = condition(models, *o)
        assert len(models.lengthscales) == 5
        for model in candidates(models):
            rebuilt = rebuild_model(model.kernel, noise_sq, obs[:i])
            np.testing.assert_allclose(inverse_factor(model)[1], inverse_factor(rebuilt)[1],
                                       rtol=0.0, atol=1e-8)
            assert log_marginal_likelihood(model) == pytest.approx(
                log_marginal_likelihood(rebuilt), abs=1e-8
            )
            for p in probes:
                for a, b in zip(posterior(model, p), posterior(rebuilt, p)):
                    assert a == pytest.approx(b, abs=1e-8)


def _assert_matches_rebuild(model, obs, probes, tol_z=1e-6, tol_post=1e-8):
    rebuilt = rebuild_model(model.kernel, model.noise_sq, obs)
    np.testing.assert_allclose(inverse_factor(model)[1], inverse_factor(rebuilt)[1],
                               rtol=0.0, atol=tol_z)
    assert log_marginal_likelihood(model) == pytest.approx(
        log_marginal_likelihood(rebuilt), abs=tol_z
    )
    for p in probes:
        for a, b in zip(posterior(model, p), posterior(rebuilt, p)):
            assert a == pytest.approx(b, abs=tol_post)


@pytest.mark.parametrize("reserve", [0, 140])
def test_buffer_long_chain_matches_rebuild(reserve):
    # 140 smooth points, at distances from 3e-3 to 1 around one centre as
    # in a search subspace, at the MLE grid's extremes; without a reserve
    # the chain crosses every capacity growth of the buffer (16, 32, ...,
    # 144), with one it writes every row into the buffer of its first point
    rng = np.random.default_rng(23)
    kappa = ScalarKernelSpec("se", 0.3)
    target = sample_on_grid(kappa, GRID_1D, rng)
    centre = sample_on_grid(kappa, GRID_1D, rng).values
    points = [
        GridFunction(GRID_1D, centre + 10 ** rng.uniform(-2.5, 0.0)
                     * sample_on_grid(kappa, GRID_1D, rng).values)
        for _ in range(140)
    ]
    obs = [
        (p, -math.sqrt(l2_dist_sq(p, target)) + 0.01 * rng.standard_normal())
        for p in points
    ]
    probes = [sample_on_grid(kappa, GRID_1D, rng) for _ in range(3)] + points[:2]
    cands = empty_model(SE_L2, 1e-4, GRID_1D, (0.01, 10.0), reserve=reserve)
    for i, o in enumerate(obs, start=1):
        cands = condition(cands, *o)
        assert cands.zs.shape[1] == (reserve or 16 * math.ceil(i / 16))
        if i in (1, 16, 17, 32, 33, 64, 65, 128, 129, 140):
            assert len(cands.lengthscales) == 2
            for model in candidates(cands):
                _assert_matches_rebuild(model, obs[:i], probes)


def test_buffer_branch_raises_and_keeps_first_branch():
    # at n = 5 the successor writes row 5 of the same buffers, so a second
    # branch from n = 5 would overwrite it and raises; at n = 16 the full
    # buffers double into fresh ones, and a second branch writes only into
    # the old ones, which no other model reads past row 16
    rng = np.random.default_rng(24)
    obs = _functional_dataset(rng, 20)
    probes = [random_grid_function(rng) for _ in range(3)]
    cands = empty_model(SE_L2, 0.01, GRID_1D, (0.5, 2.0))
    for i, o in enumerate(obs[:18]):
        if i in (5, 16):
            old, old_model = cands, candidates(cands)[1]
            before = [posterior(old_model, p) for p in probes]
            cands = condition(cands, *o)
            after = [posterior(m, p) for m in candidates(cands) for p in probes]
            if i == 5:
                with pytest.raises(InputError):
                    condition(old, *obs[19])
            else:
                for model in candidates(condition(old, *obs[19])):
                    _assert_matches_rebuild(model, obs[:16] + [obs[19]], probes)
            assert [posterior(m, p) for m in candidates(cands) for p in probes] == after
            assert [posterior(old_model, p) for p in probes] == before
        else:
            cands = condition(cands, *o)
    for model in candidates(cands):
        _assert_matches_rebuild(model, obs[:18], probes)


@pytest.mark.parametrize("reserve, caps", [
    (20, [20] * 20 + [36] * 16 + [52] * 4),  # R rows at the first point, then steps of 16
    (5, [16] * 16 + [32] * 16 + [48] * 8),  # a reserve under 16 rows changes nothing
])
def test_reserved_buffers_are_allocated_once_and_grow_by_16_past_them(reserve, caps):
    rng = np.random.default_rng(26)
    obs = _functional_dataset(rng, 40)
    probes = [random_grid_function(rng) for _ in range(3)]
    cands, seen, buffers = empty_model(SE_L2, 0.01, GRID_1D, (0.5, 2.0), reserve=reserve), [], {}
    for i, o in enumerate(obs, start=1):
        cands = condition(cands, *o)
        seen.append(cands.zs.shape[1])
        assert cands.Ws.shape[1:] == (seen[-1], seen[-1]) and len(cands.MVs) == seen[-1]
        buffers[id(cands.Ws)] = cands.Ws  # kept alive, so no id is reused
        if i in (1, reserve, reserve + 1, len(obs)):
            for model in candidates(cands):
                _assert_matches_rebuild(model, obs[:i], probes)
    assert seen == caps
    assert len(buffers) == len(set(caps))  # one allocation per capacity, no other copy


@pytest.mark.blas_threads
def test_buffer_drop_mid_chain_keeps_survivors_exact():
    # the first ten two-point functions, 1.5e6 apart in their first value,
    # are correlated only at lengthscale 1e6; the eleventh, 1e-3 off the
    # first in its second value, has exactly the first point's kernel row at
    # 1e6, so with noise below float resolution that candidate's Schur
    # complement is exactly 0 and the middle candidate is dropped at n = 11
    rng = np.random.default_rng(25)
    xs = [(1.5e6 * i, 0.0) for i in range(10)] + [(0.0, 1e-3)]
    xs += [(10.0 + 2.5 * i, 0.0) for i in range(30)]
    obs = [(short_grid_function(*x), float(rng.standard_normal())) for x in xs]
    probes = [short_grid_function(*x) for x in ((0.0, 0.0), (0.0, 5e-4), (12.0, 0.0), (33.3, 1.0))]
    cands = empty_model(SE_L2, 1e-20, GridSpec(1, 2), (1e-4, 1e6, 1.0))
    for i, o in enumerate(obs, start=1):
        cands = condition(cands, *o)
        assert len(cands.lengthscales) == (3 if i <= 10 else 2)
    assert [m.kernel.base.lengthscale for m in candidates(cands)] == [1e-4, 1.0]
    for model in candidates(cands):
        _assert_matches_rebuild(model, obs, probes)


def _jitter_log(caplog, monkeypatch, spec) -> str:
    # the SE gram on 100 grid points is singular at zero jitter
    monkeypatch.setattr(gp, "_JITTERS", (0.0, 1e-10))
    gp._prior_chol.cache_clear()
    kappa = ScalarKernelSpec("se", 0.3, variance=2.0)
    with caplog.at_level(logging.DEBUG, logger="funcbo.gp"):
        sample_on_grid(kappa, spec, np.random.default_rng(0))
    # the escalated factor, the dense one or the unit-variance one of each
    # axis, is that of the gram with jitter 1e-10 v, bit for bit
    kernel, grid = (kappa, spec) if spec.dim == 1 else (
        ScalarKernelSpec("se", 0.3), GridSpec(1, spec.points_per_axis))
    gram = scalar_gram(kernel, grid_coordinates(grid))
    expected = np.linalg.cholesky(gram + 1e-10 * kernel.variance * np.eye(grid.size))
    assert np.array_equal(gp._prior_chol(kernel, grid, None if spec.dim == 1 else spec),
                          expected)
    gp._prior_chol.cache_clear()
    (record,) = [r for r in caplog.records if "jitter" in r.getMessage()]
    assert record.levelno == logging.DEBUG
    return record.getMessage()


@pytest.mark.blas_threads
def test_prior_jitter_escalation_is_logged(caplog, monkeypatch):
    message = _jitter_log(caplog, monkeypatch, GRID_1D)
    assert "jitter 1e-10" in message and message.endswith("at N = 100")


@pytest.mark.blas_threads
def test_prior_jitter_escalation_on_one_axis_is_logged(caplog, monkeypatch):
    # on a 100 x 100 grid the escalation happens on the 100-point axis factor
    message = _jitter_log(caplog, monkeypatch, GridSpec(2, 100))
    assert "jitter 1e-10" in message
    assert message.endswith("at n = 100 per axis of the 2-d grid of N = 10000")


def test_dense_prior_factor_allocates_no_n_by_n_array_but_the_factor(monkeypatch):
    """Past the gram, the dense prior factor allocates the factor and the
    gram's saved diagonal: no identity and no jittered copy of the gram."""
    spec, real, start = GridSpec(1, 300), kernels.scalar_gram, []

    def gram_then_reset_peak(*args):
        gram = real(*args)
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return gram

    monkeypatch.setattr(kernels, "scalar_gram", gram_then_reset_peak)
    gp._prior_chol.cache_clear()
    tracemalloc.start()
    try:
        gp._prior_chol(ScalarKernelSpec("matern32", 0.3), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gp._prior_chol.cache_clear()
    assert peak - start[0] < 1.5 * 8 * spec.size**2


def test_a_value_that_overflows_a_likelihood_drops_its_candidates(caplog):
    """A value that leaves no candidate a finite z·z raises NumericalError,
    naming the value, and writes nothing, so the model takes the point
    again; a candidate whose z·z overflows at a smaller value is dropped
    and logged."""
    x = np.linspace(0.0, 1.0, GRID_1D.size)
    model = empty_model(SE_L2, 0.01, GRID_1D, np.geomspace(0.05, 20.0, 5))
    model = condition(model, GridFunction(GRID_1D, np.sin(3.0 * x)), 0.1)
    point = GridFunction(GRID_1D, np.sin(3.0 * x) + 0.3 * x)
    for y in (1.5e154, 1e200, 1e300, 1e308):
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="rescale") as info:
            condition(model, point, y)
        assert repr(y) in str(info.value)
    with caplog.at_level(logging.DEBUG, logger="funcbo.gp"):
        some = condition(model, point, 1.2e154)
    assert some.lengthscales.tolist() == [0.05]
    assert np.isfinite(log_marginal_likelihood(some))
    dropped = [r.getMessage() for r in caplog.records if "not finite" in r.getMessage()]
    assert len(dropped) == 4 and all(m.endswith("at n = 2: its likelihood is not finite")
                                     for m in dropped)


@pytest.mark.blas_threads
@pytest.mark.parametrize("spec", [GRID_1D, GridSpec(2, 100)], ids=["1d", "2d"])
def test_prior_not_pd_at_any_jitter_raises(monkeypatch, spec):
    monkeypatch.setattr(gp, "_JITTERS", (0.0,))
    gp._prior_chol.cache_clear()
    try:
        with pytest.raises(NumericalError, match="not PD"):
            sample_on_grid(ScalarKernelSpec("se", 0.3), spec, np.random.default_rng(0))
    finally:
        gp._prior_chol.cache_clear()


@pytest.mark.parametrize(
    "kind, dim",
    [(kind, 1) for kind in ("se", "matern12", "matern32", "linear")]
    + [(kind, 2) for kind in ("matern12", "matern32", "linear")],
)
def test_prior_dense_factor_draw_is_bit_identical(kind, dim):
    # every kernel on a 1-d grid, and the non-separable ones on 2-d, keep
    # the one dense factor and its product L @ z
    spec = GRID_1D if dim == 1 else GridSpec(2, 6)
    kappa = ScalarKernelSpec(kind, 0.3, variance=1.5)
    L = gp._prior_chol(kappa, spec)
    assert L.shape == (spec.size, spec.size)
    draw = sample_on_grid(kappa, spec, np.random.default_rng(11)).values
    z = np.random.default_rng(11).standard_normal(spec.size)
    np.testing.assert_array_equal(draw, L @ z)


@pytest.mark.parametrize(
    "dim, n, variance", [(2, 12, 1.0), (2, 9, 2.5), (3, 6, 2.0), (2, 1, 1.0), (3, 1, 0.5)]
)
def test_prior_per_axis_factor_matches_gram(dim, n, variance):
    kappa = ScalarKernelSpec("se", 0.3, variance=variance)
    spec = GridSpec(dim, n)
    axis = gp._prior_chol(ScalarKernelSpec("se", 0.3), GridSpec(1, n), spec)
    assert axis.shape == (n, n) and not axis.flags.writeable
    L = math.sqrt(variance) * functools.reduce(np.kron, [axis] * dim)
    gram = scalar_gram(kappa, grid_coordinates(spec))
    assert np.abs(L @ L.T - gram).max() < 1e-8
    # the draw is the Kronecker factor applied in the grid's C order
    draw = sample_on_grid(kappa, spec, np.random.default_rng(4)).values
    z = np.random.default_rng(4).standard_normal(spec.size)
    np.testing.assert_allclose(draw, L @ z, rtol=0, atol=1e-12)


def test_prior_2d_se_draws_reproduce_gram():
    # acceptance criterion 4's bounds on a small 2-d grid
    kappa = ScalarKernelSpec("se", 0.3)
    spec = GridSpec(2, 10)
    rng = np.random.default_rng(0)
    draws = np.array([sample_on_grid(kappa, spec, rng).values for _ in range(2000)])
    assert np.abs(draws.mean(axis=0)).max() < 4 / math.sqrt(2000)
    emp = draws.T @ draws / 2000
    assert np.abs(emp - scalar_gram(kappa, grid_coordinates(spec))).max() < 0.1


def test_sample_on_grid_deterministic():
    kappa = ScalarKernelSpec("se", 0.3)
    a = sample_on_grid(kappa, GRID_1D, np.random.default_rng(42))
    b = sample_on_grid(kappa, GRID_1D, np.random.default_rng(42))
    np.testing.assert_array_equal(a.values, b.values)


def test_sample_on_grid_moments_smoke():
    # small version of the sampling-fidelity acceptance criterion
    kappa = ScalarKernelSpec("se", 0.3)
    rng = np.random.default_rng(8)
    draws = np.array([sample_on_grid(kappa, GRID_1D, rng).values for _ in range(500)])
    assert np.abs(draws.mean(axis=0)).max() < 4 / math.sqrt(500)
    emp = draws.T @ draws / 500
    gram = scalar_gram(kappa, grid_coordinates(GRID_1D))
    assert np.abs(emp[0] - gram[0]).max() < 0.2


def test_log_marginal_likelihood_scalar_cases():
    # K00 + noise = 1 so the marginal is a standard normal
    kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 1.0, variance=0.5), "l2grid")
    g = random_grid_function(np.random.default_rng(9))
    m0 = rebuild_model(kernel, 0.5, [(g, 0.0)])
    assert log_marginal_likelihood(m0) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12
    )
    m1 = rebuild_model(kernel, 0.5, [(g, 1.0)])
    assert log_marginal_likelihood(m1) == pytest.approx(
        -0.5 - 0.5 * math.log(2 * math.pi), abs=1e-12
    )


def test_log_marginal_likelihood_dense_oracle():
    rng = np.random.default_rng(10)
    obs = _functional_dataset(rng, 6)
    noise_sq = 0.09
    model = rebuild_model(SE_L2, noise_sq, obs)
    pts = [p for p, _ in obs]
    y = np.array([v for _, v in obs])
    K = np.array(
        [[functional_eval(SE_L2, a, b) for b in pts] for a in pts]
    ) + noise_sq * np.eye(6)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    oracle = -0.5 * y @ np.linalg.inv(K) @ y - 0.5 * logdet - 3 * math.log(2 * math.pi)
    assert log_marginal_likelihood(model) == pytest.approx(oracle, abs=1e-8)


def test_log_marginal_likelihood_needs_data():
    with pytest.raises(InputError):
        log_marginal_likelihood(empty_model(SE_L2, 0.01, GRID_1D))


def test_tune_single_candidate_returned():
    rng = np.random.default_rng(11)
    obs = _functional_dataset(rng, 4)
    spec = tune_lengthscale(obs, SE_L2, [0.7], 0.01)
    assert spec.base.lengthscale == 0.7


def test_tune_attains_grid_max_and_prefers_larger():
    rng = np.random.default_rng(12)
    obs = _functional_dataset(rng, 8)
    grid = np.geomspace(0.05, 5.0, 9)
    spec = tune_lengthscale(obs, SE_L2, grid, 0.01)
    lmls = {
        g: log_marginal_likelihood(
            rebuild_model(
                FunctionalKernelSpec(ScalarKernelSpec("se", g), "l2grid"), 0.01, obs
            )
        )
        for g in grid
    }
    best = max(lmls.values())
    assert lmls[spec.base.lengthscale] == pytest.approx(best, abs=1e-9)
    # ties (if any) and near-ties must not pick a smaller lengthscale
    winners = [g for g, v in lmls.items() if v == best]
    assert spec.base.lengthscale >= max(winners) - 1e-12


def test_tune_fine_scan_oracle():
    # data drawn from a known lengthscale at 30 one-point functions, whose
    # l2grid distances are those of their values
    rng = np.random.default_rng(13)
    kappa_true = ScalarKernelSpec("se", 0.3)
    x = np.linspace(0, 1, 30)[:, None]
    gram = scalar_gram(kappa_true, x)
    f = np.linalg.cholesky(gram + 1e-10 * np.eye(30)) @ rng.standard_normal(30)
    obs = [(short_grid_function(x[i, 0]), float(f[i] + 0.01 * rng.standard_normal()))
           for i in range(30)]
    coarse = np.geomspace(0.01, 10.0, 17)
    chosen = tune_lengthscale(obs, SE_L2, coarse, 1e-4).base.lengthscale

    fine = np.geomspace(0.01, 10.0, 321)
    fine_lml = [log_marginal_likelihood(rebuild_model(_l2("se", g), 1e-4, obs)) for g in fine]
    fine_best = fine[int(np.argmax(fine_lml))]
    # selected coarse candidate sits within one coarse grid step of the
    # fine-scan argmax (grid is geometric, compare in log space)
    step = math.log(coarse[1] / coarse[0])
    assert abs(math.log(chosen / fine_best)) <= step + 1e-9


def test_tune_needs_data_and_candidates():
    with pytest.raises(InputError):
        tune_lengthscale([], SE_L2, [0.5], 0.01)
    rng = np.random.default_rng(14)
    with pytest.raises(InputError):
        tune_lengthscale(_functional_dataset(rng, 2), SE_L2, [], 0.01)
    # every candidate's kernel row is rescaled from the first's square
    for tiny_or_huge in (1e-160, 1e-300, 1e200):
        with pytest.raises(InputError, match="normal float"):
            tune_lengthscale(_functional_dataset(rng, 2), SE_L2, [tiny_or_huge, 10.0], 0.01)


def test_empty_model_rejects_candidates_whose_ratio_overflows():
    # condition scales each candidate's distances by its squared ratio to
    # the first surviving candidate, which can be any earlier one
    for lengthscales in ([1e150, 1e-150, 1.0], [1.0, 1e150, 1e-150]):
        with pytest.raises(InputError, match="ratio"):
            empty_model(SE_L2, 0.01, GridSpec(1, 1), lengthscales)
    # ascending candidates never rescale up, whatever their spread
    assert empty_model(SE_L2, 0.01, GridSpec(1, 1), [1e-150, 1.0, 1e150]).lengthscales.size == 3
    model = empty_model(SE_L2, 0.01, GridSpec(1, 1), [1e100, 1e-50, 1.0])
    with np.errstate(over="raise", invalid="raise"):
        for x in (0.0, 0.5, 0.5):
            model = condition(model, short_grid_function(x), 1.0)
    assert model.n == 3 and model.lengthscales.size == 3
    assert all(np.isfinite(a).all() for a in inverse_factor(model))


def test_biased_equivalence_empty_prev():
    rng = np.random.default_rng(15)
    obs_new = _functional_dataset(rng, 3)
    probes = [random_grid_function(rng) for _ in range(5)]
    assert biased_posterior_equivalence_check(SE_L2, 0.01, [], obs_new, probes)


@pytest.mark.parametrize("metric", ["l2grid", "rkhs"])
def test_biased_equivalence_random_split(metric):
    rng = np.random.default_rng(16)
    if metric == "rkhs":
        kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 2.0), metric, _RKHS_PRIOR)
    else:
        kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 0.9), metric)
    obs_prev = _functional_dataset(rng, 4, kernel)
    obs_new = _functional_dataset(rng, 3, kernel)
    probes = [random_grid_function(rng) for _ in range(10)]
    assert biased_posterior_equivalence_check(
        kernel, 0.01, obs_prev, obs_new, probes, tol=1e-6
    )


def test_cholesky_factor_reconstructs_regularised_gram():
    rng = np.random.default_rng(22)
    obs = _functional_dataset(rng, 9)
    noise_sq = 0.01
    model = rebuild_model(SE_L2, noise_sq, obs)
    pts = [p for p, _ in obs]
    gram = np.array(
        [[functional_eval(SE_L2, a, b) for b in pts] for a in pts]
    ) + noise_sq * np.eye(9)
    # W = L^-1 whitens the gram: W gram Wᵀ = I
    W, z = inverse_factor(model)
    whitened = W @ gram @ W.T
    rel = np.linalg.norm(whitened - np.eye(9)) / np.linalg.norm(np.eye(9))
    assert rel < 1e-8
    # and the targets: z = W y
    y = np.array([v for _, v in obs])
    np.testing.assert_allclose(W @ y, z, atol=1e-8)


def test_posterior_variance_never_exceeds_prior():
    rng = np.random.default_rng(17)
    model = rebuild_model(SE_L2, 0.01, _functional_dataset(rng, 8))
    for _ in range(20):
        _, var = posterior(model, random_grid_function(rng))
        assert var <= 1.0 + 1e-8
        assert var >= 0.0


def test_noise_free_interpolation_limit():
    rng = np.random.default_rng(18)
    obs = _functional_dataset(rng, 5)
    model = rebuild_model(SE_L2, 1e-8, obs)
    for p, y in obs:
        mean, _ = posterior(model, p)
        assert abs(mean - y) < 1e-3


def test_exchangeability():
    rng = np.random.default_rng(19)
    obs = _functional_dataset(rng, 7)
    model_a = rebuild_model(SE_L2, 0.01, obs)
    perm = list(np.random.default_rng(1).permutation(7))
    model_b = rebuild_model(SE_L2, 0.01, [obs[i] for i in perm])
    for _ in range(5):
        q = random_grid_function(rng)
        ma, va = posterior(model_a, q)
        mb, vb = posterior(model_b, q)
        assert ma == pytest.approx(mb, abs=1e-8)
        assert va == pytest.approx(vb, abs=1e-8)


def test_posterior_batch_matches_scalar_path():
    rng = np.random.default_rng(20)
    model = rebuild_model(SE_L2, 0.01, _functional_dataset(rng, 6))
    queries = [random_grid_function(rng) for _ in range(4)]
    means, variances = posterior_batch(model, np.array([q.values for q in queries]))
    for i, q in enumerate(queries):
        m, v = posterior(model, q)
        assert means[i] == pytest.approx(m, abs=1e-12)
        assert variances[i] == pytest.approx(v, abs=1e-12)


def test_one_point_grid_model_is_the_scalar_gp():
    # an l2grid model of one-point functions is the GP on their values
    rng = np.random.default_rng(21)
    kernel = _l2("se", 0.5)
    ts = np.linspace(0, 1, 5)
    obs = [(short_grid_function(t), float(rng.standard_normal())) for t in ts]
    model = rebuild_model(kernel, 0.01, obs)
    mean, var = posterior(model, short_grid_function(0.37))
    K = scalar_gram(kernel.base, ts[:, None]) + 0.01 * np.eye(5)
    k = np.array([math.exp(-((0.37 - t) ** 2) / (2 * 0.25)) for t in ts])
    y = np.array([v for _, v in obs])
    assert mean == pytest.approx(k @ np.linalg.inv(K) @ y, abs=1e-10)
    assert var == pytest.approx(1.0 - k @ np.linalg.inv(K) @ k, abs=1e-10)

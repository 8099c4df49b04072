import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_1D, random_grid_function
from funcbo import gp
from funcbo.acquisition import (
    AcqSearchConfig,
    UcbSchedule,
    beta,
    candidate_values,
    restart_seeds,
    subspace_posterior,
    ucb_search,
)
from funcbo.errors import InputError
from funcbo.gp import Observation, empty_model
from funcbo.gridfn import GridFunction, grid_coordinates
from funcbo.kernels import FunctionalKernelSpec, ScalarKernelSpec, scalar_gram
from funcbo.optimizer import Subspace
from reference import l2_norm, linear_combine, rebuild_model, zeros

SE_L2 = FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "l2grid")


def _subspace(rng, d=1, bias=None):
    bias = bias if bias is not None else zeros(GRID_1D)
    kappa = ScalarKernelSpec("se", 0.3)
    basis = tuple(gp.sample_on_grid(kappa, GRID_1D, rng) for _ in range(d))
    return Subspace(0, bias, basis)


def test_schedule_validation():
    with pytest.raises(InputError):
        UcbSchedule(0.0, 1)
    with pytest.raises(InputError):
        UcbSchedule(1.0, 1)
    with pytest.raises(InputError):
        UcbSchedule(0.1, 0)
    with pytest.raises(InputError):
        beta(UcbSchedule(0.1, 1), 0)


def test_beta_direct_formula():
    # d=1, delta=0.1, t=1: 2 log(pi^2 / 0.3), evaluated independently
    assert beta(UcbSchedule(0.1, 1), 1) == pytest.approx(
        2.0 * math.log(math.pi**2 / 0.3), rel=1e-12
    )


def test_beta_monotone_in_t_and_delta():
    sched = UcbSchedule(0.1, 1)
    values = [beta(sched, t) for t in range(1, 101)]
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))
    assert beta(UcbSchedule(0.9, 1), 5) < beta(UcbSchedule(0.1, 1), 5)


def maximise(model, sub, sched, search, t, rng):
    """The engine's pick: the UCB search over the subspace's coordinates,
    the winner mapped to its capped function.  Returns (lam, g, acq)."""
    lam, acq = ucb_search(
        subspace_posterior(model, sub, search), len(sub.basis), search, rng,
        math.sqrt(beta(sched, t)),
    )
    return lam, GridFunction(GRID_1D, candidate_values(sub, search, lam[None, :])[0]), acq


def test_maximise_flat_prior_surface():
    rng = np.random.default_rng(0)
    sub = _subspace(np.random.default_rng(1))
    model = empty_model(SE_L2, 0.01)
    sched = UcbSchedule(0.1, 1)
    search = AcqSearchConfig()
    lam, g, acq = maximise(model, sub, sched, search, 1, rng)
    assert acq == pytest.approx(math.sqrt(beta(sched, 1)) * 1.0, abs=1e-6)
    assert l2_norm(g) <= search.l_max + 1e-9


def test_maximise_beats_probes_and_incumbent():
    rng = np.random.default_rng(2)
    sub = _subspace(np.random.default_rng(3))
    g0 = linear_combine(sub.bias, list(sub.basis), np.zeros(1))
    model = rebuild_model(SE_L2, 0.01, [Observation(g0, 5.0)])
    sched = UcbSchedule(0.1, 1)
    search = AcqSearchConfig()
    beta_t = beta(sched, 2)
    lam, g, acq = maximise(model, sub, sched, search, 2, rng)

    def acq_at(lam_scalar):
        row = candidate_values(sub, search, np.array([[lam_scalar]]))[0]
        mean, var = gp.posterior(model, GridFunction(GRID_1D, row))
        return mean + math.sqrt(beta_t) * math.sqrt(var)

    assert acq >= acq_at(0.0) - 1e-9
    for probe in np.linspace(-search.lambda_box, search.lambda_box, 64):
        assert acq >= acq_at(probe) - 1e-9


def test_maximise_never_below_own_seeds():
    seed = 7
    sub = _subspace(np.random.default_rng(8), d=2)
    rng = np.random.default_rng(9)
    obs = [
        Observation(
            linear_combine(sub.bias, list(sub.basis), rng.standard_normal(2)),
            float(rng.standard_normal()),
        )
        for _ in range(4)
    ]
    model = rebuild_model(SE_L2, 0.01, obs)
    sched = UcbSchedule(0.1, 2)
    search = AcqSearchConfig()
    beta_t = beta(sched, 3)
    lam, g, acq = maximise(model, sub, sched, search, 3, np.random.default_rng(seed))
    seeds = np.random.default_rng(seed).uniform(
        -search.lambda_box, search.lambda_box, size=(search.restarts, 2)
    )
    rows = candidate_values(sub, search, seeds)
    means, variances = gp.posterior_batch(model, rows)
    seed_vals = means + math.sqrt(beta_t) * np.sqrt(variances)
    assert acq >= seed_vals.max() - 1e-12


def test_maximise_d1_close_to_dense_scan():
    for case_seed in (10, 11, 12):
        rng = np.random.default_rng(case_seed)
        sub = _subspace(rng)
        obs = [
            Observation(
                linear_combine(sub.bias, list(sub.basis), rng.standard_normal(1)),
                float(rng.standard_normal()),
            )
            for _ in range(3)
        ]
        model = rebuild_model(SE_L2, 0.01, obs)
        sched = UcbSchedule(0.1, 1)
        search = AcqSearchConfig()
        t = 4
        beta_t = beta(sched, t)
        _, _, acq = maximise(model, sub, sched, search, t, np.random.default_rng(1))
        grid = np.linspace(-search.lambda_box, search.lambda_box, 1024)[:, None]
        rows = candidate_values(sub, search, grid)
        means, variances = gp.posterior_batch(model, rows)
        dense_max = float((means + math.sqrt(beta_t) * np.sqrt(variances)).max())
        assert acq >= dense_max - 1e-3


def test_maximise_enforces_norm_cap():
    rng = np.random.default_rng(13)
    from reference import constant

    sub = _subspace(np.random.default_rng(14), bias=constant(GRID_1D, 3.0))
    model = empty_model(SE_L2, 0.01)
    search = AcqSearchConfig(l_max=0.5)
    _, g, _ = maximise(model, sub, UcbSchedule(0.1, 1), search, 1, rng)
    assert l2_norm(g) <= 0.5 + 1e-9
    # every candidate row is capped, not just the winner
    rows = candidate_values(sub, search, np.array([[0.0], [2.0], [-3.5]]))
    for row in rows:
        assert l2_norm(GridFunction(GRID_1D, row)) <= 0.5 + 1e-9


def test_minimise_lcb_below_posterior_means():
    rng = np.random.default_rng(15)
    sub = _subspace(np.random.default_rng(16))
    obs = [
        Observation(
            linear_combine(sub.bias, list(sub.basis), rng.standard_normal(1)),
            float(rng.standard_normal()),
        )
        for _ in range(4)
    ]
    # min (mean - sd) is minus the max UCB of the model of -f: same
    # variances, negated means
    negated = rebuild_model(SE_L2, 0.01, [Observation(o.point, -o.y) for o in obs])
    search = AcqSearchConfig()
    _, neg_lcb = ucb_search(
        subspace_posterior(negated, sub, search),
        1,
        search,
        np.random.default_rng(17),
        1.0,
    )
    model = rebuild_model(SE_L2, 0.01, obs)
    grid = np.linspace(-search.lambda_box, search.lambda_box, 256)[:, None]
    rows = candidate_values(sub, search, grid)
    means, variances = gp.posterior_batch(model, rows)
    assert -neg_lcb <= float((means - np.sqrt(variances)).min()) + 1e-3


def test_restart_seeds_are_the_only_draws_of_a_search():
    search = AcqSearchConfig(restarts=5)
    seeds = restart_seeds(search, 3, np.random.default_rng(20))
    assert seeds.shape == (5, 3)
    assert np.all(np.abs(seeds) <= search.lambda_box)
    model = empty_model(ScalarKernelSpec("se", 1.0), 0.01)
    searched = np.random.default_rng(20)
    ucb_search(partial(gp.posterior_batch, model), 3, search, searched, 1.0)
    skipped = np.random.default_rng(20)
    restart_seeds(search, 3, skipped)
    assert searched.random() == skipped.random()


def test_search_config_validation():
    with pytest.raises(InputError):
        AcqSearchConfig(restarts=0)
    with pytest.raises(InputError):
        AcqSearchConfig(local_steps=0)
    with pytest.raises(InputError):
        AcqSearchConfig(lambda_box=0.0)
    with pytest.raises(InputError):
        AcqSearchConfig(l_max=-1.0)
    # the seed draws need a finite box width 2 * lambda_box
    AcqSearchConfig(lambda_box=8e307)
    with pytest.raises(InputError, match="lambda_box"):
        AcqSearchConfig(lambda_box=1e308)


def _metric_kernel(metric, points, relative_lengthscale):
    """SE functional kernel whose lengthscale is a multiple of the median
    distance between the points, so it neither saturates nor vanishes."""
    gram = (
        scalar_gram(ScalarKernelSpec("se", 0.3), grid_coordinates(GRID_1D))
        if metric == "rkhs"
        else None
    )
    unit = FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), metric, gram)
    model = rebuild_model(unit, 0.01, [Observation(p, 0.0) for p in points])
    r2 = gp.query_sqdist(model, np.array([p.values for p in points]))
    scale = math.sqrt(float(np.median(r2[np.triu_indices(len(points), 1)])))
    return FunctionalKernelSpec(
        ScalarKernelSpec("se", relative_lengthscale * scale), metric, gram
    )


@pytest.mark.parametrize("metric", ["l2grid", "rkhs"])
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), relative_lengthscale=st.floats(0.3, 3.0))
def test_subspace_posterior_equals_posterior_of_candidates(metric, d, seed, relative_lengthscale):
    rng = np.random.default_rng(seed)
    earlier = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
    sub = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
    # observations on an earlier subspace lie outside the current span
    points = [
        GridFunction(GRID_1D, candidate_values(s, AcqSearchConfig(), rng.normal(size=(1, d)))[0])
        for s in (earlier, earlier, earlier, sub, sub)
    ]
    kernel = _metric_kernel(metric, points, relative_lengthscale)
    model = rebuild_model(
        kernel, 0.01, [Observation(p, float(rng.standard_normal())) for p in points]
    )
    lam = rng.uniform(-4.0, 4.0, size=(17, d))
    uncapped = candidate_values(sub, AcqSearchConfig(l_max=np.inf), lam)
    norms = np.sqrt(np.einsum("ij,ij->i", uncapped, uncapped) * GRID_1D.weight)
    l_max = float(np.median(norms))
    assert 0 < np.sum(norms > l_max) < len(lam)  # the cap fires on some rows only
    for search in (AcqSearchConfig(l_max=1e6), AcqSearchConfig(l_max=l_max)):
        mean, var = subspace_posterior(model, sub, search)(lam)
        ref_mean, ref_var = gp.posterior_batch(model, candidate_values(sub, search, lam))
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(var, ref_var, rtol=1e-9, atol=1e-12)

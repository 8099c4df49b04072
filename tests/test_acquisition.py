import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRID_1D, random_grid_function, short_grid_function
from funcbo import acquisition, gp
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
from funcbo.gp import empty_model
from funcbo.gridfn import GridFunction, GridSpec, grid_coordinates
from funcbo.kernels import FunctionalKernelSpec, ScalarKernelSpec, scalar_gram
from funcbo.optimizer import OptConfig, Subspace, make_engine
import reference
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
    model = empty_model(SE_L2, 0.01, GRID_1D)
    sched = UcbSchedule(0.1, 1)
    search = AcqSearchConfig()
    lam, g, acq = maximise(model, sub, sched, search, 1, rng)
    assert acq == pytest.approx(math.sqrt(beta(sched, 1)) * 1.0, abs=1e-6)
    assert l2_norm(g) <= search.l_max + 1e-9


def test_maximise_beats_probes_and_incumbent():
    rng = np.random.default_rng(2)
    sub = _subspace(np.random.default_rng(3))
    g0 = linear_combine(sub.bias, list(sub.basis), np.zeros(1))
    model = rebuild_model(SE_L2, 0.01, [(g0, 5.0)])
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
        (
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
            (
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
    model = empty_model(SE_L2, 0.01, GRID_1D)
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
        (
            linear_combine(sub.bias, list(sub.basis), rng.standard_normal(1)),
            float(rng.standard_normal()),
        )
        for _ in range(4)
    ]
    # min (mean - sd) is minus the max UCB of the model of -f: same
    # variances, negated means
    negated = rebuild_model(SE_L2, 0.01, [(p, -v) for p, v in obs])
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
    model = empty_model(SE_L2, 0.01, GridSpec(1, 3))  # the search's rows are 3 values
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
    # candidates' squared norms, which grow like lambda_box², must not overflow
    AcqSearchConfig(lambda_box=1e100)
    for too_wide in (1e200, 1e308, math.inf, math.nan):
        with pytest.raises(InputError, match="lambda_box"):
            AcqSearchConfig(lambda_box=too_wide)


def test_engine_with_overflowing_lambda_box_is_input_error():
    # at lambda_box = 1e200 a candidate's squared norm overflows, its cap
    # scale is 0 and its score NaN: the fourth ask would be the zero function
    with pytest.raises(InputError, match="lambda_box"):
        make_engine(OptConfig(S=1, T=3, n_init=2, termination="regret",
                              search=AcqSearchConfig(lambda_box=1e200)), "s3bfo")


def _metric_kernel(metric, points, relative_lengthscale):
    """SE functional kernel whose lengthscale is a multiple of the median
    distance between the points, so it neither saturates nor vanishes."""
    gram = (
        scalar_gram(ScalarKernelSpec("se", 0.3), grid_coordinates(GRID_1D))
        if metric == "rkhs"
        else None
    )
    V = np.array([p.values for p in points])
    MV = gp._metric_rows(FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), metric, gram), V)
    q = np.einsum("ij,ij->i", V, MV)
    r2 = gp._sqdist(q, q, V @ MV.T, GRID_1D.weight if metric == "l2grid" else 1.0)
    scale = math.sqrt(float(np.median(r2[np.triu_indices(len(points), 1)])))
    return FunctionalKernelSpec(
        ScalarKernelSpec("se", relative_lengthscale * scale), metric, gram
    )


@pytest.mark.parametrize("kind", ["se", "matern12", "matern32"])
@pytest.mark.parametrize("metric", ["l2grid", "rkhs"])
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), relative_lengthscale=st.floats(0.3, 3.0))
def test_subspace_posterior_equals_posterior_of_candidates(metric, d, kind, seed,
                                                           relative_lengthscale):
    rng = np.random.default_rng(seed)
    earlier = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
    sub = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
    # observations on an earlier subspace lie outside the current span
    points = [
        GridFunction(GRID_1D, candidate_values(s, AcqSearchConfig(), rng.normal(size=(1, d)))[0])
        for s in (earlier, earlier, earlier, sub, sub)
    ]
    se = _metric_kernel(metric, points, relative_lengthscale)
    kernel = FunctionalKernelSpec(ScalarKernelSpec(kind, se.base.lengthscale), metric,
                                  se.rkhs_gram)
    model = rebuild_model(
        kernel, 0.01, [(p, float(rng.standard_normal())) for p in points]
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


@pytest.mark.blas_threads
@settings(max_examples=80, deadline=None)
@given(
    path=st.sampled_from(["l2grid", "rkhs", "line"]),
    kind=st.sampled_from(["se", "matern12", "matern32"]),
    variance=st.floats(0.2, 5.0),
    d=st.integers(1, 3),
    n_points=st.integers(1, 12),
    # 0.3 caps every candidate; 10.0 is the default, which most boxes cannot reach
    l_max=st.sampled_from([0.3, 2.5, 10.0, math.inf]),
    restarts=st.integers(1, 8),
    local_steps=st.integers(1, 40),
    lambda_box=st.floats(0.5, 8.0),
    sqrt_beta=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(path="l2grid", kind="se", variance=1.0, d=2, n_points=6, l_max=10.0, restarts=8,
         local_steps=40, lambda_box=4.0, sqrt_beta=2.0, seed=9)
def test_search_matches_the_reference_bit_for_bit(
    path, kind, variance, d, n_points, l_max, restarts, local_steps, lambda_box, sqrt_beta,
    seed,
):
    """The in-place search returns the allocating reference's exact (lam,
    value), draws the same and leaves the caller's arrays as they were."""
    rng = np.random.default_rng(seed)
    search = AcqSearchConfig(restarts, local_steps, lambda_box, l_max)
    if path == "line":  # a model of d-point functions, queried at raw rows
        kernel = FunctionalKernelSpec(ScalarKernelSpec(kind, 1.0, variance), "l2grid")
        coords = rng.uniform(-lambda_box, lambda_box, size=(n_points, d))
        points = [short_grid_function(*x) for x in coords]
        caller = [coords]
    else:
        gram = (scalar_gram(ScalarKernelSpec("se", 0.3), grid_coordinates(GRID_1D))
                if path == "rkhs" else None)
        kernel = FunctionalKernelSpec(ScalarKernelSpec(kind, 1.0, variance), path, gram)
        earlier = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
        sub = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
        # observations on an earlier subspace lie outside the current span
        points = [
            GridFunction(GRID_1D, candidate_values(s, search, rng.normal(size=(1, d)))[0])
            for s in rng.choice([earlier, sub], n_points)
        ]
        caller = [sub.bias.values] + [h.values for h in sub.basis]
    model = empty_model(kernel, 0.01, points[0].spec, np.geomspace(0.05, 20.0, 5))
    for p in points:
        model = gp.condition(model, p, float(rng.standard_normal()))
    caller += [model.Ws, model.zs, model.MV, model.row_q]
    if path == "line":
        posterior = partial(gp.posterior_batch, model)
        ref_posterior = partial(reference.posterior_batch, model)
    else:
        posterior = subspace_posterior(model, sub, search)
        ref_posterior = reference.subspace_posterior(model, sub, search)
    before = [a.copy() for a in caller]

    lam_rows = rng.uniform(-lambda_box, lambda_box, size=(17, d))
    rows_before = lam_rows.copy()
    for got, ref in zip(posterior(lam_rows), ref_posterior(lam_rows)):
        assert np.array_equal(got, ref)
    assert np.array_equal(lam_rows, rows_before)

    mine, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    lam, value = ucb_search(posterior, d, search, mine, sqrt_beta)
    ref_lam, ref_value = reference.ucb_search(ref_posterior, d, search, theirs, sqrt_beta)
    assert np.array_equal(lam, ref_lam)
    assert value == ref_value
    assert mine.bit_generator.state == theirs.bit_generator.state
    for now, then in zip(caller, before):
        assert np.array_equal(now, then)


def _counting_cap_scale(monkeypatch):
    calls, original = [], acquisition.cap_scale

    def counted(sq_norms, l_max):
        calls.append(len(sq_norms))
        return original(sq_norms, l_max)

    monkeypatch.setattr(acquisition, "cap_scale", counted)
    return calls


@pytest.mark.blas_threads
def test_uncapped_and_capped_searches_match_the_reference(monkeypatch):
    """A search whose box cannot reach l_max skips the cap and returns
    the capped reference's exact (lam, value); one whose norm bound sits
    just above the threshold takes the capped path, also exactly."""
    rng = np.random.default_rng(21)
    d = 2
    earlier = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
    sub = _subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5))
    model = empty_model(SE_L2, 0.01, GRID_1D, np.geomspace(0.05, 20.0, 5))
    for s in (earlier, sub, earlier, sub):
        lam = rng.normal(size=(1, d))
        point = GridFunction(GRID_1D, candidate_values(s, AcqSearchConfig(), lam)[0])
        model = gp.condition(model, point, float(rng.standard_normal()))
    search = AcqSearchConfig()
    # the triangle inequality over the box: no candidate is longer than bound
    bound = l2_norm(sub.bias) + search.lambda_box * sum(l2_norm(h) for h in sub.basis)
    assert bound < (1.0 - 1e-3) * search.l_max
    calls = _counting_cap_scale(monkeypatch)
    for search, skips in ((search, True), (AcqSearchConfig(l_max=bound * (1.0 + 5e-4)), False)):
        calls.clear()
        mine, theirs = np.random.default_rng(22), np.random.default_rng(22)
        lam, value = ucb_search(subspace_posterior(model, sub, search), d, search, mine, 2.0)
        ref_lam, ref_value = reference.ucb_search(
            reference.subspace_posterior(model, sub, search), d, search, theirs, 2.0
        )
        assert np.array_equal(lam, ref_lam)
        assert value == ref_value
        assert len(calls) == (0 if skips else _score_calls(d, search.local_steps))


def _bumpy_score(rng, d):
    """A batched score with several local maxima in the box, and a list
    that records the size of every batch it scores."""
    w = rng.normal(size=(d, 3))
    centre = rng.uniform(-2.0, 2.0, size=d)
    batches = []

    def score(rows):
        batches.append(len(rows))
        return np.cos(rows @ w).sum(axis=-1) - 0.1 * ((rows - centre) ** 2).sum(axis=-1)

    return score, batches


def _score_calls(d, steps):
    """The score calls of a search that takes ``steps`` local steps: the
    seeds', one for each first visit to a coordinate, which scores two
    points per restart, then one per two steps."""
    return 1 + min(steps, d) + math.ceil(max(steps - d, 0) / 2)


def _first_steps(search, steps):
    """The search with only its first ``steps`` local steps, as the
    reference reads it (zero steps included)."""
    return SimpleNamespace(restarts=search.restarts, local_steps=steps,
                           lambda_box=search.lambda_box)


@pytest.mark.blas_threads
@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    restarts=st.integers(1, 8),
    local_steps=st.integers(1, 40),
    level=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, restarts=1, local_steps=2, level=1.0, seed=2)
def test_settled_search_stops_at_the_reference_running_best(d, restarts, local_steps, level,
                                                             seed):
    """A search that settles once its running best reaches a level
    returns the reference's (lam, value) after the same number of local
    steps, having made the score calls of the steps it took."""
    score, batches = _bumpy_score(np.random.default_rng(seed), d)
    search = AcqSearchConfig(restarts, local_steps)
    running = [reference.golden_multistart(score, d, _first_steps(search, k),
                                           np.random.default_rng(seed + 1))
               for k in range(local_steps + 1)]
    bests = [value for _, value in running]
    assert bests == sorted(bests)
    # at level 1 the sum can round above the last best
    threshold = min(bests[0] + level * (bests[-1] - bests[0]), bests[-1])
    stop = next(k for k, best in enumerate(bests) if best >= threshold)
    seen = []
    batches.clear()
    rng = np.random.default_rng(seed + 1)
    lam, value = acquisition.golden_multistart(
        score, d, search, rng, lambda best: seen.append(best) or best >= threshold
    )
    assert np.array_equal(lam, running[stop][0])
    assert value == running[stop][1]
    assert len(batches) == _score_calls(d, stop)
    # checked before every local step, on the running best so far
    assert seen == bests[:min(stop + 1, local_steps)]
    # stopping early moves no draw: the seeds are the only ones
    theirs = np.random.default_rng(seed + 1)
    restart_seeds(search, d, theirs)
    assert rng.bit_generator.state == theirs.bit_generator.state


@pytest.mark.blas_threads
def test_settled_search_batch_counts():
    """settled=True after the seeds scores one batch, the seeds' best;
    no settled, or one that never holds, scores the batches of every step
    to the same result."""
    d, search = 2, AcqSearchConfig(restarts=5, local_steps=12)
    score, batches = _bumpy_score(np.random.default_rng(4), d)
    lam, value = acquisition.golden_multistart(score, d, search, np.random.default_rng(5),
                                               lambda best: True)
    assert len(batches) == 1
    ref_lam, ref_value = reference.golden_multistart(score, d, _first_steps(search, 0),
                                                     np.random.default_rng(5))
    assert np.array_equal(lam, ref_lam) and value == ref_value
    results = []
    for settled in (None, lambda best: False):
        batches.clear()
        results.append(acquisition.golden_multistart(score, d, search,
                                                     np.random.default_rng(5), settled))
        assert len(batches) == _score_calls(d, search.local_steps)
    ref_lam, ref_value = reference.golden_multistart(score, d, search, np.random.default_rng(5))
    for lam, value in results:
        assert np.array_equal(lam, ref_lam) and value == ref_value


@pytest.mark.blas_threads
@pytest.mark.parametrize("local_steps", [1, 2, 3, 40, 41])
@pytest.mark.parametrize("restarts", [1, 2, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_carries_at_every_coordinate_like_the_reference(d, restarts, local_steps):
    """Every d carries: after its first visit, a coordinate's step scores
    one new point per restart, two steps to a call.  Stopped by settled
    before any step, or run to the end, the search returns the
    reference's (lam, value) after as many steps, having made
    1 + d + ceil((steps - d) / 2) score calls for the steps it took (22,
    22 and 23 at d = 1, 2 and 3 with the default 40 steps)."""
    assert [_score_calls(k, 40) for k in (1, 2, 3)] == [22, 22, 23]
    score, batches = _bumpy_score(np.random.default_rng(10 * d + restarts), d)
    search = AcqSearchConfig(restarts, local_steps)
    for stop in range(local_steps + 1):  # settled first holds before step ``stop``
        seen = []
        batches.clear()
        lam, value = acquisition.golden_multistart(
            score, d, search, np.random.default_rng(3),
            lambda best: seen.append(best) is None and len(seen) > stop,
        )
        assert len(batches) == _score_calls(d, stop)
        ref_lam, ref_value = reference.golden_multistart(score, d, _first_steps(search, stop),
                                                         np.random.default_rng(3))
        assert np.array_equal(lam, ref_lam)
        assert value == ref_value
        assert len(seen) == min(stop + 1, local_steps)


def _stacked_equals_slices(posterior, stack):
    """posterior on a (3, q, d) stack returns, slice by slice, the bits of
    its calls on each (q, d) slice alone."""
    stacked = posterior(stack)
    for s in range(len(stack)):
        for got, alone in zip(stacked, posterior(stack[s])):
            assert got.shape == (3, stack.shape[1])
            assert np.array_equal(got[s], alone)


@pytest.mark.blas_threads
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["se", "matern32"])
@pytest.mark.parametrize("path", ["l2grid", "rkhs", "line"])
def test_stacked_queries_equal_their_slices_bit_for_bit(path, kind, d):
    """A d = 1 search scores a (3, q, 1) stack in one call, and the
    posterior takes any (3, q, d) stack; every stage must give each
    slice the bits of a call on that slice alone, on the capped and the
    uncapped subspace path and on raw rows of d-point functions, for
    q = restarts and 2 restarts.  Models grow to 140 points, past the size
    at which OpenBLAS splits W kᵀ over two threads (n² q >= 262 144)."""
    rng = np.random.default_rng(31)
    if path == "line":
        model = empty_model(FunctionalKernelSpec(ScalarKernelSpec(kind, 1.5), "l2grid"), 0.01,
                            GridSpec(1, d))
        points = [short_grid_function(*x) for x in rng.uniform(-4.0, 4.0, size=(140, d))]
    else:
        gram = (scalar_gram(ScalarKernelSpec("se", 0.3), grid_coordinates(GRID_1D))
                if path == "rkhs" else None)
        subs = [_subspace(rng, d=d, bias=random_grid_function(rng, scale=0.5)) for _ in range(5)]
        sub = subs[-1]
        points = [GridFunction(GRID_1D, candidate_values(subs[i % 5], AcqSearchConfig(),
                                                         rng.normal(size=(1, d)))[0])
                  for i in range(140)]
        kernel = _metric_kernel(path, points[:20], 1.0)
        model = empty_model(FunctionalKernelSpec(ScalarKernelSpec(kind, kernel.base.lengthscale),
                                                 path, gram), 0.01, GRID_1D)
        uncapped = candidate_values(sub, AcqSearchConfig(l_max=np.inf),
                                    rng.uniform(-4.0, 4.0, size=(64, d)))
        norms = np.sqrt(np.einsum("ij,ij->i", uncapped, uncapped) * GRID_1D.weight)
        searches = (AcqSearchConfig(l_max=np.inf), AcqSearchConfig(l_max=float(np.median(norms))))
    for size, p in enumerate(points, start=1):
        model = gp.condition(model, p, float(rng.standard_normal()))
        if size not in (1, 2, 17, 64, 128, 140):
            continue
        if path == "line":
            posteriors = [partial(gp.posterior_batch, model)]
        else:
            posteriors = [subspace_posterior(model, sub, search) for search in searches]
        for restarts in (1, 3, 8):
            for q in (restarts, 2 * restarts):
                stack = rng.uniform(-4.0, 4.0, size=(3, q, d))
                for posterior in posteriors:
                    _stacked_equals_slices(posterior, stack)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_textbook_and_two_point_searches_agree_on_2d_grid_models(seed):
    """The textbook search carries each winner's score, which the
    two-point search recomputes at a point that differs in the last bits;
    on models of a 2-d grid run, at d = 1, both return the same value to
    within 1e-9."""
    grid = GridSpec(2, 20)
    rng = np.random.default_rng(40 + seed)
    kappa = ScalarKernelSpec("se", 0.3)
    target = gp.sample_on_grid(kappa, grid, rng)
    kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "l2grid")
    model = empty_model(kernel, 1e-4, grid, np.geomspace(0.01, 10.0, 17))
    bias = GridFunction(grid, np.zeros(grid.size))
    search = AcqSearchConfig()
    for s in range(3):
        sub = Subspace(s, bias, (gp.sample_on_grid(kappa, grid, rng),))
        for t in range(10):
            if t < 5:
                lam = rng.standard_normal(1)
            else:
                sqrt_beta = math.sqrt(beta(UcbSchedule(0.1, 1), t - 4))
                posterior = subspace_posterior(model, sub, search)
                lam, value = ucb_search(posterior, 1, search, np.random.default_rng(t), sqrt_beta)
                ref_lam, ref_value = reference.ucb_search(
                    posterior, 1, search, np.random.default_rng(t), sqrt_beta,
                    reference.two_point_golden_multistart,
                )
                assert abs(value - ref_value) <= 1e-9
            g = GridFunction(grid, candidate_values(sub, search, lam[None, :])[0])
            y = -math.sqrt(float(np.sum((g.values - target.values) ** 2)) * grid.weight)
            model = gp.condition(model, g, y)
        bias = g

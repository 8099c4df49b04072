import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_1D, random_grid_function
from funcbo import acquisition, bench, gp, kernels, optimizer
from funcbo.acquisition import AcqSearchConfig, candidate_values
from funcbo.errors import ConfigError, InputError, ProtocolError, ShapeError
from funcbo.gridfn import GridFunction, GridSpec, l2_dist_sq
from funcbo.kernels import FunctionalKernelSpec, ScalarKernelSpec
from funcbo.objectives import EffectiveDimObjective, MatchingObjective
from funcbo.optimizer import (
    ALGORITHMS,
    BernsteinLineEngine,
    OptConfig,
    RandomSearchEngine,
    Subspace,
    SubspaceSearchEngine,
    bernstein_matrix,
    make_engine,
    rng_streams,
    run_fixed_subspace,
    run_linebo_bernstein,
    run_random_search,
    run_s3bfo,
    simple_regret_err,
)
from reference import (
    biased_posterior_equivalence_check,
    log_marginal_likelihood,
    rebuild_model,
    zeros,
)

KAPPA = ScalarKernelSpec("se", 0.3)


def _cfg(**kw):
    base = dict(grid=GRID_1D, kappa=KAPPA, seed=0, S=2, T=3, n_init=2)
    base.update(kw)
    return OptConfig(**base)


def _match_obj(noise=0.01, gamma=0.3, seed=123):
    return MatchingObjective.from_kernel(
        GRID_1D, ScalarKernelSpec("se", gamma), seed=seed, noise=noise
    )


class NegNormObjective:
    """Noiseless f(g) = -||g||^2 under the grid quadrature."""

    def evaluate(self, g, rng):
        return -l2_dist_sq(g, zeros(g.spec))


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(S=0)
    with pytest.raises(ConfigError):
        _cfg(termination="sometimes")
    with pytest.raises(ConfigError):
        _cfg(k_lengthscale=-1.0)
    with pytest.raises(ConfigError):
        _cfg(k_kind="linear")
    with pytest.raises(ConfigError):
        _cfg(noise_sigma=0.0)
    with pytest.raises(ConfigError):
        _cfg(mle_grid_min=0.5, mle_grid_max=0.1)
    # the acquisition and model checks run for every algorithm's config
    with pytest.raises(ConfigError, match="delta"):
        _cfg(acq_delta=1.5)
    with pytest.raises(ConfigError, match="restarts"):
        bench.build_opt_config(bench.parse_config_lines(["acq.restarts = 0"]))
    with pytest.raises(ConfigError, match="mle.grid_min.*normal float"):
        _cfg(mle_grid_min=1e-160)
    # the model-size check counts the MLE candidates without building them
    with pytest.raises(ConfigError, match="mle.grid_points"):
        make_engine(_cfg(mle_grid_points=10**12), "s3bfo")
    # the squared noise level must not overflow or underflow
    for sigma in (1e200, 1e-160):
        with pytest.raises(ConfigError, match="noise.sigma.*normal float"):
            _cfg(noise_sigma=sigma)


def test_config_check_builds_only_functional_models(monkeypatch):
    """A config validates its candidate lengthscales on an empty model of
    functions, the only kind an engine builds, on every build and replace;
    a bad value still names its key."""
    kernels_seen, original = [], gp.empty_model

    def recording(kernel, *args, **kwargs):
        kernels_seen.append(kernel)
        return original(kernel, *args, **kwargs)

    monkeypatch.setattr(gp, "empty_model", recording)
    cfg = _cfg(k_kind="matern32")
    replace(cfg, k_lengthscale=0.5)
    with pytest.raises(ConfigError, match="bad value for 'K.lengthscale'"):
        replace(cfg, k_lengthscale=1e-160)
    assert len(kernels_seen) == 3
    assert all(isinstance(k, FunctionalKernelSpec) for k in kernels_seen)


def test_budget_accounting_minimal():
    cfg = _cfg(S=1, T=1, n_init=1)
    best, trace = run_s3bfo(_match_obj(), cfg)
    assert len(trace) == 2
    assert trace[-1].best_y == max(r.y for r in trace)
    assert [r.t for r in trace] == [-1, 0]


def test_best_y_never_decreases_noiseless():
    cfg = _cfg(S=2, T=4, n_init=2)
    _, trace = run_s3bfo(NegNormObjective(), cfg)
    best = [r.best_y for r in trace]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert all(r.best_y == max(t.y for t in trace[: r.eval_index + 1]) for r in trace)


def test_default_protocol_budget_is_140():
    cfg = _cfg(d=1, n_init=5, S=4, T=30)
    assert cfg.budget == 140
    # counted for real in the acceptance suite; here trust budget math on
    # a scaled-down run
    _, trace = run_s3bfo(_match_obj(), _cfg(d=1, n_init=5, S=2, T=6))
    assert len(trace) == 2 * (5 + 6)


def test_bitwise_determinism_all_runners():
    obj = _match_obj()
    for runner in (run_s3bfo, run_linebo_bernstein, run_random_search):
        cfg = _cfg(S=2, T=2, n_init=2, seed=11)
        _, t1 = runner(obj, cfg)
        _, t2 = runner(obj, cfg)
        assert t1 == t2  # RunRecord equality is exact float equality


def test_incumbent_threading():
    cfg = _cfg(S=3, T=3, n_init=2, seed=5)
    obj = _match_obj()
    dec, noise = rng_streams(cfg.seed)
    eng = SubspaceSearchEngine(cfg, dec)
    my_best_y, my_best_g = None, np.zeros(GRID_1D.size)
    seen_outer = set()
    while not eng.done:
        g = eng.ask()
        s = eng.pending[1]
        if s not in seen_outer:
            seen_outer.add(s)
            np.testing.assert_array_equal(eng.subspace.bias.values, my_best_g)
        y = obj.evaluate(g, noise)
        eng.tell(y, obj.aux(g))
        if my_best_y is None or y > my_best_y:
            my_best_y, my_best_g = y, g.values
    assert seen_outer == {0, 1, 2}


@pytest.mark.parametrize("k_lengthscale", [0.7, "mle"])
def test_model_matches_from_scratch_rebuild(k_lengthscale):
    cfg = _cfg(S=2, T=5, n_init=3, seed=6, k_lengthscale=k_lengthscale)
    obj = _match_obj()
    dec, noise = rng_streams(cfg.seed)
    eng = SubspaceSearchEngine(cfg, dec)
    rng = np.random.default_rng(0)
    probes = [random_grid_function(rng) for _ in range(3)]
    candidates = (
        np.geomspace(cfg.mle_grid_min, cfg.mle_grid_max, cfg.mle_grid_points)
        if k_lengthscale == "mle"
        else [k_lengthscale]
    )
    count = checked = 0
    obs = []  # the subspace engine's model sees every evaluation
    while not eng.done:
        g = eng.ask()
        y = obj.evaluate(g, noise)
        eng.tell(y, obj.aux(g))
        count += 1
        obs.append((g, y))
        assert eng.model.n == len(obs) == count
        if k_lengthscale == "mle":
            lml = {
                float(c): log_marginal_likelihood(
                    rebuild_model(eng.model.kernel.with_lengthscale(float(c)),
                                  cfg.noise_sq, obs)
                )
                for c in candidates
            }
            best = max(lml.values())
            near = [c for c, v in lml.items() if best - v <= 1e-9]
            if len(near) == 1:  # near-ties may go either way by rounding
                assert eng.model.kernel.base.lengthscale == near[0]
                checked += 1
        if count % 10 == 0:
            rebuilt = rebuild_model(eng.model.kernel, cfg.noise_sq, obs)
            for p in probes:
                m1, v1 = gp.posterior(eng.model, p)
                m2, v2 = gp.posterior(rebuilt, p)
                assert m1 == pytest.approx(m2, abs=1e-6)
                assert v1 == pytest.approx(v2, abs=1e-6)
    assert count == cfg.budget
    assert checked >= (cfg.budget // 2 if k_lengthscale == "mle" else 0)


def test_rkhs_mle_run_validates_gram_once(monkeypatch):
    calls = []
    validate = kernels._validate_psd
    monkeypatch.setattr(kernels, "_validate_psd", lambda gram: calls.append(1) or validate(gram))
    cfg = _cfg(S=2, T=6, n_init=2, k_metric="rkhs", k_lengthscale="mle")
    _, trace = run_s3bfo(_match_obj(), cfg)
    assert len(trace) == 16
    assert len(calls) == 1


def test_posterior_equivalence_at_inner_loop_starts():
    cfg = _cfg(S=3, T=2, n_init=2, seed=7, k_lengthscale=0.8)
    obj = _match_obj()
    dec, noise = rng_streams(cfg.seed)
    eng = SubspaceSearchEngine(cfg, dec)
    rng = np.random.default_rng(1)
    probes = [random_grid_function(rng) for _ in range(3)]
    checked = 0
    obs = []  # the subspace engine's model sees every evaluation
    while not eng.done:
        g = eng.ask()
        kind, s, t = eng.pending[:3]
        if kind == "inner" and t == 0 and s >= 1:
            assert eng.model.n == len(obs)
            prev = [o for o, r in zip(obs, eng.trace) if r.s < s]
            cur = [o for o, r in zip(obs, eng.trace) if r.s == s]
            assert biased_posterior_equivalence_check(
                eng.model.kernel, cfg.noise_sq, prev, cur, probes, tol=1e-6
            )
            checked += 1
        y = obj.evaluate(g, noise)
        eng.tell(y, obj.aux(g))
        obs.append((g, y))
    assert checked == 2  # inner starts of s = 1, 2


@pytest.mark.parametrize(
    "engine_cls, grid",
    [(SubspaceSearchEngine, GridSpec(2, 40)), (BernsteinLineEngine, GRID_1D)],
    ids=["subspace", "linebo"],
)
def test_inner_step_scores_in_coordinates(monkeypatch, engine_cls, grid):
    cfg = _cfg(grid=grid, S=1, T=2, n_init=2)
    eng = engine_cls(cfg)
    rng = np.random.default_rng(3)
    for _ in range(cfg.n_init):
        eng.ask()
        eng.tell(float(rng.standard_normal()))
    rows, widths = [], []

    def counted_values(subspace, search, lam_batch):
        rows.append(np.atleast_2d(lam_batch).shape[0])
        return candidate_values(subspace, search, lam_batch)

    def counted_posterior(model, Q):
        widths.append(np.shape(Q)[-1])
        return posterior_batch(model, Q)

    posterior_batch = gp.posterior_batch
    monkeypatch.setattr(acquisition, "candidate_values", counted_values)
    monkeypatch.setattr(gp, "posterior_batch", counted_posterior)
    g = eng.ask()
    assert eng.pending[:3] == ("inner", 0, 0)
    # the search maps only its pick to grid values, and queries no raw rows:
    # it scores through subspace_posterior
    assert rows == [1]
    assert widths == []
    expected = candidate_values(eng.subspace, eng._search, eng.pending[3][None, :])[0]
    np.testing.assert_array_equal(g.values, expected)


def test_simple_regret_constant_posterior():
    # data so far away in kernel distance that the posterior is the prior
    kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 0.01), "l2grid")
    far = GridFunction(GRID_1D, np.full(GRID_1D.size, 100.0))
    model = rebuild_model(kernel, 0.01, [(far, 1.0)])
    rng = np.random.default_rng(2)
    basis = tuple(gp.sample_on_grid(KAPPA, GRID_1D, rng) for _ in range(1))
    sub = Subspace(0, zeros(GRID_1D), basis)
    err = simple_regret_err(model, sub, zeros(GRID_1D))
    assert err == pytest.approx(2.0, abs=1e-9)


def test_simple_regret_nonnegative_and_matches_dense_scan():
    rng = np.random.default_rng(3)
    basis = tuple(gp.sample_on_grid(KAPPA, GRID_1D, rng) for _ in range(1))
    sub = Subspace(0, zeros(GRID_1D), basis)
    search = AcqSearchConfig()
    obs = []
    kernel = FunctionalKernelSpec(ScalarKernelSpec("se", 0.5), "l2grid")
    for lam in (-1.0, 0.4, 2.2):
        row = candidate_values(sub, search, np.array([[lam]]))[0]
        obs.append((GridFunction(GRID_1D, row), float(rng.standard_normal())))
    model = rebuild_model(kernel, 0.01, obs)
    incumbent = obs[1][0]  # feasible: lies in the subspace
    err = simple_regret_err(model, sub, incumbent, search)
    grid = np.linspace(-search.lambda_box, search.lambda_box, 1024)[:, None]
    rows = candidate_values(sub, search, grid)
    means, variances = gp.posterior_batch(model, rows)
    m_inc, v_inc = gp.posterior(model, incumbent)
    dense_err = float((means + np.sqrt(variances)).max()) - (m_inc - math.sqrt(v_inc))
    assert err >= -1e-9
    assert err == pytest.approx(dense_err, abs=1e-3)


def test_simple_regret_shrinks_over_inner_run():
    # pinned regression: on a noiseless smooth objective the certificate
    # collapses by the end of a 30-step inner loop; transient increases
    # stay below 0.1 (new data can briefly lift the posterior mean)
    for seed in range(5):
        obj = MatchingObjective.from_kernel(
            GRID_1D, ScalarKernelSpec("se", 1.0), seed=123, noise=0.0
        )
        cfg = _cfg(
            kappa=ScalarKernelSpec("se", 1.0),
            seed=seed,
            S=1,
            T=30,
            n_init=5,
            k_lengthscale=0.5,
        )
        dec, noise = rng_streams(cfg.seed)
        eng = SubspaceSearchEngine(cfg, dec)
        errs = []
        while not eng.done:
            g = eng.ask()
            rec = eng.tell(obj.evaluate(g, noise), obj.aux(g))
            if rec.t >= 0:
                errs.append(
                    simple_regret_err(
                        eng.model,
                        eng.subspace,
                        eng._outer_best[0],
                        eng._search,
                    )
                )
        assert errs[-1] < 0.01
        assert errs[-1] < errs[0]
        assert max(b - a for a, b in zip(errs, errs[1:])) < 0.1


def test_linebo_regret_certificate_matches_dense_scan():
    # the line baseline maximises, so its certificate is max UCB over the
    # line minus the LCB at the line's best function, as for subspaces
    for seed in range(2):
        cfg = _cfg(S=1, T=8, n_init=2, seed=seed, termination="regret", epsilon=1e-12)
        dec, noise = rng_streams(cfg.seed)
        eng = BernsteinLineEngine(cfg, dec)
        obj = _match_obj()
        checked, evaluated = 0, []  # (y, function) of the line so far
        while not eng.done:
            kind, s, _ = eng._position()
            if kind == "inner":
                best = max(evaluated, key=lambda pair: pair[0])[1]
                box = eng._search.lambda_box
                thetas = np.linspace(-box, box, 4001)[:, None]
                rows = candidate_values(eng.subspace, eng._search, thetas)
                means, variances = gp.posterior_batch(eng.model, rows)
                m_inc, v_inc = gp.posterior(eng.model, best)
                dense = float((means + np.sqrt(variances)).max()) - (m_inc - math.sqrt(v_inc))
                err = simple_regret_err(eng.model, eng.subspace, eng._outer_best[0], eng._search)
                assert err == pytest.approx(dense, abs=1e-3)
                checked += 1
            g = eng.ask()
            y = obj.evaluate(g, noise)
            eng.tell(y, obj.aux(g))
            evaluated.append((y, g))
        assert checked == cfg.T


@pytest.mark.parametrize("termination", ["budget", "regret"])
def test_linebo_models_the_functions_it_evaluates(termination):
    # at l_max = 0.5 the norm cap pulls many picks off the line, and each
    # observation's model row is still the function evaluated: under
    # l2grid the metric rows are the functions' grid values
    cfg = _cfg(S=3, T=8, n_init=2, seed=1, termination=termination, epsilon=1e-3,
               search=AcqSearchConfig(l_max=0.5))
    eng = BernsteinLineEngine(cfg)
    obj, noise = _match_obj(), np.random.default_rng(0)
    line, capped = [], 0
    while not eng.done:
        g = eng.ask()
        kind, s, _, lam, _ = eng.pending
        on_line = eng.subspace.bias.values + lam[0] * eng.subspace.basis[0].values
        capped += kind == "inner" and np.sum(on_line**2) * g.spec.weight > 0.5**2
        if not eng.trace or eng.trace[-1].s != s:  # a new line, a new model
            line = []
        line.append(g.values)
        eng.tell(obj.evaluate(g, noise))
        assert eng.model.MV.shape == (len(line), cfg.grid.size)
        np.testing.assert_array_equal(eng.model.MV, np.array(line))
    assert capped > 0


def test_regret_termination_can_stop_inner_loop_early():
    cfg = _cfg(S=2, T=5, n_init=2, termination="regret", epsilon=100.0)
    _, trace = run_s3bfo(_match_obj(), cfg)
    # certificate starts below the huge epsilon: no inner steps at all
    assert len(trace) == 2 * 2
    assert all(r.t == -1 for r in trace)
    cfg_tight = _cfg(S=1, T=4, n_init=2, termination="regret", epsilon=1e-12)
    _, trace2 = run_s3bfo(_match_obj(), cfg_tight)
    assert len(trace2) == 6  # epsilon unreachable: the T cap fires


@st.composite
def _sizes(draw):
    """S, n_init and T of a run of S (n_init + T) <= 12 evaluations."""
    S, n_init = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return dict(S=S, n_init=n_init, T=draw(st.integers(1, 12 // S - n_init)))


def _done_twice(eng, calls):
    """eng.done, checked to be a pure read once its certificate is cached."""
    pending, done = eng.pending, eng.done
    before = len(calls)
    assert eng.done == done and len(calls) == before and eng.pending is pending
    return done


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    termination=st.sampled_from(("budget", "regret")),
    epsilon=st.sampled_from((1e-12, 0.3, 100.0)),
    sizes=_sizes(),
    seed=st.integers(0, 3),
)
def test_trace_follows_the_run_schedule(algorithm, termination, epsilon, sizes, seed):
    cfg = _cfg(termination=termination, epsilon=epsilon, seed=seed, k_lengthscale=0.7, **sizes)
    eng = make_engine(cfg, algorithm)
    S, T, n_init = eng.cfg.S, cfg.T, cfg.n_init  # fixed_subspace runs S = 1
    calls, real = [], optimizer.simple_regret_err
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "simple_regret_err",
                      lambda *a, **k: calls.append(1) or real(*a, **k))
        while not _done_twice(eng, calls):
            eng.ask()
            _done_twice(eng, calls)
            eng.tell(float(rng.standard_normal()))
    pairs = [(r.s, r.t) for r in eng.trace]
    if algorithm == "random_search":
        assert pairs == [(i, -1) for i in range(cfg.budget)]
        return
    full = [(s, t) for s in range(S) for t in [-1] * n_init + list(range(T))]
    if termination == "budget":
        assert pairs == full
        return
    # each outer iteration: its initial design, then contiguous inner steps
    assert [s for s, _ in pairs] == sorted(s for s, _ in pairs)
    assert {s for s, _ in pairs} == set(range(S))
    for s in range(S):
        ts = [t for s2, t in pairs if s2 == s]
        k = len(ts) - n_init
        assert 0 <= k <= T and ts == [-1] * n_init + list(range(k))


@st.composite
def _inner_stop(draw):
    """Sizes of a run of S (n_init + T) <= 12 evaluations, and which of
    its S T inner positions to stop at."""
    sizes = draw(_sizes())
    return sizes, draw(st.integers(0, sizes["S"] * sizes["T"] - 1))


@pytest.mark.blas_threads
@settings(max_examples=30, deadline=None)
@given(
    algorithm=st.sampled_from(("s3bfo", "linebo_bernstein")),
    stop=_inner_stop(),
    seed=st.integers(0, 3),
)
def test_settled_certificate_makes_the_full_decision(algorithm, stop, seed):
    """At an inner position of a regret engine, the certificate that
    settles at epsilon is below epsilon exactly when the full one is;
    below it, it is the full one bit for bit, and above it no more."""
    sizes, inner = stop
    # a regret engine whose epsilon no certificate reaches runs every inner step
    cfg = _cfg(termination="regret", epsilon=1e-300, seed=seed, k_lengthscale=0.7, **sizes)
    eng = make_engine(cfg, algorithm)
    rng = np.random.default_rng(seed)
    while eng._position()[0] != "inner" or inner > 0:
        inner -= eng._position()[0] == "inner"
        eng.ask()
        eng.tell(float(rng.standard_normal()))
    args = (eng.model, eng.subspace, eng._outer_best[0], eng._search)
    full = simple_regret_err(*args)
    for epsilon in (1e-12, 0.01, 0.3, 100.0):
        settled = simple_regret_err(*args, settle_at=epsilon)
        assert (settled < epsilon) == (full < epsilon)
        if settled < epsilon:
            assert settled.hex() == full.hex()
        else:
            assert settled <= full


def test_bernstein_matrix_properties():
    x = np.linspace(0, 1, 33)
    B = bernstein_matrix(10, x)
    assert B.shape == (11, 33)
    np.testing.assert_allclose(B.sum(axis=0), 1.0, atol=1e-12)  # partition of unity
    at_zero = bernstein_matrix(10, np.array([0.0]))[:, 0]
    np.testing.assert_allclose(at_zero, np.eye(11)[0], atol=1e-15)
    at_one = bernstein_matrix(10, np.array([1.0]))[:, 0]
    np.testing.assert_allclose(at_one, np.eye(11)[10], atol=1e-15)


def test_linebo_zero_weights_give_zero_function():
    cfg = _cfg(S=1, T=1, n_init=1, seed=1)
    dec, _ = rng_streams(cfg.seed)
    eng = BernsteinLineEngine(cfg, dec)
    # the first suggestion lies on a line through the zero incumbent
    g = eng.ask()
    theta = eng.pending[3][0]
    direction = eng.subspace.basis[0].values
    assert not eng.subspace.bias.values.any()
    np.testing.assert_allclose(g.values, theta * direction, atol=1e-12)
    # the direction is a unit vector of Bernstein weights mapped to the grid
    weights = np.linalg.lstsq(eng._B.T, direction, rcond=None)[0]
    np.testing.assert_allclose(weights @ eng._B, direction, atol=1e-12)
    assert np.linalg.norm(weights) == pytest.approx(1.0, abs=1e-9)


def test_linebo_line_passes_through_incumbent():
    cfg = _cfg(S=2, T=1, n_init=1, seed=4)
    eng = BernsteinLineEngine(cfg)
    obj, noise = _match_obj(), np.random.default_rng(0)
    for _ in range(cfg.n_init + cfg.T):  # the first line
        g = eng.ask()
        eng.tell(obj.evaluate(g, noise))
    # the second line starts at the best function of the first
    g = eng.ask()
    assert eng.pending[:3] == ("init", 1, -1)
    best = eng.best[0].values
    assert best.any()
    np.testing.assert_array_equal(eng.subspace.bias.values, best)
    theta = eng.pending[3][0]
    np.testing.assert_allclose(g.values, best + theta * eng.subspace.basis[0].values, atol=1e-12)


def test_linebo_budget_and_monotone():
    cfg = _cfg(S=2, T=3, n_init=2, seed=2)
    _, trace = run_linebo_bernstein(_match_obj(), cfg)
    assert len(trace) == cfg.budget
    best = [r.best_y for r in trace]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert {r.s for r in trace} == {0, 1}


def _caps_after_each_tell(engine):
    """The model's (points, capacity) after each tell of a run to the end."""
    obj, noise_rng, caps = _match_obj(), rng_streams(engine.cfg.seed)[1], []
    while not engine.done:
        engine.tell(obj.evaluate(engine.ask(), noise_rng))
        caps.append((engine.model.n, engine.model.zs.shape[1]))
    return caps


@pytest.mark.parametrize("algorithm", ["s3bfo", "fixed_subspace"])
def test_budget_run_reserves_its_model_at_the_first_tell(algorithm):
    engine = make_engine(_cfg(S=2, T=15, n_init=3), algorithm)
    caps = _caps_after_each_tell(engine)
    assert len(caps) == engine.cfg.budget > 16
    assert caps == [(n, engine.cfg.budget) for n in range(1, engine.cfg.budget + 1)]


@pytest.mark.parametrize("algorithm, termination", [
    ("s3bfo", "regret"),  # it ends at a step it cannot know
    ("linebo_bernstein", "budget"),  # each line's model holds only that line's points
])
def test_unreserved_model_grows_by_16(algorithm, termination):
    engine = make_engine(_cfg(S=2, T=15, n_init=3, termination=termination, epsilon=1e-12),
                         algorithm)
    caps = _caps_after_each_tell(engine)
    assert max(n for n, _ in caps) > 16
    assert caps == [(n, 16 * math.ceil(n / 16)) for n, _ in caps]


@pytest.mark.blas_threads
@pytest.mark.parametrize("algorithm", ["s3bfo", "fixed_subspace"])
def test_reserved_budget_run_is_bit_identical_to_a_growing_one(monkeypatch, algorithm):
    cfg = _cfg(S=2, T=15, n_init=3, seed=5)
    best, trace = optimizer.RUNNERS[algorithm](_match_obj(), cfg)
    budget = make_engine(cfg, algorithm).cfg.budget
    empty_model, dropped = gp.empty_model, []
    monkeypatch.setattr(gp, "empty_model",
                        lambda *args, reserve=0: dropped.append(reserve) or empty_model(*args))
    grown_best, grown_trace = optimizer.RUNNERS[algorithm](_match_obj(), cfg)
    assert budget in dropped  # the engine asked for its reserve, and did not get it
    assert trace == grown_trace
    assert np.array_equal(best[0].values, grown_best[0].values) and best[1] == grown_best[1]


def test_linebo_needs_1d_grid():
    with pytest.raises(ConfigError):
        BernsteinLineEngine(_cfg(grid=GridSpec(2, 10)))


def test_fixed_subspace_equals_s3bfo_with_s1():
    obj = _match_obj()
    cfg = _cfg(S=3, T=3, n_init=2, seed=9)
    _, t_fixed = run_fixed_subspace(obj, cfg)
    _, t_s1 = run_s3bfo(obj, replace(cfg, S=1))
    assert t_fixed == t_s1
    assert len(t_fixed) == 1 * (2 + 3)


def test_fixed_subspace_solves_matched_effective_dimension():
    # pinned: with d = d_e the single random subspace reaches within 0.05
    # of the optimum (value 0) in at most 80 evaluations on seeds 0..4
    obj = EffectiveDimObjective.random_directions(
        GRID_1D, KAPPA, [0.5, -0.3], seed=99, noise=0.0
    )
    for seed in range(5):
        cfg = _cfg(d=2, S=1, T=75, n_init=5, seed=seed)
        _, trace = run_fixed_subspace(obj, cfg)
        assert len(trace) <= 80
        assert trace[-1].best_y >= -0.05


def test_random_search_budget_monotone_and_indices():
    cfg = _cfg(S=2, T=3, n_init=2, seed=10)
    _, trace = run_random_search(_match_obj(), cfg)
    assert len(trace) == cfg.budget
    best = [r.best_y for r in trace]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    # each step draws its own fresh subspace
    assert [r.s for r in trace] == list(range(cfg.budget))
    assert all(r.t == -1 for r in trace)


def test_nonfinite_objective_value_aborts():
    class BadObjective:
        def evaluate(self, g, rng):
            return float("nan")

    with pytest.raises(InputError):
        run_s3bfo(BadObjective(), _cfg(S=1, T=1, n_init=1))


def test_ask_tell_protocol_guards():
    cfg = _cfg(S=1, T=1, n_init=1)
    eng = SubspaceSearchEngine(cfg)
    with pytest.raises(ProtocolError):
        eng.tell(0.0)
    eng.ask()
    with pytest.raises(ProtocolError):
        eng.ask()
    eng.tell(0.5)
    eng.ask()
    eng.tell(0.25)
    assert eng.done
    with pytest.raises(ProtocolError):
        eng.ask()


def test_se_prior_on_2d_grid_builds_no_dense_gram(monkeypatch):
    # the s3bfo basis and the matching target on a 40 x 40 grid factor
    # the SE prior per axis: no gram may have more rows than one axis
    grid = GridSpec(2, 40)
    gram = kernels.scalar_gram

    def axis_sized_gram(spec, coords):
        rows = np.atleast_2d(coords).shape[0]
        assert rows <= grid.points_per_axis, f"{rows}-row prior gram on a {grid}"
        return gram(spec, coords)

    monkeypatch.setattr(kernels, "scalar_gram", axis_sized_gram)
    gp._prior_chol.cache_clear()
    obj = MatchingObjective.from_kernel(grid, ScalarKernelSpec("se", 0.3), seed=123, noise=0.01)
    engine = make_engine(_cfg(grid=grid), "s3bfo")
    g = engine.ask()
    assert g.spec == grid and np.isfinite(obj.evaluate(g, np.random.default_rng(0)))


def test_make_engine_dispatch():
    cfg = _cfg()
    assert isinstance(make_engine(cfg, "s3bfo"), SubspaceSearchEngine)
    assert isinstance(make_engine(cfg, "random_search"), RandomSearchEngine)
    line = make_engine(replace(cfg, d=3), "linebo_bernstein")
    assert isinstance(line, BernsteinLineEngine) and line.cfg.d == 1
    fixed = make_engine(cfg, "fixed_subspace")
    assert isinstance(fixed, SubspaceSearchEngine) and fixed.cfg.S == 1
    with pytest.raises(ConfigError):
        make_engine(cfg, "grid_search")


def test_subspace_validation():
    rng = np.random.default_rng(11)
    with pytest.raises(InputError):
        Subspace(0, zeros(GRID_1D), ())
    with pytest.raises(InputError):
        Subspace(0, zeros(GRID_1D), (random_grid_function(rng, GridSpec(1, 50)),))


_L2 = FunctionalKernelSpec(ScalarKernelSpec("se", 0.5), "l2grid")


def _conditioned(kernel, *points):
    model = gp.empty_model(kernel, 0.01, GRID_1D)
    for point in points:
        model = gp.condition(model, point, 0.5)
    return model


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: gp.condition(gp.empty_model(_L2, 0.01, GRID_1D), zeros(GRID_1D),
                                      math.nan), InputError, id="condition-nan-value"),
    pytest.param(lambda: _conditioned(_L2, np.zeros(GRID_1D.size)), InputError,
                 id="condition-functional-model-on-an-array"),
    pytest.param(lambda: _conditioned(_L2, zeros(GRID_1D), zeros(GridSpec(1, 50))), ShapeError,
                 id="condition-functional-model-on-another-grid"),
    pytest.param(lambda: gp.empty_model(ScalarKernelSpec("se", 1.0), 0.01, GRID_1D), InputError,
                 id="empty-model-of-a-scalar-kernel"),
    pytest.param(lambda: gp.posterior_batch(_conditioned(_L2, zeros(GRID_1D)), np.zeros((2, 50))),
                 ShapeError, id="posterior-batch-rows-of-another-width"),
    pytest.param(lambda: gp.posterior_batch(gp.empty_model(_L2, 0.01, GRID_1D), np.ones((2, 7))),
                 ShapeError, id="posterior-batch-on-an-empty-model-rows-of-another-width"),
    pytest.param(lambda: gp.empty_model(FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "rkhs",
                                                             np.eye(5)), 0.01, GRID_1D),
                 ShapeError, id="empty-model-rkhs-gram-of-another-size"),
    pytest.param(lambda: gp.empty_model(_L2, 0.0, GRID_1D), InputError,
                 id="empty-model-zero-noise"),
    pytest.param(lambda: FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "sobolev"),
                 InputError, id="functional-kernel-unknown-metric"),
    pytest.param(lambda: FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "rkhs",
                                              np.ones((2, 3))),
                 ShapeError, id="functional-kernel-non-square-gram"),
    pytest.param(lambda: FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "l2grid", np.eye(3)),
                 InputError, id="functional-kernel-gram-under-l2grid"),
    pytest.param(lambda: kernels.value_from_sqdist(ScalarKernelSpec("linear", 1.0), np.zeros(3)),
                 InputError, id="kernel-value-of-linear"),
    pytest.param(lambda: MatchingObjective(zeros(GRID_1D), noise=-1), InputError,
                 id="matching-objective-negative-noise"),
    pytest.param(lambda: OptConfig(seed=2**64), ConfigError, id="opt-config-seed-over-64-bits"),
    pytest.param(lambda: OptConfig(mle_grid_points=0), ConfigError,
                 id="opt-config-no-mle-candidates"),
    pytest.param(lambda: simple_regret_err(
        gp.empty_model(_L2, 0.01, GRID_1D),
        Subspace(0, zeros(GRID_1D), (random_grid_function(np.random.default_rng(0)),)),
        zeros(GRID_1D)), InputError, id="certificate-on-an-empty-model"),
])
def test_library_rejections_raise_their_error(build, error):
    with pytest.raises(error):
        build()

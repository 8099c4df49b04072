"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The heavy benchmark runs are shared through a session fixture so the
whole suite stays inside the stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from conftest import GRID_1D, random_grid_function
from funcbo import bench, gp
from funcbo.gridfn import GridFunction, grid_coordinates, read_function_csv
from funcbo.kernels import FunctionalKernelSpec, ScalarKernelSpec, scalar_gram
from funcbo.objectives import (
    EffectiveDimObjective,
    MatchingObjective,
    lemma1_intersection_estimate,
)
from funcbo.optimizer import RUNNERS, rng_streams
from reference import biased_posterior_equivalence_check, functional_eval, rebuild_model

PROTOCOL = """
grid.dim = 1
grid.points_per_axis = 100
opt.d = 1
opt.n_init = 5
opt.S = 4
opt.T = 30
opt.seed = 0
K.lengthscale = mle
objective.kind = match
objective.target_seed = 123
objective.noise = 0.01
bench.repeats = 5
bench.base_seed = 0
"""


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _protocol_values(gamma: float, algorithms: str) -> dict:
    text = PROTOCOL + (
        f"kappa.lengthscale = {gamma}\n"
        f"objective.target_lengthscale = {gamma}\n"
        f"bench.algorithms = {algorithms}\n"
    )
    return bench.parse_config_lines(text.splitlines())


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    """The qualitative-trend study: 5 repeats of the full protocol for
    three target lengthscales, baselines included at 0.3."""
    out = tmp_path_factory.mktemp("trend")
    start = time.time()
    results = {
        0.3: bench.run_bench(
            _protocol_values(0.3, "s3bfo,linebo_bernstein,random_search"), out / "g03"
        ),
        1.0: bench.run_bench(_protocol_values(1.0, "s3bfo"), out / "g10"),
        0.1: bench.run_bench(_protocol_values(0.1, "s3bfo"), out / "g01"),
    }
    return results, time.time() - start


def _final_median_gap(result: bench.BenchResult, algorithm: str) -> float:
    finals = [
        bench.best_gap_series(result.traces[(algorithm, rep)])[-1] for rep in range(5)
    ]
    return float(np.median(finals))


def test_criterion_1_posterior_matches_dense_oracle():
    start = time.time()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 13))
        kernel = FunctionalKernelSpec(
            ScalarKernelSpec("se", float(rng.uniform(0.3, 2.0))), "l2grid"
        )
        noise_sq = float(rng.uniform(0.001, 0.1))
        obs = [
            (random_grid_function(rng), float(rng.standard_normal()))
            for _ in range(n)
        ]
        model = rebuild_model(kernel, noise_sq, obs)
        pts = [p for p, _ in obs]
        y = np.array([v for _, v in obs])
        K = np.array(
            [[functional_eval(kernel, a, b) for b in pts] for a in pts]
        ) + noise_sq * np.eye(n)
        inv = np.linalg.inv(K)
        for _ in range(3):
            q = random_grid_function(rng)
            k = np.array([functional_eval(kernel, q, p) for p in pts])
            mean_o = float(k @ inv @ y)
            var_o = float(functional_eval(kernel, q, q) - k @ inv @ k)
            mean, var = gp.posterior(model, q)
            worst = max(worst, abs(mean - mean_o), abs(var - max(var_o, 0.0)))
    elapsed = time.time() - start
    _report(
        1,
        "posterior matches dense-inverse oracle",
        worst < 1e-8 and elapsed < 5.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_incremental_identity_both_metrics():
    rng = np.random.default_rng(101)
    rkhs_gram = scalar_gram(ScalarKernelSpec("se", 0.3), grid_coordinates(GRID_1D))
    kernels = {
        "l2grid": FunctionalKernelSpec(ScalarKernelSpec("se", 0.9), "l2grid"),
        "rkhs": FunctionalKernelSpec(ScalarKernelSpec("se", 2.0), "rkhs", rkhs_gram),
    }
    ok = True
    for split in range(10):
        n_prev = int(rng.integers(1, 5))
        n_new = int(rng.integers(1, 5))
        for kernel in kernels.values():
            prev = [
                (random_grid_function(rng), float(rng.standard_normal()))
                for _ in range(n_prev)
            ]
            new = [
                (random_grid_function(rng), float(rng.standard_normal()))
                for _ in range(n_new)
            ]
            probes = [random_grid_function(rng) for _ in range(5)]
            ok = ok and biased_posterior_equivalence_check(
                kernel, 0.01, prev, new, probes, tol=1e-6
            )
    _report(2, "biased-prior incremental identity at 1e-6", ok, "10 splits x 2 metrics")


def test_criterion_3_mahalanobis_identity():
    from funcbo.gridfn import l2_dist_sq, l2_inner
    from reference import linear_combine

    rng = np.random.default_rng(102)
    kappa = ScalarKernelSpec("se", 0.3)
    bias = gp.sample_on_grid(kappa, GRID_1D, rng)
    basis = [gp.sample_on_grid(kappa, GRID_1D, rng) for _ in range(3)]
    H = np.array([[l2_inner(u, v) for v in basis] for u in basis])
    worst = 0.0
    for _ in range(100):
        lam1, lam2 = rng.standard_normal(3), rng.standard_normal(3)
        direct = l2_dist_sq(
            linear_combine(bias, basis, lam1), linear_combine(bias, basis, lam2)
        )
        quad = float((lam1 - lam2) @ H @ (lam1 - lam2))
        worst = max(worst, abs(direct - quad) / max(abs(quad), 1e-300))
    _report(3, "subspace quadratic form equals grid distance", worst < 1e-10,
            f"max rel err {worst:.2e}")


def test_criterion_4_sampling_fidelity():
    kappa = ScalarKernelSpec("se", 0.3)
    rng = np.random.default_rng(0)
    draws = np.array(
        [gp.sample_on_grid(kappa, GRID_1D, rng).values for _ in range(2000)]
    )
    mean_dev = float(np.abs(draws.mean(axis=0)).max())
    emp_cov = draws.T @ draws / 2000
    gram = scalar_gram(kappa, grid_coordinates(GRID_1D))
    cov_dev = float(np.abs(emp_cov - gram).max())
    ok = mean_dev < 4 / math.sqrt(2000) and cov_dev < 0.1
    _report(4, "2000 grid draws reproduce the prior", ok,
            f"max|mean| {mean_dev:.4f}, max cov dev {cov_dev:.4f}")


def test_criterion_5_subspace_ball_rates():
    start = time.time()
    betas = np.array([0.1, 0.2, 0.4])
    ok = True
    details = []
    for d, d_e in ((1, 3), (1, 2), (2, 4)):
        rng = np.random.default_rng(17)
        probs = [
            lemma1_intersection_estimate(d, d_e, float(b), 100_000, rng) for b in betas
        ]
        slope = float(np.polyfit(np.log(betas), np.log(probs), 1)[0])
        details.append(f"(d={d},de={d_e}) slope {slope:.2f}")
        ok = ok and abs(slope - (d_e - d)) < 0.3
    for d in (1, 2, 3):
        est = lemma1_intersection_estimate(d, d, 0.2, 100_000, np.random.default_rng(18))
        ok = ok and est == 1.0
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(5, "intersection-probability rates", ok,
            "; ".join(details) + f"; full-dim cases exactly 1; {elapsed:.1f}s")


def test_criterion_6_trend_reproduction(trend_runs):
    results, elapsed = trend_runs
    med = {
        "s3bfo@0.3": _final_median_gap(results[0.3], "s3bfo"),
        "linebo@0.3": _final_median_gap(results[0.3], "linebo_bernstein"),
        "random@0.3": _final_median_gap(results[0.3], "random_search"),
        "s3bfo@1.0": _final_median_gap(results[1.0], "s3bfo"),
        "s3bfo@0.1": _final_median_gap(results[0.1], "s3bfo"),
    }
    beats_baselines = (
        med["s3bfo@0.3"] < med["linebo@0.3"] and med["s3bfo@0.3"] < med["random@0.3"]
    )
    monotone = all(
        np.all(np.diff(bench.best_gap_series(trace)) <= 0)
        for result in results.values()
        for trace in result.traces.values()
    )
    ordering = med["s3bfo@1.0"] <= med["s3bfo@0.3"] <= med["s3bfo@0.1"]
    ok = beats_baselines and monotone and ordering and elapsed < 600.0
    _report(
        6,
        "function-matching trend reproduction",
        ok,
        f"medians {', '.join(f'{k}={v:.3f}' for k, v in med.items())}; {elapsed:.0f}s",
    )


def test_criterion_7_budget_exactness(trend_runs):
    results, _ = trend_runs
    lengths = {
        len(trace) for result in results.values() for trace in result.traces.values()
    }
    _report(7, "protocol performs exactly 140 evaluations", lengths == {140},
            f"trace lengths {sorted(lengths)}")


def test_criterion_8_byte_identical_reruns(tmp_path):
    text = (
        "opt.S = 2\nopt.T = 4\nopt.n_init = 2\nopt.seed = 0\n"
        "objective.target_seed = 123\nobjective.noise = 0.01\n"
        "bench.algorithms = s3bfo,random_search\nbench.repeats = 2\n"
    )
    values = bench.parse_config_lines(text.splitlines())
    res_a = bench.run_bench(values, tmp_path / "a")
    res_b = bench.run_bench(values, tmp_path / "b")
    same = all(
        path.read_bytes() == res_b.trace_paths[key].read_bytes()
        for key, path in res_a.trace_paths.items()
    ) and all(
        path.read_bytes() == res_b.summary_paths[key].read_bytes()
        for key, path in res_a.summary_paths.items()
    )
    _report(8, "bench rerun is byte-identical", same,
            f"{len(res_a.trace_paths)} traces + {len(res_a.summary_paths)} summaries")


def test_criterion_9_ask_tell_equivalence(tmp_path):
    values = _protocol_values(0.3, "s3bfo")
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    _, reference = RUNNERS["s3bfo"](objective, cfg)

    state = tmp_path / "state.txt"
    state.write_text(
        "\n".join(
            f"{key} = {bench.format_value(values[key])}"
            for key in sorted(values)
            if not key.startswith("bench.")
        )
    )
    _, noise_rng = rng_streams(cfg.seed)
    fn = tmp_path / "suggested.csv"
    for _ in range(140):
        bench.suggest(state, fn)
        y = objective.evaluate(read_function_csv(fn), noise_rng)
        bench.tell(state, y)
    _, engine = bench.load_state(state)
    same = engine.done and len(engine.trace) == len(reference) == 140 and all(
        (a.eval_index, a.s, a.t, a.lam, a.y, a.best_y)
        == (b.eval_index, b.s, b.t, b.lam, b.y, b.best_y)
        for a, b in zip(engine.trace, reference)
    )
    _report(9, "140-step suggest/tell session equals in-process run", same)


def test_criterion_10_effective_dimension_invariance():
    rng = np.random.default_rng(103)
    obj = EffectiveDimObjective.random_directions(
        GRID_1D, ScalarKernelSpec("se", 0.3), [0.7, -0.4, 0.2], seed=55, noise=0.0
    )
    worst = 0.0
    for _ in range(100):
        g = random_grid_function(rng)
        base = obj.true_value(g)
        perp = random_grid_function(rng).values.copy()
        for e in obj.directions:
            perp -= (np.dot(perp, e.values) * GRID_1D.weight) * e.values
        moved = GridFunction(GRID_1D, g.values + perp)
        worst = max(worst, abs(obj.true_value(moved) - base))
    _report(10, "orthogonal perturbations are invisible", worst < 1e-8,
            f"max change {worst:.2e}")

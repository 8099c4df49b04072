import math

import numpy as np
import pytest

from conftest import GRID_1D, random_grid_function
from funcbo.errors import InputError
from funcbo.gridfn import l2_inner
from funcbo.kernels import ScalarKernelSpec
from funcbo.objectives import (
    EffectiveDimObjective,
    MatchingObjective,
    lemma1_intersection_estimate,
)
from reference import constant, zeros

KAPPA = ScalarKernelSpec("se", 0.3)


def test_matching_optimum_is_target():
    obj = MatchingObjective.from_kernel(GRID_1D, KAPPA, seed=5, noise=0.0)
    rng = np.random.default_rng(0)
    assert obj.evaluate(obj.target, rng) == 0.0
    assert obj.aux(obj.target) == {"l2_gap": 0.0}


def test_matching_constant_gap():
    obj = MatchingObjective(constant(GRID_1D, 1.0), noise=0.0)
    assert obj.evaluate(zeros(GRID_1D), np.random.default_rng(0)) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_matching_strictly_negative_off_target():
    from funcbo.gridfn import GridFunction

    obj = MatchingObjective.from_kernel(GRID_1D, KAPPA, seed=6, noise=0.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        bump = 1e-3 * rng.standard_normal(GRID_1D.size)
        perturbed = GridFunction(GRID_1D, obj.target.values + bump)
        assert obj.evaluate(perturbed, rng) < 0.0


def test_matching_noise_uses_rng():
    obj = MatchingObjective.from_kernel(GRID_1D, KAPPA, seed=7, noise=0.5)
    g = zeros(GRID_1D)
    a = obj.evaluate(g, np.random.default_rng(3))
    b = obj.evaluate(g, np.random.default_rng(3))
    c = obj.evaluate(g, np.random.default_rng(4))
    assert a == b
    assert a != c
    with pytest.raises(InputError):
        MatchingObjective(g, noise=-0.1)


def _effdim(targets, seed=11, noise=0.0):
    return EffectiveDimObjective.random_directions(
        GRID_1D, KAPPA, targets, seed, noise
    )


def test_effdim_directions_orthonormal():
    obj = _effdim([0.3, -0.2, 1.0])
    for i, u in enumerate(obj.directions):
        for j, v in enumerate(obj.directions):
            assert l2_inner(u, v) == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_effdim_optimum_value_zero():
    obj = _effdim([0.5, -1.0])
    from funcbo.gridfn import GridFunction

    g_star = GridFunction(
        GRID_1D,
        sum(c * e.values for c, e in zip(obj.targets, obj.directions)),
    )
    assert abs(obj.evaluate(g_star, np.random.default_rng(0))) < 1e-12


def test_effdim_hand_computed_case():
    # targets (1, -1) and g = e0: residuals are (0, 1), value -1
    obj = _effdim([1.0, -1.0])
    value = obj.evaluate(obj.directions[0], np.random.default_rng(0))
    assert value == pytest.approx(-1.0, abs=1e-10)


def test_effdim_orthogonal_perturbations_invisible():
    obj = _effdim([0.4, 0.9])
    rng = np.random.default_rng(12)
    from funcbo.gridfn import GridFunction

    g = random_grid_function(rng)
    base = obj.true_value(g)
    for _ in range(20):
        perp = random_grid_function(rng).values.copy()
        for e in obj.directions:
            perp -= (np.dot(perp, e.values) * GRID_1D.weight) * e.values
        moved = GridFunction(GRID_1D, g.values + perp)
        assert abs(obj.true_value(moved) - base) < 1e-8


def test_effdim_validation():
    with pytest.raises(InputError):
        EffectiveDimObjective((), (), 0.0)
    obj = _effdim([0.1])
    with pytest.raises(InputError):
        EffectiveDimObjective(obj.directions, (0.1, 0.2), 0.0)


def test_lemma1_full_dimension_is_exactly_one():
    rng = np.random.default_rng(13)
    assert lemma1_intersection_estimate(2, 2, 0.3, 2000, rng) == 1.0
    assert lemma1_intersection_estimate(3, 3, 0.05, 2000, rng) == 1.0


def test_lemma1_point_case_matches_interval_ratio():
    # d=0, d_e=1: bias uniform on [-1, 1], P(|b| <= 0.5) = 0.5
    trials = 100_000
    est = lemma1_intersection_estimate(0, 1, 0.5, trials, np.random.default_rng(14))
    stderr = math.sqrt(0.25 / trials)
    assert abs(est - 0.5) <= 3 * stderr


def test_lemma1_rate_smoke():
    # log-log slope vs beta approximates d_e - d (full check in acceptance)
    rng = np.random.default_rng(15)
    betas = np.array([0.1, 0.2, 0.4])
    probs = [lemma1_intersection_estimate(1, 3, b, 30_000, rng) for b in betas]
    slope = np.polyfit(np.log(betas), np.log(probs), 1)[0]
    assert abs(slope - 2.0) < 0.4


def test_lemma1_monotone_in_beta_and_d():
    rng = np.random.default_rng(16)
    trials = 40_000
    p1 = lemma1_intersection_estimate(1, 3, 0.2, trials, rng)
    p2 = lemma1_intersection_estimate(1, 3, 0.4, trials, rng)
    stderr = 3 * math.sqrt(0.25 / trials)
    assert p2 >= p1 - stderr
    q1 = lemma1_intersection_estimate(0, 3, 0.3, trials, rng)
    q2 = lemma1_intersection_estimate(2, 3, 0.3, trials, rng)
    assert q2 >= q1 - stderr


def test_lemma1_validation():
    rng = np.random.default_rng(17)
    with pytest.raises(InputError):
        lemma1_intersection_estimate(-1, 2, 0.5, 10, rng)
    with pytest.raises(InputError):
        lemma1_intersection_estimate(3, 2, 0.5, 10, rng)
    with pytest.raises(InputError):
        lemma1_intersection_estimate(1, 2, 0.0, 10, rng)
    with pytest.raises(InputError):
        lemma1_intersection_estimate(1, 2, 1.5, 10, rng)
    with pytest.raises(InputError):
        lemma1_intersection_estimate(1, 2, 0.5, 0, rng)

import math

import numpy as np
import pytest

from conftest import GRID_1D, random_grid_function
from funcbo.errors import InputError
from funcbo.gridfn import grid_coordinates, l2_dist_sq
from funcbo.kernels import (
    SCALAR_KINDS,
    FunctionalKernelSpec,
    ScalarKernelSpec,
    scalar_gram,
    value_from_sqdist,
)
from reference import constant, functional_eval, gram_matrix, scalar_eval, zeros


def test_spec_validation():
    with pytest.raises(InputError):
        ScalarKernelSpec("cubic", 1.0)
    with pytest.raises(InputError):
        ScalarKernelSpec("se", 0.0)
    # every kind divides by the squared lengthscale: its square must be normal
    for kind in SCALAR_KINDS:
        for lengthscale in (1e-200, 1e-160, 1e160, 1e300, float("nan"), float("inf")):
            with pytest.raises(InputError, match="normal float"):
                ScalarKernelSpec(kind, lengthscale)
        ScalarKernelSpec(kind, 1e-150)
        ScalarKernelSpec(kind, 1e150)
    with pytest.raises(InputError):
        ScalarKernelSpec("se", 1.0, variance=-1.0)
    with pytest.raises(InputError):
        FunctionalKernelSpec(ScalarKernelSpec("linear", 1.0), "l2grid")
    with pytest.raises(InputError):
        FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "rkhs")  # prior missing
    with pytest.raises(InputError, match="ScalarKernelSpec"):  # a gram is no prior
        FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "rkhs", np.eye(GRID_1D.size))


def test_functional_specs_built_alike_are_equal_and_hash_alike():
    def spec(lengthscale, metric, prior_lengthscale=None):
        prior = None if prior_lengthscale is None else ScalarKernelSpec("se", prior_lengthscale)
        return FunctionalKernelSpec(ScalarKernelSpec("se", lengthscale), metric, prior)

    for args in ((0.5, "l2grid"), (0.5, "rkhs", 0.3)):
        assert spec(*args) == spec(*args) and hash(spec(*args)) == hash(spec(*args))
    assert spec(0.5, "rkhs", 0.3) != spec(0.5, "rkhs", 0.2)
    assert spec(0.5, "rkhs", 0.3).with_lengthscale(0.7) == spec(0.7, "rkhs", 0.3)


def test_scalar_zero_distance_gives_variance():
    x = np.array([0.3])
    for kind in ("se", "matern12", "matern32"):
        spec = ScalarKernelSpec(kind, 0.7, variance=2.5)
        assert scalar_eval(spec, x, x) == pytest.approx(2.5)


def test_scalar_analytic_values():
    assert scalar_eval(
        ScalarKernelSpec("matern12", 0.5), np.array([0.0]), np.array([0.5])
    ) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert scalar_eval(
        ScalarKernelSpec("se", 0.3), np.array([0.0]), np.array([0.3])
    ) == pytest.approx(math.exp(-0.5), rel=1e-12)
    r = 0.2
    assert scalar_eval(
        ScalarKernelSpec("matern32", 0.4), np.array([0.0]), np.array([r])
    ) == pytest.approx(
        (1 + math.sqrt(3) * r / 0.4) * math.exp(-math.sqrt(3) * r / 0.4), rel=1e-12
    )
    assert scalar_eval(
        ScalarKernelSpec("linear", 1.0, variance=2.0),
        np.array([0.5, 0.5]),
        np.array([1.0, 0.0]),
    ) == pytest.approx(1.0)


def test_functional_identity_and_constant_gap():
    rng = np.random.default_rng(0)
    spec = FunctionalKernelSpec(ScalarKernelSpec("se", 1.0, variance=1.5), "l2grid")
    g = random_grid_function(rng)
    assert functional_eval(spec, g, g) == pytest.approx(1.5)
    # distance^2 between constants 1 and 0 is exactly 1
    assert functional_eval(
        FunctionalKernelSpec(ScalarKernelSpec("se", 1.0), "l2grid"),
        constant(GRID_1D, 1.0),
        zeros(GRID_1D),
    ) == pytest.approx(math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("kind", ["se", "matern32"])
def test_rkhs_identity_gram_matches_scaled_l2grid(kind):
    # an SE prior far narrower than the grid spacing has the identity for
    # its gram, so the rkhs distance is the l2grid distance divided by the
    # quadrature weight, i.e. the same kernel at a scaled lengthscale
    rng = np.random.default_rng(1)
    gamma = 0.8
    prior = ScalarKernelSpec("se", 1e-4)
    assert np.array_equal(scalar_gram(prior, grid_coordinates(GRID_1D)), np.eye(GRID_1D.size))
    rkhs = FunctionalKernelSpec(ScalarKernelSpec(kind, gamma), "rkhs", prior)
    scaled = FunctionalKernelSpec(
        ScalarKernelSpec(kind, gamma * math.sqrt(GRID_1D.weight)), "l2grid"
    )
    for _ in range(10):
        g, h = random_grid_function(rng), random_grid_function(rng)
        assert functional_eval(rkhs, g, h) == pytest.approx(
            functional_eval(scaled, g, h), rel=1e-10
        )


def test_gram_trivial_cases():
    rng = np.random.default_rng(2)
    spec = FunctionalKernelSpec(ScalarKernelSpec("se", 0.5, variance=2.0), "l2grid")
    g = random_grid_function(rng)
    single = gram_matrix(spec, [g])
    np.testing.assert_allclose(single, [[2.0]])
    double = gram_matrix(spec, [g, g])
    np.testing.assert_allclose(double, np.full((2, 2), 2.0))


def test_gram_entrywise_oracle_and_psd():
    rng = np.random.default_rng(3)
    points = [random_grid_function(rng) for _ in range(5)]
    base = ScalarKernelSpec("se", 1.3, variance=0.7)
    spec = FunctionalKernelSpec(base, "l2grid")
    gram = gram_matrix(spec, points)
    for i in range(5):
        for j in range(5):
            # independent entry oracle: exp form written out directly
            d_sq = l2_dist_sq(points[i], points[j])
            expected = 0.7 * math.exp(-d_sq / (2 * 1.3**2))
            assert gram[i, j] == pytest.approx(expected, rel=1e-12)
    np.testing.assert_array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_symmetry_is_exact():
    rng = np.random.default_rng(4)
    spec = FunctionalKernelSpec(ScalarKernelSpec("matern12", 0.6), "l2grid")
    for _ in range(10):
        g, h = random_grid_function(rng), random_grid_function(rng)
        assert functional_eval(spec, g, h) == functional_eval(spec, h, g)


def test_bounded_and_monotone_decay():
    rng = np.random.default_rng(5)
    r_sq = np.sort(rng.uniform(0.0, 9.0, size=40))
    for kind in ("se", "matern12", "matern32"):
        base = ScalarKernelSpec(kind, 0.9, variance=1.4)
        vals = value_from_sqdist(base, r_sq)
        assert np.all(vals > 0)
        assert np.all(vals <= 1.4 + 1e-15)
        assert np.all(np.diff(vals) < 0)


def test_gram_cholesky_with_jitter():
    rng = np.random.default_rng(6)
    points = rng.uniform(0, 1, size=(12, 1))
    for kind in ("se", "matern12", "matern32"):
        spec = ScalarKernelSpec(kind, 0.4, variance=2.0)
        gram = scalar_gram(spec, points)
        np.linalg.cholesky(gram + 1e-8 * spec.variance * np.eye(12))


def test_scalar_gram_matches_entrywise():
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 1, size=(6, 2))
    spec = ScalarKernelSpec("matern32", 0.5, variance=1.2)
    gram = scalar_gram(spec, points)
    brute = gram_matrix(spec, list(points))
    np.testing.assert_allclose(gram, brute, rtol=1e-10, atol=1e-12)

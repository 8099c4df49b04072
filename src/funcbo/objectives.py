"""Benchmark objectives and the subspace-geometry probability estimator.

* ``MatchingObjective`` -- blind function matching: score a candidate g
  by the negated L2 gap to a hidden target drawn from a GP, so the
  global optimum is g = target with value 0.
* ``EffectiveDimObjective`` -- a functional that only depends on the
  projections of g onto a few orthonormal directions, i.e. it has a
  known finite effective dimension.
* ``lemma1_intersection_estimate`` -- Monte-Carlo probability that a
  random affine subspace passes near the origin of a unit ball, the
  geometric quantity behind the outer-loop convergence rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp, gridfn
from .errors import InputError
from .gridfn import GridFunction, GridSpec
from .kernels import ScalarKernelSpec


@dataclass(frozen=True, eq=False)
class MatchingObjective:
    """Noisy score -||g - target||_L2 + eps, eps ~ N(0, noise^2)."""

    target: GridFunction
    noise: float = 0.01

    def __post_init__(self):
        if self.noise < 0:
            raise InputError(f"noise must be nonnegative, got {self.noise}")

    @classmethod
    def from_kernel(
        cls, grid: GridSpec, kernel: ScalarKernelSpec, seed: int, noise: float = 0.01
    ) -> "MatchingObjective":
        """Draw the hidden target from GP(0, kernel) with its own seed."""
        target = gp.sample_on_grid(kernel, grid, np.random.default_rng(seed))
        return cls(target, noise)

    def gap(self, g: GridFunction) -> float:
        """Noiseless L2 distance to the target."""
        return float(np.sqrt(gridfn.l2_dist_sq(g, self.target)))

    def evaluate(self, g: GridFunction, rng) -> float:
        value = -self.gap(g)
        if self.noise > 0:
            value += self.noise * rng.standard_normal()
        return float(value)

    def aux(self, g: GridFunction) -> dict[str, float]:
        return {"l2_gap": self.gap(g)}


@dataclass(frozen=True, eq=False)
class EffectiveDimObjective:
    """Noisy score -sum_i (<g, e_i> - c_i)^2: invariant to anything
    orthogonal to the directions e_i, so its effective dimension is
    len(directions) by construction."""

    directions: tuple[GridFunction, ...]
    targets: tuple[float, ...]
    noise: float = 0.0

    def __post_init__(self):
        if not self.directions:
            raise InputError("need at least one direction")
        if len(self.targets) != len(self.directions):
            raise InputError("targets and directions must have equal length")
        if self.noise < 0:
            raise InputError(f"noise must be nonnegative, got {self.noise}")

    @classmethod
    def random_directions(
        cls,
        grid: GridSpec,
        kernel: ScalarKernelSpec,
        targets,
        seed: int,
        noise: float = 0.0,
    ) -> "EffectiveDimObjective":
        """Gram-Schmidt over fresh GP draws: generic orthonormal directions
        under the grid quadrature inner product."""
        rng = np.random.default_rng(seed)
        d_e = len(tuple(targets))
        dirs: list[np.ndarray] = []
        attempts = 0
        while len(dirs) < d_e:
            attempts += 1
            if attempts > 20 * d_e:
                raise InputError("could not build independent directions")
            v = gp.sample_on_grid(kernel, grid, rng).values.copy()
            for u in dirs:
                v -= (np.dot(v, u) * grid.weight) * u
            norm = np.sqrt(np.dot(v, v) * grid.weight)
            if norm < 1e-8:
                continue
            dirs.append(v / norm)
        return cls(
            tuple(GridFunction(grid, v) for v in dirs),
            tuple(float(c) for c in targets),
            noise,
        )

    def true_value(self, g: GridFunction) -> float:
        err = 0.0
        for e, c in zip(self.directions, self.targets):
            err += (gridfn.l2_inner(g, e) - c) ** 2
        return -err

    def evaluate(self, g: GridFunction, rng) -> float:
        value = self.true_value(g)
        if self.noise > 0:
            value += self.noise * rng.standard_normal()
        return float(value)


_LEMMA1_CHUNK = 20000  # trials drawn at a time


def lemma1_intersection_estimate(d: int, d_e: int, beta: float, trials: int, rng) -> float:
    """Monte-Carlo estimate of the probability that a random d-dimensional
    affine subspace of R^{d_e} (standard-normal basis, bias uniform in the
    unit ball) passes within distance beta of the origin.

    The distance is the least-squares residual of projecting the bias
    onto the span, computed with batched QR, in chunks of trials.
    """
    if d_e < 1 or d < 0 or d > d_e:
        raise InputError(f"need 0 <= d <= d_e with d_e >= 1, got d={d}, d_e={d_e}")
    if not 0.0 < beta <= 1.0:
        raise InputError(f"beta must be in (0, 1], got {beta}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    hits = 0
    remaining = trials
    while remaining > 0:
        n = min(_LEMMA1_CHUNK, remaining)
        direction = rng.standard_normal((n, d_e))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.random(n) ** (1.0 / d_e)
        b = direction * radius[:, None]
        if d == 0:
            dist = np.linalg.norm(b, axis=1)
        else:
            u = rng.standard_normal((n, d_e, d))
            q = np.linalg.qr(u)[0]
            resid = b - np.einsum("nij,nj->ni", q, np.einsum("nij,ni->nj", q, b))
            dist = np.linalg.norm(resid, axis=1)
        hits += int(np.count_nonzero(dist <= beta))
        remaining -= n
    return hits / trials

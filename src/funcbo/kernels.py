"""Covariance functions.

Two distinct roles, two spec types:

* ``ScalarKernelSpec`` -- a covariance kappa on the grid domain [0,1]^m,
  used to draw the random basis functions that span each search subspace.
* ``FunctionalKernelSpec`` -- a covariance K between whole functions,
  used to model the objective.  A stationary scalar form is evaluated on
  a squared distance between functions: either the histogram L2 distance
  on the grid, or the rkhs distance, the quadratic form of the basis
  prior kappa's gram on the grid (``gp`` builds that gram).

Closed forms (r = distance, gamma = lengthscale, v = variance):

    se        v * exp(-r^2 / (2 gamma^2))
    matern12  v * exp(-r / gamma)
    matern32  v * (1 + sqrt(3) r / gamma) * exp(-sqrt(3) r / gamma)
    linear    v * <x, y>           (scalar kernels only)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError

SCALAR_KINDS = ("se", "matern12", "matern32", "linear")
DISTANCE_KINDS = ("se", "matern12", "matern32")
METRICS = ("l2grid", "rkhs")

_SQRT3 = np.sqrt(3.0)
NORMAL_SQUARE = "positive with a square that is a normal float (about 1.5e-154 to 1.3e154)"


def has_normal_square(value) -> bool:
    """Whether value is positive and its square a normal float: the GP
    divides by squared lengthscales and adds the squared noise level."""
    value = float(value)
    return value > 0 and sys.float_info.min <= value * value < math.inf


@dataclass(frozen=True)
class ScalarKernelSpec:
    """Covariance on [0,1]^m points."""

    kind: str
    lengthscale: float
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise InputError(f"unknown scalar kernel kind {self.kind!r}")
        if not has_normal_square(self.lengthscale):
            raise InputError(f"lengthscale must be {NORMAL_SQUARE}, got {self.lengthscale}")
        if not self.variance > 0:
            raise InputError(f"variance must be positive, got {self.variance}")

    def with_lengthscale(self, lengthscale: float) -> ScalarKernelSpec:
        return replace(self, lengthscale=lengthscale)


@dataclass(frozen=True)
class FunctionalKernelSpec:
    """Covariance between functions: a distance-based scalar form applied
    to the l2grid or rkhs metric.  The rkhs metric takes the basis prior
    kappa as ``prior``; the distance it gives is the quadratic form of
    kappa's gram on the model's grid."""

    base: ScalarKernelSpec
    metric: str
    prior: ScalarKernelSpec | None = None

    def __post_init__(self):
        if self.base.kind not in DISTANCE_KINDS:
            raise InputError(
                f"functional kernels need a distance-based kind, got {self.base.kind!r}"
            )
        if self.metric not in METRICS:
            raise InputError(f"unknown metric {self.metric!r}")
        if self.metric == "rkhs":
            if not isinstance(self.prior, ScalarKernelSpec):
                raise InputError("metric 'rkhs' requires the basis prior, a ScalarKernelSpec, "
                                 f"got {type(self.prior).__name__}")
        elif self.prior is not None:
            raise InputError("prior only applies to metric 'rkhs'")

    def with_lengthscale(self, lengthscale: float) -> FunctionalKernelSpec:
        return replace(self, base=self.base.with_lengthscale(lengthscale))


def sqdist_divisor(base: ScalarKernelSpec) -> float:
    """The divisor that turns squared distances r^2 into the argument of
    ``value_from_scaled``: -2 gamma^2 for se, 1 for the Matern kernels,
    whose forms scale after the square root.  A caller may fold it into
    the squared distances' own factors."""
    if base.kind not in DISTANCE_KINDS:
        raise InputError(f"{base.kind!r} is not distance-based")
    return -2.0 * (base.lengthscale * base.lengthscale) if base.kind == "se" else 1.0


def value_from_scaled(base: ScalarKernelSpec, x: np.ndarray) -> np.ndarray:
    """Overwrite x, squared distances divided by ``sqdist_divisor``, with
    the kernel values there and return it.  Each step runs in place, in
    the order of the closed forms above: a rounding residue of the wrong
    sign is clamped to distance zero first."""
    if base.kind == "se":
        np.minimum(x, 0.0, out=x)
    else:
        np.maximum(x, 0.0, out=x)
        np.sqrt(x, out=x)
        g = base.lengthscale
        if base.kind == "matern12":
            x /= -g
        else:  # matern32: (v (1 + a)) exp(-a), a = sqrt(3) r / g
            x *= _SQRT3
            x /= g
            decay = np.exp(-x)
            x += 1.0
            if base.variance != 1.0:  # a product by 1.0 is exact
                x *= base.variance
            x *= decay
            return x
    np.exp(x, out=x)
    if base.variance != 1.0:
        x *= base.variance
    return x


def value_from_sqdist(base: ScalarKernelSpec, r_sq) -> np.ndarray:
    """Evaluate a distance-based kernel on squared distances (vectorised)
    into a new array."""
    r_sq = np.asarray(r_sq, dtype=float)
    return value_from_scaled(base, np.divide(r_sq, sqdist_divisor(base), out=np.empty_like(r_sq)))


def scalar_gram(spec: ScalarKernelSpec, coords) -> np.ndarray:
    """Vectorised gram of a scalar kernel at coordinate rows (n, m)."""
    x = np.atleast_2d(np.asarray(coords, dtype=float))
    if spec.kind == "linear":
        gram = spec.variance * (x @ x.T)
    else:
        sq = np.einsum("ij,ij->i", x, x)
        r2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0)
        gram = value_from_sqdist(spec, r2)
    return (gram + gram.T) / 2.0

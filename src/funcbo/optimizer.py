"""Optimiser loops: subspace search, line search on Bernstein weights,
and random search, all sharing one evaluation protocol.

Every optimiser is a stepwise ask/tell engine: ``ask`` produces the next
function to evaluate, ``tell`` records the observed value.  The runner
functions drive an engine against an in-process objective; the bench
module drives the same engines through a state file, so simulated and
external experiments share a single code path.

The subspace engine and the Bernstein line baseline are one phased
engine.  Each outer iteration starts a ``Subspace``, bias (the best
function so far) + span(basis), evaluates an initial design of N(0, I)
coordinate draws, then runs GP-UCB over the coordinates until the inner
budget or the simple-regret certificate ends it.  For the subspace
engine the basis is d GP sample paths, modelled by one functional GP on
every observation; the line baseline is the d = 1 case, a random
direction in Bernstein-weight space mapped to the grid, modelled by a
scalar GP on the line coordinate of that line's observations.  Both map
coordinates to functions through ``acquisition.candidate_values``, use
the same UCB search and the same regret certificate, and score in
coordinates: the subspace hands the search a batched lam -> (mean, var)
function (``posterior_fn``).  For a functional model it is built once
per search from the projections of the bias and basis on the model's
points (``acquisition.subspace_posterior``), so no candidate's N grid
values are formed until the pick is mapped to its capped function.

Determinism: all draws come from two streams derived from the config
seed, one for optimiser decisions and one for observation noise, so an
external ask/tell session reproduces an in-process run exactly.  Replay
runs the same step as ``ask`` for every stored evaluation: it redraws
the basis (the line's direction) and the initial design, and consumes the
restart seeds of each acquisition search without running it, taking the
stored coordinates instead.  It then tells the stored value, so the
model goes through the same update chain as in the original run: each
candidate lengthscale's factor is extended by one row, and the most
likely candidate is the model.  Replay takes the inner-loop decisions
from the trace in the same way: a stored inner step at (s, t) shows that
the original run did not end the loop there, so its regret certificate
is not recomputed.  The certificate runs only where the trace ends an
inner loop early, which must be certified or the state is rejected, and
at the live position after the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Protocol

import numpy as np

from . import acquisition, gp, kernels
from .acquisition import AcqSearchConfig, UcbSchedule
from .errors import ConfigError, InputError, NumericalError, ProtocolError
from .gridfn import GridFunction, GridSpec, grid_coordinates
from .kernels import FunctionalKernelSpec, ScalarKernelSpec

BERNSTEIN_DEGREE = 10
ALGORITHMS = ("s3bfo", "linebo_bernstein", "fixed_subspace", "random_search")
TERMINATIONS = ("budget", "regret")

_REGRET_SEARCH_SEED = 0x5EED
# Largest grid: the Matern and linear prior factors and the rkhs gram
# are dense, 8 N^2 bytes each, 800 MB at this limit (an SE prior on a
# 2-d or 3-d grid is factored per axis and needs far less).
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True, eq=False)
class Subspace:
    """Affine search set bias + span(basis) for one outer iteration."""

    s: int
    bias: GridFunction
    basis: tuple[GridFunction, ...]

    def __post_init__(self):
        if not self.basis:
            raise InputError("subspace needs at least one basis function")
        for h in self.basis:
            if h.spec != self.bias.spec:
                raise InputError("subspace functions must share one grid")

    @property
    def d(self) -> int:
        return len(self.basis)

    def posterior_fn(self, model: gp.GPModel, search: AcqSearchConfig):
        """Batched lam -> (mean, var): at the capped functions for a model
        of functions, at the coordinates themselves for a model on them."""
        if isinstance(model.kernel, FunctionalKernelSpec):
            return acquisition.subspace_posterior(model, self, search)
        return partial(gp.posterior_batch, model)


@dataclass(frozen=True)
class OptConfig:
    """Everything one optimiser run needs.  Each field, and each field of
    the grid, kappa and search composites but the basis variance, is set
    by one config key (``bench.OPT_FIELDS``), whose default it holds."""

    grid: GridSpec = GridSpec(1, 100)
    kappa: ScalarKernelSpec = ScalarKernelSpec("se", 0.3)
    k_kind: str = "se"
    k_metric: str = "l2grid"
    k_lengthscale: float | str = "mle"
    noise_sigma: float = 0.01
    d: int = 1
    S: int = 4
    T: int = 30
    n_init: int = 5
    termination: str = "budget"
    epsilon: float = 0.01
    seed: int = 0
    acq_delta: float = 0.1
    search: AcqSearchConfig = AcqSearchConfig()
    mle_grid_min: float = 0.01
    mle_grid_max: float = 10.0
    mle_grid_points: int = 17

    def __post_init__(self):
        if self.grid.size > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid has N = {self.grid.size} points; at most N = {MAX_GRID_POINTS} "
                "are supported: the Matern and linear priors and the rkhs metric are dense"
            )
        for name in ("d", "S", "T", "n_init"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.termination not in TERMINATIONS:
            raise ConfigError(f"unknown termination {self.termination!r}")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")
        if self.k_kind not in kernels.DISTANCE_KINDS:
            raise ConfigError(f"K.kind must be distance-based, got {self.k_kind!r}")
        if self.k_metric not in kernels.METRICS:
            raise ConfigError(f"unknown K.metric {self.k_metric!r}")
        if self.k_lengthscale != "mle" and not (
            isinstance(self.k_lengthscale, (int, float)) and self.k_lengthscale > 0
        ):
            raise ConfigError("K.lengthscale must be positive or 'mle'")
        if not kernels.has_normal_square(self.noise_sigma):
            raise ConfigError(f"noise.sigma must be {kernels.NORMAL_SQUARE}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if not (0 < self.mle_grid_min <= self.mle_grid_max):
            raise ConfigError("mle grid bounds must satisfy 0 < min <= max")
        if self.mle_grid_points < 1:
            raise ConfigError("mle.grid_points must be >= 1")
        # the model's and the UCB schedule's own checks, run before any engine
        # is built, so a bad value stops a bench before its first cell
        try:
            gp.empty_model(ScalarKernelSpec(self.k_kind, 1.0), self.noise_sq, self.lengthscales)
            UcbSchedule(self.acq_delta, self.d)
        except InputError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def noise_sq(self) -> float:
        return self.noise_sigma**2

    @property
    def lengthscales(self):
        """The model's candidate lengthscales: ``K.lengthscale`` itself, or
        ``mle.grid_points`` log-spaced ones under ``mle``."""
        if self.k_lengthscale == "mle":
            return np.geomspace(self.mle_grid_min, self.mle_grid_max, self.mle_grid_points)
        return (self.k_lengthscale,)

    @property
    def budget(self) -> int:
        """Evaluations per run when every inner loop uses its full budget."""
        return self.S * (self.n_init + self.T)


@dataclass(frozen=True)
class RunRecord:
    """One objective evaluation; t is -1 for initial-design points."""

    eval_index: int
    s: int
    t: int
    lam: tuple[float, ...]
    y: float
    best_y: float
    aux: dict = field(default_factory=dict)


class Objective(Protocol):
    """A noisy functional; evaluate may draw from the supplied rng.

    Implementations may also provide ``aux(g) -> dict[str, float]`` with
    noiseless diagnostics that get attached to the run records.
    """

    def evaluate(self, g: GridFunction, rng) -> float: ...


def rng_streams(seed: int):
    """Two independent generators derived from one seed: (decisions, noise)."""
    dec, noise = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(dec), np.random.default_rng(noise)


def bernstein_matrix(degree: int, x: np.ndarray) -> np.ndarray:
    """Rows of Bernstein basis polynomials B_{k,degree} evaluated at x."""
    x = np.asarray(x, dtype=float)
    rows = [
        math.comb(degree, k) * x**k * (1.0 - x) ** (degree - k)
        for k in range(degree + 1)
    ]
    return np.array(rows)


def simple_regret_err(
    model: gp.GPModel,
    subspace,
    incumbent,
    search: AcqSearchConfig | None = None,
    rng=None,
) -> float:
    """Simple-regret certificate for the incumbent on a subspace: the
    maximum of (mean + sd) over the subspace minus (mean - sd) at the
    incumbent.  With high probability the incumbent is within err of the
    subspace optimum, so values below epsilon justify ending the inner
    loop of a maximisation run.

    ``subspace`` is a Subspace, the Bernstein line included (d = 1);
    ``incumbent`` is a model point of it: a function, or the line
    coordinate under a model on coordinates.
    The inner maximisation is the acquisition UCB search with unit width;
    its restart seeds come from a fixed internal stream unless an rng is
    given, so the test does not perturb an optimiser's draw sequence.
    """
    if model.n == 0:
        raise InputError("simple regret test needs a non-empty model")
    if search is None:
        search = AcqSearchConfig()
    if rng is None:
        rng = np.random.default_rng(_REGRET_SEARCH_SEED)
    mean, var = gp.posterior(model, incumbent)
    _, ucb_max = acquisition.ucb_search(
        subspace.posterior_fn(model, search), subspace.d, search, rng, 1.0
    )
    return float(ucb_max - (mean - math.sqrt(var)))


# --- engines ------------------------------------------------------------


class _EngineBase:
    """Trace, incumbent and ask/tell/replay bookkeeping shared by all
    optimisers.  Subclasses supply ``done``, ``_step(lam=None)`` (set the
    next pending suggestion; replay passes the stored coordinates) and
    ``_observe`` (absorb a told value)."""

    def __init__(self, cfg: OptConfig, rng=None):
        self.cfg = cfg
        self._rng = rng if rng is not None else rng_streams(cfg.seed)[0]
        self._trace: list[RunRecord] = []
        # whether the inner loop ends at (s, t): certified, or taken from a trace
        self._inner_ends: dict[tuple[int, int], bool] = {}
        self._best_values: np.ndarray | None = None
        self._best_y = 0.0  # virtual incumbent value; real observations win ties
        self.pending = None  # (kind, s, t, lam, g_values)

    @property
    def trace(self) -> list[RunRecord]:
        return self._trace

    @property
    def best(self) -> tuple[GridFunction, float]:
        """Best real observation so far; the zero function before any."""
        if self._best_values is None:
            return GridFunction(self.cfg.grid, np.zeros(self.cfg.grid.size)), 0.0
        return GridFunction(self.cfg.grid, self._best_values), self._best_y

    def ask(self) -> GridFunction:
        if self.pending is not None:
            raise ProtocolError("a suggestion is pending; call tell first")
        if self.done:
            raise ProtocolError("run is complete")
        self._step()
        return GridFunction(self.cfg.grid, self.pending[4])

    def tell(self, y: float, aux=None) -> RunRecord:
        if self.pending is None:
            raise ProtocolError("no pending suggestion; call ask first")
        if not np.isfinite(y):
            raise InputError(f"observed value must be finite, got {y}")
        _, s, t, lam, g_values = self.pending
        rec = RunRecord(
            eval_index=len(self._trace),
            s=s,
            t=t,
            lam=tuple(float(v) for v in np.atleast_1d(lam)),
            y=float(y),
            best_y=float(y if not self._trace else max(self._trace[-1].best_y, y)),
            aux=dict(aux or {}),
        )
        self._trace.append(rec)
        if self._best_values is None or rec.y > self._best_y:
            self._best_values, self._best_y = np.array(g_values), rec.y
        self._observe(rec)
        self.pending = None
        return rec

    def replay(self, records, pending_desc=None):
        """Rebuild internal state from stored records (see bench state files).

        Deterministic replay: every rng draw the original run made is
        re-drawn in order, and stored values are checked against the
        replayed ones so a corrupted or out-of-date state file fails
        loudly instead of diverging.  A stored inner step at (s, t) is
        taken as the original run's decision not to end the inner loop
        there, so no regret certificate runs for it; a recorded early
        end is certified before the next step is replayed.
        """
        for rec in records:
            kind = "init" if rec.t < 0 else "inner"
            self._replay_step((kind, rec.s, rec.t, rec.lam), f"evaluation {rec.eval_index}")
            new = self.tell(rec.y, aux=rec.aux)
            if (new.eval_index, new.s, new.t, new.best_y) != (
                rec.eval_index, rec.s, rec.t, rec.best_y,
            ):
                raise ProtocolError(
                    f"state replay bookkeeping mismatch at evaluation {rec.eval_index}"
                )
        if pending_desc is not None:
            self._replay_step(pending_desc, "the pending suggestion")

    def _replay_step(self, desc, where: str):
        """The step of ``ask`` with the stored coordinates in place of the
        acquisition search, checked against the run schedule."""
        kind, s, t, lam = desc
        lam = np.asarray(lam, dtype=float)
        if kind == "inner":
            self._inner_ends[(s, t)] = False
        if self.done:
            raise ProtocolError("state contains more evaluations than the run allows")
        self._step(lam)
        if self.pending[:3] != (kind, s, t):
            raise ProtocolError(f"state disagrees with the run schedule at {where}")
        if self.pending[3].shape != lam.shape or not np.array_equal(self.pending[3], lam):
            raise ProtocolError(f"state replay diverged at {where}")

    def _observe(self, rec: RunRecord):
        pass


class _PhasedEngine(_EngineBase):
    """GP-UCB on a sequence of random affine subspaces.

    Per outer iteration s: start a Subspace (``_start_outer``), evaluate
    ``n_init`` coordinate draws from N(0, I), then run the inner UCB loop
    until its budget T or the simple-regret certificate ends it.
    Subclasses supply the model kernel, how an outer iteration starts and
    how coordinates map to a model point (``_model_point``).
    ``_function`` maps coordinates to a function of the subspace, and its
    ``posterior_fn`` gives the UCB search the model posterior at
    coordinate rows.  With ``_model_per_outer`` the model sees only the
    current outer iteration's observations, otherwise all of them.

    The model holds one candidate per lengthscale of
    ``cfg.lengthscales``; every observation extends each candidate, and
    the model's posterior is the most likely one's.  ``kernel`` is the
    model kernel at any lengthscale.
    """

    _model_per_outer = False

    def __init__(self, cfg: OptConfig, rng, kernel, d: int):
        super().__init__(cfg, rng)
        self.s = 0
        self.phase = "init"
        self.i_init = 0
        self.t = 0
        self.subspace = None  # the current outer iteration's Subspace
        self.finished = False
        self._outer_best = None  # (model point, y) within the current subspace
        self.model = gp.empty_model(kernel, cfg.noise_sq, cfg.lengthscales)
        self._search = cfg.search
        self._schedule = UcbSchedule(cfg.acq_delta, d)

    @property
    def done(self) -> bool:
        self._advance()
        return self.finished

    def _advance(self):
        """Resolve phase transitions; draws nothing, so safe to re-enter."""
        if self.finished:
            return
        if self.phase == "init" and self.subspace is not None:
            if self.i_init >= self.cfg.n_init:
                self.phase = "inner"
                self.t = 0
        while self.phase == "inner" and self._inner_done():
            self.s += 1
            self.subspace = None
            self.phase = "init"
            self.i_init = 0
            self.t = 0
            self._outer_best = None
            if self._model_per_outer:
                self.model = gp.empty_model(self.model.kernel, self.cfg.noise_sq,
                                            self.cfg.lengthscales)
            if self.s >= self.cfg.S:
                self.finished = True
                return

    def _inner_done(self) -> bool:
        if self.t >= self.cfg.T:
            return True
        if self.cfg.termination == "regret":
            key = (self.s, self.t)
            if key not in self._inner_ends:
                self._inner_ends[key] = simple_regret_err(
                    self.model, self.subspace, self._outer_best[0], self._search
                ) < self.cfg.epsilon
            return self._inner_ends[key]
        return False

    def _step(self, lam=None):
        """Set the next pending suggestion.  Replay passes the stored inner
        coordinates: the search's draws are consumed but it is not run."""
        if self.subspace is None:
            self.subspace = self._start_outer()
        d = self.subspace.d
        if self.phase == "init":
            lam = self._rng.standard_normal(d)
        elif lam is None:
            sqrt_beta = math.sqrt(acquisition.beta(self._schedule, self.t + 1))
            lam, _ = acquisition.ucb_search(
                self.subspace.posterior_fn(self.model, self._search), d,
                self._search, self._rng, sqrt_beta,
            )
        else:
            acquisition.restart_seeds(self._search, d, self._rng)
        inner = self.phase == "inner"
        self.pending = (self.phase, self.s, self.t if inner else -1, lam,
                        self._function(lam, cap=inner))

    def _function(self, lam, cap):
        """bias + lam @ basis, radially capped for inner steps."""
        if cap:
            return acquisition.candidate_values(self.subspace, self._search, lam[None, :])[0]
        basis = np.array([h.values for h in self.subspace.basis])
        return self.subspace.bias.values + lam @ basis

    def _observe(self, rec: RunRecord):
        obs = gp.Observation(self._model_point(self.pending[3], self.pending[4]), rec.y)
        if self._outer_best is None or rec.y > self._outer_best[1]:
            self._outer_best = (obs.point, rec.y)
        self.model = gp.condition(self.model, obs)
        if rec.t < 0:
            self.i_init += 1
        else:
            self.t += 1


class SubspaceSearchEngine(_PhasedEngine):
    """GP-UCB over a sequence of random function subspaces.

    Per outer iteration: bias at the incumbent, draw `d` basis sample
    paths from the solution prior, evaluate `n_init` coordinate draws
    from N(0, I), then run the inner acquisition loop until its budget
    or the simple regret test ends it.  The model is a functional GP on
    every observation so far, across all subspaces.
    """

    def __init__(self, cfg: OptConfig, rng=None):
        gram = (
            kernels.scalar_gram(cfg.kappa, grid_coordinates(cfg.grid))
            if cfg.k_metric == "rkhs"
            else None
        )
        kernel = FunctionalKernelSpec(ScalarKernelSpec(cfg.k_kind, 1.0), cfg.k_metric, gram)
        super().__init__(cfg, rng, kernel, cfg.d)

    def _start_outer(self) -> Subspace:
        basis = tuple(
            gp.sample_on_grid(self.cfg.kappa, self.cfg.grid, self._rng)
            for _ in range(self.cfg.d)
        )
        return Subspace(self.s, self.best[0], basis)

    def _model_point(self, lam, g_values):
        return GridFunction(self.cfg.grid, g_values)


class BernsteinLineEngine(_PhasedEngine):
    """GP-UCB line search over the weights of a degree-10 Bernstein
    polynomial: each outer iteration searches the line through the
    incumbent along a random unit direction u of weight space, the
    one-dimensional Subspace incumbent + theta * (u @ B), with a fresh
    scalar SE model on theta."""

    _model_per_outer = True

    def __init__(self, cfg: OptConfig, rng=None):
        if cfg.grid.dim != 1:
            raise ConfigError("the Bernstein line optimiser needs a 1-d grid")
        super().__init__(cfg, rng, ScalarKernelSpec("se", 1.0), 1)
        self._B = bernstein_matrix(BERNSTEIN_DEGREE, grid_coordinates(cfg.grid)[:, 0])

    def _start_outer(self) -> Subspace:
        u = self._rng.standard_normal(BERNSTEIN_DEGREE + 1)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            raise NumericalError("degenerate zero direction draw")
        direction = GridFunction(self.cfg.grid, (u / norm) @ self._B)
        return Subspace(self.s, self.best[0], (direction,))

    def _model_point(self, lam, g_values):
        return np.array([float(lam[0])])


class RandomSearchEngine(_EngineBase):
    """Control baseline: every step evaluates a fresh random point
    g = sum_j lam_j h_j with new GP basis draws, same total budget."""

    @property
    def done(self) -> bool:
        return len(self._trace) >= self.cfg.budget

    def _step(self, lam=None):
        # every value is drawn, so replay only checks its stored coordinates
        basis = np.array(
            [
                gp.sample_on_grid(self.cfg.kappa, self.cfg.grid, self._rng).values
                for _ in range(self.cfg.d)
            ]
        )
        lam = self._rng.standard_normal(self.cfg.d)
        self.pending = ("init", len(self._trace), -1, lam, lam @ basis)


def make_engine(cfg: OptConfig, algorithm: str) -> _EngineBase:
    """A fresh engine; ``fixed_subspace`` is the subspace engine with S = 1."""
    if algorithm == "s3bfo":
        return SubspaceSearchEngine(cfg)
    if algorithm == "fixed_subspace":
        return SubspaceSearchEngine(replace(cfg, S=1))
    if algorithm == "linebo_bernstein":
        return BernsteinLineEngine(cfg)
    if algorithm == "random_search":
        return RandomSearchEngine(cfg)
    raise ConfigError(f"unknown algorithm {algorithm!r}")


# --- runners ------------------------------------------------------------


def _run(algorithm: str, objective: Objective, cfg: OptConfig):
    """Drive a fresh engine against the objective until it is done; the
    observation noise comes from the config seed's noise stream."""
    engine, noise_rng = make_engine(cfg, algorithm), rng_streams(cfg.seed)[1]
    aux_fn = getattr(objective, "aux", None)
    while not engine.done:
        g = engine.ask()
        y = float(objective.evaluate(g, noise_rng))
        if not np.isfinite(y):
            raise InputError(
                f"objective returned non-finite value at evaluation {len(engine.trace)}"
            )
        engine.tell(y, aux_fn(g) if aux_fn is not None else {})
    return engine.best, engine.trace


def run_s3bfo(objective: Objective, cfg: OptConfig):
    """Full subspace-search run; returns ((best g, best y), trace)."""
    return _run("s3bfo", objective, cfg)


def run_fixed_subspace(objective: Objective, cfg: OptConfig):
    """Single random subspace with the full inner budget (S forced to 1)."""
    return _run("fixed_subspace", objective, cfg)


def run_linebo_bernstein(objective: Objective, cfg: OptConfig):
    return _run("linebo_bernstein", objective, cfg)


def run_random_search(objective: Objective, cfg: OptConfig):
    return _run("random_search", objective, cfg)


RUNNERS = {
    "s3bfo": run_s3bfo,
    "fixed_subspace": run_fixed_subspace,
    "linebo_bernstein": run_linebo_bernstein,
    "random_search": run_random_search,
}

"""Optimiser loops: subspace search, line search on Bernstein weights,
and random search, all sharing one evaluation protocol.

Every optimiser is a stepwise ask/tell engine: ``ask`` produces the next
function to evaluate, ``tell`` records the observed value.  The runner
functions drive an engine against an in-process objective; the bench
module drives the same engines through a state file, so simulated and
external experiments share a single code path.

The subspace engine and the Bernstein line baseline are one engine
class.  Each outer iteration starts a ``Subspace``, bias (the best
function so far) + span(basis), evaluates an initial design of N(0, I)
coordinate draws, then runs GP-UCB over the coordinates until the inner
budget or the simple-regret certificate ends it.  The engine keeps no
step counters: the next step's (kind, s, t) follows from the last trace
record and the cached certificate decisions, and ``done`` is the end of
that schedule.  For the subspace engine the basis is d GP sample paths;
the line baseline is the d = 1 case, a random direction in
Bernstein-weight space mapped to the grid, and a fresh model per line.
Both model the functions they evaluate with one functional GP, map
coordinates to functions through ``acquisition.candidate_values``, and
use the same UCB search and the same regret certificate.  The search
scores in coordinates, through ``acquisition.subspace_posterior``: it is
built once per search from the projections of the bias and basis on the
model's points, so no candidate's N grid values are formed until the
pick is mapped to its capped function.

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
at the live position after the trace.  A pending suggestion replays
through the same step: it is redrawn without a search (with the basis of
an outer iteration that it opens) and checked against its stored
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
# Largest GP model a run may build, in bytes at its end (``model_bytes``).
# On a 2-core 8 GB host at one BLAS thread, 17 candidates conditioned to
# 2806 points, this size before it counted the posterior's [Wᵀ | Wᵀz]
# (2727 points since), took 188 s and peaked at 1.06 GB reserved, and
# 215 s and 2.09 GB growing by 16 rows, whose copies hold twice the model.
MAX_MODEL_BYTES = 2**30


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
                f"grid.dim and grid.points_per_axis give N = {self.grid.size} grid points; "
                f"at most N = {MAX_GRID_POINTS} are supported: the Matern and linear priors "
                "and the rkhs metric are dense"
            )
        for name in ("d", "S", "T", "n_init"):
            if getattr(self, name) < 1:
                raise ConfigError(f"opt.{name} must be >= 1, got {getattr(self, name)}")
        if self.d > self.grid.size:
            raise ConfigError(
                f"opt.d = {self.d} basis functions on the N = {self.grid.size} points of "
                f"grid.dim = {self.grid.dim} and grid.points_per_axis = "
                f"{self.grid.points_per_axis} are linearly dependent; opt.d must be at most N"
            )
        if self.termination not in TERMINATIONS:
            raise ConfigError(f"unknown opt.termination {self.termination!r}")
        if not self.epsilon > 0:
            raise ConfigError("opt.epsilon must be positive")
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
            raise ConfigError("opt.seed must fit in 64 bits")
        if not (0 < self.mle_grid_min <= self.mle_grid_max):
            raise ConfigError("mle.grid_min and mle.grid_max must satisfy 0 < min <= max")
        if self.mle_grid_points < 1:
            raise ConfigError("mle.grid_points must be >= 1")
        # the model's and the UCB schedule's own checks, run before any engine
        # is built, so a bad value stops a bench before its first cell
        try:
            gp.empty_model(FunctionalKernelSpec(ScalarKernelSpec(self.k_kind, 1.0), "l2grid"),
                           self.noise_sq, self.lengthscales)
        except InputError as exc:
            keys = ("'mle.grid_min' or 'mle.grid_max'" if self.k_lengthscale == "mle"
                    else "'K.lengthscale'")
            raise ConfigError(f"bad value for {keys}: {exc}") from exc
        try:
            UcbSchedule(self.acq_delta, self.d)
        except InputError as exc:
            raise ConfigError(f"bad value for 'acq.delta': {exc}") from exc

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
    subspace: Subspace,
    incumbent: GridFunction,
    search: AcqSearchConfig | None = None,
    rng=None,
    settle_at: float | None = None,
) -> float:
    """Simple-regret certificate for the incumbent on a subspace: the
    maximum of (mean + sd) over the subspace minus (mean - sd) at the
    incumbent.  With high probability the incumbent is within err of the
    subspace optimum, so values below epsilon justify ending the inner
    loop of a maximisation run.

    ``subspace`` is a Subspace, the Bernstein line included (d = 1), and
    ``incumbent`` a function of it; ``model`` is a functional GP.
    The inner maximisation is the acquisition UCB search with unit width;
    its restart seeds come from a fixed internal stream unless an rng is
    given, so the test does not perturb an optimiser's draw sequence.

    With ``settle_at``, the search stops once its running best proves
    err >= settle_at and returns that lower bound of err.  The running
    best only grows and x - lcb rounds monotonically in x, so ``err <
    settle_at`` is the same bool as without it, and below settle_at the
    same float.
    """
    if model.n == 0:
        raise InputError("simple regret test needs a non-empty model")
    if search is None:
        search = AcqSearchConfig()
    if rng is None:
        rng = np.random.default_rng(_REGRET_SEARCH_SEED)
    mean, var = gp.posterior(model, incumbent)
    lcb = mean - math.sqrt(var)
    settled = None if settle_at is None else (lambda best: best - lcb >= settle_at)
    _, ucb_max = acquisition.ucb_search(
        acquisition.subspace_posterior(model, subspace, search), subspace.d, search, rng, 1.0,
        settled,
    )
    return float(ucb_max - lcb)


# --- engines ------------------------------------------------------------


class _EngineBase:
    """Trace, incumbent and ask/tell/replay bookkeeping shared by all
    optimisers.  Subclasses supply ``_position()`` (the next step's
    (kind, s, t), read from the trace; None once the run is done),
    ``_step(position, lam=None)`` (set the pending suggestion there;
    replay passes the stored coordinates) and ``_observe`` (absorb a
    told value)."""

    def __init__(self, cfg: OptConfig, rng=None):
        self.cfg = cfg
        self._rng = rng if rng is not None else rng_streams(cfg.seed)[0]
        self.trace: list[RunRecord] = []  # the run so far, and its position
        # whether the inner loop ends at (s, t): certified, or taken from a trace
        self._inner_ends: dict[tuple[int, int], bool] = {}
        self._best_values: np.ndarray | None = None
        self.pending = None  # (kind, s, t, lam, g_values)

    @property
    def done(self) -> bool:
        return self._position() is None

    @property
    def best(self) -> tuple[GridFunction, float]:
        """Best real observation so far; the zero function before any."""
        if self._best_values is None:
            return GridFunction(self.cfg.grid, np.zeros(self.cfg.grid.size)), 0.0
        return GridFunction(self.cfg.grid, self._best_values), self.trace[-1].best_y

    def ask(self) -> GridFunction:
        if self.pending is not None:
            raise ProtocolError("a suggestion is pending; call tell first")
        if self.done:
            raise ProtocolError("run is complete")
        self._step(self._position())
        return GridFunction(self.cfg.grid, self.pending[4])

    def tell(self, y: float, aux=None) -> RunRecord:
        if self.pending is None:
            raise ProtocolError("no pending suggestion; call ask first")
        if not np.isfinite(y):
            raise InputError(f"observed value must be finite, got {y}")
        _, s, t, lam, g_values = self.pending
        prev = self.trace[-1].best_y if self.trace else -math.inf
        rec = RunRecord(
            eval_index=len(self.trace),
            s=s,
            t=t,
            lam=tuple(float(v) for v in np.atleast_1d(lam)),
            y=float(y),
            best_y=float(max(prev, y)),
            aux=dict(aux or {}),
        )
        self.trace.append(rec)
        if rec.y > prev:  # ties keep the earlier function
            self._best_values = np.array(g_values)
        self._observe(rec)
        self.pending = None
        return rec

    def replay(self, records, pending_desc=None):
        """Rebuild internal state from stored records (see bench state files).

        Every rng draw the original run made is re-drawn in order, and the
        stored records are checked against the schedule and the replayed
        values, so a corrupted or out-of-date state file fails loudly
        instead of diverging.  A stored inner step at (s, t) is the original
        run's decision not to end the inner loop there (see the module).
        """
        for rec in records:
            kind = "init" if rec.t < 0 else "inner"
            self._replay_step((kind, rec.s, rec.t, rec.lam), f"evaluation {rec.eval_index}")
            new = self.tell(rec.y, aux=rec.aux)
            if (new.eval_index, new.best_y) != (rec.eval_index, rec.best_y):
                raise ProtocolError(
                    f"state replay bookkeeping mismatch at evaluation {rec.eval_index}"
                )
        if pending_desc is not None:
            self._replay_step(pending_desc, "the pending suggestion")

    def _replay_step(self, desc, where: str):
        """The step of ``ask`` with the stored coordinates in place of the
        acquisition search, checked against the run schedule before any
        value is drawn."""
        kind, s, t, lam = desc
        lam = np.asarray(lam, dtype=float)
        if kind == "inner" and self.cfg.termination == "regret":  # as _position records it
            self._inner_ends[(s, t)] = False
        if self.done:
            raise ProtocolError("state contains more evaluations than the run allows")
        if self._position() != (kind, s, t):
            raise ProtocolError(f"state disagrees with the run schedule at {where}")
        self._step((kind, s, t), lam)
        if self.pending[3].shape != lam.shape or not np.array_equal(self.pending[3], lam):
            raise ProtocolError(f"state replay diverged at {where}")

    def _observe(self, rec: RunRecord):
        pass


class SubspaceSearchEngine(_EngineBase):
    """GP-UCB over a sequence of random function subspaces.

    Per outer iteration s: start a Subspace (``_start_outer``), by default
    the incumbent plus the span of `d` basis sample paths from the
    solution prior; evaluate ``n_init`` coordinate draws from N(0, I),
    then run the inner UCB loop until its budget T or the simple-regret
    certificate ends it.  The position in that schedule is read from the
    trace (``_position``).

    The model is a functional GP on the functions evaluated, capped ones
    where they were capped: every observation so far, across all
    subspaces, and under budget termination exactly ``cfg.budget`` of
    them, which it reserves.  A regret run ends at a step it cannot know,
    and its model grows.  The model holds one candidate per lengthscale
    of ``cfg.lengthscales``; every observation extends each candidate,
    and the model's posterior is the most likely one's.
    """

    def __init__(self, cfg: OptConfig, rng=None):
        super().__init__(cfg, rng)
        gram = (
            kernels.scalar_gram(cfg.kappa, grid_coordinates(cfg.grid))
            if cfg.k_metric == "rkhs"
            else None
        )
        kernel = FunctionalKernelSpec(ScalarKernelSpec(cfg.k_kind, 1.0), cfg.k_metric, gram)
        reserve = cfg.budget if cfg.termination == "budget" else 0
        self.model = gp.empty_model(kernel, cfg.noise_sq, cfg.lengthscales, reserve=reserve)
        self.subspace = None  # the current outer iteration's Subspace
        self._outer_best = None  # (function, y) within the current subspace
        self._search = cfg.search
        self._schedule = UcbSchedule(cfg.acq_delta, cfg.d)

    def _start_outer(self, s: int) -> Subspace:
        basis = tuple(
            gp.sample_on_grid(self.cfg.kappa, self.cfg.grid, self._rng)
            for _ in range(self.cfg.d)
        )
        return Subspace(s, self.best[0], basis)

    def _position(self):
        """The next step's (kind, s, t), or None once the run is done:
        outer iteration s is n_init initial-design records, then inner
        steps t = 0, 1, ... until T or the certificate ends the loop."""
        if not self.trace:
            return ("init", 0, -1)
        cfg, last = self.cfg, self.trace[-1]
        s, t = last.s, last.t + 1
        # an init record last means outer s holds only init records, at most n_init
        if last.t < 0 and sum(r.s == s for r in self.trace[-cfg.n_init:]) < cfg.n_init:
            return ("init", s, -1)
        if t < cfg.T and cfg.termination == "regret" and (s, t) not in self._inner_ends:
            self._inner_ends[(s, t)] = simple_regret_err(
                self.model, self.subspace, self._outer_best[0], self._search,
                settle_at=cfg.epsilon,
            ) < cfg.epsilon
        if t < cfg.T and not self._inner_ends.get((s, t), False):
            return ("inner", s, t)
        return ("init", s + 1, -1) if s + 1 < cfg.S else None

    def _step(self, position, lam=None):
        """Set the pending suggestion at the position.  Replay passes the
        stored inner coordinates: the search's draws are consumed but it
        is not run."""
        kind, s, t = position
        if self.subspace is None or self.subspace.s != s:
            self._outer_best = None
            self.subspace = self._start_outer(s)
        d = self.subspace.d
        if kind == "init":
            lam = self._rng.standard_normal(d)
        elif lam is None:
            sqrt_beta = math.sqrt(acquisition.beta(self._schedule, t + 1))
            lam, _ = acquisition.ucb_search(
                acquisition.subspace_posterior(self.model, self.subspace, self._search), d,
                self._search, self._rng, sqrt_beta,
            )
        else:
            acquisition.restart_seeds(self._search, d, self._rng)
        self.pending = (kind, s, t, lam, self._function(lam, cap=kind == "inner"))

    def _function(self, lam, cap):
        """bias + lam @ basis, radially capped for inner steps."""
        if cap:
            return acquisition.candidate_values(self.subspace, self._search, lam[None, :])[0]
        basis = np.array([h.values for h in self.subspace.basis])
        return self.subspace.bias.values + lam @ basis

    def _observe(self, rec: RunRecord):
        obs = gp.Observation(GridFunction(self.cfg.grid, self.pending[4]), rec.y)
        if self._outer_best is None or rec.y > self._outer_best[1]:
            self._outer_best = (obs.point, rec.y)
        try:
            self.model = gp.condition(self.model, obs)
        except MemoryError as exc:  # a budget run reserves its buffers for every point at once
            raise ConfigError(
                f"the model does not fit in memory ({exc}): it holds mle.grid_points factors "
                "of n x n floats, n up to opt.S * (opt.n_init + opt.T); lower opt.S, opt.T "
                "or mle.grid_points"
            ) from exc


class BernsteinLineEngine(SubspaceSearchEngine):
    """GP-UCB line search over the weights of a degree-10 Bernstein
    polynomial: each outer iteration searches the line through the
    incumbent along a random unit direction u of weight space, the
    one-dimensional Subspace incumbent + theta * (u @ B), with a fresh
    model of that line's evaluated functions."""

    def __init__(self, cfg: OptConfig, rng=None):
        if cfg.grid.dim != 1:
            raise ConfigError("the Bernstein line optimiser needs a 1-d grid")
        self._B = bernstein_matrix(BERNSTEIN_DEGREE, grid_coordinates(cfg.grid)[:, 0])
        super().__init__(replace(cfg, d=search_dim("linebo_bernstein", cfg.d)), rng)

    def _start_outer(self, s: int) -> Subspace:
        # the model sees only this line's observations
        self.model = gp.empty_model(self.model.kernel, self.cfg.noise_sq, self.cfg.lengthscales)
        u = self._rng.standard_normal(BERNSTEIN_DEGREE + 1)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            raise NumericalError("degenerate zero direction draw")
        direction = GridFunction(self.cfg.grid, (u / norm) @ self._B)
        return Subspace(s, self.best[0], (direction,))


class RandomSearchEngine(_EngineBase):
    """Control baseline: every step evaluates a fresh random point
    g = sum_j lam_j h_j with new GP basis draws, same total budget."""

    def _position(self):
        n = len(self.trace)
        return ("init", n, -1) if n < self.cfg.budget else None

    def _step(self, position, lam=None):
        # every value is drawn, so replay only checks its stored coordinates
        basis = np.array(
            [
                gp.sample_on_grid(self.cfg.kappa, self.cfg.grid, self._rng).values
                for _ in range(self.cfg.d)
            ]
        )
        lam = self._rng.standard_normal(self.cfg.d)
        self.pending = (*position, lam, lam @ basis)


def search_dim(algorithm: str, d: int) -> int:
    """The coordinates of an algorithm's points at ``opt.d = d``: one on
    a line of linebo_bernstein, d otherwise."""
    return 1 if algorithm == "linebo_bernstein" else d


def model_bytes(cfg: OptConfig, algorithm: str) -> int:
    """Bytes of the run's GP model at its end and of a search's subspace,
    8 ((C + 1)(B^2 + B) + B N + B + (d + 1) N + 2 (d + 1)^2 + (d + 2)^2 B):
    C candidates' B x B inverse factors and B whitened targets, and the
    picked one's B x (B + 1) [Wᵀ | Wᵀz]; B metric rows of the N grid values
    with their norms; the subspace's d + 1 rows of bias and basis with
    their L2 and metric Grams, and the (d + 2)^2 x B terms of its squared
    distances (d = 1 for the line).  B is every
    evaluation of the run for s3bfo, of its one subspace for fixed_subspace
    and of one line for linebo_bernstein; T caps each inner loop, so B
    bounds regret runs too.  random_search holds no model."""
    if algorithm == "random_search":
        return 0
    B = cfg.budget if algorithm == "s3bfo" else cfg.n_init + cfg.T
    rows = search_dim(algorithm, cfg.d) + 1
    N = cfg.grid.size
    return 8 * ((len(cfg.lengthscales) + 1) * (B * B + B) + B * N + B + rows * N
                + 2 * rows * rows + (rows + 1) ** 2 * B)


def check_model_bytes(cfg: OptConfig, algorithm: str) -> None:
    """Raise ConfigError if the run's model would outgrow MAX_MODEL_BYTES."""
    size = model_bytes(cfg, algorithm)
    if size > MAX_MODEL_BYTES:
        raise ConfigError(
            f"a {algorithm} run's model would hold {size / 2**30:.1f} GiB by its end, more "
            f"than the {MAX_MODEL_BYTES / 2**30:.1f} GiB supported: mle.grid_points factors "
            "of n x n floats, n up to the run's evaluations, and Grams of opt.d + 1 rows; "
            "lower opt.S, opt.T, opt.n_init, mle.grid_points or opt.d"
        )


def make_engine(cfg: OptConfig, algorithm: str) -> _EngineBase:
    """A fresh engine; ``fixed_subspace`` is the subspace engine with S = 1.
    A run whose model would outgrow MAX_MODEL_BYTES is a ConfigError."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    check_model_bytes(cfg, algorithm)
    if algorithm == "s3bfo":
        return SubspaceSearchEngine(cfg)
    if algorithm == "fixed_subspace":
        return SubspaceSearchEngine(replace(cfg, S=1))
    if algorithm == "linebo_bernstein":
        return BernsteinLineEngine(cfg)
    return RandomSearchEngine(cfg)


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

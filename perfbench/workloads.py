"""Workloads of the funcbo benchmark, run in a fresh child process.

Each workload is a sequence of units derived from the workload seed.  A
unit has an untimed set-up (config text parsed by funcbo, objective
built), a timed part that calls funcbo's public functions, and an
untimed check of the outputs.  The program sees only the generated
config text and the objective values.

* ``grid2d`` -- s3bfo through ``bench.run_bench`` on a 2-d 40x40 grid
  (N=1600), three subspaces of the paper's inner protocol per unit.
* ``session_regret`` -- a lab client alternating ``bench.suggest``, its
  own evaluation of the written CSV and ``bench.tell`` on a state file,
  with regret termination on the 1-d grid.
"""

from __future__ import annotations

import glob
import math
import os
import platform
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import funcbo
from funcbo import bench, optimizer
from funcbo.errors import ProtocolError
from funcbo.gridfn import read_function_csv
from funcbo.objectives import MatchingObjective
from tracer import Layer, Tracer

# The paper protocol of the README bench.cfg, written out so that a change
# of defaults cannot change the workload.
PROTOCOL = """\
grid.dim = 1
grid.points_per_axis = 100
opt.S = 4
opt.T = 30
opt.n_init = 5
opt.d = 1
K.metric = l2grid
K.lengthscale = mle
kappa.lengthscale = 0.3
objective.target_lengthscale = 0.3
objective.noise = 0.01
"""
# One budget-terminated s3bfo repeat per ``bench.run_bench`` call.
BENCH = """\
opt.termination = budget
bench.algorithms = s3bfo
bench.repeats = 1
"""
# Smoke sizes keep every code path but shrink the budgets, for the
# benchmark's own tests.
SMOKE = {"opt.S": 1, "opt.T": 3, "opt.n_init": 2}
GRID2D_AXIS, GRID2D_SMOKE_AXIS = 40, 8
# At the default two BLAS threads a 2-d step costs about 10 ms until the
# model holds about 40 points and about 450 ms after, so the full
# four-subspace run takes 40 s or more and three times that when the host
# is busy; a traced run needs two units within 180 s.  Three subspaces
# (105 evaluations) keep most steps, and the median step, in the slow
# regime.
GRID2D_SUBSPACES = 3
# Regret-terminated sessions end after a seed-dependent number of steps
# (36 to 70 seen), and step latency grows with the step index.  Stopping
# every session at the same step keeps the pooled mix of step indices,
# which sets the latency percentiles, the same on every seed.
SESSION_STEPS, SESSION_SMOKE_STEPS = 36, 4


def _config(text: str, overrides: dict, smoke: bool) -> str:
    values = dict(line.split(" = ", 1) for line in text.splitlines())
    values.update({key: str(value) for key, value in overrides.items()})
    if smoke:
        values.update({key: str(value) for key, value in SMOKE.items() if key in values})
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def unit_seeds(seed: int, unit: int) -> tuple[int, int]:
    """(optimiser seed, target seed) of one unit of a workload seed."""
    opt_seed, target_seed = np.random.SeedSequence([seed, unit]).generate_state(2)
    return int(opt_seed), int(target_seed)


def budget_of(values: dict) -> int:
    return values["opt.S"] * (values["opt.n_init"] + values["opt.T"])


def trace_problems(trace, expected_len: int, label: str) -> list[str]:
    """Output checks on one run's trace; an empty list means it passed."""
    problems = []
    if len(trace) != expected_len:
        problems.append(f"{label}: {len(trace)} evaluations, expected {expected_len}")
    if not all(math.isfinite(rec.y) for rec in trace):
        problems.append(f"{label}: non-finite y")
    best = [rec.best_y for rec in trace]
    if any(later < earlier for earlier, later in zip(best, best[1:])):
        problems.append(f"{label}: best_y decreased")
    return problems


def final_gap(trace) -> float:
    return min(rec.aux["l2_gap"] for rec in trace)


class _FirstEvaluation(BaseException):
    """Ends a set-up-only child at its first objective evaluation.

    A BaseException, so that no handler in the program absorbs it."""


class EvalClock:
    """Timestamps every objective evaluation, from outside the program.

    The first call marks the end of set-up; gaps between consecutive
    calls of one in-process run are that run's step latencies.
    """

    def __init__(self, stop_at_first: bool):
        self.stop_at_first = stop_at_first
        self.first: float | None = None
        self.calls: list[tuple[float, float]] = []
        original = MatchingObjective.evaluate
        clock = self

        def evaluate(objective, g, rng):
            start = time.perf_counter()
            if clock.first is None:
                clock.first = start
                if clock.stop_at_first:
                    raise _FirstEvaluation
            y = original(objective, g, rng)
            clock.calls.append((start, time.perf_counter()))
            return y

        MatchingObjective.evaluate = evaluate

    def steps(self, run_lengths) -> list[list[float]]:
        """Per run, the time from each evaluation's end to the next one's
        start; consecutive runs own consecutive blocks of calls."""
        steps, i = [], 0
        for n in run_lengths:
            run = self.calls[i : i + n]
            i += n
            steps.append([b[0] - a[1] for a, b in zip(run, run[1:])])
        return steps


@dataclass
class UnitResult:
    evals: int = 0
    steps: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Workload:
    """Base: ``setup`` then ``run`` (timed) then ``check`` per unit."""

    def __init__(self, seed: int, smoke: bool, workdir: Path, clock: EvalClock):
        self.seed, self.smoke, self.workdir, self.clock = seed, smoke, workdir, clock


class Grid2d(Workload):
    def setup(self, unit):
        opt_seed, target_seed = unit_seeds(self.seed, unit)
        axis = GRID2D_SMOKE_AXIS if self.smoke else GRID2D_AXIS
        text = _config(
            PROTOCOL + BENCH,
            {
                "grid.dim": 2,
                "grid.points_per_axis": axis,
                "opt.S": GRID2D_SUBSPACES,
                "bench.base_seed": opt_seed,
                "objective.target_seed": target_seed,
            },
            self.smoke,
        )
        return bench.parse_config_lines(text.splitlines()), self.workdir / f"grid{unit}"

    def run(self, prepared):
        values, out = prepared
        return bench.run_bench(values, out)

    def check(self, prepared, result) -> UnitResult:
        values, _ = prepared
        (trace,) = result.traces.values()
        problems = trace_problems(trace, budget_of(values), "s3bfo 2-d")
        return UnitResult(
            evals=len(trace),
            steps=self.clock.steps([len(trace)])[0],
            gaps=[final_gap(trace)],
            attempted=1,
            failed=int(bool(problems)),
            problems=problems,
        )


class SessionRegret(Workload):
    def setup(self, unit):
        opt_seed, target_seed = unit_seeds(self.seed, unit)
        text = _config(
            PROTOCOL,
            {
                "opt.termination": "regret",
                "opt.seed": opt_seed,
                "objective.target_seed": target_seed,
            },
            self.smoke,
        )
        values = bench.parse_config_lines(text.splitlines())
        cfg = bench.build_opt_config(values)
        objective = bench.build_objective(values, cfg.grid)
        state = self.workdir / f"session{unit}.txt"
        state.write_text(text)
        return cfg, objective, state, optimizer.rng_streams(cfg.seed)[1]

    def run(self, prepared):
        """Closed loop, one client; returns step latencies in seconds."""
        _, objective, state, noise = prepared
        suggestion = state.with_suffix(".csv")
        steps = []
        for _ in range(SESSION_SMOKE_STEPS if self.smoke else SESSION_STEPS):
            start = time.perf_counter()
            try:
                bench.suggest(state, suggestion)
            except ProtocolError:
                break  # the run is complete; the check confirms it ended on time
            asked = time.perf_counter() - start
            y = objective.evaluate(read_function_csv(suggestion), noise)
            start = time.perf_counter()
            bench.tell(state, y)
            steps.append(asked + time.perf_counter() - start)
        return steps

    def check(self, prepared, steps) -> UnitResult:
        """The session must equal the in-process run of its config."""
        cfg, objective, state, _ = prepared
        _, engine = bench.load_state(state)
        _, reference = optimizer.run_s3bfo(objective, cfg)
        n = len(engine.trace)
        expected = min(len(reference), SESSION_SMOKE_STEPS if self.smoke else SESSION_STEPS)
        problems = trace_problems(engine.trace, expected, "session")
        if [_record_key(r) for r in engine.trace] != [_record_key(r) for r in reference[:n]]:
            problems.append("session trace differs from the in-process run")
        return UnitResult(
            evals=len(steps),
            steps=steps,
            gaps=[final_gap(reference[:n])] if n else [],
            attempted=max(len(steps), 1),
            failed=max(len(steps), 1) if problems else 0,
            problems=problems,
        )


def _record_key(rec):
    return (rec.eval_index, rec.s, rec.t, rec.lam, rec.y, rec.best_y)


WORKLOADS = {"grid2d": Grid2d, "session_regret": SessionRegret}


# --- per-layer tracing ---------------------------------------------------------


def _rows(position: int):
    def count(args, kwargs, result):
        return len(np.atleast_2d(np.asarray(args[position])))

    return count


def _length(position: int):
    return lambda args, kwargs, result: len(args[position])


LAYERS = (
    Layer("bench.run_bench", ("bench.run_bench",)),
    Layer(
        "optimizer.run",
        tuple(
            f"optimizer.run_{name}"
            for name in ("s3bfo", "fixed_subspace", "linebo_bernstein", "random_search")
        ),
    ),
    Layer(
        "objectives.evaluate",
        ("objectives.MatchingObjective.evaluate", "objectives.EffectiveDimObjective.evaluate"),
    ),
    Layer("bench.load_state", ("bench.load_state",),
          {"records_replayed": lambda args, kwargs, result: len(result[1].trace)}),
    Layer("bench.save_state", ("bench.save_state",),
          {"bytes": lambda args, kwargs, result: os.path.getsize(args[0])}),
    Layer("gridfn.write_function_csv", ("gridfn.write_function_csv",)),
    Layer("optimizer.simple_regret_err", ("optimizer.simple_regret_err",)),
    Layer("gp.tune_and_rebuild", ("gp.tune_and_rebuild",),
          {"points": _length(0), "candidates": _length(2)}),
    Layer("acquisition.golden_multistart", ("acquisition.golden_multistart",)),
    Layer("acquisition.candidate_values", ("acquisition.candidate_values",), {"rows": _rows(2)}),
    Layer("gp.posterior_batch", ("gp.posterior_batch",), {"rows": _rows(1)}),
    Layer("gp.sample_on_grid", ("gp.sample_on_grid",)),
    Layer("kernels.scalar_gram", ("kernels.scalar_gram",)),
)

# The per-layer metrics a traced run reports: (layer, statistic) pairs,
# then ratios derived from them.
REPORTED = (
    ("gp.posterior_batch", ("calls", "rows", "self_s")),
    ("acquisition.golden_multistart", ("calls", "self_s")),
    ("acquisition.candidate_values", ("rows", "self_s")),
    ("gp.tune_and_rebuild", ("calls", "points", "candidates", "self_s")),
    ("gp.sample_on_grid", ("calls", "self_s")),
    ("kernels.scalar_gram", ("calls", "self_s")),
    ("optimizer.simple_regret_err", ("calls", "self_s")),
    ("bench.load_state", ("calls", "self_s", "records_replayed")),
    ("bench.save_state", ("calls", "bytes", "self_s")),
    ("gridfn.write_function_csv", ("self_s",)),
    ("bench.run_bench", ("self_s",)),
    ("optimizer.run", ("self_s",)),
    ("objectives.evaluate", ("calls", "self_s")),
)
STAT_UNITS = {
    "calls": "count", "rows": "count", "points": "count", "candidates": "count",
    "records_replayed": "count", "bytes": "B", "self_s": "s",
}


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a tracer summary; absent layers read 0."""
    metrics = {}
    for layer, stats in REPORTED:
        for stat in stats:
            metrics[f"{layer}.{stat}"] = (summary.get(layer, {}).get(stat, 0.0), STAT_UNITS[stat])
    evals = summary.get("objectives.evaluate", {}).get("calls", 0.0)
    regret = summary.get("optimizer.simple_regret_err", {}).get("calls", 0.0)
    replayed = summary.get("bench.load_state", {}).get("records_replayed", 0.0)
    metrics["optimizer.simple_regret_err.calls_per_eval"] = (regret / evals if evals else 0.0, "ratio")
    metrics["bench.load_state.replay_ratio"] = (replayed / evals if evals else 0.0, "ratio")
    return metrics


# --- environment ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS will use, read through its own API."""
    import ctypes

    import scipy

    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[f"{package.__name__}:{Path(path).name}"] = fn()
                    break
    return found


def _blas_name(package) -> str:
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "funcbo": getattr(funcbo, "__version__", "unknown"),
        "blas": {"numpy": _blas_name(np), "scipy": _blas_name(scipy)},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


# --- child entry -----------------------------------------------------------------


def run_child(
    mode: str, name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    t0: float, out_dir: Path,
) -> dict:
    """Run one workload in this process and return its measurements.

    ``mode`` is "setup" (stop at the first objective evaluation) or
    "measure" (run units until ``seconds`` of timed work, at least one).
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(LAYERS, "funcbo")
    clock = EvalClock(stop_at_first=mode == "setup")
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
    try:
        workload = WORKLOADS[name](seed, smoke, workdir, clock)
        return _measure(workload, seconds, tracer, t0, spans)
    except _FirstEvaluation:
        return {"setup_s": clock.first - t0}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seconds, tracer, t0, spans_path) -> dict:
    total = UnitResult()
    measured, unit, units = 0.0, 0, []
    # Whole units only: start another while it should end inside the window.
    while unit == 0 or measured * (unit + 1) / unit <= seconds:
        try:
            with tracer.span("setup", unit) if tracer else nullcontext():
                prepared = workload.setup(unit)
            workload.clock.calls.clear()
            start = time.perf_counter()
            with tracer.span("unit", unit) if tracer else nullcontext():
                output = workload.run(prepared)
            duration = time.perf_counter() - start
            measured += duration
            res = workload.check(prepared, output)
            units.append({"evals": res.evals, "seconds": duration, "steps": res.steps})
        except Exception as exc:  # a failing program is reported, not fatal
            total.attempted += 1
            total.failed += 1
            total.problems.append(f"unit {unit}: {type(exc).__name__}: {exc}")
            break
        total.evals += res.evals
        total.attempted += res.attempted
        total.failed += res.failed
        total.gaps += res.gaps
        total.problems += res.problems
        unit += 1
    result = {
        "setup_s": workload.clock.first - t0 if workload.clock.first else None,
        "units": units,
        "measured_s": measured,
        "evals": total.evals,
        "gaps": total.gaps,
        "attempted": total.attempted,
        "failed": total.failed,
        "problems": total.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(workload.seed),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(spans_path)
        result["layers"] = {k: list(v) for k, v in layer_metrics(tracer.summary()).items()}
        result["absent"] = tracer.absent
        result["span_fit"] = tracer.root_fit()
    return result

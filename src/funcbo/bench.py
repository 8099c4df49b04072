"""Experiment harness: flat-text configs, CSV results, ask/tell state.

Config files are flat ``key = value`` lines with dotted keys; blank
lines and ``#`` comments are allowed.  Parsing is total: unknown or
duplicate keys are errors.  All floats are serialised with repr(), so
writing and re-reading any artifact is byte-stable and reruns of the
same config produce byte-identical output.

Ask/tell state files extend the config format with a ``[trace]`` CSV
section, an optional ``[pending]`` suggestion and a closing ``[digest]``
line, the sha256 of the canonical config lines (followed, for SE bases
on a 2-d or 3-d grid, by a marker of their per-axis prior factor, so
states saved with the dense factor fail to load).  Loading a state
rejects a config that no longer matches its digest, then replays the
recorded evaluations through a fresh engine (re-drawing every random
value in order), which both reconstructs the exact internal state and
verifies the records against the deterministic run schedule.  Under
regret termination the replay takes each inner-loop continuation from
the trace and re-certifies only the recorded early ends; ``suggest``
and ``export`` certify the live position once.

A process keeps the engine that its last ``suggest`` or ``tell`` saved
live, under the exact text it wrote: a load of that text takes it and
neither parses nor replays, and its next save keeps the lines it wrote
last and formats only the records added since.  Any other load replays.
State files are replaced atomically.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import threading
import weakref
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import gp, optimizer
from .errors import ConfigError, InputError, ProtocolError
from .gridfn import GridSpec, write_function_csv
from .kernels import DISTANCE_KINDS, METRICS, SCALAR_KINDS, ScalarKernelSpec
from .objectives import EffectiveDimObjective, MatchingObjective
from .optimizer import ALGORITHMS, TERMINATIONS, OptConfig, RunRecord

OBJECTIVE_KINDS = ("match", "effdim")


def _parse_int(text: str) -> int:
    return int(text)


def _parse_seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_lengthscale(text: str):
    return "mle" if text == "mle" else _parse_float(text)


def _parse_enum(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text

    return parse


def _parse_algorithms(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ValueError("must list at least one algorithm")
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("lists an algorithm twice")
    return names


# Optimiser key -> (parser, the OptConfig field it sets); a dotted field
# is a field of the grid, kappa or search composite.  The field's dataclass
# default is the key's default.
OPT_FIELDS = {
    "grid.dim": (_parse_int, "grid.dim"),
    "grid.points_per_axis": (_parse_int, "grid.points_per_axis"),
    "kappa.kind": (_parse_enum(SCALAR_KINDS), "kappa.kind"),
    "kappa.lengthscale": (_parse_float, "kappa.lengthscale"),
    "K.kind": (_parse_enum(DISTANCE_KINDS), "k_kind"),
    "K.metric": (_parse_enum(METRICS), "k_metric"),
    "K.lengthscale": (_parse_lengthscale, "k_lengthscale"),
    "noise.sigma": (_parse_float, "noise_sigma"),
    "mle.grid_min": (_parse_float, "mle_grid_min"),
    "mle.grid_max": (_parse_float, "mle_grid_max"),
    "mle.grid_points": (_parse_int, "mle_grid_points"),
    "acq.delta": (_parse_float, "acq_delta"),
    "acq.restarts": (_parse_int, "search.restarts"),
    "acq.local_steps": (_parse_int, "search.local_steps"),
    "acq.lambda_box": (_parse_float, "search.lambda_box"),
    "opt.l_max": (_parse_float, "search.l_max"),
    "opt.d": (_parse_int, "d"),
    "opt.S": (_parse_int, "S"),
    "opt.T": (_parse_int, "T"),
    "opt.n_init": (_parse_int, "n_init"),
    "opt.termination": (_parse_enum(TERMINATIONS), "termination"),
    "opt.epsilon": (_parse_float, "epsilon"),
    "opt.seed": (_parse_seed, "seed"),
}

# key -> (parser, default)
SCHEMA = {
    **{key: (parse, reduce(getattr, name.split("."), OptConfig))
       for key, (parse, name) in OPT_FIELDS.items()},
    "opt.algorithm": (_parse_enum(ALGORITHMS), "s3bfo"),
    "objective.kind": (_parse_enum(OBJECTIVE_KINDS), "match"),
    "objective.target_kernel": (_parse_enum(SCALAR_KINDS), "se"),
    "objective.target_lengthscale": (_parse_float, 0.3),
    "objective.target_seed": (_parse_seed, 123),
    "objective.noise": (_parse_float, 0.01),
    "objective.d_e": (_parse_int, 2),
    "bench.repeats": (_parse_int, 5),
    "bench.base_seed": (_parse_seed, 0),
    "bench.algorithms": (_parse_algorithms, ("s3bfo",)),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_config_lines(lines) -> dict:
    """Apply ``key = value`` lines on top of defaults; total, no unknowns."""
    values = default_config()
    seen = set()
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {idx}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"duplicate config key {key!r}")
        seen.add(key)
        try:
            values[key] = SCHEMA[key][0](text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return values


def parse_config(path) -> dict:
    return parse_config_lines(Path(path).read_text().splitlines())


def format_value(value) -> str:
    if isinstance(value, bool):
        raise ConfigError(f"unsupported config value {value!r}")
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_opt_config(values: dict) -> OptConfig:
    fields = {}
    for key, (_, field) in OPT_FIELDS.items():
        name, _, sub = field.partition(".")
        try:  # a composite is checked at each of its keys, so an error names the key
            fields[name] = replace(fields.get(name, getattr(OptConfig, name)),
                                   **{sub: values[key]}) if sub else values[key]
        except InputError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    try:
        return OptConfig(**fields)
    except InputError as exc:
        raise ConfigError(str(exc)) from exc


def build_objective(values: dict, grid: GridSpec):
    try:
        kernel = ScalarKernelSpec(
            values["objective.target_kernel"], values["objective.target_lengthscale"]
        )
    except InputError as exc:
        raise ConfigError(f"bad value for 'objective.target_lengthscale': {exc}") from exc
    noise = values["objective.noise"]
    if noise < 0:  # checked before the objective's prior draws
        raise ConfigError(f"objective.noise must be nonnegative, got {noise}")
    if values["objective.kind"] == "match":
        return MatchingObjective.from_kernel(grid, kernel, values["objective.target_seed"], noise)
    d_e = values["objective.d_e"]
    if not 1 <= d_e <= grid.size:  # N grid points hold at most N orthonormal directions
        raise ConfigError(f"objective.d_e must be >= 1 and at most the N = {grid.size} "
                          f"points of grid.dim and grid.points_per_axis, got {d_e}")
    target_child, dir_child = np.random.SeedSequence(
        values["objective.target_seed"]
    ).spawn(2)
    targets = 0.5 * np.random.default_rng(target_child).standard_normal(d_e)
    return EffectiveDimObjective.random_directions(grid, kernel, targets, dir_child, noise)


# --- trace and summary CSV ----------------------------------------------


def write_trace_csv(path, trace: list[RunRecord]) -> None:
    aux_keys = sorted({key for rec in trace for key in rec.aux})
    header = ["eval_index", "s", "t", "y", "best_y", *aux_keys]
    lines = [",".join(header)]
    for rec in trace:
        row = [str(rec.eval_index), str(rec.s), str(rec.t), repr(rec.y), repr(rec.best_y)]
        row += [repr(float(rec.aux[key])) for key in aux_keys]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(path, series: list[np.ndarray]) -> None:
    """Per-index median/min/max across repeat series of equal meaning.

    One sort of the stacked series gives all three, where a per-index
    ``np.median`` would run once per index and import ``numpy.ma``.  The
    median sums its one or two middle values from 0.0, as ``np.median``
    does, so it has the same bits.  The series are finite (engines reject
    non-finite values, and gaps are norms), so the first and last sorted
    values are the min and max; only the sign of a zero could differ."""
    length = min(len(s) for s in series)
    stack = np.sort([np.asarray(s)[:length] for s in series], axis=0)
    half = len(series) // 2
    if len(series) % 2:
        median = 0.0 + stack[half]
    else:
        median = (0.0 + stack[half - 1] + stack[half]) / 2.0
    lines = ["eval_index,median,min,max"]
    for i in range(length):
        lines.append(
            f"{i},{float(median[i])!r},{float(stack[0, i])!r},{float(stack[-1, i])!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def best_gap_series(trace: list[RunRecord]) -> np.ndarray:
    """Running minimum of the noiseless matching gap along a trace."""
    return np.minimum.accumulate([rec.aux["l2_gap"] for rec in trace])


def best_y_series(trace: list[RunRecord]) -> np.ndarray:
    return np.array([rec.best_y for rec in trace])


@dataclass(frozen=True)
class BenchResult:
    trace_paths: dict[tuple[str, int], Path]
    summary_paths: dict[str, Path]
    traces: dict[tuple[str, int], list[RunRecord]]


def run_bench(values: dict, out_dir) -> BenchResult:
    """Run every configured (algorithm x repeat) cell and write CSVs.

    Per cell: one trace CSV, seeded base_seed + repeat.  Per algorithm:
    one summary CSV with the per-eval-index median and min/max across
    repeats of the best-so-far matching gap (or best_y for objectives
    without a gap diagnostic).
    """
    opt_cfg = build_opt_config(values)
    objective = build_objective(values, opt_cfg.grid)
    matching = values["objective.kind"] == "match"
    repeats = values["bench.repeats"]
    if repeats < 1:
        raise ConfigError("bench.repeats must be >= 1")
    if values["bench.base_seed"] + repeats - 1 >= 2**64:
        raise ConfigError("bench.base_seed + bench.repeats - 1 must fit in 64 bits: "
                          "each repeat's seed is bench.base_seed + repeat")
    for algorithm in values["bench.algorithms"]:
        optimizer.check_model_bytes(opt_cfg, algorithm)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_paths, summary_paths, traces = {}, {}, {}
    for algorithm in values["bench.algorithms"]:
        series = []
        for rep in range(repeats):
            cfg = replace(opt_cfg, seed=values["bench.base_seed"] + rep)
            _, trace = optimizer.RUNNERS[algorithm](objective, cfg)
            path = out / f"trace_{algorithm}_rep{rep}.csv"
            write_trace_csv(path, trace)
            trace_paths[(algorithm, rep)] = path
            traces[(algorithm, rep)] = trace
            series.append(best_gap_series(trace) if matching else best_y_series(trace))
        spath = out / f"summary_{algorithm}.csv"
        write_summary_csv(spath, series)
        summary_paths[algorithm] = spath
    return BenchResult(trace_paths, summary_paths, traces)


# --- ask/tell state -------------------------------------------------------


def _lam_width(values: dict) -> int:
    return optimizer.search_dim(values["opt.algorithm"], values["opt.d"])


def _trace_header(width: int) -> str:
    lam_cols = [f"lambda{j}" for j in range(width)]
    return ",".join(["eval_index", "s", "t", *lam_cols, "y", "best_y"])


def _config_lines(values: dict) -> list[str]:
    """The canonical config lines of a state: every session key, sorted."""
    keys = sorted(key for key in SCHEMA if not key.startswith("bench."))
    return [f"{key} = {format_value(values[key])}" for key in keys]


# Hashed after the config lines of a session whose bases are SE draws on a
# 2-d or 3-d grid.  Those priors are factored per axis, which maps the same
# normal draws to other bases than the dense factor did before, so a state
# saved with the dense factor must not replay onto them.
_PER_AXIS_PRIOR_LINE = "# kappa: se prior factored per axis"


def _digest(lines) -> str:
    """sha256 of the lines, each ending in a newline."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _config_digest(values: dict) -> str:
    """The digest of the canonical config lines, with the per-axis prior
    marker for SE bases on a 2-d or 3-d grid."""
    lines = _config_lines(values)
    if gp.prior_per_axis(values["kappa.kind"], values["grid.dim"]):
        lines.append(_PER_AXIS_PRIOR_LINE)
    return _digest(lines)


def _write_atomic(path, data: bytes) -> None:
    """Write data to a new file beside path, then move it onto path, so an
    interrupted or failed write leaves the previous file whole.  The new
    file keeps the mode of the one it replaces."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as out:
            out.write(data)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _record_row(rec: RunRecord) -> str:
    """A record's line in the state's [trace] section."""
    return ",".join([str(rec.eval_index), str(rec.s), str(rec.t), *map(repr, rec.lam),
                     repr(rec.y), repr(rec.best_y)])


class _StateText(NamedTuple):
    """A state file's text, and its parts that a later save of the same
    engine keeps: the lines before the records, the lines of the first
    ``count`` records and the [digest] section."""

    text: str
    head: str
    rows: str
    count: int
    tail: str


def save_state(path, values: dict, engine, earlier: _StateText | None = None) -> _StateText:
    """Write the engine's state file; returns its text.  ``earlier`` is
    what an earlier save of this engine with these values returned: its
    lines are kept, and only the records added since are formatted.
    Without it every line is formatted."""
    if earlier is None:
        head = ["# funcbo ask/tell state", *_config_lines(values), "[trace]",
                _trace_header(_lam_width(values))]
        earlier = _StateText("", "".join(line + "\n" for line in head), "", 0,
                             f"[digest]\nconfig_sha256 = {_config_digest(values)}\n")
    rows = earlier.rows + "".join(_record_row(rec) + "\n" for rec in engine.trace[earlier.count:])
    pending = ""
    if engine.pending is not None:
        kind, s, t, lam = engine.pending[:4]
        fields = [kind, str(s), str(t), *[repr(float(v)) for v in lam]]
        pending = f"[pending]\n{','.join(fields)}\n"
    text = earlier.head + rows + pending + earlier.tail
    _write_atomic(path, text.encode())
    return _StateText(text, earlier.head, rows, len(engine.trace), earlier.tail)


def _state_number(parse, text: str, where: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad number {text!r} in the state {where}: {exc}") from exc


def _parse_state_text(text: str):
    config_lines, trace_lines, pending_lines, digest_lines = [], [], [], []
    sections = {"[trace]": trace_lines, "[pending]": pending_lines, "[digest]": digest_lines}
    section = config_lines
    for raw in text.splitlines():
        line = raw.strip()
        if line in sections:
            section = sections[line]
        elif line.startswith("[") and line.endswith("]"):
            raise ConfigError(f"unknown state section {line!r}")
        elif line or section is config_lines:  # config errors name file lines
            section.append(raw)
    if len(pending_lines) > 1 or len(digest_lines) > 1:
        raise ConfigError("the state's [pending] and [digest] sections hold one line each")
    digest = None
    for line in digest_lines:
        key, _, text_val = line.partition("=")
        if key.strip() != "config_sha256":
            raise ConfigError(f"bad digest section line: {line.strip()!r}")
        digest = text_val.strip()
    values = parse_config_lines(config_lines)
    # checked before the records, which the config tells how to read
    if (trace_lines[1:] or pending_lines) and digest != _config_digest(values):
        if digest == _digest(_config_lines(values)):
            raise ProtocolError(
                "the state was saved before SE priors on 2-d and 3-d grids were factored "
                "per axis, which draws other bases; it cannot be replayed, start a new session"
            )
        raise ProtocolError("the state's [digest] is missing or does not match its config")
    width = _lam_width(values)
    if trace_lines and trace_lines[0].strip() != _trace_header(width):
        raise ConfigError(f"bad state trace header: {trace_lines[0]!r}")
    records = []
    for line in trace_lines[1:]:
        parts = line.split(",")
        if len(parts) != 5 + width:
            raise ConfigError(f"bad state trace row: {line!r}")
        ints = [_state_number(_parse_int, v, "trace") for v in parts[:3]]
        floats = [_state_number(_parse_float, v, "trace") for v in parts[3:]]
        records.append(
            RunRecord(
                eval_index=ints[0],
                s=ints[1],
                t=ints[2],
                lam=tuple(floats[:width]),
                y=floats[width],
                best_y=floats[width + 1],
            )
        )
    pending = None
    if pending_lines:
        parts = pending_lines[0].split(",")
        if len(parts) != 3 + width or parts[0] not in ("init", "inner"):
            raise ConfigError(f"bad pending suggestion line: {pending_lines[0]!r}")
        pending = (
            parts[0],
            _state_number(_parse_int, parts[1], "pending suggestion"),
            _state_number(_parse_int, parts[2], "pending suggestion"),
            tuple(_state_number(_parse_float, v, "pending suggestion") for v in parts[3:]),
        )
    return values, records, pending


# The engine that ``_save`` wrote last, with the state text it wrote:
# (text, values, engine), or None.  A load takes it out, so the caller owns
# the engine it gets and a command that fails keeps none live.
_live = None
_live_lock = threading.Lock()
# The text of each engine's last save, which its next save extends.
_saved_texts = weakref.WeakKeyDictionary()


def _take_live(text: str | None):
    """Empty the live slot; its (values, engine) if they saved exactly this
    text, otherwise None."""
    global _live
    with _live_lock:
        live, _live = _live, None
    return live[1:] if live is not None and live[0] == text else None


def _save(state_path, values: dict, engine) -> None:
    """Save the state, then keep the engine live under the text it wrote."""
    global _live
    state = _saved_texts[engine] = save_state(state_path, values, engine,
                                              _saved_texts.get(engine))
    with _live_lock:
        _live = (state.text, values, engine)


def load_state(path):
    """Parse a state (or plain config) file and replay it into an engine.

    Returns (values, engine).  A file with a trace record or a pending
    suggestion must end with the digest of its parsed config, so an
    edited config fails with a ProtocolError instead of silently
    changing the run; a plain config starts a fresh session.  Deleting
    trailing records (and the pending line) while keeping the digest
    gives the file saved at that earlier tell: a valid rollback.
    Replay re-draws every random value the original session drew and
    checks each record against the run schedule.  A stored inner step
    counts as the original run's decision to continue its inner loop;
    only a recorded early end has its regret certificate recomputed, and
    it must be below epsilon.  If the last ``suggest`` or ``tell`` of this
    process saved exactly this text and no load has taken its engine
    since, that engine and its values are returned as they are, and the
    caller owns them.
    """
    text = Path(path).read_text()
    live = _take_live(text)
    if live is not None:
        return live
    values, records, pending = _parse_state_text(text)
    engine = optimizer.make_engine(build_opt_config(values), values["opt.algorithm"])
    engine.replay(records, pending)
    return values, engine


def suggest(state_path, out_path) -> Path:
    """Emit the next query function as CSV and persist it as pending."""
    values, engine = load_state(state_path)
    if engine.pending is not None:
        raise ProtocolError("a suggestion is already pending; tell its value first")
    if engine.done:
        raise ProtocolError("run is complete; no further suggestions")
    g = engine.ask()
    write_function_csv(g, out_path)
    _save(state_path, values, engine)
    return Path(out_path)


def tell(state_path, y: float) -> RunRecord:
    """Record the observed value for the pending suggestion."""
    values, engine = load_state(state_path)
    if engine.pending is None:
        raise ProtocolError("no pending suggestion; run suggest first")
    rec = engine.tell(float(y))
    _save(state_path, values, engine)
    return rec


def export_function(state_path, out_path) -> Path:
    """Write the incumbent function of a finished run as CSV."""
    _, engine = load_state(state_path)
    if not engine.done:
        raise ProtocolError("run is not finished; cannot export the incumbent yet")
    best_g, _ = engine.best
    write_function_csv(best_g, out_path)
    return Path(out_path)

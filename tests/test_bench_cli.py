import contextlib
import dataclasses
import functools
import gc
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcbo import bench, cli, gp, kernels, optimizer
from funcbo.errors import ConfigError, FuncboError, NumericalError, ProtocolError
from funcbo.gridfn import read_function_csv
from funcbo.optimizer import ALGORITHMS, RUNNERS, make_engine, rng_streams
from reference import read_trace_csv

SMALL = """
opt.algorithm = random_search
opt.S = 2
opt.T = 3
opt.n_init = 2
opt.seed = 4
bench.repeats = 1
bench.algorithms = random_search
"""


def _values(text=SMALL):
    return bench.parse_config_lines(text.splitlines())


def test_defaults_and_overrides():
    values = _values("opt.T = 7\nK.lengthscale = 0.5\n")
    assert values["opt.T"] == 7
    assert values["K.lengthscale"] == 0.5
    assert values["opt.S"] == 4  # untouched default
    assert _values("K.lengthscale = mle")["K.lengthscale"] == "mle"


def test_unknown_key_is_error_naming_the_key():
    with pytest.raises(ConfigError, match="opt.budget"):
        _values("opt.budget = 3")


def test_duplicate_key_is_error():
    with pytest.raises(ConfigError, match="duplicate"):
        _values("opt.T = 3\nopt.T = 4")


def test_bad_value_is_error_naming_the_key():
    with pytest.raises(ConfigError, match="opt.T"):
        _values("opt.T = soon")
    with pytest.raises(ConfigError, match="opt.termination"):
        _values("opt.termination = whenever")
    with pytest.raises(ConfigError, match="bench.algorithms"):
        _values("bench.algorithms = s3bfo,warp_drive")
    with pytest.raises(ConfigError, match="bench.algorithms"):
        _values("bench.algorithms = random_search,random_search")


def test_malformed_line_is_error():
    with pytest.raises(ConfigError, match="line 1"):
        _values("what even is this")


_CONFIG_VALUE = st.one_of(
    st.integers(-3, 20_000).map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["mle", "se", "linear", "rkhs", "regret", "s3bfo", "effdim", "", "1e200", "1e308", "1e-320"]
    ),
    st.text(alphabet="0123456789.-+eEinfamlxs_, =#", max_size=12),
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(bench.SCHEMA)), _CONFIG_VALUE).map(" = ".join),
    st.text(alphabet="abcdegiklmnoprstx._ =#[]0123456789", max_size=20),
)


# The size keys a run is scaled down to when the sampled lines leave them
# alone; a sampled size is kept, and the grid keeps at least opt.d points.
_SMALL_RUN = {"grid.points_per_axis": 8, "opt.S": 2, "opt.T": 2, "opt.n_init": 1}


def _api_values(lines):
    """The config values of the key lines as a Python caller would pass
    them: each in its key's type, without the parser's checks (finite
    floats, seeds >= 0, listed names).  A line whose text is not of that
    type is left out."""
    values = bench.default_config()
    for line in lines:
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in bench.OPT_FIELDS:
            continue
        types = (float, str) if key == "K.lengthscale" else (type(values[key]),)
        for kind in types:
            with contextlib.suppress(ValueError):
                values[key] = kind(text)
                break
    return values


def _a_few_steps(cfg, algorithm):
    engine = make_engine(cfg, algorithm)
    for y in (0.5, -0.25, 1.0, 0.0):
        if engine.done:
            break
        engine.ask()
        engine.tell(y)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=6), api=st.booleans())
@example(lines=["noise.sigma = 1e200"], api=False)  # sampled in only about 1 run in 5
# candidates' squared norms overflowed and every score was NaN: the bound on
# acq.lambda_box held in config files only, not for Python callers
@example(lines=["acq.lambda_box = 1e200"], api=True)
@example(lines=["acq.delta = 1.5"], api=False)  # the error did not name its key
@example(lines=["opt.d = 50"], api=False)  # more basis functions than 8 grid points
# np.geomspace overflowed on the MLE grid's end before the end was checked
@example(lines=["mle.grid_max = 1.7976931348622103e+308"], api=False)
def test_config_lines_build_or_raise_funcbo_error(lines, api):
    # a config that builds runs a few ask/tell steps of every algorithm
    # without a warning, or raises a FuncboError; a config of one key that
    # does not build names that key
    keys = {line.partition("=")[0].strip() for line in lines}
    try:
        values = _api_values(lines) if api else bench.parse_config_lines(lines)
        bench.build_opt_config(values)
    except FuncboError as exc:
        if len(keys) == 1 and keys <= set(bench.SCHEMA):
            assert keys.pop() in str(exc)
        return
    small = {**_SMALL_RUN, "grid.points_per_axis": max(8, values["opt.d"])}
    cfg = bench.build_opt_config({**values, **{
        key: size for key, size in small.items() if key not in keys}})
    if cfg.grid.size > 512 or cfg.search.restarts * cfg.search.local_steps > 20_000:
        return  # a sampled size this large takes seconds a step; it was built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for algorithm in ALGORITHMS:
            try:
                _a_few_steps(cfg, algorithm)
            except FuncboError:
                pass


def test_default_config_builds_the_default_opt_config():
    assert bench.build_opt_config(bench.default_config()) == optimizer.OptConfig()


def test_every_opt_config_field_is_set_by_exactly_one_key():
    names = []
    for f in dataclasses.fields(optimizer.OptConfig):
        if dataclasses.is_dataclass(f.default):
            names += [f"{f.name}.{sub.name}" for sub in dataclasses.fields(f.default)]
        else:
            names.append(f.name)
    names.remove("kappa.variance")  # the basis prior keeps unit variance
    assert sorted(name for _, name in bench.OPT_FIELDS.values()) == sorted(names)


def test_readme_config_table_gives_every_key_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.partition("## Configuration")[2].partition("Every value is checked")[0]
    pairs = re.findall(r"`([\w.]+)` \(([^)]*)\)", table)
    assert sorted(key for key, _ in pairs) == sorted(bench.SCHEMA)
    defaults = bench.default_config()
    for key, text in pairs:
        assert text == bench.format_value(defaults[key]), key


def test_run_bench_trace_and_summary_shapes(tmp_path):
    result = bench.run_bench(_values(), tmp_path)
    trace_rows = read_trace_csv(result.trace_paths[("random_search", 0)])
    assert len(trace_rows) == 10  # 2 * (2 + 3)
    assert [r["eval_index"] for r in trace_rows] == list(range(10))
    summary = (result.summary_paths["random_search"]).read_text().strip().splitlines()
    assert summary[0] == "eval_index,median,min,max"
    assert len(summary) - 1 == 10
    for line in summary[1:]:
        _, med, lo, hi = line.split(",")
        assert float(lo) <= float(med) <= float(hi)


def test_run_bench_rerun_is_byte_identical(tmp_path):
    text = SMALL.replace("bench.repeats = 1", "bench.repeats = 2").replace(
        "bench.algorithms = random_search", "bench.algorithms = random_search,s3bfo"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    res_a = bench.run_bench(_values(text), a)
    res_b = bench.run_bench(_values(text), b)
    for key, path in res_a.trace_paths.items():
        assert path.read_bytes() == res_b.trace_paths[key].read_bytes()
    for key, path in res_a.summary_paths.items():
        assert path.read_bytes() == res_b.summary_paths[key].read_bytes()


def test_trace_csv_columns_and_aux(tmp_path):
    text = SMALL.replace("random_search", "s3bfo")
    result = bench.run_bench(_values(text), tmp_path)
    path = result.trace_paths[("s3bfo", 0)]
    header = path.read_text().splitlines()[0]
    assert header == "eval_index,s,t,y,best_y,l2_gap"
    rows = read_trace_csv(path)
    assert all(row["l2_gap"] >= 0 for row in rows)


def test_run_bench_effdim_uses_best_y_summary(tmp_path):
    text = (
        "objective.kind = effdim\nobjective.d_e = 2\nopt.d = 2\n"
        "opt.S = 1\nopt.T = 3\nopt.n_init = 2\n"
        "bench.repeats = 2\nbench.algorithms = fixed_subspace\n"
    )
    result = bench.run_bench(_values(text), tmp_path)
    trace = result.traces[("fixed_subspace", 1)]
    assert len(trace) == 5
    summary = result.summary_paths["fixed_subspace"].read_text().splitlines()
    # summary tracks best_y (no gap diagnostic for this objective)
    last = summary[-1].split(",")
    assert float(last[1]) <= 0.0  # effdim objective is nonpositive


@pytest.mark.parametrize("repeats", [1, 2, 3, 4])
def test_summary_csv_is_the_per_index_numpy_median_min_max(tmp_path, repeats):
    rng = np.random.default_rng(repeats)
    series = [rng.standard_normal(12 + 3 * k) * 10.0 ** rng.uniform(-3, 3)
              for k in range(repeats)]
    stack = np.array([s[:12] for s in series])
    expected = ["eval_index,median,min,max"] + [
        f"{i},{float(np.median(col))!r},{float(np.min(col))!r},{float(np.max(col))!r}"
        for i, col in enumerate(stack.T)
    ]
    bench.write_summary_csv(tmp_path / "summary.csv", series)
    assert (tmp_path / "summary.csv").read_text() == "\n".join(expected) + "\n"


def test_run_bench_does_not_import_numpy_ma(tmp_path):
    code = ("import sys\nfrom funcbo import bench\n"
            f"bench.run_bench(bench.parse_config_lines({SMALL!r}.splitlines()), sys.argv[1])\n"
            "assert 'numpy.ma' not in sys.modules")
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "summary_random_search.csv").exists()


def test_imports_runs_and_sessions_do_not_import_logging(tmp_path):
    # gp imports logging only to report a numerical fallback, which none
    # of these hits
    code = (
        "import sys\nimport funcbo\nassert 'logging' not in sys.modules\n"
        "from funcbo import bench, cli\nassert 'logging' not in sys.modules\n"
        "values = bench.parse_config_lines(sys.argv[2].splitlines())\n"
        "bench.run_bench(values, sys.argv[1])\n"
        "state, g = sys.argv[1] + '/state.txt', sys.argv[1] + '/g.csv'\n"
        "open(state, 'w').write(sys.argv[2])\n"
        "for argv in (['suggest', '--out', g], ['tell', '--y', '0.5'], ['suggest', '--out', g]):\n"
        "    assert cli.main([argv[0], '--state', state, *argv[1:]]) == 0\n"
        "assert 'logging' not in sys.modules, 'logging imported'"
    )
    config = ("opt.S = 2\nopt.T = 2\nopt.n_init = 2\nbench.repeats = 1\n"
              "bench.algorithms = s3bfo,linebo_bernstein\n")
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path), config],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "summary_linebo_bernstein.csv").exists()
    assert "[pending]" in (tmp_path / "state.txt").read_text()


@pytest.mark.blas_threads
def test_session_equivalence_under_regret_termination(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text(
        "opt.S = 2\nopt.T = 6\nopt.n_init = 2\nopt.seed = 3\n"
        "opt.termination = regret\nopt.epsilon = 0.3\n"
    )
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    _, reference = RUNNERS["s3bfo"](objective, cfg)

    _, noise_rng = rng_streams(cfg.seed)
    out = tmp_path / "g.csv"
    for _ in range(len(reference)):
        bench.suggest(state, out)
        bench.tell(state, objective.evaluate(read_function_csv(out), noise_rng))
    _, engine = bench.load_state(state)
    assert engine.done
    assert [(r.s, r.t, r.lam, r.y, r.best_y) for r in engine.trace] == [
        (r.s, r.t, r.lam, r.y, r.best_y) for r in reference
    ]


def _fresh_state(tmp_path, extra=""):
    state = tmp_path / "state.txt"
    state.write_text("opt.S = 2\nopt.T = 2\nopt.n_init = 1\nopt.seed = 8\n" + extra)
    return state


def test_suggest_tell_protocol(tmp_path):
    state = _fresh_state(tmp_path)
    out = tmp_path / "g.csv"
    bench.suggest(state, out)
    with pytest.raises(ProtocolError, match="pending"):
        bench.suggest(state, out)
    bench.tell(state, -1.25)
    with pytest.raises(ProtocolError, match="suggest"):
        bench.tell(state, -1.25)


def test_first_suggestion_is_first_initial_design_point(tmp_path):
    state = _fresh_state(tmp_path)
    values = bench.parse_config(state)  # before suggest rewrites the file
    out = tmp_path / "g.csv"
    bench.suggest(state, out)
    suggested = read_function_csv(out)
    engine = make_engine(bench.build_opt_config(values), "s3bfo")
    expected = engine.ask()
    assert engine.pending[0] == "init"
    np.testing.assert_array_equal(suggested.values, expected.values)


def _forget_live_engine():
    """As in a new process: no engine is live, so a load replays."""
    bench._take_live(None)


def _replaying(command):
    """The session command with the live engine forgotten first, so that
    its load replays the trace."""
    def run(state, *args):
        _forget_live_engine()
        return command(state, *args)

    return run


_LOAD_STEPS = {"_parse_state_text": bench, "replay": optimizer._EngineBase}


def _count_load_steps(monkeypatch, steps=_LOAD_STEPS):
    """Count the calls of each step a load can take but the live one."""
    counts = {}
    for name, owner in steps.items():
        def counted(*args, name=name, real=getattr(owner, name)):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def _checking_saves(monkeypatch, scratch):
    """Check every save_state against a save of the same engine and values
    without earlier text, byte for byte; returns, per save, whether it was
    given the text of an earlier save to extend."""
    real, extended = bench.save_state, []

    def checked(path, values, engine, earlier=None):
        state = real(path, values, engine, earlier)
        assert state == real(scratch, values, engine)
        assert Path(path).read_bytes() == Path(scratch).read_bytes()
        extended.append(earlier is not None)
        return state

    monkeypatch.setattr(bench, "save_state", checked)
    return extended


# what earlier versions wrote beside a state; no load reads it, no save writes it
STALE_SNAPSHOT = b"funcbo engine snapshot 0123\n{}\nnot an engine\n"


def _session_equals_in_process_run(tmp_path, monkeypatch, algorithm, termination, metric, path):
    """Run the session on the load path, with a stale snapshot beside the
    state that must be left as it is; returns the bytes of the state and
    the suggestion after each command."""
    state = tmp_path / "state.txt"
    stale = tmp_path / "state.txt.snapshot"
    stale.write_bytes(STALE_SNAPSHOT)
    state.write_text(
        "grid.points_per_axis = 40\nopt.S = 2\nopt.T = 4\nopt.n_init = 2\n"
        f"opt.seed = 8\nobjective.noise = 0.05\nopt.algorithm = {algorithm}\n"
        f"opt.termination = {termination}\nK.metric = {metric}\n"
    )
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    _, reference = RUNNERS[algorithm](objective, cfg)

    # the mixed path replays the load of each tell and the last load, as
    # when tell runs in a new process: each suggest but the first then
    # takes the engine that the replayed tell before it kept live
    replayed = {"live": (), "replay": ("load", "suggest", "tell"), "mixed": ("load", "tell")}[path]
    load, suggest, tell = (
        _replaying(command) if name in replayed else command
        for name, command in (("load", bench.load_state), ("suggest", bench.suggest),
                              ("tell", bench.tell))
    )
    counts = _count_load_steps(monkeypatch, {**_LOAD_STEPS, "_replay_step": optimizer._EngineBase})
    extended = _checking_saves(monkeypatch, tmp_path / "full.txt")
    _, noise_rng = rng_streams(cfg.seed)
    out = tmp_path / "g.csv"
    written = []
    for _ in range(len(reference)):
        suggest(state, out)
        written += [state.read_bytes(), out.read_bytes()]
        y = objective.evaluate(read_function_csv(out), noise_rng)
        tell(state, y)
        written.append(state.read_bytes())
    _, engine = load(state)
    assert engine.done
    assert len(engine.trace) == len(reference)
    for mine, ref in zip(engine.trace, reference):
        assert (mine.eval_index, mine.s, mine.t) == (ref.eval_index, ref.s, ref.t)
        assert mine.lam == ref.lam
        assert mine.y == ref.y
        assert mine.best_y == ref.best_y
    # every load but the first, of the plain config, takes the path
    n = len(reference)
    loads = 2 * n + 1
    assert counts == {
        "live": {"_parse_state_text": 1, "replay": 1},
        # a replay steps through each record and the pending suggestion of each load
        "replay": {"_parse_state_text": loads, "replay": loads, "_replay_step": n * (n + 1)},
        "mixed": {"_parse_state_text": n + 2, "replay": n + 2, "_replay_step": n * (n + 3) // 2},
    }[path]
    # each save of an engine that a live load took extends the text of its last save
    assert extended == {"live": [False] + [True] * (2 * n - 1), "replay": [False] * (2 * n),
                        "mixed": [False, False] + [True, False] * (n - 1)}[path]
    assert stale.read_bytes() == STALE_SNAPSHOT
    return written


_SESSION_CONFIGS = pytest.mark.parametrize(
    "algorithm, termination, metric",
    [(a, t, m) for a in ALGORITHMS for t in ("budget", "regret") for m in ("l2grid", "rkhs")],
)


@pytest.mark.blas_threads
@_SESSION_CONFIGS
def test_session_reproduces_in_process_run(tmp_path, monkeypatch, algorithm, termination, metric):
    # every load but the first takes the engine the command before kept live
    _session_equals_in_process_run(tmp_path, monkeypatch, algorithm, termination, metric, "live")


@pytest.mark.blas_threads
@_SESSION_CONFIGS
def test_session_replaying_every_load_reproduces_in_process_run(
    tmp_path, monkeypatch, algorithm, termination, metric
):
    # the live engine is forgotten before every load, so every load replays
    _session_equals_in_process_run(tmp_path, monkeypatch, algorithm, termination, metric,
                                   "replay")


@pytest.mark.blas_threads
@_SESSION_CONFIGS
def test_session_mixing_load_paths_reproduces_in_process_run(
    tmp_path, monkeypatch, algorithm, termination, metric
):
    # the live engine is forgotten before every tell, so the session
    # switches paths at every command: a replayed engine is kept live,
    # taken by the next suggest and saved by extending its last text
    _session_equals_in_process_run(tmp_path, monkeypatch, algorithm, termination, metric,
                                   "mixed")


@pytest.mark.blas_threads
@_SESSION_CONFIGS
def test_session_files_are_equal_on_both_load_paths(
    tmp_path, monkeypatch, algorithm, termination, metric
):
    # each command writes the same state and suggestion bytes whether its
    # load took the live engine or replayed the trace
    written = []
    for path in ("live", "replay"):
        (tmp_path / path).mkdir()
        with monkeypatch.context() as patch:
            written.append(_session_equals_in_process_run(
                tmp_path / path, patch, algorithm, termination, metric, path))
    assert written[0] == written[1]


def _record_lines(trace):
    """The records as the state file writes them, so that traces compare byte for byte."""
    return [",".join([str(r.eval_index), str(r.s), str(r.t), *map(repr, r.lam), repr(r.y),
                      repr(r.best_y)]) for r in trace]


@st.composite
def _small_session_config(draw):
    S = draw(st.integers(1, 3))
    n_init = draw(st.integers(1, 12 // S - 1))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    dim = 1 if algorithm == "linebo_bernstein" else draw(st.integers(1, 2))  # a line needs 1-d
    return {
        "opt.algorithm": algorithm,
        "opt.termination": draw(st.sampled_from(["budget", "regret"])),
        "opt.epsilon": draw(st.sampled_from([0.01, 0.3])),
        "K.metric": draw(st.sampled_from(["l2grid", "rkhs"])),
        "K.lengthscale": draw(st.sampled_from(["mle", "0.5", "2.0"])),
        "opt.d": draw(st.integers(1, 2)),
        "grid.dim": dim,
        "grid.points_per_axis": draw(st.integers(4, 20) if dim == 1 else st.integers(2, 5)),
        "opt.S": S,
        "opt.n_init": n_init,
        "opt.T": draw(st.integers(1, 12 // S - n_init)),
        "opt.seed": draw(st.integers(0, 2**32 - 1)),
        "objective.noise": 0.05,
    }


@pytest.mark.blas_threads
@settings(max_examples=40, deadline=None)
@given(config=_small_session_config(), data=st.data())
def test_session_equals_in_process_run_on_generated_configs(tmp_path_factory, config, data):
    """On a small random config, a suggest/tell session writes the
    in-process trace byte for byte, and a state rolled back to an earlier
    tell loads and continues to the same trace."""
    state = tmp_path_factory.mktemp("session") / "state.txt"
    state.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    _, reference = RUNNERS[config["opt.algorithm"]](objective, cfg)
    expected, ys = _record_lines(reference), [r.y for r in reference]

    _, noise_rng = rng_streams(cfg.seed)
    out = state.with_name("g.csv")
    with pytest.MonkeyPatch.context() as patch:
        # every save equals a save of the whole text: a live engine's extends
        # its last save's text, any other engine's has none to extend
        extended = _checking_saves(patch, state.with_name("full.txt"))
        for _ in range(len(reference)):
            bench.suggest(state, out)
            bench.tell(state, objective.evaluate(read_function_csv(out), noise_rng))
        _, engine = bench.load_state(state)
        assert engine.done
        assert _record_lines(engine.trace) == expected
        assert extended == [False] + [True] * (2 * len(reference) - 1)

        # a rollback: trailing records deleted, the digest kept
        kept = data.draw(st.integers(0, len(reference) - 1), label="kept records")
        lines = state.read_text().splitlines()
        first = lines.index("[trace]") + 2
        state.write_text("\n".join(lines[: first + kept] + lines[lines.index("[digest]"):]) + "\n")
        _, engine = bench.load_state(state)
        assert _record_lines(engine.trace) == expected[:kept]
        del extended[:]
        while not engine.done:
            bench.suggest(state, out)  # loads from the file: the load before took the engine
            bench.tell(state, ys[len(engine.trace)])
            _, engine = bench.load_state(state)
        assert _record_lines(engine.trace) == expected
        assert extended == [False, True] * (len(reference) - kept)


def _dropped_engines_are_freed(tmp_path, algorithm, path):
    # every suggest or tell drops the engine of its load mid-run; were the
    # engine in a reference cycle, each would wait for the cyclic collector
    state = tmp_path / "state.txt"
    state.write_text(f"opt.algorithm = {algorithm}\nopt.S = 2\nopt.T = 3\nopt.n_init = 1\n"
                     "opt.termination = regret\nopt.epsilon = 1e-12\n")
    for y in (0.5, -0.25, 1.0):
        bench.suggest(state, tmp_path / "g.csv")
        bench.tell(state, y)
    if path != "live":
        _forget_live_engine()
    gc.disable()
    try:
        values, loaded = bench.load_state(state)
        stepped = make_engine(bench.build_opt_config(values), algorithm)
        for y in (0.5, -0.25, 1.0):
            stepped.ask()
            stepped.tell(y)
        stepped.ask()
        assert not loaded.done and stepped.pending is not None
        refs = [weakref.ref(loaded), weakref.ref(stepped)]
        del loaded, stepped
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_replayed_engine_dropped_mid_run_is_freed_by_refcount(tmp_path, algorithm):
    _dropped_engines_are_freed(tmp_path, algorithm, "replay")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_live_engine_dropped_mid_run_is_freed_by_refcount(tmp_path, algorithm):
    _dropped_engines_are_freed(tmp_path, algorithm, "live")  # the slot lets go of it


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_engine_of_a_failed_command_is_freed_by_refcount(tmp_path, monkeypatch, algorithm):
    # a tell whose state write fails has taken the live engine out of the
    # slot and keeps it nowhere: the engine goes with the error
    state = _state_with_pending(tmp_path, f"opt.algorithm = {algorithm}\n")
    before = state.read_bytes()
    ref = weakref.ref(bench._live[2])
    monkeypatch.setattr(bench.os, "replace", _fail_to_write)
    gc.disable()
    try:
        try:
            bench.tell(state, 0.25)
        except OSError as error:
            assert "no space" in str(error)
        else:
            pytest.fail("the state write did not fail")
        assert bench._live is None
        assert ref() is None
    finally:
        gc.enable()
    assert state.read_bytes() == before


def test_state_file_roundtrip_is_byte_stable(tmp_path):
    state = _fresh_state(tmp_path)
    out = tmp_path / "g.csv"
    bench.suggest(state, out)
    bench.tell(state, 0.5)
    first = state.read_bytes()
    values, engine = bench.load_state(state)
    bench.save_state(state, values, engine)
    assert state.read_bytes() == first


def _listed(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _engine_state(engine):
    """What a load rebuilds, with arrays as lists: the records, the pending
    suggestion, the random generator's state, the inner-loop decisions and
    the incumbent; for a subspace engine also the current subspace, the best
    function of its outer iteration and the model's written rows and pick."""
    state = {"rng": engine._rng.bit_generator.state,
             "inner_ends": sorted(engine._inner_ends.items()),
             "best_values": _listed(engine._best_values)}
    if isinstance(engine, optimizer.SubspaceSearchEngine):
        sub, best, model, n = engine.subspace, engine._outer_best, engine.model, engine.model.n
        state["subspace"] = sub and (sub.s, sub.bias.values.tolist(),
                                     [h.values.tolist() for h in sub.basis])
        state["outer_best"] = best and (best[0].values.tolist(), best[1])
        state["model"] = (n, model.zs.shape[1], model.pick, model.lengthscales.tolist(),
                          model.Ws[:, :n, :n].tolist(), model.zs[:, :n].tolist(),
                          _listed(model.MV), _listed(model.row_q))
    pending = engine.pending and (*engine.pending[:3], np.asarray(engine.pending[3]).tolist(),
                                  engine.pending[4].tolist())
    return engine.trace, pending, state


def _count_replays(monkeypatch):
    replays = []
    real = optimizer._EngineBase.replay

    def counted(self, *args):
        replays.append(len(args[0]))
        return real(self, *args)

    monkeypatch.setattr(optimizer._EngineBase, "replay", counted)
    return replays


def _fail_to_write(*args):
    raise OSError("no space left on device")


def test_failed_writes_keep_the_previous_state(tmp_path, monkeypatch):
    state = _state_with_pending(tmp_path)
    before = state.read_bytes()

    written = []

    class CutShort:
        """A file whose write stores the first 40 bytes, then raises."""

        def __init__(self, path, mode):
            self.file = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            self.file.write(data[:40])
            self.file.flush()
            written.append(Path(self.file.name).read_bytes())
            _fail_to_write()

    with monkeypatch.context() as patch:
        patch.setattr(bench, "open", CutShort, raising=False)
        with pytest.raises(OSError, match="no space"):
            bench._write_atomic(state, before[::-1])
    assert written == [before[::-1][:40]]
    assert state.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "state.txt"]
    # a tell whose state write fails leaves the state it loaded, which the
    # next load replays: the failed tell took the live engine
    with monkeypatch.context() as patch:
        patch.setattr(bench.os, "replace", _fail_to_write)
        with pytest.raises(OSError):
            bench.tell(state, 0.25)
    assert state.read_bytes() == before
    replays = _count_replays(monkeypatch)
    _, engine = bench.load_state(state)
    assert replays == [1] and engine.pending is not None


# inner loop 0 ends early at t = 3 (T = 5); the state stops after two
# inner steps of loop 1, with no suggestion pending
EARLY_END = """
grid.points_per_axis = 20
opt.S = 2
opt.T = 5
opt.n_init = 2
opt.seed = 2
opt.termination = regret
opt.epsilon = 0.3
K.lengthscale = 0.7
"""
EARLY_END_SCHEDULE = [(0, -1), (0, -1), (0, 0), (0, 1), (0, 2), (1, -1), (1, -1), (1, 0), (1, 1)]


def _early_end_state(tmp_path, steps=len(EARLY_END_SCHEDULE)):
    state = tmp_path / "state.txt"
    state.write_text(EARLY_END)
    values = bench.parse_config(state)
    objective = bench.build_objective(values, bench.build_opt_config(values).grid)
    _, noise_rng = rng_streams(values["opt.seed"])
    out = tmp_path / "g.csv"
    for _ in EARLY_END_SCHEDULE[:steps]:
        bench.suggest(state, out)
        bench.tell(state, objective.evaluate(read_function_csv(out), noise_rng))
    return state


def _counting_regret_err(monkeypatch):
    """Replace the regret certificate with a wrapper that records its values."""
    values = []
    real = optimizer.simple_regret_err

    def counted(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(optimizer, "simple_regret_err", counted)
    return values


def test_load_certifies_only_the_recorded_early_end(tmp_path, monkeypatch):
    # the stored inner steps show the loop went on, so only the early end
    # of loop 0 is certified; the live position is certified by suggest
    # (each load replays: the live engine is forgotten before it)
    state = _early_end_state(tmp_path)
    errs = _counting_regret_err(monkeypatch)
    _, engine = _replaying(bench.load_state)(state)
    assert [(r.s, r.t) for r in engine.trace] == EARLY_END_SCHEDULE
    assert len(errs) == 1 and errs[0] < 0.3
    _replaying(bench.suggest)(state, tmp_path / "g.csv")
    assert len(errs) == 3  # its load's early end, then the live position
    _replaying(bench.tell)(state, 0.0)
    assert len(errs) == 4  # its load's early end; the pending inner step went on


@pytest.mark.blas_threads
def test_replayed_suggestion_after_an_early_end_certifies_it_once(tmp_path, monkeypatch):
    # the suggest after loop 0's last inner step certified its early end;
    # a load of its live engine certifies nothing, a replay certifies it again
    state = _early_end_state(tmp_path, 5)
    bench.suggest(state, tmp_path / "g.csv")
    assert "[pending]\ninit,1,-1," in state.read_text()
    errs = _counting_regret_err(monkeypatch)
    _, live = bench.load_state(state)
    assert errs == []
    _, replayed = bench.load_state(state)  # the live load emptied the slot
    assert len(errs) == 1 and errs[0] < 0.3
    assert _engine_state(live) == _engine_state(replayed)


@pytest.mark.blas_threads
@pytest.mark.parametrize("algorithm", ["s3bfo", "linebo_bernstein", "fixed_subspace"])
def test_live_session_runs_the_certificates_of_the_in_process_run(tmp_path, monkeypatch,
                                                                  algorithm):
    # each load takes the engine the command before kept live, so the
    # session runs the in-process run's certificate searches, to the same
    # floats; a replay of the finished state certifies each early end again
    state = tmp_path / "state.txt"
    state.write_text(EARLY_END + f"opt.algorithm = {algorithm}\n")
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    errs = _counting_regret_err(monkeypatch)
    _, reference = RUNNERS[algorithm](objective, cfg)
    in_process = errs[:]
    del errs[:]
    _, noise_rng = rng_streams(cfg.seed)
    out = tmp_path / "g.csv"
    for _ in reference:
        bench.suggest(state, out)
        bench.tell(state, objective.evaluate(read_function_csv(out), noise_rng))
    _, live = bench.load_state(state)
    assert live.done
    assert in_process and errs == in_process
    _, replayed = bench.load_state(state)  # the live load emptied the slot
    assert replayed.done  # which certifies the end of the last inner loop
    assert len(errs) == len(in_process) + sum(live._inner_ends.values())
    assert all(err < cfg.epsilon for err in errs[len(in_process):])
    assert _engine_state(live) == _engine_state(replayed)


@pytest.mark.blas_threads
def test_live_load_parses_reads_and_replays_nothing(tmp_path, monkeypatch):
    # the tell that ends _early_end_state keeps its engine live
    state = _early_end_state(tmp_path)
    counts = _count_load_steps(monkeypatch)
    _, live = bench.load_state(state)
    assert counts == {}
    _, replayed = bench.load_state(state)  # the live load emptied the slot
    assert counts == {"_parse_state_text": 1, "replay": 1}
    assert live is not replayed
    assert _engine_state(live) == _engine_state(replayed)


# whether a load after each case takes the engine the last suggest kept live
_KEYS = {"copied to another file": True, "rewritten unchanged": True,
         "other session saved since": False, "rolled back": False,
         "pending point edited": False}


@pytest.mark.blas_threads
@pytest.mark.parametrize("case", _KEYS)
def test_live_engine_is_taken_only_by_the_text_it_saved(tmp_path, monkeypatch, case):
    # the slot is keyed by the exact state text, not by the file: any file
    # holding that text takes the engine, any other text replays
    state = _state_with_pending(tmp_path)
    assert "[pending]\ninner,0,0," in state.read_text()
    text, path = state.read_text(), state
    if case == "copied to another file":
        path = tmp_path / "copy.txt"
        path.write_text(text)
    elif case == "rewritten unchanged":
        state.write_text(text)
    elif case == "other session saved since":
        (tmp_path / "other").mkdir()
        _state_with_pending(tmp_path / "other", "opt.algorithm = random_search\n")
    elif case == "rolled back":  # the pending suggestion deleted, the digest kept
        lines = text.splitlines()
        del lines[lines.index("[pending]"):lines.index("[digest]")]
        state.write_text("\n".join(lines) + "\n")
    else:
        state.write_text(_edit_field(text, "inner,", 3, "0.125"))
    counts = _count_load_steps(monkeypatch)
    _, engine = bench.load_state(path)
    assert counts == ({} if _KEYS[case] else {"_parse_state_text": 1, "replay": 1})
    _, replayed = _replaying(bench.load_state)(path)
    assert _engine_state(engine) == _engine_state(replayed)
    if case == "rolled back":
        assert len(engine.trace) == 1 and engine.pending is None
    if case == "pending point edited":
        assert engine.pending[3].tolist() == [0.125]


# at lengthscales of 1e9 and more the kernel between any two grid functions
# rounds to 1, so with noise below float resolution the second observation's
# Schur complement is zero for every candidate
BREAKS_EVERY_LENGTHSCALE = (
    "noise.sigma = 1e-12\nmle.grid_min = 1e9\nmle.grid_max = 1e10\nmle.grid_points = 3\n"
)


# what each failing command raises; a hand edit of the text runs no command
_FAILURES = {"numerical error": NumericalError, "state write": OSError,
             "pending suggest": ProtocolError, "hand edit": None}


@pytest.mark.blas_threads
@pytest.mark.parametrize("failure", _FAILURES)
def test_live_engine_is_not_kept_past_a_failed_command_or_an_edit(tmp_path, monkeypatch, failure):
    # the suggest that ends _state_with_pending keeps its engine live
    error = _FAILURES[failure]
    state = _state_with_pending(
        tmp_path, BREAKS_EVERY_LENGTHSCALE if failure == "numerical error" else "")
    counts = _count_load_steps(monkeypatch)
    if failure == "hand edit":
        state.write_text(state.read_text().replace("opt.T = 2\n", "opt.T =  2\n"))
    else:
        with monkeypatch.context() as patch, pytest.raises(error):
            if failure == "state write":
                patch.setattr(bench.os, "replace", _fail_to_write)
            if failure == "pending suggest":
                bench.suggest(state, tmp_path / "g.csv")
            else:  # the engine takes the told value before the command fails
                bench.tell(state, -0.5)
        assert counts == {}  # the failed command took the live engine
    _, engine = bench.load_state(state)
    assert counts == {"_parse_state_text": 1, "replay": 1}
    assert len(engine.trace) == 1 and engine.pending is not None
    _, replayed = _replaying(bench.load_state)(state)
    assert _engine_state(engine) == _engine_state(replayed)


def _pending_after(tmp_path, steps, extra=""):
    """A state of _fresh_state after that many suggest/tell steps and one
    more suggest (budget: the schedule is (0, -1), (0, 0), (0, 1), (1, -1),
    (1, 0), (1, 1))."""
    state = _fresh_state(tmp_path, extra)
    for y in range(steps):
        bench.suggest(state, tmp_path / "g.csv")
        bench.tell(state, 0.25 * y)
    bench.suggest(state, tmp_path / "g.csv")
    return state


@pytest.mark.parametrize("kind, steps", [("init", 3), ("inner", 1)])
def test_edited_pending_lambda_on_a_replayed_load(tmp_path, monkeypatch, capsys, kind, steps):
    # the load replays the records, which the edit does not touch, then the
    # pending step: a redrawn initial-design point must equal the stored
    # one, and a stored inner point is taken as the search's pick
    state = _pending_after(tmp_path, steps)
    text = state.read_text()
    assert f"[pending]\n{kind}," in text
    state.write_text(_edit_field(text, f"{kind},", 3, "0.125"))
    counts = _count_load_steps(monkeypatch)
    if kind == "init":
        with pytest.raises(ProtocolError, match="diverged at the pending suggestion"):
            bench.load_state(state)
        assert counts == {"_parse_state_text": 1, "replay": 1}
        assert cli.main(["tell", "--state", str(state), "--y", "0.25"]) == 3
        assert "Traceback" not in capsys.readouterr().err
    else:
        _, replayed = bench.load_state(state)
        assert counts == {"_parse_state_text": 1, "replay": 1}
        assert replayed.pending[3].tolist() == [0.125]


@pytest.mark.blas_threads
@pytest.mark.parametrize("algorithm", ["s3bfo", "linebo_bernstein"])
def test_new_process_tell_of_an_outer_opening_suggestion_equals_the_live_engine(tmp_path,
                                                                                algorithm):
    # the pending initial-design point opens outer iteration 1: a tell in a
    # new process replays the trace and redraws the basis (or line) of
    # iteration 1, to the engine the live tell has
    state = _pending_after(tmp_path, 3, f"opt.algorithm = {algorithm}\n")
    assert "[pending]\ninit,1,-1," in state.read_text()
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / state.name).write_bytes(state.read_bytes())
    res = _cli("tell", "--state", str(fresh / state.name), "--y", "0.75")
    assert res.returncode == 0, res.stderr
    bench.tell(state, 0.75)  # takes the live engine of the suggest
    assert (fresh / state.name).read_bytes() == state.read_bytes()
    assert sorted(p.name for p in fresh.iterdir()) == [state.name]


@pytest.mark.blas_threads
def test_concurrent_loads_share_no_live_engine(tmp_path):
    # four threads race to load each state that a command kept live; the
    # slot is swapped under a lock, so no two of them get the same engine
    state = _state_with_pending(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for step in range(16):
                futures = [pool.submit(bench.load_state, state) for _ in range(4)]
                engines = [future.result(timeout=60)[1] for future in futures]
                assert len({id(engine) for engine in engines}) == 4
                assert len({repr(_engine_state(engine)[:2]) for engine in engines}) == 1
                if engines[0].done:
                    break
                if engines[0].pending is None:
                    bench.suggest(state, tmp_path / "g.csv")
                else:
                    bench.tell(state, 0.1 * step)
    finally:
        sys.setswitchinterval(interval)
    assert engines[0].done


def test_uncertified_recorded_end_is_protocol_error(tmp_path, monkeypatch):
    state = _early_end_state(tmp_path)
    _forget_live_engine()
    with monkeypatch.context() as patch:
        errs = _counting_regret_err(patch)
        values, engine = bench.load_state(state)
    # an epsilon at the recorded end's certificate (the smallest one the
    # load computes) no longer ends loop 0 at t = 3; saved with its own
    # digest, the edit reaches the replay
    bench.save_state(state, dict(values, **{"opt.epsilon": min(errs)}), engine)
    with pytest.raises(ProtocolError, match="run schedule"):
        bench.load_state(state)
    res = _cli("suggest", "--state", str(state), "--out", str(tmp_path / "g.csv"))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr


def test_export_requires_finished_run(tmp_path):
    state = _fresh_state(tmp_path)
    bench.suggest(state, tmp_path / "g.csv")
    bench.tell(state, 0.0)
    with pytest.raises(ProtocolError, match="not finished"):
        bench.export_function(state, tmp_path / "best.csv")


def test_export_roundtrip_gap_matches_trace(tmp_path):
    state = _fresh_state(tmp_path, extra="objective.noise = 0.01\n")
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    _, noise_rng = rng_streams(cfg.seed)
    out = tmp_path / "g.csv"
    gaps = []
    for _ in range(cfg.budget):
        bench.suggest(state, out)
        g = read_function_csv(out)
        gaps.append(objective.gap(g))
        bench.tell(state, objective.evaluate(g, noise_rng))
    best_path = tmp_path / "best.csv"
    bench.export_function(state, best_path)
    exported = read_function_csv(best_path)
    _, engine = bench.load_state(state)
    best_idx = next(
        r.eval_index for r in engine.trace if r.y == engine.trace[-1].best_y
    )
    assert objective.gap(exported) == pytest.approx(gaps[best_idx], abs=1e-9)
    # round trip: exported file parses back to the identical function
    again = tmp_path / "best2.csv"
    bench.export_function(state, again)
    assert best_path.read_bytes() == again.read_bytes()


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "funcbo.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_bench_and_exit_codes(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(SMALL)
    done = _cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert done.returncode == 0
    assert (tmp_path / "out" / "summary_random_search.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("opt.warp = 9\n")
    assert _cli("bench", "--config", str(bad), "--out", str(tmp_path / "o2")).returncode == 2

    # acq.* values are checked for every algorithm before any cell runs
    for setting in ("acq.delta = 1.5", "acq.restarts = 0"):
        bad.write_text(SMALL.replace("bench.algorithms = random_search",
                                     "bench.algorithms = random_search,s3bfo") + setting)
        res = _cli("bench", "--config", str(bad), "--out", str(tmp_path / "o3"))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o3").exists()

    # a candidate lengthscale whose square underflows is an input error
    state = tmp_path / "state.txt"
    state.write_text("opt.S = 1\nopt.T = 1\nopt.n_init = 1\nmle.grid_min = 1e-160\n")
    res = _cli("suggest", "--state", str(state), "--out", str(tmp_path / "g.csv"))
    assert res.returncode == 2
    assert "normal float" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "setting, named",
    [
        ("noise.sigma = 1e200", "noise.sigma"),  # its square overflows
        ("acq.lambda_box = 1e308", "lambda_box"),  # the seeds' box width overflows
        ("acq.lambda_box = 1e200", "acq.lambda_box"),  # candidates' squared norms overflow
        ("kappa.lengthscale = 1e-200", "kappa.lengthscale"),  # its square underflows
        ("objective.target_lengthscale = 1e-200", "objective.target_lengthscale"),
    ],
)
def test_cli_value_whose_square_or_box_overflows_exits_2(tmp_path, setting, named):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"{SMALL}{setting}\n")
    res = _cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert named in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not (tmp_path / "out").exists()


def test_cli_session_with_overflowing_lambda_box_exits_2(tmp_path):
    # at lambda_box = 1e200 a candidate's squared norm overflows, so its cap
    # scale is 0: the third suggestion would be the zero function, exit 0
    text = "opt.S = 1\nopt.T = 3\nopt.n_init = 2\nopt.termination = regret\n"
    state = tmp_path / "state.txt"
    state.write_text(text + "acq.lambda_box = 1e200\n")
    res = _cli("suggest", "--state", str(state), "--out", str(tmp_path / "g.csv"))
    assert res.returncode == 2
    assert "acq.lambda_box" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert state.read_text() == text + "acq.lambda_box = 1e200\n"
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize(
    "setting, named",
    [
        ("acq.delta = 1.5", "'acq.delta'"),
        ("K.lengthscale = 1e-200", "'K.lengthscale'"),
        ("mle.grid_min = 1e-160", "mle.grid_min must be"),
        # np.geomspace overflowed on this end, and printed a RuntimeWarning
        # above the error line, before the end was checked
        ("mle.grid_max = 1.7976931348622103e+308", "mle.grid_max must be"),
    ],
)
def test_cli_session_error_of_model_or_schedule_names_its_key(tmp_path, setting, named):
    text = f"opt.S = 1\nopt.T = 1\nopt.n_init = 1\n{setting}\n"
    state = tmp_path / "state.txt"
    state.write_text(text)
    res = _cli("suggest", "--state", str(state), "--out", str(tmp_path / "g.csv"))
    assert res.returncode == 2
    # the error line is all that the command writes to stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert named in res.stderr
    assert state.read_text() == text
    assert not (tmp_path / "g.csv").exists()


def test_cli_grid_too_large_for_dense_prior_exits_cleanly(tmp_path, monkeypatch):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("grid.dim = 3\ngrid.points_per_axis = 100\n")
    for args in (
        ("bench", "--config", str(cfg), "--out", str(tmp_path / "out")),
        ("suggest", "--state", str(cfg), "--out", str(tmp_path / "g.csv")),
    ):
        done = _cli(*args)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "N = 1000000" in done.stderr and "N = 10000" in done.stderr

    def no_gram(*args, **kwargs):
        raise AssertionError("a gram was built before the grid size check")

    monkeypatch.setattr(kernels, "scalar_gram", no_gram)
    assert cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ("suggest", "--state", "{bad}", "--out", "{tmp}/g.csv"),  # not UTF-8
        ("suggest", "--state", "{tmp}", "--out", "{tmp}/g.csv"),  # a directory
        ("bench", "--config", "{tmp}/missing.cfg", "--out", "{tmp}/out"),
        ("suggest", "--state", "{ok}", "--out", "{tmp}/nodir/g.csv"),
    ],
    ids=["not-utf8", "directory", "missing-config", "missing-out-dir"],
)
def test_cli_file_errors_exit_cleanly(tmp_path, args):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"opt.S = 1\n\xff\xfe\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("opt.S = 1\nopt.T = 1\nopt.n_init = 1\n")
    res = _cli(*(a.format(tmp=tmp_path, bad=bad, ok=ok) for a in args))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert str(tmp_path) in res.stderr


def test_cli_suggest_tell_export_cycle(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("opt.S = 1\nopt.T = 1\nopt.n_init = 1\n")
    fn = tmp_path / "g.csv"
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 0
    # protocol error: suggest again without tell
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 3
    assert _cli("tell", "--state", str(state), "--y", "0.25").returncode == 0
    assert _cli("tell", "--state", str(state), "--y", "0.25").returncode == 3
    # finish the run, then export
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 0
    assert _cli("tell", "--state", str(state), "--y", "-1.0").returncode == 0
    assert _cli("export", "--state", str(state), "--out", str(tmp_path / "b.csv")).returncode == 0
    assert (tmp_path / "b.csv").exists()


# Runs a suggest/tell/export cycle in a process where scipy cannot be
# imported, as in an install without the test extra.
_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from funcbo import cli

state, fn, best = sys.argv[1:]
codes = [
    cli.main(["suggest", "--state", state, "--out", fn]),
    cli.main(["tell", "--state", state, "--y", "0.25"]),
    cli.main(["suggest", "--state", state, "--out", fn]),
    cli.main(["tell", "--state", state, "--y", "-1.0"]),
    cli.main(["export", "--state", state, "--out", best]),
]
assert codes == [0] * 5, codes
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""


def test_cli_session_runs_without_scipy(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("opt.S = 1\nopt.T = 1\nopt.n_init = 1\n")
    paths = [str(state), str(tmp_path / "g.csv"), str(tmp_path / "b.csv")]
    res = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, *paths], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "b.csv").exists()


def test_cli_verify_lemma1(tmp_path):
    ok = _cli("verify-lemma1", "--d", "2", "--de", "2", "--beta", "0.3", "--trials", "500")
    assert ok.returncode == 0
    assert float(ok.stdout.strip()) == 1.0
    bad = _cli("verify-lemma1", "--d", "3", "--de", "2", "--beta", "0.3", "--trials", "10")
    assert bad.returncode == 2


def test_cli_negative_seed_exits_cleanly(tmp_path):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(SMALL + "objective.target_seed = -1\n")
    res = _cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "objective.target_seed" in res.stderr
    assert "Traceback" not in res.stderr
    res = _cli("verify-lemma1", "--d", "1", "--de", "2", "--beta", "0.3", "--trials", "10",
               "--seed", "-1")
    assert res.returncode == 2
    assert "--seed" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_every_lengthscale_breaking_is_numerical_error(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text(
        "grid.points_per_axis = 20\nopt.S = 1\nopt.T = 1\nopt.n_init = 2\n"
        + BREAKS_EVERY_LENGTHSCALE
    )
    fn = tmp_path / "g.csv"
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 0
    assert _cli("tell", "--state", str(state), "--y", "0.5").returncode == 0
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 0
    res = _cli("tell", "--state", str(state), "--y", "-0.5")
    assert res.returncode == 4
    assert "every lengthscale" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_model_too_large_for_memory_is_config_error(tmp_path, monkeypatch, capsys):
    # opt.S = 200 and opt.T = 1000 give a model of 17 inverse factors of
    # 201000 x 201000 floats and one more such matrix, 5.3 TiB, by the
    # run's end: suggest rejects the config before it writes a file or
    # conditions a model
    state, out = tmp_path / "state.txt", tmp_path / "g.csv"
    state.write_text("opt.S = 200\nopt.T = 1000\n")
    before = state.read_bytes()
    conditioned = []
    monkeypatch.setattr(gp, "condition", lambda model, point, y: conditioned.append(y))
    capsys.readouterr()
    assert cli.main(["suggest", "--state", str(state), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a s3bfo run's model would hold 5418.4 GiB by its end")
    assert err.count("\n") == 1
    assert all(key in err for key in ("opt.S", "opt.T", "opt.n_init", "mle.grid_points"))
    assert state.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.txt"]
    assert conditioned == []

    # a config under the limit whose model still fails to allocate at a
    # tell exits 2 there, naming the same keys
    state.write_text("opt.S = 2\nopt.T = 3\nopt.n_init = 1\n")
    assert cli.main(["suggest", "--state", str(state), "--out", str(out)]) == 0
    before = state.read_bytes()

    def too_large(model, point, y):
        raise MemoryError("Unable to allocate 5.00 TiB for an array with shape "
                          "(17, 201000, 201000) and data type float64")

    monkeypatch.setattr(gp, "condition", too_large)
    capsys.readouterr()
    assert cli.main(["tell", "--state", str(state), "--y", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the model does not fit in memory (Unable to allocate 5.00 TiB")
    assert err.count("\n") == 1
    assert all(key in err for key in ("opt.S", "opt.T", "mle.grid_points"))
    assert state.read_bytes() == before

    def out_of_memory(*args):
        raise MemoryError

    # any other allocation that fails exits 2 too
    monkeypatch.setattr(bench, "tell", out_of_memory)
    assert cli.main(["tell", "--state", str(state), "--y", "0.5"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_cli_more_basis_functions_than_grid_points_is_config_error(tmp_path, capsys):
    # d > N basis functions on an N-point grid are linearly dependent:
    # suggest rejects the config before it writes a file
    state, out = tmp_path / "state.txt", tmp_path / "g.csv"
    state.write_text("grid.points_per_axis = 8\nopt.d = 9\n")
    before = state.read_bytes()
    capsys.readouterr()
    assert cli.main(["suggest", "--state", str(state), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: opt.d = 9 ") and err.count("\n") == 1
    assert all(key in err for key in ("grid.dim", "grid.points_per_axis"))
    assert state.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.txt"]
    state.write_text("grid.points_per_axis = 8\nopt.d = 8\n")
    assert cli.main(["suggest", "--state", str(state), "--out", str(out)]) == 0


@pytest.mark.parametrize("algorithm", ["s3bfo", "fixed_subspace"])
def test_model_bytes_are_the_reserved_model_at_the_run_end(algorithm):
    cfg = bench.build_opt_config(_values(
        "opt.S = 2\nopt.T = 15\nopt.n_init = 2\ngrid.points_per_axis = 20\n"))
    engine = make_engine(cfg, algorithm)
    while not engine.done:
        engine.ask()
        engine.tell(float(len(engine.trace) % 3))
    model, rows = engine.model, 1 + engine.subspace.d
    assert model.zs.shape == (17, 34 if algorithm == "s3bfo" else 17)
    # and the subspace's bias and basis rows, with their two Grams and the
    # terms of the squared distances to the model's points
    assert optimizer.model_bytes(cfg, algorithm) == sum(
        a.nbytes for a in (model.Ws, model.zs, model.Wz, model.MVs, model.row_qs)
    ) + 8 * (rows * cfg.grid.size + 2 * rows * rows + (rows + 1) ** 2 * model.n)


def test_model_bytes_of_a_line_are_those_of_a_one_dimensional_subspace():
    cfg = optimizer.OptConfig(d=3, S=5)
    assert optimizer.model_bytes(cfg, "linebo_bernstein") == optimizer.model_bytes(
        dataclasses.replace(cfg, d=1, S=1), "fixed_subspace")


def test_model_over_the_limit_stops_a_bench_before_it_writes(tmp_path):
    # the paper protocol's model is 2.97 MB; 10 000 evaluations of one line
    # (opt.T = 9995) hold 18 matrices of about 10000 x 10000 floats, 13.4 GiB
    for algorithm in ALGORITHMS:
        optimizer.check_model_bytes(optimizer.OptConfig(), algorithm)
    assert optimizer.model_bytes(optimizer.OptConfig(), "s3bfo") < 3e6
    optimizer.check_model_bytes(optimizer.OptConfig(T=9995), "random_search")
    values = _values("opt.T = 9995\nbench.algorithms = random_search,linebo_bernstein\n")
    with pytest.raises(ConfigError, match="linebo_bernstein run's model would hold 13.4 GiB"):
        bench.run_bench(values, tmp_path / "out")
    assert not (tmp_path / "out").exists()


FINISHED = "opt.S = 1\nopt.T = 1\nopt.n_init = 1\n"


def _finished_state(tmp_path):
    """A state file of a finished two-evaluation s3bfo session."""
    state = tmp_path / "state.txt"
    state.write_text(FINISHED)
    for y in (0.5, -0.25):
        bench.suggest(state, tmp_path / "g.csv")
        bench.tell(state, y)
    return state


def test_cli_suggest_on_a_finished_session_is_protocol_error(tmp_path, capsys):
    state = _finished_state(tmp_path)
    before = state.read_bytes()
    capsys.readouterr()
    assert cli.main(["suggest", "--state", str(state), "--out", str(tmp_path / "h.csv")]) == 3
    assert capsys.readouterr().err == "protocol error: run is complete; no further suggestions\n"
    assert state.read_bytes() == before
    assert not (tmp_path / "h.csv").exists()


def test_cli_state_with_a_record_past_the_run_end_is_protocol_error(tmp_path, capsys):
    state = _finished_state(tmp_path)
    head, digest = state.read_text().split("[digest]")
    index, rest = head.splitlines()[-1].split(",", 1)
    state.write_text(f"{head}{int(index) + 1},{rest}\n[digest]{digest}")
    before = state.read_bytes()
    capsys.readouterr()
    assert cli.main(["export", "--state", str(state), "--out", str(tmp_path / "h.csv")]) == 3
    assert capsys.readouterr().err == (
        "protocol error: state contains more evaluations than the run allows\n")
    assert state.read_bytes() == before
    assert not (tmp_path / "h.csv").exists()


def test_cli_tell_nonfinite_is_input_error(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("opt.S = 1\nopt.T = 1\nopt.n_init = 1\n")
    fn = tmp_path / "g.csv"
    _cli("suggest", "--state", str(state), "--out", str(fn))
    for value in ("nan", "-inf"):  # the entry point reads its argv from sys.argv
        res = _cli("tell", "--state", str(state), "--y", value)
        assert res.returncode == 2
        assert res.stderr.startswith("error: observed value must be finite")


@pytest.mark.parametrize("value", ["-2.5e-3", "-1e-05", "-0.731", "1e300", "-inf", "nan"])
def test_cli_tell_takes_any_float_spelling(tmp_path, capsys, value):
    # argparse alone reads "-2.5e-3" or "-inf" after --y as an option
    state = _fresh_state(tmp_path)
    assert cli.main(["suggest", "--state", str(state), "--out", str(tmp_path / "g.csv")]) == 0
    capsys.readouterr()
    rc = cli.main(["tell", "--state", str(state), "--y", value])
    out, err = capsys.readouterr()
    if value in ("-inf", "nan"):
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: observed value must be finite")
    else:
        assert rc == 0 and err == ""
        assert f"y={float(value)!r}" in out
        assert bench.load_state(state)[1].trace[-1].y == float(value)


def _state_with_pending(tmp_path, extra=""):
    """A state file with one told evaluation and a pending suggestion."""
    state = _fresh_state(tmp_path, extra)
    bench.suggest(state, tmp_path / "g.csv")
    bench.tell(state, 0.5)
    bench.suggest(state, tmp_path / "g.csv")
    return state


def _edit_field(text, prefix, field, value):
    """Set one comma-separated field of the line starting with prefix."""
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    parts = lines[i].split(",")
    parts[field] = value
    lines[i] = ",".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "prefix, field, value, code",
    [
        ("0,0,-1,", 0, "x", 2),  # non-integer eval_index
        ("inner,", 3, "abc", 2),  # non-number lambda0 of the pending line
        ("config_sha256 = ", 0, "config_sha256 = 0123abc", 3),  # digest no longer matches
        ("config_sha256 = ", 0, "config_sha2 = 0123abc", 2),  # not the digest key
        ("0,0,-1,", 0, "7", 3),  # eval_index out of step with its position
        ("[digest]", 0, "inner,0,5,123.0\n[digest]", 2),  # a second pending line
        ("[digest]", 0, "[digest]\nconfig_sha256 = 0123abc", 2),  # a wrong digest first
    ],
)
def test_cli_malformed_state_exits_cleanly(tmp_path, prefix, field, value, code):
    state = _state_with_pending(tmp_path)
    state.write_text(_edit_field(state.read_text(), prefix, field, value))
    res = _cli("tell", "--state", str(state), "--y", "0.25")
    assert res.returncode == code
    assert "Traceback" not in res.stderr


# another valid value for every config key a state writes
CONFIG_EDITS = {
    "K.kind": "matern12",
    "K.lengthscale": "0.5",
    "K.metric": "rkhs",
    "acq.delta": "0.2",
    "acq.lambda_box": "3.0",
    "acq.local_steps": "20",
    "acq.restarts": "4",
    "grid.dim": "2",
    "grid.points_per_axis": "50",
    "kappa.kind": "matern32",
    "kappa.lengthscale": "0.25",
    "mle.grid_max": "5.0",
    "mle.grid_min": "0.02",
    "mle.grid_points": "9",
    "noise.sigma": "0.02",
    "objective.d_e": "3",
    "objective.kind": "effdim",
    "objective.noise": "0.0",
    "objective.target_kernel": "matern12",
    "objective.target_lengthscale": "0.2",
    "objective.target_seed": "7",
    "opt.S": "3",
    "opt.T": "3",
    "opt.algorithm": "fixed_subspace",
    "opt.d": "2",
    "opt.epsilon": "0.5",
    "opt.l_max": "5.0",
    "opt.n_init": "2",
    "opt.seed": "9",
    "opt.termination": "regret",
}


def _edit_config_line(text, key, value):
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.partition("=")[0].strip() == key)
    lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "key", [key for key in sorted(bench.SCHEMA) if not key.startswith("bench.")]
)
def test_state_config_edit_is_protocol_error(tmp_path, capsys, key):
    state = _state_with_pending(tmp_path)
    text = state.read_text()
    saved = bench.parse_config_lines(text.partition("[trace]")[0].splitlines())
    assert bench.parse_config_lines([f"{key} = {CONFIG_EDITS[key]}"])[key] != saved[key]
    state.write_text(_edit_config_line(text, key, CONFIG_EDITS[key]))
    with pytest.raises(ProtocolError, match="digest"):
        bench.load_state(state)
    assert cli.main(["tell", "--state", str(state), "--y", "0.25"]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_state_saved_with_the_dense_se_prior_is_protocol_error(tmp_path, capsys):
    # a 2-d SE session saved while the prior was a dense factor carries the
    # digest of its config lines alone; its replay would draw other bases
    state = tmp_path / "state.txt"
    state.write_text("grid.dim = 2\ngrid.points_per_axis = 8\nopt.S = 2\nopt.T = 2\n"
                     "opt.n_init = 1\n")
    bench.suggest(state, tmp_path / "g.csv")
    bench.tell(state, 0.5)
    text = state.read_text()
    values = bench.parse_config_lines(text.partition("[trace]")[0].splitlines())
    dense, per_axis = bench._digest(bench._config_lines(values)), bench._config_digest(values)
    assert dense != per_axis and text.endswith(f"config_sha256 = {per_axis}\n")
    state.write_text(text.replace(per_axis, dense))
    with pytest.raises(ProtocolError, match="factored per axis"):
        bench.load_state(state)
    assert cli.main(["suggest", "--state", str(state), "--out", str(tmp_path / "h.csv")]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, marked",
    [
        ("", False),
        ("grid.dim = 2\ngrid.points_per_axis = 8", True),
        ("grid.dim = 3\ngrid.points_per_axis = 4\nobjective.target_kernel = linear", True),
        ("grid.dim = 2\ngrid.points_per_axis = 8\nkappa.kind = matern32", False),
    ],
)
def test_state_digest_marks_only_se_bases_on_2d_and_3d_grids(text, marked):
    # 1-d sessions and Matern or linear bases keep the digest of the config
    # lines alone, so their state files do not change; sessions never draw
    # the objective, so its target kernel does not matter
    values = _values(text)
    plain = bench._digest(bench._config_lines(values))
    assert (bench._config_digest(values) != plain) == marked


def test_state_config_respelling_still_loads(tmp_path):
    # the digest covers parsed values, not their spelling
    state = _state_with_pending(tmp_path)
    saved = state.read_text()
    text = saved.replace("kappa.lengthscale = 0.3\n", "kappa.lengthscale   =   0.30  \n")
    text = text.replace("opt.T = 2\n", "  opt.T=2\n")
    assert text != saved
    state.write_text(text)
    values, engine = bench.load_state(state)
    bench.save_state(state, values, engine)
    assert state.read_text() == saved


def test_trailing_record_deletion_is_a_rollback(tmp_path):
    # the digest covers the config only, so a state cut back to an earlier
    # tell is the file saved at that tell
    state = _fresh_state(tmp_path)
    bench.suggest(state, tmp_path / "g.csv")
    bench.tell(state, 0.5)
    earlier = state.read_text()
    bench.suggest(state, tmp_path / "g.csv")
    bench.tell(state, -0.5)
    bench.suggest(state, tmp_path / "g.csv")
    lines = state.read_text().splitlines()
    cut = lines.index("[pending]")
    state.write_text("\n".join(lines[: cut - 1] + lines[cut + 2 :]) + "\n")
    assert state.read_text() == earlier
    _, engine = bench.load_state(state)
    assert len(engine.trace) == 1


@functools.lru_cache(maxsize=1)
def _regret_session_text():
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "state.txt"
        state.write_text(
            "grid.points_per_axis = 20\nopt.S = 2\nopt.T = 2\nopt.n_init = 1\n"
            "opt.seed = 8\nopt.termination = regret\nopt.epsilon = 0.001\n"
        )
        for y in (0.5, -0.25, 0.75):
            bench.suggest(state, Path(tmp) / "g.csv")
            bench.tell(state, y)
        bench.suggest(state, Path(tmp) / "g.csv")
        return state.read_text()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_edited_state_loads_or_raises_funcbo_error(data):
    # one line of a valid state (one field of a CSV line) replaced by
    # arbitrary text: the state either loads or fails with a documented error
    text = _regret_session_text()
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    j = data.draw(st.integers(0, len(fields) - 1))
    fields[j] = data.draw(st.text(alphabet="0123456789abcdefinrtx.,-+= []#_", max_size=24))
    lines[i] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.txt"
        path.write_text("\n".join(lines) + "\n")
        try:
            bench.load_state(path)
        except FuncboError:
            pass

import dataclasses
import functools
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcbo import bench, cli, kernels, optimizer
from funcbo.errors import ConfigError, FuncboError, ProtocolError
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


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=6))
@example(lines=["noise.sigma = 1e200"])  # sampled in only about 1 run in 5
def test_config_lines_build_or_raise_funcbo_error(lines):
    try:
        bench.build_opt_config(bench.parse_config_lines(lines))
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


@pytest.mark.parametrize("metric", ["l2grid", "rkhs"])
@pytest.mark.parametrize("termination", ["budget", "regret"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_session_reproduces_in_process_run(tmp_path, algorithm, termination, metric):
    state = tmp_path / "state.txt"
    state.write_text(
        "grid.points_per_axis = 40\nopt.S = 2\nopt.T = 4\nopt.n_init = 2\n"
        f"opt.seed = 8\nobjective.noise = 0.05\nopt.algorithm = {algorithm}\n"
        f"opt.termination = {termination}\nK.metric = {metric}\n"
    )
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    _, reference = RUNNERS[algorithm](objective, cfg)

    _, noise_rng = rng_streams(cfg.seed)
    out = tmp_path / "g.csv"
    for _ in range(len(reference)):
        bench.suggest(state, out)
        y = objective.evaluate(read_function_csv(out), noise_rng)
        bench.tell(state, y)
    _, engine = bench.load_state(state)
    assert engine.done
    assert len(engine.trace) == len(reference)
    for mine, ref in zip(engine.trace, reference):
        assert (mine.eval_index, mine.s, mine.t) == (ref.eval_index, ref.s, ref.t)
        assert mine.lam == ref.lam
        assert mine.y == ref.y
        assert mine.best_y == ref.best_y


def test_state_file_roundtrip_is_byte_stable(tmp_path):
    state = _fresh_state(tmp_path)
    out = tmp_path / "g.csv"
    bench.suggest(state, out)
    bench.tell(state, 0.5)
    first = state.read_bytes()
    values, engine = bench.load_state(state)
    bench.save_state(state, values, engine)
    assert state.read_bytes() == first


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


def _early_end_state(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text(EARLY_END)
    values = bench.parse_config(state)
    objective = bench.build_objective(values, bench.build_opt_config(values).grid)
    _, noise_rng = rng_streams(values["opt.seed"])
    out = tmp_path / "g.csv"
    for _ in EARLY_END_SCHEDULE:
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
    state = _early_end_state(tmp_path)
    errs = _counting_regret_err(monkeypatch)
    _, engine = bench.load_state(state)
    assert [(r.s, r.t) for r in engine.trace] == EARLY_END_SCHEDULE
    assert len(errs) == 1 and errs[0] < 0.3
    bench.suggest(state, tmp_path / "g.csv")
    assert len(errs) == 3  # its load's early end, then the live position
    bench.tell(state, 0.0)
    assert len(errs) == 4  # its load's early end; the pending inner step went on


def test_uncertified_recorded_end_is_protocol_error(tmp_path, monkeypatch):
    state = _early_end_state(tmp_path)
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
        ("kappa.lengthscale = 1e-200", "lengthscale"),  # its square underflows
        ("objective.target_lengthscale = 1e-200", "lengthscale"),
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
    # at lengthscales of 1e9 and more the kernel between any two grid
    # functions rounds to 1, so with noise below float resolution the
    # second observation's Schur complement is zero for every candidate
    state = tmp_path / "state.txt"
    state.write_text(
        "grid.points_per_axis = 20\nopt.S = 1\nopt.T = 1\nopt.n_init = 2\n"
        "noise.sigma = 1e-12\nmle.grid_min = 1e9\nmle.grid_max = 1e10\nmle.grid_points = 3\n"
    )
    fn = tmp_path / "g.csv"
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 0
    assert _cli("tell", "--state", str(state), "--y", "0.5").returncode == 0
    assert _cli("suggest", "--state", str(state), "--out", str(fn)).returncode == 0
    res = _cli("tell", "--state", str(state), "--y", "-0.5")
    assert res.returncode == 4
    assert "every lengthscale" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_tell_nonfinite_is_input_error(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("opt.S = 1\nopt.T = 1\nopt.n_init = 1\n")
    fn = tmp_path / "g.csv"
    _cli("suggest", "--state", str(state), "--out", str(fn))
    res = _cli("tell", "--state", str(state), "--y", "nan")
    assert res.returncode == 2


def _state_with_pending(tmp_path):
    """A state file with one told evaluation and a pending suggestion."""
    state = _fresh_state(tmp_path)
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
    lines = _regret_session_text().splitlines()
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

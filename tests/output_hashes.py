"""Hash every output file of a fixed set of runs and sessions.

    PYTHONPATH=src python tests/output_hashes.py > hashes.txt

prints one ``sha256  path`` line per file, sorted by path, for:

* the 16 paper-protocol cells: each algorithm under budget and regret
  termination and the l2grid and rkhs metrics, on the default 1-d grid
  of N = 100 points, S = 4, T = 30, n_init = 5, seed 0;
* s3bfo on a 2-d 40 x 40 grid with S = 3 at seeds 1-3, under each metric;
* s3bfo on the paper protocol at opt.d = 2 and 3, under each metric;
* ask/tell sessions of the 16 configs that the session tests compare with
  in-process runs, and of s3bfo with SE bases on a 2-d 8 x 8 grid (whose
  state digests the per-axis prior) under budget and regret termination:
  every state and suggestion that each suggest and tell writes, and the
  export of the finished run.  The live engine is forgotten before every
  command, so each one replays its state.

Every file is written into a temporary directory, removed at exit.  Two
listings compare equal when the runs are byte-identical: run the script
in two processes, or against two source trees through PYTHONPATH, and
``cmp`` the listings.  The bits may depend on the BLAS thread count, so
compare listings made at the same count.  It takes about 6 s on 2 cores.
"""

import hashlib
import itertools
import shutil
import tempfile
from pathlib import Path

from funcbo import bench
from funcbo.errors import ProtocolError
from funcbo.gridfn import read_function_csv
from funcbo.optimizer import ALGORITHMS, rng_streams

PROTOCOL = "opt.S = 4\nopt.T = 30\nopt.n_init = 5\nbench.repeats = 1\nbench.base_seed = 0\n"
METRICS = ("l2grid", "rkhs")


def _bench(out: Path, text: str) -> None:
    bench.run_bench(bench.parse_config_lines(text.splitlines()), out)


def _runs(root: Path) -> None:
    for algorithm in ALGORITHMS:
        for termination in ("budget", "regret"):
            for metric in METRICS:
                _bench(root / f"paper-{algorithm}-{termination}-{metric}",
                       f"{PROTOCOL}bench.algorithms = {algorithm}\n"
                       f"opt.termination = {termination}\nK.metric = {metric}\n")
    for metric in METRICS:
        _bench(root / f"grid2d-{metric}",
               "grid.dim = 2\ngrid.points_per_axis = 40\nopt.S = 3\nopt.T = 30\n"
               f"opt.n_init = 5\nbench.repeats = 3\nbench.base_seed = 1\nK.metric = {metric}\n")
        for d in (2, 3):
            _bench(root / f"paper-s3bfo-d{d}-{metric}",
                   f"{PROTOCOL}opt.d = {d}\nK.metric = {metric}\n")


def _session(root: Path, text: str) -> None:
    """One session of a state file's config text, each command on a state
    that no engine holds live."""
    root.mkdir()
    state = root / "state.txt"
    state.write_text(text)
    values = bench.parse_config(state)
    cfg = bench.build_opt_config(values)
    objective = bench.build_objective(values, cfg.grid)
    noise_rng = rng_streams(cfg.seed)[1]
    for step in itertools.count():
        out = root / f"step{step:03d}-suggestion.csv"
        bench._take_live(None)
        try:
            bench.suggest(state, out)
        except ProtocolError as exc:
            if "complete" not in str(exc):
                raise
            break
        shutil.copyfile(state, root / f"step{step:03d}-suggested-state.txt")
        bench._take_live(None)
        bench.tell(state, objective.evaluate(read_function_csv(out), noise_rng))
        shutil.copyfile(state, root / f"step{step:03d}-told-state.txt")
    bench._take_live(None)
    bench.export_function(state, root / "export.csv")


def _sessions(root: Path) -> None:
    for algorithm in ALGORITHMS:
        for termination in ("budget", "regret"):
            for metric in METRICS:
                _session(root / f"session-{algorithm}-{termination}-{metric}",
                         "grid.points_per_axis = 40\nopt.S = 2\nopt.T = 4\nopt.n_init = 2\n"
                         f"opt.seed = 8\nobjective.noise = 0.05\nopt.algorithm = {algorithm}\n"
                         f"opt.termination = {termination}\nK.metric = {metric}\n")
    for termination in ("budget", "regret"):
        _session(root / f"session-s3bfo-{termination}-se-2d",
                 "grid.dim = 2\ngrid.points_per_axis = 8\nopt.S = 2\nopt.T = 3\nopt.n_init = 2\n"
                 f"kappa.kind = se\nopt.algorithm = s3bfo\nopt.termination = {termination}\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _runs(root)
        _sessions(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")


if __name__ == "__main__":
    main()

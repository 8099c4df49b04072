"""Benchmark of funcbo: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; funcbo is imported from
``src/``, nothing is installed.  Every measurement runs in a fresh child
process (``child.py``), so set-up time and peak memory are those of a
new user of the program.

``--trace 0`` reports the end-to-end metrics.  Six set-up-only
children and the measuring child each time set-up; the measuring child
then runs whole units of the workload, at least one, and starts another
only while it should end within ``--seconds`` of timed work.

``--trace 1`` reports the per-layer metrics.  It runs the workload's
first unit twice, untraced and then traced, so the counts repeat exactly
for a seed and ``trace.overhead_ratio`` compares identical work.

Every run prints its environment, each metric with its unit, the output
checks, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The same record, with the
environment, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("grid2d", "session_regret")
SETUP_CHILDREN = 6
# Every child must end inside the 180 s a run may take.
DEADLINE_S = 170.0


class Run:
    """Failure accounting and child processes of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, mode: str, seconds: float, trace: bool) -> dict | None:
        """Run one child to completion; None (and a failure) if it broke."""
        a = self.args
        cmd = [
            sys.executable, str(HERE / "child.py"), mode, a.workload, str(a.seed),
            repr(seconds), "1" if trace else "0", "1" if a.smoke else "0",
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return self._broken(f"{mode} child timed out")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return self._broken(f"{mode} child failed: {tail[0]}")
        result = json.loads(lines[-1])
        if mode == "setup":
            if result.get("setup_s") is None:
                return self._broken("setup child made no objective evaluation")
            self.attempted += 1
        else:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.problems += result["problems"]
        return result

    def _broken(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)
        return None


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run) -> tuple[dict, dict | None]:
    setups = [run.child("setup", 0.0, False) for _ in range(SETUP_CHILDREN)]
    main = run.child("measure", run.args.seconds, False)
    if main is None:
        return {}, None
    samples = [r["setup_s"] for r in setups + [main] if r and r["setup_s"] is not None]
    steps_ms = [1000.0 * s for unit in main["units"] for s in unit["steps"]]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "evals_per_s": (main["evals"] / main["measured_s"], "1/s"),
        "step_p50_ms": (statistics.median(steps_ms), "ms"),
        "step_p90_ms": (_percentile(steps_ms, 90), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    print(
        f"{run.args.workload} seed {run.args.seed}: {len(main['units'])} units, "
        f"{main['evals']} evaluations in {main['measured_s']:.3f} s of timed work, "
        f"{len(steps_ms)} steps, set-up median of {len(samples)} children"
    )
    return metrics, main


def per_layer(run: Run) -> tuple[dict, dict | None]:
    plain = run.child("measure", 0.0, False)
    traced = run.child("measure", 0.0, True)
    if plain is None or traced is None:
        return {}, None
    if (plain["evals"], plain["gaps"]) != (traced["evals"], traced["gaps"]):
        run.failed += 1
        run.problems.append("tracing changed the results")
    for name, inner, duration in traced["span_fit"]:
        if not 0.0 <= inner <= duration:
            run.failed += 1
            run.problems.append(f"span {name}: children self {inner} s outside {duration} s")
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    rate = traced["evals"] / traced["measured_s"]
    metrics["trace.overhead_ratio"] = (rate / (plain["evals"] / plain["measured_s"]), "ratio")
    metrics["final_gap"] = (statistics.median(traced["gaps"]), "L2")
    inner = sum(i for _, i, _ in traced["span_fit"])
    top = sum(d for _, _, d in traced["span_fit"])
    print(
        f"{run.args.workload} seed {run.args.seed}: traced one unit, "
        f"{len(traced['span_fit'])} top-level spans of {top:.3f} s hold {inner:.3f} s "
        f"of child self time; absent functions: {', '.join(traced['absent']) or 'none'}"
    )
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "funcbo" / "__init__.py").is_file():
        print(f"error: no funcbo source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args)
    metrics, child = (per_layer if args.trace else end_to_end)(run)
    if child is not None:
        print("env: " + json.dumps(child["env"], sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:14.6g} {unit}")
    ratio = run.failed / max(run.attempted, 1)
    print(f"  {'fail_ratio':48s} {ratio:14.6g} ratio ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"check failed: {problem}")
    correct = run.failed == 0 and child is not None
    record = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    (OUT_DIR / name).write_text(
        json.dumps({**record, "env": child and child["env"], "problems": run.problems}, indent=1)
    )
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

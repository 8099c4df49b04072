"""Command-line entry point.

Exit codes: 0 ok, 2 config/input error, unreadable file or out of
memory, 3 protocol error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .errors import ConfigError, InputError, NumericalError, ProtocolError, ShapeError
from .objectives import lemma1_intersection_estimate


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcbo",
        description="Bayesian optimisation over function spaces via random GP subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run a benchmark config and write CSV results")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out", default="bench_out", help="output directory")

    p = sub.add_parser("suggest", help="emit the next query function of a session")
    p.add_argument("--state", required=True, help="state file (a config file starts one)")
    p.add_argument("--out", required=True, help="where to write the suggested function CSV")

    p = sub.add_parser("tell", help="record the observed value for the pending suggestion")
    p.add_argument("--state", required=True)
    p.add_argument("--y", required=True, type=float, help="observed objective value")

    p = sub.add_parser("export", help="export the incumbent function of a finished run")
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "verify-lemma1",
        help="Monte-Carlo subspace/ball intersection probability estimate",
    )
    p.add_argument("--d", required=True, type=int, help="subspace dimension")
    p.add_argument("--de", required=True, type=int, help="ambient (effective) dimension")
    p.add_argument("--beta", required=True, type=float, help="ball radius fraction in (0,1]")
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _run(args) -> None:
    if args.command == "bench":
        result = bench.run_bench(bench.parse_config(args.config), args.out)
        for path in result.summary_paths.values():
            print(path)
    elif args.command == "suggest":
        print(bench.suggest(args.state, args.out))
    elif args.command == "tell":
        rec = bench.tell(args.state, args.y)
        print(f"recorded evaluation {rec.eval_index}: y={rec.y!r} best_y={rec.best_y!r}")
    elif args.command == "export":
        print(bench.export_function(args.state, args.out))
    elif args.command == "verify-lemma1":
        estimate = lemma1_intersection_estimate(
            args.d, args.de, args.beta, args.trials, np.random.default_rng(args.seed)
        )
        print(repr(estimate))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value like -2.5e-3 or -inf for an option: bind it to --y
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--y":
            argv[i:i + 2] = [f"--y={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        _run(args)
    except (ConfigError, InputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except UnicodeError as exc:
        # the only text a command decodes is its --state or --config file
        path = args.state if "state" in args else args.config
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the model's own is a ConfigError naming its keys
        print(f"error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

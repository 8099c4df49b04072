"""One measurement of the funcbo benchmark in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS TRACE SMOKE

MODE is "setup" or "measure" (see ``workloads.run_child``).  Prints one
JSON object on its last line.  Started by ``run.py``; the clock for
set-up time starts here, before ``import funcbo``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def main(argv) -> int:
    mode, name, seed, seconds, trace, smoke = argv
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    result = workloads.run_child(
        mode, name, int(seed), float(seconds), trace == "1", smoke == "1", T0, OUT_DIR
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One set-up of the benchmark, in a fresh interpreter so that its time
includes the package imports: import nash_unicast, then generate and write
one workload's input files. Prints as JSON the CPU seconds this took
(``setup_s``, split into ``import_s`` and ``generate_s``), the part of them
spent in user mode (``setup_user_s``), the wall seconds, and ``reference_s``:
the CPU seconds of one reference job (see reference.py), the mean of medians
taken just before and just after generating, so that it sees the host's
speed at the time of the set-up.

    python3 bench/prepare.py --workload small-nets --seed 1 --out DIR
"""

import resource
import time


def _clocks():
    """(CPU, user-mode CPU, wall) seconds."""
    return time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_utime, time.perf_counter()


_START = _clocks()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nash_unicast.cli  # noqa: E402,F401  importing the CLI is part of set-up
from reference import reference_cpu_s  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

REFERENCE_RUNS = 5


def _since(start):
    return [now - then for then, now in zip(start, _clocks())]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    imported = _since(_START)
    before = reference_cpu_s(REFERENCE_RUNS)
    start = _clocks()
    generate(WORKLOADS[args.workload], args.seed, Path(args.out))
    generated = _since(start)
    after = reference_cpu_s(REFERENCE_RUNS)
    cpu, user, wall = (i + g for i, g in zip(imported, generated))
    print(json.dumps({"setup_s": cpu, "import_s": imported[0], "generate_s": generated[0], "setup_user_s": user,
                      "setup_wall_s": wall, "reference_s": 0.5 * (before + after)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

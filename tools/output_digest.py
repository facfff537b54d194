"""One sha256 over the CLI's output on a fixed command set, to show that a
change leaves every output byte as it was.

    python3 tools/output_digest.py [--seed 7] [--work DIR] [--each] [--expect HEX]

The command set runs in this one process through ``nash_unicast.cli.main``:

* ``solve``, ``construct-ne`` and ``audit --profile <construct-ne report>``
  on the first 100 small-nets and the first 30 crowded-links scenarios;
* on the first 20 small-nets scenarios, also ``audit`` of the construct-ne
  profile with every rate and price halved: off equilibrium, so its prices
  fail the KKT certificate and the optimality check solves cold;
* ``audit --profile <start>``, ``simulate --rounds 20`` and ``audit
  --profile <simulate report>``, which reads its final profile, on the first
  20 mixed-play scenarios;
* ``solve``, ``construct-ne`` and ``simulate`` on each file in ``scenarios/``,
  then ``report`` over the whole directory.

Every command writes its report with ``--out``. The scenario files come from
the benchmark's own generator (``bench/workloads.py``) for the given seed.
Each command's exit code, stdout, stderr and report bytes enter the digest,
with the work directory and the checkout masked, so the ``report written
to`` line does not depend on where the files are. Run it on two checkouts
and compare the last line, or pass the other checkout's digest as
``--expect HEX``: the run then exits 1, printing both digests, when its own
differs, and 0 when it matches. ``--each`` also prints one digest per
command, to find the first command that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from nash_unicast import cli  # noqa: E402
from workloads import SIMULATE_ROUNDS, WORKLOADS, generate  # noqa: E402

# (workload, scenarios taken from the front of its pool, how many of those
# also get the halved-profile audit)
POOLS = (("small-nets", 100, 20), ("crowded-links", 30, 0), ("mixed-play", 20, 0))


class Runner:
    def __init__(self, work: Path, each: bool):
        self.masks = ((str(work), "<work>"), (str(ROOT), "<root>"))
        self.each = each
        self.total = hashlib.sha256()
        self.count = 0

    def run(self, argv, out: Path) -> int:
        """Run one command in-process and fold its output into the digest."""
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
        report = out.read_text() if out.exists() else ""
        one = hashlib.sha256()
        for part in (str(rc), stdout.getvalue(), stderr.getvalue(), report):
            one.update(self.masked(part).encode() + b"\0")
        self.total.update(one.digest())
        self.count += 1
        if self.each:
            print(f"{one.hexdigest()[:16]} rc={rc} {self.masked(' '.join(argv))}")
        return rc

    def masked(self, text: str) -> str:
        for path, mask in self.masks:
            text = text.replace(path, mask)
        return text


def run_concave(runner: Runner, scenario: str, stem: Path, commands=("solve", "construct-ne", "audit")):
    for command in commands:
        argv = [command, "--scenario", scenario]
        if command == "audit":
            argv += ["--profile", f"{stem}.construct-ne.json"]
        runner.run(argv, Path(f"{stem}.{command}.json"))


def run_halved(runner: Runner, scenario: str, stem: Path) -> None:
    """``audit`` the construct-ne profile with every rate and price halved."""
    ne = Path(f"{stem}.construct-ne.json")
    if not ne.exists():
        return
    halved = {
        user: {"rate": 0.5 * m["rate"], "prices": {l: 0.5 * p for l, p in m["prices"].items()}}
        for user, m in json.loads(ne.read_text())["profile"].items()
    }
    profile = Path(f"{stem}.halved.json")
    profile.write_text(json.dumps(halved))
    runner.run(["audit", "--scenario", scenario, "--profile", str(profile)], Path(f"{stem}.audit-halved.json"))


def run_play(runner: Runner, entry, stem: Path) -> None:
    scenario = entry["scenario"]
    runner.run(["audit", "--scenario", scenario, "--profile", entry["start"]], Path(f"{stem}.audit0.json"))
    sim = Path(f"{stem}.simulate.json")
    runner.run(["simulate", "--scenario", scenario, "--profile", entry["start"], "--rounds", SIMULATE_ROUNDS], sim)
    runner.run(["audit", "--scenario", scenario, "--profile", str(sim)], Path(f"{stem}.audit1.json"))


def digest(seed: int, work: Path, each: bool = False) -> Runner:
    """Run the whole command set on scenarios written under ``work`` for the
    benchmark ``seed``; returns the runner, holding the total and the count."""
    work = work.resolve()
    runner = Runner(work, each)
    for name, count, halved in POOLS:
        workload = dataclasses.replace(WORKLOADS[name], pool=count)
        pool = generate(workload, seed, work / name)
        for entry in pool:
            stem = work / name / str(entry["index"])
            if workload.play:
                run_play(runner, entry, stem)
            else:
                run_concave(runner, entry["scenario"], stem)
                if entry["index"] < halved:
                    run_halved(runner, entry["scenario"], stem)
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        (work / "files").mkdir(exist_ok=True)
        run_concave(runner, str(path), work / "files" / path.stem, ("solve", "construct-ne", "simulate"))
    runner.run(["report", "--scenario", str(ROOT / "scenarios")], work / "files" / "report.json")
    return runner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="benchmark seed of the generated scenarios")
    parser.add_argument("--work", default=None, help="directory for inputs and reports (default: a temporary one)")
    parser.add_argument("--each", action="store_true", help="also print one digest per command")
    parser.add_argument("--expect", metavar="HEX", default=None, help="exit 1 unless the total digest is HEX")
    args = parser.parse_args()

    with contextlib.ExitStack() as stack:
        work = Path(args.work) if args.work else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        runner = digest(args.seed, work, args.each)
    total = runner.total.hexdigest()
    print(f"{total}  {runner.count} commands, seed {args.seed}")
    if args.expect is not None and args.expect.lower() != total:
        print(f"digest differs: expected {args.expect}, got {total}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

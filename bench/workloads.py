"""The benchmark's workloads: seeded input files, command sequences and checks.

Each workload is a pool of scenario files generated from the benchmark seed
and a fixed sequence of CLI commands run on every scenario of the pool. The
program sees only the generated files. Every command's output is checked;
an operation fails when it exits 1, raises, or fails its check, and a step
whose input came from a failed step is counted as attempted and failed.
A scenario on which ``solve`` raises NotConverged is set aside (SetAside).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

from nash_unicast.scenario import (
    profile_to_labels,
    random_feasible_profile,
    random_scenario,
    save_scenario,
)
from nash_unicast.utilities import sigmoid_utility


@dataclass(frozen=True)
class Workload:
    name: str
    users: tuple  # inclusive ranges of scenario sizes, cycled through (see _sizes)
    links: tuple
    pool: int  # scenario files generated in set-up; the timed pass cycles through them
    trace_scenarios: int  # scenarios in each pass of a traced run
    play: bool  # audit/simulate/audit on a mixed market instead of solve/construct-ne/audit


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-nets", (3, 8), (2, 6), pool=300, trace_scenarios=40, play=False),
        Workload("crowded-links", (26, 26), (1, 1), pool=60, trace_scenarios=8, play=False),
        Workload("mixed-play", (28, 32), (18, 22), pool=120, trace_scenarios=20, play=True),
    )
}

SIMULATE_ROUNDS = "20"
# The error the CLI prints when solve_centralized raises NotConverged.
_NOT_CONVERGED = re.compile(r"still above tolerance .* after \d+ iterations")


class SetAside(Exception):
    """``solve`` raised NotConverged on this scenario. That is a known defect
    of the solver (see NOTES.md), listed as such rather than counted as a
    failed operation: the benchmark's workloads must be ones on which no
    operation fails. The runner drops the scenario from the workload, counts
    it and prints it; ``solver.not_converged`` tracks the defect itself."""


def scenario_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _sizes(workload: Workload, index: int):
    """The users and links of scenario ``index``, as random_scenario ranges.

    Sizes cycle through every (users, links) pair of the workload's ranges,
    so each run meets the same mix of sizes and the seed varies only what is
    drawn within a size.
    """
    users = range(workload.users[0], workload.users[1] + 1)
    links = range(workload.links[0], workload.links[1] + 1)
    u, n = users[index % len(users)], links[index // len(users) % len(links)]
    return {"users_range": (u, u), "links_range": (n, n)}


def _mixed_market(seed: int, sizes: dict):
    """A random topology where about half the users get sigmoid utilities.

    The sigmoid users are drawn here rather than through random_scenario's
    ``families`` argument, which turns every family other than log and power
    into quadcap.
    """
    scenario = random_scenario(seed, **sizes)
    rng = random.Random(seed)
    labels = sorted(scenario.utilities)
    for label in rng.sample(labels, len(labels) // 2):
        scenario.utilities[label] = sigmoid_utility(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))
    return scenario


def generate(workload: Workload, seed: int, directory: Path) -> list:
    """Write the workload's scenario pool (and start profiles) under
    ``directory``; returns the pool as a list of entries."""
    directory.mkdir(parents=True, exist_ok=True)
    pool = []
    for index in range(workload.pool):
        s = scenario_seed(seed, index)
        entry = {"index": index, "seed": s, "scenario": str(directory / f"{index}.scenario.json")}
        if workload.play:
            scenario = _mixed_market(s, _sizes(workload, index))
            net, _, params, _ = scenario.build()
            start = random_feasible_profile(net, params, s)
            entry["start"] = str(directory / f"{index}.start.json")
            _write_json(entry["start"], profile_to_labels(start, net))
        else:
            scenario = random_scenario(s, **_sizes(workload, index))
        entry["tolerance"] = scenario.solver.get("tolerance", 1e-8)
        save_scenario(scenario, entry["scenario"])
        pool.append(entry)
    _write_json(directory / "pool.json", pool)
    return pool


def _write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_report(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


@dataclass
class Op:
    """One attempted CLI command of a scenario's sequence."""

    command: str
    status: str  # ok | error (exit 1 or raised) | wrong (failed its check) | skipped
    detail: str = ""
    report_bytes: int = 0
    timing: dict | None = None  # the call's seconds by clock; None when not run

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _invoke(call, command, argv, out: Path):
    out.unlink(missing_ok=True)  # a report left from an earlier lap must not pass a check
    rc, timing, err = call(command, argv)
    size = out.stat().st_size if out.exists() else 0
    return rc, timing, err, size


def _error(command, timing, rc, err, size):
    what = "raised" if rc is None else f"exit {rc}"
    return Op(command, "error", f"{what}: {err.strip()[-200:]}", size, timing)


def run_concave(entry, out_dir: Path, call) -> list:
    """solve, construct-ne --out, audit --profile <construct-ne report>."""
    i = entry["index"]
    scenario = entry["scenario"]
    ops = []

    solve_out = out_dir / f"{i}.solve.json"
    argv = ["solve", "--scenario", scenario, "--out", str(solve_out)]
    rc, t, err, size = _invoke(call, "solve", argv, solve_out)
    solved = None
    if rc == 1 and _NOT_CONVERGED.search(err):
        raise SetAside(err.strip())
    if rc != 0:
        ops.append(_error("solve", t, rc, err, size))
    else:
        report = _read_report(solve_out)
        block = report.get("solve", {}) if report else {}
        kkt, objective = block.get("kkt_residual"), block.get("objective")
        certified = isinstance(kkt, float) and kkt <= entry["tolerance"]
        if not (certified and isinstance(objective, float) and math.isfinite(objective)):
            detail = f"kkt_residual {kkt} above {entry['tolerance']} or objective {objective}"
            ops.append(Op("solve", "wrong", detail, size, t))
        else:
            solved = objective
            ops.append(Op("solve", "ok", report_bytes=size, timing=t))

    ne_out = out_dir / f"{i}.ne.json"
    argv = ["construct-ne", "--scenario", scenario, "--out", str(ne_out)]
    rc, t, err, size = _invoke(call, "construct-ne", argv, ne_out)
    ne_ok = False
    if rc not in (0, 2):
        ops.append(_error("construct-ne", t, rc, err, size))
    else:
        report = _read_report(ne_out)
        objective = report.get("solve", {}).get("objective") if report else None
        checks = report.get("checks", []) if report else [{"name": "<no report>", "pass": False}]
        failing = [c["name"] for c in checks if not c["pass"]]
        if rc != 0 or failing:
            ops.append(Op("construct-ne", "wrong", f"exit {rc}, failing checks {failing}", size, t))
        elif solved is None:
            detail = "solve failed, so the objective cannot be compared"
            ops.append(Op("construct-ne", "skipped", detail, size, t))
        elif objective != solved:
            ops.append(Op("construct-ne", "wrong", f"objective {objective} != solve objective {solved}", size, t))
        else:
            ne_ok = True
            ops.append(Op("construct-ne", "ok", report_bytes=size, timing=t))

    if not ne_ok:
        ops.append(Op("audit", "skipped", "construct-ne failed"))
        return ops
    audit_out = out_dir / f"{i}.audit.json"
    argv = ["audit", "--scenario", scenario, "--profile", str(ne_out), "--out", str(audit_out)]
    rc, t, err, size = _invoke(call, "audit", argv, audit_out)
    if rc == 0:
        ops.append(Op("audit", "ok", report_bytes=size, timing=t))
    elif rc == 2:
        ops.append(Op("audit", "wrong", f"equilibrium fails its audit: {err.strip()}", size, t))
    else:
        ops.append(_error("audit", t, rc, err, size))
    return ops


def _play_audit(call, entry, profile, out: Path) -> Op:
    """Off equilibrium most checks fail (exit 2); feasibility and budget
    balance must hold at every feasible profile."""
    argv = ["audit", "--scenario", entry["scenario"], "--profile", str(profile), "--out", str(out)]
    rc, t, err, size = _invoke(call, "audit", argv, out)
    if rc not in (0, 2):
        return _error("audit", t, rc, err, size)
    report = _read_report(out)
    passed = {c["name"]: c["pass"] for c in report.get("checks", [])} if report else {}
    if not (passed.get("feasibility") and passed.get("budget_gap")):
        return Op("audit", "wrong", f"feasibility/budget_gap failed: {passed}", size, t)
    return Op("audit", "ok", report_bytes=size, timing=t)


def run_play(entry, out_dir: Path, call) -> list:
    """audit --profile <start>, simulate --rounds 20, audit --profile <final>."""
    i = entry["index"]
    ops = [_play_audit(call, entry, entry["start"], out_dir / f"{i}.audit0.json")]

    sim_out = out_dir / f"{i}.simulate.json"
    argv = ["simulate", "--scenario", entry["scenario"], "--profile", entry["start"],
            "--rounds", SIMULATE_ROUNDS, "--out", str(sim_out)]
    rc, t, err, size = _invoke(call, "simulate", argv, sim_out)
    final = None
    if rc != 0:
        ops.append(_error("simulate", t, rc, err, size))
    else:
        report = _read_report(sim_out)
        start_users = set(_read_report(entry["start"]))
        final = report.get("final_profile") if report else None
        verdict = report.get("verdict") if report else None
        if verdict not in ("converged", "cycled", "exhausted") or not final or set(final) != start_users:
            ops.append(Op("simulate", "wrong", f"verdict {verdict}, final profile users differ", size, t))
            final = None
        else:
            ops.append(Op("simulate", "ok", report_bytes=size, timing=t))

    if final is None:
        ops.append(Op("audit", "skipped", "simulate failed"))
        return ops
    # audit --profile reads a bare profile or a report's "profile" block, not
    # a simulate report's "final_profile", so the block is written out alone.
    final_path = out_dir / f"{i}.final.json"
    _write_json(final_path, final)
    ops.append(_play_audit(call, entry, final_path, out_dir / f"{i}.audit1.json"))
    return ops


def run_scenario(workload: Workload, entry, out_dir: Path, call) -> list:
    return (run_play if workload.play else run_concave)(entry, out_dir, call)

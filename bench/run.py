"""Seeded benchmark of the nash-unicast CLI, one closed-loop client in one process.

    python3 bench/run.py --workload small-nets --seed 1 --seconds 30 --trace 0

Set-up generates the workload's scenario files from the seed in a fresh
interpreter (see prepare.py). The untraced run (``--trace 0``) then drives
``nash_unicast.cli.main(argv)`` in-process on one scenario after another for
``--seconds`` seconds of wall time, checks every output and reports the
end-to-end metrics; it repeats the set-up at even intervals of the run, and
``setup_s`` is the median of all set-ups' user-mode CPU time, each divided
by a reference job timed within it and scaled to a nominal host (see
reference.py and NOTES.md). The traced run
(``--trace 1``) takes the workload's first scenarios (a fixed number, unless
``--seconds`` runs out first) through the sequence, each one untraced and then
traced (see spans.py), and reports the per-layer metrics.
Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.

Times are process CPU seconds unless a name or line says wall. The CLI runs
in this one thread, so its CPU time is its wall time minus the time the host
did not run it; on a shared virtual machine that steal time varies by tens
of percent from minute to minute. The host's speed drifts as well, so in the
untraced run a fixed reference job runs before the first call and after every
call, and each call's CPU time is also given in refs: divided by the mean CPU
time of the reference runs on either side of it. The gated timed metrics are
in refs, or scaled from refs to seconds on a nominal host (``setup_s``); wall
and CPU seconds are printed alongside.
"""

import os

# One client on one core: keep numpy's BLAS/OpenMP pools at one thread. Set
# before numpy is imported, here and in the set-up interpreters.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402
from reference import NOMINAL_S, reference_cpu_s  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
COMMANDS = ("solve", "construct-ne", "audit", "simulate")
CLOCKS = ("wall", "cpu", "ref")
TAX_LINK_BUCKETS = ("g1", "g2", "g3", "g4plus")
# random_scenario seeds, at the default size, on which solve_centralized
# raises NotConverged (3 of seeds 1000-1299); see NOTES.md.
KNOWN_NOT_CONVERGED = (1046, 1121, 1204)


def _median_p90(values):
    """Median, plus the 90th percentile when at least ten samples lie beyond it."""
    p50 = statistics.median(values)
    if len(values) < 2:
        return p50, None, 0
    p90 = statistics.quantiles(values, n=10)[-1]
    beyond = sum(v > p90 for v in values)
    return p50, (p90 if beyond >= 10 else None), beyond


def _run_info(args):
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nash_unicast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "client": "closed loop, 1 client, in-process cli.main",
    }


def set_up(args, out):
    """Generate the workload's files under ``out`` in a fresh interpreter;
    returns the timings it printed."""
    cmd = [sys.executable, str(BENCH / "prepare.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def make_call(cli, tracer=None, reference=None):
    """An in-process CLI invocation with its output captured, timed as
    {"wall": s, "cpu": s}. Given a ``reference`` list, the reference job runs
    after every call (and once before the first), its CPU times are appended
    there, and the timing gains "ref": the call's CPU time over the mean of
    the reference runs just before and just after it."""
    if reference is not None:
        reference.append(reference_cpu_s())

    def call(command, argv):
        out, err = io.StringIO(), io.StringIO()
        rec = tracer.open(f"cli.{command}") if tracer else None
        wall, cpu = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        timing = {"wall": perf_counter() - wall, "cpu": process_time() - cpu}
        if rec:
            tracer.close(rec)
        if reference is not None:
            reference.append(reference_cpu_s())
            timing["ref"] = timing["cpu"] / (0.5 * (reference[-2] + reference[-1]))
        return rc, timing, err.getvalue()

    return call


def run_pass(workloads, workload, pool, out_dir, call, seconds, set_up_again):
    """Closed loop over the pool (cycling if it runs out) for ``seconds`` of
    wall time. Between scenarios it calls ``set_up_again`` SETUP_REPEATS - 1
    times, at even intervals, with the clock stopped: set-up time on a shared
    host moves over seconds, so set-ups spread over the run give a steadier
    median than set-ups taken back to back. Returns (ops per scenario,
    (seed, error) per scenario set aside)."""
    scenarios, set_aside = [], []
    due = [seconds * j / SETUP_REPEATS for j in range(1, SETUP_REPEATS)]
    elapsed, taken = 0.0, 0
    while elapsed < seconds:
        if due and elapsed >= due[0]:
            due.pop(0)
            set_up_again()
        start = perf_counter()
        entry = pool[taken % len(pool)]
        taken += 1
        try:
            scenarios.append(workloads.run_scenario(workload, entry, out_dir, call))
        except workloads.SetAside as exc:
            set_aside.append((entry["seed"], str(exc)))
        elapsed += perf_counter() - start
    for _ in due:
        set_up_again()
    return scenarios, set_aside


def run_traced(workloads, workload, pool, out_dir, cli, tracer, seconds):
    """The workload's first ``trace_scenarios`` scenarios (fewer if
    ``seconds`` of wall time run out), each taken through the sequence
    untraced and then traced, so that a drift in the host's speed hits both
    sides of the overhead ratio alike. A scenario set aside untraced is not
    traced. Returns (untraced ops, traced ops, scenarios set aside)."""
    plain_call, traced_call = make_call(cli), make_call(cli, tracer)
    plain, traced, set_aside = [], [], []
    start = perf_counter()
    for entry in pool[:workload.trace_scenarios]:
        if perf_counter() - start >= seconds:
            break
        try:
            plain.append(workloads.run_scenario(workload, entry, out_dir, plain_call))
        except workloads.SetAside as exc:
            set_aside.append((entry["seed"], str(exc)))
            continue
        with tracer.installed():
            traced.append(workloads.run_scenario(workload, entry, out_dir, traced_call))
    return plain, traced, set_aside


def command_seconds(scenarios, clock="cpu"):
    return sum(op.timing[clock] for ops in scenarios for op in ops if op.timing)


def end_to_end(scenarios, setup, reference):
    """The end-to-end metrics, plus lines for the text report that give each
    command's wall-time median and p90, and its CPU and ref medians."""
    times = {(c, clock): [] for c in COMMANDS for clock in CLOCKS}
    for ops in scenarios:
        for op in ops:
            if op.timing:
                for clock in CLOCKS:
                    times[op.command, clock].append(op.timing[clock])
    scenario_refs = [sum(op.timing["ref"] for op in ops if op.timing) for ops in scenarios]
    metrics = {
        "setup_s": (NOMINAL_S * statistics.median(t["setup_user_s"] / t["reference_s"] for t in setup), "s"),
        "scenarios_per_ref": (1.0 / statistics.median(scenario_refs), "1/ref"),
        "audit_ref.p50": (statistics.median(times["audit", "ref"]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    lines = [f"  {'set-up CPU s':<22} {statistics.median(t['setup_s'] for t in setup):.6g} s",
             f"  {'set-up user CPU s':<22} {statistics.median(t['setup_user_s'] for t in setup):.6g} s",
             f"  {'set-up wall s':<22} {statistics.median(t['setup_wall_s'] for t in setup):.6g} s",
             f"  {'reference_cpu_s.p50':<22} {statistics.median(reference):.6g} s   (1 ref, n={len(reference)})",
             f"  {'scenarios_per_cpu_s':<22} {len(scenarios) / command_seconds(scenarios):.6g} 1/s",
             f"  {'scenarios_per_s':<22} {len(scenarios) / command_seconds(scenarios, 'wall'):.6g} 1/s (wall)"]
    for command in COMMANDS:
        wall = times[command, "wall"]
        if not wall:
            continue
        key = command.replace("-", "_")
        p50, p90, beyond = _median_p90(wall)
        p90_text = (f"{p90:.6g} s" if p90 is not None
                    else f"not reported ({beyond} samples beyond it, fewer than 10)")
        lines.append(f"  {key}_s.p50 {p50:.6g} s | {key}_s.p90 {p90_text} | "
                     f"{key}_cpu_s.p50 {statistics.median(times[command, 'cpu']):.6g} s | "
                     f"{key}_ref.p50 {statistics.median(times[command, 'ref']):.6g} ref | n={len(wall)}")
    return metrics, lines


def time_tax_link(workload, pool, out_dir, count):
    """Seconds per mechanism.tax_link call, by link group size, on the
    profiles the traced pass audited."""
    from nash_unicast.mechanism import tax_link
    from nash_unicast.scenario import load_scenario, parse_profile

    samples = {b: [] for b in TAX_LINK_BUCKETS}
    for entry in pool[:count]:
        i = entry["index"]
        names = [entry["start"], out_dir / f"{i}.final.json"] if workload.play else [out_dir / f"{i}.ne.json"]
        paths = [p for p in names if Path(p).exists()]
        if not paths:
            continue
        scenario = load_scenario(entry["scenario"])
        net, _, params, _ = scenario.build()
        for path in paths:
            with open(path) as fh:
                data = json.load(fh)
            profile = parse_profile(data.get("profile", data), net)
            for link in net.links():
                n = len(net.group(link))
                if n == 0:
                    continue
                start = process_time()
                tax_link(net, profile, link, params)
                samples[f"g{n}" if n < 4 else "g4plus"].append(process_time() - start)
    return {b: (statistics.mean(v) if v else 0.0) for b, v in samples.items()}


def probe_not_converged():
    """How many of the scenarios known to defeat the solver still do."""
    from nash_unicast.scenario import random_scenario
    from nash_unicast.solver import NotConverged, solve_centralized

    count = 0
    for seed in KNOWN_NOT_CONVERGED:
        net, utilities, _, config = random_scenario(seed).build()
        try:
            solve_centralized(net, utilities, config)
        except NotConverged:
            count += 1
    return count


def per_layer(tracer, scenarios, untraced_s, traced_s, tax_link_s, not_converged):
    from spans import LAYERS, SUBGRADIENT_ITERATIONS

    k = len(scenarios)
    n_commands = sum(bool(op.timing) for ops in scenarios for op in ops)
    calls, total, own = tracer.summarize()
    its = tracer.solver_iterations
    solves = len(its)
    runs = tracer.dynamics_runs
    moves = sum(m for _, m in runs)
    parent_name = {i: s[0] for i, s in enumerate(tracer.spans)}
    dyn_best = sum(1 for name, _, _, parent in tracer.spans
                   if name == "equilibrium.best_deviation" and parent_name.get(parent) == "dynamics.run")
    layer_self = {layer: sum(v for name, v in own.items() if name.split(".")[0] == layer) for layer in LAYERS}
    all_self = sum(layer_self.values())
    report_bytes = [op.report_bytes for ops in scenarios for op in ops if op.timing]

    def per_solve(x):
        return x / solves if solves else 0.0

    m = {
        "scenario.load_s": (total["scenario.load"] / k, "s/scenario"),
        "scenario.build_s": (total["scenario.build"] / k, "s/scenario"),
        "network.build_s": (total["network.build"] / k, "s/scenario"),
        "solver.solve_s": (total["solver.solve"] / k, "s/scenario"),
        "solver.iterations": (per_solve(sum(its)), "1/solve"),
        "solver.subgradient_iterations": (per_solve(sum(min(i, SUBGRADIENT_ITERATIONS) for i in its)), "1/solve"),
        "solver.clearing_rounds": (per_solve(sum(max(i - SUBGRADIENT_ITERATIONS, 0) for i in its)), "1/solve"),
        "solver.subgradient_certified_ratio": (per_solve(sum(i <= SUBGRADIENT_ITERATIONS for i in its)), "ratio"),
        "solver.not_converged": (not_converged, "count"),
        "utilities.demand.calls": (per_solve(tracer.counts["utilities.demand"]), "1/solve"),
        "utilities.derivative.calls": (per_solve(tracer.counts["utilities.derivative"]), "1/solve"),
        "mechanism.outcome_s": (total["mechanism.outcome"] / k, "s/scenario"),
        "mechanism.outcome.calls": (calls["mechanism.outcome"] / n_commands, "1/command"),
        **{f"mechanism.tax_link_s.{b}": (v, "s/call") for b, v in tax_link_s.items()},
        "mechanism.own_tax_terms_s": (total["mechanism.own_tax_terms"] / k, "s/scenario"),
        "mechanism.own_tax_terms.calls": (calls["mechanism.own_tax_terms"] / k, "1/scenario"),
        "mechanism.eval_own_tax_s": (total["mechanism.eval_own_tax"] / k, "s/scenario"),
        "mechanism.eval_own_tax.calls": (calls["mechanism.eval_own_tax"] / k, "1/scenario"),
        "mechanism.eval_own_tax.points": (tracer.counts["mechanism.eval_own_tax.points"] / k, "1/scenario"),
        "equilibrium.best_deviation_s": (total["equilibrium.best_deviation"] / k, "s/scenario"),
        "equilibrium.best_deviation.calls": (calls["equilibrium.best_deviation"] / k, "1/scenario"),
        "equilibrium.audit.self_s": (own["equilibrium.audit"] / k, "s/scenario"),
        "equilibrium.check_optimality_s": (total["equilibrium.check_optimality"] / k, "s/scenario"),
        "dynamics.run_s": (total["dynamics.run"] / k, "s/scenario"),
        "dynamics.rounds": (sum(r for r, _ in runs) / len(runs) if runs else 0.0, "1/run"),
        "dynamics.moves": (moves / len(runs) if runs else 0.0, "1/run"),
        "dynamics.useful_move_ratio": (moves / dyn_best if dyn_best else 0.0, "ratio"),
        "cli.self_s": (layer_self["cli"] / k, "s/scenario"),
        "cli.report_bytes": (statistics.mean(report_bytes) if report_bytes else 0.0, "B/command"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        **{f"self_share.{layer}": (v / all_self, "ratio") for layer, v in layer_self.items()},
        "self_share.best_deviation_and_eval_own_tax": (
            (own["equilibrium.best_deviation"] + own["mechanism.eval_own_tax"]) / all_self, "ratio"),
    }
    top = sorted(own.items(), key=lambda kv: -kv[1])[:8]
    largest = max(layer_self, key=layer_self.get)
    lines = [f"  largest self share by layer: {largest} ({layer_self[largest] / all_self:.1%})",
             "  self time by span (share of traced command time):"]
    lines += [f"    {name:<36} {v / all_self:6.1%}  {calls[name]} calls" for name, v in top]
    return m, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nash_unicast").is_dir():
        print(f"no nash_unicast sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        setup = [set_up(args, run_dir / "setup0")]
        with open(run_dir / "setup0" / "pool.json") as fh:
            pool = json.load(fh)

        from nash_unicast import cli

        info = _run_info(args)
        out_dir = run_dir / "out"
        out_dir.mkdir(parents=True)
        lines = [f"run: {json.dumps(info)}"]
        if args.trace == 0:
            reference = []
            scenarios, set_aside = run_pass(
                workloads, workload, pool, out_dir, make_call(cli, reference=reference), args.seconds,
                lambda: setup.append(set_up(args, run_dir / f"setup{len(setup)}")))
            metrics, cmd_lines = end_to_end(scenarios, setup, reference)
            lines.append(f"workload {workload.name}, seed {args.seed}: {len(scenarios)} scenarios in "
                         f"{command_seconds(scenarios, 'wall'):.2f} s wall, {command_seconds(scenarios):.2f} s CPU of CLI time")
            lines += [f"  {name:<22} {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
            lines += cmd_lines
        else:
            from spans import Tracer

            tracer = Tracer()
            plain, scenarios, set_aside = run_traced(workloads, workload, pool, out_dir, cli, tracer,
                                                     args.seconds)
            k = len(scenarios)
            tax_link_s = time_tax_link(workload, pool, out_dir, k + len(set_aside))
            metrics, span_lines = per_layer(tracer, scenarios, command_seconds(plain),
                                            command_seconds(scenarios), tax_link_s, probe_not_converged())
            spans_path = results / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
            tracer.write(spans_path)
            scenarios = plain + scenarios
            lines.append(f"workload {workload.name}, seed {args.seed}: {k} scenarios, each untraced and then traced; "
                         f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
            lines += [f"  {name:<36} {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
            lines += span_lines

        lines.insert(1, "set-up CPU s, {} times: {}".format(len(setup), ", ".join(f"{t['setup_s']:.4f}" for t in setup)))
        ops = [op for s in scenarios for op in s]
        failed = [op for op in ops if op.failed]
        wrong = [op for op in ops if op.status == "wrong"]
        lines.append(f"  failed_ratio {len(failed) / len(ops):.6f} ({len(failed)} failed / {len(ops)} attempted; "
                     f"{len(wrong)} with a wrong output)")
        for op in failed[:20]:
            lines.append(f"    {op.command}: {op.status} {op.detail}")
        lines.append(f"  set aside: {len(set_aside)} scenarios on which solve raised NotConverged "
                     f"(a known solver defect, not counted above)")
        for seed, error in set_aside[:20]:
            lines.append(f"    random_scenario seed {seed}: {error}")
        result = {
            "correct": not wrong,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        }
        with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump({"run": info, "setup": setup, "result": result,
                       "timings": [[(op.command, op.timing) for op in ops] for ops in scenarios],
                       "failures": [vars(op) for op in failed], "set_aside": set_aside}, fh, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: solve, construct-ne, audit, simulate, report.

Every command loads a scenario file, prints a human-readable report with
numbers at 12 significant digits, and optionally writes the same report as
JSON (full float precision, so profiles round-trip bit-exactly). Exit codes:
0 when every check passes, 2 when any check fails, 1 on errors, usage errors
included. Set NASH_UNICAST_LOG=debug|info|warning for logging.

``main`` can be called many times in one process: the argument parser is
built on the first call and reused, each command hashes its scenario once,
after the command-line overrides, and log lines go to ``sys.stderr`` as it
is when they are logged, so a caller that redirects stderr per call gets
each call's own lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

from .dynamics import SCHEDULES, DynamicsConfig, run_dynamics
from .equilibrium import audit, check_optimality, construct_ne, own_tax_table, posted_prices
from .mechanism import assign_subsidies, outcome
from .scenario import (
    Scenario,
    load_scenario,
    parse_profile,
    profile_to_labels,
)
from .solver import NonConcaveUtility, solve_centralized

log = logging.getLogger("nash_unicast")
# what a command reports as "error: <message>" with exit 1; a ScenarioError is a ValueError
ERRORS = (OSError, ValueError, RuntimeError)
REPORT_SCHEMA = "nash-unicast/report-v1"


class UsageError(ValueError):
    pass


AUDIT_CHECKS = (
    # (name, kind, bar): _evaluate_checks compares each value with its bar by kind
    ("feasibility", "true", None),
    ("price_uniformity", "max", 1e-9),
    ("complementary_slackness", "max", 1e-6),
    ("tax_derivative_gap", "max", 1e-5),
    ("best_response_gap", "max", 1e-4),
    ("ir_min_payoff", "min", -1e-9),
    ("budget_gap", "relative", 1e-9),
    ("corollary_tax_gap", "max", 1e-9),
    ("competitive_gap", "max", 1e-6),
)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _evaluate_checks(report, tax_scale: float):
    checks = []
    for name, kind, bar in AUDIT_CHECKS:
        val = getattr(report, name)
        if kind == "true":
            ok, bound = bool(val), "true"
        elif kind == "max":
            ok, bound = val <= bar, f"<= {bar:g}"
        elif kind == "min":
            ok, bound = val >= bar, f">= {bar:g}"
        else:  # relative bar, inf on a non-finite tax scale; an inf gap fails though inf <= inf
            tol = bar * (1.0 + tax_scale) if math.isfinite(tax_scale) else math.inf
            ok, bound = math.isfinite(val) and val <= tol, f"<= {tol:.3g}"
        checks.append({"name": name, "value": val, "bound": bound, "pass": bool(ok)})
    return checks


def _emit(report: dict, out_path, lines) -> None:
    for line in lines:
        print(line)
    if out_path:
        # strict JSON: a NaN or inf raises ValueError before the file is opened
        text = json.dumps(report, allow_nan=False)
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {out_path}")


def _load(args, path):
    """Load a scenario, apply the command-line overrides and build it:
    (scenario, network, utilities, params, solver config)."""
    scenario = load_scenario(path)
    if getattr(args, "seed", None) is not None:
        scenario.mechanism["rng_seed"] = args.seed
    if getattr(args, "tolerance", None) is not None:
        scenario.solver["tolerance"] = args.tolerance
    return (scenario, *scenario.build())


def _header(command: str, scenario: Scenario):
    """A report's opening keys and its text's first line."""
    digest = scenario.digest()
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "scenario": {"name": scenario.name, "digest": digest},
    }
    return report, [f"scenario {scenario.name} (digest {digest})"]


def _profile(args, scenario: Scenario, net):
    """The ``--profile`` file, else the scenario's own profile, else None.

    The file holds a bare profile or a prior report, told apart by the
    report's "schema": construct-ne and audit keep the profile under
    "profile", simulate under "final_profile". A bare profile's keys are
    user labels, whatever they are.
    """
    if not getattr(args, "profile", None):  # report has no --profile
        return scenario.profile_messages(net)
    with open(args.profile) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and data.get("schema") == REPORT_SCHEMA:
        data = data.get("profile", data.get("final_profile", data))
    return parse_profile(data, net)


def _solve_block(net, res) -> dict:
    return {
        "rates": {net.user_labels[u]: v for u, v in sorted(res.rates.items())},
        "multipliers": {net.link_labels[l]: v for l, v in sorted(res.lambdas.items())},
        "nonnegativity_multipliers": {net.user_labels[u]: v for u, v in sorted(res.nus.items())},
        "objective": res.objective,
        "kkt_residual": res.kkt_residual,
        "iterations": res.iterations,
    }


def cmd_solve(args) -> int:
    scenario, net, utilities, _, solver_config = _load(args, args.scenario)
    res = solve_centralized(net, utilities, solver_config)
    report, lines = _header("solve", scenario)
    report["solve"] = _solve_block(net, res)
    for u, v in sorted(res.rates.items()):
        lines.append(f"  rate  {net.user_labels[u]:>8}: {_fmt(v)}")
    for l, v in sorted(res.lambdas.items()):
        lines.append(f"  price {net.link_labels[l]:>8}: {_fmt(v)}")
    lines.append(f"  objective: {_fmt(res.objective)}")
    lines.append(f"  kkt residual: {_fmt(res.kkt_residual)} ({res.iterations} iterations)")
    _emit(report, args.out, lines)
    return 0


def _audited(args, net, utilities, params, solver_config, profile, res=None):
    """Subsidies, outcome, audit and its checks, then the optimality check
    against ``res``. Without ``res`` the check takes a solve started at the
    profile's ``posted_prices``, and is skipped on non-concave utilities. The
    profile's ``own_tax_table`` is built once, for outcome and audit both.

    Returns (subsidies, audit report, allocation, checks).
    """
    subsidies = assign_subsidies(net, params.rng_seed)
    table = own_tax_table(net, profile, params)
    alloc = outcome(net, profile, params, subsidies, table)
    rep = audit(net, utilities, profile, params, alloc, table=table)
    checks = _evaluate_checks(rep, sum(abs(t) for t in alloc.taxes.values()))
    if res is None:
        try:
            res = solve_centralized(net, utilities, solver_config, start=posted_prices(net, profile))
        except NonConcaveUtility:
            log.info("optimality check skipped: non-concave utilities")
    if res is None:
        reference = "skipped: non-concave"
    else:
        opt_ok, opt_gap = check_optimality(utilities, alloc, res)
        checks.append({"name": "optimality_gap", "value": opt_gap, "bound": "<= 1e-06", "pass": opt_ok})
        if res.iterations == 0:
            reference = f"the profile's prices certify (KKT residual {res.kkt_residual:.3g})"
        else:
            reference = f"solved in {res.iterations} clearing rounds"
    log.debug("optimality reference: %s", reference)
    return subsidies, rep, alloc, checks


def _audit_blocks(net, rep, alloc, checks) -> dict:
    """The report keys that construct-ne and audit share after the profile:
    the audit, the per-(user, link) tax components plus per-user subsidy
    transfers, and the checks."""
    rows = {}
    for (u, l), lt in sorted(alloc.breakdown.link_taxes.items()):
        rows.setdefault(net.user_labels[u], {})[net.link_labels[l]] = {
            "price_part": lt.price_part,
            "incentive_part": lt.incentive_part,
            "balance_part": lt.balance_part,
            "penalty": lt.penalty,
            "total": lt.total,
        }
    return {
        "audit": {k: getattr(rep, k) for k, *_ in AUDIT_CHECKS},
        "tax_breakdown": {
            "link_taxes": rows,
            "subsidies_received": {
                net.user_labels[u]: v for u, v in sorted(alloc.breakdown.subsidies.items())
            },
            "totals": {net.user_labels[u]: v for u, v in sorted(alloc.taxes.items())},
        },
        "checks": checks,
    }


def _tax_lines(net, alloc, checks) -> list:
    lines = ["  taxes (price + incentive + balance = total per link):"]
    for (u, l), lt in sorted(alloc.breakdown.link_taxes.items()):
        lines.append(
            f"    {net.user_labels[u]:>8} @{net.link_labels[l]:<8}"
            f" {_fmt(lt.price_part):>18} {_fmt(lt.incentive_part):>18}"
            f" {_fmt(lt.balance_part):>18} = {_fmt(lt.total)}"
        )
    for u in net.users():
        lines.append(
            f"    {net.user_labels[u]:>8}: t={_fmt(alloc.taxes[u])}"
            f"  (subsidy received {_fmt(alloc.breakdown.subsidies[u])})"
        )
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"  [{status}] {c['name']}: {_fmt(c['value'])} ({c['bound']})")
    return lines


def cmd_construct_ne(args) -> int:
    scenario, net, utilities, params, solver_config = _load(args, args.scenario)
    res = solve_centralized(net, utilities, solver_config)
    profile = construct_ne(net, utilities, params, solve_result=res)
    subsidies, rep, alloc, checks = _audited(args, net, utilities, params, solver_config, profile, res)
    report, lines = _header("construct-ne", scenario)
    report.update(
        solve=_solve_block(net, res),
        profile=profile_to_labels(profile, net),
        subsidies={net.link_labels[l]: net.user_labels[u] for l, u in sorted(subsidies.items())},
        **_audit_blocks(net, rep, alloc, checks),
    )
    lines.append("  equilibrium profile:")
    for u, m in sorted(profile.items()):
        prices = " ".join(f"{net.link_labels[l]}:{_fmt(p)}" for l, p in sorted(m.prices.items()))
        lines.append(f"    {net.user_labels[u]:>8}: rate={_fmt(m.rate)} prices={prices}")
    _emit(report, args.out, lines + _tax_lines(net, alloc, checks))
    return 0 if all(c["pass"] for c in checks) else 2


def cmd_audit(args) -> int:
    scenario, net, utilities, params, solver_config = _load(args, args.scenario)
    profile = _profile(args, scenario, net)
    if profile is None:
        raise UsageError("audit needs a profile: pass --profile or embed one in the scenario")
    _, rep, alloc, checks = _audited(args, net, utilities, params, solver_config, profile)
    report, lines = _header("audit", scenario)
    report.update(profile=profile_to_labels(profile, net), **_audit_blocks(net, rep, alloc, checks))
    _emit(report, args.out, lines + _tax_lines(net, alloc, checks))
    failing = [c["name"] for c in checks if not c["pass"]]
    if failing:
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    scenario, net, utilities, params, _ = _load(args, args.scenario)
    start = _profile(args, scenario, net)
    if start is None:
        raise UsageError("simulate needs a start profile: pass --profile or embed one")
    config = DynamicsConfig(
        schedule=args.schedule,
        seed=params.rng_seed,
        max_rounds=args.rounds,
        stop_tolerance=args.stop_tolerance,
    )
    traj = run_dynamics(net, utilities, start, config, params)
    report, lines = _header("simulate", scenario)
    report.update(
        verdict=traj.verdict,
        rounds=traj.rounds,
        moves=[
            {
                "round": s.round,
                "user": net.user_labels[s.user],
                "rate": s.new.rate,
                "payoff_delta": s.payoff_delta,
            }
            for s in traj.steps
        ],
        final_profile=profile_to_labels(traj.final_profile, net),
    )
    lines.append(f"  verdict: {traj.verdict} after {traj.rounds} rounds, {len(traj.steps)} moves")
    for s in traj.steps[:20]:
        lines.append(
            f"    round {s.round}: {net.user_labels[s.user]} -> rate {_fmt(s.new.rate)}"
            f" (payoff +{_fmt(s.payoff_delta)})"
        )
    if len(traj.steps) > 20:
        lines.append(f"    ... {len(traj.steps) - 20} more moves")
    _emit(report, args.out, lines)
    return 0


def _report_row(args, path: Path) -> dict:
    """One file of ``report``: construct-ne's steps on concave utilities,
    else audit's on the scenario's own profile."""
    scenario, net, utilities, params, solver_config = _load(args, path)
    row = {"file": path.name, "name": scenario.name, "digest": scenario.digest()}
    res = None
    if all(u.is_concave for u in utilities.values()):
        res = solve_centralized(net, utilities, solver_config)
        profile = construct_ne(net, utilities, params, solve_result=res)
        row["objective"] = res.objective
    else:
        profile = _profile(args, scenario, net)
        if profile is None:
            return {**row, "verdict": "skipped", "error": "non-concave utilities and no embedded profile"}
    checks = _audited(args, net, utilities, params, solver_config, profile, res)[3]
    failing = [c["name"] for c in checks if not c["pass"]]
    return {**row, "verdict": "fail" if failing else "pass", "failing": failing}


def cmd_report(args) -> int:
    directory = Path(args.scenario)
    if not directory.is_dir():
        raise UsageError(f"{directory} is not a directory of scenarios")
    rows = []
    for path in sorted(directory.glob("*.json")):
        try:
            rows.append(_report_row(args, path))
        except ERRORS as exc:  # the message the single command prints after "error: "
            rows.append({"file": path.name, "verdict": "error", "error": str(exc)})
    report = {"schema": REPORT_SCHEMA, "command": "report", "scenarios": rows}
    lines = [f"{'file':<32} {'verdict':<8} {'objective':>16}  notes"]
    for r in rows:
        obj = _fmt(r.get("objective", "")) if "objective" in r else ""
        notes = ", ".join(r.get("failing", [])) or r.get("error", "")
        lines.append(f"{r['file']:<32} {r['verdict']:<8} {obj:>16}  {notes}")
    _emit(report, args.out, lines)
    return 2 if any(r["verdict"] in ("fail", "error") for r in rows) else 0


class _Parser(argparse.ArgumentParser):
    """Raises a ``UsageError`` where argparse would exit with status 2, so
    ``main`` reports a usage error as it reports any other: exit 1."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nash-unicast",
        description="Decentralized unicast rate allocation: solve, build and audit equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    options = {
        "--seed": dict(type=int, default=None, help="override the scenario rng seed"),
        "--tolerance": dict(type=float, default=None, help="override the solver tolerance"),
        "--profile": dict(default=None, help="message profile JSON (bare or prior report)"),
    }

    def command(name, summary, *flags):
        """A subcommand with --scenario, --out and the ``flags`` it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True, help="scenario file (or directory for report)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        return p

    command("solve", "solve the centralized allocation", "--tolerance")
    command("construct-ne", "build and audit the equilibrium profile", "--seed", "--tolerance")
    command("audit", "audit a given message profile", "--seed", "--tolerance", "--profile")
    sim = command("simulate", "run best-response dynamics", "--seed", "--profile")
    sim.add_argument("--rounds", type=int, default=DynamicsConfig.max_rounds)
    sim.add_argument("--schedule", choices=SCHEDULES, default=DynamicsConfig.schedule)
    sim.add_argument("--stop-tolerance", type=float, default=DynamicsConfig.stop_tolerance, dest="stop_tolerance")
    command("report", "summarize a directory of scenarios", "--seed", "--tolerance")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import; parse_args keeps no
    # state between calls
    return build_parser()


HANDLERS = {
    "solve": cmd_solve,
    "construct-ne": cmd_construct_ne,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


class _StderrHandler(logging.StreamHandler):
    """Writes each record, in ``logging.basicConfig``'s format, to the
    ``sys.stderr`` of the moment it is logged."""

    def __init__(self):
        super().__init__()
        self.setFormatter(logging.Formatter(logging.BASIC_FORMAT))

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


def _configure_logging() -> None:
    level = os.environ.get("NASH_UNICAST_LOG", "warning").upper()
    log.setLevel(getattr(logging, level, logging.WARNING))
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        log.addHandler(_StderrHandler())
        log.propagate = False


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

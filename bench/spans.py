"""Spans and counters recorded from the benchmark's own files.

The traced pass wraps the public functions that cross module boundaries by
replacing the names each importing module holds: what ``cli``,
``equilibrium`` and ``dynamics`` import from ``mechanism``, what ``cli``
imports from the other modules, ``Scenario.build`` and the ``build_network``
it calls, and ``best_deviation`` as ``audit`` and ``dynamics`` look it up.
Each call becomes a span (name, start, end, parent index), timed in process
CPU seconds like the rest of the benchmark. The very frequent
``demand``/``derivative`` calls that ``solver`` imports from ``utilities``
are only counted. Nothing under ``src/`` is modified: the
originals are put back when the pass ends.
"""

from __future__ import annotations

import gzip
import json
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import process_time

import numpy as np

from nash_unicast import cli, dynamics, equilibrium, scenario, solver
from nash_unicast.scenario import Scenario
from nash_unicast.solver import NotConverged

# (module object, attribute, span name)
SPANNED = [
    (cli, "load_scenario", "scenario.load"),
    (cli, "parse_profile", "scenario.parse_profile"),
    (cli, "profile_to_labels", "scenario.profile_to_labels"),
    (Scenario, "build", "scenario.build"),
    (scenario, "build_network", "network.build"),
    (cli, "solve_centralized", "solver.solve"),
    (equilibrium, "solve_centralized", "solver.solve"),
    (cli, "construct_ne", "equilibrium.construct_ne"),
    (cli, "audit", "equilibrium.audit"),
    (cli, "check_optimality", "equilibrium.check_optimality"),
    (equilibrium, "best_deviation", "equilibrium.best_deviation"),
    (dynamics, "best_deviation", "equilibrium.best_deviation"),
    (cli, "run_dynamics", "dynamics.run"),
    (cli, "assign_subsidies", "mechanism.assign_subsidies"),
    (cli, "outcome", "mechanism.outcome"),
    (equilibrium, "outcome", "mechanism.outcome"),
    (equilibrium, "own_tax_terms", "mechanism.own_tax_terms"),
    (equilibrium, "eval_own_tax", "mechanism.eval_own_tax"),
    (equilibrium, "validate_profile", "mechanism.validate_profile"),
    (equilibrium, "balance_term_large_group", "mechanism.balance_term_large_group"),
    (equilibrium, "balance_term_three_user", "mechanism.balance_term_three_user"),
    (dynamics, "assign_subsidies", "mechanism.assign_subsidies"),
    (dynamics, "validate_profile", "mechanism.validate_profile"),
]
COUNTED = [
    (solver, "demand", "utilities.demand"),
    (solver, "derivative", "utilities.derivative"),
]
LAYERS = ("cli", "scenario", "network", "solver", "mechanism", "equilibrium", "dynamics")
SUBGRADIENT_ITERATIONS = 300  # length of the solver's first phase
_ITERATIONS = re.compile(r"after (\d+) iterations")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.solver_iterations = []  # per solve call, converged or not
        self.dynamics_runs = []  # (rounds, moves)
        self._stack = []

    def open(self, name):
        rec = [name, process_time(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = process_time()
        self._stack.pop()

    def _spanned(self, name, fn):
        observe = {
            "solver.solve": self._observe_solve,
            "dynamics.run": self._observe_dynamics,
            "mechanism.eval_own_tax": self._observe_points,
        }.get(name)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except NotConverged as exc:
                if observe:
                    observe(None, exc)
                raise
            finally:
                self.close(rec)
            if observe:
                observe(result, None)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_solve(self, result, exc):
        if exc is None:
            self.solver_iterations.append(result.iterations)
        else:
            found = _ITERATIONS.search(str(exc))
            if found:
                self.solver_iterations.append(int(found.group(1)))

    def _observe_dynamics(self, traj, exc):
        self.dynamics_runs.append((traj.rounds, len(traj.steps)))

    def _observe_points(self, result, exc):
        self.counts["mechanism.eval_own_tax.points"] += int(np.size(result))

    @contextmanager
    def installed(self):
        """Wrap every boundary name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in SPANNED:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._spanned(name, getattr(owner, attr)))
            for owner, attr, name in COUNTED:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counted(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summarize(self):
        """Per span name: calls, total seconds and self seconds (duration
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered
        return calls, total, own

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

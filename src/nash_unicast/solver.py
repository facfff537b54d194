"""Centralized welfare maximization and its KKT certificate.

Maximizes the sum of concave utilities subject to per-link capacities and
non-negative rates. Solved in the dual by cyclic per-link market clearing, a
Gauss-Seidel price update from zero prices that sets each link in turn to the
least float price at which its group's demand fits its capacity, until every
KKT residual (stationarity, feasibility both ways, and both
complementary-slackness families) sits below the configured tolerance. That
price is found by a bracketed secant (Illinois) step, warm-started at the
link's price from the previous round. The multipliers double as the
equilibrium link prices downstream.

The audit's optimality check compares against a certified solve: the
profile's own prices, passed as ``start``, when they pass the KKT
certificate, else a cold solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from .network import BOUNDARY_TOL, Network, link_load, min_route_capacity
from .utilities import UtilitySpec, demand, derivative, value


class SolverError(RuntimeError):
    pass


class NotConverged(SolverError):
    pass


class NonConcaveUtility(SolverError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 400  # clearing rounds

    def __post_init__(self):
        tol, rounds = self.tolerance, self.max_iterations
        number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
        if not (number and math.isfinite(tol) and tol > 0.0):
            raise SolverError(f"tolerance must be a finite positive number, got {tol!r}")
        if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1:
            raise SolverError(f"max_iterations must be a positive integer, got {rounds!r}")


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    primal: float
    dual: float
    complementarity_links: float
    complementarity_users: float

    @property
    def max_violation(self) -> float:
        return max(
            self.stationarity,
            self.primal,
            self.dual,
            self.complementarity_links,
            self.complementarity_users,
        )


@dataclass(frozen=True)
class SolveResult:
    rates: Dict[int, float]
    lambdas: Dict[int, float]
    nus: Dict[int, float]
    objective: float
    kkt_residual: float
    iterations: int  # clearing rounds; 0: the start prices certified


def welfare(utilities: Mapping[int, UtilitySpec], rates: Mapping[int, float]) -> float:
    return sum(float(value(utilities[i], rates[i])) for i in utilities)


def kkt_residuals(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    rates: Mapping[int, float],
    lambdas: Mapping[int, float],
    nus: Mapping[int, float],
) -> KktResiduals:
    """Largest absolute violation of each optimality condition for a candidate
    (rates, link multipliers, non-negativity multipliers) triple. A non-finite
    value reads as an inf violation, so such a triple never certifies."""
    stationarity = 0.0
    primal = 0.0
    dual = 0.0
    slack_links = 0.0
    slack_users = 0.0
    for i, route in enumerate(net.routes):
        x = rates[i]
        nu = nus[i]
        if math.isfinite(x):
            price = sum(lambdas[l] for l in route)
            grad = derivative(utilities[i], max(x, 0.0))
            stationarity = _worse(stationarity, abs(grad - price + nu))
        else:
            stationarity = math.inf
        primal = _worse(primal, -x)
        dual = _worse(dual, -nu)
        slack_users = _worse(slack_users, abs(nu * x))
    for l, cap in enumerate(net.capacities):
        lam = lambdas[l]
        excess = link_load(net, rates, l) - cap
        primal = _worse(primal, excess)
        dual = _worse(dual, -lam)
        slack_links = _worse(slack_links, abs(lam * excess))
    return KktResiduals(stationarity, primal, dual, slack_links, slack_users)


def _worse(worst: float, violation: float) -> float:
    """Running maximum that reads a non-finite violation as inf (max() drops NaN)."""
    return max(worst, violation) if math.isfinite(violation) else math.inf


def _recover_nus(net, utilities, rates, prices) -> Dict[int, float]:
    """Non-negativity multipliers: the price gap at users stuck at zero."""
    nus = {}
    for i in net.users():
        if rates[i] <= 1e-12:
            slope = derivative(utilities[i], 0.0)
            gap = prices[i] - slope if math.isfinite(slope) else 0.0
            nus[i] = max(0.0, gap)
        else:
            nus[i] = 0.0
    return nus


# Bounds on one clearing: the doubling steps, the narrowing steps (the most
# any tested clearing took is about 200), and the run of steps that move the
# same end of the bracket before a midpoint step.
_MAX_DOUBLINGS = 200
_MAX_NARROWINGS = 1000
_MAX_STREAK = 8


def _clear_link(load_at, cap: float, previous: float) -> float:
    """The least float price at which ``load_at(price) <= cap``, or 0.0 when
    the load at price 0 already fits.

    ``load_at`` is non-increasing: each concave demand is, and float rounding
    is monotone. So that price is unique, whatever path finds it. The bracket
    starts at ``previous``, the link's price from the last round, and its other
    end is found by doubling. Illinois steps (the modified regula falsi of
    Dowell & Jarratt, 1971) then narrow it until no float lies strictly between
    its ends: a secant point, with the kept end's residual halved when the same
    end is kept twice in a row. Two safeguards keep every step strictly inside
    and the bracket shrinking:

    - A secant point that is not strictly inside (it sits on ``hi`` whenever
      the load there equals the capacity exactly) becomes the point 1, 2, 4,
      ... floats in from that end, or the midpoint if that is nearer.
    - After ``_MAX_STREAK`` steps in a row that moved the same end, the next
      step is the midpoint. Residuals of very different sizes at the two ends
      (a capacity of 1e-9 against a load of 20 at price 0) stall the secant
      there.
    """
    lo = hi = None
    if previous > 0.0:
        r = load_at(previous) - cap
        if r > 0.0:
            lo, r_lo = previous, r
        else:
            hi, r_hi = previous, r
    if lo is None:
        r_lo = load_at(0.0) - cap
        if r_lo <= 0.0:
            return 0.0
        lo = 0.0
    if hi is None:
        hi = max(2.0 * lo, 1.0)
        for _ in range(_MAX_DOUBLINGS):
            r_hi = load_at(hi) - cap
            if r_hi <= 0.0:
                break
            lo, r_lo, hi = hi, r_hi, 2.0 * hi
        else:
            return hi
    streak = 0  # +k after k steps in a row that moved lo, -k for hi
    nudge = 1.0
    for _ in range(_MAX_NARROWINGS):
        if math.nextafter(lo, math.inf) >= hi:
            break
        mid = 0.5 * (lo + hi)
        x = hi - r_hi * (hi - lo) / (r_hi - r_lo)
        if abs(streak) >= _MAX_STREAK:
            x, streak = mid, 0
        elif lo < x < hi:
            nudge = 1.0
        else:
            if x >= hi:
                x = max(hi - nudge * math.ulp(hi), mid)
            else:
                x = min(lo + nudge * math.ulp(lo), mid)
            nudge *= 2.0
        r = load_at(x) - cap
        if r > 0.0:
            if streak > 0:
                r_hi *= 0.5
            lo, r_lo, streak = x, r, max(streak, 0) + 1
        else:
            if streak < 0:
                r_lo *= 0.5
            hi, r_hi, streak = x, r, min(streak, 0) - 1
    return hi


def solve_centralized(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    config: SolverConfig | None = None,
    start: Mapping[int, float] | None = None,
) -> SolveResult:
    """Solve the capacity-constrained welfare problem to KKT tolerance.

    ``start`` (a price per link id) is certified first and returned with
    ``iterations == 0`` when it passes; otherwise the cold solve runs.
    Raises NonConcaveUtility for sigmoid users and NotConverged if the
    residual target is still unmet after ``config.max_iterations`` clearing
    rounds. Bit-for-bit deterministic for a fixed configuration.
    """
    config = config or SolverConfig()
    for i in net.users():
        if not utilities[i].is_concave:
            raise NonConcaveUtility(
                f"user {net.user_labels[i]!r} has a non-concave ({utilities[i].family}) utility"
            )

    users = list(net.users())
    caps = {i: min_route_capacity(net, i) for i in users}
    # Loose boxes for clearing: a capped demand hides the price at which a
    # lone binding user's first-order condition actually holds.
    big_caps = {i: 10.0 * caps[i] + 10.0 for i in users}
    lam = {l: 0.0 for l in net.links()}
    # Allocations feed the tax machinery, whose overload indicators trip at
    # the feasibility boundary; capacity violations must clear a far tighter
    # bar than the other residuals or constructed equilibria get penalized.
    primal_target = min(config.tolerance, 0.5 * BOUNDARY_TOL)
    routes = net.routes

    def certify(lam, iterations):
        """The KKT residuals at link prices ``lam``, and the result when they
        pass both bars (else None)."""
        prices = {i: sum(lam[l] for l in routes[i]) for i in users}
        rates = {i: demand(utilities[i], prices[i], caps[i]) for i in users}
        nus = _recover_nus(net, utilities, rates, prices)
        rep = kkt_residuals(net, utilities, rates, lam, nus)
        if not (rep.max_violation <= config.tolerance and rep.primal <= primal_target):
            return rep, None
        return rep, SolveResult(rates, dict(lam), nus, welfare(utilities, rates), rep.max_violation, iterations)

    if start is not None:  # round 0: a negative start price reads as 0
        res = certify({l: max(start[l], 0.0) for l in net.links()}, 0)[1]
        if res is not None:
            return res

    # the round closest to certifying: (worse of the two residual-to-bar
    # ratios, KKT residual, capacity residual)
    best = (math.inf, math.inf, math.inf)
    # Cyclic clearing: each link in turn gets the least price at which its
    # group's demand fits its capacity (zero if it fits at price zero).
    for iterations in range(1, config.max_iterations + 1):
        for l, (group, cap) in enumerate(zip(net.groups, net.capacities)):
            if not group:
                lam[l] = 0.0
                continue
            base = {i: sum(lam[m] for m in routes[i] if m != l) for i in group}

            def load_at(v):
                return sum(demand(utilities[i], base[i] + v, big_caps[i]) for i in group)

            lam[l] = _clear_link(load_at, cap, lam[l])
        rep, res = certify(lam, iterations)
        if res is not None:
            return res
        closeness = max(rep.max_violation / config.tolerance, rep.primal / primal_target)
        best = min(best, (closeness, rep.max_violation, rep.primal))

    criteria = (
        ("KKT residual", best[1], config.tolerance),
        ("capacity residual", best[2], primal_target),
    )
    unmet = [f"{name} {v:.3e} still above tolerance {bar:.1e}" for name, v, bar in criteria if not v <= bar]
    met = [f"; {name} {v:.3e} is within {bar:.1e}" for name, v, bar in criteria if v <= bar]
    raise NotConverged(
        " and ".join(unmet) + f" after {config.max_iterations} iterations" + "".join(met)
    )

"""Shared randomized corpora for the test suite.

Builds, once per session, the random topology corpus with its feasible
message profiles, the solved concave scenario suite, and the sigmoid market
suite; ``mixed_market`` builds one market of concave and sigmoid users,
``crowded_scenario`` 26 users on one link, and ``denormal_net`` a network
whose capacities run from the smallest float up.
Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from nash_unicast.mechanism import MechanismParams, MessageProfile, SubsidyAssignment, assign_subsidies
from nash_unicast.equilibrium import construct_ne
from nash_unicast.network import Network, build_network
from nash_unicast.scenario import (
    Scenario,
    random_feasible_profile,
    random_scenario,
    sigmoid_clearing_scenario,
)
from nash_unicast.solver import SolveResult, SolverConfig, solve_centralized
from nash_unicast.utilities import UtilitySpec, log_utility, power_utility, quad_cap_utility, sigmoid_utility

TOPOLOGY_SEEDS = tuple(range(1000, 1020))
CONCAVE_SEEDS = tuple(range(2000, 2050))
SIGMOID_SEEDS = tuple(range(3000, 3010))
PROFILES_PER_TOPOLOGY = 50


@dataclass(frozen=True)
class BuiltScenario:
    name: str
    seed: int
    net: Network
    utilities: Dict[int, UtilitySpec]
    params: MechanismParams


@dataclass(frozen=True)
class SolvedScenario:
    name: str
    net: Network
    utilities: Dict[int, UtilitySpec]
    params: MechanismParams
    solver_config: SolverConfig
    result: SolveResult
    profile: MessageProfile
    subsidies: SubsidyAssignment


def _build(scenario: Scenario, seed: int) -> BuiltScenario:
    net, utilities, params, _ = scenario.build()
    return BuiltScenario(scenario.name, seed, net, utilities, params)


@lru_cache(maxsize=None)
def topology_corpus() -> Tuple[BuiltScenario, ...]:
    built = tuple(_build(random_scenario(seed), seed) for seed in TOPOLOGY_SEEDS)
    sizes = {len(b.net.group(l)) for b in built for l in b.net.links()}
    assert {1, 2, 3}.issubset(sizes) and any(s > 3 for s in sizes), (
        f"topology corpus must span group sizes 1, 2, 3 and above 3; got {sorted(sizes)}"
    )
    return built


@lru_cache(maxsize=None)
def profile_corpus() -> Tuple[Tuple[BuiltScenario, MessageProfile], ...]:
    out = []
    for b in topology_corpus():
        for k in range(PROFILES_PER_TOPOLOGY):
            out.append((b, random_feasible_profile(b.net, b.params, seed=b.seed * 1009 + k)))
    return tuple(out)


@lru_cache(maxsize=None)
def concave_suite() -> Tuple[SolvedScenario, ...]:
    out = []
    for seed in CONCAVE_SEEDS:
        scenario = random_scenario(seed)
        net, utilities, params, solver_config = scenario.build()
        result = solve_centralized(net, utilities, solver_config)
        profile = construct_ne(net, utilities, params, solve_result=result)
        subsidies = assign_subsidies(net, params.rng_seed)
        out.append(
            SolvedScenario(
                scenario.name, net, utilities, params, solver_config, result, profile, subsidies
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def sigmoid_suite() -> Tuple[Tuple[BuiltScenario, MessageProfile], ...]:
    out = []
    for seed in SIGMOID_SEEDS:
        scenario = sigmoid_clearing_scenario(seed)
        net, utilities, params, _ = scenario.build()
        profile = scenario.profile_messages(net)
        out.append((BuiltScenario(scenario.name, seed, net, utilities, params), profile))
    return tuple(out)


def with_params(s: SolvedScenario, alpha_scale: float = 1.0, gamma_scale: float = 1.0) -> SolvedScenario:
    """The same solved scenario under rescaled tax constants. The equilibrium
    profile does not depend on them, so nothing needs re-solving."""
    params = MechanismParams(
        alpha=s.params.alpha * alpha_scale,
        gamma=s.params.gamma * gamma_scale,
        epsilon=s.params.epsilon,
        price_bound=s.params.price_bound,
        rng_seed=s.params.rng_seed,
    )
    return SolvedScenario(
        s.name, s.net, s.utilities, params, s.solver_config, s.result, s.profile, s.subsidies
    )


def mixed_scenario(seed: int, users_range=(4, 8), links_range=(3, 5)) -> Scenario:
    """A random topology where about half the users get sigmoid utilities."""
    scenario = random_scenario(seed, users_range=users_range, links_range=links_range)
    rng = random.Random(seed)
    labels = sorted(scenario.utilities)
    for label in rng.sample(labels, len(labels) // 2):
        scenario.utilities[label] = sigmoid_utility(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))
    return scenario


def mixed_market(seed: int, users_range=(4, 8), links_range=(3, 5)):
    """``mixed_scenario``, built; returns (net, utilities, params)."""
    net, utilities, params, _ = mixed_scenario(seed, users_range, links_range).build()
    return net, utilities, params


def crowded_scenario() -> Scenario:
    """26 log, power and quadcap users on one link of capacity 2."""
    rng = random.Random(26)
    utilities = {}
    for i in range(26):
        a = rng.uniform(0.5, 2.0)
        utilities[f"u{i}"] = (log_utility(a), power_utility(a, 0.4), quad_cap_utility(a, 0.5))[i % 3]
    return Scenario("crowded", {"L0": 2.0}, {u: ["L0"] for u in utilities}, utilities)


def denormal_net():
    """Nine capacities from the smallest float up, times the four utility
    families: a rate step that underflows to 0 sends numpy's linspace down
    its denormal path. Returns (net, utilities, params)."""
    caps = [5e-324, 1e-320, 2.5e-308, 1e-300, 0.37, 1.0, 3.3, 1e6, 7.5e300]
    links = {f"L{i}": c for i, c in enumerate(caps)}
    families = [
        log_utility(1.3),
        power_utility(0.7, 0.35),
        quad_cap_utility(2.0, 0.6),
        sigmoid_utility(1.5, 0.8),
    ]
    rng = random.Random(5)
    routes, uts = {}, {}
    for i in range(len(caps) * len(families)):
        routes[f"u{i}"] = [f"L{i % len(caps)}"] + rng.sample(sorted(links), rng.randrange(3))
        uts[i] = families[i % len(families)]
    return build_network(links, routes), uts, MechanismParams(alpha=1e4, gamma=1e4, price_bound=50.0)

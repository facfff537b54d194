"""Shared randomized corpora for the test suite.

Builds, once per session, the random topology corpus with its feasible
message profiles, the solved concave scenario suite, and the sigmoid market
suite; ``mixed_market`` builds one market of concave and sigmoid users.
Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from nash_unicast.mechanism import MechanismParams, MessageProfile, SubsidyAssignment, assign_subsidies
from nash_unicast.equilibrium import construct_ne
from nash_unicast.network import Network
from nash_unicast.scenario import (
    Scenario,
    random_feasible_profile,
    random_scenario,
    sigmoid_clearing_scenario,
)
from nash_unicast.solver import SolveResult, SolverConfig, solve_centralized
from nash_unicast.utilities import UtilitySpec, sigmoid_utility

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


def mixed_market(seed: int, users_range=(4, 8), links_range=(3, 5)):
    """A random topology where about half the users get sigmoid utilities;
    returns (net, utilities, params)."""
    scenario = random_scenario(seed, users_range=users_range, links_range=links_range)
    rng = random.Random(seed)
    labels = sorted(scenario.utilities)
    for label in rng.sample(labels, len(labels) // 2):
        scenario.utilities[label] = sigmoid_utility(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))
    net, utilities, params, _ = scenario.build()
    return net, utilities, params

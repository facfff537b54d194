"""Iterative best-response play over the message game.

A stationary profile of the process is a grid-level equilibrium, which is the
only claim made: play may just as well cycle or run out of rounds, and the
verdict vocabulary keeps the three outcomes explicit. Trajectories are fully
reproducible from the start profile, the config, and the seeds.

A user's best deviation depends only on the static game, its own message and
the messages of the users sharing one of its links. So a user whose last
evaluation found no improvement above ``stop_tolerance`` is settled, and is
skipped until a move unsettles every user sharing a link with the mover, the
mover included: re-evaluating it before then would find the same non-move.
The deviation search's axes depend on the static game alone, so one
``deviation_grid`` serves the whole run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Mapping

from .equilibrium import best_deviation, deviation_grid
from .mechanism import (
    MechanismParams,
    Message,
    MessageProfile,
    assign_subsidies,
    validate_profile,
)
from .network import Network
from .utilities import UtilitySpec

SCHEDULES = ("round_robin", "random")


class DynamicsError(ValueError):
    pass


@dataclass(frozen=True)
class DynamicsConfig:
    schedule: str = "round_robin"
    seed: int = 0
    max_rounds: int = 50
    br_grid: int = 64
    stop_tolerance: float = 1e-9

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise DynamicsError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.max_rounds < 1:
            raise DynamicsError("max_rounds must be at least 1")
        if self.br_grid < 2:
            raise DynamicsError("br_grid must be at least 2")
        if not 0.0 <= self.stop_tolerance < math.inf:  # NaN fails both comparisons
            raise DynamicsError(f"stop_tolerance must be a finite number >= 0, got {self.stop_tolerance}")


@dataclass(frozen=True)
class Step:
    round: int
    user: int
    old: Message
    new: Message
    payoff_delta: float


@dataclass
class Trajectory:
    steps: List[Step] = field(default_factory=list)
    verdict: str = "exhausted"  # converged | cycled | exhausted
    final_profile: MessageProfile = field(default_factory=dict)
    rounds: int = 0


def _quantized(profile: MessageProfile):
    # 1e-9 quantization so float drift cannot hide a genuine revisit
    return tuple(
        (u, round(m.rate, 9), tuple((l, round(p, 9)) for l, p in sorted(m.prices.items())))
        for u, m in sorted(profile.items())
    )


def run_dynamics(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    start: MessageProfile,
    config: DynamicsConfig,
    params: MechanismParams,
) -> Trajectory:
    """Play best responses until a full pass moves nobody, a profile repeats,
    or the round budget runs out. No convergence is guaranteed or claimed:
    ``converged`` means only that no grid move gained more than
    ``config.stop_tolerance``, not a Nash equilibrium (the best-response gap
    of ``equilibrium.audit`` on a settled profile can be far above it)."""
    validate_profile(net, start, params)
    assign_subsidies(net, params.rng_seed)  # fail early if subsidies are impossible
    profile: MessageProfile = dict(start)
    users = list(net.users())
    rng = random.Random(config.seed)
    seen = {_quantized(profile)}
    steps: List[Step] = []
    # users sharing a link with each user, the user included
    neighbours = {u: {v for l in net.route(u) for v in net.group(l)} for u in users}
    settled = set()
    grid = deviation_grid(net, utilities, params, config.br_grid)

    for rnd in range(1, config.max_rounds + 1):
        order = rng.sample(users, len(users)) if config.schedule == "random" else users
        worst_delta = 0.0
        for user in order:
            if user in settled:
                continue
            message, best_pay, cur_pay = best_deviation(net, utilities, profile, user, params, grid)
            delta = best_pay - cur_pay
            if delta > config.stop_tolerance:
                steps.append(Step(rnd, user, profile[user], message, delta))
                profile[user] = message
                worst_delta = max(worst_delta, delta)
                settled -= neighbours[user]
            else:
                settled.add(user)
        if worst_delta <= config.stop_tolerance:
            return Trajectory(steps=steps, verdict="converged", final_profile=profile, rounds=rnd)
        key = _quantized(profile)
        if key in seen:
            return Trajectory(steps=steps, verdict="cycled", final_profile=profile, rounds=rnd)
        seen.add(key)
    return Trajectory(
        steps=steps, verdict="exhausted", final_profile=profile, rounds=config.max_rounds
    )

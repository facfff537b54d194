"""Iterative best-response play over the message game.

Play moves by the audit's own best response (``equilibrium.best_deviation``),
so a ``converged`` run ends at a profile where no user gains more than
``stop_tolerance`` by any deviation, up to rounding: its best-response gap
is at most that tolerance. No convergence is
claimed: play may just as well cycle or run out of rounds, and the verdict
vocabulary keeps the three outcomes explicit. Trajectories are fully
reproducible from the start profile, the config, and the seeds.

A user's best deviation depends only on the static game, its own message and
the messages of the users sharing one of its links. So users who share no
link cannot change each other's search, and one colour class of a greedy
colouring of the conflict graph is searched and moved in one call. A user
whose last evaluation found no improvement above ``stop_tolerance`` is
settled, and is skipped until a move unsettles every user sharing a link
with the mover, the mover included: re-evaluating it before then would find
the same non-move.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set

from .equilibrium import best_deviation
from .mechanism import (
    MechanismParams,
    Message,
    MessageProfile,
    assign_subsidies,
    own_tax_terms,
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
    stop_tolerance: float = 1e-7

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise DynamicsError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        n = self.max_rounds
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DynamicsError(f"max_rounds must be an integer of at least 1, got {n!r}")
        tol = self.stop_tolerance
        number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
        if not (number and 0.0 <= tol < math.inf):  # NaN fails both comparisons
            raise DynamicsError(f"stop_tolerance must be a finite number >= 0, got {tol}")


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


def _colour_classes(neighbours: Mapping[int, Set[int]]) -> List[List[int]]:
    """A greedy colouring of the conflict graph, in user order: each user
    takes the least colour that none of its ``neighbours`` already holds.
    Returns the users of each colour, ascending, in colour order."""
    colour: Dict[int, int] = {}
    for u, near in neighbours.items():
        taken = {colour.get(v) for v in near}
        colour[u] = next(k for k in range(len(near) + 1) if k not in taken)
    return [[u for u in colour if colour[u] == k] for k in range(max(colour.values(), default=-1) + 1)]


def run_dynamics(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    start: MessageProfile,
    config: DynamicsConfig,
    params: MechanismParams,
) -> Trajectory:
    """Play best responses until a full pass moves nobody, a profile repeats,
    or the round budget runs out. No convergence is guaranteed or claimed:
    ``converged`` means that no user gains more than ``config.stop_tolerance``
    by ``best_deviation``, the audit's own search.

    Each round visits the ``_colour_classes`` in colour order
    (``round_robin``) or in an order shuffled with ``config.seed``
    (``random``). The class's unsettled users are searched in one call, on
    their own-tax terms at the current profile, and each one that gains
    more than the tolerance moves
    to its winning message. A gain that is not finite (the taxes overflow)
    raises ``DynamicsError``, naming the user and the round."""
    validate_profile(net, start, params)
    assign_subsidies(net, params.rng_seed)  # fail early if subsidies are impossible
    profile: MessageProfile = dict(start)
    rng = random.Random(config.seed)
    seen = {_quantized(profile)}
    steps: List[Step] = []
    # users sharing a link with each user, the user included
    neighbours = {u: {v for l in net.route(u) for v in net.group(l)} for u in net.users()}
    settled = set()
    classes = _colour_classes(neighbours)

    for rnd in range(1, config.max_rounds + 1):
        order = rng.sample(classes, len(classes)) if config.schedule == "random" else classes
        worst_delta = 0.0
        for members in order:
            users = [u for u in members if u not in settled]
            if not users:
                continue
            table = {(u, l): own_tax_terms(net, profile, l, u, params) for u in users for l in net.route(u)}
            messages, gains = best_deviation(net, utilities, profile, users, params, table)
            for user, message, delta in zip(users, messages, gains):
                if not math.isfinite(delta):  # a NaN would otherwise read as settled
                    name = net.user_labels[user]
                    raise DynamicsError(f"user {name!r}: best-response gain {delta} in round {rnd} is not finite")
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

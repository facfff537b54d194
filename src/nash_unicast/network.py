"""Network topology: links with capacities, fixed per-user routes, derived link groups.

Everything downstream (taxes, solver, audits) reads topology through this module.
Networks are immutable after construction and all operations here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

# Absolute slack used for every boundary comparison on rates and capacities,
# so arithmetic noise at an exactly-binding link never flips feasibility.
BOUNDARY_TOL = 1e-12


class NetworkError(ValueError):
    pass


class UnknownLink(NetworkError):
    pass


class NonPositiveCapacity(NetworkError):
    pass


class DuplicateUser(NetworkError):
    pass


class EmptyRoute(NetworkError):
    pass


class UnknownUser(NetworkError):
    pass


class MissingUser(NetworkError):
    pass


@dataclass(frozen=True)
class Network:
    """Immutable topology.

    Users and links are dense integer ids assigned by declaration order; the
    original labels are kept for I/O. ``groups[l]`` lists the users whose
    route traverses link ``l``, always sorted ascending.
    """

    capacities: tuple[float, ...]
    routes: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]
    link_labels: tuple[str, ...]
    user_labels: tuple[str, ...]

    @property
    def num_links(self) -> int:
        return len(self.capacities)

    @property
    def num_users(self) -> int:
        return len(self.routes)

    def links(self) -> range:
        return range(self.num_links)

    def users(self) -> range:
        return range(self.num_users)

    def capacity(self, link: int) -> float:
        return self.capacities[link]

    def route(self, user: int) -> tuple[int, ...]:
        if not 0 <= user < self.num_users:
            raise UnknownUser(f"no user {user!r}")
        return self.routes[user]

    def group(self, link: int) -> tuple[int, ...]:
        if not 0 <= link < self.num_links:
            raise UnknownLink(f"no link {link!r}")
        return self.groups[link]

    def link_id(self, label) -> int:
        try:
            return self._link_ids[str(label)]
        except KeyError:
            raise UnknownLink(f"no link labelled {label!r}") from None

    def user_id(self, label) -> int:
        try:
            return self._user_ids[str(label)]
        except KeyError:
            raise UnknownUser(f"no user labelled {label!r}") from None

    @cached_property
    def _link_ids(self) -> dict:
        return {label: i for i, label in enumerate(self.link_labels)}

    @cached_property
    def _user_ids(self) -> dict:
        return {label: i for i, label in enumerate(self.user_labels)}


def build_network(link_specs: Mapping, route_specs) -> Network:
    """Build a validated Network from ``{link: capacity}`` and ``{user: [links]}``.

    ``route_specs`` may be a mapping or an iterable of ``(user, route)`` pairs.
    Labels can be any printable values; ids are assigned in declaration order.
    Capacities must be finite and positive.
    Repeated links inside one route collapse to the first occurrence (a route
    is an ordered set). Empty routes are rejected: a user with no links has no
    role in the mechanism.
    """
    link_labels = []
    capacities = []
    for label, cap in link_specs.items():
        cap = float(cap)
        if not (math.isfinite(cap) and cap > 0.0):
            raise NonPositiveCapacity(f"link {label!r} has capacity {cap}")
        link_labels.append(str(label))
        capacities.append(cap)
    link_index = {lab: i for i, lab in enumerate(link_labels)}
    if len(link_index) != len(link_labels):
        raise UnknownLink("duplicate link label")

    items: Iterable = route_specs.items() if hasattr(route_specs, "items") else route_specs
    user_labels: list[str] = []
    declared: set[str] = set()
    routes: list[tuple[int, ...]] = []
    for label, route in items:
        label = str(label)
        if label in declared:
            raise DuplicateUser(f"user {label!r} declared twice")
        declared.add(label)
        seen: list[int] = []
        for link_label in route:
            key = str(link_label)
            if key not in link_index:
                raise UnknownLink(f"route of user {label!r} references unknown link {link_label!r}")
            lid = link_index[key]
            if lid not in seen:
                seen.append(lid)
        if not seen:
            raise EmptyRoute(f"user {label!r} has an empty route")
        user_labels.append(label)
        routes.append(tuple(seen))

    # users are visited in ascending order, so every group comes out sorted
    groups: list[list[int]] = [[] for _ in link_labels]
    for user, route in enumerate(routes):
        for link in route:
            groups[link].append(user)
    return Network(
        capacities=tuple(capacities),
        routes=tuple(routes),
        groups=tuple(map(tuple, groups)),
        link_labels=tuple(link_labels),
        user_labels=tuple(user_labels),
    )


def is_feasible(net: Network, rates: Mapping[int, float]) -> bool:
    """True iff every rate is non-negative and every link load fits its capacity.

    Boundary cases (exactly binding links, zero rates) count as feasible; all
    comparisons carry ``BOUNDARY_TOL`` of slack.
    """
    for user in net.users():
        if user not in rates:
            raise MissingUser(f"rate vector lacks user {user}")
        if rates[user] < -BOUNDARY_TOL:
            return False
    for link in net.links():
        if link_load(net, rates, link) > net.capacities[link] + BOUNDARY_TOL:
            return False
    return True


def link_load(net: Network, rates: Mapping[int, float], link: int) -> float:
    return sum(rates[u] for u in net.group(link))


def min_route_capacity(net: Network, user: int) -> float:
    """Smallest capacity along the user's route; the cap on any rate request."""
    route = net.route(user)
    if not route:
        raise EmptyRoute(f"user {user} has an empty route")
    return min(net.capacities[l] for l in route)

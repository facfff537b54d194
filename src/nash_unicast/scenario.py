"""Scenario files: everything one run needs, in versioned human-readable JSON.

A scenario bundles the topology, per-user utilities, mechanism parameters,
solver settings, and optionally a fixed message profile. Labels live in the
file; the in-memory model uses the dense ids assigned by declaration order.
Also hosts the seeded generators for random scenarios and random feasible
profiles used by simulations and the verification suite.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from .mechanism import MechanismError, MechanismParams, Message, MessageProfile
from .network import Network, build_network, link_load, min_route_capacity, NetworkError
from .solver import SolverConfig, SolverError
from .utilities import UtilitySpec, demand, initial_slope, sigmoid_utility

SCHEMA = "nash-unicast/scenario-v1"


class ScenarioError(ValueError):
    pass


class ParseError(ScenarioError):
    pass


class ValidationError(ScenarioError):
    pass


@dataclass
class Scenario:
    name: str
    links: Dict[str, float]
    routes: Dict[str, List[str]]
    utilities: Dict[str, UtilitySpec]
    mechanism: Dict[str, float] = field(default_factory=dict)  # overrides for MechanismParams
    solver: Dict[str, float] = field(default_factory=dict)  # overrides for SolverConfig
    profile: Optional[Dict[str, dict]] = None  # user label -> {rate, prices{link label: price}}

    def to_dict(self) -> dict:
        data = {
            "schema": SCHEMA,
            "name": self.name,
            "links": self.links,
            "routes": self.routes,
            "utilities": {u: spec.to_dict() for u, spec in self.utilities.items()},
        }
        if self.mechanism:
            data["mechanism"] = self.mechanism
        if self.solver:
            data["solver"] = self.solver
        if self.profile is not None:
            data["profile"] = self.profile
        return data

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def build(self):
        """Materialize (network, utilities by id, params, solver config). The
        checks on what the fields mean run here, each raising ValidationError."""
        try:
            config = SolverConfig(**self.solver)
        except SolverError as exc:
            raise ValidationError(f"solver {exc}") from exc
        try:
            net = build_network(self.links, self.routes)
        except NetworkError as exc:
            raise ValidationError(str(exc)) from exc
        utilities = {}
        for label in self.routes:
            if label not in self.utilities:
                raise ValidationError(f"user {label!r} has a route but no utility")
            utilities[net.user_id(label)] = self.utilities[label]
        for label in self.utilities:
            if label not in self.routes:
                raise ValidationError(f"user {label!r} has a utility but no route")
        try:
            params = MechanismParams.defaults(net, utilities, **self.mechanism)
        except MechanismError as exc:
            raise ValidationError(f"mechanism {exc}") from exc
        return net, utilities, params, config

    def profile_messages(self, net: Network) -> Optional[MessageProfile]:
        if self.profile is None:
            return None
        return parse_profile(self.profile, net)


def _number(value, what: str) -> float:
    """A JSON int or float as a float. Anything else, a bool or a numeric
    string included, raises ``ParseError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a JSON number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ParseError(f"{what} must be a JSON number in the float range") from None


def parse_profile(data: Mapping[str, dict], net: Network) -> MessageProfile:
    """Profile from label-keyed data: {user: {rate, prices{link: price}}}.
    Data of another shape raises ``ParseError``, naming the user if any."""
    if not isinstance(data, Mapping):
        raise ParseError(f"a profile must be a JSON object of user messages, not {type(data).__name__}")
    profile: MessageProfile = {}
    for label, entry in data.items():
        uid = net.user_id(label)
        malformed = f"profile entry for user {label!r} is malformed:"
        try:
            rate, prices = entry["rate"], entry["prices"]
            if not isinstance(prices, Mapping):
                raise TypeError(f"prices must be a JSON object, not {type(prices).__name__}")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{malformed} {exc}") from exc
        rate = _number(rate, f"{malformed} rate")
        prices = {l: _number(p, f"{malformed} price on link {l!r}") for l, p in prices.items()}
        profile[uid] = Message(rate=rate, prices={net.link_id(l): p for l, p in prices.items()})
    missing = [net.user_labels[u] for u in net.users() if u not in profile]
    if missing:
        raise ValidationError(f"profile lacks messages for users {missing}")
    return profile


def profile_to_labels(profile: MessageProfile, net: Network) -> Dict[str, dict]:
    return {
        net.user_labels[u]: {
            "rate": m.rate,
            "prices": {net.link_labels[l]: p for l, p in sorted(m.prices.items())},
        }
        for u, m in sorted(profile.items())
    }


_TOP_LEVEL_KEYS = {"schema", "name", "links", "routes", "utilities", "mechanism", "solver", "profile"}
_MECHANISM_KEYS = {f.name for f in fields(MechanismParams)}
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)}


def parse_scenario(data: Mapping, source: str = "<memory>") -> Scenario:
    if not isinstance(data, Mapping):
        raise ParseError(f"{source}: scenario must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ParseError(f"{source}: schema {schema!r} is not {SCHEMA!r}")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"{source}: unknown fields {sorted(unknown)}")
    for block, allowed in (("mechanism", _MECHANISM_KEYS), ("solver", _SOLVER_KEYS)):
        given = data.get(block, {})
        if not isinstance(given, Mapping):
            raise ParseError(f"{source}: {block} must be a JSON object")
        bad = set(given) - allowed
        if bad:
            raise ParseError(f"{source}: unknown {block} fields {sorted(bad)}")
    for key in ("links", "routes", "utilities"):
        if key not in data:
            raise ParseError(f"{source}: missing required field {key!r}")
        if not isinstance(data[key], Mapping):
            raise ParseError(f"{source}: {key} must be a JSON object keyed by label")
    if data.get("profile") is not None and not isinstance(data["profile"], Mapping):
        raise ParseError(f"{source}: profile must be a JSON object of user messages")
    links = {str(k): _number(v, f"{source}: capacity of link {k!r}") for k, v in data["links"].items()}
    routes = {}
    for user, route in data["routes"].items():
        if not isinstance(route, (list, tuple)):
            raise ParseError(f"{source}: route of user {user!r} must be a list of links")
        routes[str(user)] = [str(l) for l in route]
    utilities = {}
    for user, spec in data["utilities"].items():
        params = spec.get("params") if isinstance(spec, Mapping) else None
        for name, v in params.items() if isinstance(params, Mapping) else ():
            _number(v, f"{source}: utility of user {user!r}: parameter {name!r}")
        try:
            utilities[str(user)] = UtilitySpec.from_dict(spec)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{source}: utility of user {user!r} is malformed: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"{source}: utility of user {user!r}: {exc}") from exc
    scenario = Scenario(
        name=str(data.get("name", "unnamed")),
        links=links,
        routes=routes,
        utilities=utilities,
        mechanism=dict(data.get("mechanism", {})),
        solver=dict(data.get("solver", {})),
        profile=data.get("profile"),
    )
    try:
        scenario.build()  # the checks on what the fields mean, at load time
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_scenario(data, source=str(path))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Seeded generators


def random_scenario(seed: int, users_range=(3, 8), links_range=(2, 6)) -> Scenario:
    """A random concave scenario with varied link group sizes.

    Deterministic in the seed. Every user gets one to three route links and
    every link keeps its group below nine users, so all tax cases (single
    user, pair, trio, larger) occur across a modest batch of seeds.
    """
    rng = random.Random(seed)
    n_users = rng.randint(*users_range)
    n_links = rng.randint(*links_range)
    links = {f"L{j}": round(rng.uniform(0.6, 2.5), 6) for j in range(n_links)}
    link_names = list(links)
    routes = {}
    for i in range(n_users):
        k = rng.randint(1, min(3, n_links))
        routes[f"u{i}"] = rng.sample(link_names, k)
    utilities = {}
    for i in range(n_users):
        fam = rng.choice(("log", "power", "quadcap"))
        if fam == "log":
            utilities[f"u{i}"] = UtilitySpec("log", rng.uniform(0.5, 3.0))
        elif fam == "power":
            utilities[f"u{i}"] = UtilitySpec("power", rng.uniform(0.5, 2.0), rng.uniform(0.3, 0.7))
        else:
            utilities[f"u{i}"] = UtilitySpec("quadcap", rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.2))
    return Scenario(
        name=f"random-{seed}",
        links=links,
        routes=routes,
        utilities=utilities,
        mechanism={"rng_seed": seed},
    )


def sigmoid_clearing_scenario(seed: int) -> Scenario:
    """A sigmoid-utility scenario engineered to clear exactly.

    Users share one link; a common price is fixed first and the capacity is
    then set to the aggregate demand at that price, so the demand profile at
    that price is feasible, binding, and uniform-priced. A bystander user on
    a second link keeps subsidy recipients available. The clearing profile is
    stored in the scenario.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    specs = [sigmoid_utility(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0)) for _ in range(n)]
    price = 0.5 * min(initial_slope(s) for s in specs)
    demands = [demand(s, price, 100.0) for s in specs]
    cap = sum(demands)
    bystander = sigmoid_utility(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0))
    by_cap = round(rng.uniform(0.5, 2.0), 6)
    by_price = 0.5 * initial_slope(bystander)
    by_rate = demand(bystander, by_price, by_cap)

    links = {"L0": cap, "L1": by_cap}
    routes = {f"u{i}": ["L0"] for i in range(n)}
    routes[f"u{n}"] = ["L1"]
    utilities = {f"u{i}": specs[i] for i in range(n)}
    utilities[f"u{n}"] = bystander
    profile = {
        f"u{i}": {"rate": demands[i], "prices": {"L0": price}} for i in range(n)
    }
    profile[f"u{n}"] = {"rate": by_rate, "prices": {"L1": by_price}}
    return Scenario(
        name=f"sigmoid-{seed}",
        links=links,
        routes=routes,
        utilities=utilities,
        mechanism={"rng_seed": seed},
        profile=profile,
    )


def random_feasible_profile(net: Network, params: MechanismParams, seed: int) -> MessageProfile:
    """A valid message profile with feasible rates and prices up to 2 (or the
    price bound); occasionally rescales the rates so one link binds exactly.
    Deterministic in the seed."""
    rng = random.Random(seed)
    raw = {i: rng.uniform(0.0, min_route_capacity(net, i)) for i in net.users()}
    shrink = 1.0
    for l in net.links():
        load = link_load(net, raw, l)
        if load > 0.0:
            shrink = min(shrink, net.capacity(l) / load)
    if rng.random() < 0.3:
        factor = shrink  # exactly binding on the tightest link
    else:
        factor = shrink * rng.uniform(0.2, 0.999)
    profile = {}
    for i in net.users():
        prices = {l: rng.uniform(0.0, min(2.0, params.price_bound)) for l in net.route(i)}
        profile[i] = Message(rate=raw[i] * factor, prices=prices)
    return profile

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_unicast.cli import main
from nash_unicast.mechanism import MechanismError, validate_profile
from nash_unicast.network import is_feasible, link_load
from nash_unicast.scenario import (
    SCHEMA,
    ParseError,
    Scenario,
    ScenarioError,
    ValidationError,
    load_scenario,
    parse_scenario,
    random_feasible_profile,
    random_scenario,
    save_scenario,
    sigmoid_clearing_scenario,
)
from nash_unicast.solver import NonConcaveUtility, NotConverged, solve_centralized
from nash_unicast.utilities import initial_slope

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = SCENARIO_DIR / "two_users_one_link.json"


def test_golden_loads_and_digests_stably():
    s1 = load_scenario(GOLDEN)
    s2 = load_scenario(GOLDEN)
    assert s1.digest() == s2.digest()
    net, utilities, params, solver_config = s1.build()
    assert net.num_users == 3 and net.num_links == 2
    renamed = Scenario(
        name="other", links=s1.links, routes=s1.routes, utilities=s1.utilities
    )
    assert renamed.digest() != s1.digest()


def test_missing_route_names_the_user(tmp_path):
    data = json.load(open(GOLDEN))
    del data["routes"]["u2"]
    with pytest.raises(ValidationError, match="u2"):
        parse_scenario(data)


def test_unknown_family_names_the_tag(tmp_path):
    data = json.load(open(GOLDEN))
    data["utilities"]["u1"]["family"] = "frobnitz"
    with pytest.raises(ParseError, match="frobnitz"):
        parse_scenario(data)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{não json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(ParseError):
        load_scenario("/nonexistent/nowhere.json")


def test_wrong_schema_rejected():
    data = json.load(open(GOLDEN))
    data["schema"] = "something/else"
    with pytest.raises(ParseError, match="schema"):
        parse_scenario(data)


def test_unknown_fields_named():
    data = json.load(open(GOLDEN))
    data["mechanizm"] = {}
    with pytest.raises(ParseError, match="mechanizm"):
        parse_scenario(data)
    data = json.load(open(GOLDEN))
    data["mechanism"] = {"alpa": 1.0}
    with pytest.raises(ParseError, match="alpa"):
        parse_scenario(data)


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("solver", "tolerance", "1e-8"),
        ("solver", "tolerance", float("inf")),
        ("solver", "tolerance", float("nan")),
        ("solver", "tolerance", 0.0),
        ("solver", "tolerance", True),
        ("solver", "max_iterations", 2.7),
        ("solver", "max_iterations", 0),
        ("solver", "max_iterations", True),
        ("mechanism", "rng_seed", 1.5),
        ("mechanism", "rng_seed", "7"),
    ],
)
def test_malformed_solver_and_seed_fields_rejected(block, key, value):
    data = json.load(open(GOLDEN))
    data.setdefault(block, {})[key] = value
    with pytest.raises(ValidationError, match=key):
        parse_scenario(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("price_bound", float("inf")),
        ("price_bound", float("nan")),
        ("price_bound", "5"),
        ("price_bound", True),
        ("gamma", float("inf")),
        ("gamma", "1e4"),
        ("alpha", float("inf")),
        ("alpha", -1.0),
        ("alpha", True),
        ("epsilon", "1e-6"),
    ],
)
def test_malformed_mechanism_numbers_rejected(tmp_path, capsys, key, value):
    data = json.load(open(GOLDEN))
    data.setdefault("mechanism", {})[key] = value
    with pytest.raises(ValidationError, match=key):
        parse_scenario(data)
    scenario = load_scenario(GOLDEN)
    scenario.mechanism[key] = value
    with pytest.raises(ValidationError, match=key):
        scenario.build()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # writes Infinity and NaN as JSON extensions
    assert main(["construct-ne", "--scenario", str(path)]) == 1
    assert key in capsys.readouterr().err



def test_mechanism_block_fills_in_only_what_it_leaves_out():
    scenario = load_scenario(GOLDEN)
    scenario.mechanism = {"alpha": 3, "rng_seed": 5}
    net, utilities, params, _ = scenario.build()
    assert type(params.alpha) is int and params.alpha == 3  # passed on unchanged
    assert params.gamma == 1e4 * max(scenario.links.values()) ** 2
    assert params.price_bound == 1e3 * max(initial_slope(u) for u in utilities.values())
    assert (params.epsilon, params.rng_seed) == (1e-6, 5)
    scenario.mechanism["rng_seed"] = 5.0  # not coerced to an integer
    with pytest.raises(ValidationError, match="mechanism rng_seed must be an integer, got 5.0"):
        scenario.build()

@pytest.mark.parametrize(
    "family, params, field",
    [
        ("log", {"a": float("inf")}, "a"),
        ("power", {"a": float("inf"), "theta": 0.5}, "a"),
        ("quadcap", {"a": float("inf"), "b": 1.0}, "a"),
        ("quadcap", {"a": 2.0, "b": float("inf")}, "b"),
        ("sigmoid", {"a": float("inf"), "s": 1.0}, "a"),
        ("sigmoid", {"a": 2.0, "s": float("inf")}, "s"),
    ],
)
def test_infinite_utility_parameters_rejected(tmp_path, capsys, family, params, field):
    data = json.load(open(GOLDEN))
    data["utilities"]["u1"] = {"family": family, "params": params}
    with pytest.raises(ParseError, match=f"user 'u1': {family}: parameter {field} must be finite"):
        parse_scenario(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # writes Infinity as a JSON extension
    assert main(["solve", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"user 'u1': {family}: parameter {field} must be finite, got inf" in err


MALFORMED_UTILITIES = {
    "unknown family": {"family": "cubic", "params": {"a": 1.0}},
    "wrong parameter name": {"family": "log", "params": {"b": 1.0}},
    "missing parameter": {"family": "power", "params": {"a": 1.0}},
    "extra parameter": {"family": "log", "params": {"a": 1.0, "b": 2.0}},
    "params a number": {"family": "log", "params": 2.0},
    "params null": {"family": "log", "params": None},
    "params a list": {"family": "log", "params": [1.0]},
    "params a list of pairs": {"family": "log", "params": [["a", "2"]]},  # dict() of it passed, unchecked
    "no params": {"family": "log"},
    "no family": {"params": {"a": 1.0}},
    "spec a string": "log",
    "spec a number": 2.0,
    "spec null": None,
    "spec a list": ["log", {"a": 1.0}],
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_UTILITIES))
def test_malformed_utility_blocks_name_the_user(tmp_path, capsys, kind):
    data = json.load(open(GOLDEN))
    data["utilities"]["u1"] = MALFORMED_UTILITIES[kind]
    with pytest.raises(ParseError, match="utility of user 'u1'"):
        parse_scenario(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--scenario", str(path)]) == 1
    assert "utility of user 'u1'" in capsys.readouterr().err


SIGMOID = SCENARIO_DIR / "sigmoid_market.json"
MALFORMED = "profile entry for user 'u1' is malformed:"
NUMBER_PLACES = {  # where a number sits in the file, and how its error names it
    "capacity": (("links", "L0"), "capacity of link 'L0'"),
    "utility parameter": (("utilities", "u1", "params", "a"), "utility of user 'u1': parameter 'a'"),
    "profile rate": (("profile", "u1", "rate"), f"{MALFORMED} rate"),
    "profile price": (("profile", "u1", "prices", "L0"), f"{MALFORMED} price on link 'L0'"),
}


@pytest.mark.parametrize("value", [True, "2"])
@pytest.mark.parametrize("place", sorted(NUMBER_PLACES))
def test_numbers_must_be_json_numbers(tmp_path, capsys, place, value):
    data = json.loads(SIGMOID.read_text())
    keys, what = NUMBER_PLACES[place]
    entry = data
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value

    def parse():
        scenario = parse_scenario(data)
        return scenario.profile_messages(scenario.build()[0])

    message = f"{what} must be a JSON number, not {value!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["audit", "--scenario", str(path)]) == 1
    assert message in capsys.readouterr().err
    entry[keys[-1]] = 2  # an int is a JSON number
    parse()


@pytest.mark.parametrize("key", ["links", "routes", "utilities"])
def test_blocks_that_are_not_json_objects_rejected(tmp_path, capsys, key):
    data = json.load(open(GOLDEN))
    data[key] = list(data[key].items())
    with pytest.raises(ParseError, match=f"{key} must be a JSON object"):
        parse_scenario(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"{key} must be a JSON object" in capsys.readouterr().err


def test_save_load_round_trip(tmp_path):
    s = random_scenario(99)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded.to_dict() == s.to_dict()
    assert loaded.digest() == s.digest()


def test_random_scenario_deterministic_and_valid():
    a = random_scenario(7)
    b = random_scenario(7)
    assert a.to_dict() == b.to_dict()
    net, utilities, params, _ = a.build()
    assert net.num_users >= 3
    assert all(params.alpha > 0 for _ in [0])


def test_random_scenarios_cover_group_sizes():
    sizes = set()
    for seed in range(40):
        net, _, _, _ = random_scenario(seed).build()
        sizes |= {len(net.group(l)) for l in net.links()}
    assert {1, 2, 3}.issubset(sizes)
    assert any(s > 3 for s in sizes)


def test_random_feasible_profile_is_valid_and_feasible():
    for seed in (0, 1, 2, 3):
        scenario = random_scenario(100 + seed)
        net, utilities, params, _ = scenario.build()
        for k in range(25):
            profile = random_feasible_profile(net, params, seed=seed * 100 + k)
            validate_profile(net, profile, params)
            assert is_feasible(net, {u: profile[u].rate for u in net.users()})


def test_sigmoid_clearing_scenario_binds_exactly():
    scenario = sigmoid_clearing_scenario(5)
    net, utilities, params, _ = scenario.build()
    profile = scenario.profile_messages(net)
    validate_profile(net, profile, params)
    rates = {u: profile[u].rate for u in net.users()}
    assert is_feasible(net, rates)
    shared = 0  # the engineered market link
    assert link_load(net, rates, shared) == pytest.approx(net.capacity(shared), abs=1e-12)
    prices = {profile[u].prices[shared] for u in net.group(shared)}
    assert len(prices) == 1  # uniform by construction


def test_profile_round_trip_through_labels():
    scenario = load_scenario(SCENARIO_DIR / "sigmoid_market.json")
    net, utilities, params, _ = scenario.build()
    profile = scenario.profile_messages(net)
    from nash_unicast.scenario import profile_to_labels

    again = profile_to_labels(profile, net)
    assert again == scenario.profile


# --- property: an accepted scenario solves or fails by name --------------------

PARAMETER = st.floats(min_value=1e-300, max_value=1e300)
# power's theta is accepted only below 1; draw there half of the time
THETA = st.one_of(PARAMETER, st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
FAMILY_PARAMETERS = {"log": ("a",), "power": ("a", "theta"), "quadcap": ("a", "b"), "sigmoid": ("a", "s")}


@st.composite
def scenario_dicts(draw):
    links = {f"L{j}": draw(st.floats(min_value=1e-9, max_value=1e6)) for j in range(draw(st.integers(1, 4)))}
    labels = sorted(links)
    routes, utilities = {}, {}
    for i in range(draw(st.integers(2, 6))):
        routes[f"u{i}"] = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels), unique=True))
        family = draw(st.sampled_from(sorted(FAMILY_PARAMETERS)))
        params = {k: draw(THETA if k == "theta" else PARAMETER) for k in FAMILY_PARAMETERS[family]}
        utilities[f"u{i}"] = {"family": family, "params": params}
    return {"schema": SCHEMA, "name": "drawn", "links": links, "routes": routes, "utilities": utilities}


@given(scenario_dicts())
@settings(max_examples=50, deadline=None)
def test_accepted_scenario_solves_or_raises_a_named_error(data):
    try:
        scenario = parse_scenario(data)
    except ScenarioError:
        return
    try:
        net, utilities, _, solver_config = scenario.build()
        res = solve_centralized(net, utilities, solver_config)
    except (ScenarioError, NonConcaveUtility, NotConverged, MechanismError):
        return
    assert math.isfinite(res.objective) and math.isfinite(res.kkt_residual), res

"""Corners that random scenarios rarely reach: degenerate topologies, extreme
parameters, and box-boundary messages."""

import json
from pathlib import Path

import pytest

from nash_unicast.cli import main
from nash_unicast.equilibrium import PriceBoundExceeded, audit, construct_ne
from nash_unicast.mechanism import (
    MechanismParams,
    Message,
    NoEligibleRecipient,
    assign_subsidies,
    outcome,
)
from nash_unicast.network import build_network
from nash_unicast.scenario import load_scenario
from nash_unicast.solver import NotConverged, solve_centralized
from nash_unicast.utilities import log_utility, power_utility, quad_cap_utility

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_single_user_network_end_to_end():
    net = build_network({"A": 2.0}, {1: ["A"]})
    uts = {0: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts)
    res = solve_centralized(net, uts)
    assert res.rates[0] == pytest.approx(2.0, abs=1e-8)
    assert res.lambdas[0] == pytest.approx(1.0 / 3.0, abs=1e-8)
    profile = construct_ne(net, uts, params, solve_result=res)
    subs = assign_subsidies(net, params.rng_seed)
    assert subs == {}
    rep = audit(net, uts, profile, params, outcome(net, profile, params, subs))
    assert rep.budget_gap == 0.0 and rep.best_response_gap <= 1e-9
    assert rep.competitive_gap <= 1e-6


def test_unused_link_is_free_and_absent_from_messages():
    net = build_network({"A": 1.0, "Z": 9.0}, {1: ["A"], 2: ["A"], 3: ["A"]})
    uts = {i: log_utility(1.0) for i in range(3)}
    params = MechanismParams.defaults(net, uts)
    res = solve_centralized(net, uts)
    assert res.lambdas[1] == 0.0
    profile = construct_ne(net, uts, params, solve_result=res)
    assert all(1 not in m.prices for m in profile.values())
    alloc = outcome(net, profile, params, assign_subsidies(net, 0))
    rep = audit(net, uts, profile, params, alloc)
    assert rep.feasibility and rep.budget_gap <= 1e-12


@pytest.mark.parametrize("eps", [0.49, 1e-12])
def test_extreme_epsilon_still_well_defined(eps):
    params = MechanismParams(alpha=1e4, gamma=1e4, epsilon=eps, price_bound=10.0)
    net = build_network({"A": 1.0, "B": 1.0}, {1: ["A"], 2: ["A"], 3: ["B"]})
    bad = {
        0: Message(0.9, {0: 1.0}),
        1: Message(0.9, {0: 1.0}),
        2: Message(0.1, {1: 1.0}),
    }
    alloc = outcome(net, bad, params, assign_subsidies(net, 0))
    pen = alloc.breakdown.link_taxes[(0, 0)].penalty
    q = (1 - eps) ** 2
    assert pen == pytest.approx(q / (1 - q), rel=1e-9)


def test_wildly_asymmetric_capacities():
    net = build_network(
        {"tiny": 0.01, "huge": 100.0}, {1: ["tiny", "huge"], 2: ["huge"], 3: ["huge"]}
    )
    uts = {0: log_utility(2.0), 1: power_utility(1.5, 0.5), 2: quad_cap_utility(2.0, 0.5)}
    params = MechanismParams.defaults(net, uts)
    res = solve_centralized(net, uts)
    assert res.kkt_residual <= 1e-8
    assert res.rates[0] == pytest.approx(0.01, abs=1e-9)  # pinched by the tiny link
    profile = construct_ne(net, uts, params, solve_result=res)
    alloc = outcome(net, profile, params, assign_subsidies(net, 0))
    rep = audit(net, uts, profile, params, alloc)
    assert rep.feasibility
    assert rep.best_response_gap <= 1e-4
    assert rep.corollary_tax_gap <= 1e-9


def test_duplicate_links_split_the_multiplier_mass():
    # two identical links over the same pair: the multiplier split is not
    # unique, but whatever the solver returns must certify as a KKT point
    from nash_unicast.solver import kkt_residuals

    net = build_network({"A": 1.0, "B": 1.0}, {1: ["A", "B"], 2: ["A", "B"]})
    uts = {0: log_utility(1.0), 1: log_utility(2.0)}
    res = solve_centralized(net, uts)
    assert res.rates[0] + res.rates[1] == pytest.approx(1.0, abs=1e-9)
    rep = kkt_residuals(net, uts, res.rates, res.lambdas, res.nus)
    assert rep.max_violation <= 1e-8


def test_triangle_topology_full_stack():
    net = build_network(
        {"AB": 1.0, "BC": 0.8, "CA": 1.2},
        {1: ["AB", "CA"], 2: ["AB", "BC"], 3: ["BC", "CA"]},
    )
    uts = {0: log_utility(1.5), 1: power_utility(1.0, 0.5), 2: quad_cap_utility(2.0, 0.7)}
    params = MechanismParams.defaults(net, uts)
    res = solve_centralized(net, uts)
    assert res.kkt_residual <= 1e-8
    profile = construct_ne(net, uts, params, solve_result=res)
    alloc = outcome(net, profile, params, assign_subsidies(net, 1))
    rep = audit(net, uts, profile, params, alloc)
    assert rep.feasibility
    assert rep.price_uniformity == 0.0
    assert rep.best_response_gap <= 1e-4
    assert rep.budget_gap <= 1e-9
    assert rep.corollary_tax_gap <= 1e-9


def test_box_corner_overload_charges_penalty_and_price():
    net = build_network({"A": 1.0, "B": 3.0}, {1: ["A"], 2: ["A"], 3: ["B"]})
    uts = {i: log_utility(1.0) for i in range(3)}
    params = MechanismParams.defaults(net, uts)
    corner = {
        0: Message(1.0, {0: params.price_bound}),
        1: Message(1.0, {0: params.price_bound}),
        2: Message(3.0, {1: 0.0}),
    }
    alloc = outcome(net, corner, params, assign_subsidies(net, 0))
    pen = alloc.breakdown.link_taxes[(0, 0)].penalty
    assert pen > 1e5
    # peer's price times the rate, plus the penalty
    assert alloc.taxes[0] == pytest.approx(params.price_bound + pen, rel=1e-12)
    # the bystander absorbs the pair's non-penalty taxes as a subsidy
    assert alloc.taxes[2] == pytest.approx(-2 * params.price_bound, rel=1e-12)


def _scenario_file(tmp_path, links, routes, utilities, mechanism=None):
    data = {
        "schema": "nash-unicast/scenario-v1",
        "name": "degenerate",
        "links": links,
        "routes": routes,
        "utilities": {u: {"family": "log", "params": {"a": a}} for u, a in utilities.items()},
    }
    if mechanism is not None:
        data["mechanism"] = mechanism
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(data))
    return path


def test_two_user_only_network_has_no_subsidy_recipient(tmp_path, capsys):
    path = _scenario_file(tmp_path, {"A": 1.0}, {"u1": ["A"], "u2": ["A"]}, {"u1": 1.0, "u2": 2.0})
    net, uts, params, config = load_scenario(path).build()
    assert solve_centralized(net, uts, config).kkt_residual <= config.tolerance
    with pytest.raises(NoEligibleRecipient):
        assign_subsidies(net, params.rng_seed)
    assert main(["construct-ne", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "link 'A' is shared by two users and nobody else exists to receive its subsidy" in err


@pytest.mark.parametrize(
    "caps",
    [(1e-9, 1e-9, 1e-9), (1e6, 1e6, 1e6), (1e-9, 1e6, 1e6), (1e6, 1e-9, 1e6), (1e6, 1e6, 1e-9)],
)
def test_extreme_capacities_certify_or_raise_a_named_error(caps):
    # the shared_backbone routes and utilities with other capacities
    scenario = load_scenario(SCENARIO_DIR / "shared_backbone.json")
    _, uts, _, config = scenario.build()
    net = build_network(dict(zip(scenario.links, caps)), scenario.routes)
    try:
        res = solve_centralized(net, uts, config)
    except NotConverged:
        return
    assert res.kkt_residual <= config.tolerance
    for l in net.links():
        assert sum(res.rates[u] for u in net.group(l)) <= net.capacity(l) + 0.5e-12


def test_link_whose_zero_price_load_equals_its_capacity():
    # both quadcap users peak at a / 2b = 0.75, and the link carries 1.5
    net = build_network({"A": 1.5, "B": 1.0}, {1: ["A"], 2: ["A"], 3: ["B"]})
    uts = {0: quad_cap_utility(1.5, 1.0), 1: quad_cap_utility(3.0, 2.0), 2: log_utility(1.0)}
    res = solve_centralized(net, uts)
    assert res.kkt_residual <= 1e-8
    assert res.lambdas[0] == 0.0
    assert res.rates[0] == 0.75 and res.rates[1] == 0.75


def test_price_bound_below_the_multipliers(tmp_path, capsys):
    path = _scenario_file(
        tmp_path,
        {"A": 1.0, "B": 1.0},
        {"u1": ["A"], "u2": ["A"], "u3": ["B"]},
        {"u1": 5.0, "u2": 5.0, "u3": 1.0},
        mechanism={"price_bound": 1.0},
    )
    net, uts, params, config = load_scenario(path).build()
    res = solve_centralized(net, uts, config)
    assert res.lambdas[0] > params.price_bound
    with pytest.raises(PriceBoundExceeded):
        construct_ne(net, uts, params, solve_result=res)
    assert main(["construct-ne", "--scenario", str(path)]) == 1
    assert "on link 'A' exceeds the price bound 1.0" in capsys.readouterr().err


def test_infinite_default_price_bound_names_the_user(tmp_path, capsys):
    path = _scenario_file(
        tmp_path,
        {"A": 1.0, "B": 1.0},
        {"u1": ["A"], "u2": ["A"], "u3": ["B"]},
        {"u1": 1.0, "u2": 1e308, "u3": 1.0},
    )
    assert main(["solve", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "price_bound must be a finite positive number, got inf" in err
    assert "initial slope 1e+308 of user 'u2'" in err

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from nash_unicast import dynamics
from nash_unicast.cli import main
from nash_unicast.dynamics import (
    DynamicsConfig,
    DynamicsError,
    Step,
    Trajectory,
    run_dynamics,
    _quantized,
)
from nash_unicast.equilibrium import _best_rate, audit, best_deviation, construct_ne, own_tax_table
from nash_unicast.mechanism import (
    MechanismParams,
    Message,
    assign_subsidies,
    eval_own_tax,
    outcome,
    own_tax_parts,
    own_tax_terms,
    validate_profile,
)
from nash_unicast.network import build_network, min_route_capacity
from nash_unicast.scenario import profile_to_labels, random_feasible_profile, random_scenario, save_scenario
from nash_unicast.utilities import log_utility, payoff

from corpus import denormal_net, mixed_market, sigmoid_suite, topology_corpus
from oracles import analytic_rate, best_response_gap_reference, with_rate


@pytest.fixture
def golden_ne(golden_net, golden_utilities, golden_params):
    return construct_ne(golden_net, golden_utilities, golden_params)


def test_config_validation():
    with pytest.raises(DynamicsError):
        DynamicsConfig(schedule="sideways")
    with pytest.raises(TypeError):  # the best response is exact: no grid to size
        DynamicsConfig(br_grid=200)


@pytest.mark.parametrize(
    "field, bad",
    [("max_rounds", 2.5), ("max_rounds", True), ("max_rounds", 0), ("stop_tolerance", True), ("stop_tolerance", "1e-7")],
)
def test_config_rejects_non_integers_and_bools_where_it_counts(field, bad):
    # each was accepted at construction: 2.5 rounds later failed in range,
    # True rounds ran one, a True tolerance read 1.0
    with pytest.raises(DynamicsError, match=f"^{field} must be"):
        DynamicsConfig(**{field: bad})
    DynamicsConfig(max_rounds=1, stop_tolerance=0)  # the least values, an int tolerance


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_stop_tolerance_must_be_finite_and_nonnegative(tolerance):
    with pytest.raises(DynamicsError, match="stop_tolerance"):
        DynamicsConfig(stop_tolerance=tolerance)


def test_ne_is_stationary(golden_net, golden_utilities, golden_params, golden_ne):
    config = DynamicsConfig(max_rounds=5)
    traj = run_dynamics(golden_net, golden_utilities, golden_ne, config, golden_params)
    assert traj.verdict == "converged"
    assert traj.rounds == 1
    assert traj.steps == []
    assert traj.final_profile == golden_ne


def test_solo_user_walks_to_its_capacity():
    # a lone user pays nothing on its own link, so its best response
    # requests the full capacity at price 0, the least of the tied prices
    net = build_network({"A": 5.0, "B": 1.0}, {1: ["A"], 2: ["B"]})
    uts = {0: log_utility(1.0), 1: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts)
    start = {0: Message(0.0, {0: 3.0}), 1: Message(0.0, {1: 0.0})}
    config = DynamicsConfig(max_rounds=5)
    traj = run_dynamics(net, uts, start, config, params)
    assert traj.final_profile[0].rate == pytest.approx(5.0)
    assert traj.final_profile[0].prices[0] == 0.0


def test_best_response_deterministic(golden_net, golden_utilities, golden_params, golden_ne):
    messy = dict(golden_ne)
    messy[0] = Message(0.1, {0: 0.2})
    table = own_tax_table(golden_net, messy, golden_params)
    found = [
        best_deviation(golden_net, golden_utilities, messy, golden_net.users(), golden_params, table)
        for _ in range(2)
    ]
    assert found[0] == found[1]


def test_steps_record_positive_improvements(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(max_rounds=10)
    traj = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    assert traj.steps, "someone must find an improving move from silence"
    assert all(s.payoff_delta > 0 for s in traj.steps)


def test_trajectory_reproducible(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(schedule="random", seed=5, max_rounds=6)
    t1 = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    t2 = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    assert t1.verdict == t2.verdict and t1.steps == t2.steps


def test_exhausted_verdict(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(max_rounds=1)
    traj = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    assert traj.verdict in ("exhausted", "cycled")
    assert traj.rounds == 1


def _mixed_play_shape(seed):
    """A market of the shape that simulate meets in the mixed-play benchmark:
    about 30 users on about 20 links, half of them sigmoid, and its start."""
    net, uts, params = mixed_market(seed, users_range=(28, 32), links_range=(18, 22))
    assert 28 <= net.num_users <= 32 and any(not u.is_concave for u in uts.values())
    return net, uts, random_feasible_profile(net, params, seed=seed), params


def test_converged_endpoint_passes_grid_audit(golden_net, golden_utilities, golden_params):
    # play moves by the audit's own search, so a converged endpoint's
    # best-response gap is at most the stop tolerance
    silence = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    cases = [(golden_net, golden_utilities, silence, golden_params, DynamicsConfig(max_rounds=40))]
    for seed in (4300, 4301, 4302):
        cases.append((*_mixed_play_shape(seed), DynamicsConfig(max_rounds=20)))
    for net, uts, start, params, config in cases:
        traj = run_dynamics(net, uts, start, config, params)
        assert traj.verdict == "converged" and traj.steps, (net.user_labels, traj.verdict)
        alloc = outcome(net, traj.final_profile, params, assign_subsidies(net, params.rng_seed))
        rep = audit(net, uts, traj.final_profile, params, alloc)
        assert rep.best_response_gap <= config.stop_tolerance, rep.best_response_gap


def test_cycled_verdict_when_two_messages_alternate(monkeypatch, golden_net, golden_utilities, golden_params, golden_ne):
    # a search that answers every user with the other of its two messages:
    # the second round brings back the start profile
    other = {u: with_rate(m, 0.5 * m.rate) for u, m in golden_ne.items()}

    def alternating(net, utilities, profile, users, params, table):
        return [other[u] if profile[u] == golden_ne[u] else golden_ne[u] for u in users], [1.0] * len(users)

    monkeypatch.setattr(dynamics, "best_deviation", alternating)
    for schedule in ("round_robin", "random"):
        config = DynamicsConfig(schedule=schedule, max_rounds=30)
        traj = run_dynamics(golden_net, golden_utilities, golden_ne, config, golden_params)
        assert (traj.verdict, traj.rounds, len(traj.steps)) == ("cycled", 2, 2 * golden_net.num_users)
        assert traj.final_profile == golden_ne


def test_quantization_hides_float_dust():
    a = {0: Message(0.5, {0: 0.25})}
    b = {0: Message(0.5 + 1e-12, {0: 0.25 - 1e-12})}
    c = {0: Message(0.5 + 1e-3, {0: 0.25})}
    assert _quantized(a) == _quantized(b)
    assert _quantized(a) != _quantized(c)


# --- one search per colour class against one user at a time --------------------


def colour_order(net):
    """The greedy colouring of the conflict graph in user order, as lists of
    users per colour: each user takes the least colour none of the users it
    shares a link with already holds."""
    colour = {}
    for u in net.users():
        taken = {colour[v] for l in net.route(u) for v in net.group(l) if v in colour}
        colour[u] = min(set(range(len(taken) + 1)) - taken)
    return [[u for u in net.users() if colour[u] == c] for c in range(max(colour.values()) + 1)]


def run_dynamics_reference(net, utilities, start, config, params):
    """The dynamics loop that searches one user at a time, in colour order,
    and evaluates every user in every round; kept as the oracle of
    ``run_dynamics``, which searches a colour class in one call and skips
    users whose neighbourhood has not moved since they last found no
    improvement."""
    validate_profile(net, start, params)
    assign_subsidies(net, params.rng_seed)
    profile = dict(start)
    classes = colour_order(net)
    rng = random.Random(config.seed)
    seen = {_quantized(profile)}
    steps = []
    for rnd in range(1, config.max_rounds + 1):
        order = rng.sample(classes, len(classes)) if config.schedule == "random" else classes
        worst_delta = 0.0
        for user in (u for members in order for u in members):
            table = {(user, l): own_tax_terms(net, profile, l, user, params) for l in net.route(user)}
            (message,), (delta,) = best_deviation(net, utilities, profile, [user], params, table)
            if delta > config.stop_tolerance:
                steps.append(Step(rnd, user, message, delta))
                profile[user] = message
                worst_delta = max(worst_delta, delta)
        if worst_delta <= config.stop_tolerance:
            return Trajectory(steps=steps, verdict="converged", final_profile=profile, rounds=rnd)
        key = _quantized(profile)
        if key in seen:
            return Trajectory(steps=steps, verdict="cycled", final_profile=profile, rounds=rnd)
        seen.add(key)
    return Trajectory(
        steps=steps, verdict="exhausted", final_profile=profile, rounds=config.max_rounds
    )


def _golden_dynamics_cases(golden_net, golden_utilities, golden_params):
    silence = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    ne = construct_ne(golden_net, golden_utilities, golden_params)
    rng = random.Random(17)
    cases = [(golden_net, golden_utilities, p, golden_params) for p in (silence, ne)]
    for _ in range(3):
        start = {
            u: Message(rng.uniform(0, 0.5), {l: rng.uniform(0, 2.0) for l in golden_net.route(u)})
            for u in golden_net.users()
        }
        cases.append((golden_net, golden_utilities, start, golden_params))
    return cases


def test_settled_users_keep_trajectories_identical(
    monkeypatch, golden_net, golden_utilities, golden_params
):
    searched = {"classes": 0, "users": 0}

    def counted(net, utilities, profile, users, *args):
        searched["classes"] += 1
        searched["users"] += len(users)
        return best_deviation(net, utilities, profile, users, *args)

    monkeypatch.setattr(dynamics, "best_deviation", counted)

    cases = _golden_dynamics_cases(golden_net, golden_utilities, golden_params)
    for b in topology_corpus()[:6]:
        cases.append((b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed), b.params))
    for b, clearing in sigmoid_suite()[:4]:
        cases.append((b.net, b.utilities, clearing, b.params))
        cases.append((b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed), b.params))
    for seed in range(4100, 4103):
        net, uts, params = mixed_market(seed)
        cases.append((net, uts, random_feasible_profile(net, params, seed=seed), params))

    skipped = batched = 0
    verdicts = set()
    for net, uts, start, params in cases:
        for schedule in ("round_robin", "random"):
            for max_rounds in (8, 3):
                config = DynamicsConfig(schedule=schedule, seed=3, max_rounds=max_rounds)
                before = dict(searched)
                traj = run_dynamics(net, uts, start, config, params)
                assert traj == run_dynamics_reference(net, uts, start, config, params), (net.user_labels, schedule)
                users = searched["users"] - before["users"]
                assert users <= traj.rounds * net.num_users
                skipped += users < traj.rounds * net.num_users
                batched += searched["classes"] - before["classes"] < users
                verdicts.add(traj.verdict)
    assert skipped > 0 and batched > 0
    assert {"converged", "exhausted"} <= verdicts


@pytest.mark.parametrize("seed", [4300, 4301, 4302])
def test_play_at_the_mixed_play_shape_keeps_the_reference_trajectory(seed):
    # the shape that simulate meets in the mixed-play benchmark, with 20
    # rounds
    net, uts, start, params = _mixed_play_shape(seed)
    for schedule in ("round_robin", "random"):
        config = DynamicsConfig(schedule=schedule, seed=seed, max_rounds=20)
        traj = run_dynamics(net, uts, start, config, params)
        assert traj.steps, (seed, schedule)
        assert traj == run_dynamics_reference(net, uts, start, config, params), (seed, schedule)


# --- a gain that is not finite stops play ---------------------------------------


def test_a_nan_gain_raises_naming_the_user_and_the_round():
    # alpha = 1e300 and gamma = 1e-300 overflow the taxes of the denormal
    # net: 6 of 36 gains at the start read NaN, which once passed for settled
    net, uts, params = denormal_net()
    extreme = replace(params, alpha=1e300, gamma=1e-300)
    start = random_feasible_profile(net, params, seed=5)
    with np.errstate(over="ignore", invalid="ignore"):
        gains = best_deviation(net, uts, start, net.users(), extreme, own_tax_table(net, start, extreme))[1]
        assert sum(g != g for g in gains) == 6
        with pytest.raises(DynamicsError, match=r"^user 'u7': best-response gain nan in round 1 is not finite$"):
            run_dynamics(net, uts, start, DynamicsConfig(), extreme)


def test_a_nan_analytic_rate_gives_a_nan_gain_not_a_rate_error():
    # u1 posts above its peer's price on A and below it on B: at gamma =
    # 1e-300 its h overflows to -inf on A and +inf on B, so the grid
    # search's analytic rate reads inf - inf and NaN; the exact search
    # reads a NaN gain for u1 (and for u2, whose own tax overflows), not a
    # rejected rate, and play names the user and the round
    net = build_network({"A": 10.0, "B": 10.0}, {"u1": ["A", "B"], "u2": ["A"], "u3": ["B"]})
    uts = {u: log_utility(1.0 + u) for u in net.users()}
    params = MechanismParams(alpha=1e4, gamma=1e-300, price_bound=1e6)
    start = {0: Message(1.0, {0: 2e5, 1: 0.0}), 1: Message(1.0, {0: 1e5}), 2: Message(1.0, {1: 1e5})}
    with np.errstate(over="ignore", invalid="ignore"):
        table = own_tax_table(net, start, params)
        terms = [table[0, l] for l in net.route(0)]
        hs = [own_tax_parts(t, 1.0, start[0].prices[l])[3] for t, l in zip(terms, net.route(0))]
        assert hs == [-math.inf, math.inf]
        assert math.isnan(analytic_rate(uts[0], terms, hs, 10.0))
        messages, gains = best_deviation(net, uts, start, net.users(), params, table)
        assert math.isnan(gains[0]) and math.isnan(gains[1])
        assert gains[2] == best_response_gap_reference(net, uts, start, 2, params, 64, table)[1]
        with pytest.raises(DynamicsError, match=r"^user 'u1': best-response gain nan in round 1 is not finite$"):
            run_dynamics(net, uts, start, DynamicsConfig(), params)


def test_the_exact_search_reads_overflowing_taxes_as_non_finite_gains():
    # alpha = 1e300 and gamma = 1e-300 on the denormal net, where gamma *
    # quad_weight underflows to 0 and the taxes overflow: the plain-float
    # search raises neither ZeroDivisionError nor OverflowError, its rate
    # stays in the route's box, its gain is not finite exactly where the
    # current payoff is not, and the audit reads its gap as inf
    net, uts, params = denormal_net()
    extreme = replace(params, alpha=1e300, gamma=1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(20):
            profile = random_feasible_profile(net, extreme, seed=seed)
            table = own_tax_table(net, profile, extreme)
            alloc = outcome(net, profile, extreme, assign_subsidies(net, extreme.rng_seed), table)
            gains = best_deviation(net, uts, profile, net.users(), extreme, table)[1]
            for u in net.users():
                cur, cap = profile[u], min_route_capacity(net, u)
                shared = [table[u, l] for l in net.route(u) if len(net.group(l)) > 1]
                rate, pay = _best_rate(uts[u], shared, cap, cur.rate, extreme.price_bound)
                assert 0.0 <= rate <= max(cap, cur.rate), (seed, u, rate)
                tax = sum(eval_own_tax(table[u, l], cur.rate, cur.prices[l]) for l in net.route(u))
                finite = math.isfinite(payoff(uts[u], cur.rate, tax))
                assert math.isfinite(gains[u]) == finite, (seed, u, gains[u])
            assert sum(not math.isfinite(g) for g in gains) == 6, seed
            assert audit(net, uts, profile, extreme, alloc, table).best_response_gap == math.inf


def test_simulate_exits_1_on_a_gain_that_is_not_finite(tmp_path, capsys):
    scenario = random_scenario(0)
    scenario.mechanism.update(alpha=1e300, gamma=1e-300)
    net, _, params, _ = scenario.build()
    scenario.profile = profile_to_labels(random_feasible_profile(net, params, seed=0), net)
    path = tmp_path / "overflow.json"
    save_scenario(scenario, path)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "sim.json")]) == 1
    assert capsys.readouterr().err == "error: user 'u1': best-response gain nan in round 1 is not finite\n"
    assert not (tmp_path / "sim.json").exists()

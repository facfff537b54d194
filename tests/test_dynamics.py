import random

import pytest

from nash_unicast import dynamics
from nash_unicast.dynamics import (
    DynamicsConfig,
    DynamicsError,
    Step,
    Trajectory,
    run_dynamics,
    _quantized,
)
from nash_unicast.equilibrium import audit, best_deviation, construct_ne, deviation_grid
from nash_unicast.mechanism import MechanismParams, Message, assign_subsidies, outcome, validate_profile
from nash_unicast.network import build_network
from nash_unicast.scenario import random_feasible_profile
from nash_unicast.utilities import log_utility

from corpus import mixed_market, sigmoid_suite, topology_corpus
from oracles import best_deviation_reference


@pytest.fixture
def golden_ne(golden_net, golden_utilities, golden_params):
    return construct_ne(golden_net, golden_utilities, golden_params)


def test_config_validation():
    with pytest.raises(DynamicsError):
        DynamicsConfig(schedule="sideways")
    with pytest.raises(DynamicsError):
        DynamicsConfig(br_grid=1)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_stop_tolerance_must_be_finite_and_nonnegative(tolerance):
    with pytest.raises(DynamicsError, match="stop_tolerance"):
        DynamicsConfig(stop_tolerance=tolerance)


def test_ne_is_stationary(golden_net, golden_utilities, golden_params, golden_ne):
    config = DynamicsConfig(max_rounds=5, br_grid=64)
    traj = run_dynamics(golden_net, golden_utilities, golden_ne, config, golden_params)
    assert traj.verdict == "converged"
    assert traj.rounds == 1
    assert traj.steps == []
    assert traj.final_profile == golden_ne


def test_solo_user_walks_to_its_capacity():
    # a lone user pays nothing on its own link, so the best grid response
    # requests the full capacity at the smallest price
    net = build_network({"A": 5.0, "B": 1.0}, {1: ["A"], 2: ["B"]})
    uts = {0: log_utility(1.0), 1: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts)
    start = {0: Message(0.0, {0: 3.0}), 1: Message(0.0, {1: 0.0})}
    config = DynamicsConfig(max_rounds=5, br_grid=51)
    traj = run_dynamics(net, uts, start, config, params)
    assert traj.final_profile[0].rate == pytest.approx(5.0)
    assert traj.final_profile[0].prices[0] == 0.0  # tie broken toward the smallest price


def test_best_response_deterministic(golden_net, golden_utilities, golden_params, golden_ne):
    messy = dict(golden_ne)
    messy[0] = Message(0.1, {0: 0.2})
    grid = deviation_grid(golden_net, golden_utilities, golden_params, 64)
    m1, _, _ = best_deviation(golden_net, golden_utilities, messy, 0, golden_params, grid)
    m2, _, _ = best_deviation(golden_net, golden_utilities, messy, 0, golden_params, grid)
    assert m1 == m2


def test_steps_record_positive_improvements(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(max_rounds=10, br_grid=41)
    traj = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    assert traj.steps, "someone must find an improving move from silence"
    assert all(s.payoff_delta > 0 for s in traj.steps)


def test_trajectory_reproducible(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(schedule="random", seed=5, max_rounds=6, br_grid=31)
    t1 = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    t2 = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    assert t1.verdict == t2.verdict and t1.steps == t2.steps


def test_exhausted_verdict(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(max_rounds=1, br_grid=21)
    traj = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    assert traj.verdict in ("exhausted", "cycled")
    assert traj.rounds == 1


def test_converged_endpoint_passes_grid_audit(golden_net, golden_utilities, golden_params):
    start = {
        0: Message(0.0, {0: 0.0}),
        1: Message(0.0, {0: 0.0}),
        2: Message(0.0, {1: 0.0}),
    }
    config = DynamicsConfig(max_rounds=40, br_grid=41, stop_tolerance=1e-9)
    traj = run_dynamics(golden_net, golden_utilities, start, config, golden_params)
    if traj.verdict == "converged":
        subs = assign_subsidies(golden_net, golden_params.rng_seed)
        alloc = outcome(golden_net, traj.final_profile, golden_params, subs)
        rep = audit(
            golden_net, golden_utilities, traj.final_profile, golden_params, alloc,
            br_grid=config.br_grid,
        )
        assert rep.best_response_gap <= config.stop_tolerance


def _cycled_instance():
    # frozen instance: two eager users leapfrog on a very coarse grid and
    # revisit an earlier quantized profile instead of settling
    net = build_network({"A": 1.0, "B": 2.0}, {1: ["A"], 2: ["A"], 3: ["B"]})
    uts = {
        0: log_utility(1.6309488837745465),
        1: log_utility(1.89943096520124),
        2: log_utility(1.0),
    }
    params = MechanismParams(
        alpha=1e4, gamma=1e4, epsilon=1e-6, price_bound=5.0, rng_seed=11
    )
    start = {
        0: Message(0.18466034385487662, {0: 1.023817278083611}),
        1: Message(0.6298827202168019, {0: 1.5859537450399053}),
        2: Message(0.5, {1: 0.3}),
    }
    config = DynamicsConfig(max_rounds=30, br_grid=7, stop_tolerance=1e-12)
    return net, uts, start, config, params


def test_cycled_verdict_on_contested_coarse_grid():
    net, uts, start, config, params = _cycled_instance()
    traj = run_dynamics(net, uts, start, config, params)
    assert traj.verdict == "cycled"
    assert traj.rounds < 30  # detected well before exhaustion


def test_quantization_hides_float_dust():
    a = {0: Message(0.5, {0: 0.25})}
    b = {0: Message(0.5 + 1e-12, {0: 0.25 - 1e-12})}
    c = {0: Message(0.5 + 1e-3, {0: 0.25})}
    assert _quantized(a) == _quantized(b)
    assert _quantized(a) != _quantized(c)


# --- skipping settled users against evaluating every user each round ----------


def run_dynamics_reference(
    net, utilities, start, config, params, best_response=best_deviation_reference
):
    """The dynamics loop that evaluates every user in every round with a
    deviation grid built in every call, kept as the oracle of
    ``run_dynamics``, which skips users whose neighbourhood has not moved
    since they last found no improvement and builds one grid per run."""
    validate_profile(net, start, params)
    assign_subsidies(net, params.rng_seed)
    profile = dict(start)
    users = list(net.users())
    rng = random.Random(config.seed)
    seen = {_quantized(profile)}
    steps = []
    for rnd in range(1, config.max_rounds + 1):
        order = rng.sample(users, len(users)) if config.schedule == "random" else users
        worst_delta = 0.0
        for user in order:
            message, best_pay, cur_pay = best_response(
                net, utilities, profile, user, params, config.br_grid
            )
            delta = best_pay - cur_pay
            if delta > config.stop_tolerance:
                steps.append(Step(rnd, user, profile[user], message, delta))
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
    calls = {"skipping": 0, "reference": 0}

    def counted(key, search):
        def wrapped(*args):
            calls[key] += 1
            return search(*args)

        return wrapped

    monkeypatch.setattr(dynamics, "best_deviation", counted("skipping", best_deviation))

    cases = _golden_dynamics_cases(golden_net, golden_utilities, golden_params)
    for b in topology_corpus()[:6]:
        cases.append((b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed), b.params))
    for b, clearing in sigmoid_suite()[:4]:
        cases.append((b.net, b.utilities, clearing, b.params))
        cases.append((b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed), b.params))
    for seed in range(4100, 4103):
        net, uts, params = mixed_market(seed)
        cases.append((net, uts, random_feasible_profile(net, params, seed=seed), params))

    drops = 0
    verdicts = set()
    for net, uts, start, params in cases:
        for schedule in ("round_robin", "random"):
            for br_grid, max_rounds in ((7, 8), (31, 8), (64, 3)):
                config = DynamicsConfig(
                    schedule=schedule, seed=3, max_rounds=max_rounds, br_grid=br_grid
                )
                before = dict(calls)
                traj = run_dynamics(net, uts, start, config, params)
                ref = run_dynamics_reference(
                    net, uts, start, config, params,
                    best_response=counted("reference", best_deviation_reference),
                )
                assert traj == ref, (net.user_labels, schedule, br_grid)
                used = calls["skipping"] - before["skipping"]
                assert used <= calls["reference"] - before["reference"]
                drops += used < calls["reference"] - before["reference"]
                verdicts.add(traj.verdict)
    assert drops > 0
    assert {"converged", "exhausted"} <= verdicts

    net, uts, start, config, params = _cycled_instance()
    traj = run_dynamics(net, uts, start, config, params)
    assert traj.verdict == "cycled"
    assert traj == run_dynamics_reference(net, uts, start, config, params)


@pytest.mark.parametrize("seed", [4300, 4301, 4302])
def test_play_at_the_mixed_play_shape_keeps_the_reference_trajectory(seed):
    # the shape that simulate meets in the mixed-play benchmark: about 30
    # users on about 20 links, half of them sigmoid, 200-point axes and 20
    # rounds, where most lattice searches keep a single price column
    net, uts, params = mixed_market(seed, users_range=(28, 32), links_range=(18, 22))
    assert 28 <= net.num_users <= 32 and any(not u.is_concave for u in uts.values())
    start = random_feasible_profile(net, params, seed=seed)
    for schedule in ("round_robin", "random"):
        config = DynamicsConfig(schedule=schedule, seed=seed, max_rounds=20, br_grid=200)
        traj = run_dynamics(net, uts, start, config, params)
        assert traj.steps, (seed, schedule)
        assert traj == run_dynamics_reference(net, uts, start, config, params), (seed, schedule)

import math
import random
import re
import struct
from pathlib import Path

import pytest

import nash_unicast.solver as solver
from nash_unicast.network import BOUNDARY_TOL, build_network, min_route_capacity
from nash_unicast.scenario import load_scenario, random_scenario
from nash_unicast.solver import (
    KktResiduals,
    NonConcaveUtility,
    NotConverged,
    SolveResult,
    SolverConfig,
    _clear_link,
    _recover_nus,
    kkt_residuals,
    solve_centralized,
    welfare,
)
from nash_unicast.utilities import (
    demand,
    derivative,
    log_utility,
    power_utility,
    quad_cap_utility,
    sigmoid_utility,
    value,
)

from oracles import GridTooLarge, brute_force_centralized

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_symmetric_log_pair():
    net = build_network({"A": 1.0}, {1: ["A"], 2: ["A"]})
    uts = {0: log_utility(1.0), 1: log_utility(1.0)}
    res = solve_centralized(net, uts)
    assert res.rates[0] == pytest.approx(0.5, abs=1e-6)
    assert res.rates[1] == pytest.approx(0.5, abs=1e-6)
    assert res.lambdas[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.kkt_residual <= 1e-8
    # cross-check against the grid oracle
    bf = brute_force_centralized(net, uts, 1e-3)
    assert res.objective == pytest.approx(welfare(uts, bf), abs=2 * 1e-3)


def test_boundary_multiplier():
    net = build_network({"A": 5.0}, {1: ["A"]})
    uts = {0: log_utility(1.0)}
    res = solve_centralized(net, uts)
    assert res.rates[0] == pytest.approx(5.0, abs=1e-6)
    assert res.lambdas[0] == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_interior_peak_slack_link():
    net = build_network({"A": 100.0}, {1: ["A"]})
    uts = {0: quad_cap_utility(2.0, 1.0)}
    res = solve_centralized(net, uts)
    assert res.rates[0] == pytest.approx(1.0, abs=1e-9)
    assert res.lambdas[0] == 0.0


def test_sigmoid_rejected():
    net = build_network({"A": 1.0}, {1: ["A"]})
    with pytest.raises(NonConcaveUtility):
        solve_centralized(net, {0: sigmoid_utility(1.0, 1.0)})


def test_multipliers_vanish_on_slack_links():
    # the peaked utility on B keeps it slack; the log user saturates A
    net = build_network({"A": 1.0, "B": 50.0}, {1: ["A", "B"], 2: ["B"]})
    uts = {0: log_utility(1.0), 1: quad_cap_utility(2.0, 1.0)}
    res = solve_centralized(net, uts)
    load_b = res.rates[0] + res.rates[1]
    assert load_b < 50.0 - 1e-6
    assert res.lambdas[1] <= 1e-6


def test_deterministic():
    net = build_network({"A": 2.0, "B": 1.5}, {1: ["A", "B"], 2: ["A"], 3: ["B"]})
    uts = {0: log_utility(1.5), 1: power_utility(1.0, 0.5), 2: log_utility(0.8)}
    r1 = solve_centralized(net, uts)
    r2 = solve_centralized(net, uts)
    assert r1 == r2


def test_solution_certifies_itself():
    net = build_network({"A": 2.0, "B": 1.5}, {1: ["A", "B"], 2: ["A"], 3: ["B"]})
    uts = {0: log_utility(1.5), 1: power_utility(1.0, 0.5), 2: log_utility(0.8)}
    res = solve_centralized(net, uts)
    rep = kkt_residuals(net, uts, res.rates, res.lambdas, res.nus)
    assert rep.max_violation <= 1e-8


def test_config_validation():
    with pytest.raises(Exception):
        SolverConfig(tolerance=0.0)


def test_not_converged_when_budget_too_small():
    from nash_unicast.solver import NotConverged

    net = build_network({"A": 2.0, "B": 1.5}, {1: ["A", "B"], 2: ["A"], 3: ["B"]})
    uts = {0: log_utility(1.5), 1: power_utility(1.0, 0.5), 2: log_utility(0.8)}
    with pytest.raises(NotConverged) as info:
        solve_centralized(net, uts, SolverConfig(max_iterations=2))
    # the message shape the benchmark parses; the budget counts clearing rounds
    assert re.search(r"still above tolerance .* after \d+ iterations", str(info.value))
    assert "after 2 iterations" in str(info.value)


def test_not_converged_names_the_unmet_criterion():
    # the KKT residual meets its tolerance here; only the tighter capacity
    # target is missed, and the message must say so
    net, uts, _, config = random_scenario(191029, users_range=(8, 8), links_range=(6, 6)).build()
    with pytest.raises(NotConverged) as info:
        solve_centralized(net, uts, config)
    msg = str(info.value)
    assert re.search(r"still above tolerance .* after \d+ iterations", msg)
    unmet = re.findall(r"(\w+) residual (\S+) still above tolerance (\S+)", msg)
    assert unmet, msg
    for _, value, bar in unmet:
        assert float(value) > float(bar), msg
    assert [name for name, _, _ in unmet] == ["capacity"], msg
    assert f"{0.5 * BOUNDARY_TOL:.1e}" in msg and f"{config.tolerance:.1e}" in msg


def test_shared_backbone_certifies_within_clearing_budget():
    net, uts, _, config = load_scenario(SCENARIO_DIR / "shared_backbone.json").build()
    res = solve_centralized(net, uts, config)
    assert res.kkt_residual <= 1e-8
    assert res.iterations < 300


def test_kkt_residuals_complementarity_at_zero():
    net = build_network({"A": 1.0}, {1: ["A"]})
    uts = {0: log_utility(1.0)}
    # prices above the initial slope support x = 0 as stationary
    lam = {0: 2.0}
    nu = {0: 2.0 - float(derivative(uts[0], 0.0))}
    rep = kkt_residuals(net, uts, {0: 0.0}, lam, nu)
    assert rep.stationarity == pytest.approx(0.0, abs=1e-12)
    assert rep.complementarity_users == 0.0
    # the capacity constraint is slack but priced: that violation is flagged
    assert rep.complementarity_links == pytest.approx(2.0, abs=1e-12)


def test_kkt_residuals_flag_non_finite_values():
    net = build_network({"A": 1.0}, {1: ["A"], 2: ["A"]})
    uts = {0: log_utility(1.0), 1: log_utility(1.0)}
    rates = {0: 0.5, 1: 0.5}
    lam = {0: 2.0 / 3.0}
    nu = {0: 0.0, 1: 0.0}
    assert kkt_residuals(net, uts, rates, lam, nu).max_violation <= 1e-12

    rep = kkt_residuals(net, uts, {0: math.nan, 1: 0.5}, lam, nu)
    assert rep.stationarity == math.inf and rep.primal == math.inf
    assert rep.complementarity_users == math.inf and rep.complementarity_links == math.inf

    rep = kkt_residuals(net, uts, rates, {0: math.nan}, nu)
    assert rep.stationarity == math.inf and rep.dual == math.inf
    assert rep.complementarity_links == math.inf


def test_kkt_residuals_random_triples_are_violated():
    rng = random.Random(23)
    net = build_network({"A": 1.0, "B": 2.0}, {1: ["A"], 2: ["A", "B"]})
    uts = {0: log_utility(1.0), 1: power_utility(1.0, 0.5)}
    for _ in range(100):
        rates = {i: rng.uniform(0.01, 0.9) for i in net.users()}
        lam = {l: rng.uniform(0.01, 2.0) for l in net.links()}
        nu = {i: rng.uniform(0.01, 1.0) for i in net.users()}
        rep = kkt_residuals(net, uts, rates, lam, nu)
        assert rep.max_violation > 0.0


def kkt_residuals_reference(net, utilities, rates, lambdas, nus):
    """The certificate as it was before it walked the network's tuples: a
    gradient at every rate, by the array path of ``derivative``, and a
    running maximum that also checks the rate. The oracle for
    ``kkt_residuals``."""

    def worse(worst, violation, *inputs):
        if math.isfinite(violation) and all(math.isfinite(v) for v in inputs):
            return max(worst, violation)
        return math.inf

    stationarity = primal = dual = slack_links = slack_users = 0.0
    for i in net.users():
        x = rates[i]
        price = sum(lambdas[l] for l in net.route(i))
        # derivative rejects a NaN rate; the NaN it once returned read as inf
        at = max(x, 0.0)
        grad = math.nan if math.isnan(at) else derivative(utilities[i], at)
        stationarity = worse(stationarity, abs(grad - price + nus[i]), x)
        primal = worse(primal, -x)
        dual = worse(dual, -nus[i])
        slack_users = worse(slack_users, abs(nus[i] * x))
    for l in net.links():
        load = sum(rates[u] for u in net.group(l))
        primal = worse(primal, load - net.capacity(l))
        dual = worse(dual, -lambdas[l])
        slack_links = worse(slack_links, abs(lambdas[l] * (load - net.capacity(l))))
    return KktResiduals(stationarity, primal, dual, slack_links, slack_users)


def assert_same_residuals(net, uts, rates, lam, nus):
    got = kkt_residuals(net, uts, rates, lam, nus)
    want = kkt_residuals_reference(net, uts, rates, lam, nus)
    for name in KktResiduals.__dataclass_fields__:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert type(mine) is float, name
        assert struct.pack("<d", mine) == struct.pack("<d", theirs), (name, mine, theirs)


def test_kkt_residuals_match_reference_on_random_triples():
    rng = random.Random(31)
    net = build_network(
        {"A": 1.0, "B": 2.0, "C": 0.5},
        {1: ["A"], 2: ["A", "B"], 3: ["B", "C"], 4: ["C", "A"]},
    )
    uts = {0: log_utility(1.0), 1: power_utility(1.3, 0.4), 2: quad_cap_utility(2.0, 1.5), 3: log_utility(0.2)}
    specials = (0.0, -0.0, 1e-300, math.nan, math.inf, -math.inf)

    def draw(lo, hi):
        roll = rng.random()
        if roll < 0.15:
            return rng.choice(specials)
        if roll < 0.25:
            return -rng.uniform(0.0, 1.0)
        return rng.uniform(lo, hi)

    for _ in range(3000):
        rates = {i: draw(0.0, 1.5) for i in net.users()}
        lam = {l: draw(0.0, 3.0) for l in net.links()}
        nus = {i: draw(0.0, 1.0) for i in net.users()}
        assert_same_residuals(net, uts, rates, lam, nus)


def test_kkt_residuals_match_reference_on_every_round(monkeypatch):
    checked = [0]

    def recorded(net, uts, rates, lam, nus):
        assert_same_residuals(net, uts, dict(rates), dict(lam), dict(nus))
        checked[0] += 1
        return kkt_residuals(net, uts, rates, lam, nus)

    monkeypatch.setattr(solver, "kkt_residuals", recorded)
    for seed in range(1000, 1050):
        net, uts, _, config = random_scenario(seed).build()
        try:
            solve_centralized(net, uts, config)
        except NotConverged:
            assert seed == 1046
    assert checked[0] > 1000


def test_brute_force_single_user():
    net = build_network({"A": 1.2}, {1: ["A"]})
    uts = {0: quad_cap_utility(2.0, 1.0)}
    bf = brute_force_centralized(net, uts, 1e-3)
    assert bf[0] == pytest.approx(1.0, abs=1.5e-3)


def test_brute_force_feasible_and_close_to_solver():
    rng = random.Random(5)
    for trial in range(5):
        net = build_network(
            {"A": rng.uniform(0.8, 2.0), "B": rng.uniform(0.8, 2.0)},
            {1: ["A"], 2: ["A", "B"], 3: ["B"]},
        )
        uts = {
            0: log_utility(rng.uniform(0.5, 2.0)),
            1: power_utility(1.0, rng.uniform(0.3, 0.7)),
            2: quad_cap_utility(rng.uniform(1.0, 2.0), rng.uniform(0.4, 1.0)),
        }
        h = 1e-2
        bf = brute_force_centralized(net, uts, h)
        res = solve_centralized(net, uts)
        modulus = sum(float(value(u, h)) for u in uts.values())
        assert res.objective >= welfare(uts, bf) - 1e-6
        assert res.objective - welfare(uts, bf) <= modulus + 1e-6


def test_brute_force_grid_guard():
    net = build_network({"A": 10.0}, {1: ["A"], 2: ["A"], 3: ["A"]})
    uts = {i: log_utility(1.0) for i in range(3)}
    with pytest.raises(GridTooLarge):
        brute_force_centralized(net, uts, 1e-6)


def test_residual_report_shape():
    rep = KktResiduals(1.0, 0.5, 0.0, 0.2, 0.1)
    assert rep.max_violation == 1.0


def solve_centralized_reference(net, utilities, config=None):
    """The clearing solver with its former per-link step, expand-then-bisect
    on the price, kept as the oracle for the fast path."""
    config = config or SolverConfig()
    for i in net.users():
        if not utilities[i].is_concave:
            raise NonConcaveUtility(f"user {i} has a non-concave ({utilities[i].family}) utility")
    users = list(net.users())
    links = list(net.links())
    caps = {i: min_route_capacity(net, i) for i in users}
    big_caps = {i: 10.0 * caps[i] + 10.0 for i in users}
    lam = {l: 0.0 for l in links}
    primal_target = min(config.tolerance, 0.5 * BOUNDARY_TOL)
    for iterations in range(1, config.max_iterations + 1):
        for l in links:
            group = net.group(l)
            if not group:
                lam[l] = 0.0
                continue
            cap_l = net.capacity(l)
            base = {i: sum(lam[m] for m in net.route(i) if m != l) for i in group}

            def load_at(v):
                return sum(demand(utilities[i], base[i] + v, big_caps[i]) for i in group)

            if load_at(0.0) <= cap_l:
                lam[l] = 0.0
                continue
            hi = max(2.0 * lam[l], 1.0)
            for _ in range(200):
                if load_at(hi) <= cap_l:
                    break
                hi *= 2.0
            lo = 0.0
            for _ in range(200):
                if hi - lo <= 1e-16 * (1.0 + hi):
                    break
                mid = 0.5 * (lo + hi)
                if load_at(mid) > cap_l:
                    lo = mid
                else:
                    hi = mid
            lam[l] = hi
        prices = {i: sum(lam[l] for l in net.route(i)) for i in users}
        rates = {i: demand(utilities[i], prices[i], caps[i]) for i in users}
        nus = _recover_nus(net, utilities, rates, prices)
        rep = kkt_residuals(net, utilities, rates, lam, nus)
        if rep.max_violation <= config.tolerance and rep.primal <= primal_target:
            return SolveResult(
                rates=rates,
                lambdas=dict(lam),
                nus=nus,
                objective=welfare(utilities, rates),
                kkt_residual=rep.max_violation,
                iterations=iterations,
            )
    raise NotConverged(f"no certificate after {config.max_iterations} iterations")


def least_fitting_price(load_at, cap):
    """Float-ordering bisection: the least float price whose load fits.

    Non-negative floats order like their int64 bit patterns, so bisecting the
    bit patterns ends on two adjacent floats in at most 64 steps."""
    if load_at(0.0) <= cap:
        return 0.0
    hi = 1.0
    while load_at(hi) > cap:
        hi *= 2.0
    lo_bits, hi_bits = 0, _bits(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if load_at(_float(mid)) > cap:
            lo_bits = mid
        else:
            hi_bits = mid
    return _float(hi_bits)


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def link_loads(net, uts, lam):
    """(link, load_at, capacity) for every used link at the prices ``lam``,
    each load built as the solver builds it."""
    big_caps = {i: 10.0 * min_route_capacity(net, i) + 10.0 for i in net.users()}
    for l in net.links():
        group = net.group(l)
        if not group:
            continue
        base = {i: sum(lam[m] for m in net.route(i) if m != l) for i in group}

        def load_at(v, group=group, base=base):
            return sum(demand(uts[i], base[i] + v, big_caps[i]) for i in group)

        yield l, load_at, net.capacity(l)


def assert_clears_like_the_oracle(load_at, cap, extra_previous=()):
    want = least_fitting_price(load_at, cap)
    for previous in (0.0, want, 0.5 * want, 2.0 * want, 10.0 * want, *extra_previous):
        got = _clear_link(load_at, cap, previous)
        assert got == want, (previous, got, want)
    return want


ORACLE_SEEDS = range(1000, 1300)
CROWDED_LINK = dict(users_range=(26, 26), links_range=(1, 1))


@pytest.fixture(scope="module")
def fast_and_reference_solves():
    """(built scenario, fast result, reference result) over the random seeds
    and a 26-user single link; a result is None where NotConverged."""
    cases = [random_scenario(seed) for seed in ORACLE_SEEDS]
    cases.append(random_scenario(26, **CROWDED_LINK))
    out = []
    for scenario in cases:
        net, uts, _, config = scenario.build()
        pair = []
        for solve in (solve_centralized, solve_centralized_reference):
            try:
                pair.append(solve(net, uts, config))
            except NotConverged:
                pair.append(None)
        out.append(((net, uts), *pair))
    return out


def test_solver_matches_expand_then_bisect_reference(fast_and_reference_solves):
    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12)

    not_converged = []
    for seed, (_, fast, ref) in zip([*ORACLE_SEEDS, "crowded"], fast_and_reference_solves):
        assert (fast is None) == (ref is None), seed
        if fast is None:
            not_converged.append(seed)
            continue
        assert fast.iterations == ref.iterations, seed
        assert close(fast.objective, ref.objective), seed
        for name in ("rates", "lambdas", "nus"):
            mine, theirs = getattr(fast, name), getattr(ref, name)
            assert mine.keys() == theirs.keys()
            assert all(close(mine[k], theirs[k]) for k in mine), (seed, name)
    assert not_converged == [1046, 1121, 1204]


def test_clear_link_returns_the_least_fitting_float(fast_and_reference_solves):
    cleared = 0
    for (net, uts), fast, _ in fast_and_reference_solves:
        states = [{l: 0.0 for l in net.links()}]
        if fast is not None:
            states.append(fast.lambdas)
        for lam in states:
            for l, load_at, cap in link_loads(net, uts, lam):
                assert_clears_like_the_oracle(load_at, cap, extra_previous=(lam[l],))
                cleared += 1
    assert cleared > 1000


def test_clear_link_zero_price_load_equal_to_capacity():
    # each quadcap user peaks at a / 2b = 0.75: the load at price 0 is 1.5
    net = build_network({"A": 1.5}, {1: ["A"], 2: ["A"]})
    uts = {0: quad_cap_utility(1.5, 1.0), 1: quad_cap_utility(3.0, 2.0)}
    [(_, load_at, cap)] = link_loads(net, uts, {0: 0.0})
    assert load_at(0.0) == cap
    assert assert_clears_like_the_oracle(load_at, cap, extra_previous=(0.5, 1.0, 4.0)) == 0.0


def test_clear_link_with_users_at_their_box():
    # u0 is pinned to 0.01 by link B, so its box on A is 10 * 0.01 + 10; at
    # every price near A's clearing price it asks for far more than that
    net = build_network({"A": 50.0, "B": 0.01}, {0: ["A", "B"], 1: ["A"], 2: ["A"]})
    uts = {0: log_utility(1000.0), 1: log_utility(1.0), 2: power_utility(0.5, 0.5)}
    [(_, load_at, cap), _] = link_loads(net, uts, {0: 0.0, 1: 0.0})
    price = assert_clears_like_the_oracle(load_at, cap)
    assert price > 0.0
    assert demand(uts[0], price, 10.1) == 10.1
    assert demand(uts[0], math.nextafter(price, 0.0), 10.1) == 10.1


def backbone_with_capacities(caps):
    scenario = load_scenario(SCENARIO_DIR / "shared_backbone.json")
    _, uts, _, config = scenario.build()
    return build_network(dict(zip(scenario.links, caps)), scenario.routes), uts, config


EXTREME_CAPACITIES = [(1e-9, 1e-9, 1e-9), (1e6, 1e6, 1e6), (1e-9, 1e6, 1e6), (1e6, 1e-9, 1e-9)]


@pytest.mark.parametrize("case", [*EXTREME_CAPACITIES, 1000, 1001, 1002, "crowded"])
def test_every_clearing_of_a_solve_matches_the_oracle(monkeypatch, case):
    if case == "crowded":
        net, uts, _, config = random_scenario(26, **CROWDED_LINK).build()
    elif isinstance(case, int):
        net, uts, _, config = random_scenario(case).build()
    else:
        # shared_backbone with other capacities; a 1e-9 link against loads
        # near 20 at price 0 stalls a plain Illinois step
        net, uts, config = backbone_with_capacities(case)
    seen = []

    def checked(load_at, cap, previous):
        got = _clear_link(load_at, cap, previous)
        assert got == least_fitting_price(load_at, cap), (previous, got)
        seen.append(got)
        return got

    monkeypatch.setattr(solver, "_clear_link", checked)
    assert solve_centralized(net, uts, config).kkt_residual <= config.tolerance
    assert seen


def test_solve_calls_demand_at_most_half_as_often_as_bisection(monkeypatch):
    # the expand-then-bisect step made 1352 calls on shared_backbone, 5330 on
    # the 26-user link and 1996 on shared_backbone with 1e-9 capacities; the
    # warm-started secant step makes 330, 416 and 968
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return demand(*args)

    monkeypatch.setattr(solver, "demand", counted)
    cases = (
        (load_scenario(SCENARIO_DIR / "shared_backbone.json").build(), 1352),
        (random_scenario(26, **CROWDED_LINK).build(), 5330),
        (backbone_with_capacities((1e-9, 1e-9, 1e-9)), 1996),
    )
    for (net, uts, *_, config), bisection_calls in cases:
        calls[0] = 0
        assert solve_centralized(net, uts, config).kkt_residual <= 1e-8
        assert calls[0] <= bisection_calls // 2, (bisection_calls, calls[0])


# --- round 0: the start prices' own certificate ------------------------------


def _hex_fields(res: SolveResult) -> dict:
    """Every field but ``iterations``, as float.hex, so equal means equal bits."""

    def hexed(v):
        return {k: x.hex() for k, x in v.items()} if isinstance(v, dict) else v.hex()

    return {k: hexed(v) for k, v in vars(res).items() if k != "iterations"}


@pytest.fixture(scope="module")
def cold_solves():
    """(net, utilities, config, cold result) on random_scenario seeds
    1000-1099, NotConverged seeds left out."""
    cases = {}
    for seed in range(1000, 1100):
        net, uts, params, config = random_scenario(seed).build()
        try:
            cases[seed] = (net, uts, params, config, solve_centralized(net, uts, config))
        except NotConverged:
            assert seed == 1046
    return cases


def test_start_at_the_cold_multipliers_certifies_in_round_zero(cold_solves):
    for seed, (net, uts, _, config, cold) in cold_solves.items():
        warm = solve_centralized(net, uts, config, start=cold.lambdas)
        assert warm.iterations == 0, seed
        assert _hex_fields(warm) == _hex_fields(cold), seed


def test_posted_prices_of_construct_ne_are_its_multipliers(cold_solves):
    from nash_unicast.equilibrium import construct_ne, posted_prices

    for seed, (net, uts, params, config, cold) in cold_solves.items():
        profile = construct_ne(net, uts, params, solve_result=cold)
        posted = {l: p.hex() for l, p in posted_prices(net, profile).items()}
        assert posted == {l: lam.hex() for l, lam in cold.lambdas.items()}, seed


def test_uncertified_start_gives_the_cold_solve(cold_solves):
    from nash_unicast.equilibrium import posted_prices
    from nash_unicast.scenario import random_feasible_profile

    for seed, (net, uts, params, config, cold) in cold_solves.items():
        start = posted_prices(net, random_feasible_profile(net, params, seed))
        warm = solve_centralized(net, uts, config, start=start)
        assert warm.iterations == cold.iterations, seed
        assert _hex_fields(warm) == _hex_fields(cold), seed


def test_start_prices_outside_the_box():
    from nash_unicast.equilibrium import posted_prices
    from nash_unicast.mechanism import MechanismParams, Message, validate_profile
    from nash_unicast.utilities import UtilityError

    # A is binding, B is slack: its multiplier is 0
    net = build_network({"A": 1.0, "B": 50.0}, {1: ["A", "B"], 2: ["B"]})
    uts = {0: log_utility(1.0), 1: quad_cap_utility(2.0, 1.0)}
    cold = solve_centralized(net, uts)
    assert cold.lambdas[1] == 0.0

    # the box lets a price just below 0 through, and demand rejects it
    below = -BOUNDARY_TOL / 2
    profile = {
        0: Message(cold.rates[0], {0: cold.lambdas[0], 1: below}),
        1: Message(cold.rates[1], {1: below}),
    }
    validate_profile(net, profile, MechanismParams(alpha=1e4, gamma=1e4))
    with pytest.raises(UtilityError):
        demand(uts[1], below, 50.0)
    start = posted_prices(net, profile)
    assert start == {0: cold.lambdas[0], 1: below}
    warm = solve_centralized(net, uts, start=start)
    assert warm.iterations == 0
    assert _hex_fields(warm) == _hex_fields(cold)

    for bad in (math.nan, math.inf):
        for l in net.links():
            start = dict(cold.lambdas)
            start[l] = bad
            assert solve_centralized(net, uts, start=start) == cold
        assert solve_centralized(net, uts, start={l: bad for l in net.links()}) == cold

import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nash_unicast import equilibrium
from nash_unicast.equilibrium import (
    NonUniformPrices,
    PriceBoundExceeded,
    _lattice_argmax,
    audit,
    best_deviation,
    check_optimality,
    check_walrasian,
    construct_ne,
    deviation_grid,
    ne_tax_closed_form,
)
from nash_unicast.mechanism import (
    MechanismParams,
    Message,
    WrongGroupSize,
    assign_subsidies,
    eval_own_tax,
    outcome,
    own_tax_axes,
    own_tax_terms,
    tax_link,
)
from nash_unicast.network import BOUNDARY_TOL, build_network, min_route_capacity
from nash_unicast.scenario import load_scenario, random_feasible_profile
from nash_unicast.solver import solve_centralized
from nash_unicast.utilities import (
    demand,
    log_utility,
    payoff,
    power_utility,
    quad_cap_utility,
    sigmoid_utility,
    value,
)

from corpus import concave_suite, mixed_market, sigmoid_suite, topology_corpus
from oracles import best_deviation_reference, with_rate, zero_tax_deviation_price

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def golden(golden_net, golden_utilities, golden_params, golden_subsidies):
    res = solve_centralized(golden_net, golden_utilities)
    profile = construct_ne(golden_net, golden_utilities, golden_params, solve_result=res)
    return golden_net, golden_utilities, golden_params, golden_subsidies, res, profile


def five_user_core():
    net = build_network(
        {"core": 2.0, "east": 1.2, "west": 1.5, "south": 1.0},
        {
            "u1": ["core", "east"],
            "u2": ["core", "west"],
            "u3": ["core"],
            "u4": ["core", "east"],
            "u5": ["west"],
            "u6": ["south"],
        },
    )
    uts = {
        0: log_utility(1.5),
        1: power_utility(1.0, 0.5),
        2: quad_cap_utility(2.0, 0.8),
        3: log_utility(0.8),
        4: power_utility(1.2, 0.4),
        5: log_utility(1.0),
    }
    params = MechanismParams.defaults(net, uts, rng_seed=11)
    return net, uts, params


def test_construct_ne_golden(golden):
    net, uts, params, subs, res, profile = golden
    assert profile[0].rate == pytest.approx(0.5, abs=1e-6)
    assert profile[1].rate == pytest.approx(0.5, abs=1e-6)
    assert profile[0].prices[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert profile[0].prices[0] == profile[1].prices[0]


def test_construct_ne_bare_pair():
    # construction itself needs no subsidy recipient, so the two-user
    # network works even though its outcome function cannot balance
    net = build_network({"A": 1.0}, {1: ["A"], 2: ["A"]})
    uts = {0: log_utility(1.0), 1: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts)
    profile = construct_ne(net, uts, params)
    for u in (0, 1):
        assert profile[u].rate == pytest.approx(0.5, abs=1e-6)
        assert profile[u].prices[0] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_construct_ne_slack_link_prices_zero():
    net = build_network({"A": 100.0, "B": 1.0}, {1: ["A"], 2: ["B"], 3: ["B"]})
    uts = {0: quad_cap_utility(2.0, 1.0), 1: log_utility(1.0), 2: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts)
    profile = construct_ne(net, uts, params)
    assert profile[0].prices[0] == 0.0
    assert profile[0].rate == pytest.approx(1.0, abs=1e-8)  # interior peak


def test_construct_ne_price_bound_guard(golden_net, golden_utilities):
    tight = MechanismParams(alpha=1e4, gamma=1e4, epsilon=1e-6, price_bound=0.1)
    with pytest.raises(PriceBoundExceeded):
        construct_ne(golden_net, golden_utilities, tight)


def test_audit_golden_ne(golden):
    net, uts, params, subs, res, profile = golden
    rep = audit(net, uts, profile, params, outcome(net, profile, params, subs), br_grid=200)
    assert rep.feasibility
    assert rep.price_uniformity == 0.0
    assert rep.complementary_slackness <= 1e-8
    assert rep.tax_derivative_gap <= 1e-5
    assert rep.best_response_gap <= 1e-4
    assert rep.best_response_gap >= 0.0
    assert rep.ir_min_payoff >= 0.0
    assert rep.budget_gap <= 1e-9
    assert rep.corollary_tax_gap <= 1e-9


def test_audit_flags_unilateral_over_request(golden):
    net, uts, params, subs, res, profile = golden
    ne_payoffs = {
        u: payoff(uts[u], profile[u].rate, outcome(net, profile, params, subs).taxes[u])
        for u in net.users()
    }
    tampered = dict(profile)
    tampered[0] = with_rate(profile[0], 1.0)  # joint request now exceeds the unit link
    alloc = outcome(net, tampered, params, subs)
    rep = audit(net, uts, tampered, params, alloc, br_grid=50)
    assert not rep.feasibility
    assert payoff(uts[0], 1.0, alloc.taxes[0]) < ne_payoffs[0]  # the penalty dominates


def test_audit_flags_price_disagreement(golden):
    net, uts, params, subs, res, profile = golden
    tampered = dict(profile)
    tampered[0] = profile[0].with_price(0, profile[0].prices[0] + 0.25)
    rep = audit(net, uts, tampered, params, outcome(net, tampered, params, subs), br_grid=50)
    assert rep.price_uniformity == pytest.approx(0.25, abs=1e-12)
    assert rep.best_response_gap > 0.0


def test_best_response_gap_nonnegative_even_off_equilibrium(golden):
    net, uts, params, subs, res, profile = golden
    rng = random.Random(3)
    for _ in range(10):
        messy = {
            u: Message(
                rng.uniform(0, 0.4), {l: rng.uniform(0, 2.0) for l in net.route(u)}
            )
            for u in net.users()
        }
        _, best, cur = best_deviation(net, uts, messy, 0, params, deviation_grid(net, uts, params, 40))
        assert best - cur >= 0.0


def test_check_optimality(golden):
    net, uts, params, subs, res, profile = golden
    ok, gap = check_optimality(uts, outcome(net, profile, params, subs), res)
    assert ok and gap <= 1e-6
    zeros = {
        u: Message(0.0, {l: profile[u].prices[l] for l in net.route(u)})
        for u in net.users()
    }
    ok0, gap0 = check_optimality(uts, outcome(net, zeros, params, subs), res)
    assert not ok0 and gap0 > 0.1


def test_zero_tax_price_pair_link(golden):
    net, uts, params, subs, res, profile = golden
    p0 = zero_tax_deviation_price(net, profile, 0, 0, params)
    assert p0 == pytest.approx(profile[1].prices[0], abs=1e-12)


@pytest.mark.parametrize("n", [3, 5])
def test_zero_tax_price_round_trip(n):
    links = {"L0": 2.0, "L1": 1.0}
    routes = {f"u{i}": ["L0"] for i in range(n)}
    routes[f"u{n}"] = ["L1"]
    net = build_network(links, routes)
    uts = {i: log_utility(1.0 + 0.2 * i) for i in range(n)}
    uts[n] = log_utility(1.0)
    params = MechanismParams.defaults(net, uts, rng_seed=1)
    profile = construct_ne(net, uts, params)
    for user in range(n):
        price = zero_tax_deviation_price(net, profile, 0, user, params)
        assert price >= 0.0
        deviated = dict(profile)
        deviated[user] = with_rate(profile[user], 0.0).with_price(0, price)
        assert abs(tax_link(net, deviated, 0, params)[user].total) <= 1e-9


def test_zero_tax_price_singleton_rejected(golden):
    net, uts, params, subs, res, profile = golden
    with pytest.raises(WrongGroupSize):
        zero_tax_deviation_price(net, profile, 1, 2, params)


def test_closed_forms_all_cases():
    net, uts, params = five_user_core()
    profile = construct_ne(net, uts, params)
    subs = assign_subsidies(net, params.rng_seed)
    alloc = outcome(net, profile, params, subs)
    sizes = {len(net.group(l)) for l in net.links()}
    assert sizes == {1, 2, 4}  # singleton, pair, and large-group cases live here
    for (user, link), lt in alloc.breakdown.link_taxes.items():
        expected = ne_tax_closed_form(net, profile, link, user, params)
        assert lt.total == pytest.approx(expected, abs=1e-9)


def test_three_user_closed_form_at_ne():
    links = {"L0": 1.5, "L1": 1.0}
    routes = {"a": ["L0"], "b": ["L0"], "c": ["L0"], "d": ["L1"]}
    net = build_network(links, routes)
    uts = {0: log_utility(1.0), 1: log_utility(1.5), 2: power_utility(1.0, 0.5), 3: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts, rng_seed=2)
    profile = construct_ne(net, uts, params)
    subs = assign_subsidies(net, params.rng_seed)
    alloc = outcome(net, profile, params, subs)
    for user in range(3):
        expected = ne_tax_closed_form(net, profile, 0, user, params)
        assert alloc.breakdown.link_taxes[(user, 0)].total == pytest.approx(expected, abs=1e-9)


def test_walrasian_golden(golden):
    net, uts, params, subs, res, profile = golden
    checks = check_walrasian(net, uts, profile, 1e-3)
    assert all(c.ok for c in checks.values())


def test_walrasian_flags_displaced_rate(golden):
    net, uts, params, subs, res, profile = golden
    shifted = dict(profile)
    shifted[0] = with_rate(profile[0], profile[0].rate - 10 * 1e-3)  # stay feasible
    checks = check_walrasian(net, uts, shifted, 1e-3)
    assert not checks[0].ok
    assert set(checks) == set(net.users())  # everyone is reported regardless


def test_walrasian_requires_uniform_prices(golden):
    net, uts, params, subs, res, profile = golden
    tampered = dict(profile)
    tampered[0] = profile[0].with_price(0, profile[0].prices[0] + 0.1)
    with pytest.raises(NonUniformPrices):
        check_walrasian(net, uts, tampered, 1e-3)


# --- the separable deviation search against the full-grid search ---------------


def best_deviation_full_grid(net, utilities, profile, user, params, br_grid):
    """The deviation search that evaluates ``eval_own_tax`` on the whole
    rate-by-price grid of every route link, kept as the oracle of the
    separable lattice in ``best_deviation``. Same candidates, same order,
    same tie rule; candidates are (pay, rate, prices, message)."""
    route = net.route(user)
    tables = [(l, own_tax_terms(net, profile, l, user, params)) for l in route]
    u = utilities[user]
    cur = profile[user]
    cur_tax = {l: float(eval_own_tax(t, cur.rate, cur.prices[l])) for l, t in tables}
    cur_pay = float(value(u, cur.rate)) - sum(cur_tax.values())

    cap = min_route_capacity(net, user)
    xs = np.linspace(0.0, cap, br_grid)
    ps = np.linspace(0.0, params.price_bound, br_grid)

    total_tax = np.zeros((br_grid, br_grid))
    for _, t in tables:
        total_tax = total_tax + eval_own_tax(t, xs[:, None], ps[None, :])
    lattice = np.asarray(value(u, xs), dtype=float)[:, None] - total_tax
    flat = int(np.argmax(lattice))
    i0, j0 = divmod(flat, br_grid)
    cands = [
        (
            float(lattice[i0, j0]),
            float(xs[i0]),
            tuple(float(ps[j0]) for _ in route),
            Message(rate=float(xs[i0]), prices={l: float(ps[j0]) for l in route}),
        )
    ]

    rate_sweep_tax = np.zeros(br_grid)
    for l, t in tables:
        rate_sweep_tax = rate_sweep_tax + eval_own_tax(t, xs, np.full_like(xs, cur.prices[l]))
    rate_pays = np.asarray(value(u, xs), dtype=float) - rate_sweep_tax
    i1 = int(np.argmax(rate_pays))
    cands.append(
        (
            float(rate_pays[i1]),
            float(xs[i1]),
            tuple(cur.prices[m] for m in route),
            with_rate(cur, float(xs[i1])),
        )
    )

    slope = 0.0
    room = cap
    for l, t in tables:
        if t.group_size == 1:
            continue
        slope += (t.peer_price_mean + t.price_adjust) - (
            2.0 / t.gamma
        ) * t.peer_price_mean * (cur.prices[l] - t.peer_price_mean)
        room = min(room, max(-t.peer_excess, 0.0))
    x_best = demand(u, max(slope, 0.0), room)
    best_tax = sum(float(eval_own_tax(t, x_best, cur.prices[l])) for l, t in tables)
    cands.append(
        (
            float(value(u, x_best)) - best_tax,
            x_best,
            tuple(cur.prices[m] for m in route),
            with_rate(cur, x_best),
        )
    )

    for l, t in tables:
        sweep = np.asarray(eval_own_tax(t, np.full_like(ps, cur.rate), ps), dtype=float)
        other = sum(v for m, v in cur_tax.items() if m != l)
        pays = float(value(u, cur.rate)) - other - sweep
        j = int(np.argmax(pays))
        msg = cur.with_price(l, float(ps[j]))
        cands.append((float(pays[j]), cur.rate, tuple(msg.prices[m] for m in route), msg))

    cands.append((cur_pay, cur.rate, tuple(cur.prices[m] for m in route), cur))

    best = cands[0]
    for c in cands[1:]:
        if c[0] > best[0] or (c[0] == best[0] and c[1:3] < best[1:3]):
            best = c
    return best[3], best[0], cur_pay


def _message_payoff(net, utilities, profile, user, params, message):
    """The user's payoff at ``message`` (subsidies aside), every link tax
    evaluated pointwise by ``eval_own_tax``."""
    tax = sum(
        float(eval_own_tax(own_tax_terms(net, profile, l, user, params), message.rate, message.prices[l]))
        for l in net.route(user)
    )
    return float(value(utilities[user], message.rate)) - tax


def _assert_deviation_matches_reference(net, utilities, profile, params, br_grid):
    sizes = set()
    grid = deviation_grid(net, utilities, params, br_grid)
    for user in net.users():
        msg, best, cur = best_deviation(net, utilities, profile, user, params, grid)
        _, ref_best, ref_cur = best_deviation_full_grid(net, utilities, profile, user, params, br_grid)
        bound = 1e-12 * max(1.0, abs(ref_best))
        assert cur == ref_cur, (user, cur, ref_cur)
        assert abs(best - ref_best) <= bound, (user, best, ref_best)
        assert set(msg.prices) == set(net.route(user))
        attained = _message_payoff(net, utilities, profile, user, params, msg)
        assert abs(attained - ref_best) <= bound, (user, attained, ref_best)
        sizes.update(len(net.group(l)) for l in net.route(user))
    return sizes


@pytest.mark.parametrize("br_grid", [7, 64, 200])
def test_best_deviation_matches_full_grid_search_golden(golden, br_grid):
    net, uts, params, subs, res, profile = golden
    rng = random.Random(br_grid)
    profiles = [profile] + [
        {u: Message(rng.uniform(0, 0.5), {l: rng.uniform(0, 2.0) for l in net.route(u)}) for u in net.users()}
        for _ in range(5)
    ]
    for p in profiles:
        _assert_deviation_matches_reference(net, uts, p, params, br_grid)


@pytest.mark.parametrize("br_grid", [7, 64, 200])
def test_best_deviation_matches_full_grid_search_at_equilibria(br_grid):
    sizes = set()
    for s in concave_suite():
        sizes |= _assert_deviation_matches_reference(s.net, s.utilities, s.profile, s.params, br_grid)
    assert {1, 2, 3}.issubset(sizes) and max(sizes) >= 4, sorted(sizes)


@pytest.mark.parametrize("br_grid", [7, 64, 200])
def test_best_deviation_matches_full_grid_search_off_equilibrium(br_grid):
    sizes = set()
    for b in topology_corpus():
        for k in range(2):
            profile = random_feasible_profile(b.net, b.params, seed=b.seed * 7919 + k)
            sizes |= _assert_deviation_matches_reference(b.net, b.utilities, profile, b.params, br_grid)
    assert {1, 2, 3}.issubset(sizes) and max(sizes) >= 4, sorted(sizes)


@pytest.mark.parametrize("br_grid", [7, 64, 200])
def test_best_deviation_matches_full_grid_search_sigmoid(br_grid):
    for b, clearing in sigmoid_suite():
        assert not all(u.is_concave for u in b.utilities.values())
        _assert_deviation_matches_reference(b.net, b.utilities, clearing, b.params, br_grid)
        profile = random_feasible_profile(b.net, b.params, seed=b.seed)
        _assert_deviation_matches_reference(b.net, b.utilities, profile, b.params, br_grid)


# --- one deviation grid per audit against a grid built in every call -----------


def _bits(found):
    msg, best, cur = found
    prices = sorted((l, float.hex(p)) for l, p in msg.prices.items())
    return float.hex(msg.rate), prices, float.hex(best), float.hex(cur)


def _assert_grid_matches_per_call_grid(net, utilities, profile, params, br_grid):
    """Returns how many users' best deviation posts a nonzero grid price."""
    grid = deviation_grid(net, utilities, params, br_grid)
    on_price_axis = 0
    for user in net.users():
        got = best_deviation(net, utilities, profile, user, params, grid)
        ref = best_deviation_reference(net, utilities, profile, user, params, br_grid)
        # bit for bit: float.hex tells -0.0 from 0.0 and NaN from a number
        assert _bits(got) == _bits(ref), (user, got, ref)
        on_price_axis += any(p > 0.0 and p in grid.prices for p in got[0].prices.values())
    return on_price_axis


@pytest.mark.parametrize("br_grid", [2, 7, 64, 200])
def test_deviation_grid_matches_per_call_grid_on_mixed_markets(br_grid):
    families = set()
    on_price_axis = 0
    for seed in range(4000, 4012):
        net, uts, params = mixed_market(seed)
        families |= {u.family for u in uts.values()}
        # under the default bound the grid prices are too coarse to win; a
        # tight bound lets the lattice and the price sweeps win
        for bounded in (params, replace(params, price_bound=3.0)):
            for k in range(3):
                profile = random_feasible_profile(net, bounded, seed=seed * 31 + k)
                on_price_axis += _assert_grid_matches_per_call_grid(net, uts, profile, bounded, br_grid)
    assert "sigmoid" in families and len(families) >= 3, families
    assert on_price_axis > 0


@pytest.mark.parametrize("br_grid", [2, 7, 64, 200])
def test_deviation_grid_matches_per_call_grid_at_equilibria(br_grid):
    for s in concave_suite()[:20]:
        _assert_grid_matches_per_call_grid(s.net, s.utilities, s.profile, s.params, br_grid)
    for b, clearing in sigmoid_suite():
        _assert_grid_matches_per_call_grid(b.net, b.utilities, clearing, b.params, br_grid)


def test_deviation_grid_arrays_are_read_only(golden):
    net, uts, params, *_ = golden
    grid = deviation_grid(net, uts, params, 9)
    assert len(grid.rates) == len(grid.values) == net.num_users
    for arr in (grid.prices, *grid.rates, *grid.values):
        assert arr.shape == (9,)
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0


def test_stacked_grid_matches_per_user_axes_bit_for_bit():
    # capacities from the smallest float up: a step that underflows to 0
    # sends numpy's linspace down its denormal path for every row it gets
    caps = [5e-324, 1e-320, 2.5e-308, 1e-300, 0.37, 1.0, 3.3, 1e6, 7.5e300]
    links = {f"L{i}": c for i, c in enumerate(caps)}
    families = [
        log_utility(1.3),
        power_utility(0.7, 0.35),
        quad_cap_utility(2.0, 0.6),
        sigmoid_utility(1.5, 0.8),
    ]
    rng = random.Random(5)
    routes, uts = {}, {}
    for i in range(len(caps) * len(families)):
        routes[f"u{i}"] = [f"L{i % len(caps)}"] + rng.sample(sorted(links), rng.randrange(3))
        uts[i] = families[i % len(families)]
    net = build_network(links, routes)
    params = MechanismParams(alpha=1e4, gamma=1e4, price_bound=50.0)
    for br_grid in (2, 7, 64, 200, 201):
        grid = deviation_grid(net, uts, params, br_grid)
        assert grid.rates.shape == grid.values.shape == (net.num_users, br_grid)
        for user in net.users():
            xs = np.linspace(0.0, min_route_capacity(net, user), br_grid)
            vs = np.asarray(value(uts[user], xs), dtype=float)
            assert grid.rates[user].tobytes() == xs.tobytes(), (br_grid, user)
            assert grid.values[user].tobytes() == vs.tobytes(), (br_grid, user)
        assert grid.prices.tobytes() == np.linspace(0.0, 50.0, br_grid).tobytes()
        for arr in (grid.prices, grid.rates, grid.values, grid.rates[0], grid.values[-1]):
            with pytest.raises(ValueError):
                arr[..., 0] = 1.0


# --- the audit's closed-form prices against the grid search -------------------


def _assert_audit_dominates_grid_search(net, utilities, profile, params, br_grid):
    """Every user's closed-form gain is at least its ``best_deviation`` gap
    on the same grid, less rounding, and the audit reports the largest;
    returns the audit's gap and the largest grid gap."""
    alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed))
    gap = audit(net, utilities, profile, params, alloc, br_grid=br_grid).best_response_gap
    grid = deviation_grid(net, utilities, params, br_grid)
    terms = {(u, l): own_tax_terms(net, profile, l, u, params) for u in net.users() for l in net.route(u)}
    gains, grid_gap = [0.0], 0.0
    for user in net.users():
        _, best, cur = best_deviation(net, utilities, profile, user, params, grid)
        gains.append(equilibrium._best_response_gap(net, utilities, profile, user, params, grid, terms))
        assert gains[-1] >= best - cur - 1e-12 * max(1.0, abs(best), abs(cur)), (user, gains[-1], best, cur)
        grid_gap = max(grid_gap, best - cur)
    assert gap == max(gains)
    return gap, grid_gap


def _crowded_link():
    net = build_network({"L0": 2.0}, {f"u{i}": ["L0"] for i in range(26)})
    rng = random.Random(26)
    uts = {}
    for i in net.users():
        a = rng.uniform(0.5, 2.0)
        uts[i] = (log_utility(a), power_utility(a, 0.4), quad_cap_utility(a, 0.5))[i % 3]
    return net, uts, MechanismParams.defaults(net, uts)


def _long_routes(trial):
    """Routes of 1 to 6 links, over links shared by 1 to 5 users and more,
    with a singleton, a two-user and a three-user link in every trial."""
    links = {f"L{i}": 0.5 + 0.25 * i for i in range(10)}
    rng = random.Random(16 + trial)
    routes = {f"u{i}": rng.sample(sorted(links)[:7], 1 + i % 6) for i in range(12)}
    routes.update(w=["L7"], p1=["L8"], p2=["L8", "L0"], t1=["L9"], t2=["L9"], t3=["L1", "L9"])
    net = build_network(links, routes)
    pool = [log_utility(1.2), power_utility(0.9, 0.5), quad_cap_utility(1.5, 0.7), sigmoid_utility(2.0, 1.0)]
    return net, {u: pool[(u + trial) % 4] for u in net.users()}


@pytest.mark.parametrize("br_grid", [7, 64])
def test_audit_gap_dominates_grid_search_on_corpora(br_grid):
    sizes = set()
    for b in topology_corpus():
        profile = random_feasible_profile(b.net, b.params, seed=b.seed * 13)
        _assert_audit_dominates_grid_search(b.net, b.utilities, profile, b.params, br_grid)
        sizes |= {len(b.net.group(l)) for l in b.net.links()}
    for s in concave_suite()[:25]:
        _assert_audit_dominates_grid_search(s.net, s.utilities, s.profile, s.params, br_grid)
    assert {1, 2, 3}.issubset(sizes) and max(sizes) >= 4, sorted(sizes)
    for seed in range(4000, 4012):
        net, uts, params = mixed_market(seed)
        for bounded in (params, replace(params, price_bound=3.0)):
            profile = random_feasible_profile(net, bounded, seed=seed * 31)
            _assert_audit_dominates_grid_search(net, uts, profile, bounded, br_grid)
    for b, clearing in sigmoid_suite():
        _assert_audit_dominates_grid_search(b.net, b.utilities, clearing, b.params, br_grid)
        profile = random_feasible_profile(b.net, b.params, seed=b.seed)
        _assert_audit_dominates_grid_search(b.net, b.utilities, profile, b.params, br_grid)
    net, uts, params = _crowded_link()
    _assert_audit_dominates_grid_search(net, uts, construct_ne(net, uts, params), params, br_grid)
    for k in range(2):
        _assert_audit_dominates_grid_search(net, uts, random_feasible_profile(net, params, seed=k), params, br_grid)


def test_audit_gap_dominates_grid_search_on_routes_of_one_to_six_links():
    lengths = set()
    for trial in range(6):
        net, uts = _long_routes(trial)
        lengths |= {len(net.route(u)) for u in net.users()}
        params = MechanismParams(alpha=1e4, gamma=1e4, price_bound=2.0)
        profile = random_feasible_profile(net, params, seed=trial)
        for br_grid in (2, 7, 64):
            _assert_audit_dominates_grid_search(net, uts, profile, params, br_grid)
    assert lengths == set(range(1, 7)), lengths


@pytest.mark.parametrize("alpha, gamma", [(1e3, 1e3), (1e-3, 1e-3), (1e3, 1e-3), (1e-3, 1e3), (None, None)])
def test_audit_gap_dominates_grid_search_under_scaled_constants(alpha, gamma):
    # None: alpha = 1e300 and gamma = 1e-300, where gamma * quad_weight
    # underflows to 0 on two-user links
    def scaled(params):
        if alpha is None:
            return replace(params, alpha=1e300, gamma=1e-300)
        return replace(params, alpha=params.alpha * alpha, gamma=params.gamma * gamma)

    for s in concave_suite()[:15]:
        _assert_audit_dominates_grid_search(s.net, s.utilities, s.profile, scaled(s.params), 64)
    for b in topology_corpus()[:10]:
        profile = random_feasible_profile(b.net, b.params, seed=b.seed)
        _assert_audit_dominates_grid_search(b.net, b.utilities, profile, scaled(b.params), 64)


@pytest.mark.parametrize(
    "mechanism, a, expected",
    [({"alpha": 1.0, "gamma": 1.0}, 1.0, 0.0390), ({"alpha": 0.1, "gamma": 0.1}, 1.0, 1.039), ({}, 1e5, 2.06e4)],
)
def test_audit_finds_the_deviations_the_grid_misses(mechanism, a, expected):
    # two log users on a unit link: at these constants, or at this price
    # scale, u1 gains by moving its price strictly between 0 and the first
    # grid price, so the grid search sees no gain
    scenario = load_scenario(SCENARIO_DIR / "two_users_one_link.json")
    scenario.mechanism.update(mechanism)
    scenario.utilities = {label: replace(spec, a=a) for label, spec in scenario.utilities.items()}
    net, uts, params, _ = scenario.build()
    profile = construct_ne(net, uts, params)
    gap, grid_gap = _assert_audit_dominates_grid_search(net, uts, profile, params, 200)
    assert grid_gap <= 1e-4
    assert gap == pytest.approx(expected, rel=5e-3)


def test_audit_reads_a_nan_gap_as_inf(golden, monkeypatch):
    # builtin max(0.0, nan) keeps 0.0; a NaN must never read as a pass
    net, uts, params, subs, res, profile = golden
    monkeypatch.setattr(equilibrium, "_best_response_gap", lambda *args: float("nan"))
    rep = audit(net, uts, profile, params, outcome(net, profile, params, subs), br_grid=16)
    assert rep.best_response_gap == float("inf")


# --- the column-bounded lattice search against the full G-by-G fill -------------


def lattice_argmax_reference(xs, a, h_sum, g_sum):
    """The full rate-by-price lattice, filled in place in one G-by-G buffer,
    kept as the oracle of the column-pruned ``_lattice_argmax``."""
    lattice = np.empty((len(xs), len(h_sum)))
    np.multiply.outer(xs, h_sum, out=lattice)
    lattice += g_sum
    np.subtract(a[:, None], lattice, out=lattice)
    i, j = divmod(int(np.argmax(lattice)), len(h_sum))
    return i, j, float(lattice[i, j])


def _assert_lattice_matches_reference(xs, a, h_sum, g_sum):
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite inputs
        i, j, got = _lattice_argmax(xs, a, h_sum, g_sum)
        ri, rj, ref = lattice_argmax_reference(xs, a, h_sum, g_sum)
    assert (i, j) == (ri, rj), (i, j, ri, rj)
    # bit for bit, so NaN matches NaN and -0.0 does not match 0.0
    assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (got, ref)


@pytest.mark.parametrize("br_grid", [7, 64, 200])
def test_lattice_argmax_matches_full_fill_on_corpora(monkeypatch, br_grid):
    # record the vectors best_deviation hands the lattice search
    seen = []

    def recording(xs, a, h_sum, g_sum):
        seen.append((xs.copy(), a.copy(), h_sum.copy(), g_sum.copy()))
        return _lattice_argmax(xs, a, h_sum, g_sum)

    monkeypatch.setattr(equilibrium, "_lattice_argmax", recording)
    cases = [(s.net, s.utilities, s.profile, s.params) for s in concave_suite()]
    for b in topology_corpus():
        cases.append((b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed), b.params))
    for b, clearing in sigmoid_suite():
        cases.append((b.net, b.utilities, clearing, b.params))
        cases.append((b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed), b.params))
    for net, uts, profile, params in cases:
        grid = deviation_grid(net, uts, params, br_grid)
        for user in net.users():
            best_deviation(net, uts, profile, user, params, grid)
    assert len(seen) > 400
    assert any(np.any(h < 0) for _, _, h, _ in seen) and any(np.any(h > 0) for _, _, h, _ in seen)
    for xs, a, h_sum, g_sum in seen:
        _assert_lattice_matches_reference(xs, a, h_sum, g_sum)


@pytest.mark.parametrize("G", [2, 7, 64, 200])
def test_lattice_argmax_matches_full_fill_on_synthetic_arrays(G):
    rng = np.random.default_rng(G)
    xs = np.linspace(0.0, 1.5, G)
    zeros = np.zeros(G)
    # every column tied, as on a singleton link: the first column wins
    _assert_lattice_matches_reference(xs, rng.normal(size=G), zeros, zeros)
    _assert_lattice_matches_reference(np.zeros(G), rng.normal(size=G), rng.normal(size=G), rng.normal(size=G))
    # the best entry sits at the top rate of a column with negative h, whose
    # value at x = 0 is far below another column's
    h = np.zeros(G)
    g = np.zeros(G)
    g[0], h[-1] = -1.0, -3.0
    _assert_lattice_matches_reference(xs, zeros, h, g)
    for trial in range(200):
        a = rng.normal(size=G)
        h = rng.normal(size=G) * rng.choice([1e-3, 1.0, 1e3])
        g = rng.normal(size=G)
        if trial % 4 == 1:  # h of one sign only
            h = np.abs(h) * rng.choice([-1.0, 1.0])
        if trial % 4 == 2:  # duplicate columns, so the max ties across columns
            src = rng.integers(G, size=G)
            h, g = h[src], g[src]
        if trial % 4 == 3:  # small integers: exact ties within and across columns
            a = rng.integers(-2, 3, size=G).astype(float)
            h = rng.integers(-2, 3, size=G).astype(float)
            g = rng.integers(-2, 3, size=G).astype(float)
        if trial >= 100:  # non-finite entries in one of the three vectors
            target = (a, h, g)[trial % 3]
            target[rng.integers(G)] = rng.choice([np.inf, -np.inf, np.nan])
            if trial % 5 == 0:
                (a, h, g)[trial % 2][rng.integers(G)] = rng.choice([np.inf, -np.inf, np.nan])
        _assert_lattice_matches_reference(xs, a, h, g)


def _group_net(n):
    """n users on link L0, the first of them also on L1, and a bystander on
    L1 and L2; so L0 has n users, L1 two and L2 one."""
    routes = {f"u{i}": ["L0"] for i in range(n)}
    routes["u0"] = ["L0", "L1"]
    routes["v"] = ["L1", "L2"]
    return build_network({"L0": 1.5, "L1": 2.0, "L2": 1.0}, routes)


def eval_own_tax_reference(terms, x, p):
    """The link tax written out directly from the terms, independent of the
    kernel ``own_tax_parts``; the oracle of ``eval_own_tax``."""
    xa = np.asarray(x, dtype=float)
    if terms.group_size == 1:
        return np.where(xa > terms.capacity + BOUNDARY_TOL, terms.penalty_single, 0.0)[()]
    dev = np.asarray(p, dtype=float) - terms.peer_price_mean
    tax = (
        (terms.peer_price_mean + terms.price_adjust) * xa
        + terms.quad_weight * dev * dev
        - (2.0 / terms.gamma) * terms.peer_price_mean * dev * (terms.peer_excess + xa)
        + terms.balance_const
    )
    firing = (xa > BOUNDARY_TOL) & (terms.peer_excess + xa > BOUNDARY_TOL)
    return (tax + np.where(firing, terms.penalty_both, 0.0))[()]


def _assert_axes_identity(terms, x, p):
    f, g, h = own_tax_axes(terms, x, p)
    direct = np.asarray(eval_own_tax(terms, x, p), dtype=float)
    # the kernel-built tax equals the directly written one exactly
    assert np.all(direct == eval_own_tax_reference(terms, x, p)), (x, p)
    split = np.asarray(f + g + np.asarray(x) * h, dtype=float)
    scale = np.abs(f) + np.abs(g) + np.abs(np.asarray(x) * h)
    assert np.all(np.abs(split - direct) <= 1e-12 * np.maximum(1.0, scale)), (x, p, split, direct)
    return direct


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_own_tax_axes_split_eval_own_tax(n):
    net = _group_net(n)
    params = MechanismParams(alpha=1e4, gamma=1e4, epsilon=1e-6, price_bound=50.0)
    rng = random.Random(40 + n)
    profile = {
        u: Message(rng.uniform(0.0, 0.2), {l: rng.uniform(0.0, 5.0) for l in net.route(u)})
        for u in net.users()
    }
    link = 0 if n > 1 else 2  # L2 is the singleton link
    user = 0 if n > 1 else net.num_users - 1
    terms = own_tax_terms(net, profile, link, user, params)
    assert terms.group_size == n

    # random points, as scalars and as broadcast arrays
    xs = np.array([rng.uniform(0.0, 3.0) for _ in range(50)])
    ps = np.array([rng.uniform(0.0, params.price_bound) for _ in range(50)])
    for x, p in zip(xs, ps):
        _assert_axes_identity(terms, float(x), float(p))
    _assert_axes_identity(terms, xs[:, None], ps[None, :])

    # both sides of every penalty wall; where the penalty switches on, the
    # two sides differ by it
    d = 0.25 * BOUNDARY_TOL
    if n == 1:
        walls = [(terms, terms.capacity + BOUNDARY_TOL, terms.penalty_single)]
    else:
        assert terms.peer_excess < 0.0  # feasible peers: the wall lies above x = 0
        overloaded = replace(terms, peer_excess=0.5)
        walls = [
            (terms, BOUNDARY_TOL, None),  # the peers leave room: nothing fires
            (terms, BOUNDARY_TOL - terms.peer_excess, terms.penalty_both),
            (overloaded, BOUNDARY_TOL, terms.penalty_both),
        ]
    for t, wall, jump in walls:
        for p in (0.0, float(ps[0]), params.price_bound):
            below = _assert_axes_identity(t, wall - d, p)
            above = _assert_axes_identity(t, wall + d, p)
            if jump is not None:
                assert float(above - below) == pytest.approx(jump, rel=1e-9)
            else:
                assert abs(float(above - below)) < 1e-6


def test_vertex_price_minimises_the_tax_over_a_price_scan():
    # the closed-form price's tax is never above the tax at any scanned
    # price, beyond rounding, on groups of 1 to 30 users; a small gamma
    # sends the vertex past both ends of the box
    bound = 5.0
    scan = np.linspace(0.0, bound, 4001)
    xs = np.linspace(0.0, 3.0, 31)
    at_zero = at_bound = inside = adjusted = 0
    for n in range(1, 31):
        net = _group_net(n)
        rng = random.Random(70 + n)
        link, user = (0, 0) if n > 1 else (2, net.num_users - 1)
        for alpha, gamma in ((1.0, 0.5), (0.3, 2.0), (1e4, 1e4)):
            params = MechanismParams(alpha=alpha, gamma=gamma, price_bound=bound)
            profile = {
                u: Message(rng.uniform(0.0, 0.3), {l: rng.uniform(0.0, 2.0) for l in net.route(u)})
                for u in net.users()
            }
            terms = own_tax_terms(net, profile, link, user, params)
            adjusted += terms.price_adjust != 0.0
            best = equilibrium._vertex_price(terms, xs, bound)
            got = eval_own_tax(terms, xs, best)
            scanned = eval_own_tax(terms, xs[:, None], scan[None, :])
            slack = 1e-12 * (1.0 + np.max(np.abs(scanned), axis=1))
            assert np.all(got <= scanned.min(axis=1) + slack), (n, alpha, gamma)
            if n > 1:
                at_zero += int(np.sum(best == 0.0))
                at_bound += int(np.sum(best == bound))
                inside += int(np.sum((best > 0.0) & (best < bound)))
    assert at_zero and at_bound and inside and adjusted, (at_zero, at_bound, inside, adjusted)

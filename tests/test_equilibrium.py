import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nash_unicast import equilibrium
from nash_unicast.dynamics import DynamicsConfig, _colour_classes, run_dynamics
from nash_unicast.equilibrium import (
    PriceBoundExceeded,
    _rate_grid,
    audit,
    best_deviation,
    check_optimality,
    construct_ne,
    ne_tax_closed_form,
    own_tax_table,
    posted_prices,
    search_grid,
)
from nash_unicast.mechanism import (
    MechanismParams,
    Message,
    WrongGroupSize,
    assign_subsidies,
    eval_own_tax,
    outcome,
    own_tax_and_h,
    own_tax_parts,
    own_tax_terms,
    tax_link,
    validate_profile,
)
from nash_unicast.network import BOUNDARY_TOL, build_network, min_route_capacity
from nash_unicast.scenario import load_scenario, random_feasible_profile, random_scenario
from nash_unicast.solver import NotConverged, solve_centralized
from nash_unicast.utilities import (
    demand,
    log_utility,
    payoff,
    power_utility,
    quad_cap_utility,
    sigmoid_utility,
    value,
)

from corpus import (
    concave_suite,
    crowded_scenario,
    denormal_net,
    mixed_market,
    profile_corpus,
    sigmoid_suite,
    topology_corpus,
)
from oracles import (
    best_deviation_per_call_reference,
    best_response_gap_reference,
    closed_form_reference,
    competitive_gap_grid_reference,
    tax_slope_finite_difference,
    with_price,
    with_rate,
    zero_tax_deviation_price,
)

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
    tampered[0] = with_price(profile[0], 0, profile[0].prices[0] + 0.25)
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
        _, gains = best_deviation(net, uts, messy, net.users(), params, search_grid(net, uts, 40), own_tax_table(net, messy, params))
        assert min(gains) >= 0.0  # the current rate is a candidate


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
        deviated[user] = with_price(with_rate(profile[user], 0.0), 0, price)
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
    posted = posted_prices(net, profile)
    for (user, link), lt in alloc.breakdown.link_taxes.items():
        terms = own_tax_terms(net, profile, link, user, params)
        expected = ne_tax_closed_form(net, profile, link, user, terms, posted[link])
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
    posted = posted_prices(net, profile)
    for user in range(3):
        terms = own_tax_terms(net, profile, 0, user, params)
        expected = ne_tax_closed_form(net, profile, 0, user, terms, posted[0])
        assert alloc.breakdown.link_taxes[(user, 0)].total == pytest.approx(expected, abs=1e-9)


def _competitive_gap(net, uts, profile, params):
    """The audit's competitive gap of a profile; a grid of 2 keeps its
    best-response search, which the gap does not read, short."""
    alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed))
    return audit(net, uts, profile, params, alloc, br_grid=2).competitive_gap


def test_walrasian_golden(golden):
    net, uts, params, subs, res, profile = golden
    assert _competitive_gap(net, uts, profile, params) == 0.0


def test_walrasian_flags_displaced_rate(golden):
    net, uts, params, subs, res, profile = golden
    shifted = dict(profile)
    shifted[0] = with_rate(profile[0], profile[0].rate - 10 * 1e-3)  # stay feasible
    assert _competitive_gap(net, uts, shifted, params) > 1e-6


def test_competitive_gap_looks_over_the_whole_route_capacity(golden):
    # at half the equilibrium prices the users of the full link A demand more
    # than the room their peer leaves; that room does not bound the gap
    net, uts, params, subs, res, profile = golden
    cheap = {i: Message(m.rate, {l: 0.5 * p for l, p in m.prices.items()}) for i, m in profile.items()}
    posted = posted_prices(net, cheap)
    worst = 0.0
    for i in net.group(0):
        price = sum(posted[l] for l in net.route(i))
        best = demand(uts[i], price, min_route_capacity(net, i))
        assert best > cheap[i].rate + 0.1
        worst = max(worst, payoff(uts[i], best, price * best) - payoff(uts[i], cheap[i].rate, price * cheap[i].rate))
    gap = _competitive_gap(net, uts, cheap, params)
    assert gap >= worst > 1e-3, (gap, worst)


def test_competitive_gap_reads_a_non_uniform_profile_at_its_posted_prices(golden):
    # a price above the link's least one moves no posted price, so no gap
    net, uts, params, subs, res, profile = golden
    tampered = dict(profile)
    tampered[0] = with_price(profile[0], 0, profile[0].prices[0] + 0.1)
    assert posted_prices(net, tampered) == posted_prices(net, profile)
    assert _competitive_gap(net, uts, tampered, params) == _competitive_gap(net, uts, profile, params) == 0.0


def test_competitive_gap_is_zero_on_constructed_equilibria():
    # construct-ne's rates are each user's demand at its route's multipliers
    gaps = []
    for seed in range(1000, 1100):
        net, uts, params, solver_config = random_scenario(seed).build()
        try:
            profile = construct_ne(net, uts, params, solver_config)
        except NotConverged:
            continue
        gaps.append(_competitive_gap(net, uts, profile, params))
    assert len(gaps) >= 90 and set(gaps) == {0.0}, (len(gaps), max(gaps))


def _walrasian_profiles():
    """The concave suite's equilibria and the same with every rate and price
    halved, the sigmoid markets' start profiles, those starts with the first
    user of link 0 at 0.7 times its rate, and the endpoints of criterion 7's
    play from both starts."""
    for s in concave_suite():
        yield s.name, s.net, s.utilities, s.params, s.profile
        halved = {i: Message(0.5 * m.rate, {l: 0.5 * p for l, p in m.prices.items()}) for i, m in s.profile.items()}
        yield f"{s.name} halved", s.net, s.utilities, s.params, halved
    config = DynamicsConfig(max_rounds=12, br_grid=120, stop_tolerance=1e-7)
    for b, start in sigmoid_suite():
        yield b.name, b.net, b.utilities, b.params, start
        first = b.net.group(0)[0]
        nudged = dict(start)
        nudged[first] = with_rate(start[first], start[first].rate * 0.7)
        yield f"{b.name} nudged start", b.net, b.utilities, b.params, nudged
        for label, s0 in (("played", start), ("nudged", nudged)):
            final = run_dynamics(b.net, b.utilities, s0, config, b.params).final_profile
            yield f"{b.name} {label}", b.net, b.utilities, b.params, final


def test_walrasian_demand_is_never_below_the_grid_best():
    # both gaps subtract the same bits of the current payoff; play's
    # endpoints, which post each user's own vertex price, need not be uniform
    profiles, off, spread = 0, 0, 0
    for name, net, uts, params, profile in _walrasian_profiles():
        gap = _competitive_gap(net, uts, profile, params)
        grid = competitive_gap_grid_reference(net, uts, profile, 1e-3)
        assert gap >= grid - 1e-12, (name, gap, grid)
        profiles += 1
        off += grid > 1e-6
        spread += any(max(profile[u].prices[l] for u in g) - min(profile[u].prices[l] for u in g) > 1e-9
                      for l, g in enumerate(net.groups) if g)
    assert profiles > 100 and off > 30 and spread >= 1, (profiles, off, spread)


def test_audit_reads_each_link_at_its_least_posted_price():
    # c, alone on B, receives A's subsidy
    net = build_network({"A": 2.0, "B": 1.0}, {"a": ["A"], "b": ["A"], "c": ["B"]})
    uts = {0: log_utility(1.0), 1: log_utility(2.0), 2: log_utility(1.0)}
    params = MechanismParams.defaults(net, uts, rng_seed=0)
    profile = {0: Message(0.9, {0: 0.3}), 1: Message(0.8, {0: 0.5}), 2: Message(1.0, {1: 0.5})}
    assert posted_prices(net, profile) == {0: 0.3, 1: 0.5}
    table = own_tax_table(net, profile, params)
    alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed), table)
    rep = audit(net, uts, profile, params, alloc, br_grid=16, table=table)

    assert rep.price_uniformity == 0.5 - 0.3
    assert rep.complementary_slackness == 0.3 * abs(0.9 + 0.8 - 2.0) / params.gamma > 0.0
    slopes = []
    for u in net.group(0):
        x, p, t = profile[u].rate, profile[u].prices[0], table[(u, 0)]
        slopes.append((t.peer_price_mean + t.price_adjust) + own_tax_and_h(t, x, p)[1])
    assert rep.tax_derivative_gap == max(abs(s - 0.3) for s in slopes)
    assert rep.tax_derivative_gap != max(abs(s - 0.4) for s in slopes)

    def closed_form_gap(price_a):
        prices = {0: price_a, 1: 0.5}
        return max(
            abs(lt.total - ne_tax_closed_form(net, profile, l, u, table[(u, l)], prices[l]))
            for (u, l), lt in alloc.breakdown.link_taxes.items()
        )

    assert rep.corollary_tax_gap == closed_form_gap(0.3) != closed_form_gap(0.4)


def test_tax_derivative_gap_matches_the_finite_difference():
    # the closed-form slope against a finite difference of the assembled
    # tax, within the finite difference's rounding: a few ulps of the tax's
    # largest term, and of the step's own rounding, over the step
    checked = 0
    for b, profile in profile_corpus():
        net, params = b.net, b.params
        table = own_tax_table(net, profile, params)
        alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed), table)
        rep = audit(net, b.utilities, profile, params, alloc, br_grid=8, table=table)
        posted = posted_prices(net, profile)
        fd_gap = slack = 0.0
        for (u, l), t in table.items():
            x, p = profile[u].rate, profile[u].prices[l]
            if t.group_size == 1 or x <= 1e-12:
                continue
            fd, step = tax_slope_finite_difference(t, x, p)
            price, _, quad, h = own_tax_parts(t, x, p)
            slope = (t.peer_price_mean + t.price_adjust) + h
            largest = max(abs(price), abs(quad), abs(h * (t.peer_excess + x)), abs(h * x), abs(t.balance_const))
            bound = 8.0 * math.ulp(largest) / step
            assert abs(slope - fd) <= bound, (b.name, u, l, slope, fd, bound)
            fd_gap = max(fd_gap, abs(fd - posted[l]))
            slack = max(slack, bound)
            checked += 1
        assert abs(rep.tax_derivative_gap - fd_gap) <= slack, (b.name, rep.tax_derivative_gap, fd_gap)
    assert checked > 9000, checked


def test_tax_derivative_gap_holds_at_a_million_times_the_utility_scale():
    # the finite difference's rounding, about ulp(tax)/step, failed the 1e-5
    # bar on 39 of these 40 profiles; the other checks' absolute bars still
    # fail at this scale
    for seed in range(1000, 1040):
        scenario = random_scenario(seed)
        scenario.utilities = {
            label: replace(u, a=u.a * 1e6, b=u.b * 1e6 if u.family == "quadcap" else u.b)
            for label, u in scenario.utilities.items()
        }
        net, uts, params, solver_config = scenario.build()
        profile = construct_ne(net, uts, params, solver_config)
        table = own_tax_table(net, profile, params)
        alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed), table)
        rep = audit(net, uts, profile, params, alloc, br_grid=8, table=table)
        assert rep.tax_derivative_gap <= 1e-5, (seed, rep.tax_derivative_gap)


def test_ir_min_payoff_reads_a_nan_payoff_as_minus_inf():
    # alpha = 1e300 and gamma = 1e-300 overflow six users' taxes on the
    # denormal net to NaN; min() skipped a NaN that was not first, and the
    # budget gap, their sum, read NaN
    net, uts, params = denormal_net()
    extreme = replace(params, alpha=1e300, gamma=1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(20):
            profile = random_feasible_profile(net, extreme, seed=seed)
            alloc = outcome(net, profile, extreme, assign_subsidies(net, extreme.rng_seed))
            pays = [payoff(uts[u], alloc.rates[u], alloc.taxes[u]) for u in net.users()]
            assert sum(v != v for v in pays) == 6, seed
            rep = audit(net, uts, profile, extreme, alloc, br_grid=8)
            assert rep.ir_min_payoff == -math.inf, (seed, rep.ir_min_payoff)
            assert rep.budget_gap == math.inf, (seed, rep.budget_gap)


# --- a brute-force rate-by-price grid search ---------------------------------


def best_deviation_full_grid(net, utilities, profile, user, params, br_grid):
    """The deviation search that evaluates ``eval_own_tax`` on the whole
    rate-by-price grid of every route link, plus a rate sweep at the current
    prices, the analytic rate and a price sweep per route link: the move
    rule play used before it moved by ``best_deviation``, kept as an
    independent brute-force search that the audit's gain must dominate.
    Candidates are (pay, rate, prices, message)."""
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
        msg = with_price(cur, l, float(ps[j]))
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


def test_audit_meets_denormal_capacities():
    # the audit builds its own rate rows; RuntimeWarnings are errors here
    net, uts, params = denormal_net()
    profile = random_feasible_profile(net, params, seed=5)
    alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed))
    coarse, fine = (audit(net, uts, profile, params, alloc, br_grid=g).best_response_gap for g in (2, 200))
    # both rows hold the ends 0 and cap, so the finer search finds at least as much
    assert np.isfinite(fine) and fine >= coarse >= 0.0, (coarse, fine)


# --- the audit's closed-form prices against the grid search -------------------


def _assert_audit_dominates_grid_search(net, utilities, profile, params, br_grid):
    """Every user's closed-form gain is at least its gap in the brute-force
    grid search on the same rates, less rounding, and the audit reports the
    largest; returns the audit's gap and the largest grid gap."""
    alloc = outcome(net, profile, params, assign_subsidies(net, params.rng_seed))
    gap = audit(net, utilities, profile, params, alloc, br_grid=br_grid).best_response_gap
    table = own_tax_table(net, profile, params)
    batched = best_deviation(net, utilities, profile, net.users(), params, search_grid(net, utilities, br_grid), table)[1]
    gains, grid_gap = [0.0], 0.0
    for user in net.users():
        _, best, cur = best_deviation_full_grid(net, utilities, profile, user, params, br_grid)
        gains.append(batched[user])
        assert gains[-1] >= best - cur - 1e-12 * max(1.0, abs(best), abs(cur)), (user, gains[-1], best, cur)
        grid_gap = max(grid_gap, best - cur)
    assert gap == max(gains)
    return gap, grid_gap


def _crowded_link():
    net, uts, params, _ = crowded_scenario().build()
    return net, uts, params


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
    # the winning price lies strictly below the grid's first positive price
    messages, _ = best_deviation(net, uts, profile, net.users(), params, search_grid(net, uts, 200), own_tax_table(net, profile, params))
    assert 0.0 < messages[0].prices[0] < params.price_bound / 199


def test_audit_reads_a_nan_gap_as_inf(golden, monkeypatch):
    # builtin max(0.0, nan) keeps 0.0; a NaN must never read as a pass
    net, uts, params, subs, res, profile = golden
    monkeypatch.setattr(equilibrium, "best_deviation", lambda *args: ([], [np.nan] * net.num_users))
    rep = audit(net, uts, profile, params, outcome(net, profile, params, subs), br_grid=16)
    assert rep.best_response_gap == float("inf")


# --- the batched best response and the shared table against their oracles ------


def _same_bits(a, b):
    return a == b or (a != a and b != b)


def _assert_gaps_match_per_user_search(net, utilities, profile, params, br_grid):
    """Every user's batched gain and winning message equal the per-user
    search's, NaN matching NaN; returns the number of users."""
    table = own_tax_table(net, profile, params)
    messages, gains = best_deviation(net, utilities, profile, net.users(), params, search_grid(net, utilities, br_grid), table)
    assert len(messages) == len(gains) == net.num_users
    for user in net.users():
        message, gain = best_response_gap_reference(net, utilities, profile, user, params, br_grid, table)
        assert _same_bits(gains[user], gain), (user, gains[user], gain)
        assert _same_bits(messages[user].rate, message.rate), (user, messages[user], message)
        assert list(messages[user].prices) == list(net.route(user))
        for l, p in message.prices.items():
            assert _same_bits(messages[user].prices[l], p), (user, l, messages[user], message)
    return net.num_users


def _gap_cases():
    """(name, net, utilities, profile, params) over the topology corpus, the
    concave equilibria, the mixed markets, the sigmoid clearings, the
    crowded link and the denormal capacities."""
    for b in topology_corpus():
        yield "topology", b.net, b.utilities, random_feasible_profile(b.net, b.params, seed=b.seed * 13), b.params
    for s in concave_suite()[:25]:
        yield "concave", s.net, s.utilities, s.profile, s.params
    for seed in range(4000, 4012):
        net, uts, params = mixed_market(seed)
        yield "mixed", net, uts, random_feasible_profile(net, params, seed=seed * 31), params
    for b, clearing in sigmoid_suite():
        yield "sigmoid", b.net, b.utilities, clearing, b.params
    net, uts, params = _crowded_link()
    yield "crowded", net, uts, construct_ne(net, uts, params), params
    yield "crowded", net, uts, random_feasible_profile(net, params, seed=1), params
    net, uts, params = denormal_net()
    yield "denormal", net, uts, random_feasible_profile(net, params, seed=5), params


@pytest.mark.parametrize(
    "scale",
    [None, (1e3, 1e3), (1e-3, 1e-3), (1e3, 1e-3), (1e-3, 1e3), "extreme", "price_bound"],
)
def test_batched_gaps_match_per_user_search(scale):
    # "extreme": alpha = 1e300 and gamma = 1e-300, where gamma * quad_weight
    # underflows to 0 on two-user links; "price_bound": a price box of 2
    def scaled(params):
        if scale is None:
            return params
        if scale == "extreme":
            return replace(params, alpha=1e300, gamma=1e-300)
        if scale == "price_bound":
            return replace(params, price_bound=2.0)
        return replace(params, alpha=params.alpha * scale[0], gamma=params.gamma * scale[1])

    users = 0
    for name, net, uts, profile, params in _gap_cases():
        bounded = scaled(params)
        if max(p for m in profile.values() for p in m.prices.values()) > bounded.price_bound:
            profile = random_feasible_profile(net, bounded, seed=net.num_users)
        # at gamma = 1e-300 the coupling coefficient of the 7.5e300 link
        # overflows, in the per-user search as in the batched one; there the
        # two are compared on their inf and NaN results
        quiet = "ignore" if (scale, name) == ("extreme", "denormal") else "warn"
        for br_grid in (2, 7, 200):
            with np.errstate(over=quiet, invalid=quiet):
                users += _assert_gaps_match_per_user_search(net, uts, profile, bounded, br_grid)
    assert users > 1000


def test_colour_class_batches_match_per_user_search():
    # play searches one colour class at a time: small batches, in which a
    # row whose grid step underflows to 0 (numpy's k/div*cap path) sits
    # beside ordinary rows, and a utility family may have a single member
    net, uts, params = denormal_net()
    mixed = mixed_market(4300, users_range=(28, 32), links_range=(18, 22))
    cases = [(net, uts, params, random_feasible_profile(net, params, seed=5))]
    cases.append((*mixed, random_feasible_profile(mixed[0], mixed[2], seed=4300)))
    mixed_zero_step = lone_family = 0
    for net, uts, params, profile in cases:
        table = own_tax_table(net, profile, params)
        classes = _colour_classes({u: {v for l in net.route(u) for v in net.group(l)} for u in net.users()})
        assert len(classes) > 1
        for users in classes:
            families = Counter(uts[u].family for u in users)
            lone_family += len(families) > 1 and 1 in families.values()
            caps = [min_route_capacity(net, u) for u in users]
            for br_grid in (2, 7, 200):
                zero = [cap / (br_grid - 1) == 0.0 for cap in caps]
                mixed_zero_step += any(zero) and not all(zero)
                for row, cap in zip(_rate_grid(np.array(caps), br_grid), caps):
                    assert row.tobytes() == np.linspace(0.0, cap, br_grid).tobytes(), (cap, br_grid)
                messages, gains = best_deviation(net, uts, profile, users, params, search_grid(net, uts, br_grid), table)
                for user, message, gain in zip(users, messages, gains):
                    ref, ref_gain = best_response_gap_reference(net, uts, profile, user, params, br_grid, table)
                    assert gain.hex() == ref_gain.hex(), (user, br_grid, gain, ref_gain)
                    assert message.rate.hex() == ref.rate.hex(), (user, br_grid, message, ref)
                    assert message == ref, (user, br_grid, message, ref)
    assert mixed_zero_step > 0 and lone_family > 0, (mixed_zero_step, lone_family)


def _hex_message(message):
    return message.rate.hex(), [(l, p.hex()) for l, p in message.prices.items()]


@pytest.mark.parametrize("shape", ["denormal", "mixed-play", "crowded-links"])
def test_command_grid_matches_the_per_call_build(shape):
    # one search_grid per command and br_grid, fed to every batch that play
    # (a colour class) or the audit (every user) searches, against the build
    # of each call's own rows; under the default constants and under alpha =
    # 1e300, gamma = 1e-300, where gamma * quad_weight underflows to 0 on
    # two-user links and the vertex price takes its flat branch
    if shape == "denormal":
        net, uts, params = denormal_net()  # rows whose step underflows to 0
    elif shape == "mixed-play":
        net, uts, params = mixed_market(4310, users_range=(28, 32), links_range=(18, 22))
    else:
        net, uts, params = _crowded_link()
    profiles = [random_feasible_profile(net, params, seed=net.num_users)]
    if shape == "crowded-links":
        profiles.append(construct_ne(net, uts, params))
    classes = _colour_classes({u: {v for l in net.route(u) for v in net.group(l)} for u in net.users()})
    batches = classes + [list(net.users())]
    compared = 0
    for constants in (params, replace(params, alpha=1e300, gamma=1e-300)):
        for profile in profiles:
            table = own_tax_table(net, profile, constants)
            for br_grid in (2, 7, 200):
                grid = search_grid(net, uts, br_grid)
                for users in batches:
                    with np.errstate(over="ignore", invalid="ignore"):
                        messages, gains = best_deviation(net, uts, profile, users, constants, grid, table)
                        ref = best_deviation_per_call_reference(net, uts, profile, users, constants, br_grid, table)
                    assert [g.hex() for g in gains] == [g.hex() for g in ref[1]], (shape, users, br_grid)
                    assert list(map(_hex_message, messages)) == list(map(_hex_message, ref[0]))
                    if all(g == g for g in gains):
                        assert messages == ref[0], (shape, users, br_grid)
                    compared += len(users)
    assert compared >= 2 * len(profiles) * 3 * 2 * net.num_users


def test_each_winning_message_earns_its_gain():
    # evaluated pointwise, the returned message earns the current payoff
    # plus the reported gain, and every message lies in its user's box
    movers = 0
    for name, net, uts, profile, params in _gap_cases():
        if name == "denormal":  # V and the taxes overflow at the largest capacity
            continue
        table = own_tax_table(net, profile, params)
        messages, gains = best_deviation(net, uts, profile, net.users(), params, search_grid(net, uts, 64), table)
        validate_profile(net, dict(enumerate(messages)), params)
        for user, message, gain in zip(net.users(), messages, gains):
            cur = _message_payoff(net, uts, profile, user, params, profile[user])
            new = _message_payoff(net, uts, profile, user, params, message)
            assert abs(new - cur - gain) <= 1e-12 * max(1.0, abs(new), abs(cur)), (name, user, new, cur, gain)
            for l in net.route(user):
                if len(net.group(l)) == 1:
                    assert message.prices[l] == 0.0
            movers += gain > 1e-9
    assert movers > 100, movers


def test_outcome_with_the_shared_table_equals_outcome_without():
    for _, net, uts, profile, params in _gap_cases():
        subsidies = assign_subsidies(net, params.rng_seed)
        shared = outcome(net, profile, params, subsidies, own_tax_table(net, profile, params))
        own = outcome(net, profile, params, subsidies)
        assert shared.rates == own.rates
        assert repr(shared.taxes) == repr(own.taxes)
        assert shared.breakdown.subsidies == own.breakdown.subsidies
        assert list(shared.breakdown.link_taxes) == list(own.breakdown.link_taxes)
        for key, lt in own.breakdown.link_taxes.items():
            assert repr(shared.breakdown.link_taxes[key]) == repr(lt), key


def test_closed_form_from_the_table_equals_the_peer_walk():
    sizes = set()
    for _, net, uts, profile, params in _gap_cases():
        table, posted = own_tax_table(net, profile, params), equilibrium.posted_prices(net, profile)
        for (user, link), terms in table.items():
            p = posted[link]
            got = ne_tax_closed_form(net, profile, link, user, terms, p)
            assert _same_bits(got, closed_form_reference(net, profile, link, user, params, p)), (user, link)
            sizes.add(terms.group_size)
    assert {1, 2, 3}.issubset(sizes) and max(sizes) > 20, sorted(sizes)


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


def _assert_matches_written_out_tax(terms, x, p):
    # the kernel-built tax equals the directly written one exactly
    direct = np.asarray(eval_own_tax(terms, x, p), dtype=float)
    assert np.all(direct == eval_own_tax_reference(terms, x, p)), (x, p)
    return direct


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_eval_own_tax_matches_the_written_out_tax(n):
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
        _assert_matches_written_out_tax(terms, float(x), float(p))
    _assert_matches_written_out_tax(terms, xs[:, None], ps[None, :])

    # both sides of every penalty wall; where the penalty switches on, the
    # two sides differ by it
    d = 0.25 * BOUNDARY_TOL
    if n == 1:
        walls = [(terms, terms.capacity + BOUNDARY_TOL, terms.penalty_single)]
    else:
        assert terms.peer_excess < 0.0  # feasible peers: the wall lies above x = 0
        overloaded = terms._replace(peer_excess=0.5)
        walls = [
            (terms, BOUNDARY_TOL, None),  # the peers leave room: nothing fires
            (terms, BOUNDARY_TOL - terms.peer_excess, terms.penalty_both),
            (overloaded, BOUNDARY_TOL, terms.penalty_both),
        ]
    for t, wall, jump in walls:
        for p in (0.0, float(ps[0]), params.price_bound):
            below = _assert_matches_written_out_tax(t, wall - d, p)
            above = _assert_matches_written_out_tax(t, wall + d, p)
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
            best = equilibrium._vertex_price(terms, terms.peer_excess + xs, bound)
            got = eval_own_tax(terms, xs, best)
            scanned = eval_own_tax(terms, xs[:, None], scan[None, :])
            slack = 1e-12 * (1.0 + np.max(np.abs(scanned), axis=1))
            assert np.all(got <= scanned.min(axis=1) + slack), (n, alpha, gamma)
            if n > 1:
                at_zero += int(np.sum(best == 0.0))
                at_bound += int(np.sum(best == bound))
                inside += int(np.sum((best > 0.0) & (best < bound)))
    assert at_zero and at_bound and inside and adjusted, (at_zero, at_bound, inside, adjusted)

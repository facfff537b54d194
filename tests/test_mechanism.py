import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_unicast.mechanism import (
    MechanismError,
    MechanismParams,
    Message,
    NoEligibleRecipient,
    OwnTaxTerms,
    PriceOutOfBounds,
    RateOutOfBounds,
    RouteMismatch,
    UserNotOnLink,
    WrongGroupSize,
    assign_subsidies,
    balance_term_large_group,
    balance_term_three_user,
    indicator,
    link_subsidy,
    outcome,
    own_tax_terms,
    penalty,
    tax_link,
    validate_profile,
)
from nash_unicast.network import build_network

from corpus import concave_suite, denormal_net
from oracles import own_tax_terms_reference, with_price

PARAMS = MechanismParams(alpha=1e4, gamma=1e4, epsilon=1e-6, price_bound=100.0)


def shared_link_net(n, extra_bystander=True, cap=10.0):
    """n users on link L0; optionally a bystander on its own link."""
    links = {"L0": cap, "L1": 5.0}
    routes = {f"u{i}": ["L0"] for i in range(n)}
    if extra_bystander:
        routes[f"u{n}"] = ["L1"]
    return build_network(links, routes)


def random_profile(net, rng, feasible=True, price_hi=5.0):
    profile = {}
    raw = {i: rng.uniform(0.0, 2.0) for i in net.users()}
    if feasible:
        for l in net.links():
            load = sum(raw[u] for u in net.group(l))
            cap = net.capacity(l)
            if load > cap:
                for u in net.group(l):
                    raw[u] *= 0.999 * cap / load
    for i in net.users():
        profile[i] = Message(
            rate=raw[i], prices={l: rng.uniform(0.0, price_hi) for l in net.route(i)}
        )
    return profile


# --- indicator and penalty -------------------------------------------------


def test_indicator_values():
    assert indicator(True, 1e-6) == pytest.approx(0.999999, abs=1e-12)
    assert indicator(False, 1e-6) == 0.0
    assert indicator(True, 0.1) == pytest.approx(0.9, abs=1e-12)


def test_penalty_values():
    eps = 1e-6
    q = (1 - eps) ** 2
    assert penalty(True, True, eps) == pytest.approx(q / (1 - q), abs=1e-6)
    # series expansion: 1/(2 eps) - 3/4 + O(eps)
    assert abs(penalty(True, True, eps) - 499999.25) <= 0.5
    assert penalty(True, False, eps) == 0.0
    assert penalty(False, True, eps) == 0.0


# --- link statistics --------------------------------------------------------


def test_link_terms_two_users():
    net = shared_link_net(2)
    profile = {
        0: Message(1.0, {0: 2.0}),
        1: Message(3.0, {0: 4.0}),
        2: Message(0.0, {1: 0.0}),
    }
    t = own_tax_terms(net, profile, 0, 0, PARAMS)
    assert t.peer_price_mean == 4.0
    assert t.peer_excess == 3.0 - 10.0
    assert t.group_size == 2


def test_link_terms_mean_and_own_excess():
    net = shared_link_net(4, extra_bystander=False)
    profile = {
        0: Message(3.0, {0: 9.0}),
        1: Message(0.5, {0: 1.0}),
        2: Message(0.5, {0: 2.0}),
        3: Message(0.5, {0: 3.0}),
    }
    t = own_tax_terms(net, profile, 0, 0, PARAMS)
    assert t.peer_price_mean == pytest.approx(2.0)
    assert t.peer_excess == pytest.approx(3 * 0.5 - 10.0)
    # the own excess (n-1)*x - c never enters: the own message is not read
    moved = dict(profile)
    moved[0] = Message(0.25, {0: 7.0})
    assert own_tax_terms(net, moved, 0, 0, PARAMS) == t


def test_link_terms_user_not_on_link():
    net = shared_link_net(2)
    profile = random_profile(net, random.Random(0))
    with pytest.raises(UserNotOnLink, match="user 'u2' is not on link 'L0'"):
        own_tax_terms(net, profile, 0, 2, PARAMS)


def _hex_fields(terms):
    return [v if isinstance(v, int) else float.hex(v) for v in tuple(terms)]


def _extreme(rng):
    """A float from signed zeros, denormals and magnitudes 1e-300..1e300,
    or an ordinary price-sized one."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300))
    if kind == 1:
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
    return rng.uniform(0.0, 5.0)


@pytest.mark.parametrize("n", range(1, 31))
def test_own_tax_terms_match_former_walks_bit_for_bit(n):
    rng = random.Random(7000 + n)
    checked = 0
    for cap, gamma in ((10.0, 1e4), (1e-300, 1e300), (1e300, 1e-300), (3.0, 0.7)):
        net = shared_link_net(n, cap=cap)
        params = MechanismParams(alpha=2.5, gamma=gamma, epsilon=1e-6, price_bound=100.0)
        for k in range(6):
            # every other profile requests zero rates throughout
            profile = {
                i: Message(0.0 if k % 2 else _extreme(rng), {l: _extreme(rng) for l in net.route(i)})
                for i in net.users()
            }
            for link in net.links():
                for user in net.group(link):
                    got = own_tax_terms(net, profile, link, user, params)
                    ref = own_tax_terms_reference(net, profile, link, user, params)
                    assert _hex_fields(got) == _hex_fields(ref), (n, cap, gamma, k, link, user)
                    checked += 1
    assert checked == 24 * (n + 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_terms_columns_are_the_fields(n):
    # a table's terms are a flat tuple of numbers each: stacked with one
    # np.array call, each column holds one field, row by row, with the
    # field's bits, at extreme messages and constants
    rng = random.Random(7100 + n)
    denormal, _, _ = denormal_net()
    nets = [shared_link_net(n, cap=cap) for cap in (10.0, *denormal.capacities)] + [denormal]
    for net in nets:
        params = MechanismParams(alpha=2.5, gamma=rng.choice((1e4, 1e-300, 1e300)), price_bound=100.0)
        profile = {
            i: Message(_extreme(rng), {l: _extreme(rng) for l in net.route(i)}) for i in net.users()
        }
        terms = [own_tax_terms(net, profile, l, u, params) for u in net.users() for l in net.route(u)]
        stacked = np.array(terms, dtype=float)
        assert stacked.shape == (len(terms), len(OwnTaxTerms._fields))
        for column, name in zip(stacked.T, OwnTaxTerms._fields):
            assert [v.hex() for v in column.tolist()] == [float(getattr(t, name)).hex() for t in terms], name


# --- balance terms ----------------------------------------------------------


def test_three_user_balance_term_ignores_own_message():
    net = shared_link_net(3)
    rng = random.Random(1)
    profile = random_profile(net, rng)
    base = balance_term_three_user(net, profile, 0, 0, PARAMS)
    for _ in range(100):
        tampered = dict(profile)
        tampered[0] = Message(rng.uniform(0, 5), {0: rng.uniform(0, 50)})
        assert balance_term_three_user(net, tampered, 0, 0, PARAMS) == base


def test_three_user_link_taxes_sum_to_zero():
    net = shared_link_net(3)
    rng = random.Random(2)
    for _ in range(200):
        profile = random_profile(net, rng)
        taxes = tax_link(net, profile, 0, PARAMS)
        total = sum(t.total for t in taxes.values())
        scale = 1.0 + sum(abs(t.total) for t in taxes.values())
        assert abs(total) <= 1e-9 * scale


def test_three_user_equal_price_closed_form():
    net = shared_link_net(3)
    rng = random.Random(3)
    p = 1.3
    for _ in range(50):
        xs = [rng.uniform(0, 3.0) for _ in range(3)]
        profile = {i: Message(xs[i], {0: p}) for i in range(3)}
        profile[3] = Message(0.5, {1: 0.2})
        taxes = tax_link(net, profile, 0, PARAMS)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            exact = p * (xs[i] - 0.5 * (xs[j] + xs[k])) + p * p * (xs[k] - xs[j]) / (
                2 * PARAMS.gamma
            )
            assert taxes[i].total == pytest.approx(exact, abs=1e-12)
            # classic statement of the same form carries p^2 x_k / gamma alone;
            # it holds up to the order-1/gamma skew that restores balance
            legacy = p * (xs[i] - 0.5 * (xs[j] + xs[k])) + p * p * xs[k] / PARAMS.gamma
            assert abs(taxes[i].total - legacy) <= p * p * (xs[j] + xs[k]) / (
                2 * PARAMS.gamma
            ) + 1e-12


def test_three_user_balance_term_wrong_size():
    net = shared_link_net(4)
    profile = random_profile(net, random.Random(4))
    with pytest.raises(WrongGroupSize, match="link 'L0' has 4 users, need 3"):
        balance_term_three_user(net, profile, 0, 0, PARAMS)
    net = shared_link_net(3)
    with pytest.raises(UserNotOnLink, match="user 'u3' is not on link 'L0'"):
        balance_term_three_user(net, random_profile(net, random.Random(4)), 0, 3, PARAMS)


def test_large_group_balance_term_ignores_own_message():
    net = shared_link_net(5)
    rng = random.Random(5)
    profile = random_profile(net, rng)
    base = balance_term_large_group(net, profile, 0, 2, PARAMS)
    for _ in range(100):
        tampered = dict(profile)
        tampered[2] = Message(rng.uniform(0, 2), {0: rng.uniform(0, 50)})
        assert balance_term_large_group(net, tampered, 0, 2, PARAMS) == base


def balance_term_large_group_reference(net, profile, link, user, params):
    """The O(n^3)-per-user triple loop over peers that the power-sum kernel
    replaced, kept as its oracle."""
    group = net.group(link)
    n = len(group)
    if n <= 3:
        raise WrongGroupSize(f"link {link} has {n} users, need more than 3")
    if user not in group:
        raise UserNotOnLink(f"user {user} is not on link {link}")
    others = [u for u in group if u != user]
    c = net.capacity(link)
    g = params.gamma
    p = {u: profile[u].prices[link] for u in others}
    x = {u: profile[u].rate for u in others}
    exc = {u: (n - 1) * x[u] - c for u in others}

    mean_p = sum(p.values()) / (n - 1)
    peer_excess = sum(x.values()) - c

    quad = 0.0
    pair_coupling = 0.0
    triple_coupling = 0.0
    for j in others:
        for k in others:
            if k == j:
                continue
            quad += 2.0 * p[j] * p[k] * (1.0 + x[j] / g) - x[j] * p[k]
            pair_coupling += 2.0 * p[k] * (p[j] * exc[k] - x[j] * p[k])
            for r in others:
                if r == j or r == k:
                    continue
                triple_coupling += 2.0 * p[k] * (p[j] * exc[r] - x[j] * p[r])
    quad /= (n - 1) * (n - 2)
    pair_coupling /= g * (n - 1) ** 2 * (n - 2)
    triple_coupling /= g * (n - 1) ** 2 * (n - 3)

    return (
        quad
        + triple_coupling
        + pair_coupling
        - sum(v * v for v in p.values()) / (n - 1)
        - mean_p * mean_p
        - 2.0 * peer_excess * mean_p * mean_p / g
    )


def _assert_matches_reference(net, profile, link, params):
    group = net.group(link)
    for user in group:
        peer_p2 = [profile[u].prices[link] ** 2 for u in group if u != user]
        scale = sum(peer_p2) / len(peer_p2)  # mean squared peer price
        ref = balance_term_large_group_reference(net, profile, link, user, params)
        got = balance_term_large_group(net, profile, link, user, params)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), scale), (link, user, got, ref)


@pytest.mark.parametrize("n, profiles", [(4, 20), (5, 20), (8, 20), (26, 3), (40, 1)])
def test_large_group_balance_term_matches_triple_loop(n, profiles):
    net = shared_link_net(n)
    rng = random.Random(100 + n)
    for k in range(profiles):
        profile = random_profile(net, rng, feasible=k % 2 == 0)
        _assert_matches_reference(net, profile, 0, PARAMS)


def test_large_group_balance_term_matches_triple_loop_at_equilibria():
    checked = 0
    for s in concave_suite():
        for link in s.net.links():
            if len(s.net.group(link)) > 3:
                _assert_matches_reference(s.net, s.profile, link, s.params)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 26, 100])
def test_large_group_tax_components_offset_balance_terms(n):
    # the non-balance parts sum to exactly minus the balance parts, and that
    # sum is genuinely nonzero: the balance terms earn their keep
    net = shared_link_net(n)
    rng = random.Random(n)
    nontrivial = 0
    for _ in range(40):
        profile = random_profile(net, rng)
        taxes = tax_link(net, profile, 0, PARAMS)
        non_balance = sum(t.price_part + t.incentive_part - t.penalty for t in taxes.values())
        balance = sum(t.balance_part for t in taxes.values())
        assert non_balance == pytest.approx(-balance, abs=1e-9)
        if abs(non_balance) > 1e-6:
            nontrivial += 1
    assert nontrivial > 30


def test_large_group_equal_prices_closed_form():
    n = 6
    net = shared_link_net(n)
    rng = random.Random(9)
    p = 0.8
    xs = [rng.uniform(0, 10.0 / n) for _ in range(n)]
    profile = {i: Message(xs[i], {0: p}) for i in range(n)}
    profile[n] = Message(0.1, {1: 0.1})
    taxes = tax_link(net, profile, 0, PARAMS)
    for i in range(n):
        mean_others = sum(xs[j] for j in range(n) if j != i) / (n - 1)
        assert taxes[i].total == pytest.approx(p * (xs[i] - mean_others), abs=1e-12)


def test_large_group_balance_term_wrong_size():
    net = shared_link_net(3)
    profile = random_profile(net, random.Random(6))
    with pytest.raises(WrongGroupSize, match="link 'L0' has 3 users, need more than 3"):
        balance_term_large_group(net, profile, 0, 0, PARAMS)
    net = shared_link_net(4)
    with pytest.raises(UserNotOnLink, match="user 'u4' is not on link 'L0'"):
        balance_term_large_group(net, random_profile(net, random.Random(6)), 0, 4, PARAMS)


# --- per-link taxes ----------------------------------------------------------


def test_pair_tax_equal_prices_feasible():
    net = shared_link_net(2)
    profile = {
        0: Message(3.0, {0: 2.0}),
        1: Message(4.0, {0: 2.0}),
        2: Message(0.0, {1: 0.0}),
    }
    taxes = tax_link(net, profile, 0, PARAMS)
    assert taxes[0].total == pytest.approx(6.0, abs=1e-12)
    assert taxes[1].total == pytest.approx(8.0, abs=1e-12)
    assert taxes[0].penalty == 0.0


def test_pair_tax_overload_penalty():
    net = shared_link_net(2)
    profile = {
        0: Message(6.0, {0: 2.0}),
        1: Message(5.0, {0: 2.0}),
        2: Message(0.0, {1: 0.0}),
    }
    taxes = tax_link(net, profile, 0, PARAMS)
    assert taxes[0].penalty == pytest.approx(penalty(True, True, PARAMS.epsilon))
    assert taxes[0].penalty == pytest.approx(1 / (2 * PARAMS.epsilon), rel=0.01)


def test_singleton_link_tax():
    net = build_network({"A": 5.0, "B": 1.0}, {1: ["A"], 2: ["B"]})
    profile = {0: Message(4.0, {0: 3.0}), 1: Message(0.5, {1: 1.0})}
    taxes = tax_link(net, profile, 0, PARAMS)
    assert taxes[0].total == 0.0


def test_dispatch_covers_every_group_size():
    import math

    for n in range(1, 9):
        net = shared_link_net(n)
        profile = random_profile(net, random.Random(n))
        taxes = tax_link(net, profile, 0, PARAMS)
        assert set(taxes) == set(net.group(0))
        for t in taxes.values():
            for v in (t.price_part, t.incentive_part, t.balance_part, t.penalty):
                assert math.isfinite(v)


def test_price_part_never_depends_on_own_price():
    rng = random.Random(13)
    for n in (2, 3, 5):
        net = shared_link_net(n)
        profile = random_profile(net, rng)
        base = tax_link(net, profile, 0, PARAMS)[0].price_part
        for _ in range(20):
            tampered = dict(profile)
            tampered[0] = with_price(profile[0], 0, rng.uniform(0, 50))
            assert tax_link(net, tampered, 0, PARAMS)[0].price_part == base


def test_penalty_trigger_boundary():
    net = shared_link_net(2, cap=10.0)
    by = Message(0.0, {1: 0.0})
    exact = {0: Message(4.0, {0: 1.0}), 1: Message(6.0, {0: 1.0}), 2: by}
    assert tax_link(net, exact, 0, PARAMS)[0].penalty == 0.0  # boundary is feasible
    over = {0: Message(4.0, {0: 1.0}), 1: Message(6.1, {0: 1.0}), 2: by}
    assert tax_link(net, over, 0, PARAMS)[0].penalty > 0.0
    zero_rate = {0: Message(0.0, {0: 1.0}), 1: Message(10.5, {0: 1.0}), 2: by}
    assert tax_link(net, zero_rate, 0, PARAMS)[0].penalty == 0.0  # idle users never pay it
    assert tax_link(net, zero_rate, 0, PARAMS)[1].penalty > 0.0


# --- two-user subsidies -------------------------------------------------------


def test_link_subsidy_equal_prices():
    net = shared_link_net(2)
    p = 1.7
    profile = {
        0: Message(2.0, {0: p}),
        1: Message(3.0, {0: p}),
        2: Message(0.0, {1: 0.0}),
    }
    assert link_subsidy(net, profile, 0, PARAMS) == pytest.approx(-p * 5.0, abs=1e-12)


def test_link_subsidy_cancels_pair_taxes_exactly():
    net = shared_link_net(2)
    rng = random.Random(17)
    for _ in range(500):
        profile = random_profile(net, rng)
        taxes = tax_link(net, profile, 0, PARAMS)
        q = link_subsidy(net, profile, 0, PARAMS)
        assert (taxes[0].total + taxes[1].total) + q == 0.0


def test_link_subsidy_zero_rates_closed_form():
    net = shared_link_net(2, cap=4.0)
    rng = random.Random(19)
    for _ in range(50):
        pi, pj = rng.uniform(0, 5), rng.uniform(0, 5)
        profile = {
            0: Message(0.0, {0: pi}),
            1: Message(0.0, {0: pj}),
            2: Message(0.0, {1: 0.0}),
        }
        q = link_subsidy(net, profile, 0, PARAMS)
        d2 = (pi - pj) ** 2
        expected = -2 * d2 / PARAMS.alpha + 2 * 4.0 * d2 / PARAMS.gamma
        assert q == pytest.approx(expected, abs=1e-12)


def test_link_subsidy_wrong_group_size():
    net = shared_link_net(3)
    profile = random_profile(net, random.Random(23))
    with pytest.raises(WrongGroupSize, match="link 'L0' has 3 users, need 2"):
        link_subsidy(net, profile, 0, PARAMS)


def test_link_subsidy_ignores_recipient_message():
    net = shared_link_net(2)
    rng = random.Random(29)
    profile = random_profile(net, rng)
    base = link_subsidy(net, profile, 0, PARAMS)
    for _ in range(50):
        tampered = dict(profile)
        tampered[2] = Message(rng.uniform(0, 5), {1: rng.uniform(0, 50)})
        assert link_subsidy(net, tampered, 0, PARAMS) == base


def test_assign_subsidies_unique_candidate():
    net = shared_link_net(2)
    assert assign_subsidies(net, 0) == {0: 2}


def test_assign_subsidies_deterministic_and_eligible():
    links = {"L0": 2.0, "L1": 2.0, "L2": 3.0}
    routes = {f"u{i}": ["L0"] if i < 2 else ["L2"] for i in range(5)}
    routes["u5"] = ["L1"]
    routes["u6"] = ["L1"]
    net = build_network(links, routes)
    a1 = assign_subsidies(net, 99)
    a2 = assign_subsidies(net, 99)
    assert a1 == a2
    for link, recipient in a1.items():
        assert recipient not in net.group(link)
    picks = {assign_subsidies(net, seed)[0] for seed in range(40)}
    assert len(picks) > 1  # genuinely random across seeds


def test_assign_subsidies_no_candidate():
    net = build_network({"A": 1.0}, {1: ["A"], 2: ["A"]})
    with pytest.raises(NoEligibleRecipient):
        assign_subsidies(net, 0)


# --- profile validation -------------------------------------------------------


def test_validate_profile_closed_box(golden_net, golden_params):
    profile = {
        0: Message(1.0, {0: golden_params.price_bound}),  # both at the boundary
        1: Message(0.0, {0: 0.0}),
        2: Message(2.0, {1: 1.0}),
    }
    validate_profile(golden_net, profile, golden_params)


def test_validate_profile_errors(golden_net, golden_params):
    ok = {
        0: Message(0.5, {0: 1.0}),
        1: Message(0.5, {0: 1.0}),
        2: Message(0.5, {1: 1.0}),
    }
    bad_rate = dict(ok)
    bad_rate[0] = Message(1.5, {0: 1.0})
    with pytest.raises(RateOutOfBounds):
        validate_profile(golden_net, bad_rate, golden_params)
    bad_price = dict(ok)
    bad_price[0] = Message(0.5, {0: golden_params.price_bound * 2})
    with pytest.raises(PriceOutOfBounds):
        validate_profile(golden_net, bad_price, golden_params)
    bad_keys = dict(ok)
    bad_keys[0] = Message(0.5, {0: 1.0, 1: 1.0})
    with pytest.raises(RouteMismatch):
        validate_profile(golden_net, bad_keys, golden_params)
    with pytest.raises(RouteMismatch):
        validate_profile(golden_net, {0: ok[0]}, golden_params)


# --- outcome ------------------------------------------------------------------


def test_outcome_all_zero_profile(golden_net, golden_params, golden_subsidies):
    profile = {
        0: Message(0.0, {0: 1.0}),
        1: Message(0.0, {0: 1.0}),
        2: Message(0.0, {1: 1.0}),
    }
    alloc = outcome(golden_net, profile, golden_params, golden_subsidies)
    assert all(t == 0.0 for t in alloc.taxes.values())


def test_outcome_budget_balance_random(golden_net, golden_params, golden_subsidies):
    rng = random.Random(31)
    for _ in range(200):
        profile = random_profile(golden_net, rng)
        alloc = outcome(golden_net, profile, golden_params, golden_subsidies)
        total = sum(alloc.taxes.values())
        scale = 1.0 + sum(abs(t) for t in alloc.taxes.values())
        assert abs(total) <= 1e-9 * scale


def test_outcome_breakdown_consistency(golden_net, golden_params, golden_subsidies):
    rng = random.Random(37)
    profile = random_profile(golden_net, rng)
    alloc = outcome(golden_net, profile, golden_params, golden_subsidies)
    for u in golden_net.users():
        link_sum = sum(
            lt.total for (user, _), lt in alloc.breakdown.link_taxes.items() if user == u
        )
        assert alloc.taxes[u] == pytest.approx(
            link_sum - alloc.breakdown.subsidies[u], abs=1e-12
        )
    assert alloc.rates == {u: profile[u].rate for u in golden_net.users()}


def test_outcome_requires_complete_subsidies(golden_net, golden_params):
    profile = {
        0: Message(0.2, {0: 1.0}),
        1: Message(0.2, {0: 1.0}),
        2: Message(0.2, {1: 1.0}),
    }
    with pytest.raises(MechanismError, match=r"covers links \[\], expected \['A'\]"):
        outcome(golden_net, profile, golden_params, {})
    with pytest.raises(MechanismError, match="recipient 'u2' sits on its own link 'A'"):
        outcome(golden_net, profile, golden_params, {0: 1})


def test_outcome_without_a_table_validates_the_profile(golden_net, golden_params, golden_subsidies):
    # a given table was built by own_tax_table, which validated the profile;
    # without one, outcome checks the profile itself
    out_of_box = {
        0: Message(1.5, {0: 1.0}),  # above the unit link's capacity
        1: Message(0.2, {0: 1.0}),
        2: Message(0.2, {1: 1.0}),
    }
    with pytest.raises(RateOutOfBounds, match="user 'u1': rate 1.5 outside"):
        outcome(golden_net, out_of_box, golden_params, golden_subsidies)


def test_infeasible_profile_still_allocates(golden_net, golden_params, golden_subsidies):
    profile = {
        0: Message(0.9, {0: 1.0}),
        1: Message(0.9, {0: 1.0}),  # joint overload on the unit link
        2: Message(0.0, {1: 0.0}),
    }
    alloc = outcome(golden_net, profile, golden_params, golden_subsidies)
    assert alloc.breakdown.link_taxes[(0, 0)].penalty > 1e5
    assert alloc.breakdown.link_taxes[(1, 0)].penalty > 1e5


def test_params_validation():
    with pytest.raises(MechanismError):
        MechanismParams(alpha=0.0, gamma=1.0, epsilon=1e-6, price_bound=1.0)
    with pytest.raises(MechanismError):
        MechanismParams(alpha=1.0, gamma=1.0, epsilon=0.7, price_bound=1.0)
    with pytest.raises(MechanismError):
        MechanismParams(alpha=1.0, gamma=1.0, epsilon=1e-6, price_bound=0.0)


# --- law-style properties ------------------------------------------------------

_MESH_NET = build_network(
    {"L0": 3.0, "L1": 2.0, "L2": 1.0},
    {
        "a": ["L0"],
        "b": ["L0", "L1"],
        "c": ["L0", "L1"],
        "d": ["L0", "L2"],
        "e": ["L1"],
    },
)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    st.lists(st.floats(0.0, 4.0), min_size=9, max_size=9),
)
@settings(max_examples=150, deadline=None)
def test_budget_balance_is_a_law(weights, prices):
    # scale arbitrary non-negative requests into the feasible region, then
    # taxes must cancel no matter what anyone posted as prices
    caps = [3.0, 2.0, 1.0]
    shrink = 1.0
    for l in _MESH_NET.links():
        load = sum(weights[u] for u in _MESH_NET.group(l))
        if load > 0:
            shrink = min(shrink, caps[l] / load)
    it = iter(prices)
    profile = {
        u: Message(
            rate=weights[u] * shrink,
            prices={l: next(it) for l in _MESH_NET.route(u)},
        )
        for u in _MESH_NET.users()
    }
    alloc = outcome(_MESH_NET, profile, PARAMS, assign_subsidies(_MESH_NET, 5))
    total = sum(alloc.taxes.values())
    assert abs(total) <= 1e-9 * (1.0 + sum(abs(t) for t in alloc.taxes.values()))


@given(st.floats(0.0, 4.0), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_balance_terms_never_read_the_own_message(own_price, own_rate, seed):
    net = shared_link_net(5)
    profile = random_profile(net, random.Random(seed))
    base = balance_term_large_group(net, profile, 0, 1, PARAMS)
    tampered = dict(profile)
    tampered[1] = Message(min(own_rate, 2.0), {0: own_price})
    assert balance_term_large_group(net, tampered, 0, 1, PARAMS) == base


def test_tax_internals_are_not_exported_from_the_package_root():
    import nash_unicast
    from nash_unicast import mechanism

    internals = ("indicator", "penalty", "tax_link", "link_subsidy")
    for name in internals + ("balance_term_three_user", "balance_term_large_group"):
        assert not hasattr(nash_unicast, name), name
        assert callable(getattr(mechanism, name)), name

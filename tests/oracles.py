"""Former implementations kept as oracles for the tests that pin their
replacements bit for bit, and functions only the tests use.

``sigmoid_demand_numpy`` is the sigmoid demand as it ran before it took
the best of its ends and its interior candidates: a 65-point scan, then a
golden-section refinement on numpy scalars. ``own_tax_terms_reference``
walks a link's group once per peer statistic and once more for the
large-group balance term, as ``own_tax_terms`` did before it walked the
group once. ``best_response_gap_reference`` is the best response as a
grid search, one user at a time: ``br_grid`` evenly spaced rates, the
current rate and the ``analytic_rate``, each shared link at
``vertex_price_reference``, as the audit searched before its search
became exact; at 20001 rates it is the lower bound that search must meet.
``closed_form_reference`` walks the peers for their mean rate, as the
audit's closed-form check did before it read ``peer_rate_sum``.
``competitive_gap_grid_reference`` is the audit's competitive gap by a scan
of each user's rates on a grid instead of its ``demand``.
``tax_slope_finite_difference`` is the audit's derivative check as a finite
difference of the tax, as it ran before it read the slope in closed form.

``zero_tax_deviation_price`` (the exact exit deviation of the
individual-rationality checks), ``brute_force_centralized`` (the grid oracle
for the dual solver), ``with_rate`` and ``with_price`` serve the tests only.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from nash_unicast.equilibrium import posted_prices
from nash_unicast.mechanism import (
    MechanismError,
    Message,
    OwnTaxTerms,
    WrongGroupSize,
    _cyclic_peers,
    _not_on_link,
    eval_own_tax,
    indicator,
    own_tax_parts,
    own_tax_terms,
    penalty,
)
from nash_unicast.network import min_route_capacity
from nash_unicast.solver import SolverError
from nash_unicast.utilities import demand, value


class GridTooLarge(SolverError):
    pass


def with_rate(message, rate):
    """``message`` with its rate request replaced."""
    return replace(message, rate=rate)


def with_price(message, link, price):
    """``message`` with its price on ``link`` replaced."""
    return replace(message, prices={**message.prices, link: price})


def tax_slope_finite_difference(t, x, p):
    """The left-sided slope of a user's link tax in its own rate ``x`` at
    own price ``p``, from two ``eval_own_tax`` calls a step h apart, h =
    min(1e-6*(1 + x), x), as the audit's derivative check measured it before
    it read the slope in closed form. Returns (slope, h)."""
    h = min(1e-6 * (1.0 + x), x)
    return (float(eval_own_tax(t, x, p)) - float(eval_own_tax(t, x - h, p))) / h, h


def vertex_price_reference(t, x, bound):
    """``_vertex_price`` on scalar terms, branching once on the curvature."""
    pull = t.peer_price_mean * (t.peer_excess + x)
    curvature = t.gamma * t.quad_weight
    if curvature == 0.0:
        return np.where(pull > 0.0, bound, np.where(pull < 0.0, 0.0, t.peer_price_mean))
    with np.errstate(over="ignore"):
        return np.minimum(np.maximum(t.peer_price_mean + pull / curvature, 0.0), bound)


def analytic_rate(u, terms, hs, room):
    """The rate response at the current prices, given each route link's
    terms and h at its current price: a ``demand`` evaluation at the
    marginal own cost (each shared link's price coefficient plus its h)
    below the rate beyond which some link's overload penalty fires. The
    grid search's added candidate, as ``equilibrium`` read it before its
    search became exact."""
    slope = 0.0
    for t, h in zip(terms, hs):
        if t.group_size == 1:
            continue
        slope += (t.peer_price_mean + t.price_adjust) + h
        room = min(room, max(-t.peer_excess, 0.0))
    return demand(u, max(slope, 0.0), room)


def best_response_gap_reference(net, utilities, profile, user, params, br_grid, table):
    """One user's best message and gain: its ``br_grid`` rates over [0, route
    capacity], its current rate and the analytic rate, each shared link at
    its vertex price, the route taxes summed from 0 in route order. The
    first best rate wins, each shared link at its vertex price there and
    each singleton link at price 0. Returns (message, gain)."""
    u, cur, route = utilities[user], profile[user], net.route(user)
    ts = [table[(user, l)] for l in route]
    v_cur = float(value(u, cur.rate))
    cur_pay = v_cur - sum(float(eval_own_tax(t, cur.rate, cur.prices[l])) for l, t in zip(route, ts))
    hs = [own_tax_parts(t, cur.rate, cur.prices[l])[3] for l, t in zip(route, ts)]
    cap = min_route_capacity(net, user)
    x_best = analytic_rate(u, ts, hs, cap)
    rates = np.append(np.linspace(0.0, cap, br_grid), (cur.rate, x_best))
    vertices = [vertex_price_reference(t, rates, params.price_bound) for t in ts]
    tax = sum(
        eval_own_tax(t, rates, cur.prices[l] if t.group_size == 1 else v)
        for l, t, v in zip(route, ts, vertices)
    )
    pays = value(u, rates) - tax
    k = int(np.argmax(pays))
    prices = {l: 0.0 if t.group_size == 1 else float(v[k]) for l, t, v in zip(route, ts, vertices)}
    return Message(rate=float(rates[k]), prices=prices), float(pays[k]) - cur_pay


def closed_form_reference(net, profile, link, user, params, p):
    """The closed-form equilibrium tax at posted price ``p``, with the peers'
    mean rate from a walk over the group."""
    group = net.group(link)
    n = len(group)
    if n == 1:
        return 0.0
    x = profile[user].rate
    if n == 2:
        return p * x
    others = [u for u in group if u != user]
    mean_others = sum(profile[u].rate for u in others) / (n - 1)
    if n > 3:
        return p * (x - mean_others)
    j, k = _cyclic_peers(group, user)
    xj, xk = profile[j].rate, profile[k].rate
    return p * (x - 0.5 * (xj + xk)) + p * p * (xk - xj) / (2.0 * params.gamma)


def competitive_gap_grid_reference(net, utilities, profile, grid_step):
    """The competitive gap by grid scan: for each user, the best payoff over
    rates every ``grid_step`` on [0, its route capacity] (the capacity
    itself included) at its route's price, the sum of its links'
    ``posted_prices``, less the payoff of its own rate at that price.
    Returns the largest such gap over users, negative where every user's
    rate beats the whole grid."""
    posted = posted_prices(net, profile)
    worst = -math.inf
    for i in net.users():
        cap = min_route_capacity(net, i)
        price = sum(posted[l] for l in net.route(i))
        grid = np.arange(0, int(math.floor(cap / grid_step + 1e-9)) + 1) * grid_step
        if cap - grid[-1] > 1e-12:
            grid = np.append(grid, cap)
        best = float(np.max(np.asarray(value(utilities[i], grid), dtype=float) - price * grid))
        x = profile[i].rate
        worst = max(worst, best - (float(value(utilities[i], x)) - price * x))
    return worst


def sigmoid_demand_numpy(u, price, cap):
    """The sigmoid demand with its golden-section search on numpy scalars."""
    if price == 0.0:
        return cap

    def f(x):
        return u.a * x * x / (u.b + x * x) - price * x

    grid = np.linspace(0.0, cap, 65)
    vals = u.a * grid * grid / (u.b + grid * grid) - price * grid
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    best = 0.5 * (lo + hi)
    candidates = [0.0, cap, best]
    return min(candidates, key=lambda x: (-f(x), x))


def own_tax_terms_reference(net, profile, link, user, params):
    """``own_tax_terms`` as it walked the group once for the peers' list,
    once per builtin ``sum`` of their prices and rates, and once more in the
    large-group balance term's own loop."""
    group = net.group(link)
    if user not in group:
        raise _not_on_link(net, user, link)
    n = len(group)
    c = net.capacity(link)
    others = [u for u in group if u != user]
    mean_p = sum(profile[u].prices[link] for u in others) / (n - 1) if others else 0.0
    adjust = balance = 0.0
    if n == 3:
        j, k = _cyclic_peers(group, user)
        pj, pk = profile[j].prices[link], profile[k].prices[link]
        adjust = pk * (pj - pk) / params.gamma
        balance = _three_user_balance_reference(profile, link, j, k, c, params.gamma)
    elif n > 3:
        balance = _large_group_balance_reference(net, profile, link, user, params)
    eps = params.epsilon
    return OwnTaxTerms(
        group_size=n,
        capacity=c,
        gamma=params.gamma,
        peer_price_mean=mean_p,
        price_adjust=adjust,
        quad_weight={1: 0.0, 2: 1.0 / params.alpha}.get(n, 1.0),
        peer_rate_sum=sum((profile[u].rate for u in others), 0.0),
        peer_excess=sum(profile[u].rate for u in others) - c,
        balance_const=balance,
        penalty_both=penalty(True, True, eps),
        penalty_single=indicator(True, eps) / (1.0 - indicator(True, eps)),
    )


def _three_user_balance_reference(profile, link, j, k, c, g):
    pj, xj = profile[j].prices[link], profile[j].rate
    pk, xk = profile[k].prices[link], profile[k].rate
    mean_p = 0.5 * (pj + pk)
    peer_excess = xj + xk - c

    pairs = ((pj, xj, pk, xk), (pk, xk, pj, xj))
    quad_pairs = sum(2.0 * pr * ps * (1.0 + xr / g) - xr * ps for pr, xr, ps, _ in pairs) / 2.0
    coupling_pairs = sum(
        2.0 * ps * (pr * (2.0 * xs - c) - xr * ps) for pr, xr, ps, xs in pairs
    ) / (4.0 * g)
    lead = (pj * pj * xk - c * pj * pk) / g
    return (
        lead
        + quad_pairs
        + coupling_pairs
        - 0.5 * (pj * pj + pk * pk)
        - mean_p * mean_p
        - 2.0 * peer_excess * mean_p * mean_p / g
    )


def _large_group_balance_reference(net, profile, link, user, params):
    group = net.group(link)
    c = net.capacity(link)
    g = params.gamma
    m = len(group) - 1
    p1 = p2 = x1 = px = p2x = 0.0
    for u in group:
        if u == user:
            continue
        p, x = profile[u].prices[link], profile[u].rate
        p1 += p
        p2 += p * p
        x1 += x
        px += p * x
        p2x += p * p * x
    e1 = m * x1 - m * c
    pe = m * px - c * p1
    p2e = m * p2x - c * p2

    quad = 2.0 * (p1 * p1 - p2) + (2.0 / g) * (px * p1 - p2x) - (x1 * p1 - px)
    pair_coupling = 2.0 * (p1 * pe - p2e) - 2.0 * (x1 * p2 - p2x)
    triple_coupling = 2.0 * (p1 * p1 * e1 - p2 * e1 - 2.0 * pe * p1 + 2.0 * p2e) - 2.0 * (
        x1 * p1 * p1 - 2.0 * px * p1 - p2 * x1 + 2.0 * p2x
    )
    quad /= m * (m - 1)
    pair_coupling /= g * m**2 * (m - 1)
    triple_coupling /= g * m**2 * (m - 2)

    mean_p = p1 / m
    return (
        quad
        + triple_coupling
        + pair_coupling
        - p2 / m
        - mean_p * mean_p
        - 2.0 * (x1 - c) * mean_p * mean_p / g
    )


def zero_tax_deviation_price(net, profile, link, user, params):
    """The own link price at which requesting a zero rate costs exactly nothing,
    with everyone else fixed at a uniform-price profile.

    For a two-user link that price is simply the peer's price. For larger
    groups the zero-rate tax is a quadratic in the own price whose larger
    root is returned; it is always non-negative.
    """
    if len(net.group(link)) == 1:
        raise WrongGroupSize(
            f"link {net.link_labels[link]!r} has a single user; no deviation price is defined"
        )
    t = own_tax_terms(net, profile, link, user, params)
    pstar, excess = t.peer_price_mean, t.peer_excess
    if t.group_size == 2:
        return pstar
    g = params.gamma
    half_b = -pstar * (1.0 + excess / g)
    c0 = pstar * pstar * (1.0 + 2.0 * excess / g) + t.balance_const
    disc = half_b * half_b - c0
    if disc < 0.0:
        raise MechanismError(
            f"zero-rate tax never crosses zero on link {net.link_labels[link]!r}"
            f" for user {net.user_labels[user]!r}"
        )
    return max(-half_b + math.sqrt(disc), 0.0)


def brute_force_centralized(net, utilities, grid_step):
    """Exhaustive grid search over feasible rate vectors; the independent
    oracle for the dual solver.

    Every user's axis is {0, h, 2h, ...} up to its route cap. The last user
    is closed in O(1) per point via running maxima of its utility, so the
    enumerated work is the product of the remaining axes; that product is
    guarded at 1e8 combinations.
    """
    if not grid_step > 0.0:
        raise SolverError(f"grid_step must be positive, got {grid_step}")
    users = list(net.users())
    h = grid_step
    axes = []
    for i in users:
        npts = int(math.floor(min_route_capacity(net, i) / h + 1e-9)) + 1
        axes.append(np.arange(npts) * h)
    work = 1
    for ax in axes[:-1]:
        work *= len(ax)
    if work > 1e8:
        raise GridTooLarge(f"{work:.2e} grid combinations exceed the 1e8 guard")

    last = users[-1]
    u_last = np.asarray(value(utilities[last], axes[-1]), dtype=float)
    prefix_best = np.maximum.accumulate(u_last)
    shifted = np.concatenate(([-np.inf], prefix_best[:-1]))
    prefix_arg = np.maximum.accumulate(np.where(u_last > shifted, np.arange(len(u_last)), -1))

    best_val = -math.inf
    best_rates = {}
    capacities = [net.capacity(l) for l in net.links()]
    on_link = [set(net.group(l)) for l in net.links()]

    def close_last_two(depth_user_idx, acc_val, fixed, remaining):
        nonlocal best_val, best_rates
        s = users[depth_user_idx]
        xs = axes[depth_user_idx]
        ok = np.ones(len(xs), dtype=bool)
        for l in net.route(s):
            ok &= xs <= remaining[l] + 1e-9
        cap_last = np.full(len(xs), math.inf)
        for l in net.route(last):
            room = remaining[l] - (xs if s in on_link[l] else 0.0)
            cap_last = np.minimum(cap_last, room)
        idx = np.floor((cap_last + 1e-9) / h).astype(int)
        ok &= idx >= 0
        if not ok.any():
            return
        idx = np.clip(idx, 0, len(u_last) - 1)
        totals = np.where(
            ok,
            acc_val + np.asarray(value(utilities[s], xs), dtype=float) + prefix_best[idx],
            -math.inf,
        )
        j = int(np.argmax(totals))
        if totals[j] > best_val:
            best_val = float(totals[j])
            rates = dict(fixed)
            rates[s] = float(xs[j])
            rates[last] = float(axes[-1][prefix_arg[idx[j]]])
            best_rates = rates

    def recurse(depth, acc_val, fixed, remaining):
        if depth == len(users) - 2:
            close_last_two(depth, acc_val, fixed, remaining)
            return
        i = users[depth]
        for x in axes[depth]:
            if any(x > remaining[l] + 1e-9 for l in net.route(i)):
                break  # axes ascend, nothing larger fits either
            nxt = list(remaining)
            for l in net.route(i):
                nxt[l] -= x
            fixed[i] = float(x)
            recurse(depth + 1, acc_val + float(value(utilities[i], x)), fixed, nxt)
        fixed.pop(users[depth], None)

    if len(users) == 1:
        j = int(np.argmax(u_last))
        return {last: float(axes[-1][j])}
    recurse(0, 0.0, {}, capacities)
    return best_rates

"""Equilibrium construction and auditing.

``construct_ne`` turns the centralized solution into a message profile: each
user requests its optimal rate and posts the link multipliers as prices.
``audit`` measures every equilibrium property of a candidate profile without
judging it: price uniformity, complementary slackness, left-sided tax
derivatives against the link price, a best-response gap, individual
rationality, budget balance, and agreement of the taxes with their
equilibrium closed forms. Each link's posted price is computed once per audit.

The audit's best response (``_best_response_gap``) tries a few own rates:
each user's rate axis of a ``DeviationGrid``, its current rate and the
analytic rate response (``_analytic_rate``). At a fixed own rate a link's tax
is a convex quadratic in the own price, so each link's best price is that
quadratic's vertex clipped to the price box (``_vertex_price``), and the
route's best tax is the sum of the links'.

``best_deviation`` is the move rule of best-response dynamics: a grid search
over rates and prices, on axes that depend only on the static game (a
``DeviationGrid``, built once per dynamics run by ``deviation_grid``, one
row per user). It rests on a link tax separating into a rate part, a price
part and a rate-times-price coupling, so a user's whole rate-by-price lattice
is the outer sum of three per-route vectors. Each price column has a bound
that no float entry of it can exceed (its coupling is least at rate 0 or at
the top rate, and rounding is monotone), so only the columns whose bound
reaches the best column's max are evaluated; the result is the full
lattice's, bit for bit. Discrete prices are what let play settle.
``check_walrasian`` grid-checks that every user's rate maximizes its payoff
at the posted prices over the rates the others leave available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .mechanism import (
    Allocation,
    MechanismError,
    MechanismParams,
    Message,
    MessageProfile,
    OwnTaxTerms,
    _cyclic_peers,
    eval_own_tax,
    own_tax_axes,
    own_tax_terms,
    validate_profile,
)

# Not called here: bench/spans.py wraps these names on this module.
from .mechanism import balance_term_large_group, balance_term_three_user, outcome  # noqa: F401
from .network import Network, is_feasible, link_load, min_route_capacity
from .solver import SolveResult, SolverConfig, _worse, solve_centralized, welfare
from .utilities import UtilitySpec, demand, payoff, value


class PriceBoundExceeded(MechanismError):
    pass


class NonUniformPrices(MechanismError):
    pass


@dataclass(frozen=True)
class NeAuditReport:
    """Measured equilibrium diagnostics; every field is a pure function of the
    inputs. Small is good everywhere except ``ir_min_payoff``."""

    feasibility: bool
    price_uniformity: float
    complementary_slackness: float
    tax_derivative_gap: float
    best_response_gap: float
    ir_min_payoff: float
    budget_gap: float
    corollary_tax_gap: float


@dataclass(frozen=True)
class DeviationGrid:
    """The search axes of the deviation searches, fixed by the static game:
    the price axis all users share, and one row per user id of its rate axis
    over its route capacity (``rates[u]``) and of the utility on that axis
    (``values[u]``). The arrays are read-only."""

    prices: np.ndarray
    rates: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class _FamilyRows:
    """One utility family with its parameters as columns, one row per user,
    so that ``value`` evaluates the rows of all those users in one call."""

    family: str
    a: np.ndarray
    b: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def deviation_grid(
    net: Network, utilities: Mapping[int, UtilitySpec], params: MechanismParams, br_grid: int
) -> DeviationGrid:
    """``br_grid`` points per axis: prices over [0, price_bound], each user's
    rates over [0, its route capacity], and V at those rates.

    Each row holds the bits of ``np.linspace(0.0, cap, br_grid)`` and of
    ``value`` on it, built in one call for all rows and one per utility
    family. Once any row's step underflows to 0, numpy's linspace takes its
    denormal path for every row it is given, so then the other rows are
    built again in a call of their own.
    """
    users = net.users()
    caps = np.array([min_route_capacity(net, u) for u in users], dtype=float)
    rates = np.linspace(0.0, caps, br_grid, axis=1)
    tiny = caps / (br_grid - 1) == 0.0
    if tiny.any():
        rates[~tiny] = np.linspace(0.0, caps[~tiny], br_grid, axis=1)
    by_family: Dict[str, List[int]] = {}
    for u in users:
        by_family.setdefault(utilities[u].family, []).append(u)
    values = np.empty_like(rates)
    for family, rows in by_family.items():
        a = np.array([[utilities[u].a] for u in rows])
        b = np.array([[utilities[u].b] for u in rows])
        values[rows] = value(_FamilyRows(family, a, b), rates[rows])
    return DeviationGrid(
        prices=_read_only(np.linspace(0.0, params.price_bound, br_grid)),
        rates=_read_only(rates),
        values=_read_only(values),
    )


@dataclass(frozen=True)
class WalrasianCheck:
    ok: bool
    argmax_distance: float
    payoff_gap: float


def construct_ne(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    params: MechanismParams,
    solver_config: SolverConfig | None = None,
    solve_result: SolveResult | None = None,
) -> MessageProfile:
    """Equilibrium profile from the centralized solution: optimal rates, link
    multipliers as uniform prices. Fails loudly if a multiplier does not fit
    under the price bound (enlarge it) rather than clamping silently."""
    res = solve_result if solve_result is not None else solve_centralized(net, utilities, solver_config)
    for l, lam in res.lambdas.items():
        if lam > params.price_bound + 1e-12:
            raise PriceBoundExceeded(
                f"multiplier {lam} on link {net.link_labels[l]!r} exceeds the price bound"
                f" {params.price_bound}"
            )
    profile = {
        i: Message(rate=res.rates[i], prices={l: res.lambdas[l] for l in net.route(i)})
        for i in net.users()
    }
    validate_profile(net, profile, params)
    return profile


def posted_link_price(net: Network, profile: MessageProfile, link: int) -> float:
    """Mean posted price on a link; equals the common price when uniform."""
    group = net.group(link)
    if not group:
        return 0.0
    return sum(profile[u].prices[link] for u in group) / len(group)


def ne_tax_closed_form(
    net: Network, profile: MessageProfile, link: int, user: int, params: MechanismParams
) -> float:
    """The link tax a uniform-price profile implies in closed form.

    Two users: price times own rate. More than three: price times the gap
    between the own rate and the peers' mean rate. Exactly three: the same
    plus an order-1/gamma skew between the two peers, the exact residue of
    the three-user balance term.
    """
    return _closed_form(net, profile, link, user, params, posted_link_price(net, profile, link))


def _closed_form(net, profile, link, user, params, p) -> float:
    """``ne_tax_closed_form`` at the link's posted price ``p``."""
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


def _lattice_argmax(
    xs: np.ndarray, a: np.ndarray, h_sum: np.ndarray, g_sum: np.ndarray
) -> Tuple[int, int, float]:
    """First max in row-major order (smallest rate, then price) of the lattice
    ``a[i] - (xs[i] * h_sum[j] + g_sum[j])`` over ascending rates ``xs >= 0``,
    as (i, j, value). Only the columns whose bound is not below the
    best-bounded column's max are filled; ties and NaN keep a column."""
    low_x = np.where(h_sum < 0.0, xs[-1], 0.0)
    bound = a.max() - (low_x * h_sum + g_sum)
    top = int(np.argmax(bound))
    floor = np.max(a - (xs * h_sum[top] + g_sum[top]))
    keep = np.flatnonzero(~(bound < floor))
    block = a[:, None] - (np.multiply.outer(xs, h_sum[keep]) + g_sum[keep])
    i, k = divmod(int(np.argmax(block)), len(keep))
    return i, int(keep[k]), float(block[i, k])


def _uniform_message(rate: float, price: float, route) -> Message:
    return Message(rate=rate, prices={l: price for l in route})


def _same(message: Message) -> Message:
    return message


def _analytic_rate(u: UtilitySpec, terms, hs, room: float) -> float:
    """The exact rate response at the current prices, given each route link's
    terms and h at its current price: the tax is linear in the own rate up to
    the overload wall, so the maximizer is a ``demand`` evaluation at the
    marginal own cost (each shared link's price coefficient plus its h) below
    the rate beyond which some link's overload penalty fires."""
    slope = 0.0
    for t, h in zip(terms, hs):
        if t.group_size == 1:
            continue
        slope += (t.peer_price_mean + t.price_adjust) + h
        room = min(room, max(-t.peer_excess, 0.0))
    return demand(u, max(slope, 0.0), room)


def _best_candidate(route, cur: Message, cur_pay: float, lattice, at_cur_prices, sweeps):
    """The best of one user's candidates, as (message, payoff, ``cur_pay``).

    ``lattice`` is the (payoff, rate, price) of the uniform-price lattice,
    ``at_cur_prices`` the (payoff, rate) pairs found holding the current
    prices, and ``sweeps`` the (payoff, price) of each route link's price
    sweep, in route order; the current message comes last. Ties break toward
    the smallest rate, then the lexicographically smallest price vector. Only
    the winner's message is built.
    """
    cur_prices = tuple(cur.prices[l] for l in route)
    pay0, x0, p0 = lattice
    best = (pay0, x0, (p0,) * len(route), partial(_uniform_message, x0, p0, route))
    cands = [(pay, x, cur_prices, partial(Message, x, cur.prices)) for pay, x in at_cur_prices]
    for l, (pay, p) in zip(route, sweeps):
        prices = tuple(p if m == l else cur.prices[m] for m in route)
        cands.append((pay, cur.rate, prices, partial(cur.with_price, l, p)))
    cands.append((cur_pay, cur.rate, cur_prices, partial(_same, cur)))
    for c in cands:
        if c[0] > best[0] or (c[0] == best[0] and c[1:3] < best[1:3]):
            best = c
    return best[3](), best[0], cur_pay


def best_deviation(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    user: int,
    params: MechanismParams,
    grid: DeviationGrid,
) -> Tuple[Message, float, float]:
    """Grid-argmax of one user's payoff over its own message box.

    ``grid`` is ``deviation_grid`` of the same network, utilities and params;
    it does not depend on the profile, so one grid serves every call of a
    dynamics run. Dynamics calls this one user at a time, because each move
    changes what the next user faces. It is the move rule of play only; the
    audit's best response prices each link in closed form
    (``_best_response_gap``).

    Candidates: a rate-by-uniform-price lattice spanning the whole box, a
    rate sweep holding the current prices (the price box is huge, so the
    uniform-price axis alone is too coarse to represent "ask for more at the
    going rate"), the analytic rate response at the current prices
    (``_analytic_rate``; a uniform grid cannot be trusted to straddle the
    exact maximizer), one single-link price sweep per route link off the
    current message, and the current message itself (so the reported best
    never loses to staying put). Subsidies received are omitted throughout;
    they do not depend on the user's own message. Ties break toward the
    smallest rate, then the lexicographically smallest price vector
    (``_best_candidate``).

    Each link tax splits as f(x) + g(p) + x*h(p) (``own_tax_axes``, built
    from the tax kernel ``own_tax_parts``), so the route's tax is fixed by
    three vectors summed over the route once: the lattice is their outer
    sum, and the sweeps are the same vectors with the other axis held at the
    current message. The lattice is searched by price column
    (``_lattice_argmax``). No entry of column j exceeds the same float
    operations at ``max(V - f)`` and at the rate where x*h(p_j) is least: 0
    if h >= 0, else the top rate, as rates are non-negative and ascending
    and rounding is monotone. Columns whose bound falls short of the
    best-bounded column's max are never filled, and the kept ones are filled
    with the lattice's own operations, so the argmax and its value are those
    of the full G-by-G lattice, bit for bit. The current payoff and the
    analytic candidate are evaluated exactly with ``eval_own_tax``.

    Returns (best message, best payoff, current payoff).
    """
    route = net.route(user)
    tables = [(l, own_tax_terms(net, profile, l, user, params)) for l in route]
    u = utilities[user]
    cur = profile[user]
    cur_tax = {l: float(eval_own_tax(t, cur.rate, cur.prices[l])) for l, t in tables}
    v_cur = float(value(u, cur.rate))
    cur_pay = v_cur - sum(cur_tax.values())

    xs, vs, ps = grid.rates[user], grid.values[user], grid.prices

    # per link: (f(xs), g(ps), h(ps)) on the grid and (f, g, h) at the
    # current (rate, price); the route sums of each
    on_grid = [own_tax_axes(t, xs, ps) for _, t in tables]
    at_cur = [tuple(map(float, own_tax_axes(t, cur.rate, cur.prices[l]))) for l, t in tables]
    # builtin sum adds the rows in order, starting from 0 as np.sum over a
    # stacked axis does, so the bits are the same without the stacking
    f_sum, g_sum, h_sum = (sum(rows) for rows in zip(*on_grid))
    _, g_cur, h_cur = (sum(vals) for vals in zip(*at_cur))

    i0, j0, lattice_pay = _lattice_argmax(xs, vs - f_sum, h_sum, g_sum)
    rate_pays = vs - (f_sum + g_cur + xs * h_cur)
    i1 = int(np.argmax(rate_pays))
    cap = min_route_capacity(net, user)
    x_best = _analytic_rate(u, [t for _, t in tables], [h for _, _, h in at_cur], cap)
    best_tax = sum(float(eval_own_tax(t, x_best, cur.prices[l])) for l, t in tables)
    at_cur_prices = [(float(rate_pays[i1]), float(xs[i1])), (float(value(u, x_best)) - best_tax, x_best)]

    sweeps = []
    for (l, _), (_, g, h), (f_at, _, _) in zip(tables, on_grid, at_cur):
        sweep = f_at + g + cur.rate * h
        other = sum(v for m, v in cur_tax.items() if m != l)
        pays = v_cur - other - sweep
        j = int(np.argmax(pays))
        sweeps.append((float(pays[j]), float(ps[j])))

    lattice = (lattice_pay, float(xs[i0]), float(ps[j0]))
    return _best_candidate(route, cur, cur_pay, lattice, at_cur_prices, sweeps)


def _vertex_price(t: OwnTaxTerms, x: np.ndarray, bound: float) -> np.ndarray:
    """The own price that minimises a shared link's tax at each own rate in
    ``x``, clipped to [0, ``bound``]: the vertex ``p + p*(peer_excess + x) /
    (gamma*quad_weight)`` of the tax's quadratic in the price, p the peers'
    mean price. Where ``gamma*quad_weight`` underflows to 0 the tax is linear
    in the price, so the best price is an end, or p at slope 0 (no 0/0)."""
    pull = t.peer_price_mean * (t.peer_excess + x)
    curvature = t.gamma * t.quad_weight
    if curvature == 0.0:
        return np.where(pull > 0.0, bound, np.where(pull < 0.0, 0.0, t.peer_price_mean))
    with np.errstate(over="ignore"):  # an overflowing quotient clips to an end
        return np.minimum(np.maximum(t.peer_price_mean + pull / curvature, 0.0), bound)


def _best_response_gap(net, utilities, profile, user: int, params, grid: DeviationGrid, terms) -> float:
    """How much one user gains (subsidies aside) by its best own message
    over its current one, as the audit measures it.

    ``terms`` maps (user, link) to ``own_tax_terms``, as ``audit`` builds it.
    The candidate rates are the user's rate axis of ``grid``, its current
    rate and the analytic rate response at the current prices
    (``_analytic_rate``). At each of them every shared link takes its
    ``_vertex_price``; a singleton link's tax does not depend on the price.
    Each candidate's route taxes are summed from 0.0 in route order before
    they are subtracted from V, as the current payoff's are.
    """
    u, cur, route = utilities[user], profile[user], net.route(user)
    ts = [terms[(user, l)] for l in route]
    v_cur = float(value(u, cur.rate))
    cur_pay = v_cur - sum(float(eval_own_tax(t, cur.rate, cur.prices[l])) for l, t in zip(route, ts))
    hs = [own_tax_axes(t, cur.rate, cur.prices[l])[2] for l, t in zip(route, ts)]
    x_best = _analytic_rate(u, ts, hs, min_route_capacity(net, user))
    rates = np.append(grid.rates[user], (cur.rate, x_best))
    values = np.append(grid.values[user], (v_cur, value(u, x_best)))
    tax = sum(
        eval_own_tax(t, rates, cur.prices[l] if t.group_size == 1 else _vertex_price(t, rates, params.price_bound))
        for l, t in zip(route, ts)
    )
    return float(np.max(values - tax)) - cur_pay


def audit(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    params: MechanismParams,
    alloc: Allocation,
    br_grid: int = 200,
) -> NeAuditReport:
    """Measure every equilibrium diagnostic of a valid profile. Reports only;
    callers decide what counts as passing.

    ``alloc`` is the profile's ``outcome`` under the scenario's subsidy
    assignment; its rates, taxes and per-link breakdown feed the
    feasibility, individual-rationality, budget and closed-form checks.
    ``br_grid`` is the number of grid rates each user's best response tries
    (``_best_response_gap``). The running maxima read a non-finite
    measurement as inf, so it never passes a bound.
    """
    validate_profile(net, profile, params)
    rates = alloc.rates
    terms = {(u, l): own_tax_terms(net, profile, l, u, params) for u in net.users() for l in net.route(u)}

    posted = {}
    uniformity = comp_slack = deriv_gap = 0.0
    for l in net.links():
        group = net.group(l)
        if not group:
            continue
        p_link = posted[l] = posted_link_price(net, profile, l)
        excess = link_load(net, rates, l) - net.capacity(l)
        comp_slack = _worse(comp_slack, p_link * abs(excess) / params.gamma)
        if len(group) < 2:
            continue
        prices = [profile[u].prices[l] for u in group]
        uniformity = _worse(uniformity, max(prices) - min(prices))
        for user in group:
            x = profile[user].rate
            if x <= 1e-12:
                continue  # no room for a left-sided step
            h = min(1e-6 * (1.0 + x), x)
            t = terms[(user, l)]
            p_own = profile[user].prices[l]
            fd = (float(eval_own_tax(t, x, p_own)) - float(eval_own_tax(t, x - h, p_own))) / h
            deriv_gap = _worse(deriv_gap, abs(fd - p_link))

    br_gap = 0.0
    grid = deviation_grid(net, utilities, params, br_grid)
    for user in net.users():
        br_gap = _worse(br_gap, _best_response_gap(net, utilities, profile, user, params, grid, terms))

    ir_min = min(payoff(utilities[i], rates[i], alloc.taxes[i]) for i in net.users())
    budget_gap = abs(sum(alloc.taxes.values()))

    corr_gap = 0.0
    for (user, l), lt in alloc.breakdown.link_taxes.items():
        expected = _closed_form(net, profile, l, user, params, posted[l])
        corr_gap = _worse(corr_gap, abs(lt.total - expected))

    return NeAuditReport(
        feasibility=is_feasible(net, rates),
        price_uniformity=uniformity,
        complementary_slackness=comp_slack,
        tax_derivative_gap=deriv_gap,
        best_response_gap=br_gap,
        ir_min_payoff=ir_min,
        budget_gap=budget_gap,
        corollary_tax_gap=corr_gap,
    )


def check_optimality(
    utilities: Mapping[int, UtilitySpec],
    alloc: Allocation,
    solve_result: SolveResult,
) -> Tuple[bool, float]:
    """Does a profile's allocation ``alloc`` (its ``outcome``) attain the
    centralized optimum?

    True iff the welfare gap against the certified solver objective is within
    1e-6 (relative) and the taxes net out to zero within 1e-6.
    """
    w = welfare(utilities, alloc.rates)
    gap = abs(w - solve_result.objective) / max(1.0, abs(solve_result.objective))
    balanced = abs(sum(alloc.taxes.values())) <= 1e-6
    return (gap <= 1e-6 and balanced), gap


def check_walrasian(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    grid_step: float,
) -> Dict[int, WalrasianCheck]:
    """Grid-check the competitive property of a uniform-price profile.

    For each user, scan rates over what the others leave available on its
    route and compare payoffs at the posted prices. Passes when the user's
    rate sits within one grid step of the scanned argmax and its payoff is
    within 1e-6 of the scanned maximum.
    """
    link_price = {}
    for l in net.links():
        group = net.group(l)
        if not group:
            link_price[l] = 0.0
            continue
        prices = [profile[u].prices[l] for u in group]
        if max(prices) - min(prices) > 1e-9:
            raise NonUniformPrices(
                f"link {net.link_labels[l]!r} prices spread {max(prices) - min(prices)}"
            )
        link_price[l] = prices[0]

    out: Dict[int, WalrasianCheck] = {}
    for i in net.users():
        room = min(
            net.capacity(l) - sum(profile[j].rate for j in net.group(l) if j != i)
            for l in net.route(i)
        )
        room = max(room, 0.0)
        total_price = sum(link_price[l] for l in net.route(i))
        grid = np.arange(0, int(math.floor(room / grid_step + 1e-9)) + 1) * grid_step
        if room - grid[-1] > 1e-12:
            grid = np.append(grid, room)
        vals = np.asarray(value(utilities[i], grid), dtype=float) - total_price * grid
        best = float(np.max(vals))
        argmaxes = grid[vals >= best - 1e-12]
        x = profile[i].rate
        dist = float(np.min(np.abs(argmaxes - x)))
        pay_gap = best - (float(value(utilities[i], x)) - total_price * x)
        out[i] = WalrasianCheck(
            ok=(dist <= grid_step + 1e-12 and pay_gap <= 1e-6),
            argmax_distance=dist,
            payoff_gap=pay_gap,
        )
    return out

"""Former implementations kept as oracles for the tests that pin their
replacements bit for bit.

``best_deviation_reference`` builds its rate and price axes and V on the rate
axis inside every call, as ``best_deviation`` did before it took them from a
``DeviationGrid``. ``sigmoid_demand_numpy`` runs the golden-section refinement
of the sigmoid demand on numpy scalars, as ``demand`` did before it refined on
Python floats.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from nash_unicast.equilibrium import _lattice_argmax
from nash_unicast.mechanism import Message, eval_own_tax, own_tax_axes, own_tax_terms
from nash_unicast.network import min_route_capacity
from nash_unicast.utilities import demand, value


def best_deviation_reference(net, utilities, profile, user, params, br_grid):
    """``best_deviation`` with its grid built per call from ``br_grid``."""
    route = net.route(user)
    tables = [(l, own_tax_terms(net, profile, l, user, params)) for l in route]
    u = utilities[user]
    cur = profile[user]
    cur_tax = {l: float(eval_own_tax(t, cur.rate, cur.prices[l])) for l, t in tables}
    v_cur = float(value(u, cur.rate))
    cur_pay = v_cur - sum(cur_tax.values())
    cur_prices = tuple(cur.prices[m] for m in route)

    cap = min_route_capacity(net, user)
    xs = np.linspace(0.0, cap, br_grid)
    ps = np.linspace(0.0, params.price_bound, br_grid)
    vs = np.asarray(value(u, xs), dtype=float)

    on_grid = [own_tax_axes(t, xs, ps) for _, t in tables]
    at_cur = [tuple(map(float, own_tax_axes(t, cur.rate, cur.prices[l]))) for l, t in tables]
    f_sum, g_sum, h_sum = (sum(rows) for rows in zip(*on_grid))
    _, g_cur, h_cur = (sum(vals) for vals in zip(*at_cur))

    i0, j0, lattice_pay = _lattice_argmax(xs, vs - f_sum, h_sum, g_sum)
    x0, p0 = float(xs[i0]), float(ps[j0])
    cands = [
        (
            lattice_pay,
            x0,
            tuple(p0 for _ in route),
            lambda: Message(rate=x0, prices={l: p0 for l in route}),
        )
    ]

    rate_pays = vs - (f_sum + g_cur + xs * h_cur)
    i1 = int(np.argmax(rate_pays))
    x1 = float(xs[i1])
    cands.append((float(rate_pays[i1]), x1, cur_prices, partial(cur.with_rate, x1)))

    slope = 0.0
    room = cap
    for (_, t), (_, _, h) in zip(tables, at_cur):
        if t.group_size == 1:
            continue
        slope += (t.peer_price_mean + t.price_adjust) + h
        room = min(room, max(-t.peer_excess, 0.0))
    x_best = demand(u, max(slope, 0.0), room)
    best_tax = sum(float(eval_own_tax(t, x_best, cur.prices[l])) for l, t in tables)
    cands.append(
        (float(value(u, x_best)) - best_tax, x_best, cur_prices, partial(cur.with_rate, x_best))
    )

    for (l, _), (_, g, h), (f_at, _, _) in zip(tables, on_grid, at_cur):
        sweep = f_at + g + cur.rate * h
        other = sum(v for m, v in cur_tax.items() if m != l)
        pays = v_cur - other - sweep
        j = int(np.argmax(pays))
        p = float(ps[j])
        prices = tuple(p if m == l else cur.prices[m] for m in route)
        cands.append((float(pays[j]), cur.rate, prices, partial(cur.with_price, l, p)))

    cands.append((cur_pay, cur.rate, cur_prices, lambda: cur))

    best = cands[0]
    for c in cands[1:]:
        if c[0] > best[0] or (c[0] == best[0] and c[1:3] < best[1:3]):
            best = c
    return best[3](), best[0], cur_pay


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

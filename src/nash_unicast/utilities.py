"""Parametric user utilities: value, derivative, closed-form demand, payoff.

Four families, all with U(0) = 0 and U increasing:

* ``log``      U(x) = a*ln(1+x)                      concave
* ``power``    U(x) = a*x**theta, 0 < theta < 1      concave
* ``quadcap``  U(x) = a*x - b*x**2 up to its peak at a/(2b), constant beyond
* ``sigmoid``  U(x) = a*x**2/(s + x**2)              quasi-concave, not concave

Value accepts scalars or numpy arrays elementwise; a Python float in gives
a Python float out, bit for bit the array path's result. Derivative takes
one rate and returns a float. Both read sigmoid through t = x/sqrt(s), and
both raise NegativeRate on a negative or NaN rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

CONCAVE_FAMILIES = ("log", "power", "quadcap")
FAMILIES = CONCAVE_FAMILIES + ("sigmoid",)
_PARAM_NAMES = {"log": ("a",), "power": ("a", "theta"), "quadcap": ("a", "b"), "sigmoid": ("a", "s")}
# the smallest normal float; at or above it x**(theta-1) <= 1/x < 4.5e307 cannot overflow
_MIN_NORMAL = 2.2250738585072014e-308
# where a/sqrt(s) <= _K_MAX and _T_MIN <= x/sqrt(s) <= _T_MAX, no part of sigmoid's float slope leaves the range
_K_MAX, _T_MIN, _T_MAX = 2.0**1000, 2.0**-1000, 2.0**500
_NEWTON_STEPS = 200  # a bound on _newton's steps; its Newton steps settle within a handful


class UtilityError(ValueError):
    pass


class NegativeRate(UtilityError):
    pass


@dataclass(frozen=True)
class UtilitySpec:
    family: str
    a: float
    b: float = 0.0  # theta for power, b for quadcap, s for sigmoid; unused for log

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UtilityError(f"unknown utility family {self.family!r}")
        for name, v in zip(_PARAM_NAMES[self.family], (self.a, self.b)):
            if not math.isfinite(v):
                raise UtilityError(f"{self.family}: parameter {name} must be finite, got {v}")
        if not self.a > 0.0:
            raise UtilityError(f"{self.family}: parameter a must be positive, got {self.a}")
        if self.family == "power" and not 0.0 < self.b < 1.0:
            raise UtilityError(f"power: theta must lie in (0, 1), got {self.b}")
        if self.family in ("quadcap", "sigmoid") and not self.b > 0.0:
            raise UtilityError(f"{self.family}: second parameter must be positive, got {self.b}")

    @property
    def is_concave(self) -> bool:
        return self.family in CONCAVE_FAMILIES

    def to_dict(self) -> dict:
        params = dict(zip(_PARAM_NAMES[self.family], (self.a, self.b)))
        return {"family": self.family, "params": params}

    @staticmethod
    def from_dict(data: Mapping) -> "UtilitySpec":
        family = data["family"]
        params = dict(data["params"])
        if family == "log":
            return log_utility(**params)
        if family == "power":
            return power_utility(**params)
        if family == "quadcap":
            return quad_cap_utility(**params)
        if family == "sigmoid":
            return sigmoid_utility(**params)
        raise UtilityError(f"unknown utility family {family!r}")


def log_utility(a: float) -> UtilitySpec:
    return UtilitySpec("log", float(a))


def power_utility(a: float, theta: float) -> UtilitySpec:
    return UtilitySpec("power", float(a), float(theta))


def quad_cap_utility(a: float, b: float) -> UtilitySpec:
    return UtilitySpec("quadcap", float(a), float(b))


def sigmoid_utility(a: float, s: float) -> UtilitySpec:
    return UtilitySpec("sigmoid", float(a), float(s))


def _check_rate(x) -> None:
    if not (x >= 0.0 if type(x) is float else np.all(np.asarray(x) >= 0)):
        raise NegativeRate(f"rate must be non-negative, got {x}")


def value(u: UtilitySpec, x):
    """U(x), elementwise on arrays; a float in gives a float out
    (``family_value`` with the spec's parameters). A negative or NaN rate
    raises NegativeRate."""
    _check_rate(x)
    return family_value(u.family, u.a, u.b, x)


def family_value(family: str, a, b, x):
    """U(x) of one family on arrays, its parameters ``a`` and ``b`` as in
    ``UtilitySpec``: scalars, or arrays that broadcast against ``x``, such
    as a column of one user's parameters per row of rates. Each element has
    the bits of ``value`` on that user's spec. Rates are not checked: a NaN
    rate gives NaN.

    A float ``x``, with float parameters, takes plain float arithmetic and
    calls the numpy ufunc only for the transcendental step, so it returns a
    float with exactly the bits of the array path at a fraction of its
    per-call cost.

    Sigmoid reads U = a*t^2/(1 + t^2) at t = x/sqrt(s), as a*(t/(1 + t^2))*t
    below t = 1 and a/(1 + (1/t)^2) from there, so no part overflows or
    underflows where U does not.
    """
    if type(x) is float:
        if family == "log":
            return a * float(np.log1p(x))
        if family == "power":
            return a * float(np.power(x, b))
        if family == "quadcap":
            peak = a / (2.0 * b)
            xm = peak if x > peak else x  # a NaN passes, as through np.minimum
            return a * xm - b * xm * xm
        t = x / math.sqrt(b)
        return a * (t / (1.0 + t * t)) * t if t < 1.0 else a / (1.0 + (1.0 / t) * (1.0 / t))
    if family == "log":
        return a * np.log1p(x)
    if family == "power":
        return a * np.power(x, b)
    if family == "quadcap":
        xm = np.minimum(x, a / (2.0 * b))
        return a * xm - b * xm * xm
    with np.errstate(over="ignore"):  # an infinite t reads V = a, as on a float
        t = x / np.sqrt(b)
    low = t < 1.0  # each side's form sees only its own rates: no overflow, no 1/0
    below, above = np.where(low, t, 0.0), 1.0 / np.where(low, 1.0, t)
    return np.where(low, a * (below / (1.0 + below * below)) * below, a / (1.0 + above * above))[()]


def derivative(u: UtilitySpec, x: float) -> float:
    """dU/dx at one rate, in plain floats; a negative or NaN rate raises
    NegativeRate. Power utilities have infinite slope at 0. Sigmoid reads
    it through t = x/sqrt(s) as 2*(a/sqrt(s))*(t/w)/w, w = 1 + t*t, which
    never squares s + x*x; outside ``_K_MAX``, ``_T_MIN`` and ``_T_MAX``, where
    a part of that may overflow or underflow though U' does not, it reads
    U' exactly in rationals and rounds once."""
    _check_rate(x)
    a, b = u.a, u.b
    if u.family == "log":
        return a / (1.0 + x)
    if u.family == "power":
        if x < _MIN_NORMAL:  # zero or subnormal, where the power may overflow to inf
            if x == 0.0:
                return math.inf
            with np.errstate(over="ignore"):
                return a * b * float(np.power(x, b - 1.0))
        return a * b * float(np.power(x, b - 1.0))
    if u.family == "quadcap":
        return a - 2.0 * b * x if x < a / (2.0 * b) else 0.0
    root_s = math.sqrt(b)
    k, t = a / root_s, x / root_s
    if k <= _K_MAX and (x == 0.0 or _T_MIN <= t <= _T_MAX):
        w = 1.0 + t * t
        return 2.0 * k * (t / w) / w
    # U' = 2*a*s*x/(s + x^2)^2 over the integer ratios of a, s and x; int / int rounds once
    (na, da), (ns, ds), (nx, dx) = a.as_integer_ratio(), b.as_integer_ratio(), x.as_integer_ratio()
    try:
        return 2 * na * ns * nx * ds * dx**3 / (da * (ns * dx * dx + nx * nx * ds) ** 2)
    except OverflowError:
        return math.inf


def initial_slope(u: UtilitySpec) -> float:
    """Steepest marginal utility, the natural price scale of a user.

    At zero for the concave families, except that power utilities (infinite
    slope at 0) report the slope at rate 1e-3. Sigmoid marginals peak
    at the inflection point sqrt(s/3) rather than at zero, at
    (3*sqrt(3)/8)*a/sqrt(s). ``derivative`` reads it at that rate while
    (s + x**2)**2 stays above 0, for s above about 1e-162, and the closed
    form serves below.
    """
    if u.family == "power":
        return derivative(u, 1e-3)
    if u.family == "sigmoid":
        x = math.sqrt(u.b / 3.0)
        den = u.b + x * x
        if den * den > 0.0:
            return derivative(u, x)
        return 3.0 * math.sqrt(3.0) / 8.0 * u.a / math.sqrt(u.b)
    return derivative(u, 0.0)


def demand(u: UtilitySpec, price: float, cap: float) -> float:
    """argmax of U(x) - price*x over [0, cap].

    Closed form for the concave families; plateau ties (quadcap at price 0)
    resolve to the smallest maximizer. The sigmoid objective can be bimodal,
    so it takes the best of its ends and its ``interior_candidates``, the
    least rate on a tie. Returns a Python float for every family.
    """
    if cap < 0:
        raise UtilityError(f"cap must be non-negative, got {cap}")
    if price < 0:
        raise UtilityError(f"price must be non-negative, got {price}")
    if cap == 0.0:
        return 0.0
    if u.family == "log":
        if price == 0.0:
            return cap
        return min(max(u.a / price - 1.0, 0.0), cap)
    if u.family == "power":
        if price == 0.0:
            return cap
        ratio = u.a * u.b / price  # 0.0 once a*b/price underflows: demand 0
        if ratio > 0.0 and math.log(ratio) / (1.0 - u.b) > 700.0:  # would overflow; far beyond any cap
            return cap
        return min(ratio ** (1.0 / (1.0 - u.b)), cap)
    if u.family == "quadcap":
        if price >= u.a:
            return 0.0
        return min((u.a - price) / (2.0 * u.b), cap)
    return _sigmoid_demand(u, price, cap)


def _curvature(u: UtilitySpec, x: float) -> float:
    """d2U/dx2 at a float rate in plain floats, -inf at 0 for power; for
    sigmoid through ``_sigmoid_g``, which never cubes s + x*x."""
    a, b = u.a, u.b
    if u.family == "log":
        return -a / ((1.0 + x) * (1.0 + x))
    if u.family == "power":
        return (b - 1.0) * derivative(u, x) / x if x > 0.0 else -math.inf
    if u.family == "quadcap":
        return -2.0 * b if x < a / (2.0 * b) else 0.0
    return -(a / b) * _sigmoid_g(x / math.sqrt(b))


def _sigmoid_g(t: float) -> float:
    """Sigmoid's -U''(x)*s/a at t = x/sqrt(s), 2*(3t^2 - 1)/(1 + t^2)^3: from
    -2 at 0 through 0 at 1/sqrt(3) up to 1/2 at 1, then down towards 0."""
    w = 1.0 + t * t
    return 2.0 * (3.0 - 4.0 / w) / (w * w)


def _sigmoid_dg(t: float) -> float:
    """The slope of ``_sigmoid_g`` in t, 24t(1 - t^2)/(1 + t^2)^4."""
    w = 1.0 + t * t
    return 24.0 * (t / w) * (2.0 / w - 1.0) / (w * w)


def _newton(f, df, lo: float, hi: float, x: float) -> float:
    """A root of ``f``, which falls from f(lo) > 0 to f(hi) < 0, by Newton
    steps from ``x`` in [lo, hi]. Each value of f shrinks the bracket, and
    a step that would leave it, or a slope ``df`` that is not negative,
    bisects it instead. Stops where a step no longer moves the rate."""
    for _ in range(_NEWTON_STEPS):
        fx = f(x)
        if fx > 0.0:
            lo = x
        elif fx < 0.0:
            hi = x
        else:
            return x
        d = df(x)
        nxt = x - fx / d if d < 0.0 else math.nan
        if nxt == x:
            return x
        if not lo < nxt < hi:  # a NaN step fails too
            nxt = lo + 0.5 * (hi - lo)
            if nxt == lo or nxt == hi:
                return x
        x = nxt
    return x


def _concave_band(u: UtilitySpec, beta: float, lo: float, hi: float):
    """The part (L, R) of [lo, hi] where U'' <= -``beta``, or None: where U
    less a cost whose slope falls at rate ``beta`` >= 0 is concave. It is
    one interval for every family: up to a closed-form edge for log and
    power, all or nothing on either side of quadcap's peak, and for sigmoid
    an interval of [sqrt(s/3), inf) around sqrt(s), where U'' is least,
    whose edges come from ``_newton`` on U''' (through ``_sigmoid_g``)."""
    a, b = u.a, u.b
    if u.family == "quadcap":
        below = lo + 0.5 * (hi - lo) < a / (2.0 * b)
        return (lo, hi) if (2.0 * b >= beta if below else beta == 0.0) else None
    if u.family == "sigmoid":
        c = beta * b / a  # the band is where _sigmoid_g(t) >= c
        if c == 0.0:
            edge = math.sqrt(b / 3.0)
            return (max(lo, edge), hi) if edge <= hi else None
        if not c <= 0.5:
            return None
        root_s = math.sqrt(b)
        t_lo, t_hi = lo / root_s, hi / root_s
        left, right = lo, hi
        if _sigmoid_g(t_lo) < c:
            top = min(1.0, t_hi)
            if t_lo >= 1.0 or _sigmoid_g(top) < c:
                return None
            left = root_s * _newton(lambda t: c - _sigmoid_g(t), lambda t: -_sigmoid_dg(t), t_lo, top, top)
        if _sigmoid_g(t_hi) < c:
            bottom = max(1.0, t_lo)
            right = root_s * _newton(lambda t: _sigmoid_g(t) - c, _sigmoid_dg, bottom, t_hi, bottom)
        return (max(lo, left), min(hi, right))
    if beta == 0.0:
        return (lo, hi)
    if u.family == "log":
        edge = math.sqrt(a / beta) - 1.0
    else:  # the exponent lies in (1/2, 1), so the power cannot overflow
        edge = (a * b * (1.0 - b) / beta) ** (1.0 / (2.0 - b))
    return (lo, min(hi, edge)) if edge >= lo else None


def interior_candidates(u: UtilitySpec, marginal, beta: float, lo: float, hi: float) -> list:
    """The rates of [lo, hi] besides its ends at which U(x) - C(x) may
    peak, given its marginal cost ``marginal(x)`` = C'(x), which falls at
    rate ``beta`` >= 0 there: the ends of the ``_concave_band`` (beyond them
    the objective is convex, so it peaks at an end) and the root of
    U' - C' inside the band, by ``_newton`` from sqrt(s) for sigmoid and
    from the ``demand`` at the band's left marginal cost for the rest."""
    band = _concave_band(u, beta, lo, hi)
    if band is None:
        return []
    left, right = band

    def slope(x):
        return derivative(u, x) - marginal(x)

    if not (left < right and slope(left) > 0.0 and slope(right) < 0.0):
        return [left, right]
    start = math.sqrt(u.b) if u.family == "sigmoid" else demand(u, max(marginal(left), 0.0), right)
    root = _newton(slope, lambda x: _curvature(u, x) + beta, left, right, min(max(start, left), right))
    return [left, right, root]


def _sigmoid_demand(u: UtilitySpec, price: float, cap: float) -> float:
    """The first best of 0, ``cap`` and the ``interior_candidates`` of
    U(x) - price*x on [0, cap], in ascending order."""
    if price == 0.0:
        return cap
    best, best_pay = 0.0, 0.0  # the payoff at 0, without inf*0 = NaN
    for x in sorted((cap, *interior_candidates(u, lambda x: price, 0.0, 0.0, cap))):
        pay = family_value("sigmoid", u.a, u.b, x) - price * x
        if pay > best_pay:
            best, best_pay = x, pay
    return best


def payoff(u: UtilitySpec, x: float, tax: float) -> float:
    """Quasi-linear payoff U(x) - tax; a negative tax is a subsidy."""
    return float(value(u, x)) - tax

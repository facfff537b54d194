"""Parametric user utilities: value, derivative, closed-form demand, payoff.

Four families, all with U(0) = 0 and U increasing:

* ``log``      U(x) = a*ln(1+x)                      concave
* ``power``    U(x) = a*x**theta, 0 < theta < 1      concave
* ``quadcap``  U(x) = a*x - b*x**2 up to its peak at a/(2b), constant beyond
* ``sigmoid``  U(x) = a*x**2/(s + x**2)              quasi-concave, not concave

Value and derivative accept scalars or numpy arrays elementwise; a Python
float in gives a Python float out, bit for bit the array path's result, and
a negative or NaN rate raises NegativeRate.
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
        x2 = x * x
        return a * x2 / (b + x2)
    if family == "log":
        return a * np.log1p(x)
    if family == "power":
        return a * np.power(x, b)
    if family == "quadcap":
        xm = np.minimum(x, a / (2.0 * b))
        return a * xm - b * xm * xm
    x2 = np.square(x)
    return a * x2 / (b + x2)


def derivative(u: UtilitySpec, x):
    """dU/dx, elementwise on arrays; a float in gives a float out, with the
    array path's bits. A negative or NaN rate raises NegativeRate. Power
    utilities have infinite slope at 0."""
    _check_rate(x)
    if type(x) is float:
        if u.family == "log":
            return u.a / (1.0 + x)
        if u.family == "power":
            if x < _MIN_NORMAL:  # zero or subnormal, where the power may overflow to inf
                if x == 0.0:
                    return math.inf
                with np.errstate(over="ignore"):
                    return u.a * u.b * float(np.power(x, u.b - 1.0))
            return u.a * u.b * float(np.power(x, u.b - 1.0))
        if u.family == "quadcap":
            return u.a - 2.0 * u.b * x if x < u.a / (2.0 * u.b) else 0.0
        den = u.b + x * x
        if den * den > 0.0:
            return 2.0 * u.a * u.b * x / (den * den)
        return float(derivative(u, np.float64(x)))  # the array path's 0/0 or x/0
    xa = np.asarray(x, dtype=float)
    if u.family == "log":
        return (u.a / (1.0 + xa))[()]
    if u.family == "power":
        with np.errstate(divide="ignore", over="ignore"):
            return (u.a * u.b * np.power(xa, u.b - 1.0))[()]
    if u.family == "quadcap":
        return np.where(xa < u.a / (2.0 * u.b), u.a - 2.0 * u.b * xa, 0.0)[()]
    return (2.0 * u.a * u.b * xa / np.square(u.b + xa * xa))[()]


def initial_slope(u: UtilitySpec) -> float:
    """Steepest marginal utility, the natural price scale of a user.

    At zero for the concave families, except that power utilities (infinite
    slope at 0) report the slope at rate 1e-3. Sigmoid marginals peak
    at the inflection point sqrt(s/3) rather than at zero, at
    (3*sqrt(3)/8)*a/sqrt(s); that closed form serves where s is so small
    that (s + x**2)**2 underflows to 0 and the slope formula would read 0/0.
    """
    if u.family == "power":
        return float(derivative(u, 1e-3))
    if u.family == "sigmoid":
        x = math.sqrt(u.b / 3.0)
        den = u.b + x * x
        if den * den > 0.0:
            return float(derivative(u, x))
        return 3.0 * math.sqrt(3.0) / 8.0 * u.a / math.sqrt(u.b)
    return float(derivative(u, 0.0))


def demand(u: UtilitySpec, price: float, cap: float) -> float:
    """argmax of U(x) - price*x over [0, cap].

    Closed form for the concave families; plateau ties (quadcap at price 0)
    resolve to the smallest maximizer. The sigmoid objective can be bimodal,
    so it is solved by a coarse scan plus golden-section refinement and an
    endpoint comparison. Returns a Python float for every family.
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


def _sigmoid_demand(u: UtilitySpec, price: float, cap: float) -> float:
    if price == 0.0:
        return cap
    a, s = u.a, u.b

    def f(x):
        return a * x * x / (s + x * x) - price * x

    # Coarse scan locates the best bracket; golden-section refines it. The
    # scan is f on the whole grid, and the refinement writes f out inline on
    # Python floats: f's own order of operations, the same IEEE operations
    # as on numpy scalars, without a call per step.
    grid = np.linspace(0.0, cap, 65)
    vals = a * grid * grid / (s + grid * grid) - price * grid
    k = int(np.argmax(vals))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = a * c * c / (s + c * c) - price * c
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = a * d * d / (s + d * d) - price * d
    best = 0.5 * (lo + hi)
    candidates = [0.0, cap, best]
    return min(candidates, key=lambda x: (-f(x), x))


def payoff(u: UtilitySpec, x: float, tax: float) -> float:
    """Quasi-linear payoff U(x) - tax; a negative tax is a subsidy."""
    return float(value(u, x)) - tax

"""Decentralized rate allocation for unicast networks.

A game form in which users post rate requests and per-link prices, taxes are
budget-balanced at every feasible profile, equilibria implement the
centralized welfare optimum, participation is individually rational, and
equilibrium allocations are competitive. The package solves the centralized
problem, constructs equilibria from its multipliers, audits arbitrary message
profiles, and runs exploratory best-response dynamics.
"""

from .dynamics import DynamicsConfig, Trajectory, run_dynamics
from .equilibrium import (
    NeAuditReport,
    audit,
    check_optimality,
    construct_ne,
    ne_tax_closed_form,
)
from .mechanism import (
    Allocation,
    LinkTax,
    MechanismParams,
    Message,
    MessageProfile,
    SubsidyAssignment,
    TaxBreakdown,
    assign_subsidies,
    outcome,
    validate_profile,
)
from .network import Network, build_network, is_feasible, min_route_capacity
from .scenario import (
    Scenario,
    load_scenario,
    random_feasible_profile,
    random_scenario,
    save_scenario,
    sigmoid_clearing_scenario,
)
from .solver import (
    KktResiduals,
    SolveResult,
    SolverConfig,
    kkt_residuals,
    solve_centralized,
    welfare,
)
from .utilities import (
    UtilitySpec,
    demand,
    derivative,
    log_utility,
    payoff,
    power_utility,
    quad_cap_utility,
    sigmoid_utility,
    value,
)

__version__ = "0.1.0"

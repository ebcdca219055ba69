"""coarsekit: does a coarse-grained quantum system inherit a well-defined
effective dynamics?

Four independent criteria answer the question for a pair (coarse-graining
CPTP map, microscopic unitary): exact kernel invariance, an algebraic
intertwining shortcut, a Choi-matrix feasibility SDP, and a randomized
state-discrimination witness.  When the answer is yes, the effective
channel is constructed explicitly.  A classical-inference counterpart
(finite chain DAG, interventions) lives in ``coarsekit.classical``.

The top level holds the API the README documents; everything else is
imported from the module that defines it.
"""

from .channel import KrausChannel
from .compat import (
    CheckConfig,
    CompatReport,
    Scenario,
    check_fiber_preservation,
    construct_emergent,
    run_all,
    sdp_feasibility,
    search_witness,
    solve_algebraic_V,
    verify_dual_identity,
    verify_kraus_equivalence,
)
from .scenarios import spin_dichotomization

__version__ = "0.1.0"

__all__ = [
    "CheckConfig",
    "CompatReport",
    "KrausChannel",
    "Scenario",
    "check_fiber_preservation",
    "construct_emergent",
    "run_all",
    "sdp_feasibility",
    "search_witness",
    "solve_algebraic_V",
    "spin_dichotomization",
    "verify_dual_identity",
    "verify_kraus_equivalence",
]

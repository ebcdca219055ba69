"""coarsekit: does a coarse-grained quantum system inherit a well-defined
effective dynamics?

Four independent criteria answer the question for a pair (coarse-graining
CPTP map, microscopic unitary): exact kernel invariance, an algebraic
intertwining shortcut, a Choi-matrix feasibility SDP, and a randomized
state-discrimination witness.  When the answer is yes, the effective
channel is constructed explicitly.  A classical-inference counterpart
(finite chain DAG, interventions) is included for contrast.
"""

from .channel import (
    ChoiMatrix,
    DensityMatrix,
    KrausChannel,
    apply,
    channels_equal,
    choi_to_kraus,
    compose,
    connecting_unitary,
    dual,
    kraus_to_choi,
    unitary_channel,
)
from .classical import (
    ChainModel,
    CondTable,
    DoModel,
    do_intervention,
    emergent_channel,
    observational_vs_do,
    verify_total_probability,
)
from .compat import (
    CheckConfig,
    CompatReport,
    EnsembleWitness,
    Scenario,
    SdpOutcome,
    check_fiber_preservation,
    construct_emergent,
    helstrom_pguess,
    run_all,
    sdp_feasibility,
    search_witness,
    solve_algebraic_V,
    verify_dual_identity,
    verify_kraus_equivalence,
)
from .scenarios import (
    NamedScenario,
    example1,
    example2,
    random_planted_scenario,
    random_scenario,
    registry,
    spin_dichotomization,
)

__version__ = "0.1.0"

__all__ = [
    "ChainModel",
    "CheckConfig",
    "ChoiMatrix",
    "CompatReport",
    "CondTable",
    "DensityMatrix",
    "DoModel",
    "EnsembleWitness",
    "KrausChannel",
    "NamedScenario",
    "Scenario",
    "SdpOutcome",
    "apply",
    "channels_equal",
    "check_fiber_preservation",
    "choi_to_kraus",
    "compose",
    "connecting_unitary",
    "construct_emergent",
    "do_intervention",
    "dual",
    "emergent_channel",
    "example1",
    "example2",
    "helstrom_pguess",
    "kraus_to_choi",
    "observational_vs_do",
    "random_planted_scenario",
    "random_scenario",
    "registry",
    "run_all",
    "sdp_feasibility",
    "search_witness",
    "solve_algebraic_V",
    "spin_dichotomization",
    "unitary_channel",
    "verify_dual_identity",
    "verify_kraus_equivalence",
    "verify_total_probability",
]

"""rwre_lab: a numerical laboratory for random walks in random environments.

Implements perturbed-environment laws with exact moments, killed-walk
Green's functions on finite lattice regions, quenched and annealed Monte
Carlo, Kalikow's auxiliary walk computed by two independent routes, and
desk-scale probes of the polynomial and drift-infimum ballisticity
conditions.
"""

from .env_model import (
    EmpiricalLaw,
    EnvironmentLaw,
    EnvironmentRealization,
    InhomogeneousTestLaw,
    InvalidShiftError,
    LawMoments,
    PointMassLaw,
    ShiftedLaw,
    SignedAxisKickLaw,
    UnsupportedFamilyError,
    build_shifted_law,
    check_k_conditions,
    law_from_dict,
    law_moments,
    sample_environment,
    ssrw_law,
)
from .lattice import (
    BallisticityBox,
    BoxRegion,
    CorollaryBox,
    ExitClass,
    HalfSpaceTrunc,
    Region,
    RegionError,
    SiteSetRegion,
    SlabRegion,
    build_region,
    classify_exit,
)
from .exact_solver import (
    ExitDistribution,
    GreenTable,
    SolverConvergenceError,
    exit_distribution,
    green_operator,
    green_row,
    hitting_probability,
    hitting_probability_field,
    no_return_probability,
)
from .monte_carlo import (
    EmpiricalDistribution,
    ExitRegion,
    FixedSteps,
    HitSiteOrExit,
    MCEstimate,
    StepBudgetError,
    annealed_event_probability,
    estimate_velocity,
    run_quenched_walk,
    sample_statistic_over_environments,
)
from .kalikow import (
    EpsKFamilySpec,
    EpsKReport,
    KalikowDriftReport,
    KalikowEnv,
    Theorem3Report,
    estimate_eps_k,
    kalikow_drift,
    kalikow_drift_formula,
    kalikow_environment,
    theorem3_experiment,
)
from .ballisticity import (
    ConditionPReport,
    DriftGreenStats,
    FreedmanParams,
    RhoStats,
    c_alpha_L,
    condition_p_probe,
    fluctuation_scan,
    freedman_bound,
    log_m0,
    martingale_tail_test,
    mean_drift_green_check,
    rho_statistics,
)

__version__ = "0.1.0"

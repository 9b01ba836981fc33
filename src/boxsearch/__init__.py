"""Uncoordinated parallel box-search: simulator, exact analysis, bound checks."""

from .strategy import (
    BLOCK_RANDOM,
    COORDINATED,
    NESTED,
    SOLO,
    SearchParams,
    SearcherState,
    StrategyKind,
    UniformStream,
    make_state,
    next_box,
)
from .matrix import (
    SurvivalMatrix,
    ThetaEstimate,
    block_random_survival,
    expected_discovery_time,
    nested_survival,
    speedup_curve,
    survival_row_exact,
    theta,
    theta_exact_bracket,
    theta_window,
)
from .sim import (
    CrashReport,
    CrashSchedule,
    NonDiscoveryError,
    Perturbation,
    RobustnessReport,
    RunStats,
    TrialConfig,
    TrialOutcome,
    cis_overlap,
    crash_experiment,
    estimate_speedup,
    estimate_speedups,
    robustness_experiment,
    run_trial,
    trial_seed,
)
from .bounds import (
    LowerBoundConfig,
    LowerBoundResult,
    WaterFillProblem,
    claim1_tail_sum,
    direct_ratio_product,
    gamma_asymptotic_ratio,
    gamma_ratio_product,
    lower_bound_closed_form,
    lowerbound_value,
    optimal_continuous_N,
    rebalance_pair,
    solve_gamma,
    upper_bound_identity_residual,
    waterfill_closed_form,
    waterfill_grid_oracle,
    waterfill_objective,
    weighted_average_quadrature,
)

__version__ = "0.1.0"

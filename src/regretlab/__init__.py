"""Regret and stability diagnostics for linear feedback loops."""

from .adversary import (
    BallDisturbance,
    ConstantEigvecDisturbance,
    TransitionAlignedDisturbance,
    constant_eigvec,
    dominant_direction,
    phi_aligned,
    random_ball,
)
from .counterexample import (
    DiscountedLqrModel,
    GammaScanRow,
    InstabilityReport,
    ValueParams,
    build_model,
    dare_modified,
    dare_residual,
    discounted_cost_closed_form,
    discounted_cost_simulated,
    discounted_gain,
    gamma_check,
    gamma_scan,
    linear_regret_despite_instability,
    vq_recursion,
)
from .errors import (
    AssumptionViolationError,
    ConditioningError,
    ConfigError,
    ConvergenceError,
    ShapeError,
    SimulationOverflowError,
)
from .hindsight import HindsightSolution, batch_oracle, hindsight_costs, solve_hindsight
from .model import (
    DisturbanceSignal,
    LinearPolicy,
    MatrixSequence,
    QuadraticStageCost,
    SystemDynamics,
    Trajectory,
    closed_loop,
    closed_loop_matrix,
    evaluate_cost,
    simulate,
    simulate_grid,
    simulate_inputs,
    tracking_transform,
)
from .regret import (
    GrowthClass,
    LinearRegretCertificate,
    LowerBoundCheck,
    RegretCurve,
    growth_classify,
    regret,
    regret_curve,
    linear_regret_certificate,
    quadratic_floor_check,
)
from .transition import (
    NormSums,
    Stability,
    StabilityReport,
    bibs_partial_sums,
    classify_lti,
    classify_ltv,
    exponential_fit,
    norm_sums,
    summability_constants,
    transition_matrix,
    transition_norms,
    transition_row,
)

__version__ = "0.1.0"

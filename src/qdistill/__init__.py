"""Recurrence-type entanglement distillation: state arithmetic, noisy
recurrences, fixed-point stability, confidentiality/robustness bounds,
steering verification, and seeded protocol simulation."""

__version__ = "0.1.0"

from .quantum_core import (
    BELL_ORDER,
    PAULI_ORDER,
    BellDiagonalState,
    LabeledEnsembleState,
    bell_basis,
    bell_vector,
    ensemble_purification,
    pauli_decompose,
    secret_twirl,
    trace_norm,
)
from .noise_models import (
    BinaryNoise,
    NoiseDistribution,
    SingleQubitWhiteNoise,
    TwoQubitCorrelatedNoise,
    WorstCaseNoise,
    apply_channel_phi,
    distribution_from,
    noise_from_config,
    noise_to_config,
)
from .recurrence import (
    DegenerateStepError,
    RecurrenceMap,
    bbpssw_map,
    bbpssw_two_qubit_map,
    binary_map,
    conjunctive_flag_update,
    default_flag_update,
    noiseless_dejmps_map,
    noisy_dejmps_map,
    reduced_dejmps_map,
    trajectory,
    worstcase_map,
)
from .fixed_point import (
    ConvergenceFit,
    FixedPointReport,
    NonConvergenceError,
    bbpssw_fixed_point,
    bbpssw_fixed_point_slope,
    bbpssw_two_qubit_fixed_points,
    binary_fixed_point,
    binary_lambda_max,
    convergence_exponent,
    critical_noise,
    iterate_to_fixed_point,
    jacobian_spectral_radius,
    reduced_noisy_dejmps_fixed_point,
    worstcase_discriminant,
    worstcase_fixed_points,
)
from .security_bounds import (
    DEFINETTI_CONSTANT,
    PairBudget,
    RobustnessInput,
    RobustnessResult,
    definetti_bound,
    hoeffding_pe_abort,
    leak_bound,
    localstates_lift,
    pair_budget,
    postselect_crossing_gap,
    postselection_bound,
    postselection_chain,
    purification_lift,
    robustness_bound,
    symmetric_subspace_dimension,
)
from .steering_verify import (
    ProductFormVerdict,
    build_t_matrix,
    product_form_batch,
    steer_rotate,
    steering_constant,
    steering_discrepancy,
    t_inverse_norm,
)
from .montecarlo import (
    AbortEstimate,
    ProtocolConfig,
    config_hash,
    estimate_abort_probability,
    sample_campaign,
)

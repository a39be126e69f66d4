"""Spectral cut-off regularization with data-driven truncation rules.

Builds classical ill-posed test problems, simulates white-noise observations
in singular coordinates, selects truncation levels with residual-threshold,
comparison, sequential, and oracle rules, and benchmarks them with a seeded
Monte Carlo harness. See the command line entry point `speccut` for the
batch interface.
"""

from .montecarlo import (
    BoxplotStats,
    ExperimentConfig,
    ExperimentSummary,
    ReplicateColumns,
    boxplot_stats,
    counterexample_tail_prob,
    evaluate_replicate,
    example1_frequency,
    prop2_check,
    replicate_seed,
    run_experiment,
    summarize,
    theorem_frequency,
)
from .problems import (
    DecompositionError,
    DenseProblem,
    ProblemSpec,
    SpectralProblem,
    SVDFactors,
    build_deriv2,
    build_gravity,
    build_heat,
    build_phillips,
    build_synthetic,
    decompose,
    deriv2_exact_data,
    make_problem,
    spectralize,
)
from .rules import (
    RULE_NAMES,
    RuleConfig,
    TheoremConstants,
    balancing,
    combined,
    constants,
    det_strong,
    det_weak,
    dp_at_m,
    dp_modified,
    early_stop,
    empirical_sup_deviation,
    oracle_opt,
    oracle_strong,
    oracle_weak,
    select_all,
)
from .sequence_model import (
    NoiseModel,
    NoisyObservation,
    observe,
    sample_noise,
    strong_error,
    strong_error_sq_profile,
    weak_error,
    weak_error_sq_profile,
)

__version__ = "0.1.0"

"""Error-probability bounds for photonic target detection.

Binary discrimination of a thermal-noise channel against an identity channel
(a perfectly reflecting target), on truncated Fock spaces: exact Helstrom
errors, quantum Chernoff upper bounds and Bhattacharyya-derived lower bounds,
with every closed form cross-validated against a brute-force linear-algebra
oracle.
"""

from .channels import (
    HypothesisPair,
    depolarizing_pair,
    target_pair_bipartite,
    target_pair_single_mode,
)
from .closed_forms import (
    DepolarizingInput,
    LimitValues,
    NoiseRegime,
    asymptotic_limits,
    bright_noise_spdc_exponent,
    coherent_lower,
    coherent_qcb,
    depolarizing_error,
    noon_lower,
    noon_qcb,
    noon_threshold,
    number_state_error,
    spdc_lower,
    spdc_qcb,
    weak_noise_crossover,
    werner_advantage_threshold,
)
from .errors import InvalidStateError, ParameterDomainError, SizeLimitError
from .figures import CurveSeries, figure1_series, figure2_series, figure3_series, render_csv
from .fock import (
    DensityOperator,
    FockKet,
    NoiseSpec,
    coherent_ket,
    maximally_entangled_qudit,
    maximally_mixed,
    noon_ket,
    number_ket,
    partial_trace,
    spdc_ket,
    tensor,
    thermal_state,
    werner_state,
)
from .oracle import (
    BoundKind,
    BoundResult,
    bhattacharyya_lower,
    chernoff_bound,
    helstrom_error,
)
from .validation import ValidationReport, default_config, run_validation

__version__ = "0.1.0"

__all__ = [
    "BoundKind",
    "BoundResult",
    "CurveSeries",
    "DensityOperator",
    "DepolarizingInput",
    "FockKet",
    "HypothesisPair",
    "InvalidStateError",
    "LimitValues",
    "NoiseRegime",
    "NoiseSpec",
    "ParameterDomainError",
    "SizeLimitError",
    "ValidationReport",
    "asymptotic_limits",
    "bhattacharyya_lower",
    "bright_noise_spdc_exponent",
    "chernoff_bound",
    "coherent_ket",
    "coherent_lower",
    "coherent_qcb",
    "default_config",
    "depolarizing_error",
    "depolarizing_pair",
    "figure1_series",
    "figure2_series",
    "figure3_series",
    "helstrom_error",
    "maximally_entangled_qudit",
    "maximally_mixed",
    "noon_ket",
    "noon_lower",
    "noon_qcb",
    "noon_threshold",
    "number_ket",
    "number_state_error",
    "partial_trace",
    "render_csv",
    "run_validation",
    "spdc_ket",
    "spdc_lower",
    "spdc_qcb",
    "target_pair_bipartite",
    "target_pair_single_mode",
    "tensor",
    "thermal_state",
    "weak_noise_crossover",
    "werner_advantage_threshold",
    "werner_state",
]

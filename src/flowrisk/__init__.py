"""Exact risk, couplings, and certified constants for continuous-time
least-squares estimators: gradient flow, the accelerated (Bessel-kernel)
flow, heavy-ball flow, and ridge regression.
"""

from .bounds import (
    Certified,
    bias_ratio_unbounded_witness,
    gf_inflation_constant,
    h_kappa,
    hb_inflation_check,
    hb_quarter_plane,
    hb_variance_bound_check,
    nest_inflation_constant,
    nest_param_error_constant,
    tilde_h,
    tilde_h_crossover,
    tilde_h_maximizer,
)
from .estimators import coupling_gap, estimate
from .experiments import (
    ConfigError,
    DesignSpec,
    ExperimentConfig,
    GridSpec,
    figure_sweep,
    gen_iid_design,
    gen_orthogonal_design,
    gen_power_law_design,
    gen_signal,
)
from .linalg import (
    SpectralDesign,
    Spectrum,
    attach_response,
    design_decompose,
    sym_eig,
)
from .oracle import (
    IterateConfig,
    Trajectory,
    compare_closed_form,
    discrete_iterates,
    integrate_flow,
)
from .risk import (
    RiskCurve,
    RiskDecomposition,
    SignalModel,
    optimal_ridge_bayes_risk,
    oscillation_report,
    risk_curve,
)
from .rng import SeededStream, derive_seed
from .shrinkage import FlowKind
from .special import bessel_j1, j1_ratio, j1_ratio_complement

__version__ = "0.1.0"

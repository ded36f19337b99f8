"""Deterministic two-species Vlasov-Poisson-Landau spectral solver."""

from .grid import (
    PhaseGrid,
    SpatialGrid,
    SpectralField,
    VelocityGrid,
    forward_transform,
    inverse_transform,
    quadrature_integral,
    spectral_derivative,
    truncation_tolerance,
)
from .state import (
    MacroMoments,
    SystemState,
    check_conservation,
    extract_moments,
    load_checkpoint,
    maxwellian,
    project_P,
    project_Pi,
    save_checkpoint,
)
from .landau import (
    LandauKernelTables,
    apply_collision_field,
    build_kernel_tables,
    q_landau_direct,
    q_landau_fft,
)
from .poisson import field_energy, solve_potential
from .dynamics import TimeStepConfig, advance, collision_step, field_step, transport_step
from .weights import (
    WeightLadderConstants,
    WeightSpec,
    exp_weight_field,
    functional_D_k,
    functional_E_k,
    landau_D_norm,
    norm_X_k,
    norm_Y_k,
    weight_exponent,
    weight_field,
    weight_inequality_suite,
)
from .diagnostics import (
    DecayFit,
    DiagnosticsRecord,
    Recorder,
    fit_decay,
    linearized_decay_experiment,
    moment_balance_residual,
    positivity_monitor,
)
from .config import RunConfig, load_config, parse_config
from .initial import make_initial_condition
from .experiments import run_experiment

__version__ = "0.1.0"

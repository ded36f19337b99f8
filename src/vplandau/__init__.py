"""Deterministic two-species Vlasov-Poisson-Landau spectral solver."""

from .grid import (
    PhaseGrid,
    SpatialGrid,
    VelocityGrid,
    truncation_tolerance,
)
from .state import (
    SystemState,
    check_conservation,
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
    WeightSpec,
    exp_weight_field,
    functional_D_k,
    functional_E_k,
    landau_D_norm,
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

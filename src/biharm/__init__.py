"""Spectral toolkit for fourth-order focusing ground states on periodic boxes."""

from .grid import Grid, make_grid, quadrature
from .field import (
    Field,
    ResolutionWarning,
    bilap_apply,
    bilap_energy,
    density_center,
    dilate,
    h2_norm_sq,
    l2_norm_sq,
    lq_integral,
    read_snapshot,
    renormalize_mass,
    spectral_tail,
    translate,
    write_snapshot,
)
from .potentials import (
    GaussianWell,
    Harmonic,
    PowerWell,
    Sum,
    Zero,
    classify,
    ess_inf,
    level_split,
    potential_from_config,
    sample,
    sobolev_lower_bound,
)
from .energy import (
    EnergyBreakdown,
    constrained_gradient,
    critical_power,
    el_residual,
    energy,
    gn_quotient,
)
from .gn import (
    GNResult,
    compute_gn,
    load_gn,
    normalize_gn,
    normalize_to_el,
    save_gn,
)
from .blowup import (
    SweepRecord,
    energy_limit_check,
    gn_sequence_check,
    load_sweep,
    save_sweep,
    sweep,
    sweep_plot_columns,
)
from .groundstate import (
    InitSpec,
    SolveConfig,
    SolveResult,
    SolveStatus,
    initial_field,
    solve,
    write_iteration_log,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "make_grid", "quadrature",
    "Field", "ResolutionWarning",
    "l2_norm_sq", "bilap_energy", "h2_norm_sq", "lq_integral", "bilap_apply",
    "dilate", "renormalize_mass", "translate", "density_center",
    "spectral_tail",
    "read_snapshot", "write_snapshot",
    "Zero", "Harmonic", "GaussianWell", "PowerWell", "Sum",
    "sample", "ess_inf", "classify", "level_split", "sobolev_lower_bound",
    "potential_from_config",
    "EnergyBreakdown", "critical_power", "energy", "constrained_gradient",
    "gn_quotient", "el_residual",
    "InitSpec", "SolveConfig", "SolveResult", "SolveStatus",
    "initial_field", "solve", "write_iteration_log",
    "GNResult", "compute_gn", "normalize_gn", "normalize_to_el",
    "save_gn", "load_gn",
    "SweepRecord", "sweep", "energy_limit_check", "gn_sequence_check",
    "sweep_plot_columns", "save_sweep", "load_sweep",
]

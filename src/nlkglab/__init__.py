"""Numerical laboratory for solitary waves of the focusing nonlinear
Klein-Gordon equation u_tt - u_xx + m u - |u|^(p-1) u = 0 on a periodic
1D grid: ground states, Lorentz-boosted profiles, conserved and localized
functionals, time-reversible evolution, the linearized-action spectrum,
modulation fitting, and backward-in-time multi-soliton experiments."""

__version__ = "0.1.0"

from .grids import Field, Grid, norm_h1l2, norm_l2l2  # noqa: F401
from .profiles import (  # noqa: F401
    GroundState,
    ModelParams,
    SolitonParams,
    ground_state_1d,
    ground_state_radial,
    sample_soliton,
)
from .functionals import (  # noqa: F401
    ActionParams,
    action,
    action_gradient,
    build_cutoffs,
    charge,
    energy,
    localized_quantities,
    momentum,
)
from .integrator import BlowUpError, IntegratorConfig, evolve  # noqa: F401
from .spectrum import assemble_second_variation, slope_test, spectrum_report  # noqa: F401
from .modulation import fit_modulation  # noqa: F401
from .experiments import (  # noqa: F401
    MultiSolitonConfig,
    almost_conservation_audit,
    measure_interactions,
    run_backward_construction,
    run_forward_stability,
    run_ladder,
    taylor_expansion_audit,
)

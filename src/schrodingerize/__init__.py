"""Classical laboratory for warped-phase (Schrodinger-form) simulation.

The package turns linear first-order dynamics du/dt = -A u into a family of
Hermitian evolutions by lifting the state into an auxiliary decay variable,
Fourier-transforming it, and evolving each Fourier mode unitarily.  The
original solution is recovered by quadrature, point evaluation or projection,
and every run is checked against independent reference solvers and annotated
with a model quantum resource estimate.
"""

from .core import (
    AccuracyWarning,
    AxisSpec,
    DegenerateStateError,
    Grid1D,
    InvalidArgumentError,
    ResourceLimitError,
    StateVector,
    UnsupportedProblemError,
    fourier_modes,
    make_grid,
)
from .operators import (
    EtaDiagonal,
    HermitianMatrix,
    HermitianPair,
    TransportModel,
    assemble_eta_diagonal,
    assemble_schrodinger_hamiltonian,
    assemble_total_hamiltonian,
    hermitian_decompose,
)
from .pipeline import (
    RecoveryResult,
    decay_factors,
    default_p_grid,
    dft_p,
    evolve_blocks,
    evolve_eigenbasis,
    evolve_lifted,
    idft_p,
    project_positive,
    recover_integrate,
    recover_point,
    schrodingerize_evolve,
    warp_extend,
)
from .oracle import expm_apply, heat_analytic, transport_exact
from .costs import (
    CostReport,
    gibbs_cost,
    ground_state_cost,
    hamsim_cost,
    schrodingerisation_cost,
    transport_norm_parity,
)
from .apps import (
    GibbsReport,
    GroundStateReport,
    HeatRunResult,
    MomentReport,
    TransportRunResult,
    compute_moments,
    estimate_t_final,
    find_stationary_transport,
    observable_overlap,
    prepare_gibbs,
    prepare_ground_state,
    run_heat,
    run_transport,
)

__version__ = "0.1.0"

"""Feedback control of ODE systems via POD-reduced dynamic programming.

Pipeline: sample controlled trajectories and their time derivatives,
build a weighted POD basis from them, pose the discounted dynamic-
programming fixed point on a simplex-gridded box in the reduced
coordinates, iterate it to convergence, and synthesize an interpolated
feedback law for the full system.  A Riccati/LQR solver provides an exact
oracle for linear-quadratic problems.
"""

from .dynamics import (
    ControlledSystem,
    IntegratorConfig,
    SystemStructure,
    Trajectory,
    build_test1,
    build_test2,
    integrate,
    test1_initial_state,
    test2_initial_state,
)
from .errors import HjbPodError, NumericalError, ValidationError
from .hjbgrid import (
    SimplexGrid,
    aligned_grid,
    build_grid,
    ensure_invariant_grid,
    interpolate,
)
from .hjbsolve import (
    ArrivalCache,
    ControlSet,
    ControlTable,
    FeedbackPolicy,
    ValueFunction,
    build_arrival_cache,
    evaluate_cost,
    initial_value_guess,
    simulate_closed_loop,
    sweep_once,
    value_iteration,
)
from .lqr import CareSolution, compare_controls, simulate_lqr, solve_care
from .pod import (
    PODBasis,
    SnapshotSet,
    assemble_snapshot_vectors,
    compute_basis,
    correlation_matrix,
    generate_snapshots,
    identity_basis,
    lift,
    project_coeffs,
    projection_error_stats,
    rhs_projection_diagnostic,
)
from .reduced import (
    Hyperbox,
    InvarianceReport,
    ReducedSystem,
    build_domain,
    clipped_arrivals,
    grow_to_invariant,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Way-point construction and spanning analysis for bilinear control trajectories.

The package simulates unitary propagators driven by a scalar control,
builds way-point sets whose visitation certifies that the conjugated
coupling operator spans the full traceless-Hermitian space, decides
controllability through the Lie closure of the generators, evaluates the
landscape gradient and kinematic critical-point residual, and synthesizes
piecewise-constant controls that visit a way-point list.
"""

from ._fmt import FormatError
from .evolve import (
    ControlField,
    PropagatorTrajectory,
    concat_fields,
    conjugated_dipole,
    density_matrix,
    load_field,
    propagate,
    save_field,
)
from .landscape import (
    SpanReport,
    VisitRecord,
    finite_difference_gradient,
    gate_fidelity,
    gradient,
    kinematic_residual,
    save_span_report,
    spanning_rank,
    trajectory_independence,
    waypoint_visits,
)
from .matspace import (
    basis_zt,
    dagger,
    embed_2x2,
    from_coords,
    hs_norm,
    to_coords,
)
from .model import (
    HypothesisReport,
    HypothesisViolation,
    QuantumSystem,
    check_hypotheses,
    load_system,
    load_system_csv,
)
from .reachability import LieClosureResult, is_controllable, lie_closure
from .steer import (
    NotControllableError,
    SteerOptions,
    SynthesisResult,
    WaypointSynthesis,
    synthesize_through_waypoints,
    synthesize_to_target,
)
from .waypoints import (
    Lemma1Result,
    SeparatingWitness,
    ThetaGrid,
    WaypointSet,
    default_theta_grid,
    lemma1_check,
    load_waypoints,
    save_waypoints,
    separating_unitary,
    theorem1_waypoints,
    theorem3_waypoints,
)

__version__ = "0.1.0"

"""Control synthesis toward target unitaries and through way-point lists.

Quasi-Newton ascent on the squared phase-invariant gate fidelity: a
limited-memory BFGS direction from the exact gradient and the curvature
pairs of recent steps that met the Wolfe curvature condition, with an
Armijo backtracking line search (Nocedal and Wright, *Numerical
Optimization*, 2006, Alg. 7.4; de Fouquières et al., J. Magn. Reson. 212,
412, 2011).  Whenever the quasi-Newton direction fails to ascend, the
step falls back to the plain gradient and the curvature history starts
afresh.  The iterates are deterministic given the seed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import evolve, reachability
from .evolve import ControlField, PropagatorTrajectory, concat_fields
from .landscape import VisitRecord, gate_fidelity, waypoint_visits
from .matspace import assert_unitary, dagger
from .model import QuantumSystem
from .tolerances import ARMIJO, GRAD_FLOOR, GRID_RTOL, MIN_STEP, PIVOT_RTOL, WOLFE_C2
from .waypoints import WaypointSet

__all__ = [
    "NotControllableError",
    "SteerOptions",
    "SynthesisResult",
    "WaypointSynthesis",
    "default_segment_time",
    "synthesize_to_target",
    "synthesize_through_waypoints",
]

INIT_AMPLITUDE = 0.1
# Curvature pairs (s, y) the quasi-Newton direction remembers.
LBFGS_MEMORY = 8


class NotControllableError(ValueError):
    """The system's Lie closure is too small for synthesis guarantees."""


def default_segment_time(sys: QuantumSystem) -> float:
    """Heuristic horizon per segment: 10 pi N / ||mu||_HS.

    No a-priori bound on the needed horizon exists, so this is a knob;
    failures at a too-short horizon are reported honestly rather than
    hidden.
    """
    return 10.0 * np.pi * sys.dim / float(np.linalg.norm(sys.mu))


@dataclass(frozen=True)
class SteerOptions:
    segment_time: float
    steps_per_segment: int = 50
    max_iters: int = 500
    fid_target: float = 0.999
    step_size: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("steps_per_segment", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (0.0 < self.fid_target < 1.0):
            raise ValueError(f"fid_target must lie in (0, 1), got {self.fid_target}")
        for name in ("segment_time", "steps_per_segment", "max_iters", "step_size"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class SynthesisResult:
    """The synthesized field, its fidelity and its endpoint propagator U_M."""

    field: ControlField
    achieved_fidelity: float
    iterations: int
    converged: bool
    endpoint: np.ndarray


@dataclass(frozen=True)
class WaypointSynthesis:
    """Concatenated field, its propagated trajectory, per-segment results and
    the visit verification."""

    field: ControlField
    trajectory: PropagatorTrajectory
    segments: tuple[SynthesisResult, ...]
    visits: tuple[VisitRecord, ...]

    @property
    def all_visited(self) -> bool:
        return all(v.visited for v in self.visits)


def _require_controllable(sys: QuantumSystem) -> None:
    if reachability.is_controllable(sys) == reachability.VERDICT_NO:
        raise NotControllableError(
            "system is not controllable (Lie closure too small); synthesis guarantees do not apply"
        )


def _fidelity_state(sys: QuantumSystem, field: ControlField, target: np.ndarray) -> tuple[float, PropagatorTrajectory]:
    """Fidelity of one line-search trial and the step pass it came from."""
    traj = evolve._final_propagator(sys, field)
    return gate_fidelity(target, traj.unitaries[-1]), traj


def _fidelity_gradient(target: np.ndarray, traj: PropagatorTrajectory) -> tuple[float, np.ndarray]:
    """Fidelity and the exact gradient of its square wrt each step amplitude.

    With z = Tr(target† U_M), the objective is |z|^2 / N^2 and
    dz/d(eps_m) = i dt Tr(mid_hat_m target† U_M), with mid_hat_m the exact
    midpoint coupling from ``evolve._midpoint_couplings``.  ``traj`` is the
    field's step pass, as ``_fidelity_state`` returns it; U_M is its last node.
    """
    n = traj.dim
    u = traj.unitaries[-1]
    z = complex(np.vdot(target, u))
    dz = 1j * evolve._coupling_traces(traj, dagger(target) @ u)
    grad = 2.0 * np.real(np.conj(z) * dz) / (n * n)
    return abs(z) / n, grad


def _lbfgs_direction(grad: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The L-BFGS ascent direction H grad, by the two-loop recursion.

    H is the inverse-Hessian estimate of -fid^2 from the curvature pairs
    (s, y), oldest first, each with s.y > 0, updated from H0 = (s.y / y.y) I
    of the newest pair (Nocedal and Wright, Alg. 7.4).  With no pairs it
    is ``grad`` itself.
    """
    if not pairs:
        return grad
    q = grad.copy()
    coeffs = []
    for s, y in reversed(pairs):
        a = float(np.dot(s, q)) / float(np.dot(s, y))
        q -= a * y
        coeffs.append(a)
    s, y = pairs[-1]
    q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y), a in zip(pairs, reversed(coeffs)):
        q += (a - float(np.dot(y, q)) / float(np.dot(s, y))) * s
    return q


def _synthesize(
    sys: QuantumSystem,
    target: np.ndarray,
    opts: SteerOptions,
    rng: np.random.Generator,
    initial: ControlField | None,
) -> SynthesisResult:
    # Canonical phase representative, so that phase-shifted copies of one target
    # give bit-identical iterates: the first row-major entry within PIVOT_RTOL of
    # the largest magnitude (near-ties pick the same pivot) is made real and
    # positive, then the entries are rounded to 12 decimals (each moves < 1e-12).
    flat = target.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) >= (1.0 - PIVOT_RTOL) * np.abs(flat).max())]
    target = np.round(target * (abs(pivot) / pivot), 12)

    m_steps = opts.steps_per_segment
    if initial is not None:
        if initial.steps != m_steps or abs(initial.horizon - opts.segment_time) > GRID_RTOL * opts.segment_time:
            raise ValueError("initial field must match segment_time and steps_per_segment")
        values = initial.values.copy()
    else:
        values = rng.uniform(-INIT_AMPLITUDE, INIT_AMPLITUDE, m_steps)

    traj = evolve._final_propagator(sys, ControlField(horizon=opts.segment_time, values=values))
    fid, grad = _fidelity_gradient(target, traj)
    iterations = 0
    alpha = opts.step_size
    pairs = deque(maxlen=LBFGS_MEMORY)
    while fid < opts.fid_target and iterations < opts.max_iters:
        gnorm2 = float(np.dot(grad, grad))
        if gnorm2 < GRAD_FLOOR**2:
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = float(np.dot(grad, direction))
        if pairs and slope > 0.0 and np.all(np.isfinite(direction)):
            alpha = 1.0
        else:
            # No history, or a direction that does not ascend: a gradient step,
            # and the history starts afresh.
            pairs.clear()
            direction, slope = grad, gnorm2
            alpha = min(opts.step_size, 2.0 * alpha)
        phi = fid * fid
        while alpha >= MIN_STEP:
            trial = ControlField(horizon=opts.segment_time, values=traj.field.values + alpha * direction)
            trial_fid, trial_traj = _fidelity_state(sys, trial, target)
            # The increase itself is tested, so that a step leaving fid^2
            # unchanged fails even once ARMIJO alpha slope is below its ulp.
            if trial_fid * trial_fid - phi >= ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        iterations += 1
        fid, new_grad = _fidelity_gradient(target, trial_traj)
        # Ascent on fid^2 is descent on -fid^2, whose gradient change is
        # g_old - g_new.  The pair is kept only when s.y > 0 and the step meets
        # the Wolfe curvature condition, so that a nearly flat pair cannot
        # blow H up along s.
        s, y = trial.values - traj.field.values, grad - new_grad
        sy = float(np.dot(s, y))
        if sy > 0.0 and sy >= (1.0 - WOLFE_C2) * float(np.dot(grad, s)):
            pairs.append((s, y))
        traj, grad = trial_traj, new_grad

    # A copy, so that a chain's results do not keep every segment's nodes alive.
    return SynthesisResult(
        field=traj.field,
        achieved_fidelity=fid,
        iterations=iterations,
        converged=fid >= opts.fid_target,
        endpoint=traj.unitaries[-1].copy(),
    )


def synthesize_to_target(
    sys: QuantumSystem,
    target: np.ndarray,
    opts: SteerOptions,
    *,
    initial: ControlField | None = None,
) -> SynthesisResult:
    """Quasi-Newton synthesis of a control hitting ``target`` up to phase.

    Requires a controllable system.  The initial guess is small seeded
    uniform noise (the zero field is often a saddle); an explicit
    ``initial`` field overrides it.  Each iteration steps along the L-BFGS
    direction of the last ``LBFGS_MEMORY`` curvature pairs, starting the
    line search at 1; the first iteration, and any whose direction does
    not ascend, takes a gradient step of at most ``opts.step_size`` and
    clears the pairs.  Accepted iterations strictly raise the fidelity
    (Armijo backtracking on its increase), and a field already meeting
    ``fid_target`` returns converged at iteration 0.  Non-convergence is
    reported in the result rather than raised.
    """
    _require_controllable(sys)
    target = assert_unitary(target, name="target")
    if target.shape != (sys.dim, sys.dim):
        raise ValueError(f"target shape {target.shape} does not match dimension {sys.dim}")
    return _synthesize(sys, target, opts, np.random.default_rng(opts.seed), initial)


def synthesize_through_waypoints(
    sys: QuantumSystem,
    wset: WaypointSet,
    opts: SteerOptions,
) -> WaypointSynthesis:
    """Chain segment syntheses so the trajectory visits the way-points in order.

    Segment k targets the relative propagator taking the achieved endpoint
    of the previous segments to way-point k (with the identity before the
    first), per the composition U(t_k, 0) = U(t_k, t_{k-1}) U(t_{k-1}, 0);
    anchoring each target to the achieved endpoint keeps per-segment errors
    from compounding across the chain.  The segment fields share one grid
    and concatenate into a single control whose re-propagated trajectory is
    verified against the set with phase-invariant visit fidelities.
    """
    _require_controllable(sys)
    if len(wset) == 0:
        raise ValueError("way-point set is empty")
    if wset.dim != sys.dim:
        raise ValueError(f"dimension mismatch: set {wset.dim} vs system {sys.dim}")

    rng = np.random.default_rng(opts.seed)
    reached = np.eye(sys.dim, dtype=complex)
    segments = []
    for w in wset.unitaries:
        target = w @ dagger(reached)
        result = _synthesize(sys, target, opts, rng, None)
        segments.append(result)
        reached = result.endpoint @ reached

    field = concat_fields([s.field for s in segments])
    traj = evolve.propagate(sys, field)
    visits = waypoint_visits(traj, wset, fid_tol=1.0 - opts.fid_target)
    return WaypointSynthesis(field=field, trajectory=traj, segments=tuple(segments), visits=tuple(visits))

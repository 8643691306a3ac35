"""Control synthesis toward target unitaries and through way-point lists.

Newton steps on the propagator (de Fouquières et al., J. Magn. Reson. 212,
412, 2011), with an Armijo backtracking line search on the squared
phase-invariant gate fidelity.  The Jacobian of the M-step map eps -> U_M
has the columns i dt U_M mid_hat_m; ``jac`` = ``landscape._jacobian`` holds
dt mid_hat_m in isu(N) coordinates, and where its N^2 - 1 columns have full
rank, the control is regular and the Newton step converges quadratically.
There it ascends unless the gradient is 0, so a step that does not ascend
ends the segment.  The iterates are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolve, reachability
from .evolve import ControlField, PropagatorTrajectory
from .landscape import SpanReport, VisitRecord, _jacobian, _read_pass, _VisitSearch, gate_fidelity
from .matspace import assert_unitary, dagger, hs_norm, to_coords
from .model import QuantumSystem
from .tolerances import ARMIJO, GRID_RTOL, MIN_STEP, PIVOT_RTOL, RANK_TOL
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


class NotControllableError(ValueError):
    """The system's Lie closure is too small for synthesis guarantees."""


def default_segment_time(sys: QuantumSystem) -> float:
    """Heuristic horizon per segment: 10 pi N / ||mu||_HS.

    No a-priori bound on the needed horizon exists, so this is a knob;
    failures at a too-short horizon are reported honestly rather than
    hidden.  A zero dipole has no such horizon, and its Lie closure, span{h0},
    is too small: ``NotControllableError``.  A dipole so small that the
    quotient overflows has none either, nor one whose norm overflows:
    ``ValueError``, which names the horizon, the norm and ``--segment-time``.
    """
    norm = hs_norm(sys.mu)
    if norm == 0.0:
        _require_controllable(sys)
    horizon = 10.0 * np.pi * sys.dim / norm
    if not 0.0 < horizon < np.inf:
        raise ValueError(
            f"the default horizon per segment, 10 pi N / ||mu||_HS with ||mu||_HS = {norm:.3g}, "
            "is not a positive finite number; give one with --segment-time"
        )
    return horizon


def _segment_steps(dim: int, steps: int | None) -> int:
    """``steps``, or max(50, 2(N^2 - 1)) when it is None.  A control is regular
    only where the M rows of the Jacobian of eps -> U_M span isu(N), so a
    ``steps`` below N^2 - 1 is refused."""
    rows = dim * dim - 1
    if steps is not None and steps < rows:
        raise ValueError(f"steps_per_segment {steps} is below N^2 - 1 = {rows}: no control of that length is regular")
    return max(50, 2 * rows) if steps is None else steps


@dataclass(frozen=True)
class SteerOptions:
    segment_time: float
    steps_per_segment: int | None = None
    max_iters: int = 500
    fid_target: float = 0.999
    seed: int = 0

    def __post_init__(self):
        counts = ("max_iters",) if self.steps_per_segment is None else ("steps_per_segment", "max_iters")
        for name in counts:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (0.0 < self.fid_target < 1.0):
            raise ValueError(f"fid_target must lie in (0, 1), got {self.fid_target}")
        for name in ("segment_time", *counts):
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
    """Concatenated field, per-segment results, and the two readings of its
    trajectory that certify it, taken in one pass over the streamed chain
    (:func:`synthesize_through_waypoints`): the span of the conjugated
    dipoles at every node, and the visits, whose global search costs
    K (M + 1) overlaps of N^2 complex terms, O(K^2) in the chain.  The chain
    is guarded a block at a time, so a bad node raises up to 2
    ``evolve._BLOCK`` steps after it."""

    field: ControlField
    span: SpanReport
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


def _fidelity_gradient(target: np.ndarray, traj: PropagatorTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """The exact gradient of the squared fidelity and the Newton step, each wrt
    every step amplitude, from one Jacobian ``jac`` = ``landscape._jacobian(traj)``.

    With z = Tr(target† U_M), the objective is |z|^2 / N^2 and
    dz/d(eps_m) = i dt Tr(mid_hat_m target† U_M), so the gradient is
    ``jac @ to_coords(2i conj(z) target† U_M) / N^2`` (real trace 0); the same
    ``jac`` gives the Newton step (:func:`_newton_direction`).  ``traj`` is the
    field's step pass, as ``_fidelity_state`` returns it; U_M is its last node.
    """
    u = traj.unitaries[-1]
    z = complex(np.vdot(target, u))
    gap = dagger(target) @ u
    jac = _jacobian(traj)
    grad = jac @ to_coords(2j * np.conj(z) * gap) / traj.dim**2
    return grad, _newton_direction(np.exp(-1j * np.angle(z)) * gap, jac)


def _newton_direction(gap: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The Newton step on the propagator toward the phase-normalised ``gap``.

    U_M(eps + delta) = U_M exp(i sum_m delta_m A_m) to first order, with
    A_m = dt mid_hat_m, whose isu(N) coordinates are the rows of ``jac``, and
    ``gap`` = e^{-i arg z} target† U_M = exp(iK), K the Hermitian log of
    ``gap`` with eigenphases in (-pi, pi].  The step is the minimum-norm
    least-squares delta with ``jac.T @ delta = -to_coords(K)``, cutting
    singular values below ``RANK_TOL`` of the largest so that a singular
    control still gets a step.  The trace of K and the anti-Hermitian
    round-off of the log are dropped by ``to_coords``.
    """
    w, v = np.linalg.eig(gap)
    k = (v * np.angle(w)) @ np.linalg.inv(v)
    return np.linalg.lstsq(jac.T, -to_coords(k), rcond=RANK_TOL)[0]


def _synthesize(
    sys: QuantumSystem,
    target: np.ndarray,
    opts: SteerOptions,
    rng: np.random.Generator,
    initial: ControlField | None,
    keep: list[PropagatorTrajectory] | None = None,
) -> SynthesisResult:
    """One segment's synthesis; ``keep``, when given, receives its last
    accepted step pass, from which a chain composes its trajectory."""
    # Canonical phase representative, so that phase-shifted copies of one target
    # give bit-identical iterates: the first row-major entry within PIVOT_RTOL of
    # the largest magnitude (near-ties pick the same pivot) is made real and
    # positive, then the entries are rounded to 12 decimals (each moves < 1e-12).
    flat = target.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) >= (1.0 - PIVOT_RTOL) * np.abs(flat).max())]
    target = np.round(target * (abs(pivot) / pivot), 12)

    m_steps = _segment_steps(sys.dim, opts.steps_per_segment)
    if initial is not None:
        if initial.steps != m_steps or abs(initial.horizon - opts.segment_time) > GRID_RTOL * opts.segment_time:
            raise ValueError("initial field must match segment_time and steps_per_segment")
        values = initial.values.copy()
    else:
        values = rng.uniform(-INIT_AMPLITUDE, INIT_AMPLITUDE, m_steps)

    traj = evolve._final_propagator(sys, ControlField(horizon=opts.segment_time, values=values))
    fid = gate_fidelity(target, traj.unitaries[-1])
    iterations = 0
    # A step starts at 1, or at twice the last accepted step when that was
    # shorter, so that a run of damped steps does not pay the same backtracks
    # again on every iteration.
    alpha = 1.0
    while fid < opts.fid_target and iterations < opts.max_iters:
        # Derivatives only where a step follows: a pass that meets fid_target
        # or uses up max_iters ends the segment without them.
        grad, direction = _fidelity_gradient(target, traj)
        slope = float(np.dot(grad, direction))
        # A Newton step that does not ascend (a zero gradient included) marks
        # a singular control or a critical point: the segment ends here.
        if not (slope > 0.0 and np.all(np.isfinite(direction))):
            break
        step = alpha
        phi = fid * fid
        while step >= MIN_STEP:
            trial = ControlField(horizon=opts.segment_time, values=traj.field.values + step * direction)
            trial_fid, trial_traj = _fidelity_state(sys, trial, target)
            # The increase itself is tested, so that a step leaving fid^2
            # unchanged fails even once ARMIJO step slope is below its ulp.
            if trial_fid * trial_fid - phi >= ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        alpha = min(1.0, 2.0 * step)
        iterations += 1
        traj, fid = trial_traj, trial_fid

    if keep is not None:
        keep.append(traj)
    # A copy, so that the endpoint outlives a pass that a chain drops.
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
    """Newton synthesis of a control hitting ``target`` up to phase.

    Requires a controllable system.  The initial guess is small seeded
    uniform noise (the zero field is often a saddle); an explicit
    ``initial`` field overrides it.  A segment has ``steps_per_segment``
    steps, max(50, 2(N^2 - 1)) by default; fewer than N^2 - 1 raise
    ``ValueError``, as no such control is regular.  Each iteration takes the
    Newton step on the propagator, the least control change whose linearised
    effect undoes the Hermitian log of the phase-normalised gap target† U_M,
    from 1 or twice the last accepted step.  Accepted iterations strictly
    raise the fidelity (Armijo backtracking on its increase), and a field
    already meeting ``fid_target`` returns converged at iteration 0.  A
    Newton step that does not ascend, as at a singular control, ends the
    segment at its current iterate.  Non-convergence is reported in the
    result rather than raised.
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
    and concatenate into a single control.

    Its trajectory is composed from the segments' own passes as they are
    steered (``evolve._chain``), with no step taken again, and read once, as
    it streams: each block gives the span its nodes' conjugated dipoles and
    the visit search its nodes.  The search is global, K (M + 1) overlaps of
    N^2 complex terms for K way-points and M steps, so O(K^2) in the chain.
    The guard of ``evolve.propagate`` checks a chain block at a time: a bad
    node raises at the end of its block, after up to 2 ``evolve._BLOCK``
    more steps of later segments.
    """
    _require_controllable(sys)
    if wset.dim != sys.dim:
        raise ValueError(f"dimension mismatch: set {wset.dim} vs system {sys.dim}")

    rng = np.random.default_rng(opts.seed)
    segments = []

    def passes():
        # Each segment is steered once the chain has composed the one before,
        # so no more than two segments' passes are alive at a time.
        reached = np.eye(sys.dim, dtype=complex)
        kept = []
        for w in wset.unitaries:
            target = w @ dagger(reached)
            result = _synthesize(sys, target, opts, rng, None, kept)
            segments.append(result)
            reached = result.endpoint @ reached
            yield kept.pop()

    steps = len(wset.unitaries) * _segment_steps(sys.dim, opts.steps_per_segment)
    search = _VisitSearch(wset, steps)
    chain = evolve._chain(sys, passes(), steps)
    try:
        span = _read_pass(sys, None, chain, 1, search=search).span
    except RuntimeError:
        # A span that is not finite is reported once the chain is through, so
        # that a later segment's failure, or the guard's, still comes first.
        for _ in chain:
            pass
        raise
    field = evolve.concat_fields([s.field for s in segments])
    visits = search.records(field, 1.0 - opts.fid_target)
    return WaypointSynthesis(field=field, span=span, segments=tuple(segments), visits=tuple(visits))

"""Propagator integration for piecewise-constant controls.

The step generator ``h0 - eps_m * mu`` is Hermitian, so each step
propagator is computed by eigendecomposition, which is exact for a
constant step and unconditionally unitary up to round-off.  Each field
gets one pass over its steps under its system (:class:`PropagatorTrajectory`),
which propagation, gradients and synthesis share.  The same eigenbasis
gives every step's exact midpoint coupling ``mid_hat_m``, with
dS_m/d(eps_m) = i dt U_{m+1} mid_hat_m U_m† for the step S_m = U_{m+1} U_m†,
so no other exponential is needed.  Row m of the real (M, 2 N^2) Jacobian
J of :func:`_jacobian` is ``_real_rows(dt mid_hat_m)``; as Re Tr(A X) =
``_real_rows(A) . _real_rows(X)`` for Hermitian A, every control derivative
is one product ``J @ _real_rows(X)``.  Conjugated dipoles ``u† mu u`` are
formed only by :func:`conjugated_dipole`, for the nodes a span samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fmt import FormatError, float_array, int_field, parse_json, require_key, write_document, write_float_table
from .matspace import _real_rows, dagger, unitarity_defect
from .model import QuantumSystem
from .tolerances import GRID_RTOL, TRAJECTORY_TOL

__all__ = [
    "ControlField",
    "PropagatorTrajectory",
    "density_matrix",
    "propagate",
    "conjugated_dipole",
    "concat_fields",
    "load_field",
    "save_field",
    "trajectory_csv",
]

@dataclass(frozen=True)
class ControlField:
    """Piecewise-constant control on a uniform grid over [0, horizon]."""

    horizon: float
    values: np.ndarray

    def __post_init__(self):
        horizon = float(self.horizon)
        if not np.isfinite(horizon) or horizon <= 0:
            raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size < 1:
            raise ValueError("control needs at least one step")
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "values", values)

    @property
    def steps(self) -> int:
        return int(self.values.size)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @classmethod
    def constant(cls, value: float, horizon: float, steps: int) -> "ControlField":
        return cls(horizon=horizon, values=np.full(steps, float(value)))


@dataclass(frozen=True)
class PropagatorTrajectory:
    """One pass over a field's steps under a system, not validated: ``eig = (w, v)``
    of every h0 - eps_m mu and the nodes ``unitaries`` U(t_m, 0), with U_0 = I
    exactly and U_{m+1} = exp(-i dt (h0 - eps_m mu)) U_m."""

    sys: QuantumSystem
    field: ControlField
    eig: tuple[np.ndarray, np.ndarray]
    unitaries: np.ndarray

    @property
    def dt(self) -> float:
        return self.field.dt

    @property
    def steps(self) -> int:
        return self.field.steps

    @property
    def dim(self) -> int:
        return self.sys.dim

    @property
    def times(self) -> np.ndarray:
        """Grid times t_m = m dt of the nodes, m = 0..M."""
        return np.linspace(0.0, self.field.horizon, self.field.steps + 1)


def density_matrix(entries) -> np.ndarray:
    """Validated density matrix: Hermitian, unit trace, nonnegative spectrum,
    each within ``TRAJECTORY_TOL``."""
    rho = np.asarray(entries, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm = float(np.abs(rho - dagger(rho)).max())
    if not herm <= TRAJECTORY_TOL:
        raise ValueError(f"density matrix not Hermitian: defect {herm:.3e}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= TRAJECTORY_TOL:
        raise ValueError(f"density matrix trace must be 1, got {tr:.12g}")
    lo = float(np.linalg.eigvalsh(rho).min())
    if not lo >= -TRAJECTORY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    out = rho.copy()
    out.setflags(write=False)
    return out


def _step_exponentials(sys: QuantumSystem, values: np.ndarray, dt: float) -> tuple[tuple, np.ndarray]:
    """``eig = (w, v)`` of h0 - eps mu for every amplitude of ``values``, and each
    step's exponential exp(-i dt (h0 - eps mu)) = V diag(exp(-i dt w)) V†.  Every
    step exponential of the package is taken here."""
    eig = np.linalg.eigh(sys.h0[None, :, :] - values[:, None, None] * sys.mu[None, :, :])
    w, v = eig
    return eig, (v * np.exp(-1j * dt * w)[:, None, :]) @ dagger(v)


def _final_propagator(sys: QuantumSystem, field: ControlField) -> PropagatorTrajectory:
    """The field's step pass under ``sys``, whose last node is the endpoint U_M.
    Every propagator of the package comes from this pass; it is not validated."""
    eig, steps = _step_exponentials(sys, field.values, field.dt)
    m_total, n, _ = steps.shape
    nodes = np.empty((m_total + 1, n, n), dtype=complex)
    nodes[0] = np.eye(n)
    for m in range(m_total):
        np.matmul(steps[m], nodes[m], out=nodes[m + 1])
    return PropagatorTrajectory(sys=sys, field=field, eig=eig, unitaries=nodes)


def _step_frames(traj: PropagatorTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Every step's frame ``v_m† U_m`` and coupling ``(v_m† mu v_m) ∘ Phi_m``.

    ``v_m`` holds the eigenvectors of step m, ``w`` its eigenvalues, and
    Phi_ab = sinc(x) e^{ix} = (e^{2ix} - 1) / (2ix) with x = dt (w_a - w_b) / 2,
    1 on the diagonal and at degenerate levels: the mean of e^{i s dt (w_a - w_b)}
    over s in [0, 1].  e^{ix} is the outer product p_a conj(p_b) of the
    per-level phases p = e^{i dt w / 2}, so only M N exponentials are taken.
    """
    w, v = traj.eig
    vh = dagger(v)
    x = 0.5 * traj.dt * (w[:, :, None] - w[:, None, :])
    p = np.exp(0.5j * traj.dt * w)
    # Phi before the frames, so that its temporaries are gone at the peak.
    phi = np.sinc(x / np.pi) * (p[:, :, None] * p.conj()[:, None, :])
    return vh @ traj.unitaries[:-1], (vh @ traj.sys.mu @ v) * phi


def _jacobian(traj: PropagatorTrajectory) -> np.ndarray:
    """The real (M, 2 N^2) Jacobian J of the pass ``traj``: row m is
    ``_real_rows(dt mid_hat_m)``, Re and Im of each entry in row-major order.

    ``mid_hat_m = frame_m† coupling_m frame_m`` (:func:`_step_frames`) is the
    mean of U(s)† mu U(s) over step m, and dU_M/d(eps_m) = i dt U_M mid_hat_m
    with no discretisation error.  It is Hermitian, so Re Tr(A X) =
    ``_real_rows(A) . _real_rows(X)`` for A = dt mid_hat_m, and
    ``J @ _real_rows(X)`` is dt Re Tr(mid_hat_m X) for every step m.
    """
    frames, coupling = _step_frames(traj)
    mid = dagger(frames) @ coupling @ frames
    mid *= traj.dt
    return _real_rows(mid)


def propagate(sys: QuantumSystem, field: ControlField) -> PropagatorTrajectory:
    """Integrate the propagator over the control grid.

    The field's step pass, with the unitarity of every node checked against
    ``TRAJECTORY_TOL``; its nodes are read-only.
    """
    traj = _final_propagator(sys, field)
    defect = float(unitarity_defect(traj.unitaries).max())
    if not defect <= TRAJECTORY_TOL:
        raise RuntimeError(f"propagation lost unitarity: defect {defect:.3e}")
    traj.unitaries.setflags(write=False)
    return traj


def conjugated_dipole(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Coupling operator in the frame of ``u``: u† mu u.

    Batched: ``u`` is one unitary or a stack (..., N, N), conjugated in
    one matmul.  Hermitian and traceless whenever ``mu`` is, with the same
    HS norm.
    """
    u = np.asarray(u)
    mu = np.asarray(mu)
    if mu.ndim != 2 or u.ndim < 2 or u.shape[-2:] != mu.shape:
        raise ValueError(f"dimension mismatch: u {u.shape} vs mu {mu.shape}")
    out = dagger(u) @ mu @ u
    out.setflags(write=False)
    return out


def concat_fields(fields: list[ControlField]) -> ControlField:
    """Concatenate fields sharing one step length into a single grid."""
    if not fields:
        raise ValueError("need at least one field")
    dt = fields[0].dt
    for f in fields[1:]:
        if abs(f.dt - dt) > GRID_RTOL * dt:
            raise ValueError(f"step mismatch: {f.dt!r} vs {dt!r}")
    values = np.concatenate([f.values for f in fields])
    horizon = float(sum(f.horizon for f in fields))
    return ControlField(horizon=horizon, values=values)


def load_field(source) -> ControlField:
    """Load a control document: JSON with fields ``T``, ``M``, ``values``."""
    doc = parse_json(source)
    horizon = require_key(doc, "T")
    if type(horizon) not in (int, float):
        raise FormatError(f"field 'T' must be a number, got {horizon!r}")
    m = int_field(doc, "M", 1)
    values = float_array(require_key(doc, "values"), "values", (m,))
    try:
        return ControlField(horizon=float(horizon), values=values)
    except (OverflowError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def save_field(field: ControlField, target) -> None:
    write_document(target, {"T": field.horizon, "M": field.steps, "values": field.values})


def trajectory_csv(traj: PropagatorTrajectory, target) -> None:
    """Write t plus Re/Im of all propagator entries (row-major) as CSV."""
    n = traj.dim
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    header = ["t"] + [f"{part}_u_{i}_{j}" for i, j in pairs for part in ("re", "im")]
    write_float_table(target, np.column_stack([traj.times, _real_rows(traj.unitaries)]), header)

"""Propagator integration for piecewise-constant controls.

The step generator ``h0 - eps_m * mu`` is Hermitian, so each step
propagator is computed by eigendecomposition, which is exact for a
constant step and unconditionally unitary up to round-off.  Each field
gets one pass over its steps under its system (:class:`PropagatorTrajectory`),
which propagation, gradients and synthesis share.  The same eigenbasis
gives every step's exact midpoint coupling ``mid_hat_m``, with
dS_m/d(eps_m) = i dt U_{m+1} mid_hat_m U_m† for the step S_m = U_{m+1} U_m†,
so no other exponential is needed.  Row m of the Jacobian J is dt mid_hat_m,
and a control derivative dt Re Tr(mid_hat_m X) is one product of J with X in
the same form: real views in ``steer`` (:func:`_jacobian`), isu(N)
coordinates in the landscape gradient.  Conjugated dipoles ``u† mu u`` are
formed only by :func:`conjugated_dipole`, for the nodes a span samples.

The node product U_{m+1} = exp(-i dt (h0 - eps_m mu)) U_m is taken in one
place, the block generator :func:`_step_blocks`: it diagonalises and
exponentiates ``_BLOCK`` steps at a time and continues the product from the
last node, so a consumer that keeps nothing of a block holds
O(``_BLOCK`` N^2) whatever M.  :func:`_unitary_blocks` is the one guard on
its nodes.  ``check`` reads the guarded blocks as they come and keeps neither
nodes nor eigenpairs; :func:`propagate` keeps them, for the commands that
read them again (``steer``, ``gradient-check``, ``propagate``), and gives
them back in the same blocks (:meth:`PropagatorTrajectory.blocks`), so one
reader (``landscape._read_pass``) serves both.  Every stage that reads a kept
pass works through the blocks of :func:`_blocks`, so its temporaries are
O(``_BLOCK`` N^2) too.  Every per-matrix operation, isu(N) coordinates
included, is the same in a block as over the whole field; BLAS can round a
row of ``landscape.waypoint_visits``' overlaps, the one product of stacked
rows taken per block, differently in its last bit (seen from N = 16 on).
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

# Steps per block of every stage that walks a pass (:func:`_blocks`): at
# N = 32 a stack of _BLOCK complex matrices holds 4 MB, whatever M.
_BLOCK = 256


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

    def blocks(self):
        """The pass as :func:`_step_blocks` yields it, in read-only views of the
        kept arrays."""
        w, v, nodes = (a.view() for a in (*self.eig, self.unitaries))
        for a in (w, v, nodes):
            a.flags.writeable = False
        for block in _blocks(self.steps):
            yield block, (w[block], v[block]), nodes[block.start : block.stop + 1]


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
    step exponential of the package is taken here.

    A generator or a spectrum that is not finite, as when h0 - eps mu
    overflows, raises ``RuntimeError`` before any step is exponentiated.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gen = sys.h0[None, :, :] - values[:, None, None] * sys.mu[None, :, :]
    if not np.isfinite(gen).all():
        raise RuntimeError("step generators h0 - eps mu are not finite")
    eig = np.linalg.eigh(gen)
    w, v = eig
    if not np.isfinite(w).all():
        raise RuntimeError("step eigenvalues are not finite")
    return eig, (v * np.exp(-1j * dt * w)[:, None, :]) @ dagger(v)


def _blocks(count: int) -> list[slice]:
    """Consecutive slices covering range(count): blocks of ``_BLOCK`` indices,
    the last of which also takes the remainder, so it has fewer than
    2 ``_BLOCK``.

    No block is shorter than ``_BLOCK`` unless it is the only one.  BLAS
    takes a short product by other kernels, whose sums can run in another
    order, and numpy a one-row product by another routine; a row of
    ``landscape.waypoint_visits``' overlaps in a short tail block would then
    differ in its last bits from the same row of the product over all rows.
    """
    cuts = list(range(_BLOCK, count - _BLOCK + 1, _BLOCK))
    return [slice(start, stop) for start, stop in zip([0, *cuts], [*cuts, count])]


def _step_blocks(sys: QuantumSystem, field: ControlField):
    """The field's step pass under ``sys``, one block of :func:`_blocks` at a
    time: yields ``(block, (w, v), nodes)`` with the eigenpairs of the steps in
    ``block`` and the nodes U_{block.start} .. U_{block.stop}, U_0 = I exactly.

    Each block continues the product from the last node of the one before,
    U_{m+1} = exp(-i dt (h0 - eps_m mu)) U_m; no other code of the package
    multiplies out nodes.  Nothing is validated.
    """
    node = np.eye(sys.dim, dtype=complex)
    for block in _blocks(field.steps):
        eig, steps = _step_exponentials(sys, field.values[block], field.dt)
        nodes = np.empty((len(steps) + 1, *node.shape), dtype=complex)
        nodes[0] = node
        for k, step in enumerate(steps):
            np.matmul(step, nodes[k], out=nodes[k + 1])
        node = nodes[-1]
        yield block, eig, nodes


def _unitary_blocks(sys: QuantumSystem, field: ControlField):
    """The blocks of :func:`_step_blocks`, each yielded once its new nodes are
    unitary within ``TRAJECTORY_TOL`` (U_0 = I exactly)."""
    for block, eig, nodes in _step_blocks(sys, field):
        defect = float(unitarity_defect(nodes[1:]).max())
        if not defect <= TRAJECTORY_TOL:
            raise RuntimeError(f"propagation lost unitarity: defect {defect:.3e}")
        yield block, eig, nodes


def _collect(sys: QuantumSystem, field: ControlField, blocks) -> PropagatorTrajectory:
    """The pass of ``blocks`` (:func:`_step_blocks`) in whole-field arrays: the
    M + 1 nodes and the eigenpairs ``(w, v)`` of the M steps."""
    n = sys.dim
    nodes = np.empty((field.steps + 1, n, n), dtype=complex)
    nodes[0] = np.eye(n)
    w, v = np.empty((field.steps, n)), np.empty((field.steps, n, n))
    for block, eig, block_nodes in blocks:
        w[block], v[block] = eig
        nodes[block.start + 1 : block.stop + 1] = block_nodes[1:]
    return PropagatorTrajectory(sys=sys, field=field, eig=(w, v), unitaries=nodes)


def _final_propagator(sys: QuantumSystem, field: ControlField) -> PropagatorTrajectory:
    """The field's step pass under ``sys``, unchecked, whose last node is the
    endpoint U_M: the pass of each line-search trial of ``steer``."""
    return _collect(sys, field, _step_blocks(sys, field))


def _step_frames(dt: float, mu: np.ndarray, eig: tuple, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame ``v_m† U_m`` and coupling ``(v_m† mu v_m) ∘ Phi_m`` of every
    step m with eigenpairs ``eig = (w, v)`` and start node ``nodes[m]`` = U_m.

    ``v_m`` holds the eigenvectors of step m, ``w`` its eigenvalues, and
    Phi_ab = sinc(x) e^{ix} = (e^{2ix} - 1) / (2ix) with x = dt (w_a - w_b) / 2,
    1 on the diagonal and at degenerate levels: the mean of e^{i s dt (w_a - w_b)}
    over s in [0, 1].  e^{ix} is the outer product p_a conj(p_b) of the
    per-level phases p = e^{i dt w / 2}, so only M N exponentials are taken.
    """
    w, v = eig
    vh = dagger(v)
    x = 0.5 * dt * (w[:, :, None] - w[:, None, :])
    p = np.exp(0.5j * dt * w)
    # Phi before the frames, so that its temporaries are gone at the peak.
    phi = np.sinc(x / np.pi) * (p[:, :, None] * p.conj()[:, None, :])
    return vh @ nodes, (vh @ mu @ v) * phi


def _mid_hats(dt: float, mu: np.ndarray, eig: tuple, nodes: np.ndarray) -> np.ndarray:
    """dt mid_hat_m of every step m with eigenpairs ``eig`` and start node
    ``nodes[m]`` = U_m (:func:`_step_frames`): the complex matrices whose real
    views are the rows of the Jacobian J (:func:`_jacobian`)."""
    frames, coupling = _step_frames(dt, mu, eig, nodes)
    mid = dagger(frames) @ coupling @ frames
    mid *= dt
    return mid


def _jacobian(traj: PropagatorTrajectory) -> np.ndarray:
    """The real (M, 2 N^2) Jacobian J of the pass ``traj``: row m is
    ``_real_rows(dt mid_hat_m)``, Re and Im of each entry in row-major order.

    ``mid_hat_m = frame_m† coupling_m frame_m`` (:func:`_step_frames`) is the
    mean of U(s)† mu U(s) over step m, and dU_M/d(eps_m) = i dt U_M mid_hat_m
    with no discretisation error.  It is Hermitian, so Re Tr(A X) =
    ``_real_rows(A) . _real_rows(X)`` for A = dt mid_hat_m, and
    ``J @ _real_rows(X)`` is dt Re Tr(mid_hat_m X) for every step m.
    """
    return _real_rows(_mid_hats(traj.dt, traj.sys.mu, traj.eig, traj.unitaries[:-1]))


def propagate(sys: QuantumSystem, field: ControlField) -> PropagatorTrajectory:
    """Integrate the propagator over the control grid: the field's step pass,
    kept, with read-only nodes.  The first block whose nodes are not unitary
    (:func:`_unitary_blocks`) raises ``RuntimeError`` naming that block's
    largest defect, before any later step is taken.
    """
    traj = _collect(sys, field, _unitary_blocks(sys, field))
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
    """Write t plus Re/Im of all propagator entries (row-major) as CSV, one
    block of nodes at a time."""
    n = traj.dim
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    header = ["t"] + [f"{part}_u_{i}_{j}" for i, j in pairs for part in ("re", "im")]
    times, nodes = traj.times, traj.unitaries
    rows = (np.column_stack([times[block], _real_rows(nodes[block])]) for block in _blocks(len(nodes)))
    write_float_table(target, rows, header)

"""Propagator integration for piecewise-constant controls.

The step generator ``h0 - eps_m * mu`` is Hermitian, so the step
propagators of a pass that reads eigenpairs are computed by
eigendecomposition, which is exact for a constant step and unconditionally
unitary up to round-off.  Each field gets one pass over its steps under its
system (:class:`PropagatorTrajectory`), which propagation, gradients and
synthesis share.  The same eigenbasis gives every step's exact midpoint
coupling ``mid_hat_m``, with
dS_m/d(eps_m) = i dt U_{m+1} mid_hat_m U_m† for the step S_m = U_{m+1} U_m†,
so no other exponential is needed.  Row m of the Jacobian J is dt mid_hat_m
(:func:`_mid_hats`), which ``landscape._jacobian_rows`` reads in isu(N)
coordinates for every consumer.  Conjugated dipoles ``u† mu u`` are formed
only by :func:`conjugated_dipole`, for the nodes a span samples.

Every step exponential of the package is taken by
:func:`_step_exponentials`, by one of two kernels.  ``check --rho0/--obs``,
:func:`propagate` and :func:`_final_propagator`, and so steering and
``gradient-check``'s own pass, read eigenpairs and take the ``eigh``
exponentials.  Two passes read none: ``check`` without a gradient, whose
span needs only the nodes, and the probes of
``landscape.finite_difference_gradient``.  Their steps take a Taylor kernel
with scaling and squaring (:func:`_taylor_exponentials`), and the ``eigh``
exponential only where that is slower: below ``_TAYLOR_MIN_DIM`` levels, or
past ``_TAYLOR_MAX_SQUARINGS`` squarings.

Nodes are multiplied out in this module only, in two places.  The block
generator :func:`_step_blocks` takes the node product
U_{m+1} = exp(-i dt (h0 - eps_m mu)) U_m: it exponentiates ``_BLOCK`` steps
at a time and continues the product from the last node, so
a consumer that keeps nothing of a block holds O(``_BLOCK`` N^2) whatever M.
:func:`_chain` composes a steered chain from its segments' passes,
U(t, 0) = U(t, t_k) W_k, into the blocks of a pass of its length, and takes
no step again.  :func:`_unitary_blocks` is the one guard on the nodes of
either.  The generators h0 - eps mu are real
symmetric, so the step eigenvectors are real, and the products of the step
exponentials and of the frames v_m† U_m are taken in real arithmetic
(``matspace._real_matmul``).  In a sweep over N = 2..32 the frames kept
the bits of the complex products at every N, and the exponentials at every
N up to 16.  At N = 17, 18, 21, 22, 25, 26, 29 and 30, BLAS sums the
exponentials in another order, and their last bit can move.
``check`` reads the guarded blocks of its pass as they come, and ``steer``
those of its chain, which carries no eigenpairs; neither keeps a node.
:func:`propagate` keeps nodes and eigenpairs, for the commands that read
them again (``gradient-check``, ``propagate``), and gives them back in the
same blocks (:meth:`PropagatorTrajectory.blocks`), so one reader
(``landscape._read_pass``) serves all three.  Every stage that reads a kept
pass works through the blocks of :func:`_blocks`, so its temporaries are
O(``_BLOCK`` N^2) too.  Every per-matrix operation, isu(N) coordinates and
a step's choice of kernel and squarings included, is the same in a block as
over the whole field; BLAS can round a row of the visit search's overlaps
(``landscape._VisitSearch``), the one product of stacked rows taken per
block, differently in its last bit (seen from N = 16 on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import FormatError, float_array, int_field, parse_json, require_key, write_document, write_float_table
from .matspace import _real_matmul, _real_rows, dagger, unitarity_defect
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

    @property
    def times(self) -> np.ndarray:
        """Grid times t_m = m dt of the nodes, m = 0..M."""
        return np.linspace(0.0, self.horizon, self.steps + 1)

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
        return self.field.times

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


def _step_exponentials(sys: QuantumSystem, values: np.ndarray, dt: float, eigenpairs: bool = True) -> tuple:
    """``(eig, steps)`` for the amplitudes eps of ``values``: ``eig = (w, v)`` of
    every h0 - eps mu, or ``None`` without ``eigenpairs``, and each step's
    exponential exp(-i dt (h0 - eps mu)).  Every step exponential of the
    package is taken here.

    With ``eigenpairs`` the exponentials are :func:`_eigh_exponentials`.
    Without, a pass that reads no eigenpair takes :func:`_taylor_exponentials`
    of x = dt (h0 - eps mu), and the ``eigh`` exponential only where that
    kernel is slower: below ``_TAYLOR_MIN_DIM`` levels, and for a step whose
    ||x||_1 would need more than ``_TAYLOR_MAX_SQUARINGS`` squarings (or is not
    finite).  ``eigh`` reads the lower triangle of each generator, and the
    Taylor kernel takes the symmetric matrix of that triangle, so both see one
    generator.  A step's kernel and its squarings depend on that step alone,
    so a matrix gets the same bits in any block.  A generator that is not
    finite, as when h0 - eps mu overflows, raises ``RuntimeError`` before any
    kernel runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gen = sys.h0[None, :, :] - values[:, None, None] * sys.mu[None, :, :]
    if not np.isfinite(gen).all():
        raise RuntimeError("step generators h0 - eps mu are not finite")
    if eigenpairs:
        return _eigh_exponentials(gen, dt)
    if sys.dim < _TAYLOR_MIN_DIM:
        return None, _eigh_exponentials(gen, dt)[1]
    h0, mu = (np.tril(m) + np.tril(m, -1).T for m in (sys.h0, sys.mu))
    with np.errstate(over="ignore", invalid="ignore"):
        x = (h0[None, :, :] - values[:, None, None] * mu[None, :, :]) * dt
        norm = np.abs(x).sum(axis=-1).max(axis=-1)
    # The row sums are the column sums of a symmetric x; NaN fails the test.
    taylor = norm <= _THETA * 2.0**_TAYLOR_MAX_SQUARINGS
    if taylor.all():
        return None, _taylor_exponentials(x, _squarings(norm))
    steps = np.empty(gen.shape, dtype=complex)
    steps[~taylor] = _eigh_exponentials(gen[~taylor], dt)[1]
    if taylor.any():
        steps[taylor] = _taylor_exponentials(x[taylor], _squarings(norm[taylor]))
    return None, steps


def _eigh_exponentials(gen: np.ndarray, dt: float) -> tuple[tuple, np.ndarray]:
    """``eig = (w, v)`` of every generator of the stack ``gen`` and each one's
    exponential exp(-i dt gen) = V diag(exp(-i dt w)) Vᵀ.

    The generators are real symmetric, so V is real, and the product is taken
    in real arithmetic (``matspace._real_matmul``): as the transpose of
    V (V diag(e))ᵀ, whose terms v_jk (v_ik e_k) are those of the complex
    product (V diag(e)) Vᵀ, though BLAS can sum them in another order above
    N = 16 (see the module docstring).  The exponentials come back as that
    transposed view.  A spectrum that is not finite raises ``RuntimeError``
    before any step is exponentiated.
    """
    eig = np.linalg.eigh(gen)
    w, v = eig
    if not np.isfinite(w).all():
        raise RuntimeError("step eigenvalues are not finite")
    scaled = v * np.exp(-1j * dt * w)[:, None, :]
    return eig, np.swapaxes(_real_matmul(v, np.swapaxes(scaled, -1, -2)), -1, -2)


# The Taylor kernel (:func:`_taylor_exponentials`).  cos and sin of x are
# summed to _SERIES_TERMS terms each in y = x^2, so exp(-i x) = C - i S to
# degree 2 _SERIES_TERMS - 1, and the first term left out has degree 20.  Its
# tail, sum_{k >= 20} t^k / k!, bounds the truncation in the 1-norm wherever
# ||x||_1 <= t; it is 2^-53, the unit round-off, at t = 1.31878, and
# 0.75 2^-53 at _THETA.  A step with a larger ||x||_1 is scaled by 2^-s into
# that range and its exponential squared s times (Moler and Van Loan, SIAM
# Rev. 45(1), 2003, method 3).
_SERIES_TERMS = 10
_THETA = 1.3
# (cos, sin) series coefficients in y: (-1)^k / (2k)! and (-1)^k / (2k + 1)!.
_COS_SIN = np.array([[(-1.0) ** k / math.factorial(2 * k + j) for k in range(_SERIES_TERMS)] for j in (0, 1)])
# The cut-offs of the Taylor kernel, from the times of both kernels on
# 256-step blocks at N = 2..32 and ||x||_1 = 0.3..96 (1 BLAS thread; the
# table is in CHANGES.md).  At N = 2 the Taylor kernel ran at 0.5-0.7 times
# the speed of eigh, at N = 3 at 0.8-1.4, and from N = 4 on at 1.2 or more
# with up to three squarings.
_TAYLOR_MIN_DIM = 4
# With a fourth it ran at 0.95-1.1 times eigh's speed at N = 32.  The
# round-off doubles with each squaring, so after three it is 8 times that of
# the series: the unitarity defect at N = 32 was 1.2e-14 (eigh: 1.6e-14), far
# below TRAJECTORY_TOL.
_TAYLOR_MAX_SQUARINGS = 3


def _squarings(norm: np.ndarray) -> np.ndarray:
    """The least s >= 0 with norm / 2^s <= ``_THETA``, per entry of the finite
    ``norm``."""
    frac, exp = np.frexp(norm / _THETA)
    return np.maximum(exp - (frac == 0.5), 0)


def _cos_sin(x: np.ndarray) -> np.ndarray:
    """(cos x, sin x), stacked in a (2, K, N, N) array, for a stack x of K real
    matrices with ||x||_1 <= ``_THETA``: each series to ``_SERIES_TERMS`` terms
    in y = x^2, by Paterson–Stockmeyer (SIAM J. Comput. 2(1), 1973) with
    step 2.  Both are sums of (c_2j + c_2j+1 y) y^2j, taken in Horner form in
    y^2 and stacked in each product, and sin x is x times its sum: 11 products
    of N x N matrices in all.  Steps 1 to 5 were timed, and 2 was fastest from
    N = 8 on.  Every operation is a per-matrix product or an elementwise one,
    so each matrix gets the same bits in any stack."""
    n = x.shape[-1]
    y = x @ x
    y2 = y @ y
    acc = None
    for j in reversed(range(0, _SERIES_TERMS, 2)):
        block = _COS_SIN[:, j + 1, None, None, None] * y
        block.reshape(2, len(x), n * n)[..., :: n + 1] += _COS_SIN[:, j, None, None]
        if acc is None:
            acc = block
        else:
            acc = acc @ y2
            acc += block
    acc[1] = x @ acc[1]
    return acc


def _taylor_exponentials(x: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    """exp(-i x) = C - i S for a stack x of real symmetric matrices, each scaled
    by 2^-s (exactly) for its entry s of ``squarings``, and
    (C, S) = :func:`_cos_sin` of the scaled matrix squared s times in real
    arithmetic.  C and S commute, so (C - i S)^2 = (C + S)(C - S) - 2i C S:
    both products in one stacked call."""
    if squarings.any():
        x = x * np.ldexp(1.0, -squarings)[:, None, None]
    pair = _cos_sin(x)
    for k in range(int(squarings.max(initial=0))):
        pick = squarings > k
        whole = pick.all()
        cos, sin = part = pair if whole else pair[:, pick]
        left, right = np.empty_like(part), np.empty_like(part)
        np.add(cos, sin, out=left[0])
        np.subtract(cos, sin, out=right[0])
        left[1], right[1] = cos, sin
        np.matmul(left, right, out=part)
        part[1] *= 2.0
        if not whole:
            pair[:, pick] = part
    out = np.empty(x.shape, dtype=complex)
    out.real = pair[0]
    np.negative(pair[1], out=out.imag)
    return out


def _blocks(count: int) -> list[slice]:
    """Consecutive slices covering range(count): blocks of ``_BLOCK`` indices,
    the last of which also takes the remainder, so it has fewer than
    2 ``_BLOCK``.

    No block is shorter than ``_BLOCK`` unless it is the only one.  BLAS
    takes a short product by other kernels, whose sums can run in another
    order, and numpy a one-row product by another routine; a row of
    ``landscape._VisitSearch``'s overlaps in a short tail block would then
    differ in its last bits from the same row of the product over all rows.
    """
    cuts = list(range(_BLOCK, count - _BLOCK + 1, _BLOCK))
    return [slice(start, stop) for start, stop in zip([0, *cuts], [*cuts, count])]


def _step_blocks(sys: QuantumSystem, field: ControlField, eigenpairs: bool = True):
    """The field's step pass under ``sys``, one block of :func:`_blocks` at a
    time: yields ``(block, (w, v), nodes)`` with the eigenpairs of the steps in
    ``block`` and the nodes U_{block.start} .. U_{block.stop}, U_0 = I exactly.
    Without ``eigenpairs`` it yields ``None`` for them, and the steps take the
    eigen-free kernel of :func:`_step_exponentials`.

    Each block continues the product from the last node of the one before,
    U_{m+1} = exp(-i dt (h0 - eps_m mu)) U_m, one ``step.dot(prev, out=nxt)``
    into each node of the block: the C routine of ``np.dot`` without its
    dispatch, and a ``matmul`` per step costs more at small N, all with the
    same bits.  Nothing is validated.
    """
    node = np.eye(sys.dim, dtype=complex)
    for block in _blocks(field.steps):
        values = field.values[block]
        if eigenpairs:
            eig, steps = _step_exponentials(sys, values, field.dt)
        else:
            eig, steps = _step_exponentials(sys, values, field.dt, False)
        nodes = np.empty((len(steps) + 1, *node.shape), dtype=complex)
        nodes[0] = node
        views = list(nodes)
        for step, prev, nxt in zip(steps, views, views[1:]):
            step.dot(prev, out=nxt)
        node = nodes[-1]
        yield block, eig, nodes


def _unitary_blocks(blocks):
    """The blocks of a pass (as :func:`_step_blocks` or :func:`_chain` yields
    them), each yielded once its new nodes are unitary within
    ``TRAJECTORY_TOL``: the one unitarity guard of the package."""
    for block, eig, nodes in blocks:
        defect = float(unitarity_defect(nodes[1:]).max())
        if not defect <= TRAJECTORY_TOL:
            raise RuntimeError(f"propagation lost unitarity: defect {defect:.3e}")
        yield block, eig, nodes


def _collect(sys: QuantumSystem, steps: int, blocks) -> tuple[tuple, np.ndarray]:
    """The pass of ``blocks`` (:func:`_step_blocks`) over ``steps`` steps in
    whole-pass arrays: the eigenpairs ``(w, v)`` of the steps and the
    steps + 1 nodes, U_0 = I exactly."""
    n = sys.dim
    nodes = np.empty((steps + 1, n, n), dtype=complex)
    nodes[0] = np.eye(n)
    w, v = np.empty((steps, n)), np.empty((steps, n, n))
    for block, eig, block_nodes in blocks:
        w[block], v[block] = eig
        nodes[block.start + 1 : block.stop + 1] = block_nodes[1:]
    return (w, v), nodes


def _final_propagator(sys: QuantumSystem, field: ControlField) -> PropagatorTrajectory:
    """The field's step pass under ``sys``, unchecked, whose last node is the
    endpoint U_M: the pass of each line-search trial of ``steer``."""
    eig, nodes = _collect(sys, field.steps, _step_blocks(sys, field))
    return PropagatorTrajectory(sys=sys, field=field, eig=eig, unitaries=nodes)


def _step_frames(dt: float, mu: np.ndarray, eig: tuple, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame ``v_m† U_m`` and coupling ``(v_m† mu v_m) ∘ Phi_m`` of every
    step m with eigenpairs ``eig = (w, v)`` and start node ``nodes[m]`` = U_m.

    ``v_m`` holds the eigenvectors of step m, ``w`` its eigenvalues, and
    Phi_ab = sinc(x) e^{ix} = (e^{2ix} - 1) / (2ix) with x = dt (w_a - w_b) / 2,
    1 on the diagonal and at degenerate levels: the mean of e^{i s dt (w_a - w_b)}
    over s in [0, 1].  e^{ix} is the outer product p_a conj(p_b) of the
    per-level phases p = e^{i dt w / 2}, so only M N exponentials are taken.
    ``v`` and ``mu`` are real, so the coupling is real until Phi, and the
    frames are taken in real arithmetic (``matspace._real_matmul``), bit for
    bit the complex product.  ``nodes`` may be any stack, read-only or
    strided.
    """
    w, v = eig
    vh = dagger(v)
    x = 0.5 * dt * (w[:, :, None] - w[:, None, :])
    p = np.exp(0.5j * dt * w)
    # Phi before the frames, so that its temporaries are gone at the peak.
    phi = np.sinc(x / np.pi) * (p[:, :, None] * p.conj()[:, None, :])
    return _real_matmul(vh, nodes), (vh @ mu @ v) * phi


def _mid_hats(dt: float, mu: np.ndarray, eig: tuple, nodes: np.ndarray) -> np.ndarray:
    """dt mid_hat_m, the mean of U(s)† mu U(s) over step m, for every step m with
    eigenpairs ``eig`` and start node ``nodes[m]`` = U_m: frame_m† coupling_m
    frame_m (:func:`_step_frames`), and dU_M/d(eps_m) = i dt U_M mid_hat_m exactly."""
    frames, coupling = _step_frames(dt, mu, eig, nodes)
    mid = dagger(frames) @ coupling @ frames
    mid *= dt
    return mid


def propagate(sys: QuantumSystem, field: ControlField) -> PropagatorTrajectory:
    """Integrate the propagator over the control grid: the field's step pass,
    kept, with read-only nodes.  The first block whose nodes are not unitary
    (:func:`_unitary_blocks`) raises ``RuntimeError`` naming that block's
    largest defect, before any later step is taken.
    """
    eig, nodes = _collect(sys, field.steps, _unitary_blocks(_step_blocks(sys, field)))
    nodes.setflags(write=False)
    return PropagatorTrajectory(sys=sys, field=field, eig=eig, unitaries=nodes)


def _chain(sys: QuantumSystem, passes, steps: int):
    """The trajectory of the step passes ``passes``, ``steps`` steps in all,
    taken one after the other from U_0 = I, as :func:`_step_blocks` yields a
    pass without eigenpairs, in the blocks of ``_blocks(steps)``, guarded
    (:func:`_unitary_blocks`) and with read-only nodes.

    The nodes of segment k are its own times W_k, the chain node where it
    starts: U(t, 0) = U(t, t_k) W_k, one product per node.  So the chain node
    where segment k ends is ``passes[k].unitaries[-1] @ W_k`` bit for bit,
    and no step is taken again.  A pass is asked for only once the one before
    is composed, so ``passes`` can be a generator that makes it then; a block
    and one pass are all that is held.
    """

    def blocks():
        passes_left, segment = iter(passes), ()
        nodes = np.eye(sys.dim, dtype=complex)[None]
        for block in _blocks(steps):
            nodes, last = np.empty((block.stop - block.start + 1, sys.dim, sys.dim), dtype=complex), nodes[-1]
            nodes[0], filled = last, 1
            while filled < len(nodes):
                if not len(segment):
                    start, segment = nodes[filled - 1], next(passes_left).unitaries[1:]
                take = min(len(segment), len(nodes) - filled)
                np.matmul(segment[:take], start, out=nodes[filled : filled + take])
                segment, filled = segment[take:], filled + take
            nodes.flags.writeable = False
            yield block, None, nodes

    return _unitary_blocks(blocks())


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

"""Spanning analysis, landscape gradient, and critical-point residuals.

The spanning rank of a set of traceless Hermitian matrices decides whether
their real span fills the full N^2 - 1 dimensional space; applied to the
conjugated dipoles along a trajectory it certifies non-singularity of the
control-to-propagator map at the sample resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolve
from ._fmt import canonical_dumps, complex_entries, write_text
from .evolve import ControlField, PropagatorTrajectory
from .matspace import dagger, from_coords, hs_norm, to_coords
from .model import QuantumSystem
from .tolerances import FD_STEP, RANK_TOL
from .waypoints import WaypointSet

__all__ = [
    "SpanReport",
    "VisitRecord",
    "spanning_rank",
    "trajectory_independence",
    "waypoint_visits",
    "gate_fidelity",
    "gradient",
    "finite_difference_gradient",
    "kinematic_residual",
    "save_span_report",
    "visits_csv",
]

@dataclass(frozen=True)
class SpanReport:
    """Singular spectrum, rank and verdict of a traceless-Hermitian span.

    ``full`` means rank N^2 - 1.  ``complement_basis`` holds an
    orthonormal basis (as matrices) of the orthogonal complement of the
    span, and is empty exactly when the span is full.
    """

    dim: int
    count: int
    singular_values: np.ndarray
    rank: int
    full: bool
    complement_basis: np.ndarray

    @property
    def verdict(self) -> str:
        return "FULL" if self.full else f"DEFICIENT rank={self.rank}"


@dataclass(frozen=True)
class VisitRecord:
    """Best phase-invariant match of one way-point along a trajectory."""

    index: int
    fidelity: float
    time: float
    step: int
    visited: bool


def spanning_rank(mats) -> SpanReport:
    """Rank of a set of traceless Hermitian matrices in isu(N) coordinates.

    Stacks the coordinates of every matrix (:func:`wayspan.matspace.to_coords`)
    as rows and takes their singular values (:class:`_SpanAccumulator`).  Only
    the traceless Hermitian part of each matrix counts; the report is invariant
    under permutations of the list and under appending linear combinations of
    existing elements.
    """
    arr = np.asarray(mats, dtype=complex)
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise ValueError(f"need a nonempty stack of square matrices, got shape {arr.shape}")
    span = _SpanAccumulator(arr.shape[1])
    span.add(to_coords(arr))
    return span.report()


def _coords_span(coords: np.ndarray, count: int | None = None) -> SpanReport:
    """Spanning report of the rows ``coords``, isu(N) coordinates of
    :func:`to_coords` in N^2 - 1 columns, or of any stack with the same
    singular values and right-singular vectors, such as the R factor of the
    rows: ``count`` is then the number of rows.

    The rank counts the singular values above ``RANK_TOL`` times the largest
    one.  Only a deficient span has a complement, so only then is the SVD
    taken again for its right-singular vectors; the discarded directions are
    mapped back to matrices.  A spectrum that is not finite, as when the
    singular values overflow or a coordinate is NaN, has no rank:
    ``RuntimeError``.
    """
    try:
        s = np.linalg.svd(coords, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not converge on a coordinate that is not finite.
        raise RuntimeError(f"singular values of the span are not finite: {exc}") from exc
    if not np.isfinite(s).all():
        raise RuntimeError(f"singular values of the span are not finite: largest {s[0]:.3e}")
    rank = int(np.sum(s > RANK_TOL * s[0]))
    full = rank == coords.shape[1]
    vt = np.empty((0, coords.shape[1]))
    if not full:
        # The complement needs every right-singular vector; the thin SVD
        # returns them all unless there are fewer samples than dimensions.
        vt = np.linalg.svd(coords, full_matrices=coords.shape[0] < coords.shape[1])[2]
    complement = from_coords(vt[rank:])
    s.setflags(write=False)
    return SpanReport(
        dim=complement.shape[-1],
        count=int(coords.shape[0]) if count is None else count,
        singular_values=s,
        rank=rank,
        full=full,
        complement_basis=complement,
    )


# Fewest rows of a fold (:class:`_SpanAccumulator`): the pass's block, read
# once, so that a test that shrinks the block does not change the folds.
_FOLD_ROWS = evolve._BLOCK


class _SpanAccumulator:
    """The span of a stream of isu(N) coordinate rows in O(N^4) memory.

    Rows are buffered and folded F = max(``_FOLD_ROWS``, 2(N^2 - 1)) at a time
    into the triangular factor of everything folded so far,
    R <- qr([R; C], mode="r") (TSQR: Demmel, Grigori, Hoemmen and Langou,
    SIAM J. Sci. Comput. 34(1), 2012).  [R; C] = Q R' with Q orthonormal, so
    R has the singular values and right-singular vectors of all the rows, and
    each fold costs about one QR of its F rows.  The report folds what is
    pending and is :func:`_coords_span` of R.  The folds depend only on the
    row sequence, so rows fed in any partition give the same report.
    Unfolded rows are held by reference: callers do not write to a block once
    it is added.
    """

    def __init__(self, n: int):
        self.fold = max(_FOLD_ROWS, 2 * (n * n - 1))
        self.r: np.ndarray | None = None
        self.pending: list[np.ndarray] = []
        self.held = 0
        self.count = 0

    def add(self, rows: np.ndarray) -> None:
        """Append the rows of an (k, N^2 - 1) array of coordinates."""
        self.count += len(rows)
        while len(rows):
            chunk, rows = rows[: self.fold - self.held], rows[self.fold - self.held :]
            self.pending.append(chunk)
            self.held += len(chunk)
            if self.held == self.fold:
                self._fold()

    def _fold(self) -> None:
        stack = np.concatenate([self.r, *self.pending] if self.r is not None else self.pending)
        self.r = np.linalg.qr(stack, mode="r")
        self.pending, self.held = [], 0
        if not np.isfinite(self.r).all():
            # R keeps no trace of what made it so.  From finite rows only an
            # overflow can, and then the largest singular value of all the
            # rows overflows too; rows that are not finite fail the dense SVD
            # of the stack as they fail that of all the rows.
            if np.isfinite(stack).all():
                raise RuntimeError("singular values of the span are not finite: largest inf")
            _coords_span(stack)

    def report(self) -> SpanReport:
        if self.held:
            self._fold()
        return _coords_span(self.r, self.count)


def trajectory_independence(traj: PropagatorTrajectory, stride: int = 1) -> SpanReport:
    """Spanning report of the conjugated dipoles at every ``stride``-th grid node
    of the kept pass ``traj``, all nodes by default: :func:`_read_pass` of its
    blocks.  A FULL verdict certifies linear independence of the
    conjugated-dipole entries at the sample resolution.
    """
    return _read_pass(traj.sys, traj.field, traj.blocks(), stride).span


@dataclass(frozen=True)
class _PassReading:
    """What :func:`_read_pass` keeps of a step pass: the span of its sampled
    nodes, the endpoint U_M and, if asked for, the rows of the Jacobian J as
    isu(N) coordinates, ``jacobian[m]`` = ``to_coords(dt mid_hat_m)``."""

    span: SpanReport
    endpoint: np.ndarray
    jacobian: np.ndarray | None


def _read_pass(sys: QuantumSystem, field: ControlField, blocks, stride: int, jacobian: bool = False) -> _PassReading:
    """Read the pass of ``field`` under ``sys`` from its ``blocks``, in the shape
    and partition of ``evolve._step_blocks``, keeping no node.  The nodes at
    multiples of ``stride`` (a positive integer, else ``ValueError``) are
    conjugated block by block, and their coordinates go to one
    :class:`_SpanAccumulator` as they come; both give the same bits in any
    partition of the rows.  With ``jacobian``, the coordinates of each step's
    dt mid_hat_m are kept, M (N^2 - 1) floats.

    It checks nothing: ``evolve._unitary_blocks`` bounds ||u†u - I||_F by
    ``TRAJECTORY_TOL`` where the nodes are formed, so the trace
    |Tr(u† mu u) - Tr(mu)| = |Tr(mu (uu† - I))| is at most that times
    ||mu||_HS, the anti-Hermitian part is round-off, and :func:`to_coords`
    discards both.  A node that is not finite gives a span that is not
    finite, which :func:`_coords_span` refuses.
    """
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    span = _SpanAccumulator(sys.dim)
    rows = np.empty((field.steps, sys.dim * sys.dim - 1)) if jacobian else None
    for block, eig, nodes in blocks:
        # A block's first node is the last of the block before, already sampled.
        first = block.start + (block.start > 0)
        sample = -(-first // stride) * stride - block.start
        span.add(to_coords(evolve.conjugated_dipole(nodes[sample::stride], sys.mu)))
        if rows is not None:
            rows[block] = to_coords(evolve._mid_hats(field.dt, sys.mu, eig, nodes[:-1]))
    return _PassReading(span=span.report(), endpoint=nodes[-1].copy(), jacobian=rows)


def _jacobian_gradient(jacobian: np.ndarray, endpoint: np.ndarray, rho0: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """:func:`gradient` from J's rows as isu(N) coordinates, ``jacobian[m]`` =
    ``to_coords(dt mid_hat_m)``, and the endpoint U_M: g = J_c . coords(K) with
    K = i [rho0, U_M† obs U_M], the Hermitian part of 2i rho0 U_M† obs U_M and
    all of it that :func:`to_coords` keeps.  K is traceless, so the trace of
    dt mid_hat_m that the coordinates drop adds nothing to Re Tr(A_m K)."""
    rho0 = np.asarray(rho0, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    n = len(endpoint)
    if rho0.shape != (n, n) or obs.shape != (n, n):
        raise ValueError(f"dimension mismatch: rho0 {rho0.shape}, obs {obs.shape}, system {n}")
    return jacobian @ to_coords(2j * rho0 @ dagger(endpoint) @ obs @ endpoint)


def gate_fidelity(target: np.ndarray, u: np.ndarray) -> float:
    """Phase-invariant gate match |Tr(target† u)| / N."""
    target = np.asarray(target)
    u = np.asarray(u)
    if target.shape != u.shape or target.ndim != 2:
        raise ValueError(f"dimension mismatch: {target.shape} vs {u.shape}")
    return float(abs(np.vdot(target, u)) / target.shape[0])


def waypoint_visits(traj: PropagatorTrajectory, wset: WaypointSet, fid_tol: float) -> list[VisitRecord]:
    """Best visit fidelity of every way-point over the trajectory nodes.

    Fidelity is phase-invariant, |Tr(W† U_m)| / N, since way-points only
    matter through conjugation; a way-point counts as visited when its
    best fidelity reaches 1 - fid_tol.  Indices in the records are the
    1-based list positions of the set.
    """
    if wset.dim != traj.dim:
        raise ValueError(f"dimension mismatch: set {wset.dim} vs trajectory {traj.dim}")
    count, nodes = len(wset), traj.unitaries
    conj = wset.unitaries.conj().reshape(count, -1)
    best, steps = np.full(count, -np.inf), np.zeros(count, dtype=int)
    # A running best over blocks of nodes; the strict > keeps the first
    # maximum on ties, as one argmax over all nodes would.
    for block in evolve._blocks(len(nodes)):
        overlaps = np.abs(conj @ nodes[block].reshape(-1, conj.shape[1]).T) / traj.dim
        m = np.argmax(overlaps, axis=1)
        fid = overlaps[np.arange(count), m]
        better = fid > best
        best[better], steps[better] = fid[better], block.start + m[better]
    times = traj.times
    return [
        VisitRecord(
            index=k + 1,
            fidelity=float(best[k]),
            time=float(times[steps[k]]),
            step=int(steps[k]),
            visited=float(best[k]) >= 1.0 - fid_tol,
        )
        for k in range(count)
    ]


def gradient(traj: PropagatorTrajectory, rho0: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Derivative of Tr(rho(T) obs) with respect to each control step.

    On the step pass ``traj`` it is g_m = dt Tr(mid_hat_m i [rho0, O_T]), with
    ``O_T = U_M† obs U_M``: the rows of J as isu(N) coordinates,
    ``to_coords(dt mid_hat_m)``, are built one block of the pass
    (``traj.blocks()``) at a time as :func:`_read_pass` builds them, and
    :func:`_jacobian_gradient`, which ``check`` also calls, takes g from them.
    The central finite-difference check is the normative contract pinning
    sign and convention.
    """
    rows = np.empty((traj.steps, traj.dim * traj.dim - 1))
    for block, eig, nodes in traj.blocks():
        rows[block] = to_coords(evolve._mid_hats(traj.dt, traj.sys.mu, eig, nodes[:-1]))
    return _jacobian_gradient(rows, traj.unitaries[-1], rho0, obs)


def finite_difference_gradient(
    traj: PropagatorTrajectory,
    rho0: np.ndarray,
    obs: np.ndarray,
    *,
    h: float = FD_STEP,
) -> np.ndarray:
    """Central differences of the same objective on the field of the step pass
    ``traj``; validation oracle.

    ``g_m = (f(eps + h e_m) - f(eps - h e_m)) / 2h`` with
    ``f = Tr(U_M rho0 U_M† obs)``.  A probe changes step m only, so its
    endpoint is ``(U_M U_{m+1}†) step_m(eps_m ± h) U_m``, with the nodes of
    ``traj`` and the probe steps from the pass's own step helper,
    ``evolve._step_exponentials``: one batched ``eigh`` of both signs per
    block of ``evolve._BLOCK`` steps, the block every stage that walks a pass
    shares, so the work is O(M) and the extra memory is bounded by the block.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
    rho0 = np.asarray(rho0, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    sys, field, nodes = traj.sys, traj.field, traj.unitaries
    out = np.empty(field.steps)
    for block in evolve._blocks(field.steps):
        eps = field.values[block]
        probes = np.concatenate([eps + h, eps - h])
        steps = evolve._step_exponentials(sys, probes, field.dt)[1].reshape(2, eps.size, sys.dim, sys.dim)
        ends = nodes[-1] @ dagger(nodes[block.start + 1 : block.stop + 1]) @ steps @ nodes[block]
        f = np.real(np.einsum("sbij,ji->sb", ends @ rho0 @ dagger(ends), obs))
        out[block] = (f[0] - f[1]) / (2.0 * h)
    return out


def kinematic_residual(u_t: np.ndarray, rho0: np.ndarray, obs: np.ndarray) -> float:
    """Frobenius norm of [U_T† obs U_T, rho0]; zero at kinematic critical points."""
    u_t = np.asarray(u_t, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    if not (u_t.shape == rho0.shape == obs.shape) or u_t.ndim != 2:
        raise ValueError(
            f"dimension mismatch: u {u_t.shape}, rho0 {rho0.shape}, obs {obs.shape}"
        )
    conj_obs = dagger(u_t) @ obs @ u_t
    return hs_norm(conj_obs @ rho0 - rho0 @ conj_obs)


def save_span_report(report: SpanReport, target) -> None:
    """Write singular values as CSV, a verdict line, and any complement basis."""
    lines = ["singular_value"]
    lines += [repr(float(s)) for s in report.singular_values]
    lines.append(report.verdict)
    text = "\n".join(lines) + "\n"
    if not report.full:
        text += "complement\n"
        text += canonical_dumps(complex_entries(report.complement_basis))
    write_text(target, text)


def visits_csv(records: list[VisitRecord], target) -> None:
    lines = ["waypoint,fidelity,time"]
    for r in records:
        lines.append(f"{r.index},{r.fidelity!r},{r.time!r}")
    write_text(target, "\n".join(lines) + "\n")

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
from .evolve import PropagatorTrajectory
from .matspace import _real_rows, basis_zt, dagger, from_coords, hs_norm, to_coords
from .tolerances import FD_STEP, RANK_TOL, TRAJECTORY_TOL
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

    Stacks the coordinates of every matrix (in the orthonormal basis from
    :func:`wayspan.matspace.basis_zt`) as rows and takes their singular
    values (:func:`_coords_span`).  Inputs are expected Hermitian; the report
    is invariant under permutations of the list and under appending linear
    combinations of existing elements.
    """
    arr = np.asarray(mats, dtype=complex)
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise ValueError(f"need a nonempty stack of square matrices, got shape {arr.shape}")
    if arr.shape[1] != arr.shape[2]:
        raise ValueError(f"matrices must be square, got shape {arr.shape}")
    basis = basis_zt(arr.shape[1])
    return _coords_span(to_coords(arr, basis), basis)


def _coords_span(coords: np.ndarray, basis: np.ndarray) -> SpanReport:
    """Spanning report of the rows ``coords``, isu(N) coordinates in ``basis``.

    The rank counts the singular values above ``RANK_TOL`` times the largest
    one.  Only a deficient span has a complement, so only then is the SVD
    taken again for its right-singular vectors; the discarded directions are
    mapped back to matrices.  A spectrum that is not finite, as when the
    singular values overflow, has no rank: ``RuntimeError``.
    """
    n = basis.shape[1]
    s = np.linalg.svd(coords, compute_uv=False)
    if not np.isfinite(s).all():
        raise RuntimeError(f"singular values of the span are not finite: largest {s[0]:.3e}")
    rank = int(np.sum(s > RANK_TOL * s[0]))
    full = rank == n * n - 1
    vt = np.empty((0, n * n - 1))
    if not full:
        # The complement needs every right-singular vector; the thin SVD
        # returns them all unless there are fewer samples than dimensions.
        vt = np.linalg.svd(coords, full_matrices=coords.shape[0] < coords.shape[1])[2]
    complement = from_coords(vt[rank:], basis)
    s.setflags(write=False)
    return SpanReport(
        dim=n,
        count=int(coords.shape[0]),
        singular_values=s,
        rank=rank,
        full=full,
        complement_basis=complement,
    )


def trajectory_independence(traj: PropagatorTrajectory, sample_indices=None) -> SpanReport:
    """Spanning report of the conjugated dipoles at the sampled grid nodes.

    A FULL verdict certifies linear independence of the conjugated-dipole
    entries at the sample resolution; by default all nodes are used.  Only the
    sampled nodes are conjugated, one block of ``evolve._BLOCK`` at a time, and
    only their coordinates are kept; their dipoles must be Hermitian and
    traceless to ``TRAJECTORY_TOL`` times ||mu||_HS, the norm every conjugate
    shares.
    """
    nodes = traj.unitaries
    idx = np.arange(nodes.shape[0])
    if sample_indices is not None:
        idx = np.asarray(sample_indices, dtype=int)
        if idx.size == 0:
            raise ValueError("sample_indices must be nonempty")
        if idx.min() < 0 or idx.max() >= nodes.shape[0]:
            raise ValueError(f"sample indices out of range 0..{nodes.shape[0] - 1}")
    mu = traj.sys.mu
    basis = basis_zt(traj.dim)
    coords = np.empty((idx.size, basis.shape[0]))
    herm, traces = [], []
    for block in evolve._blocks(idx.size):
        mats = evolve.conjugated_dipole(nodes[idx[block]], mu)
        herm.append(np.abs(mats - dagger(mats)).max())
        traces.append(np.abs(np.trace(mats, axis1=1, axis2=2)).max())
        coords[block] = to_coords(mats, basis)
    # numpy's max, unlike Python's, keeps a NaN defect of any block.
    herm, traces = float(np.max(herm)), float(np.max(traces))
    tol = TRAJECTORY_TOL * hs_norm(mu)
    if not (herm <= tol and traces <= tol):
        raise RuntimeError(f"conjugated dipoles off structure: hermiticity {herm:.3e}, trace {traces:.3e}")
    return _coords_span(coords, basis)


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

    On the step pass ``traj`` it is ``g = J @ _real_rows(i [rho0, O_T])``, with
    ``O_T = U_M† obs U_M`` and J = ``evolve._jacobian(traj)``, row m the real
    view of dt mid_hat_m: g_m = dt Tr(mid_hat_m i [rho0, O_T]).  It is formed
    as ``J @ _real_rows(2i rho0 O_T)``, equal because mid_hat_m is Hermitian,
    one block of ``evolve._BLOCK`` rows of J at a time.
    The central finite-difference check is the normative contract pinning
    sign and convention.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    n = traj.dim
    if rho0.shape != (n, n) or obs.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: rho0 {rho0.shape}, obs {obs.shape}, system {n}"
        )
    u = traj.unitaries[-1]
    x = _real_rows(2j * rho0 @ dagger(u) @ obs @ u)
    out = np.empty(traj.steps)
    for block in evolve._blocks(traj.steps):
        out[block] = evolve._jacobian(traj, block) @ x
    return out


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

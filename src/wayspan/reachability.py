"""Controllability test via the Lie closure of the two skew-Hermitian generators.

The system is density-matrix controllable exactly when the Lie algebra
generated by -i h0 and -i mu is the full traceless skew-Hermitian algebra
su(N) or all of u(N); this module computes that closure numerically and
reports its dimension and verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matspace import _real_rows
from .tolerances import ABS_FLOOR, CLOSURE_TRACE_TOL, RANK_RTOL

__all__ = [
    "VERDICT_SU",
    "VERDICT_U",
    "VERDICT_NO",
    "LieClosureResult",
    "lie_closure",
    "is_controllable",
]

VERDICT_SU = "SU"
VERDICT_U = "U"
VERDICT_NO = "NO"


@dataclass(frozen=True)
class LieClosureResult:
    """Closure dimension, an orthonormal basis of it, and the verdict.

    The basis is orthonormal under the real HS inner product
    Re Tr(A†B) and every element is skew-Hermitian.  Verdict "SU" means
    dimension N^2 - 1 with all basis elements traceless, "U" means the
    full N^2, anything else is "NO".
    """

    dimension: int
    basis: np.ndarray
    verdict: str


def lie_closure(h0: np.ndarray, mu: np.ndarray) -> LieClosureResult:
    """Compute the Lie algebra generated by -i h0 and -i mu inside u(N).

    The basis lives in one preallocated (N^2, N, N) complex stack whose
    real row view (``matspace._real_rows``, i.e. ``reshape(N^2, -1).view(float)``)
    turns Re Tr(A†B) into a dot product.  The generators are normalized to unit HS norm first,
    which removes scale dependence of the tolerance.  Commutators are
    then taken breadth first: every element pairs with all of its
    predecessors in the round after it was added (one batched matmul per
    element), so the schedule is deterministic and each unordered pair is
    visited exactly once.  Each candidate is projected off the current
    basis by two block passes ``r -= B.T @ (B @ r)`` and accepted, in
    schedule order, when its residual exceeds ``RANK_RTOL``.  Basis
    elements have unit norm, so the residual is measured at the scale of
    their products, not against the commutator's own norm: cancellation
    can make that norm small and let its round-off through.  Stops at
    closure or at dimension N^2.
    """
    h0 = np.asarray(h0, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1] or h0.shape != mu.shape:
        raise ValueError(f"generators must be square with equal shape, got {h0.shape} and {mu.shape}")
    n = h0.shape[0]
    full = n * n
    stack = np.zeros((full, n, n), dtype=complex)
    rows = _real_rows(stack)
    dim = 0

    def try_add(cand: np.ndarray) -> bool:
        nonlocal dim
        basis = rows[:dim]
        # Two projection passes keep the basis orthonormal to round-off;
        # every candidate is a temporary, so it is projected in place.
        for _ in range(2):
            cand -= basis.T @ (basis @ cand)
        norm = float(np.linalg.norm(cand))
        if norm <= RANK_RTOL:
            return False
        rows[dim] = cand / norm
        dim += 1
        return True

    new: list[int] = []
    for gen in (-1j * h0, -1j * mu):
        norm = float(np.linalg.norm(gen))
        if norm > ABS_FLOOR and try_add(_real_rows(gen / norm)):
            new.append(dim - 1)

    while new and dim < full:
        next_new: list[int] = []
        for b_idx in new:
            head, e = stack[:b_idx], stack[b_idx]
            cands = _real_rows(head @ e - e @ head)
            # A commutator below ABS_FLOOR cannot clear RANK_RTOL; skip its projection.
            for cand, pre_norm in zip(cands, np.linalg.norm(cands, axis=1)):
                if pre_norm > ABS_FLOOR and try_add(cand):
                    next_new.append(dim - 1)
            if dim >= full:
                break
        new = next_new

    basis = stack[:dim]
    basis.setflags(write=False)
    traceless = bool(np.all(np.abs(np.trace(basis, axis1=1, axis2=2)) < CLOSURE_TRACE_TOL))
    if dim == full:
        verdict = VERDICT_U
    elif dim == full - 1 and traceless:
        verdict = VERDICT_SU
    else:
        verdict = VERDICT_NO
    return LieClosureResult(dimension=dim, basis=basis, verdict=verdict)


def is_controllable(sys) -> str:
    """Controllability verdict ("SU", "U" or "NO") for a quantum system."""
    return lie_closure(sys.h0, sys.mu).verdict

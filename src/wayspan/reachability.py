"""Controllability test via the Lie closure of the two skew-Hermitian generators.

The system is density-matrix controllable exactly when the Lie algebra
generated by -i h0 and -i mu is the full traceless skew-Hermitian algebra
su(N) or all of u(N) (the Lie rank condition; Ramakrishna et al., Phys.
Rev. A 51, 960 (1995)).  For real symmetric h0 and mu the work is real: a
bracket of p factors from {-i h0, -i mu} is (-i)^p times the same bracket
of h0 and mu, symmetric for odd p and antisymmetric for even p, and these
HS-orthogonal classes are the Cartan decomposition su(N) = so(N) + i Sym_0
(Altafini, J. Math. Phys. 43, 2051 (2002)).  The closure is computed on
real matrices and mapped back to skew-Hermitian ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matspace import hs_norm
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

    ``h0`` and ``mu`` must be real symmetric; complex input raises
    ``ValueError``.  The basis is a preallocated real (N^2, N, N) stack,
    element B_k standing for (-i)^p_k B_k with p_k mod 4: a generator,
    normalized to unit HS norm, has p = 1, a commutator p = p_a + p_b.
    Odd p (symmetric) and even p (antisymmetric) elements fill separate
    row blocks, and a candidate is projected against its own block only.
    Only an exactly zero generator is left out, so the verdict does not
    depend on the scale of h0 and mu: every later candidate is formed from
    unit-norm basis elements.  Commutators are taken breadth first: every
    element pairs with all its predecessors in the round after it was
    added, in one matmul X = H E (E H = +-(H E)^T), so each unordered pair
    is visited once.  A commutator above ``ABS_FLOOR`` is projected by two
    passes ``r -= B.T @ (B @ r)`` and accepted, in schedule order, when its
    residual exceeds ``RANK_RTOL``: basis elements have unit norm, so the
    residual is measured at the scale of their products, not against the
    commutator's own norm, which cancellation can make small.  Stops at
    closure or at dimension N^2.  The basis comes back complex and
    skew-Hermitian in acceptance order, element k as (-i)^p_k B_k.
    """
    if np.iscomplexobj(h0) or np.iscomplexobj(mu):
        raise ValueError("generators must be real symmetric matrices, got complex input")
    h0, mu = np.asarray(h0, dtype=float), np.asarray(mu, dtype=float)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1] or h0.shape != mu.shape:
        raise ValueError(f"generators must be square with equal shape, got {h0.shape} and {mu.shape}")
    n, full = h0.shape[0], h0.size
    rows = np.zeros((full, full))
    offset = (n * (n + 1) // 2, 0)  # first row of each p % 2 class: symmetric rows first
    count = [0, 0]
    powers: list[int] = []  # p_k mod 4, in acceptance order
    slots: list[int] = []  # row of element k

    def try_add(cand: np.ndarray, p: int) -> bool:
        cls = p % 2
        basis = rows[offset[cls] : offset[cls] + count[cls]]
        # Two projection passes keep the basis orthonormal to round-off;
        # every candidate is a temporary, so it is projected in place.
        for _ in range(2):
            cand -= basis.T @ (basis @ cand)
        norm = float(np.linalg.norm(cand))
        if norm <= RANK_RTOL:
            return False
        slots.append(offset[cls] + count[cls])
        powers.append(p % 4)
        rows[slots[-1]] = cand / norm
        count[cls] += 1
        return True

    new: list[int] = []
    for gen in (h0, mu):
        norm = hs_norm(gen)
        if norm > 0.0 and try_add((gen / norm).reshape(full), 1):
            new.append(len(slots) - 1)

    stack = rows.reshape(full, n, n)
    while new and len(slots) < full:
        next_new: list[int] = []
        for b in new:
            x = stack[slots[:b]] @ stack[slots[b]]
            # E H = +-(H E)^T, with + inside a class and - across the two.
            signs = np.where((np.array(powers[:b]) - powers[b]) % 2, -1.0, 1.0)
            cands = (x - signs[:, None, None] * np.swapaxes(x, 1, 2)).reshape(b, full)
            # A commutator below ABS_FLOOR cannot clear RANK_RTOL; skip its projection.
            for p, cand, pre_norm in zip(powers[:b], cands, np.linalg.norm(cands, axis=1)):
                if pre_norm > ABS_FLOOR and try_add(cand, p + powers[b]):
                    next_new.append(len(slots) - 1)
            if len(slots) >= full:
                break
        new = next_new

    dim = len(slots)
    # (-i)^p from a table: complex powers of -1j leave round-off in the zero part.
    basis = np.array([1, -1j, -1, 1j])[powers][:, None, None] * stack[slots]
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

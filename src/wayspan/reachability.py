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

Candidates are orthogonalized by block classical Gram-Schmidt with
reorthogonalization (Barlow and Smoktunowicz, Numer. Math. 123, 395
(2013)): the commutators of one new element with its predecessors are
projected together, by matrix products, against their class as it stood
before them, and then one at a time against the elements accepted among
them.  A candidate that loses most of its norm in that second step is
projected again against its whole class (Daniel, Gragg, Kaufman and
Stewart, Math. Comp. 30, 772 (1976)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matspace import hs_norm
from .tolerances import ABS_FLOOR, CLOSURE_TRACE_TOL, RANK_RTOL, REORTH_FRACTION

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
    row blocks of N(N+1)/2 and N(N-1)/2 rows, and a candidate is projected
    against its own class only, in the class's isometric coordinates: its
    upper triangle (with the diagonal for the symmetric class), off-diagonal
    entries times sqrt(2).  A class has as many coordinates as its
    dimension, and once full it takes no candidate.  Only an exactly zero
    generator is left out, so the verdict does not depend on the scale of
    h0 and mu: every later candidate is formed from unit-norm basis
    elements.  Commutators are taken breadth first: every element pairs with
    all its predecessors in the round after it was added, in one matmul
    X = H E (E H = +-(H E)^T), so each unordered pair is visited once.
    These pairs are the element's batch.  Its commutators above
    ``ABS_FLOOR`` are projected against their class as it stood when the
    batch started, by two passes ``C -= (C @ B.T) @ B``.  Then, in schedule
    order, each residual above ``RANK_RTOL`` is projected twice against the
    elements of its class accepted earlier in the batch; when that leaves
    less than 1/sqrt(2) of its norm (``REORTH_FRACTION`` of its square),
    twice more against its whole class.  It is accepted when its residual
    exceeds ``RANK_RTOL``: basis elements have unit norm, so the residual
    is measured at the scale of their products, not against the
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
    # Isometric coordinates of each class, [antisymmetric, symmetric]: in
    # them Re Tr(A^T B) is a dot product of half the length of a row.
    i, j = np.triu_indices(n)
    strict = i < j
    pick = [(i * n + j)[strict], i * n + j]
    mirror = [(j * n + i)[strict], j * n + i]
    weight = [math.sqrt(2.0), np.where(strict, math.sqrt(2.0), 1.0)]
    size = [len(k) for k in pick]
    coords = [np.zeros((d, d)) for d in size]
    count = [0, 0]
    powers: list[int] = []  # p_k mod 4, in acceptance order
    slots: list[int] = []  # row of element k

    def project(cand: np.ndarray, basis: np.ndarray) -> np.ndarray:
        # Two passes keep the basis orthonormal to round-off; a 1-D candidate
        # is a row of its batch and is projected in place.
        for _ in range(2):
            cand -= (cand @ basis.T) @ basis
        return cand

    def accept(cand: np.ndarray, p: int) -> bool:
        # The unit element joins its class's coordinates; unpack writes its row.
        norm = math.sqrt(cand @ cand)
        if norm <= RANK_RTOL:
            return False
        cls = p % 2
        np.divide(cand, norm, out=coords[cls][count[cls]])
        slots.append(offset[cls] + count[cls])
        powers.append(p % 4)
        count[cls] += 1
        return True

    def unpack(start: tuple) -> None:
        # The rows of the elements accepted since each class had ``start`` of them.
        for cls in (0, 1):
            at = slice(offset[cls] + start[cls], offset[cls] + count[cls])
            upper = coords[cls][start[cls] : count[cls]] / weight[cls]
            rows[at, pick[cls]] = upper
            rows[at, mirror[cls]] = upper if cls else -upper

    new: list[int] = []
    for gen in (h0, mu):
        norm = hs_norm(gen)
        if norm > 0.0:
            cand = (gen / norm).reshape(full)[pick[1]] * weight[1]
            if accept(project(cand, coords[1][: count[1]]), 1):
                new.append(len(slots) - 1)
    unpack((0, 0))

    stack = rows.reshape(full, n, n)
    while new and len(slots) < full:
        next_new: list[int] = []
        for b in new:
            x = (stack[slots[:b]] @ stack[slots[b]]).reshape(b, full)
            p = np.array(powers[:b]) + powers[b]
            start = tuple(count)
            # Block step: every commutator of the batch against its class as
            # it stood when the batch started, in isometric coordinates.
            cands: dict[int, np.ndarray] = {}
            norms = np.zeros(b)
            for cls in (0, 1):
                ks = np.flatnonzero(p % 2 == cls)
                if count[cls] == size[cls]:
                    continue
                # H E - E H on the upper triangle, X_ij -+ X_ji: E H = +-(H E)^T,
                # with + inside a class and - across the two.
                c = (x[ks[:, None], pick[cls]] + (1.0 if cls else -1.0) * x[ks[:, None], mirror[cls]]) * weight[cls]
                # A commutator below ABS_FLOOR cannot clear RANK_RTOL; skip its projection.
                live = np.linalg.norm(c, axis=1) > ABS_FLOOR
                ks, c = ks[live], project(c[live], coords[cls][: count[cls]])
                norms[ks] = np.linalg.norm(c, axis=1)
                cands.update(zip(ks.tolist(), c))
            # Projection only shrinks a residual, so one at or below RANK_RTOL
            # after the block step is rejected as it stands.  The others are
            # taken in schedule order against the elements accepted earlier in
            # the batch.
            for k in np.flatnonzero(norms > RANK_RTOL):
                cls, cand = p[k] % 2, cands[k]
                if count[cls] == size[cls]:
                    continue
                if count[cls] > start[cls]:
                    project(cand, coords[cls][start[cls] : count[cls]])
                    # DGKS: when the in-batch step removes most of the norm, the
                    # residual's round-off along the batch-start block is no
                    # longer small against it; project against the whole class,
                    # unless the residual is rejected as it stands.
                    if RANK_RTOL**2 < float(cand @ cand) < REORTH_FRACTION * norms[k] ** 2:
                        project(cand, coords[cls][: count[cls]])
                if accept(cand, int(p[k])):
                    next_new.append(len(slots) - 1)
            # No batch of this round reads the rows of elements accepted in it.
            unpack(start)
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

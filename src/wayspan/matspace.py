"""Primitives for the traceless-Hermitian matrix space and 2x2 block surgery.

Traceless Hermitian N x N matrices form a real vector space of dimension
N^2 - 1 under the Hilbert-Schmidt inner product Tr(AB).  This module holds
the validators of the matrix value types used across the package, the
embedding of 2x2 blocks at a row/column pair, and an orthonormal basis of
the traceless-Hermitian space for coordinate and rank computations.

Row/column pairs (i, j) are 1-based with i < j in every public signature;
they are converted to 0-based indices internally.  All returned arrays are
read-only, and every operation is a pure function, so values can be shared
freely between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import HERMITIAN_RTOL, TRACE_RTOL, UNITARY_TOL

__all__ = [
    "dagger",
    "hs_norm",
    "assert_hermitian_zt",
    "unitarity_defect",
    "assert_unitary",
    "embed_2x2",
    "basis_zt",
    "to_coords",
    "from_coords",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, batched over any leading ones."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def hs_norm(a: np.ndarray) -> float:
    """Frobenius norm, i.e. the norm induced by the HS inner product.

    ``a`` is scaled by the power of two at its largest entry before the norm
    is taken, and the result is scaled back, so the sum of squares neither
    underflows nor overflows: ``hs_norm(2^k a) == 2^k hs_norm(a)`` exactly
    while the entries of both stay normal floats.  Scaling by a power of two
    is exact, so the result equals ``np.linalg.norm(a)`` bit for bit wherever
    that norm neither underflows nor overflows.
    """
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    exp = np.frexp(np.abs(a).max(initial=0.0))[1]
    parts = a.view(float)
    np.ldexp(parts, -exp, out=parts)
    return float(np.ldexp(np.linalg.norm(a), exp))


def _hermitian_defect(m: np.ndarray) -> float:
    """max |m - m†| over max |m|, equal for m and c m; 0 for the zero matrix,
    NaN if ``m`` holds one."""
    defect = float(np.abs(m - dagger(m)).max())
    scale = float(np.abs(m).max())
    return defect / scale if scale else defect


def assert_hermitian_zt(m, *, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is Hermitian and traceless within tolerance.

    Both tests are relative to ``m``'s own scale, so ``c m`` passes exactly
    when ``m`` does: max |m - m†| must be at most ``HERMITIAN_RTOL`` times the
    largest entry, and |Tr m| at most ``TRACE_RTOL`` times the Frobenius
    norm.  Returns ``m`` as a complex array on success.
    """
    m = _square(m, name).astype(complex)
    defect = _hermitian_defect(m)
    if not defect <= HERMITIAN_RTOL:
        raise ValueError(f"{name} is not Hermitian: relative defect {defect:.3e}")
    tr = abs(complex(np.trace(m)))
    if not tr <= TRACE_RTOL * hs_norm(m):
        raise ValueError(f"{name} is not traceless: |trace| = {tr:.3e}")
    return m


def unitarity_defect(u) -> np.ndarray:
    """Frobenius norm of u†u - I, one value per matrix of a stack (..., n, n).

    A single matrix gives a scalar.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"u must be a square matrix or a stack of them, got shape {u.shape}")
    n = u.shape[-1]
    gram = (dagger(u) @ u).reshape(*u.shape[:-2], n * n)
    gram[..., :: n + 1] -= 1.0
    return np.linalg.norm(gram.view(float), axis=-1)


def assert_unitary(u, *, name: str = "matrix") -> np.ndarray:
    u = _square(u, name).astype(complex)
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: ||u†u - I||_F = {defect:.3e}")
    return u


def _block_index(lead: tuple, i, j, n: int) -> tuple[tuple, tuple]:
    """Leading shape and index of the 2x2 blocks at the 1-based pairs (i, j)
    in a stack of n x n matrices, the pairs broadcast against ``lead``.

    Every pair must satisfy 1 <= i < j <= n; the first that does not is named.
    """
    a, b = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    if a.dtype.kind not in "biu" or b.dtype.kind not in "biu":
        raise ValueError(f"indices must be integers, got ({i!r}, {j!r})")
    bad = np.argwhere(~((1 <= a) & (a < b) & (b <= n)))
    if len(bad):
        k = tuple(bad[0])
        raise ValueError(f"need 1 <= i < j <= {n}, got (i, j) = ({a[k]}, {b[k]})")
    shape = np.broadcast_shapes(lead, a.shape)
    rows = np.broadcast_to(np.stack([a - 1, b - 1], axis=-1), (*shape, 2))
    stack = tuple(ax[..., None, None] for ax in np.ix_(*map(range, shape)))
    return shape, (*stack, rows[..., :, None], rows[..., None, :])


def embed_2x2(d, i, j, n: int) -> np.ndarray:
    """Identity of size ``n`` with the 2x2 block ``d`` written into rows and
    columns i, j (1-based, i < j).

    The four entries of ``d`` land at positions (i,i), (i,j), (j,i), (j,j);
    every other row and column is left as in the identity.  A unitary block
    yields a unitary result.  Batched: ``d`` may be a stack (..., 2, 2) and
    ``i``, ``j`` integer arrays broadcast against its leading axes; the
    result has shape (..., n, n).
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim < 2 or d.shape[-2:] != (2, 2):
        raise ValueError(f"block must be 2x2, got shape {d.shape}")
    shape, at = _block_index(d.shape[:-2], i, j, n)
    out = np.zeros((*shape, n, n), dtype=complex)
    out[..., range(n), range(n)] = 1.0
    out[at] = d
    return _readonly(out)


def basis_zt(n: int) -> np.ndarray:
    """Orthonormal basis of the traceless Hermitian n x n matrices.

    Generalized Gell-Mann construction with n^2 - 1 elements stacked along
    the first axis in a fixed, documented order:

    1. symmetric pairs (E_ij + E_ji)/sqrt(2) for i < j, lexicographic (i, j);
    2. antisymmetric pairs (-i E_ij + i E_ji)/sqrt(2), same pair order;
    3. diagonals diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k (k + 1)), k = 1..n-1.

    Each element has unit HS norm and the set is mutually orthogonal, so
    coordinate maps built on it are isometries.
    """
    if n < 2:
        raise ValueError(f"basis needs dimension >= 2, got {n}")
    a, b = np.triu_indices(n, 1)
    sym, anti = np.arange(len(a)), len(a) + np.arange(len(a))
    k = np.arange(1, n)[:, None]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    out = np.zeros((n * n - 1, n, n), dtype=complex)
    out[sym, a, b] = out[sym, b, a] = inv_sqrt2
    out[anti, a, b] = -1j * inv_sqrt2
    out[anti, b, a] = 1j * inv_sqrt2
    levels = (np.arange(n) < k) - k * (np.arange(n) == k)
    out[2 * len(a) :, range(n), range(n)] = levels / np.sqrt(k * (k + 1.0))
    return _readonly(out)


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """Real row view of a stack of complex n x n matrices: (..., 2 n^2).

    Under it the real HS inner product Re Tr(A†B) is a dot product.  A
    contiguous complex stack is viewed, not copied, so writes reach it.
    """
    stack = np.ascontiguousarray(stack, dtype=complex)
    return stack.reshape(*stack.shape[:-2], stack.shape[-2] * stack.shape[-1]).view(float)


def to_coords(z) -> np.ndarray:
    """Coordinates c_k = Re Tr(basis_k z) in the basis of :func:`basis_zt`, read
    off the entries in its order: (Re z_ij + Re z_ji) / sqrt(2) over the pairs
    i < j, then (Im z_ji - Im z_ij) / sqrt(2), then the diagonal levels from one
    cumulative sum of Re z_ll.  Batched: ``z`` is one matrix or a stack
    (..., n, n), n >= 2, and the result has shape (..., n^2 - 1).  Only the
    traceless Hermitian part of ``z`` counts; on it the map is an isometry onto
    R^(n^2 - 1) with inverse :func:`from_coords`.  The work is elementwise,
    O(n^2) per matrix, so a matrix gets the same bits alone or in any stack.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or z.shape[-1] != z.shape[-2] or z.shape[-1] < 2:
        raise ValueError(f"need square matrices of dimension >= 2, got shape {z.shape}")
    n = z.shape[-1]
    a, b = np.triu_indices(n, 1)
    flat = z.reshape(*z.shape[:-2], n * n)
    upper, lower = np.take(flat, a * n + b, axis=-1), np.take(flat, b * n + a, axis=-1)
    sym, anti = (upper.real + lower.real) / np.sqrt(2.0), (lower.imag - upper.imag) / np.sqrt(2.0)
    d = np.diagonal(z.real, axis1=-2, axis2=-1)
    k = np.arange(1, n)
    levels = (np.cumsum(d, axis=-1)[..., :-1] - k * d[..., 1:]) / np.sqrt(k * (k + 1.0))
    return _readonly(np.concatenate([sym, anti, levels], axis=-1))


def from_coords(coords) -> np.ndarray:
    """Inverse of :func:`to_coords`: the matrices sum c_k basis_k.

    Batched: ``coords`` has shape (..., n^2 - 1) for some n >= 2 and the
    result (..., n, n), computed as one matmul against the flattened
    :func:`basis_zt` of that n.
    """
    coords = np.asarray(coords, dtype=float)
    n = math.isqrt(coords.shape[-1] + 1) if coords.ndim else 0
    if n < 2 or n * n != coords.shape[-1] + 1:
        raise ValueError(f"coordinate vectors must have length n^2 - 1 for some n >= 2, got shape {coords.shape}")
    flat = coords @ _real_rows(basis_zt(n))
    return _readonly(flat.view(complex).reshape(*coords.shape[:-1], n, n))

"""Way-point set construction and the separating-unitary witness.

A way-point set is an ordered list of unitaries with the property that any
propagator trajectory visiting all of them carries conjugated dipoles
spanning the full traceless-Hermitian space, which certifies that the
control-to-propagator map is non-singular along that trajectory.  Two
constructions are provided:

* a dipole-dependent set built from the spectral decomposition of the
  coupling operator (four unitaries per index pair, 2N^2 - 2N in total);
* a dipole-independent set built from a five-angle grid (valid whenever
  every off-diagonal coupling entry is nonzero).

Each way-point is a base unitary (a permuted eigenbasis of mu, or the
identity) with a 2x2 block acting on one pair of columns (i, j).  Both sets
are built as stacks over all pairs through the batched ``embed_2x2``.  The
dipole-dependent set is verified once, at its premise: every block pattern
follows by algebra from mu = Q diag(w) Q†, so the residual of that
eigendecomposition is checked, not the 2N^2 - 2N conjugated dipoles.

The separating-unitary witness produces, for any two nonzero traceless
Hermitian matrices, a unitary whose conjugation action makes their HS
inner product nonzero: it aligns the eigenbases in ascending spectral
order, and Chebyshev's sum inequality bounds the resulting inner product
below by ||z|| ||mu|| / N^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fmt import (
    FormatError,
    complex_entries,
    complex_from_entries,
    float_array,
    int_field,
    parse_json,
    require_key,
    write_document,
)
from .matspace import assert_hermitian_zt, dagger, embed_2x2, hs_norm, unitarity_defect
from .tolerances import (
    EIGH_RESIDUAL_RTOL,
    LEMMA1_DET_THRESHOLD,
    UNITARY_TOL,
    WITNESS_CHECK_RTOL,
    WITNESS_RTOL,
)

__all__ = [
    "PROVENANCES",
    "ThetaGrid",
    "WaypointSet",
    "Lemma1Result",
    "SeparatingWitness",
    "theorem1_waypoints",
    "theorem3_waypoints",
    "theorem1_count",
    "theorem3_count",
    "default_theta_grid",
    "lemma1_check",
    "separating_unitary",
    "load_waypoints",
    "save_waypoints",
]

PROVENANCES = ("theorem1", "theorem3", "custom")
_JSON_SCALARS = (str, int, float, type(None))
# Way-points per batch of the unitarity check.  A whole-set batch would make
# set-sized temporaries, and once freed they raise glibc's mmap threshold, so a
# process that loads sets repeatedly keeps that much more memory resident.
UNITARY_CHECK_BLOCK = 64

# 2x2 factors multiplied onto the base unitary of each quadruple.  The
# second and third are unitary normalizations (1/sqrt(2)); conjugating a
# diagonal block diag(l1, l2) by them produces the target block patterns
# of theorem1_waypoints.  Each factor leaves the columns outside (i, j) of
# the base unitary untouched, so the quadruple agrees off the block.
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_ROTATE = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
_PHASE = np.array([[1.0j, 1.0], [1.0, 1.0j]], dtype=complex) / np.sqrt(2.0)


def theorem1_count(n: int) -> int:
    return 2 * n * n - 2 * n


def theorem3_count(n: int) -> int:
    return 5 * (n * (n - 1) // 2) + 5 * (n - 1)


@dataclass(frozen=True)
class ThetaGrid:
    """Five angles (radians) for the dipole-independent construction."""

    angles: np.ndarray

    def __post_init__(self):
        angles = np.array(self.angles, dtype=float).reshape(-1)
        if angles.shape != (5,):
            raise ValueError(f"grid needs exactly 5 angles, got {angles.shape}")
        if not np.all(np.isfinite(angles)):
            raise ValueError("grid angles must be finite")
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)


@dataclass(frozen=True)
class WaypointSet:
    """Ordered unitaries with provenance and optional per-element labels.

    ``pair_index`` maps list position to ``(i, j, k)`` with k in 1..4 for
    the dipole-dependent set, or ``(kind, theta, i, j)`` with kind "U" or
    "V" for the dipole-independent one; positions are 1-based pairs i < j.
    """

    dim: int
    unitaries: np.ndarray
    provenance: str
    pair_index: tuple | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        arr = np.array(self.unitaries, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] != self.dim:
            raise ValueError(f"unitaries must be (count, {self.dim}, {self.dim}), got {arr.shape}")
        if not len(arr):
            raise ValueError("way-point set is empty")
        for start in range(0, len(arr), UNITARY_CHECK_BLOCK):
            defects = unitarity_defect(arr[start : start + UNITARY_CHECK_BLOCK])
            bad = np.flatnonzero(~(defects <= UNITARY_TOL))
            if bad.size:
                k = int(bad[0])
                raise ValueError(f"way-point {start + k + 1} is not unitary: ||u†u - I||_F = {defects[k]:.3e}")
        expected = {
            "theorem1": theorem1_count(self.dim),
            "theorem3": theorem3_count(self.dim),
        }.get(self.provenance)
        if expected is not None and arr.shape[0] != expected:
            raise ValueError(
                f"{self.provenance} set at dimension {self.dim} must have "
                f"{expected} elements, got {arr.shape[0]}"
            )
        if self.pair_index is not None:
            idx = self.pair_index
            if not isinstance(idx, (list, tuple)):
                raise ValueError(f"pair_index must be a list, got {type(idx).__name__}")
            for entry in idx:
                if not isinstance(entry, (list, tuple)) or not all(isinstance(x, _JSON_SCALARS) for x in entry):
                    raise ValueError(f"pair_index entries must be lists of JSON scalars, got {entry!r}")
            if len(idx) != arr.shape[0]:
                raise ValueError("pair_index length must match the number of way-points")
            object.__setattr__(self, "pair_index", tuple(map(tuple, idx)))
        arr.setflags(write=False)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "unitaries", arr)

    def __len__(self) -> int:
        return int(self.unitaries.shape[0])


class Lemma1Result(NamedTuple):
    passed: bool
    det_magnitude: float


class SeparatingWitness(NamedTuple):
    unitary: np.ndarray
    value: float


def theorem1_waypoints(mu: np.ndarray) -> WaypointSet:
    """Dipole-dependent way-point set (2N^2 - 2N unitaries).

    The coupling operator is diagonalized as ``mu = Q diag(w) Q†`` with
    eigenvalues ascending; a nonzero traceless Hermitian matrix always has
    two distinct eigenvalues, and the construction uses the smallest
    (lam1) and largest (lam2).  For each 1-based pair i < j the base
    unitary is ``Q`` with columns permuted so a lam1-eigenvector sits in
    column i and a lam2-eigenvector in column j (column 0 and column N-1
    of the ascending decomposition, which keeps degenerate spectra
    deterministic), the other columns keeping their order.  The quadruple
    is the base unitary itself and the base times a swap block, a rotation
    block and a phase block at (i, j); the four conjugated dipoles then agree
    off the (i, j) block and realize the four 2x2 block patterns that
    force any orthogonal traceless Hermitian matrix to vanish.

    All pairs are built at once: one column gather of ``Q`` gives every
    base unitary and one batched embedding gives every factor.  The block
    patterns follow from ``mu = Q diag(w) Q†`` by algebra, so only that
    premise is verified: ``max |Q† mu Q - diag(w)|`` must be at most
    ``EIGH_RESIDUAL_RTOL`` times ``||mu||_2 = max(|w_0|, |w_{N-1}|)``,
    otherwise ``RuntimeError``.  The bound scales with mu, so a scaled mu
    passes as the unscaled one does; ``WaypointSet`` checks that every
    way-point is unitary.
    """
    mu = assert_hermitian_zt(mu, name="mu")
    if not mu.any():
        raise ValueError("coupling operator must be nonzero")
    n = mu.shape[0]
    w, q = np.linalg.eigh(mu)
    residual = float(np.abs(dagger(q) @ mu @ q - np.diag(w)).max())
    bound = EIGH_RESIDUAL_RTOL * max(abs(w[0]), abs(w[-1]))
    if not residual <= bound:
        raise RuntimeError(f"eigendecomposition of mu has residual {residual:.3e} above the bound {bound:.3e}")

    # perm[p, c - 1] is the eigenvector placed in column c for pair p: the
    # first at i, the last at j, and the others in order at the free columns.
    i, j = (x[:, None] + 1 for x in np.triu_indices(n, 1))
    col = np.arange(1, n + 1)
    perm = np.where(col == i, 0, np.where(col == j, n - 1, col - (col > i) - (col > j)))
    base = np.moveaxis(q[:, perm], 1, 0)[:, None]
    # The identity factor is the base itself: a product with it could turn a
    # -0.0 of the base into +0.0.
    quads = np.concatenate([base, base @ embed_2x2(np.array([_SWAP, _ROTATE, _PHASE]), i, j, n)], axis=1)

    return WaypointSet(
        dim=n,
        unitaries=quads.reshape(-1, n, n),
        provenance="theorem1",
        pair_index=tuple(zip(i.repeat(4).tolist(), j.repeat(4).tolist(), [1, 2, 3, 4] * len(i))),
    )


def lemma1_check(grid) -> Lemma1Result:
    """Nonsingularity check for the five-angle trig system.

    Builds the 5x5 matrix with rows (1, cos t, sin t, cos 2t, sin 2t) over
    the grid angles and tests |det| against ``LEMMA1_DET_THRESHOLD``; a
    grid passing the check pins all five coefficients of such a trig
    polynomial from its five sampled values.
    """
    angles = grid.angles if isinstance(grid, ThetaGrid) else ThetaGrid(np.asarray(grid)).angles
    rows = np.column_stack(
        [
            np.ones(5),
            np.cos(angles),
            np.sin(angles),
            np.cos(2 * angles),
            np.sin(2 * angles),
        ]
    )
    det = abs(float(np.linalg.det(rows)))
    return Lemma1Result(passed=det > LEMMA1_DET_THRESHOLD, det_magnitude=det)


def default_theta_grid() -> ThetaGrid:
    """The standard angle grid {0, pi/3, pi/2, pi, 3pi/2}.

    The fifth angle must differ from the fourth modulo 2 pi or the trig
    system degenerates; this grid passes :func:`lemma1_check` with
    |det| = 4 sqrt(3).
    """
    return ThetaGrid(np.array([0.0, np.pi / 3.0, np.pi / 2.0, np.pi, 1.5 * np.pi]))


def theorem3_waypoints(n: int, grid: ThetaGrid | None = None) -> WaypointSet:
    """Dipole-independent way-point set from a five-angle grid.

    Emits, in a fixed order, the off-diagonal exchange blocks
    ``[[0, e^{i t}], [e^{-i t}, 0]]`` embedded at every 1-based pair
    i < j, then the reflection blocks ``[[cos t, sin t], [sin t, -cos t]]``
    embedded at consecutive pairs (i, i+1), for each of the five grid
    angles.  The five blocks of each kind are formed once and embedded at
    all their pairs by one batched call.  The set depends only on the
    dimension and the grid, never on the coupling operator, so repeated
    construction is bit-identical.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    grid = default_theta_grid() if grid is None else grid
    check = lemma1_check(grid)
    if not check.passed:
        raise ValueError(
            f"angle grid is singular (|det| = {check.det_magnitude:.3e} <= {LEMMA1_DET_THRESHOLD})"
        )

    exchange = [[[0.0, p], [np.conj(p), 0.0]] for p in (np.exp(1j * t) for t in grid.angles)]
    reflection = [[[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]] for t in grid.angles]
    # One row per pair, each with the five blocks of its kind: exchange at
    # every pair i < j, then reflection at every (i, i+1).
    i, j = (x + 1 for x in np.triu_indices(n, 1))
    first = np.concatenate([i, np.arange(1, n)])
    second = np.concatenate([j, np.arange(2, n + 1)])
    kind = np.repeat([0, 1], [len(i), n - 1])
    blocks = np.array([exchange, reflection], dtype=complex)[kind]
    unitaries = embed_2x2(blocks, first[:, None], second[:, None], n).reshape(-1, n, n)
    labels, first, second = (c.repeat(5).tolist() for c in (np.array(["U", "V"])[kind], first, second))
    return WaypointSet(
        dim=n,
        unitaries=unitaries,
        provenance="theorem3",
        pair_index=tuple(zip(labels, grid.angles.tolist() * len(kind), first, second)),
    )


def separating_unitary(z: np.ndarray, mu: np.ndarray) -> SeparatingWitness:
    """Unitary ``u`` with Tr(z u† mu u) above ``WITNESS_RTOL * ||z|| ||mu||``.

    Both inputs are diagonalized with ascending spectra a and b, and
    ``u`` maps the eigenbasis of ``z`` onto that of ``mu`` in the same
    order (the identity permutation), which reduces the trace to
    ``sum_k a_k b_k``.  For sorted zero-sum spectra Chebyshev's sum
    inequality gives ``sum_k a_k b_k >= (a_N - a_1)(b_N - b_1) / N``, and
    ``||a|| <= sqrt(N) (a_N - a_1)``, so the value is at least
    ``||z|| ||mu|| / N^2``: 1e-3 ||z|| ||mu|| at N = 32, far above the
    threshold.  The predicted value is re-checked against the conjugation.
    """
    z = assert_hermitian_zt(z, name="z")
    mu = assert_hermitian_zt(mu, name="mu")
    if z.shape != mu.shape:
        raise ValueError(f"dimension mismatch: z {z.shape} vs mu {mu.shape}")
    if not (z.any() and mu.any()):
        raise ValueError("witness needs nonzero matrices")
    norm_z, norm_mu = hs_norm(z), hs_norm(mu)
    w1, v1 = np.linalg.eigh(z)
    w2, v2 = np.linalg.eigh(mu)
    value = float(np.dot(w1, w2))
    u = v2 @ dagger(v1)
    achieved = complex(np.einsum("ij,ji->", z, dagger(u) @ mu @ u))
    floor = WITNESS_RTOL * norm_z * norm_mu
    if not value > floor or abs(achieved.real - value) > WITNESS_CHECK_RTOL * value:
        raise RuntimeError(
            f"witness check failed: predicted {value:.6g} (floor {floor:.3g}), "
            f"conjugation gives {achieved:.6g}"
        )
    u.setflags(write=False)
    return SeparatingWitness(unitary=u, value=value)


def save_waypoints(ws: WaypointSet, target) -> None:
    doc = {
        "dim": ws.dim,
        "provenance": ws.provenance,
        "count": len(ws),
        "unitaries": complex_entries(ws.unitaries),
        "pair_index": [list(entry) for entry in ws.pair_index] if ws.pair_index else None,
    }
    write_document(target, doc)


def load_waypoints(source) -> WaypointSet:
    doc = parse_json(source)
    n = int_field(doc, "dim", 2)
    provenance = require_key(doc, "provenance")
    count = int_field(doc, "count", 1)
    unitaries = complex_from_entries(float_array(require_key(doc, "unitaries"), "unitaries", (count, n, n, 2)))
    try:
        return WaypointSet(dim=n, unitaries=unitaries, provenance=provenance, pair_index=doc.get("pair_index"))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

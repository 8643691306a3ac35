"""Quantum system definition, document I/O, and standing-hypothesis checks.

A system is a drift Hamiltonian ``h0`` and a coupling (dipole) operator
``mu`` through which one scalar control field enters the dynamics
bilinearly.  Both are restricted to real symmetric matrices and ``mu``
must be traceless; inputs outside those assumptions are rejected rather
than silently accepted so that every downstream construction stays on
well-defined ground.  Both tests are relative to each matrix's own scale
(``HERMITIAN_RTOL`` of its largest entry, ``TRACE_RTOL`` of its HS norm):
a change of energy unit, (c h0, c mu), is accepted exactly when (h0, mu)
is, for c a power of two, and up to round-off for any c > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reachability
from ._fmt import FormatError, float_array, int_field, parse_json, read_text, require_key
from .matspace import _hermitian_defect, _unit_scaled, hs_norm
from .tolerances import HERMITIAN_RTOL, OFFDIAG_RTOL, TRACE_RTOL

__all__ = [
    "FormatError",
    "HypothesisViolation",
    "QuantumSystem",
    "HypothesisReport",
    "load_system",
    "load_system_csv",
    "check_hypotheses",
]


class HypothesisViolation(ValueError):
    """A required modeling hypothesis does not hold for the given matrices."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(message)
        self.hypothesis = hypothesis


def _as_real_symmetric(entries, name: str, dim: int) -> np.ndarray:
    if np.iscomplexobj(entries):
        raise HypothesisViolation(f"{name}_real", f"{name} must have real entries")
    try:
        m = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise HypothesisViolation(
            f"{name}_real", f"{name} must have real entries: {exc}"
        ) from exc
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    defect = _hermitian_defect(m)
    if not defect <= HERMITIAN_RTOL:
        raise HypothesisViolation(f"{name}_symmetric", f"{name} is not symmetric: relative defect {defect:.3e}")
    return m


@dataclass(frozen=True)
class QuantumSystem:
    """An N-level system: real symmetric ``h0`` and traceless ``mu`` (hbar = 1)."""

    dim: int
    h0: np.ndarray
    mu: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"system dimension must be an integer >= 2, got {self.dim!r}")
        h0 = _as_real_symmetric(self.h0, "h0", self.dim)
        mu = _as_real_symmetric(self.mu, "mu", self.dim)
        # On the scaled copy, so that neither the trace nor the norm overflows.
        scaled = _unit_scaled(mu)[0]
        if not abs(np.trace(scaled)) <= TRACE_RTOL * hs_norm(scaled):
            raise HypothesisViolation(
                "mu_traceless", f"zero-trace hypothesis violated: Tr(mu) = {np.trace(mu):.6g}"
            )
        h0.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the standing-hypothesis checks, one flag per hypothesis.

    ``offdiag_nonzero`` is true iff every off-diagonal coupling entry
    exceeds ``offdiag_tol`` in magnitude; ``controllable`` is the Lie
    closure verdict ("SU", "U" or "NO").  ``zero_trace`` and ``symmetric``
    hold for every :class:`QuantumSystem`, which rejects a violation of
    either on construction.
    """

    zero_trace: bool
    symmetric: bool
    offdiag_nonzero: bool
    controllable: str
    offdiag_min: float
    offdiag_tol: float
    lie_dimension: int

    @property
    def ok(self) -> bool:
        """True iff every checked hypothesis holds."""
        return (
            self.zero_trace
            and self.symmetric
            and self.offdiag_nonzero
            and self.controllable in (reachability.VERDICT_SU, reachability.VERDICT_U)
        )


def check_hypotheses(sys: QuantumSystem) -> HypothesisReport:
    """Evaluate each standing hypothesis of a valid system independently.

    The nonzero-coupling hypothesis is a strict inequality, so only
    numerically zero entries fail it: those at most ``OFFDIAG_RTOL`` times
    the Frobenius norm of ``mu``.  The test is made on the
    ``matspace._unit_scaled`` copy of ``mu``, so it holds where that norm
    exceeds the float range.  Never mutates the system and is
    deterministic; the controllability verdict is delegated to
    :func:`reachability.lie_closure`.
    """
    off_mask = ~np.eye(sys.dim, dtype=bool)
    scaled, exp = _unit_scaled(sys.mu)
    tol = OFFDIAG_RTOL * hs_norm(scaled)
    closure = reachability.lie_closure(sys.h0, sys.mu)
    return HypothesisReport(
        zero_trace=True,
        symmetric=True,
        offdiag_nonzero=float(np.abs(scaled[off_mask]).min()) > tol,
        controllable=closure.verdict,
        offdiag_min=float(np.abs(sys.mu[off_mask]).min()),
        offdiag_tol=math.ldexp(tol, exp),
        lie_dimension=closure.dimension,
    )


def load_system(source) -> QuantumSystem:
    """Load a system document (JSON with fields ``n``, ``h0``, ``mu``, optional ``label``).

    Raises :class:`FormatError` for malformed documents and
    :class:`HypothesisViolation` for well-formed documents whose matrices
    break the modeling assumptions.
    """
    doc = parse_json(source)
    n = int_field(doc, "n", 2)
    h0 = float_array(require_key(doc, "h0"), "h0", (n, n))
    mu = float_array(require_key(doc, "mu"), "mu", (n, n))
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise FormatError("field 'label' must be a string")
    return QuantumSystem(dim=n, h0=h0, mu=mu, label=label)


def load_system_csv(source) -> QuantumSystem:
    """Load the compact CSV variant: line ``n``, then N rows of h0, then N of mu."""
    lines = [ln.strip() for ln in read_text(source).splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty CSV system document")
    try:
        n = int(lines[0])
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad CSV system document: {exc}") from exc
    table = float_array(rows, "h0 and mu rows", (2 * n, n))
    return QuantumSystem(dim=n, h0=table[:n], mu=table[n:])


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EXTREME_SCALES,
    SX,
    SZ,
    coupled_traceless_symmetric,
    random_real_symmetric,
    rotated_symmetric,
    rotated_traceless_symmetric,
)
from wayspan import reachability
from wayspan.model import QuantumSystem


def test_pauli_pair_closes_su2():
    result = reachability.lie_closure(np.real(SZ), np.real(SX))
    assert result.dimension == 3
    assert result.verdict == "SU"


def test_single_generator_is_not_controllable():
    result = reachability.lie_closure(np.zeros((2, 2)), np.real(SZ))
    assert result.dimension == 1
    assert result.verdict == "NO"


def test_commuting_generators_are_not_controllable():
    result = reachability.lie_closure(2.5 * np.eye(2), np.real(SZ))
    assert result.verdict == "NO"
    assert result.dimension == 2


def test_block_diagonal_closure_stays_confined(rng):
    def block_pair():
        a = random_real_symmetric(2, rng)
        b = random_real_symmetric(2, rng)
        return np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])

    result = reachability.lie_closure(block_pair(), block_pair())
    assert result.verdict == "NO"
    assert result.dimension <= 8


def test_fully_coupled_three_level(rng):
    h0 = np.diag([0.0, 1.0, 3.0])
    mu = np.ones((3, 3)) - np.eye(3)
    result = reachability.lie_closure(h0, mu)
    assert result.dimension >= 8
    assert result.verdict in ("SU", "U")


def test_basis_is_orthonormal_and_skew(rng):
    result = reachability.lie_closure(random_real_symmetric(3, rng), random_real_symmetric(3, rng))
    basis = result.basis
    gram = np.array([[np.real(np.vdot(a, b)) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(result.dimension), atol=1e-10)
    for e in basis:
        assert np.abs(e + e.conj().T).max() < 1e-10


def test_dimension_invariant_under_swap_and_rescaling(rng):
    h0 = random_real_symmetric(3, rng)
    mu = random_real_symmetric(3, rng)
    base = reachability.lie_closure(h0, mu)
    swapped = reachability.lie_closure(mu, h0)
    scaled = reachability.lie_closure(37.0 * h0, -0.004 * mu)
    assert swapped.dimension == base.dimension
    assert scaled.dimension == base.dimension
    assert scaled.verdict == base.verdict


def test_dimension_bounds(rng):
    for n in (2, 3, 4):
        res = reachability.lie_closure(random_real_symmetric(n, rng), random_real_symmetric(n, rng))
        assert 1 <= res.dimension <= n * n


def test_is_controllable_on_system():
    assert reachability.is_controllable(QuantumSystem(2, np.real(SZ), np.real(SX))) == "SU"
    assert reachability.is_controllable(QuantumSystem(2, np.eye(2), np.real(SZ))) == "NO"


def test_traceless_generators_give_su_not_u(rng):
    # both generators traceless: closure cannot contain the identity direction
    h0 = np.real(SZ)
    mu = np.real(SX)
    result = reachability.lie_closure(h0, mu)
    assert result.verdict == "SU"
    for e in result.basis:
        assert abs(np.trace(e)) < 1e-10


def _assert_orthonormal_skew(result):
    rows = np.asarray(result.basis).reshape(result.dimension, -1)
    gram = np.real(rows.conj() @ rows.T)
    assert np.abs(gram - np.eye(result.dimension)).max() < 1e-10
    assert np.abs(result.basis + np.conj(np.swapaxes(result.basis, 1, 2))).max() < 1e-10


@settings(max_examples=20)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=8, seed=0)
def test_fully_coupled_closure_is_u(n, seed):
    rng = np.random.default_rng(seed)
    h0 = random_real_symmetric(n, rng) + np.eye(n)
    result = reachability.lie_closure(h0, coupled_traceless_symmetric(n, rng))
    assert (result.dimension, result.verdict) == (n * n, "U")
    _assert_orthonormal_skew(result)


@settings(max_examples=20)
@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=-100.0, max_value=-0.01),
)
def test_scaled_pauli_pair_closes_su2(a, b):
    result = reachability.lie_closure(a * np.real(SZ), b * np.real(SX))
    assert (result.dimension, result.verdict) == (3, "SU")
    _assert_orthonormal_skew(result)


@settings(max_examples=20)
@given(n=st.integers(min_value=2, max_value=8), split=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=8, split=4, seed=0)
def test_block_diagonal_closure_is_not_controllable(n, split, seed):
    rng = np.random.default_rng(seed)
    m = min(split, n - 1)

    def block_pair():
        out = np.zeros((n, n))
        out[:m, :m] = random_real_symmetric(m, rng)
        out[m:, m:] = random_real_symmetric(n - m, rng)
        return out

    result = reachability.lie_closure(block_pair(), block_pair())
    assert result.verdict == "NO"
    assert result.dimension <= m * m + (n - m) ** 2
    _assert_orthonormal_skew(result)


@settings(max_examples=20)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=8, seed=0)
def test_commuting_pair_is_not_controllable(n, seed):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    h0 = q @ np.diag(rng.uniform(-1.0, 1.0, n)) @ q.T
    mu = q @ np.diag(rng.uniform(-1.0, 1.0, n)) @ q.T
    result = reachability.lie_closure(h0, mu)
    assert (result.dimension, result.verdict) == (2, "NO")
    _assert_orthonormal_skew(result)


@pytest.mark.parametrize("n", range(4, 14))
def test_spin_chain_closure_has_exact_dimension(n):
    # Equally spaced traceless levels and a nearest-neighbour chain of ones:
    # the closure is sp(N/2) for even N and so(N) for odd N.  Some of its
    # commutators are small through cancellation, which must not let their
    # round-off into the basis.
    h0 = np.diag(np.arange(n) - (n - 1) / 2)
    mu = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    result = reachability.lie_closure(h0, mu)
    assert result.dimension == (n * (n + 1) // 2 if n % 2 == 0 else n * (n - 1) // 2)
    assert result.verdict == "NO"
    _assert_orthonormal_skew(result)


@pytest.mark.parametrize("n", range(2, 9))
def test_closure_does_not_depend_on_the_energy_unit(n, rng):
    # Only an exactly zero generator is dropped, the generators are normalized
    # by an HS norm that does not square their entries, and every commutator
    # is formed from unit-norm basis elements, so (c h0, c mu) closes as (h0, mu).
    h0, mu = rotated_symmetric(n, rng), rotated_traceless_symmetric(n, rng)
    result = reachability.lie_closure(h0, mu)
    assert result.verdict == "U"
    for k in [*range(-60, 41), *EXTREME_SCALES]:
        scaled = reachability.lie_closure(2.0**k * h0, 2.0**k * mu)
        assert (scaled.dimension, scaled.verdict) == (result.dimension, result.verdict), k


def _complex_closure_oracle(h0, mu):
    """The closure on complex skew-Hermitian matrices, projected against one
    mixed basis: the reference for the real, parity-split ``lie_closure``."""
    from wayspan.matspace import _real_rows
    from wayspan.tolerances import ABS_FLOOR, CLOSURE_TRACE_TOL, RANK_RTOL

    n = h0.shape[0]
    full = n * n
    stack = np.zeros((full, n, n), dtype=complex)
    rows = _real_rows(stack)
    dim = 0

    def try_add(cand):
        nonlocal dim
        basis = rows[:dim]
        for _ in range(2):
            cand -= basis.T @ (basis @ cand)
        norm = float(np.linalg.norm(cand))
        if norm <= RANK_RTOL:
            return False
        rows[dim] = cand / norm
        dim += 1
        return True

    new = []
    for gen in (-1j * np.asarray(h0, dtype=complex), -1j * np.asarray(mu, dtype=complex)):
        norm = float(np.linalg.norm(gen))
        if norm > 0.0 and try_add(_real_rows(gen / norm)):
            new.append(dim - 1)
    while new and dim < full:
        next_new = []
        for b_idx in new:
            head, e = stack[:b_idx], stack[b_idx]
            cands = _real_rows(head @ e - e @ head)
            for cand, pre_norm in zip(cands, np.linalg.norm(cands, axis=1)):
                if pre_norm > ABS_FLOOR and try_add(cand):
                    next_new.append(dim - 1)
            if dim >= full:
                break
        new = next_new
    basis = stack[:dim]
    traceless = bool(np.all(np.abs(np.trace(basis, axis1=1, axis2=2)) < CLOSURE_TRACE_TOL))
    verdict = "U" if dim == full else ("SU" if dim == full - 1 and traceless else "NO")
    return dim, basis, verdict


def _assert_matches_oracle(h0, mu):
    result = reachability.lie_closure(h0, mu)
    dim, basis, verdict = _complex_closure_oracle(h0, mu)
    assert (result.dimension, result.verdict) == (dim, verdict)
    assert result.basis.dtype == complex
    assert np.abs(result.basis - basis).max(initial=0.0) < 1e-10


@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(["generic", "traceless", "block", "commuting"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=8, kind="generic", seed=0)
def test_real_closure_matches_the_complex_oracle(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        h0, mu = random_real_symmetric(n, rng), random_real_symmetric(n, rng)
    elif kind == "traceless":
        h0, mu = random_real_symmetric(n, rng), coupled_traceless_symmetric(n, rng)
        h0 -= np.trace(h0) / n * np.eye(n)
    elif kind == "block":
        m = int(rng.integers(1, n))
        h0, mu = np.zeros((n, n)), np.zeros((n, n))
        for g in (h0, mu):
            g[:m, :m] = random_real_symmetric(m, rng)
            g[m:, m:] = random_real_symmetric(n - m, rng)
    else:
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        h0 = q @ np.diag(rng.uniform(-1.0, 1.0, n)) @ q.T
        mu = q @ np.diag(rng.uniform(-1.0, 1.0, n)) @ q.T
    _assert_matches_oracle(h0, mu)


@pytest.mark.parametrize("n", range(4, 14))
def test_real_closure_matches_the_complex_oracle_on_spin_chains(n):
    h0 = np.diag(np.arange(n) - (n - 1) / 2)
    mu = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    _assert_matches_oracle(h0, mu)


@pytest.mark.parametrize("n", [10, 12, 16])
def test_real_closure_matches_the_complex_oracle_on_large_batches(n):
    # From N = 10 on, the bracket batches of a generic pair hold tens of
    # candidates, so most of the projection work is the block step.
    rng = np.random.default_rng(n)
    _assert_matches_oracle(random_real_symmetric(n, rng), random_real_symmetric(n, rng))


@pytest.mark.parametrize("n", [14, 16, 24])
def test_ill_conditioned_spin_chain_keeps_an_orthonormal_basis_within_its_classes(n):
    # From N = 14 on the spin chain's closure takes round-off directions
    # (its dimension is over-counted), and an in-batch projection can remove
    # most of a candidate's norm: the basis must stay orthonormal, and no
    # parity class may hold more elements than its dimension.
    h0 = np.diag(np.arange(n) - (n - 1) / 2)
    mu = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    result = reachability.lie_closure(h0, mu)
    _assert_orthonormal_skew(result)
    basis = result.basis
    imaginary_symmetric = int(np.sum(np.abs(basis.real).max(axis=(1, 2)) == 0.0))
    real_antisymmetric = int(np.sum(np.abs(basis.imag).max(axis=(1, 2)) == 0.0))
    assert imaginary_symmetric + real_antisymmetric == result.dimension
    assert imaginary_symmetric <= n * (n + 1) // 2
    assert real_antisymmetric <= n * (n - 1) // 2


def test_generic_system_at_the_dimension_cap_is_u():
    # Drawn like perfbench/gen.py's systems: positive non-degenerate levels
    # and a traceless dipole with every |mu_ij| >= 0.1.
    rng = np.random.default_rng(101)
    n = 32
    h0 = np.diag(np.cumsum(rng.uniform(0.5, 1.5, n)))
    mu = coupled_traceless_symmetric(n, rng)
    result = reachability.lie_closure(h0, mu)
    assert (result.dimension, result.verdict) == (n * n, "U")
    _assert_orthonormal_skew(result)


@pytest.mark.parametrize("which", ["h0", "mu"])
def test_complex_generators_are_rejected(which):
    gens = {"h0": np.real(SZ), "mu": np.real(SX)}
    gens[which] = gens[which].astype(complex)
    with pytest.raises(ValueError, match="complex"):
        reachability.lie_closure(gens["h0"], gens["mu"])

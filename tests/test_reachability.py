import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SX, SZ, coupled_traceless_symmetric, random_real_symmetric
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

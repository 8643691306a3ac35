"""Shared fixtures, random-matrix helpers and the hypothesis profile."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from wayspan import evolve
from wayspan.evolve import ControlField
from wayspan.model import QuantumSystem

# Derandomized examples make every run of the suite draw the same cases;
# no deadline, because BLAS timings on a shared machine are noisy.  The
# "random" profile draws fresh cases from a seed, for sweeping a property
# test over many draws:
#     pytest --hypothesis-profile=random --hypothesis-seed=N
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("random", derandomize=False, deadline=None)
settings.load_profile("default")

# Powers of two k tested beyond the unit changes k = -40..40: past 2^-510 and
# 2^510, where a norm that squares the entries would underflow or overflow,
# and the ends of the range over which every command keeps its verdict on the
# N=4 system of test_cli.  Below 2^-1012 the horizon of its 45 steered
# segments overflows; above 2^1018 the span of their dipoles does.
EXTREME_SCALES = (-1012, -540, 540, 1018)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Re Tr(a b), real for Hermitian a and b."""
    return float(np.real(np.trace(a @ b)))


def random_real_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return a + a.T


def random_traceless_symmetric(n, rng):
    m = random_real_symmetric(n, rng)
    return m - np.trace(m) / n * np.eye(n)


def rotated_symmetric(n, rng, traceless=False):
    """Q diag(w) Q^T for a random orthogonal Q, symmetric only up to round-off:
    from N = 3 on, m and m^T usually differ in some last bit.  With
    ``traceless``, w sums to zero and Tr m is round-off."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = rng.normal(size=n)
    return q @ np.diag(w - w.mean() if traceless else w) @ q.T


def rotated_traceless_symmetric(n, rng):
    return rotated_symmetric(n, rng, traceless=True)


def random_traceless_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z = (a + a.conj().T) / 2
    return z - np.trace(z).real / n * np.eye(n)


def random_density(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def coupled_traceless_symmetric(n, rng, min_offdiag=0.1):
    """Random real symmetric traceless matrix with |off-diagonal| >= min_offdiag."""
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mag = rng.uniform(min_offdiag, 1.0)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            m[i, j] = m[j, i] = sign * mag
    diag = rng.normal(size=n)
    np.fill_diagonal(m, diag - diag.mean())
    return m


def jacobian_matrices(traj):
    """The rows of ``evolve._jacobian`` as the complex matrices dt mid_hat_m."""
    return evolve._jacobian(traj).view(complex).reshape(traj.steps, traj.dim, traj.dim)


def spoil_last_block(monkeypatch, name, count, spoil):
    """Patch ``evolve.<name>``, called once per block of ``count`` indices, so
    that ``spoil`` edits its result for the last block."""
    real, calls = getattr(evolve, name), itertools.count()
    last = len(evolve._blocks(count)) - 1

    def spoiled(*args):
        out = real(*args)
        return spoil(out) if next(calls) == last else out

    monkeypatch.setattr(evolve, name, spoiled)


def random_system_and_field(n, steps, seed):
    """Seeded random traceless symmetric pair and a random field of ``steps`` steps."""
    rng = np.random.default_rng(seed)
    sys_n = QuantumSystem(n, random_traceless_symmetric(n, rng), random_traceless_symmetric(n, rng))
    field = ControlField(horizon=rng.uniform(0.5, 5.0), values=rng.normal(size=steps))
    return sys_n, field


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

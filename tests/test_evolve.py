import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SZ,
    jacobian_matrices,
    random_system_and_field,
    random_traceless_symmetric,
    random_unitary,
    spoil_last_block,
)
from wayspan import evolve, matspace
from wayspan.evolve import ControlField
from wayspan.model import FormatError, QuantumSystem


@pytest.fixture
def pauli_system():
    return QuantumSystem(2, np.real(SZ), np.real(SX))


def test_control_field_validation():
    with pytest.raises(ValueError):
        ControlField(horizon=-1.0, values=[0.0])
    with pytest.raises(ValueError):
        ControlField(horizon=1.0, values=[])
    with pytest.raises(ValueError):
        ControlField(horizon=1.0, values=[np.nan])
    f = ControlField.constant(0.5, 2.0, 4)
    assert f.dt == pytest.approx(0.5)
    assert f.steps == 4


def test_free_evolution_matches_matrix_exponential(rng):
    h0 = random_traceless_symmetric(3, rng)
    sys3 = QuantumSystem(3, h0, random_traceless_symmetric(3, rng))
    field = ControlField.constant(0.0, 1.7, 64)
    traj = evolve.propagate(sys3, field)
    expected = scipy.linalg.expm(-1j * 1.7 * h0)
    assert np.linalg.norm(traj.unitaries[-1] - expected) < 1e-10


def test_resonant_pulse_closed_form():
    # h0 = 0, mu = sx, eps = pi/(2T): endpoint is exp(i pi sx / 2) = i sx
    horizon = 2.0
    sys2 = QuantumSystem(2, np.zeros((2, 2)), np.real(SX))
    field = ControlField.constant(np.pi / (2 * horizon), horizon, 40)
    traj = evolve.propagate(sys2, field)
    u_end = traj.unitaries[-1]
    assert np.linalg.norm(u_end - 1j * SX) < 1e-12
    assert abs(np.trace(SX.conj().T @ (-1j * u_end))) / 2 == pytest.approx(1.0)


def test_unitarity_over_long_trajectory(rng):
    sys3 = QuantumSystem(
        3, random_traceless_symmetric(3, rng), random_traceless_symmetric(3, rng)
    )
    field = ControlField(horizon=5.0, values=rng.normal(size=1000))
    traj = evolve.propagate(sys3, field)
    defects = [matspace.unitarity_defect(u) for u in traj.unitaries[::100]]
    assert max(defects) < 1e-10
    assert np.array_equal(traj.unitaries[0], np.eye(3))


def test_group_property_split_composition(rng, pauli_system):
    values = rng.normal(size=40)
    whole = evolve.propagate(pauli_system, ControlField(horizon=2.0, values=values))
    first = evolve.propagate(pauli_system, ControlField(horizon=1.0, values=values[:20]))
    second = evolve.propagate(pauli_system, ControlField(horizon=1.0, values=values[20:]))
    composed = second.unitaries[-1] @ first.unitaries[-1]
    assert np.linalg.norm(composed - whole.unitaries[-1]) < 1e-9


def test_time_reversal_recovers_identity(rng, pauli_system):
    values = rng.normal(size=30)
    forward = evolve.propagate(pauli_system, ControlField(horizon=1.5, values=values))
    negated = QuantumSystem(2, -pauli_system.h0, -pauli_system.mu)
    backward = evolve.propagate(negated, ControlField(horizon=1.5, values=values[::-1]))
    roundtrip = backward.unitaries[-1] @ forward.unitaries[-1]
    assert np.linalg.norm(roundtrip - np.eye(2)) < 1e-8


def test_conjugated_dipole_identity_and_swap():
    mu = np.real(SZ)
    assert np.allclose(evolve.conjugated_dipole(np.eye(2), mu), mu)
    swap = matspace.embed_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 2, 2)
    assert np.allclose(evolve.conjugated_dipole(swap, mu), -mu)


def test_conjugated_dipole_preserves_norm(rng):
    mu = random_traceless_symmetric(4, rng)
    u = random_unitary(4, rng)
    hat = evolve.conjugated_dipole(u, mu)
    assert matspace.hs_norm(hat) == pytest.approx(matspace.hs_norm(mu), rel=1e-12)


def test_trajectory_dipole_spectra_match(rng, pauli_system):
    field = ControlField(horizon=2.0, values=rng.normal(size=50))
    traj = evolve.propagate(pauli_system, field)
    ref = np.sort(np.linalg.eigvalsh(pauli_system.mu))
    for hat in evolve.conjugated_dipole(traj.unitaries[::10], pauli_system.mu):
        assert np.allclose(np.sort(np.linalg.eigvalsh(hat)), ref, atol=1e-9)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        evolve.density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve.density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        evolve.density_matrix(np.diag([1.5, -0.5]))


def test_field_document_roundtrip(tmp_path):
    field = ControlField(horizon=2.5, values=np.array([0.1, -0.2, 0.3]))
    path = tmp_path / "field.json"
    evolve.save_field(field, path)
    again = evolve.load_field(path)
    assert again.horizon == field.horizon
    assert np.array_equal(again.values, field.values)


def test_field_document_errors():
    with pytest.raises(FormatError):
        evolve.load_field(io.StringIO(json.dumps({"T": 1.0, "M": 3, "values": [0.0]})))
    with pytest.raises(FormatError):
        evolve.load_field(io.StringIO(json.dumps({"T": -1.0, "M": 1, "values": [0.0]})))


def test_concat_fields_requires_matching_grid():
    a = ControlField(horizon=1.0, values=np.zeros(10))
    b = ControlField(horizon=2.0, values=np.ones(20))
    merged = evolve.concat_fields([a, b])
    assert merged.steps == 30
    assert merged.horizon == pytest.approx(3.0)
    with pytest.raises(ValueError, match="step mismatch"):
        evolve.concat_fields([a, ControlField(horizon=1.0, values=np.zeros(11))])


def test_trajectory_csv(tmp_path, pauli_system):
    field = ControlField.constant(0.0, 1.0, 4)
    traj = evolve.propagate(pauli_system, field)
    out = tmp_path / "traj.csv"
    evolve.trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,re_u_1_1,im_u_1_1")
    assert len(lines) == 6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 24, 32])
def test_real_products_match_the_complex_formulas(n):
    # The step eigenvectors are real, and the step exponentials and frames are
    # taken in real arithmetic.  They agree with the complex formulas within a
    # few ulps per term of each N-term sum (unitary entries are at most 1).
    sys_n, field = random_system_and_field(n, 2 * evolve._BLOCK + 5, seed=n)
    (w, v), steps = evolve._step_exponentials(sys_n, field.values, field.dt)
    assert v.dtype == np.float64
    tol = 4 * n * np.finfo(float).eps
    exact = (v * np.exp(-1j * field.dt * w)[:, None, :]) @ matspace.dagger(v)
    assert steps.shape == exact.shape and np.abs(steps - exact).max() <= tol

    traj = evolve.propagate(sys_n, field)
    _, eig, nodes = next(traj.blocks())
    starts = np.array(traj.unitaries[:-1])
    stacks = {
        "contiguous": ((w, v), starts),
        "read-only": (eig, nodes[:-1]),
        "strided": ((w[::3], v[::3]), traj.unitaries[:-1:3]),
        "transposed": ((w, v), np.swapaxes(np.swapaxes(starts, 1, 2).copy(), 1, 2)),
    }
    for name, (eig_s, nodes_s) in stacks.items():
        frames, coupling = evolve._step_frames(field.dt, sys_n.mu, eig_s, nodes_s)
        exact = matspace.dagger(eig_s[1]) @ nodes_s
        assert frames.shape == exact.shape and np.abs(frames - exact).max() <= tol, name
        assert frames.flags.writeable and coupling.shape == exact.shape


def test_each_node_is_its_step_times_the_node_before(pauli_system):
    # The streamed blocks hold the kept nodes, and each node is the product of
    # its step exponential with the node before it, bit for bit.
    field = ControlField(horizon=3.0, values=np.linspace(-1.0, 1.0, 2 * evolve._BLOCK + 3))
    nodes = evolve.propagate(pauli_system, field).unitaries
    for block, _, block_nodes in evolve._step_blocks(pauli_system, field):
        steps = evolve._step_exponentials(pauli_system, field.values[block], field.dt)[1]
        assert np.array_equal(block_nodes, nodes[block.start : block.stop + 1])
        for k, step in enumerate(steps):
            assert np.array_equal(block_nodes[k + 1], np.ascontiguousarray(step) @ block_nodes[k])


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 50, 51])
@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_final_propagator_is_the_last_node_of_propagate(steps, n, seed):
    sys_n, field = random_system_and_field(n, steps, seed)
    u_end = evolve._final_propagator(sys_n, field).unitaries[-1]
    assert np.array_equal(u_end, evolve.propagate(sys_n, field).unitaries[-1])


def _assert_couplings_are_step_derivatives(sys_n, field):
    """dS_m/d(eps_m) = i dt U_{m+1} mid_hat_m U_m† for every step S_m, against
    scipy's Frechet derivative of the step exponential, and the endpoint
    against a per-step loop of scipy's exponentials."""
    traj = evolve._final_propagator(sys_n, field)
    dt_mid_hats = jacobian_matrices(traj)
    dt, nodes = field.dt, traj.unitaries
    u_end = nodes[-1]
    u = np.eye(sys_n.dim, dtype=complex)
    for m, eps in enumerate(field.values):
        h_m = sys_n.h0 - eps * sys_n.mu
        step, d_step = scipy.linalg.expm_frechet(-1j * dt * h_m, 1j * dt * sys_n.mu)
        assert np.abs(d_step - 1j * nodes[m + 1] @ dt_mid_hats[m] @ nodes[m].conj().T).max() < 1e-12
        u = step @ u
    assert np.abs(u_end - u).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    steps=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_midpoint_couplings_match_per_step_loop(n, steps, seed):
    _assert_couplings_are_step_derivatives(*random_system_and_field(n, steps, seed))


def test_midpoint_couplings_at_a_degenerate_spectrum(rng):
    # With no drift, a zero step has the generator 0: every level is equal,
    # so the coupling kernel is evaluated at x = 0 throughout.
    sys3 = QuantumSystem(3, np.zeros((3, 3)), random_traceless_symmetric(3, rng))
    field = ControlField(horizon=2.0, values=[0.0, 0.8, 0.0, -1.3, 0.0])
    _assert_couplings_are_step_derivatives(sys3, field)
    traj = evolve._final_propagator(sys3, field)
    assert np.array_equal(traj.eig[0][0], np.zeros(3))


@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=5),
    steps=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_split_field_composes_and_stays_unitary(n, steps, seed, data):
    sys_n, field = random_system_and_field(n, steps, seed)
    cut = data.draw(st.integers(min_value=1, max_value=steps - 1))
    whole = evolve.propagate(sys_n, field)
    first = evolve.propagate(sys_n, ControlField(horizon=cut * field.dt, values=field.values[:cut]))
    second = evolve.propagate(sys_n, ControlField(horizon=(steps - cut) * field.dt, values=field.values[cut:]))
    assert np.abs(first.unitaries[-1] - whole.unitaries[cut]).max() < 1e-12
    assert np.abs(second.unitaries[-1] @ first.unitaries[-1] - whole.unitaries[-1]).max() < 1e-12
    gram = matspace.dagger(whole.unitaries) @ whole.unitaries
    assert np.abs(gram - np.eye(n)).max() < 1e-12


def test_density_matrix_rejects_a_nan_entry():
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve.density_matrix(rho)


def test_propagate_rejects_nan_propagators(monkeypatch, pauli_system):
    field = ControlField(horizon=1.0, values=[0.3, -0.2, 0.1])
    step_exponentials = evolve._step_exponentials

    def nan_step(sys_, values, dt):
        eig, steps = step_exponentials(sys_, values, dt)
        steps[1, 0, 1] = np.nan
        return eig, steps

    monkeypatch.setattr(evolve, "_step_exponentials", nan_step)
    with pytest.raises(RuntimeError, match="lost unitarity: defect nan"):
        evolve.propagate(pauli_system, field)


@pytest.mark.parametrize("factor, defect", [(np.nan, "nan"), (1.0 + 1e-6, "2.828e-06")])
def test_unitarity_guard_sees_the_last_block(monkeypatch, pauli_system, factor, defect):
    steps = 2 * evolve._BLOCK + 3

    def spoil(out):
        out[1][-1] *= factor
        return out

    spoil_last_block(monkeypatch, "_step_exponentials", steps, spoil)
    assert len(evolve._blocks(steps)) == 2
    with pytest.raises(RuntimeError, match=f"lost unitarity: defect {defect}"):
        evolve.propagate(pauli_system, ControlField(horizon=1.0, values=np.linspace(-1.0, 1.0, steps)))


def test_propagate_stops_at_the_first_block_that_is_not_unitary(monkeypatch, pauli_system):
    real, blocks = evolve._step_exponentials, []

    def spoiled(sys_, values, dt):
        eig, steps = real(sys_, values, dt)
        blocks.append(len(values))
        if len(blocks) == 2:
            steps[-1] *= 1.0 + 1e-6
        return eig, steps

    monkeypatch.setattr(evolve, "_step_exponentials", spoiled)
    field = ControlField(horizon=1.0, values=np.linspace(-1.0, 1.0, 3 * evolve._BLOCK))
    # The message names the defect of the second block, the only one spoiled.
    with pytest.raises(RuntimeError, match="lost unitarity: defect 2.828e-06"):
        evolve.propagate(pauli_system, field)
    assert blocks == [evolve._BLOCK] * 2


def test_a_kept_pass_gives_back_its_step_blocks_read_only(pauli_system):
    field = ControlField(horizon=1.0, values=np.linspace(-1.0, 1.0, 2 * evolve._BLOCK + 3))
    traj = evolve._final_propagator(pauli_system, field)
    kept = list(traj.blocks())
    streamed = list(evolve._step_blocks(pauli_system, field))
    assert [block for block, _, _ in kept] == [block for block, _, _ in streamed] == evolve._blocks(field.steps)
    for (_, (w, v), nodes), (_, (w_s, v_s), nodes_s) in zip(kept, streamed):
        assert np.array_equal(w, w_s) and np.array_equal(v, v_s) and np.array_equal(nodes, nodes_s)
        assert not any(a.flags.writeable for a in (w, v, nodes))
    assert traj.unitaries.flags.writeable


def test_trajectory_derives_its_grid_from_the_field(pauli_system):
    field = ControlField(horizon=2.5, values=[0.3, -0.2, 0.1, 0.4, 0.0])
    traj = evolve.propagate(pauli_system, field)
    assert traj.sys is pauli_system and traj.field is field
    assert (traj.dt, traj.steps, traj.dim) == (field.dt, 5, 2)
    assert np.array_equal(traj.times, np.linspace(0.0, 2.5, 6))
    assert traj.unitaries.shape == (6, 2, 2) and not traj.unitaries.flags.writeable


@pytest.mark.parametrize(
    "h0, mu, message",
    [
        # h0 - eps mu overflows at eps = -1.5.
        (np.diag([1.0, -1.0]) * 2.0**1022, np.real(SZ) * 2.0**1023, "step generators h0 - eps mu are not finite"),
        # At eps = 1.5 a finite generator whose eigenvalues +-sqrt(2) 1.5e308 overflow.
        (np.real(SZ) * 1.5e308, np.real(SX) * -1e308, "step eigenvalues are not finite"),
    ],
)
def test_a_step_past_the_float_range_is_refused(h0, mu, message):
    sys_n = QuantumSystem(2, h0, mu)
    with np.errstate(all="raise"):
        with pytest.raises(RuntimeError, match=message):
            evolve.propagate(sys_n, ControlField(horizon=1e-300, values=[0.5, 1.5, -1.5]))


def _kernel_bounds(n, s):
    """Error model of the Taylor kernel after s squarings, in units of the unit
    round-off u = 2^-53: (gap to scipy's expm in the max entry, unitarity
    defect ||U†U - I||_F).

    The series is truncated below u (``evolve._THETA``).  Each entry of an N x N
    product is a sum of N terms, whose rounding is about sqrt(N) u
    (Higham and Mary, SIAM J. Sci. Comput. 41(5), 2019), so the kernel and
    the reference each round an entry by about sqrt(N) u, and each squaring
    doubles what the step held before.  U†U - I = E†U0 + U0†E + E†E for the
    error E of the kernel alone, so the defect is at most 2 ||E||_F, with
    ||E||_F <= sqrt(N) ||E||_2."""
    root = np.sqrt(n)
    return 2.0**s * (1.0 + 2.0 * root), 2.0**s * 2.0 * root * (1.0 + root)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32),
    s=st.integers(min_value=0, max_value=evolve._TAYLOR_MAX_SQUARINGS),
    frac=st.floats(min_value=0.001, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_taylor_kernel_matches_expm_within_its_error_model(n, s, frac, seed):
    # ||x||_1 anywhere in (theta 2^(s-1), theta 2^s) for s squarings, or in
    # (0, theta) for none, away from the ends by more than the rounding of
    # the norm: every squaring count the kernel takes.
    x = random_traceless_symmetric(n, np.random.default_rng(seed)) + np.eye(n)
    low = 0.0 if s == 0 else 0.5
    norm = evolve._THETA * 2.0**s * (low + (1.0 - low) * frac)
    x *= norm / np.abs(x).sum(axis=0).max()
    squarings = evolve._squarings(np.abs(x).sum(axis=0).max(keepdims=True))
    assert squarings[0] == s
    u = evolve._taylor_exponentials(x[None], squarings)[0]
    gap_units, defect_units = _kernel_bounds(n, s)
    eps = np.finfo(float).eps / 2
    assert np.abs(u - scipy.linalg.expm(-1j * x)).max() <= gap_units * eps
    assert matspace.unitarity_defect(u) <= defect_units * eps


def test_taylor_series_is_truncated_below_the_unit_roundoff():
    # The tail sum_{k >= 2 terms} theta^k / k! of the exponential series, in
    # exact rationals, is below u = 2^-53 at theta, and the coefficients are
    # those of cos and sin in y = x^2.
    theta, first = Fraction(evolve._THETA), 2 * evolve._SERIES_TERMS
    tail = sum(theta**k / math.factorial(k) for k in range(first, first + 60))
    assert tail < Fraction(1, 2**53)
    assert evolve._COS_SIN.shape == (2, evolve._SERIES_TERMS)
    for k in range(evolve._SERIES_TERMS):
        assert evolve._COS_SIN[0, k] == (-1) ** k / math.factorial(2 * k)
        assert evolve._COS_SIN[1, k] == (-1) ** k / math.factorial(2 * k + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_the_eigen_free_kernel_picks_by_dimension_and_norm(n):
    # Below _TAYLOR_MIN_DIM every step, and from it on every step whose
    # ||x||_1 needs more than _TAYLOR_MAX_SQUARINGS squarings, takes the eigh
    # exponential bit for bit; the others take the Taylor kernel.
    sys_n, _ = random_system_and_field(n, 1, n)
    dt = 0.5 / np.abs(sys_n.h0).sum(axis=0).max()
    targets = np.array([0.2, -1.0, 4.0, -9.0, 40.0, -1e4])
    values = np.repeat(targets / (dt * np.abs(sys_n.mu).sum(axis=0).max()), 3)
    eig, steps = evolve._step_exponentials(sys_n, values, dt, False)
    assert eig is None and steps.flags.writeable
    exact = evolve._step_exponentials(sys_n, values, dt)[1]
    x = (sys_n.h0 - values[:, None, None] * sys_n.mu) * dt
    past = np.abs(x).sum(axis=-1).max(axis=-1) > evolve._THETA * 2.0**evolve._TAYLOR_MAX_SQUARINGS
    assert past.any() and not past.all()
    eigh = past | (n < evolve._TAYLOR_MIN_DIM)
    assert np.array_equal(steps[eigh], exact[eigh])
    assert np.abs(steps - exact).max() < 1e-12
    if n >= evolve._TAYLOR_MIN_DIM:
        assert not np.array_equal(steps[~eigh], exact[~eigh])


@pytest.mark.parametrize("n", [2, 4, 5])
def test_eigen_free_steps_are_the_same_in_any_block(n):
    # A step's kernel and squarings depend on it alone: the same bits in a
    # stack of one as in a stack of all, with mixed kernels and squarings.
    sys_n, field = random_system_and_field(n, 40, 7 * n)
    values = field.values * np.geomspace(0.1, 100.0, 40)
    whole = evolve._step_exponentials(sys_n, values, 0.3, False)[1]
    for m in range(len(values)):
        assert np.array_equal(evolve._step_exponentials(sys_n, values[m : m + 1], 0.3, False)[1][0], whole[m])


def test_eigen_free_pass_refuses_what_the_eigh_pass_refuses(monkeypatch):
    # A generator that is not finite is refused before any kernel runs, and
    # a step past the cut-offs keeps the eigh pass's error.
    overflowing = QuantumSystem(4, np.diag([1.0, -1.0, 0.5, -0.5]) * 2.0**1022, np.real(np.kron(SX, SX)) * 2.0**1021)
    big = QuantumSystem(4, np.diag([1.5, -1.5, 1.0, -1.0]) * 1e308, np.real(np.kron(SX, SX)) * -0.8e308)
    with monkeypatch.context() as patch:
        for name in ("_taylor_exponentials", "_eigh_exponentials"):
            patch.setattr(evolve, name, lambda *args: pytest.fail("a kernel ran"))
        with np.errstate(all="raise"), pytest.raises(RuntimeError, match="step generators h0 - eps mu are not finite"):
            evolve._step_exponentials(overflowing, np.array([0.5, 8.0]), 1.0, False)
    field = ControlField(horizon=3e-300, values=[0.5, 1.5, -1.5])
    for eigenpairs in (True, False):
        with np.errstate(all="raise"), pytest.raises(RuntimeError, match="step eigenvalues are not finite"):
            list(evolve._step_blocks(big, field, eigenpairs))


@pytest.mark.parametrize(
    "call, start",
    [
        (lambda: evolve.density_matrix(np.full((2, 3), 0.5)), "density matrix must be square, got shape (2, 3)"),
        (lambda: evolve.density_matrix(np.array([1.0])), "density matrix must be square, got shape (1,)"),
        (lambda: evolve.conjugated_dipole(np.eye(3), np.real(SZ)), "dimension mismatch: u (3, 3) vs mu (2, 2)"),
        (lambda: evolve.conjugated_dipole(np.array([1.0, 0.0]), np.real(SZ)), "dimension mismatch: u (2,) vs mu (2, 2)"),
        (lambda: evolve.conjugated_dipole(np.eye(2), np.ones((1, 2, 2))), "dimension mismatch: u (2, 2) vs mu (1, 2, 2)"),
        (lambda: evolve.concat_fields([]), "need at least one field"),
    ],
)
def test_stated_input_checks_raise_value_error(call, start):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value).startswith(start)

import io
import json

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


def test_trajectory_derives_its_grid_from_the_field(pauli_system):
    field = ControlField(horizon=2.5, values=[0.3, -0.2, 0.1, 0.4, 0.0])
    traj = evolve.propagate(pauli_system, field)
    assert traj.sys is pauli_system and traj.field is field
    assert (traj.dt, traj.steps, traj.dim) == (field.dt, 5, 2)
    assert np.array_equal(traj.times, np.linspace(0.0, 2.5, 6))
    assert traj.unitaries.shape == (6, 2, 2) and not traj.unitaries.flags.writeable

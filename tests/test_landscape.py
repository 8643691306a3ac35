import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SY,
    SZ,
    hs_inner,
    random_density,
    random_system_and_field,
    random_traceless_hermitian,
    random_traceless_symmetric,
)
from wayspan import evolve, landscape, matspace, waypoints
from wayspan.evolve import ControlField
from wayspan.model import QuantumSystem


@pytest.fixture
def pauli_system():
    return QuantumSystem(2, np.real(SZ), np.real(SX))


class TestSpanningRank:
    def test_single_direction(self):
        report = landscape.spanning_rank(np.array([SZ]))
        assert report.rank == 1
        assert not report.full
        # complement spans the sx and sy directions
        comp = report.complement_basis
        assert comp.shape[0] == 2
        for probe in (SX, SY):
            proj = sum(abs(hs_inner(c, probe)) ** 2 for c in comp)
            assert proj == pytest.approx(matspace.hs_norm(probe) ** 2, rel=1e-10)

    def test_duplicates_do_not_add(self):
        report = landscape.spanning_rank(np.array([SZ, SZ]))
        assert report.rank == 1

    def test_tall_deficient_stack_keeps_its_complement(self):
        # more samples than dimensions, yet rank-deficient
        report = landscape.spanning_rank(np.array([SZ, SX] * 20))
        assert report.rank == 2
        (comp,) = report.complement_basis
        overlap = abs(hs_inner(comp, SY)) / (matspace.hs_norm(comp) * matspace.hs_norm(SY))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_quadruple_conjugates_are_full(self):
        wset = waypoints.theorem1_waypoints(np.real(SZ))
        hats = np.array([evolve.conjugated_dipole(u, SZ) for u in wset.unitaries])
        report = landscape.spanning_rank(hats)
        assert report.full
        assert report.complement_basis.shape[0] == 0

    def test_permutation_and_combination_invariance(self, rng):
        mats = np.array([random_traceless_symmetric(3, rng) for _ in range(5)])
        base = landscape.spanning_rank(mats)
        shuffled = landscape.spanning_rank(mats[rng.permutation(5)])
        assert shuffled.rank == base.rank
        combo = 0.3 * mats[0] - 1.7 * mats[3]
        extended = landscape.spanning_rank(np.concatenate([mats, combo[None]]))
        assert extended.rank == base.rank

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=2, max_value=4),
        count=st.integers(min_value=1, max_value=18),
        extra=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rank_invariant_under_permutation_and_combinations(self, n, count, extra, seed):
        rng = np.random.default_rng(seed)
        mats = np.array([random_traceless_hermitian(n, rng) for _ in range(count)])
        base = landscape.spanning_rank(mats)
        assert base.rank == min(count, n * n - 1)
        smax = base.singular_values[0]
        shuffled = landscape.spanning_rank(mats[rng.permutation(count)])
        assert shuffled.rank == base.rank
        assert np.allclose(shuffled.singular_values, base.singular_values, rtol=0.0, atol=1e-12 * smax)
        combos = np.einsum("ck,kij->cij", rng.normal(size=(extra, count)), mats)
        extended = landscape.spanning_rank(np.concatenate([mats, combos]))
        assert extended.rank == base.rank
        assert extended.complement_basis.shape == base.complement_basis.shape

    def test_zero_matrices_have_rank_zero(self):
        report = landscape.spanning_rank(np.zeros((3, 2, 2)))
        assert report.rank == 0 and report.verdict == "DEFICIENT rank=0"
        assert report.complement_basis.shape == (3, 2, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            landscape.spanning_rank(np.zeros((0, 2, 2)))

    def test_verdict_strings(self):
        assert landscape.spanning_rank(np.array([SZ])).verdict == "DEFICIENT rank=1"
        wset = waypoints.theorem3_waypoints(2)
        mu = np.real(SX) + np.real(SZ) * 0.5
        mu = mu - np.trace(mu) / 2 * np.eye(2)
        hats = np.array([evolve.conjugated_dipole(u, mu) for u in wset.unitaries])
        assert landscape.spanning_rank(hats).verdict == "FULL"


class TestTrajectoryIndependence:
    def test_free_evolution_is_deficient(self, pauli_system):
        # u(t) = exp(-i t sz) conjugates sx inside span{sx, sy} only
        field = ControlField.constant(0.0, 3.0, 60)
        traj = evolve.propagate(pauli_system, field)
        report = landscape.trajectory_independence(traj)
        assert report.rank == 2
        assert not report.full

    def test_single_sample(self, pauli_system):
        field = ControlField.constant(0.0, 1.0, 10)
        traj = evolve.propagate(pauli_system, field)
        assert landscape.trajectory_independence(traj, [0]).rank == 1

    def test_monotone_in_samples(self, pauli_system, rng):
        field = ControlField(horizon=4.0, values=rng.normal(size=80))
        traj = evolve.propagate(pauli_system, field)
        few = landscape.trajectory_independence(traj, [0, 10, 20])
        more = landscape.trajectory_independence(traj, [0, 10, 20, 40, 60, 80])
        assert more.rank >= few.rank

    def test_invalid_indices(self, pauli_system):
        field = ControlField.constant(0.0, 1.0, 10)
        traj = evolve.propagate(pauli_system, field)
        with pytest.raises(ValueError):
            landscape.trajectory_independence(traj, [0, 99])
        with pytest.raises(ValueError):
            landscape.trajectory_independence(traj, [])

    def test_strided_samples_conjugate_only_their_nodes(self):
        sys_n, field = random_system_and_field(3, 200, 11)
        traj = evolve.propagate(sys_n, field)
        idx = np.arange(0, 201, 40)
        report = landscape.trajectory_independence(traj, idx)
        ref = landscape.spanning_rank(evolve.conjugated_dipole(traj.unitaries[idx], traj.sys.mu))
        assert not report.full
        assert np.array_equal(report.singular_values, ref.singular_values)
        assert np.array_equal(report.complement_basis, ref.complement_basis)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_dipole_guard_is_relative_to_the_dipole_norm(self, scale):
        # The same propagators under (c h0, c mu, T / c); at c = 1e3 the
        # conjugates' trace round-off alone exceeds TRAJECTORY_TOL.
        sys_n, field = random_system_and_field(6, 600, 2)
        scaled = QuantumSystem(6, scale * sys_n.h0, scale * sys_n.mu)
        traj = evolve.propagate(scaled, ControlField(horizon=field.horizon / scale, values=field.values))
        assert landscape.trajectory_independence(traj).full

    def test_a_perturbed_node_is_off_structure(self, pauli_system, rng):
        traj = evolve.propagate(pauli_system, ControlField(horizon=2.0, values=rng.normal(size=20)))
        nodes = traj.unitaries.copy()
        nodes[7] += 1e-6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        bad = evolve.PropagatorTrajectory(sys=traj.sys, field=traj.field, eig=traj.eig, unitaries=nodes)
        assert landscape.trajectory_independence(bad, [0, 3]).rank == 2
        with pytest.raises(RuntimeError, match="off structure"):
            landscape.trajectory_independence(bad)
        with pytest.raises(RuntimeError, match="off structure"):
            landscape.trajectory_independence(bad, [7])

    def test_nan_dipoles_are_off_structure(self, pauli_system, monkeypatch):
        traj = evolve.propagate(pauli_system, ControlField(horizon=1.0, values=[0.3, -0.2, 0.1]))
        conjugated_dipole = evolve.conjugated_dipole

        def nan_dipole(u, mu):
            hats = conjugated_dipole(u, mu).copy()
            hats[2, 1, 1] = np.nan
            return hats

        monkeypatch.setattr(evolve, "conjugated_dipole", nan_dipole)
        with pytest.raises(RuntimeError, match="off structure: hermiticity nan"):
            landscape.trajectory_independence(traj)


class TestWaypointVisits:
    def test_exact_containment(self, pauli_system, rng):
        field = ControlField(horizon=2.0, values=rng.normal(size=40))
        traj = evolve.propagate(pauli_system, field)
        wset = waypoints.WaypointSet(
            dim=2, unitaries=np.array([traj.unitaries[17]]), provenance="custom"
        )
        records = landscape.waypoint_visits(traj, wset, fid_tol=1e-6)
        assert records[0].fidelity == pytest.approx(1.0, abs=1e-12)
        assert records[0].step == 17
        assert records[0].visited

    def test_identity_trajectory_misses_swap(self):
        sys2 = QuantumSystem(2, np.zeros((2, 2)), np.real(SX))
        field = ControlField.constant(0.0, 1.0, 5)
        traj = evolve.propagate(sys2, field)
        swap = matspace.embed_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 2, 2)
        wset = waypoints.WaypointSet(dim=2, unitaries=np.array([swap]), provenance="custom")
        records = landscape.waypoint_visits(traj, wset, fid_tol=1e-3)
        assert records[0].fidelity == pytest.approx(0.0, abs=1e-12)
        assert not records[0].visited

    def test_overlaps_match_each_gate_fidelity(self, rng):
        sys_n, field = random_system_and_field(3, 60, 8)
        traj = evolve.propagate(sys_n, field)
        picks = traj.unitaries[[5, 31, 60]] * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))[:, None, None]
        wset = waypoints.WaypointSet(dim=3, unitaries=picks, provenance="custom")
        for record, w, step in zip(landscape.waypoint_visits(traj, wset), wset.unitaries, (5, 31, 60)):
            fids = [landscape.gate_fidelity(w, u) for u in traj.unitaries]
            assert record.step == step == int(np.argmax(fids))
            assert abs(record.fidelity - fids[step]) <= 1e-15
            assert record.time == traj.times[step]

    def test_gate_fidelity_phase_invariance(self, rng):
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        assert landscape.gate_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0)


class TestGradient:
    def test_zero_for_maximally_mixed_state(self, pauli_system, rng):
        field = ControlField(horizon=1.0, values=rng.normal(size=20))
        obs = np.diag([1.0, -2.0])
        g = landscape.gradient(evolve.propagate(pauli_system, field), np.eye(2) / 2, obs)
        assert np.abs(g).max() < 1e-12

    def test_zero_for_identity_observable(self, pauli_system, rng):
        field = ControlField(horizon=1.0, values=rng.normal(size=20))
        rho0 = random_density(2, rng)
        g = landscape.gradient(evolve.propagate(pauli_system, field), rho0, np.eye(2))
        assert np.abs(g).max() < 1e-12

    def test_matches_finite_differences(self, rng):
        h0 = random_traceless_symmetric(3, rng)
        mu = random_traceless_symmetric(3, rng)
        sys3 = QuantumSystem(3, h0, mu)
        field = ControlField(horizon=1.2, values=0.5 * rng.normal(size=20))
        rho0 = random_density(3, rng)
        obs = random_traceless_symmetric(3, rng)
        analytic = landscape.gradient(evolve.propagate(sys3, field), rho0, obs)
        numeric = landscape.finite_difference_gradient(sys3, field, rho0, obs, h=1e-5)
        rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
        assert rel < 1e-5

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    def test_finite_difference_step_must_be_positive_and_finite(self, pauli_system, h):
        field = ControlField(horizon=1.0, values=[0.1, 0.2])
        with pytest.raises(ValueError, match="positive and finite"):
            landscape.finite_difference_gradient(pauli_system, field, np.diag([1.0, 0.0]), SZ, h=h)

    def test_zero_at_kinematic_critical_point(self, pauli_system, rng):
        field = ControlField(horizon=1.5, values=rng.normal(size=25))
        traj = evolve.propagate(pauli_system, field)
        u_end = traj.unitaries[-1]
        # observable built to commute with rho0 after conjugation
        obs = u_end @ np.diag([0.3, -1.1]) @ u_end.conj().T
        rho0 = np.diag([0.75, 0.25]).astype(complex)
        assert landscape.kinematic_residual(u_end, rho0, obs) < 1e-12
        g = landscape.gradient(traj, rho0, obs)
        assert np.abs(g).max() < 1e-10


class TestKinematicResidual:
    def test_mixed_state_is_critical(self, rng):
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        obs = random_traceless_symmetric(3, rng)
        assert landscape.kinematic_residual(u, np.eye(3) / 3, obs) < 1e-12

    def test_commuting_diagonals(self):
        assert landscape.kinematic_residual(np.eye(2), np.diag([0.7, 0.3]), np.diag([1.0, 5.0])) == 0.0

    def test_projector_against_sx(self):
        resid = landscape.kinematic_residual(np.eye(2), np.diag([1.0, 0.0]), SX)
        assert resid == pytest.approx(np.sqrt(2.0), rel=1e-12)


class TestReports:
    def test_span_report_file(self, tmp_path):
        report = landscape.spanning_rank(np.array([SZ]))
        out = tmp_path / "span.txt"
        landscape.save_span_report(report, out)
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "singular_value"
        assert "DEFICIENT rank=1" in text
        assert "complement" in text

    def test_full_report_has_no_complement_section(self, tmp_path):
        wset = waypoints.theorem1_waypoints(np.real(SZ))
        hats = np.array([evolve.conjugated_dipole(u, SZ) for u in wset.unitaries])
        out = tmp_path / "span.txt"
        landscape.save_span_report(landscape.spanning_rank(hats), out)
        text = out.read_text()
        assert text.strip().endswith("FULL")

    def test_visits_csv(self, tmp_path):
        records = [landscape.VisitRecord(index=1, fidelity=0.5, time=1.25, step=3, visited=False)]
        out = tmp_path / "visits.csv"
        landscape.visits_csv(records, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "waypoint,fidelity,time"
        assert lines[1].startswith("1,0.5,1.25")


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gradient_matches_central_differences_on_random_systems(n, steps, seed):
    sys_n, field = random_system_and_field(n, steps, seed)
    rng = np.random.default_rng(seed)
    rho0 = random_density(n, rng)
    obs = random_traceless_symmetric(n, rng)
    analytic = landscape.gradient(evolve.propagate(sys_n, field), rho0, obs)
    numeric = landscape.finite_difference_gradient(sys_n, field, rho0, obs, h=1e-5)
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def _full_pass_differences(sys_n, field, rho0, obs, h):
    """Reference oracle: central differences with one full step pass per probe."""

    def objective(values):
        u = evolve._final_propagator(sys_n, ControlField(horizon=field.horizon, values=values)).unitaries[-1]
        return float(np.real(np.einsum("ij,ji->", u @ rho0 @ u.conj().T, obs)))

    out = np.empty(field.steps)
    for m in range(field.steps):
        plus, minus = field.values.copy(), field.values.copy()
        plus[m] += h
        minus[m] -= h
        out[m] = (objective(plus) - objective(minus)) / (2.0 * h)
    return out


def _oracle_gap(n, steps, seed):
    """Largest gap between the oracle and the full-pass reference, over max |g|."""
    sys_n, field = random_system_and_field(n, steps, seed)
    rng = np.random.default_rng(seed)
    rho0 = random_density(n, rng)
    obs = random_traceless_symmetric(n, rng)
    analytic = landscape.gradient(evolve.propagate(sys_n, field), rho0, obs)
    numeric = landscape.finite_difference_gradient(sys_n, field, rho0, obs, h=1e-5)
    return np.abs(numeric - _full_pass_differences(sys_n, field, rho0, obs, 1e-5)).max() / np.abs(analytic).max()


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_oracle_matches_one_full_pass_per_probe(n, steps, seed):
    assert _oracle_gap(n, steps, seed) < 1e-8


def test_oracle_probe_blocks_join_up(monkeypatch):
    monkeypatch.setattr(landscape, "_FD_BLOCK", 4)
    assert _oracle_gap(3, 11, 5) < 1e-8


def _reference_svd(mats):
    """Singular values and rank from the thin SVD with singular vectors."""
    coords = matspace.to_coords(mats, matspace.basis_zt(mats.shape[1]))
    s = np.linalg.svd(coords, full_matrices=False)[1]
    return s, int(np.sum(s > landscape.RANK_TOL * s[0]))


@pytest.mark.parametrize("n, count", [(2, 3), (3, 40), (4, 15), (5, 24), (8, 200)])
def test_full_span_reports_singular_values_without_complement(n, count):
    rng = np.random.default_rng(1000 * n + count)
    mats = np.array([random_traceless_hermitian(n, rng) for _ in range(count)])
    report = landscape.spanning_rank(mats)
    s, rank = _reference_svd(mats)
    assert report.full and report.rank == rank == n * n - 1
    assert np.allclose(report.singular_values, s, rtol=1e-12, atol=0.0)
    assert report.complement_basis.shape == (0, n, n)


def _assert_complement_of(report, mats):
    n = mats.shape[1]
    comp = report.complement_basis
    assert comp.shape == (n * n - 1 - report.rank, n, n)
    rows = comp.reshape(len(comp), -1)
    assert np.abs(np.real(rows.conj() @ rows.T) - np.eye(len(comp))).max() < 1e-10
    for c in comp:
        assert np.abs(c - c.conj().T).max() < 1e-12
        for m in mats:
            assert abs(hs_inner(c, m)) <= 1e-10 * max(1.0, matspace.hs_norm(m))


def test_tall_deficient_stack_rank_and_complement_match_the_full_svd():
    mats = np.array([SZ, SX] * 20)
    report = landscape.spanning_rank(mats)
    s, rank = _reference_svd(mats)
    assert report.rank == rank == 2
    assert np.abs(report.singular_values - s).max() <= 1e-12 * s[0]
    _assert_complement_of(report, mats)


def test_random_deficient_samples_rank_and_complement_match_the_full_svd():
    rng = np.random.default_rng(41)
    mats = np.array([random_traceless_hermitian(8, rng) for _ in range(41)])
    report = landscape.spanning_rank(mats)
    s, rank = _reference_svd(mats)
    assert report.rank == rank == 41 and not report.full
    assert np.abs(report.singular_values - s).max() <= 1e-12 * s[0]
    _assert_complement_of(report, mats)

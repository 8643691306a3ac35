import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SY,
    SZ,
    hs_inner,
    jacobian_matrices,
    random_density,
    random_system_and_field,
    random_traceless_hermitian,
    random_traceless_symmetric,
    random_unitary,
    spoil_last_block,
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

    def test_a_stride_past_the_last_node_samples_node_0(self, pauli_system):
        field = ControlField.constant(0.0, 1.0, 10)
        traj = evolve.propagate(pauli_system, field)
        report = landscape.trajectory_independence(traj, 11)
        assert (report.count, report.rank) == (1, 1)

    def test_monotone_in_samples(self, pauli_system, rng):
        # Stride 10 samples every node that stride 20 does, and more.
        field = ControlField(horizon=4.0, values=rng.normal(size=80))
        traj = evolve.propagate(pauli_system, field)
        few = landscape.trajectory_independence(traj, 20)
        more = landscape.trajectory_independence(traj, 10)
        assert (few.count, more.count) == (5, 9)
        assert more.rank >= few.rank

    @pytest.mark.parametrize("stride", [0, -1, -7, True, 2.5])
    def test_a_stride_that_is_not_a_positive_integer_is_invalid(self, pauli_system, stride):
        # A negative stride would sample backwards from U_M, and True would pass for 1.
        field = ControlField.constant(0.0, 1.0, 40)
        traj = evolve.propagate(pauli_system, field)
        with pytest.raises(ValueError, match="stride must be a positive integer"):
            landscape.trajectory_independence(traj, stride)

    def test_strided_samples_conjugate_only_their_nodes(self):
        sys_n, field = random_system_and_field(3, 200, 11)
        traj = evolve.propagate(sys_n, field)
        report = landscape.trajectory_independence(traj, 40)
        ref = landscape.spanning_rank(evolve.conjugated_dipole(traj.unitaries[::40], traj.sys.mu))
        assert not report.full and report.count == 6
        assert np.array_equal(report.singular_values, ref.singular_values)
        assert np.array_equal(report.complement_basis, ref.complement_basis)

    @pytest.mark.parametrize("steps", [evolve._BLOCK - 1, evolve._BLOCK, 2 * evolve._BLOCK + 3, 3 * evolve._BLOCK])
    def test_every_stride_spans_its_strided_nodes(self, steps):
        # One block, one full block, two blocks with a remainder and three
        # full ones; the strides run up to one past the last node, which
        # samples node 0 only.
        sys_n, field = random_system_and_field(3, steps, steps)
        traj = evolve.propagate(sys_n, field)
        for stride in range(1, steps + 2):
            report = landscape.trajectory_independence(traj, stride)
            ref = landscape.spanning_rank(evolve.conjugated_dipole(traj.unitaries[::stride], traj.sys.mu))
            assert report.count == ref.count == len(range(0, steps + 1, stride))
            assert np.array_equal(report.singular_values, ref.singular_values)
            assert np.array_equal(report.complement_basis, ref.complement_basis)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_verdict_does_not_depend_on_the_system_scale(self, scale):
        # The same propagators under (c h0, c mu, T / c); at c = 1e3 the
        # conjugates' trace round-off alone exceeds TRAJECTORY_TOL, which
        # to_coords discards with the trace.
        sys_n, field = random_system_and_field(6, 600, 2)
        scaled = QuantumSystem(6, scale * sys_n.h0, scale * sys_n.mu)
        traj = evolve.propagate(scaled, ControlField(horizon=field.horizon / scale, values=field.values))
        assert landscape.trajectory_independence(traj).full

    def test_a_nan_node_in_the_last_block_has_no_span(self, pauli_system, rng):
        steps = 2 * evolve._BLOCK + 3
        traj = evolve.propagate(pauli_system, ControlField(horizon=2.0, values=rng.normal(size=steps)))
        nodes = traj.unitaries.copy()
        nodes[-1, 0, 1] += np.nan
        bad = evolve.PropagatorTrajectory(sys=traj.sys, field=traj.field, eig=traj.eig, unitaries=nodes)
        assert len(evolve._blocks(steps + 1)) == 2
        # Stride 2 stops one node short of the last.
        assert landscape.trajectory_independence(bad, 2).full
        with pytest.raises(RuntimeError, match="singular values of the span are not finite"):
            landscape.trajectory_independence(bad)

    def test_nan_dipoles_have_no_span(self, pauli_system, monkeypatch):
        traj = evolve.propagate(pauli_system, ControlField(horizon=1.0, values=[0.3, -0.2, 0.1]))
        conjugated_dipole = evolve.conjugated_dipole

        def nan_dipole(u, mu):
            hats = conjugated_dipole(u, mu).copy()
            hats[2, 1, 1] = np.nan
            return hats

        monkeypatch.setattr(evolve, "conjugated_dipole", nan_dipole)
        with pytest.raises(RuntimeError, match="singular values of the span are not finite"):
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

    def test_ties_keep_the_first_node(self):
        # With no drift and no control every node is the identity: all tie.
        sys2 = QuantumSystem(2, np.zeros((2, 2)), np.real(SX))
        traj = evolve.propagate(sys2, ControlField.constant(0.0, 1.0, 2 * evolve._BLOCK + 3))
        wset = waypoints.WaypointSet(dim=2, unitaries=np.array([np.eye(2)]), provenance="custom")
        assert np.all(traj.unitaries == np.eye(2))
        record = landscape.waypoint_visits(traj, wset, fid_tol=1e-3)[0]
        assert (record.step, record.fidelity) == (0, 1.0)

    def test_overlaps_match_each_gate_fidelity(self, rng):
        sys_n, field = random_system_and_field(3, 60, 8)
        traj = evolve.propagate(sys_n, field)
        picks = traj.unitaries[[5, 31, 60]] * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))[:, None, None]
        wset = waypoints.WaypointSet(dim=3, unitaries=picks, provenance="custom")
        for record, w, step in zip(landscape.waypoint_visits(traj, wset, fid_tol=1e-3), wset.unitaries, (5, 31, 60)):
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
        numeric = landscape.finite_difference_gradient(evolve.propagate(sys3, field), rho0, obs, h=1e-5)
        rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
        assert rel < 1e-5

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    def test_finite_difference_step_must_be_positive_and_finite(self, pauli_system, h):
        field = ControlField(horizon=1.0, values=[0.1, 0.2])
        with pytest.raises(ValueError, match="positive and finite"):
            landscape.finite_difference_gradient(evolve.propagate(pauli_system, field), np.diag([1.0, 0.0]), SZ, h=h)

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


# Round-off allowance of a central difference of f = Tr(rho(T) obs) at step h,
# in units of eps ||obs||_2 / h (see ``_oracle_gap``).  Over 4000 random draws
# of n 2-4 and 1-40 steps the oracle's gap to the full-pass reference reached
# 4.2 units, and over 4000 draws of n 2-4 and 1-12 steps the gradient's gap to
# the oracle reached 3.9 where the truncation is below 0.1 unit; a wrong probe
# endpoint is off by O(1) in f, 1e6 units.
ORACLE_GAP_UNITS = 16.0


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gradient_matches_central_differences_on_random_systems(n, steps, seed):
    # Error model of a central difference at h: truncation h^2/6 max|f'''| plus
    # round-off.  As a function of eps_m, f = Tr(S X S† Y) with S the step m,
    # exp(-i dt (h0 - eps_m mu)), X the state before it (trace norm 1) and Y
    # the observable pulled back from T (||Y||_2 = ||obs||_2).  By the Dyson
    # series the j-th derivative of S has norm at most (dt ||mu||_2)^j, so
    # |f'''| <= (2 dt ||mu||_2)^3 ||obs||_2 and the truncation is at most
    # 4/3 h^2 (dt ||mu||_2)^3 ||obs||_2.  The round-off is at most
    # ORACLE_GAP_UNITS units of eps ||obs||_2 / h; the analytic gradient's own
    # rounding, a few eps dt ||mu||_2 ||obs||_2, is far below it.
    sys_n, field = random_system_and_field(n, steps, seed)
    rng = np.random.default_rng(seed)
    rho0 = random_density(n, rng)
    obs = random_traceless_symmetric(n, rng)
    h = 1e-5
    analytic = landscape.gradient(evolve.propagate(sys_n, field), rho0, obs)
    numeric = landscape.finite_difference_gradient(evolve.propagate(sys_n, field), rho0, obs, h=h)
    truncation = 4.0 / 3.0 * h**2 * (field.dt * np.linalg.norm(sys_n.mu, 2)) ** 3
    roundoff = ORACLE_GAP_UNITS * np.finfo(float).eps / h
    assert np.abs(analytic - numeric).max() < (truncation + roundoff) * np.linalg.norm(obs, 2)


@settings(max_examples=50)
@given(
    n=st.integers(min_value=2, max_value=5),
    extra=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gradient_is_the_jacobian_applied_to_the_kinematic_commutator(n, extra, seed):
    # The paper's landscape claim for the M-step map.  Row m of J is the isu(N)
    # coordinates of dt mid_hat_m, and g = J @ to_coords(K) with
    # K = i [rho0, O_T], whose Frobenius norm is the kinematic residual.  Where
    # J has rank N^2 - 1, ||g|| >= sigma_{N^2-1}(J) ||K||, so a critical point
    # is kinematic.
    sys_n, field = random_system_and_field(n, n * n + extra, seed)
    rng = np.random.default_rng(seed)
    rho0 = random_density(n, rng)
    obs = random_traceless_hermitian(n, rng) + rng.normal() * np.eye(n)
    traj = evolve.propagate(sys_n, field)
    jac = landscape._jacobian(traj)
    assert jac.shape == (field.steps, n * n - 1)
    rows = jacobian_matrices(traj)
    assert np.array_equal(jac, matspace.to_coords(rows))
    norms = np.linalg.norm(rows, axis=(1, 2))
    assert np.all(np.abs(rows - rows.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= 1e-12 * norms)
    assert np.all(np.abs(np.trace(rows, axis1=1, axis2=2)) <= 1e-12 * norms)

    u = traj.unitaries[-1]
    o_t = u.conj().T @ obs @ u
    k = 1j * (rho0 @ o_t - o_t @ rho0)
    g = landscape.gradient(traj, rho0, obs)
    expected = jac @ matspace.to_coords(k)
    assert np.linalg.norm(g - expected) <= 1e-12 * np.linalg.norm(expected)

    s = np.linalg.svd(jac, compute_uv=False)
    if s[n * n - 2] > landscape.RANK_TOL * s[0]:
        resid = landscape.kinematic_residual(u, rho0, obs)
        assert resid <= np.linalg.norm(g) / s[n * n - 2] * (1.0 + 1e-9)


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
    """Largest gap between the oracle and the full-pass reference, in units of
    eps ||obs||_2 / h.

    Both sides are central differences at h of f = Tr(rho(T) obs), with
    |f| <= ||obs||_2 for a density matrix rho(T).  Each f is rounded to a few
    eps ||obs||_2, and the two sides round differently (the oracle forms its
    probe endpoints from the nodes), so their gap is of the order of
    eps ||obs||_2 / h whatever the gradient.
    """
    sys_n, field = random_system_and_field(n, steps, seed)
    rng = np.random.default_rng(seed)
    rho0 = random_density(n, rng)
    obs = random_traceless_symmetric(n, rng)
    h = 1e-5
    numeric = landscape.finite_difference_gradient(evolve.propagate(sys_n, field), rho0, obs, h=h)
    gap = np.abs(numeric - _full_pass_differences(sys_n, field, rho0, obs, h)).max()
    return gap / (np.finfo(float).eps * np.linalg.norm(obs, 2) / h)


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_oracle_matches_one_full_pass_per_probe(n, steps, seed):
    assert _oracle_gap(n, steps, seed) < ORACLE_GAP_UNITS


def test_oracle_probe_blocks_join_up(monkeypatch):
    monkeypatch.setattr(evolve, "_BLOCK", 4)
    assert _oracle_gap(3, 11, 5) < ORACLE_GAP_UNITS


def _pass_outputs(n, steps, seed):
    """The nodes, step eigenpairs, gradient, span, visits and CSV text of one
    seeded field, at the current block size."""
    sys_n, field = random_system_and_field(n, steps, seed)
    rng = np.random.default_rng(seed)
    rho0 = random_density(n, rng)
    obs = random_traceless_symmetric(n, rng)
    traj = evolve.propagate(sys_n, field)
    picks = np.concatenate([traj.unitaries[::2], [random_unitary(n, rng) for _ in range(3)]])
    wset = waypoints.WaypointSet(dim=n, unitaries=picks, provenance="custom")
    text = io.StringIO()
    evolve.trajectory_csv(traj, text)
    span = landscape.trajectory_independence(traj)
    return (
        traj.unitaries,
        *traj.eig,
        landscape.gradient(traj, rho0, obs),
        span.singular_values,
        span.complement_basis,
        landscape.waypoint_visits(traj, wset, fid_tol=1e-3),
        text.getvalue(),
    )


@pytest.mark.parametrize("steps", [1, 3, 4, 5, 7, 8, 11])
@pytest.mark.parametrize("n", [2, 4])
def test_pass_blocks_join_up(monkeypatch, n, steps):
    # Blocks of 4 steps against a single block: every stage that walks the
    # pass gives the same bits.  Block 4 splits the stages at these sizes;
    # the last block takes the remainder, so 7 steps (8 nodes) split in two.
    monkeypatch.setattr(evolve, "_BLOCK", sys.maxsize)
    whole = _pass_outputs(n, steps, 100 * n + steps)
    monkeypatch.setattr(evolve, "_BLOCK", 4)
    blocked = _pass_outputs(n, steps, 100 * n + steps)
    for a, b in zip(whole, blocked):
        assert a == b if isinstance(a, (list, str)) else np.array_equal(a, b)


def test_pass_memory_does_not_grow_with_the_step_count():
    # What a pass keeps is the nodes, the step eigenpairs and the span
    # coordinates; every other array of propagate, trajectory_independence
    # and gradient holds one block.  Whole-trajectory temporaries put the
    # traced peak at about 3.1 times the kept bytes.
    n, steps = 4, 16 * evolve._BLOCK
    sys_n, field = random_system_and_field(n, steps, 7)
    rng = np.random.default_rng(7)
    rho0 = random_density(n, rng)
    obs = random_traceless_symmetric(n, rng)
    tracemalloc.start()
    try:
        traj = evolve.propagate(sys_n, field)
        assert landscape.trajectory_independence(traj).full
        landscape.gradient(traj, rho0, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coords = (steps + 1) * (n * n - 1) * np.dtype(float).itemsize
    kept = traj.unitaries.nbytes + sum(a.nbytes for a in traj.eig) + coords
    assert peak <= 1.5 * kept


def _reference_svd(mats):
    """Singular values and rank from the thin SVD with singular vectors."""
    coords = matspace.to_coords(mats)
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


def _fold_rows(n):
    return landscape._SpanAccumulator(n).fold


def _stack_of_rank(n, count, rank, rng):
    """``count`` coordinate rows of exact rank min(rank, count): U diag(s) V^T
    with orthonormal U and V and singular values s in [0.1, 1], so the rank
    cut and the complement are far from round-off."""
    dim, r = n * n - 1, min(rank, count)
    u = np.linalg.qr(rng.normal(size=(count, r)))[0]
    v = np.linalg.qr(rng.normal(size=(dim, r)))[0]
    return (u * rng.uniform(0.1, 1.0, r)) @ v.T


def _accumulated(rows, n, cuts):
    span = landscape._SpanAccumulator(n)
    for part in np.split(rows, sorted(cuts)):
        span.add(part)
    return span.report()


def _complement_projector(report):
    coords = matspace.to_coords(report.complement_basis)
    return coords.T @ coords


@st.composite
def _stacks(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    dim, fold = n * n - 1, _fold_rows(n)
    # Fewer rows than dimensions, or a few rows either side of 1 to 3 folds.
    count = draw(
        st.one_of(
            st.integers(min_value=1, max_value=dim - 1),
            st.builds(lambda k, off: k * fold + off, st.integers(1, 3), st.integers(-2, 2)),
        )
    )
    rank = draw(st.integers(min_value=1, max_value=dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=count), max_size=6))
    return n, count, rank, seed, cuts


@settings(max_examples=60)
@given(_stacks())
def test_accumulated_span_is_the_dense_span(case):
    n, count, rank, seed, cuts = case
    rows = _stack_of_rank(n, count, rank, np.random.default_rng(seed))
    report = _accumulated(rows, n, cuts)
    # One row sequence gives one report, however it was fed.
    whole = _accumulated(rows, n, [])
    assert report.count == whole.count == count and report.rank == whole.rank
    assert np.array_equal(report.singular_values, whole.singular_values)
    assert np.array_equal(report.complement_basis, whole.complement_basis)

    dense = landscape._coords_span(rows)
    # Householder QR and the SVD are backward stable: each fold, the SVD of
    # R and the dense SVD are exact for rows moved by at most
    # gamma ||rows||_F, gamma = (F + N^2 - 1)(N^2 - 1) eps for a (F + N^2 - 1)
    # by N^2 - 1 stack (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, Thm 19.4), and a singular value moves by no more than
    # the perturbation (Weyl).  ceil(count / F) folds plus the two SVDs:
    fold, dim = _fold_rows(n), n * n - 1
    bound = (-(-count // fold) + 2) * (fold + dim) * dim * np.finfo(float).eps * np.linalg.norm(rows)
    s_dense = np.linalg.svd(rows, compute_uv=False)
    assert len(report.singular_values) == len(s_dense)
    assert np.abs(report.singular_values - s_dense).max() <= bound
    # The stack's spectrum is 0.1 to 1 or round-off, far from the rank cut on
    # either side, so the ranks agree and the complements are one subspace.
    assert report.rank == dense.rank == min(rank, count)
    gap = np.linalg.norm(_complement_projector(report) - _complement_projector(dense), 2)
    assert gap <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [3, "fold", "tail"])
def test_a_block_that_is_not_finite_fails_as_the_dense_span(n, bad, where):
    fold = _fold_rows(n)
    count = 2 * fold + 5
    rows = _stack_of_rank(n, count, n * n - 1, np.random.default_rng(17))
    row = {"fold": fold + 7, "tail": count - 1}.get(where, where)
    rows[row, 1] = bad
    with pytest.raises(RuntimeError) as dense:
        landscape._coords_span(rows)
    with pytest.raises(RuntimeError) as streamed:
        _accumulated(rows, n, [fold // 3, fold + 1])
    assert str(streamed.value) == str(dense.value)
    assert str(dense.value).startswith("singular values of the span are not finite")


def test_rows_whose_spectrum_overflows_have_no_span():
    # Finite entries near 2^1021 whose 768-row stack has a norm past the float range.
    rows = np.random.default_rng(3).normal(size=(3 * _fold_rows(3), 8)) * 2.0**1021
    with pytest.raises(RuntimeError) as dense:
        landscape._coords_span(rows)
    with pytest.raises(RuntimeError) as streamed:
        _accumulated(rows, 3, [])
    assert str(streamed.value) == str(dense.value) == "singular values of the span are not finite: largest inf"


class TestStreamedCheck:
    @pytest.mark.parametrize("steps, stride", [(30, 1), (2 * evolve._BLOCK + 3, 1), (2 * evolve._BLOCK + 3, 7),
                                               (3 * evolve._BLOCK, evolve._BLOCK + 1), (2 * evolve._BLOCK + 3, 2 * evolve._BLOCK + 90),
                                               (40, 41)])
    def test_it_is_the_kept_pass_span_and_gradient(self, steps, stride):
        sys_n, field = random_system_and_field(3, steps, steps + stride)
        rng = np.random.default_rng(stride)
        rho0 = random_density(3, rng)
        obs = random_traceless_symmetric(3, rng)
        run = landscape._read_pass(sys_n, field, evolve._unitary_blocks(evolve._step_blocks(sys_n, field)), stride, True)
        traj = evolve.propagate(sys_n, field)
        kept = landscape.trajectory_independence(traj, stride)
        assert np.array_equal(run.endpoint, traj.unitaries[-1])
        assert (run.span.count, run.span.rank) == (kept.count, kept.rank)
        assert np.array_equal(run.span.singular_values, kept.singular_values)
        assert np.array_equal(run.span.complement_basis, kept.complement_basis)
        grad = landscape._jacobian_gradient(run.jacobian, run.endpoint, rho0, obs)
        assert np.array_equal(grad, landscape.gradient(traj, rho0, obs))

    def test_a_bad_node_fails_before_its_block_is_folded(self, monkeypatch):
        sys_n, field = random_system_and_field(2, 2 * evolve._BLOCK + 3, 2)
        folded = []
        monkeypatch.setattr(landscape._SpanAccumulator, "add", lambda self, rows: folded.append(len(rows)))

        def spoil(out):
            out[1][0] *= 1.0 + 1e-6
            return out

        spoil_last_block(monkeypatch, "_step_exponentials", field.steps, spoil)
        with pytest.raises(RuntimeError, match="propagation lost unitarity"):
            landscape._read_pass(sys_n, field, evolve._unitary_blocks(evolve._step_blocks(sys_n, field)), 1)
        # Only the first block's samples, its nodes 0..BLOCK, were added.
        assert folded == [evolve._BLOCK + 1]


@pytest.mark.parametrize("jacobian", [False, True])
def test_streamed_check_memory_is_flat_in_the_step_count(jacobian):
    # Without the gradient nothing of a block outlives it; with it the pass
    # keeps the M (N^2 - 1) Jacobian coordinates and nothing else per step.
    n = 4
    peaks = {}
    for steps in (8 * evolve._BLOCK, 32 * evolve._BLOCK):
        sys_n, field = random_system_and_field(n, steps, 5)
        tracemalloc.start()
        try:
            landscape._read_pass(sys_n, field, evolve._unitary_blocks(evolve._step_blocks(sys_n, field)), 1, jacobian)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, large = peaks[8 * evolve._BLOCK], peaks[32 * evolve._BLOCK]
    if jacobian:
        assert large - small <= 1.2 * 24 * evolve._BLOCK * (n * n - 1) * np.dtype(float).itemsize
    else:
        assert abs(large - small) < 0.1 * small


@pytest.mark.parametrize("steps", [1, 3, 4, 5, 7, 8, 11])
@pytest.mark.parametrize("n", [4, 5])
def test_no_gradient_pass_blocks_join_up(monkeypatch, n, steps):
    # The pass of a check without gradient takes no eigenpair, and its steps
    # mix the Taylor kernel at several squaring counts with the eigh
    # exponential past the cut-off.  Blocks of 4 steps against a single
    # block give the same span and endpoint bits.
    sys_n, field = random_system_and_field(n, steps, 100 * n + steps)
    field = ControlField(horizon=field.horizon, values=field.values * np.geomspace(0.1, 30.0, steps))

    def outputs(stride):
        blocks = evolve._unitary_blocks(evolve._step_blocks(sys_n, field, False))
        run = landscape._read_pass(sys_n, field, blocks, stride)
        return run.endpoint, run.span.singular_values, run.span.complement_basis

    for stride in (1, 3):
        monkeypatch.setattr(evolve, "_BLOCK", sys.maxsize)
        whole = outputs(stride)
        monkeypatch.setattr(evolve, "_BLOCK", 4)
        blocked = outputs(stride)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


def test_eigen_free_oracle_probe_blocks_join_up(monkeypatch):
    # At N = 4 the oracle's probes take the Taylor kernel, whose squarings
    # are chosen per matrix: blocks of 4 steps give the bits of one block.
    sys_n, field = random_system_and_field(4, 11, 5)
    rng = np.random.default_rng(5)
    rho0, obs = random_density(4, rng), random_traceless_symmetric(4, rng)
    traj = evolve.propagate(sys_n, field)
    monkeypatch.setattr(evolve, "_BLOCK", sys.maxsize)
    whole = landscape.finite_difference_gradient(traj, rho0, obs)
    monkeypatch.setattr(evolve, "_BLOCK", 4)
    assert np.array_equal(landscape.finite_difference_gradient(traj, rho0, obs), whole)

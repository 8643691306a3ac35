import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SY,
    SZ,
    coupled_traceless_symmetric,
    hs_inner,
    random_traceless_hermitian,
    random_traceless_symmetric,
    rotated_traceless_symmetric,
)
from wayspan import evolve, landscape, matspace, waypoints
from wayspan.model import FormatError
from wayspan.waypoints import ThetaGrid, WaypointSet


def conjugates(wset, mu):
    return np.array([evolve.conjugated_dipole(u, mu) for u in wset.unitaries])


# Per-pair reference constructions: one identity and one block assignment per
# way-point, pairs i < j in lexicographic order.
def _embed(block, i, j, n):
    out = np.eye(n, dtype=complex)
    out[np.ix_([i - 1, j - 1], [i - 1, j - 1])] = block
    return out


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def reference_theorem1(mu):
    n = len(mu)
    q = np.linalg.eigh(np.asarray(mu, dtype=complex))[1]
    unitaries, index = [], []
    for i, j in _pairs(n):
        rest = iter(range(1, n - 1))
        base = q[:, [0 if p == i - 1 else n - 1 if p == j - 1 else next(rest) for p in range(n)]]
        unitaries.append(base)
        unitaries += [base @ _embed(f, i, j, n) for f in (waypoints._SWAP, waypoints._ROTATE, waypoints._PHASE)]
        index += [(i, j, k) for k in (1, 2, 3, 4)]
    return np.array(unitaries), tuple(index)


def reference_theorem3(n, grid):
    unitaries, index = [], []
    for i, j in _pairs(n):
        for theta in grid.angles:
            phase = np.exp(1j * theta)
            unitaries.append(_embed(np.array([[0.0, phase], [np.conj(phase), 0.0]]), i, j, n))
            index.append(("U", float(theta), i, j))
    for i in range(1, n):
        for theta in grid.angles:
            c, s = np.cos(theta), np.sin(theta)
            unitaries.append(_embed(np.array([[c, s], [s, -c]]), i, i + 1, n))
            index.append(("V", float(theta), i, i + 1))
    return np.array(unitaries), tuple(index)


def degenerate_traceless_hermitian(n, rng):
    """One eigenvalue against n - 1 equal ones, in a random complex eigenbasis."""
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    m = q @ np.diag(np.r_[n - 1.0, -np.ones(n - 1)]) @ q.conj().T
    return (m + m.conj().T) / 2


DIPOLES = [
    random_traceless_symmetric,
    random_traceless_hermitian,
    degenerate_traceless_hermitian,
    rotated_traceless_symmetric,
]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("make", DIPOLES)
def test_batched_theorem1_matches_the_per_pair_loop(n, make, rng):
    mu = make(n, rng)
    unitaries, index = reference_theorem1(mu)
    wset = waypoints.theorem1_waypoints(mu)
    assert np.array_equal(wset.unitaries, unitaries)
    assert wset.pair_index == index


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("grid", [None, ThetaGrid(np.array([0.1, 0.9, 2.0, 3.3, 4.7]))])
def test_batched_theorem3_matches_the_per_pair_loop_bit_for_bit(n, grid):
    unitaries, index = reference_theorem3(n, grid or waypoints.default_theta_grid())
    wset = waypoints.theorem3_waypoints(n, grid)
    assert np.array_equal(_bits(wset.unitaries), _bits(unitaries))
    assert wset.pair_index == index
    assert [tuple(map(type, e)) for e in wset.pair_index] == [tuple(map(type, e)) for e in index]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("make", DIPOLES)
def test_theorem1_is_bit_identical_under_power_of_two_scaling(n, make, rng):
    # The Hermiticity, trace and residual checks are relative: a scaled mu
    # passes them, and eigh of an exactly scaled matrix returns the same
    # eigenvectors.  A rotated dipole is Hermitian only up to round-off.
    mu = make(n, rng)
    unitaries = waypoints.theorem1_waypoints(mu).unitaries
    for k in range(-40, 41):
        assert np.array_equal(_bits(waypoints.theorem1_waypoints(2.0**k * mu).unitaries), _bits(unitaries)), k


def test_a_wrong_eigendecomposition_names_its_residual(monkeypatch, rng):
    eigh = np.linalg.eigh

    def rotated(m):
        # A unitary Q whose first two columns are turned by 1e-6 radians.
        w, q = eigh(m)
        c, s = np.cos(1e-6), np.sin(1e-6)
        q[:, :2] = q[:, :2] @ np.array([[c, -s], [s, c]])
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    with pytest.raises(RuntimeError, match=r"^eigendecomposition of mu has residual \S+ above the bound "):
        waypoints.theorem1_waypoints(random_traceless_symmetric(4, rng))


class TestDipoleDependentSet:
    def test_pauli_z_quadruple(self):
        wset = waypoints.theorem1_waypoints(np.real(SZ))
        assert len(wset) == 4
        assert wset.provenance == "theorem1"
        hats = conjugates(wset, SZ)
        # lam1 = -1, lam2 = +1: the four block patterns evaluate to
        # -sz, +sz, -sx, -sy
        expected = [-SZ, SZ, -SX, -SY]
        for got, want in zip(hats, expected):
            assert np.allclose(got, want, atol=1e-12)
        assert landscape.spanning_rank(hats).rank == 3

    def test_counts(self, rng):
        for n in (2, 3, 4, 5):
            mu = random_traceless_symmetric(n, rng)
            wset = waypoints.theorem1_waypoints(mu)
            assert len(wset) == 2 * n * n - 2 * n
        assert len(waypoints.theorem1_waypoints(random_traceless_symmetric(3, rng))) == 12

    def test_full_spanning_rank_n4(self, rng):
        mu = random_traceless_symmetric(4, rng)
        wset = waypoints.theorem1_waypoints(mu)
        hats = conjugates(wset, mu)
        report = landscape.spanning_rank(hats)
        assert report.rank == 15
        # independent rank route
        basis = matspace.basis_zt(4)
        coords = np.real(np.einsum("kij,mji->mk", basis, hats))
        assert np.linalg.matrix_rank(coords, tol=1e-8) == 15

    def test_block_patterns_and_off_block_agreement(self, rng):
        for n in (3, 4):
            mu = random_traceless_hermitian(n, rng)
            w = np.linalg.eigvalsh(mu)
            lam1, lam2 = w[0], w[-1]
            wset = waypoints.theorem1_waypoints(mu)
            hats = conjugates(wset, mu)
            s, d = lam1 + lam2, lam1 - lam2
            blocks = [
                np.diag([lam1, lam2]),
                np.diag([lam2, lam1]),
                0.5 * np.array([[s, d], [d, s]]),
                0.5 * np.array([[s, -1j * d], [1j * d, s]]),
            ]
            for pos, (i, j, k) in enumerate(wset.pair_index):
                got = matspace.submatrix_2x2(hats[pos], i, j)
                assert np.abs(got - blocks[k - 1]).max() < 1e-10
                if k > 1:
                    anchor = hats[pos - (k - 1)]
                    mask = np.ones((n, n), dtype=bool)
                    mask[[i - 1, j - 1], :] = False
                    mask[:, [i - 1, j - 1]] = False
                    assert np.abs((hats[pos] - anchor)[mask]).max() < 1e-12

    def test_rejects_zero_and_traced_input(self):
        with pytest.raises(ValueError, match="nonzero"):
            waypoints.theorem1_waypoints(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="traceless"):
            waypoints.theorem1_waypoints(np.eye(2))

    def test_every_waypoint_is_unitary(self, rng):
        wset = waypoints.theorem1_waypoints(random_traceless_symmetric(5, rng))
        for u in wset.unitaries:
            assert matspace.unitarity_defect(u) < 1e-12


class TestAngleGrid:
    def test_default_grid_passes(self):
        grid = waypoints.default_theta_grid()
        result = waypoints.lemma1_check(grid)
        assert result.passed
        # |det| of the 5x5 trig system for {0, pi/3, pi/2, pi, 3pi/2} is 4 sqrt(3)
        assert result.det_magnitude == pytest.approx(4.0 * np.sqrt(3.0), rel=1e-12)

    def test_duplicate_angle_grid_is_singular(self):
        literal = ThetaGrid(np.array([0.0, np.pi / 3, np.pi / 2, np.pi, 3 * np.pi / 3]))
        result = waypoints.lemma1_check(literal)
        assert not result.passed
        assert result.det_magnitude < 1e-12

    def test_equal_angles_mod_two_pi_fail(self):
        grid = ThetaGrid(np.array([0.0, 2 * np.pi, np.pi / 3, np.pi / 2, np.pi]))
        assert not waypoints.lemma1_check(grid).passed

    def test_well_spread_generic_grid_passes(self):
        assert waypoints.lemma1_check(ThetaGrid(np.array([0.1, 0.9, 2.0, 3.3, 4.7]))).passed

    def test_clustered_grid_falls_below_threshold(self):
        # nonsingular in exact arithmetic but far below the 1e-6 verdict
        # threshold; the check is a thresholded determinant, not a rank test
        result = waypoints.lemma1_check(ThetaGrid(np.array([0.1, 0.2, 0.3, 0.4, 0.5])))
        assert result.det_magnitude < 1e-6
        assert not result.passed

    def test_grid_needs_five_angles(self):
        with pytest.raises(ValueError):
            ThetaGrid(np.array([0.0, 1.0, 2.0]))


class TestDipoleIndependentSet:
    def test_counts(self):
        assert len(waypoints.theorem3_waypoints(2)) == 10
        assert len(waypoints.theorem3_waypoints(4)) == 45

    def test_set_is_dipole_independent_and_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        waypoints.save_waypoints(waypoints.theorem3_waypoints(3), first)
        waypoints.save_waypoints(waypoints.theorem3_waypoints(3), second)
        assert first.getvalue() == second.getvalue()

    def test_diagonal_dipole_negative_control(self):
        wset = waypoints.theorem3_waypoints(2)
        hats = conjugates(wset, SZ)
        report = landscape.spanning_rank(hats)
        assert report.rank == 2
        assert not report.full
        # the missing direction is sy: every conjugate is orthogonal to it
        for hat in hats:
            assert abs(hs_inner(hat, SY)) < 1e-12

    def test_full_rank_for_coupled_dipole(self, rng):
        for n in (2, 3, 4):
            mu = coupled_traceless_symmetric(n, rng)
            hats = conjugates(waypoints.theorem3_waypoints(n), mu)
            assert landscape.spanning_rank(hats).full

    def test_rejects_singular_grid(self):
        bad = ThetaGrid(np.array([0.0, 2 * np.pi, np.pi / 3, np.pi / 2, np.pi]))
        with pytest.raises(ValueError, match="singular"):
            waypoints.theorem3_waypoints(3, bad)

    def test_pair_index_layout(self):
        wset = waypoints.theorem3_waypoints(3)
        kinds = [entry[0] for entry in wset.pair_index]
        assert kinds[:15] == ["U"] * 15
        assert kinds[15:] == ["V"] * 10
        v_pairs = {(entry[2], entry[3]) for entry in wset.pair_index if entry[0] == "V"}
        assert v_pairs == {(1, 2), (2, 3)}


class TestSeparatingWitness:
    def test_aligned_spectra_use_identity(self):
        wit = waypoints.separating_unitary(SZ / np.sqrt(2), SZ / np.sqrt(2))
        assert wit.value == pytest.approx(1.0)
        assert np.allclose(wit.unitary, np.eye(2), atol=1e-12)

    def test_pauli_cross_pair(self):
        wit = waypoints.separating_unitary(SX, SZ)
        assert wit.value == pytest.approx(2.0)

    def test_witness_inequality_on_random_pairs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            z = random_traceless_hermitian(n, rng)
            mu = random_traceless_hermitian(n, rng)
            wit = waypoints.separating_unitary(z, mu)
            bound = 1e-10 * matspace.hs_norm(z) * matspace.hs_norm(mu)
            assert abs(wit.value) > bound
            assert matspace.unitarity_defect(wit.unitary) < 1e-10
            trace = np.einsum("ij,ji->", z, wit.unitary.conj().T @ mu @ wit.unitary)
            assert abs(trace.real - wit.value) < 1e-8

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=2, max_value=32),
        degenerate=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=32, degenerate=False, seed=0)
    @example(n=32, degenerate=True, seed=1)
    def test_identity_alignment_meets_chebyshev_bound(self, n, degenerate, seed):
        rng = np.random.default_rng(seed)
        z = random_traceless_hermitian(n, rng)
        mu = random_traceless_hermitian(n, rng)
        if degenerate:
            # one eigenvalue against N - 1 equal ones: the most degenerate spectrum
            q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            z = q @ np.diag(np.r_[n - 1.0, -np.ones(n - 1)]) @ q.conj().T
        wit = waypoints.separating_unitary(z, mu)
        assert abs(wit.value) >= matspace.hs_norm(z) * matspace.hs_norm(mu) / n**2
        assert matspace.unitarity_defect(wit.unitary) < 1e-10
        trace = np.einsum("ij,ji->", z, wit.unitary.conj().T @ mu @ wit.unitary)
        assert abs(trace.real - wit.value) < 1e-8 * max(1.0, abs(wit.value))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_of_two_scaling_scales_the_value(self, n, rng):
        # Every input check is relative, so only an exactly zero input is refused.
        z, mu = rotated_traceless_symmetric(n, rng), rotated_traceless_symmetric(n, rng)
        value = waypoints.separating_unitary(z, mu).value
        for k in range(-40, 41):
            assert waypoints.separating_unitary(2.0**k * z, 2.0**k * mu).value == pytest.approx(4.0**k * value), k

    def test_rejects_zero_input(self):
        with pytest.raises(ValueError, match="nonzero"):
            waypoints.separating_unitary(np.zeros((2, 2)), SZ)


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        wset = waypoints.theorem1_waypoints(random_traceless_symmetric(3, rng))
        path = tmp_path / "set.json"
        waypoints.save_waypoints(wset, path)
        again = waypoints.load_waypoints(path)
        assert again.provenance == wset.provenance
        assert again.dim == wset.dim
        assert np.array_equal(again.unitaries, wset.unitaries)
        assert again.pair_index == wset.pair_index

    def test_custom_import(self, tmp_path):
        wset = WaypointSet(dim=2, unitaries=np.array([np.eye(2)]), provenance="custom")
        path = tmp_path / "custom.json"
        waypoints.save_waypoints(wset, path)
        again = waypoints.load_waypoints(path)
        assert len(again) == 1

    def test_load_rejects_non_unitary(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dim": 2, "provenance": "custom", "count": 1,'
            ' "unitaries": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]],'
            ' "pair_index": null}'
        )
        with pytest.raises(FormatError):
            waypoints.load_waypoints(path)

    @pytest.mark.parametrize("pair_index", [[1, 2], 5, "UV", [[1, [2]], [1]], [(1, 2, 3), {"i": 1}]])
    def test_pair_index_entries_must_be_lists_of_scalars(self, pair_index):
        with pytest.raises(ValueError, match="pair_index"):
            WaypointSet(dim=2, unitaries=np.array([np.eye(2)] * 2), provenance="custom", pair_index=pair_index)

    def test_count_enforced_for_known_provenance(self):
        with pytest.raises(ValueError, match="must have"):
            WaypointSet(dim=2, unitaries=np.array([np.eye(2)]), provenance="theorem1")


def test_set_names_the_first_non_unitary_waypoint(rng):
    unitaries = np.array([np.eye(3, dtype=complex)] * 6)
    unitaries[2] *= 1.0 + 1e-8
    unitaries[4, 0, 0] = 2.0
    expected = matspace.unitarity_defect(unitaries[2])
    with pytest.raises(ValueError, match=rf"^way-point 3 is not unitary: \|\|u†u - I\|\|_F = {expected:.3e}$"):
        WaypointSet(dim=3, unitaries=unitaries, provenance="custom")
    # Blocks of the check: the first failure past the first block is named.
    many = np.array([np.eye(2, dtype=complex)] * (2 * waypoints.UNITARY_CHECK_BLOCK + 3))
    many[[waypoints.UNITARY_CHECK_BLOCK + 5, -1], 1, 1] = 0.5
    with pytest.raises(ValueError, match=rf"^way-point {waypoints.UNITARY_CHECK_BLOCK + 6} is not unitary"):
        WaypointSet(dim=2, unitaries=many, provenance="custom")
    # Round-off-sized defects pass.
    wset = waypoints.theorem1_waypoints(random_traceless_symmetric(4, rng))
    WaypointSet(dim=4, unitaries=wset.unitaries * (1.0 + 1e-12), provenance="theorem1")


def test_set_rejects_a_nan_waypoint():
    unitaries = np.array([np.eye(3, dtype=complex)] * 3)
    unitaries[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match=r"^way-point 2 is not unitary: \|\|u†u - I\|\|_F = nan$"):
        WaypointSet(dim=3, unitaries=unitaries, provenance="custom")

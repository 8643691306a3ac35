import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SY, SZ, hs_inner, random_traceless_hermitian
from wayspan import matspace


def test_submatrix_diagonal_case():
    m = np.diag([1.0, 2.0, 3.0])
    block = matspace.submatrix_2x2(m, 1, 3)
    assert np.allclose(block, np.diag([1.0, 3.0]))


def test_submatrix_of_embedded_block_roundtrips():
    m = matspace.embed_2x2(SX, 1, 2, 3)
    assert np.allclose(matspace.submatrix_2x2(m, 1, 2), SX)


def test_embed_then_extract_agrees_on_selected_entries(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for (i, j) in [(1, 2), (2, 4), (1, 4)]:
        block = matspace.submatrix_2x2(m, i, j)
        back = matspace.embed_2x2(block, i, j, 4)
        a, b = i - 1, j - 1
        for r, c in [(a, a), (a, b), (b, a), (b, b)]:
            assert back[r, c] == pytest.approx(m[r, c])


def test_embed_identity_block_gives_identity():
    assert np.array_equal(matspace.embed_2x2(np.eye(2), 1, 2, 4), np.eye(4))


def test_embed_swap_is_permutation():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = matspace.embed_2x2(swap, 1, 2, 3)
    perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    assert np.array_equal(out, perm)


def test_embed_rotation_block_is_unitary():
    rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    out = matspace.embed_2x2(rot, 1, 2, 2)
    assert matspace.unitarity_defect(out) < 1e-14


def test_embed_unitary_blocks_stay_unitary(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        out = matspace.embed_2x2(q, i, j, n)
        assert matspace.unitarity_defect(out) < 1e-12


@pytest.mark.parametrize("i,j", [(2, 2), (0, 1), (3, 2), (1, 5)])
def test_block_index_validation(i, j):
    with pytest.raises(ValueError):
        matspace.submatrix_2x2(np.eye(4), i, j)
    with pytest.raises(ValueError):
        matspace.embed_2x2(np.eye(2), i, j, 4)


def test_batched_blocks_match_per_element_calls(rng):
    n = 5
    blocks = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
    i = np.array([[1], [2], [1]])
    j = np.array([[2], [5], [4]])
    stack = matspace.embed_2x2(blocks, i, j, n)
    assert stack.shape == (3, 4, n, n)
    m = rng.normal(size=(3, 4, n, n)) + 1j * rng.normal(size=(3, 4, n, n))
    subs = matspace.submatrix_2x2(m, i, j)
    assert subs.shape == (3, 4, 2, 2)
    for p in range(3):
        for k in range(4):
            pair = int(i[p, 0]), int(j[p, 0])
            assert np.array_equal(stack[p, k], matspace.embed_2x2(blocks[p, k], *pair, n))
            assert np.array_equal(subs[p, k], matspace.submatrix_2x2(m[p, k], *pair))
    # One matrix against many pairs, and one pair against many blocks.
    assert np.array_equal(matspace.submatrix_2x2(m[0, 0], i[:, 0], j[:, 0])[1], matspace.submatrix_2x2(m[0, 0], 2, 5))
    assert np.array_equal(matspace.embed_2x2(blocks[0], 2, 3, n)[2], matspace.embed_2x2(blocks[0, 2], 2, 3, n))


def test_a_bad_pair_anywhere_in_a_batch_is_rejected():
    i = np.array([1, 2, 3, 1])
    j = np.array([2, 4, 3, 4])
    with pytest.raises(ValueError, match=r"need 1 <= i < j <= 4, got \(i, j\) = \(3, 3\)"):
        matspace.embed_2x2(np.eye(2), i, j, 4)
    with pytest.raises(ValueError, match=r"got \(i, j\) = \(3, 3\)"):
        matspace.submatrix_2x2(np.zeros((4, 4, 4)), i, j)
    with pytest.raises(ValueError, match="integers"):
        matspace.embed_2x2(np.eye(2), i, j.astype(float), 4)


def test_basis_n2_is_scaled_paulis():
    basis = matspace.basis_zt(2)
    expected = [SX / np.sqrt(2), SY / np.sqrt(2), SZ / np.sqrt(2)]
    assert len(basis) == 3
    for got, want in zip(basis, expected):
        assert np.allclose(got, want)


def test_basis_orthonormal_n3():
    basis = matspace.basis_zt(3)
    assert len(basis) == 8
    gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(8), atol=1e-12)
    for b in basis:
        assert abs(np.trace(b)) < 1e-14


def test_basis_count_n5():
    assert len(matspace.basis_zt(5)) == 24


def test_basis_rejects_trivial_dimension():
    with pytest.raises(ValueError):
        matspace.basis_zt(1)


def test_to_coords_single_component():
    basis = matspace.basis_zt(2)
    coords = matspace.to_coords(SZ, basis)
    assert np.allclose(coords, [0.0, 0.0, np.sqrt(2.0)])


def test_to_coords_zero_matrix():
    basis = matspace.basis_zt(3)
    assert np.allclose(matspace.to_coords(np.zeros((3, 3)), basis), 0.0)


def test_coords_roundtrip_and_isometry(rng):
    for n in (2, 3, 4, 5):
        basis = matspace.basis_zt(n)
        for _ in range(5):
            z = random_traceless_hermitian(n, rng)
            coords = matspace.to_coords(z, basis)
            back = matspace.from_coords(coords, basis)
            assert np.linalg.norm(back - z) < 1e-10
            assert np.linalg.norm(coords) == pytest.approx(matspace.hs_norm(z), rel=1e-10)


def test_assert_hermitian_zt_rejects_non_hermitian_and_traced():
    with pytest.raises(ValueError, match="Hermitian"):
        matspace.assert_hermitian_zt(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="traceless"):
        matspace.assert_hermitian_zt(np.eye(2))
    assert np.array_equal(matspace.assert_hermitian_zt(SZ), SZ)


def test_assert_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        matspace.assert_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.array_equal(matspace.assert_unitary(np.eye(3)), np.eye(3))


def _hermitian_stack(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_traceless_hermitian(n, rng) for _ in range(count)])


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=6), count=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_coords_match_per_matrix(n, count, seed):
    basis = matspace.basis_zt(n)
    z = _hermitian_stack(n, count, seed)
    coords = matspace.to_coords(z, basis)
    assert coords.shape == (count, n * n - 1)
    for m in range(count):
        ref = [hs_inner(b, z[m]) for b in basis]
        assert np.abs(coords[m] - ref).max() < 1e-13
        assert np.abs(coords[m] - matspace.to_coords(z[m], basis)).max() < 1e-13
    back = matspace.from_coords(coords, basis)
    assert back.shape == z.shape
    for m in range(count):
        ref = sum(c * b for c, b in zip(coords[m], basis))
        assert np.abs(back[m] - ref).max() < 1e-13
        assert np.abs(back[m] - matspace.from_coords(coords[m], basis)).max() < 1e-13


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=8), count=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_coords_roundtrip_is_isometry(n, count, seed):
    basis = matspace.basis_zt(n)
    z = _hermitian_stack(n, count, seed)
    coords = matspace.to_coords(z, basis)
    assert np.abs(matspace.from_coords(coords, basis) - z).max() < 1e-12
    norms = np.linalg.norm(z, axis=(1, 2))
    assert np.allclose(np.linalg.norm(coords, axis=1), norms, rtol=1e-12, atol=0.0)
    # inner products are preserved too, not just norms
    gram = np.real(np.einsum("aij,bji->ab", z, z))
    assert np.allclose(coords @ coords.T, gram, rtol=0.0, atol=1e-12 * norms.max() ** 2)


def test_coords_reject_mismatched_shapes():
    basis = matspace.basis_zt(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        matspace.to_coords(np.zeros((4, 2, 2)), basis)
    with pytest.raises(ValueError, match="length 8"):
        matspace.from_coords(np.zeros((4, 3)), basis)


def test_unitarity_defect_of_a_stack_equals_per_matrix_values(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4)))
    stack = q * np.array([1.0, 1.0 + 1e-9, 1.1])[None, :, None, None]
    defects = matspace.unitarity_defect(stack)
    assert defects.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert defects[idx] == matspace.unitarity_defect(stack[idx])
        ref = np.linalg.norm(stack[idx].conj().T @ stack[idx] - np.eye(4))
        assert defects[idx] == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "check, matrix, message",
    [
        (matspace.assert_unitary, np.eye(3), "not unitary"),
        (matspace.assert_hermitian_zt, np.diag([1.0, 0.0, -1.0]), "not Hermitian"),
    ],
)
def test_nan_entry_fails_the_check(check, matrix, message):
    m = matrix.astype(complex)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match=message):
        check(m)

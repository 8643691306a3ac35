import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SY, SZ, hs_inner, random_traceless_hermitian
from wayspan import matspace


def test_submatrix_of_embedded_block_roundtrips():
    m = matspace.embed_2x2(SX, 1, 2, 3)
    assert np.array_equal(m[:2, :2], SX)


def test_embed_then_extract_agrees_on_selected_entries(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for (i, j) in [(1, 2), (2, 4), (1, 4)]:
        a, b = i - 1, j - 1
        back = matspace.embed_2x2(m[np.ix_([a, b], [a, b])], i, j, 4)
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
        matspace.embed_2x2(np.eye(2), i, j, 4)


def test_batched_blocks_match_per_element_calls(rng):
    n = 5
    blocks = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
    i = np.array([[1], [2], [1]])
    j = np.array([[2], [5], [4]])
    stack = matspace.embed_2x2(blocks, i, j, n)
    assert stack.shape == (3, 4, n, n)
    for p in range(3):
        for k in range(4):
            pair = int(i[p, 0]), int(j[p, 0])
            assert np.array_equal(stack[p, k], matspace.embed_2x2(blocks[p, k], *pair, n))
    # One pair against many blocks.
    assert np.array_equal(matspace.embed_2x2(blocks[0], 2, 3, n)[2], matspace.embed_2x2(blocks[0, 2], 2, 3, n))


def test_a_bad_pair_anywhere_in_a_batch_is_rejected():
    i = np.array([1, 2, 3, 1])
    j = np.array([2, 4, 3, 4])
    with pytest.raises(ValueError, match=r"need 1 <= i < j <= 4, got \(i, j\) = \(3, 3\)"):
        matspace.embed_2x2(np.eye(2), i, j, 4)
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
    coords = matspace.to_coords(SZ)
    assert np.allclose(coords, [0.0, 0.0, np.sqrt(2.0)])


def test_to_coords_zero_matrix():
    assert np.allclose(matspace.to_coords(np.zeros((3, 3))), 0.0)


def test_coords_roundtrip_and_isometry(rng):
    for n in (2, 3, 4, 5):
        for _ in range(5):
            z = random_traceless_hermitian(n, rng)
            coords = matspace.to_coords(z)
            back = matspace.from_coords(coords)
            assert np.linalg.norm(back - z) < 1e-10
            assert np.linalg.norm(coords) == pytest.approx(matspace.hs_norm(z), rel=1e-10)


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=32),
    is_complex=st.booleans(),
    k=st.integers(min_value=-1000, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hs_norm_scales_exactly_and_is_numpys_norm_at_ordinary_scales(n, is_complex, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if is_complex else 0.0)
    assert matspace.hs_norm(a) == np.linalg.norm(a)
    assert matspace.hs_norm(2.0**k * a) == 2.0**k * matspace.hs_norm(a)


def test_hs_norm_of_the_zero_matrix_and_of_a_nan():
    assert matspace.hs_norm(np.zeros((3, 3))) == 0.0
    assert np.isnan(matspace.hs_norm(np.array([[0.0, np.nan], [1.0, 0.0]])))


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
    coords = matspace.to_coords(z)
    assert coords.shape == (count, n * n - 1)
    for m in range(count):
        ref = [hs_inner(b, z[m]) for b in basis]
        assert np.abs(coords[m] - ref).max() < 1e-13
        assert np.array_equal(coords[m], matspace.to_coords(z[m]))
    back = matspace.from_coords(coords)
    assert back.shape == z.shape
    for m in range(count):
        ref = sum(c * b for c, b in zip(coords[m], basis))
        assert np.abs(back[m] - ref).max() < 1e-13
        assert np.abs(back[m] - matspace.from_coords(coords[m])).max() < 1e-13


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=8), count=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_coords_roundtrip_is_isometry(n, count, seed):
    z = _hermitian_stack(n, count, seed)
    coords = matspace.to_coords(z)
    assert np.abs(matspace.from_coords(coords) - z).max() < 1e-12
    norms = np.linalg.norm(z, axis=(1, 2))
    assert np.allclose(np.linalg.norm(coords, axis=1), norms, rtol=1e-12, atol=0.0)
    # inner products are preserved too, not just norms
    gram = np.real(np.einsum("aij,bji->ab", z, z))
    assert np.allclose(coords @ coords.T, gram, rtol=0.0, atol=1e-12 * norms.max() ** 2)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=32),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cuts=st.lists(st.integers(min_value=0, max_value=5), max_size=3),
)
def test_coords_are_the_dense_inner_products_with_the_same_bits_in_any_stack(n, count, seed, cuts):
    # z = h + i g + c I with h traceless Hermitian and g Hermitian: only h
    # counts, as Re Tr(basis_k z) = Re Tr(basis_k h) for each Hermitian
    # traceless basis_k.
    rng = np.random.default_rng(seed)
    h = _hermitian_stack(n, count, seed)
    g = np.array([random_traceless_hermitian(n, rng) for _ in range(count)])
    z = h + 1j * g + rng.normal(scale=10.0, size=(count, 1, 1)) * np.eye(n)
    coords = matspace.to_coords(z)
    # Round-off model (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2002, Sec. 3.1), u = eps / 2 and gamma_k = k u / (1 - k u), per matrix
    # of norm ||z||_F: a dense dot product of 2 n^2 terms with a unit-norm
    # basis row errs by at most gamma_{2n^2} ||z||_F, a pair coordinate by
    # gamma_3 ||z||_F, and a level, a cumulative sum of at most n - 1 terms
    # then a product, a difference, a square root and a quotient, by
    # gamma_{n+2} ||z||_F; rounding z = h + i g + c I moves each coordinate by
    # at most u ||z||_F.  The bound is twice their sum.
    u = np.finfo(float).eps / 2
    bound = 2 * (2 * n * n + n + 3) * u * np.linalg.norm(z, axis=(1, 2))
    basis_rows = matspace._real_rows(matspace.basis_zt(n))
    for dense in (matspace._real_rows(z) @ basis_rows.T, matspace._real_rows(h) @ basis_rows.T):
        assert np.all(np.abs(coords - dense).max(axis=1) <= bound)
    for m in range(count):
        assert np.array_equal(coords[m], matspace.to_coords(z[m]))
    parts = np.split(z, sorted(c for c in cuts if c <= count))
    assert np.array_equal(np.concatenate([matspace.to_coords(p) for p in parts]), coords)


def test_coords_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="need square matrices"):
        matspace.to_coords(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="dimension >= 2"):
        matspace.to_coords(np.zeros((1, 1)))
    for bad in (np.zeros((4, 7)), np.zeros(0), np.array(1.0)):
        with pytest.raises(ValueError, match=r"length n\^2 - 1"):
            matspace.from_coords(bad)


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

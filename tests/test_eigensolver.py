import numpy as np
import pytest
import scipy.sparse as sp

from mfca import eigensolver as es
from mfca.graphs import clean_graph
from mfca.pipeline import build_H
from mfca.so3 import sample_uniform


def random_hermitian(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        a = a * mask
    h = (a + a.conj().T) / 2.0
    return h


def char_poly_roots(h):
    """Independent oracle: eigenvalues via characteristic-polynomial
    coefficients from trace power sums (Faddeev-LeVerrier) and np.roots."""
    n = h.shape[0]
    power_sums = [np.trace(np.linalg.matrix_power(h, k)).real for k in range(1, n + 1)]
    coeffs = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += coeffs[k - i] * power_sums[i - 1]
        coeffs.append(-acc / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def start_from_seed(monkeypatch, seed):
    """Make every solve start from another seeded draw than its own."""
    real_eigsh = es.eigsh

    def seeded_eigsh(a, v0, **kwargs):
        return real_eigsh(a, v0=np.random.default_rng(seed).standard_normal(v0.size), **kwargs)

    monkeypatch.setattr(es, "eigsh", seeded_eigsh)


class TestTopEigenpairs:
    def test_identity(self):
        h = es.HermitianMatrix(data=np.eye(4))
        pairs = es.top_eigenpairs(h, 2)
        assert np.allclose(pairs.values, [1.0, 1.0])

    def test_char_poly_oracle(self):
        m = random_hermitian(8, 3)
        pairs = es.top_eigenpairs(es.HermitianMatrix(data=m), 6)
        ref = char_poly_roots(m)
        assert np.allclose(pairs.values, ref[:6], atol=1e-8)

    def test_descending_order(self):
        m = random_hermitian(20, 5)
        pairs = es.top_eigenpairs(es.HermitianMatrix(data=m), 7)
        assert np.all(np.diff(pairs.values) <= 0)

    def test_orthonormal_vectors(self):
        m = random_hermitian(15, 6)
        pairs = es.top_eigenpairs(es.HermitianMatrix(data=m), 5)
        gram = pairs.vectors.conj().T @ pairs.vectors
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_residual(self):
        m = random_hermitian(30, 7)
        h = es.HermitianMatrix(data=m)
        pairs = es.top_eigenpairs(h, 4)
        resid = m @ pairs.vectors - pairs.vectors * pairs.values[None, :]
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-10 * max(1, np.linalg.norm(m))

    def test_nan_entry_breaks_the_contract(self):
        # a NaN residual compares False against the tolerance, so the
        # contract must not pass on a failed comparison; it is checked with
        # the exact pairs of the matrix without its NaN entries, which
        # top_eigenpairs itself refuses before any solve
        m = np.diag([1.0, 0.5, 0.2, 0.1, 0.0]).astype(complex)
        values, vectors = np.diag(m).real[:3], np.eye(5, 3, dtype=complex)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(es.EigensolverError, match="residual contract"):
            es._check_contract(es.HermitianMatrix(data=m), values, vectors, m @ vectors)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_entry_on_the_krylov_path(self, dtype, capfd):
        # ARPACK would fail on a NaN matvec, after LAPACK printed
        # "** On entry to ZLASCL parameter number 4 had an illegal value"
        m = np.diag(np.linspace(1.0, 0.1, 12)).astype(dtype)
        m[3, 7] = m[7, 3] = np.nan
        with pytest.raises(es.EigensolverError, match=r"non-finite entry .*nan.* at \(3, 7\)$"):
            es.top_eigenpairs(es.HermitianMatrix(data=sp.csr_matrix(m)), 3)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.nan)])
    def test_first_non_finite_entry_is_named(self, bad):
        m = np.diag(np.linspace(1.0, 0.1, 12)).astype(complex)
        m[9, 2] = m[2, 9] = bad
        m[5, 10] = m[10, 5] = np.nan
        with pytest.raises(es.EigensolverError, match=r"at \(2, 9\)$"):
            es.top_eigenpairs(es.HermitianMatrix(data=sp.csr_matrix(m)), 3)

    def test_permutation_invariance(self):
        m = random_hermitian(12, 8)
        rng = np.random.default_rng(1)
        perm = rng.permutation(12)
        pm = m[np.ix_(perm, perm)]
        a = es.top_eigenpairs(es.HermitianMatrix(data=m), 10).values
        b = es.top_eigenpairs(es.HermitianMatrix(data=pm), 10).values
        assert np.allclose(a, b, atol=1e-10)

    def test_rejects_too_many(self):
        h = es.HermitianMatrix(data=np.eye(3))
        for m in (0, 4):
            with pytest.raises(es.EigensolverError):
                es.top_eigenpairs(h, m)

    def test_sparse_path_matches_dense(self):
        n = 300
        m = random_hermitian(n, 9, density=0.01)
        h_sparse = es.HermitianMatrix(data=sp.csr_matrix(m))
        dense_vals = np.sort(np.linalg.eigvalsh(m))[::-1][:5]
        pairs = es.top_eigenpairs(h_sparse, 5)
        assert np.allclose(pairs.values, dense_vals, atol=1e-7)

    def test_explicit_zero_leaves_eigenpairs_bit_identical(self):
        # the same H^(k), once with an explicitly stored zero: the output
        # depends on the matrix, not on how its entries are stored
        h = build_H(clean_graph(sample_uniform(0, 300), 0.8), 2)
        d = h.data.tocoo()
        padded = sp.csr_matrix(
            (np.append(d.data, 0.0), (np.append(d.row, 0), np.append(d.col, 0))), shape=d.shape
        )
        h_zero = es.HermitianMatrix(data=padded)
        assert h_zero.data.nnz == h.data.nnz + 1
        assert (h_zero.data != h.data).nnz == 0
        a = es.top_eigenpairs(h, 6)
        b = es.top_eigenpairs(h_zero, 6)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_sparse_path_deterministic(self):
        n = 300
        m = sp.csr_matrix(random_hermitian(n, 10, density=0.01))
        a = es.top_eigenpairs(es.HermitianMatrix(data=m), 3)
        b = es.top_eigenpairs(es.HermitianMatrix(data=m), 3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("m,krylov_calls", [(5, 1), (299, 0), (300, 0)])
    def test_krylov_whenever_arpack_allows(self, monkeypatch, m, krylov_calls):
        # 19% of the entries are nonzero, yet m < n - 1 takes the Krylov path;
        # where ARPACK cannot serve m, the request fails before any solve
        calls = []
        real_eigsh = es.eigsh

        def counting_eigsh(*args, **kwargs):
            calls.append(kwargs["k"])
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(es, "eigsh", counting_eigsh)
        m_dense = random_hermitian(300, 14, density=0.1)
        h = es.HermitianMatrix(data=sp.csr_matrix(m_dense))
        if krylov_calls:
            pairs = es.top_eigenpairs(h, m)
            ref = np.sort(np.linalg.eigvalsh(m_dense))[::-1][:m]
            assert np.allclose(pairs.values, ref, atol=1e-8)
        else:
            with pytest.raises(es.EigensolverError):
                es.top_eigenpairs(h, m)
        assert len(calls) == krylov_calls

    @pytest.mark.parametrize("extra", [-1, 0])
    def test_all_but_one_and_all_pairs_of_sparse_input(self, extra):
        # m = n - 1 is beyond ARPACK for a complex matrix; it must not leak
        # scipy's TypeError but fail naming m, n and the limit, as m = n does
        n = 60
        m = random_hermitian(n, 15, density=0.02)
        h = es.HermitianMatrix(data=sp.csr_matrix(m))
        with pytest.raises(es.EigensolverError) as info:
            es.top_eigenpairs(h, n + extra)
        assert str(info.value) == (
            f"requested m = {n + extra} eigenpairs of an n = {n} matrix; "
            f"ARPACK needs 1 <= m < n - 1 = {n - 1}"
        )
        assert es.top_eigenpairs(h, n - 2).values.shape == (n - 2,)  # the most served

    def test_degenerate_subspace_stable_across_seeds(self, monkeypatch):
        # rank-2 projector: the top-2 eigenspace is degenerate; the spanned
        # subspace must agree across start vectors even if bases differ
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((200, 2)))
        m = sp.csr_matrix(q @ q.T)
        h = es.HermitianMatrix(data=m)
        a = es.top_eigenpairs(h, 2).vectors
        start_from_seed(monkeypatch, 99)
        b = es.top_eigenpairs(h, 2).vectors
        assert not np.array_equal(a, b)  # the start did change
        proj_a = a @ a.conj().T
        proj_b = b @ b.conj().T
        assert np.max(np.abs(proj_a - proj_b)) < 1e-6

    def test_complex_degenerate_top_space_is_orthonormal(self):
        # oracle: a complex rank-2 projector q q^H has eigenvalue 1 twice and
        # its top eigenspace is the span of q; ARPACK's non-symmetric driver
        # returned a basis with max |V^H V - I| = 0.52 here
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2)))
        h = es.HermitianMatrix(data=sp.csr_matrix(q @ q.conj().T))
        pairs = es.top_eigenpairs(h, 2)
        v = pairs.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-12
        assert np.allclose(pairs.values, [1.0, 1.0], atol=1e-12)
        assert np.max(np.abs(v @ v.conj().T - q @ q.conj().T)) < 1e-10

    def test_real_input_stays_real(self, monkeypatch):
        # real input takes ARPACK's symmetric driver, and the Rayleigh-Ritz
        # step keeps the vectors real
        dtypes = []
        real_eigsh = es.eigsh

        def recording_eigsh(a, **kwargs):
            dtypes.append(a.dtype)
            return real_eigsh(a, **kwargs)

        monkeypatch.setattr(es, "eigsh", recording_eigsh)
        m = random_hermitian(50, 17, density=0.2).real
        pairs = es.top_eigenpairs(es.HermitianMatrix(data=sp.csr_matrix(m)), 6)
        assert dtypes == [np.float64]
        assert pairs.vectors.dtype == np.float64
        assert not np.any(pairs.vectors.imag)
        assert np.allclose(pairs.values, np.sort(np.linalg.eigvalsh(m))[::-1][:6], atol=1e-9)

    def test_non_orthonormal_basis_breaks_the_contract(self):
        # both columns are exact eigenvectors of eigenvalue 1, so only the
        # orthonormality term can fail: <v0, v1> = 1/sqrt(2)
        m = sp.csr_matrix(np.diag([1.0, 1.0, 0.5, 0.0]))
        vecs = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]).T
        vecs[:, 1] /= np.sqrt(2.0)
        h = es.HermitianMatrix(data=m)
        with pytest.raises(es.EigensolverError) as info:
            es._check_contract(h, np.ones(2), vecs, m @ vecs)
        assert str(info.value) == (
            "orthonormality contract violated: max |V^H V - I| = 7.071e-01 > 1.0e-12"
        )

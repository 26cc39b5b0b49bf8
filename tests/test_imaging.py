import math
import multiprocessing
import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

import image_oracle
import theory_oracle
from mfca import graphs, imaging, pipeline, so3


@pytest.fixture(scope="module")
def phantom():
    return imaging.default_phantom()


def haar(seed, n=1):
    return so3.sample_uniform(seed, n).frames


def _traced(fn):
    """(tracemalloc peak in bytes while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def reference_polar(pixels, extent=imaging.EXTENT):
    """Independent oracle: the polar samples of one (L, L) image on
    [-extent, extent]^2 from scipy's bilinear map_coordinates, the per-image
    resampler image_graph used before its batched gather."""
    L = pixels.shape[0]
    n_r = L // 2
    radii = (np.arange(n_r) + 0.5) * extent / n_r
    angles = 2.0 * np.pi * np.arange(imaging.N_THETA) / imaging.N_THETA
    x = radii[:, None] * np.cos(angles)[None, :]
    y = radii[:, None] * np.sin(angles)[None, :]
    step = 2.0 * extent / (L - 1)
    coords = np.stack([(x + extent) / step, (y + extent) / step])
    polar = map_coordinates(pixels, coords, order=1, mode="constant", cval=0.0)
    return polar, radii


def midpoint_line_integral(phantom, r, s, t, n_steps=4000, span=3.0):
    """Independent oracle: midpoint-rule quadrature of the density along the
    viewing axis through in-plane point (s, t)."""
    e1, e2, e3 = r[:, 0], r[:, 1], r[:, 2]
    zs = (np.arange(n_steps) + 0.5) / n_steps * 2 * span - span
    pts = s * e1 + t * e2 + zs[:, None] * e3
    vals = image_oracle.density(phantom, pts)
    return float(np.sum(vals) * (2 * span / n_steps))


class TestPhantom:
    def test_default_has_six_blobs(self, phantom):
        assert len(phantom.blobs) == 6

    def test_centers_inside_support(self, phantom):
        for c, _, _ in phantom.blobs:
            assert np.linalg.norm(c) <= imaging.SUPPORT_RADIUS

    def test_rejects_center_outside_support(self):
        with pytest.raises(ValueError):
            imaging.Phantom(blobs=(((0.9, 0.0, 0.0), 0.1, 1.0),))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            imaging.Phantom(blobs=(((0.0, 0.0, 0.0), 0.0, 1.0),))

    def test_density_peak_at_center(self):
        p = imaging.Phantom(blobs=(((0.1, 0.2, 0.0), 0.15, 2.0),))
        assert np.isclose(image_oracle.density(p, np.array([0.1, 0.2, 0.0])), 2.0)


class TestProject:
    def test_rejects_even_size(self, phantom):
        with pytest.raises(ValueError):
            imaging.project(phantom, np.eye(3), L=64)

    def test_centered_blob_rotation_invariant(self):
        p = imaging.Phantom(blobs=(((0.0, 0.0, 0.0), 0.2, 1.0),))
        a = imaging.project(p, np.eye(3), L=33)
        b = imaging.project(p, haar(5)[0], L=33)
        assert np.allclose(a, b, atol=1e-12)

    def test_in_plane_rotation_closed_form(self, phantom):
        # I_{x h(alpha)}(p) = I_x(Rot(alpha) p): check on the exact center
        # column of pixels via direct re-evaluation
        r = haar(6)[0]
        alpha = 0.37
        ra = r @ theory_oracle.rot_z(alpha)
        rot = np.array(
            [[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]]
        )
        L = 33
        s = np.linspace(-1.0, 1.0, L)
        img = imaging.project(phantom, ra, L=L)
        for a in (0, 7, 16, 30):
            for b in (3, 16, 29):
                q = rot @ np.array([s[a], s[b]])
                expected = 0.0
                for c, sigma, amp in phantom.blobs:
                    u, v = float(c @ r[:, 0]), float(c @ r[:, 1])
                    expected += (
                        amp
                        * sigma
                        * np.sqrt(2 * np.pi)
                        * np.exp(-((q[0] - u) ** 2 + (q[1] - v) ** 2) / (2 * sigma**2))
                    )
                assert abs(img[a, b] - expected) < 1e-12

    def test_midpoint_quadrature_oracle(self, phantom):
        r = haar(8)[0]
        img = imaging.project(phantom, r, L=17)
        s = np.linspace(-1.0, 1.0, 17)
        for a, b in ((0, 0), (8, 8), (3, 12), (15, 4)):
            ref = midpoint_line_integral(phantom, r, s[a], s[b])
            assert abs(img[a, b] - ref) < 1e-6

    def test_mass_conservation(self):
        # total integral of the projection is independent of the view; the
        # blobs sit well inside the unit ball, so every view fits the grid
        p = imaging.Phantom(
            blobs=(
                ((0.3, -0.2, 0.1), 0.1, 1.0),
                ((-0.25, 0.1, -0.2), 0.08, 0.7),
                ((0.0, 0.2, 0.25), 0.06, 1.3),
            )
        )
        imgs = imaging.project(p, haar(9, 3), L=129)
        masses = np.sum(imgs, axis=(1, 2))
        assert np.ptp(masses) / masses[0] < 1e-6

    @pytest.mark.parametrize("L", [3, 33, 65])
    def test_stack_matches_single_rotations(self, phantom, L):
        frames = haar(40, 50)
        stack = imaging.project(phantom, frames, L=L)
        assert stack.shape == (50, L, L)
        for r, img in zip(frames, stack):
            assert np.array_equal(img, imaging.project(phantom, r, L=L))
        nested = imaging.project(phantom, frames.reshape(5, 10, 3, 3), L=L)
        assert np.array_equal(nested.reshape(stack.shape), stack)

    def test_chunks_match_one_chunk(self, phantom, monkeypatch):
        frames = haar(41, 50)
        whole = imaging.project(phantom, frames, L=17)
        # chunks of 7 frames leave a one-frame last chunk
        monkeypatch.setattr(graphs, "WORK_BYTES", 7 * 2 * 8 * 17 * 17)
        assert np.array_equal(imaging.project(phantom, frames, L=17), whole)

    @pytest.mark.parametrize("n", [300, 600])
    def test_memory_within_the_budget(self, phantom, monkeypatch, n):
        # the whole stack at once held two stack-sized temporaries per blob
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**21)
        frames = haar(42, n)
        peak, out = _traced(lambda: imaging.project(phantom, frames, L=65))
        assert peak - out.nbytes < 2 * graphs.WORK_BYTES


class TestAddNoise:
    def test_high_snr_is_near_clean(self, phantom):
        img = imaging.project(phantom, np.eye(3), L=33)
        noisy = imaging.add_noise(img, 1e12, 0)
        assert np.max(np.abs(noisy - img)) < 1e-4

    def test_noise_variance(self, phantom):
        img = imaging.project(phantom, np.eye(3), L=65)
        snr = 2.0
        target = np.var(img) / snr
        samples = [
            np.var(imaging.add_noise(img, snr, seed) - img)
            for seed in range(30)
        ]
        assert abs(np.mean(samples) - target) / target < 0.05

    def test_deterministic(self, phantom):
        img = imaging.project(phantom, np.eye(3), L=33)
        a = imaging.add_noise(img, 1.0, 3)
        b = imaging.add_noise(img, 1.0, 3)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_snr(self, phantom):
        img = imaging.project(phantom, np.eye(3), L=33)
        with pytest.raises(ValueError):
            imaging.add_noise(img, 0.0, 0)


class TestPolarResample:
    def test_shapes(self, phantom):
        img = imaging.project(phantom, np.eye(3), L=65)
        polar, radii = imaging.polar_resample([img])
        assert polar.shape == (1, 32, 360)
        assert radii.shape == (32,)
        assert np.all(np.diff(radii) > 0)

    def test_radially_symmetric_image(self):
        p = imaging.Phantom(blobs=(((0.0, 0.0, 0.0), 0.25, 1.0),))
        img = imaging.project(p, np.eye(3), L=129)
        polar, _ = imaging.polar_resample([img])
        assert np.max(np.std(polar[0], axis=1)) < 2e-4

    @pytest.mark.parametrize("extent", [imaging.EXTENT])
    @pytest.mark.parametrize("L", [3, 5, 33, 65])
    def test_matches_map_coordinates(self, phantom, L, extent):
        clean = imaging.project(phantom, haar(30, 5), L=L)
        imgs = np.array([imaging.add_noise(img, 4.0, s) for s, img in enumerate(clean)])
        polar, radii = imaging.polar_resample(imgs)
        for img, got in zip(imgs, polar):
            ref, ref_radii = reference_polar(img, extent)
            assert np.array_equal(got, ref)
            assert np.array_equal(radii, ref_radii)

    def test_negative_zero_pixels_sample_as_zero(self):
        # map_coordinates sums the corners from 0.0, so -0.0 pixels give +0.0
        img = np.full((9, 9), -0.0)
        polar, _ = imaging.polar_resample([img])
        ref, _ = reference_polar(img)
        assert np.array_equal(np.signbit(polar[0]), np.signbit(ref))
        assert not np.any(np.signbit(polar))

    @pytest.mark.parametrize("L", [3, 33, 65])
    def test_matches_fancy_index_gather(self, phantom, L):
        # one corner buffer, reused, must give the bytes of a new gathered
        # array per corner; -0.0 pixels sample as +0.0 in both
        clean = imaging.project(phantom, haar(32, 6), L=L)
        imgs = np.array([imaging.add_noise(img, 4.0, s) for s, img in enumerate(clean)])
        imgs[0, : L // 2] = -0.0
        imgs[-1] = -0.0
        polar, _ = imaging.polar_resample(imgs)
        assert polar.tobytes() == image_oracle.fancy_index_polar(imgs).tobytes()
        assert not np.any(np.signbit(polar[-1]))

    @pytest.mark.parametrize("L", [3, 33, 65])
    def test_spectra_chunks_match_per_image_reference(self, phantom, monkeypatch, L):
        # chunks of 3 images over 7 leave one image, folded into the last
        # chunk, since row_blocks never makes a one-row block
        clean = imaging.project(phantom, haar(31, 7), L=L)
        imgs = np.array([imaging.add_noise(img, 8.0, s) for s, img in enumerate(clean)])
        # per image: two float64 polar arrays and two complex spectra
        n_m = imaging.N_THETA // 2 + 1
        per_image = (L // 2) * (2 * 8 * imaging.N_THETA + 2 * 16 * n_m)
        monkeypatch.setattr(graphs, "WORK_BYTES", 3 * per_image)
        chunks = []
        resample = imaging.polar_resample
        monkeypatch.setattr(
            imaging, "polar_resample", lambda chunk: chunks.append(len(chunk)) or resample(chunk)
        )
        spectra, radii, weights = image_oracle.spectra(imgs)
        assert chunks == [3, 4]
        for idx, img in enumerate(imgs):
            ref, ref_radii = reference_polar(img)
            assert np.array_equal(radii, ref_radii)
            assert np.array_equal(spectra[:, :, idx], np.conj(np.fft.rfft(ref, axis=1)).T)
            assert weights[idx] == np.sum(ref_radii[:, None] * ref**2)

    @pytest.mark.parametrize("n", [300, 600])
    def test_spectra_memory_within_the_budget(self, phantom, monkeypatch, n):
        # above the spectra and weights, one chunk of images and the fixed
        # polar grid (about 1 MB at L = 65)
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**21)
        imgs = imaging.project(phantom, haar(43, n), L=65)
        peak, (spectra, _, weights) = _traced(lambda: image_oracle.spectra(imgs))
        assert peak - spectra.nbytes - weights.nbytes < 2 * graphs.WORK_BYTES


class TestRidDistance:
    def test_identical_images(self, phantom):
        img = imaging.project(phantom, haar(10)[0])
        d, theta = image_oracle.rid_distance(img, img)
        assert d < 1e-10
        assert theta == 0.0

    def test_in_plane_pair_recovers_angle(self, phantom):
        r = haar(11)[0]
        alpha = 2 * np.pi * 50 / 360
        a = imaging.project(phantom, r)
        b = imaging.project(phantom, r @ theory_oracle.rot_z(alpha))
        d, theta = image_oracle.rid_distance(a, b)
        assert d < 0.05 * np.linalg.norm(a)
        diff = abs((theta - alpha + np.pi) % (2 * np.pi) - np.pi)
        assert diff < np.radians(1.1)

    def test_angle_antisymmetry_within_bin(self, phantom):
        a = imaging.project(phantom, haar(12)[0])
        b = imaging.project(phantom, haar(13)[0])
        _, tij = image_oracle.rid_distance(a, b)
        _, tji = image_oracle.rid_distance(b, a)
        diff = abs((tij + tji + np.pi) % (2 * np.pi) - np.pi)
        assert diff < 2 * np.pi / 360 + 1e-9

    def test_distance_symmetry(self, phantom):
        a = imaging.project(phantom, haar(14)[0])
        b = imaging.project(phantom, haar(15)[0])
        dij, _ = image_oracle.rid_distance(a, b)
        dji, _ = image_oracle.rid_distance(b, a)
        assert abs(dij - dji) < 1e-9

    def test_rejects_size_mismatch(self, phantom):
        a = imaging.project(phantom, np.eye(3), L=33)
        b = imaging.project(phantom, np.eye(3), L=65)
        with pytest.raises(ValueError, match="one size, got 33x33, 65x65"):
            image_oracle.rid_distance(a, b)


def _per_row_alignment(coeffs, energies):
    """Distances and shifts of every pair i < j in row-major order, one row
    at a time against every image: the reference for _align_pairs' tiles.
    Each row is aligned in a block of two rows, since numpy computes a
    one-row product with BLAS gemv, which rounds unlike gemm."""
    n = coeffs.shape[2]
    dist, shift = [], []
    for i in range(n - 1):
        d, s = imaging._align_tile(coeffs, energies, slice(i, i + 2), slice(0, n))
        dist.append(d[0, i + 1 :])
        shift.append(s[0, i + 1 :])
    return np.concatenate(dist), np.concatenate(shift)


class TestAlignTile:
    @pytest.mark.parametrize("n_cols", [7, 8])
    @pytest.mark.parametrize("n_m", [1, 13, 61, imaging.N_M])
    def test_matches_frequency_first_tile(self, n_m, n_cols):
        # the frequency-last layout runs the same GEMM, inverse FFT and
        # argmax on each pair: a numpy whose FFT rounds differently by
        # memory layout fails here
        rng = np.random.default_rng(n_m + n_cols)
        coeffs = rng.standard_normal((n_m, 6, 20))
        energies = np.sum(coeffs**2, axis=(0, 1)) * 2.0 / imaging.N_THETA
        rows, cols = slice(2, 7), slice(9, 9 + n_cols)
        dist, shifts = imaging._align_tile(coeffs, energies, rows, cols)
        ref_dist, ref_shifts = image_oracle.frequency_first_tile(coeffs, energies, rows, cols)
        assert np.all(dist > 0)
        assert dist.tobytes() == ref_dist.tobytes()
        assert shifts.tobytes() == ref_shifts.tobytes()


def _graph_from_pairs(flat, shift, n, edge_fraction):
    """image_graph's quantile rule over row-major pair distances."""
    kept = np.flatnonzero(flat <= np.quantile(flat, edge_fraction))
    ei, ej = graphs.upper_pairs(kept, n)
    return ei, ej, 2.0 * np.pi * shift[kept] / imaging.N_THETA


@pytest.fixture(scope="module")
def setup(phantom):
    fs = so3.sample_uniform(20, 80)
    return fs, imaging.project(phantom, fs.frames, L=33)


@pytest.fixture(scope="module")
def noisy(setup):
    """The 80 images of `setup` at SNR 8, their basis and coefficients."""
    _, clean = setup
    imgs = np.array([imaging.add_noise(img, 8.0, s) for s, img in enumerate(clean)])
    basis = imaging.image_basis(imgs)
    coeffs, energies = imaging._coefficients(imgs, basis)
    return imgs, basis, coeffs, energies


class TestImageBasis:
    def test_noise_gram_matches_white_noise_images(self):
        # Monte Carlo oracle: unit white-noise images through polar_resample
        # and rfft; 4000 samples leave about 2% sampling error per entry
        L, count = 9, 4000
        noise = np.random.default_rng(0).standard_normal((count, L, L))
        polar, radii = imaging.polar_resample(noise)
        z = np.conj(np.fft.rfft(polar, axis=-1)) * np.sqrt(radii)[:, None]
        sample = np.einsum("irm,ism->mrs", z, np.conj(z)) / count
        exact = imaging._noise_gram(L)
        scale = np.max(np.abs(exact), axis=(1, 2))
        assert np.max(np.abs(sample - exact).max(axis=(1, 2)) / scale) < 0.1
        assert np.allclose(exact, np.conj(exact.transpose(0, 2, 1)))

    def test_white_noise_keeps_nothing(self):
        # pure noise of known sigma: sigma-hat within 5%, and no component
        # rises above the noise edge at any frequency
        sigma = 0.7
        imgs = sigma * np.random.default_rng(1).standard_normal((300, 33, 33))
        basis = imaging.image_basis(imgs)
        assert abs(basis.sigma - sigma) < 0.05 * sigma
        assert basis.ranks == [0]
        assert basis.summary() == {
            "sigma": basis.sigma, "m_max": 0, "n_coefficients": 0, "ranks": [0],
        }
        # with no coefficients every distance is 0 and every shift 0
        flat, shift = imaging._align_pairs(*imaging._coefficients(imgs[:6], basis))
        assert not flat.any() and not shift.any()

    def test_bases_are_orthonormal(self, noisy):
        _, basis, _, _ = noisy
        assert basis.ranks[-1] > 0
        for u in basis.vectors:
            assert np.allclose(np.conj(u).T @ u, np.eye(u.shape[1]), atol=1e-12)

    def test_full_rank_matches_full_band(self, noisy, monkeypatch):
        # with every rank kept the coefficients are a unitary change of
        # basis per frequency, so distances and shifts are the full-band ones
        imgs = noisy[0]
        monkeypatch.setattr(imaging, "_noise_edge", lambda n, p: -np.inf)
        basis = imaging.image_basis(imgs)
        assert basis.ranks == [16] * imaging.N_M
        flat, shift = imaging._align_pairs(*imaging._coefficients(imgs, basis))
        dist, ref_shift = image_oracle.full_band_distances(imgs)
        iu, ju = np.triu_indices(len(imgs), k=1)
        np.testing.assert_allclose(flat, dist[iu, ju], rtol=1e-10, atol=0.0)
        # a shift may differ only where the full-band correlation ties
        for p in np.flatnonzero(shift != ref_shift[iu, ju]):
            i, j = iu[p], ju[p]
            spec, radii, _ = image_oracle.spectra(imgs[[i, j]])
            cross = np.sum(np.conj(spec[:, :, 0]) * radii * spec[:, :, 1], axis=1)
            corr = np.fft.irfft(cross, n=imaging.N_THETA)
            assert corr[shift[p]] == pytest.approx(corr[ref_shift[i, j]], rel=1e-10)


class TestCoefficients:
    @pytest.mark.parametrize("snr, m_max", [(4.0, 9), (None, imaging.N_M - 1)])
    def test_band_limited_chunks_match_full_band(self, phantom, snr, m_max):
        # pass 2 conjugates, scales and copies only the frequencies up to
        # m_max, which must leave the bytes of the full-band spectra's rows
        imgs = imaging.project(phantom, haar(47, 60), L=65)
        if snr is not None:
            imgs = np.array([imaging.add_noise(img, snr, s) for s, img in enumerate(imgs)])
        basis = imaging.image_basis(imgs)
        assert len(basis.ranks) == m_max + 1
        basis_h = np.zeros((m_max + 1, max(basis.ranks), imgs.shape[1] // 2), dtype=complex)
        for m, u in enumerate(basis.vectors):
            basis_h[m, : u.shape[1]] = np.conj(u).T
        width = basis_h.shape[1]
        coeffs = imaging._coefficients(imgs, basis)[0]
        for lo, hi, z in imaging._angular_spectra(imgs):
            assert z.shape[0] == imaging.N_M
            want = basis_h @ z[: m_max + 1]
            assert coeffs[:, :width, lo:hi].tobytes() == want.real.tobytes()
            assert coeffs[:, width:, lo:hi].tobytes() == want.imag.tobytes()


class TestImageGraph:
    def test_edge_fraction_calibration(self, setup):
        _, imgs = setup
        g, _ = imaging.image_graph(imgs, edge_fraction=0.1)
        total = 80 * 79 // 2
        assert abs(g.n_edges - 0.1 * total) <= 0.02 * total

    def test_matches_geometric_graph(self, setup):
        fs, imgs = setup
        g_true = graphs.clean_graph(fs, 0.9)
        frac = g_true.n_edges / (80 * 79 / 2)
        g_img, _ = imaging.image_graph(imgs, edge_fraction=frac)
        true_set = set(zip(g_true.edge_i.tolist(), g_true.edge_j.tolist()))
        img_set = set(zip(g_img.edge_i.tolist(), g_img.edge_j.tolist()))
        assert len(true_set & img_set) / len(true_set) > 0.6

    def test_edges_match_pairwise_distance(self, noisy):
        # every pair is an edge, with the per-row loop's angle
        imgs, basis, coeffs, energies = noisy
        g, got = imaging.image_graph(imgs, edge_fraction=1.0)
        assert got.summary() == basis.summary()
        assert all(np.array_equal(a, b) for a, b in zip(got.vectors, basis.vectors))
        assert g.n_edges == 80 * 79 // 2
        _, shift = _per_row_alignment(coeffs, energies)
        assert np.array_equal(g.theta, 2.0 * np.pi * shift / imaging.N_THETA)

    def test_matches_per_row_reference(self, noisy):
        imgs, _, coeffs, energies = noisy
        ei, ej, theta = _graph_from_pairs(*_per_row_alignment(coeffs, energies), 80, 0.1)
        g, _ = imaging.image_graph(imgs, edge_fraction=0.1)
        assert ei.size > 0
        assert np.array_equal(g.edge_i, ei)
        assert np.array_equal(g.edge_j, ej)
        assert np.array_equal(g.theta, theta)

    @pytest.mark.parametrize("side", [1, 5, 6])
    def test_row_blocks_match_reference(self, noisy, monkeypatch, side):
        # tiles of about side x side pairs: side 1 gets 2 x 2 tiles, never
        # one row or column; 79 rows in blocks of 5 leave a 4-row last
        # block, in blocks of 6 a one-row block that is folded in, and the
        # columns of each block run in tiles with a short last one folded
        _, _, coeffs, energies = noisy
        monkeypatch.setattr(graphs, "WORK_BYTES", side * side * imaging._PAIR_BYTES)
        flat, shift = imaging._align_pairs(coeffs, energies)
        ref_flat, ref_shift = _per_row_alignment(coeffs, energies)
        assert np.array_equal(flat, ref_flat)
        assert np.array_equal(shift, ref_shift)

    def test_memory_is_row_blocked(self, phantom, monkeypatch):
        # the per-row loop with n x n distance and angle arrays peaked at
        # 118 MB here, the row-blocked full-band kernel at about 71 MB, and
        # the tiles over the compressed coefficients at about 27 MB.  This
        # and the next three tests run in this process, where tracemalloc
        # sees every tile, on the code each forked worker runs
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        imgs = imaging.project(phantom, haar(3, 800), L=33)
        tracemalloc.start()
        try:
            imaging.image_graph(imgs, edge_fraction=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90 * 2**20

    def test_per_pair_memory(self, phantom, monkeypatch):
        # with small alignment tiles the per-pair arrays set the peak:
        # float64 distances and int16 shifts, shared_empty's and out of
        # tracemalloc's sight, and the quantile's copy of the distances and
        # its mask, traced at about 8 bytes a pair here; with the vectors
        # traced this took about 18, and int64 shifts and np.triu_indices
        # about 35
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**20)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        n = 2000
        imgs = imaging.project(phantom, haar(3, n), L=5)
        tracemalloc.start()
        try:
            imaging.image_graph(imgs, edge_fraction=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * (n - 1) // 2

    @pytest.mark.parametrize("n", [300, 600])
    def test_memory_within_the_budget(self, phantom, monkeypatch, n):
        # The coefficients and the per-pair vectors are shared_empty's,
        # out of tracemalloc's sight.  What is left: one tile of pairs or
        # one chunk of images, above image_basis's two Gram stacks, G_m and
        # N_m (N_M x 32 x 32 complex, 3 MB each at L = 65).  The quantile's
        # copy of the distances and its mask, 9 bytes a pair, come once the
        # basis is freed, and stay below that.  This measured 2.57 and 2.69
        # WORK_BYTES, against a bound of 3.41.
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**22)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        imgs = imaging.project(phantom, haar(44, n), L=65)
        gram = 16 * imaging.N_M * (65 // 2) ** 2
        peak, _ = _traced(lambda: imaging.image_graph(imgs, edge_fraction=0.05))
        assert peak < 2 * graphs.WORK_BYTES + 2 * gram

    @pytest.mark.parametrize("n", [800, 1000])
    def test_memory_is_column_tiled(self, phantom, monkeypatch, n):
        # one row of pairs alone takes n x 5,792 bytes of temporaries, more
        # than the default budget from n = 725 on and more than twice this
        # budget at these n: the tiles must split the columns as well.  The
        # coefficients and the triangle vectors are shared_empty's, out of
        # tracemalloc's sight; this measured 1.1 WORK_BYTES
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**20)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        imgs = imaging.project(phantom, haar(45, n), L=5)

        def align():
            basis = imaging.image_basis(imgs)
            return imaging._align_pairs(*imaging._coefficients(imgs, basis))

        peak, _ = _traced(align)
        assert peak < 2 * graphs.WORK_BYTES

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_parent_memory_with_workers(self, phantom, monkeypatch, cpus):
        # The workers write each block's stretch into the triangle vectors,
        # which are shared_empty's and out of tracemalloc's sight, and
        # return nothing, so the parent holds no task's result: only the
        # pool's bookkeeping, a future and a work item for each of the 77
        # row blocks, all submitted at once and measured at 2.5 KB a task.
        # The first block's 12,909 pairs alone would take 129 KB, at 10
        # bytes a pair.  The process pool is imported first, so the trace
        # sees the map.
        import concurrent.futures.process  # noqa: F401

        monkeypatch.setattr(graphs, "WORK_BYTES", 2**20)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        n = 1000
        imgs = imaging.project(phantom, haar(46, n), L=5)
        coeffs, energies = imaging._coefficients(imgs, imaging.image_basis(imgs))
        side = math.isqrt(graphs.WORK_BYTES // imaging._PAIR_BYTES)
        blocks = list(graphs.row_blocks(n - 1, side * imaging._PAIR_BYTES))
        assert len(blocks) == 77
        assert graphs.triangle_start(blocks[0][1], n) == 12_909
        peak, _ = _traced(lambda: imaging._align_pairs(coeffs, energies))
        assert peak < 4096 * len(blocks)
        assert multiprocessing.active_children() == []

    def test_same_bytes_on_any_worker_count(self, noisy, monkeypatch):
        # 6-row alignment blocks make 13 tasks, so each worker count shares
        # them out differently; the coefficients, in 2-image chunks, are
        # computed in this process on any worker count
        imgs = noisy[0]
        monkeypatch.setattr(graphs, "WORK_BYTES", 36 * imaging._PAIR_BYTES)
        assert len(list(imaging._angular_spectra(imgs))) == 40
        side = math.isqrt(graphs.WORK_BYTES // imaging._PAIR_BYTES)
        assert len(list(graphs.row_blocks(len(imgs) - 1, side * imaging._PAIR_BYTES))) == 13
        got = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
            coeffs, energies = imaging._coefficients(imgs, noisy[1])
            g, _ = imaging.image_graph(imgs, edge_fraction=0.1)
            got[cpus] = [a.tobytes() for a in (coeffs, energies, g.edge_i, g.edge_j, g.theta)]
        assert got[1] == got[2] == got[3]
        assert multiprocessing.active_children() == []

    def test_both_passes_run_where_polar_resample_is_wrapped(self, noisy, monkeypatch):
        # a wrapper of polar_resample, as a profiler installs, must see every
        # chunk of both passes over the images, the basis's and the
        # coefficients', even when the alignment forks
        imgs = noisy[0]
        sizes = [hi - lo for lo, hi, _ in imaging._angular_spectra(imgs)]
        calls = []
        resample = imaging.polar_resample

        def counted(chunk):
            calls.append(len(chunk))
            return resample(chunk)

        monkeypatch.setattr(imaging, "polar_resample", counted)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
        imaging.image_graph(imgs, edge_fraction=0.1)
        assert calls == sizes + sizes
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
    def test_rejects_edge_fraction_outside_unit_interval(self, setup, frac):
        # a zero quantile would still keep the closest pair as one edge
        _, imgs = setup
        with pytest.raises(ValueError, match="edge_fraction"):
            imaging.image_graph(imgs, edge_fraction=frac)

    def test_rejects_single_image(self, setup):
        _, imgs = setup
        with pytest.raises(ValueError):
            imaging.image_graph(imgs[:1], edge_fraction=0.5)


class TestSaveLoad:
    def test_round_trip_bitwise(self, phantom, tmp_path):
        imgs = imaging.project(phantom, haar(21, 4), L=17)
        path = tmp_path / "imgs.bin"
        imaging.save_images(path, imgs)
        back = image_oracle.load_images(path)
        assert back.shape == (4, 17, 17)
        assert np.array_equal(back, imgs)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(ValueError):
            image_oracle.load_images(path)

    def test_truncated_payload(self, phantom, tmp_path):
        imgs = [imaging.project(phantom, np.eye(3), L=17)]
        path = tmp_path / "imgs.bin"
        imaging.save_images(path, imgs)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            image_oracle.load_images(path)

    def test_rejects_mixed_sizes(self, phantom, tmp_path):
        path = tmp_path / "mixed.bin"
        with open(path, "wb") as fh:
            for L in (17, 17, 9):
                img = imaging.project(phantom, np.eye(3), L=L)
                fh.write(struct.pack("<II", L, L) + img.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: image 2 is 9x9")):
            image_oracle.load_images(path)

    @pytest.mark.parametrize("h, w", [(16, 16), (17, 15)])
    def test_rejects_even_or_non_square(self, tmp_path, h, w):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<II", h, w) + np.zeros(h * w).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: image 0 is {h}x{w}")):
            image_oracle.load_images(path)


class TestStackCheck:
    @pytest.mark.parametrize("shape", [(3, 9, 9, 1), (9, 9), (3, 9, 7), (3, 8, 8)])
    def test_rejects_shape(self, shape):
        for fn in (imaging.polar_resample, imaging.image_basis):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                fn(np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            imaging.image_graph(np.zeros(shape), edge_fraction=0.5)

    def test_rejects_ragged_list(self, phantom):
        # numpy's own error for a ragged list names neither size
        a = imaging.project(phantom, np.eye(3), L=9)
        b = imaging.project(phantom, np.eye(3), L=7)
        with pytest.raises(ValueError, match="one size, got 7x7, 9x9"):
            imaging.image_graph([a, b, a], edge_fraction=0.5)

    def test_list_and_stack_agree(self, setup):
        _, imgs = setup
        a, _ = imaging.image_graph(imgs[:20], edge_fraction=0.2)
        b, _ = imaging.image_graph(list(imgs[:20]), edge_fraction=0.2)
        assert np.array_equal(a.edge_i, b.edge_i)
        assert np.array_equal(a.edge_j, b.edge_j)
        assert np.array_equal(a.theta, b.theta)

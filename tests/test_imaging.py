import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from mfca import graphs, imaging, so3


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
    vals = phantom.density(pts)
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
        assert np.isclose(p.density(np.array([0.1, 0.2, 0.0])), 2.0)


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
        ra = r @ so3.in_plane(alpha)
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
    def test_spectra_chunks_match_per_image_reference(self, phantom, monkeypatch, L):
        # chunks of 3 images over 7 leave a one-image last chunk
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
        spectra, radii, weights = imaging._spectra(imgs)
        assert chunks == [3, 3, 1]
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
        peak, (spectra, _, weights) = _traced(lambda: imaging._spectra(imgs))
        assert peak - spectra.nbytes - weights.nbytes < 2 * graphs.WORK_BYTES


class TestRidDistance:
    def test_identical_images(self, phantom):
        img = imaging.project(phantom, haar(10)[0])
        d, theta = imaging.rid_distance(img, img)
        assert d < 1e-10
        assert theta == 0.0

    def test_in_plane_pair_recovers_angle(self, phantom):
        r = haar(11)[0]
        alpha = 2 * np.pi * 50 / 360
        a = imaging.project(phantom, r)
        b = imaging.project(phantom, r @ so3.in_plane(alpha))
        d, theta = imaging.rid_distance(a, b)
        assert d < 0.05 * np.linalg.norm(a)
        diff = abs((theta - alpha + np.pi) % (2 * np.pi) - np.pi)
        assert diff < np.radians(1.1)

    def test_angle_antisymmetry_within_bin(self, phantom):
        a = imaging.project(phantom, haar(12)[0])
        b = imaging.project(phantom, haar(13)[0])
        _, tij = imaging.rid_distance(a, b)
        _, tji = imaging.rid_distance(b, a)
        diff = abs((tij + tji + np.pi) % (2 * np.pi) - np.pi)
        assert diff < 2 * np.pi / 360 + 1e-9

    def test_distance_symmetry(self, phantom):
        a = imaging.project(phantom, haar(14)[0])
        b = imaging.project(phantom, haar(15)[0])
        dij, _ = imaging.rid_distance(a, b)
        dji, _ = imaging.rid_distance(b, a)
        assert abs(dij - dji) < 1e-9

    def test_rejects_size_mismatch(self, phantom):
        a = imaging.project(phantom, np.eye(3), L=33)
        b = imaging.project(phantom, np.eye(3), L=65)
        with pytest.raises(ValueError, match="one size, got 33x33, 65x65"):
            imaging.rid_distance(a, b)


def _reference_distances(images):
    """Pairwise distances and alignment angles from a per-row elementwise
    cross-power sum: the alignment loop image_graph used before its
    batched kernel."""
    n = len(images)
    n_theta = imaging.N_THETA
    ffts, weights = [], []
    radii = None
    for img in images:
        polar, radii = reference_polar(img)
        ffts.append(np.fft.rfft(polar, axis=1))
        weights.append(float(np.sum(radii[:, None] * polar**2)))
    ffts = np.array(ffts)
    weights = np.array(weights)
    rw = radii[:, None]
    dist = np.zeros((n, n))
    theta = np.zeros((n, n))
    for i in range(n - 1):
        cross = np.fft.irfft(
            np.sum(rw[None] * ffts[i][None] * np.conj(ffts[i + 1 :]), axis=1),
            n=n_theta,
            axis=1,
        )
        shifts = np.argmax(cross, axis=1)
        best = cross[np.arange(cross.shape[0]), shifts]
        d2 = np.maximum(weights[i] + weights[i + 1 :] - 2.0 * best, 0.0)
        dist[i, i + 1 :] = np.sqrt(d2)
        theta[i, i + 1 :] = 2.0 * np.pi * shifts / n_theta
    return dist + dist.T, theta


def _reference_image_graph(images, edge_fraction):
    """image_graph's quantile rule over the reference distances."""
    n = len(images)
    dist, theta = _reference_distances(images)
    iu, ju = np.triu_indices(n, k=1)
    flat = dist[iu, ju]
    mask = flat <= np.quantile(flat, edge_fraction)
    ei, ej = iu[mask], ju[mask]
    return graphs.ObservationGraph(
        n_vertices=n,
        edge_i=ei,
        edge_j=ej,
        theta=theta[ei, ej],
        kind=np.zeros(ei.size, dtype=np.int8),
    )


@pytest.fixture(scope="module")
def setup(phantom):
    fs = so3.sample_uniform(20, 80)
    return fs, imaging.project(phantom, fs.frames, L=33)


class TestImageGraph:
    def test_edge_fraction_calibration(self, setup):
        _, imgs = setup
        g = imaging.image_graph(imgs, edge_fraction=0.1)
        total = 80 * 79 // 2
        assert abs(g.n_edges - 0.1 * total) <= 0.02 * total

    def test_matches_geometric_graph(self, setup):
        fs, imgs = setup
        g_true = graphs.clean_graph(fs, 0.9)
        frac = g_true.n_edges / (80 * 79 / 2)
        g_img = imaging.image_graph(imgs, edge_fraction=frac)
        true_set = set(zip(g_true.edge_i.tolist(), g_true.edge_j.tolist()))
        img_set = set(zip(g_img.edge_i.tolist(), g_img.edge_j.tolist()))
        assert len(true_set & img_set) / len(true_set) > 0.6

    def test_edges_match_pairwise_distance(self, setup):
        _, imgs = setup
        g = imaging.image_graph(imgs, edge_fraction=1.0)
        assert g.n_edges == 80 * 79 // 2
        dist, _ = _reference_distances(imgs)
        for e, (i, j) in enumerate(zip(g.edge_i.tolist(), g.edge_j.tolist())):
            d, theta = imaging.rid_distance(imgs[i], imgs[j])
            assert theta == g.theta[e]
            assert np.isclose(d, dist[i, j], rtol=1e-12, atol=0.0)

    def test_matches_per_row_reference(self, setup):
        _, imgs = setup
        ref = _reference_image_graph(imgs, 0.1)
        g = imaging.image_graph(imgs, edge_fraction=0.1)
        assert ref.n_edges > 0
        assert np.array_equal(g.edge_i, ref.edge_i)
        assert np.array_equal(g.edge_j, ref.edge_j)
        assert np.array_equal(g.theta, ref.theta)

    @pytest.mark.parametrize("rows", [1, 5, 6])
    def test_row_blocks_match_reference(self, setup, monkeypatch, rows):
        # 79 rows hold pairs: blocks of 5 leave a 4-row last block, blocks
        # of 6 a one-row last block
        _, imgs = setup
        monkeypatch.setattr(graphs, "WORK_BYTES", rows * 80 * imaging._PAIR_BYTES)
        ref = _reference_image_graph(imgs, 0.1)
        g = imaging.image_graph(imgs, edge_fraction=0.1)
        assert np.array_equal(g.edge_i, ref.edge_i)
        assert np.array_equal(g.edge_j, ref.edge_j)
        assert np.array_equal(g.theta, ref.theta)

    def test_memory_is_row_blocked(self, phantom):
        # the per-row loop with n x n distance and angle arrays peaks at
        # 118 MB here; the row-blocked kernel at about 71 MB
        imgs = imaging.project(phantom, haar(3, 800), L=33)
        tracemalloc.start()
        try:
            imaging.image_graph(imgs, edge_fraction=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90 * 2**20

    def test_per_pair_memory(self, phantom, monkeypatch):
        # with small alignment blocks the per-pair arrays set the peak:
        # float64 distances, int16 shifts and the quantile's copy of the
        # distances, about 21 bytes a pair here; int64 shifts and
        # np.triu_indices took about 35
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**20)  # one row a block
        n = 2000
        imgs = imaging.project(phantom, haar(3, n), L=5)
        tracemalloc.start()
        try:
            imaging.image_graph(imgs, edge_fraction=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 27 * n * (n - 1) // 2

    @pytest.mark.parametrize("n", [300, 600])
    def test_memory_within_the_budget(self, phantom, monkeypatch, n):
        # above the spectra and the per-pair arrays (float64 distances,
        # int16 shifts, the quantile's copy), one block of rows: two rows
        # at n = 300, one at n = 600
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**22)
        imgs = imaging.project(phantom, haar(44, n), L=65)
        spectra = imaging._spectra(imgs)[0].nbytes
        peak, _ = _traced(lambda: imaging.image_graph(imgs, edge_fraction=0.05))
        assert peak - spectra - 26 * n * (n - 1) // 2 < 2 * graphs.WORK_BYTES

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
        back = imaging.load_images(path)
        assert back.shape == (4, 17, 17)
        assert np.array_equal(back, imgs)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(ValueError):
            imaging.load_images(path)

    def test_truncated_payload(self, phantom, tmp_path):
        imgs = [imaging.project(phantom, np.eye(3), L=17)]
        path = tmp_path / "imgs.bin"
        imaging.save_images(path, imgs)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            imaging.load_images(path)

    def test_rejects_mixed_sizes(self, phantom, tmp_path):
        path = tmp_path / "mixed.bin"
        with open(path, "wb") as fh:
            for L in (17, 17, 9):
                img = imaging.project(phantom, np.eye(3), L=L)
                fh.write(struct.pack("<II", L, L) + img.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: image 2 is 9x9")):
            imaging.load_images(path)

    @pytest.mark.parametrize("h, w", [(16, 16), (17, 15)])
    def test_rejects_even_or_non_square(self, tmp_path, h, w):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<II", h, w) + np.zeros(h * w).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: image 0 is {h}x{w}")):
            imaging.load_images(path)


class TestStackCheck:
    @pytest.mark.parametrize("shape", [(3, 9, 9, 1), (9, 9), (3, 9, 7), (3, 8, 8)])
    def test_rejects_shape(self, shape):
        for fn in (imaging.polar_resample, imaging._spectra):
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
        a = imaging.image_graph(imgs[:20], edge_fraction=0.2)
        b = imaging.image_graph(list(imgs[:20]), edge_fraction=0.2)
        assert np.array_equal(a.edge_i, b.edge_i)
        assert np.array_equal(a.edge_j, b.edge_j)
        assert np.array_equal(a.theta, b.theta)

"""Acceptance gate: nine numbered criteria, each printing one PASS/FAIL line.

Criteria 1-4 are exact-math checks with runtime budgets; 5-8 are fixed-seed
statistical experiments; 9 bundles the structural invariants.

MFCA is consistent: its spectral and affinity limits hold as N -> infinity,
with no promised rate at a given N. Criteria 5 and 6 therefore assert their
bounds at N=16000 and that every frequency improves from N=2000 to N=16000.
Criterion 8 compares the image graph with the graph of the exact rotationally
invariant distance, computed in closed form from the phantom's blobs: a RID
ball is not a spherical cap for this phantom, so at the geometric graph's edge
fraction even the exact-RID graph misses about 8% of its edges, whatever the
image resolution.
"""

import time

import numpy as np
import pytest

import theory_oracle
from mfca import eigensolver as es
from mfca import graphs, imaging, pipeline, so3, spectral, wigner


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def desk_frames():
    return so3.sample_uniform(0, 2000)


@pytest.fixture(scope="module")
def desk_clean(desk_frames):
    return graphs.clean_graph(desk_frames, 0.95)


@pytest.fixture(scope="module")
def large_frames():
    return so3.sample_uniform(0, 16000)


@pytest.fixture(scope="module")
def large_clean(large_frames):
    return graphs.clean_graph(large_frames, 0.95)


def test_criterion_1_analytic_quadrature_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 6):
        for n in range(k, k + 11):
            for h in (0.05, 0.2, 1.0, 2.0):
                exact = theory_oracle.lambda_analytic(n, k, h)
                worst = max(worst, abs(exact - spectral.lambda_quadrature(n, k, h)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(
        1,
        "analytic-quadrature eigenvalue equivalence",
        ok,
        f"max |diff| = {worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_closed_forms_and_gap():
    t0 = time.perf_counter()
    worst_poly = 0.0
    for h in np.linspace(0.05, 2.0, 20):
        worst_poly = max(
            worst_poly,
            abs(theory_oracle.lambda_analytic(1, 1, h) - (h / 2 - h**2 / 8)),
            abs(theory_oracle.lambda_analytic(2, 1, h) - (h / 2 - 5 * h**2 / 8 + h**3 / 6)),
            abs(
                theory_oracle.lambda_analytic(3, 1, h)
                - (h / 2 - 11 * h**2 / 8 + 25 * h**3 / 24 - 15 * h**4 / 64)
            ),
            abs(theory_oracle.lambda_analytic(2, 2, h) - (h / 2 - h**2 / 4 + h**3 / 24)),
        )
    worst_gap = 0.0
    for k in range(1, 11):
        for h in np.linspace(2.0 / 200, 2.0, 200):
            worst_gap = max(
                worst_gap,
                abs(
                    spectral.spectral_gap(k, h)
                    - (spectral.lambda_top(k, h) - theory_oracle.lambda_second(k, h))
                ),
            )
    worst_asym = 0.0
    h = 1e-3
    for k in range(1, 11):
        target = (1 + k) / 4.0
        worst_asym = max(worst_asym, abs(spectral.spectral_gap(k, h) / h**2 - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst_poly <= 1e-13 and worst_gap <= 1e-12 and worst_asym <= 0.01 and elapsed < 1.0
    assert report(
        2,
        "closed-form polynomials, gap identity, small-h asymptote",
        ok,
        f"poly {worst_poly:.2e} (1e-13), gap {worst_gap:.2e} (1e-12), "
        f"asymptote {worst_asym:.2%} (1%), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_dominance_sweep():
    t0 = time.perf_counter()
    violations = 0
    for k in range(1, 6):
        for h in np.linspace(2.0 / 200, 2.0, 200):
            top = spectral.lambda_top(k, h)
            for n in range(k, k + 31):
                if theory_oracle.lambda_analytic(n, k, h) > top:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    assert report(
        3,
        "top-eigenvalue dominance sweep",
        ok,
        f"{violations} violations over k<=5, n<=k+30, 200 h-points, "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_criterion_4_wigner_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(1, 6):
        for theta in np.linspace(0, np.pi, 7):
            expected = ((1.0 + np.cos(theta)) / 2.0) ** k
            worst = max(worst, abs(wigner.wigner_d(k, -k, -k, theta) - expected))
        for m in range(-k, k + 1):
            for n in range(-k, k + 1):
                worst = max(
                    worst, abs(wigner.wigner_d(k, m, n, 0.0) - (1.0 if m == n else 0.0))
                )
        for _ in range(100):
            x, y = so3.sample_uniform(int(rng.integers(1 << 31)), 2).frames
            dx = theory_oracle.wigner_D_matrix(k, x)
            dy = theory_oracle.wigner_D_matrix(k, y)
            worst = max(worst, float(np.max(np.abs(dx @ dx.conj().T - np.eye(2 * k + 1)))))
            worst = max(
                worst,
                float(np.max(np.abs(dx @ dy - theory_oracle.wigner_D_matrix(k, x @ y)))),
            )
            # the extrinsic columns (D^k_{m,-k})_m are the matrices' column 0
            cx, cy = dx[:, 0], dy[:, 0]
            target = ((x[:, 2] @ y[:, 2] + 1.0) / 2.0) ** k
            worst = max(worst, abs(abs(np.vdot(cx, cy)) - target))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(
        4,
        "Wigner identities (unitarity, homomorphism, corner, inner product)",
        ok,
        f"max deviation {worst:.2e} (tol 1e-10) over 100 Haar pairs per k<=5, "
        f"{elapsed:.2f}s (budget 5s)",
    )


def _spectrum_groups(graph, k):
    """Sizes of the first two eigenvalue groups and the gap/spread ratio of
    the top 2k+1 group."""
    vals = es.top_eigenpairs(pipeline.build_H(graph, k), 4 * k + 5).values
    groups = pipeline.group_eigenvalues(vals, rel_tol=0.02)
    g0 = len(groups[0])
    g1 = len(groups[1]) if len(groups) > 1 else 0
    top = 2 * k + 1
    spread = vals[0] - vals[top - 1]
    gap = vals[top - 1] - vals[top]
    return g0, g1, gap / spread if spread > 0 else np.inf


def test_criterion_5_spectral_multiplicities(desk_clean, large_clean):
    t0 = time.perf_counter()
    details = []
    ok = True
    for k in (1, 2, 3, 5):
        _, _, desk_ratio = _spectrum_groups(desk_clean, k)
        g0, g1, ratio = _spectrum_groups(large_clean, k)
        top = 2 * k + 1
        k_ok = g0 == top and g1 == 2 * k + 3 and ratio >= 5.0 and ratio > desk_ratio
        ok = ok and k_ok
        details.append(
            f"k={k}: groups ({g0},{g1}) want ({top},{2*k+3}), "
            f"ratio {desk_ratio:.2f} -> {ratio:.2f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    assert report(
        5,
        "spectrum multiplicities and gap/spread ratio >= 5 at N=16000, "
        "ratio rising from N=2000",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s (budget 180s)",
    )


def _affinity_rmse(graph, frames, k):
    data = pipeline.scatter_data(pipeline.embed(graph, k), frames, 100_000, 7)
    return float(np.sqrt(np.mean((data[:, 0] - data[:, 1]) ** 2)))


def test_criterion_6_affinity_identity_rmse(desk_frames, desk_clean, large_frames, large_clean):
    t0 = time.perf_counter()
    details = []
    ok = True
    for k in (1, 5, 10):
        desk_rmse = _affinity_rmse(desk_clean, desk_frames, k)
        rmse = _affinity_rmse(large_clean, large_frames, k)
        ok = ok and rmse <= 0.02 and rmse < desk_rmse
        details.append(f"k={k}: RMSE {desk_rmse:.4f} -> {rmse:.4f}")
    elapsed = time.perf_counter() - t0
    assert report(
        6,
        "affinity identity RMSE <= 0.02 over 1e5 pairs at N=16000, "
        "falling from N=2000",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_7_noise_robustness_ordering():
    t0 = time.perf_counter()
    fracs = {"A1": [], "A5": [], "AAll": []}
    for seed in (0, 1, 2):
        frames = so3.sample_uniform(seed, 2000)
        clean = graphs.clean_graph(frames, 0.95)
        noisy = graphs.rewire(clean, 0.1, seed + 100)
        blocks = [pipeline.embed(noisy, k) for k in range(1, 11)]
        neighbors, _ = pipeline.knn_streamed(blocks, 50)
        for name, method in (("A1", "A^(1)"), ("A5", "A^(5)"), ("AAll", "A^All")):
            angles = pipeline.neighbor_angles(frames, neighbors[method])
            fracs[name].append(pipeline.angle_stats(angles)["frac_le_30"])
    f1 = float(np.mean(fracs["A1"]))
    f5 = float(np.mean(fracs["A5"]))
    fall = float(np.mean(fracs["AAll"]))
    elapsed = time.perf_counter() - t0
    ok = fall >= f5 >= f1 - 0.02 and fall - f1 >= 0.05 and elapsed < 600.0
    assert report(
        7,
        "noise-robustness ordering of neighbor quality at p=0.1",
        ok,
        f"frac30 A^(1)={f1:.3f}, A^(5)={f5:.3f}, A^All={fall:.3f}, "
        f"gap {fall - f1:.3f} (>=0.05), {elapsed:.1f}s (budget 600s)",
    )


def _exact_rid_distances(frames, phantom):
    """Exact rotationally invariant distances min_a ||I_i - Rot_a I_j|| between
    the full-plane projections of a Gaussian-blob phantom, as an (n, n) array.

    A blob (c, s, amp) projects to amp s sqrt(2 pi) exp(-|x - p|^2 / (2 s^2)),
    with p the center in the frame's in-plane axes. Two such Gaussians have
    the inner product 2 pi s1^2 s2^2 / (s1^2 + s2^2)
    exp(-|p - q|^2 / (2 (s1^2 + s2^2))) times their heights, and rotating an
    image rotates its centers, so <I_i, Rot_a I_j> is closed-form in a. It is
    maximized on a 5 degree grid, then on a 0.1 degree grid within 5 degrees
    of the best grid angle. No pixels, polar grids or FFTs are involved.
    """
    sigma = np.array([s for _, s, _ in phantom.blobs])
    height = np.array([amp * s * np.sqrt(2.0 * np.pi) for _, s, amp in phantom.blobs])
    centers = np.array([c for c, _, _ in phantom.blobs])
    # blob pairs (b, c) flattened to b * n_blobs + c
    s2 = (sigma[:, None] ** 2 + sigma[None, :] ** 2).ravel()
    weight = 2.0 * np.pi * np.outer(height * sigma**2, height * sigma**2).ravel() / s2
    planar = np.einsum("bd,ndc->nbc", centers, frames.frames[:, :, :2])
    z = planar[..., 0] + 1j * planar[..., 1]
    n, n_blobs = z.shape
    zb = np.repeat(z, n_blobs, axis=1)
    zc = np.tile(z, (1, n_blobs))

    def overlap(i, js, angles):
        """<I_i, Rot_a I_j> for each j in js and each angle a in its row."""
        base = -(np.abs(zb[i]) ** 2 + np.abs(zc[js]) ** 2) / (2.0 * s2)
        cross = np.conj(zb[i]) * zc[js]
        turned = (cross[:, None, :] * np.exp(1j * angles)[..., None]).real / s2
        return np.exp(base[:, None, :] + turned) @ weight

    norms = np.exp(-np.abs(zb - zc) ** 2 / (2.0 * s2)) @ weight
    coarse = np.radians(np.arange(0.0, 360.0, 5.0))
    fine = np.radians(np.linspace(-5.0, 5.0, 101))
    dist = np.zeros((n, n))
    for i in range(n - 1):
        js = np.arange(i + 1, n)
        grid = np.broadcast_to(coarse, (js.size, coarse.size))
        best = coarse[np.argmax(overlap(i, js, grid), axis=1)]
        peak = np.max(overlap(i, js, best[:, None] + fine[None, :]), axis=1)
        dist[i, js] = np.sqrt(np.maximum(norms[i] + norms[js] - 2.0 * peak, 0.0))
    return dist + dist.T


def test_criterion_8_image_pipeline_sanity():
    t0 = time.perf_counter()
    frames = so3.sample_uniform(2025, 500)
    clean = graphs.clean_graph(frames, 0.95)
    phantom = imaging.default_phantom()
    images = [imaging.project(phantom, r, L=65) for r in frames.frames]
    frac = clean.n_edges / (500 * 499 / 2)
    g_img, _ = imaging.image_graph(images, edge_fraction=frac)
    true_set = set(zip(clean.edge_i.tolist(), clean.edge_j.tolist()))
    img_set = set(zip(g_img.edge_i.tolist(), g_img.edge_j.tolist()))
    # the exact-RID graph at the same edge fraction, by image_graph's rule
    iu, ju = np.triu_indices(500, k=1)
    flat = _exact_rid_distances(frames, phantom)[iu, ju]
    keep = flat <= np.quantile(flat, frac)
    rid_set = set(zip(iu[keep].tolist(), ju[keep].tolist()))
    match = len(rid_set & img_set) / len(rid_set)
    geo_img = len(true_set & img_set) / len(true_set)
    geo_rid = len(true_set & rid_set) / len(true_set)
    tmap = dict(zip(zip(clean.edge_i.tolist(), clean.edge_j.tolist()), clean.theta.tolist()))
    imap = dict(zip(zip(g_img.edge_i.tolist(), g_img.edge_j.tolist()), g_img.theta.tolist()))
    errs = [
        np.degrees(abs((tmap[e] - imap[e] + np.pi) % (2 * np.pi) - np.pi))
        for e in true_set & img_set
    ]
    med = float(np.median(errs))
    elapsed = time.perf_counter() - t0
    ok = match >= 0.97 and med < 2.0 and elapsed < 600.0
    assert report(
        8,
        "image graph edge match >= 97% against the exact-RID graph and "
        "median angle error < 2 deg",
        ok,
        f"edge match {match:.3f} (geometric: image {geo_img:.3f}, "
        f"exact RID {geo_rid:.3f}), median |dtheta| {med:.2f} deg, "
        f"{elapsed:.1f}s (budget 600s)",
    )


def _alignment_angle(r_i, r_j):
    return float(so3.alignment_angles(np.stack([r_i, r_j]), np.array([0]), np.array([1]))[0])


def test_criterion_9_invariant_suites():
    t0 = time.perf_counter()
    worst_transport = 0.0
    rng = np.random.default_rng(9)
    for _ in range(50):
        r_i, r_j, g = so3.sample_uniform(int(rng.integers(1 << 31)), 3).frames
        t_ij = _alignment_angle(r_i, r_j)
        t_ji = _alignment_angle(r_j, r_i)
        worst_transport = max(
            worst_transport,
            float(min(abs((t_ij + t_ji) % (2 * np.pi)), abs((t_ij + t_ji) % (2 * np.pi) - 2 * np.pi))),
            float(abs(_alignment_angle(g @ r_i, g @ r_j) - t_ij)),
        )
        a1, a2 = rng.uniform(0, 2 * np.pi, 2)
        shifted = _alignment_angle(
            r_i @ theory_oracle.rot_z(a1), r_j @ theory_oracle.rot_z(a2)
        )
        delta = (shifted - (t_ij - a1 + a2)) % (2 * np.pi)
        worst_transport = max(worst_transport, float(min(delta, 2 * np.pi - delta)))

    frames = so3.sample_uniform(101, 400)
    clean = graphs.clean_graph(frames, 0.9)
    alpha = rng.uniform(0, 2 * np.pi, 400)
    theta = (clean.theta - alpha[clean.edge_i] + alpha[clean.edge_j]) % (2 * np.pi)
    gauged = graphs.ObservationGraph(
        n_vertices=400, edge_i=clean.edge_i, edge_j=clean.edge_j,
        theta=theta, kind=clean.kind,
    )
    b0 = pipeline.embed(clean, 2)
    b1 = pipeline.embed(gauged, 2)
    a0 = pipeline._affinity_rows(b0, 0, 400)
    a1_ = pipeline._affinity_rows(b1, 0, 400)
    gauge_dev = float(np.max(np.abs(a0 - a1_)))

    # A^All over p copies of one frequency is the p-th power of its affinity
    base = pipeline.knn_streamed([b0], 10)[0]["A^All"]
    argmax_exact = all(
        np.array_equal(base, pipeline.knn_streamed([b0] * p, 10)[0]["A^All"])
        for p in (2, 5, 10)
    )

    m = np.random.default_rng(3).standard_normal((40, 40))
    m = m + 1j * np.random.default_rng(4).standard_normal((40, 40))
    m = (m + m.conj().T) / 2
    pairs = es.top_eigenpairs(es.HermitianMatrix(data=m), 10)
    resid = float(
        np.max(np.linalg.norm(m @ pairs.vectors - pairs.vectors * pairs.values[None, :], axis=0))
    )
    gram_dev = float(
        np.max(np.abs(pairs.vectors.conj().T @ pairs.vectors - np.eye(10)))
    )

    elapsed = time.perf_counter() - t0
    ok = (
        worst_transport <= 1e-10
        and gauge_dev <= 1e-8
        and argmax_exact
        and resid <= 1e-10 * max(1.0, float(np.linalg.norm(m)))
        and gram_dev <= 1e-10
    )
    assert report(
        9,
        "invariant suites (transport, gauge, argmax, eigensolver contracts)",
        ok,
        f"transport {worst_transport:.2e} (1e-10), gauge {gauge_dev:.2e} (1e-8), "
        f"argmax-exact {argmax_exact}, residual {resid:.2e}, gram {gram_dev:.2e}, "
        f"{elapsed:.1f}s",
    )

"""Analytic-phantom projection imaging: closed-form tomographic projections
of a sum-of-Gaussians density, additive noise at a target SNR, a
per-frequency principal-component basis of the images' polar spectra with
ranks set by the noise, rotationally invariant distances with in-plane
alignment estimation in that basis, and construction of an observation
graph from images alone.

No stage holds a whole image stack unless its caller hands it one.  The
CLI's `images` projects and adds noise one chunk of frames at a time,
which save_images writes to its images_snr*.bin file as they come, and
hands image_graph an ImageFile over that file.  Both of the image graph's
passes over the images, the one that sums the basis's Gram matrices
(image_basis) and the one that keeps each image's coefficients in it
(_coefficients), run in the calling process and read one chunk of images
at a time, as _angular_spectra slices them: from the file, with
np.fromfile, or from an in-memory stack, on the same route.  Only the
O(N^2) alignment forks: _align_pairs' row blocks of pairs go to
pipeline.fork_map's workers (stage "align"), each task writing its own
disjoint stretch, in place, of outputs made by pipeline.shared_empty.

The kernels do only the work their bytes need: polar_resample takes each
corner into one reused buffer, the coefficient pass conjugates, scales and
copies only the frequencies up to m_max, and _align_tile runs its inverse
FFT and argmax along a frequency-last copy of its GEMM's output.  Each
writes the same bytes as the layout it replaced.

An image stack is one float64 (n, L, L) array with L odd, so a center pixel
exists, or an ImageFile of such images.  Pixel convention: pixels[a, b] =
I(s_a, t_b) with s, t running over a uniform grid on [-EXTENT, EXTENT] =
[-1, 1] (axis 0 is the first in-plane coordinate).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import graphs
from .graphs import ObservationGraph, row_blocks, triangle_start, upper_pairs
from .pipeline import fork_map, shared_empty

SUPPORT_RADIUS = 0.8
DEFAULT_L = 65
EXTENT = 1.0  # every image spans [-EXTENT, EXTENT]^2
N_THETA = 360  # angles of the polar grid, which sets the alignment resolution
N_M = N_THETA // 2 + 1  # angular frequencies m = 0..N_THETA/2 of a polar image
# The top quarter of the frequencies, m >= NOISE_BAND, where the phantom's
# blobs, each a few pixels wide or more, have no energy: there the images'
# Gram matrices measure the noise alone.
NOISE_BAND = 3 * N_THETA // 8
FALSE_ALARM = 0.01  # chance that pure noise keeps a component at any m
_BAND = 5  # ring offsets -2..2, the only ones whose samples share a pixel
# temporaries per entry of a block of the gather's B B^T: its CSR and COO
# indices and value, the ring and angle of both samples, and the key
_KERNEL_ENTRY_BYTES = 64
# temporaries per pair of an alignment tile, at most N_M frequencies: the
# GEMM's cross-powers and their frequency-last copy (16 bytes a frequency
# each), then, with the GEMM's output freed, that copy and the correlation
# at every shift; the distance and the pair's place in the triangle come
# after both are freed
_PAIR_BYTES = max(32 * N_M, 16 * N_M + 8 * N_THETA)


@dataclass(frozen=True)
class Phantom:
    """A 3D density that is a finite sum of isotropic Gaussian blobs."""

    blobs: tuple  # of (center: (3,) array, sigma: float, amplitude: float)

    def __post_init__(self):
        checked = []
        for center, sigma, amplitude in self.blobs:
            c = np.asarray(center, dtype=float)
            if c.shape != (3,):
                raise ValueError("blob center must be a 3-vector")
            if np.linalg.norm(c) > SUPPORT_RADIUS:
                raise ValueError(
                    f"blob center outside the support ball of radius {SUPPORT_RADIUS}"
                )
            if sigma <= 0:
                raise ValueError("blob sigma must be positive")
            checked.append((c, float(sigma), float(amplitude)))
        object.__setattr__(self, "blobs", tuple(checked))


# Fixed six-blob parameters found by a direct search maximizing how well the
# image-space neighbor graph reproduces the geometric one; asymmetric on
# purpose, since near-symmetric densities produce look-alike projections from
# distinct viewing directions.
_DEFAULT_BLOBS = (
    ((0.17053245367560463, 0.6816345965570973, -0.11001996654065811),
     0.1853247554887902, 0.6155065761114611),
    ((-0.19338250362670464, -0.16177061300850876, 0.0701442070984204),
     0.45, 0.6410723970278138),
    ((-0.149015964670424, 0.29328946684996426, 0.2842256205303967),
     0.30912504372880467, 0.46550031567008593),
    ((-0.34266545780835234, -8.945476501074842e-05, -0.5544294474329037),
     0.11767675239488652, 1.2661694488209085),
    ((-0.031081426624556194, 0.15648906581327576, -0.042124121838855215),
     0.22921728710407055, 0.6526355416166091),
    ((0.43627370992391745, 0.5539265259613942, 0.22271428845037325),
     0.08089535058103736, 0.9081009796810195),
)


def default_phantom() -> Phantom:
    """The fixed asymmetric six-blob phantom used by the experiments."""
    return Phantom(blobs=_DEFAULT_BLOBS)


def _stack(images):
    """images as one float64 (n, L, L) array of square images with odd L,
    the one shape that polar_resample, image_basis and image_graph accept;
    anything else raises a ValueError naming it.  An ImageFile, whose
    headers were checked when it was opened, is returned as it is, unread:
    image_basis and image_graph slice it a chunk at a time."""
    if isinstance(images, ImageFile):
        return images
    try:
        stack = np.asarray(images, dtype=float)
    except ValueError:
        sizes = sorted({np.shape(img) for img in images})
        if len(sizes) < 2:
            raise
        named = ", ".join("x".join(map(str, size)) for size in sizes)
        raise ValueError(f"images must all be one size, got {named}") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] % 2 == 0:
        raise ValueError(
            f"images must form an (n, L, L) array with odd L, got shape {stack.shape}"
        )
    return stack


def project(phantom: Phantom, r: np.ndarray, L: int = DEFAULT_L) -> np.ndarray:
    """Line-integral projections along the viewing directions of r, a
    (..., 3, 3) array of frames; returns (..., L, L) pixels.

    Each isotropic Gaussian blob integrates in closed form to
    amplitude * sigma * sqrt(2*pi) * exp(-((s-u)^2 + (t-v)^2) / (2 sigma^2))
    with (u, v) the blob center expressed in the in-plane frame given by the
    first two columns of r.  Frames are projected in chunks within
    graphs.WORK_BYTES.
    """
    if L % 2 == 0:
        raise ValueError("L must be odd")
    r = np.asarray(r, dtype=float)
    stack = r.reshape((-1, 3, 3))
    s = np.linspace(-EXTENT, EXTENT, L)
    pixels = np.zeros((len(stack), L, L))
    # per frame: one blob's outer product and its scaled copy
    for lo, hi in row_blocks(len(stack), 2 * 8 * L * L):
        for c, sigma, amp in phantom.blobs:
            # rounds as the per-frame c @ r[:, 0] does; einsum or r[..., 0].T do not
            uv = c @ stack[lo:hi, :, :2]
            gs = np.exp(-((s - uv[:, :1]) ** 2) / (2.0 * sigma * sigma))
            gt = np.exp(-((s - uv[:, 1:]) ** 2) / (2.0 * sigma * sigma))
            pixels[lo:hi] += amp * sigma * np.sqrt(2.0 * np.pi) * (gs[:, :, None] * gt[:, None, :])
    return pixels.reshape(r.shape[:-2] + (L, L))


def add_noise(pixels: np.ndarray, snr: float, seed: int) -> np.ndarray:
    """Additive white Gaussian noise with variance var(clean pixels)/snr,
    measured over the full grid."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    pixels = np.asarray(pixels, dtype=float)
    rng = np.random.default_rng(seed)
    var = float(np.var(pixels))
    noise = rng.standard_normal(pixels.shape) * np.sqrt(var / snr)
    return pixels + noise


def _polar_grid(L: int):
    """The radii of the polar grid of an L x L image, the flat index of each
    sample's (a0, b0) corner pixel, and per corner of the bilinear gather
    its offset from that pixel and its two weights, each (L // 2, N_THETA).

    The grid's rings lie one pixel apart, so two samples share a corner
    pixel only if their rings are at most 2 apart.
    """
    n_r = L // 2
    radii = (np.arange(n_r) + 0.5) * EXTENT / n_r
    angles = 2.0 * np.pi * np.arange(N_THETA) / N_THETA
    x = radii[:, None] * np.cos(angles)[None, :]
    y = radii[:, None] * np.sin(angles)[None, :]
    step = 2.0 * EXTENT / (L - 1)
    ca, cb = (x + EXTENT) / step, (y + EXTENT) / step
    a0, b0 = np.floor(ca), np.floor(cb)
    wa1, wb1 = ca - a0, cb - b0
    wa0, wb0 = 1.0 - wa1, 1.0 - wb1
    flat = a0.astype(np.intp) * L + b0.astype(np.intp)
    return radii, flat, ((0, wa0, wb0), (1, wa0, wb1), (L, wa1, wb0), (L + 1, wa1, wb1))


def polar_resample(images) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear resampling of an (n, L, L) image stack onto one
    (L // 2, N_THETA) polar grid, as one gather over the pixels per corner.

    Returns (polar, radii) with polar of shape (n, L // 2, N_THETA); radii
    serve as area weights in distances.  The corner weights are computed
    once per grid, each corner's pixels are taken into one buffer reused
    for all four, and each sample sums (pixel * wa) * wb over the corners
    (a0, b0), (a0, b0+1), (a0+1, b0), (a0+1, b0+1) from 0.0, the arithmetic
    and order of map_coordinates(order=1), so the samples agree bit for bit.
    For odd L every sample lies in [0.5, L - 1.5], so no corner leaves the
    image.
    """
    images = _stack(images)
    n, L = images.shape[:2]
    radii, flat, corners = _polar_grid(L)
    pixels = images.reshape(n, L * L)
    polar = np.zeros((n, len(radii), N_THETA))
    corner = np.empty_like(polar)
    for offset, wa, wb in corners:
        # every index is in range, so "clip" clips nothing; it spares the
        # copy through a temporary that take makes for its default "raise"
        np.take(pixels, flat + offset, axis=1, out=corner, mode="clip")
        corner *= wa
        corner *= wb
        polar += corner
    return polar, radii


def _angular_spectra(images, n_m: int = N_M):
    """(lo, hi, z) over consecutive chunks lo:hi of the checked stack
    `images`, each within graphs.WORK_BYTES and sliced as images[lo:hi],
    so an ImageFile reads one chunk at a time, with z of shape
    (n_m, L // 2, hi - lo) and z[m, :, i - lo] = sqrt(r) * conj(F_i(m, r)),
    F_i(m, r) being image i's m-th angular Fourier coefficient on the ring
    of radius r, for the frequencies m < n_m.  Then z_i(m)^H z_j(m) =
    sum_r r F_i(m, r) conj(F_j(m, r)), the radially weighted cross-power of
    images i and j at frequency m.

    The FFT gives every frequency; the conjugate, the sqrt(r) scale and the
    transposed copy, all elementwise, run on the first n_m alone, so z
    holds the same bits as the first n_m rows of the full band.
    """
    n_r = images.shape[1] // 2
    # per image: the polar samples and the gathered corner, then the
    # spectrum, its transposed copy and that copy's conjugate in
    # image_basis; _coefficients' product with the basis is no larger
    for lo, hi in row_blocks(len(images), n_r * (2 * 8 * N_THETA + 3 * 16 * N_M)):
        polar, radii = polar_resample(images[lo:hi])
        spectra = np.fft.rfft(polar, axis=-1)[..., :n_m]
        del polar
        np.conj(spectra, out=spectra)
        spectra *= np.sqrt(radii)[:, None]
        yield lo, hi, np.ascontiguousarray(spectra.transpose(2, 1, 0))


def _noise_gram(L: int) -> np.ndarray:
    """The (N_M, L // 2, L // 2) covariances N_m = E[z(m) z(m)^H] of
    _angular_spectra's z for one L x L image of unit-variance white noise,
    in closed form.

    The gather is a sparse matrix B from pixels to polar samples, so the
    samples' covariance is B B^T, and z(m)_r = sqrt(r) sum_t p(r, t)
    e^{2 pi i m t / N_THETA} gives N_m[r, s] = sqrt(r s) sum_D h[r, s, D]
    e^{2 pi i m D / N_THETA}, with h[r, s, D] the sum of B B^T over the
    sample pairs (r, t), (s, t - D).  Rings more than 2 apart share no
    pixel, so h is held as a band.  B B^T is formed in blocks of samples
    within graphs.WORK_BYTES.
    """
    radii, flat, corners = _polar_grid(L)
    n_r = len(radii)
    samples = np.repeat(np.arange(flat.size), len(corners))
    pixels = np.stack([flat.ravel() + offset for offset, _, _ in corners], axis=1).ravel()
    weights = np.stack([(wa * wb).ravel() for _, wa, wb in corners], axis=1).ravel()
    gather = sp.csr_matrix((weights, (samples, pixels)), shape=(flat.size, L * L))
    gather_t = gather.T.tocsr()
    # a row of B B^T holds at most as many entries as its corner pixels
    # have gathering samples
    reach = np.bincount(pixels, minlength=L * L)[pixels].reshape(-1, len(corners)).sum(axis=1)
    # both grids map onto themselves under a quarter turn, so the samples
    # of one quadrant give h / 4
    quadrant = (np.arange(n_r)[:, None] * N_THETA + np.arange(N_THETA // 4)).ravel()
    gather_q = gather[quadrant]
    band = np.zeros(n_r * _BAND * N_THETA)
    for lo, hi in row_blocks(quadrant.size, _KERNEL_ENTRY_BYTES * int(reach.max())):
        block = (gather_q[lo:hi] @ gather_t).tocoo()
        r, t = np.divmod(quadrant[lo + block.row], N_THETA)
        s, u = np.divmod(block.col, N_THETA)
        key = (r * _BAND + s - r + _BAND // 2) * N_THETA + (t - u) % N_THETA
        band += np.bincount(key, weights=block.data, minlength=band.size)
    band *= 4.0
    spectra = np.conj(np.fft.rfft(band.reshape(n_r, _BAND, N_THETA), axis=-1))
    gram = np.zeros((N_M, n_r, n_r), dtype=complex)
    for d in range(-(_BAND // 2), _BAND // 2 + 1):
        r = np.arange(max(0, -d), n_r - max(0, d))
        gram[:, r, r + d] = (spectra[r, d + _BAND // 2] * np.sqrt(radii[r] * radii[r + d])[:, None]).T
    return gram


def _noise_edge(n: int, p: int) -> float:
    """The eigenvalue that pure noise of unit variance exceeds, at any of
    the N_M frequencies, with probability about FALSE_ALARM: for the Gram
    matrix (1/n) sum_i w_i w_i^H of n white p-vectors,

        edge = ((sqrt(n) + sqrt(p))^2
                + s (sqrt(n) + sqrt(p)) (1/sqrt(n) + 1/sqrt(p))^(1/3)) / n,

    the Marchenko-Pastur edge (1 + sqrt(p/n))^2 plus s scales of its
    Tracy-Widom fluctuation (Johnstone, Ann. Statist. 2001), where s solves
    the right tail of the real (beta = 1) Tracy-Widom law,

        exp(-(2/3) s^(3/2)) / (4 sqrt(pi) s^(3/2)) = FALSE_ALARM / N_M.

    The real law's tail is the heavier one, so the edge holds for the
    complex frequencies 0 < m < N_THETA / 2 too.
    """
    tail = FALSE_ALARM / N_M
    u = 1.0  # u = s^(3/2), the fixed point of a contraction
    for _ in range(50):
        u = 1.5 * (-np.log(tail) - np.log(4.0 * np.sqrt(np.pi) * u))
    s = u ** (2.0 / 3.0)
    a, b = np.sqrt(n), np.sqrt(p)
    return float(((a + b) ** 2 + s * (a + b) * (1.0 / a + 1.0 / b) ** (1.0 / 3.0)) / n)


@dataclass(frozen=True, eq=False)
class ImageBasis:
    """Per angular frequency m = 0..m_max, an orthonormal basis U_m of the
    radial profiles z_i(m) (see _angular_spectra) that carry signal above
    the noise, and the pooled pixel noise level sigma that decided it."""

    sigma: float
    vectors: tuple  # of (L // 2, r_m) complex arrays, m = 0..m_max

    @property
    def ranks(self) -> list:
        return [u.shape[1] for u in self.vectors]

    def summary(self) -> dict:
        """sigma, m_max, the number of coefficients per image and r_m per m."""
        ranks = self.ranks
        return {
            "sigma": self.sigma,
            "m_max": len(ranks) - 1,
            "n_coefficients": sum(ranks),
            "ranks": ranks,
        }


def image_basis(images) -> ImageBasis:
    """Per-frequency principal components of the images on the polar grid,
    the polar analogue of steerable PCA (Zhao, Shkolnisky & Singer, IEEE
    TCI 2016), with ranks set by the noise.

    One pass over chunks of images, in this process, accumulates
    G_m = (1/n) sum_i z_i(m) z_i(m)^H for every m; its sum, chunk by chunk
    in order, sets the basis's bits.  White pixel noise of variance
    sigma^2 adds sigma^2 N_m to G_m, with N_m from _noise_gram, so

        sigma^2 = sum_m tr G_m / sum_m tr N_m    over m >= NOISE_BAND,

    the top quarter of the frequencies, where the phantom has no energy.
    U_m keeps the components of G_m whitened by N_m whose eigenvalues
    exceed sigma^2 * _noise_edge(n, L // 2): with G_m V = N_m V diag(lambda)
    and V^H N_m V = I, U_m is an orthonormal basis of N_m V_kept, the span
    of the kept components mapped back from the whitened space.  m_max is
    the highest frequency that keeps one (0 if none does).
    """
    images = _stack(images)
    n, L = images.shape[:2]
    n_r = L // 2
    gram = np.zeros((N_M, n_r, n_r), dtype=complex)
    # the Gram update in blocks of frequencies, each an eighth of the budget
    m_blocks = list(row_blocks(N_M, 8 * 16 * n_r * n_r))
    for _, _, z in _angular_spectra(images):
        zh = np.conj(z).transpose(0, 2, 1)
        for a, b in m_blocks:
            gram[a:b] += z[a:b] @ zh[a:b]
    gram /= n
    noise = _noise_gram(L)
    band = slice(NOISE_BAND, None)
    sigma2 = float(
        np.trace(gram[band], axis1=1, axis2=2).real.sum()
        / np.trace(noise[band], axis1=1, axis2=2).real.sum()
    )
    edge = sigma2 * _noise_edge(n, n_r)
    vectors = []
    for g, nm in zip(gram, noise):
        lam, v = scipy.linalg.eigh(g, nm)
        vectors.append(np.linalg.qr(nm @ v[:, lam > edge])[0])
    kept = [m for m, u in enumerate(vectors) if u.shape[1]]
    m_max = kept[-1] if kept else 0
    return ImageBasis(sigma=float(np.sqrt(sigma2)), vectors=tuple(vectors[: m_max + 1]))


def _coefficients(images, basis: ImageBasis) -> tuple[np.ndarray, np.ndarray]:
    """Each image's coefficients U_m^H z_i(m) in the basis, zero-padded to
    r = max r_m and split into real parts over imaginary parts, shape
    (m_max + 1, 2 r, n) float64; and their energies, the radially weighted
    squared norms of the images projected onto the basis, by Parseval over
    the full angular spectrum (frequencies 0 < m < N_THETA / 2 count
    twice).

    A second pass over the chunks of _angular_spectra, in this process,
    cut to the frequencies m <= m_max, writes each chunk's coefficients
    into its own columns of coeffs, a shared_empty array that
    _align_pairs' forked workers then read."""
    ranks = basis.ranks
    n_r, width = images.shape[1] // 2, max(ranks)
    basis_h = np.zeros((len(ranks), width, n_r), dtype=complex)
    for m, u in enumerate(basis.vectors):
        basis_h[m, : u.shape[1]] = np.conj(u).T
    coeffs = shared_empty((len(ranks), 2 * width, len(images)), float)
    for lo, hi, z in _angular_spectra(images, len(ranks)):
        c = basis_h @ z
        coeffs[:, :width, lo:hi] = c.real
        coeffs[:, width:, lo:hi] = c.imag
    twice = np.full(len(ranks), 2.0)
    twice[0] = 1.0
    if len(ranks) == N_M:
        twice[-1] = 1.0  # the Nyquist frequency
    energies = np.empty(len(images))
    for i in range(len(images)):
        # one sum per image, so chunking cannot change its rounding
        energies[i] = twice @ np.sum(coeffs[:, :, i] ** 2, axis=1) / N_THETA
    return coeffs, energies


def _align_tile(
    coeffs: np.ndarray, energies: np.ndarray, rows: slice, cols: slice
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and best shifts of images `rows` against images `cols`,
    from _coefficients' output.

    One batched real matrix product forms every cross-power
    c_i(m)^H c_j(m) at each angular frequency m: each column image j
    enters as [Re c_j; Im c_j] and [Im c_j; -Re c_j], so the product
    holds each cross-power's real and imaginary parts side by side, in
    complex layout.  OpenBLAS rounds a real product alike at every tile
    shape, but a complex one differently where a tile's column count is not
    a multiple of its kernel's unroll.  One copy moves m to the last axis,
    and an inverse FFT along it, zero-padded to N_THETA, turns the
    cross-powers into the correlation at every cyclic shift; the best one
    is found along that contiguous axis too.
    """
    n_m, width = coeffs.shape[0], coeffs.shape[1] // 2
    block = coeffs[:, :, cols]
    right = np.empty(block.shape + (2,))
    right[..., 0] = block
    right[:, :width, :, 1] = block[:, width:]
    np.negative(block[:, :width], out=right[:, width:, :, 1])
    right = right.reshape(n_m, 2 * width, 2 * block.shape[2])
    left = coeffs[:, :, rows].transpose(0, 2, 1)
    cross = np.matmul(left, right)
    # one copy puts each pair's frequencies side by side, so the inverse
    # FFT and the argmax run along contiguous memory
    spectra = np.ascontiguousarray(cross.view(complex).transpose(1, 2, 0))
    del cross
    corr = np.fft.irfft(spectra, n=N_THETA, axis=-1)
    del spectra
    shifts = np.argmax(corr, axis=-1)
    best = np.take_along_axis(corr, shifts[..., None], axis=-1)[..., 0]
    d2 = np.maximum(energies[rows, None] + energies[None, cols] - 2.0 * best, 0.0)
    return np.sqrt(d2), shifts


def _align_rows(coeffs: np.ndarray, energies: np.ndarray, flat, flat_shift, block: tuple) -> None:
    """Write the distances and best shifts of every pair i < j with i in
    the rows lo:hi of `block` into their stretch of the row-major triangle
    vectors `flat` and `flat_shift`, from triangle_start(lo, n) to
    triangle_start(hi, n), aligned in tiles of these rows by column tiles,
    each within graphs.WORK_BYTES at any n."""
    lo, hi = block
    n = coeffs.shape[2]
    # columns lo + 1.. hold every pair of these rows, at least hi - lo of
    # them; per column: its two right-hand columns
    tile_column = (hi - lo) * _PAIR_BYTES + 16 * coeffs.shape[0] * coeffs.shape[1]
    for c0, c1 in row_blocks(n - lo - 1, tile_column):
        c0, c1 = c0 + lo + 1, c1 + lo + 1
        d, s = _align_tile(coeffs, energies, slice(lo, hi), slice(c0, c1))
        i = np.arange(lo, hi)[:, None]
        j = np.arange(c0, c1)
        pairs = j > i
        at = (triangle_start(i, n) + j - i - 1)[pairs]
        flat[at] = d[pairs]
        flat_shift[at] = s[pairs]


def _align_pairs(coeffs: np.ndarray, energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances (float64) and best shifts (int16, in [0, N_THETA)) of every
    pair i < j, as row-major upper-triangle vectors.

    The rows go in blocks, about as many as the side of a square tile
    within graphs.WORK_BYTES, to fork_map's workers, forked after the
    coefficients exist, so nothing travels but the blocks' bounds: both
    vectors come from shared_empty, and each block writes its own stretch
    in place.  A pair is aligned in the same tile on any number of workers,
    so the bytes are the same.
    """
    n = coeffs.shape[2]
    side = max(2, math.isqrt(graphs.WORK_BYTES // _PAIR_BYTES))
    flat = shared_empty((n * (n - 1) // 2,), float)
    flat_shift = shared_empty(flat.shape, np.int16)
    task = partial(_align_rows, coeffs, energies, flat, flat_shift)
    fork_map("align", task, list(row_blocks(n - 1, side * _PAIR_BYTES)))
    return flat, flat_shift


def image_graph(images, edge_fraction: float) -> tuple[ObservationGraph, ImageBasis]:
    """Build an observation graph from pairwise rotationally invariant
    distances; edges carry the estimated alignment angles.  Returns the
    graph and the image basis the distances were measured in.

    The images are compressed to their coefficients in image_basis, in a
    second pass over chunks of images, and every pair is aligned on those
    coefficients.  The graph keeps every pair whose distance is at or
    below the `edge_fraction` quantile of all pair distances.  Distances
    and shifts go straight into row-major upper-triangle vectors, so no
    n x n matrix is built, and no array of the full spectra either.
    """
    images = _stack(images)
    n = len(images)
    if n < 2:
        raise ValueError("need at least 2 images")
    if not 0.0 < edge_fraction <= 1.0:
        raise ValueError(f"edge_fraction must lie in (0, 1], got {edge_fraction}")

    basis = image_basis(images)
    coeffs, energies = _coefficients(images, basis)
    flat, flat_shift = _align_pairs(coeffs, energies)
    del coeffs

    kept = np.flatnonzero(flat <= np.quantile(flat, edge_fraction))
    ei, ej = upper_pairs(kept, n)
    graph = ObservationGraph(
        n_vertices=n,
        edge_i=ei,
        edge_j=ej,
        theta=2.0 * np.pi * flat_shift[kept] / N_THETA,
        kind=np.zeros(ei.size, dtype=np.int8),
    )
    return graph, basis


def _records(L: int) -> np.dtype:
    """One image of save_images' layout: an 8-byte little-endian header
    (two uint32 dims) followed by row-major float64 pixels."""
    return np.dtype([("shape", "<u4", (2,)), ("pixels", "<f8", (L, L))])


def save_images(path, chunks) -> None:
    """Flat binary: per image an 8-byte little-endian header (two uint32
    dims) followed by row-major float64 pixels.  `chunks` is an iterable of
    image stacks, written in turn, so that a caller who makes its images a
    chunk at a time never holds more than one chunk."""
    with open(path, "wb") as fh:
        for images in chunks:
            images = _stack(images)
            records = np.empty(len(images), _records(images.shape[1]))
            records["shape"] = images.shape[1]
            records["pixels"] = images
            records.tofile(fh)


class ImageFile:
    """The images of a save_images file, read a slice at a time: len(),
    .shape, and [lo:hi], which reads those images with np.fromfile into a
    fresh (hi - lo, L, L) float64 array.  Not a memory map: pages of a map
    that a pass has touched would stay in the process's RSS.

    Opening reads every header and no pixel, so a truncated file, or images
    that are not all one odd square size, raise a ValueError naming the
    file.
    """

    def __init__(self, path):
        self.path = path
        n, L = 0, None
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            while header := fh.read(8):
                if len(header) != 8:
                    raise ValueError(f"{path}: truncated image header")
                h, w = struct.unpack("<II", header)
                L = h if L is None else L
                if h != w or h % 2 == 0 or h != L:
                    raise ValueError(
                        f"{path}: image {n} is {h}x{w}, but the images must "
                        f"all be {L}x{L} with {L} odd"
                    )
                if fh.seek(8 * h * w, os.SEEK_CUR) > size:
                    raise ValueError(f"{path}: truncated image payload")
                n += 1
        if not n:
            raise ValueError(f"{path}: no images")
        self.shape = (n, L, L)
        self._records = _records(L)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index: slice) -> np.ndarray:
        lo, hi, step = index.indices(len(self))
        if step != 1:
            raise ValueError(f"{self.path}: images are read in consecutive slices, not step {step}")
        count = max(0, hi - lo)
        return np.fromfile(
            self.path, self._records, count=count, offset=lo * self._records.itemsize
        )["pixels"]

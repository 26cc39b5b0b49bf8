"""Analytic-phantom projection imaging: closed-form tomographic projections
of a sum-of-Gaussians density, additive noise at a target SNR, rotationally
invariant distances with in-plane alignment estimation, and construction of
an observation graph from images alone.

An image stack is one float64 (n, L, L) array with L odd, so a center pixel
exists.  Pixel convention: pixels[a, b] = I(s_a, t_b) with s, t running over
a uniform grid on [-EXTENT, EXTENT] = [-1, 1] (axis 0 is the first in-plane
coordinate).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .graphs import ObservationGraph, row_blocks, upper_pairs

SUPPORT_RADIUS = 0.8
DEFAULT_L = 65
EXTENT = 1.0  # every image spans [-EXTENT, EXTENT]^2
N_THETA = 360  # angles of the polar grid, which sets the alignment resolution
# temporaries per pair of an alignment block: the complex cross-powers at
# every angular frequency and their real correlation at every shift
_PAIR_BYTES = 16 * (N_THETA // 2 + 1) + 8 * N_THETA


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

    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the 3D density at an (..., 3) array of points."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        for c, sigma, amp in self.blobs:
            d2 = np.sum((points - c) ** 2, axis=-1)
            out += amp * np.exp(-d2 / (2.0 * sigma * sigma))
        return out


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


def _stack(images) -> np.ndarray:
    """images as one float64 (n, L, L) array of square images with odd L,
    the one shape that polar_resample, _spectra, image_graph and
    rid_distance accept; anything else raises a ValueError naming it."""
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


def polar_resample(images) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear resampling of an (n, L, L) image stack onto one
    (L // 2, N_THETA) polar grid, as a single gather over the pixels.

    Returns (polar, radii) with polar of shape (n, L // 2, N_THETA); radii
    serve as area weights in distances.  The corner weights are computed
    once per grid, and each sample sums (pixel * wa) * wb over the corners
    (a0, b0), (a0, b0+1), (a0+1, b0), (a0+1, b0+1) from 0.0, the arithmetic
    and order of map_coordinates(order=1), so the samples agree bit for bit.
    For odd L every sample lies in [0.5, L - 1.5], so no corner leaves the
    image.
    """
    images = _stack(images)
    n, L = images.shape[:2]
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
    pixels = images.reshape(n, L * L)
    polar = np.zeros((n, n_r, N_THETA))
    for offset, wa, wb in ((0, wa0, wb0), (1, wa0, wb1), (L, wa1, wb0), (L + 1, wa1, wb1)):
        corner = pixels[:, flat + offset]
        corner *= wa
        corner *= wb
        polar += corner
    return polar, radii


def _spectra(images) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugated angular spectra S of shape (N_THETA//2+1, n_r, n), the
    radii, and the radially weighted energies of the polar images.

    S[m, :, i] is the conjugate of image i's m-th angular Fourier
    coefficient at every radius, stored so that each frequency's
    cross-powers are one matrix product.  Images are resampled and
    transformed in chunks of images within graphs.WORK_BYTES.
    """
    images = _stack(images)
    n_r = images.shape[1] // 2
    n_m = N_THETA // 2 + 1
    spectra = np.empty((n_m, n_r, len(images)), dtype=complex)
    weights = np.empty(len(images))
    # per image: the polar samples and one gathered corner, then the
    # spectrum and its conjugate
    for lo, hi in row_blocks(len(images), n_r * (2 * 8 * N_THETA + 2 * 16 * n_m)):
        polar, radii = polar_resample(images[lo:hi])
        spectra[:, :, lo:hi] = np.conj(np.fft.rfft(polar, axis=-1)).T
        for idx, p in enumerate(polar, start=lo):
            # one sum per image; a row-wise sum over the chunk rounds differently
            weights[idx] = np.sum(radii[:, None] * p**2)
    return spectra, radii, weights


def _align_rows(
    spectra: np.ndarray, radii: np.ndarray, weights: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and best shifts of images lo:hi against images lo+1:.

    One batched matrix product forms every cross-power,
    sum_r r F_i(m, r) conj(F_j(m, r)), for each angular frequency m; an
    inverse FFT over m turns it into the correlation at every cyclic shift.
    Returns (hi - lo, n - lo - 1) arrays; entries with j <= i are not pairs.
    """
    left = np.conj(spectra[:, :, lo:hi]).transpose(0, 2, 1) * radii
    cross = np.fft.irfft(left @ spectra[:, :, lo + 1 :], n=N_THETA, axis=0)
    shifts = np.argmax(cross, axis=0)
    best = np.take_along_axis(cross, shifts[None], axis=0)[0]
    d2 = np.maximum(weights[lo:hi, None] + weights[None, lo + 1 :] - 2.0 * best, 0.0)
    return np.sqrt(d2), shifts


def rid_distance(img_i: np.ndarray, img_j: np.ndarray) -> tuple[float, float]:
    """Rotationally invariant distance and the optimal alignment angle of
    two (L, L) images.

    Both images are resampled to the same polar grid; rotation becomes a
    cyclic shift along the angular axis and the best shift is found through
    FFT cross-correlation with radial weights proportional to r.  This is
    image_graph's alignment kernel applied to one pair.
    """
    spectra, radii, weights = _spectra([img_i, img_j])
    dist, shifts = _align_rows(spectra, radii, weights, 0, 1)
    return float(dist[0, 0]), 2.0 * np.pi * int(shifts[0, 0]) / N_THETA


def image_graph(images, edge_fraction: float) -> ObservationGraph:
    """Build an observation graph from pairwise rotationally invariant
    distances; edges carry the estimated alignment angles.

    The graph keeps every pair whose distance is at or below the
    `edge_fraction` quantile of all pair distances.  Every pair is aligned
    exactly, over blocks of rows within graphs.WORK_BYTES (at least one
    row); distances and shifts go straight into row-major upper-triangle
    vectors, so no n x n matrix is built.
    """
    images = _stack(images)
    n = len(images)
    if n < 2:
        raise ValueError("need at least 2 images")
    if not 0.0 < edge_fraction <= 1.0:
        raise ValueError(f"edge_fraction must lie in (0, 1], got {edge_fraction}")

    spectra, radii, weights = _spectra(images)
    flat = np.empty(n * (n - 1) // 2)
    flat_shift = np.empty(flat.size, dtype=np.int16)  # shifts lie in [0, N_THETA)
    pos = 0
    for lo, hi in row_blocks(n - 1, n * _PAIR_BYTES):
        d, s = _align_rows(spectra, radii, weights, lo, hi)
        # rows lo:hi fill the next contiguous run of the upper triangle
        upper = np.triu(np.ones(d.shape, dtype=bool))
        end = pos + np.count_nonzero(upper)
        flat[pos:end] = d[upper]
        flat_shift[pos:end] = s[upper]
        pos = end
    del spectra

    kept = np.flatnonzero(flat <= np.quantile(flat, edge_fraction))
    ei, ej = upper_pairs(kept, n)
    return ObservationGraph(
        n_vertices=n,
        edge_i=ei,
        edge_j=ej,
        theta=2.0 * np.pi * flat_shift[kept] / N_THETA,
        kind=np.zeros(ei.size, dtype=np.int8),
    )


def save_images(path, images) -> None:
    """Flat binary: per image an 8-byte little-endian header (two uint32
    dims) followed by row-major float64 pixels."""
    with open(path, "wb") as fh:
        for img in _stack(images):
            fh.write(struct.pack("<II", *img.shape))
            fh.write(img.astype("<f8").tobytes())


def load_images(path) -> np.ndarray:
    """The (n, L, L) stack that save_images wrote.  A truncated file, or
    images that are not all one odd square size, raise a ValueError naming
    the file."""
    images = []
    with open(path, "rb") as fh:
        while header := fh.read(8):
            if len(header) != 8:
                raise ValueError(f"{path}: truncated image header")
            h, w = struct.unpack("<II", header)
            L = images[0].shape[0] if images else h
            if h != w or h % 2 == 0 or h != L:
                raise ValueError(
                    f"{path}: image {len(images)} is {h}x{w}, but the images must "
                    f"all be {L}x{L} with {L} odd"
                )
            raw = fh.read(8 * h * w)
            if len(raw) != 8 * h * w:
                raise ValueError(f"{path}: truncated image payload")
            images.append(np.frombuffer(raw, dtype="<f8").reshape(h, w))
    if not images:
        raise ValueError(f"{path}: no images")
    return np.array(images, dtype=float)

"""Test-only image routines: the full-band alignment kernel that
imaging.image_graph ran before it aligned in a compressed basis, the
pairwise rid_distance built on it, the elementwise all-pairs loop that
preceded that kernel, the frequency-first alignment tile and the
fancy-index polar gather that imaging._align_tile and
imaging.polar_resample replaced, the reader of imaging.save_images' files,
and the 3D density of an imaging.Phantom, whose line integrals
imaging.project computes in closed form.

The full-band distances keep every angular frequency at every radius, so
they are the exact reference for the compressed path at full rank.  The
frequency-first tile and the fancy-index gather do the same arithmetic as
their replacements in another memory layout, so they are references for
the bytes.
"""

import struct

import numpy as np

from mfca import imaging
from mfca.graphs import row_blocks

N_THETA = imaging.N_THETA


def spectra(images) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugated angular spectra S of shape (N_THETA//2+1, n_r, n), the
    radii, and the radially weighted energies of the polar images.

    S[m, :, i] is the conjugate of image i's m-th angular Fourier
    coefficient at every radius, stored so that each frequency's
    cross-powers are one matrix product.  Images are resampled and
    transformed in chunks of images within graphs.WORK_BYTES.
    """
    images = imaging._stack(images)
    n_r = images.shape[1] // 2
    n_m = N_THETA // 2 + 1
    out = np.empty((n_m, n_r, len(images)), dtype=complex)
    weights = np.empty(len(images))
    # per image: the polar samples and one gathered corner, then the
    # spectrum and its conjugate
    for lo, hi in row_blocks(len(images), n_r * (2 * 8 * N_THETA + 2 * 16 * n_m)):
        polar, radii = imaging.polar_resample(images[lo:hi])
        out[:, :, lo:hi] = np.conj(np.fft.rfft(polar, axis=-1)).T
        for idx, p in enumerate(polar, start=lo):
            # one sum per image; a row-wise sum over the chunk rounds differently
            weights[idx] = np.sum(radii[:, None] * p**2)
    return out, radii, weights


def align_rows(
    spec: np.ndarray, radii: np.ndarray, weights: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and best shifts of images lo:hi against images lo+1:.

    One batched matrix product forms every cross-power,
    sum_r r F_i(m, r) conj(F_j(m, r)), for each angular frequency m; an
    inverse FFT over m turns it into the correlation at every cyclic shift.
    Returns (hi - lo, n - lo - 1) arrays; entries with j <= i are not pairs.
    """
    left = np.conj(spec[:, :, lo:hi]).transpose(0, 2, 1) * radii
    cross = np.fft.irfft(left @ spec[:, :, lo + 1 :], n=N_THETA, axis=0)
    shifts = np.argmax(cross, axis=0)
    best = np.take_along_axis(cross, shifts[None], axis=0)[0]
    d2 = np.maximum(weights[lo:hi, None] + weights[None, lo + 1 :] - 2.0 * best, 0.0)
    return np.sqrt(d2), shifts


def fancy_index_polar(images) -> np.ndarray:
    """imaging.polar_resample's samples from one fancy-index gather per
    corner, a new array each: (pixel * wa) * wb summed over the four
    corners from 0.0."""
    images = imaging._stack(images)
    n, L = images.shape[:2]
    radii, flat, corners = imaging._polar_grid(L)
    pixels = images.reshape(n, L * L)
    polar = np.zeros((n, len(radii), N_THETA))
    for offset, wa, wb in corners:
        corner = pixels[:, flat + offset]
        corner *= wa
        corner *= wb
        polar += corner
    return polar


def frequency_first_tile(
    coeffs: np.ndarray, energies: np.ndarray, rows: slice, cols: slice
) -> tuple[np.ndarray, np.ndarray]:
    """imaging._align_tile with the frequencies on the first axis: the real
    GEMM's output goes into N_M rows of zeros, and the inverse FFT, the
    argmax and the best correlation's lookup all run along axis 0."""
    n_m, width = coeffs.shape[0], coeffs.shape[1] // 2
    block = coeffs[:, :, cols]
    right = np.empty(block.shape + (2,))
    right[..., 0] = block
    right[:, :width, :, 1] = block[:, width:]
    np.negative(block[:, :width], out=right[:, width:, :, 1])
    right = right.reshape(n_m, 2 * width, 2 * block.shape[2])
    left = coeffs[:, :, rows].transpose(0, 2, 1)
    cross = np.zeros((imaging.N_M, left.shape[1], right.shape[2]))
    np.matmul(left, right, out=cross[:n_m])
    cross = np.fft.irfft(cross.view(complex), n=N_THETA, axis=0)
    shifts = np.argmax(cross, axis=0)
    best = np.take_along_axis(cross, shifts[None], axis=0)[0]
    d2 = np.maximum(energies[rows, None] + energies[None, cols] - 2.0 * best, 0.0)
    return np.sqrt(d2), shifts


def rid_distance(img_i: np.ndarray, img_j: np.ndarray) -> tuple[float, float]:
    """Rotationally invariant distance and the optimal alignment angle of
    two (L, L) images.

    Both images are resampled to the same polar grid; rotation becomes a
    cyclic shift along the angular axis and the best shift is found through
    FFT cross-correlation with radial weights proportional to r.  This is
    the full-band alignment kernel applied to one pair.
    """
    spec, radii, weights = spectra([img_i, img_j])
    dist, shifts = align_rows(spec, radii, weights, 0, 1)
    return float(dist[0, 0]), 2.0 * np.pi * int(shifts[0, 0]) / N_THETA


def full_band_distances(images) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) full-band distances and best shifts of every pair i < j (zero
    on and below the diagonal), from a per-row elementwise cross-power sum
    with no matrix product: the alignment loop image_graph used before its
    batched kernel."""
    spec, radii, weights = spectra(images)
    ffts = np.conj(spec).transpose(2, 1, 0)  # ffts[i, r, m] = F_i(m, r)
    n = len(ffts)
    rw = radii[:, None]
    dist = np.zeros((n, n))
    shift = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        cross = np.fft.irfft(
            np.sum(rw[None] * ffts[i][None] * np.conj(ffts[i + 1 :]), axis=1),
            n=N_THETA,
            axis=1,
        )
        s = np.argmax(cross, axis=1)
        best = cross[np.arange(cross.shape[0]), s]
        dist[i, i + 1 :] = np.sqrt(np.maximum(weights[i] + weights[i + 1 :] - 2.0 * best, 0.0))
        shift[i, i + 1 :] = s
    return dist, shift


def load_images(path) -> np.ndarray:
    """The (n, L, L) stack that imaging.save_images wrote.  A truncated
    file, or images that are not all one odd square size, raise a
    ValueError naming the file."""
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


def density(phantom: imaging.Phantom, points: np.ndarray) -> np.ndarray:
    """Evaluate the phantom's 3D density at an (..., 3) array of points."""
    points = np.asarray(points, dtype=float)
    out = np.zeros(points.shape[:-1])
    for c, sigma, amp in phantom.blobs:
        d2 = np.sum((points - c) ** 2, axis=-1)
        out += amp * np.exp(-d2 / (2.0 * sigma * sigma))
    return out

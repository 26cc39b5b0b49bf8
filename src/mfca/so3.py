"""Rotation-group primitives: Haar sampling, frames on disk, viewing
directions, and ground-truth in-plane alignment angles between frames.

A frame is a 3x3 special-orthogonal matrix whose third column is the viewing
direction.  Frames are stored as matrices, never as Euler angles; the
z-x-z angles of a Wigner D entry go straight to mfca.wigner.wigner_D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_header, read_rows, write_csv

_ORTHO_TOL = 1e-12
_FRAMES_HEADER = "index," + ",".join(f"r{a}{b}" for a in "123" for b in "123")


class AntipodalFramesError(ValueError):
    """Alignment angle is undefined for frames with antipodal viewing directions."""


def _not_rotations(r: np.ndarray) -> np.ndarray:
    """Mask over a (..., 3, 3) stack: True where max |R^T R - I| or
    |det R - 1| exceeds 100 * _ORTHO_TOL, or is NaN."""
    ortho = np.max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)), axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # NaN entries give a NaN det, rejected below
        det = np.abs(np.linalg.det(r) - 1.0)
    return ~((ortho <= _ORTHO_TOL * 100) & (det <= _ORTHO_TOL * 100))


@dataclass(frozen=True)
class FrameSet:
    """A batch of N frames sampled or loaded together."""

    frames: np.ndarray  # (N, 3, 3)

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=float)
        if f.ndim != 3 or f.shape[1:] != (3, 3):
            raise ValueError(f"frames must have shape (N, 3, 3), got {f.shape}")
        object.__setattr__(self, "frames", f)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def viewing_directions(self) -> np.ndarray:
        """(N, 3) array of third columns."""
        return self.frames[:, :, 2].copy()

    def to_csv(self, path, config: str) -> None:
        """Write the frames, 9 entries a row, with config hash `config`."""
        n = len(self)
        write_csv(
            path, _FRAMES_HEADER, config,
            "%d" + ",%.17g" * 9 + "\n", np.arange(n), *self.frames.reshape(n, 9).T,
        )

    @classmethod
    def from_csv(cls, path) -> "FrameSet":
        """Read frames written by to_csv; '#' lines are skipped.  A header
        other than to_csv's, no rows, an index column other than 0..n-1 in
        order or a row that is not a rotation raises ValueError naming the
        file."""
        with open(path) as fh:
            read_header(fh, path, _FRAMES_HEADER)
            data = read_rows(fh, path, ndmin=2)
        if data.shape[0] == 0:
            raise ValueError(f"{path}: no frame rows")
        if data.shape[1] != 10:
            raise ValueError(f"{path}: frame CSV must have 10 columns (index + 9 entries)")
        misplaced = data[:, 0] != np.arange(len(data))
        if misplaced.any():
            row = int(np.argmax(misplaced))
            raise ValueError(
                f"{path}: row {row} has index {data[row, 0]:g}; "
                f"expected the indices 0..{len(data) - 1} in order"
            )
        frames = data[:, 1:].reshape(-1, 3, 3)
        bad = _not_rotations(frames)
        if bad.any():
            raise ValueError(f"{path}: row {int(np.argmax(bad))} is not a rotation")
        return cls(frames=frames)


def sample_uniform(seed: int, n: int) -> FrameSet:
    """Draw n Haar-uniform rotations, deterministically from the seed.

    QR of an iid standard-Gaussian 3x3 matrix with the diagonal-sign
    correction gives Haar measure on O(3); frames with determinant -1 are
    mapped into SO(3) by flipping the last column.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 3, 3))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    sign = np.where(diag >= 0, 1.0, -1.0)
    q = q * sign[:, None, :]
    neg = np.linalg.det(q) < 0
    q[neg, :, 2] *= -1.0
    return FrameSet(frames=q)


def alignment_angles(frames: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """For each index pair (i, j) in (ii, jj), the angle theta minimizing
    ||R_i h(theta) - R_j||_F, in [0, 2*pi), with R = frames.

    Raises AntipodalFramesError when a pair's viewing directions are
    antipodal (no unique geodesic, so the transported in-plane angle is
    undefined).
    """
    m = np.einsum("pba,pbc->pac", frames[ii], frames[jj])
    c = m[:, 0, 0] + m[:, 1, 1]
    s = m[:, 1, 0] - m[:, 0, 1]
    if np.any(np.hypot(c, s) < 1e-12):
        raise AntipodalFramesError("a pair has antipodal viewing directions")
    return np.mod(np.arctan2(s, c), 2.0 * np.pi)

"""Rotation-group primitives: Euler angles, Haar sampling, viewing directions,
and ground-truth in-plane alignment angles between frames.

A frame is a 3x3 special-orthogonal matrix whose third column is the viewing
direction.  The Euler convention is z-x-z:

    R(phi, theta, psi) = Rz(phi) @ Rx(theta) @ Rz(psi)

with phi, psi in [0, 2*pi) and theta in [0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvio import read_header, write_csv

TWO_PI = 2.0 * np.pi

_ORTHO_TOL = 1e-12
_GIMBAL_TOL = 1e-12
_FRAMES_HEADER = "index," + ",".join(f"r{a}{b}" for a in "123" for b in "123")


class AntipodalFramesError(ValueError):
    """Alignment angle is undefined for frames with antipodal viewing directions."""


class EulerAngles(NamedTuple):
    phi: float
    theta: float
    psi: float


def wrap_angle(a):
    """Reduce an angle to [0, 2*pi) with floor-based modular reduction."""
    return np.mod(a, TWO_PI)


def _not_rotations(r: np.ndarray) -> np.ndarray:
    """Mask over a (..., 3, 3) stack: True where max |R^T R - I| or
    |det R - 1| exceeds 100 * _ORTHO_TOL, or is NaN."""
    ortho = np.max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)), axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # NaN entries give a NaN det, rejected below
        det = np.abs(np.linalg.det(r) - 1.0)
    return ~((ortho <= _ORTHO_TOL * 100) & (det <= _ORTHO_TOL * 100))


def from_euler(phi: float, theta: float, psi: float) -> np.ndarray:
    """Build the rotation Rz(phi) @ Rx(theta) @ Rz(psi).

    The third column is the viewing direction
    (sin(phi) sin(theta), -cos(phi) sin(theta), cos(theta)).
    """
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    return np.array(
        [
            [cf * cp - sf * sp * ct, -cf * sp - sf * cp * ct, sf * st],
            [sf * cp + cf * sp * ct, -sf * sp + cf * cp * ct, -cf * st],
            [sp * st, cp * st, ct],
        ]
    )


def to_euler(r: np.ndarray) -> EulerAngles:
    """Invert from_euler.  At gimbal lock (|r33| = 1) the convention psi = 0 is
    used and phi absorbs the full in-plane angle."""
    r = np.asarray(r, dtype=float)
    r33 = min(1.0, max(-1.0, r[2, 2]))
    theta = float(np.arccos(r33))
    if np.sin(theta) < _GIMBAL_TOL:
        # theta in {0, pi}: R = Rz(phi +/- psi) * const, put everything in phi
        phi = float(np.arctan2(r[1, 0], r[0, 0]))
        return EulerAngles(float(wrap_angle(phi)), 0.0 if r33 > 0 else np.pi, 0.0)
    phi = float(np.arctan2(r[0, 2], -r[1, 2]))
    psi = float(np.arctan2(r[2, 0], r[2, 1]))
    return EulerAngles(float(wrap_angle(phi)), theta, float(wrap_angle(psi)))


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
        other than to_csv's, an index column other than 0..n-1 in order or
        a row that is not a rotation raises ValueError naming the file."""
        with open(path) as fh:
            read_header(fh, path, _FRAMES_HEADER)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
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
    return wrap_angle(np.arctan2(s, c))

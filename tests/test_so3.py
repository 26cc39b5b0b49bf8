
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfca import so3
from theory_oracle import from_euler, rot_x, rot_z, to_euler

ANGLE = st.floats(min_value=0.0, max_value=2.0 * np.pi - 1e-9)
POLAR = st.floats(min_value=1e-6, max_value=np.pi - 1e-6)


def haar(seed, n=1):
    return so3.sample_uniform(seed, n).frames


def view(r):
    """The viewing direction of one frame, through FrameSet."""
    return so3.FrameSet(frames=r[None]).viewing_directions()[0]


def angle(r_i, r_j):
    """alignment_angles on the one pair (r_i, r_j)."""
    return float(so3.alignment_angles(np.stack([r_i, r_j]), np.array([0]), np.array([1]))[0])


class TestFromEuler:
    def test_identity(self):
        assert np.allclose(from_euler(0, 0, 0), np.eye(3))

    def test_matches_factor_product(self):
        phi, theta, psi = 0.3, 0.7, 1.1
        expected = rot_z(phi) @ rot_x(theta) @ rot_z(psi)
        assert np.allclose(from_euler(phi, theta, psi), expected, atol=1e-15)

    @given(phi=ANGLE, theta=POLAR, psi=ANGLE)
    @settings(max_examples=50, deadline=None)
    def test_third_column_is_viewing_direction(self, phi, theta, psi):
        r = from_euler(phi, theta, psi)
        expected = np.array(
            [np.sin(phi) * np.sin(theta), -np.cos(phi) * np.sin(theta), np.cos(theta)]
        )
        assert np.allclose(r[:, 2], expected, atol=1e-14)

    @given(phi=ANGLE, theta=POLAR, psi=ANGLE)
    @settings(max_examples=50, deadline=None)
    def test_produces_rotation(self, phi, theta, psi):
        r = from_euler(phi, theta, psi)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-14)


class TestToEuler:
    def test_identity(self):
        assert to_euler(np.eye(3)) == (0.0, 0.0, 0.0)

    def test_round_trip_on_haar_samples(self):
        frames = haar(42, 1000)
        worst = 0.0
        for r in frames:
            back = from_euler(*to_euler(r))
            worst = max(worst, np.max(np.abs(back - r)))
        assert worst < 1e-10

    def test_gimbal_lock_convention(self):
        alpha = 1.234
        angles = to_euler(rot_z(alpha))
        assert np.allclose(angles, (alpha, 0.0, 0.0), atol=1e-12)

    def test_gimbal_lock_theta_pi_round_trip(self):
        r = rot_z(0.8) @ rot_x(np.pi)
        phi, theta, psi = to_euler(r)
        assert psi == 0.0
        assert np.isclose(theta, np.pi)
        assert np.allclose(from_euler(phi, theta, psi), r, atol=1e-10)


class TestViewingDirection:
    def test_identity(self):
        assert np.allclose(view(np.eye(3)), [0, 0, 1])

    def test_quarter_turn(self):
        assert np.allclose(
            view(from_euler(0, np.pi / 2, 0)), [0, -1, 0], atol=1e-15
        )

    @given(alpha=ANGLE)
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_in_plane_action(self, alpha):
        r = haar(7)[0]
        assert np.allclose(
            view(r @ rot_z(alpha)),
            view(r),
            atol=1e-14,
        )


class TestSampleUniform:
    def test_deterministic(self):
        a = so3.sample_uniform(5, 3).frames
        b = so3.sample_uniform(5, 3).frames
        assert np.array_equal(a, b)

    def test_all_rotations(self):
        assert not so3._not_rotations(haar(3, 200)).any()

    def test_viewing_directions_centered(self):
        dirs = so3.sample_uniform(11, 100000).viewing_directions()
        assert abs(np.mean(dirs[:, 2])) < 0.01

    def test_polar_angle_distribution(self):
        from scipy.stats import kstest

        dirs = so3.sample_uniform(13, 100000).viewing_directions()
        theta = np.arccos(np.clip(dirs[:, 2], -1, 1))
        stat = kstest(theta, lambda t: (1.0 - np.cos(t)) / 2.0)
        assert stat.pvalue > 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            so3.sample_uniform(0, 0)


class TestAlignmentAngle:
    def test_same_frame(self):
        r = haar(1)[0]
        assert angle(r, r) == 0.0

    @given(alpha=ANGLE)
    @settings(max_examples=25, deadline=None)
    def test_in_plane_pair(self, alpha):
        r = haar(2)[0]
        got = angle(r, r @ rot_z(alpha))
        assert np.isclose(got, alpha, atol=1e-10) or np.isclose(
            abs(got - alpha), 2 * np.pi, atol=1e-10
        )

    def test_matches_grid_search(self):
        # nearby pair: rotate a frame a few degrees off its own axis
        r_i = haar(9)[0]
        r_j = r_i @ rot_x(0.12) @ rot_z(2.5)
        assert view(r_i) @ view(r_j) > 0.95
        got = angle(r_i, r_j)
        grid = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
        m = r_i.T @ r_j
        # ||R_i rho(t) - R_j||_F^2 = 6 - 2(c cos t + s sin t + m33)
        c = m[0, 0] + m[1, 1]
        s = m[1, 0] - m[0, 1]
        obj = 6.0 - 2.0 * (c * np.cos(grid) + s * np.sin(grid) + m[2, 2])
        best = grid[int(np.argmin(obj))]
        assert abs(got - best) < 2.0 * np.pi / 1_000_000 * 2

    def test_minimizes_frobenius(self):
        r_i, r_j = haar(17, 2)
        theta = angle(r_i, r_j)
        base = np.linalg.norm(r_i @ rot_z(theta) - r_j)
        for t in np.linspace(0, 2 * np.pi, 720, endpoint=False):
            assert base <= np.linalg.norm(r_i @ rot_z(t) - r_j) + 1e-12

    def test_antipodal_error(self):
        r = haar(4)[0]
        flipped = r @ rot_x(np.pi)
        with pytest.raises(so3.AntipodalFramesError):
            angle(r, flipped)


class TestAngleProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, seed):
        r_i, r_j = haar(seed, 2)
        t_ij = angle(r_i, r_j)
        t_ji = angle(r_j, r_i)
        assert np.isclose((t_ij + t_ji) % (2 * np.pi), 0.0, atol=1e-10) or np.isclose(
            (t_ij + t_ji) % (2 * np.pi), 2 * np.pi, atol=1e-10
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_left_invariance(self, seed):
        r_i, r_j, g = haar(seed, 3)
        assert np.isclose(
            angle(g @ r_i, g @ r_j),
            angle(r_i, r_j),
            atol=1e-10,
        )

    @given(a1=ANGLE, a2=ANGLE)
    @settings(max_examples=40, deadline=None)
    def test_equivariance(self, a1, a2):
        r_i, r_j = haar(77, 2)
        base = angle(r_i, r_j)
        shifted = angle(r_i @ rot_z(a1), r_j @ rot_z(a2))
        assert np.isclose(
            (shifted - (base - a1 + a2)) % (2 * np.pi) % (2 * np.pi), 0.0, atol=1e-9
        ) or np.isclose((shifted - (base - a1 + a2)) % (2 * np.pi), 2 * np.pi, atol=1e-9)


class TestFrameSet:
    def test_csv_round_trip_bitwise(self, tmp_path):
        fs = so3.sample_uniform(99, 25)
        path = tmp_path / "frames.csv"
        fs.to_csv(path, "0123456789abcdef")
        back = so3.FrameSet.from_csv(path)
        assert np.array_equal(back.frames, fs.frames)

    def test_write_csv_matches_per_value_format(self, tmp_path):
        # FrameSet does not check orthogonality, so any float can be written
        vals = [-0.0, 5e-324, 1e-5, 1e16, 1e17, np.inf, -np.inf, np.nan, 1.0 / 3.0]
        frames = np.array([vals, vals[::-1]]).reshape(2, 3, 3)
        path = tmp_path / "frames.csv"
        so3.FrameSet(frames=frames).to_csv(path, "0123456789abcdef")
        assert path.read_text().splitlines()[2:] == [
            f"{idx}," + ",".join(format(v, ".17g") for v in r.ravel())
            for idx, r in enumerate(frames)
        ]

    def test_header(self, tmp_path):
        path = tmp_path / "frames.csv"
        so3.sample_uniform(1, 2).to_csv(path, "0123456789abcdef")
        assert path.read_text().splitlines()[:2] == [
            "index,r11,r12,r13,r21,r22,r23,r31,r32,r33", "# config=0123456789abcdef"
        ]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            so3.FrameSet(frames=np.zeros((3, 2, 2)))

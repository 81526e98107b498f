import numpy as np
import pytest

from ferasec.clutter import reduce_frameset
from ferasec.errors import DomainError
from ferasec.frames import FrameSet
from oracles import scalar_loopback_reference


class TestClutterUpdate:
    """The per-frame loopback update, observed through reduce_frameset."""

    def test_converged_state_yields_zero(self):
        # first_frame init seeds the estimate with r itself: a converged
        # state, which every further copy of r must leave at exactly zero.
        r = np.array([10.0, 40.0, 90.0])
        reduced = reduce_frameset(FrameSet(np.tile(r, (3, 1))), 0.7)
        assert np.all(reduced == 0.0)

    def test_single_step_from_zero(self):
        reduced = reduce_frameset(FrameSet(np.full((1, 4), 100.0)), 0.95, init="zero")
        assert np.allclose(reduced, 95.0)

    def test_geometric_convergence_matches_closed_form(self):
        # Constant input from zero init: y_k = alpha**k * r per bin.
        alpha = 0.8
        r = np.array([20.0, 60.0])
        reduced = reduce_frameset(FrameSet(np.tile(r, (11, 1))), alpha, init="zero")
        for k in range(1, 12):
            # float32 storage of the reduced map bounds the relative error.
            np.testing.assert_allclose(reduced[k - 1], alpha**k * r, rtol=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.4])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            reduce_frameset(FrameSet(np.zeros((2, 3))), alpha)


class TestReduceFrameset:
    def test_identical_frames_reduce_to_zero(self):
        row = np.linspace(0.0, 99.0, 32)
        fs = FrameSet(np.tile(row, (12, 1)))
        reduced = reduce_frameset(fs, 0.95)
        assert reduced.shape == (12, 32) and reduced.dtype == np.float32
        assert not reduced.flags.writeable
        assert np.all(reduced == 0.0)

    def test_single_frame_is_zero_row(self):
        fs = FrameSet(np.random.default_rng(0).uniform(0, 100, (1, 16)))
        reduced = reduce_frameset(fs, 0.95)
        assert reduced.shape == (1, 16)
        assert np.all(reduced == 0.0)

    def test_alternating_frames_match_scalar_reference(self):
        r = np.linspace(5.0, 45.0, 8)
        rows = np.array([r if m % 2 == 0 else 2.0 * r for m in range(10)])
        fs = FrameSet(rows)
        reduced = reduce_frameset(fs, 0.95)
        expected = scalar_loopback_reference(fs.data.astype(float).tolist(), 0.95, fs.data[0])
        assert np.allclose(reduced, expected, rtol=1e-6, atol=1e-6)

    def test_zero_init_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        fs = FrameSet(rng.uniform(0, 100, (20, 6)))
        reduced = reduce_frameset(fs, 0.9, init="zero")
        expected = scalar_loopback_reference(fs.data.astype(float).tolist(), 0.9, [0.0] * 6)
        assert np.allclose(reduced, expected, rtol=1e-6, atol=1e-6)

    def test_zero_init_constant_input_decays_like_alpha_power(self):
        alpha = 0.95
        row = np.full(16, 80.0)
        fs = FrameSet(np.tile(row, (50, 1)))
        reduced = reduce_frameset(fs, alpha, init="zero")
        norms = np.abs(reduced).max(axis=1)
        for m in range(1, 51):
            expected = alpha**m * 80.0
            assert norms[m - 1] <= expected * 1.01
            assert norms[m - 1] >= expected / 1.01

    def test_linearity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m, n = int(rng.integers(2, 25)), int(rng.integers(2, 30))
            x = rng.uniform(0.0, 40.0, size=(m, n))
            y = rng.uniform(0.0, 40.0, size=(m, n))
            a, b = float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.1, 1.2))
            combined = FrameSet(a * x + b * y)
            fx = reduce_frameset(FrameSet(x), 0.95).astype(np.float64)
            fy = reduce_frameset(FrameSet(y), 0.95).astype(np.float64)
            fc = reduce_frameset(combined, 0.95).astype(np.float64)
            scale = max(np.abs(fc).max(), 1e-9)
            assert np.abs(fc - (a * fx + b * fy)).max() <= 1e-6 * scale

    def test_rejects_bad_init(self):
        fs = FrameSet(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            reduce_frameset(fs, init="midway")

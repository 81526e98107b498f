import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ferasec.clutter import DEFAULT_ALPHA, reduce_frameset
from ferasec.errors import (
    DimensionError,
    DomainError,
    FerasecError,
    FormatError,
    NumericError,
)
from ferasec.features import (
    FeatureMatrix,
    FerasecConfig,
    delta,
    downsample,
    extract_features,
    load_features,
    remove_dc,
    rms_envelope,
    store_features,
    vectorize,
)
from ferasec import features
from ferasec.features import _kept_samples, _windowed_rms
from ferasec.frames import FrameSet


from byte_edits import EDITS, edited
from oracles import naive_delta, naive_downsample, naive_remove_dc, naive_rms, padded_rms


class TestVectorize:
    def test_two_by_three(self):
        frames = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        assert vectorize(frames).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_single_frame_identity(self):
        assert vectorize(np.array([[9.0, 7.0, 5.0, -3.0]])).tolist() == [9.0, 7.0, 5.0, -3.0]

    def test_index_arithmetic(self):
        rng = np.random.default_rng(0)
        frames = rng.uniform(0, 100, (5, 4)).astype(np.float32)
        f = vectorize(frames)
        assert f.dtype == np.float64
        for m in range(1, 6):
            for n in range(1, 5):
                assert f[(m - 1) * 4 + n - 1] == frames[m - 1, n - 1]


class TestRmsEnvelope:
    def test_constant_interior_is_magnitude(self):
        f = np.full(200, -3.0)
        e = rms_envelope(f, 20)
        interior = e[20:-20]
        assert np.allclose(interior, 3.0, rtol=1e-12)

    def test_zero_input(self):
        assert np.all(rms_envelope(np.zeros(50), 8) == 0.0)

    def test_unit_impulse_window_four(self):
        f = np.zeros(40)
        i0 = 17  # 1-based position of the impulse
        f[i0 - 1] = 1.0
        e = rms_envelope(f, 4)
        covered = set(range(i0 - 1, i0 + 3))  # j in i0-1 .. i0+2 (1-based)
        for j in range(1, 41):
            if j in covered:
                assert e[j - 1] == pytest.approx(0.5, rel=1e-12)
            else:
                assert e[j - 1] == 0.0

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 400))
            window = 2 * int(rng.integers(1, 30))
            f = rng.normal(0.0, 10.0, size=n)
            expected = naive_rms(f, window)
            got = rms_envelope(f, window)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_matches_naive_reference_across_wide_dynamic_range(self):
        # A loud segment next to a quiet one: a window sum taken as the
        # difference of two running sums loses the quiet windows.
        for loud, quiet in ((100.0, 0.01), (1e4, 1e-4)):
            f = np.concatenate((np.full(2000, loud), np.full(2000, quiet)))
            np.testing.assert_allclose(rms_envelope(f, 400), naive_rms(f, 400), rtol=1e-12)

    def test_bound_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            window = 2 * int(rng.integers(1, 40))
            f = rng.normal(0.0, 50.0, size=n)
            e = rms_envelope(f, window)
            assert np.all(e >= 0.0)
            bound = np.abs(f).max() * math.sqrt(min(window, n) / window)
            assert e.max() <= bound * (1.0 + 1e-12)

    def test_odd_window_rejected(self):
        with pytest.raises(DomainError):
            rms_envelope(np.ones(10), 5)

    def test_windows_past_twice_the_input_match_naive_reference(self):
        # Such a window covers every sample from every position, so the
        # envelope is one constant; only its divisor grows.
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 64, 301):
            for f in (rng.normal(0.0, 10.0, size=n), rng.uniform(0.0, 100.0, n).astype(np.float32)):
                for window in (2 * n, 2 * n + 2, 4 * n + 6, 10**6):
                    got = rms_envelope(f, window)
                    np.testing.assert_allclose(got, naive_rms(f, window), rtol=1e-12, atol=1e-14)
                    assert np.all(got == got[0])


class TestKeptWindows:
    """``extract_features`` squares only the samples of the windows that
    downsampling keeps; each kept value equals the full envelope's, bit
    for bit, and the full envelope equals the one summed from a single
    zero-padded buffer of every squared sample."""

    CASES = (
        (192, 8, 64),  # interior windows, and one past the last sample (192 = 3 * 64)
        (203, 8, 64),  # interior windows only
        (200, 64, 8),  # W > D: the first kept windows start before the first sample, the last end past the last
        (61, 100, 3),  # W > len(f): most windows run past both ends
        (50, 100, 7),  # W == 2 * len(f): the constant branch
        (50, 400, 1),  # W > 2 * len(f)
        (5000, 400, 1),  # 5000 windows of 400 squares, each square in up to 400 of them
        (240 * 256, 400, 1024),  # a synthetic item under the default recipe
    )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length, window, factor", CASES)
    def test_kept_windows_equal_the_full_envelope(self, length, window, factor, dtype):
        f = np.random.default_rng(length + window).uniform(0.0, 100.0, length).astype(dtype)
        kept = _kept_samples(length, factor)
        got = _windowed_rms(f, window, kept)
        full = rms_envelope(f, window)
        assert got.dtype == np.float64 and got.tobytes() == full[kept].tobytes()
        if window < 2 * length:
            assert full.tobytes() == padded_rms(f, window).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length, window, factor", CASES)
    def test_small_blocks_of_squares_give_the_same_bits(self, length, window, factor, dtype, monkeypatch):
        """Squares held 500 at a time (or one window's worth): the windows
        split across many blocks, and no sum moves by a bit."""
        f = np.random.default_rng(length + window).uniform(0.0, 100.0, length).astype(dtype)
        kept = _kept_samples(length, factor)
        whole = _windowed_rms(f, window, kept)
        monkeypatch.setattr(features, "_SQUARES_BYTES", 8 * 500)
        assert _windowed_rms(f, window, kept).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("factor", [1, 1024])
    def test_squares_are_held_one_block_at_a_time(self, factor):
        """400,000 samples: the squares of every sample (3.2 MB, step 1) or of
        the 390 kept windows (1.25 MB, step 1024) pass through one block of
        at most 1 MiB, beside the float64 result and the buffer numpy
        widens float32 samples through."""
        f = np.random.default_rng(27).uniform(0.0, 100.0, 400_000).astype(np.float32)
        kept = _kept_samples(f.size, factor)
        tracemalloc.start()
        try:
            env = _windowed_rms(f, 400, kept)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 20) + env.nbytes + 128 * 1024

    def test_strided_input_equals_its_contiguous_copy(self):
        f = np.random.default_rng(28).uniform(0.0, 100.0, 301)[::3]
        assert rms_envelope(f, 8).tobytes() == rms_envelope(f.copy(), 8).tobytes()

    def test_random_lengths_windows_and_factors(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            length = int(rng.integers(1, 120))
            window, factor = 2 * int(rng.integers(1, 80)), int(rng.integers(1, length + 1))
            f = rng.uniform(0.0, 100.0, length).astype(rng.choice([np.float32, np.float64]))
            kept = _kept_samples(length, factor)
            assert _windowed_rms(f, window, kept).tobytes() == rms_envelope(f, window)[kept].tobytes()


class TestDownsample:
    def test_one_to_ten_by_three(self):
        e = np.arange(1.0, 11.0)
        assert downsample(e, 3).tolist() == [3.0, 6.0, 9.0]

    def test_identity_when_factor_one(self):
        e = np.array([4.0, 2.0, 7.0])
        assert downsample(e, 1).tolist() == [4.0, 2.0, 7.0]

    def test_too_short_raises(self):
        with pytest.raises(DomainError, match="too short"):
            downsample(np.ones(5), 6)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(10, 500))
            factor = int(rng.integers(1, n + 1))
            e = rng.normal(size=n)
            assert downsample(e, factor).tolist() == naive_downsample(e, factor)


class TestRemoveDc:
    def test_constant_goes_to_zero(self):
        assert remove_dc(np.full(7, 3.25)).tolist() == [0.0] * 7

    def test_simple_ramp(self):
        assert remove_dc(np.array([1.0, 2.0, 3.0])).tolist() == [-1.0, 0.0, 1.0]

    def test_sum_is_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(0, 100, size=int(rng.integers(1, 200)))
            z = remove_dc(v)
            assert abs(z.sum()) <= 1e-9 * max(np.abs(v).max(), 1.0)
            np.testing.assert_allclose(z, naive_remove_dc(v), rtol=1e-12, atol=1e-12)


class TestDelta:
    def test_constant_interior_is_zero(self):
        z = np.full(30, 5.0)
        out = delta(z, 9)
        assert np.allclose(out[4:-4], 0.0, atol=1e-14)

    def test_linear_ramp_interior_slope_one(self):
        z = np.arange(1.0, 41.0)
        out = delta(z, 9)
        assert np.all(out[4:-4] == 1.0)

    def test_window_nine_denominator_is_sixty(self):
        z = np.zeros(20)
        z[10] = 60.0
        out = delta(z, 9)
        # Single spike: out[k] = l * 60 / 60 where l = 10 - k within the window.
        for k in range(6, 15):
            assert out[k] == pytest.approx(10 - k, rel=1e-12)

    def test_matches_naive_reference_with_boundary_padding(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            window = 2 * int(rng.integers(1, 8)) + 1
            z = rng.normal(size=n)
            np.testing.assert_allclose(
                delta(z, window), naive_delta(z, window), rtol=1e-12, atol=1e-14
            )

    def test_windows_wider_than_the_sequence_match_naive_reference(self):
        # Lags past K - 1 reach no sample, so only the denominator grows.
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            window = 2 * n + 2 * int(rng.integers(0, 3 * n + 2)) + 1  # >= 2K + 1
            z = rng.normal(size=n)
            np.testing.assert_allclose(
                delta(z, window), naive_delta(z, window), rtol=1e-12, atol=1e-14
            )

    def test_even_window_rejected(self):
        with pytest.raises(DomainError):
            delta(np.ones(5), 4)


class TestExtractFeatures:
    def test_shape_600_by_256_gives_6x150(self):
        rng = np.random.default_rng(6)
        fs = FrameSet(rng.uniform(0, 100, (600, 256)))
        matrix = extract_features(fs)
        assert matrix.values.shape == (6, 150)

    def test_all_zero_input_gives_all_zero_features(self):
        fs = FrameSet(np.zeros((40, 64)))
        matrix = extract_features(fs, FerasecConfig(window=8, downsample=32, delta_window=9))
        assert np.all(matrix.values == 0.0)

    def test_row2_matches_staged_oracle(self):
        # Independent stage-by-stage run on a single-reflector frame set.
        bins = np.arange(1.0, 65.0)
        rows = []
        for m in range(60):
            center = 20.0 + 10.0 * math.sin(2.0 * math.pi * m / 60.0)
            rows.append(40.0 * np.exp(-((bins - center) ** 2) / 8.0))
        fs = FrameSet(np.array(rows))
        # A non-default alpha shows that row 2 takes it from the recipe.
        cfg = FerasecConfig(window=16, downsample=64, delta_window=9, alpha=0.9)
        matrix = extract_features(fs, cfg)

        reduced = reduce_frameset(fs, 0.9)
        staged = naive_remove_dc(
            naive_downsample(naive_rms(vectorize(reduced).tolist(), 16), 64)
        )
        # atol absorbs sqrt amplification on windows with near-zero energy
        np.testing.assert_allclose(matrix.values[1], staged, rtol=1e-9, atol=1e-7)
        np.testing.assert_allclose(
            matrix.values[3], naive_delta(staged, 9), rtol=1e-9, atol=1e-7
        )

    def test_envelope_rows_equal_staged_pipeline(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = int(rng.integers(2, 40))
            n = int(rng.integers(2, 40))
            # Windows are often wider than the factor.  They stay narrower
            # than twice the sample count: beyond that every window covers
            # the whole set, the envelope is constant and FeatureMatrix's
            # DC check rejects the rounding residue of remove_dc.
            cfg = FerasecConfig(
                window=2 * int(rng.integers(1, min(60, m * n))),
                downsample=int(rng.choice([1, int(rng.integers(1, m * n + 1))])),
            )
            fs = FrameSet(rng.uniform(0, 100, (m, n)))
            matrix = extract_features(fs, cfg)
            for row, staged_input in ((0, fs.data), (1, reduce_frameset(fs, cfg.alpha))):
                envelope = rms_envelope(vectorize(staged_input), cfg.window)
                staged = remove_dc(downsample(envelope, cfg.downsample))
                assert np.array_equal(matrix.values[row], staged)

    def test_row_ordering_deltas(self):
        rng = np.random.default_rng(7)
        fs = FrameSet(rng.uniform(0, 100, (50, 32)))
        cfg = FerasecConfig(window=10, downsample=40, delta_window=5)
        matrix = extract_features(fs, cfg)
        np.testing.assert_allclose(matrix.values[2], delta(matrix.values[0], 5), atol=1e-14)
        np.testing.assert_allclose(matrix.values[3], delta(matrix.values[1], 5), atol=1e-14)
        np.testing.assert_allclose(matrix.values[4], delta(matrix.values[2], 5), atol=1e-14)
        np.testing.assert_allclose(matrix.values[5], delta(matrix.values[3], 5), atol=1e-14)

    def test_shape_and_dc_free_property(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(4, 80))
            n = int(rng.integers(8, 48))
            cfg = FerasecConfig(
                window=2 * int(rng.integers(2, 20)),
                downsample=int(rng.integers(1, m * n + 1)),
                delta_window=2 * int(rng.integers(1, 6)) + 1,
            )
            fs = FrameSet(rng.uniform(0, 100, (m, n)))
            matrix = extract_features(fs, cfg)
            assert matrix.values.shape == (6, (m * n) // cfg.downsample)
            for row in (0, 1):
                bound = 1e-9 * max(np.abs(matrix.values[row]).max(), 1e-300)
                assert abs(matrix.values[row].mean()) <= bound

    def test_scale_covariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(0.0, 25.0, (30, 32))
        cfg = FerasecConfig(window=8, downsample=30, delta_window=9)
        one = extract_features(FrameSet(base), cfg)
        two = extract_features(FrameSet(2.0 * base), cfg)
        assert np.array_equal(two.values, 2.0 * one.values)

    def test_scale_covariance_general_factor(self):
        rng = np.random.default_rng(10)
        base = rng.uniform(0.0, 30.0, (25, 24))
        cfg = FerasecConfig(window=6, downsample=25, delta_window=7)
        one = extract_features(FrameSet(base), cfg)
        a = 2.7
        scaled = extract_features(FrameSet(a * base), cfg)
        # float32 storage quantizes a*base independently of base, so the
        # comparison needs an absolute term proportional to the row scale
        atol = 1e-6 * np.abs(a * one.values).max()
        np.testing.assert_allclose(scaled.values, a * one.values, rtol=1e-5, atol=atol)

    def test_rejects_reduced_input_and_short_sets(self):
        # A reduced map goes negative, so it cannot pass as a raw frame set.
        reduced = reduce_frameset(FrameSet(np.array([[10.0, 10.0], [0.0, 0.0]])), DEFAULT_ALPHA)
        with pytest.raises(DomainError):
            extract_features(FrameSet(reduced))
        with pytest.raises(DomainError, match="too short"):
            extract_features(FrameSet(np.zeros((2, 4))), FerasecConfig(window=4, downsample=16))


class TestFerasecConfig:
    def test_defaults(self):
        cfg = FerasecConfig()
        assert (cfg.window, cfg.downsample, cfg.delta_window) == (400, 1024, 9)
        assert cfg.alpha == DEFAULT_ALPHA

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 3},
            {"window": 0},
            {"downsample": 0},
            {"delta_window": 4},
            {"delta_window": 1},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"alpha": -0.1},
            {"alpha": 1.5},
            {"alpha": float("nan")},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(DomainError):
            FerasecConfig(**kwargs)

    def test_sizes_lie_below_2_32(self):
        cfg = FerasecConfig(window=2**32 - 2, downsample=2**32 - 1, delta_window=2**32 - 1)
        assert (cfg.window, cfg.downsample, cfg.delta_window) == (2**32 - 2, 2**32 - 1, 2**32 - 1)
        for kwargs in ({"window": 2**32}, {"downsample": 2**32}, {"delta_window": 2**32 + 1}):
            with pytest.raises(DomainError, match=r"in \[\d, 2\*\*32\), got"):
                FerasecConfig(**kwargs)
        for stage, size in ((rms_envelope, 2**32), (downsample, 2**32), (delta, 2**32 + 1)):
            with pytest.raises(DomainError, match=r"in \[\d, 2\*\*32\), got"):
                stage(np.ones(4), size)


class TestFeatureMatrixType:
    def test_requires_six_rows(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.zeros((5, 4)))

    def test_requires_dc_free_envelope_rows(self):
        values = np.ones((6, 4))
        with pytest.raises(DomainError):
            FeatureMatrix(values)

    @pytest.mark.parametrize("seed", range(3, 10))
    def test_whole_set_window_envelope_is_dc_free(self, seed):
        # window >= 2*M*N: every window covers the whole frame set, so the
        # envelope is constant and only rounding residue survives remove_dc.
        fs = FrameSet(np.random.default_rng(seed).uniform(0, 100, (3, 8)))
        matrix = extract_features(fs, FerasecConfig(window=62, downsample=1))
        assert matrix.values.shape == (6, 24)
        assert np.abs(matrix.values[:2]).max() < 1e-12

    def test_asarray_protocol(self):
        matrix = FeatureMatrix(np.zeros((6, 3)))
        assert np.asarray(matrix).shape == (6, 3)


class TestFeaturePersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        fs = FrameSet(rng.uniform(0, 100, (40, 32)))
        matrix = extract_features(fs, FerasecConfig(window=8, downsample=64, delta_window=9))
        path = tmp_path / "f.ftm"
        store_features(matrix, path)
        loaded = load_features(path)
        assert loaded.shape == matrix.values.shape
        np.testing.assert_array_equal(loaded, matrix.values.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ftm"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == 0

    @pytest.mark.parametrize("offset", [4, 8])  # row count, then length K
    def test_zero_size_is_located_at_its_field(self, tmp_path, offset):
        path = tmp_path / "zero.ftm"
        store_features(np.ones((2, 3)), path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4] = bytes(4)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="dimensions must be positive") as err:
            load_features(path)
        assert err.value.offset == offset

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.ftm"
        store_features(np.ones((2, 3)), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_features(path)

    def test_non_finite_rejected_at_its_offset(self, tmp_path):
        path = tmp_path / "nan.ftm"
        store_features(np.zeros((2, 3)), path)
        blob = bytearray(path.read_bytes())
        blob[24:28] = np.float32(np.nan).tobytes()  # fourth value: 12 header bytes + 3 * 4
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="finite") as err:
            load_features(path)
        assert err.value.offset == 24

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, value):
        # 1e39 is finite as a float64 but overflows float32.
        values = np.zeros((6, 3))
        values[1, 2] = value
        path = tmp_path / "bad.ftm"
        with pytest.raises(NumericError, match="feature value 5 is .*not finite as a float32"):
            store_features(values, path)
        assert not path.exists()


class TestLoadFeaturesProperty:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("load_features") / "item.ftm"
        store_features(np.random.default_rng(0).normal(size=(6, 5)), path)
        return path, path.read_bytes()

    # Arbitrary bytes, or a valid file with a few bytes or words
    # overwritten, cut short or extended.
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(
        noise=st.one_of(st.none(), st.binary(max_size=64)),
        edits=EDITS,
        keep=st.integers(0, 200),
        tail=st.binary(max_size=8),
    )
    def test_any_bytes_load_or_raise_ferasec_error(self, stored, noise, edits, keep, tail):
        path, valid = stored
        path.write_bytes(edited(valid, edits, keep, tail) if noise is None else noise)
        try:
            values = load_features(path)
        except FerasecError as exc:
            # A failure is a format error at an offset inside the file or at its end.
            assert isinstance(exc, FormatError)
            assert exc.offset is not None and 0 <= exc.offset <= len(path.read_bytes())
            return
        assert values.dtype == np.float64 and values.ndim == 2 and values.size > 0
        assert np.isfinite(values).all()

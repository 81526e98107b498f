import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ferasec.errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    FerasecError,
    FormatError,
)
from ferasec.frames import (
    CorpusManifest,
    FrameSet,
    ManifestEntry,
    load_frameset,
    load_manifest,
    pearson_correlation,
    positioning_check,
    store_frameset,
    store_manifest,
)


from byte_edits import EDITS, edited
from oracles import pearson_by_formula


def random_raw_frameset(rng, m=None, n=None, **kwargs):
    m = m or int(rng.integers(1, 30))
    n = n or int(rng.integers(4, 64))
    data = rng.uniform(0.0, 100.0, size=(m, n)).astype(np.float32)
    return FrameSet(data, **kwargs)


class TestFrameSetType:
    def test_raw_range_enforced(self):
        with pytest.raises(DomainError):
            FrameSet(np.array([[0.0, 101.0]]))
        with pytest.raises(DomainError):
            FrameSet(np.array([[-0.5, 10.0]]))

    def test_immutable(self):
        fs = random_raw_frameset(np.random.default_rng(0))
        with pytest.raises(ValueError):
            fs.data[0, 0] = 1.0

    def test_frame_accessor_is_one_based(self):
        fs = FrameSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert fs.frame(1).dtype == np.float64
        assert fs.frame(1).tolist() == [1.0, 2.0]
        assert fs.frame(2).tolist() == [3.0, 4.0]
        with pytest.raises(DomainError):
            fs.frame(0)
        with pytest.raises(DomainError):
            fs.frame(3)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            FrameSet(np.zeros((0, 4)))


class TestPersistence:
    def test_round_trip_600x256(self, tmp_path):
        rng = np.random.default_rng(1)
        fs = random_raw_frameset(rng, m=600, n=256)
        path = tmp_path / "a.frs"
        store_frameset(fs, path)
        assert load_frameset(path) == fs

    def test_round_trip_property(self, tmp_path):
        rng = np.random.default_rng(2)
        for i in range(25):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(1, 80))
            fs = FrameSet(
                rng.uniform(0.0, 100.0, size=(m, n)).astype(np.float32),
                frame_rate_hz=float(rng.uniform(50.0, 400.0)),
                range_m=float(rng.uniform(0.2, 3.0)),
            )
            path = tmp_path / f"rt_{i}.frs"
            store_frameset(fs, path)
            loaded = load_frameset(path)
            assert loaded == fs
            assert loaded.data.tobytes() == fs.data.tobytes()

    def test_handcrafted_file_bytes(self, tmp_path):
        # Header and payload written by hand against the format table.
        amplitudes = [0.0, 25.0, 50.0, 75.0, 100.0, 1.0, 2.0, 3.0]
        blob = b"FRS1"
        blob += struct.pack("<I", 4)  # N
        blob += struct.pack("<I", 2)  # M
        blob += struct.pack("<f", 200.0)
        blob += struct.pack("<f", 1.0)
        blob += bytes([0, 0, 0, 0])  # kind + reserved
        for a in amplitudes:
            blob += struct.pack("<f", a)
        path = tmp_path / "hand.frs"
        path.write_bytes(blob)
        fs = load_frameset(path)
        assert fs.m == 2 and fs.n == 4
        assert fs.frame_rate_hz == 200.0 and fs.range_m == 1.0
        assert fs.data.reshape(-1).tolist() == amplitudes

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.frs"
        path.write_bytes(b"NOPE" + bytes(20) + bytes(8))
        with pytest.raises(FormatError) as err:
            load_frameset(path)
        assert err.value.offset == 0

    def test_truncated_payload_names_offset(self, tmp_path):
        fs = FrameSet(np.full((2, 4), 7.0))
        path = tmp_path / "trunc.frs"
        store_frameset(fs, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            load_frameset(path)
        assert "byte offset" in str(err.value)

    def test_dimension_inconsistency(self, tmp_path):
        fs = FrameSet(np.full((2, 4), 7.0))
        path = tmp_path / "dim.frs"
        store_frameset(fs, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 3)  # claim M=3 with a 2x4 payload
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_frameset(path)

    def test_bad_kind_byte(self, tmp_path):
        # Kind byte 0 is a raw capture, the only kind; 1 once marked a
        # clutter-reduced set.
        fs = FrameSet(np.full((1, 2), 1.0))
        path = tmp_path / "kind.frs"
        store_frameset(fs, path)
        valid = path.read_bytes()
        assert valid[20] == 0
        for kind in (1, 9):
            path.write_bytes(valid[:20] + bytes([kind]) + valid[21:])
            with pytest.raises(FormatError) as err:
                load_frameset(path)
            assert err.value.offset == 20

    def test_label_travels_in_manifest_not_file(self, tmp_path):
        fs = FrameSet(np.full((1, 2), 1.0), label="ba")
        path = tmp_path / "lbl.frs"
        store_frameset(fs, path)
        assert load_frameset(path).label is None
        assert load_frameset(path, label="ba") == fs


class TestPearsonCorrelation:
    def test_self_correlation(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert pearson_correlation(x, x) == 1.0

    def test_negative_affine_anticorrelation(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert pearson_correlation(x, -2.0 * x + 7.0) == -1.0

    def test_hand_evaluated_pair(self):
        p = [1.0, 2.0, 3.0, 4.0]
        q = [2.0, 4.0, 5.0, 4.0]
        expected = pearson_by_formula(p, q)
        assert expected == pytest.approx(3.5 / math.sqrt(5.0 * 4.75), rel=1e-15)
        assert pearson_correlation(p, q) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_and_positive_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            p = rng.normal(size=n)
            q = rng.normal(size=n)
            rho = pearson_correlation(p, q)
            assert rho == pytest.approx(pearson_correlation(q, p), abs=1e-15)
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.normal())
            assert abs(rho - pearson_correlation(p, a * q + b)) < 1e-12
            assert -1.0 <= rho <= 1.0

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            pearson_correlation([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # A NaN would otherwise come out as rho = -1.0, with no error.
        for p, q in (([bad, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
            with pytest.raises(DomainError, match="finite"):
                pearson_correlation(p, q)


class TestPositioningCheck:
    def test_identical_frames_pass(self):
        frame = np.array([1.0, 5.0, 2.0, 8.0])
        rho, passed = positioning_check(frame, frame, 0.95)
        assert rho == 1.0 and passed

    def test_shifted_frame_against_direct_formula(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0.0, 100.0, size=256)
        live = np.roll(ref, 10)
        expected = pearson_by_formula(list(ref), list(live))
        rho, passed = positioning_check(ref, live, 0.95)
        assert rho == pytest.approx(expected, rel=1e-12)
        assert passed == (rho > 0.95)

    def test_constant_live_frame_raises(self):
        ref = np.array([1.0, 2.0, 3.0])
        live = np.array([4.0, 4.0, 4.0])
        with pytest.raises(DegenerateInputError):
            positioning_check(ref, live, 0.9)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_domain(self, threshold):
        frame = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            positioning_check(frame, frame, threshold)

    def test_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            positioning_check(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 0.95)


class TestManifest:
    def entries(self):
        return (
            ManifestEntry("a_1.frs", "a", 1, "upper", 11),
            ManifestEntry("a_2.frs", "a", 2, "upper", 12),
            ManifestEntry("b_1.frs", "b", 1, "upper", 21),
            ManifestEntry("b_2.frs", "b", 2, "upper", 22),
        )

    def test_round_trip(self, tmp_path):
        manifest = CorpusManifest(self.entries(), root=tmp_path)
        path = tmp_path / "manifest.tsv"
        store_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.entries == manifest.entries
        assert loaded.class_count == 2
        assert loaded.reps_per_class == 2
        assert loaded.root == tmp_path

    def test_duplicate_class_rep_position_rejected(self):
        dup = self.entries() + (ManifestEntry("x.frs", "a", 1, "upper", 99),)
        with pytest.raises(DomainError):
            CorpusManifest(dup)

    @pytest.mark.parametrize("path", ["a_1.frs", "./a_1.frs"])
    def test_duplicate_path_rejected(self, tmp_path, path):
        dup = self.entries() + (ManifestEntry(path, "a", 3, "upper", 99),)
        with pytest.raises(DomainError, match="path"):
            CorpusManifest(dup)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"a_1.frs\ta\t1\tupper\t1\n{path}\ta\t2\tupper\t2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="path"):
            load_manifest(manifest)

    def test_same_rep_different_position_allowed(self):
        both = self.entries() + (ManifestEntry("a_1_low.frs", "a", 1, "lower", 31),)
        manifest = CorpusManifest(both)
        assert len(manifest.entries) == 5

    def test_bad_line_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_bad_position_tag(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("a.frs\ta\t1\tsideways\t3\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_manifest(path)


class TestLoadFramesetProperty:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("load_frameset") / "set.frs"
        data = np.random.default_rng(0).uniform(0.0, 100.0, size=(4, 5))
        store_frameset(FrameSet(data), path)
        return path, path.read_bytes()

    # Arbitrary bytes, or a valid file with a few bytes or words
    # overwritten, cut short or extended, so the parser gets past the
    # magic and the header.
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
            fs = load_frameset(path)
        except FerasecError:
            return
        assert isinstance(fs, FrameSet)
        assert fs.data.shape == (fs.m, fs.n) and np.isfinite(fs.data).all()
        assert fs.data.min() >= 0.0 and fs.data.max() <= 100.0


class TestLoadManifestProperty:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("load_manifest") / "manifest.tsv"
        entries = tuple(
            ManifestEntry(f"{label}_{rep}.frs", label, rep, "upper", 10 * rep + i)
            for i, label in enumerate("ab")
            for rep in (1, 2)
        )
        store_manifest(CorpusManifest(entries), path)
        return path, path.read_bytes()

    # The same, plus arbitrary text that gets past UTF-8 decoding.
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(
        noise=st.one_of(
            st.none(), st.binary(max_size=64), st.text(max_size=64).map(lambda t: t.encode("utf-8"))
        ),
        edits=EDITS,
        keep=st.integers(0, 200),
        tail=st.binary(max_size=8),
    )
    def test_any_bytes_load_or_raise_ferasec_error(self, stored, noise, edits, keep, tail):
        path, valid = stored
        path.write_bytes(edited(valid, edits, keep, tail) if noise is None else noise)
        try:
            manifest = load_manifest(path)
        except FerasecError:
            return
        assert isinstance(manifest, CorpusManifest)
        assert manifest.entries and all(isinstance(e, ManifestEntry) for e in manifest.entries)

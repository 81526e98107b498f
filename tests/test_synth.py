import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ferasec.errors import DomainError, FormatError, GenerationError
from ferasec.frames import DEFAULT_BIN_COUNT, DEFAULT_FRAME_RATE_HZ, load_frameset, load_manifest
from ferasec.synth import (
    CLUTTER_PROFILE,
    ECHO_AMPLITUDE,
    GestureBump,
    GestureScript,
    Reflector,
    SimConfig,
    generate_corpus,
    parse_scripts_text,
    render_frameset,
    vowel8_preset,
)


def quiet_config(**overrides):
    defaults = dict(noise_sigma=0.0, onset_jitter_s=0.0, duration_jitter_fraction=0.0)
    defaults.update(overrides)
    return SimConfig(**defaults)


def echo_only(fs):
    """A noise-free render minus the fixed clutter background."""
    return fs.data.astype(np.float64) - CLUTTER_PROFILE


def single_reflector_script(distance=0.5, label="s", duration=0.5, bumps=()):
    return GestureScript(label, (Reflector(distance, bumps, reflectivity=0.9),), duration)


class TestRenderFrameset:
    def test_no_reflectors_reproduces_clutter_exactly(self):
        cfg = quiet_config()
        script = GestureScript("quiet", (), duration_s=0.25)
        fs = render_frameset(script, cfg, seed=1)
        expected = CLUTTER_PROFILE.astype(np.float32)
        assert fs.m == round(0.25 * DEFAULT_FRAME_RATE_HZ)
        for row in fs.data:
            np.testing.assert_array_equal(row, expected)

    def test_static_reflector_centers_echo_at_mapped_bin(self):
        fs = render_frameset(single_reflector_script(0.5), quiet_config(), seed=2)
        echo = echo_only(fs)
        # bin round(N * d / range) = 128 (1-based) -> index 127
        for row in echo:
            assert int(np.argmax(row)) == 127
        peak = 0.9 * ECHO_AMPLITUDE
        assert echo[0, 127] == pytest.approx(peak, rel=1e-6)

    def test_same_seed_identical_framesets(self):
        script = single_reflector_script(0.4, bumps=(GestureBump(0.2, 0.05, 0.1),))
        cfg = SimConfig(noise_sigma=3.0)
        a = render_frameset(script, cfg, seed=77)
        b = render_frameset(script, cfg, seed=77)
        assert a == b

    def test_different_seed_differs(self):
        script = single_reflector_script(0.4)
        cfg = SimConfig(noise_sigma=3.0)
        a = render_frameset(script, cfg, seed=77)
        b = render_frameset(script, cfg, seed=78)
        assert a != b

    def test_amplitudes_clamped_to_raw_range(self):
        cfg = SimConfig(noise_sigma=50.0)
        fs = render_frameset(single_reflector_script(0.3), cfg, seed=3)
        assert fs.data.min() >= 0.0
        assert fs.data.max() <= 100.0

    def test_trajectory_leaving_range_rejected(self):
        cfg = quiet_config()
        bad = single_reflector_script(0.95, bumps=(GestureBump(0.25, 0.1, 0.1),))
        with pytest.raises(GenerationError, match="leaves"):
            render_frameset(bad, cfg, seed=4)

    def test_bump_moves_echo(self):
        script = single_reflector_script(0.3, duration=1.0, bumps=(GestureBump(0.5, 0.1, 0.2),))
        echo = echo_only(render_frameset(script, quiet_config(), seed=5))
        start_bin = int(np.argmax(echo[0]))
        mid_bin = int(np.argmax(echo[len(echo) // 2 - 1]))
        assert start_bin == pytest.approx(77, abs=1)  # 0.3 m -> bin 76.8
        assert mid_bin == pytest.approx(128, abs=1)  # 0.5 m at the bump peak

    def test_label_carried(self):
        fs = render_frameset(single_reflector_script(0.5, label="hello"), quiet_config(), 6)
        assert fs.label == "hello"


class TestDefaultClutterProfile:
    def test_bounded_and_sized(self):
        profile = CLUTTER_PROFILE
        assert profile.shape == (DEFAULT_BIN_COUNT,)
        assert profile.min() >= 0.0
        assert profile.max() <= 60.0
        assert not profile.flags.writeable

    def test_has_multiple_humps(self):
        profile = CLUTTER_PROFILE
        localmax = (profile[1:-1] > profile[:-2]) & (profile[1:-1] > profile[2:])
        assert localmax.sum() >= 3


class TestGenerateCorpus:
    def test_counts_and_manifest(self, tmp_path):
        scripts, _ = vowel8_preset("easy")
        cfg = quiet_config()
        small = [
            GestureScript(s.label, s.reflectors, 0.3) for s in scripts[:3]
        ]
        manifest = generate_corpus(small, reps=2, cfg=cfg, master_seed=5, out_dir=tmp_path)
        assert len(manifest.entries) == 6
        assert manifest.class_count == 3
        assert manifest.reps_per_class == 2
        loaded = load_manifest(tmp_path / "manifest.tsv")
        assert loaded.entries == manifest.entries
        for entry in manifest.entries:
            path = manifest.resolve(entry)
            assert path.read_bytes()[20] == 0  # the raw-capture kind byte
            load_frameset(path)

    def test_byte_identical_for_same_master_seed(self, tmp_path):
        scripts = [
            single_reflector_script(0.3, label="a", bumps=(GestureBump(0.1, 0.05, 0.05),)),
            single_reflector_script(0.5, label="b"),
        ]
        cfg = SimConfig(noise_sigma=2.0)
        m1 = generate_corpus(scripts, 2, cfg, 99, tmp_path / "one")
        m2 = generate_corpus(scripts, 2, cfg, 99, tmp_path / "two")
        for e1, e2 in zip(m1.entries, m2.entries):
            assert e1.path == e2.path and e1.seed == e2.seed
            b1 = (tmp_path / "one" / e1.path).read_bytes()
            b2 = (tmp_path / "two" / e2.path).read_bytes()
            assert b1 == b2
        assert (tmp_path / "one" / "manifest.tsv").read_text() == (
            tmp_path / "two" / "manifest.tsv"
        ).read_text()

    def test_manifest_seed_reproduces_item(self, tmp_path):
        scripts = [
            single_reflector_script(0.3, label="a"),
            single_reflector_script(0.5, label="b"),
        ]
        cfg = SimConfig(noise_sigma=1.0)
        manifest = generate_corpus(scripts, 2, cfg, 7, tmp_path)
        entry = manifest.entries[3]
        script = next(s for s in scripts if s.label == entry.label)
        rebuilt = render_frameset(script, cfg, entry.seed)
        stored = load_frameset(manifest.resolve(entry))
        assert np.array_equal(rebuilt.data, stored.data)

    def test_too_few_classes_or_reps(self, tmp_path):
        scripts = [single_reflector_script(0.3, label="a")]
        with pytest.raises(DomainError):
            generate_corpus(scripts, 2, quiet_config(), 0, tmp_path)
        two = scripts + [single_reflector_script(0.5, label="b")]
        with pytest.raises(DomainError):
            generate_corpus(two, 1, quiet_config(), 0, tmp_path)


class TestVowel8Preset:
    def test_eight_distinct_classes(self):
        scripts, cfg = vowel8_preset("easy")
        assert len(scripts) == 8
        assert len({s.label for s in scripts}) == 8
        assert cfg.noise_sigma >= 0.0

    def test_difficulty_raises_noise_and_shrinks_separation(self):
        easy_scripts, easy_cfg = vowel8_preset("easy")
        hard_scripts, hard_cfg = vowel8_preset("hard")
        assert hard_cfg.noise_sigma > easy_cfg.noise_sigma

        def spread(scripts):
            amps = [s.reflectors[0].bumps[0].amplitude_m for s in scripts]
            return max(amps) - min(amps)

        assert spread(hard_scripts) < spread(easy_scripts)

    def test_unknown_difficulty(self):
        with pytest.raises(DomainError):
            vowel8_preset("impossible")

    def test_scripts_render_within_range(self):
        scripts, cfg = vowel8_preset("easy")
        for script in scripts:
            fs = render_frameset(script, cfg, seed=1)
            assert fs.m >= 5


# Script-shaped text: a header, then headers, reflector lines with
# numeric or junk fields, and arbitrary lines, so that generated inputs
# reach every branch of the parser.
_FIELD = st.one_of(st.sampled_from(["0.3", "1", "0", "-1", "nan", "x", ""]), st.text(max_size=3))
_BUMPS = st.lists(st.one_of(st.builds("bump({},{},{})".format, _FIELD, _FIELD, _FIELD), _FIELD))
_HEADER = st.builds(
    "[{}] duration={}".format, st.text(max_size=3), st.text("0123456789.", min_size=1, max_size=4)
)
_REFLECTOR = st.builds("{}; {}; {}".format, _FIELD, _BUMPS.map(" ".join), _FIELD)
_LINES = st.lists(st.one_of(_HEADER, _REFLECTOR, st.text()), max_size=6).map("\n".join)
SCRIPT_TEXT = st.builds("{}\n{}".format, _HEADER, _LINES)


class TestScriptParsing:
    TEXT = """
    # articulator demo
    [ba] duration=1.2
    0.30; bump(0.35, 0.09, 0.065) bump(0.85, 0.13, -0.055); 0.9
    0.55; ; 0.5

    [po] duration=0.8
    0.25; bump(0.4, 0.1, 0.08); 1.0
    """

    def test_parse_round_trip(self):
        scripts = parse_scripts_text(self.TEXT)
        assert [s.label for s in scripts] == ["ba", "po"]
        ba = scripts[0]
        assert ba.duration_s == 1.2
        assert len(ba.reflectors) == 2
        assert ba.reflectors[0].bumps == (
            GestureBump(0.35, 0.09, 0.065),
            GestureBump(0.85, 0.13, -0.055),
        )
        assert ba.reflectors[1].bumps == ()
        assert ba.reflectors[1].reflectivity == 0.5

    def test_reflector_before_header_rejected(self):
        with pytest.raises(FormatError, match="before any"):
            parse_scripts_text("0.3; ; 0.9\n")

    def test_malformed_bump_rejected(self):
        with pytest.raises(FormatError, match="bump"):
            parse_scripts_text("[x] duration=1.0\n0.3; bump(1,2); 0.9\n")
        for field in ("bump(x, 0.09, 0.065)", "bump(0.1,0.09,0.06) junk", "bump(0.1,0,0.06)",
                      "bump(nan, 0.05, 0.10)", "bump(0.1, inf, 0.10)", "bump(0.1, 0.05, -inf)"):
            with pytest.raises(FormatError, match="^line 2: "):
                parse_scripts_text(f"[x] duration=1.0\n0.3; {field}; 0.9\n")

    def test_malformed_duration_rejected(self):
        for duration in ("1.2.3", "."):
            with pytest.raises(FormatError, match="^line 1: "):
                parse_scripts_text(f"[x] duration={duration}\n0.3; ; 0.9\n")

    @settings(derandomize=True, database=None, deadline=None)
    @given(SCRIPT_TEXT)
    def test_arbitrary_text_parses_or_raises_format_error(self, text):
        try:
            scripts = parse_scripts_text(text)
        except FormatError:
            return
        assert scripts and all(isinstance(s, GestureScript) for s in scripts)

    def test_wrong_field_count_rejected(self):
        with pytest.raises(FormatError, match="expected"):
            parse_scripts_text("[x] duration=1.0\n0.3; 0.9\n")

    def test_empty_text_rejected(self):
        with pytest.raises(FormatError, match="no scripts"):
            parse_scripts_text("# nothing here\n")


class TestGestureValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, bad):
        for fields in ((bad, 0.05, 0.1), (0.1, bad, 0.1), (0.1, 0.05, bad)):
            with pytest.raises(DomainError, match="finite"):
                GestureBump(*fields)
        with pytest.raises(DomainError, match="finite"):
            Reflector(bad)
        with pytest.raises(DomainError, match="finite"):
            GestureScript("x", (), bad)


class TestSimConfigValidation:
    def test_bad_values(self):
        with pytest.raises(DomainError):
            SimConfig(noise_sigma=-1.0)
        with pytest.raises(DomainError):
            SimConfig(duration_jitter_fraction=0.5)
        for field in ("noise_sigma", "onset_jitter_s", "duration_jitter_fraction", "position_jitter_m"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(DomainError, match=field):
                    SimConfig(**{field: bad})
        # Finite, but the uniform draw over [-x, x] has an infinite width.
        for field in ("onset_jitter_s", "position_jitter_m"):
            with pytest.raises(DomainError, match=field):
                SimConfig(**{field: 1e308})

import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ferasec import harness
from ferasec.cli import _build_parser, _ferasec_cfg, _hmm_cfg, main
from ferasec.clutter import DEFAULT_ALPHA
from ferasec.dtw import DtwConfig
from ferasec.features import FerasecConfig, load_features, store_features
from ferasec.frames import load_frameset, load_manifest, store_frameset, FrameSet
from ferasec.hmm import HmmTrainingConfig, TrainedHmmModel, load_model, store_model

from byte_edits import edited

SRC = Path(__file__).resolve().parents[1] / "src"


SCRIPTS_TEXT = """\
[left] duration=0.45
0.30; bump(0.12, 0.05, 0.10); 0.9
[right] duration=0.45
0.30; bump(0.30, 0.05, -0.10); 0.9
[far] duration=0.45
0.55; bump(0.20, 0.08, -0.15); 0.9
"""


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    scripts = out / "scripts.txt"
    scripts.write_text(SCRIPTS_TEXT, encoding="utf-8")
    code = main(
        [
            "generate",
            "--scripts", str(scripts),
            "--reps", "3",
            "--noise", "0.5",
            "--onset-jitter", "0.02",
            "--duration-jitter", "0.02",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_manifest_and_files(self, corpus_dir):
        manifest = load_manifest(corpus_dir / "manifest.tsv")
        assert len(manifest.entries) == 9
        assert manifest.class_count == 3
        fs = load_frameset(manifest.resolve(manifest.entries[0]))
        assert fs.n == 256

    def test_preset_generation(self, tmp_path, capsys):
        code = main(
            ["generate", "--reps", "2", "--difficulty", "easy", "--seed", "1",
             "--out", str(tmp_path / "preset")]
        )
        assert code == 0
        assert "16 frame sets" in capsys.readouterr().out
        manifest = load_manifest(tmp_path / "preset" / "manifest.tsv")
        assert manifest.class_count == 8


class TestExtract:
    def test_extract_writes_feature_matrix(self, corpus_dir, tmp_path):
        manifest = load_manifest(corpus_dir / "manifest.tsv")
        item = manifest.resolve(manifest.entries[0])
        out = tmp_path / "item.ftm"
        code = main(["extract", "--input", str(item), "--output", str(out)])
        assert code == 0
        matrix = load_features(out)
        assert matrix.shape[0] == 6

    def test_delta_window_far_wider_than_the_item(self, corpus_dir, tmp_path):
        # Lags past K - 1 only add zeros, so a 2e8 + 1 window costs what a
        # 2K - 1 window does.
        manifest = load_manifest(corpus_dir / "manifest.tsv")
        item = manifest.resolve(manifest.entries[0])
        out = tmp_path / "item.ftm"
        assert main(["extract", "--input", str(item), "--output", str(out), "--delta-window", "200000001"]) == 0
        assert np.all(np.isfinite(load_features(out)))

    def test_window_far_wider_than_the_item(self, tmp_path):
        # A window past 2*M*N samples covers no further one, so the widest
        # window a recipe takes costs here what a 64-sample one does.
        frames = tmp_path / "f.frs"
        store_frameset(FrameSet(np.arange(32.0).reshape(4, 8)), frames)
        out = tmp_path / "o.ftm"
        assert main(["extract", "--input", str(frames), "--output", str(out),
                     "--window", str(2**32 - 2), "--downsample", "1"]) == 0
        assert np.all(np.isfinite(load_features(out)))

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["extract", "--input", str(tmp_path / "nope.frs"), "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.frs"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK" + bytes(8))
        code = main(["extract", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 2


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    model_path = tmp_path_factory.mktemp("model") / "model.hmm"
    code = main(
        [
            "train",
            "--corpus", str(corpus_dir / "manifest.tsv"),
            "--seed", "3",
            "--rounds", "2",
            "--epochs", "6",
            "--batch-size", "32",
            "--learning-rate", "0.05",
            "--out", str(model_path),
        ]
    )
    assert code == 0
    return model_path


class TestTrainAndClassify:

    def test_model_loads(self, trained):
        model = load_model(trained)
        assert model.class_count == 3

    def test_classify_hmm(self, corpus_dir, trained, tmp_path, capsys):
        manifest = load_manifest(corpus_dir / "manifest.tsv")
        item = manifest.resolve(manifest.entries[0])
        feats = tmp_path / "t.ftm"
        assert main(["extract", "--input", str(item), "--output", str(feats)]) == 0
        capsys.readouterr()
        code = main(
            ["classify", "--method", "hmm", "--model", str(trained), "--test", str(feats)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        label, score = line.split("\t")
        assert label in {"left", "right", "far"}

    def test_classify_dtw(self, corpus_dir, tmp_path, capsys):
        manifest = load_manifest(corpus_dir / "manifest.tsv")
        item = manifest.resolve(manifest.entries[0])
        feats = tmp_path / "t.ftm"
        assert main(["extract", "--input", str(item), "--output", str(feats)]) == 0
        capsys.readouterr()
        code = main(
            ["classify", "--method", "dtw", "--refs", str(corpus_dir / "manifest.tsv"),
             "--test", str(feats)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        label, distance = line.split("\t")
        assert label == manifest.entries[0].label
        # small residual: the feature file stores float32, references are in-memory
        assert float(distance) < 1e-3

    def test_classify_dtw_requires_refs(self, tmp_path):
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        assert main(["classify", "--method", "dtw", "--test", str(feats)]) == 2


class TestLoocvCommand:
    def test_dtw_loocv_with_report(self, corpus_dir, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        code = main(
            ["loocv", "--method", "dtw", "--corpus", str(corpus_dir / "manifest.tsv"),
             "--seed", "5", "--report", str(report_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "accuracy" in captured.out
        # The wall time goes to stderr only; the report stays byte-stable.
        assert re.fullmatch(r"elapsed: \d+\.\d s\n", captured.err)
        assert "elapsed" not in captured.out
        text = report_path.read_text(encoding="utf-8")
        assert "method=dtw" in text
        assert "timing" not in text and "elapsed" not in text


class TestAid:
    def test_pass_and_fail(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 100, (1, 256))
        store_frameset(FrameSet(ref), tmp_path / "ref.frs")
        store_frameset(FrameSet(ref), tmp_path / "same.frs")
        shifted = np.roll(ref, 64, axis=1)
        store_frameset(FrameSet(shifted), tmp_path / "moved.frs")

        code = main(["aid", "--reference", str(tmp_path / "ref.frs"),
                     "--live", str(tmp_path / "same.frs")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

        code = main(["aid", "--reference", str(tmp_path / "ref.frs"),
                     "--live", str(tmp_path / "moved.frs"), "--threshold", "0.95"])
        assert code == 0
        assert "FAIL" in capsys.readouterr().out

    def test_bad_threshold_exits_2(self, tmp_path):
        rng = np.random.default_rng(1)
        store_frameset(FrameSet(rng.uniform(0, 100, (1, 16))), tmp_path / "r.frs")
        code = main(["aid", "--reference", str(tmp_path / "r.frs"),
                     "--live", str(tmp_path / "r.frs"), "--threshold", "1.5"])
        assert code == 2


class TestArgumentErrors:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestDefaults:
    def test_parsed_defaults_equal_config_defaults(self):
        parser = _build_parser()
        for argv in (
            ["train", "--corpus", "c.tsv", "--out", "m.hmm"],
            ["loocv", "--method", "hmm", "--corpus", "c.tsv"],
        ):
            args = parser.parse_args(argv)
            assert _hmm_cfg(args, args.seed) == HmmTrainingConfig()
            assert _ferasec_cfg(args) == FerasecConfig()
            assert args.alpha == DEFAULT_ALPHA
        for argv in (
            ["classify", "--method", "dtw", "--test", "t.ftm"],
            ["loocv", "--method", "dtw", "--corpus", "c.tsv"],
        ):
            assert parser.parse_args(argv).metric == DtwConfig().local_metric


@pytest.mark.parametrize("warning_filter", ["default", "error::RuntimeWarning"])
def test_diverging_training_ends_as_one_error_line(corpus_dir, tmp_path, warning_filter):
    """Whatever the warning filter, a learning rate at which training
    diverges exits 3 with one ``error:`` line and no warning or traceback."""
    out = tmp_path / "m.hmm"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", warning_filter, "-m", "ferasec.cli", "train", "--corpus",
         str(corpus_dir / "manifest.tsv"), "--learning-rate", "1e6", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 3
    assert re.fullmatch(r"error: non-finite training loss \(round \d+, epoch \d+\)\n", done.stderr)
    assert not out.exists()


def zero_model():
    """Two classes, two states, 3-column context over six feature rows."""
    return TrainedHmmModel(
        labels=("aa", "bb"),
        transitions=np.tile(np.array([[0.5, 0.5], [0.0, 1.0]]), (2, 1, 1)),
        priors=np.full(4, 0.25),
        weights=(np.zeros((18, 4)), np.zeros((4, 4))),
        biases=(np.zeros(4), np.zeros(4)),
        config=HmmTrainingConfig(hidden=(4,), states_per_class=2, context_window=3),
    )


def _label_table_offset():
    """The label table follows the magic and both model headers."""
    return 4 + struct.calcsize("<IIIII") + struct.calcsize("<QIIIf")


def _transitions_offset(model):
    """The transition matrices follow the label table."""
    return _label_table_offset() + sum(4 + len(label) for label in model.labels)


class TestMalformedInput:
    """Malformed files end as ``error: ...`` with exit 2, never a traceback."""

    def assert_exit_2(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        return err

    def test_non_utf8_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.tsv"
        bad.write_bytes(b"a\xff.frs\ta\t1\tupper\t0\n")
        self.assert_exit_2(["loocv", "--method", "dtw", "--corpus", str(bad)], capsys)

    def test_non_utf8_scripts(self, tmp_path, capsys):
        bad = tmp_path / "scripts.txt"
        bad.write_bytes(SCRIPTS_TEXT.encode("utf-8").replace(b"left", b"l\xe9ft"))
        self.assert_exit_2(
            ["generate", "--scripts", str(bad), "--reps", "2", "--out", str(tmp_path / "c")],
            capsys,
        )

    def test_non_utf8_model_label(self, tmp_path, capsys):
        path = tmp_path / "model.hmm"
        store_model(zero_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\x02\x00\x00\x00aa", b"\x02\x00\x00\x00\xff\xfe", 1))
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)], capsys
        )

    def test_script_duration_beyond_the_bound(self, tmp_path, capsys):
        # Refused while parsing: no frame set is rendered or written.
        bad = tmp_path / "scripts.txt"
        huge = "1" + "0" * 30  # seconds; 2e32 frames at 200 frames/s
        bad.write_text(SCRIPTS_TEXT.replace("duration=0.45", f"duration={huge}", 1), encoding="utf-8")
        err = self.assert_exit_2(
            ["generate", "--scripts", str(bad), "--reps", "2", "--out", str(tmp_path / "c")],
            capsys,
        )
        assert "script 'left'" in err and "at most 60.0 s" in err
        assert not (tmp_path / "c").exists()

    def test_malformed_scripts(self, tmp_path, capsys):
        bad = tmp_path / "scripts.txt"
        bad.write_text(SCRIPTS_TEXT.replace("duration=0.45", "duration=1.2.3", 1), encoding="utf-8")
        self.assert_exit_2(
            ["generate", "--scripts", str(bad), "--reps", "2", "--out", str(tmp_path / "c")],
            capsys,
        )

    def test_labels_sharing_frame_file_names(self, tmp_path, capsys):
        # Both labels map to a-b_001.frs: nothing may be written.
        scripts = tmp_path / "scripts.txt"
        text = SCRIPTS_TEXT.replace("[left]", "[a b]").replace("[right]", "[a-b]")
        scripts.write_text(text, encoding="utf-8")
        out = tmp_path / "c"
        err = self.assert_exit_2(
            ["generate", "--scripts", str(scripts), "--reps", "2", "--out", str(out)], capsys
        )
        assert "labels 'a b' and 'a-b'" in err
        assert not list(out.glob("*.frs")) and not (out / "manifest.tsv").exists()

    def test_unserializable_report_label_fails_before_any_fold(self, tmp_path, capsys, monkeypatch):
        scripts = tmp_path / "scripts.txt"
        scripts.write_text(SCRIPTS_TEXT.replace("[left]", "[a=b]"), encoding="utf-8")
        out = tmp_path / "c"
        assert main(["generate", "--scripts", str(scripts), "--reps", "2", "--out", str(out)]) == 0
        calls = []
        real = harness.extract_features
        monkeypatch.setattr(
            harness, "extract_features", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        report = tmp_path / "r.txt"
        err = self.assert_exit_2(
            ["loocv", "--method", "dtw", "--corpus", str(out / "manifest.tsv"),
             "--report", str(report)],
            capsys,
        )
        assert "label 'a=b' cannot be serialized" in err
        assert calls == [] and not report.exists()

    def test_unserializable_report_item_id_fails_before_any_fold(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "c"
        scripts = tmp_path / "scripts.txt"
        scripts.write_text(SCRIPTS_TEXT, encoding="utf-8")
        assert main(["generate", "--scripts", str(scripts), "--reps", "2", "--out", str(out)]) == 0
        (out / "left_001.frs").rename(out / "a=1,x.frs")
        manifest = out / "manifest.tsv"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("left_001.frs", "a=1,x.frs"),
                            encoding="utf-8")
        calls = []
        real = harness.extract_features
        monkeypatch.setattr(
            harness, "extract_features", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        report = tmp_path / "r.txt"
        err = self.assert_exit_2(
            ["loocv", "--method", "dtw", "--corpus", str(manifest), "--report", str(report)], capsys
        )
        assert "item id 'a=1,x.frs' cannot be serialized" in err
        assert calls == [] and not report.exists()

    @pytest.mark.parametrize("method", ["dtw", "hmm"])
    def test_bad_threads_env_fails_before_any_item(self, corpus_dir, capsys, monkeypatch, method):
        monkeypatch.setenv("FERASEC_THREADS", "abc")
        calls = []
        monkeypatch.setattr(harness, "extract_features", lambda *a, **k: calls.append(a))
        err = self.assert_exit_2(
            ["loocv", "--method", method, "--corpus", str(corpus_dir / "manifest.tsv")], capsys
        )
        assert "FERASEC_THREADS must be an integer, got 'abc'" in err
        assert calls == []

    @pytest.mark.parametrize("bump", ["bump(nan, 0.05, 0.10)", "bump(0.1, 0.05, inf)"])
    def test_non_finite_bump_names_its_line(self, tmp_path, capsys, bump):
        bad = tmp_path / "scripts.txt"
        bad.write_text(SCRIPTS_TEXT.replace("bump(0.30, 0.05, -0.10)", bump, 1), encoding="utf-8")
        err = self.assert_exit_2(
            ["generate", "--scripts", str(bad), "--reps", "2", "--out", str(tmp_path / "c")],
            capsys,
        )
        assert "line 4: bump fields must be finite" in err

    def test_dtw_row_count_mismatch(self, corpus_dir, tmp_path, capsys):
        feats = tmp_path / "t.ftm"
        store_features(np.ones((5, 8)), feats)
        err = self.assert_exit_2(
            ["classify", "--method", "dtw", "--refs", str(corpus_dir / "manifest.tsv"),
             "--test", str(feats)],
            capsys,
        )
        assert "reference 0 has 6 rows, the query has 5" in err

    @pytest.mark.parametrize("flags", [["--alpha", "1.5"], ["--window", "3"]])
    def test_bad_recipe_rejected_for_hmm_classify(self, tmp_path, capsys, flags):
        model = tmp_path / "model.hmm"
        store_model(zero_model(), model)
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(model), "--test", str(feats), *flags],
            capsys,
        )

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--window", "20000000000"], "window"),
            (["--window", "2", "--delta-window", str(10**400 + 1)], "delta window"),
        ],
    )
    def test_recipe_size_of_2_32_or_more(self, tmp_path, capsys, flags, field):
        frames = tmp_path / "f.frs"
        store_frameset(FrameSet(np.arange(32.0).reshape(4, 8)), frames)
        err = self.assert_exit_2(
            ["extract", "--input", str(frames), "--output", str(tmp_path / "o.ftm"), "--downsample", "1", *flags],
            capsys,
        )
        assert err.startswith(f"error: {field} must be") and "2**32" in err

    def test_inconsistent_model_layers(self, tmp_path, capsys):
        model = zero_model()
        # Layer 1 fan-in 5 against layer 0 fan-out 4; only a writer that
        # skips validation can produce this file.
        object.__setattr__(model, "weights", (np.zeros((18, 4)), np.zeros((5, 4))))
        path = tmp_path / "model.hmm"
        store_model(model, path)
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)], capsys
        )
        # Zero-width layers: with a hidden width of 0 the model would score
        # from the output biases alone.  Layer 0's header follows the
        # priors, layer 1's follows layer 0's weights and biases.
        for weights, biases, layer in (
            ((np.zeros((18, 0)), np.zeros((0, 4))), (np.zeros(0), np.zeros(4)), 0),
            ((np.zeros((18, 4)), np.zeros((4, 0))), (np.zeros(4), np.zeros(0)), 1),
        ):
            object.__setattr__(model, "weights", weights)
            object.__setattr__(model, "biases", biases)
            store_model(model, path)
            header = _transitions_offset(model) + 4 * (model.transitions.size + model.priors.size)
            header += 8 + 4 * (18 * 4 + 4) if layer else 0
            err = self.assert_exit_2(
                ["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)], capsys
            )
            assert f"layer {layer} has a zero fan-in or fan-out (byte offset {header})" in err

    def test_context_window_that_does_not_divide_layer_0(self, tmp_path, capsys):
        model = zero_model()
        path = tmp_path / "model.hmm"
        store_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[19] = 0x40  # the window becomes 2**30 + 3
        path.write_bytes(bytes(blob))
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        err = self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)], capsys
        )
        fan_in = _transitions_offset(model) + 4 * (model.transitions.size + model.priors.size)
        assert f"is not a multiple of the context window {2**30 + 3} (byte offset {fan_in})" in err

    def test_nan_bias_in_model(self, tmp_path, capsys):
        path = tmp_path / "model.hmm"
        store_model(zero_model(), path)
        blob = path.read_bytes()
        start = len(blob) - 4  # the last bias of the output layer
        path.write_bytes(blob[:start] + np.float32(np.nan).tobytes())
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        err = self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)], capsys
        )
        assert f"layer 1 biases must be finite (byte offset {start})" in err

    # The model stores the batch size as a u32 and the learning rate as a float32.
    @pytest.mark.parametrize(
        "flag, value, field",
        [("--batch-size", str(2**32), "batch_size"), ("--learning-rate", "1e-50", "learning_rate")],
    )
    def test_unstorable_training_value(self, corpus_dir, tmp_path, capsys, flag, value, field):
        out = tmp_path / "m.hmm"
        err = self.assert_exit_2(
            ["train", "--corpus", str(corpus_dir / "manifest.tsv"), flag, value, "--out", str(out)], capsys
        )
        assert field in err
        assert not out.exists()

    def test_repeated_label_in_model(self, tmp_path, capsys):
        model = zero_model()
        path = tmp_path / "model.hmm"
        store_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\x02\x00\x00\x00bb", b"\x02\x00\x00\x00aa", 1))
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        err = self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)], capsys
        )
        # The second label's bytes follow its length prefix.
        second = _label_table_offset() + 4 + len("aa") + 4
        assert f"repeated class label 'aa' (byte offset {second})" in err

    def test_zero_transition_row_in_model(self, tmp_path, capsys):
        model = zero_model()
        path = tmp_path / "model.hmm"
        store_model(model, path)
        start = _transitions_offset(model)
        blob = bytearray(path.read_bytes())
        s = model.states_per_class
        blob[start : start + 4 * s] = bytes(4 * s)
        path.write_bytes(bytes(blob))
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["classify", "--method", "hmm", "--model", str(path), "--test", str(feats)])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: each transition row must have a finite positive sum")
        assert f"(byte offset {start})" in err

    @pytest.mark.parametrize(
        "command, seed",
        [("generate", "-1"), ("loocv", "-1"), ("train", "-1"), ("train", str(2**64))],
    )
    def test_out_of_range_seed(self, corpus_dir, tmp_path, capsys, command, seed):
        manifest = str(corpus_dir / "manifest.tsv")
        argv = {
            "generate": ["generate", "--reps", "2", "--out", str(tmp_path / "c")],
            "loocv": ["loocv", "--method", "hmm", "--fast-loocv", "--corpus", manifest],
            "train": ["train", "--corpus", manifest, "--out", str(tmp_path / "m.hmm")],
        }[command]
        err = self.assert_exit_2([*argv, "--seed", seed], capsys)
        assert "2**64" in err

    def test_reps_beyond_the_seed_range(self, tmp_path, capsys, monkeypatch):
        def no_write(fs, path):
            raise AssertionError(f"wrote {path}")

        monkeypatch.setattr("ferasec.synth.store_frameset", no_write)
        err = self.assert_exit_2(["generate", "--reps", str(2**64), "--out", str(tmp_path / "c")], capsys)
        assert "2**64" in err and not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--noise", "nan"), ("--noise", "inf"), ("--onset-jitter", "inf"),
         ("--onset-jitter", "nan"), ("--position-jitter", "inf"),
         ("--onset-jitter", "1e308"), ("--position-jitter", "1e308")],  # 2x overflows
    )
    def test_non_finite_scene_value(self, tmp_path, capsys, flag, value):
        scripts = tmp_path / "scripts.txt"
        scripts.write_text(SCRIPTS_TEXT, encoding="utf-8")
        err = self.assert_exit_2(
            ["generate", "--scripts", str(scripts), "--reps", "2", flag, value,
             "--out", str(tmp_path / "c")],
            capsys,
        )
        assert "must be finite" in err

    @pytest.mark.parametrize("value", ["1e300", "30"])
    def test_onset_jitter_beyond_half_the_script(self, tmp_path, capsys, value):
        scripts = tmp_path / "scripts.txt"
        scripts.write_text(SCRIPTS_TEXT, encoding="utf-8")
        err = self.assert_exit_2(
            ["generate", "--scripts", str(scripts), "--reps", "2", "--onset-jitter", value,
             "--out", str(tmp_path / "c")],
            capsys,
        )
        assert f"onset jitter {float(value)} s" in err and "duration 0.45 s" in err

    @pytest.mark.parametrize("flags", [["--fast-groups", "1"], ["--fast-loocv", "--fast-groups", "99"]])
    def test_fast_flags_rejected_for_dtw_loocv(self, corpus_dir, capsys, flags):
        self.assert_exit_2(
            ["loocv", "--method", "dtw", "--corpus", str(corpus_dir / "manifest.tsv"), *flags],
            capsys,
        )

    def test_bad_alpha_rejected_for_every_loocv_method(self, corpus_dir, capsys):
        manifest = str(corpus_dir / "manifest.tsv")
        for method in ("dtw", "hmm", "hmm-raw", "hmm-clutterreduced"):
            self.assert_exit_2(
                ["loocv", "--method", method, "--corpus", manifest, "--alpha", "1.5"], capsys
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features(self, corpus_dir, tmp_path, capsys, value):
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        blob = bytearray(feats.read_bytes())
        start = 12 + 4 * (2 * 8 + 3)  # value [2, 3], after the 12-byte header
        blob[start : start + 4] = np.float32(value).tobytes()
        feats.write_bytes(bytes(blob))
        model = tmp_path / "model.hmm"
        store_model(zero_model(), model)
        manifest = str(corpus_dir / "manifest.tsv")
        self.assert_exit_2(
            ["classify", "--method", "dtw", "--refs", manifest, "--test", str(feats)], capsys
        )
        self.assert_exit_2(
            ["classify", "--method", "hmm", "--model", str(model), "--test", str(feats)], capsys
        )

    def test_duplicate_manifest_path(self, corpus_dir, capsys):
        lines = (corpus_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        # Item 2 points at item 1's file; keys and class sizes stay valid.
        lines[1] = "\t".join([lines[0].split("\t")[0]] + lines[1].split("\t")[1:])
        bad = corpus_dir / "duplicate_path.tsv"  # next to the frame sets it names
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_exit_2(["loocv", "--method", "dtw", "--corpus", str(bad)], capsys)


class TestHeaderByteEdits:
    """Every single-byte edit of a header ends as exit 0, 2 or 3 from the
    CLI, never as an exception: each size in a header is checked before
    anything is allocated from it."""

    def test_every_header_byte(self, tmp_path, capsys):
        model = tmp_path / "model.hmm"
        store_model(zero_model(), model)
        feats = tmp_path / "t.ftm"
        store_features(np.zeros((6, 8)), feats)
        frames = tmp_path / "f.frs"
        store_frameset(FrameSet(np.arange(32.0).reshape(4, 8)), frames)
        layer_0 = _transitions_offset(zero_model()) + 4 * (8 + 4)
        layer_1 = layer_0 + 8 + 4 * (18 * 4 + 4)
        target = tmp_path / "edited"
        cases = {
            # The FRS1 header is 24 bytes and FTM1's 12.  HMM1's 48 are
            # followed by its labels, transitions and priors, which are
            # edited too, then by one 8-byte header per layer.
            frames: (range(24), ["extract", "--input", str(target), "--output", str(tmp_path / "o.ftm"),
                                 "--window", "2", "--downsample", "1"]),
            feats: (range(12), ["classify", "--method", "hmm", "--model", str(model), "--test", str(target)]),
            model: ([*range(layer_0 + 8), *range(layer_1, layer_1 + 8)],
                    ["classify", "--method", "hmm", "--model", str(target), "--test", str(feats)]),
        }
        for path, (offsets, argv) in cases.items():
            blob = path.read_bytes()
            for offset in offsets:
                for value in (0x00, 0xFF, 0x7F, 0x80, blob[offset] ^ 0x01, blob[offset] ^ 0x40):
                    target.write_bytes(edited(blob, [(offset, bytes([value]))], len(blob), b""))
                    code = main(argv)
                    assert code in (0, 2, 3), (path.name, offset, value, capsys.readouterr().err)
                    capsys.readouterr()

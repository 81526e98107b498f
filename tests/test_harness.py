import gc
import weakref

import numpy as np
import pytest

from ferasec import harness
from ferasec.dtw import DtwConfig
from ferasec.errors import DimensionError, DomainError
from ferasec.frames import CorpusManifest, FrameSet, ManifestEntry, load_manifest, store_frameset
from ferasec.harness import (
    EvaluationReport,
    FoldRecord,
    format_report,
    loocv,
    report_to_text,
    write_report,
)
from ferasec.features import FerasecConfig
from ferasec.hmm import HmmTrainingConfig, train
from ferasec.synth import GestureBump, GestureScript, Reflector, SimConfig, generate_corpus
from oracles import per_cell_dtw

# Window longer than one frame (N=256) so each envelope sample aggregates
# whole-frame energy; the default config satisfies this.
SMALL_FERASEC = FerasecConfig()
SMALL_HMM = HmmTrainingConfig(
    hidden=(16,),
    realignment_rounds=2,
    epochs_per_round=6,
    batch_size=32,
    learning_rate=0.05,
    seed=0,
)


def tiny_scripts():
    # Shape-distinct classes: direction, depth, and rest position differ.
    return [
        GestureScript("aa", (Reflector(0.30, (GestureBump(0.12, 0.05, 0.10),), 0.9),), 0.45),
        GestureScript("bb", (Reflector(0.30, (GestureBump(0.30, 0.05, -0.10),), 0.9),), 0.45),
        GestureScript("cc", (Reflector(0.55, (GestureBump(0.20, 0.08, -0.15),), 0.9),), 0.45),
    ]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    cfg = SimConfig(noise_sigma=0.8, onset_jitter_s=0.03, duration_jitter_fraction=0.05)
    out = tmp_path_factory.mktemp("tiny_corpus")
    return generate_corpus(tiny_scripts(), reps=4, cfg=cfg, master_seed=42, out_dir=out)


@pytest.fixture(scope="module")
def duplicate_corpus(tmp_path_factory):
    # No noise or jitter: every repetition of a class is bit-identical.
    cfg = SimConfig(noise_sigma=0.0, onset_jitter_s=0.0, duration_jitter_fraction=0.0)
    out = tmp_path_factory.mktemp("dup_corpus")
    return generate_corpus(tiny_scripts(), reps=3, cfg=cfg, master_seed=1, out_dir=out)


def shuffled_manifest(manifest, rng):
    """``manifest``'s lines in a random order, written beside it and read back."""
    lines = (manifest.root / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    path = manifest.root / f"shuffled_{rng.integers(10**9)}.tsv"
    path.write_text("".join(lines[i] + "\n" for i in rng.permutation(len(lines))), encoding="utf-8")
    return load_manifest(path)


def report_from_confusion(confusion):
    """Report whose folds count up to the given confusion matrix of classes "a", "b", ..."""
    confusion = np.asarray(confusion)
    labels = tuple("abcdefgh"[: len(confusion)])
    folds = tuple(
        FoldRecord(f"{truth}{i}{j}{n}", truth, labels[j])
        for i, truth in enumerate(labels)
        for j in range(len(labels))
        for n in range(int(confusion[i, j]))
    )
    return EvaluationReport("dtw", folds)


class TestAccuracy:
    """EvaluationReport.accuracy_percent: 100 * correct / items."""

    def test_perfect(self):
        assert report_from_confusion(np.diag([20] * 8)).accuracy_percent == 100.0

    def test_zero(self):
        assert report_from_confusion(np.roll(np.diag([20] * 8), 1, axis=1)).accuracy_percent == 0.0

    def test_mid(self):
        confusion = np.diag([20] * 8)
        confusion[0, :2] = [0, 20]  # 20 errors
        confusion[1, 1:3] = [18, 2]  # 2 errors
        report = report_from_confusion(confusion)
        assert (report.correct_count, report.item_count) == (138, 160)
        assert report.accuracy_percent == 86.25
        assert np.array_equal(report.confusion, confusion)
        assert (report.labels, report.reps_per_class) == (tuple("abcdefgh"), 20)


class TestDtwLoocv:
    def test_duplicate_corpus_is_perfect(self, duplicate_corpus):
        report = loocv(duplicate_corpus, "dtw", seed=0, ferasec_cfg=SMALL_FERASEC)
        assert report.accuracy_percent == 100.0
        assert report.method == "dtw"

    def test_confusion_marginals(self, tiny_corpus):
        report = loocv(tiny_corpus, "dtw", seed=0, ferasec_cfg=SMALL_FERASEC)
        rows = report.confusion.sum(axis=1)
        assert rows.tolist() == [4, 4, 4]
        assert report.confusion.sum() == len(tiny_corpus.entries)

    def test_accuracy_recomputed_from_folds(self, tiny_corpus):
        report = loocv(tiny_corpus, "dtw", seed=0, ferasec_cfg=SMALL_FERASEC)
        correct = sum(1 for rec in report.folds if rec.truth == rec.predicted)
        assert report.accuracy_percent == 100.0 * correct / len(report.folds)
        assert report.correct_count == correct

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_distance_matrix_matches_pairwise_oracle(self, tiny_corpus, metric):
        features = harness.item_features(tiny_corpus, "dtw", SMALL_FERASEC)
        # Ragged lengths, down to one column, beside the corpus items.
        rng = np.random.default_rng(24)
        features += [rng.normal(size=(6, int(k))) for k in rng.integers(1, 14, size=6)]
        got = harness._distance_matrix(features, DtwConfig(metric))
        expected = [
            [0.0 if i == j else per_cell_dtw(x, y, metric) for j, y in enumerate(features)]
            for i, x in enumerate(features)
        ]
        assert np.array_equal(got, np.array(expected))

    def test_manifest_permutation_keeps_accuracy(self, tiny_corpus):
        report = loocv(tiny_corpus, "dtw", seed=0, ferasec_cfg=SMALL_FERASEC)
        shuffled = shuffled_manifest(tiny_corpus, np.random.default_rng(3))
        report2 = loocv(shuffled, "dtw", seed=0, ferasec_cfg=SMALL_FERASEC)
        assert report_to_text(report2) == report_to_text(report)


class TestHmmLoocv:
    def test_faithful_mode_runs_and_reports(self, tiny_corpus):
        report = loocv(
            tiny_corpus, "hmm", seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM
        )
        assert report.method == "hmm"
        assert report.confusion.sum() == 12
        assert 0.0 <= report.accuracy_percent <= 100.0

    def test_fast_mode_deterministic_bytes(self, tiny_corpus, tmp_path):
        kwargs = dict(seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM, fast=True)
        r1 = loocv(tiny_corpus, "hmm", **kwargs)
        r2 = loocv(tiny_corpus, "hmm", **kwargs)
        write_report(r1, tmp_path / "r1.txt")
        write_report(r2, tmp_path / "r2.txt")
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()

    def test_fast_mode_permutation_invariant(self, tiny_corpus):
        kwargs = dict(seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM, fast=True)
        report = loocv(tiny_corpus, "hmm", **kwargs)
        report2 = loocv(shuffled_manifest(tiny_corpus, np.random.default_rng(4)), "hmm", **kwargs)
        assert report_to_text(report2) == report_to_text(report)

    def test_fast_groups_validation(self, tiny_corpus, monkeypatch):
        # Too few splits, splits without fast LOOCV, and any fast-LOOCV
        # flag for DTW are rejected before any item is featurized.
        calls = []
        real = harness.extract_features
        monkeypatch.setattr(
            harness, "extract_features", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        for method, fast, groups in (
            ("hmm", True, 1), ("hmm", False, 2), ("dtw", False, 1), ("dtw", True, 99), ("dtw", True, None)
        ):
            with pytest.raises(DomainError, match="splits"):
                loocv(
                    tiny_corpus,
                    method,
                    seed=0,
                    ferasec_cfg=SMALL_FERASEC,
                    hmm_cfg=SMALL_HMM,
                    fast=fast,
                    fast_groups=groups,
                )
        assert calls == []

    def test_unequal_class_sizes_fail_before_any_item(self, tiny_corpus, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "extract_features", lambda *a, **k: calls.append(a))
        unequal = CorpusManifest(tiny_corpus.entries[:-1], tiny_corpus.root)
        for method in ("dtw", "hmm"):
            with pytest.raises(DomainError, match="unequal item counts"):
                loocv(unequal, method, seed=0)
        assert calls == []

    @pytest.mark.parametrize("method", ["hmm", "hmm-raw"])
    def test_threads_env_does_not_change_results(self, tiny_corpus, monkeypatch, method):
        """Concurrent folds read one read-only stack of every item's
        columns (float64 features, float32 frames) and report the bytes
        of folds run one at a time."""
        kwargs = dict(seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM, fast=True)
        base = loocv(tiny_corpus, method, **kwargs)
        stacks, train_rows = [], harness._train_rows

        def spy(cols, ranges, labels, cfg):
            stacks.append(cols)
            return train_rows(cols, ranges, labels, cfg)

        monkeypatch.setattr(harness, "_train_rows", spy)
        monkeypatch.setenv("FERASEC_THREADS", "3")
        threaded = loocv(tiny_corpus, method, **kwargs)
        assert report_to_text(threaded) == report_to_text(base)
        assert len({id(stack) for stack in stacks}) == 1
        assert not stacks[0].flags.writeable
        items = harness.item_features(tiny_corpus, method, SMALL_FERASEC)
        assert stacks[0].shape == (sum(m.shape[1] for m in items), items[0].shape[0])
        assert stacks[0].dtype == items[0].dtype

    @pytest.mark.parametrize("method", ["hmm", "hmm-raw"])
    def test_folds_train_on_the_stack_alone(self, tiny_corpus, monkeypatch, method):
        """Once the stack is built, nothing keeps the per-item arrays alive,
        and each fold trains, on row ranges of the stack, the model that
        ``train`` gives on the separate per-item arrays, bit for bit."""
        items = harness.item_features(tiny_corpus, method, SMALL_FERASEC)
        refs, alive, folds = [], [], []
        item_features, train_rows = harness.item_features, harness._train_rows

        def tracked(*args):
            out = item_features(*args)
            refs.extend(weakref.ref(x) for x in out)
            return out

        def spy(cols, ranges, labels, cfg):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            model = train_rows(cols, ranges, labels, cfg)
            folds.append(([cols[sl].T for sl in ranges], labels, cfg, model))
            return model

        monkeypatch.setattr(harness, "item_features", tracked)
        monkeypatch.setattr(harness, "_train_rows", spy)
        loocv(tiny_corpus, method, seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM, fast=True)
        assert refs and alive == [0] * 4
        for matrices, labels, cfg, model in folds:
            separate = [(next(x for x in items if x.shape == m.shape and np.array_equal(x, m)), label)
                        for m, label in zip(matrices, labels)]
            expected = train(separate, cfg)
            for a, b in zip((model.transitions, model.priors, *model.weights, *model.biases),
                            (expected.transitions, expected.priors, *expected.weights, *expected.biases)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_threads_env_must_be_a_positive_integer(self, tiny_corpus, monkeypatch, value):
        monkeypatch.setenv("FERASEC_THREADS", value)
        with pytest.raises(DomainError, match="FERASEC_THREADS"):
            loocv(tiny_corpus, "hmm", seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM, fast=True)


class TestBaselines:
    def test_raw_variant_plumbing(self, tiny_corpus):
        report = loocv(tiny_corpus, "hmm-raw", seed=5, hmm_cfg=SMALL_HMM, fast=True)
        assert report.method == "hmm-raw"
        assert report.confusion.sum() == 12

    def test_clutter_reduced_variant_plumbing(self, tiny_corpus):
        report = loocv(tiny_corpus, "hmm-clutterreduced", seed=5, hmm_cfg=SMALL_HMM, fast=True)
        assert report.method == "hmm-clutterreduced"

    @pytest.mark.parametrize("method", ["hmm-raw", "hmm-clutterreduced"])
    def test_frame_inputs_stay_float32(self, tiny_corpus, method):
        # Frames are stored as float32; widening them would double the
        # inputs' memory and change no result (train computes in float64).
        inputs = harness.item_features(tiny_corpus, method, SMALL_FERASEC)
        assert {x.dtype for x in inputs} == {np.dtype(np.float32)}

    def test_frame_sets_of_different_bin_counts_rejected(self, tmp_path):
        # The columns of every item are stacked once, so a corpus whose
        # frame sets differ in bin count fails before any fold trains.
        rng = np.random.default_rng(3)
        entries = []
        for i, (label, rep, bins) in enumerate([("a", 1, 8), ("a", 2, 8), ("b", 1, 8), ("b", 2, 9)]):
            store_frameset(FrameSet(rng.uniform(0, 100, (12, bins))), tmp_path / f"{i}.frs")
            entries.append(ManifestEntry(f"{i}.frs", label, rep, "upper", 0))
        with pytest.raises(DimensionError, match="one shared row count"):
            loocv(CorpusManifest(entries, tmp_path), "hmm-raw", seed=0, hmm_cfg=SMALL_HMM)

    def test_unknown_variant(self, tiny_corpus):
        for method in ("spicy", "hmm-cr"):  # the short alias is gone too
            with pytest.raises(DomainError, match="method"):
                loocv(tiny_corpus, method, seed=0)


class TestLeakageAudit:
    def test_audit_rejects_overlapping_ids(self):
        # CorpusManifest rejects repeated paths, so bare entries stand in
        # for a manifest that slipped past that check.
        from ferasec.harness import _hmm_predictions
        from ferasec.frames import ManifestEntry

        rng = np.random.default_rng(0)
        feats = rng.normal(size=(6, 12))
        entries = (
            ManifestEntry("x.frs", "a", 1, "upper", 0),
            ManifestEntry("x.frs", "a", 2, "upper", 0),
            ManifestEntry("y.frs", "b", 1, "upper", 0),
            ManifestEntry("z.frs", "b", 2, "upper", 0),
        )
        with pytest.raises(AssertionError, match="leaked"):
            _hmm_predictions(entries, [feats] * 4, SMALL_HMM, [([0], 0)])


class TestReportOutput:
    def make_report(self):
        folds = (
            FoldRecord("a1", "a", "a"),
            FoldRecord("a2", "a", "b"),
            FoldRecord("b1", "b", "b"),
            FoldRecord("b2", "b", "b"),
        )
        return EvaluationReport("dtw", folds)

    def test_counts_come_from_the_folds(self):
        report = self.make_report()
        assert report.labels == ("a", "b")
        assert report.confusion.tolist() == [[1, 1], [0, 2]]
        assert not report.confusion.flags.writeable
        assert report.reps_per_class == 2

    def test_reports_compare_by_method_and_folds(self):
        report = self.make_report()
        assert report == self.make_report()
        assert report != EvaluationReport("hmm", report.folds)
        assert report != EvaluationReport("dtw", report.folds[:3] + (FoldRecord("b2", "b", "a"),))

    def test_accuracy_and_percentages(self):
        report = self.make_report()
        assert report.accuracy_percent == 75.0
        np.testing.assert_allclose(report.row_percentages, [[50.0, 50.0], [0.0, 100.0]])

    def test_machine_format_round_trippable_fields(self):
        text = report_to_text(self.make_report())
        assert "method=dtw" in text
        assert "accuracy_percent=75.000000" in text
        assert "confusion.a=1,1" in text
        assert "fold.a2=a,b" in text
        assert "timing" not in text

    @pytest.mark.parametrize("item_id", ["a=1", "a,1", "a\n1", "a\r1", "a\x851", "a\u20281"])
    def test_unserializable_item_id_rejected(self, item_id):
        report = self.make_report()
        folds = (FoldRecord(item_id, "a", "a"),) + report.folds[1:]
        report = EvaluationReport("dtw", folds)
        with pytest.raises(DomainError, match="item id .* cannot be serialized"):
            report_to_text(report)

    def test_human_format_mentions_counts(self):
        table = format_report(self.make_report())
        assert "75.00%" in table
        assert "(3/4)" in table

    def test_prediction_outside_the_truth_labels_rejected(self):
        folds = self.make_report().folds[:3] + (FoldRecord("b2", "b", "c"),)
        with pytest.raises(DomainError, match="'b2' predicted as 'c', no item's truth"):
            EvaluationReport("dtw", folds)

    def test_unequal_class_sizes_rejected(self):
        with pytest.raises(DomainError, match="same number of items"):
            EvaluationReport("dtw", self.make_report().folds[:3])

    def test_no_folds_rejected(self):
        with pytest.raises(DomainError, match="at least one fold"):
            EvaluationReport("dtw", ())

    def test_unknown_method_rejected(self, tiny_corpus):
        with pytest.raises(DomainError, match="method"):
            loocv(tiny_corpus, "forest", seed=0)

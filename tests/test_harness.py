import numpy as np
import pytest

from ferasec.errors import DomainError
from ferasec.frames import CorpusManifest
from ferasec.harness import (
    EvaluationReport,
    FoldRecord,
    format_report,
    loocv,
    report_to_text,
    write_report,
)
from ferasec.features import FerasecConfig
from ferasec.hmm import HmmTrainingConfig
from ferasec.synth import GestureBump, GestureScript, Reflector, SimConfig, generate_corpus

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


def report_from_confusion(confusion):
    """Report over the given confusion matrix of classes "a", "b", ..."""
    confusion = np.asarray(confusion)
    labels = tuple("abcdefgh"[: len(confusion)])
    folds = tuple(
        FoldRecord(f"{truth}{i}{j}{n}", truth, labels[j])
        for i, truth in enumerate(labels)
        for j in range(len(labels))
        for n in range(max(int(confusion[i, j]), 0))
    )
    reps = int(confusion.sum(axis=1).max())
    return EvaluationReport("dtw", labels, confusion, folds, reps_per_class=reps)


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

    def test_out_of_range(self):
        # A negative count would let the trace exceed the item total.
        with pytest.raises(DomainError, match="non-negative"):
            report_from_confusion([[2, -1], [0, 1]])


class TestDtwLoocv:
    def test_duplicate_corpus_is_perfect(self, duplicate_corpus):
        report = loocv(duplicate_corpus, "dtw", ferasec_cfg=SMALL_FERASEC)
        assert report.accuracy_percent == 100.0
        assert report.method == "dtw"

    def test_confusion_marginals(self, tiny_corpus):
        report = loocv(tiny_corpus, "dtw", ferasec_cfg=SMALL_FERASEC)
        rows = report.confusion.sum(axis=1)
        assert rows.tolist() == [4, 4, 4]
        assert report.confusion.sum() == len(tiny_corpus.entries)

    def test_accuracy_recomputed_from_folds(self, tiny_corpus):
        report = loocv(tiny_corpus, "dtw", ferasec_cfg=SMALL_FERASEC)
        correct = sum(1 for rec in report.folds if rec.truth == rec.predicted)
        assert report.accuracy_percent == 100.0 * correct / len(report.folds)
        assert report.correct_count == correct

    def test_manifest_permutation_keeps_accuracy(self, tiny_corpus):
        report = loocv(tiny_corpus, "dtw", ferasec_cfg=SMALL_FERASEC)
        rng = np.random.default_rng(3)
        order = rng.permutation(len(tiny_corpus.entries))
        shuffled = CorpusManifest(
            tuple(tiny_corpus.entries[i] for i in order), root=tiny_corpus.root
        )
        report2 = loocv(shuffled, "dtw", ferasec_cfg=SMALL_FERASEC)
        assert report2.accuracy_percent == report.accuracy_percent
        by_id = {rec.item_id: rec.predicted for rec in report.folds}
        for rec in report2.folds:
            assert rec.predicted == by_id[rec.item_id]


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
        rng = np.random.default_rng(4)
        order = rng.permutation(len(tiny_corpus.entries))
        shuffled = CorpusManifest(
            tuple(tiny_corpus.entries[i] for i in order), root=tiny_corpus.root
        )
        report2 = loocv(shuffled, "hmm", **kwargs)
        assert report2.accuracy_percent == report.accuracy_percent
        by_id = {rec.item_id: rec.predicted for rec in report.folds}
        for rec in report2.folds:
            assert rec.predicted == by_id[rec.item_id]

    def test_fast_groups_validation(self, tiny_corpus):
        # Too few splits, and splits without fast LOOCV.
        for fast, groups in ((True, 1), (False, 2)):
            with pytest.raises(DomainError, match="splits"):
                loocv(
                    tiny_corpus,
                    "hmm",
                    ferasec_cfg=SMALL_FERASEC,
                    hmm_cfg=SMALL_HMM,
                    fast=fast,
                    fast_groups=groups,
                )

    def test_threads_env_does_not_change_results(self, tiny_corpus, monkeypatch):
        kwargs = dict(seed=5, ferasec_cfg=SMALL_FERASEC, hmm_cfg=SMALL_HMM, fast=True)
        base = loocv(tiny_corpus, "hmm", **kwargs)
        monkeypatch.setenv("FERASEC_THREADS", "3")
        threaded = loocv(tiny_corpus, "hmm", **kwargs)
        assert report_to_text(threaded) == report_to_text(base)


class TestBaselines:
    def test_raw_variant_plumbing(self, tiny_corpus):
        report = loocv(tiny_corpus, "hmm-raw", seed=5, hmm_cfg=SMALL_HMM, fast=True)
        assert report.method == "hmm-raw"
        assert report.confusion.sum() == 12

    def test_clutter_reduced_variant_plumbing(self, tiny_corpus):
        report = loocv(tiny_corpus, "hmm-clutterreduced", seed=5, hmm_cfg=SMALL_HMM, fast=True)
        assert report.method == "hmm-clutterreduced"

    def test_unknown_variant(self, tiny_corpus):
        for method in ("spicy", "hmm-cr"):  # the short alias is gone too
            with pytest.raises(DomainError, match="method"):
                loocv(tiny_corpus, method)


class TestLeakageAudit:
    def test_audit_rejects_overlapping_ids(self):
        # CorpusManifest rejects repeated paths, so bare entries stand in
        # for a manifest that slipped past that check.
        from ferasec.harness import _hmm_folds
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
            _hmm_folds(entries, [feats] * 4, SMALL_HMM, [([0], 0)])


class TestReportOutput:
    def make_report(self):
        folds = (
            FoldRecord("a1", "a", "a"),
            FoldRecord("a2", "a", "b"),
            FoldRecord("b1", "b", "b"),
            FoldRecord("b2", "b", "b"),
        )
        confusion = np.array([[1, 1], [0, 2]])
        return EvaluationReport("dtw", ("a", "b"), confusion, folds, reps_per_class=2)

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

    def test_human_format_mentions_counts(self):
        table = format_report(self.make_report())
        assert "75.00%" in table
        assert "(3/4)" in table

    def test_confusion_total_must_match_folds(self):
        folds = (FoldRecord("a1", "a", "a"),)
        with pytest.raises(DomainError):
            EvaluationReport("dtw", ("a",), np.array([[2]]), folds, reps_per_class=1)

    def test_unknown_method_rejected(self, tiny_corpus):
        with pytest.raises(DomainError, match="method"):
            loocv(tiny_corpus, "forest")

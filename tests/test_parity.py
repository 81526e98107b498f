"""Parity anchors: SHA-256 prefixes of report and model bytes that every
change must keep unless it changes numerics on purpose and says so.

The report anchors cross-validate a 6-class x 5-rep vowel8 ``medium``
corpus (corpus seed 2024) with ``loocv`` seed 7 and a small network; the
model anchor is ``ferasec generate --reps 6 --difficulty medium --seed
2024`` followed by ``ferasec train --seed 3 --rounds 2 --epochs 4``.

Training standardizes each input dimension over every training column
(per-dimension statistics tiled over the context window), not each
spliced column.  That moved the ``hmm`` report anchors and the model
anchor; the ``dtw`` report does not train, and the raw-frame and
clutter-reduced reports kept their bytes.
"""

import hashlib

import numpy as np
import pytest

from ferasec import synth
from ferasec.cli import main
from ferasec.features import FerasecConfig
from ferasec.harness import item_features, loocv, report_to_text
from ferasec.hmm import HmmTrainingConfig, store_model, train

HMM_CFG = HmmTrainingConfig(hidden=(24,), realignment_rounds=2, epochs_per_round=3)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    scripts, cfg = synth.vowel8_preset("medium")
    return synth.generate_corpus(scripts[:6], 5, cfg, 2024, tmp_path_factory.mktemp("parity"))


@pytest.mark.parametrize(
    "method, fast_groups, anchor",
    [
        ("dtw", None, "6592f3a75de0635b"),
        ("hmm", 2, "af485262e60b51f9"),
        ("hmm", None, "2a575ecf3ea427c4"),  # faithful: one model per item
        ("hmm-raw", 2, "6b7dc200606a488f"),
        ("hmm-clutterreduced", 2, "c75a3ddea71f4db7"),
    ],
)
def test_report_anchor(corpus, method, fast_groups, anchor):
    options = {} if method == "dtw" else {"hmm_cfg": HMM_CFG}
    if fast_groups is not None:
        options.update(fast=True, fast_groups=fast_groups)
    report = loocv(corpus, method, seed=7, **options)
    assert digest(report_to_text(report).encode()) == anchor


def test_model_anchor(tmp_path):
    out, model = tmp_path / "corpus", tmp_path / "model.hmm"
    assert main(["generate", "--reps", "6", "--difficulty", "medium", "--seed", "2024",
                 "--out", str(out)]) == 0
    assert main(["train", "--corpus", str(out / "manifest.tsv"), "--seed", "3", "--rounds", "2",
                 "--epochs", "4", "--out", str(model)]) == 0
    assert digest(model.read_bytes()) == "a38a5b34ec221761"


def test_float32_frames_train_the_model_of_their_float64_cast(corpus, tmp_path):
    frames = item_features(corpus, "hmm-raw", FerasecConfig())
    labels = [e.label for e in corpus.entries]
    assert frames[0].dtype == np.float32
    stored = []
    for inputs in (frames, [f.astype(np.float64) for f in frames]):
        stored.append(tmp_path / f"{inputs[0].dtype}.hmm")
        store_model(train(list(zip(inputs, labels)), HMM_CFG), stored[-1])
    assert stored[0].read_bytes() == stored[1].read_bytes()

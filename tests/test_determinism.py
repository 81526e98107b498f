"""Results depend on neither the order of a manifest's lines nor the BLAS kernel.

A ``CorpusManifest`` keeps its entries in ``(label, repetition,
position)`` order, so every command that reads a manifest sees one item
order.  Float64 training and scoring give the same model and report
bytes under different OpenBLAS kernels, although the kernels sum in
different orders and the scores differ in their last bits.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ferasec
from ferasec.cli import main

SRC = Path(ferasec.__file__).resolve().parents[1]

TIE_SCRIPTS = """\
[b] duration=0.45
0.30; bump(0.30, 0.05, -0.10); 0.9
[a] duration=0.45
0.30; bump(0.12, 0.05, 0.10); 0.9
"""


def reorder_lines(manifest, order, name):
    """Write ``manifest``'s lines in ``order`` to ``name`` beside it; return the new path."""
    lines = manifest.read_text(encoding="utf-8").splitlines()
    path = manifest.with_name(name)
    path.write_text("".join(lines[i] + "\n" for i in order), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def vowel_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("vowel_corpus")
    argv = ["generate", "--reps", "4", "--difficulty", "medium", "--seed", "2024", "--out", str(out)]
    assert main(argv) == 0
    return out / "manifest.tsv"


@pytest.fixture(scope="module")
def tie_corpus(tmp_path_factory):
    """Two classes x two reps where ``b_001.frs`` holds ``a_002.frs``'s frames."""
    out = tmp_path_factory.mktemp("tie_corpus")
    scripts = out / "scripts.txt"
    scripts.write_text(TIE_SCRIPTS, encoding="utf-8")
    argv = ["generate", "--scripts", str(scripts), "--reps", "2", "--noise", "0.5",
            "--onset-jitter", "0.02", "--duration-jitter", "0.02", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    shutil.copyfile(out / "a_002.frs", out / "b_001.frs")
    return out


def test_train_model_bytes_ignore_line_order(vowel_corpus, tmp_path):
    shuffled = reorder_lines(vowel_corpus, np.random.default_rng(5).permutation(32), "shuffled.tsv")
    models = []
    for manifest in (vowel_corpus, shuffled):
        models.append(tmp_path / f"{manifest.stem}.hmm")
        argv = ["train", "--corpus", str(manifest), "--seed", "3", "--rounds", "2", "--epochs", "2",
                "--out", str(models[-1])]
        assert main(argv) == 0
    assert models[0].read_bytes() == models[1].read_bytes()


def test_generated_manifest_lines_are_canonical(tie_corpus):
    # The scripts list "b" first; the manifest lists items by label.
    lines = (tie_corpus / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == ["a_001.frs", "a_002.frs", "b_001.frs", "b_002.frs"]


class TestExactTie:
    """``a_002`` and ``b_001`` are equally near to every item: the tie goes to
    the earlier item in canonical order, ``a_002``, in both line orders."""

    ORDERS = (("a_001", "a_002", "b_001", "b_002"), ("a_001", "b_001", "a_002", "b_002"))

    def manifests(self, tie_corpus):
        base = tie_corpus / "manifest.tsv"
        paths = [line.split("\t")[0] for line in base.read_text(encoding="utf-8").splitlines()]
        return [
            reorder_lines(base, [paths.index(f"{item}.frs") for item in order], f"order_{i}.tsv")
            for i, order in enumerate(self.ORDERS)
        ]

    def test_loocv_report_bytes(self, tie_corpus, tmp_path):
        reports = []
        for manifest in self.manifests(tie_corpus):
            reports.append(tmp_path / f"{manifest.stem}.txt")
            assert main(["loocv", "--method", "dtw", "--corpus", str(manifest), "--report", str(reports[-1])]) == 0
        text = reports[0].read_text(encoding="utf-8")
        assert reports[1].read_text(encoding="utf-8") == text
        assert "fold.a_001.frs=a,a" in text
        assert "fold.b_001.frs=b,a" in text

    def test_classify_refs(self, tie_corpus, tmp_path, capsys):
        feats = tmp_path / "a_002.ftm"
        assert main(["extract", "--input", str(tie_corpus / "a_002.frs"), "--output", str(feats)]) == 0
        outputs = []
        for manifest in self.manifests(tie_corpus):
            capsys.readouterr()
            assert main(["classify", "--method", "dtw", "--refs", str(manifest), "--test", str(feats)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("a\t")


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.25 cannot report its build as data
        return False
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="OPENBLAS_CORETYPE selects kernels only in OpenBLAS")
def test_model_and_report_bytes_ignore_blas_kernel(vowel_corpus, tmp_path):
    # Prescott is reported as Katmai; the default here is the machine's own kernel.
    cores, outputs = set(), set()
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]))
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        model, report = tmp_path / f"{coretype}.hmm", tmp_path / f"{coretype}.txt"
        stderr = ""
        for argv in (
            ["train", "--corpus", str(vowel_corpus), "--seed", "3", "--rounds", "2", "--epochs", "2",
             "--out", str(model)],
            ["loocv", "--method", "hmm", "--corpus", str(vowel_corpus), "--fast-loocv", "--fast-groups", "2",
             "--rounds", "2", "--epochs", "2", "--report", str(report)],
        ):
            done = subprocess.run([sys.executable, "-m", "ferasec.cli", *argv], env=env,
                                  capture_output=True, text=True, check=True)
            stderr += done.stderr
        cores |= set(re.findall(r"^Core: (\S+)", stderr, flags=re.MULTILINE))
        outputs.add((model.read_bytes(), report.read_bytes()))
    assert len(cores) == 3, f"OPENBLAS_CORETYPE took effect for only {sorted(cores)}"
    assert len(outputs) == 1

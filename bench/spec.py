"""Workload table shared by the runner (``run.py``) and the worker (``worker.py``).

Standard library only: the runner imports it without NumPy or ferasec.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2024
# Set-up runs per benchmark run (setup_s is their median): at least
# SETUP_MIN_REPS, and more while they total under SETUP_MIN_S, so that a
# short set-up is sampled often enough to give a steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 10
LAYERS = ("synth", "frames", "clutter", "features", "dtw", "hmm", "harness")
# The held-out corpus of classify-stream uses the workload seed plus this.
HELD_OUT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    """One pinned synthetic workload.

    ``method`` is a ``loocv`` method, or ``None`` for the per-utterance
    ``extract`` + ``classify`` path.  ``reps`` sizes the generated corpus
    (the training corpus of the stream workload), ``held_out_reps`` the
    stream workload's held-out corpus.  A run whose accuracy falls below
    ``accuracy_floor_pct`` is not correct.
    """

    name: str
    method: str | None
    difficulty: str
    reps: int
    fast_groups: int | None = None
    held_out_reps: int = 0
    rounds: int = 2
    epochs: int = 8
    accuracy_floor_pct: float | None = None


# Accuracy floors: 90% is acceptance criterion 7 for DTW; 25% (twice
# chance over 8 classes) only catches a broken feature-input MLP-HMM, whose
# accuracy varies with the seed (69-91% seen).  Raw-frame accuracy is too
# close to chance (16-39% seen) for any floor.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("loocv-dtw", "dtw", "easy", reps=20, accuracy_floor_pct=90.0),
        Workload("loocv-hmm", "hmm", "medium", reps=20, fast_groups=5, accuracy_floor_pct=25.0),
        Workload("loocv-hmm-raw", "hmm-raw", "medium", reps=8, fast_groups=2),
        Workload("classify-stream", None, "easy", reps=10, held_out_reps=10,
                 accuracy_floor_pct=25.0),
    )
}

# Tiny sizes for ``run.py --smoke``: enough to exercise every layer and
# emit every metric in seconds, not to measure anything.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("loocv-dtw", "dtw", "easy", reps=8, accuracy_floor_pct=90.0),
        Workload("loocv-hmm", "hmm", "medium", reps=4, fast_groups=2, epochs=1),
        Workload("loocv-hmm-raw", "hmm-raw", "medium", reps=4, fast_groups=2, epochs=1),
        Workload("classify-stream", None, "easy", reps=3, held_out_reps=2, epochs=1),
    )
}
SMOKE_SETUP_REPS = 2

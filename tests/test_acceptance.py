"""Acceptance gate: every release-blocking criterion, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines.  The end-to-end criteria (7-9) generate pinned synthetic
corpora and run every cross-validation configuration exactly twice so
the determinism criterion can compare report bytes; expect the module
to take on the order of fifteen minutes on one desktop core.
"""

import time

import numpy as np
import pytest

from ferasec.clutter import reduce_frameset
from ferasec.dtw import DtwConfig, local_cost_matrix, mddtw_distance
from ferasec.features import (
    delta,
    downsample,
    extract_features,
    remove_dc,
    rms_envelope,
)
from ferasec.frames import FrameSet, pearson_correlation, positioning_check
from ferasec.harness import loocv, report_to_text
from ferasec.hmm import (
    HmmTrainingConfig,
    _viterbi_core,
    mlp_backprop,
    mlp_init,
    mlp_log_posteriors,
    train,
    viterbi_decode,
)
from ferasec.synth import generate_corpus, vowel8_preset
from oracles import (
    brute_force_viterbi,
    enumerate_paths_minimum,
    naive_delta,
    naive_downsample,
    naive_remove_dc,
    naive_rms,
    random_left_to_right,
)

MASTER_SEED = 2024
CHANCE_PERCENT = 100.0 / 8.0

# Criterion 8 runs both arms under one identical reduced-budget protocol;
# the raw-frame arm trains a 1792-input network per split, which dominates
# the acceptance runtime.
MEDIUM_HMM_CFG = HmmTrainingConfig(realignment_rounds=2, epochs_per_round=8)
MEDIUM_FAST_GROUPS = 5
EASY_FAST_GROUPS = 10


def announce(criterion: int, detail: str) -> None:
    print(f"\nCRITERION {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def easy_corpus(tmp_path_factory):
    scripts, cfg = vowel8_preset("easy")
    out = tmp_path_factory.mktemp("accept_easy")
    return generate_corpus(scripts, reps=20, cfg=cfg, master_seed=MASTER_SEED, out_dir=out)


@pytest.fixture(scope="module")
def medium_corpus(tmp_path_factory):
    scripts, cfg = vowel8_preset("medium")
    out = tmp_path_factory.mktemp("accept_medium")
    return generate_corpus(scripts, reps=20, cfg=cfg, master_seed=MASTER_SEED, out_dir=out)


def _run_twice(fn):
    first = fn()
    second = fn()
    return (first, report_to_text(first).encode()), (second, report_to_text(second).encode())


@pytest.fixture(scope="module")
def dtw_easy_runs(easy_corpus):
    return _run_twice(lambda: loocv(easy_corpus, "dtw", seed=MASTER_SEED))


@pytest.fixture(scope="module")
def hmm_easy_runs(easy_corpus):
    return _run_twice(
        lambda: loocv(
            easy_corpus, "hmm", seed=MASTER_SEED, fast=True, fast_groups=EASY_FAST_GROUPS
        )
    )


@pytest.fixture(scope="module")
def hmm_medium_runs(medium_corpus):
    return _run_twice(
        lambda: loocv(
            medium_corpus,
            "hmm",
            seed=MASTER_SEED,
            hmm_cfg=MEDIUM_HMM_CFG,
            fast=True,
            fast_groups=MEDIUM_FAST_GROUPS,
        )
    )


@pytest.fixture(scope="module")
def raw_medium_runs(medium_corpus):
    return _run_twice(
        lambda: loocv(
            medium_corpus,
            "hmm-raw",
            seed=MASTER_SEED,
            hmm_cfg=MEDIUM_HMM_CFG,
            fast=True,
            fast_groups=MEDIUM_FAST_GROUPS,
        )
    )


def test_criterion_1_ferasec_shape_and_dc():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        m = int(rng.integers(300, 1201))
        fs = FrameSet(rng.uniform(0.0, 100.0, size=(m, 256)).astype(np.float32))
        matrix = extract_features(fs)
        assert matrix.values.shape == (6, m // 4)
        for row in (0, 1):
            bound = 1e-9 * max(np.abs(matrix.values[row]).max(), np.finfo(float).tiny)
            assert abs(matrix.values[row].mean()) <= bound
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(1, f"1000 frame sets, shape 6 x M/4 and DC-free rows, {elapsed:.1f}s")


def test_criterion_2_clutter_filter():
    rng = np.random.default_rng(102)
    started = time.perf_counter()

    # Constant input, first-frame init: exactly zero everywhere.
    for _ in range(100):
        row = rng.uniform(0.0, 100.0, size=int(rng.integers(4, 64))).astype(np.float32)
        fs = FrameSet(np.tile(row, (int(rng.integers(1, 40)), 1)))
        assert np.all(reduce_frameset(fs, 0.95) == 0.0)

    # Constant input, zero init: max-norm within a factor 1.01 of alpha^m.
    for alpha in (0.8, 0.95, 0.99):
        row = np.full(32, 64.0)
        fs = FrameSet(np.tile(row, (60, 1)))
        norms = np.abs(reduce_frameset(fs, alpha, init="zero").astype(float)).max(axis=1)
        for m in range(1, 61):
            expected = alpha**m * 64.0
            assert expected / 1.01 <= norms[m - 1] <= expected * 1.01

    # Linearity to 1e-6 relative.
    for _ in range(50):
        m, n = int(rng.integers(2, 40)), int(rng.integers(2, 48))
        x = rng.uniform(0.0, 40.0, (m, n))
        y = rng.uniform(0.0, 40.0, (m, n))
        a, b = float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.1, 1.2))
        fx = reduce_frameset(FrameSet(x), 0.95).astype(float)
        fy = reduce_frameset(FrameSet(y), 0.95).astype(float)
        fc = reduce_frameset(FrameSet(a * x + b * y), 0.95).astype(float)
        scale = max(np.abs(fc).max(), 1e-9)
        assert np.abs(fc - (a * fx + b * fy)).max() <= 1e-6 * scale

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(2, f"fixed point exact, geometric decay, linear to 1e-6, {elapsed:.1f}s")


def _assert_close_relative(got, want, rtol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(np.abs(want).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def test_criterion_3_stage_oracles():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(10, 2000))
        window = 2 * int(rng.integers(1, 21))
        f = rng.uniform(1.0, 10.0, size=n)
        _assert_close_relative(rms_envelope(f, window), naive_rms(f, window), 1e-12)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        factor = int(rng.integers(1, n + 1))
        e = rng.normal(size=n)
        assert downsample(e, factor).tolist() == naive_downsample(e, factor)
    for _ in range(200):
        v = rng.normal(0.0, 50.0, size=int(rng.integers(1, 2000)))
        _assert_close_relative(remove_dc(v), naive_remove_dc(v), 1e-12)
    for _ in range(200):
        z = rng.normal(size=int(rng.integers(1, 500)))
        window = 2 * int(rng.integers(1, 8)) + 1
        _assert_close_relative(delta(z, window), naive_delta(z, window), 1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(3, f"4 stages x 200 random inputs match naive references, {elapsed:.1f}s")


def test_criterion_4_mddtw():
    rng = np.random.default_rng(104)
    started = time.perf_counter()
    for trial in range(500):
        metric = "euclidean" if trial % 2 == 0 else "manhattan"
        cfg = DtwConfig(metric)
        k1 = int(rng.integers(1, 7))
        k2 = int(rng.integers(1, 7))
        x = rng.normal(size=(6, k1))
        y = rng.normal(size=(6, k2))
        got = mddtw_distance(x, y, cfg)
        cost = local_cost_matrix(x, y, metric)
        assert got == enumerate_paths_minimum(cost.tolist())
        assert got == mddtw_distance(y, x, cfg)
        assert mddtw_distance(x, x, cfg) == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(4, f"500 instances: exact vs path enumeration, symmetric, identity-zero, {elapsed:.1f}s")


def test_criterion_5_mlp_gradients():
    rng = np.random.default_rng(105)
    started = time.perf_counter()
    step = 1e-5
    for _ in range(50):
        d_in = int(rng.integers(2, 13))
        d_h = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 11))
        params = mlp_init((d_in, d_h, d_out), rng)
        x = rng.normal(size=(3, d_in))
        t = rng.integers(0, d_out, size=3)

        def loss_at():
            logp = mlp_log_posteriors(params, x)
            return -float(logp[np.arange(3), t].mean())

        _, grads = mlp_backprop(params, x, t)
        for li in range(len(params)):
            for arr_idx in (0, 1):
                arr = params[li][arr_idx]
                grad = grads[li][arr_idx].reshape(-1)
                flat = arr.reshape(-1)
                for pos in range(flat.size):
                    original = flat[pos]
                    flat[pos] = original + step
                    up = loss_at()
                    flat[pos] = original - step
                    down = loss_at()
                    flat[pos] = original
                    numeric = (up - down) / (2.0 * step)
                    denom = max(abs(numeric), abs(grad[pos]), 1e-8)
                    assert abs(numeric - grad[pos]) / denom < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(5, f"50 networks: analytic gradients within 1e-4 of central differences, {elapsed:.1f}s")


def test_criterion_6_viterbi():
    rng = np.random.default_rng(106)
    started = time.perf_counter()
    for _ in range(500):
        s = int(rng.integers(2, 6))
        k = int(rng.integers(s, 9))
        emis = rng.normal(0.0, 3.0, size=(k, s))
        with np.errstate(divide="ignore"):
            log_trans = np.log(random_left_to_right(rng, s))
        (ll,), (path,) = _viterbi_core(emis[:, None, :], log_trans[None])
        assert ll == brute_force_viterbi(emis.tolist(), log_trans.tolist())
        assert path[0] == 0 and path[-1] == s - 1

    # K=5, S=5 leaves exactly one legal path.
    toy = []
    gen = np.random.default_rng(1061)
    for label in ("one", "two"):
        for _ in range(2):
            offset = 0.0 if label == "one" else 2.0
            toy.append((gen.normal(offset, 0.1, size=(6, 9)), label))
    model = train(toy, HmmTrainingConfig(hidden=(8,), realignment_rounds=1, epochs_per_round=2, batch_size=8, seed=0))
    feats = gen.normal(size=(6, 5))
    for label in model.labels:
        _, path = viterbi_decode(model, label, feats)
        assert path.tolist() == [0, 1, 2, 3, 4]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(6, f"500 lattices exact vs enumeration; forced K=S path, {elapsed:.1f}s")


def test_criterion_7_end_to_end_easy(dtw_easy_runs, hmm_easy_runs):
    (dtw_report, _), _ = dtw_easy_runs
    (hmm_report, _), _ = hmm_easy_runs
    for report in (dtw_report, hmm_report):
        assert report.item_count == 160
        # accuracy recomputed from the per-fold records
        correct = sum(1 for rec in report.folds if rec.truth == rec.predicted)
        assert report.accuracy_percent == 100.0 * correct / 160
        assert report.confusion.sum(axis=1).tolist() == [20] * 8
        assert report.accuracy_percent > CHANCE_PERCENT
    assert dtw_report.accuracy_percent >= 90.0
    assert hmm_report.accuracy_percent >= 80.0
    assert dtw_report.timing_s < 120.0
    assert hmm_report.timing_s < 300.0
    announce(
        7,
        f"easy corpus A=160: DTW {dtw_report.accuracy_percent:.2f}% in {dtw_report.timing_s:.0f}s, "
        f"MLP-HMM {hmm_report.accuracy_percent:.2f}% in {hmm_report.timing_s:.0f}s",
    )


def test_criterion_8_feature_vs_rawframe(hmm_medium_runs, raw_medium_runs):
    (feature_report, _), _ = hmm_medium_runs
    (raw_report, _), _ = raw_medium_runs
    gap = feature_report.accuracy_percent - raw_report.accuracy_percent
    print(
        f"\n  medium corpus: FERASEC-input {feature_report.accuracy_percent:.2f}% vs "
        f"raw-frame-input {raw_report.accuracy_percent:.2f}% (gap {gap:.2f} points)"
    )
    assert gap >= 10.0
    announce(8, f"engineered features beat raw frames by {gap:.2f} points (>= 10 required)")


def test_criterion_9_determinism(
    dtw_easy_runs, hmm_easy_runs, hmm_medium_runs, raw_medium_runs
):
    for name, runs in (
        ("dtw-easy", dtw_easy_runs),
        ("hmm-easy", hmm_easy_runs),
        ("hmm-medium", hmm_medium_runs),
        ("hmm-raw-medium", raw_medium_runs),
    ):
        (_, first_bytes), (_, second_bytes) = runs
        assert first_bytes == second_bytes, f"{name} report bytes differ between reruns"
    announce(9, "all four evaluation reports byte-identical across reruns")


def test_criterion_10_positioning_aid():
    rng = np.random.default_rng(110)

    # Self-correlation is exactly 1 and passes any threshold.
    frame = rng.uniform(0.0, 100.0, size=256)
    rho, passed = positioning_check(frame, frame, 0.95)
    assert rho == 1.0 and passed

    # Affine invariance to 1e-12 on pinned fixtures.
    for _ in range(100):
        p = rng.uniform(0.0, 100.0, size=256)
        q = rng.uniform(0.0, 100.0, size=256)
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.normal())
        assert abs(pearson_correlation(p, q) - pearson_correlation(p, a * q + b)) < 1e-12

    # Threshold gating: pass if and only if rho exceeds the threshold.
    reference = np.sin(np.linspace(0.0, 6.0, 256)) * 40.0 + 50.0
    near = reference + rng.normal(0.0, 1.0, 256)
    far = np.roll(reference, 64)
    rho_near, pass_near = positioning_check(reference, near, 0.95)
    rho_far, pass_far = positioning_check(reference, far, 0.95)
    assert pass_near == (rho_near > 0.95)
    assert pass_far == (rho_far > 0.95)
    assert pass_near and not pass_far
    announce(10, "self-case rho=1, affine invariance < 1e-12, threshold gating verified")

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ferasec import hmm
from ferasec.errors import (
    DimensionError,
    DomainError,
    FerasecError,
    FormatError,
    NumericError,
    TrainingError,
)
from ferasec.features import FerasecConfig
from ferasec.harness import item_features
from ferasec.hmm import (
    HmmTrainingConfig,
    TrainedHmmModel,
    PRIOR_FLOOR,
    _chain_statistics,
    _context_index,
    _gather_spliced,
    _viterbi_paths,
    classify,
    flat_start_align,
    load_model,
    mlp_backprop,
    mlp_init,
    mlp_log_posteriors,
    splice_context,
    store_model,
    train,
    viterbi_decode,
)
from ferasec.synth import GestureBump, GestureScript, Reflector, SimConfig, generate_corpus, vowel8_preset

TOY_CFG = HmmTrainingConfig(
    hidden=(16,),
    realignment_rounds=2,
    epochs_per_round=8,
    batch_size=16,
    learning_rate=0.05,
    seed=11,
)


def toy_corpus(rng, examples_per_class=3, k_range=(8, 14)):
    """Two well-separated classes: flat features vs ramp features."""
    corpus = []
    for _ in range(examples_per_class):
        k = int(rng.integers(*k_range))
        flat = rng.normal(0.0, 0.05, size=(6, k))
        corpus.append((flat, "flat"))
        k = int(rng.integers(*k_range))
        ramp = np.tile(np.linspace(-2.0, 2.0, k), (6, 1)) + rng.normal(0.0, 0.05, (6, k))
        corpus.append((ramp, "ramp"))
    return corpus


from byte_edits import EDITS, edited
from oracles import (
    brute_force_viterbi,
    per_cell_viterbi,
    per_frame_chain_statistics,
    random_left_to_right,
    reference_train,
)


class TestSpliceContext:
    def test_single_column_replicates(self):
        col = np.arange(6.0).reshape(6, 1)
        out = splice_context(col, 7)
        assert out.shape == (1, 42)
        np.testing.assert_array_equal(out[0], np.tile(col[:, 0], 7))

    def test_interior_concatenates_neighbors(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 12))
        out = splice_context(m, 7)
        k = 6
        expected = np.concatenate([m[:, k + off] for off in range(-3, 4)])
        np.testing.assert_array_equal(out[k], expected)

    def test_left_edge_replication_k5(self):
        m = np.random.default_rng(1).normal(size=(6, 5))
        out = splice_context(m, 7)
        cols = [0, 0, 0, 0, 1, 2, 3]  # 0-based equivalents of the edge window
        expected = np.concatenate([m[:, c] for c in cols])
        np.testing.assert_array_equal(out[0], expected)

    def test_even_window_rejected(self):
        with pytest.raises(DomainError):
            splice_context(np.zeros((6, 4)), 6)

    def test_window_lies_below_2_32(self):
        """The context window follows the model file's u32 rule, as in
        :class:`HmmTrainingConfig`, before anything is spliced."""
        for window in (2**32 + 1, 2**33 + 1):
            with pytest.raises(DomainError, match=r"context_window must lie in \[1, 2\*\*32\), got"):
                splice_context(np.zeros((2, 3)), window)


def stacked(matrices, window):
    """Columns stacked (rows, dims), spliced-row column indices and the
    row slice of each sequence, laid out as ``train`` lays them out."""
    cols = np.vstack([m.T for m in matrices])
    starts = np.cumsum([0] + [m.shape[1] for m in matrices])
    context = np.vstack([_context_index(m.shape[1], window) + lo for m, lo in zip(matrices, starts)])
    return cols, context, [slice(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]


def random_sequences(rng, window):
    """A few sequences with one shared row count, one of length 1 and one
    shorter than the window among them, with column scales far apart."""
    dims = int(rng.integers(1, 6))
    lengths = [1, max(1, window - 2), *rng.integers(1, 3 * window + 2, size=int(rng.integers(0, 4)))]
    rng.shuffle(lengths)
    scale = 10.0 ** rng.integers(-3, 4, size=(dims, 1))
    return [rng.normal(size=(dims, k)) * scale + rng.normal(size=(dims, 1)) for k in lengths]


class TestSplicedGather:
    WINDOWS = (1, 3, 5, 7, 9)

    def test_gather_equals_splice_context(self):
        rng = np.random.default_rng(40)
        for window in self.WINDOWS * 8:
            matrices = random_sequences(rng, window)
            cols, context, slices = stacked(matrices, window)
            for m, sl in zip(matrices, slices):
                assert np.array_equal(_gather_spliced(cols, context[sl]), splice_context(m, window))

    def test_training_standardizes_each_input_dimension(self, monkeypatch):
        """``train`` standardizes with the per-dimension mean and standard
        deviation of its stacked training columns, tiled over the window;
        both are read back from the spliced rows it realigns, in order."""
        rng = np.random.default_rng(41)
        offsets = np.array([[2.0], [-3.0], [5.0], [0.0]])
        scales = np.array([[1e-3], [1.0], [1e3], [0.0]])  # the last row is constant
        cfg = HmmTrainingConfig(states_per_class=1, hidden=(4,), realignment_rounds=2,
                                epochs_per_round=1)
        chain_emissions, realigned = hmm._chain_emissions, []

        def spy(params, priors, transitions, spliced):
            realigned.append(spliced.copy())
            return chain_emissions(params, priors, transitions, spliced)

        monkeypatch.setattr(hmm, "_chain_emissions", spy)
        for window in self.WINDOWS:
            lengths = [1, max(1, window - 2), *rng.integers(1, 3 * window + 2, size=3)]
            matrices = [scales * (rng.normal(size=(4, k)) + offsets) + (scales == 0) * 2.5
                        for k in lengths]
            realigned.clear()
            train([(m, "a") for m in matrices], replace(cfg, context_window=window))
            x = np.vstack(realigned)
            raw = np.vstack([splice_context(m, window) for m in matrices])
            spread = raw.std(axis=0) > 0.0
            std = np.ones(raw.shape[1])
            std[spread] = raw.std(axis=0)[spread] / x.std(axis=0)[spread]
            mean = raw.mean(axis=0) - std * x.mean(axis=0)
            cols = np.hstack(matrices).T
            expected_std = np.std(cols, axis=0)
            expected_std[expected_std < 1e-8] = 1.0
            np.testing.assert_allclose(mean, np.tile(np.mean(cols, axis=0), window), rtol=1e-12)
            np.testing.assert_allclose(std, np.tile(expected_std, window), rtol=1e-12)


class TestFlatStartAlign:
    def test_ten_over_five(self):
        np.testing.assert_array_equal(
            flat_start_align(10, 5), [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        )

    def test_exact_length(self):
        np.testing.assert_array_equal(flat_start_align(5, 5), [0, 1, 2, 3, 4])

    def test_seven_over_five_covers_all_states(self):
        align = flat_start_align(7, 5)
        assert np.all(np.diff(align) >= 0)
        assert set(align.tolist()) == {0, 1, 2, 3, 4}

    def test_property_non_decreasing_full_coverage(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = int(rng.integers(1, 8))
            k = int(rng.integers(s, 50))
            align = flat_start_align(k, s)
            assert align.shape == (k,)
            assert np.all(np.diff(align) >= 0)
            assert np.all(np.diff(align) <= 1)
            assert set(align.tolist()) == set(range(s))

    def test_too_short_raises(self):
        with pytest.raises(DomainError, match="shorter than"):
            flat_start_align(4, 5)


class TestMlp:
    def test_zero_weights_give_uniform_posterior(self):
        dims = (42, 8, 8, 40)
        params = tuple((np.zeros((i, o)), np.zeros(o)) for i, o in zip(dims[:-1], dims[1:]))
        post = np.exp(mlp_log_posteriors(params, np.random.default_rng(3).normal(size=(5, 42))))
        np.testing.assert_allclose(post, 1.0 / 40.0, rtol=1e-12)

    def test_posteriors_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        params = mlp_init((10, 12, 7), rng)
        post = np.exp(mlp_log_posteriors(params, rng.normal(size=(20, 10))))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(post > 0.0)

    def test_glorot_init_bounds(self):
        rng = np.random.default_rng(5)
        params = mlp_init((30, 20, 10), rng)
        for (w, b), (fan_in, fan_out) in zip(params, [(30, 20), (20, 10)]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)
            assert np.all(b == 0.0)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(6)
        step = 1e-5
        for _ in range(10):
            d_in = int(rng.integers(2, 12))
            d_h = int(rng.integers(2, 8))
            d_out = int(rng.integers(2, 10))
            params = mlp_init((d_in, d_h, d_out), rng)
            x = rng.normal(size=(4, d_in))
            t = rng.integers(0, d_out, size=4)

            def loss_at(p):
                logp = mlp_log_posteriors(p, x)
                return -float(logp[np.arange(4), t].mean())

            _, grads = mlp_backprop(params, x, t)
            for li in range(len(params)):
                for arr_idx in (0, 1):
                    arr = params[li][arr_idx]
                    grad = grads[li][arr_idx]
                    flat = arr.reshape(-1)
                    for pos in range(flat.size):
                        original = flat[pos]
                        flat[pos] = original + step
                        up = loss_at(params)
                        flat[pos] = original - step
                        down = loss_at(params)
                        flat[pos] = original
                        numeric = (up - down) / (2.0 * step)
                        analytic = grad.reshape(-1)[pos]
                        denom = max(abs(numeric), abs(analytic), 1e-8)
                        assert abs(numeric - analytic) / denom < 1e-4

    def test_non_finite_input_rejected(self):
        params = mlp_init((4, 4, 3), np.random.default_rng(7))
        bad = np.array([[1.0, np.nan, 0.0, 2.0]])
        with pytest.raises(NumericError):
            np.exp(mlp_log_posteriors(params, bad))

    @pytest.mark.parametrize("width", [3, 5])
    def test_backprop_rejects_wrong_input_width(self, width):
        params = mlp_init((4, 4, 3), np.random.default_rng(13))
        with pytest.raises(DimensionError, match="fan-in 4"):
            mlp_backprop(params, np.ones((2, width)), [0, 1])

    @pytest.mark.parametrize("target", [3, -1])
    def test_backprop_rejects_target_outside_outputs(self, target):
        params = mlp_init((4, 4, 3), np.random.default_rng(14))
        with pytest.raises(DomainError, match=rf"target {target} lies outside \[0, 3\)"):
            mlp_backprop(params, np.ones((2, 4)), [0, target])

    def test_backprop_buffers_change_no_result(self):
        """Loss and gradients are bit-identical with and without the
        gradient and activation buffers, also for a batch shorter than the
        buffers (training's last partial batch), and reusing them."""
        rng = np.random.default_rng(15)
        params = mlp_init((12, 9, 7, 5), rng)
        grads = [(np.full(w.shape, np.nan), np.full(v.shape, np.nan)) for w, v in params]
        acts = [np.full((16, w.shape[1]), np.nan) for w, _ in params]
        for rows in (16, 5, 16, 1):
            x = rng.normal(size=(rows, 12))
            t = rng.integers(0, 5, size=rows)
            loss, fresh = mlp_backprop(params, x, t)
            buffered_loss, buffered = mlp_backprop(params, x, t, grads, acts)
            assert buffered is grads
            assert buffered_loss == loss
            for (gw, gb), (bw, bb) in zip(fresh, buffered):
                assert np.array_equal(gw, bw) and np.array_equal(gb, bb)


class TestViterbiCore:
    def test_matches_brute_force_on_random_lattices(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = int(rng.integers(2, 6))
            k = int(rng.integers(s, 9))
            b = int(rng.integers(1, 5))
            emis = rng.normal(0.0, 3.0, size=(k, b, s))
            with np.errstate(divide="ignore"):
                log_trans = np.log(np.stack([random_left_to_right(rng, s) for _ in range(b)]))
            scores, paths = _viterbi_paths(emis.copy(), log_trans)
            assert scores.shape == (b,) and paths.shape == (b, k)
            for c in range(b):
                assert scores[c] == brute_force_viterbi(emis[:, c].tolist(), log_trans[c].tolist())
                assert paths[c, 0] == 0 and paths[c, -1] == s - 1
                steps = np.diff(paths[c])
                assert np.all((steps == 0) | (steps == 1))

    def test_lattices_longer_than_a_backtrace_block(self):
        """Paths of long lattices follow the recorded choices back and match
        per-cell back-pointers, ties included."""
        rng = np.random.default_rng(9)
        for k in (16, 17, 33, 50, 81):
            s, b = int(rng.integers(2, 6)), 3
            emis = rng.integers(-2, 3, size=(k, b, s)) * 0.5
            trans = np.zeros((b, s, s))
            for c in range(b):
                for i in range(s - 1):
                    trans[c, i, i] = rng.choice([0.0, 0.5, 0.5, 1.0, rng.uniform(0.2, 0.8)])
                    trans[c, i, i + 1] = 1.0 - trans[c, i, i]
                trans[c, s - 1, s - 1] = 1.0
            with np.errstate(divide="ignore"):
                log_trans = np.log(trans)
            scores, paths = _viterbi_paths(emis.copy(), log_trans)
            for c in range(b):
                expected, expected_path = per_cell_viterbi(emis[:, c].tolist(), log_trans[c].tolist())
                assert scores[c] == expected
                assert paths[c].tolist() == expected_path

    def test_hand_built_two_state_lattice(self):
        emis = np.array([[0.5, -1.0], [0.2, 0.3], [-0.4, 0.9]])
        trans = np.array([[0.6, 0.4], [0.0, 1.0]])
        with np.errstate(divide="ignore"):
            log_trans = np.log(trans)
        (ll,), (path,) = _viterbi_paths(emis[:, None, :].copy(), log_trans[None])
        # Paths: 0-0-1, 0-1-1 (state 0 at t=2 cannot end at state 1).
        p1 = emis[0, 0] + log_trans[0, 0] + emis[1, 0] + log_trans[0, 1] + emis[2, 1]
        p2 = emis[0, 0] + log_trans[0, 1] + emis[1, 1] + log_trans[1, 1] + emis[2, 1]
        assert ll == pytest.approx(max(p1, p2), rel=1e-15)
        assert path.tolist() == ([0, 0, 1] if p1 >= p2 else [0, 1, 1])

    def test_decode_holds_its_paths_and_one_choice_per_cell(self):
        """Beyond its lattice, an in-place decode holds its int paths, one
        bool choice per lattice cell and a few rows of working space."""
        k, b, s = 2000, 20, 5
        rng = np.random.default_rng(10)
        lattice = rng.normal(0.0, 3.0, size=(k, b, s))
        with np.errstate(divide="ignore"):
            log_trans = np.log(np.stack([random_left_to_right(rng, s) for _ in range(b)]))
        tracemalloc.start()
        try:
            _, paths = _viterbi_paths(lattice, log_trans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.shape == (b, k) and np.all(paths[:, -1] == s - 1)
        assert peak <= b * k * 8 + k * b * s + 64 * 1024


def random_chain_model(rng, b, s, window, dims, tied):
    """A model with random left-to-right chains whose allowed transitions
    include 0 (a -inf step) and 1/2 (equal stay and advance steps).  With
    ``tied`` the network's output layer is zero and the priors uniform, so
    every emission is the same constant and stay/advance scores tie exactly."""
    trans = np.zeros((b, s, s))
    for c in range(b):
        for i in range(s - 1):
            p = 0.5 if tied and rng.uniform() < 0.8 else float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.2, 0.8)]))
            trans[c, i, i], trans[c, i, i + 1] = p, 1.0 - p
        trans[c, s - 1, s - 1] = 1.0
    priors = np.full(b * s, 1.0 / (b * s)) if tied else rng.dirichlet(np.ones(b * s))
    (w0, b0), (w1, b1) = mlp_init((dims * window, 4, b * s), rng)
    if tied:
        w1 = np.zeros_like(w1)
    cfg = HmmTrainingConfig(states_per_class=s, context_window=window, hidden=(4,))
    return TrainedHmmModel(tuple(f"c{i}" for i in range(b)), trans, priors, (w0, w1), (b0, b1), cfg)


class TestForwardOnlyScores:
    """``classify`` runs the Viterbi forward alone; ``viterbi_decode`` adds the
    backtrace.  Both give every chain the same score, bit for bit."""

    def test_classify_scores_equal_decode_and_brute_force(self):
        rng = np.random.default_rng(23)
        ties = 0
        for trial in range(60):
            b, s = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            window, dims = int(rng.choice([1, 3])), int(rng.integers(1, 4))
            model = random_chain_model(rng, b, s, window, dims, tied=trial % 2 == 0)
            feats = rng.normal(size=(dims, int(rng.integers(s, 10))))
            emissions = (mlp_log_posteriors(model.params, splice_context(feats, window))
                         - np.log(model.priors)).reshape(-1, b, s)
            with np.errstate(divide="ignore"):
                log_trans = np.log(model.transitions)
            label, scores = classify(model, feats)
            assert scores.shape == (b,) and label == model.labels[int(np.argmax(scores))]
            for c, name in enumerate(model.labels):
                score, path = viterbi_decode(model, name, feats)
                expected, expected_path = per_cell_viterbi(emissions[:, c].tolist(), log_trans[c].tolist())
                assert scores[c] == score == expected
                assert scores[c] == brute_force_viterbi(emissions[:, c].tolist(), log_trans[c].tolist())
                assert np.float64(score).tobytes() == scores[c].tobytes() == np.float64(expected).tobytes()
                assert path.tolist() == expected_path
            stay = np.diagonal(log_trans, axis1=1, axis2=2)[:, :-1]
            ties += np.any(stay == np.diagonal(log_trans, offset=1, axis1=1, axis2=2))
        assert ties > 20  # the lattices do exercise the tie rule

    def test_classify_traces_no_path(self, model, monkeypatch):
        def no_backtrace(*args):
            raise AssertionError("classify traced a path back")

        feats = np.random.default_rng(24).normal(size=(6, 17))
        scores = classify(model, feats)[1]
        monkeypatch.setattr(hmm, "_viterbi_backtrace", no_backtrace)
        assert np.array_equal(classify(model, feats)[1], scores)
        with pytest.raises(AssertionError, match="traced a path"):
            viterbi_decode(model, "flat", feats)


class TestChainStatistics:
    def test_matches_per_frame_counts(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            b = int(rng.integers(1, 5))
            s = int(rng.integers(1, 6))
            class_indices = [int(c) for c in rng.permutation(np.repeat(np.arange(b), 2))]
            alignments = []
            for _ in class_indices:
                k = int(rng.integers(s, 12))
                alignments.append(np.sort(np.r_[np.arange(s), rng.integers(0, s, k - s)]))
            targets = np.concatenate([c * s + a for c, a in zip(class_indices, alignments)])
            ends = np.cumsum([a.size for a in alignments])
            trans, priors = _chain_statistics(targets, ends, b, s)
            ref_trans, ref_priors = per_frame_chain_statistics(
                alignments, class_indices, b, s, PRIOR_FLOOR
            )
            assert np.array_equal(trans, ref_trans)
            assert np.array_equal(priors, ref_priors)


class TestTraining:
    def test_toy_corpus_trains_to_perfect_fit(self, tmp_path, monkeypatch):
        """Every mini-batch step runs through the module's public
        ``mlp_backprop`` (the benchmark tracer wraps it too); a wrapper
        there sees each step and changes no model byte."""
        rng = np.random.default_rng(9)
        corpus = toy_corpus(rng)
        store_model(train(corpus, TOY_CFG), tmp_path / "plain.hmm")
        steps = []  # (loss, batch rows) of every mini-batch step
        backprop = hmm.mlp_backprop

        def record(params, inputs, targets, *buffers):
            loss, grads = backprop(params, inputs, targets, *buffers)
            steps.append((loss, len(targets)))
            return loss, grads

        monkeypatch.setattr(hmm, "mlp_backprop", record)
        model = train(corpus, TOY_CFG)
        store_model(model, tmp_path / "wrapped.hmm")
        assert (tmp_path / "plain.hmm").read_bytes() == (tmp_path / "wrapped.hmm").read_bytes()
        rows = sum(m.shape[1] for m, _ in corpus)
        per_epoch = math.ceil(rows / TOY_CFG.batch_size)
        assert len(steps) == TOY_CFG.realignment_rounds * TOY_CFG.epochs_per_round * per_epoch
        losses = []
        for lo in range(0, 5 * per_epoch, per_epoch):
            epoch_loss = 0.0  # train's own accumulation
            for loss, size in steps[lo : lo + per_epoch]:
                epoch_loss += loss * size
            losses.append(epoch_loss / rows)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        for feats, label in corpus:
            predicted, scores = classify(model, feats)
            assert predicted == label
            assert np.all(np.isfinite(scores))

    def test_deterministic_given_seed(self, tmp_path):
        rng = np.random.default_rng(10)
        corpus = toy_corpus(rng)
        a = train(corpus, TOY_CFG)
        b = train(corpus, TOY_CFG)
        store_model(a, tmp_path / "a.hmm")
        store_model(b, tmp_path / "b.hmm")
        assert (tmp_path / "a.hmm").read_bytes() == (tmp_path / "b.hmm").read_bytes()

    def test_different_seed_changes_model(self, tmp_path):
        rng = np.random.default_rng(11)
        corpus = toy_corpus(rng)
        a = train(corpus, TOY_CFG)
        from dataclasses import replace

        b = train(corpus, replace(TOY_CFG, seed=12))
        store_model(a, tmp_path / "a.hmm")
        store_model(b, tmp_path / "b.hmm")
        assert (tmp_path / "a.hmm").read_bytes() != (tmp_path / "b.hmm").read_bytes()

    def test_transitions_keep_left_to_right_structure(self):
        rng = np.random.default_rng(12)
        model = train(toy_corpus(rng), TOY_CFG)
        s = model.states_per_class
        lower = np.tril_indices(s, k=-1)
        upper = np.triu_indices(s, k=2)
        for c in range(model.class_count):
            trans = model.transitions[c]
            assert np.all(trans[lower] == 0.0)
            assert np.all(trans[upper] == 0.0)
            np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-9)
            assert trans[s - 1, s - 1] == 1.0

    def test_priors_positive_and_normalized(self):
        rng = np.random.default_rng(13)
        model = train(toy_corpus(rng), TOY_CFG)
        assert np.all(model.priors > 0.0)
        assert model.priors.sum() == pytest.approx(1.0, abs=1e-12)

    def test_class_with_one_example_rejected(self):
        rng = np.random.default_rng(14)
        corpus = toy_corpus(rng)[:3]  # flat x2, ramp x1
        with pytest.raises(TrainingError, match="2 examples"):
            train(corpus, TOY_CFG)

    def test_short_sequence_rejected(self):
        rng = np.random.default_rng(15)
        corpus = toy_corpus(rng)
        corpus.append((rng.normal(size=(6, 3)), "flat"))
        with pytest.raises(TrainingError, match="shorter"):
            train(corpus, TOY_CFG)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError, match="training corpus is empty"):
            train([], TOY_CFG)

    def test_matrices_of_different_row_counts_rejected(self):
        corpus = toy_corpus(np.random.default_rng(19))
        corpus.append((np.zeros((5, 10)), "flat"))
        with pytest.raises(DimensionError, match="one shared row count"):
            train(corpus, TOY_CFG)

    def test_diverging_learning_rate_raises_numeric_error(self):
        """Overflow on the way fails at the loss check, not as a warning
        (which this suite's filter would turn into an error)."""
        corpus = toy_corpus(np.random.default_rng(9))
        with pytest.raises(NumericError, match="non-finite training loss"):
            train(corpus, replace(TOY_CFG, learning_rate=1e6))

    def test_zero_row_features_rejected(self):
        corpus = [(np.zeros((0, 8)), label) for label in ("a", "a", "b", "b")]
        with pytest.raises(DimensionError, match="at least one row"):
            train(corpus, TOY_CFG)

    def test_zero_dimensional_matrix_rejected(self):
        corpus = [(np.float64(1.0), label) for label in ("a", "a", "b", "b")]
        with pytest.raises(DimensionError, match="2-D"):
            train(corpus, TOY_CFG)

    def test_each_round_trains_and_counts_on_the_last_alignment(self, monkeypatch):
        """Round 1's mini-batches see the flat start, each later round's
        the previous realignment; the stored chains are counted from the
        last realignment."""
        rng = np.random.default_rng(18)
        shapes = {"flat": np.zeros, "ramp": lambda k: np.linspace(-2.0, 2.0, k), "bump": np.hanning}
        corpus = []
        for _ in range(2):
            for label, shape in shapes.items():
                k = int(rng.integers(8, 14))
                corpus.append((np.tile(shape(k), (4, 1)) + rng.normal(0.0, 0.3, (4, k)), label))
        cfg = replace(TOY_CFG, realignment_rounds=3, epochs_per_round=2)
        s = cfg.states_per_class
        labels = sorted({label for _, label in corpus})
        class_indices = [labels.index(label) for _, label in corpus]
        step_targets, paths = [], []
        backprop, viterbi_paths = hmm.mlp_backprop, hmm._viterbi_paths

        def record_step(params, inputs, targets, *buffers):
            step_targets.append(np.array(targets))
            return backprop(params, inputs, targets, *buffers)

        def record_paths(*args):
            scores, best = viterbi_paths(*args)
            paths.append(best.copy())
            return scores, best

        monkeypatch.setattr(hmm, "mlp_backprop", record_step)
        monkeypatch.setattr(hmm, "_viterbi_paths", record_paths)
        model = train(corpus, cfg)

        n = len(corpus)
        assert len(paths) == (cfg.realignment_rounds - 1) * n
        alignments = [[flat_start_align(m.shape[1], s) for m, _ in corpus]]
        for rnd in range(cfg.realignment_rounds - 1):
            alignments.append([p[c] for p, c in zip(paths[rnd * n : (rnd + 1) * n], class_indices)])
        assert any(
            not np.array_equal(a, b) for before, after in zip(alignments, alignments[1:]) for a, b in zip(before, after)
        )
        rows = sum(m.shape[1] for m, _ in corpus)
        per_epoch = math.ceil(rows / cfg.batch_size)
        per_round = cfg.epochs_per_round * per_epoch
        assert len(step_targets) == cfg.realignment_rounds * per_round
        for rnd, alignment in enumerate(alignments):
            expected = np.sort(np.concatenate([c * s + a for c, a in zip(class_indices, alignment)]))
            for lo in range(rnd * per_round, (rnd + 1) * per_round, per_epoch):
                seen = np.sort(np.concatenate(step_targets[lo : lo + per_epoch]))
                assert np.array_equal(seen, expected)
        trans, priors = per_frame_chain_statistics(alignments[-1], class_indices, len(labels), s, PRIOR_FLOOR)
        assert np.array_equal(model.transitions, trans)
        assert np.array_equal(model.priors, priors)

    def test_labels_sorted_for_stable_class_order(self):
        rng = np.random.default_rng(16)
        corpus = toy_corpus(rng)
        model = train(corpus, TOY_CFG)
        assert model.labels == ("flat", "ramp")
        model2 = train(list(reversed(corpus)), TOY_CFG)
        assert model2.labels == ("flat", "ramp")


def train_on_stack(items, labels, keep, cfg):
    """``_train_rows`` on the row ranges of items ``keep`` in the items'
    one stack, as a ``loocv`` fold trains."""
    stack, ranges = hmm._stack_columns(items)
    return hmm._train_rows(stack, [ranges[j] for j in keep], [labels[j] for j in keep], cfg)


def assert_same_model(a, b):
    assert a.labels == b.labels and len(a.weights) == len(b.weights)
    for x, y in zip((a.transitions, a.priors, *a.weights, *a.biases),
                    (b.transitions, b.priors, *b.weights, *b.biases)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.fixture(scope="module")
def short_items(tmp_path_factory):
    """Per-method inputs and labels of a 3-class x 3-rep corpus of short
    items: float64 features (``hmm``), float32 raw and clutter-reduced frames."""
    scripts = [
        GestureScript("aa", (Reflector(0.30, (GestureBump(0.12, 0.05, 0.10),), 0.9),), 0.45),
        GestureScript("bb", (Reflector(0.30, (GestureBump(0.30, 0.05, -0.10),), 0.9),), 0.45),
        GestureScript("cc", (Reflector(0.55, (GestureBump(0.20, 0.08, -0.15),), 0.9),), 0.45),
    ]
    sim = SimConfig(noise_sigma=0.8, onset_jitter_s=0.03, duration_jitter_fraction=0.05)
    manifest = generate_corpus(scripts, 3, sim, 42, tmp_path_factory.mktemp("short"))
    labels = [e.label for e in manifest.entries]
    return {method: (item_features(manifest, method, FerasecConfig()), labels)
            for method in ("hmm", "hmm-raw", "hmm-clutterreduced")}


# Three rounds of two epochs; 23 rows per batch leave a partial batch on
# every corpus below.
SHORT_CFG = HmmTrainingConfig(hidden=(16,), realignment_rounds=3, epochs_per_round=2, batch_size=23, seed=5)


class TestSharedStack:
    """``_train_rows`` on row ranges of one stack, as ``loocv`` folds call
    it, trains the model that ``train`` gives on separate arrays, bit for bit."""

    @pytest.mark.parametrize("method, dtype", [("hmm", np.float64), ("hmm-raw", np.float32)])
    def test_row_ranges_of_one_stack_train_the_model_of_separate_arrays(self, short_items, method, dtype):
        items, labels = short_items[method]
        keep = [j for j in range(len(items)) if j != 4]  # a held-out item's rows lie between them
        assert items[0].dtype == dtype
        assert sum(items[j].shape[1] for j in keep) % SHORT_CFG.batch_size
        assert_same_model(train_on_stack(items, labels, keep, SHORT_CFG),
                          train([(items[j], labels[j]) for j in keep], SHORT_CFG))

    def test_stack_is_read_only_in_the_items_dtype_and_order(self, short_items):
        for method, order in (("hmm", "F_CONTIGUOUS"), ("hmm-raw", "C_CONTIGUOUS")):
            items, _ = short_items[method]
            stack, ranges = hmm._stack_columns(items)
            assert stack.dtype == items[0].dtype and stack.flags[order] and not stack.flags.writeable
            for m, sl in zip(items, ranges):
                assert np.array_equal(stack[sl].T, m)


class TestReferenceTrainer:
    """``train`` equals ``oracles.reference_train``, its plain statement,
    bit for bit, on separate arrays, and so does ``_train_rows`` on row
    ranges of one stack."""

    # Learning rates at which the loss plateaus within a round on the
    # features and the raw frames of ``short_items``, so that the halving
    # rule changes the later epochs.
    @pytest.mark.parametrize("method, learning_rate",
                             [("hmm", 1.0), ("hmm-raw", 0.3), ("hmm-clutterreduced", 0.3)])
    @pytest.mark.parametrize("shared", [False, True], ids=["separate", "stack-ranges"])
    def test_train_equals_the_reference_trainer(self, short_items, method, learning_rate, shared):
        items, labels = short_items[method]
        cfg = replace(SHORT_CFG, epochs_per_round=3, learning_rate=learning_rate)
        assert sum(m.shape[1] for m in items) % cfg.batch_size
        corpus = list(zip(items, labels))
        model = train_on_stack(items, labels, range(len(items)), cfg) if shared else train(corpus, cfg)
        assert_same_model(model, reference_train(corpus, cfg))


class TestTrainingMemory:
    def test_peak_stays_below_one_spliced_design_matrix(self):
        """Training on a raw-frame-shaped corpus gathers spliced rows on
        demand; it never holds the float64 design matrix, let alone the
        standardized copies of it."""
        rng = np.random.default_rng(30)
        corpus = [(rng.normal(size=(64, 300)), f"c{i % 4}") for i in range(16)]
        cfg = HmmTrainingConfig(hidden=(32,), realignment_rounds=2, epochs_per_round=1, seed=3)
        design_bytes = cfg.context_window * 16 * 300 * 64 * 8
        tracemalloc.start()
        try:
            train(corpus, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design_bytes

    @pytest.fixture(scope="class")
    def raw_frames(self, tmp_path_factory):
        """Raw frames and labels of a vowel8 ``medium`` corpus, 4 reps: 32 items."""
        scripts, sim = vowel8_preset("medium")
        manifest = generate_corpus(scripts, 4, sim, 2024, tmp_path_factory.mktemp("medium"))
        frames = item_features(manifest, "hmm-raw", FerasecConfig())
        assert len(frames) == 32 and frames[0].dtype == np.float32
        return frames, [e.label for e in manifest.entries]

    RAW_CFG = HmmTrainingConfig(realignment_rounds=2, epochs_per_round=1, seed=3)

    def documented_bound(self, frames, labels) -> tuple[int, int]:
        """The README's bound on one training fold, as (its inputs term, the
        rest): float32 inputs stacked once; their spliced-row indices, the
        alignment targets, the network plus one gradient set, and two
        float64 blocks of max(batch, longest sequence) spliced rows (the
        standardized buffer and the working space of one pass)."""
        cfg = self.RAW_CFG
        dims, window = frames[0].shape[0], cfg.context_window
        rows = sum(f.shape[1] for f in frames)
        longest = max(f.shape[1] for f in frames)
        widths = (window * dims, *cfg.hidden, len(set(labels)) * cfg.states_per_class)
        params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))
        block = max(min(cfg.batch_size, rows), longest) * window * dims * 8
        return rows * dims * 4, rows * window * 8 + rows * 8 + 2 * 8 * params + 2 * block

    def traced_peak(self, fit, *args) -> int:
        tracemalloc.start()
        try:
            fit(*args, self.RAW_CFG)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_raw_frame_peak_stays_within_the_documented_bound(self, raw_frames):
        frames, labels = raw_frames
        inputs, rest = self.documented_bound(frames, labels)
        assert self.traced_peak(train, list(zip(frames, labels))) < inputs + rest

    def test_raw_frame_peak_on_row_ranges_of_one_stack_holds_no_inputs(self, raw_frames):
        """On row ranges of one stack, as a ``loocv`` fold trains, training
        copies no input: the bound holds without its inputs term."""
        frames, labels = raw_frames
        _, rest = self.documented_bound(frames, labels)
        stack, ranges = hmm._stack_columns(frames)
        assert self.traced_peak(hmm._train_rows, stack, ranges, labels) < rest


@pytest.fixture(scope="module")
def model():
    return train(toy_corpus(np.random.default_rng(17)), TOY_CFG)


class TestDecoding:

    def test_k_equals_states_forces_straight_path(self, model):
        feats = np.random.default_rng(18).normal(size=(6, 5))
        for label in model.labels:
            _, path = viterbi_decode(model, label, feats)
            assert path.tolist() == [0, 1, 2, 3, 4]

    def test_path_structure(self, model):
        feats = np.random.default_rng(19).normal(size=(6, 23))
        ll, path = viterbi_decode(model, "flat", feats)
        assert np.isfinite(ll)
        assert path[0] == 0 and path[-1] == 4
        steps = np.diff(path)
        assert np.all((steps == 0) | (steps == 1))

    def test_too_short_sequence_rejected(self, model):
        with pytest.raises(DomainError, match="traverse"):
            viterbi_decode(model, "flat", np.zeros((6, 4)))
        with pytest.raises(DomainError, match="traverse"):
            classify(model, np.zeros((6, 4)))

    def test_wrong_row_count_rejected_before_splicing(self, model, monkeypatch):
        # 5 rows x window 7 against a fan-in of 6 x 7: refused before the
        # spliced copy of the sequence is built.
        calls = []
        monkeypatch.setattr(hmm, "splice_context", lambda *args: calls.append(args))
        for decode in (classify, lambda m, f: viterbi_decode(m, "flat", f)):
            with pytest.raises(DimensionError, match="5 feature rows x context window 7 do not match"):
                decode(model, np.zeros((5, 8)))
        assert calls == []

    def test_unknown_label_rejected(self, model):
        with pytest.raises(DomainError, match="unknown"):
            viterbi_decode(model, "nope", np.zeros((6, 8)))

    def test_long_sequence_stays_finite(self, model):
        rng = np.random.default_rng(20)
        feats = rng.normal(size=(6, 10_000))
        ll, path = viterbi_decode(model, "ramp", feats)
        assert np.isfinite(ll)
        assert path.shape == (10_000,)
        label, scores = classify(model, feats)
        assert np.all(np.isfinite(scores))

    def test_tie_breaks_to_first_class(self):
        # Zero network weights plus uniform chains give identical scores.
        cfg = HmmTrainingConfig(hidden=(4,), states_per_class=2, context_window=3)
        trans = np.tile(np.array([[0.5, 0.5], [0.0, 1.0]]), (2, 1, 1))
        params = [
            (np.zeros((6 * 3, 4)), np.zeros(4)),
            (np.zeros((4, 4)), np.zeros(4)),
        ]
        model = TrainedHmmModel(
            labels=("alpha", "beta"),
            transitions=trans,
            priors=np.full(4, 0.25),
            weights=tuple(w for w, _ in params),
            biases=tuple(b for _, b in params),
            config=cfg,
        )
        label, scores = classify(model, np.random.default_rng(21).normal(size=(6, 6)))
        assert scores[0] == scores[1]
        assert label == "alpha"


class TestModelPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(22)
        corpus = toy_corpus(rng)
        model = train(corpus, TOY_CFG)
        path = tmp_path / "model.hmm"
        store_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.config.seed == TOY_CFG.seed
        assert loaded.config.hidden == TOY_CFG.hidden
        for feats, label in corpus:
            assert classify(loaded, feats)[0] == classify(model, feats)[0]

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(23)
        model = train(toy_corpus(rng), TOY_CFG)
        path = tmp_path / "model.hmm"
        store_model(model, path)
        blob = path.read_bytes()
        from ferasec.errors import FormatError

        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hmm"
        path.write_bytes(b"XXXX" + bytes(64))
        from ferasec.errors import FormatError

        with pytest.raises(FormatError) as err:
            load_model(path)
        assert err.value.offset == 0


    @pytest.mark.parametrize(
        "block, value",
        [("transitions", 0.0), ("transitions", np.nan), ("transitions", np.inf), ("priors", 0.0)],
    )
    def test_degenerate_stochastic_block_rejected_at_offset(self, tmp_path, block, value):
        from ferasec.errors import FormatError

        model = train(toy_corpus(np.random.default_rng(24)), TOY_CFG)
        path = tmp_path / "model.hmm"
        store_model(model, path)
        blob = bytearray(path.read_bytes())
        s = model.states_per_class
        trans_start = len(blob) - 4 * (model.transitions.size + model.priors.size) - sum(
            8 + 4 * (w.size + v.size) for w, v in zip(model.weights, model.biases)
        )
        # Overwrite the second class's second transition row, or all priors.
        if block == "transitions":
            start, count = trans_start + 4 * (s * s + s), s
        else:
            start, count = trans_start + 4 * model.transitions.size, model.priors.size
        blob[start : start + 4 * count] = np.full(count, value, dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="finite positive sum") as err:
            load_model(path)
        assert err.value.offset == start


    def test_opposite_infinities_in_a_row_rejected_at_offset(self, tmp_path):
        # +inf plus -inf sums to NaN, which warns unless the loader expects it.
        path = tmp_path / "model.hmm"
        store_model(TrainedHmmModel(**tiny_model_kwargs()), path)
        blob = bytearray(path.read_bytes())
        start = 48 + 2 * (4 + 1)  # the first transition row, after two 1-byte labels
        blob[start : start + 8] = np.array([np.inf, -np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="finite positive sum") as err:
            load_model(path)
        assert err.value.offset == start

    def test_non_finite_weight_rejected_at_offset(self, tmp_path):
        from ferasec.errors import FormatError

        path = tmp_path / "model.hmm"
        store_model(TrainedHmmModel(**tiny_model_kwargs()), path)
        blob = bytearray(path.read_bytes())
        start = len(blob) - 4  # the last bias of the output layer
        blob[start:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="layer 1 biases must be finite") as err:
            load_model(path)
        assert err.value.offset == start

    @pytest.mark.parametrize(
        "field, message",
        [
            ("priors", "state prior 0 is 1e-50, which rounds to 0 as a float32"),
            ("weights", "layer 1 weight 5 is 1e\\+39, not finite as a float32"),
            ("biases", "layer 0 bias 3 is -1e\\+39, not finite as a float32"),
        ],
        ids=["priors", "weights", "biases"],
    )
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, field, message):
        # Each value is valid in float64, but the reader would reject its float32 image.
        kwargs = tiny_model_kwargs()
        if field == "priors":
            kwargs["priors"] = np.array([1e-50, 0.25, 0.25, 0.5 - 1e-50])
        elif field == "weights":
            kwargs["weights"][1][1, 1] = 1e39
        else:
            kwargs["biases"][0][3] = -1e39
        path = tmp_path / "model.hmm"
        with pytest.raises(NumericError, match=message):
            store_model(TrainedHmmModel(**kwargs), path)
        assert not path.exists()


def tiny_model_kwargs():
    cfg = HmmTrainingConfig(hidden=(4,), states_per_class=2, context_window=3)
    return dict(
        labels=("a", "b"),
        transitions=np.tile(np.array([[0.5, 0.5], [0.0, 1.0]]), (2, 1, 1)),
        priors=np.full(4, 0.25),
        weights=(np.zeros((18, 4)), np.zeros((4, 4))),
        biases=(np.zeros(4), np.zeros(4)),
        config=cfg,
    )


class TestLoadModelProperty:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("load_model") / "model.hmm"
        store_model(TrainedHmmModel(**tiny_model_kwargs()), path)
        return path, path.read_bytes()

    # Arbitrary bytes, or a valid model with a few bytes or words
    # overwritten, cut short or extended, so the parser gets past the
    # magic and the headers.
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(
        noise=st.one_of(st.none(), st.binary(max_size=64)),
        edits=EDITS,
        keep=st.integers(0, 1000),
        tail=st.binary(max_size=8),
    )
    def test_any_bytes_load_or_raise_ferasec_error(self, stored, noise, edits, keep, tail):
        path, valid = stored
        path.write_bytes(edited(valid, edits, keep, tail) if noise is None else noise)
        try:
            model = load_model(path)
        except FerasecError as exc:
            # Every failure, a model invariant too, is located inside the
            # file or at its end.
            assert isinstance(exc, FormatError)
            assert exc.offset is not None and 0 <= exc.offset <= len(path.read_bytes())
            return
        assert isinstance(model, TrainedHmmModel)


class TestModelValidation:
    def base_kwargs(self):
        return tiny_model_kwargs()

    def test_forbidden_transition_rejected(self):
        kwargs = self.base_kwargs()
        bad = kwargs["transitions"].copy()
        bad[0, 1, 0] = 0.1
        bad[0, 1, 1] = 0.9
        kwargs["transitions"] = bad
        with pytest.raises(DomainError, match="structure"):
            TrainedHmmModel(**kwargs)

    def test_non_stochastic_row_rejected(self):
        kwargs = self.base_kwargs()
        bad = kwargs["transitions"].copy()
        bad[0, 0, 0] = 0.7
        kwargs["transitions"] = bad
        with pytest.raises(DomainError, match="sum"):
            TrainedHmmModel(**kwargs)

    def test_layer_shapes_must_chain(self):
        kwargs = self.base_kwargs()
        kwargs["weights"] = (np.zeros((18, 4)), np.zeros((5, 4)))
        with pytest.raises(DimensionError, match="fan-in"):
            TrainedHmmModel(**kwargs)
        kwargs = self.base_kwargs()
        kwargs["biases"] = (np.zeros(3), np.zeros(4))
        with pytest.raises(DimensionError, match="bias"):
            TrainedHmmModel(**kwargs)
        kwargs = self.base_kwargs()
        kwargs["weights"] = (np.zeros((0, 4)), np.zeros((4, 4)))
        with pytest.raises(DimensionError, match="layer 0 has a zero fan-in"):
            TrainedHmmModel(**kwargs)
        for hidden in ((0,), (4, 0)):
            with pytest.raises(DomainError, match="hidden layer widths"):
                HmmTrainingConfig(hidden=hidden)

    def test_layer_0_fan_in_must_hold_whole_context_windows(self):
        kwargs = self.base_kwargs()
        kwargs["config"] = HmmTrainingConfig(hidden=(4,), states_per_class=2, context_window=5)
        with pytest.raises(DimensionError, match="layer 0 fan-in 18 is not a multiple of the context window 5"):
            TrainedHmmModel(**kwargs)

    def test_nan_transition_rejected(self):
        kwargs = self.base_kwargs()
        bad = kwargs["transitions"].copy()
        bad[1, 0, 1] = np.nan
        kwargs["transitions"] = bad
        with pytest.raises(DomainError, match="each transition row must sum to 1"):
            TrainedHmmModel(**kwargs)

    def test_seed_must_fit_the_stored_u64(self):
        HmmTrainingConfig(seed=2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\*\*64\)"):
                HmmTrainingConfig(seed=seed)

    @pytest.mark.parametrize(
        "field",
        ["states_per_class", "context_window", "realignment_rounds", "epochs_per_round", "batch_size"],
    )
    def test_counts_must_fit_the_stored_u32(self, field):
        HmmTrainingConfig(**{field: 2**32 - 1})
        with pytest.raises(DomainError, match=f"{field} must lie in \\[1, 2\\*\\*32\\)"):
            HmmTrainingConfig(**{field: 2**32 + 1})  # odd, so context_window fails only here

    def test_learning_rate_must_survive_float32(self):
        HmmTrainingConfig(learning_rate=1e-40)  # a float32 subnormal is still positive
        for rate in (1e-50, 1e50):  # stored as 0.0 and inf
            with pytest.raises(DomainError, match="learning_rate"):
                HmmTrainingConfig(learning_rate=rate)

    def test_config_hidden_must_match_weights(self):
        kwargs = self.base_kwargs()
        kwargs["config"] = HmmTrainingConfig(hidden=(8, 8), states_per_class=2, context_window=3)
        with pytest.raises(DimensionError, match="config.hidden"):
            TrainedHmmModel(**kwargs)

    def test_repeated_label_rejected(self):
        kwargs = self.base_kwargs()
        kwargs["labels"] = ("a", "a")
        with pytest.raises(DomainError, match="repeated class label 'a'"):
            TrainedHmmModel(**kwargs)

    def test_zero_prior_rejected(self):
        kwargs = self.base_kwargs()
        priors = kwargs["priors"].copy()
        priors[0] = 0.0
        priors[1] = 0.5
        kwargs["priors"] = priors
        with pytest.raises(DomainError, match="positive"):
            TrainedHmmModel(**kwargs)

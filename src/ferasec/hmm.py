"""Hybrid MLP-HMM sequence classifier.

Each class gets a left-to-right hidden Markov chain (self-loop and
advance-by-one only, no skips); a single shared multilayer perceptron
emits posteriors over every (class, state) pair from a context-spliced
feature column.  Decoding uses scaled likelihoods: the emission score of
state ``s`` at time ``k`` is ``log p(s | x_k) - log prior(s)``.

Training alternates mini-batch gradient descent on the frame-level
cross-entropy with Viterbi realignment, starting from a uniform
flat-start segmentation.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    TrainingError,
)

__all__ = [
    "HmmTrainingConfig",
    "TrainedHmmModel",
    "splice_context",
    "flat_start_align",
    "mlp_init",
    "mlp_log_posteriors",
    "mlp_backprop",
    "train",
    "viterbi_decode",
    "classify",
    "store_model",
    "load_model",
]

MODEL_MAGIC = b"HMM1"
MODEL_VERSION = 1
# Floor of every state prior, so each scaled likelihood stays finite.
PRIOR_FLOOR = 1e-8

MlpParams = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class HmmTrainingConfig:
    """Training recipe; every knob is overridable, defaults are desk-scale."""

    states_per_class: int = 5
    context_window: int = 7
    hidden: tuple[int, ...] = (256, 256, 256)
    realignment_rounds: int = 3
    epochs_per_round: int = 12
    batch_size: int = 128
    learning_rate: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        # The model file stores these counts as u32 and the learning rate as float32.
        counts = ("states_per_class", "context_window", "realignment_rounds", "epochs_per_round", "batch_size")
        for name in counts:
            value = getattr(self, name)
            if not 1 <= value < 2**32:
                raise DomainError(f"{name} must lie in [1, 2**32), got {value}")
        if self.context_window % 2 == 0:
            raise DomainError("context_window must be a positive odd integer")
        with np.errstate(over="ignore"):
            lr32 = np.float32(self.learning_rate)
        if not (np.isfinite(lr32) and lr32 > 0.0):
            raise DomainError(
                f"learning_rate must be positive and finite as a float32, got {self.learning_rate}"
            )
        if not 0 <= self.seed < 2**64:  # stored as a u64 in the model file
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if any(width < 1 for width in self.hidden):
            raise DomainError(f"hidden layer widths must be >= 1, got {tuple(self.hidden)}")
        object.__setattr__(self, "hidden", tuple(self.hidden))


@dataclass(frozen=True)
class TrainedHmmModel:
    """Per-class transition chains plus the shared posterior network."""

    labels: tuple[str, ...]
    transitions: np.ndarray  # (B, S, S)
    priors: np.ndarray  # (B*S,)
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    config: HmmTrainingConfig
    # Mean cross-entropy per epoch, all rounds concatenated.  Diagnostic
    # only: empty on models loaded from disk.
    loss_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise DomainError("model must cover at least one class")
        if len(set(labels)) != len(labels):
            repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise DomainError(f"repeated class label {repeated!r}")
        s = self.config.states_per_class
        b = len(labels)
        trans = np.asarray(self.transitions, dtype=np.float64).copy()
        priors = np.asarray(self.priors, dtype=np.float64).copy()
        if trans.shape != (b, s, s):
            raise DimensionError(f"transitions must have shape {(b, s, s)}, got {trans.shape}")
        if priors.shape != (b * s,):
            raise DimensionError(f"priors must have shape ({b * s},), got {priors.shape}")
        for c in range(b):
            _check_left_to_right(trans[c])
        if not np.all(priors > 0.0):
            raise DomainError("every state prior must be positive")
        if abs(priors.sum() - 1.0) > 1e-9:
            raise DomainError("state priors must sum to 1")
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.asarray(v, dtype=np.float64) for v in self.biases)
        if len(weights) != len(biases) or not weights:
            raise DimensionError("weights and biases must be non-empty and aligned")
        for i, (w, v) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or v.shape != (w.shape[1],):
                raise DimensionError(f"layer {i}: bias length must equal the weight fan-out")
            if 0 in w.shape:
                raise DimensionError(f"layer {i} has a zero fan-in or fan-out {w.shape}")
            if i and w.shape[0] != weights[i - 1].shape[1]:
                raise DimensionError(
                    f"layer {i} fan-in {w.shape[0]} does not match "
                    f"layer {i - 1} fan-out {weights[i - 1].shape[1]}"
                )
        if weights[-1].shape[1] != b * s:
            raise DimensionError("output layer width must equal class_count * states_per_class")
        hidden = tuple(w.shape[1] for w in weights[:-1])
        if hidden != self.config.hidden:
            raise DimensionError(
                f"config.hidden {self.config.hidden} does not match the weights' hidden widths {hidden}"
            )
        for w, v in zip(weights, biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
                raise NumericError("model parameters must be finite")
        trans.setflags(write=False)
        priors.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def class_count(self) -> int:
        return len(self.labels)

    @property
    def states_per_class(self) -> int:
        return self.config.states_per_class

    @property
    def params(self) -> MlpParams:
        return tuple(zip(self.weights, self.biases))


def _check_left_to_right(matrix: np.ndarray) -> None:
    s = matrix.shape[0]
    if matrix.shape != (s, s):
        raise DimensionError("transition matrix must be square")
    allowed = np.eye(s, dtype=bool) | np.eye(s, k=1, dtype=bool)
    if np.any(matrix[~allowed] != 0.0):
        raise DomainError("transitions outside the self-loop/advance structure must be exactly 0")
    if np.any(matrix < 0.0):
        raise DomainError("transition probabilities must be non-negative")
    if np.max(np.abs(matrix.sum(axis=1) - 1.0)) > 1e-9:
        raise DomainError("each transition row must sum to 1")


def splice_context(features, window: int) -> np.ndarray:
    """Stack each column with its neighbors: output row ``k`` concatenates
    columns ``k - w//2 .. k + w//2``, replicating the edge columns where
    the window leaves the sequence."""
    if window < 1 or window % 2 == 0:
        raise DomainError("context window must be a positive odd integer")
    values = np.asarray(features, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise DimensionError("features must be a non-empty 2-D array (dims x time)")
    return _gather_spliced(values.T, _context_index(values.shape[1], window))


def _context_index(length: int, window: int) -> np.ndarray:
    """(length, window) column indices of each spliced row: ``k - w//2 ..
    k + w//2`` clipped to the sequence, so edge columns replicate."""
    half = window // 2
    return np.clip(np.arange(length)[:, None] + np.arange(-half, half + 1), 0, length - 1)


def _gather_spliced(cols: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Spliced rows from columns ``cols`` (rows, dims) and the (n, window)
    column indices of each row: (n, window, dims) -> (n, window*dims)."""
    return cols[index].reshape(index.shape[0], index.shape[1] * cols.shape[1])


def _spliced_column_stats(
    cols: np.ndarray, context: np.ndarray, blocks: Sequence[slice]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of every spliced column, with rows
    ``context[block]`` of the design matrix gathered one block at a time.

    NumPy sums axis 0 of a C-ordered matrix one row after another, so
    folding each block into the running sum the same way reproduces
    ``x.mean(axis=0)`` and ``x.std(axis=0)`` of the stacked matrix ``x``
    bit for bit.  Deviations below 1e-8 become 1.
    """
    n = context.shape[0]
    if context.shape[1] * cols.shape[1] == 1:
        blocks = [slice(None)]  # a one-column matrix is summed pairwise, in one go

    def total(parts) -> np.ndarray:
        acc = None
        for part in parts:
            acc = np.add.reduce(part if acc is None else np.vstack([acc, part]), axis=0)
        return acc

    mean = total(_gather_spliced(cols, context[sl]) for sl in blocks) / n
    var = total(np.square(_gather_spliced(cols, context[sl]) - mean) for sl in blocks) / n
    std = np.sqrt(var)
    std[std < 1e-8] = 1.0
    return mean, std


def flat_start_align(length: int, states: int) -> np.ndarray:
    """Uniform initial segmentation: 0-based state ``ceil((k+1)*S/K) - 1``
    at 0-based index ``k``.  Non-decreasing and occupies every state."""
    if states < 1:
        raise DomainError("state count must be >= 1")
    if length < states:
        raise DomainError(f"sequence shorter than state count: {length} < {states}")
    k = np.arange(1, length + 1)
    return ((k * states + length - 1) // length - 1).astype(np.intp)


def mlp_init(dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Layers of widths ``(input, *hidden, output)``: uniform weights in
    +/- sqrt(6 / (fan_in + fan_out)), zero biases."""
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append((w, np.zeros(fan_out)))
    return tuple(params)


def _forward_hiddens(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Activations after each layer; rectifier on hiddens, raw logits last."""
    acts = [x]
    for i, (w, b) in enumerate(params):
        z = acts[-1] @ w + b
        acts.append(z if i == len(params) - 1 else np.maximum(z, 0.0))
    return acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def mlp_log_posteriors(params: MlpParams, inputs) -> np.ndarray:
    """Log state posteriors for a batch of spliced inputs, shape (n, out)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise NumericError("network input must be finite")
    if x.shape[1] != params[0][0].shape[0]:
        raise DimensionError(
            f"input width {x.shape[1]} does not match first layer fan-in {params[0][0].shape[0]}"
        )
    return _log_softmax(_forward_hiddens(params, x)[-1])


def mlp_backprop(
    params: MlpParams, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross-entropy loss and its gradients for a batch of int targets."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    t = np.asarray(targets, dtype=np.intp).reshape(-1)
    if t.size != x.shape[0]:
        raise DimensionError(f"batch size mismatch: {x.shape[0]} inputs vs {t.size} targets")
    acts = _forward_hiddens(params, x)
    logp = _log_softmax(acts[-1])
    n = x.shape[0]
    loss = -float(logp[np.arange(n), t].mean())

    dlogits = np.exp(logp)
    dlogits[np.arange(n), t] -= 1.0
    dlogits /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params)  # type: ignore[list-item]
    delta_up = dlogits
    for i in range(len(params) - 1, -1, -1):
        grads[i] = (acts[i].T @ delta_up, delta_up.sum(axis=0))
        if i > 0:
            delta_up = (delta_up @ params[i][0].T) * (acts[i] > 0.0)
    return loss, grads


def _chain_statistics(
    alignments: Sequence[np.ndarray], class_indices: Sequence[int], b: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic left-to-right matrices (B, S, S) and state priors
    (B*S,) counted from the alignments.

    Add-one smoothing on the two allowed transitions keeps every allowed
    probability positive even when a state never self-loops in the data;
    priors are floored at ``PRIOR_FLOOR`` and renormalized.
    """
    lengths = [align.size for align in alignments]
    cells = np.repeat(np.asarray(class_indices) * s, lengths) + np.concatenate(alignments)
    has_next = np.ones(cells.size, dtype=bool)  # the frame's successor is in its sequence
    has_next[np.cumsum(lengths) - 1] = False
    origin = cells[has_next]
    moved = cells[1:][has_next[:-1]] != origin
    stay = np.bincount(origin[~moved], minlength=b * s).reshape(b, s)[:, :-1]
    advance = np.bincount(origin[moved], minlength=b * s).reshape(b, s)[:, :-1]
    total = stay + advance + 2.0
    trans = np.zeros((b, s, s))
    left = np.arange(s - 1)
    trans[:, left, left] = (stay + 1.0) / total
    trans[:, left, left + 1] = (advance + 1.0) / total
    trans[:, s - 1, s - 1] = 1.0
    priors = np.maximum(np.bincount(cells, minlength=b * s) / cells.size, PRIOR_FLOOR)
    return trans, priors / priors.sum()


def _viterbi_core(emissions: np.ndarray, log_trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-path scores and paths over B left-to-right lattices at once.

    ``emissions`` is (K, B, S) and ``log_trans`` (B, S, S); returns scores
    (B,) and paths (B, K).  Every path is forced to start in state 0 and
    end in state S-1, and ties go to the self-loop.  Requires K >= S.
    """
    k, b, s = emissions.shape
    delta = np.full((b, s), -np.inf)
    delta[:, 0] = emissions[0, :, 0]
    stayed = np.zeros((k, b, s), dtype=bool)
    stay_logp = np.diagonal(log_trans, axis1=1, axis2=2)
    adv_logp = np.diagonal(log_trans, offset=1, axis1=1, axis2=2)
    adv = np.full((b, s), -np.inf)
    for t in range(1, k):
        stay = delta + stay_logp
        adv[:, 1:] = delta[:, :-1] + adv_logp
        stayed[t] = stay >= adv
        delta = np.where(stayed[t], stay, adv) + emissions[t]
    paths = np.empty((b, k), dtype=np.intp)
    paths[:, -1] = s - 1
    chains = np.arange(b)
    for t in range(k - 1, 0, -1):
        paths[:, t - 1] = paths[:, t] - ~stayed[t, chains, paths[:, t]]
    return delta[:, s - 1], paths


def _chain_viterbi(
    params: MlpParams, priors: np.ndarray, transitions: np.ndarray, spliced: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-path scores (B,) and paths (B, K) of one spliced sequence under
    every class chain, from one network pass and one lattice pass."""
    b, s, _ = transitions.shape
    emissions = (mlp_log_posteriors(params, spliced) - np.log(priors)).reshape(-1, b, s)
    with np.errstate(divide="ignore"):
        log_trans = np.log(transitions)
    return _viterbi_core(emissions, log_trans)


def train(corpus: Sequence[tuple[object, str]], cfg: HmmTrainingConfig = HmmTrainingConfig()) -> TrainedHmmModel:
    """Fit the shared network and per-class chains on labeled feature matrices.

    ``corpus`` holds ``(feature matrix, label)`` pairs; matrices are
    ``(dims, K)`` with a shared ``dims`` and ``K >= states_per_class``.
    Flat-start alignments bootstrap the first round; each round trains the
    network on the current alignments, re-estimates transitions and
    priors from them, then realigns every sequence for the next round.
    """
    if not corpus:
        raise TrainingError("training corpus is empty")
    matrices = [np.asarray(m, dtype=np.float64) for m, _ in corpus]
    labels_per_item = [label for _, label in corpus]
    dims = {m.shape[0] for m in matrices}
    if any(m.ndim != 2 for m in matrices) or len(dims) != 1:
        raise DimensionError("all feature matrices must be 2-D with one shared row count")
    feature_dim = dims.pop()
    if feature_dim < 1:
        raise DimensionError("feature matrices must have at least one row")
    s = cfg.states_per_class
    for m, label in zip(matrices, labels_per_item):
        if m.shape[1] < s:
            raise TrainingError(
                f"sequence for class {label!r} is shorter than the state count "
                f"({m.shape[1]} < {s})"
            )
    labels = tuple(sorted(set(labels_per_item)))
    counts = {label: labels_per_item.count(label) for label in labels}
    thin = [label for label, c in counts.items() if c < 2]
    if thin:
        raise TrainingError(f"every class needs >= 2 examples; too few for {thin}")
    b = len(labels)
    class_indices = [labels.index(label) for label in labels_per_item]

    # The spliced design matrix is never built.  Training keeps the
    # columns of every sequence stacked once, (rows, dims), plus the
    # (rows, window) column indices of each spliced row, and gathers
    # spliced rows on demand: a mini-batch, or one sequence at a time.
    window = cfg.context_window
    cols = np.vstack([m.T for m in matrices])
    seq_slices, index_blocks = [], []
    start = 0
    for m in matrices:
        seq_slices.append(slice(start, start + m.shape[1]))
        index_blocks.append(_context_index(m.shape[1], window) + start)
        start += m.shape[1]
    context = np.vstack(index_blocks)
    n_total = start

    mean, std = _spliced_column_stats(cols, context, seq_slices)

    def standardized(rows) -> np.ndarray:
        return (_gather_spliced(cols, context[rows]) - mean) / std

    rng = np.random.default_rng(cfg.seed)
    params = mlp_init((feature_dim * window, *cfg.hidden, b * s), rng)
    alignments = [flat_start_align(m.shape[1], s) for m in matrices]
    transitions = np.zeros((b, s, s))
    priors = np.full(b * s, 1.0 / (b * s))

    loss_history: list[float] = []
    for rnd in range(cfg.realignment_rounds):
        targets = np.empty(n_total, dtype=np.intp)
        for align, c, sl in zip(alignments, class_indices, seq_slices):
            targets[sl] = c * s + align

        lr = cfg.learning_rate
        best_loss = np.inf
        for epoch in range(cfg.epochs_per_round):
            perm = rng.permutation(n_total)
            epoch_loss = 0.0
            for lo in range(0, n_total, cfg.batch_size):
                batch = perm[lo : lo + cfg.batch_size]
                loss, grads = mlp_backprop(params, standardized(batch), targets[batch])
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite training loss (round {rnd + 1}, epoch {epoch + 1})"
                    )
                for (w, v), (gw, gb) in zip(params, grads):
                    w -= lr * gw
                    v -= lr * gb
                epoch_loss += loss * batch.size
            epoch_loss /= n_total
            loss_history.append(epoch_loss)
            if epoch_loss >= best_loss:
                lr *= 0.5
            else:
                best_loss = epoch_loss

        transitions, priors = _chain_statistics(alignments, class_indices, b, s)

        if rnd < cfg.realignment_rounds - 1:
            alignments = [
                _chain_viterbi(params, priors, transitions, standardized(sl))[1][c]
                for c, sl in zip(class_indices, seq_slices)
            ]

    # Fold input standardization into the first layer so the stored model
    # consumes raw spliced features.
    w0, b0 = params[0]
    folded = ((w0 / std[:, None], b0 - (mean / std) @ w0),) + params[1:]
    return TrainedHmmModel(
        labels=labels,
        transitions=transitions,
        priors=priors,
        weights=tuple(w for w, _ in folded),
        biases=tuple(v for _, v in folded),
        config=cfg,
        loss_history=tuple(loss_history),
    )


def _decode(model: TrainedHmmModel, features) -> tuple[np.ndarray, np.ndarray]:
    """Best-path scores (B,) and paths (B, K) of ``features`` under every
    class chain of ``model``."""
    values = np.asarray(features, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionError("features must be a 2-D array (dims x time)")
    s = model.states_per_class
    if values.shape[1] < s:
        raise DomainError(
            f"sequence of length {values.shape[1]} cannot traverse {s} states without skips"
        )
    spliced = splice_context(values, model.config.context_window)
    return _chain_viterbi(model.params, model.priors, model.transitions, spliced)


def viterbi_decode(model: TrainedHmmModel, label: str, features) -> tuple[float, np.ndarray]:
    """Best-path log-likelihood of ``features`` under one class's chain.

    The path starts in state 0, ends in the last state, and is
    non-decreasing with steps of 0 or +1 (0-based state indices).
    """
    if label not in model.labels:
        raise DomainError(f"unknown class label {label!r}")
    c = model.labels.index(label)
    scores, paths = _decode(model, features)
    return float(scores[c]), paths[c]


def classify(model: TrainedHmmModel, features) -> tuple[str, np.ndarray]:
    """Label of the chain with the highest best-path log-likelihood.

    Returns the winning label plus the per-class log-likelihood vector
    (aligned with ``model.labels``); ties break toward the earlier class.
    """
    scores, _ = _decode(model, features)
    return model.labels[int(np.argmax(scores))], scores


def store_model(model: TrainedHmmModel, path: str | Path) -> None:
    """Serialize a trained model; numeric payloads are little-endian float32."""
    cfg = model.config
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack(
        "<IIIII",
        MODEL_VERSION,
        model.class_count,
        cfg.states_per_class,
        cfg.context_window,
        len(model.weights),
    )
    out += struct.pack(
        "<QIIIf",
        cfg.seed,
        cfg.realignment_rounds,
        cfg.epochs_per_round,
        cfg.batch_size,
        np.float32(cfg.learning_rate),
    )
    for label in model.labels:
        raw = label.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += np.ascontiguousarray(model.transitions, dtype="<f4").tobytes()
    out += np.ascontiguousarray(model.priors, dtype="<f4").tobytes()
    for w, v in zip(model.weights, model.biases):
        out += struct.pack("<II", w.shape[0], w.shape[1])
        out += np.ascontiguousarray(w, dtype="<f4").tobytes()
        out += np.ascontiguousarray(v, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(out))


def load_model(path: str | Path) -> TrainedHmmModel:
    """Read a model written by :func:`store_model`.

    Transition rows and priors are renormalized after the float32
    round-trip so the stochastic invariants hold exactly again.
    """
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    pos = 0

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(blob):
            raise FormatError("model file truncated", offset=pos)
        vals = struct.unpack_from(fmt, view, pos)
        pos += size
        return vals

    def take_floats(count: int) -> np.ndarray:
        nonlocal pos
        size = count * 4
        if pos + size > len(blob):
            raise FormatError("model file truncated", offset=pos)
        # A signalling NaN payload would warn in the cast; non-finite values
        # are rejected by the caller instead.
        with np.errstate(invalid="ignore"):
            arr = np.frombuffer(view, dtype="<f4", count=count, offset=pos).astype(np.float64)
        pos += size
        return arr

    def take_finite(count: int, what: str) -> np.ndarray:
        start = pos
        arr = take_floats(count)
        finite = np.isfinite(arr)
        if not finite.all():
            raise FormatError(f"{what} must be finite", offset=start + 4 * int(np.argmin(finite)))
        return arr

    def take_stochastic(shape: tuple[int, ...], what: str) -> np.ndarray:
        """Float block whose last-axis sums must be finite and positive, renormalized."""
        start = pos
        block = take_floats(math.prod(shape)).reshape(shape)  # exact for any header sizes
        sums = block.sum(axis=-1, keepdims=True)
        bad = ~(np.isfinite(sums) & (sums > 0.0))
        if bad.any():
            first = int(np.argmax(bad.reshape(-1)))
            raise FormatError(
                f"{what} must have a finite positive sum", offset=start + 4 * shape[-1] * first
            )
        return block / sums

    (magic,) = take("<4s")
    if magic != MODEL_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}", offset=0)
    version, b, s, window, layer_count = take("<IIIII")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}", offset=4)
    seed, rounds, epochs, batch, lr = take("<QIIIf")
    labels, seen = [], set()
    for _ in range(b):
        (length,) = take("<I")
        if pos + length > len(blob):
            raise FormatError("model file truncated in label table", offset=pos)
        try:
            label = bytes(view[pos : pos + length]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("class label is not UTF-8", offset=pos + exc.start) from None
        if label in seen:
            raise FormatError(f"repeated class label {label!r}", offset=pos)
        labels.append(label)
        seen.add(label)
        pos += length
    transitions = take_stochastic((b, s, s), "each transition row")
    priors = take_stochastic((b * s,), "the state priors")
    weights, biases = [], []
    hidden = []
    for i in range(layer_count):
        fan_in, fan_out = take("<II")
        if fan_in == 0 or fan_out == 0:
            raise FormatError(f"layer {i} has a zero fan-in or fan-out", offset=pos - 8)
        weights.append(take_finite(fan_in * fan_out, f"layer {i} weights").reshape(fan_in, fan_out))
        biases.append(take_finite(fan_out, f"layer {i} biases"))
        if i < layer_count - 1:
            hidden.append(fan_out)
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after model payload", offset=pos)
    cfg = HmmTrainingConfig(
        states_per_class=s,
        context_window=window,
        hidden=tuple(hidden),
        realignment_rounds=rounds,
        epochs_per_round=epochs,
        batch_size=batch,
        learning_rate=float(lr),
        seed=seed,
    )
    return TrainedHmmModel(
        labels=tuple(labels),
        transitions=transitions,
        priors=priors,
        weights=tuple(weights),
        biases=tuple(biases),
        config=cfg,
    )

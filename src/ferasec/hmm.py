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
    ByteReader,
    DimensionError,
    DomainError,
    FormatError,
    Header,
    NumericError,
    TrainingError,
    float32_bytes,
    positive_float32,
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

MODEL_VERSION = 1
_HEADER = Header(b"HMM1", ("version", "I"), ("class_count", "I"), ("states_per_class", "I"), ("context_window", "I"),
                 ("layers", "I"), ("seed", "Q"), ("realignment_rounds", "I"), ("epochs_per_round", "I"),
                 ("batch_size", "I"), ("learning_rate", "f"))
# Floor of every state prior, so each scaled likelihood stays finite.
PRIOR_FLOOR = 1e-8

MlpParams = tuple[tuple[np.ndarray, np.ndarray], ...]


# Config fields that the model header stores, under the same names.
_STORED_FIELDS = ("states_per_class", "context_window", "seed", "realignment_rounds", "epochs_per_round",
                  "batch_size", "learning_rate")


def _check_stored_field(name: str, value) -> None:
    """Reject a config value that the model file cannot hold: counts are
    u32, the seed a u64 and the learning rate a float32."""
    if name == "seed":
        if not 0 <= value < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {value}")
    elif name == "learning_rate":
        if positive_float32(value) is None:
            raise DomainError(f"learning_rate must be positive and finite as a float32, got {value}")
    elif not 1 <= value < 2**32:
        raise DomainError(f"{name} must lie in [1, 2**32), got {value}")
    elif name == "context_window" and value % 2 == 0:
        raise DomainError("context_window must be a positive odd integer")


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
        for name in _STORED_FIELDS:
            _check_stored_field(name, getattr(self, name))
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
        fault = _chain_fault(trans, priors)
        if fault is not None:
            raise DomainError(fault[1])
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.asarray(v, dtype=np.float64) for v in self.biases)
        if len(weights) != len(biases) or not weights:
            raise DimensionError("weights and biases must be non-empty and aligned")
        for i, (w, v) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or v.shape != (w.shape[1],):
                raise DimensionError(f"layer {i}: bias length must equal the weight fan-out")
            previous = weights[i - 1].shape[1] if i else None
            fault = _layer_fault(i, w.shape, previous, len(weights), b * s, self.config.context_window)
            if fault is not None:
                raise DimensionError(fault[1])
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


def _chain_fault(trans: np.ndarray, priors: np.ndarray) -> tuple[int, str] | None:
    """The first float of the (B, S, S) chains then the (B*S,) priors, in file order, that
    breaks the left-to-right structure (a row, at its first float) or the priors, and why."""
    s = trans.shape[-1]
    forbidden = ~(np.eye(s, dtype=bool) | np.eye(s, k=1, dtype=bool))
    checks = (
        (np.any((trans != 0.0) & forbidden, axis=-1),
         "transitions outside the self-loop/advance structure must be exactly 0"),
        (np.any(trans < 0.0, axis=-1), "transition probabilities must be non-negative"),
        (~(np.abs(trans.sum(axis=-1) - 1.0) <= 1e-9), "each transition row must sum to 1"),
    )
    for bad, message in checks:
        if bad.any():
            return s * int(np.argmax(bad.reshape(-1))), message
    if not np.all(priors > 0.0):
        return trans.size + int(np.argmin(priors > 0.0)), "every state prior must be positive"
    if abs(priors.sum() - 1.0) > 1e-9:
        return trans.size, "state priors must sum to 1"
    return None


def _layer_fault(i, shape, previous_fan_out, layer_count, outputs, window) -> tuple[int, str] | None:
    """The first field of layer ``i``'s (fan-in, fan-out), 0 or 1, that breaks the network's
    shape, and why.  Layer 0 takes spliced context windows: its fan-in is a multiple of ``window``."""
    fan_in, fan_out = shape
    if fan_in == 0 or fan_out == 0:
        return 0, f"layer {i} has a zero fan-in or fan-out"
    if i and fan_in != previous_fan_out:
        return 0, f"layer {i} fan-in {fan_in} does not match layer {i - 1} fan-out {previous_fan_out}"
    if not i and fan_in % window:
        return 0, f"layer 0 fan-in {fan_in} is not a multiple of the context window {window}"
    if i == layer_count - 1 and fan_out != outputs:
        return 1, "output layer width must equal class_count * states_per_class"
    return None


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


def _forward_hiddens(params: MlpParams, x: np.ndarray, out: Sequence[np.ndarray] = ()) -> list[np.ndarray]:
    """Activations after each layer; rectifier on hiddens, raw logits last.
    With ``out``, layer ``i`` writes into the first rows of ``out[i]``."""
    acts = [x]
    for i, (w, b) in enumerate(params):
        z = np.matmul(acts[-1], w, out=out[i][: x.shape[0]] if out else None)
        z += b
        if i < len(params) - 1:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
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
    params: MlpParams, inputs, targets, grads: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    acts_out: Sequence[np.ndarray] = (),
) -> tuple[float, Sequence[tuple[np.ndarray, np.ndarray]]]:
    """Mean cross-entropy loss and its gradients for a batch of int targets.

    Given ``grads``, the gradients overwrite those float64 buffers, one
    ``(weight, bias)`` pair per layer; otherwise they are allocated.  Given
    ``acts_out``, each layer's activations, then its deltas, go into the
    first rows of ``acts_out[i]`` (see :func:`_forward_hiddens`).  The
    buffers change no result."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    t = np.asarray(targets, dtype=np.intp).reshape(-1)
    fan_in, outputs = params[0][0].shape[0], params[-1][0].shape[1]
    if x.shape[1] != fan_in:
        raise DimensionError(f"input width {x.shape[1]} does not match first layer fan-in {fan_in}")
    if t.size != x.shape[0]:
        raise DimensionError(f"batch size mismatch: {x.shape[0]} inputs vs {t.size} targets")
    bad = (t < 0) | (t >= outputs)
    if bad.any():
        raise DomainError(f"target {t[bad][0]} lies outside [0, {outputs})")
    if grads is None:
        grads = [(np.empty(w.shape), np.empty(b.shape)) for w, b in params]
    acts = _forward_hiddens(params, x, acts_out)
    logp = _log_softmax(acts[-1])
    n = x.shape[0]
    rows = np.arange(n)
    loss = -float(logp[rows, t].mean())

    delta = np.exp(logp, out=logp)
    delta[rows, t] -= 1.0
    delta /= n
    for i in range(len(params) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            alive = acts[i] > 0.0
            delta = np.matmul(delta, params[i][0].T, out=acts[i])  # acts[i] is not read again
            delta *= alive
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
    Float32 matrices (raw frames) are kept as float32 and widened to
    float64 only where they are standardized; every computed value is
    float64, so the model does not depend on the input dtype.
    Flat-start alignments bootstrap the first round; each round trains the
    network on the current alignments, re-estimates transitions and
    priors from them, then realigns every sequence for the next round.
    """
    if not corpus:
        raise TrainingError("training corpus is empty")
    matrices = [np.asarray(m) for m, _ in corpus]
    matrices = [m if m.dtype == np.float32 else m.astype(np.float64, copy=False) for m in matrices]
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
    # columns of every sequence stacked once, (rows, dims) in the inputs'
    # dtype, plus the (rows, window) column indices of each spliced row,
    # and gathers spliced rows on demand: a mini-batch, or one sequence
    # at a time, standardized into one float64 buffer.
    window = cfg.context_window
    cols = np.vstack([m.T for m in matrices])
    seq_slices, index_blocks = [], []
    start = 0
    for m in matrices:
        seq_slices.append(slice(start, start + m.shape[1]))
        index_blocks.append(_context_index(m.shape[1], window) + start)
        start += m.shape[1]
    context = np.vstack(index_blocks)
    del index_blocks
    n_total = start

    # Standardize each input dimension over every training column, summed
    # in float64 one sequence at a time; the statistics are tiled over the
    # window to line up with the spliced columns.
    mean = sum(cols[sl].astype(np.float64).sum(axis=0) for sl in seq_slices) / n_total
    std = np.sqrt(sum(np.square(cols[sl] - mean).sum(axis=0) for sl in seq_slices) / n_total)
    std[std < 1e-8] = 1.0
    mean, std = np.tile(mean, window), np.tile(std, window)
    longest = max(m.shape[1] for m in matrices)
    standardized_rows = np.empty((max(min(cfg.batch_size, n_total), longest), mean.size))

    def standardized(rows) -> np.ndarray:
        """Spliced rows ``rows``, standardized into the shared buffer; the
        next call overwrites them."""
        gathered = _gather_spliced(cols, context[rows])
        out = standardized_rows[: gathered.shape[0]]
        np.subtract(gathered, mean, out=out)
        out /= std
        return out

    rng = np.random.default_rng(cfg.seed)
    params = mlp_init((feature_dim * window, *cfg.hidden, b * s), rng)
    grads = [(np.empty(w.shape), np.empty(v.shape)) for w, v in params]
    alignments = [flat_start_align(m.shape[1], s) for m in matrices]
    transitions = np.zeros((b, s, s))
    priors = np.full(b * s, 1.0 / (b * s))

    for rnd in range(cfg.realignment_rounds):
        targets = np.empty(n_total, dtype=np.intp)
        for align, c, sl in zip(alignments, class_indices, seq_slices):
            targets[sl] = c * s + align

        lr = cfg.learning_rate
        best_loss = np.inf
        # Every step of the round writes its activations and deltas here;
        # they are freed before realignment, which needs its own.
        activations = [np.empty((min(cfg.batch_size, n_total), w.shape[1])) for w, _ in params]
        for epoch in range(cfg.epochs_per_round):
            perm = rng.permutation(n_total)
            epoch_loss = 0.0
            for lo in range(0, n_total, cfg.batch_size):
                batch = perm[lo : lo + cfg.batch_size]
                loss, _ = mlp_backprop(params, standardized(batch), targets[batch], grads, activations)
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite training loss (round {rnd + 1}, epoch {epoch + 1})"
                    )
                for (w, v), (gw, gb) in zip(params, grads):
                    gw *= lr
                    w -= gw
                    gb *= lr
                    v -= gb
                epoch_loss += loss * batch.size
            epoch_loss /= n_total
            if epoch_loss >= best_loss:
                lr *= 0.5
            else:
                best_loss = epoch_loss

        del activations
        transitions, priors = _chain_statistics(alignments, class_indices, b, s)

        if rnd < cfg.realignment_rounds - 1:
            # Copy each path row: a view would keep all B paths alive.
            alignments = [
                _chain_viterbi(params, priors, transitions, standardized(sl))[1][c].copy()
                for c, sl in zip(class_indices, seq_slices)
            ]

    # Fold input standardization into the first layer so the stored model
    # consumes raw spliced features; the weights are scaled in place.
    w0, b0 = params[0]
    b0 = b0 - (mean / std) @ w0
    w0 /= std[:, None]
    return TrainedHmmModel(
        labels=labels,
        transitions=transitions,
        priors=priors,
        weights=tuple(w for w, _ in params),
        biases=(b0, *(v for _, v in params[1:])),
        config=cfg,
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
    window, fan_in = model.config.context_window, model.weights[0].shape[0]
    if values.shape[0] * window != fan_in:
        raise DimensionError(
            f"{values.shape[0]} feature rows x context window {window} do not match layer 0's fan-in {fan_in}"
        )
    spliced = splice_context(values, window)
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
    out = bytearray()
    out += _HEADER.pack(version=MODEL_VERSION, class_count=model.class_count, layers=len(model.weights),
                        **{name: getattr(model.config, name) for name in _STORED_FIELDS})
    for label in model.labels:
        raw = label.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += np.ascontiguousarray(model.transitions, dtype="<f4").tobytes()
    out += float32_bytes(
        model.priors, lambda p: p > 0.0, "state prior {i} is {value}, which rounds to 0 as a float32"
    )
    for k, (w, v) in enumerate(zip(model.weights, model.biases)):
        out += struct.pack("<II", w.shape[0], w.shape[1])
        out += float32_bytes(w, np.isfinite, f"layer {k} weight {{i}} is {{value}}, not finite as a float32")
        out += float32_bytes(v, np.isfinite, f"layer {k} bias {{i}} is {{value}}, not finite as a float32")
    Path(path).write_bytes(bytes(out))


def _take_stochastic(reader: ByteReader, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float block whose last-axis sums must be finite and positive, renormalized."""
    start = reader.pos
    # A signalling NaN warns in the cast, +inf plus -inf in the sum; both fail below.
    with np.errstate(invalid="ignore"):
        block = reader.floats(math.prod(shape)).astype(np.float64).reshape(shape)
        sums = block.sum(axis=-1, keepdims=True)
    bad = ~(np.isfinite(sums) & (sums > 0.0))
    if bad.any():
        first = int(np.argmax(bad.reshape(-1)))
        raise FormatError(f"{what} must have a finite positive sum", offset=start + 4 * shape[-1] * first)
    return block / sums


def load_model(path: str | Path) -> TrainedHmmModel:
    """Read a model written by :func:`store_model`.

    Transition rows and priors are renormalized after the float32
    round-trip so the stochastic invariants hold exactly again.
    """
    reader = ByteReader(path)
    header = _HEADER.take(reader)
    at = _HEADER.offsets
    if header["version"] != MODEL_VERSION:
        raise FormatError(f"unsupported model version {header['version']}", offset=at["version"])
    b, s, window = header["class_count"], header["states_per_class"], header["context_window"]
    layer_count = header["layers"]
    if b == 0:
        raise FormatError("model must cover at least one class", offset=at["class_count"])
    if layer_count == 0:
        raise FormatError("model must have at least one layer", offset=at["layers"])
    stored = {name: header[name] for name in _STORED_FIELDS}
    for name, value in stored.items():
        try:
            _check_stored_field(name, value)
        except DomainError as exc:
            raise FormatError(str(exc), offset=at[name]) from None
    labels, seen = [], set()
    for _ in range(b):
        (length,) = reader.take("<I")
        start = reader.pos
        try:
            label = reader.take_bytes(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("class label is not UTF-8", offset=start + exc.start) from None
        if label in seen:
            raise FormatError(f"repeated class label {label!r}", offset=start)
        labels.append(label)
        seen.add(label)
    trans_start = reader.pos
    transitions = _take_stochastic(reader, (b, s, s), "each transition row")
    priors = _take_stochastic(reader, (b * s,), "the state priors")
    fault = _chain_fault(transitions, priors)
    if fault is not None:
        raise FormatError(fault[1], offset=trans_start + 4 * fault[0])
    weights, biases = [], []
    for i in range(layer_count):
        start = reader.pos
        fan_in, fan_out = reader.take("<II")
        fault = _layer_fault(i, (fan_in, fan_out), weights[-1].shape[1] if i else None, layer_count, b * s, window)
        if fault is not None:
            raise FormatError(fault[1], offset=start + 4 * fault[0])
        weights.append(
            reader.floats(fan_in * fan_out, np.isfinite, f"layer {i} weights must be finite")
            .reshape(fan_in, fan_out)
        )
        biases.append(reader.floats(fan_out, np.isfinite, f"layer {i} biases must be finite"))
    reader.end()
    cfg = HmmTrainingConfig(hidden=tuple(w.shape[1] for w in weights[:-1]), **stored)
    return TrainedHmmModel(
        labels=tuple(labels),
        transitions=transitions,
        priors=priors,
        weights=tuple(weights),
        biases=tuple(biases),
        config=cfg,
    )

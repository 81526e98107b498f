"""Independent reference implementations used as test oracles.

Deliberately naive: windows recomputed from scratch, paths enumerated
exhaustively, gradients taken by finite differences.  None of this code
shares logic with the library beyond consuming the same inputs, except
where a function's docstring names what it shares.
"""

import math

import numpy as np

from ferasec.errors import GenerationError
from ferasec.frames import DEFAULT_BIN_COUNT, DEFAULT_FRAME_RATE_HZ, DEFAULT_RANGE_M, FrameSet
from ferasec.hmm import (
    PRIOR_FLOOR,
    TrainedHmmModel,
    flat_start_align,
    mlp_backprop,
    mlp_init,
    mlp_log_posteriors,
    splice_context,
)
from ferasec.synth import CLUTTER_PROFILE, ECHO_AMPLITUDE, PULSE_WIDTH_BINS


def naive_rms(f, window):
    """Per-position RMS with each window summed from scratch (fsum)."""
    total = len(f)
    half = window // 2
    out = []
    for j in range(1, total + 1):  # 1-based
        lo = max(1, j - half)
        hi = min(total, j + half - 1)
        acc = math.fsum(float(f[i - 1]) ** 2 for i in range(lo, hi + 1))
        out.append(math.sqrt(acc / window))
    return out


def padded_rms(f, window):
    """The envelope from one zero-padded float64 buffer of every squared
    sample: position ``j`` sums the ``window`` buffer entries from ``j``,
    a contiguous row with the zeros where its window leaves ``f``."""
    half = window // 2
    squares = np.zeros(len(f) + window - 1)
    squares[half : half + len(f)] = np.square(np.asarray(f, dtype=np.float64))
    rows = np.array([squares[j : j + window] for j in range(len(f))])
    return np.sqrt(rows.sum(axis=1) / window)


def naive_downsample(e, factor):
    return [float(e[factor * k - 1]) for k in range(1, len(e) // factor + 1)]


def naive_remove_dc(v):
    mean = math.fsum(float(x) for x in v) / len(v)
    return [float(x) - mean for x in v]


def naive_delta(z, window):
    half = window // 2
    denom = sum(l * l for l in range(-half, half + 1))
    out = []
    for k in range(len(z)):
        acc = 0.0
        for l in range(-half, half + 1):
            idx = k + l
            if 0 <= idx < len(z):
                acc += l * float(z[idx])
        out.append(acc / denom)
    return out


def column_cost(x, y, metric):
    """Cost of one column pair, its per-row terms summed in row order."""
    total = 0.0
    for a, b in zip(x, y):
        diff = float(a) - float(b)
        total += diff * diff if metric == "euclidean" else abs(diff)
    return math.sqrt(total) if metric == "euclidean" else total


def per_cell_dtw(x, y, metric):
    """MD-DTW distance filled in one grid cell at a time, row by row.

    Every cell adds its local cost to the minimum of its three
    predecessors, the first row and column having only one.
    """
    k1, k2 = len(x[0]), len(y[0])
    columns_x = [[row[i] for row in x] for i in range(k1)]
    columns_y = [[row[j] for row in y] for j in range(k2)]
    rows = [[column_cost(columns_x[i], columns_y[j], metric) for j in range(k2)] for i in range(k1)]
    first = rows[0]
    prev = [0.0] * k2
    prev[0] = first[0]
    for j in range(1, k2):
        prev[j] = prev[j - 1] + first[j]
    for i in range(1, k1):
        row = rows[i]
        cur = [0.0] * k2
        left = prev[0] + row[0]
        cur[0] = left
        for j in range(1, k2):
            up = prev[j]
            diag = prev[j - 1]
            best = diag if diag < up else up
            if left < best:
                best = left
            left = row[j] + best
            cur[j] = left
        prev = cur
    return prev[-1]


def enumerate_paths_minimum(cost):
    """Exhaustive minimum over every monotone warping path of a cost matrix.

    Accumulates predecessor total plus local cost, the same association
    order as per-cell dynamic programming, so agreement is bit-exact.
    """
    k1, k2 = len(cost), len(cost[0])
    best = [math.inf]

    def walk(i, j, total):
        total = total + cost[i][j]
        if i == k1 - 1 and j == k2 - 1:
            best[0] = min(best[0], total)
            return
        if i + 1 < k1:
            walk(i + 1, j, total)
        if j + 1 < k2:
            walk(i, j + 1, total)
        if i + 1 < k1 and j + 1 < k2:
            walk(i + 1, j + 1, total)

    walk(0, 0, 0.0)
    return best[0]


def brute_force_viterbi(emissions, log_trans):
    """Enumerate every start-to-end monotone state path, matching the DP's
    accumulation order (add transition, then emission)."""
    k, s = len(emissions), len(emissions[0])
    best = [-math.inf]

    def walk(t, state, running):
        if t == k - 1:
            if state == s - 1:
                best[0] = max(best[0], running)
            return
        for nxt in (state, state + 1):
            if nxt < s:
                walk(t + 1, nxt, running + log_trans[state][nxt] + emissions[t + 1][nxt])

    walk(0, 0, emissions[0][0])
    return best[0]


def per_cell_viterbi(emissions, log_trans):
    """Best score and path of one left-to-right chain, one cell at a time:
    each cell keeps a back-pointer, and a tie between staying and
    advancing goes to the self-loop."""
    k, s = len(emissions), len(emissions[0])
    score = [emissions[0][0]] + [-math.inf] * (s - 1)
    stayed = []
    for t in range(1, k):
        new, choice = [], []
        for j in range(s):
            stay = score[j] + log_trans[j][j]
            advance = score[j - 1] + log_trans[j - 1][j] if j else -math.inf
            choice.append(stay >= advance)
            new.append((stay if stay >= advance else advance) + emissions[t][j])
        score = new
        stayed.append(choice)
    path = [s - 1]
    for t in range(k - 1, 0, -1):
        path.append(path[-1] - (not stayed[t - 1][path[-1]]))
    return score[s - 1], path[::-1]


def per_frame_chain_statistics(alignments, class_indices, b, s, floor):
    """Transition matrices and state priors counted one frame and one
    state at a time, with add-one smoothing on both allowed transitions."""
    stay = np.zeros((b, s))
    advance = np.zeros((b, s))
    counts = np.zeros(b * s)
    for align, c in zip(alignments, class_indices):
        for state, nxt in zip(align[:-1], align[1:]):
            if nxt != state:
                advance[c, state] += 1
            else:
                stay[c, state] += 1
        for state in align:
            counts[c * s + state] += 1
    trans = np.zeros((b, s, s))
    for c in range(b):
        for state in range(s - 1):
            total = stay[c, state] + advance[c, state] + 2.0
            trans[c, state, state] = (stay[c, state] + 1.0) / total
            trans[c, state, state + 1] = (advance[c, state] + 1.0) / total
        trans[c, s - 1, s - 1] = 1.0
    priors = np.maximum(counts / counts.sum(), floor)
    return trans, priors / priors.sum()


def reference_train(corpus, cfg):
    """``hmm.train`` stated plainly: the whole spliced design matrix,
    standardized in one expression; fresh parameters after every
    mini-batch; the learning rate halved on a plateau; a per-class,
    per-cell Viterbi realignment; chain statistics counted frame by frame;
    and the standardization folded into layer 0.

    It shares the network primitives, ``splice_context`` and
    ``flat_start_align`` with the library, which have tests of their own.
    The standardization statistics are summed one sequence at a time,
    each over its matrix's transpose in that matrix's own memory order,
    the order in which the library's stack holds the columns of matrices
    that all share one layout.
    """
    matrices = [np.asarray(m) for m, _ in corpus]
    names = [label for _, label in corpus]
    labels = tuple(sorted(set(names)))
    classes = [labels.index(label) for label in names]
    b, s, window = len(labels), cfg.states_per_class, cfg.context_window
    n = sum(m.shape[1] for m in matrices)

    mean = sum(m.T.astype(np.float64).sum(axis=0) for m in matrices) / n
    std = np.sqrt(sum(np.square(m.T - mean).sum(axis=0) for m in matrices) / n)
    std[std < 1e-8] = 1.0
    mean, std = np.tile(mean, window), np.tile(std, window)
    x = (np.vstack([splice_context(m, window) for m in matrices]) - mean) / std

    bounds = np.cumsum([0] + [m.shape[1] for m in matrices])
    sequences = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    targets = np.concatenate([c * s + flat_start_align(m.shape[1], s) for c, m in zip(classes, matrices)])
    rng = np.random.default_rng(cfg.seed)
    params = mlp_init((x.shape[1], *cfg.hidden, b * s), rng)
    for rnd in range(cfg.realignment_rounds):
        lr, best = cfg.learning_rate, math.inf
        for _ in range(cfg.epochs_per_round):
            order = rng.permutation(n)
            total = 0.0
            for lo in range(0, n, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                loss, grads = mlp_backprop(params, x[batch], targets[batch])
                params = tuple((w - gw * lr, v - gb * lr) for (w, v), (gw, gb) in zip(params, grads))
                total += loss * batch.size
            total /= n
            if total >= best:
                lr *= 0.5
            else:
                best = total
        alignments = [targets[sl] - c * s for c, sl in zip(classes, sequences)]
        trans, priors = per_frame_chain_statistics(alignments, classes, b, s, PRIOR_FLOOR)
        if rnd < cfg.realignment_rounds - 1:
            with np.errstate(divide="ignore"):
                log_trans = np.log(trans)
            for c, sl in zip(classes, sequences):
                emissions = (mlp_log_posteriors(params, x[sl]) - np.log(priors)).reshape(-1, b, s)[:, c]
                path = per_cell_viterbi(emissions.tolist(), log_trans[c].tolist())[1]
                targets[sl] = c * s + np.array(path)

    (w0, v0), *rest = params
    return TrainedHmmModel(
        labels=labels,
        transitions=trans,
        priors=priors,
        weights=(w0 / std[:, None], *(w for w, _ in rest)),
        biases=(v0 - (mean / std) @ w0, *(v for _, v in rest)),
        config=cfg,
    )


def scalar_loopback_reference(rows, alpha, c0, incremental=False):
    """Plain per-bin Python loop over the clutter filter recurrence
    ``alpha * c + (1 - alpha) * r``.  With ``incremental`` it is stated as
    ``c + (r - c) * (1 - alpha)`` instead: equal in exact arithmetic, exact
    at the fixed point ``c == r``, and the float64 operations the library
    runs, so its results can be compared bit for bit."""
    c = [float(v) for v in c0]
    out = []
    for row in rows:
        if incremental:
            c = [cv + (float(rv) - cv) * (1.0 - alpha) for cv, rv in zip(c, row)]
        else:
            c = [alpha * cv + (1.0 - alpha) * float(rv) for cv, rv in zip(c, row)]
        out.append([float(rv) - cv for rv, cv in zip(row, c)])
    return out


def pearson_by_formula(p, q):
    """Direct evaluation of the correlation formula."""
    n = len(p)
    p_bar = sum(p) / n
    q_bar = sum(q) / n
    num = sum((p[x] - p_bar) * (q[x] - q_bar) for x in range(n))
    den_p = sum((p[x] - p_bar) ** 2 for x in range(n))
    den_q = sum((q[x] - q_bar) ** 2 for x in range(n))
    return num / math.sqrt(den_p * den_q)


def random_left_to_right(rng, s):
    trans = np.zeros((s, s))
    for i in range(s - 1):
        p = float(rng.uniform(0.2, 0.8))
        trans[i, i] = p
        trans[i, i + 1] = 1.0 - p
    trans[s - 1, s - 1] = 1.0
    return trans


def naive_render(script, cfg, seed):
    """Full-width float64 render: every echo over every bin, one noise draw.

    It shares the trajectories (``Reflector.distance_at``), the constants
    and ``FrameSet`` with the library; only the map is built differently.
    """
    if cfg.onset_jitter_s >= script.duration_s / 2:
        raise GenerationError(
            f"onset jitter {cfg.onset_jitter_s} s must be below half of script "
            f"{script.label!r}'s duration {script.duration_s} s"
        )
    rng = np.random.default_rng(seed)
    onset_shift = float(rng.uniform(-cfg.onset_jitter_s, cfg.onset_jitter_s))
    time_scale = float(1.0 + rng.uniform(-cfg.duration_jitter_fraction, cfg.duration_jitter_fraction))
    position_shift = float(rng.uniform(-cfg.position_jitter_m, cfg.position_jitter_m))
    frame_count = int(round(script.duration_s * time_scale * DEFAULT_FRAME_RATE_HZ))
    if frame_count < 1:
        raise GenerationError("jittered duration renders zero frames")

    t = np.arange(1, frame_count + 1, dtype=np.float64) / DEFAULT_FRAME_RATE_HZ
    bins = np.arange(1, DEFAULT_BIN_COUNT + 1, dtype=np.float64)
    data = np.tile(CLUTTER_PROFILE, (frame_count, 1))
    denom = 2.0 * PULSE_WIDTH_BINS**2
    for reflector in script.reflectors:
        dist = reflector.distance_at(t, time_scale, onset_shift) + position_shift
        if dist.min() <= 0.0 or dist.max() >= DEFAULT_RANGE_M:
            raise GenerationError(
                f"reflector trajectory leaves (0, {DEFAULT_RANGE_M}) m for script {script.label!r}"
            )
        center_bins = dist * DEFAULT_BIN_COUNT / DEFAULT_RANGE_M  # 1-based, continuous
        data += reflector.reflectivity * ECHO_AMPLITUDE * np.exp(
            -((bins[None, :] - center_bins[:, None]) ** 2) / denom
        )
    if cfg.noise_sigma > 0.0:
        data += rng.normal(0.0, cfg.noise_sigma, size=data.shape)
    np.clip(data, 0.0, 100.0, out=data)
    return FrameSet(
        data,
        frame_rate_hz=DEFAULT_FRAME_RATE_HZ,
        range_m=DEFAULT_RANGE_M,
        label=script.label,
    )

"""One loader contract for the three binary formats (FRS1 frame sets, FTM1
feature matrices, HMM1 models): a file cut short fails at its end, where
the missing bytes should be, and an extra byte fails where the payload ends.
Every HMM1 model invariant is located too: a header value that the
training config rejects at its field, a transition row that breaks the
left-to-right chain at its row, a zero prior at its value, a layer
that does not chain at its header and a context window that does not
divide layer 0's fan-in at that fan-in."""

import struct

import numpy as np
import pytest

from ferasec.errors import FormatError
from ferasec.features import load_features, store_features
from ferasec.frames import FrameSet, load_frameset, store_frameset
from ferasec.hmm import TrainedHmmModel, load_model, store_model

from test_hmm import tiny_model_kwargs

FORMATS = {
    "FRS1": (lambda path: store_frameset(FrameSet(np.full((2, 3), 7.0)), path), load_frameset),
    "FTM1": (lambda path: store_features(np.ones((2, 3)), path), load_features),
    "HMM1": (lambda path: store_model(TrainedHmmModel(**tiny_model_kwargs()), path), load_model),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_short_file_and_trailing_byte_are_located(tmp_path, fmt):
    store, load = FORMATS[fmt]
    path = tmp_path / "file"
    store(path)
    blob = path.read_bytes()
    load(path)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="truncated") as err:
            load(path)
        assert err.value.offset == cut
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes") as err:
        load(path)
    assert err.value.offset == len(blob)


def stored_tiny_model(path):
    store_model(TrainedHmmModel(**tiny_model_kwargs()), path)
    return bytearray(path.read_bytes())


# The tiny model's layout: a 48-byte header (magic, version, B @8, S @12,
# context window @16, layers @20, seed, rounds @32, epochs @36, batch @40,
# learning rate @44), two 1-byte labels, 2x2x2 transitions, 4 priors, then
# layer 0 (header, 18x4 weights, 4 biases) and layer 1 (header, 4x4, 4).
TRANSITIONS = 48 + 2 * (4 + 1)
PRIORS = TRANSITIONS + 4 * 8
LAYER_1 = PRIORS + 4 * 4 + 8 + 4 * (18 * 4 + 4)


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (8, "<I", 0, "at least one class"),
        (12, "<I", 0, "states_per_class must lie in"),
        (16, "<I", 0, "context_window must lie in"),
        (16, "<I", 2, "context_window must be a positive odd integer"),
        (20, "<I", 0, "at least one layer"),
        (32, "<I", 0, "realignment_rounds must lie in"),
        (36, "<I", 0, "epochs_per_round must lie in"),
        (40, "<I", 0, "batch_size must lie in"),
        (44, "<f", 0.0, "learning_rate must be positive"),
        (44, "<f", -0.02, "learning_rate must be positive"),
        (44, "<f", float("nan"), "learning_rate must be positive"),
        (44, "<f", float("inf"), "learning_rate must be positive"),
        (PRIORS + 4, "<f", 0.0, "every state prior must be positive"),
        (PRIORS + 16, "<I", 19, "layer 0 fan-in 19 is not a multiple of the context window 3"),
        (LAYER_1, "<I", 5, "layer 1 fan-in 5 does not match layer 0 fan-out 4"),
        (LAYER_1 + 4, "<I", 5, "output layer width must equal"),
    ],
)
def test_model_invariant_is_located(tmp_path, offset, fmt, value, message):
    path = tmp_path / "model.hmm"
    blob = stored_tiny_model(path)
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=message) as err:
        load_model(path)
    assert err.value.offset == offset


def test_context_window_that_does_not_divide_layer_0_is_located(tmp_path):
    # Byte 19 = 0x40 makes the window 2**30 + 3: odd and a u32, so the
    # config takes it, but layer 0's 18 inputs hold no whole window.  The
    # file fails at layer 0's fan-in, the later field of the pair.
    path = tmp_path / "model.hmm"
    blob = stored_tiny_model(path)
    blob[19] = 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"fan-in 18 is not a multiple of the context window {2**30 + 3}") as err:
        load_model(path)
    assert err.value.offset == PRIORS + 16


@pytest.mark.parametrize(
    "row, values, message",
    [
        (3, (0.1, 0.9), "outside the self-loop/advance structure"),  # class b, state 1 steps back
        (0, (-0.5, 1.5), "must be non-negative"),
    ],
)
def test_model_transition_row_is_located(tmp_path, row, values, message):
    path = tmp_path / "model.hmm"
    blob = stored_tiny_model(path)
    start = TRANSITIONS + 8 * row  # each row holds two float32
    blob[start : start + 8] = np.array(values, dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=message) as err:
        load_model(path)
    assert err.value.offset == start

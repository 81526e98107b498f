"""One loader contract for the three binary formats (FRS1 frame sets, FTM1
feature matrices, HMM1 models): a file cut short fails at its end, where
the missing bytes should be, and an extra byte fails where the payload ends."""

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

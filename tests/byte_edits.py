"""Hypothesis inputs for loader property tests: a valid file's bytes with
a few bytes or words overwritten, then cut short or extended."""

from hypothesis import strategies as st


def edited(blob, edits, keep, tail):
    out = bytearray(blob)
    for pos, chunk in edits:
        pos %= len(out) - len(chunk) + 1
        out[pos : pos + len(chunk)] = chunk
    return bytes(out[:keep]) + tail


# Little-endian float32 / uint32 words worth planting: 0, 1, huge, -1,
# +inf, a quiet and a signalling NaN, the largest float32.
WORDS = st.sampled_from(
    [bytes.fromhex(h) for h in ("00000000", "01000000", "ffffffff", "000080bf",
                                "0000807f", "0000c07f", "0100807f", "ffff7f7f")]
)
EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.one_of(st.binary(min_size=1, max_size=1), WORDS)),
    max_size=6,
)

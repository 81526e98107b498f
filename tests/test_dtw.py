import tracemalloc

import numpy as np
import pytest

from ferasec import dtw
from ferasec.dtw import DtwConfig, classify_1nn, local_cost_matrix, mddtw_distance, mddtw_distances
from ferasec.errors import DimensionError, DomainError
from oracles import column_cost, enumerate_paths_minimum, per_cell_dtw


def brute_force_dtw(x, y, metric="euclidean"):
    cost = local_cost_matrix(np.asarray(x, float), np.asarray(y, float), metric)
    return enumerate_paths_minimum(cost.tolist())


def test_local_cost_matrix_refuses_an_unknown_metric():
    with pytest.raises(DomainError, match="local_metric must be one of"):
        local_cost_matrix(np.ones((2, 3)), np.ones((2, 4)), "bogus")


class TestMddtwDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=(6, int(rng.integers(1, 20))))
            assert mddtw_distance(x, x) == 0.0

    def test_single_columns_reduce_to_local_metric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 1))
        y = rng.normal(size=(6, 1))
        expected = column_cost(x[:, 0], y[:, 0], "euclidean")
        assert mddtw_distance(x, y) == expected
        expected_m = column_cost(x[:, 0], y[:, 0], "manhattan")
        assert mddtw_distance(x, y, DtwConfig("manhattan")) == expected_m

    def test_local_costs_match_independent_formula(self):
        rng = np.random.default_rng(9)
        for metric in ("euclidean", "manhattan"):
            x = rng.normal(size=(6, 5))
            y = rng.normal(size=(6, 4))
            cost = local_cost_matrix(x, y, metric)
            for i in range(5):
                for j in range(4):
                    assert cost[i, j] == column_cost(x[:, i], y[:, j], metric)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_matches_brute_force_enumeration(self, metric):
        rng = np.random.default_rng(2)
        cfg = DtwConfig(metric)
        for _ in range(60):
            k1 = int(rng.integers(1, 7))
            k2 = int(rng.integers(1, 7))
            x = rng.normal(size=(6, k1))
            y = rng.normal(size=(6, k2))
            assert mddtw_distance(x, y, cfg) == brute_force_dtw(x, y, metric)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.normal(size=(6, int(rng.integers(1, 25))))
            y = rng.normal(size=(6, int(rng.integers(1, 25))))
            assert mddtw_distance(x, y) == mddtw_distance(y, x)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.normal(size=(3, int(rng.integers(1, 12))))
            y = rng.normal(size=(3, int(rng.integers(1, 12))))
            assert mddtw_distance(x, y) >= 0.0

    def test_appending_shared_suffix_bounded_increase(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=(6, int(rng.integers(1, 10))))
            y = rng.normal(size=(6, int(rng.integers(1, 10))))
            u = rng.normal(size=(6, 1))
            v = rng.normal(size=(6, 1))
            base = mddtw_distance(x, y)
            grown = mddtw_distance(np.hstack([x, u]), np.hstack([y, v]))
            assert grown <= base + column_cost(u[:, 0], v[:, 0], "euclidean") + 1e-12

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            mddtw_distance(np.zeros((6, 3)), np.zeros((5, 3)))

    def test_bad_metric(self):
        with pytest.raises(DomainError):
            DtwConfig("cosine")


def ragged(rng, lengths, rows=6):
    return [rng.normal(size=(rows, k)) for k in lengths]


class TestMddtwDistances:
    """The batched wavefront against the cell-by-cell oracle, bit for bit."""

    def assert_matches_oracle(self, x, refs):
        for metric in ("euclidean", "manhattan"):
            got = mddtw_distances(x, refs, DtwConfig(metric))
            expected = np.array([per_cell_dtw(x, y, metric) for y in refs])
            assert got.shape == (len(refs),)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "draw_lengths",
        [
            lambda rng, k1: [int(rng.integers(1, 16))],  # one reference
            lambda rng, k1: list(rng.integers(1, k1, size=5)),  # all shorter
            lambda rng, k1: list(rng.integers(k1 + 1, k1 + 12, size=5)),  # all longer
            lambda rng, k1: list(rng.integers(1, 20, size=int(rng.integers(2, 9)))),  # mixed
        ],
        ids=["single", "shorter", "longer", "mixed"],
    )
    def test_ragged_batches_match_per_cell_recurrence(self, draw_lengths):
        rng = np.random.default_rng(21)
        for _ in range(15):
            k1 = int(rng.integers(2, 16))
            rows = int(rng.integers(1, 13))
            x = rng.normal(size=(rows, k1))
            self.assert_matches_oracle(x, ragged(rng, draw_lengths(rng, k1), rows))

    def test_single_column_on_either_side(self):
        rng = np.random.default_rng(22)
        for k in (1, 2, 7, 13):
            self.assert_matches_oracle(rng.normal(size=(6, 1)), ragged(rng, [k, 1, 3]))
            self.assert_matches_oracle(rng.normal(size=(6, k)), ragged(rng, [1, 1, k]))

    def count_chunks(self, monkeypatch):
        """Reference counts of the ``_chunk_distances`` calls that follow."""
        calls, real = [], dtw._chunk_distances

        def spy(xa, refs, metric):
            calls.append(len(refs))
            return real(xa, refs, metric)

        monkeypatch.setattr(dtw, "_chunk_distances", spy)
        return calls

    def test_tall_query_runs_in_bands_of_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 200))
        refs = ragged(rng, rng.integers(150, 201, size=8), rows=2)
        # A full-height band of all eight would not fit the block.
        assert 8 * (200 + 3) * (200 + 2 + 2) * 8 > dtw._BLOCK_BYTES
        calls = self.count_chunks(monkeypatch)
        self.assert_matches_oracle(x, refs)
        assert calls == [8, 8]  # one chunk per metric

    def test_batch_spanning_several_chunks(self, monkeypatch):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(6, 3))
        refs = ragged(rng, [60] * 500)
        # A one-row band of all 500 would not fit the block.
        assert 500 * (60 + 3) * (1 + 6 + 2) * 8 > dtw._BLOCK_BYTES
        calls = self.count_chunks(monkeypatch)
        self.assert_matches_oracle(x, refs)
        assert calls == [250] * 4  # two equal chunks per metric

    def test_loocv_sized_batch_runs_as_one_chunk(self, monkeypatch):
        """One query of a 160-item LOOCV (d = 6, K <= 65) against the
        other 159 items takes one chunk, cut into bands of query rows."""
        rng = np.random.default_rng(26)
        x = rng.normal(size=(6, 65))
        refs = ragged(rng, rng.integers(40, 66, size=159))
        calls = self.count_chunks(monkeypatch)
        self.assert_matches_oracle(x, refs)
        assert calls == [159, 159]  # one chunk per metric

    def test_large_batch_splits_where_that_takes_fewer_steps(self, monkeypatch):
        """400 references of 65 columns (d = 6) fit one chunk only in
        one-row bands, 4,225 diagonal steps; two chunks of six bands take
        898, and eight full-height chunks 1,032."""
        rng = np.random.default_rng(27)
        x = rng.normal(size=(6, 65))
        refs = ragged(rng, [65] * 400)
        calls = self.count_chunks(monkeypatch)
        got = mddtw_distances(x, refs)
        assert calls == [200, 200]
        for b in range(0, 400, 57):  # both chunks
            assert got[b] == per_cell_dtw(x, refs[b], "euclidean")
        # No cliff where one-row bands of all references stop fitting (428 -> 429).
        assert [dtw._chunk_count(65, 65, b, 6) for b in (159, 250, 400, 428, 429)] == [1, 2, 2, 3, 3]

    @pytest.mark.parametrize("block_bytes", [None, 2048, 512], ids=["default", "2KiB", "512B"])
    @pytest.mark.parametrize(
        "k1, lengths",
        [
            (1, [5, 1, 9, 3]),  # one query column
            (9, [1, 1, 1]),  # K2max = 1
            (20, [3, 7, 5, 12]),  # the query is longer than every reference
            (10, [1, 14, 6, 10, 3, 22]),  # mixed lengths
        ],
        ids=["k1=1", "k2max=1", "query-longest", "mixed"],
    )
    def test_small_blocks_keep_the_bits(self, monkeypatch, block_bytes, k1, lengths):
        """Blocks small enough to hold one or two references, in bands of
        a few query rows, give the per-cell recurrence's bits."""
        if block_bytes is not None:
            monkeypatch.setattr(dtw, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(k1)
        self.assert_matches_oracle(rng.normal(size=(6, k1)), ragged(rng, lengths))

    def test_memory_per_query_does_not_grow_with_the_batch(self):
        """The README's bound: 2 1/4 MiB per query, plus 16 bytes per
        reference for the result and the list of references."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(6, 60))
        refs = [rng.normal(size=(6, 60)) for _ in range(1000)]
        tracemalloc.start()
        try:
            mddtw_distances(x, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 16 * len(refs) <= 2.25 * 2**20

    def test_empty_references(self):
        with pytest.raises(DomainError, match="must not be empty"):
            mddtw_distances(np.ones((6, 3)), [])

    def test_row_count_mismatch_names_the_reference(self):
        refs = [np.zeros((6, 3)), np.zeros((6, 4)), np.zeros((5, 3))]
        with pytest.raises(DimensionError, match="reference 2 has 5 rows"):
            mddtw_distances(np.zeros((6, 3)), refs)


class TestClassify1nn:
    def make_ramps(self):
        rng = np.random.default_rng(6)
        refs = []
        for slope, label in [(0.5, "slow"), (2.0, "mid"), (5.0, "fast")]:
            for _ in range(3):
                k = int(rng.integers(8, 14))
                base = slope * np.arange(k)
                refs.append((np.tile(base, (6, 1)) + rng.normal(0, 0.05, (6, k)), label))
        return refs

    def test_exact_match_wins_with_zero_distance(self):
        refs = self.make_ramps()
        label, distance = classify_1nn(refs[4][0], refs)
        assert label == refs[4][1]
        assert distance == 0.0

    def test_equal_reference_wins_regardless_of_order(self):
        rng = np.random.default_rng(7)
        test = rng.normal(size=(6, 9))
        far = test + 10.0
        for order in ([(far, "far"), (test, "same")], [(test, "same"), (far, "far")]):
            label, distance = classify_1nn(test, order)
            assert label == "same" and distance == 0.0

    def test_tie_breaks_to_earliest_reference(self):
        x = np.ones((6, 4))
        refs = [(x, "first"), (x, "second")]
        label, _ = classify_1nn(x + 0.5, refs)
        assert label == "first"

    def test_matches_exhaustive_oracle_on_toy_set(self):
        refs = self.make_ramps()
        rng = np.random.default_rng(8)
        for slope in (0.6, 1.8, 4.6, 3.0, 0.2):
            k = int(rng.integers(4, 7))
            test = np.tile(slope * np.arange(k), (6, 1))
            small_refs = [(r[:, :6], lab) for r, lab in refs]
            got_label, got_dist = classify_1nn(test, small_refs)
            brute = [(brute_force_dtw(test, r), lab) for r, lab in small_refs]
            best_dist, best_label = min(brute, key=lambda t: t[0])
            assert got_label == best_label
            assert got_dist == best_dist

    def test_empty_references(self):
        with pytest.raises(DomainError):
            classify_1nn(np.ones((6, 3)), [])

import numpy as np
import pytest

from reference import masks_from_supports, rref_masks
from sc_rateless import gf2
from sc_rateless.codec import sample_precode
from sc_rateless.ensemble import EnsembleParams


def random_dense(rng, m, n, density=0.3):
    return (rng.random((m, n)) < density).astype(np.uint8)


def csr(supports):
    """(indptr, indices) of a list of per-row column-index lists."""
    indptr = np.concatenate(([0], np.cumsum([len(cols) for cols in supports], dtype=np.int64)))
    indices = np.array([int(c) for cols in supports for c in cols], dtype=np.int64)
    return indptr, indices


def dense_supports(dense):
    return [list(np.flatnonzero(row)) for row in dense]


def pack_dense(dense):
    return gf2.rows_from_support(*csr(dense_supports(dense)), np.shape(dense)[1])


def assert_rref_matches(got_rows, got_pivots, want_rows, want_pivots):
    """``rref`` returns the rank rows only; the oracle keeps all m rows, and
    those past the rank must be zero."""
    rank = len(want_pivots)
    assert got_pivots == want_pivots
    assert got_rows == want_rows[:rank]
    assert not any(want_rows[rank:])


class TestPacking:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130])
    def test_pack_unpack_roundtrip(self, n):
        # Bit c of each row's int is the dense row's column c.
        rng = np.random.default_rng(n)
        dense = random_dense(rng, 9, n)
        want = [sum(int(b) << c for c, b in enumerate(row)) for row in dense]
        assert pack_dense(dense) == want

    def test_rows_from_support_cancels_duplicates(self):
        rows = gf2.rows_from_support(*csr([[3, 5, 3], [0, 0], [7]]), ncols=10)
        assert rows == [1 << 5, 0, 1 << 7]

    def test_rows_from_support_bounds(self):
        with pytest.raises(ValueError):
            gf2.rows_from_support(*csr([[10]]), ncols=10)

    def test_rows_from_support_error_names_first_bad_row(self):
        cases = (
            ([[1], [], [2, 10], [-1]], 2),
            ([[0], [-3, 1], [11]], 1),
            # Empty rows repeat indptr entries; two later rows are bad too.
            ([[], [], [4], [], [12, 1], [], [13], [-2]], 4),
            ([[], [10]], 1),
        )
        for supports, row in cases:
            with pytest.raises(ValueError, match=f"row {row} "):
                gf2.rows_from_support(*csr(supports), ncols=10)

    def test_rows_from_support_matches_reference_masks(self):
        rng = np.random.default_rng(8)
        for n in (1, 63, 64, 65, 200):
            supports = [list(rng.integers(0, n, rng.integers(0, 8))) for _ in range(15)]
            rows = gf2.rows_from_support(*csr(supports), n)
            assert rows == masks_from_supports(supports)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_rows_from_support_edge_cases_match_reference_masks(self, n):
        # Empty rows, columns on both sides of every word boundary, and
        # duplicates that cancel (an even count) or survive (an odd count);
        # then no rows at all.
        edges = sorted({c for k in range(0, n + 64, 64) for c in (k - 1, k) if 0 <= c < n})
        supports = [[], edges, [], [], edges + edges, edges + edges[:1] + edges, [n - 1] * 3, []]
        rows = gf2.rows_from_support(*csr(supports), n)
        assert rows == masks_from_supports(supports)
        assert not any(rows[i] for i in (0, 2, 3, 4, 7))
        assert gf2.rows_from_support([0], np.zeros(0, dtype=np.int64), n) == []

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_pack_vector_matches_reference_masks(self, n):
        rng = np.random.default_rng(n)
        for bits in (rng.integers(0, 2, n), np.ones(n, dtype=np.uint8), np.zeros(n, dtype=int)):
            assert [gf2.pack_vector(bits)] == masks_from_supports([np.flatnonzero(bits)])


class TestRref:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bitmask_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 90))
        dense = random_dense(rng, m, n)
        got_rows, got_pivots = gf2.rref(pack_dense(dense), n)
        want_rows, want_pivots = rref_masks(masks_from_supports(dense_supports(dense)), n)
        assert_rref_matches(got_rows, got_pivots, want_rows, want_pivots)

    @pytest.mark.parametrize(
        "case", ["ncols_65", "ncols_130", "tall", "zero_rows", "rank_deficient", "no_rows"]
    )
    def test_edge_cases_match_bitmask_reference(self, case):
        rng = np.random.default_rng(len(case))
        m, n = {"ncols_65": (20, 65), "ncols_130": (40, 130), "tall": (30, 10),
                "zero_rows": (12, 70), "rank_deficient": (16, 100), "no_rows": (0, 50)}[case]
        dense = random_dense(rng, m, n, density=0.1)
        if case == "zero_rows":
            dense[[0, 5, 6, 11]] = 0
        if case == "rank_deficient":
            # Rows 8.. are sums of pairs of rows 0..7, so the rank is at most 8.
            dense[8:] = dense[:8] ^ np.roll(dense[:8], 1, axis=0)
        supports = dense_supports(dense)
        got_rows, got_pivots = gf2.rref(gf2.rows_from_support(*csr(supports), n), n)
        want_rows, want_pivots = rref_masks(masks_from_supports(supports), n)
        assert_rref_matches(got_rows, got_pivots, want_rows, want_pivots)
        if case == "rank_deficient":
            assert len(got_pivots) <= 8

    @pytest.mark.parametrize("dl, dr, w", [(2, 3, 2), (2, 3, 3), (3, 6, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_coupled_precode_rows_match_bitmask_reference(self, dl, dr, w, seed):
        # The codec's checks, listed left to right along the chain: the order
        # that ``rref`` inserts last row first.
        params = EnsembleParams(dl=dl, dr=dr, dg=3, L=6, w=w, epsilon=0.0)
        graph = sample_precode(params, 12, seed=seed)
        rows = gf2.rows_from_support(graph.check_indptr, graph.check_indices, graph.num_bits)
        got_rows, got_pivots = gf2.rref(rows, graph.num_bits)
        want_rows, want_pivots = rref_masks(rows, graph.num_bits)
        assert_rref_matches(got_rows, got_pivots, want_rows, want_pivots)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_order_does_not_change_the_result(self, seed):
        # Lowest-bit pivots make the RREF of a row space unique, so any
        # order of the same rows gives the same rows and pivots.
        rng = np.random.default_rng(seed)
        params = EnsembleParams(dl=2, dr=3, dg=3, L=5, w=2 + seed % 2, epsilon=0.0)
        graph = sample_precode(params, 12, seed=seed)
        checks = gf2.rows_from_support(graph.check_indptr, graph.check_indices, graph.num_bits)
        dense = pack_dense(random_dense(rng, 20, 70, density=0.1))
        for rows, n in ((checks, graph.num_bits), (dense, 70)):
            want = gf2.rref(rows, n)
            for order in (range(len(rows) - 1, -1, -1), rng.permutation(len(rows))):
                assert gf2.rref([rows[i] for i in order], n) == want

    def test_input_not_modified(self):
        rng = np.random.default_rng(9)
        rows = pack_dense(random_dense(rng, 12, 90))
        before = list(rows)
        gf2.rref(rows, 90)
        assert rows == before

    @pytest.mark.parametrize("n, bad", [(65, 65), (65, 127), (64, 64), (10, 63)])
    def test_bit_at_or_beyond_ncols_rejected(self, n, bad):
        # Rows 1 and 3 are bad.  ``rref`` inserts rows last row first, but
        # the message names the first bad row in input order.
        rows = gf2.rows_from_support(*csr([[0], [bad], [], [2, bad]]), 128)
        with pytest.raises(ValueError, match="row 1 "):
            gf2.rref(rows, n)

    def test_rank_identity_and_zero(self):
        eye = pack_dense(np.eye(17, dtype=np.uint8))
        assert gf2.rref(eye, 17)[1] == list(range(17))
        zero = pack_dense(np.zeros((4, 9), dtype=np.uint8))
        assert gf2.rref(zero, 9)[1] == []

    def test_rref_preserves_row_space(self):
        rng = np.random.default_rng(42)
        rows = pack_dense(random_dense(rng, 10, 30))
        reduced, pivots = gf2.rref(rows, 30)
        # Same rank both ways round implies equal row spaces here: each
        # original row must reduce to zero against the RREF rows.
        assert len(gf2.rref(reduced + rows, 30)[1]) == len(pivots)


class TestDotRows:
    def test_matches_dense_arithmetic(self):
        rng = np.random.default_rng(3)
        dense = random_dense(rng, 20, 75)
        vector = random_dense(rng, 1, 75)[0]
        got = gf2.dot_rows(pack_dense(dense), gf2.pack_vector(vector))
        want = (dense @ vector) % 2
        np.testing.assert_array_equal(got, want.astype(np.uint8))

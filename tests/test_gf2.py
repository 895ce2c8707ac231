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
    """(rows, lows) of a dense 0/1 matrix."""
    return gf2.rows_from_support(*csr(dense_supports(dense)), np.shape(dense)[1])


def widen(rows, lows):
    """Full-width rows: bit c of each int is column c."""
    return [r << low for r, low in zip(rows, lows, strict=True)]


EDGE_CASES = ["ncols_65", "ncols_130", "tall", "zero_rows", "rank_deficient", "no_rows"]
COUPLED = [(2, 3, 2), (2, 3, 3), (3, 6, 2)]


def dense_case(seed):
    """((rows, lows), ncols, dense) of a random dense matrix of random shape."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 25))
    n = int(rng.integers(1, 90))
    dense = random_dense(rng, m, n)
    return pack_dense(dense), n, dense


def edge_case(case):
    """((rows, lows), ncols, supports) of a sparse matrix shaped for one edge case."""
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
    return gf2.rows_from_support(*csr(supports), n), n, supports


def coupled_case(dl, dr, w, seed):
    """((rows, lows), ncols) of a sampled coupled precode's checks, listed
    left to right along the chain."""
    params = EnsembleParams(dl=dl, dr=dr, dg=3, L=6, w=w, epsilon=0.0)
    graph = sample_precode(params, 12, seed=seed)
    aligned = gf2.rows_from_support(graph.check_indptr, graph.check_indices, graph.num_bits)
    return aligned, graph.num_bits


def assert_echelon_of(got_rows, got_pivots, n, want_rows, want_pivots):
    """``rref`` returns the echelon rank rows, each aligned at its pivot
    (bit 0 set, pivot = low); widened and reduced, they give the oracle's
    RREF, so they span the same row space.  The oracle keeps all m rows, and
    those past the rank must be zero."""
    rank = len(want_pivots)
    assert got_pivots == want_pivots
    assert all(r & 1 for r in got_rows)
    assert rref_masks(widen(got_rows, got_pivots), n) == (want_rows[:rank], want_pivots)
    assert not any(want_rows[rank:])


class TestPacking:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130])
    def test_pack_unpack_roundtrip(self, n):
        # Bit c of each row's int is the dense row's column c.
        rng = np.random.default_rng(n)
        dense = random_dense(rng, 9, n)
        want = [sum(int(b) << c for c, b in enumerate(row)) for row in dense]
        assert widen(*pack_dense(dense)) == want

    def test_rows_from_support_cancels_duplicates(self):
        rows, lows = gf2.rows_from_support(*csr([[3, 5, 3], [0, 0], [7]]), ncols=10)
        assert widen(rows, lows) == [1 << 5, 0, 1 << 7]
        # Row 0's lowest column cancels, so its bit 0 is clear.
        assert (rows, lows) == ([1 << 2, 0, 1], [3, 0, 7])

    def test_rows_from_support_unsorted_and_cancelled_lows(self):
        # The low is the smallest listed column wherever it sits in the
        # row, whether or not it cancels.
        supports = [[9, 2, 5], [4, 1, 7, 1], [6, 3, 3, 8], [], [8, 8],
                    [5, 0, 2, 0, 0], [70, 66, 130, 66, 64]]
        rows, lows = gf2.rows_from_support(*csr(supports), 131)
        assert lows == [2, 1, 3, 0, 8, 0, 64]
        assert widen(rows, lows) == masks_from_supports(supports)
        assert [r & 1 for r in rows] == [1, 0, 0, 0, 0, 1, 1]

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
            rows, lows = gf2.rows_from_support(*csr(supports), n)
            assert widen(rows, lows) == masks_from_supports(supports)
            assert lows == [min(map(int, cols), default=0) for cols in supports]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_rows_from_support_edge_cases_match_reference_masks(self, n):
        # Empty rows, columns on both sides of every word boundary, and
        # duplicates that cancel (an even count) or survive (an odd count);
        # then no rows at all.
        edges = sorted({c for k in range(0, n + 64, 64) for c in (k - 1, k) if 0 <= c < n})
        supports = [[], edges, [], [], edges + edges, edges + edges[:1] + edges, [n - 1] * 3, []]
        rows, lows = gf2.rows_from_support(*csr(supports), n)
        assert widen(rows, lows) == masks_from_supports(supports)
        assert not any(rows[i] for i in (0, 2, 3, 4, 7))
        assert gf2.rows_from_support([0], np.zeros(0, dtype=np.int64), n) == ([], [])

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_pack_vector_matches_reference_masks(self, n):
        rng = np.random.default_rng(n)
        for bits in (rng.integers(0, 2, n), np.ones(n, dtype=np.uint8), np.zeros(n, dtype=int)):
            assert [gf2.pack_vector(bits)] == masks_from_supports([np.flatnonzero(bits)])


class TestRref:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bitmask_reference(self, seed):
        (rows, lows), n, dense = dense_case(seed)
        want = rref_masks(masks_from_supports(dense_supports(dense)), n)
        assert_echelon_of(*gf2.rref(rows, n, lows), n, *want)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases_match_bitmask_reference(self, case):
        (rows, lows), n, supports = edge_case(case)
        got_rows, got_pivots = gf2.rref(rows, n, lows)
        assert_echelon_of(got_rows, got_pivots, n, *rref_masks(masks_from_supports(supports), n))
        if case == "rank_deficient":
            assert len(got_pivots) <= 8

    @pytest.mark.parametrize("dl, dr, w", COUPLED)
    @pytest.mark.parametrize("seed", range(3))
    def test_coupled_precode_rows_match_bitmask_reference(self, dl, dr, w, seed):
        (rows, lows), n = coupled_case(dl, dr, w, seed)
        assert_echelon_of(*gf2.rref(rows, n, lows), n, *rref_masks(widen(rows, lows), n))

    @pytest.mark.parametrize("seed", range(4))
    def test_row_order_does_not_change_the_result(self, seed):
        # The echelon rows depend on the order, but lowest-bit pivots make
        # the RREF of a row space unique: any order of the same rows gives
        # the same pivots and, reduced, the same rows.
        rng = np.random.default_rng(seed)
        params = EnsembleParams(dl=2, dr=3, dg=3, L=5, w=2 + seed % 2, epsilon=0.0)
        graph = sample_precode(params, 12, seed=seed)
        checks = gf2.rows_from_support(graph.check_indptr, graph.check_indices, graph.num_bits)
        dense = pack_dense(random_dense(rng, 20, 70, density=0.1))
        for (rows, lows), n in ((checks, graph.num_bits), (dense, 70)):
            want = rref_masks(widen(*gf2.rref(rows, n, lows)), n)
            for order in (range(len(rows) - 1, -1, -1), rng.permutation(len(rows))):
                echelon, pivots = gf2.rref([rows[i] for i in order], n, [lows[i] for i in order])
                assert pivots == want[1]
                assert rref_masks(widen(echelon, pivots), n) == want

    def test_input_not_modified(self):
        rng = np.random.default_rng(9)
        rows, lows = pack_dense(random_dense(rng, 12, 90))
        before = list(rows), list(lows)
        gf2.rref(rows, 90, lows)
        assert (rows, lows) == before

    @pytest.mark.parametrize("n, bad", [(65, 65), (65, 127), (64, 64), (10, 63)])
    def test_bit_at_or_beyond_ncols_rejected(self, n, bad):
        # Rows 1 and 3 are bad; the message names the first.
        rows, lows = gf2.rows_from_support(*csr([[0], [bad], [], [2, bad]]), 128)
        with pytest.raises(ValueError, match=f"row 1 has a set bit at or beyond column {n}"):
            gf2.rref(rows, n, lows)

    @pytest.mark.parametrize("rows, lows, n, bad", [
        # Low at or beyond ncols: one bit, or bit 0 clear above it.
        ([1, 1, 1], [3, 10, 12], 10, 1),
        ([0b11, 0b10, 1], [0, 64, 200], 64, 1),
        ([1, 0b101, 1], [2, 300, 1], 65, 1),
        # Low inside, top bit at or beyond ncols; earlier rows are fine.
        ([0b11, 1, 0b1001, 1 << 9], [0, 5, 6, 0], 9, 2),
        ([1, 1 << 63, 1], [0, 1, 70], 64, 1),
    ])
    def test_aligned_row_at_or_beyond_ncols_rejected(self, rows, lows, n, bad):
        # The message names the first bad row, whatever its low.
        with pytest.raises(ValueError, match=f"row {bad} has a set bit at or beyond column {n}$"):
            gf2.rref(rows, n, lows)

    def test_zero_row_is_no_bad_row(self):
        # A zero row has no set bit, whatever its low.
        assert gf2.rref([0, 1, 0], 10, [50, 4, 10]) == ([1], [4])

    def test_rank_identity_and_zero(self):
        rows, lows = pack_dense(np.eye(17, dtype=np.uint8))
        assert gf2.rref(rows, 17, lows) == ([1] * 17, list(range(17)))
        rows, lows = pack_dense(np.zeros((4, 9), dtype=np.uint8))
        assert gf2.rref(rows, 9, lows)[1] == []

    def test_rref_preserves_row_space(self):
        rng = np.random.default_rng(42)
        rows, lows = pack_dense(random_dense(rng, 10, 30))
        echelon, pivots = gf2.rref(rows, 30, lows)
        # Same rank both ways round implies equal row spaces here: each
        # original row must reduce to zero against the echelon rows.
        assert len(gf2.rref(echelon + rows, 30, pivots + lows)[1]) == len(pivots)


def random_echelon(rng, n, pivots):
    """Echelon rows in ascending pivot order, each aligned at its pivot:
    row j holds pivot ``pivots[j]`` as bit 0 and random bits above it,
    below column ``n``."""
    rows = []
    for p in pivots:
        above = widen(*pack_dense(random_dense(rng, 1, n, density=0.5)))[0]
        rows.append((((above >> (p + 1)) << (p + 1) | 1 << p) & ((1 << n) - 1)) >> p)
    return rows


def random_band(rng, n, lows, width):
    """Rows aligned at ``lows``, each ``width`` bits wide (cut at column
    ``n``) with both end bits set and random bits between."""
    widths = [min(width, n - low) for low in lows]
    return [gf2.pack_vector(rng.integers(0, 2, w)) | 1 | 1 << (w - 1) for w in widths]


def parities(rows, vector):
    return [(r & vector).bit_count() & 1 for r in rows]


def assert_solves(rows, pivots, n, rng):
    rhs = rng.integers(0, 2, len(pivots), dtype=np.uint8)
    y = gf2.solve_pivots(rows, pivots, rhs)
    assert y.dtype == np.uint8 and y.shape == (len(pivots),)
    solved = gf2.pack_vector(np.isin(np.arange(n), np.asarray(pivots, dtype=int)[y == 1]))
    assert parities(widen(rows, pivots), solved) == rhs.tolist()


# Pivots or lows in clusters with gaps far wider than the rows.
GAPPED = [0, 1, 2, 5, 40, 41, 1000, 1001, 1003, 1010, 2990, 2999]


class TestSolvePivots:
    @pytest.mark.parametrize("shape", ["rank_0", "full_rank", "free_columns", "one_column"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_row_parity_holds(self, shape, seed):
        rng = np.random.default_rng(seed)
        n = {"rank_0": 40, "full_rank": 70, "free_columns": 130, "one_column": 1}[shape]
        if shape == "free_columns":
            pivots = sorted(rng.choice(n, 50, replace=False).tolist())
        else:
            pivots = [] if shape == "rank_0" else list(range(n))
        rows = random_echelon(rng, n, pivots)
        assert all(r & 1 for r in rows)
        assert_solves(rows, pivots, n, rng)

    @pytest.mark.parametrize("width", [1, 3, 8, 64, 65])
    @pytest.mark.parametrize("seed", range(3))
    def test_pivot_gaps_wider_than_the_rows(self, width, seed):
        # The solved bits are cut to the widest row, so a bit that a gap
        # shifts out of reach must be one that no later row reads.
        rng = np.random.default_rng(seed)
        assert_solves(random_band(rng, 3000, GAPPED, width), GAPPED, 3000, rng)

    @pytest.mark.parametrize("gap", [1, 2, 3, 4])
    def test_top_bit_reads_the_pivot_one_width_up(self, gap):
        # Row 0 is 3 bits wide and reads column 2; the solved bit there
        # survives the shift only while the gap stays below the width.
        y = gf2.solve_pivots([0b101, 1], [0, gap], [0, 1])
        assert y.tolist() == [int(gap == 2), 1]

    def test_rank_0(self):
        for rhs in ([], np.zeros(0, dtype=np.uint8)):
            y = gf2.solve_pivots([], [], rhs)
            assert y.dtype == np.uint8 and y.shape == (0,)

    @pytest.mark.parametrize("dl, dr, w", COUPLED)
    @pytest.mark.parametrize("seed", range(3))
    def test_two_stage_solve_zeroes_every_check(self, dl, dr, w, seed):
        # Stage 1 is one parity of the free bits per echelon row; the free
        # bits plus the solved pivot bits then satisfy every original row.
        (rows, lows), n = coupled_case(dl, dr, w, seed)
        echelon, pivots = gf2.rref(rows, n, lows)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, n, dtype=np.uint8)
        x[pivots] = 0
        x[pivots] = gf2.solve_pivots(
            echelon, pivots, gf2.dot_rows(echelon, pivots, gf2.pack_vector(x)))
        assert not any(parities(widen(rows, lows), gf2.pack_vector(x)))

    def test_reads_the_lowest_bit_of_rhs(self):
        rows = [0b011, 0b11]
        assert gf2.solve_pivots(rows, [0, 1], [3, 2]).tolist() == [1, 0]

    def test_lengths_must_agree(self):
        rows = [0b011, 0b11]
        for pivots, rhs in (([0, 1], [1]), ([0], [1, 0]), ([0, 1], [1, 0, 1])):
            with pytest.raises(ValueError):
                gf2.solve_pivots(rows, pivots, rhs)


class TestDotRows:
    def test_matches_dense_arithmetic(self):
        rng = np.random.default_rng(3)
        dense = random_dense(rng, 20, 75)
        vector = random_dense(rng, 1, 75)[0]
        got = gf2.dot_rows(*pack_dense(dense), gf2.pack_vector(vector))
        want = (dense @ vector) % 2
        np.testing.assert_array_equal(got, want.astype(np.uint8))

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("width", [1, 3, 8, 64, 65])
    def test_lows_far_apart(self, order, width):
        # The window is cut again whenever a row falls outside it: ahead of
        # it by more than a gap, or behind it.
        rng = np.random.default_rng(width)
        lows = {"ascending": GAPPED, "descending": GAPPED[::-1],
                "shuffled": rng.permutation(GAPPED).tolist()}[order]
        rows = random_band(rng, 3000, lows, width)
        vector = gf2.pack_vector(rng.integers(0, 2, 3000))
        got = gf2.dot_rows(rows, lows, vector)
        assert got.dtype == np.uint8
        assert got.tolist() == parities(widen(rows, lows), vector)

    def test_rank_0(self):
        got = gf2.dot_rows([], [], gf2.pack_vector(np.ones(10)))
        assert got.dtype == np.uint8 and got.shape == (0,)

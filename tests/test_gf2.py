import numpy as np
import pytest

from reference import masks_from_supports, rref_masks
from sc_rateless import gf2


def random_dense(rng, m, n, density=0.3):
    return (rng.random((m, n)) < density).astype(np.uint8)


def masks_to_dense(masks, ncols):
    out = np.zeros((len(masks), ncols), dtype=np.uint8)
    for r, mask in enumerate(masks):
        for c in range(ncols):
            out[r, c] = (mask >> c) & 1
    return out


def masks_from_packed(packed):
    return [sum(int(word) << (64 * k) for k, word in enumerate(row)) for row in packed]


class TestPacking:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130])
    def test_pack_unpack_roundtrip(self, n):
        rng = np.random.default_rng(n)
        dense = random_dense(rng, 9, n)
        packed = gf2.pack_rows(dense)
        np.testing.assert_array_equal(gf2.unpack_rows(packed, n), dense)

    def test_rows_from_support_cancels_duplicates(self):
        packed = gf2.rows_from_support([[3, 5, 3], [0, 0], [7]], ncols=10)
        dense = gf2.unpack_rows(packed, 10)
        np.testing.assert_array_equal(dense[0], np.eye(10, dtype=np.uint8)[5])
        assert dense[1].sum() == 0
        np.testing.assert_array_equal(dense[2], np.eye(10, dtype=np.uint8)[7])

    def test_rows_from_support_bounds(self):
        with pytest.raises(ValueError):
            gf2.rows_from_support([[10]], ncols=10)

    def test_rows_from_support_error_names_first_bad_row(self):
        for supports, row in (([[1], [], [2, 10], [-1]], 2), ([[0], [-3, 1], [11]], 1)):
            with pytest.raises(ValueError, match=f"row {row} "):
                gf2.rows_from_support(supports, ncols=10)

    def test_rows_from_support_matches_reference_masks(self):
        rng = np.random.default_rng(8)
        for n in (1, 63, 64, 65, 200):
            supports = [list(rng.integers(0, n, rng.integers(0, 8))) for _ in range(15)]
            packed = gf2.rows_from_support(supports, n)
            assert packed.shape == (15, (n + 63) // 64)
            np.testing.assert_array_equal(
                gf2.unpack_rows(packed, n),
                masks_to_dense(masks_from_supports(supports), n),
            )


class TestRref:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bitmask_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 90))
        dense = random_dense(rng, m, n)
        packed = gf2.pack_rows(dense)
        got_rows, got_pivots = gf2.rref(packed, n)
        supports = [list(np.flatnonzero(row)) for row in dense]
        want_rows, want_pivots = rref_masks(masks_from_supports(supports), n)
        assert got_pivots == want_pivots
        np.testing.assert_array_equal(
            gf2.unpack_rows(got_rows, n), masks_to_dense(want_rows, n)
        )

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
        supports = [list(np.flatnonzero(row)) for row in dense]
        packed = gf2.rows_from_support(supports, n)
        got_rows, got_pivots = gf2.rref(packed, n)
        want_rows, want_pivots = rref_masks(masks_from_supports(supports), n)
        assert got_pivots == want_pivots
        assert got_rows.shape == packed.shape and got_rows.dtype == np.uint64
        assert masks_from_packed(got_rows) == want_rows
        if case == "rank_deficient":
            assert len(got_pivots) <= 8
            assert not got_rows[len(got_pivots):].any()

    def test_input_not_modified(self):
        rng = np.random.default_rng(9)
        packed = gf2.pack_rows(random_dense(rng, 12, 90))
        before = packed.copy()
        gf2.rref(packed, 90)
        np.testing.assert_array_equal(packed, before)

    @pytest.mark.parametrize("n, bad", [(65, 65), (65, 127), (64, 64), (10, 63)])
    def test_bit_at_or_beyond_ncols_rejected(self, n, bad):
        dense = np.zeros((3, 128), dtype=np.uint8)
        dense[0, 0] = 1
        dense[1, bad] = 1
        with pytest.raises(ValueError, match="row 1 "):
            gf2.rref(gf2.pack_rows(dense), n)

    def test_rank_identity_and_zero(self):
        eye = gf2.pack_rows(np.eye(17, dtype=np.uint8))
        assert gf2.rank(eye, 17) == 17
        zero = gf2.pack_rows(np.zeros((4, 9), dtype=np.uint8))
        assert gf2.rank(zero, 9) == 0

    def test_rref_preserves_row_space(self):
        rng = np.random.default_rng(42)
        dense = random_dense(rng, 10, 30)
        packed = gf2.pack_rows(dense)
        reduced, pivots = gf2.rref(packed, 30)
        # Same rank both ways round implies equal row spaces here: each
        # original row must reduce to zero against the RREF rows.
        stacked = np.vstack([reduced[: len(pivots)], packed])
        assert gf2.rank(stacked, 30) == len(pivots)


class TestDotRows:
    def test_matches_dense_arithmetic(self):
        rng = np.random.default_rng(3)
        dense = random_dense(rng, 20, 75)
        vector = random_dense(rng, 1, 75)[0]
        got = gf2.dot_rows(gf2.pack_rows(dense), gf2.pack_vector(vector))
        want = (dense @ vector) % 2
        np.testing.assert_array_equal(got, want.astype(np.uint8))

import dataclasses
import hashlib

import numpy as np
import pytest

from reference import (
    channel_stream_loops,
    combined_factors,
    determined_bits,
    double_edge_sockets_loops,
    masks_from_supports,
    parallel_pair_sockets_loops,
    peel_rounds,
    peel_sequential,
    rref_masks,
)
from sc_rateless import (
    ChannelStream,
    ConditioningFailed,
    EnsembleParams,
    InvalidM,
    channel_stream,
    encode,
    gf2,
    peel,
    sample_precode,
)
from sc_rateless import codec
from sc_rateless.codec import _double_edge_sockets, _parallel_pair_sockets


def params(dl=2, dr=3, dg=3, L=4, w=2, eps=0.5):
    return EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w, epsilon=eps)


TOY = params()  # (2,3,3,L=4,w=2)


def check_supports(g):
    """Each check's bit support, sliced from the graph's CSR."""
    return [g.check_indices[a:b] for a, b in zip(g.check_indptr[:-1], g.check_indptr[1:])]


# Toy ensembles for the oracle tests: w in {2, 3}, dl in {2, 3}; each has
# shortened boundary sections, so filler sockets, and conditions cleanly
# at its M.  Tuples are (params, M).
ORACLE_TOYS = [
    (params(), 6),
    (params(L=6, w=3), 6),
    (params(dl=3, dr=6, L=5), 12),
    (params(dl=3, dr=4, L=6, w=3), 8),
]


# dl = 2 toys for the parallel-pair oracle: ORACLE_TOYS' two at dr = 3,
# plus checks of 4 and 6 sockets.
PAIR_TOYS = [(p, M) for p, M in ORACLE_TOYS if p.dl == 2] + [
    (params(dr=4, L=5), 8),
    (params(dr=6, L=5, w=3), 12),
]


def socket_table(sock_bit, num_bits):
    """Each bit's two sockets, lower first, rebuilt from the socket array:
    row b lists the sockets holding bit b (every bit on exactly two)."""
    order = np.argsort(sock_bit, kind="stable")
    return order[np.count_nonzero(sock_bit < 0):].reshape(num_bits, 2)


def raw_sockets(p, M, rng):
    """An unconditioned socket array laid out as the sampler lays it out:
    check section c holds M*dl sockets, dr per check, filled from sections
    c-w+1..c (bits drawn with repetition) or with -1 fillers off the chain."""
    stubs = M * p.dl
    shares = np.full(p.w, stubs // p.w)
    shares[: stubs % p.w] += 1
    sections = []
    for c in range(p.L + p.w - 1):
        arrivals = []
        for j in range(p.w):
            s = c - j
            if 0 <= s < p.L:
                arrivals.append(rng.integers(s * M, (s + 1) * M, size=shares[j]))
            else:
                arrivals.append(np.full(shares[j], -1))
        sections.append(rng.permutation(np.concatenate(arrivals)))
    sock_bit = np.concatenate(sections).astype(np.int64)
    return sock_bit, np.arange(sock_bit.size) // p.dr


def toy_instance(seed, M=6, alpha=0.3, p=TOY, zero=False):
    rng = np.random.default_rng(seed)
    graph = sample_precode(p, M, seed=rng.integers(2 ** 32))
    if zero:
        codeword = np.zeros(graph.num_bits, dtype=np.uint8)
    else:
        info = rng.integers(0, 2, graph.realized_dimension(), dtype=np.uint8)
        codeword = encode(graph, info)
    n = max(1, round((1 + alpha) * graph.design_dimension() / (1 - p.epsilon)))
    stream = channel_stream(graph, codeword, n, p.epsilon, seed=rng.integers(2 ** 32))
    return graph, codeword, stream


# SHA-256 of check_indptr.tobytes() + check_indices.tobytes() for
# sample_precode(params(dl, dr, L=3, w), M, seed), keyed by (dl, dr, M, w,
# seed).  They pin the sampler's RNG stream and socket layout at every width
# 1..5, so shares that split evenly and unevenly, and boundary filler on both
# ends of the chain, all stay byte-identical.
SAMPLER_DIGESTS = {
    (2, 3, 6, 1, 0): "ee02636641edbf348cf6003e33db7c7489e7ce9544d4fd98b42766df56d372cd",
    (2, 3, 6, 1, 1): "6c5d46f63c686838da891594a538fb7fcec47719e1408ba3c9b454919437112b",
    (2, 3, 6, 2, 0): "d8152dfcb0f3bc73e8481857277407288e7e0656e1b3178bf3ac7a896867e917",
    (2, 3, 6, 2, 1): "aad32dc000bc90cfa98b4a55e48a365c6e26ec5d206711301bdf9ec2635fbbbc",
    (2, 3, 6, 3, 0): "b591934432c0cf278a3a1a77dc5e77d1c0ece9d27d56cb6d518f520f94173ee7",
    (2, 3, 6, 3, 1): "866a8c8366e93571ad72dc8f04b4c2f2ffe10819762d0d3dfc56ea6b58f17750",
    (2, 3, 6, 4, 0): "3feb8e9cf4f3e38ab7a95f54f5df7cfeb9193d70656a9b98c3820625b57742b0",
    (2, 3, 6, 4, 1): "97dc9b694b61bec10e9bf8ce5cda10aded712b162a1914865d5fe445440140a9",
    (2, 3, 6, 5, 0): "77322d25c5bb10acd99f632b6fa2c4de072a4be0af80199faaa925351dd458eb",
    (2, 3, 6, 5, 1): "cd2f1516b152dc74a38762ea084b98778d82d24e27db8236c1c5f651f1474294",
    (2, 4, 12, 1, 0): "1783a09bdf9003e15cea5ea85077e060d8ee0a167f1286dfad1bdd9187ef68e2",
    (2, 4, 12, 1, 1): "90c4788fac6840c53b07f2608383068708a02282c9bcb94933a34c0b3adc6de5",
    (2, 4, 12, 2, 0): "7f7754f14592256a819bbd1201b49a6b6c2120d25e14159ba20b417f34f751fc",
    (2, 4, 12, 2, 1): "d638177e9f82afc7acd8d7f89dc10602a614ad8b8c5e73614536d4db90f251db",
    (2, 4, 12, 3, 0): "da8a0807d0756fc30986b54391f5acdf231f8aaf3217205704cafa9cd7c41f66",
    (2, 4, 12, 3, 1): "6cfe76121a81982af708b4fd7549de75574c5a0a2e1e57d06dfcc17408416b7e",
    (2, 4, 12, 4, 0): "6e4ea13605db54845ef68be266c76a159d2442f20ba2406ed72b5282ead47549",
    (2, 4, 12, 4, 1): "1dfc1a19965902e8f060439c9d469a8deffa4717faed9f812adf512ca1c117a3",
    (2, 4, 12, 5, 0): "db6afc2e96ceab71764d3466b8e9154b61654e527e33b01faf91748dda189565",
    (2, 4, 12, 5, 1): "0a1d10ecf3733db1d1a0221a73c1094083c58988a8cccda47fb1e6304e551d7d",
    (3, 6, 12, 1, 0): "9de2af1a8d9353c1d11c8ae87f0d4b750621a0bda0dca9a2160696b8451dedf1",
    (3, 6, 12, 1, 1): "04fe5827bb8447584b8d4c4261957e2e14ae450175ec195ce581a9e86f288458",
    (3, 6, 12, 2, 0): "b5c3585ceecae6e5368d872601e79c337fa18d6de7ecbc2e6c0fc06e82c6c8e0",
    (3, 6, 12, 2, 1): "557bdc933789504a2314b9e0ca2f8153f02656d392f0ae928d9870775a310a23",
    (3, 6, 12, 3, 0): "2421a4952aa9b27741294e7f2dadddb90687e73e2bd07705b5afc9038ac5e8d8",
    (3, 6, 12, 3, 1): "d9aa8187a9e27340858cdad5e445d1393bc0ee88c1d1049e8d17765f6915f1b0",
    (3, 6, 12, 4, 0): "9f36a9d0b8619ea06381b7ec2016a5dc21f5fae70d5b1e65e3874edc563220f9",
    (3, 6, 12, 4, 1): "4a9d203fbd9377d248d7b232e84347e1091f6154381bb672ad209c4706176a8c",
    (3, 6, 12, 5, 0): "8920f71bf3d4fca879090a25b74f5e630e8223af2b5cad0456b355e62cb782ae",
    (3, 6, 12, 5, 1): "070c4ecbe2417035e611ae441c35e3da7aa075a3029fa592a3d649affdab9497",
}

# The same digests for sample_precode(params(L=16), M, seed), keyed by (M,
# seed): the graphs of the mc-peel (M = 2001) and mc-encode (M = 300)
# benchmark workloads, where conditioning runs several rounds of swaps.
LARGE_SAMPLER_DIGESTS = {
    (2001, 0): "7fba405aee6169315e09fb03c3e560bbaef3f8b55d8bc5dbffa6256005d5e6c2",
    (2001, 1): "822c13df4d8f713cbce9785ca93dd8296999094ee75fa4f77b0bee6462338988",
    (2001, 2): "f95f85321374496373ec91caa57128c951b83660d839e16c5ad6b57fbd0c2e4c",
    (300, 0): "3fa34629aa6da2108ab1c02c77d7402509832a7cab295bfad76b503bdc623022",
    (300, 1): "42d06130072e99e369948f58c491c11400d43c577c37fc7e658f9ca58927f3b2",
    (300, 2): "ac21b423c0441bc28dd4168bb2f1603484c87d73159a97562701fc84b9b1af1e",
}


class TestSamplePrecode:
    def test_divisibility_and_size_guards(self):
        with pytest.raises(InvalidM):
            sample_precode(TOY, 7, seed=0)  # 14 % 3 != 0
        with pytest.raises(InvalidM):
            sample_precode(params(dr=4), 2, seed=0)  # divisible but M < dr

    def test_stub_census(self):
        for seed in range(5):
            g = sample_precode(params(L=6, w=2), 12, seed=seed)
            p = g.params
            real_stubs = np.diff(g.check_indptr)
            # every in-chain bit emits exactly dl stubs, all of which land
            assert real_stubs.sum() == p.L * g.M * p.dl
            # Checks are numbered section by section, M*dl/dr to a section.
            cps = g.M * p.dl // p.dr
            assert g.num_checks == (p.L + p.w - 1) * cps
            section = np.arange(g.num_checks) // cps
            interior = (section >= p.w - 1) & (section <= p.L - 1)
            assert np.all(real_stubs[interior] == p.dr)
            assert np.all(real_stubs <= p.dr)

    def test_folded_supports_clean_for_dl2(self):
        # Conditioning removes repeated bits, so no stub is folded away and
        # each bit keeps both its edges.
        g = sample_precode(params(L=8), 30, seed=3)
        p = g.params
        assert np.diff(g.check_indptr).sum() == p.L * g.M * p.dl
        degrees = np.bincount(g.check_indices, minlength=g.num_bits)
        assert np.all(degrees == 2)

    def test_no_parallel_pairs_for_dl2(self):
        g = sample_precode(params(L=8), 30, seed=4)
        pair_keys = set()
        per_bit = [[] for _ in range(g.num_bits)]
        for c, support in enumerate(check_supports(g)):
            for b in support:
                per_bit[b].append(c)
        for checks in per_bit:
            key = tuple(sorted(checks))
            assert key not in pair_keys
            pair_keys.add(key)

    def test_uncoupled_single_section(self):
        g = sample_precode(params(dg=2, L=1, w=1), 9, seed=1)
        assert g.num_checks == 6
        assert np.all(np.diff(g.check_indptr) == 3)

    def test_supports_sorted_within_check(self):
        g = sample_precode(TOY, 12, seed=2)
        for support in check_supports(g):
            assert np.all(np.diff(support) > 0)

    def test_rank_against_bitmask_oracle(self):
        for seed in range(6):
            g = sample_precode(TOY, 6, seed=seed)
            supports = check_supports(g)
            _, pivots = rref_masks(masks_from_supports(supports), g.num_bits)
            assert g.realized_dimension() == g.num_bits - len(pivots)
            assert len(pivots) <= g.num_checks
            assert g.realized_dimension() >= g.design_dimension()

    def test_too_small_M_raises_conditioning_failed(self):
        # At M = 3 most (2,3) toy matchings keep a repeated bit or check pair
        # through every swap round; that must be an error, never a graph
        # with a disconnected bit.
        with pytest.raises(ConditioningFailed, match="swap rounds"):
            sample_precode(TOY, 3, seed=0)
        assert issubclass(ConditioningFailed, InvalidM)
        outcomes = []
        for seed in range(10):
            try:
                g = sample_precode(TOY, 3, seed=seed)
            except ConditioningFailed:
                outcomes.append(False)
                continue
            outcomes.append(True)
            degrees = np.bincount(g.check_indices, minlength=g.num_bits)
            assert np.all(degrees == 2)
        assert True in outcomes and False in outcomes

    def test_double_edge_sockets_match_loop_oracle(self):
        rng = np.random.default_rng(7)
        for p, M in ORACLE_TOYS:
            for _ in range(10):
                sock_bit, sock_check = raw_sockets(p, M, rng)
                got = _double_edge_sockets(sock_bit, p.dr)
                assert got.tolist() == double_edge_sockets_loops(sock_bit, sock_check)
        # A dense alphabet: most checks repeat bits, fillers repeat too.
        for dr in (3, 4, 6):
            sock_bit = rng.integers(-1, 4, size=60 * dr)
            sock_check = np.arange(sock_bit.size) // dr
            got = _double_edge_sockets(sock_bit, dr)
            assert got.size > 0
            assert got.tolist() == double_edge_sockets_loops(sock_bit, sock_check)

    def test_parallel_pair_sockets_match_loop_oracle(self):
        rng = np.random.default_rng(8)
        found = 0
        for p, M in PAIR_TOYS:
            for _ in range(20):
                # Every bit on exactly two sockets, as after sampling.
                sock_bit, sock_check = raw_sockets(p, M, rng)
                real = np.flatnonzero(sock_bit >= 0)
                sock_bit[real] = rng.permutation(
                    np.repeat(np.arange(real.size // 2), 2)
                )
                pairs = socket_table(sock_bit, real.size // 2)
                got = _parallel_pair_sockets(sock_bit, pairs, p.dr)
                want = parallel_pair_sockets_loops(sock_bit, sock_check)
                assert got.tolist() == want
                found += len(want)
        assert found > 0

    @pytest.mark.parametrize("p, M, seeds", [
        (params(L=16), 300, range(4)),
        (params(dr=4, L=6, w=3), 12, range(6)),
        (params(dr=6, L=5, w=3), 12, range(6)),
        (params(dr=4), 4, range(2)),  # cannot be conditioned: every round runs
        (params(dl=3, dr=6, L=5), 12, range(4)),
    ], ids=["dr3-M300", "dr4-w3", "dr6-w3", "dr4-M4-fails", "dl3-dr6"])
    def test_conditioning_keeps_the_table_and_every_scan_exact(self, monkeypatch, p, M, seeds):
        # Every round starts with a repeated-bit scan; there the socket table
        # must equal one rebuilt from the sockets, and each scan that looks
        # only where the last swaps reached must find what a full scan finds.
        tables = []
        condition = codec._condition_matching
        double_edges = codec._double_edge_sockets
        parallel_pairs = codec._parallel_pair_sockets
        checks = {"rounds": 0, "partial": 0}

        def capture_table(sock_bit, pairs, *rest):
            tables.append(pairs)
            return condition(sock_bit, pairs, *rest)

        def checked_double_edges(sock_bit, dr, swapped=None):
            pairs = tables[-1]
            if pairs is not None:
                rebuilt = socket_table(sock_bit, len(pairs))
                np.testing.assert_array_equal(pairs, rebuilt)
            got = double_edges(sock_bit, dr, swapped)
            if swapped is not None:
                assert got.tolist() == double_edges(sock_bit, dr).tolist()
                checks["partial"] += 1
            checks["rounds"] += 1
            return got

        def checked_parallel_pairs(sock_bit, pairs, dr, swapped=None):
            got = parallel_pairs(sock_bit, pairs, dr, swapped)
            if swapped is not None:
                assert got.tolist() == parallel_pairs(sock_bit, pairs, dr).tolist()
                checks["partial"] += 1
            return got

        monkeypatch.setattr(codec, "_condition_matching", capture_table)
        monkeypatch.setattr(codec, "_double_edge_sockets", checked_double_edges)
        monkeypatch.setattr(codec, "_parallel_pair_sockets", checked_parallel_pairs)
        for seed in seeds:
            try:
                sample_precode(p, M, seed)
            except ConditioningFailed:
                pass
        assert checks["partial"] > 0
        assert checks["rounds"] > 2 * len(seeds)

    def test_seed_determinism(self):
        a = sample_precode(TOY, 12, seed=99)
        b = sample_precode(TOY, 12, seed=99)
        np.testing.assert_array_equal(a.check_indices, b.check_indices)
        np.testing.assert_array_equal(a.check_indptr, b.check_indptr)
        c = sample_precode(TOY, 12, seed=100)
        assert not np.array_equal(a.check_indices, c.check_indices)

    @pytest.mark.parametrize("M, seed", list(LARGE_SAMPLER_DIGESTS))
    def test_large_graph_digest_recorded(self, M, seed):
        g = sample_precode(params(L=16), M, seed)
        digest = hashlib.sha256(g.check_indptr.tobytes() + g.check_indices.tobytes())
        assert digest.hexdigest() == LARGE_SAMPLER_DIGESTS[M, seed]

    @pytest.mark.parametrize("dl, dr, M, w, seed", list(SAMPLER_DIGESTS))
    def test_graph_digest_recorded(self, dl, dr, M, w, seed):
        g = sample_precode(params(dl=dl, dr=dr, L=3, w=w), M, seed)
        digest = hashlib.sha256(g.check_indptr.tobytes() + g.check_indices.tobytes())
        assert digest.hexdigest() == SAMPLER_DIGESTS[dl, dr, M, w, seed]

    def test_conditioning_failure_recorded(self):
        with pytest.raises(ConditioningFailed) as info:
            sample_precode(params(dr=4), 4, seed=0)
        assert str(info.value) == (
            "3 sockets still repeat a bit or a check pair after 200 swap rounds; "
            "M = 4 is too small for this ensemble"
        )


# sha256 of encode(g, info) bytes, keyed by (params, M, graph seed, info
# seed); info is drawn with default_rng(info seed).  The first graph has the
# mc-encode workload's size.  They pin the encoder's output byte for byte, so
# a change of row format inside gf2 cannot move a codeword unseen.
ENCODE_DIGESTS = {
    (params(L=16), 300, 7, 1):
        "ebd32db4911ededf965bf99f7c13c891873c57cbbc884ed797851e24ff2407fd",
    (params(dl=3, dr=6, L=6, w=3), 80, 11, 2):
        "9a59e458ce51412a8a2f2cfe6fa1a9f0d58bf44e1508e8a9a36f21fd66587ab7",
}


class TestEncode:
    @pytest.mark.parametrize("p, M, graph_seed, info_seed", list(ENCODE_DIGESTS), ids=str)
    def test_codeword_digest_recorded(self, p, M, graph_seed, info_seed):
        g = sample_precode(p, M, seed=graph_seed)
        info = np.random.default_rng(info_seed).integers(
            0, 2, g.realized_dimension(), dtype=np.uint8)
        codeword = encode(g, info)
        assert codeword.dtype == np.uint8 and codeword.shape == (g.num_bits,)
        digest = hashlib.sha256(codeword.tobytes()).hexdigest()
        assert digest == ENCODE_DIGESTS[p, M, graph_seed, info_seed]

    def test_zero_info_gives_zero_codeword(self):
        g = sample_precode(TOY, 6, seed=0)
        codeword = encode(g, np.zeros(g.realized_dimension(), dtype=np.uint8))
        assert np.all(codeword == 0)

    def test_hundred_random_codewords_satisfy_all_checks(self):
        g = sample_precode(TOY, 6, seed=1)
        rng = np.random.default_rng(5)
        k = g.realized_dimension()
        for _ in range(100):
            codeword = encode(g, rng.integers(0, 2, k, dtype=np.uint8))
            assert g.syndrome_weight(codeword) == 0

    def test_linear(self):
        g = sample_precode(TOY, 6, seed=2)
        rng = np.random.default_rng(6)
        k = g.realized_dimension()
        u, v = rng.integers(0, 2, (2, k), dtype=np.uint8)
        np.testing.assert_array_equal(encode(g, u) ^ encode(g, v), encode(g, u ^ v))

    @pytest.mark.parametrize("p, M", [(params(L=10), 48), (params(L=8, w=3), 60),
                                      (params(dl=3, dr=6, L=6, w=3), 80)], ids=str)
    def test_precode_scale_matches_bitmask_oracle(self, p, M):
        g = sample_precode(p, M, seed=11)
        rows = gf2.rows_from_support(g.check_indptr, g.check_indices, g.num_bits)
        got_rows, got_pivots = gf2.rref(rows, g.num_bits)
        want_rows, want_pivots = rref_masks(masks_from_supports(check_supports(g)), g.num_bits)
        rank = len(want_pivots)
        assert got_pivots == want_pivots
        assert got_rows == want_rows[:rank]
        assert not any(want_rows[rank:])
        free = sorted(set(range(g.num_bits)) - set(want_pivots))
        info = np.random.default_rng(12).integers(0, 2, len(free), dtype=np.uint8)
        codeword = encode(g, info)
        assert g.syndrome_weight(codeword) == 0
        np.testing.assert_array_equal(codeword[free], info)

    def test_wrong_length_rejected(self):
        g = sample_precode(TOY, 6, seed=3)
        with pytest.raises(ValueError):
            encode(g, np.zeros(g.realized_dimension() + 1, dtype=np.uint8))

    @pytest.mark.parametrize("length", [23, 25, 31])
    @pytest.mark.parametrize("fill", [0, 1])
    def test_syndrome_weight_rejects_wrong_length(self, length, fill):
        # A 31-entry vector on the 24-bit graph used to count 0 (all zeros)
        # or 16 (all ones) violated checks.
        g = sample_precode(TOY, 6, seed=3)
        assert g.num_bits == 24
        with pytest.raises(ValueError, match="bits must have length 24"):
            g.syndrome_weight(np.full(length, fill, dtype=np.uint8))


def stream_and_oracle(g, codeword, n, eps, seed):
    """``channel_stream`` and its loop oracle on the same inputs; asserts
    that the stream's arrays equal the oracle's exactly."""
    p = g.params
    stream = channel_stream(g, codeword, n, eps, seed=seed)
    oracle = channel_stream_loops(codeword, p.L, p.w, g.M, p.dg, n, eps, seed)
    sections, _, _, bit_ids, values, erased = oracle
    assert stream.sections.tolist() == sections
    assert stream.bit_ids.tolist() == bit_ids
    assert stream.values.tolist() == values
    assert stream.erased.tolist() == erased
    return stream, oracle


class TestChannelStream:
    def test_values_recompute_without_erasures(self):
        g, codeword, _ = toy_instance(0, M=12)
        stream, _ = stream_and_oracle(g, codeword, 400, 0.0, seed=17)
        assert not stream.erased.any()
        assert np.any(stream.values == 1) and np.any(stream.values == 0)

    @pytest.mark.parametrize("dg", [1, 2, 5, 8])
    def test_matches_oracle_at_other_channel_degrees(self, dg):
        # Each value is the XOR of dg references: none at dg = 1, and even
        # and odd widths besides TOY's dg = 3.
        g, codeword, _ = toy_instance(5, M=12, p=params(dg=dg))
        stream, _ = stream_and_oracle(g, codeword, 3000, 0.2, seed=29)
        assert np.any(stream.values == 1) and np.any(stream.values == 0)
        assert np.any(stream.bit_ids < 0)

    def test_erasure_rate_matches_epsilon(self):
        g, codeword, _ = toy_instance(1, M=12)
        n = 100_000
        eps = 0.37
        stream = channel_stream(g, codeword, n, eps, seed=23)
        frac = stream.erased.mean()
        assert abs(frac - eps) <= 3 * np.sqrt(eps * (1 - eps) / n)

    def test_sections_cover_full_range(self):
        g, codeword, _ = toy_instance(2, M=12)
        stream, (_, shifts, bit_indices, _, _, _) = stream_and_oracle(
            g, codeword, 20_000, 0.5, seed=3
        )
        p = g.params
        assert stream.sections.min() == 0
        assert stream.sections.max() == p.L + p.w - 2
        shifts, bit_indices = np.array(shifts), np.array(bit_indices)
        assert np.all((shifts >= 0) & (shifts < p.w))
        assert np.all((bit_indices >= 0) & (bit_indices < g.M))

    def test_shortened_references_marked(self):
        g, codeword, _ = toy_instance(3, M=12)
        stream, (_, shifts, _, _, _, _) = stream_and_oracle(
            g, codeword, 5000, 0.5, seed=4
        )
        ref_sections = stream.sections[:, None] - np.array(shifts)
        in_chain = (ref_sections >= 0) & (ref_sections < g.params.L)
        np.testing.assert_array_equal(stream.bit_ids < 0, ~in_chain)
        assert np.any(~in_chain)

    def test_rejects_bad_inputs(self):
        g, codeword, _ = toy_instance(4, M=12)
        with pytest.raises(ValueError):
            channel_stream(g, codeword, 0, 0.5, seed=0)
        with pytest.raises(ValueError):
            channel_stream(g, codeword[:-1], 10, 0.5, seed=0)

    @pytest.mark.parametrize("eps", [np.nan, 1.0, 1.5, -0.5, -np.inf])
    def test_rejects_epsilon_outside_unit_interval(self, eps):
        g, codeword, _ = toy_instance(4, M=12)
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
            channel_stream(g, codeword, 20, eps, seed=0)


def hand_stream(bit_ids, values, erased=None):
    """A ChannelStream of hand-picked references; ``peel`` reads no
    sections, so they are all 0."""
    bit_ids = np.array(bit_ids, dtype=np.int64)
    n = len(bit_ids)
    return ChannelStream(
        sections=np.zeros(n, dtype=np.int64),
        bit_ids=bit_ids,
        values=np.array(values, dtype=np.uint8),
        erased=np.zeros(n, dtype=bool) if erased is None else np.array(erased),
    )


def assert_matches_oracle(g, stream):
    """``peel`` and the level-synchronous oracle give the same round count
    and the same assignment; returns the result."""
    result = peel(g, stream)
    assignment, rounds = peel_rounds(g.num_bits, combined_factors(g, stream))
    assert result.peeling_rounds == rounds
    assert result.assignment.tolist() == assignment
    return result


class TestPeel:
    def test_single_channel_node_with_shortened_partner(self):
        # A received symbol referencing one in-chain bit and one shortened
        # bit is a degree-1 constraint and must resolve the bit immediately.
        g, codeword, _ = toy_instance(5, M=6)
        p = g.params
        section = p.L + p.w - 2  # rightmost channel section
        target = (p.L - 1) * g.M + 2
        stream = ChannelStream(
            sections=np.array([section]),
            bit_ids=np.array([[target, -1, -1]]),
            values=np.array([codeword[target]], dtype=np.uint8),
            erased=np.array([False]),
        )
        result = peel(g, stream)
        assert result.assignment[target] == codeword[target]

    def test_resolved_bits_match_codeword(self):
        for seed in range(10):
            g, codeword, stream = toy_instance(seed, M=12, alpha=0.4)
            result = peel(g, stream)
            resolved = result.assignment >= 0
            np.testing.assert_array_equal(
                result.assignment[resolved], codeword[resolved]
            )

    def test_erased_nodes_contribute_nothing(self):
        g, codeword, stream = toy_instance(11, M=12, alpha=0.4)
        all_erased = type(stream)(
            sections=stream.sections,
            bit_ids=stream.bit_ids,
            values=stream.values,
            erased=np.ones_like(stream.erased),
        )
        result = peel(g, all_erased)
        # only the precode (seeded by shortening) can act, and over a fully
        # erased channel it cannot finish
        assert result.residual_bit_erasure > 0.5

    def test_matches_sequential_schedules(self):
        # Confluence: the fixpoint is schedule-independent, so the vectorized
        # round-based peeler, a FIFO peeler, and a random-order peeler must
        # resolve exactly the same set to the same values.
        import random as pyrandom

        for seed in range(100):
            g, codeword, stream = toy_instance(seed, M=6, alpha=0.2)
            result = peel(g, stream)
            got = {
                int(b): int(v)
                for b, v in enumerate(result.assignment)
                if v >= 0
            }
            factors = combined_factors(g, stream)
            fifo = peel_sequential(g.num_bits, factors, order="fifo")
            rand = peel_sequential(
                g.num_bits, factors, order="random", rng=pyrandom.Random(seed)
            )
            assert got == fifo
            assert got == rand

    def test_peeled_subset_of_gf2_determined(self):
        # Peeling never beats linear algebra; when it stalls every remaining
        # usable factor has at least two unknowns.
        equality_seen = False
        for seed in range(40):
            g, codeword, stream = toy_instance(seed, M=6, alpha=0.25)
            result = peel(g, stream)
            factors = combined_factors(g, stream)
            oracle = determined_bits(
                [f for f, _ in factors], [v for _, v in factors], g.num_bits
            )
            peeled = {
                int(b): int(v)
                for b, v in enumerate(result.assignment)
                if v >= 0
            }
            assert set(peeled) <= set(oracle)
            for b, v in peeled.items():
                assert oracle[b] == v
            if set(peeled) == set(oracle):
                equality_seen = True
            known = set(peeled)
            for support, _ in factors:
                folded = set()
                for c in support:
                    folded.symmetric_difference_update({int(c)})
                unknowns = folded - known
                assert len(unknowns) != 1, "peeling stopped with a usable factor"
        assert equality_seen

    def test_rounds_and_assignment_match_level_synchronous_oracle(self):
        # Same fixpoint, same round count and, where factors disagree (the
        # random-value streams are not codewords), the same winner: the
        # lowest-numbered factor of the round.
        for p, M in ORACLE_TOYS:
            for seed in range(8):
                g, _, stream = toy_instance(seed, M=M, alpha=0.3, p=p)
                if seed % 2:
                    rng = np.random.default_rng(seed)
                    stream = ChannelStream(
                        sections=stream.sections,
                        bit_ids=stream.bit_ids,
                        values=rng.integers(0, 2, len(stream)).astype(np.uint8),
                        erased=stream.erased,
                    )
                result = peel(g, stream)
                assignment, rounds = peel_rounds(g.num_bits, combined_factors(g, stream))
                assert result.peeling_rounds == rounds
                assert result.assignment.tolist() == assignment

    @pytest.mark.parametrize("dg", [1, 2, 4])
    def test_oracle_at_other_channel_degrees(self, dg):
        # The fold of repeated references at the channel degrees the dg = 3
        # toys above do not reach; odd seeds draw random values, so factors
        # disagree and the lowest-numbered one must win.
        repeats = 0
        for p, M in ORACLE_TOYS:
            p = dataclasses.replace(p, dg=dg)
            for seed in range(8):
                g, _, stream = toy_instance(seed, M=M, alpha=0.3, p=p)
                if seed % 2:
                    rng = np.random.default_rng(seed)
                    stream = dataclasses.replace(
                        stream, values=rng.integers(0, 2, len(stream)).astype(np.uint8)
                    )
                assert_matches_oracle(g, stream)
                # Shortened references get distinct negative ids, so only
                # repeated in-chain references count.
                rows = np.sort(np.where(stream.bit_ids < 0, -1 - np.arange(dg), stream.bit_ids))
                repeats += int((rows[:, 1:] == rows[:, :-1]).any(axis=1).sum())
        assert (repeats > 0) == (dg > 1)

    def test_repeated_references_fold_mod_2(self):
        g = sample_precode(TOY, 6, seed=3)
        base = peel(g, hand_stream([[-1, -1, -1]], [0]))
        b, c = np.flatnonzero(base.assignment < 0)[[0, -1]]
        for value in (0, 1):
            # Twice: the references cancel and the node constrains nothing.
            twice = assert_matches_oracle(g, hand_stream([[b, b, -1]], [value]))
            assert twice.assignment.tolist() == base.assignment.tolist()
            assert twice.peeling_rounds == base.peeling_rounds
            # Three times: one reference stays, and resolves its bit.
            thrice = assert_matches_oracle(g, hand_stream([[b, b, b]], [value]))
            once = peel(g, hand_stream([[b, -1, -1]], [value]))
            assert thrice.assignment[b] == value
            assert thrice.assignment.tolist() == once.assignment.tolist()
            # Twice around another bit: only the other bit is constrained.
            split = assert_matches_oracle(g, hand_stream([[b, c, b]], [value]))
            other = peel(g, hand_stream([[c, -1, -1]], [value]))
            assert split.assignment[c] == value
            assert split.assignment.tolist() == other.assignment.tolist()

    def test_lowest_factor_wins_a_contested_bit(self):
        # Two factors resolve one bit to different values in the same round:
        # the lower factor id wins.  Checks come before channel nodes, and
        # channel nodes keep stream order; an erased node in between does
        # not count.
        g = sample_precode(TOY, 6, seed=3)
        base = peel(g, hand_stream([[-1, -1, -1]], [0]))
        b = int(np.flatnonzero(base.assignment < 0)[0])
        for first in (0, 1):
            stream = hand_stream(
                [[b, -1, -1], [b, b, b], [-1, b, -1]], [first, 1, 1 - first],
                erased=[False, True, False],
            )
            result = assert_matches_oracle(g, stream)
            assert result.assignment[b] == first
        # A check with one in-chain bit resolves it to 0 in round 1; so does
        # every copy of a node that claims 1 for that bit.
        sizes = np.diff(g.check_indptr)
        q = int(np.flatnonzero(sizes == 1)[0])
        x = int(g.check_indices[g.check_indptr[q]])
        contested = assert_matches_oracle(g, hand_stream([[x, -1, -1]] * 3, [1, 1, 1]))
        assert contested.assignment[x] == 0

    def test_rejects_stream_that_does_not_fit_graph(self):
        # A stream drawn for an L = 4, M = 12 graph used to decode on the
        # M = 6 graph (residual 0.0 after 3 rounds), and a bit id of -5
        # passed as a shortened reference.
        big = sample_precode(TOY, 12, seed=0)
        small = sample_precode(TOY, 6, seed=0)
        stream = channel_stream(big, np.zeros(big.num_bits, dtype=np.uint8), 60, 0.5, seed=1)
        assert stream.bit_ids.max() >= small.num_bits
        peel(big, stream)
        with pytest.raises(ValueError, match=r"outside \[-1, 24\)"):
            peel(small, stream)
        negative = stream.bit_ids.copy()
        negative[0, 0] = -5
        with pytest.raises(ValueError, match="outside"):
            peel(big, dataclasses.replace(stream, bit_ids=negative))
        for field, value in [
            ("values", stream.values[:-1]),
            ("erased", stream.erased[:-1]),
            ("bit_ids", stream.bit_ids[:-1]),
            ("bit_ids", stream.bit_ids[:, 0]),
        ]:
            with pytest.raises(ValueError, match="stream arrays disagree"):
                peel(big, dataclasses.replace(stream, **{field: value}))

    def test_determinism(self):
        g, codeword, stream = toy_instance(21, M=12, alpha=0.4)
        a = peel(g, stream)
        b = peel(g, stream)
        assert a.peeling_rounds == b.peeling_rounds
        assert a.residual_bit_erasure == b.residual_bit_erasure
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestFactorGraphLines:
    def test_reproducible_for_same_seed(self):
        # The graph's whole description is its check CSR: two draws with the
        # same seed give the same arrays and so the same encoder.
        a = sample_precode(TOY, 6, seed=5)
        b = sample_precode(TOY, 6, seed=5)
        np.testing.assert_array_equal(a.check_indptr, b.check_indptr)
        np.testing.assert_array_equal(a.check_indices, b.check_indices)
        info = np.ones(a.realized_dimension(), dtype=np.uint8)
        np.testing.assert_array_equal(encode(a, info), encode(b, info))

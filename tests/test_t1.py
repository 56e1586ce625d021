"""Tier-1 bit-plane coder: round-trips, truncation, pass structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebcot import decode_codeblock, encode_codeblock
from repro.ebcot.tables import (
    neighbor_counts,
    refinement_context,
    sign_context_and_xor,
    zero_coding_context,
)


def _random_block(rng, h, w, scale):
    return np.round(rng.laplace(0, scale, size=(h, w))).astype(np.int64)


class TestTables:
    def test_neighbor_counts_center(self):
        sig = np.zeros((3, 3), dtype=bool)
        sig[0, 1] = sig[1, 0] = sig[2, 2] = True
        h, v, d = neighbor_counts(sig)
        assert h[1, 1] == 1 and v[1, 1] == 1 and d[1, 1] == 1

    def test_neighbor_counts_border_is_zero_padded(self):
        sig = np.ones((2, 2), dtype=bool)
        h, v, d = neighbor_counts(sig)
        assert h[0, 0] == 1 and v[0, 0] == 1 and d[0, 0] == 1

    @pytest.mark.parametrize("orient", ["LL", "LH", "HL", "HH"])
    def test_zc_context_range(self, orient):
        rng = np.random.default_rng(0)
        sig = rng.random((16, 16)) < 0.4
        ctx = zero_coding_context(sig, orient)
        assert ctx.min() >= 0 and ctx.max() <= 8

    def test_zc_isolated_sample_is_context0(self):
        sig = np.zeros((5, 5), dtype=bool)
        for orient in ("LL", "LH", "HL", "HH"):
            assert zero_coding_context(sig, orient)[2, 2] == 0

    def test_zc_hl_is_transpose_of_lh(self):
        rng = np.random.default_rng(1)
        sig = rng.random((12, 12)) < 0.3
        lh = zero_coding_context(sig, "LH")
        hl = zero_coding_context(sig.T, "HL").T
        assert np.array_equal(lh, hl)

    def test_zc_unknown_orient_rejected(self):
        with pytest.raises(ValueError):
            zero_coding_context(np.zeros((2, 2), dtype=bool), "XX")

    def test_sign_context_range_and_symmetry(self):
        rng = np.random.default_rng(2)
        sig = rng.random((10, 10)) < 0.5
        signs = np.where(rng.random((10, 10)) < 0.5, -1, 1)
        ctx, xor = sign_context_and_xor(sig, signs)
        assert ctx.min() >= 9 and ctx.max() <= 13
        assert set(np.unique(xor)) <= {0, 1}
        # Global sign flip keeps contexts, flips the xor where neighbors exist.
        ctx2, xor2 = sign_context_and_xor(sig, -signs)
        assert np.array_equal(ctx, ctx2)

    def test_refinement_contexts(self):
        sig = np.zeros((4, 4), dtype=bool)
        refined = np.zeros((4, 4), dtype=bool)
        ctx = refinement_context(sig, refined)
        assert np.all(ctx == 14)  # first refinement, no neighbors
        sig[1, 1] = True
        ctx = refinement_context(sig, refined)
        assert ctx[1, 2] == 15  # neighbor significant
        refined[:] = True
        assert np.all(refinement_context(sig, refined) == 16)


def _brute_counts(sig, r, c):
    """(H, V, D) significant-neighbor counts of one sample, outside = 0."""
    rows, cols = sig.shape

    def at(y, x):
        return int(0 <= y < rows and 0 <= x < cols and bool(sig[y, x]))

    h = at(r, c - 1) + at(r, c + 1)
    v = at(r - 1, c) + at(r + 1, c)
    d = at(r - 1, c - 1) + at(r - 1, c + 1) + at(r + 1, c - 1) + at(r + 1, c + 1)
    return h, v, d


def _brute_zc(h, v, d, orient):
    """T.800 Table D.1, written out case by case."""
    if orient == "HL":
        h, v = v, h
    if orient in ("LL", "LH", "HL"):
        if h == 2:
            return 8
        if h == 1:
            return 7 if v >= 1 else (6 if d >= 1 else 5)
        if v == 2:
            return 4
        if v == 1:
            return 3
        return 2 if d >= 2 else d
    hv = h + v
    if d >= 3:
        return 8
    if d == 2:
        return 7 if hv >= 1 else 6
    if d == 1:
        return 5 if hv >= 2 else (4 if hv == 1 else 3)
    return 2 if hv >= 2 else hv


def _brute_sign(sig, signs, r, c):
    """T.800 Table D.3: (context, XOR bit) from neighbor sign contributions."""
    rows, cols = sig.shape

    def chi(y, x):
        if 0 <= y < rows and 0 <= x < cols and sig[y, x]:
            return -1 if signs[y, x] < 0 else 1
        return 0

    h = max(-1, min(1, chi(r, c - 1) + chi(r, c + 1)))
    v = max(-1, min(1, chi(r - 1, c) + chi(r + 1, c)))
    table = {
        (1, 1): (13, 0), (1, 0): (12, 0), (1, -1): (11, 0),
        (0, 1): (10, 0), (0, 0): (9, 0), (0, -1): (10, 1),
        (-1, 1): (11, 1), (-1, 0): (12, 1), (-1, -1): (13, 1),
    }
    return table[(h, v)]


class TestTablesAgainstBruteForce:
    @given(st.data())
    @settings(max_examples=40)
    def test_counts_zc_and_sign_match_per_sample_tables(self, data):
        h = data.draw(st.integers(1, 9))
        w = data.draw(st.integers(1, 9))
        seed = data.draw(st.integers(0, 2**31))
        density = data.draw(st.floats(0.0, 1.0))
        rng = np.random.default_rng(seed)
        sig = rng.random((h, w)) < density
        signs = np.where(rng.random((h, w)) < 0.5, -1, 1)
        counts = neighbor_counts(sig)
        zc = {o: zero_coding_context(sig, o) for o in ("LL", "LH", "HL", "HH")}
        ctx, xor = sign_context_and_xor(sig, signs)
        for r in range(h):
            for c in range(w):
                hvd = _brute_counts(sig, r, c)
                assert tuple(int(a[r, c]) for a in counts) == hvd
                for orient, table in zc.items():
                    assert table[r, c] == _brute_zc(*hvd, orient)
                assert (ctx[r, c], xor[r, c]) == _brute_sign(sig, signs, r, c)


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=20)
    def test_random_blocks(self, data):
        h = data.draw(st.integers(1, 24))
        w = data.draw(st.integers(1, 24))
        scale = data.draw(st.floats(0.2, 80.0))
        orient = data.draw(st.sampled_from(["LL", "LH", "HL", "HH"]))
        seed = data.draw(st.integers(0, 2**31))
        coeffs = _random_block(np.random.default_rng(seed), h, w, scale)
        eb = encode_codeblock(coeffs, orient)
        vals, last_plane = decode_codeblock(eb.data, eb.shape, orient, eb.n_planes)
        assert np.array_equal(vals, coeffs)
        if eb.n_planes:
            assert last_plane == 0

    def test_zero_block(self):
        eb = encode_codeblock(np.zeros((8, 8), dtype=np.int64), "HH")
        assert eb.n_planes == 0
        assert eb.data == b""
        vals, _ = decode_codeblock(eb.data, (8, 8), "HH", 0)
        assert np.all(vals == 0)

    def test_single_sample_block(self):
        coeffs = np.array([[-37]], dtype=np.int64)
        eb = encode_codeblock(coeffs, "LL")
        vals, _ = decode_codeblock(eb.data, (1, 1), "LL", eb.n_planes)
        assert vals[0, 0] == -37

    def test_non_multiple_of_stripe_height(self):
        rng = np.random.default_rng(9)
        coeffs = _random_block(rng, 13, 7, 20)
        eb = encode_codeblock(coeffs, "HL")
        vals, _ = decode_codeblock(eb.data, (13, 7), "HL", eb.n_planes)
        assert np.array_equal(vals, coeffs)

    def test_extreme_magnitudes(self):
        coeffs = np.array([[1 << 20, -(1 << 20)], [0, 1]], dtype=np.int64)
        eb = encode_codeblock(coeffs, "LL")
        vals, _ = decode_codeblock(eb.data, (2, 2), "LL", eb.n_planes)
        assert np.array_equal(vals, coeffs)

    def test_float_input_rejected(self):
        with pytest.raises(TypeError):
            encode_codeblock(np.zeros((4, 4)), "LL")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            encode_codeblock(np.zeros(16, dtype=np.int64), "LL")


class TestPassStructure:
    def test_first_plane_is_cleanup_only(self):
        rng = np.random.default_rng(3)
        eb = encode_codeblock(_random_block(rng, 16, 16, 30), "LH")
        assert eb.passes[0].pass_type == "clean"
        assert eb.passes[0].plane == eb.n_planes - 1
        # Later planes come in sig/ref/clean triples.
        types = [p.pass_type for p in eb.passes[1:]]
        for i in range(0, len(types) - 2, 3):
            assert types[i : i + 3] == ["sig", "ref", "clean"]

    def test_rates_monotone(self):
        rng = np.random.default_rng(4)
        eb = encode_codeblock(_random_block(rng, 16, 16, 30), "HH")
        rates = [p.rate_bytes for p in eb.passes]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] <= len(eb.data)

    def test_distortion_reductions(self):
        rng = np.random.default_rng(5)
        eb = encode_codeblock(_random_block(rng, 16, 16, 30), "HL")
        # Significance passes always reduce distortion; refinement may
        # increase it for coefficients sitting at the previous midpoint,
        # but the block total must be a clear win.
        for p in eb.passes:
            if p.pass_type in ("sig", "clean"):
                assert p.dist_reduction >= 0
        assert sum(p.dist_reduction for p in eb.passes) > 0

    def test_total_decisions_positive(self):
        rng = np.random.default_rng(6)
        eb = encode_codeblock(_random_block(rng, 16, 16, 30), "LL")
        assert eb.total_decisions() >= 256  # at least one decision/sample


class TestTruncation:
    def test_distortion_monotone_in_passes(self):
        rng = np.random.default_rng(7)
        coeffs = _random_block(rng, 24, 24, 40)
        eb = encode_codeblock(coeffs, "HL")
        prev = float(np.sum(coeffs.astype(float) ** 2))
        for k in range(1, eb.n_passes + 1):
            n_bytes = eb.passes[k - 1].rate_bytes
            vals, lp = decode_codeblock(
                eb.data[:n_bytes], eb.shape, "HL", eb.n_planes, k
            )
            err = float(np.sum((coeffs - vals) ** 2))
            assert err <= prev + 1e-9
            prev = err
        assert prev == 0.0

    def test_zero_passes_gives_zeros(self):
        rng = np.random.default_rng(8)
        coeffs = _random_block(rng, 8, 8, 20)
        eb = encode_codeblock(coeffs, "LL")
        vals, _ = decode_codeblock(b"", eb.shape, "LL", eb.n_planes, 0)
        assert np.all(vals == 0)

    def test_truncated_bytes_sufficient(self):
        """rate_bytes at each pass is enough data to decode that pass."""
        rng = np.random.default_rng(10)
        coeffs = _random_block(rng, 16, 16, 25)
        eb = encode_codeblock(coeffs, "HH")
        mid = eb.n_passes // 2
        if mid:
            n_bytes = eb.passes[mid - 1].rate_bytes
            full_vals, _ = decode_codeblock(eb.data, eb.shape, "HH", eb.n_planes, mid)
            trunc_vals, _ = decode_codeblock(
                eb.data[:n_bytes], eb.shape, "HH", eb.n_planes, mid
            )
            assert np.array_equal(full_vals, trunc_vals)

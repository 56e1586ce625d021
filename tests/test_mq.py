"""MQ arithmetic coder: exact round-trips and coding efficiency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebcot.mq import MQDecoder, MQEncoder, N_STATES


def _roundtrip(decisions, contexts, n_ctx):
    enc = MQEncoder(n_ctx)
    for d, c in zip(decisions, contexts):
        enc.encode(d, c)
    enc.flush()
    dec = MQDecoder(enc.get_bytes(), n_ctx)
    return [dec.decode(c) for c in contexts]


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=60)
    def test_arbitrary_sequences(self, data):
        n_ctx = data.draw(st.integers(1, 19))
        n = data.draw(st.integers(1, 400))
        decisions = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        contexts = data.draw(
            st.lists(st.integers(0, n_ctx - 1), min_size=n, max_size=n)
        )
        assert _roundtrip(decisions, contexts, n_ctx) == decisions

    @pytest.mark.parametrize("bias", [0.0, 1.0, 0.01, 0.99])
    def test_extreme_bias(self, bias):
        rng = np.random.default_rng(1)
        decisions = (rng.random(2000) < bias).astype(int).tolist()
        contexts = [0] * 2000
        assert _roundtrip(decisions, contexts, 1) == decisions

    def test_single_decision(self):
        for d in (0, 1):
            assert _roundtrip([d], [0], 1) == [d]

    def test_long_stream(self):
        rng = np.random.default_rng(2)
        decisions = (rng.random(20000) < 0.3).astype(int).tolist()
        contexts = rng.integers(0, 19, size=20000).tolist()
        assert _roundtrip(decisions, contexts, 19) == decisions


class TestEncodeMany:
    @given(st.data())
    @settings(max_examples=40)
    def test_chunking_does_not_change_bytes_or_tell(self, data):
        n_ctx = data.draw(st.integers(1, 19))
        n = data.draw(st.integers(0, 600))
        decisions = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        contexts = data.draw(
            st.lists(st.integers(0, n_ctx - 1), min_size=n, max_size=n)
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)))
        whole = MQEncoder(n_ctx)
        whole.encode_many(decisions, contexts)
        tells_one = {}
        for cut in sorted(set(cuts) | {n}):
            one = MQEncoder(n_ctx)
            one.encode_many(decisions[:cut], contexts[:cut])
            tells_one[cut] = one.tell_bytes()
        split = MQEncoder(n_ctx)
        prev = 0
        for cut in cuts + [n]:
            split.encode_many(decisions[prev:cut], contexts[prev:cut])
            assert split.tell_bytes() == tells_one[cut]
            prev = cut
        assert split.tell_bytes() == whole.tell_bytes()
        whole.flush()
        split.flush()
        assert split.get_bytes() == whole.get_bytes()
        dec = MQDecoder(split.get_bytes(), n_ctx)
        assert [dec.decode(c) for c in contexts] == decisions

    def test_encode_is_a_one_decision_chunk(self):
        rng = np.random.default_rng(7)
        decisions = (rng.random(500) < 0.3).astype(int).tolist()
        contexts = rng.integers(0, 5, size=500).tolist()
        single = MQEncoder(5)
        for d, c in zip(decisions, contexts):
            single.encode(d, c)
        many = MQEncoder(5)
        many.encode_many(decisions, contexts)
        single.flush()
        many.flush()
        assert single.get_bytes() == many.get_bytes()

    def test_encode_many_after_flush_rejected(self):
        enc = MQEncoder(1)
        enc.encode_many([0, 1], [0, 0])
        enc.flush()
        with pytest.raises(RuntimeError):
            enc.encode_many([1], [0])
        with pytest.raises(RuntimeError):
            enc.encode_many([], [])


class TestEfficiency:
    @pytest.mark.parametrize(
        "bias,entropy",
        [(0.5, 1.0), (0.1, 0.469), (0.02, 0.141)],
    )
    def test_near_entropy(self, bias, entropy):
        rng = np.random.default_rng(3)
        n = 30000
        decisions = (rng.random(n) < bias).astype(int)
        enc = MQEncoder(1)
        for d in decisions:
            enc.encode(int(d), 0)
        enc.flush()
        bits_per_decision = 8 * len(enc.get_bytes()) / n
        assert bits_per_decision < entropy * 1.15 + 0.02

    def test_adaptation(self):
        """States move away from the start state under biased input."""
        enc = MQEncoder(1)
        for _ in range(100):
            enc.encode(0, 0)
        assert enc.context_states[0] != 0


class TestRobustness:
    def test_truncated_stream_decodes_without_error(self):
        rng = np.random.default_rng(4)
        decisions = (rng.random(500) < 0.4).astype(int).tolist()
        enc = MQEncoder(2)
        for i, d in enumerate(decisions):
            enc.encode(d, i % 2)
        enc.flush()
        data = enc.get_bytes()[: max(1, len(enc.get_bytes()) // 3)]
        dec = MQDecoder(data, 2)
        out = [dec.decode(i % 2) for i in range(500)]  # must not raise
        assert len(out) == 500
        # The prefix decodes correctly for a sizable head of the stream.
        n_ok = 0
        for a, b in zip(decisions, out):
            if a != b:
                break
            n_ok += 1
        assert n_ok > 50

    def test_empty_stream_decodes(self):
        dec = MQDecoder(b"", 1)
        out = [dec.decode(0) for _ in range(64)]
        assert len(out) == 64

    def test_encode_after_flush_rejected(self):
        enc = MQEncoder(1)
        enc.encode(0, 0)
        enc.flush()
        with pytest.raises(RuntimeError):
            enc.encode(1, 0)

    def test_double_flush_idempotent(self):
        enc = MQEncoder(1)
        enc.encode(1, 0)
        enc.flush()
        data = enc.get_bytes()
        enc.flush()
        assert enc.get_bytes() == data

    def test_zero_contexts_rejected(self):
        with pytest.raises(ValueError):
            MQEncoder(0)
        with pytest.raises(ValueError):
            MQDecoder(b"\x00", 0)

    def test_byte_stuffing_invariant(self):
        """After any 0xFF, the next byte must be <= 0x8F (7-bit stuffed)."""
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(100, 2000))
            enc = MQEncoder(3)
            for d, c in zip(
                (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int),
                rng.integers(0, 3, size=n),
            ):
                enc.encode(int(d), int(c))
            enc.flush()
            data = enc.get_bytes()
            for i in range(len(data) - 1):
                if data[i] == 0xFF:
                    assert data[i + 1] <= 0x8F

    def test_tell_bytes_is_upper_bound(self):
        rng = np.random.default_rng(6)
        enc = MQEncoder(1)
        tells = []
        for d in (rng.random(300) < 0.5).astype(int):
            enc.encode(int(d), 0)
            tells.append(enc.tell_bytes())
        enc.flush()
        final = len(enc.get_bytes())
        assert tells[-1] >= final - 1
        assert all(a <= b for a, b in zip(tells, tells[1:]))

    def test_n_states_table_size(self):
        assert N_STATES == 47

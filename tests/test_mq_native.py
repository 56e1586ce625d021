"""The C MQ coder against its executable specification (``tests/mq_spec.py``).

Same bytes, same ``tell_bytes`` after every chunk, same decisions and
context states at every truncation length, and the same pass decode as
the Python loop.  The fast subset draws a few examples per property;
``-m slow`` runs the wide sweep.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebcot import mq
from repro.ebcot.tables import CTX_RUN, CTX_UNIFORM, N_CONTEXTS
from tests import mq_spec

FAST = settings(max_examples=20)
WIDE = settings(max_examples=400)


@st.composite
def streams(draw):
    """``(n_ctx, initial_states, decisions, contexts, cuts)``.

    Decisions come uniform, as long MPS runs broken by rare flips, or as
    LPS bursts; initial states start anywhere in the automaton, which
    puts tiny-Qe states (long renormalisation shifts) in reach.
    """
    n_ctx = draw(st.integers(1, 19))
    states = draw(st.none() | st.lists(st.integers(0, mq.N_STATES - 1), min_size=n_ctx, max_size=n_ctx))
    n = draw(st.integers(0, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "mps-runs", "lps-bursts"]))
    if kind == "uniform":
        decisions = rng.integers(0, 2, n)
    elif kind == "mps-runs":
        decisions = (rng.random(n) < draw(st.sampled_from([0.0, 0.001, 0.02]))).astype(np.int64)
        decisions ^= draw(st.integers(0, 1))
    else:
        decisions = (np.sin(np.arange(n) / draw(st.integers(1, 40))) > 0.3).astype(np.int64)
    contexts = rng.integers(0, n_ctx, n) if draw(st.booleans()) else np.zeros(n, dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return n_ctx, states, decisions.tolist(), contexts.tolist(), cuts


def _check_encoder(case):
    n_ctx, states, decisions, contexts, cuts = case
    ref = mq_spec.MQEncoder(n_ctx, states)
    got = mq.MQEncoder(n_ctx, states)
    prev = 0
    for cut in cuts + [len(decisions)]:
        ref.encode_many(decisions[prev:cut], contexts[prev:cut])
        got.encode_many(decisions[prev:cut], contexts[prev:cut])
        assert got.tell_bytes() == ref.tell_bytes()
        assert got.context_states == ref.context_states
        prev = cut
    ref.flush()
    got.flush()
    assert got.get_bytes() == ref.get_bytes()


def _check_decoder(case):
    n_ctx, states, decisions, contexts, _ = case
    enc = mq_spec.MQEncoder(n_ctx, states)
    enc.encode_many(decisions, contexts)
    enc.flush()
    data = enc.get_bytes()
    for length in range(len(data) + 1):
        _same_decodes(data[:length], n_ctx, states, contexts)


def _same_decodes(data, n_ctx, states, contexts):
    ref = mq_spec.MQDecoder(data, n_ctx, states)
    got = mq.MQDecoder(data, n_ctx, states)
    want = [ref.decode(c) for c in contexts]
    half = len(contexts) // 2
    # A list call, then one-decision calls, on the same decoder.
    assert got.decode_many(contexts[:half]).tolist() == want[:half]
    assert [got.decode(c) for c in contexts[half:]] == want[half:]
    assert got.context_states == ref.context_states


@given(streams())
@FAST
def test_encoder_matches_spec(case):
    _check_encoder(case)


@pytest.mark.slow
@given(streams())
@WIDE
def test_encoder_matches_spec_wide(case):
    _check_encoder(case)


@given(streams().filter(lambda c: len(c[2]) <= 300))
@FAST
def test_decoder_matches_spec_at_every_truncation(case):
    _check_decoder(case)


@pytest.mark.slow
@given(streams())
@WIDE
def test_decoder_matches_spec_at_every_truncation_wide(case):
    _check_decoder(case)


@pytest.mark.parametrize("data", [b"", b"\xff", b"\xff" * 2, b"\xff" * 7, b"\xff\x8f", b"\xff\x90\xff"])
def test_empty_and_0xff_segments(data):
    rng = np.random.default_rng(len(data))
    _same_decodes(data, 19, None, rng.integers(0, 19, 400).tolist())


def test_carry_and_0xff_heavy_stream():
    """A stream whose segment is rich in 0xFF bytes and carries, which
    exercise BYTEOUT's stuffing and carry branches."""
    carries = []
    byteout = mq_spec._byteout

    def counting(buf, c):
        carries.append(c >= 0x8000000)
        return byteout(buf, c)

    rng = np.random.default_rng(11)
    decisions = (rng.random(40000) < 0.05).astype(int).tolist()
    contexts = [0] * len(decisions)
    mq_spec._byteout = counting
    try:
        _check_encoder((1, [46], decisions, contexts, [1, 999, 20000]))
    finally:
        mq_spec._byteout = byteout
    data = mq.MQEncoder(1, [46])
    data.encode_many(decisions, contexts)
    data.flush()
    seg = data.get_bytes()
    assert seg.count(0xFF) > len(seg) // 10 and sum(carries) > 20
    _same_decodes(seg, 1, [46], contexts)


# -- the pass loop -------------------------------------------------------------


@st.composite
def passes(draw):
    """``(segment, initial_states, pass array)``: a random significance or
    cleanup pass with run-mode heads on full-stripe columns."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(0, 300))
    zc = rng.integers(0, 9, n)
    sc = rng.integers(9, 14, n)
    xor = rng.integers(0, 2, n)
    visit = rng.random(n) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    run = np.zeros(n, dtype=bool)
    if draw(st.booleans()):  # cleanup: run heads on some full columns
        n_full = 4 * draw(st.integers(0, n // 4))
        heads = np.arange(0, n_full, 4)
        heads = heads[rng.random(len(heads)) < 0.5]
        run[heads] = True
        for h in heads:
            visit[h : h + 4] = False
    p = (zc | (sc << mq.PASS_SC_SHIFT) | (xor * mq.PASS_XOR) | (visit * mq.PASS_VISIT)
         | (run * mq.PASS_RUN)).astype(np.int32)
    if draw(st.booleans()):
        enc = mq_spec.MQEncoder(N_CONTEXTS)
        enc.encode_many(rng.integers(0, 2, 3 * n).tolist(), rng.integers(0, N_CONTEXTS, 3 * n).tolist())
        enc.flush()
        seg = enc.get_bytes()
        seg = seg[: draw(st.integers(0, len(seg)))]
    else:
        seg = rng.integers(0, 256, draw(st.integers(0, 40))).astype(np.uint8).tobytes()
    states = draw(st.none() | st.just(rng.integers(0, mq.N_STATES, N_CONTEXTS).tolist()))
    return seg, states, p


def _check_pass(case):
    seg, states, p = case
    ref = mq_spec.MQDecoder(seg, N_CONTEXTS, states)
    got = mq.MQDecoder(seg, N_CONTEXTS, states)
    p_ref, p_got = p.copy(), p.copy()
    assert got.decode_pass(p_got, CTX_RUN, CTX_UNIFORM) == mq_spec.decode_pass(
        ref, p_ref, CTX_RUN, CTX_UNIFORM
    )
    assert p_got.tolist() == p_ref.tolist()
    assert got.context_states == ref.context_states
    # The registers agree too: the next decisions match.
    tail = list(range(N_CONTEXTS)) * 3
    assert got.decode_many(tail).tolist() == [ref.decode(c) for c in tail]


@given(passes())
@FAST
def test_decode_pass_matches_python_loop(case):
    _check_pass(case)


@pytest.mark.slow
@given(passes())
@WIDE
def test_decode_pass_matches_python_loop_wide(case):
    _check_pass(case)


# -- rejected input leaves the coder untouched ------------------------------------


def test_encoder_rejects_bad_contexts_without_coding():
    enc = mq.MQEncoder(3)
    enc.encode_many([1, 0], [2, 1])
    before = (enc.tell_bytes(), enc.context_states)
    # 2**32 + 1 would narrow to int32 context 1: wide values are checked first.
    wide = np.array([0, 2**32 + 1], dtype=np.int64)
    for contexts in ([0, 3], [-1, 0], wide):
        with pytest.raises(ValueError):
            enc.encode_many([1, 1], contexts)
    with pytest.raises(ValueError):
        enc.encode_symbols(2 * wide)
    for context in (3, -1, 2**32 + 1):
        with pytest.raises(ValueError):
            enc.encode(1, context)
    assert (enc.tell_bytes(), enc.context_states) == before
    with pytest.raises(ValueError):
        mq.MQEncoder(2, [0, mq.N_STATES])


def test_decoder_rejects_bad_input_without_decoding():
    seg = bytes(range(0, 250, 7))
    dec = mq.MQDecoder(seg, N_CONTEXTS)
    ref = mq.MQDecoder(seg, N_CONTEXTS)
    with pytest.raises(ValueError):
        dec.decode_many([0, N_CONTEXTS])
    for context in (-1, N_CONTEXTS, 2**32 + 1):
        with pytest.raises(ValueError):
            dec.decode(context)
    with pytest.raises(ValueError):
        dec.decode_many(np.array([0, 2**32 + 1], dtype=np.int64))
    bad = [
        np.array([mq.PASS_RUN, 0, 0], dtype=np.int32),  # run column past the end
        np.array([mq.PASS_VISIT | 25], dtype=np.int32),  # zero-coding context 25
        np.array([mq.PASS_VISIT | (20 << mq.PASS_SC_SHIFT)], dtype=np.int32),
        np.array([mq.PASS_VISIT | mq.PASS_HIT], dtype=np.int32),  # output bit set
        np.array([-1], dtype=np.int32),
    ]
    for p in bad:
        with pytest.raises(ValueError):
            dec.decode_pass(p, CTX_RUN, CTX_UNIFORM)
    with pytest.raises(ValueError):
        dec.decode_pass(np.zeros(4, dtype=np.int32), N_CONTEXTS, CTX_UNIFORM)
    with pytest.raises(TypeError):
        dec.decode_pass(np.zeros(4, dtype=np.int64), CTX_RUN, CTX_UNIFORM)
    contexts = list(range(N_CONTEXTS)) * 4
    assert dec.decode_many(contexts).tolist() == ref.decode_many(contexts).tolist()

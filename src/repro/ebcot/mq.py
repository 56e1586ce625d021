"""The MQ binary arithmetic coder of JPEG2000 (T.800 Annex C).

A 16-bit multiplier-free arithmetic coder with a 47-state probability
estimation automaton, byte stuffing after ``0xFF`` bytes, and carry
resolution.  Encoder and decoder share the state table; every context is
a (state-index, MPS) pair that adapts as decisions are coded.

The per-decision loops are C (``mq.c``, built and loaded by
:mod:`repro.native` on the first import of this module); these classes
hold each coder's registers and context tables in one NumPy buffer that
the C functions work on, and hand them whole NumPy arrays per call.  The
executable specification they are tested against, a pure-Python coder,
lives in ``tests/mq_spec.py``.

The coder follows the standard's software conventions (28-bit C
register, ``CT`` countdown, BYTEOUT/BYTEIN).  A fabricated leading byte
absorbs carry propagation out of the first code byte; it stays in the
segment (1 byte of overhead per code-block) so encoder and decoder remain
exact mirrors.  Decoding past the end of a (possibly truncated) segment
feeds ``1`` bits, per the standard, so truncated streams decode cleanly
up to their truncation pass; the C decoder never reads outside the
segment.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .. import native

__all__ = [
    "MQEncoder",
    "MQDecoder",
    "N_STATES",
    "PASS_SC_SHIFT",
    "PASS_XOR",
    "PASS_VISIT",
    "PASS_RUN",
    "PASS_HIT",
    "PASS_NEG",
]

#: Probability states of T.800 Table C.2.
N_STATES = 47

# Fields of the int32 pass array of MQDecoder.decode_pass (see mq.c).
#: Bits 0-4 hold the zero-coding context, from this bit the sign context.
PASS_SC_SHIFT = 5
PASS_XOR = 0x400
PASS_VISIT = 0x800
PASS_RUN = 0x1000
PASS_HIT = 0x2000
PASS_NEG = 0x4000

# Header words of the state buffers (the enums of mq.c): the encoder's
# A, C, CT, LEN, CAP, NCTX and the decoder's A, C, CT, BP, LEN, NCTX; the
# context tables, index[n] then mps[n], follow them.
_E_LEN, _E_CAP, _E_HDR = 3, 4, 6
_D_NCTX, _D_HDR = 5, 6

_lib = native.load(Path(__file__).with_name("mq.c"))
_ptr, _i64 = ctypes.c_void_p, ctypes.c_int64


def _fn(name: str, *argtypes):
    fn = getattr(_lib, name)
    fn.argtypes = argtypes
    fn.restype = _i64
    return fn


_encode = _fn("mq_encode", _ptr, _ptr, _ptr, _i64)
_flush = _fn("mq_flush", _ptr, _ptr)
_decoder_init = _fn("mq_decoder_init", _ptr, _ptr, _i64)
_decoder_init.restype = None
_decode = _fn("mq_decode", _ptr, _ptr, _ptr, _i64)
_decode_pass = _fn("mq_decode_pass", _ptr, _ptr, _ptr, _i64, _i64, _i64)


def _args(state: int, buf: int, one: int) -> tuple:
    """The arguments of an MQ call on the one int32 symbol at ``one``."""
    return (_ptr(state), _ptr(buf), _ptr(one), _i64(1))


def _checked(values: Iterable[int], limit: int) -> np.ndarray:
    """``values`` as an array whose entries all lie in ``0..limit-1``.

    An int32 array passes as it is (the C functions check its range); any
    other is checked here, before it is narrowed to int32, so that a wide
    value cannot wrap back into range.
    """
    a = np.asarray(values)
    if a.dtype != np.int32 and a.size and (
        a.dtype.kind not in "biu" or a.min() < 0 or a.max() >= limit
    ):
        raise ValueError(f"values must be integers in 0..{limit - 1}")
    return a


def _state(header: int, n_contexts: int, initial_states: Optional[Sequence[int]]) -> np.ndarray:
    if n_contexts < 1:
        raise ValueError("need at least one context")
    state = np.zeros(header + 2 * n_contexts, dtype=np.int64)
    if initial_states is not None:
        if len(initial_states) != n_contexts:
            raise ValueError("initial_states length mismatch")
        index = np.asarray(initial_states, dtype=np.int64)
        if index.min() < 0 or index.max() >= N_STATES:
            raise ValueError(f"initial states must lie in 0..{N_STATES - 1}")
        state[header : header + n_contexts] = index
    return state


class MQEncoder:
    """MQ encoder over ``n_contexts`` adaptive contexts.

    Feed decisions with :meth:`encode_many` (or :meth:`encode` for a
    single one, or :meth:`encode_symbols` for a packed array), call
    :meth:`flush` once at the end, and read the segment from
    :meth:`get_bytes`.  :meth:`tell_bytes` gives the running segment
    length used for truncation-point rates.
    """

    def __init__(self, n_contexts: int, initial_states: Optional[Sequence[int]] = None) -> None:
        self._n = n_contexts
        self._state = _state(_E_HDR, n_contexts, initial_states)
        self._st = self._state.ctypes.data
        # buf[0] (LEN starts at 1) is the fabricated leading byte: it
        # absorbs a carry out of the first real code byte.
        self._buf = np.zeros(256, dtype=np.uint8)
        self._buf_addr = self._buf.ctypes.data
        self._state[:_E_HDR] = (0x8000, 0, 12, 1, len(self._buf), n_contexts)
        # One decision per call: the arguments are made once, as ctypes
        # objects, since converting them costs about as much as the call.
        self._one = ctypes.c_int32()
        self._one_call = _args(self._st, self._buf_addr, ctypes.addressof(self._one))
        self._flushed = False

    def _grow(self, extra: int) -> None:
        used = int(self._state[_E_LEN])
        buf = np.zeros(max(2 * len(self._buf), used + extra), dtype=np.uint8)
        buf[:used] = self._buf[:used]
        self._buf, self._buf_addr = buf, buf.ctypes.data
        self._one_call = _args(self._st, self._buf_addr, ctypes.addressof(self._one))
        self._state[_E_CAP] = len(buf)

    # -- public API ---------------------------------------------------------

    def encode(self, decision: int, context: int) -> None:
        """Code one binary ``decision`` (0/1) in ``context``."""
        if not 0 <= context < self._n:
            raise ValueError(f"context out of range for {self._n} contexts")
        if self._flushed:
            raise RuntimeError("encoder already flushed")
        self._one.value = 2 * context + (decision != 0)
        if _encode(*self._one_call) == -2:
            self._grow(6)
            _encode(*self._one_call)

    def encode_many(self, decisions: Iterable[int], contexts: Iterable[int]) -> None:
        """Code ``decisions[i]`` in ``contexts[i]``, in order."""
        d = np.asarray(decisions)
        c = _checked(contexts, self._n)
        if d.shape != c.shape:
            raise ValueError("decisions and contexts differ in length")
        self.encode_symbols(2 * c.astype(np.int32) + (d != 0))

    def encode_symbols(self, symbols: np.ndarray) -> None:
        """Code ``symbols[i] = 2 * context + decision``, in order: one C
        call for the whole array."""
        if self._flushed:
            raise RuntimeError("encoder already flushed")
        sym = np.ascontiguousarray(_checked(symbols, 2 * self._n), dtype=np.int32)
        n = len(sym)
        addr = sym.ctypes.data
        status = _encode(self._st, self._buf_addr, addr, n)
        if status == -2:
            self._grow(3 * n + 3)
            status = _encode(self._st, self._buf_addr, addr, n)
        if status < 0:
            raise ValueError(f"context out of range for {self._n} contexts")

    def flush(self) -> None:
        """Terminate the segment (T.800 FLUSH: setbits + byteouts)."""
        if self._flushed:
            return
        if _flush(self._st, self._buf_addr) == -2:
            self._grow(3)
            _flush(self._st, self._buf_addr)
        self._flushed = True

    def get_bytes(self) -> bytes:
        """The coded segment (call :meth:`flush` first for a final one).

        The fabricated leading byte is stripped when no carry reached it;
        a carried-into leading byte stays (the decoder needs the bit).
        """
        seg = self._buf[: int(self._state[_E_LEN])]
        return seg[1:].tobytes() if seg[0] == 0 else seg.tobytes()

    def tell_bytes(self) -> int:
        """Upper bound on the bytes needed to decode everything coded so
        far, used as the truncation-point rate of the enclosing pass."""
        # Bytes committed, plus the C register still holding ~3 bytes.
        return int(self._state[_E_LEN]) + 3

    @property
    def context_states(self) -> List[int]:
        """Current probability-state index per context (for tests)."""
        return self._state[_E_HDR : _E_HDR + self._n].tolist()


class MQDecoder:
    """MQ decoder; exact mirror of :class:`MQEncoder`.

    Feeding it a truncated segment is legal: reads past the end supply
    ``1`` bits, as the standard prescribes for truncated code-streams.
    """

    def __init__(self, data: bytes, n_contexts: int, initial_states: Optional[Sequence[int]] = None) -> None:
        self._n = n_contexts
        self._state = _state(_D_HDR, n_contexts, initial_states)
        self._state[_D_NCTX] = n_contexts
        self._st = self._state.ctypes.data
        self._data = np.frombuffer(data, dtype=np.uint8)
        self._data_addr = self._data.ctypes.data
        self._one = ctypes.c_int32()
        self._one_call = _args(self._st, self._data_addr, ctypes.addressof(self._one))
        _decoder_init(self._st, self._data_addr, len(self._data))

    def decode(self, context: int) -> int:
        """Decode one binary decision in ``context``."""
        if not 0 <= context < self._n:
            raise ValueError(f"context out of range for {self._n} contexts")
        self._one.value = context
        _decode(*self._one_call)
        return self._one.value

    def decode_many(self, contexts: Iterable[int]) -> np.ndarray:
        """Decode one decision per context, in order; returns them as an
        int32 array."""
        out = np.array(_checked(contexts, self._n), dtype=np.int32)
        if _decode(self._st, self._data_addr, out.ctypes.data, len(out)) < 0:
            raise ValueError(f"context out of range for {self._n} contexts")
        return out

    def decode_pass(self, p: np.ndarray, ctx_run: int, ctx_uniform: int) -> int:
        """Decode one significance-propagation or cleanup pass in place.

        ``p`` is a C-contiguous int32 array, one word per sample in
        stripe scan order: the zero-coding context in bits 0-4, the sign
        context from bit ``PASS_SC_SHIFT``, and the flags ``PASS_XOR``
        (sign predicate), ``PASS_VISIT`` (zero-code this sample) and
        ``PASS_RUN`` (head of a run-mode column, rows ``i..i+3``).  Each
        sample that becomes significant gets ``PASS_HIT``, and
        ``PASS_NEG`` when its sign is negative.  Returns the number of
        decisions decoded.
        """
        if p.dtype != np.int32 or not p.flags.c_contiguous or not p.flags.writeable:
            raise TypeError("the pass array must be a writable C-contiguous int32 array")
        count = _decode_pass(self._st, self._data_addr, p.ctypes.data, len(p), ctx_run, ctx_uniform)
        if count < 0:
            raise ValueError("malformed pass array")
        return count

    @property
    def context_states(self) -> List[int]:
        """Current probability-state index per context (for tests)."""
        return self._state[_D_HDR : _D_HDR + self._n].tolist()

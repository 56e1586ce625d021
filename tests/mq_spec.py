"""Executable specification of the MQ coder and of tier-1's pass loop.

The pure-Python MQ coder (T.800 Annex C) whose loops ``repro.ebcot.mq``
runs in C, kept as the reference that the differential tests in
``tests/test_mq_native.py`` hold the C coder to.  Each statement mirrors
the standard's flowcharts: a 28-bit C register, the ``CT`` countdown,
BYTEOUT/BYTEIN, a fabricated leading byte that absorbs carry out of the
first code byte, and ``1`` bits fed past the end of a (possibly
truncated) segment.

:func:`decode_pass` is the per-decision Python loop that
``MQDecoder.decode_pass`` runs in C, over the same pass array.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["MQEncoder", "MQDecoder", "N_STATES", "decode_pass"]

# (Qe, NMPS, NLPS, SWITCH) -- T.800 Table C.2.
_QE_TABLE = (
    (0x5601, 1, 1, 1),
    (0x3401, 2, 6, 0),
    (0x1801, 3, 9, 0),
    (0x0AC1, 4, 12, 0),
    (0x0521, 5, 29, 0),
    (0x0221, 38, 33, 0),
    (0x5601, 7, 6, 1),
    (0x5401, 8, 14, 0),
    (0x4801, 9, 14, 0),
    (0x3801, 10, 14, 0),
    (0x3001, 11, 17, 0),
    (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0),
    (0x1601, 29, 21, 0),
    (0x5601, 15, 14, 1),
    (0x5401, 16, 14, 0),
    (0x5101, 17, 15, 0),
    (0x4801, 18, 16, 0),
    (0x3801, 19, 17, 0),
    (0x3401, 20, 18, 0),
    (0x3001, 21, 19, 0),
    (0x2801, 22, 19, 0),
    (0x2401, 23, 20, 0),
    (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0),
    (0x1801, 26, 23, 0),
    (0x1601, 27, 24, 0),
    (0x1401, 28, 25, 0),
    (0x1201, 29, 26, 0),
    (0x1101, 30, 27, 0),
    (0x0AC1, 31, 28, 0),
    (0x09C1, 32, 29, 0),
    (0x08A1, 33, 30, 0),
    (0x0521, 34, 31, 0),
    (0x0441, 35, 32, 0),
    (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0),
    (0x0141, 38, 35, 0),
    (0x0111, 39, 36, 0),
    (0x0085, 40, 37, 0),
    (0x0049, 41, 38, 0),
    (0x0025, 42, 39, 0),
    (0x0015, 43, 40, 0),
    (0x0009, 44, 41, 0),
    (0x0005, 45, 42, 0),
    (0x0001, 45, 43, 0),
    (0x5601, 46, 46, 0),
)

N_STATES = len(_QE_TABLE)

_QE = tuple(row[0] for row in _QE_TABLE)
_NMPS = tuple(row[1] for row in _QE_TABLE)
_NLPS = tuple(row[2] for row in _QE_TABLE)
_SWITCH = tuple(row[3] for row in _QE_TABLE)


def _byteout(buf: bytearray, c: int) -> Tuple[int, int]:
    """T.800 BYTEOUT: move the top byte of ``C`` into ``buf``.

    Resolves a carry into the previous byte and stuffs a zero bit after
    ``0xFF``; returns the new ``(C, CT)``.
    """
    if buf[-1] == 0xFF:
        buf.append((c >> 20) & 0xFF)
        return c & 0xFFFFF, 7
    if c >= 0x8000000:
        buf[-1] += 1
        if buf[-1] == 0xFF:
            c &= 0x7FFFFFF
            buf.append((c >> 20) & 0xFF)
            return c & 0xFFFFF, 7
    buf.append((c >> 19) & 0xFF)
    return c & 0x7FFFF, 8


class MQEncoder:
    """MQ encoder over ``n_contexts`` adaptive contexts.

    Feed decisions with :meth:`encode_many` (or :meth:`encode` for a
    single one), call :meth:`flush` once at the end, and read the segment
    from :meth:`get_bytes`.  :meth:`tell_bytes` gives
    the running segment length used for truncation-point rates.
    """

    def __init__(self, n_contexts: int, initial_states: Optional[Sequence[int]] = None) -> None:
        if n_contexts < 1:
            raise ValueError("need at least one context")
        self._index = [0] * n_contexts
        self._mps = [0] * n_contexts
        if initial_states is not None:
            if len(initial_states) != n_contexts:
                raise ValueError("initial_states length mismatch")
            self._index = list(initial_states)
        self._a = 0x8000
        self._c = 0
        self._ct = 12
        # Fabricated leading byte: absorbs a carry out of the first real
        # code byte and stays in the segment.
        self._buf = bytearray([0])
        self._flushed = False

    # -- public API ---------------------------------------------------------

    def encode(self, decision: int, context: int) -> None:
        """Code one binary ``decision`` (0/1) in ``context``."""
        self.encode_many((decision,), (context,))

    def encode_many(self, decisions: Iterable[int], contexts: Iterable[int]) -> None:
        """Code ``decisions[i]`` in ``contexts[i]``, in order.

        The one coding loop of the encoder: the registers and context
        tables live in locals, and renormalisation shifts ``A`` and ``C``
        by the whole distance to the next interval bound at once, with a
        byte-out wherever ``CT`` runs out on the way.
        """
        if self._flushed:
            raise RuntimeError("encoder already flushed")
        index, mps, buf = self._index, self._mps, self._buf
        qe_of, nmps, nlps, switch = _QE, _NMPS, _NLPS, _SWITCH
        a, c, ct = self._a, self._c, self._ct
        for d, cx in zip(decisions, contexts):
            idx = index[cx]
            qe = qe_of[idx]
            a -= qe
            if d == mps[cx]:
                if a & 0x8000:
                    c += qe
                    continue
                if a < qe:
                    a = qe
                else:
                    c += qe
                index[cx] = nmps[idx]
            else:
                if a < qe:
                    c += qe
                else:
                    a = qe
                if switch[idx]:
                    mps[cx] ^= 1
                index[cx] = nlps[idx]
            # RENORME: here 0 < A < 0x8000.
            shift = 16 - a.bit_length()
            a <<= shift
            while shift >= ct:
                c = (c << ct) & 0xFFFFFFF
                shift -= ct
                c, ct = _byteout(buf, c)
            c = (c << shift) & 0xFFFFFFF
            ct -= shift
        self._a, self._c, self._ct = a, c, ct

    def flush(self) -> None:
        """Terminate the segment (T.800 FLUSH: setbits + two byteouts)."""
        if self._flushed:
            return
        # SETBITS: move C to the largest value in [C, C+A) whose low
        # 15 bits are zero; the decoder's past-end 1-bit feeding then
        # lands inside the final interval.
        tempc = self._c + self._a - 1
        self._c = tempc & ~0x7FFF
        # Three byteouts drain every significant bit of C (the spec's two
        # plus one safety byte so the last decision never depends on
        # synthesized padding; costs at most one byte per segment).
        for _ in range(3):
            self._c, self._ct = _byteout(self._buf, (self._c << self._ct) & 0xFFFFFFF)
        if self._buf[-1] == 0xFF:
            self._buf.pop()
        self._flushed = True

    def get_bytes(self) -> bytes:
        """The coded segment (call :meth:`flush` first for a final one).

        The fabricated leading byte is stripped when no carry reached it;
        a carried-into leading byte stays (the decoder needs the bit).
        """
        if self._buf[0] == 0:
            return bytes(self._buf[1:])
        return bytes(self._buf)

    def tell_bytes(self) -> int:
        """Upper bound on the bytes needed to decode everything coded so
        far, used as the truncation-point rate of the enclosing pass."""
        # Bytes committed, plus the C register still holding ~3 bytes.
        return len(self._buf) + 3

    @property
    def context_states(self) -> List[int]:
        """Current probability-state index per context (for tests)."""
        return list(self._index)


class MQDecoder:
    """MQ decoder; exact mirror of :class:`MQEncoder`.

    Feeding it a truncated segment is legal: reads past the end supply
    ``1`` bits, as the standard prescribes for truncated code-streams.
    """

    def __init__(self, data: bytes, n_contexts: int, initial_states: Optional[Sequence[int]] = None) -> None:
        if n_contexts < 1:
            raise ValueError("need at least one context")
        self._index = [0] * n_contexts
        self._mps = [0] * n_contexts
        if initial_states is not None:
            if len(initial_states) != n_contexts:
                raise ValueError("initial_states length mismatch")
            self._index = list(initial_states)
        self._data = data
        self._bp = 0
        b0 = data[0] if data else 0xFF
        self._c = b0 << 16
        self._bytein()
        self._c = (self._c << 7) & 0xFFFFFFFF
        self._ct -= 7
        self._a = 0x8000

    def _cur(self) -> int:
        return self._data[self._bp] if self._bp < len(self._data) else 0xFF

    def _next(self) -> int:
        return self._data[self._bp + 1] if self._bp + 1 < len(self._data) else 0xFF

    def _bytein(self) -> None:
        if self._cur() == 0xFF:
            if self._next() > 0x8F:
                self._c += 0xFF00
                self._ct = 8
            else:
                self._bp += 1
                self._c += self._cur() << 9
                self._ct = 7
        else:
            self._bp += 1
            self._c += self._cur() << 8
            self._ct = 8

    def _renorm(self) -> None:
        while True:
            if self._ct == 0:
                self._bytein()
            self._a = (self._a << 1) & 0xFFFF
            self._c = (self._c << 1) & 0xFFFFFFFF
            self._ct -= 1
            if self._a & 0x8000:
                break

    def decode(self, context: int) -> int:
        """Decode one binary decision in ``context``."""
        idx = self._index[context]
        qe = _QE[idx]
        self._a -= qe
        if ((self._c >> 16) & 0xFFFF) < qe:
            # LPS path (conditional exchange).
            if self._a < qe:
                d = self._mps[context]
                self._index[context] = _NMPS[idx]
            else:
                d = 1 - self._mps[context]
                if _SWITCH[idx]:
                    self._mps[context] ^= 1
                self._index[context] = _NLPS[idx]
            self._a = qe
            self._renorm()
            return d
        self._c -= qe << 16
        if self._a & 0x8000:
            return self._mps[context]
        if self._a < qe:
            d = 1 - self._mps[context]
            if _SWITCH[idx]:
                self._mps[context] ^= 1
            self._index[context] = _NLPS[idx]
        else:
            d = self._mps[context]
            self._index[context] = _NMPS[idx]
        self._renorm()
        return d

    @property
    def context_states(self) -> List[int]:
        """Current probability-state index per context (for tests)."""
        return list(self._index)


def decode_pass(dec: MQDecoder, p, ctx_run: int, ctx_uniform: int) -> int:
    """Reference for ``repro.ebcot.mq.MQDecoder.decode_pass``: decodes
    one significance or cleanup pass over the int32 pass array ``p`` in
    place, one :meth:`MQDecoder.decode` per decision; returns the number
    of decisions."""
    from repro.ebcot.mq import PASS_HIT, PASS_NEG, PASS_RUN, PASS_SC_SHIFT, PASS_VISIT, PASS_XOR

    fields = [int(v) for v in p]
    zl = [v & 0x1F for v in fields]
    sl = [(v >> PASS_SC_SHIFT) & 0x1F for v in fields]
    xl = [int(bool(v & PASS_XOR)) for v in fields]
    decode = dec.decode
    hits: List[int] = []
    signs: List[int] = []
    n = 0
    for s, v in enumerate(fields):
        if v & PASS_RUN:
            n += 1
            if not decode(ctx_run):
                continue
            t = s + ((decode(ctx_uniform) << 1) | decode(ctx_uniform))
            n += 3
            hits.append(t)
            signs.append(decode(sl[t]) ^ xl[t])
            for t in range(t + 1, s + 4):
                n += 1
                if decode(zl[t]):
                    n += 1
                    hits.append(t)
                    signs.append(decode(sl[t]) ^ xl[t])
        elif v & PASS_VISIT:
            n += 1
            if decode(zl[s]):
                n += 1
                hits.append(s)
                signs.append(decode(sl[s]) ^ xl[s])
    for t, neg in zip(hits, signs):
        p[t] |= PASS_HIT | (PASS_NEG if neg else 0)
    return n

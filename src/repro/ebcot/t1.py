"""Tier-1 code-block coder: bit-plane coding with three passes per plane.

Each code-block of quantized coefficients is coded independently --
JPEG2000's enabler for the paper's parallel encoding stage.  Planes are
coded most-significant first; the top plane gets a single cleanup pass,
every further plane a significance-propagation, a magnitude-refinement
and a cleanup pass.  Pass boundaries are the feasible truncation points
reported to the PCRD rate allocator, each annotated with its cumulative
rate (bytes) and its distortion reduction (in squared quantized-
coefficient units; the allocator applies quantizer step and subband
synthesis gain).

See :mod:`repro.ebcot` for the documented pass-boundary (Jacobi) context
freeze.  Because of it, every pass's full ``(decision, context)``
sequence is a function of the pass-start state alone: the encoder builds
it with whole-array NumPy in stripe scan order -- zero coding and sign
bits (``neg ^ xor``), refinement bits, and the cleanup pass's run-mode
heads for quiet full-stripe columns -- as one array of symbols
``2 * context + decision``, and codes it with one
:meth:`~repro.ebcot.mq.MQEncoder.encode_symbols` call.  The decoder's
decisions stay sequential (whether a sign follows, and which rows a
run-mode column codes, depend on decoded bits), so each pass packs its
frozen contexts, sign XOR bits, visit and run-column flags into one
word per sample and hands the whole pass to one C call
(:meth:`~repro.ebcot.mq.MQDecoder.decode_pass`), then writes the samples
it found significant back once.
Encoder and decoder mirror each other exactly and round-trip bit-exactly
(property-tested); ``tests/test_t1_golden.py`` pins the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .mq import (
    PASS_HIT,
    PASS_NEG,
    PASS_RUN,
    PASS_SC_SHIFT,
    PASS_VISIT,
    PASS_XOR,
    MQDecoder,
    MQEncoder,
)
from .tables import (
    CTX_RUN,
    CTX_UNIFORM,
    N_CONTEXTS,
    refinement_context,
    sign_context_and_xor,
    zero_coding_context,
)

__all__ = [
    "CodingPass",
    "EncodedBlock",
    "CodeBlockEncoder",
    "CodeBlockDecoder",
    "encode_codeblock",
    "decode_codeblock",
]

_PASS_TYPES = ("sig", "ref", "clean")


@dataclass(frozen=True)
class CodingPass:
    """One feasible truncation point of a code-block's embedded stream."""

    plane: int
    pass_type: str
    rate_bytes: int
    dist_reduction: float
    n_decisions: int


@dataclass
class EncodedBlock:
    """The embedded bit-stream of one code-block plus its pass table."""

    data: bytes
    passes: List[CodingPass]
    n_planes: int
    shape: Tuple[int, int]
    orient: str

    @property
    def n_passes(self) -> int:
        return len(self.passes)

    def truncation_lengths(self) -> List[int]:
        """Cumulative byte lengths at each pass boundary."""
        return [p.rate_bytes for p in self.passes]

    def total_decisions(self) -> int:
        """Total MQ decisions coded -- the tier-1 work measure used by
        the performance model."""
        return sum(p.n_decisions for p in self.passes)


@lru_cache(maxsize=64)
def _scan_order(height: int, width: int) -> np.ndarray:
    """Row-major flat indices of a block in JPEG2000 stripe scan order.

    Stripes of four rows; within a stripe, columns left to right; within
    a column, rows top to bottom.  The first ``4 * (height // 4) * width``
    entries are the full stripes: one group of four per stripe column.
    """
    rows, cols = np.divmod(np.arange(height * width), width)
    order = np.lexsort((rows, cols, rows // 4))
    order.flags.writeable = False
    return order


def _run_columns(shape: Tuple[int, int], elig: np.ndarray, ctx_zc: np.ndarray) -> np.ndarray:
    """Run-mode flag per full-stripe column, from scan-ordered arrays.

    A column of a full stripe is run-length coded in the cleanup pass
    when all four of its samples are eligible with zero-coding context 0.
    """
    n_full = 4 * (shape[0] // 4) * shape[1]
    quiet = elig[:n_full] & (ctx_zc[:n_full] == 0)
    return quiet.reshape(-1, 4).all(axis=1)


# Event slots per sample: at most four (a run head codes RUN, two UNIFORM
# bits and a sign; any other sample its ZC decision and maybe a sign).
_SLOTS = np.arange(4)


class CodeBlockEncoder:
    """Encodes one code-block; see :func:`encode_codeblock`.

    Each pass is a decision stream: with contexts frozen at the pass
    start, the pass's full ``(decision, context)`` sequence is built with
    whole-array NumPy in scan order and handed to one
    :meth:`MQEncoder.encode_symbols` call.
    """

    def __init__(self, coeffs: np.ndarray, orient: str) -> None:
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 2:
            raise ValueError("code-block must be 2-D")
        if not np.issubdtype(coeffs.dtype, np.integer):
            raise TypeError("tier-1 codes integer (quantized) coefficients")
        self.orient = orient
        self.shape = coeffs.shape
        self.mag = np.abs(coeffs.astype(np.int64))
        self.neg = coeffs < 0
        maxmag = int(self.mag.max()) if self.mag.size else 0
        self.n_planes = maxmag.bit_length()
        self._scan = _scan_order(*self.shape)
        self._signs = np.where(self.neg, -1, 1)
        self._neg_scan = self.neg.ravel()[self._scan]

    def encode(self) -> EncodedBlock:
        """Run all passes over all planes; returns the embedded stream."""
        if self.n_planes == 0:
            return EncodedBlock(b"", [], 0, self.shape, self.orient)
        enc = MQEncoder(N_CONTEXTS)
        sig = np.zeros(self.shape, dtype=bool)
        refined = np.zeros(self.shape, dtype=bool)
        coded = np.zeros(self.shape, dtype=bool)
        passes: List[CodingPass] = []

        for plane in range(self.n_planes - 1, -1, -1):
            bits = (self.mag >> plane) & 1
            sig_start = sig
            if plane != self.n_planes - 1:
                ctx_zc = zero_coding_context(sig, self.orient)
                coded = ~sig & (ctx_zc > 0)
                n_dec = self._zc_pass(enc, sig, coded, bits, ctx_zc, run_mode=False)
                new = coded & (bits > 0)
                passes.append(
                    CodingPass(plane, "sig", enc.tell_bytes(), self._newly_sig_distortion(new, plane), n_dec)
                )
                sig = sig | new
                n_dec = self._ref_pass(enc, sig_start, bits, refinement_context(sig, refined))
                refined |= sig_start
                passes.append(
                    CodingPass(plane, "ref", enc.tell_bytes(), self._ref_distortion(sig_start, plane), n_dec)
                )
            # Cleanup codes every sample neither pass of this plane coded.
            elig = ~(sig_start | coded)
            n_dec = self._zc_pass(enc, sig, elig, bits, zero_coding_context(sig, self.orient), run_mode=True)
            new = elig & (bits > 0)
            passes.append(
                CodingPass(plane, "clean", enc.tell_bytes(), self._newly_sig_distortion(new, plane), n_dec)
            )
            sig = sig | new
        enc.flush()
        data = enc.get_bytes()
        # Clamp pass rates to the final segment length.
        passes = [
            CodingPass(p.plane, p.pass_type, min(p.rate_bytes, len(data)), p.dist_reduction, p.n_decisions)
            for p in passes
        ]
        return EncodedBlock(data, passes, self.n_planes, self.shape, self.orient)

    # -- distortion bookkeeping ---------------------------------------------

    def _newly_sig_distortion(self, new: np.ndarray, plane: int) -> float:
        """Squared-error reduction from samples becoming significant."""
        if not new.any():
            return 0.0
        m = self.mag[new].astype(np.float64)
        base = np.floor(m / (1 << plane)) * (1 << plane)
        rec = base + 0.5 * (1 << plane)
        return float(np.sum(m * m - (m - rec) ** 2))

    def _ref_distortion(self, refined_now: np.ndarray, plane: int) -> float:
        """Squared-error reduction from refining known-significant samples."""
        if not refined_now.any():
            return 0.0
        m = self.mag[refined_now].astype(np.float64)
        step_hi = 1 << (plane + 1)
        step_lo = 1 << plane
        rec_before = np.floor(m / step_hi) * step_hi + 0.5 * step_hi
        rec_after = np.floor(m / step_lo) * step_lo + 0.5 * step_lo
        return float(np.sum((m - rec_before) ** 2 - (m - rec_after) ** 2))

    # -- passes as decision streams -------------------------------------------

    def _zc_pass(
        self,
        enc: MQEncoder,
        sig: np.ndarray,
        elig: np.ndarray,
        bits: np.ndarray,
        ctx_zc: np.ndarray,
        run_mode: bool,
    ) -> int:
        """Significance propagation or cleanup: zero-code the ``elig``
        samples in scan order, sign-coding each that becomes significant;
        in the cleanup pass (``run_mode``) quiet full-stripe columns are
        run-length coded.  Returns the number of decisions coded."""
        scan = self._scan
        sc_ctx, sc_xor = sign_context_and_xor(sig, self._signs)
        e = elig.ravel()[scan]
        b = bits.ravel()[scan]
        zc = ctx_zc.ravel()[scan]
        sc = sc_ctx.ravel()[scan]
        sb = self._neg_scan ^ sc_xor.ravel()[scan]
        # Per sample: its ZC decision, then its sign when significant;
        # each event is one symbol 2 * context + decision.
        count = e * (1 + b)
        sym = np.zeros((len(scan), 4), dtype=np.int32)
        sym[:, 0] = 2 * zc + b
        sym[:, 1] = 2 * sc + sb
        if run_mode:
            run = _run_columns(self.shape, e, zc)
            if run.any():
                col = np.flatnonzero(run)
                b4 = b[: 4 * len(run)].reshape(-1, 4)[col]
                hit = b4.any(axis=1).astype(np.int64)
                k = b4.argmax(axis=1)
                # The column's head (RUN, then on a hit the row k as two
                # UNIFORM bits and the sign of row k) covers rows 0..k,
                # or all four rows without a hit; rows after k code as usual.
                covered = (np.arange(4) <= k[:, None]) | (hit[:, None] == 0)
                count4 = count[: 4 * len(run)].reshape(-1, 4)
                count4[col] = np.where(covered, 0, count4[col])
                head = 4 * col
                row_k = head + k
                count[head] = 1 + 3 * hit
                sym[head] = np.stack(
                    (2 * CTX_RUN + hit, 2 * CTX_UNIFORM + (k >> 1), 2 * CTX_UNIFORM + (k & 1),
                     2 * sc[row_k] + sb[row_k]),
                    axis=1,
                )
        symbols = sym[_SLOTS < count[:, None]]
        enc.encode_symbols(symbols)
        return len(symbols)

    def _ref_pass(self, enc: MQEncoder, elig: np.ndarray, bits: np.ndarray, ctx_mr: np.ndarray) -> int:
        """Magnitude refinement of the samples significant before this
        plane.  Returns the number of decisions coded."""
        sel = self._scan[elig.ravel()[self._scan]]
        enc.encode_symbols(2 * ctx_mr.ravel()[sel] + bits.ravel()[sel])
        return len(sel)


class CodeBlockDecoder:
    """Decodes (possibly truncated) embedded streams; mirror of the encoder.

    Each pass packs its frozen state -- contexts, sign XOR bits, the
    visiting order and the run-mode columns -- into one array, decodes
    it in one :class:`MQDecoder` call, and writes the samples it finds
    significant back into the block arrays once.
    """

    def __init__(
        self,
        data: bytes,
        shape: Tuple[int, int],
        orient: str,
        n_planes: int,
        n_passes: Optional[int] = None,
    ) -> None:
        self.data = data
        self.shape = tuple(shape)
        self.orient = orient
        self.n_planes = n_planes
        self.n_passes = n_passes
        self._scan = _scan_order(*self.shape)

    def decode(self) -> Tuple[np.ndarray, int]:
        """Returns ``(values, last_plane)``.

        ``values`` are signed integer coefficients containing the decoded
        magnitude bits; ``last_plane`` is the lowest fully decoded plane
        (0 when every pass was decoded), which the dequantizer uses for
        midpoint reconstruction.
        """
        mag = np.zeros(self.shape, dtype=np.int64)
        neg = np.zeros(self.shape, dtype=bool)
        if self.n_planes == 0:
            return mag, 0
        dec = MQDecoder(self.data, N_CONTEXTS)
        sig = np.zeros(self.shape, dtype=bool)
        refined = np.zeros(self.shape, dtype=bool)
        coded = np.zeros(self.shape, dtype=bool)
        budget = self.n_passes if self.n_passes is not None else 3 * self.n_planes
        done = 0
        last_plane = self.n_planes - 1
        for plane in range(self.n_planes - 1, -1, -1):
            if done >= budget:
                break
            sig_start = sig
            if plane != self.n_planes - 1:
                ctx_zc = zero_coding_context(sig, self.orient)
                coded = ~sig & (ctx_zc > 0)
                sig = sig | self._zc_pass(dec, sig, coded, ctx_zc, mag, neg, plane, run_mode=False)
                done += 1
                last_plane = plane
                if done >= budget:
                    break
                self._ref_pass(dec, sig_start, refinement_context(sig, refined), mag, plane)
                refined |= sig_start
                done += 1
                if done >= budget:
                    break
            elig = ~(sig_start | coded)
            ctx_zc = zero_coding_context(sig, self.orient)
            sig = sig | self._zc_pass(dec, sig, elig, ctx_zc, mag, neg, plane, run_mode=True)
            done += 1
            last_plane = plane
        values = np.where(neg, -mag, mag)
        return values, last_plane

    def _zc_pass(self, dec, sig, elig, ctx_zc, mag, neg, plane, run_mode):
        """Mirror of :meth:`CodeBlockEncoder._zc_pass`; returns the mask of
        samples that became significant."""
        scan = self._scan
        sc_ctx, sc_xor = sign_context_and_xor(sig, np.where(neg, -1, 1))
        e = elig.ravel()[scan]
        zc = ctx_zc.ravel()[scan]
        # Visit every eligible sample; a run-mode column is visited once,
        # at its first row, and decodes its own rows.
        visit = e.copy()
        is_run = np.zeros(len(scan), dtype=bool)
        if run_mode:
            run = _run_columns(self.shape, e, zc)
            visit[: 4 * len(run)].reshape(-1, 4)[run] = False
            is_run[: 4 * len(run) : 4] = run
        p = (zc | (sc_ctx.ravel()[scan] << PASS_SC_SHIFT) | (sc_xor.ravel()[scan] * PASS_XOR)
             | (visit * PASS_VISIT) | (is_run * PASS_RUN)).astype(np.int32)
        dec.decode_pass(p, CTX_RUN, CTX_UNIFORM)
        hit = (p & PASS_HIT) != 0
        flat = scan[hit]
        mag.reshape(-1)[flat] |= 1 << plane
        neg.reshape(-1)[flat] = (p[hit] & PASS_NEG) != 0
        new_sig = np.zeros(self.shape, dtype=bool)
        new_sig.reshape(-1)[flat] = True
        return new_sig

    def _ref_pass(self, dec, elig, ctx_mr, mag, plane):
        sel = self._scan[elig.ravel()[self._scan]]
        ones = dec.decode_many(ctx_mr.ravel()[sel])
        mag.reshape(-1)[sel[ones != 0]] |= 1 << plane


def encode_codeblock(coeffs: np.ndarray, orient: str = "LL") -> EncodedBlock:
    """Encode one code-block of signed integer coefficients."""
    return CodeBlockEncoder(coeffs, orient).encode()


def decode_codeblock(
    data: bytes,
    shape: Tuple[int, int],
    orient: str,
    n_planes: int,
    n_passes: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Decode a (possibly truncated) code-block stream.

    Returns ``(values, last_plane)``; pass ``n_passes`` to stop at a
    truncation point chosen by the rate allocator.
    """
    return CodeBlockDecoder(data, shape, orient, n_planes, n_passes).decode()

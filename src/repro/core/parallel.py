"""Real parallel implementations of the paper's methods.

These are the executable counterparts of the techniques the performance
model simulates -- numerically exact and property-tested against the
serial paths:

- :func:`parallel_dwt2d` / :func:`parallel_idwt2d`: multilevel transform
  whose per-level vertical and horizontal sweeps are partitioned
  statically across a worker pool, with a barrier between directions
  (the sweep is the barrier), exactly the structure of Sec. 3.2.
- :func:`parallel_encode_blocks` / :func:`parallel_decode_blocks`:
  tier-1 over a worker pool, code-blocks dealt to workers by predicted
  cost (longest processing time first).
- :func:`parallel_quantize`: coefficient chunks across workers
  (Sec. 3.3).

Every function takes a ``backend`` -- a name from
:data:`repro.core.backend.BACKEND_NAMES` or a live
:class:`~repro.core.backend.ExecutionBackend` -- selecting *how* the
static decomposition executes: ``serial`` in the calling thread (the
default), or ``processes``, which ships tier-1 shares to a process pool
and runs every sweep in the calling process (a pool round trip per
sweep costs more than the whole transform; see
:mod:`repro.core.backend`).  Results are bit-identical across backends
and worker counts (the differential harness in
``tests/test_backends_differential.py`` holds both to byte-identical
codestreams); all *simulated* speedup numbers in the experiments still
come from the deterministic SMP model, whose tier-1 pool keeps the
paper's staggered round robin (see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ebcot.t1 import EncodedBlock
from ..smp.pool import longest_processing_time
from ..wavelet.dwt2d import Subbands
from ..wavelet.filters import get_filter
from .backend import resolve_backend

__all__ = [
    "parallel_dwt2d",
    "parallel_idwt2d",
    "parallel_encode_blocks",
    "parallel_decode_blocks",
    "parallel_quantize",
]


def _split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Static near-equal contiguous partition of ``range(n)``."""
    parts = max(1, min(parts, n)) if n else 1
    base, extra = divmod(n, parts)
    out: List[Tuple[int, int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def _parallel_1d(
    data: np.ndarray, bank, backend, ph=None
) -> Tuple[np.ndarray, np.ndarray]:
    """One filtering sweep along axis 0, columns statically partitioned.

    ``ph`` (an :class:`repro.obs.PhaseRecorder`, optional) records one
    task per column slab -- worker id, queue wait, and the barrier wait
    until the slowest slab finishes.
    """
    n_cols = data.shape[1]
    n = data.shape[0]
    n_low, n_high = (n + 1) // 2, n // 2
    dtype = np.int64 if bank.reversible else np.float64
    low = np.empty((n_low, n_cols), dtype=dtype)
    high = np.empty((n_high, n_cols), dtype=dtype)
    ranges = _split_ranges(n_cols, backend.n_workers)
    backend.sweep(
        "dwt", (data,), (low, high), ranges, {"filter": bank.name}, ph=ph
    )
    return low, high


def parallel_dwt2d(
    image: np.ndarray,
    levels: int,
    filter_name: str = "9/7",
    n_workers: int = 1,
    tracer=None,
    backend=None,
) -> Subbands:
    """Multilevel 2-D DWT with statically partitioned parallel sweeps.

    Bit-identical to :func:`repro.wavelet.dwt2d` (tested) on every
    backend: parallelism only re-orders independent column/row slabs.
    A barrier separates the vertical and horizontal filtering of each
    level, as in the paper.

    ``tracer`` (optional :class:`repro.obs.Tracer`) records one barrier
    phase per sweep -- ``DWT vertical L<n>`` / ``DWT horizontal L<n>`` --
    with per-worker slab tasks, queue waits, and the barrier wait between
    the vertical and horizontal sweeps of each level.  ``backend``
    selects the execution backend (default: ``serial``).
    """
    bank = get_filter(filter_name)
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError("expected a 2-D image")
    if n_workers < 1:
        raise ValueError("need at least one worker")
    current = a if bank.reversible else np.asarray(a, dtype=np.float64)
    details: List[Dict[str, np.ndarray]] = []
    bk, owned = resolve_backend(backend, n_workers)
    try:
        for lvl in range(1, levels + 1):
            if tracer is None:
                low_v, high_v = _parallel_1d(current, bank, bk)
                ll_t, hl_t = _parallel_1d(np.ascontiguousarray(low_v.T), bank, bk)
                lh_t, hh_t = _parallel_1d(np.ascontiguousarray(high_v.T), bank, bk)
            else:
                with tracer.phase(f"DWT vertical L{lvl}", backend=bk.name) as ph:
                    low_v, high_v = _parallel_1d(current, bank, bk, ph)
                with tracer.phase(f"DWT horizontal L{lvl}", backend=bk.name) as ph:
                    ll_t, hl_t = _parallel_1d(
                        np.ascontiguousarray(low_v.T), bank, bk, ph
                    )
                    lh_t, hh_t = _parallel_1d(
                        np.ascontiguousarray(high_v.T), bank, bk, ph
                    )
            details.append(
                {
                    "HL": np.ascontiguousarray(hl_t.T),
                    "LH": np.ascontiguousarray(lh_t.T),
                    "HH": np.ascontiguousarray(hh_t.T),
                }
            )
            current = np.ascontiguousarray(ll_t.T)
    finally:
        if owned:
            bk.close()
    return Subbands(ll=current, details=details, shape=a.shape, filter_name=filter_name)


def parallel_idwt2d(
    subbands: Subbands, n_workers: int = 1, tracer=None, backend=None
) -> np.ndarray:
    """Inverse of :func:`parallel_dwt2d` with the same partitioning.

    ``tracer`` records the mirrored barrier phases (``IDWT horizontal
    L<n>`` / ``IDWT vertical L<n>``) with per-worker slab tasks;
    ``backend`` selects the execution backend (default: ``serial``).
    """
    bank = get_filter(subbands.filter_name)
    if n_workers < 1:
        raise ValueError("need at least one worker")
    bk, owned = resolve_backend(backend, n_workers)

    def inv_sweep(low: np.ndarray, high: np.ndarray, ph=None) -> np.ndarray:
        n_cols = low.shape[1]
        ranges = _split_ranges(n_cols, bk.n_workers)
        n = low.shape[0] + high.shape[0]
        out = np.empty((n, n_cols), dtype=np.int64 if bank.reversible else np.float64)
        bk.sweep(
            "idwt", (low, high), (out,), ranges, {"filter": bank.name}, ph=ph
        )
        return out

    def traced_sweep(name: str, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        if tracer is None:
            return inv_sweep(low, high)
        with tracer.phase(name, backend=bk.name) as ph:
            return inv_sweep(low, high, ph)

    try:
        current = subbands.ll
        for level in range(subbands.levels, 0, -1):
            bands = subbands.details[level - 1]
            low_v = traced_sweep(
                f"IDWT horizontal L{level}",
                np.ascontiguousarray(current.T), np.ascontiguousarray(bands["HL"].T),
            ).T
            high_v = traced_sweep(
                f"IDWT horizontal L{level}",
                np.ascontiguousarray(bands["LH"].T), np.ascontiguousarray(bands["HH"].T),
            ).T
            current = traced_sweep(
                f"IDWT vertical L{level}",
                np.ascontiguousarray(low_v), np.ascontiguousarray(high_v),
            )
    finally:
        if owned:
            bk.close()
    return current


def _first_field(block):
    """A block tuple's first field, or ``None`` for a malformed block."""
    return block[0] if isinstance(block, (tuple, list)) and block else None


# Cost predictions never raise: a malformed block costs nothing here and
# fails in its own kernel, where per-item fault capture reports it.


def _encode_cost(block) -> int:
    """Predicted tier-1 encode cost: samples x magnitude bit-planes."""
    coeffs = _first_field(block)
    if (not isinstance(coeffs, np.ndarray) or coeffs.dtype.kind not in "iu"
            or coeffs.size == 0):
        return 0
    return coeffs.size * int(np.abs(coeffs).max()).bit_length()


def _decode_cost(block) -> int:
    """Predicted tier-1 decode cost: segment bytes, plus one so empty
    segments still spread across workers."""
    data = _first_field(block)
    return (len(data) if isinstance(data, (bytes, bytearray)) else 0) + 1


def _deal(blocks, cost, n_workers: int):
    """Deal ``(index, block)`` items to workers by predicted cost.

    Longest processing time first: blocks in decreasing ``cost`` order
    (ties in index order), each to the least-loaded worker so far.  The
    deal is deterministic and every index lands in exactly one share;
    results still return in index order, so it cannot change bytes.  A
    single worker (or block) gets one share in index order.
    """
    indexed = list(enumerate(blocks))
    if n_workers == 1 or len(indexed) <= 1:
        return [indexed]
    costs = [cost(block) for block in blocks]
    deal = longest_processing_time(range(len(indexed)), n_workers,
                                   costs.__getitem__)
    return [[indexed[i] for i in share] for share in deal]


def parallel_encode_blocks(
    blocks: Sequence[Tuple[np.ndarray, str]],
    n_workers: int = 1,
    tracer=None,
    backend=None,
) -> List[EncodedBlock]:
    """Tier-1 code every block on a worker pool.

    ``blocks`` are ``(coefficients, orientation)`` pairs in scan order,
    dealt to workers by predicted cost (samples x magnitude bit-planes,
    longest first).  Results return in the input order regardless of
    the deal or backend.  ``tracer`` records one ``tier-1 encode pool``
    phase with one task per code-block (worker id from the deal).
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    bk, owned = resolve_backend(backend, n_workers)
    try:
        # Inside the try: anything raising between pool creation and the
        # finally (a bad ``blocks`` iterable included) must still close
        # an owned pool.
        blocks = list(blocks)

        def run(ph):
            shares = _deal(blocks, _encode_cost, bk.n_workers)
            return bk.map_shares("encode", shares, len(blocks), ph=ph, label="cb")

        if tracer is None:
            results, errors = run(None)
        else:
            with tracer.phase(
                "tier-1 encode pool", n_blocks=len(blocks), backend=bk.name
            ) as ph:
                results, errors = run(ph)
    finally:
        if owned:
            bk.close()
    for err in errors:
        if err is not None:
            raise err
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - defensive
        raise RuntimeError(f"blocks not coded: {missing}")
    return list(results)


def parallel_decode_blocks(
    blocks: Sequence[Tuple[bytes, Tuple[int, int], str, int, Optional[int]]],
    n_workers: int = 1,
    on_error: str = "raise",
    stats=None,
    tracer=None,
    metrics=None,
    backend=None,
) -> List[Optional[Tuple["np.ndarray", int]]]:
    """Tier-1 decode every block on a worker pool (decoder-side twin of
    :func:`parallel_encode_blocks`).

    ``blocks`` are ``(data, shape, orient, n_planes, n_passes)`` tuples,
    dealt to workers by predicted cost (segment bytes, longest first);
    results return in input order.  Code-block *decoding* is just as
    independent as encoding -- the extension study
    (``repro.experiments.ext_decoder``) quantifies the resulting scaling.

    ``on_error`` controls fault isolation.  ``"raise"`` (default)
    propagates the first per-block exception -- but only after every
    worker has drained its share, so one poisoned block cannot leave the
    pool in a half-finished state.  ``"conceal"`` captures per-block
    exceptions and returns ``None`` in that block's slot; the caller
    zero-fills.  Either way the outcome is identical for any
    ``n_workers`` and any ``backend``, because capture happens per task,
    not per worker (the process backend ships the exception back to the
    parent).

    Concealment accounting happens *here*, where the failures are
    observed: ``stats`` (a :class:`~repro.codec.resilience.TileStats`
    or anything with a ``blocks_concealed`` attribute) has each
    concealed block added to it, and ``metrics`` (a
    :class:`~repro.obs.MetricsRegistry`) gets the
    ``repro_blocks_concealed_total`` counter incremented, so the
    resilience reports and scraped metrics always agree.  ``tracer``
    records one ``tier-1 decode pool`` phase with a per-block task
    (failed blocks are tagged ``concealed``).
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if on_error not in ("raise", "conceal"):
        raise ValueError(f"on_error must be 'raise' or 'conceal', got {on_error!r}")
    bk, owned = resolve_backend(backend, n_workers)
    try:
        blocks = list(blocks)

        def run(ph):
            shares = _deal(blocks, _decode_cost, bk.n_workers)
            return bk.map_shares("decode", shares, len(blocks), ph=ph, label="cb")

        if tracer is None:
            results, errors = run(None)
        else:
            with tracer.phase(
                "tier-1 decode pool", n_blocks=len(blocks), backend=bk.name
            ) as ph:
                results, errors = run(ph)
    finally:
        if owned:
            bk.close()

    if on_error == "raise":
        for err in errors:
            if err is not None:
                raise err
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - defensive
            raise RuntimeError(f"blocks not decoded: {missing}")
        return list(results)

    concealed = sum(1 for err in errors if err is not None)
    if concealed:
        if stats is not None:
            stats.blocks_concealed += concealed
        if metrics is not None:
            metrics.counter(
                "repro_blocks_concealed_total",
                "code-blocks concealed (zero-filled)",
            ).inc(concealed)
    return list(results)


def parallel_quantize(
    coeffs: np.ndarray, step: float, n_workers: int = 1, tracer=None, backend=None
) -> np.ndarray:
    """Dead-zone quantization with coefficient chunks across workers.

    "Every processor may have a chunk of coefficients from the wavelet
    transform which it has to quantize" (Sec. 3.3).  ``tracer`` records
    one ``quantization chunks`` phase with a task per chunk; ``backend``
    selects the execution backend (default: ``serial``).
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    flat = np.ascontiguousarray(coeffs).reshape(-1)
    out = np.empty(flat.shape, dtype=np.int32)
    bk, owned = resolve_backend(backend, n_workers)
    try:
        ranges = _split_ranges(flat.size, bk.n_workers)

        def run(ph):
            bk.sweep(
                "quantize", (flat,), (out,), ranges, {"step": step},
                ph=ph, label="chunk", size_attr="samples",
            )

        if tracer is None:
            run(None)
        else:
            with tracer.phase(
                "quantization chunks", samples=flat.size, backend=bk.name
            ) as ph:
                run(ph)
    finally:
        if owned:
            bk.close()
    return out.reshape(coeffs.shape)

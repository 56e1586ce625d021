"""Real parallel tier-1: the paper's code-block worker pool (Sec. 3.3).

:func:`parallel_encode_blocks` / :func:`parallel_decode_blocks` run
tier-1 over a worker pool, code-blocks dealt to workers by predicted
cost (longest processing time first).  Each takes a ``backend`` -- a
name from :data:`repro.core.backend.BACKEND_NAMES` or a live
:class:`~repro.core.backend.ExecutionBackend` -- selecting *how* the
shares execute: ``serial`` in the calling thread (the default), or
``processes`` on a process pool.  Results are bit-identical across
backends and worker counts (the differential harness in
``tests/test_backends_differential.py`` holds both to byte-identical
codestreams).

The DWT has one code path, :func:`repro.wavelet.dwt2d` /
:func:`~repro.wavelet.idwt2d`, on every backend: a sweep round trip
through a pool cost more than the whole transform.  The paper's
parallel DWT (Sec. 3.2) is reproduced by the simulator only
(:mod:`repro.smp`), and all *simulated* speedup numbers in the
experiments come from that deterministic SMP model, whose tier-1 pool
keeps the paper's staggered round robin (see DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ebcot.t1 import EncodedBlock
from ..smp.pool import longest_processing_time
from ..wavelet.dwt2d import dwt2d, idwt2d
from .backend import resolve_backend

__all__ = [
    "parallel_encode_blocks",
    "parallel_decode_blocks",
]

# perfbench patches these two names by string; its next change drops them.
parallel_dwt2d = dwt2d
parallel_idwt2d = idwt2d


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


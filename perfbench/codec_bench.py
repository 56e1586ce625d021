"""codec-serial and codec-procs: library encode and progressive decode.

Each input is encoded, then decoded progressively (quality layer 0,
then all layers), interleaved input by input, for the number of whole
cycles over the input list that comes closest to ``seconds``; whole
cycles keep every run's mix of inputs the same.  codec-serial calls the
library with no backend; codec-procs passes one warm
``ProcessesBackend`` of ``N_WORKERS`` workers to every call.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import decode_image, encode_image
from repro.core.backend import get_backend

from .common import Tally, percentile, peak_rss_mb, ref_loop_s, stratified_median
from .inputs import CODEC_PARAMS, Case, codec_cases, pooled_psnr, warmup_image
from .spans import Recorder

#: Pool size of codec-procs (the 2-vCPU reference host has 2 CPUs).
N_WORKERS = 2
#: Side of the square image every set-up warms the ops with.
WARMUP_SIDE = 64


def open_backend(workload: str):
    return get_backend("processes", N_WORKERS) if workload == "codec-procs" else None


def warm_ops(backend, image: np.ndarray) -> float:
    """Run each op once (pool start included); returns the encode's seconds."""
    kw = {"backend": backend} if backend is not None else {}
    t0 = time.perf_counter()
    data = encode_image(image, CODEC_PARAMS, **kw).data
    seconds = time.perf_counter() - t0
    decode_image(data, max_layer=0, **kw)
    decode_image(data, **kw)
    return seconds


def _decode_op(case: Case, kw) -> Tuple[np.ndarray, np.ndarray]:
    return (decode_image(case.data, max_layer=0, **kw), decode_image(case.data, **kw))


def run(workload: str, seed: int, seconds: float, trace: bool,
        corrupt: bool = False) -> Tuple[Tally, Dict[str, float], Dict[str, float], Optional[Recorder]]:
    """Returns ``(tally, end-to-end figures, context figures, recorder)``."""
    ref_start = ref_loop_s()
    t_oracle = time.perf_counter()
    cases, table = codec_cases(seed)
    oracle_s = time.perf_counter() - t_oracle
    if corrupt:
        cases[0].full[0, 0] ^= 1
    backend = open_backend(workload)
    kw = {"backend": backend} if backend is not None else {}
    tally = Tally()
    enc_rates: List[Tuple[int, float]] = []   # (input, Mpix/s)
    dec_rates: List[Tuple[int, float]] = []
    latencies: List[float] = []
    decoded: List[Tuple[np.ndarray, np.ndarray]] = []
    rec = Recorder(table) if trace else None
    try:
        warm = warmup_image(WARMUP_SIDE)
        first = warm_ops(backend, warm)
        pool_start = max(0.0, first - warm_ops(backend, warm)) if backend is not None else 0.0
        if rec is not None:
            rec.install(serial_t1=backend is None, serve_ops=False)
        try:
            start = time.perf_counter()
            cycle = 0
            while cycle == 0 or _another_cycle(time.perf_counter() - start, cycle, seconds):
                for i, case in enumerate(cases):
                    traced = rec is not None and (i + cycle) % 2 == 1
                    enc_s, out = _timed(rec, "encode", case.pixels, traced,
                                        lambda: encode_image(case.image, CODEC_PARAMS, **kw).data)
                    if isinstance(out, Exception):
                        tally.fail(f"encode {i}: {type(out).__name__}: {out}")
                    elif out != case.data:
                        tally.fail(f"encode {i}: codestream differs from the oracle")
                    else:
                        tally.ok()
                        enc_rates.append((i, case.pixels / enc_s / 1e6))
                    dec_s, out = _timed(rec, "decode", case.pixels, traced,
                                        lambda: _decode_op(case, kw))
                    if isinstance(out, Exception):
                        tally.fail(f"decode {i}: {type(out).__name__}: {out}")
                    elif not (np.array_equal(out[0], case.layer0)
                              and np.array_equal(out[1], case.full)):
                        tally.fail(f"decode {i}: image differs from the oracle")
                    else:
                        tally.ok()
                        dec_rates.append((i, case.pixels / dec_s / 1e6))
                        latencies.append(enc_s + dec_s)
                        if cycle == 0:
                            decoded.append((case.image, out[1]))
                cycle += 1
        finally:
            if rec is not None:
                rec.uninstall()
    finally:
        if backend is not None:
            backend.close()
    workers = N_WORKERS if backend is not None else 1
    rss = peak_rss_mb(workers)
    context = {"workers": workers, "oracle_s": oracle_s, "cycles": cycle,
               "host.ref_loop_s": (ref_start + ref_loop_s()) / 2.0,
               "core.pool_start_s": pool_start,
               "encode_rates": [round(r, 6) for _, r in enc_rates],
               "decode_rates": [round(r, 6) for _, r in dec_rates]}
    if tally.failed:
        return tally, {}, context, rec
    e2e = {
        "encode_mpix_per_s": stratified_median(enc_rates),
        "decode_mpix_per_s": stratified_median(dec_rates),
        "psnr_db": pooled_psnr(decoded),
        "req_p50_s": percentile(latencies, 0.50),
        "req_p90_s": percentile(latencies, 0.90),
        "peak_rss_mb": rss,
    }
    return tally, e2e, context, rec


def _another_cycle(elapsed: float, cycles: int, seconds: float) -> bool:
    """Whole cycles only, as many as brings the run closest to ``seconds``."""
    return elapsed + 0.5 * elapsed / cycles < seconds


def _timed(rec: Optional[Recorder], kind: str, pixels: int, traced: bool, fn):
    """``(seconds, result or exception)`` of one op, as an op span when traced."""
    op = rec.op_begin(kind, pixels, traced) if rec is not None else None
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # counted as a failed op by the caller
        out = exc
    seconds = time.perf_counter() - t0
    if op is not None:
        rec.op_end(op)
    return seconds, out

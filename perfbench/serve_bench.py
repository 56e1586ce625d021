"""serve-open: open-loop encode/decode requests over TCP to a CodecServer.

One in-process ``CodecServer`` (one pool with the serial backend, so
each request runs in the server's executor thread) listens on
localhost; one ``CodecClient`` connection carries every request.  Request ``k`` is due ``k / RATE`` seconds after
the start whether or not earlier replies have arrived, and its latency
runs from that due time to its reply, so a stall of the generator or of
the event loop shows up in the latency of every request it delays.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve import CodecClient, CodecServer, Completed, Rejected, ServeConfig

from .common import Tally, percentile, peak_rss_mb, ref_loop_s, stratified_median
from .inputs import SERVE_PARAMS, Case, pooled_psnr, serve_cases, serve_schedule, warmup_image
from .spans import Recorder

#: The server's pool.  A small request on a 2-worker processes pool
#: makes ~30 round trips to the workers, and their cost follows the
#: host's wake-up latency: service p50 moved 0.05-0.10 s between runs
#: and req_p50_s spread 0.31 over ten seeds.  The pool workloads are
#: measured on codec-procs.
BACKEND = "serial"
N_WORKERS = 1
#: Offered load, requests per second.  The host's speed moves by up to
#: 2.5x between phases: the closed-loop capacity of this server shape
#: over the same mix is ~18 requests/s on a 2-vCPU KVM guest in a fast
#: phase and ~7 in a slow one.  Requests are evenly spaced, so none
#: queues while the largest (96 px: ~0.09 s of service in a fast phase,
#: ~0.23 s in a slow one) takes less than the 0.33 s spacing.  At 6
#: requests/s a slow phase queued them and moved p50 by 6x.
RATE = 3.0
#: Fewest requests in a run: the p90 latency then has ten samples beyond it.
MIN_REQUESTS = 100
#: Side of the square image every set-up warms the ops with.
WARMUP_SIDE = 32
#: Time allowed for the last replies after the schedule ends.
DRAIN_TIMEOUT_S = 60.0


@contextlib.asynccontextmanager
async def connected():
    """A started server listening on localhost and one connected client."""
    server = CodecServer(ServeConfig(backend=BACKEND, workers=N_WORKERS, pools=1))
    await server.start()
    client = None
    try:
        host, port = await server.serve_tcp()
        client = CodecClient(host, port)
        await client.connect()
        yield client
    finally:
        if client is not None:
            await client.close()
        await server.stop()


async def warm_ops(client: CodecClient, image: np.ndarray) -> float:
    """One encode and one decode request; returns the encode's seconds."""
    t0 = time.perf_counter()
    enc = await client.request("encode", image, SERVE_PARAMS)
    seconds = time.perf_counter() - t0
    if not isinstance(enc, Completed):
        raise RuntimeError(f"warm-up encode failed: {enc}")
    dec = await client.request("decode", enc.value, {})
    if not isinstance(dec, Completed):
        raise RuntimeError(f"warm-up decode failed: {dec}")
    return seconds


@dataclass
class Sample:
    op: str
    case: int
    late: float        # send start minus due time
    latency: float     # reply time minus due time
    result: Any


async def _request(client: CodecClient, cases: List[Case], op: str,
                   idx: int, due: float) -> Sample:
    late = time.perf_counter() - due
    case = cases[idx]
    if op == "encode":
        result = await client.request("encode", case.image, SERVE_PARAMS)
    else:
        result = await client.request("decode", case.data, {})
    return Sample(op, idx, late, time.perf_counter() - due, result)


async def _open_loop(client: CodecClient, cases: List[Case],
                     schedule: List[Tuple[float, str, int]]) -> List[Sample]:
    start = time.perf_counter()
    tasks = []
    for offset, op, idx in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_request(client, cases, op, idx, due)))
    return await asyncio.wait_for(asyncio.gather(*tasks), DRAIN_TIMEOUT_S)


async def _session(cases, schedule, rec: Optional[Recorder]):
    async with connected() as client:
        warm = warmup_image(WARMUP_SIDE)
        first = await warm_ops(client, warm)
        pool_start = max(0.0, first - await warm_ops(client, warm))
        if rec is not None:
            rec.install(serial_t1=True, serve_ops=True)
        try:
            samples = await _open_loop(client, cases, schedule)
        finally:
            if rec is not None:
                rec.uninstall()
        return samples, client.stats_dict(), pool_start


def run(workload: str, seed: int, seconds: float, trace: bool,
        corrupt: bool = False):
    """Returns ``(tally, end-to-end figures, context figures, recorder)``."""
    ref_start = ref_loop_s()
    t_oracle = time.perf_counter()
    cases, table = serve_cases(seed)
    oracle_s = time.perf_counter() - t_oracle
    if corrupt:
        cases[0].full[0, 0] ^= 1
    schedule = serve_schedule(seed, RATE, seconds, MIN_REQUESTS)
    rec = Recorder(table) if trace else None
    samples, stats, pool_start = asyncio.run(_session(cases, schedule, rec))
    rss = peak_rss_mb(0)  # no worker processes

    tally = Tally()
    latencies: List[float] = []
    rates: Dict[str, List[Tuple[int, float]]] = {"encode": [], "decode": []}
    op_lat: Dict[str, List[float]] = {"encode": [], "decode": []}
    waits: List[float] = []
    services: List[float] = []
    wires: List[float] = []
    batches: List[int] = []
    decoded = []
    shed = 0
    for s in samples:
        case = cases[s.case]
        res = s.result
        if isinstance(res, Rejected):
            shed += 1
            tally.fail(f"request {s.op} {s.case}: shed ({res.reason})")
        elif not isinstance(res, Completed):
            tally.fail(f"request {s.op} {s.case}: {type(res.error).__name__}: {res.error}")
        elif s.op == "encode" and res.value != case.data:
            tally.fail(f"request encode {s.case}: codestream differs from the oracle")
        elif s.op == "decode" and not np.array_equal(res.value, case.full):
            tally.fail(f"request decode {s.case}: image differs from the oracle")
        else:
            tally.ok()
            latencies.append(s.latency)
            op_lat[s.op].append(s.latency)
            rates[s.op].append((s.case, case.pixels / s.latency / 1e6))
            waits.append(res.queue_wait)
            services.append(res.service_seconds)
            wires.append(s.latency - res.queue_wait - res.service_seconds)
            batches.append(res.batch_size)
            if s.op == "decode":
                decoded.append((case.image, res.value))
            continue
        latencies.append(float("inf"))
    context = {
        "workers": N_WORKERS,
        "oracle_s": oracle_s,
        "requests": len(samples),
        "host.ref_loop_s": (ref_start + ref_loop_s()) / 2.0,
        "core.pool_start_s": pool_start,
        "serve.queue_wait_p50_s": percentile(waits, 0.50),
        "serve.queue_wait_p90_s": percentile(waits, 0.90),
        "serve.service_p50_s": percentile(services, 0.50),
        "serve.wire_p50_s": percentile(wires, 0.50),
        "serve.batch_size_mean": sum(batches) / len(batches) if batches else 0.0,
        "serve.shed": shed,
        "serve.client_retries": stats["retries"],
        "serve.encode_p50_s": percentile(op_lat["encode"], 0.50),
        "serve.decode_p50_s": percentile(op_lat["decode"], 0.50),
        "serve.gen_late_max_s": max(s.late for s in samples),
    }
    if tally.failed:
        return tally, {}, context, rec
    e2e = {
        "encode_mpix_per_s": stratified_median(rates["encode"]),
        "decode_mpix_per_s": stratified_median(rates["decode"]),
        "psnr_db": pooled_psnr(decoded),
        "req_p50_s": percentile(latencies, 0.50),
        "req_p90_s": percentile(latencies, 0.90),
        "peak_rss_mb": rss,
    }
    return tally, e2e, context, rec

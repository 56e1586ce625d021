"""`CodecServer`: asyncio admission-controlled batch codec service.

Request path::

    submit()/TCP line --> AdmissionQueue.offer()   (shed: queue-full,
          |                                         expired, shutdown)
          v
    batcher task: semaphore(pools) permit -> take(max_batch)
          |            (expired-while-queued requests shed here,
          |             in arrival order, before anything runs)
          v
    executor thread: execute_batch() on one checked-out WarmPool
          |            (per-request call_deadline on the supervised
          |             backend; worker death degrades, never drops)
          v
    event loop: _finish_batch() -> futures resolved, metrics counted

The semaphore is sized to the pool count, so when every pool is busy
the batcher stops draining and the admission queue *actually fills* --
that is what turns overload into explicit ``Rejected("queue-full")``
replies instead of an invisible unbounded backlog.  All metric updates
happen on the event loop (the registry's counters are plain ``+=``).

The TCP front door speaks JSON lines: one request object per line in,
one reply object per line out (``id`` echoes back; replies may
interleave across in-flight requests of one connection).  See
``image_to_wire``/``params_from_wire`` for the payload encoding.

Wire robustness (the exactly-once protocol):

* frames are bounded by ``max_frame`` -- an oversized frame is drained
  and answered with an explicit ``frame-too-large`` error while the
  connection stays alive (no more asyncio ``LimitOverrunError``
  killing the socket);
* unparseable frames (corruption, non-UTF-8 bytes) answer an error
  flagged ``retryable`` so a resilient client retries them, while
  deterministic verdicts (codec errors, unknown ops) are not;
* a request carrying an ``idem`` key is routed through the
  :class:`~repro.serve.replay.ReplayCache`: a retry of a finished
  request is answered from the cache (``replayed: true``), a retry of
  an *in-flight* request joins the original execution -- either way
  the codec runs at most once per key within the replay TTL.
"""

from __future__ import annotations

import asyncio
import base64
import gc
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..codec import CodecParams
from ..core.backend import BACKEND_NAMES
from ..core.supervise import SupervisionPolicy
from .admission import (
    SHED_REASONS,
    AdmissionQueue,
    Completed,
    Failed,
    Rejected,
    Request,
)
from .batching import PoolSet, execute_batch
from .replay import ReplayCache

__all__ = [
    "CodecServer",
    "ServeConfig",
    "image_from_wire",
    "image_to_wire",
    "params_from_wire",
    "wire_reply",
]

#: Latency-flavoured histogram buckets (seconds).
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Socket read granularity for the manually framed TCP front door.
_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class ServeConfig:
    """Server shape: pools, admission limits, batching knobs.

    ``default_deadline`` (seconds, relative) applies to requests that
    do not bring their own; ``batch_window`` is how long the batcher
    waits for stragglers once it holds a pool and the queue is shorter
    than ``max_batch`` (0 = dispatch immediately).

    Wire-protocol knobs: ``max_frame`` bounds one JSON-lines frame
    (oversized frames answer ``frame-too-large`` without killing the
    connection); ``replay_ttl``/``replay_cap`` bound the idempotent
    replay cache; ``track_executions`` keeps per-key execution counts
    on the cache (test/diagnostic only -- the dict grows with the key
    space).

    ``backend`` names the execution backend of every warm pool
    (``serial``, the default, or ``processes``).
    """

    backend: str = "serial"
    workers: int = 2
    pools: int = 1
    queue_depth: int = 64
    max_batch: int = 4
    batch_window: float = 0.0
    default_deadline: Optional[float] = None
    supervision: Optional[SupervisionPolicy] = None
    max_frame: int = 1 << 23
    replay_ttl: float = 60.0
    replay_cap: int = 1024
    track_executions: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"options: {', '.join(BACKEND_NAMES)}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.pools < 1:
            raise ValueError("pools must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive (or None)")
        if self.max_frame < 1024:
            raise ValueError("max_frame must be >= 1024 bytes")
        if self.replay_ttl <= 0:
            raise ValueError("replay_ttl must be positive")
        if self.replay_cap < 1:
            raise ValueError("replay_cap must be >= 1")


class CodecServer:
    """Admission-controlled batching front-end over warm codec pools."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        metrics=None,
        tracer=None,
        clock: Callable[[], float] = time.monotonic,
        wrap_backend=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics
        self.tracer = tracer
        self.clock = clock
        self.wrap_backend = wrap_backend
        self.queue = AdmissionQueue(self.config.queue_depth, clock=clock)
        self.replay = ReplayCache(
            cap=self.config.replay_cap, ttl=self.config.replay_ttl,
            clock=clock, track_executions=self.config.track_executions,
        )
        self._ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pools: Optional[PoolSet] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._arrived: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._conns: set = set()  # _handle_conn tasks inside their read loop
        self._tcp_servers: List[asyncio.AbstractServer] = []
        self._stopping = False
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._pools = PoolSet(
            cfg.backend, cfg.workers, cfg.pools,
            policy=cfg.supervision, metrics=self.metrics,
            clock=self.clock, wrap=self.wrap_backend,
        )
        self._slots = asyncio.Semaphore(cfg.pools)
        self._arrived = asyncio.Event()
        self._stopping = False
        self._batcher = asyncio.create_task(self._batch_loop())
        self._started = True
        # Move the start-up heap (imports, pools, codec tables) out of
        # the collector's reach: a full collection scanning it cost
        # 26-30 ms, landing inside whichever request was running.
        gc.freeze()

    async def stop(self) -> None:
        """Drain and shut down: queued requests answer ``shutdown``,
        in-flight batches finish normally, open connections flush their
        replies and close, pools close."""
        if not self._started:
            return
        self._stopping = True
        drained = self.queue.close()
        for req, rejection in drained:
            self._resolve(req, rejection)
        self._arrived.set()
        for srv in self._tcp_servers:
            srv.close()
        # A connection the client left open would otherwise keep its
        # handler parked in ``reader.read`` past the end of the loop.
        conns = list(self._conns)
        for task in conns:
            task.cancel()
        await self._batcher
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if conns:
            await asyncio.gather(*conns, return_exceptions=True)
        for srv in self._tcp_servers:
            await srv.wait_closed()
        self._tcp_servers.clear()
        self._pools.close()
        self._started = False
        gc.unfreeze()

    async def __aenter__(self) -> "CodecServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def pool_reports(self):
        """``[(pool_name, SupervisionReport)]`` for every warm pool."""
        return [] if self._pools is None else self._pools.reports()

    # -- in-process API ------------------------------------------------------

    async def submit(
        self,
        op: str,
        payload: Any,
        params: Any = None,
        deadline: Optional[float] = None,
    ):
        """Submit one job; returns ``Completed | Rejected | Failed``.

        ``deadline`` is a relative budget in seconds (falls back to
        ``config.default_deadline``); it covers queueing *and* service.
        """
        if not self._started:
            raise RuntimeError("server is not running (call start())")
        if op not in ("encode", "decode"):
            raise ValueError(f"op must be 'encode' or 'decode', not {op!r}")
        budget = deadline if deadline is not None else self.config.default_deadline
        abs_deadline = None if budget is None else self.clock() + budget
        request = Request(
            next(self._ids), op, payload, params, deadline=abs_deadline,
            future=self._loop.create_future(),
        )
        self._count("requests", "Requests offered to the codec server.")
        rejection = self.queue.offer(request)
        self._gauge_depth()
        if rejection is not None:
            self._resolve(request, rejection)
        else:
            self._arrived.set()
        return await request.future

    # -- batcher -------------------------------------------------------------

    async def _batch_loop(self) -> None:
        cfg = self.config
        while True:
            if self.queue.depth == 0:
                if self._stopping:
                    break
                try:
                    await asyncio.wait_for(self._arrived.wait(), timeout=0.05)
                except asyncio.TimeoutError:
                    # Idle sweep: queued deadlines must not wait for the
                    # next arrival to be honoured.
                    self._resolve_shed(self.queue.shed_expired())
                    continue
                self._arrived.clear()
                continue
            # One permit per pool: while every pool is busy the queue
            # backs up and overload sheds at the door.
            await self._slots.acquire()
            try:
                if cfg.batch_window > 0 and self.queue.depth < cfg.max_batch:
                    await asyncio.sleep(cfg.batch_window)
                batch, shed = self.queue.take(cfg.max_batch)
            except BaseException:
                self._slots.release()
                raise
            self._resolve_shed(shed)
            self._gauge_depth()
            if not batch:
                self._slots.release()
                continue
            pool = self._pools.acquire()
            fut = self._loop.run_in_executor(
                self._pools.executor, execute_batch, pool, batch,
                self.clock, self.tracer,
            )
            task = asyncio.ensure_future(self._finish_batch(pool, batch, fut))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _finish_batch(self, pool, batch, fut) -> None:
        try:
            results = await fut
        except Exception as exc:
            # Executor-level failure (not a codec error -- those are
            # captured per request): answer everyone explicitly.
            results = [(req, Failed(exc, 0.0, 0.0, len(batch))) for req in batch]
        finally:
            self._pools.release(pool)
            self._slots.release()
        self._observe("batch_size", "Requests per dispatched batch.",
                      len(batch), _BATCH_BUCKETS)
        for req, result in results:
            self._resolve(req, result)

    # -- result + metrics plumbing (event loop only) -------------------------

    def _resolve_shed(self, shed) -> None:
        for req, rejection in shed:
            self._resolve(req, rejection)

    def _resolve(self, request: Request, result) -> None:
        self._count("replies", "Requests answered (any verdict).")
        if isinstance(result, Rejected):
            self._count("shed", "Requests shed with an explicit Rejected.")
            if result.reason in SHED_REASONS:
                slug = result.reason.replace("-", "_")
                self._count(f"shed_{slug}", f"Requests shed: {result.reason}.")
        elif isinstance(result, Failed):
            self._count("errors", "Requests answered with a codec error.")
        elif isinstance(result, Completed):
            self._observe("queue_wait_seconds",
                          "Seconds queued before dispatch.",
                          result.queue_wait, _LATENCY_BUCKETS)
            self._observe("request_seconds",
                          "Service seconds (codec work, per request).",
                          result.service_seconds, _LATENCY_BUCKETS)
        if request.future is not None and not request.future.done():
            request.future.set_result(result)

    def _count(self, name: str, help: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"repro_serve_{name}_total", help).inc()

    def _observe(self, name: str, help: str, value: float, buckets) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                f"repro_serve_{name}", help, buckets=buckets
            ).observe(value)

    def _gauge_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_serve_queue_depth", "Admission queue depth."
            ).set(self.queue.depth)

    def _gauge_replay(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_serve_replay_entries", "Cached replayable replies."
            ).set(len(self.replay))

    # -- TCP/JSON-lines front door -------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> Tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        if not self._started:
            raise RuntimeError("start() the server before serve_tcp()")
        srv = await asyncio.start_server(self._handle_conn, host, port)
        self._tcp_servers.append(srv)
        addr = srv.sockets[0].getsockname()
        return addr[0], addr[1]

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Manually framed read loop: never trusts ``readline``'s
        buffer limit (an overrun would kill the connection), bounds
        frames at ``config.max_frame`` itself, and keeps serving the
        connection after an oversized or malformed frame.  Cancellation
        by :meth:`stop` ends the connection like a client hang-up."""
        me = asyncio.current_task()
        self._conns.add(me)
        write_lock = asyncio.Lock()
        tasks: set = set()
        max_frame = self.config.max_frame
        buf = bytearray()
        discarding = False
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    if buf and not discarding:
                        # Trailing frame without a newline before EOF.
                        self._spawn_line(bytes(buf), writer, write_lock,
                                         tasks)
                    break
                buf += chunk
                while True:
                    nl = buf.find(b"\n")
                    if nl < 0:
                        if discarding:
                            buf.clear()  # still inside the oversized frame
                        elif len(buf) > max_frame:
                            discarding = True
                            buf.clear()
                            await self._reply_frame_too_large(
                                writer, write_lock)
                        break
                    line = bytes(buf[:nl])
                    del buf[: nl + 1]
                    if discarding:
                        discarding = False  # the monster frame finally ended
                        continue
                    if len(line) > max_frame:
                        await self._reply_frame_too_large(writer, write_lock)
                        continue
                    if line.strip():
                        self._spawn_line(line, writer, write_lock, tasks)
        except (ConnectionError, OSError):
            pass  # torn mid-frame; in-flight replies flush below
        except asyncio.CancelledError:
            if not self._stopping:
                raise
            # stop() cancelled the read: in-flight replies flush below.
        finally:
            # Out of the read loop: stop() must not cancel the flush.
            self._conns.discard(me)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer went away first; nothing left to flush

    def _spawn_line(self, line: bytes, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, tasks: set) -> None:
        task = asyncio.ensure_future(
            self._handle_line(line, writer, write_lock)
        )
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def _reply_frame_too_large(self, writer: asyncio.StreamWriter,
                                     write_lock: asyncio.Lock) -> None:
        self._count("frame_too_large",
                    "Frames rejected for exceeding max_frame.")
        await self._write_reply(writer, write_lock, {
            "id": None, "status": "error",
            "error": f"frame-too-large: frames are capped at "
                     f"{self.config.max_frame} bytes",
            "retryable": False,
        })

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock) -> None:
        rid = None
        try:
            msg = json.loads(line)
            rid = msg.get("id")
            reply = await self._dispatch_wire(msg)
        except Exception as exc:
            # Reaching here means the frame (not the codec) failed --
            # corruption, truncation, bad fields.  Flag it retryable:
            # the client's next attempt may arrive intact.
            self._count("wire_errors",
                        "Frames answered with a wire-level error.")
            reply = {"id": rid, "status": "error",
                     "error": f"{type(exc).__name__}: {exc}",
                     "retryable": True}
        await self._write_reply(writer, write_lock, reply)

    async def _write_reply(self, writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock,
                           reply: Dict[str, Any]) -> None:
        async with write_lock:
            try:
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # reply unroutable; the request itself completed

    async def _dispatch_wire(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        rid = msg.get("id")
        op = msg.get("op")
        deadline = msg.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
        if op == "ping":
            return {"id": rid, "status": "ok", "pong": True}
        if op not in ("encode", "decode"):
            return {"id": rid, "status": "error",
                    "error": f"unknown op {op!r}"}
        key = msg.get("idem")
        executing = False
        if key is not None:
            key = str(key)
            verdict, found = self.replay.begin(key)
            if verdict == "cached":
                self._count("replay_hits",
                            "Retried requests answered without re-executing.")
                self._count("replay_cached",
                            "Replay hits served from the finished cache.")
                return dict(found, id=rid, replayed=True)
            if verdict == "joined":
                self._count("replay_hits",
                            "Retried requests answered without re-executing.")
                self._count("replay_joined",
                            "Replay hits joined to an in-flight execution.")
                reply = await found
                return dict(reply, id=rid, replayed=True)
            executing = True
        try:
            if op == "encode":
                payload = image_from_wire(msg["image"])
                params = params_from_wire(msg.get("params") or {})
                result = await self.submit("encode", payload, params,
                                           deadline=deadline)
            else:
                payload = base64.b64decode(msg["data_b64"])
                kwargs: Dict[str, Any] = {}
                if msg.get("max_layer") is not None:
                    kwargs["max_layer"] = int(msg["max_layer"])
                result = await self.submit("decode", payload, kwargs,
                                           deadline=deadline)
        except BaseException as exc:
            if executing:
                # Joined retries must not hang on a parse failure: hand
                # them the same (retryable) error, cache nothing.
                self.replay.abort(key, {
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "retryable": True,
                })
            raise
        reply = wire_reply(rid, op, result)
        if executing:
            # Only actual codec work (Completed/Failed, both
            # deterministic re-runs) is replay-cacheable; a shed
            # executed nothing, so a retry earns a fresh admission try.
            cacheable = isinstance(result, (Completed, Failed))
            if cacheable:
                self._count("replay_stores",
                            "Idempotent executions recorded for replay.")
            self.replay.finish(
                key, {k: v for k, v in reply.items() if k != "id"},
                cache=cacheable,
            )
            self._gauge_replay()
        return reply


# ---------------------------------------------------------------------------
# Wire encoding (shared with the load generator's TCP target).
# ---------------------------------------------------------------------------

#: CodecParams fields accepted over the wire (whitelist: the wire never
#: reaches supervision policies or other object-valued fields).
_WIRE_PARAM_FIELDS = (
    "levels", "filter_name", "cb_size", "base_step", "target_bpp",
    "tile_size", "bit_depth", "resilience",
)


def image_to_wire(img: np.ndarray) -> Dict[str, Any]:
    arr = np.ascontiguousarray(img)
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data_b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def image_from_wire(d: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(d["data_b64"])
    arr = np.frombuffer(raw, dtype=np.dtype(d["dtype"]))
    return arr.reshape([int(s) for s in d["shape"]]).copy()


def params_from_wire(d: Dict[str, Any]) -> CodecParams:
    kwargs: Dict[str, Any] = {}
    for name in _WIRE_PARAM_FIELDS:
        if name in d and d[name] is not None:
            kwargs[name] = d[name]
    if "target_bpp" in kwargs:
        kwargs["target_bpp"] = tuple(float(b) for b in kwargs["target_bpp"])
    return CodecParams(**kwargs)


def wire_reply(rid: Any, op: str, result: Any) -> Dict[str, Any]:
    if isinstance(result, Completed):
        out: Dict[str, Any] = {
            "id": rid, "status": "ok",
            "queue_wait": round(result.queue_wait, 6),
            "service": round(result.service_seconds, 6),
            "batch_size": result.batch_size,
        }
        if op == "encode":
            out["data_b64"] = base64.b64encode(result.value).decode("ascii")
        else:
            out["image"] = image_to_wire(result.value)
        return out
    if isinstance(result, Rejected):
        return {"id": rid, "status": "rejected",
                "reason": result.reason, "detail": result.detail}
    return {"id": rid, "status": "error",
            "error": f"{type(result.error).__name__}: {result.error}"}

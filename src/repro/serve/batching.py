"""Warm backend pools and batch execution for the codec server.

A :class:`WarmPool` is one supervised execution backend built once and
reused for the server's whole life -- the point of the service layer is
that requests never pay pool spin-up.  :class:`PoolSet` owns ``N`` such
pools plus the thread executor that drives them; the server checks a
pool out per batch (an :mod:`asyncio` semaphore upstream guarantees one
is free), runs the batch in an executor thread, and checks it back in.

Batching invariant: a batch *shares* a warm pool and one executor
dispatch, but every request is coded individually and sequentially on
that pool -- images are never mixed into one codestream, so each reply
is byte-identical to a direct ``encode_image``/``decode_image`` call
with the same parameters (the cross-backend identity contract carries
the rest).  Worker death inside a batch is the supervisor's problem:
the pool rebuilds/degrades and the request still gets its bytes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..codec import CodecParams, decode_image, encode_image
from ..core.backend import ExecutionBackend, get_backend
from ..core.supervise import (
    DeadlineExpired,
    SupervisionPolicy,
    SupervisionReport,
    supervised,
)
from .admission import DEADLINE, Completed, Failed, Rejected, Request

__all__ = ["PoolSet", "WarmPool", "execute_batch", "execute_request"]


class WarmPool:
    """One long-lived supervised backend serving many requests."""

    def __init__(
        self,
        name: str,
        backend: str,
        workers: int,
        policy: Optional[SupervisionPolicy] = None,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        wrap: Optional[Callable[[ExecutionBackend], ExecutionBackend]] = None,
    ) -> None:
        self.name = name
        self.backend_name = backend
        self.workers = workers
        self._inner = get_backend(backend, workers)
        wrapped = self._inner if wrap is None else wrap(self._inner)
        self.backend = supervised(
            wrapped, policy=policy, metrics=metrics, owns_inner=True,
            clock=clock,
        )

    @property
    def report(self) -> SupervisionReport:
        return self.backend.report

    def close(self) -> None:
        self.backend.close()


class PoolSet:
    """``N`` warm pools + the executor threads that drive them.

    The free list is a plain locked deque: the server only acquires
    after winning a semaphore permit sized to ``len(pools)``, so
    ``acquire`` never blocks and an empty free list is a logic error.
    """

    def __init__(
        self,
        backend: str,
        workers: int,
        pools: int,
        policy: Optional[SupervisionPolicy] = None,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        wrap: Optional[Callable[[ExecutionBackend], ExecutionBackend]] = None,
    ) -> None:
        if pools < 1:
            raise ValueError("need at least one pool")
        from concurrent.futures import ThreadPoolExecutor

        self.pools: List[WarmPool] = []
        for i in range(pools):
            self.pools.append(WarmPool(
                f"{backend}-w{workers}-p{i}", backend, workers,
                policy=policy, metrics=metrics, clock=clock, wrap=wrap,
            ))
        self._lock = threading.Lock()
        self._free = deque(self.pools)
        self.executor = ThreadPoolExecutor(
            max_workers=pools, thread_name_prefix="repro-serve"
        )

    def acquire(self) -> WarmPool:
        with self._lock:
            if not self._free:
                raise RuntimeError(
                    "no free warm pool (semaphore/free-list out of sync)"
                )
            return self._free.popleft()

    def release(self, pool: WarmPool) -> None:
        with self._lock:
            self._free.append(pool)

    def reports(self) -> List[Tuple[str, SupervisionReport]]:
        return [(p.name, p.report) for p in self.pools]

    def close(self) -> None:
        self.executor.shutdown(wait=True)
        for pool in self.pools:
            pool.close()


def execute_request(
    pool: WarmPool,
    request: Request,
    clock: Callable[[], float] = time.monotonic,
    tracer=None,
    batch_size: int = 1,
):
    """Serve one request on ``pool``; always returns a result object.

    The request's absolute deadline becomes the supervised backend's
    ``call_deadline`` for the duration: an already-spent budget (or one
    that runs out between retry attempts) surfaces as
    :class:`DeadlineExpired` and is answered ``Rejected("deadline")``;
    codec exceptions become :class:`Failed`.  Runs in an executor
    thread -- nothing here touches the metrics registry (the event loop
    does all counting to keep the non-atomic counters race-free).
    """
    queue_wait = max(0.0, clock() - request.enqueued)
    if request.deadline is not None and clock() >= request.deadline:
        return Rejected(DEADLINE, "expired before dispatch")
    sup = pool.backend
    sup.call_deadline = request.deadline
    t0 = clock()
    try:
        if request.op not in ("encode", "decode"):
            raise ValueError(f"unknown op {request.op!r}")
        phase = (
            tracer.phase(f"serve.{request.op}.b{batch_size}")
            if tracer is not None else nullcontext()
        )
        with phase:
            if request.op == "encode":
                params = request.params if request.params is not None else CodecParams()
                value = encode_image(
                    request.payload, params,
                    backend=sup, n_workers=pool.workers,
                ).data
            else:
                value = decode_image(
                    request.payload, backend=sup,
                    n_workers=pool.workers, **dict(request.params or {}),
                )
    except DeadlineExpired as exc:
        return Rejected(DEADLINE, str(exc))
    except Exception as exc:  # codec errors answer the request, not kill the server
        return Failed(exc, queue_wait, clock() - t0, batch_size)
    finally:
        sup.call_deadline = None
    return Completed(value, queue_wait, clock() - t0, batch_size)


def execute_batch(
    pool: WarmPool,
    batch: Sequence[Request],
    clock: Callable[[], float] = time.monotonic,
    tracer=None,
) -> List[Tuple[Request, Any]]:
    """Serve a batch sequentially on one warm pool (one thread)."""
    n = len(batch)
    return [
        (req, execute_request(pool, req, clock=clock, tracer=tracer,
                              batch_size=n))
        for req in batch
    ]

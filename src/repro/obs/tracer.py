"""Nested-span tracing for the coding pipeline.

A :class:`Tracer` collects two kinds of records:

- **Spans** -- nested, named intervals opened with ``tracer.span(name)``.
  Pipeline stages use the Fig. 3 stage names (:data:`STAGE_NAMES`) with
  ``category="stage"`` so exporters and :func:`repro.obs.amdahl_report`
  can aggregate them; anything else (a tile, a packet walk, a sweep) can
  open spans too, and nesting is tracked per thread.
- **Task records** -- per-worker work items emitted by the barrier-phase
  parallel code paths (:mod:`repro.core.parallel`,
  :class:`repro.smp.SimulatedSMP`): worker id, the task interval, the
  queue wait before the worker picked the task up, and the barrier wait
  between the task finishing and the phase's barrier releasing.  These
  make load imbalance and the serial fraction *measured* quantities.

Tracing is strictly opt-in: every instrumented call site accepts
``tracer=None`` and allocates nothing on that path.  All timestamps are
seconds relative to the tracer's epoch (its construction time), so spans
from one tracer are directly comparable; simulated timelines inject
their own timestamps via :meth:`Tracer.add_span` /
:meth:`Tracer.add_task`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "STAGE_NAMES",
    "PARALLEL_STAGES",
    "Span",
    "TaskRecord",
    "Tracer",
    "PhaseRecorder",
    "StageSwitcher",
    "stage_span",
]

#: Canonical pipeline stage order (Fig. 3's legend, bottom to top).
STAGE_NAMES = (
    "image I/O",
    "pipeline setup",
    "inter-component transform",
    "intra-component transform",
    "quantization",
    "tier-1 coding",
    "R/D allocation",
    "tier-2 coding",
    "bitstream I/O",
)

#: Stages the paper parallelizes (Secs. 3.2/3.3); everything else is the
#: inherently sequential share of the Sec. 3.4 Amdahl analysis.
PARALLEL_STAGES = frozenset(
    ("intra-component transform", "quantization", "tier-1 coding")
)


@dataclass
class Span:
    """One named interval; ``parent`` links give the nesting tree."""

    name: str
    t0: float
    t1: float = 0.0
    tid: int = 0
    depth: int = 0
    parent: Optional["Span"] = None
    category: str = ""
    parallel: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class TaskRecord:
    """One worker task inside a barrier phase."""

    worker: int
    name: str
    phase: str
    t0: float
    t1: float
    queue_wait: float = 0.0
    barrier_wait: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans and worker task records for one pipeline run."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        # Top-of-stack span/task name per thread ident, maintained so an
        # *external* observer (the sampling profiler walking
        # ``sys._current_frames()``) can attribute a sample to whatever
        # this thread is doing right now.  Plain dict writes keyed by
        # ident are atomic under the GIL; each key has a single writer.
        self._active: Dict[int, str] = {}
        self.spans: List[Span] = []
        self.tasks: List[TaskRecord] = []

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    def _tid(self) -> int:
        """Dense integer id of the calling thread (0 = first seen)."""
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        parallel: bool = False,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a nested span; closes (and records) it on exit.

        Nesting is per thread: a span opened inside another span on the
        same thread becomes its child.
        """
        stack = self._stack()
        sp = Span(
            name=name,
            t0=self.now(),
            tid=self._tid(),
            depth=len(stack),
            parent=stack[-1] if stack else None,
            category=category,
            parallel=parallel,
            attrs=dict(attrs),
        )
        stack.append(sp)
        ident = threading.get_ident()
        self._active[ident] = name
        try:
            yield sp
        finally:
            sp.t1 = self.now()
            stack.pop()
            if stack:
                self._active[ident] = stack[-1].name
            else:
                self._active.pop(ident, None)
            with self._lock:
                self.spans.append(sp)

    def add_span(
        self,
        name: str,
        t0: float,
        t1: float,
        tid: int = 0,
        category: str = "",
        parallel: bool = False,
        **attrs: Any,
    ) -> Span:
        """Record a span with explicit timestamps (simulated timelines)."""
        sp = Span(
            name=name, t0=t0, t1=t1, tid=tid,
            category=category, parallel=parallel, attrs=dict(attrs),
        )
        with self._lock:
            self.spans.append(sp)
        return sp

    def add_task(self, record: TaskRecord) -> None:
        with self._lock:
            self.tasks.append(record)

    @contextmanager
    def phase(self, name: str, **attrs: Any) -> Iterator["PhaseRecorder"]:
        """Record one barrier phase; see :class:`PhaseRecorder`."""
        rec = PhaseRecorder(self, name, **attrs)
        try:
            yield rec
        finally:
            rec.close()

    # -- queries ------------------------------------------------------------

    def active_name(self, ident: int) -> Optional[str]:
        """Name of the span/phase the thread ``ident`` is inside, if any.

        Safe to call from any thread (the sampling profiler calls it
        from its sampler thread against every thread it observes).
        """
        return self._active.get(ident)

    def stage_seconds(self) -> Dict[str, float]:
        """Wall seconds aggregated per ``category="stage"`` span name."""
        out: Dict[str, float] = {}
        for sp in self.spans:
            if sp.category == "stage":
                out[sp.name] = out.get(sp.name, 0.0) + sp.seconds
        return out

    def workers(self) -> Dict[int, List[TaskRecord]]:
        """Task records grouped by worker id, each in start order."""
        out: Dict[int, List[TaskRecord]] = {}
        for t in self.tasks:
            out.setdefault(t.worker, []).append(t)
        for records in out.values():
            records.sort(key=lambda r: r.t0)
        return out


class StageSwitcher:
    """Exception-safe sequential stage spans for straight-line code.

    For pipeline code that moves through stages without lexical nesting:
    ``switch(name)`` closes the current stage span and opens the next;
    ``finish()`` (call it from a ``finally``) closes whatever is open,
    so a mid-stage exception cannot leave a span dangling on the
    thread's stack.  With ``tracer=None`` every call is a no-op.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._cm = None

    def switch(self, name: str) -> None:
        self.finish()
        if self._tracer is not None:
            self._cm = stage_span(self._tracer, name)
            self._cm.__enter__()

    def finish(self) -> None:
        if self._cm is not None:
            cm, self._cm = self._cm, None
            cm.__exit__(None, None, None)


#: The shared no-op context of untraced stages (``nullcontext`` keeps no
#: state, so one instance serves every call site and thread).
_NO_SPAN = nullcontext()


def stage_span(tracer: Optional[Tracer], name: str):
    """Span for one Fig.-3 pipeline stage, or a no-op without a tracer.

    The zero-cost-by-default entry point for instrumented call sites:
    ``with stage_span(tracer, "tier-1 coding"): ...`` allocates nothing
    and reads no clock when ``tracer`` is ``None``.  Stages in
    :data:`PARALLEL_STAGES` are marked parallelizable for the Amdahl
    accounting; a name outside :data:`STAGE_NAMES` raises ``ValueError``.
    """
    if tracer is None:
        return _NO_SPAN
    if name not in STAGE_NAMES:
        raise ValueError(f"unknown stage {name!r}")
    return tracer.span(name, category="stage", parallel=name in PARALLEL_STAGES)


class PhaseRecorder:
    """Per-worker task recording for one barrier phase.

    Workers call :meth:`task` around each work item; :meth:`close` (at
    the barrier) back-fills every task's ``barrier_wait`` -- the time the
    finished worker idled waiting for the slowest one -- and emits the
    enclosing phase span.  Thread-safe: workers run concurrently.
    """

    def __init__(self, tracer: Tracer, name: str, **attrs: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = dict(attrs)
        self.t0 = tracer.now()
        self._lock = threading.Lock()
        self._workers: Dict[int, int] = {}
        self._tasks: List[TaskRecord] = []

    def worker_id(self, worker: Optional[int] = None) -> int:
        """Explicit worker index, or a dense per-phase thread index."""
        if worker is not None:
            return worker
        ident = threading.get_ident()
        with self._lock:
            return self._workers.setdefault(ident, len(self._workers))

    @contextmanager
    def task(
        self, name: str, worker: Optional[int] = None, **attrs: Any
    ) -> Iterator[TaskRecord]:
        w = self.worker_id(worker)
        t0 = self.tracer.now()
        rec = TaskRecord(
            worker=w,
            name=name,
            phase=self.name,
            t0=t0,
            t1=t0,
            queue_wait=t0 - self.t0,
            attrs=dict(attrs),
        )
        # Worker threads carry no span stack; publish the phase name so
        # the sampling profiler can attribute their samples.
        ident = threading.get_ident()
        active = self.tracer._active
        prev = active.get(ident)
        active[ident] = self.name
        try:
            yield rec
        finally:
            if prev is None:
                active.pop(ident, None)
            else:
                active[ident] = prev
            rec.t1 = self.tracer.now()
            with self._lock:
                self._tasks.append(rec)

    def record(
        self,
        name: str,
        worker: int,
        seconds: float,
        **attrs: Any,
    ) -> TaskRecord:
        """Append a task whose busy time was measured elsewhere.

        The process execution backend measures each slab/block inside
        the worker process (the parent cannot observe it directly) and
        reports the duration here when the future resolves; the task is
        anchored to end "now", so queue and barrier waits still come out
        of this tracer's clock.
        """
        t1 = self.tracer.now()
        t0 = t1 - max(0.0, seconds)
        rec = TaskRecord(
            worker=self.worker_id(worker),
            name=name,
            phase=self.name,
            t0=t0,
            t1=t1,
            queue_wait=max(0.0, t0 - self.t0),
            attrs=dict(attrs),
        )
        with self._lock:
            self._tasks.append(rec)
        return rec

    def close(self) -> None:
        t1 = self.tracer.now()
        with self._lock:
            tasks, self._tasks = self._tasks, []
        for rec in tasks:
            rec.barrier_wait = t1 - rec.t1
            self.tracer.add_task(rec)
        self.tracer.add_span(
            self.name, self.t0, t1, category="phase",
            n_workers=len({t.worker for t in tasks}) or 1, **self.attrs,
        )

"""Sampling profiler: span-attributed CPU self-time, worker shipping.

A :class:`SamplingProfiler` runs a daemon thread that walks
``sys._current_frames()`` at a configurable rate and, for every thread
it observes, charges one sample to

- the innermost Python function on that thread's stack (*self-time* in
  sampling terms -- the MQ coder and the lifting loops show up here
  long before any instrumentation is added to them), and
- the tracer span/phase the thread is inside
  (:meth:`repro.obs.tracer.Tracer.active_name`), so hot functions are
  attributable to the Fig.-3 stage that ran them.

Process workers are outside ``sys._current_frames()``, so the process
execution backend ships samples instead: when a profiler is
:meth:`attached <SamplingProfiler.attach>` to a
:class:`~repro.core.backend.ProcessesBackend`, every item share runs
under a worker-side :class:`FunctionSampler` and the sample
table comes back over the pipe next to the busy-seconds measurement
that already feeds the :class:`~repro.obs.tracer.TaskRecord` timeline.
:meth:`SamplingProfiler.stop` drains those tables into the merged view.

Strictly opt-in: this module is imported by nothing on the normal
encode/decode path (``repro.obs.__init__`` re-exports it lazily), the
tracer's per-thread active-name map costs two dict writes per span, and
the process backend only imports the worker-side wrappers once a
profiler has set its ``profile_hz``.  ``benchmarks/bench_obs_profile.py``
enforces the zero-import guarantee in a fresh interpreter.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .tracer import Tracer

__all__ = [
    "DEFAULT_HZ",
    "FunctionSampler",
    "SamplingProfiler",
    "frame_key",
]

#: Default sampling rate.  A prime-ish off-100 value so the sampler does
#: not phase-lock with code that itself runs on round millisecond beats.
DEFAULT_HZ = 97.0

#: Attribution bucket for samples taken outside any tracer span.
NO_SPAN = "(no span)"

#: Stdlib waiter frames: a thread sampled here is parked, not computing.
#: Matched against the ``frame_key`` module tail, they let the headline
#: tables separate busy self-time from scheduler/future idling (a
#: parent blocked on worker futures would otherwise dominate).
_IDLE_MODULES = (
    "threading.py",
    "selectors.py",
    "queue.py",
    "futures/_base.py",
    "futures/thread.py",
    "futures/process.py",
    "multiprocessing/connection.py",
    "multiprocessing/queues.py",
    "multiprocessing/pool.py",
)


def is_idle_frame(func: str) -> bool:
    """True when a ``frame_key`` string names a stdlib waiter frame."""
    mod = func.rsplit(":", 1)[0]
    return any(mod.endswith(pat) for pat in _IDLE_MODULES)


def frame_key(frame) -> str:
    """Stable short name for a frame: ``package/module.py:qualname``."""
    code = frame.f_code
    filename = code.co_filename.replace("\\", "/")
    parts = filename.rsplit("/", 2)
    tail = "/".join(parts[-2:]) if len(parts) > 1 else filename
    name = getattr(code, "co_qualname", code.co_name)
    return f"{tail}:{name}"


class _SampleTable:
    """Counts per ``(span, function)``; single-writer, merge-on-read."""

    def __init__(self) -> None:
        self.n_samples = 0
        self.counts: Dict[Tuple[str, str], int] = {}

    def add(self, span: str, func: str, n: int = 1) -> None:
        key = (span, func)
        self.counts[key] = self.counts.get(key, 0) + n

    def merge(self, other: "_SampleTable") -> None:
        self.n_samples += other.n_samples
        for key, n in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + n


class FunctionSampler:
    """In-process frame sampler with no tracer dependency.

    The worker-side half of the profiler: started around one kernel
    execution inside a process worker, it samples every thread of that
    worker process and attributes all samples to a fixed ``span`` label
    (the kernel name).  :meth:`table` returns a plain dict that pickles
    across the result pipe.
    """

    def __init__(self, hz: float = DEFAULT_HZ, span: str = NO_SPAN) -> None:
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.interval = 1.0 / hz
        self.span = span
        self._table = _SampleTable()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "FunctionSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join()

    def __enter__(self) -> "FunctionSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample(own)

    def _sample(self, own_ident: int) -> None:
        self._table.n_samples += 1
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            self._table.add(self.span, frame_key(frame))

    def table(self) -> Dict[str, Any]:
        """Picklable sample table: ``{span, n_samples, counts}``."""
        return {
            "span": self.span,
            "pid": os.getpid(),
            "n_samples": self._table.n_samples,
            "counts": {func: n for (_, func), n in self._table.counts.items()},
        }


class SamplingProfiler:
    """Span-attributed sampling profiler for one traced pipeline run.

    Usage::

        tracer = Tracer()
        prof = SamplingProfiler(tracer, hz=97)
        prof.attach(backend)          # only needed for process workers
        with prof:
            encode_image(img, params, tracer=tracer, backend=backend, ...)
        prof.top_functions(10)        # [(func, samples, fraction), ...]
        prof.by_span()                # {span/phase name: samples}
        chrome_trace(tracer, profile=prof)

    Samples are wall-clock occupancy of the innermost Python frame --
    for CPU-bound pure-Python code (this codec's hot paths) that is CPU
    self-time to within sampling error; threads blocked in a lock or
    ``wait()`` show up under the function doing the waiting.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        hz: float = DEFAULT_HZ,
        max_events: int = 100_000,
    ) -> None:
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.tracer = tracer
        self.hz = float(hz)
        self.interval = 1.0 / hz
        self.max_events = max_events
        self._table = _SampleTable()
        #: Timestamped samples for the Chrome-trace merge:
        #: ``(t_seconds, thread_ident, span, func)``.
        self.events: List[Tuple[float, int, str, str]] = []
        self.worker_tables: List[Dict[str, Any]] = []
        self._backends: List[Any] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._epoch = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()
        self.collect()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- process-worker shipping ---------------------------------------------

    def attach(self, backend) -> None:
        """Ask ``backend`` to sample inside its workers at this rate.

        A no-op for backends that run in-process (their threads are
        already visible to :func:`sys._current_frames`); the processes
        backend starts a :class:`FunctionSampler` around every kernel it
        ships and returns the table with the result.
        """
        if getattr(backend, "ships_profile_samples", False):
            backend.profile_hz = self.hz
            self._backends.append(backend)

    def collect(self) -> None:
        """Drain sample tables shipped back by attached backends."""
        for backend in self._backends:
            for table in backend.drain_profile_samples():
                self.worker_tables.append(table)
                span = f"{table.get('span', NO_SPAN)} (worker)"
                self._table.n_samples += int(table.get("n_samples", 0))
                for func, n in table.get("counts", {}).items():
                    self._table.add(span, func, int(n))

    def detach(self) -> None:
        """Stop asking attached backends for samples (drains first)."""
        self.collect()
        for backend in self._backends:
            backend.profile_hz = None
        self._backends.clear()

    # -- sampling ------------------------------------------------------------

    def now(self) -> float:
        if self.tracer is not None:
            return self.tracer.now()
        return time.perf_counter() - self._epoch

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample(own)

    def _sample(self, own_ident: int) -> None:
        t = self.now()
        self._table.n_samples += 1
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            func = frame_key(frame)
            span = NO_SPAN
            if self.tracer is not None:
                span = self.tracer.active_name(ident) or NO_SPAN
            self._table.add(span, func)
            if len(self.events) < self.max_events:
                self.events.append((t, ident, span, func))

    # -- queries -------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Sampling ticks taken (in-process plus shipped worker ticks)."""
        return self._table.n_samples

    def top_functions(
        self, n: int = 10, include_idle: bool = False
    ) -> List[Tuple[str, int, float]]:
        """Hottest functions: ``[(func, samples, fraction), ...]``.

        Fractions are of *busy* samples; stdlib waiter frames (a parent
        parked on worker futures, a pool thread between tasks) are
        excluded unless ``include_idle``.
        """
        per_func: Dict[str, int] = {}
        for (_, func), count in self._table.counts.items():
            if not include_idle and is_idle_frame(func):
                continue
            per_func[func] = per_func.get(func, 0) + count
        total = sum(per_func.values()) or 1
        ranked = sorted(per_func.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(func, c, c / total) for func, c in ranked[:n]]

    def by_span(self) -> Dict[str, int]:
        """Samples per tracer span/phase name (worker tables suffixed)."""
        out: Dict[str, int] = {}
        for (span, _), count in self._table.counts.items():
            out[span] = out.get(span, 0) + count
        return out

    def span_functions(self, span: str, n: int = 10) -> List[Tuple[str, int]]:
        """Hottest functions inside one span/phase."""
        ranked = sorted(
            ((func, c) for (s, func), c in self._table.counts.items() if s == span),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return ranked[:n]

    def summary(self, n: int = 8) -> str:
        lines = [
            f"profile: {self.n_samples} sampling tick(s) at {self.hz:g} Hz"
            + (f", {len(self.worker_tables)} worker table(s)"
               if self.worker_tables else "")
        ]
        for func, count, frac in self.top_functions(n):
            lines.append(f"  {100.0 * frac:5.1f}%  {count:>6}  {func}")
        return "\n".join(lines)

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """Trace Event Format events for the Chrome-trace merge.

        Timestamped in-process samples become thread-scoped instant
        events on their own ``pid`` row; shipped worker tables carry no
        timestamps, so they contribute one aggregated metadata event.
        """
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": f"profiler ({self.hz:g} Hz samples)"}},
        ]
        tids: Dict[int, int] = {}
        for _, ident, _, _ in self.events:
            tids.setdefault(ident, len(tids))
        for ident, tid in tids.items():
            events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                 "args": {"name": f"sampled-thread-{tid}"}}
            )
        for t, ident, span, func in self.events:
            events.append(
                {
                    "ph": "I",
                    "s": "t",
                    "pid": pid,
                    "tid": tids[ident],
                    "ts": round(t * 1e6, 3),
                    "name": func,
                    "cat": "sample",
                    "args": {"span": span},
                }
            )
        if self.worker_tables:
            merged: Dict[str, int] = {}
            for table in self.worker_tables:
                for func, n in table.get("counts", {}).items():
                    merged[func] = merged.get(func, 0) + int(n)
            events.append(
                {"ph": "M", "pid": pid, "tid": len(tids), "name": "thread_name",
                 "args": {"name": "process-workers (aggregated)",
                          "samples": merged}}
            )
        return events


# ---------------------------------------------------------------------------
# Worker-side wrappers for the processes backend.  Module-level (hence
# picklable by name) and resolved only when a profiler is attached, so
# the normal path never imports this module.
# ---------------------------------------------------------------------------


def proc_share_profiled(kernel, share, hz):
    """`repro.core.backend._proc_share` under a worker-side sampler.

    Returns ``(items, sample_table)``.
    """
    from ..core.backend import _proc_share

    sampler = FunctionSampler(hz=hz, span=kernel)
    with sampler:
        items = _proc_share(kernel, share)
    return items, sampler.table()

"""Pluggable execution backends for the real tier-1 worker pool.

The paper's tier-1 code-block worker pool (Sec. 3.3) is *structurally*
independent of how a "worker" is realized.  This module factors that
choice out of :mod:`repro.core.parallel` into two interchangeable
backends:

- ``serial``    -- everything in the calling thread (the reference and
  the implicit default).
- ``processes`` -- a :class:`~concurrent.futures.ProcessPoolExecutor`
  that runs tier-1 code-block shares (pickled out, results pickled
  back).  Under CPython's GIL this is the only backend whose workers
  play the role of the paper's SMP threads: the kernels are pure
  Python, so a thread pool ran slower than ``serial`` on every measured
  input and was removed.

The DWT does not go through a backend: :func:`repro.wavelet.dwt2d` /
:func:`~repro.wavelet.idwt2d` run in the calling process on every
backend.  A sweep round trip through the pool cost ~0.83 ms even when
empty, and a 5-level DWT makes 15 of them, so the pool's DWT lost to
the in-place one at every measured size.  The paper's parallel DWT
(Sec. 3.2) is reproduced by the simulator in :mod:`repro.smp`.

A backend carries one primitive, ``map_shares``: independent items
(code-blocks, simulated-SMP task lists) already dealt into per-worker
shares, run by a named kernel from :data:`ITEM_KERNELS`.  Per-item
exceptions are captured, so fault isolation is identical for every
backend, and both backends feed per-worker
:class:`~repro.obs.tracer.TaskRecord` timelines through an optional
:class:`~repro.obs.tracer.PhaseRecorder`, so ``amdahl_report`` and the
worker-timeline exporters can compare backends directly.  Results
are bit-identical across backends (enforced by
``tests/test_backends_differential.py``).

The execution path is a best-effort *attempt*,
:meth:`ExecutionBackend.map_shares_attempt` (the one abstract method),
that never raises on a worker failure and reports every item's outcome
in an :class:`Attempt`.  :meth:`ExecutionBackend.map_shares`, which
every call site uses, is defined once on the base class as "one
attempt without a deadline, then raise or collect";
:class:`~repro.core.supervise.SupervisedBackend` implements the attempt
as its retry loop, so supervised and unsupervised runs execute the
same code.
"""

from __future__ import annotations

import importlib
import pickle
import time
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ebcot.t1 import decode_codeblock, encode_codeblock

__all__ = [
    "BACKEND_NAMES",
    "Attempt",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessesBackend",
    "WorkerDeath",
    "get_backend",
    "resolve_backend",
    "resolve_item_kernel",
]


class WorkerDeath(BaseException):
    """A worker vanished mid-task while running in the calling thread.

    The chaos harness (:class:`repro.faults.FaultyBackend`) raises this
    for an injected ``kill`` fault wherever a share runs in the calling
    process -- on the ``serial`` rung or a one-worker ``processes``
    backend -- where a real ``os._exit`` would take the whole
    interpreter down.  It subclasses
    :class:`BaseException` on purpose: the per-unit fault
    capture of the in-thread attempts must *not* treat a dead worker
    like an ordinary kernel exception -- worker death aborts the attempt
    (like a ``BrokenProcessPool`` does for the process backend) instead
    of being concealed per item.
    """

#: Registered backend names, in reference -> fastest-path order.
BACKEND_NAMES = ("serial", "processes")


# ---------------------------------------------------------------------------
# Kernels.  Module-level and referenced by *name* so the process backend
# can resolve item kernels after pickling (and under the spawn start
# method), and wrappers can substitute kernels by name.
# ---------------------------------------------------------------------------


def _item_encode(payload):
    coeffs, orient = payload
    return encode_codeblock(coeffs, orient)


def _item_decode(payload):
    data, shape, orient, n_planes, n_passes = payload
    return decode_codeblock(data, shape, orient, n_planes, n_passes)


def _item_smp_cycles(payload):
    """Cost roll-up of one simulated CPU's task list: (tasks, machine)."""
    tasks, machine = payload
    cycles = ops = l1 = l2 = 0.0
    for t in tasks:
        cycles += t.cycles(machine)
        ops += t.ops
        l1 += t.l1_misses
        l2 += t.l2_misses
    return cycles, ops, l1, l2


#: Independent-item kernels by name.
ITEM_KERNELS = {
    "encode": _item_encode,
    "decode": _item_decode,
    "smp-cycles": _item_smp_cycles,
}


def resolve_item_kernel(name: str):
    """A registered item kernel, or a ``module:attr`` dotted reference.

    Dotted names let other modules (the chaos wrapper in
    :mod:`repro.faults`) contribute kernels without registering them
    here: the worker process resolves the module by import, which works
    under both the fork and spawn start methods.
    """
    fn = ITEM_KERNELS.get(name)
    if fn is not None:
        return fn
    if ":" in name:
        mod, attr = name.split(":", 1)
        return getattr(importlib.import_module(mod), attr)
    raise KeyError(f"unknown kernel {name!r}")


@dataclass
class Attempt:
    """Outcome of one best-effort ``map_shares`` attempt.

    Units are global item indices.  ``results`` maps every item that ran
    cleanly to its value; ``failed`` holds *kernel-level* exceptions
    (the item ran and raised).  Items in neither never finished -- the
    pool broke (``fatal``) or the deadline expired underneath them --
    and are safe to re-run because every item lands in its own result
    slot.
    """

    results: Dict[Any, Any] = field(default_factory=dict)
    failed: Dict[Any, BaseException] = field(default_factory=dict)
    #: The pool-fatal exception (``BrokenProcessPool``, :class:`WorkerDeath`);
    #: ``None`` while the pool is healthy.
    fatal: Optional[BaseException] = None
    timed_out: bool = False

    @property
    def broken(self) -> Optional[str]:
        """Why the pool died, or ``None`` when it did not."""
        if self.fatal is None:
            return None
        kind = "worker death" if isinstance(self.fatal, WorkerDeath) else "broken pool"
        return f"{kind}: {self.fatal}"


# ---------------------------------------------------------------------------
# Backend interface and the serial implementation.
# ---------------------------------------------------------------------------


class ExecutionBackend(ABC):
    """How the static parallel decomposition gets executed.

    Instances are reusable across calls (the process backend keeps its
    worker pool warm between maps) and must be :meth:`close`\\ d --
    or used as context managers -- when created directly.  The
    ``parallel_*`` entry points accept either a backend *name* (they
    create and close one per call) or a live instance (they leave its
    lifetime to the caller).
    """

    name: str = "?"

    def __init__(self, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers

    def close(self) -> None:
        """Release pooled workers (no-op for the serial backend)."""

    def rebuild(self) -> None:
        """Discard pooled workers after a failure; the next call gets a
        fresh pool.  Unlike :meth:`close`, must never block on wedged
        workers (the process backend kills them)."""
        self.close()

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_workers={self.n_workers})"

    # -- the execution primitive --------------------------------------------

    @abstractmethod
    def map_shares_attempt(
        self,
        kernel: str,
        shares: Sequence[Sequence[Tuple[int, Any]]],
        deadline: Optional[float] = None,
        ph=None,
        label: str = "cb",
    ) -> Attempt:
        """One best-effort pass of ``ITEM_KERNELS[kernel]`` over pre-dealt
        worker shares (``shares[w]`` is worker ``w``'s list of
        ``(global_index, payload)`` items).

        Never raises on a kernel failure: the outcome of every item is
        reported in the returned :class:`Attempt`, so a supervisor can
        re-run what is missing.  ``deadline`` (seconds, ``None`` = none)
        bounds the attempt -- preemptively on a pooled backend, between
        items in the calling thread; ``ph`` (a
        :class:`~repro.obs.tracer.PhaseRecorder`) receives one task
        record per item that ran, and a failed item's record carries
        ``concealed=True``."""

    # -- the call-site API: one attempt, then raise or collect --------------

    def map_shares(
        self,
        kernel: str,
        shares: Sequence[Sequence[Tuple[int, Any]]],
        n_items: int,
        ph=None,
        label: str = "cb",
    ) -> Tuple[List[Optional[Any]], List[Optional[BaseException]]]:
        """Run ``ITEM_KERNELS[kernel]`` over pre-dealt worker shares.

        Returns ``(results, errors)`` lists of length ``n_items`` aligned
        on the global index; a failed item leaves ``None`` in ``results``
        and the exception in ``errors`` (fault capture is per item on
        every backend, so concealment outcomes cannot depend on the
        backend or worker count).  A pool-fatal error propagates.
        """
        att = self.map_shares_attempt(kernel, shares, ph=ph, label=label)
        if att.fatal is not None:
            raise att.fatal
        results: List[Optional[Any]] = [None] * n_items
        errors: List[Optional[BaseException]] = [None] * n_items
        for i, value in att.results.items():
            results[i] = value
        for i, exc in att.failed.items():
            errors[i] = exc
        return results, errors


def _run_shares(kernel, shares, deadline, ph, label) -> Attempt:
    """Run every worker's share of items in order in the calling thread.

    The deadline is checked *between* items (an in-thread kernel cannot
    be preempted).
    """
    fn = resolve_item_kernel(kernel)
    stop_at = None if deadline is None else time.perf_counter() + deadline
    att = Attempt()
    for w, i, payload in ((w, i, payload) for w, share in enumerate(shares)
                          for i, payload in share):
        if stop_at is not None and time.perf_counter() > stop_at:
            att.timed_out = True
            break
        try:
            if ph is None:
                att.results[i] = fn(payload)
                continue
            with ph.task(f"{label}-{i}", worker=w, block=i) as rec:
                try:
                    att.results[i] = fn(payload)
                except Exception:
                    rec.attrs["concealed"] = True
                    raise
        except WorkerDeath as exc:
            att.fatal = exc
            break
        except Exception as exc:
            att.failed[i] = exc
    return att


class SerialBackend(ExecutionBackend):
    """Everything in the calling thread; the differential reference."""

    name = "serial"

    def map_shares_attempt(self, kernel, shares, deadline=None,
                           ph=None, label="cb") -> Attempt:
        return _run_shares(kernel, shares, deadline, ph, label)


# ---------------------------------------------------------------------------
# Process backend: tier-1 shares on a ProcessPoolExecutor.
# ---------------------------------------------------------------------------


def _portable_exception(exc: BaseException) -> BaseException:
    """The exception itself when picklable, else a faithful surrogate.

    The probe must stay broad: a custom ``__reduce__`` may raise
    anything at all, and an exception that cannot cross the pipe must
    never take the worker down with it.  The surrogate carries the
    probe failure so the original cause stays diagnosable.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception as probe_exc:
        return RuntimeError(
            f"{type(exc).__name__}: {exc} "
            f"(unpicklable: {type(probe_exc).__name__}: {probe_exc})"
        )


def _proc_share(kernel, share):
    """Worker-side share execution: [(i, result, error, seconds), ...]."""
    fn = resolve_item_kernel(kernel)
    out = []
    for i, payload in share:
        t0 = time.perf_counter()
        result = error = None
        try:
            result = fn(payload)
        except Exception as exc:
            error = _portable_exception(exc)
        out.append((i, result, error, time.perf_counter() - t0))
    return out


class ProcessesBackend(ExecutionBackend):
    """True multi-core execution of tier-1: a process pool of shares.

    Each worker's share of code-blocks is pickled to it in one call and
    its results are pickled back.  Worker busy time is measured inside the worker and fed back into the phase
    recorder, so worker timelines and the Amdahl accounting stay
    comparable with the serial backend.
    """

    name = "processes"

    #: Advertises the worker-side sample shipping below so
    #: :meth:`repro.obs.profile.SamplingProfiler.attach` knows this
    #: backend's workers are invisible to ``sys._current_frames()``.
    ships_profile_samples = True

    def __init__(self, n_workers: int = 1) -> None:
        super().__init__(n_workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Sampling rate requested by an attached profiler; ``None``
        #: (the default) keeps the profiler entirely unimported.
        self.profile_hz: Optional[float] = None
        self._profile_tables: List[Dict[str, Any]] = []

    def drain_profile_samples(self) -> List[Dict[str, Any]]:
        """Worker sample tables accumulated since the last drain."""
        tables, self._profile_tables = self._profile_tables, []
        return tables

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            import multiprocessing as mp

            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=mp.get_context(method)
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def rebuild(self) -> None:
        # ``shutdown`` joins workers, which never returns if one is
        # wedged; kill the processes first, then reap without waiting.
        ex, self._executor = self._executor, None
        if ex is None:
            return
        for proc in list(getattr(ex, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, ValueError, AttributeError):
                pass  # pragma: no cover - already dead or reaped
        ex.shutdown(wait=False, cancel_futures=True)

    def _run_pool(self, kernel: str, shares, deadline, att: Attempt):
        """Run ``_proc_share(kernel, share)`` per share on the pool.

        Returns ``(k, items, error)`` for every share ``k`` that finished
        within ``deadline``, in submission order.  A broken pool or an
        expired deadline is recorded on ``att`` and rebuilds the pool.
        With a profiler attached each worker runs
        ``repro.obs.profile.proc_share_profiled`` instead and its sample
        table is kept for :meth:`drain_profile_samples`.
        """
        fn, calls = _proc_share, [(kernel, share) for share in shares]
        hz = self.profile_hz
        if hz:
            # Lazy on purpose: the profiler module only loads once a
            # profiler has attached to this backend.
            from ..obs.profile import proc_share_profiled

            fn, calls = proc_share_profiled, [(*call, hz) for call in calls]
        finished = []
        try:
            pool = self._pool()
            futs = [pool.submit(fn, *call) for call in calls]
            done, not_done = wait(futs, timeout=deadline)
            att.timed_out = bool(not_done)
            for k, fut in enumerate(futs):
                if fut not in done:
                    continue
                try:
                    value = fut.result()
                except BrokenExecutor as exc:
                    att.fatal = exc
                    continue
                except Exception as exc:
                    finished.append((k, None, exc))
                    continue
                if hz:
                    value, table = value
                    self._profile_tables.append(table)
                finished.append((k, value, None))
        except BrokenExecutor as exc:
            att.fatal = exc
        if att.fatal is not None or att.timed_out:
            # Discard the dead or wedged pool so the next call on this
            # (reused) instance builds a fresh one instead of failing
            # forever.
            self.rebuild()
        return finished

    # -- independent items --------------------------------------------------

    def map_shares_attempt(self, kernel, shares, deadline=None,
                           ph=None, label="cb") -> Attempt:
        live = [(w, share) for w, share in enumerate(shares) if share]
        if self.n_workers == 1 or len(live) <= 1:
            return _run_shares(kernel, shares, deadline, ph, label)
        att = Attempt()
        for k, items, error in self._run_pool(
            kernel, [share for _, share in live], deadline, att
        ):
            if error is not None:
                raise error  # the share never ran (e.g. an unknown kernel)
            w = live[k][0]
            for i, result, item_error, busy in items:
                if item_error is not None:
                    att.failed[i] = item_error
                else:
                    att.results[i] = result
                if ph is not None:
                    attrs = {"block": i}
                    if item_error is not None:
                        attrs["concealed"] = True
                    ph.record(f"{label}-{i}", worker=w, seconds=busy, **attrs)
        return att


_BACKENDS = {
    "serial": SerialBackend,
    "processes": ProcessesBackend,
}


def get_backend(name: str, n_workers: int = 1) -> ExecutionBackend:
    """Instantiate a backend by name (``serial``/``processes``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; options: {', '.join(BACKEND_NAMES)}"
        ) from None
    return cls(n_workers)


def resolve_backend(backend, n_workers: int = 1) -> Tuple[ExecutionBackend, bool]:
    """Normalize a backend argument to ``(instance, owned)``.

    ``backend`` may be ``None`` (``serial``), a name, or a live
    :class:`ExecutionBackend`.  ``owned`` tells the caller whether it
    created the instance and must close it; passed-in
    instances keep their caller-managed lifetime (and their own
    ``n_workers``, which wins over the ``n_workers`` argument).
    """
    if isinstance(backend, ExecutionBackend):
        return backend, False
    return get_backend(backend or "serial", n_workers), True

"""Supervised execution: retries, pool rebuilds, graceful degradation.

The paper's tier-1 worker pool is *idempotent by construction*: every
code-block lands in its own result slot.  That makes the recovery
story mechanical -- when a worker dies (``BrokenProcessPool``), hangs
past a phase deadline, or a kernel raises, re-running *only the
unfinished items* produces exactly the bytes an undisturbed run would
have produced.  :class:`SupervisedBackend` wraps any
:class:`~repro.core.backend.ExecutionBackend` with that loop:

1. run one best-effort ``map_shares_attempt`` over the still-pending
   items;
2. on a pool-fatal outcome (worker death, broken pool, deadline expiry)
   rebuild the pool -- killing wedged workers -- and retry with
   deterministic exponential backoff, up to ``max_retries`` per rung;
3. when retries exhaust, step down the degradation ladder
   ``processes -> serial`` (sticky for the rest of the wrapper's
   life) instead of failing the image.  A kernel running in the calling
   process cannot be preempted -- the serial rung checks the deadline
   between items -- so only the process rung recovers from a hung
   tier-1 share;
4. at the bottom of the ladder, surface persistent *kernel* errors the
   same way the unsupervised backends do (failed items go into the
   ``errors`` list for downstream concealment), and raise
   :class:`SupervisionError` only for items that could never be run at
   all.

Every retry, rebuild, timeout, worker death and degradation is recorded
on a :class:`SupervisionReport`, mirrored into ``repro.obs`` counters
when a :class:`~repro.obs.metrics.MetricsRegistry` is attached, and
stamped onto the surrounding tracer phase span via ``PhaseRecorder``
attributes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .backend import Attempt, ExecutionBackend, get_backend, resolve_backend

__all__ = [
    "DEGRADATION_LADDER",
    "DeadlineExpired",
    "SupervisedBackend",
    "SupervisionError",
    "SupervisionEvent",
    "SupervisionPolicy",
    "SupervisionReport",
    "call_backend",
    "resolve_policy",
    "supervised",
]

#: Rung order: fastest first, most reliable last.
DEGRADATION_LADDER = ("processes", "serial")


class SupervisionError(RuntimeError):
    """Supervision exhausted every retry (and rung) with units unrun."""


class DeadlineExpired(SupervisionError):
    """The call-level deadline passed with work still pending.

    Raised *before* dispatching another attempt, so callers with an
    already-expired budget fail fast instead of burning a pool slot.
    The serve layer maps this onto a ``Rejected("deadline")`` reply.
    """


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for the supervision loop.

    ``max_retries`` is the per-rung retry budget *after* the initial
    attempt; ``phase_timeout`` bounds one attempt (seconds, ``None`` =
    no deadline); ``degrade=False`` turns the ladder off so exhaustion
    raises; ``backoff_base`` seeds the deterministic exponential backoff
    ``backoff_base * 2**retry_index`` slept before each retry.
    """

    max_retries: int = 2
    phase_timeout: Optional[float] = None
    degrade: bool = True
    backoff_base: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.phase_timeout is not None and self.phase_timeout <= 0:
            raise ValueError("phase_timeout must be positive (or None)")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")

    def backoff(self, retry_index: int) -> float:
        """Deterministic sleep before retry ``retry_index`` (0-based)."""
        return self.backoff_base * (2 ** retry_index)


@dataclass(frozen=True)
class SupervisionEvent:
    """One thing the supervisor did or observed."""

    kind: str  # retry | rebuild | degrade | timeout | deadline | worker-death | kernel-error | give-up
    backend: str  # ladder name of the rung at the time
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.backend}] {self.kind}{tail}"


@dataclass
class SupervisionReport:
    """What supervision had to do to finish the job."""

    events: List[SupervisionEvent] = field(default_factory=list)
    retries: int = 0
    pool_rebuilds: int = 0
    degradations: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    kernel_errors: int = 0
    final_backend: str = ""

    @property
    def clean(self) -> bool:
        """True when no fault handling was needed at all."""
        return not self.events

    @property
    def degraded(self) -> bool:
        return self.degradations > 0

    def add(self, event: SupervisionEvent) -> None:
        self.events.append(event)

    def summary(self) -> str:
        head = (
            f"supervision: {self.retries} retries, "
            f"{self.pool_rebuilds} pool rebuilds, "
            f"{self.timeouts} timeouts, {self.worker_deaths} worker deaths, "
            f"{self.kernel_errors} kernel errors, "
            f"{self.degradations} degradations"
            f" (final backend: {self.final_backend or '?'})"
        )
        lines = [head] + [f"  - {e}" for e in self.events]
        return "\n".join(lines)


def _ladder_name(backend: ExecutionBackend) -> str:
    """Where a backend sits on the ladder (chaos wrappers delegate)."""
    return getattr(backend, "ladder_name", backend.name)


class SupervisedBackend(ExecutionBackend):
    """Fault-tolerant wrapper around any execution backend.

    Drop-in for the wrapped backend: its attempt is the retry loop,
    whose :class:`Attempt` holds only persistent kernel errors, so the
    inherited ``map_shares`` keeps its exact contract (including
    per-item error capture for concealment)
    and just survive worker death, hangs and transient kernel faults
    along the way.  Degradation is sticky -- once the
    wrapper has stepped down to ``serial`` it stays there, because a
    pool that just killed workers will do it again.
    """

    name = "supervised"

    def __init__(
        self,
        inner: ExecutionBackend,
        policy: Optional[SupervisionPolicy] = None,
        report: Optional[SupervisionReport] = None,
        metrics=None,
        owns_inner: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(inner.n_workers)
        self.inner = inner
        self.policy = policy or SupervisionPolicy()
        self.report = report if report is not None else SupervisionReport()
        self.metrics = metrics
        self.owns_inner = owns_inner
        self.clock = clock
        #: Absolute deadline (on ``clock``) for the *current* call, or
        #: ``None``.  Mutable on purpose: a warm wrapper serves many
        #: requests, each with its own budget -- set it before a call,
        #: clear it after.  Expiry raises :class:`DeadlineExpired`
        #: before dispatching the next attempt; a live deadline also
        #: caps each attempt's phase timeout to the remaining budget.
        self.call_deadline: Optional[float] = None
        self._rung: ExecutionBackend = inner
        self._created: List[ExecutionBackend] = []
        self.report.final_backend = _ladder_name(inner)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for bk in self._created:
            bk.close()
        self._created.clear()
        if self.owns_inner:
            self.inner.close()

    def rebuild(self) -> None:  # pragma: no cover - delegated, not used
        self._rung.rebuild()

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"repro_supervisor_{metric}_total",
                f"Supervision {metric.replace('_', ' ')}.",
            ).inc()

    def _event(self, kind: str, counter: Optional[str],
               detail: str = "") -> None:
        self.report.add(SupervisionEvent(kind, _ladder_name(self._rung), detail))
        if counter is not None:
            setattr(self.report, counter, getattr(self.report, counter) + 1)
            self._count(counter)

    def _next_rung(self) -> Optional[ExecutionBackend]:
        """Create (and adopt) the next ladder rung below the current one."""
        current = _ladder_name(self._rung)
        try:
            idx = DEGRADATION_LADDER.index(current)
        except ValueError:  # pragma: no cover - unknown custom backend
            return None
        if idx + 1 >= len(DEGRADATION_LADDER):
            return None
        name = DEGRADATION_LADDER[idx + 1]
        rung = get_backend(name, self.n_workers)
        self._created.append(rung)
        self._event("degrade", "degradations", f"{current} -> {name}")
        return rung

    def _stamp(self, ph, before: Tuple[int, ...]) -> None:
        """Write this call's supervision deltas onto the phase span."""
        if ph is None:
            return
        rep = self.report
        after = (rep.retries, rep.pool_rebuilds, rep.degradations,
                 rep.timeouts, rep.worker_deaths)
        names = ("supervision.retries", "supervision.pool_rebuilds",
                 "supervision.degradations", "supervision.timeouts",
                 "supervision.worker_deaths")
        for attr_name, b, a in zip(names, before, after):
            delta = a - b
            if delta:
                ph.attrs[attr_name] = ph.attrs.get(attr_name, 0) + delta
        ph.attrs["supervision.backend"] = _ladder_name(self._rung)

    # -- ExecutionBackend API ------------------------------------------------
    #
    # ``deadline`` is unused: the policy's phase timeout and
    # :attr:`call_deadline` bound every inner attempt.

    def map_shares_attempt(self, kernel, shares, deadline=None,
                           ph=None, label="cb") -> Attempt:
        """Run attempts until every item has run; returns every item's
        result plus the surviving kernel-level failures (empty unless
        the bottom rung kept failing).  Raises :class:`SupervisionError`
        for items that could never be *run* once every retry and rung is
        spent."""
        payloads: Dict[int, Any] = {}
        deal: List[List[int]] = []
        for share in shares:
            deal.append([i for i, _ in share])
            for i, payload in share:
                payloads[int(i)] = payload
        pending: Dict[int, None] = dict.fromkeys(payloads)
        policy = self.policy
        before = (self.report.retries, self.report.pool_rebuilds,
                  self.report.degradations, self.report.timeouts,
                  self.report.worker_deaths)
        out = Attempt()
        retries_left = policy.max_retries
        retry_index = 0
        while True:
            timeout = policy.phase_timeout
            if self.call_deadline is not None:
                remaining = self.call_deadline - self.clock()
                if remaining <= 0:
                    self._event(
                        "deadline", "timeouts",
                        f"call deadline expired pre-dispatch "
                        f"({len(pending)} unit(s) pending)",
                    )
                    self.report.final_backend = _ladder_name(self._rung)
                    self._stamp(ph, before)
                    raise DeadlineExpired(
                        f"map: call deadline expired with "
                        f"{len(pending)} unit(s) pending"
                    )
                timeout = remaining if timeout is None else min(timeout, remaining)
            # Keep the original deal, filtered to the still-pending
            # items; order within a share is preserved so execution
            # order -- hence fault determinism -- is stable.
            sub = [[(i, payloads[i]) for i in idxs if i in pending]
                   for idxs in deal]
            att = self._rung.map_shares_attempt(
                kernel, sub, deadline=timeout, ph=ph, label=label
            )
            for key in att.results:
                pending.pop(key, None)
                out.failed.pop(key, None)
            out.results.update(att.results)
            if att.failed:
                out.failed.update(att.failed)
                self._event(
                    "kernel-error", "kernel_errors",
                    f"{len(att.failed)} unit(s): {next(iter(att.failed.values()))!r}",
                )
            if att.fatal is not None:
                self._event("worker-death", "worker_deaths", att.broken)
            if att.timed_out:
                self._event("timeout", "timeouts",
                            f"deadline {timeout}s expired")
            if not pending:
                break
            if att.fatal is not None or att.timed_out:
                self._rung.rebuild()
                self._event("rebuild", "pool_rebuilds")
            if retries_left > 0:
                retries_left -= 1
                self._event("retry", "retries",
                            f"{len(pending)} unit(s) pending")
                delay = policy.backoff(retry_index)
                retry_index += 1
                if delay > 0:
                    time.sleep(delay)
                continue
            # Retry budget spent on this rung: degrade or give up.
            rung = self._next_rung() if policy.degrade else None
            if rung is not None:
                self._rung = rung
                retries_left = policy.max_retries
                retry_index = 0
                continue
            unrun = [k for k in pending if k not in out.failed]
            if unrun:
                self._event("give-up", None,
                            f"{len(unrun)} unit(s) never ran")
                self.report.final_backend = _ladder_name(self._rung)
                self._stamp(ph, before)
                raise SupervisionError(
                    f"map: {len(unrun)} unit(s) unrun after "
                    f"{self.report.retries} retries on rung "
                    f"{_ladder_name(self._rung)!r} (degrade="
                    f"{policy.degrade})"
                )
            # Only persistent kernel errors remain: hand them to the
            # caller so ``map_shares`` surfaces them exactly like the
            # unsupervised backends would.
            break
        self.report.final_backend = _ladder_name(self._rung)
        self._stamp(ph, before)
        return out


def resolve_policy(supervise, fallback: Optional[SupervisionPolicy] = None):
    """Normalize a ``supervise=`` argument to a policy or ``None``.

    ``None``/``False`` defer to ``fallback`` (typically
    ``CodecParams.supervision``, itself possibly ``None`` = off);
    ``True`` means "on, with the fallback or default policy"; a
    :class:`SupervisionPolicy` wins outright.
    """
    if supervise is None or supervise is False:
        return fallback
    if supervise is True:
        return fallback if fallback is not None else SupervisionPolicy()
    if isinstance(supervise, SupervisionPolicy):
        return supervise
    raise TypeError(
        f"supervise must be None/bool/SupervisionPolicy, not {type(supervise).__name__}"
    )


@contextmanager
def call_backend(
    backend=None,
    n_workers: int = 1,
    policy: Optional[SupervisionPolicy] = None,
    metrics=None,
) -> Iterator[Optional[ExecutionBackend]]:
    """The backend one encode or decode call runs its tier-1 on.

    Yields ``None`` (run in place) unless the caller passes a backend
    (a name or a live instance), asks for ``n_workers > 1`` or passes a
    ``policy``; then the resolved backend, wrapped in a
    :class:`SupervisedBackend` when ``policy`` is set.  One instance
    serves every tile-part of the call.  On exit it closes exactly what
    it created -- the pool it resolved from a name and the supervisor
    it wrapped -- and never a live backend the caller passed in.
    """
    if backend is None and n_workers <= 1 and policy is None:
        yield None
        return
    inner, owned = resolve_backend(backend, n_workers)
    bk = inner
    try:
        if policy is not None:
            bk = supervised(inner, policy, metrics=metrics, owns_inner=owned)
        yield bk
    finally:
        if bk is not inner:
            bk.close()  # closes ``inner`` too when it is ours
        elif owned:
            inner.close()


def supervised(
    backend: ExecutionBackend,
    policy: Optional[SupervisionPolicy] = None,
    report: Optional[SupervisionReport] = None,
    metrics=None,
    owns_inner: bool = True,
    clock: Callable[[], float] = time.monotonic,
) -> SupervisedBackend:
    """Wrap ``backend`` (idempotent: an already-supervised backend is
    returned unchanged, adopting nothing)."""
    if isinstance(backend, SupervisedBackend):
        return backend
    return SupervisedBackend(backend, policy=policy, report=report,
                             metrics=metrics, owns_inner=owns_inner,
                             clock=clock)

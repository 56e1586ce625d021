"""Helpers shared by the workloads: statistics, host marker, memory, set-up probes."""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-up probes per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Wall-clock cap on one set-up probe.
PROBE_TIMEOUT_S = 60.0
#: Time a child still running at exit gets to end before it is terminated.
REAP_GRACE_S = 5.0
#: ``prctl`` option that makes a process adopt its orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``inf`` entries stand for missing samples)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def stratified_median(samples: Sequence[Tuple[Hashable, float]]) -> float:
    """Geometric mean, over the keys, of each key's median value.

    Rates of different inputs differ by up to 2x, so a plain median of
    a run's per-call rates sits on the boundary between two inputs and
    jumps with the noise of their extremes.  The median of each input's
    own calls is steady, and every input weighs the same.
    """
    groups: Dict[Hashable, List[float]] = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    if not groups:
        return float("nan")
    return math.exp(sum(math.log(statistics.median(v)) for v in groups.values()) / len(groups))


def ref_loop_s(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed marker.

    The loop touches no library code and no data beyond a few small
    integers, so a change in its time between runs is the host, not
    the program.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) & 0xFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(n_workers: int) -> float:
    """Peak RSS of this process plus its reaped pool workers, in MB.

    ``getrusage`` reports the largest reaped child rather than a sum,
    so the worker share is ``n_workers`` times that peak (nothing when
    no pool ran).  Call it after the pool is closed and before any
    other child is started.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


def measure_setup(workload: str) -> List[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters.

    Each probe imports the package, starts the workload's pool or
    server, connects, warms every op once, and reports how long that
    took (see ``setup_probe.py``).  Probes run one after another so
    they do not compete for the CPUs.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=str(ROOT), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed:\n{proc.stderr[-2000:]}"
            )
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so ``reap_children`` waits for them too.

    A pool worker or resource tracker whose parent ended first would
    otherwise pass to init and outlive the benchmark.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as without this call


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # ended while we looked
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _wait(pid: int, timeout: float) -> bool:
    """Reap ``pid`` within ``timeout`` seconds; True once it is gone."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # already reaped
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def _stop(pid: int) -> None:
    """Wait for one child, then terminate it, then kill it."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if _wait(pid, REAP_GRACE_S):
            return


def reap_children() -> None:
    """Stop every process this one started or adopted, and wait for each.

    Call after every pool and server is closed.  Shared memory starts
    multiprocessing's resource tracker, which otherwise ends only after
    this interpreter has, as an orphan nobody waits for; it is stopped
    last, once no pool worker can still hold its pipe open.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _children():
        if pid != tracker_pid:
            _stop(pid)
    if getattr(tracker, "_fd", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    # Orphans adopted meanwhile, and a tracker ``_stop`` did not cover.
    for _ in range(3):
        pids = _children()
        if not pids:
            break
        for pid in pids:
            _stop(pid)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

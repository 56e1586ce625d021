"""Deterministic fault injection: codestream damage and compute chaos.

Two fault families share this module:

**Codestream faults** model the transmission impairments JPEG2000's
error-resilience toolset (and our v2 resync framing) is built for:
random bit flips, byte erasures, bursty corruption, tail truncation,
and dropped spans.  Every mode is a pure function of ``(data, rate,
seed)`` -- the same inputs always produce the same damaged stream -- so
tests, benchmarks and the ``repro faults inject`` CLI all reproduce
each other's results.

``skip_prefix`` protects a leading span (typically the main header,
``repro.tier2.codestream.main_header_size``) from damage, modelling
JPWL's assumption that the main header travels error-protected; pass 0
to expose the whole stream.

**Network faults** model the wire between a codec client and the
server misbehaving: dropped connections, partial writes, latency
spikes, and corrupted or truncated JSON frames.  :class:`ChaosSpec`
is a seeded per-frame fault schedule, :class:`ChaosTransport` applies
it to one direction of a stream pair, and :class:`ChaosProxy` is a
TCP proxy composing two transports per connection -- the harness the
exactly-once soak in ``tests/test_serve_client.py`` drives the
``repro.serve`` client/server pair through.

**Compute faults** model the *workers* failing rather than the bytes:
a kernel raising (``exc``), a worker wedging (``hang``), or a worker
being killed outright (``kill`` -- a real ``os._exit`` in a process
worker, a :class:`~repro.core.backend.WorkerDeath` when the share runs
in the calling thread, as on the serial rung).
:class:`ComputeFault` names the exact call and unit that misbehaves, so
a fault schedule is as reproducible as a ``FaultSpec``;
:class:`FaultyBackend` injects the schedule into any execution backend
by swapping in the chaos kernel ``repro.faults:_chaos_item``, which the
backend resolves by dotted name, in a worker process for a pooled
share.  The
supervision layer (:mod:`repro.core.supervise`) is differential-tested
against these schedules: under any of them the supervised run must emit
the byte-identical codestream the serial backend produces.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .core.backend import ExecutionBackend, WorkerDeath, resolve_item_kernel

__all__ = [
    "COMPUTE_FAULT_KINDS",
    "FAULT_MODES",
    "NET_FAULT_KINDS",
    "ChaosProxy",
    "ChaosSpec",
    "ChaosTransport",
    "ComputeFault",
    "FaultSpec",
    "FaultyBackend",
    "InjectedFault",
    "inject",
    "bitflip",
    "erase",
    "burst",
    "truncate",
    "drop",
]

#: Bytes per burst / dropped span (chosen to straddle frame boundaries).
_BURST_LEN = 16
_DROP_LEN = 24


@dataclass(frozen=True)
class FaultSpec:
    """One reproducible corruption: mode + rate + RNG seed.

    ``rate`` is the expected damaged fraction -- of *bits* for
    ``bitflip``, of *bytes* for every other mode.
    """

    mode: str
    rate: float
    seed: int = 0
    skip_prefix: int = 0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} must be in [0, 1]")
        if self.skip_prefix < 0:
            raise ValueError("skip_prefix must be non-negative")

    def apply(self, data: bytes) -> bytes:
        return inject(data, self)


def _rng(spec: FaultSpec) -> np.random.Generator:
    # Seed on (mode, rate, seed) so sweeping the rate at a fixed seed
    # still draws independent damage patterns per point.  crc32, not
    # hash(): str hashing is salted per interpreter run.
    return np.random.default_rng(
        [spec.seed, zlib.crc32(spec.mode.encode()), int(spec.rate * 1e9)]
    )


def bitflip(data: bytes, spec: FaultSpec) -> bytes:
    """Flip each exposed bit independently with probability ``rate``."""
    out = bytearray(data)
    exposed = len(data) - spec.skip_prefix
    if exposed <= 0:
        return bytes(out)
    rng = _rng(spec)
    n_flips = rng.binomial(exposed * 8, spec.rate)
    if n_flips == 0:
        return bytes(out)
    positions = rng.integers(0, exposed * 8, size=n_flips)
    for bit_pos in positions:
        out[spec.skip_prefix + int(bit_pos) // 8] ^= 1 << (int(bit_pos) % 8)
    return bytes(out)


def erase(data: bytes, spec: FaultSpec) -> bytes:
    """Zero each exposed byte independently with probability ``rate``."""
    out = bytearray(data)
    exposed = len(data) - spec.skip_prefix
    if exposed <= 0:
        return bytes(out)
    rng = _rng(spec)
    mask = rng.random(exposed) < spec.rate
    for off in np.nonzero(mask)[0]:
        out[spec.skip_prefix + int(off)] = 0x00
    return bytes(out)


def burst(data: bytes, spec: FaultSpec) -> bytes:
    """Randomize contiguous bursts totalling ~``rate`` of the bytes."""
    out = bytearray(data)
    exposed = len(data) - spec.skip_prefix
    if exposed <= 0:
        return bytes(out)
    rng = _rng(spec)
    n_bursts = max(1, int(round(exposed * spec.rate / _BURST_LEN))) if spec.rate else 0
    for _ in range(n_bursts):
        start = spec.skip_prefix + int(rng.integers(0, exposed))
        length = min(_BURST_LEN, len(data) - start)
        noise = rng.integers(0, 256, size=length, dtype=np.uint8)
        out[start : start + length] = noise.tobytes()
    return bytes(out)


def truncate(data: bytes, spec: FaultSpec) -> bytes:
    """Cut the tail at a random point; expected cut fraction = ``rate``."""
    exposed = len(data) - spec.skip_prefix
    if exposed <= 0 or spec.rate == 0.0:
        return bytes(data)
    rng = _rng(spec)
    cut = int(round(exposed * spec.rate * 2.0 * rng.random()))
    cut = min(cut, exposed)
    return bytes(data[: len(data) - cut])


def drop(data: bytes, spec: FaultSpec) -> bytes:
    """Delete spans (packet loss) totalling ~``rate`` of the bytes.

    Deletion *shifts* everything after the hole -- the hardest case for
    an unframed decoder, and exactly what SOP resync recovers from.
    """
    exposed = len(data) - spec.skip_prefix
    if exposed <= 0 or spec.rate == 0.0:
        return bytes(data)
    rng = _rng(spec)
    n_drops = max(1, int(round(exposed * spec.rate / _DROP_LEN)))
    starts = sorted(
        spec.skip_prefix + int(s) for s in rng.integers(0, exposed, size=n_drops)
    )
    out = bytearray()
    pos = 0
    for start in starts:
        if start < pos:
            continue
        out += data[pos:start]
        pos = min(len(data), start + _DROP_LEN)
    out += data[pos:]
    return bytes(out)


FAULT_MODES: Dict[str, Callable[[bytes, FaultSpec], bytes]] = {
    "bitflip": bitflip,
    "erase": erase,
    "burst": burst,
    "truncate": truncate,
    "drop": drop,
}


def inject(
    data: bytes,
    spec: FaultSpec = None,
    *,
    mode: str = None,
    rate: float = None,
    seed: int = 0,
    skip_prefix: int = 0,
) -> bytes:
    """Damage ``data`` according to a :class:`FaultSpec` (or kwargs).

    ``inject(data, mode="bitflip", rate=1e-4, seed=3)`` is shorthand for
    ``inject(data, FaultSpec("bitflip", 1e-4, 3))``.
    """
    if spec is None:
        if mode is None or rate is None:
            raise ValueError("need a FaultSpec or mode= and rate=")
        spec = FaultSpec(mode=mode, rate=rate, seed=seed, skip_prefix=skip_prefix)
    return FAULT_MODES[spec.mode](data, spec)


# ---------------------------------------------------------------------------
# Compute faults: deterministic worker-level chaos.
# ---------------------------------------------------------------------------

#: Supported compute-fault kinds.
COMPUTE_FAULT_KINDS = ("exc", "hang", "kill")

#: Default wedge duration for ``hang`` (seconds).  Long enough that any
#: sane phase deadline expires first, short enough that a hang on the
#: serial rung -- which checks deadlines only between units -- still
#: ends.
_DEFAULT_HANG = 30.0


class InjectedFault(RuntimeError):
    """The deterministic kernel exception raised by an ``exc`` fault.

    A plain picklable ``RuntimeError`` subclass so it survives the
    process backend's exception transport unchanged.
    """


@dataclass(frozen=True)
class ComputeFault:
    """One reproducible compute fault: what breaks, where, and when.

    ``kind``
        ``exc`` (kernel raises :class:`InjectedFault`), ``hang`` (the
        worker sleeps ``arg`` seconds, default 30), or ``kill`` (the
        worker dies: ``os._exit(27)`` in a process worker,
        :class:`~repro.core.backend.WorkerDeath` when the unit runs in
        the calling thread, as on the serial rung).
    ``op``
        Which primitive to strike: ``map`` or ``any`` (the same thing:
        ``map_shares`` is the backend's only primitive).
    ``call``
        0-based index of the matching ``map_shares`` attempt on the
        backend (an encode makes one per tile-component, a supervised
        call one more per retry).
    ``unit``
        Which item inside that call misbehaves: the rank within the
        sorted global item indices (taken modulo the live count, so
        ``unit=0`` always strikes something).
    ``persistent``
        One-shot faults are consumed when armed, so the supervisor's
        retry succeeds; persistent faults re-arm on every matching call
        from ``call`` onwards and only degradation escapes them.
    """

    kind: str
    op: str = "any"
    call: int = 0
    unit: int = 0
    arg: Optional[float] = None
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in COMPUTE_FAULT_KINDS:
            raise ValueError(
                f"unknown compute-fault kind {self.kind!r}; "
                f"options: {', '.join(COMPUTE_FAULT_KINDS)}"
            )
        if self.op not in ("map", "any"):
            raise ValueError(f"op must be map/any, not {self.op!r}")
        if self.call < 0 or self.unit < 0:
            raise ValueError("call and unit must be non-negative")
        if self.arg is not None and self.arg < 0:
            raise ValueError("arg must be non-negative")

    @classmethod
    def parse(cls, text: str) -> "ComputeFault":
        """Parse ``kind[:op[:call[:unit[:arg[:persistent]]]]]``.

        Examples: ``kill``, ``exc:map:0:3``, ``hang:map:1:0:0.5``,
        ``kill:map:0:0::persistent``.
        """
        parts = text.split(":")
        try:
            return cls(
                kind=parts[0],
                op=parts[1] if len(parts) > 1 and parts[1] else "any",
                call=int(parts[2]) if len(parts) > 2 and parts[2] else 0,
                unit=int(parts[3]) if len(parts) > 3 and parts[3] else 0,
                arg=float(parts[4]) if len(parts) > 4 and parts[4] else None,
                persistent=(
                    len(parts) > 5
                    and parts[5].lower() in ("persistent", "p", "1", "true")
                ),
            )
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ValueError) and "compute-fault" in str(exc):
                raise
            raise ValueError(f"bad compute-fault spec {text!r}: {exc}") from None

    def chaos(self) -> Dict[str, Any]:
        """The picklable payload the chaos kernels act on."""
        return {"kind": self.kind, "arg": self.arg}


def _trigger(chaos: Dict[str, Any]) -> None:
    """Misbehave as instructed; runs *inside* the (possibly pooled) worker."""
    kind = chaos["kind"]
    if kind == "exc":
        raise InjectedFault("injected kernel exception")
    if kind == "hang":
        time.sleep(float(chaos.get("arg") or _DEFAULT_HANG))
        return
    if kind == "kill":
        import multiprocessing as mp
        import os

        if mp.parent_process() is not None:
            # Real worker process: die the way an OOM-kill looks to the
            # parent -- no cleanup, no exception transport.
            os._exit(27)
        raise WorkerDeath("injected worker kill")
    raise ValueError(f"unknown chaos kind {kind!r}")  # pragma: no cover


def _chaos_item(payload):
    """Item kernel wrapper: payload = (chaos-or-None, kernel, real payload)."""
    chaos, kernel, real = payload
    if chaos is not None:
        _trigger(chaos)
    return resolve_item_kernel(kernel)(real)


class FaultyBackend(ExecutionBackend):
    """Chaos-injecting wrapper around a real execution backend.

    Counts ``map_shares`` attempts (every plain ``map_shares`` call is
    one attempt; a supervised call makes one per retry), arms the first
    matching :class:`ComputeFault` per attempt, and rewrites the
    kernel/payloads so the fault fires *inside* the target worker.
    One-shot faults are consumed at arming time, which is what makes
    supervised retries converge; ``persistent`` faults keep
    striking until the supervisor degrades to a rung this wrapper no
    longer controls.  ``ladder_name`` reports the wrapped backend's
    position so the degradation ladder steps relative to it.
    """

    def __init__(self, inner: ExecutionBackend,
                 faults: Sequence[ComputeFault]) -> None:
        super().__init__(inner.n_workers)
        self.inner = inner
        self.faults: List[ComputeFault] = list(faults)
        for f in self.faults:
            if not isinstance(f, ComputeFault):
                raise TypeError(f"not a ComputeFault: {f!r}")
        self._consumed = [False] * len(self.faults)
        self._calls = 0
        self.name = f"faulty({inner.name})"

    @property
    def ladder_name(self) -> str:
        return getattr(self.inner, "ladder_name", self.inner.name)

    def close(self) -> None:
        self.inner.close()

    def rebuild(self) -> None:
        self.inner.rebuild()

    # -- fault arming --------------------------------------------------------

    def _arm(self) -> Optional[ComputeFault]:
        n = self._calls
        self._calls = n + 1
        for idx, fault in enumerate(self.faults):
            if self._consumed[idx]:
                continue
            if fault.persistent:
                if n >= fault.call:
                    return fault
            elif fault.call == n:
                self._consumed[idx] = True
                return fault
        return None

    def _map_args(self, kernel, shares):
        fault = self._arm()
        items = sorted(i for share in shares for i, _ in share)
        if fault is None or not items:
            return kernel, shares
        target = items[fault.unit % len(items)]
        chaos = fault.chaos()
        wrapped = [
            [(i, (chaos if i == target else None, kernel, payload))
             for i, payload in share]
            for share in shares
        ]
        return "repro.faults:_chaos_item", wrapped

    # -- ExecutionBackend API ------------------------------------------------

    def map_shares_attempt(self, kernel, shares, deadline=None,
                           ph=None, label="cb"):
        kernel, shares = self._map_args(kernel, shares)
        return self.inner.map_shares_attempt(
            kernel, shares, deadline=deadline, ph=ph, label=label
        )


# ---------------------------------------------------------------------------
# Network faults: seeded frame-level chaos for the wire protocol.
# ---------------------------------------------------------------------------

#: Supported network-fault kinds (drawn cumulatively, in this order).
NET_FAULT_KINDS = ("disconnect", "truncate", "corrupt", "split", "delay")

#: Stream buffer limit inside the chaos proxy -- must exceed the serve
#: layer's frame cap or the proxy itself would be the fault.
_CHAOS_LIMIT = 1 << 23


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded per-frame network-fault schedule.

    Each frame crossing a :class:`ChaosTransport` draws one uniform
    variate and suffers at most one fault: ``disconnect`` (the whole
    proxied connection dies, nothing forwarded), ``truncate`` (half the
    frame is written, then the connection dies -- a torn JSON line),
    ``corrupt`` (a few bytes are flipped; the frame still ends in its
    newline), ``split`` (a partial write: half the frame, a flush, a
    pause, the rest), or ``delay`` (a latency spike of
    ``delay_seconds``).  Fields are the per-frame probabilities; their
    sum must stay within 1.  ``direction`` confines the chaos to
    client->server frames (``c2s``), server->client (``s2c``), or
    ``both``.  Everything is driven by per-direction RNG streams seeded
    from ``seed``, so a soak with sequential requests replays the same
    fault schedule run after run.
    """

    disconnect: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    split: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.02
    corrupt_bytes: int = 8
    seed: int = 0
    direction: str = "both"

    def __post_init__(self) -> None:
        total = 0.0
        for kind in NET_FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate {rate} must be in [0, 1]")
            total += rate
        if total > 1.0:
            raise ValueError(f"fault rates sum to {total:.3f} > 1")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if self.corrupt_bytes < 1:
            raise ValueError("corrupt_bytes must be >= 1")
        if self.direction not in ("c2s", "s2c", "both"):
            raise ValueError(
                f"direction must be c2s/s2c/both, not {self.direction!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse ``disconnect=0.1,corrupt=0.05,seed=7,direction=s2c``."""
        kwargs: Dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad chaos spec field {part!r} (want key=value)"
                )
            name, value = (s.strip() for s in part.split("=", 1))
            name = name.replace("-", "_")
            try:
                if name in ("seed", "corrupt_bytes"):
                    kwargs[name] = int(value)
                elif name == "direction":
                    kwargs[name] = value
                elif name in NET_FAULT_KINDS or name == "delay_seconds":
                    kwargs[name] = float(value)
                else:
                    raise ValueError(f"unknown chaos field {name!r}")
            except ValueError as exc:
                if "chaos field" in str(exc):
                    raise
                raise ValueError(
                    f"bad chaos value {part!r}: {exc}"
                ) from None
        return cls(**kwargs)


class ChaosTransport:
    """One direction of seeded frame chaos over a stream pair.

    Stateful across connections on purpose: the RNG stream keeps
    advancing through reconnects, so a whole soak (with however many
    connections the client ends up opening) is one reproducible fault
    schedule.  ``pump(reader, writer)`` forwards JSON-line frames until
    EOF or an injected kill and reports why it stopped.
    """

    def __init__(self, spec: ChaosSpec, direction: str) -> None:
        if direction not in ("c2s", "s2c"):
            raise ValueError(f"direction must be c2s or s2c, not {direction!r}")
        self.spec = spec
        self.direction = direction
        self.active = spec.direction in ("both", direction)
        self._rng = np.random.default_rng(
            [spec.seed, zlib.crc32(direction.encode())]
        )
        self.counts: Dict[str, int] = {k: 0 for k in NET_FAULT_KINDS}
        self.counts["frames"] = 0

    def plan(self) -> str:
        """Draw the fate of the next frame (``"ok"`` or a fault kind)."""
        self.counts["frames"] += 1
        if not self.active:
            return "ok"
        u = float(self._rng.random())
        acc = 0.0
        for kind in NET_FAULT_KINDS:
            acc += getattr(self.spec, kind)
            if u < acc:
                self.counts[kind] += 1
                return kind
        return "ok"

    def corrupt_frame(self, body: bytes) -> bytes:
        """Flip up to ``corrupt_bytes`` bytes of the frame body.

        Never produces a newline byte, so corruption damages the JSON
        without moving the frame boundary (``truncate``/``split`` own
        the framing-damage cases)."""
        if not body:
            return body
        out = bytearray(body)
        n = min(self.spec.corrupt_bytes, len(out))
        for pos in self._rng.integers(0, len(out), size=n):
            out[int(pos)] ^= int(self._rng.integers(1, 256))
            if out[int(pos)] == 0x0A:
                out[int(pos)] = 0x0B
        return bytes(out)

    async def pump(self, reader: "asyncio.StreamReader",
                   writer: "asyncio.StreamWriter") -> str:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return "eof"
                action = self.plan()
                if action == "disconnect":
                    return "disconnect"
                if action == "delay":
                    await asyncio.sleep(self.spec.delay_seconds)
                elif action == "corrupt":
                    body = line[:-1] if line.endswith(b"\n") else line
                    line = self.corrupt_frame(body) + b"\n"
                elif action == "truncate":
                    writer.write(line[: max(1, len(line) // 2)])
                    await writer.drain()
                    return "truncate"
                elif action == "split":
                    cut = max(1, len(line) // 2)
                    writer.write(line[:cut])
                    await writer.drain()
                    await asyncio.sleep(self.spec.delay_seconds)
                    line = line[cut:]
                writer.write(line)
                await writer.drain()
        except (ConnectionError, OSError):
            return "error"


class ChaosProxy:
    """TCP chaos proxy: client <-> proxy <-> codec server.

    Accepts connections, opens one upstream connection each, and pumps
    frames through the two shared :class:`ChaosTransport` directions.
    When either direction injects a kill (or hits EOF), the whole
    proxied connection is torn down abruptly -- exactly what a
    mid-path failure looks like to both ends.  ``fault_counts()``
    reports what actually fired, so a soak can assert its chaos was
    real and a clean run can prove it was not.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 spec: ChaosSpec) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.spec = spec
        self.transports = {
            "c2s": ChaosTransport(spec, "c2s"),
            "s2c": ChaosTransport(spec, "s2c"),
        }
        self.connections = 0
        self._server: Optional["asyncio.AbstractServer"] = None
        self._conn_tasks: set = set()

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        if self._server is not None:
            raise RuntimeError("proxy already started")
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=_CHAOS_LIMIT
        )
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        self._conn_tasks.clear()

    async def __aenter__(self) -> "ChaosProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault tally summed over both directions."""
        out: Dict[str, int] = {}
        for transport in self.transports.values():
            for kind, n in transport.counts.items():
                out[kind] = out.get(kind, 0) + n
        return out

    async def _handle(self, reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections += 1
        upstream_writer = None
        try:
            try:
                upstream_reader, upstream_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port, limit=_CHAOS_LIMIT
                )
            except OSError:
                return
            pumps = [
                asyncio.ensure_future(
                    self.transports["c2s"].pump(reader, upstream_writer)
                ),
                asyncio.ensure_future(
                    self.transports["s2c"].pump(upstream_reader, writer)
                ),
            ]
            _, pending = await asyncio.wait(
                pumps, return_when=asyncio.FIRST_COMPLETED
            )
            for pump in pending:
                pump.cancel()
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)
        except asyncio.CancelledError:
            # stop() cancelling a live connection; letting this escape
            # would only feed asyncio's streams callback an unretrieved
            # CancelledError to log.
            pass
        finally:
            for w in (upstream_writer, writer):
                if w is None:
                    continue
                transport = w.transport
                if transport is not None:
                    transport.abort()  # RST-like: a mid-path kill, not a FIN
            self._conn_tasks.discard(task)

"""Traced runs: in-memory spans around each layer's public entry points.

A traced run replaces, for its duration, the functions and methods each
caller looks up -- ``repro.codec.encoder.encode_codeblock`` for the
encoder's tier-1, ``repro.core.parallel.parallel_encode_blocks`` for the
pool, ``PacketWriter.write_packet`` for tier-2, and so on -- with thin
wrappers that time the call.  A span is ``(name, start, end, parent,
op)``: ``parent`` is the index of the enclosing span and ``op`` the id
of the codec operation it belongs to.  Spans live in a list and are
written once, when the run ends.

Ops alternate between traced and untraced.  Wrappers outside a traced
op pass straight through, so the untraced ops of the same run give the
tracing overhead (``trace.overhead_ratio``).

Work shipped to process workers cannot be timed from the parent: the
block lists handed to ``parallel_encode_blocks``/``parallel_decode_blocks``
are captured instead and, after the measured window, re-coded serially
in the parent.  That gives the tier-1 kernel time (``core.t1_kernel_s``
and the ``ebcot.*`` figures of the parallel workloads) and the pickled
dispatch volume (``core.dispatch_bytes``).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .common import median
from .inputs import DecisionTable

#: Every traced op's child spans must cover at least this share of its
#: wall time; the rest is the codec's own glue (``codec.*_self_s``).
MIN_COVERAGE = 0.80


@dataclass
class Op:
    """One codec operation: an encode, or a decode op of the workload."""

    kind: str          # "encode" | "decode"
    pixels: int
    start: float
    end: float = 0.0
    span: int = -1     # index of the op span; -1 when untraced

    @property
    def traced(self) -> bool:
        return self.span >= 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans, ops and counters of one traced run."""

    def __init__(self, table: DecisionTable) -> None:
        self.table = table
        self.spans: List[List[Any]] = []   # [name, start, end, parent, op]
        self.ops: List[Op] = []
        self.counts: Dict[str, float] = {}
        #: (kind, jobs, results) of parallel tier-1 calls in traced ops.
        self.captured: List[Tuple[str, list, list]] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._alternate: Dict[str, int] = {}

    # -- ops and spans ---------------------------------------------------------

    def next_traced(self, kind: str) -> bool:
        """Alternate traced and untraced ops of each kind."""
        n = self._alternate.get(kind, 0)
        self._alternate[kind] = n + 1
        return n % 2 == 1

    def op_begin(self, kind: str, pixels: int, traced: bool) -> Op:
        op = Op(kind, pixels, 0.0)
        with self._lock:
            self.ops.append(op)
            op_id = len(self.ops) - 1
        if traced:
            op.span = self._open(f"op.{kind}", op_id)
        op.start = time.perf_counter()
        return op

    def op_end(self, op: Op) -> None:
        op.end = time.perf_counter()
        if op.traced:
            self._close(op.span, op.end)
            self._tls.op = None

    def _open(self, name: str, op_id: Optional[int] = None) -> int:
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        if op_id is None:
            op_id = tls.op
            parent = stack[-1]
        else:
            tls.op = op_id
            parent = -1
        with self._lock:
            self.spans.append([name, time.perf_counter(), 0.0, parent, op_id])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int, end: Optional[float] = None) -> None:
        self.spans[idx][2] = time.perf_counter() if end is None else end
        self._tls.stack.pop()

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str,
                 after: Optional[Callable] = None,
                 when: Optional[Callable] = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(rec._tls, "op", None) is None or (
                when is not None and not when(args, kwargs)
            ):
                return fn(*args, **kwargs)
            idx = rec._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _op_wrapper(self, fn: Callable, kind: str) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(payload, *args, **kwargs):
            op = rec.op_begin(kind, 1, rec.next_traced(kind))
            try:
                out = fn(payload, *args, **kwargs)
            finally:
                rec.op_end(op)
            image = payload if kind == "encode" else out
            op.pixels = int(image.shape[0] * image.shape[1])
            return out

        return wrapper

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, serial_t1: bool, serve_ops: bool) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        w = self._wrapper
        for target, name, after in (
            ("repro.codec.encoder:dwt2d", "wavelet.dwt", None),
            ("repro.codec.decoder:idwt2d", "wavelet.idwt", None),
            ("repro.quant.deadzone:DeadzoneQuantizer.quantize_subbands", "quant.quantize", None),
            ("repro.quant.deadzone:DeadzoneQuantizer.dequantize_band", "quant.dequantize", None),
            ("repro.codec.encoder:allocate_layers", "rate.alloc", self._after_alloc),
            ("repro.tier2.packet:PacketWriter.write_packet", "tier2.write", None),
            ("repro.codec.encoder:write_codestream", "tier2.write", self._after_write),
            ("repro.codec.decoder:read_codestream", "tier2.read", None),
            ("repro.tier2.packet:PacketReader.read_packet", "tier2.read", None),
            # With a serial backend the pool's DWT is the wavelet layer's.
            ("repro.core.parallel:parallel_dwt2d",
             "wavelet.dwt" if serial_t1 else "core.dwt", None),
            ("repro.core.parallel:parallel_idwt2d",
             "wavelet.idwt" if serial_t1 else "core.idwt", None),
        ):
            self._patch(target, lambda fn, n=name, a=after: w(fn, n, a))
        self._patch("repro.core.parallel:parallel_encode_blocks",
                    lambda fn: w(fn, "core.t1", self._capture("encode"), _on_pool))
        self._patch("repro.core.parallel:parallel_decode_blocks",
                    lambda fn: w(fn, "core.decode", self._capture("decode"), _on_pool))
        if serial_t1:
            # The encoder calls tier-1 itself without a backend, and
            # through the backend's item function with one.
            for target in ("repro.codec.encoder:encode_codeblock",
                           "repro.core.backend:encode_codeblock"):
                self._patch(target,
                            lambda fn: w(fn, "ebcot.encode", self._after_t1_encode))
            self._patch("repro.core.backend:decode_codeblock",
                        lambda fn: w(fn, "ebcot.decode", self._after_t1_decode))
        if serve_ops:
            for kind in ("encode", "decode"):
                self._patch(f"repro.serve.batching:{kind}_image",
                            lambda fn, k=kind: self._op_wrapper(fn, k))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters attached to spans --------------------------------------------

    def _after_alloc(self, args, kwargs, out) -> None:
        self.count("rate.alloc_calls", 1)

    def _after_write(self, args, kwargs, out) -> None:
        self.count("tier2.bytes", len(out))

    def _after_t1_encode(self, args, kwargs, out) -> None:
        self.count("ebcot.encode_decisions", out.total_decisions())
        self.count("ebcot.encode_passes", out.n_passes)

    def _after_t1_decode(self, args, kwargs, out) -> None:
        data, shape, _orient, _planes, n_passes = args
        self.count("ebcot.decode_decisions",
                   self.table.get((bytes(data), tuple(shape), n_passes), 0))

    def _capture(self, kind: str) -> Callable:
        def after(args, kwargs, out) -> None:
            with self._lock:
                self.captured.append((kind, list(args[0]), list(out)))
        return after

    # -- after the measured window --------------------------------------------

    def recode(self) -> Dict[str, float]:
        """Re-code captured parallel tier-1 work serially in this process."""
        from repro.ebcot.t1 import decode_codeblock, encode_codeblock

        out = {"encode_s": 0.0, "encode_decisions": 0, "encode_passes": 0,
               "decode_s": 0.0, "decode_decisions": 0, "dispatch_bytes": 0}
        for kind, jobs, results in self.captured:
            out["dispatch_bytes"] += len(pickle.dumps(jobs, pickle.HIGHEST_PROTOCOL))
            out["dispatch_bytes"] += len(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
            if kind == "encode":
                t0 = time.perf_counter()
                blocks = [encode_codeblock(c, o) for c, o in jobs]
                out["encode_s"] += time.perf_counter() - t0
                out["encode_decisions"] += sum(b.total_decisions() for b in blocks)
                out["encode_passes"] += sum(b.n_passes for b in blocks)
            else:
                t0 = time.perf_counter()
                for job in jobs:
                    decode_codeblock(*job)
                out["decode_s"] += time.perf_counter() - t0
                out["decode_decisions"] += sum(
                    self.table.get((bytes(d), tuple(s), n), 0) for d, s, _o, _p, n in jobs
                )
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "ops": [[o.kind, o.pixels, o.start, o.end, o.traced] for o in self.ops],
        }))


def _on_pool(args, kwargs) -> bool:
    """Only calls handed a live multi-worker backend run on a pool."""
    backend = kwargs.get("backend")
    return getattr(backend, "n_workers", 1) > 1


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


#: Per-layer seconds metric -> the span names it sums.
SPAN_METRICS = {
    "rate.alloc_s": ("rate.alloc",),
    "wavelet.dwt_s": ("wavelet.dwt", "core.dwt"),
    "wavelet.idwt_s": ("wavelet.idwt", "core.idwt"),
    "quant.quantize_s": ("quant.quantize",),
    "quant.dequantize_s": ("quant.dequantize",),
    "tier2.write_s": ("tier2.write",),
    "tier2.read_s": ("tier2.read",),
    "core.t1_wall_s": ("core.t1",),
    "core.decode_wall_s": ("core.decode",),
}
_DECODE_SIDE = {"wavelet.idwt_s", "quant.dequantize_s", "tier2.read_s", "core.decode_wall_s"}


def layer_metrics(rec: Recorder, n_workers: int) -> Tuple[Dict[str, float], float]:
    """Per-layer figures of the traced ops, and the lowest op coverage.

    Seconds and counts are per traced op of the side they belong to
    (encode-side layers per encode op, decode-side per decode op).
    """
    traced = [o for o in rec.ops if o.traced]
    n_enc = max(1, sum(o.kind == "encode" for o in traced))
    n_dec = max(1, sum(o.kind == "decode" for o in traced))
    by_name: Dict[str, float] = {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _op in rec.spans:
        if name.startswith("op."):
            continue
        by_name[name] = by_name.get(name, 0.0) + (end - start)
        children.setdefault(parent, []).append((start, end))

    m: Dict[str, float] = {}
    for key, names in SPAN_METRICS.items():
        total = sum(by_name.get(n, 0.0) for n in names)
        m[key] = total / (n_dec if key in _DECODE_SIDE else n_enc)
    core_dwt = by_name.get("core.dwt", 0.0) + by_name.get("core.idwt", 0.0)
    m["core.dwt_wall_s"] = core_dwt / max(1, len(traced))

    rc = rec.recode()
    enc_s = by_name.get("ebcot.encode", 0.0) + rc["encode_s"]
    dec_s = by_name.get("ebcot.decode", 0.0) + rc["decode_s"]
    enc_dec = rec.counts.get("ebcot.encode_decisions", 0) + rc["encode_decisions"]
    dec_dec = rec.counts.get("ebcot.decode_decisions", 0) + rc["decode_decisions"]
    m["ebcot.encode_s"] = enc_s / n_enc
    m["ebcot.encode_decisions"] = enc_dec / n_enc
    m["ebcot.encode_passes"] = (rec.counts.get("ebcot.encode_passes", 0) + rc["encode_passes"]) / n_enc
    m["ebcot.encode_ns_per_decision"] = 1e9 * enc_s / enc_dec if enc_dec else 0.0
    m["ebcot.decode_s"] = dec_s / n_dec
    m["ebcot.decode_decisions"] = dec_dec / n_dec
    m["ebcot.decode_ns_per_decision"] = 1e9 * dec_s / dec_dec if dec_dec else 0.0
    m["rate.alloc_calls"] = rec.counts.get("rate.alloc_calls", 0) / n_enc
    m["tier2.bytes"] = rec.counts.get("tier2.bytes", 0) / n_enc
    m["core.t1_kernel_s"] = rc["encode_s"] / n_enc
    t1_wall = by_name.get("core.t1", 0.0)
    m["core.t1_efficiency"] = rc["encode_s"] / (t1_wall * n_workers) if t1_wall else 0.0
    m["core.dispatch_bytes"] = rc["dispatch_bytes"] / max(1, len(traced))

    coverage_min = 1.0
    self_s = {"encode": [], "decode": []}
    for op in traced:
        covered = _covered(children.get(op.span, []))
        self_s[op.kind].append(op.seconds - covered)
        coverage_min = min(coverage_min, covered / op.seconds)
    m["codec.encode_self_s"] = sum(self_s["encode"]) / n_enc
    m["codec.decode_self_s"] = sum(self_s["decode"]) / n_dec
    m["trace.overhead_ratio"] = overhead_ratio(rec.ops)
    return m, coverage_min


def overhead_ratio(ops: List[Op]) -> float:
    """Traced over untraced op time per pixel (geometric mean over op kinds)."""
    logs = []
    for kind in ("encode", "decode"):
        on = [o.seconds / o.pixels for o in ops if o.kind == kind and o.traced]
        off = [o.seconds / o.pixels for o in ops if o.kind == kind and not o.traced]
        if on and off:
            logs.append(math.log(median(on) / median(off)))
    return math.exp(sum(logs) / len(logs)) if logs else 1.0

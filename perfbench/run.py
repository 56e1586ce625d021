"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload codec-procs --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  A readable summary goes to standard error.  The
exit code is 0 when every operation matched its oracle, 1 when one did
not (the metrics are then left empty), 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their spans.
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("codec-serial", "codec-procs", "serve-open")

END_TO_END = {
    "setup_s": "s",
    "encode_mpix_per_s": "Mpix/s",
    "decode_mpix_per_s": "Mpix/s",
    "psnr_db": "dB",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ebcot.encode_s": "s",
    "ebcot.encode_decisions": "count",
    "ebcot.encode_passes": "count",
    "ebcot.encode_ns_per_decision": "ns",
    "ebcot.decode_s": "s",
    "ebcot.decode_decisions": "count",
    "ebcot.decode_ns_per_decision": "ns",
    "rate.alloc_s": "s",
    "rate.alloc_calls": "count",
    "wavelet.dwt_s": "s",
    "wavelet.idwt_s": "s",
    "quant.quantize_s": "s",
    "quant.dequantize_s": "s",
    "tier2.write_s": "s",
    "tier2.read_s": "s",
    "tier2.bytes": "bytes",
    "codec.encode_self_s": "s",
    "codec.decode_self_s": "s",
    "core.pool_start_s": "s",
    "core.t1_wall_s": "s",
    "core.t1_kernel_s": "s",
    "core.t1_efficiency": "ratio",
    "core.dispatch_bytes": "bytes",
    "core.dwt_wall_s": "s",
    "core.decode_wall_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p90_s": "s",
    "serve.service_p50_s": "s",
    "serve.wire_p50_s": "s",
    "serve.batch_size_mean": "count",
    "serve.shed": "count",
    "serve.client_retries": "count",
    "serve.encode_p50_s": "s",
    "serve.decode_p50_s": "s",
    "serve.gen_late_max_s": "s",
    "host.ref_loop_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_min": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="self-test: corrupt one expected output; the run must fail")
    return ap.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the workloads' finally blocks, which stop the
    # pools and the server, instead of dying with workers left behind.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the package is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # Replace the script's own directory so its modules are only
    # reachable as ``perfbench.*``.
    sys.path[:1] = [str(SRC), str(ROOT)]
    from perfbench.common import become_subreaper, reap_children

    become_subreaper()
    try:
        return _run(args)
    finally:
        reap_children()


def _run(args) -> int:
    from perfbench import codec_bench, serve_bench
    from perfbench.common import measure_setup, median
    from perfbench.spans import MIN_COVERAGE, layer_metrics

    bench = serve_bench if args.workload == "serve-open" else codec_bench
    trace = bool(args.trace)
    tally, e2e, context, rec = bench.run(
        args.workload, args.seed, args.seconds, trace, corrupt=args.corrupt_oracle
    )
    correct = tally.failed == 0
    metrics = {}
    if correct and not trace:
        setup = measure_setup(args.workload)
        context["setup_samples"] = setup
        metrics = dict(e2e, setup_s=median(setup))
        units = END_TO_END
    elif correct:
        layers, coverage = layer_metrics(rec, context["workers"])
        rec.dump(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {k: 0.0 for k in PER_LAYER}
        metrics.update(layers)
        metrics.update({k: v for k, v in context.items() if k in PER_LAYER})
        metrics["trace.coverage_min"] = coverage
        units = PER_LAYER
        if coverage < MIN_COVERAGE:
            correct = False
            tally.reasons.append(
                f"trace: child spans cover {coverage:.1%} of an op, below {MIN_COVERAGE:.0%}"
            )
            metrics = {}
    if metrics and not all(math.isfinite(v) for v in metrics.values()):
        correct = False
        tally.reasons.append(f"non-finite metric: {metrics}")
        metrics = {}

    for key, value in context.items():
        print(f"# {key}: {value}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:32s} {value:14.6g} {units[key]}", file=sys.stderr)
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

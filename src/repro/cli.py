"""Command-line interface: encode/decode PGM images, inspect streams.

Usage::

    python -m repro encode input.pgm output.rj2k [--lossless] [--bpp 0.5 ...]
                    [--workers N] [--backend serial|processes]
    python -m repro decode output.rj2k roundtrip.pgm [--layer K] [--resilient]
                    [--workers N] [--backend serial|processes]
    python -m repro info   output.rj2k
    python -m repro synth  test.pgm --side 512 [--kind mix] [--seed 0]
    python -m repro faults inject in.rj2k out.rj2k --mode bitflip --rate 1e-4
    python -m repro faults exec test.pgm --fault kill:map:0:0 --backend processes
                    --workers 4 [--max-retries N] [--phase-timeout S]
    python -m repro trace  encode test.pgm --trace-out t.json --format chrome
    python -m repro trace  decode out.rj2k --workers 4 --format table
    python -m repro lint   [paths ...] [--strict] [--baseline FILE]
    python -m repro experiments [--quick] [-o EXPERIMENTS.md]
    python -m repro bench run [--quick] [--dir D] [--label TEXT]
    python -m repro bench compare [--tolerant] [--baseline FILE]
    python -m repro bench report [-o REPORT.md]
    python -m repro serve run [--host H] [--port P] [--backend serial]
                    [--workers N] [--pools K] [--queue-depth D]
    python -m repro serve bench --rate 50 --duration 5 [--tcp]
                    [--deadline S] [--report FILE] [--bench-json FILE]
                    [--require-clean]

``encode``/``decode`` also take ``--trace`` to print the per-stage
breakdown (Fig. 3) of that one run; ``trace`` is the full-featured
version with Chrome-trace / Prometheus / table exporters and the
Sec. 3.4 Amdahl summary.

``--supervise`` (with ``--max-retries``, ``--phase-timeout`` and
``--no-degrade``) runs the parallel stages fault-tolerantly: worker
death and hangs trigger pool rebuilds and retries of only the
unfinished work, and exhausted retries degrade ``processes -> serial``
unless ``--no-degrade``.  ``faults exec`` demonstrates the
machinery: it encodes under an injected compute-fault schedule and
verifies the supervised codestream is byte-identical to the serial
reference.

The codestream format is this library's own (structurally JPEG2000-like;
see DESIGN.md); ``info`` prints its parameters and tile layout.
"""

from __future__ import annotations

import argparse

import numpy as np

from .codec import CodecParams, decode_image, encode_image
from .image import SyntheticSpec, psnr, read_pnm, synthetic_image, write_pnm
from .tier2.codestream import read_codestream

__all__ = ["main"]


def _cmd_encode(args: argparse.Namespace) -> int:
    img = read_pnm(args.input)
    params = _params_from_args(
        args, args.filter, base_step=args.step, resilience=args.resilient
    )
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    result = encode_image(
        img, params, tracer=tracer, n_workers=args.workers,
        backend=args.backend, supervise=_policy_from_args(args),
    )
    with open(args.output, "wb") as fh:
        fh.write(result.data)
    if result.supervision is not None:
        print(result.supervision.summary())
    if tracer is not None:
        from .obs import stage_table

        print(stage_table(tracer, title=f"encode {args.input}"))
    h, w = result.image_shape
    print(
        f"{args.input}: {h}x{w} -> {result.n_bytes} bytes "
        f"({result.rate_bpp():.3f} bpp), {len(result.blocks)} code-blocks"
    )
    if args.verify:
        rec = decode_image(result.data)
        if params.filter_name == "5/3" and params.target_bpp is None:
            ok = np.array_equal(rec, img)
            print(f"verify: lossless round-trip {'OK' if ok else 'FAILED'}")
            return 0 if ok else 1
        print(f"verify: PSNR {psnr(img, rec):.2f} dB")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    policy = _policy_from_args(args)
    if args.resilient:
        img, report = decode_image(
            data, max_layer=args.layer, resilient=True, tracer=tracer,
            n_workers=args.workers, backend=args.backend, supervise=policy,
        )
        print(report.summary())
    else:
        img = decode_image(
            data, max_layer=args.layer, tracer=tracer,
            n_workers=args.workers, backend=args.backend, supervise=policy,
        )
    write_pnm(args.output, img)
    kind = "PPM" if img.ndim == 3 else "PGM"
    print(f"{args.input} -> {args.output} ({kind}, {img.shape[0]}x{img.shape[1]})")
    if tracer is not None:
        from .obs import stage_table

        print(stage_table(tracer, title=f"decode {args.input}"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced encode or decode and export the trace."""
    from .obs import (
        MetricsRegistry,
        Tracer,
        amdahl_report,
        chrome_trace_json,
        record_decode_metrics,
        record_encode_metrics,
        record_trace_metrics,
        stage_table,
    )

    tracer = Tracer()
    registry = MetricsRegistry()
    if args.trace_command == "encode":
        img = read_pnm(args.input)
        params = _params_from_args(args)
        result = encode_image(
            img, params, tracer=tracer,
            n_workers=args.workers, backend=args.backend,
        )
        record_encode_metrics(registry, result)
        title = f"encode {args.input}"
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
        out = decode_image(
            data, n_workers=args.workers, resilient=args.resilient,
            tracer=tracer, backend=args.backend,
        )
        if args.resilient:
            _, report = out
            record_decode_metrics(registry, report)
        title = f"decode {args.input} (n_workers={args.workers})"
    record_trace_metrics(registry, tracer)

    if args.format == "chrome":
        text = chrome_trace_json(tracer, indent=2)
    elif args.format == "prom":
        text = registry.to_prometheus()
    else:
        rep = amdahl_report(tracer, n_cpus=max(args.workers, 2))
        text = stage_table(tracer, title=title) + "\n\n" + rep.summary()
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.trace_out} ({args.format})")
        if args.format != "table":
            # Still give the terminal the one-look summary.
            print(stage_table(tracer, title=title))
    else:
        print(text)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    stream = read_codestream(data)
    p = stream.params
    print(f"codestream: {len(data)} bytes")
    print(f"  image      : {p.height}x{p.width}, {p.bit_depth}-bit, "
          f"{p.n_components} component(s)")
    print(f"  transform  : {p.levels}-level {p.filter_name}")
    print(f"  code-blocks: {p.cb_size}x{p.cb_size}")
    print(f"  layers     : {p.n_layers}")
    container = "v2 resilient (framed)" if p.resilient else "v1 (unframed)"
    print(f"  container  : {container}")
    tiling = f"{p.tile_size}px tiles {p.tile_grid()}" if p.tile_size else "untiled"
    print(f"  tiling     : {tiling}")
    print(f"  tile-parts : {len(stream.tiles)}")
    for tp in stream.tiles[:8]:
        print(f"    part {tp.index}: {len(tp.packets)} bytes")
    if len(stream.tiles) > 8:
        print(f"    ... and {len(stream.tiles) - 8} more")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    img = synthetic_image(
        SyntheticSpec(args.side, args.side, args.kind, seed=args.seed)
    )
    write_pnm(args.output, img)
    print(f"wrote {args.output}: {args.side}x{args.side} '{args.kind}' (seed {args.seed})")
    return 0


def _fault_mode_names():
    from . import faults

    return faults.FAULT_MODES


def _cmd_faults_inject(args: argparse.Namespace) -> int:
    from . import faults
    from .tier2.codestream import main_header_size, read_version

    with open(args.input, "rb") as fh:
        data = fh.read()
    skip = args.skip_prefix
    if args.protect_header:
        skip = max(skip, main_header_size(read_version(data) >= 2))
    damaged = faults.inject(
        data, mode=args.mode, rate=args.rate, seed=args.seed, skip_prefix=skip
    )
    with open(args.output, "wb") as fh:
        fh.write(damaged)
    changed = sum(a != b for a, b in zip(data, damaged)) + abs(
        len(data) - len(damaged)
    )
    print(
        f"{args.input} -> {args.output}: mode={args.mode} rate={args.rate:g} "
        f"seed={args.seed} skip_prefix={skip}; {len(data)} -> {len(damaged)} "
        f"bytes, {changed} byte(s) affected"
    )
    return 0


def _cmd_faults_exec(args: argparse.Namespace) -> int:
    """Encode under injected compute faults; verify byte-identity.

    Runs the serial reference encode first, then the same encode on a
    chaos-wrapped supervised backend, and checks the two codestreams are
    byte-identical -- the tentpole guarantee of the supervision layer.
    """
    from . import faults
    from .core.backend import get_backend
    from .core.supervise import SupervisionPolicy, supervised

    img = read_pnm(args.input)
    params = _params_from_args(args)
    reference = encode_image(img, params).data
    schedule = [faults.ComputeFault.parse(spec) for spec in args.fault]
    policy = _policy_from_args(args) or SupervisionPolicy()
    if any(f.kind == "hang" for f in schedule) and policy.phase_timeout is None:
        print(
            "note: hang fault without --phase-timeout; each hang blocks "
            f"for its full duration (default {faults._DEFAULT_HANG:g} s)"
        )
    inner = get_backend(args.backend or "serial", args.workers)
    sup = None
    try:
        sup = supervised(
            faults.FaultyBackend(inner, schedule), policy, owns_inner=True
        )
        result = encode_image(img, params, backend=sup, n_workers=args.workers)
    finally:
        # Until the supervisor adopts it, the bare pool is ours to close.
        if sup is not None:
            sup.close()
        else:
            inner.close()
    for spec in args.fault:
        print(f"fault   : {spec}")
    print(sup.report.summary())
    identical = result.data == reference
    print(
        f"verdict : {'byte-identical to serial reference OK' if identical else 'MISMATCH vs serial reference'}"
        f" ({len(result.data)} bytes)"
    )
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(result.data)
        print(f"wrote {args.output}")
    return 0 if identical else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the concurrency/determinism lint over the source tree."""
    from pathlib import Path

    from .analysis import lint as lint_mod

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        # Default: the installed package itself (src/repro in a checkout).
        paths = [Path(__file__).resolve().parent]
    baseline_path = Path(args.baseline)
    baseline = None
    if baseline_path.exists() and not args.strict:
        baseline = lint_mod.load_baseline(baseline_path)
    result = lint_mod.run_lint(paths, baseline=baseline, strict=args.strict)
    if args.write_baseline:
        n = lint_mod.write_baseline(
            baseline_path, result.findings + result.baselined
        )
        print(f"wrote {baseline_path} ({n} fingerprint(s))")
        return 0
    for finding in result.findings:
        print(finding.format())
    for fp in result.stale_baseline:
        print(f"stale baseline entry (violation fixed? remove it): {fp}")
    print(result.summary())
    return 0 if result.ok else 1


def _bench_wrap_backend(handicaps):
    """A ``wrap_backend`` hook injecting persistent compute faults.

    Used to self-test the regression gate: ``repro bench compare
    --handicap hang:map:0:0:0.05:p`` must exit nonzero on an otherwise
    unchanged tree.
    """
    if not handicaps:
        return None
    from . import faults

    def wrap(backend):
        schedule = [faults.ComputeFault.parse(spec) for spec in handicaps]
        return faults.FaultyBackend(backend, schedule)

    return wrap


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import run_suite, write_trajectory

    run = run_suite(
        quick=args.quick,
        repeats=args.repeats,
        profile=not args.no_profile,
        label=args.label,
        wrap_backend=_bench_wrap_backend(args.handicap),
        progress=print,
    )
    path = write_trajectory(run, Path(args.dir))
    print(f"wrote {path}")
    print(run.summary())
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import (
        ComparePolicy,
        PoolCache,
        Scenario,
        TrajectoryRun,
        compare_runs,
        environment_fingerprint,
        latest_trajectory,
        load_trajectory,
        run_scenario,
    )
    from .core.backend import BACKEND_NAMES

    root = Path(args.dir)
    if args.baseline:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = latest_trajectory(root)
        if baseline_path is None:
            print(f"no BENCH_NNNN.json trajectory in {root}; "
                  "run `repro bench run` first")
            return 2
    baseline = load_trajectory(baseline_path)
    print(f"baseline: {baseline_path} (trajectory #{baseline.seq:04d}, "
          f"{baseline.suite} suite, commit "
          f"{baseline.environment.get('commit', '?')})")
    wrap = _bench_wrap_backend(args.handicap)
    # Re-measure exactly what the baseline measured (a quick baseline
    # gets a quick comparison) with the baseline's own repeat counts.
    gate_scenarios = [
        sc for sc in baseline.scenarios
        if not sc.name.startswith("experiment:")
    ]
    if not gate_scenarios:
        print(f"baseline #{baseline.seq:04d} has no gate scenarios "
              "(experiments-only trajectory); nothing to compare")
        return 2
    current = TrajectoryRun(
        suite=baseline.suite,
        label="compare",
        environment=environment_fingerprint(),
    )
    with PoolCache(wrap) as pools:
        for base_sc in gate_scenarios:
            scenario = Scenario.from_spec(base_sc.spec)
            if scenario.backend not in BACKEND_NAMES:
                # Left unmeasured, so the gate reports it as missing.
                print(f"bench: {scenario.name} skipped "
                      f"(unknown backend {scenario.backend!r})")
                continue
            repeats = int(base_sc.spec.get("repeats", 3))
            print(f"bench: {scenario.name} (x{repeats})")
            current.scenarios.append(
                run_scenario(
                    scenario, repeats=repeats, profile=False, pools=pools
                )
            )
    policy = ComparePolicy()
    if args.tolerant:
        policy = policy.tolerant()
    result = compare_runs(current, baseline, policy)
    print(result.table())
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import load_trajectories, render_report

    runs = load_trajectories(Path(args.dir))
    text = render_report(runs)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(runs)} run(s))")
    else:
        print(text, end="")
    return 0


def _serve_config_from_args(args: argparse.Namespace):
    from .serve import ServeConfig

    return ServeConfig(
        backend=args.backend,
        workers=args.workers,
        pools=args.pools,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        default_deadline=args.default_deadline,
        supervision=_policy_from_args(args),
        max_frame=args.max_frame,
        replay_ttl=args.replay_ttl,
        replay_cap=args.replay_cap,
    )


def _cmd_serve_run(args: argparse.Namespace) -> int:
    """Start the TCP/JSON-lines codec server; run until SIGINT/SIGTERM.

    First signal starts a graceful drain (stop accepting, finish
    in-flight work, print metrics); a second signal force-exits.
    """
    import asyncio
    import os
    import signal

    from .obs import MetricsRegistry
    from .serve import CodecServer

    config = _serve_config_from_args(args)
    metrics = MetricsRegistry()

    async def main_async() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def on_signal() -> None:
            if not stop.is_set():
                print("signal received: draining (signal again to force-exit)")
                stop.set()
            else:  # pragma: no cover - interactive escape hatch
                print("second signal: force exit")
                os._exit(130)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, on_signal)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        server = CodecServer(config, metrics=metrics)
        await server.start()
        try:
            host, port = await server.serve_tcp(args.host, args.port)
            print(
                f"serving on {host}:{port} (backend={config.backend}, "
                f"workers={config.workers}, pools={config.pools}, "
                f"queue_depth={config.queue_depth}, "
                f"max_batch={config.max_batch})"
            )
            await stop.wait()
        finally:
            await server.stop()
        for name, rep in server.pool_reports():
            if not rep.clean:
                print(f"pool {name}: {rep.summary()}")
        print(metrics.to_prometheus(), end="")

    asyncio.run(main_async())
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Open-loop load run against a fresh server; percentile report."""
    import asyncio
    import json
    from pathlib import Path

    from .obs import MetricsRegistry
    from .serve import (
        BreakerPolicy,
        CodecServer,
        InProcessTarget,
        LoadSpec,
        RetryPolicy,
        TcpTarget,
        Workload,
        run_load,
    )

    config = _serve_config_from_args(args)
    spec = LoadSpec(
        rate=args.rate, duration=args.duration, op=args.op, side=args.side,
        n_images=args.images, seed=args.seed, deadline=args.deadline,
        levels=args.levels, cb_size=args.cb_size,
    )
    chaos_spec = None
    if args.chaos:
        from .faults import ChaosSpec

        chaos_spec = ChaosSpec.parse(args.chaos)
        if not args.tcp:
            print("--chaos implies --tcp (faults live on the wire)")
            args.tcp = True
    # Build inputs + direct-call references before any clock starts, so
    # the measured window is pure serving.
    workload = Workload(spec)
    metrics = MetricsRegistry()
    retry = RetryPolicy(
        max_attempts=args.client_retries,
        backoff_base=args.client_backoff,
        attempt_timeout=args.client_timeout,
    )
    breaker = BreakerPolicy(
        failure_threshold=args.breaker_threshold,
        reset_timeout=args.breaker_reset,
    )

    async def main_async():
        server = CodecServer(config, metrics=metrics)
        await server.start()
        target = None
        proxy = None
        chaos_counts = None
        try:
            if args.tcp:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                if chaos_spec is not None:
                    from .faults import ChaosProxy

                    proxy = ChaosProxy(host, port, chaos_spec)
                    host, port = await proxy.start("127.0.0.1", 0)
                target = await TcpTarget(
                    host, port, retry=retry, breaker=breaker
                ).open()
            else:
                target = InProcessTarget(server)
            load_report = await run_load(target, spec, workload=workload)
            pool_reports = server.pool_reports()
        finally:
            if target is not None:
                await target.close()
            if proxy is not None:
                chaos_counts = proxy.fault_counts()
                await proxy.stop()
            await server.stop()
        return load_report, pool_reports, chaos_counts

    report, pool_reports, chaos_counts = asyncio.run(main_async())
    print(report.summary())
    if chaos_counts is not None:
        injected = {k: v for k, v in sorted(chaos_counts.items()) if v}
        print(
            "  chaos: "
            + (", ".join(f"{k} {v}" for k, v in injected.items()) or "none")
        )
    for name, rep in pool_reports:
        if not rep.clean:
            print(f"pool {name}: {rep.summary()}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.report}")
    if args.bench_json:
        path = report.append_to_trajectory(Path(args.bench_json))
        print(f"appended serve experiment to {path}")
    if args.require_clean and not report.clean:
        print(
            f"NOT CLEAN: {report.shed} shed, {report.errors} error(s), "
            f"{report.mismatches} byte-mismatch(es)"
        )
        return 1
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.report import main as report_main

    argv = []
    if args.quick:
        argv.append("--quick")
    argv += ["-o", args.output]
    return report_main(argv)


def _add_codec_args(p: argparse.ArgumentParser) -> None:
    """Shared codec knobs, read back by :func:`_params_from_args`."""
    p.add_argument("--lossless", action="store_true", help="reversible 5/3 path")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--cb-size", type=int, default=64)
    p.add_argument(
        "--bpp", type=float, nargs="*", default=None,
        help="cumulative layer rates in bits/pixel (ascending)",
    )
    p.add_argument("--tile-size", type=int, default=0)


def _params_from_args(
    args: argparse.Namespace, filter_name: str = "9/7", **extra
) -> CodecParams:
    """CodecParams from :func:`_add_codec_args` flags (``--lossless``
    overrides ``filter_name``); ``extra`` holds subcommand-only fields."""
    return CodecParams(
        levels=args.levels,
        filter_name="5/3" if args.lossless else filter_name,
        cb_size=args.cb_size,
        target_bpp=tuple(args.bpp) if args.bpp else None,
        tile_size=args.tile_size,
        **extra,
    )


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    """Shared execution-backend knobs (``--workers`` / ``--backend``)."""
    from .core.backend import BACKEND_NAMES

    p.add_argument(
        "--workers", type=int, default=1,
        help="workers for the parallel stages (1 = serial fast path)",
    )
    p.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend for the parallel stages "
        "(default: serial)",
    )
    _add_supervision_args(p)


def _add_supervision_args(p: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs (``--supervise`` and friends)."""
    p.add_argument(
        "--supervise", action="store_true",
        help="run the parallel stages fault-tolerantly: retry crashed or "
        "hung work on a rebuilt pool, degrade processes->serial",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries per backend rung before degrading (implies --supervise)",
    )
    p.add_argument(
        "--phase-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per parallel phase attempt (implies --supervise)",
    )
    p.add_argument(
        "--no-degrade", action="store_true",
        help="fail instead of walking the degradation ladder "
        "(implies --supervise)",
    )


def _policy_from_args(args: argparse.Namespace):
    """A SupervisionPolicy from CLI knobs, or None when not requested."""
    if not (
        args.supervise
        or args.max_retries is not None
        or args.phase_timeout is not None
        or args.no_degrade
    ):
        return None
    from .core.supervise import SupervisionPolicy

    return SupervisionPolicy(
        max_retries=2 if args.max_retries is None else args.max_retries,
        phase_timeout=args.phase_timeout,
        degrade=not args.no_degrade,
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a PGM/PPM image")
    enc.add_argument("input")
    enc.add_argument("output")
    _add_codec_args(enc)
    enc.add_argument("--filter", choices=("9/7", "5/3"), default="9/7")
    enc.add_argument("--step", type=float, default=1 / 64, help="base quantizer step")
    enc.add_argument(
        "--resilient", action="store_true",
        help="write the v2 error-resilient container (resync framing)",
    )
    enc.add_argument("--verify", action="store_true", help="decode and check")
    enc.add_argument(
        "--trace", action="store_true",
        help="print the per-stage breakdown (Fig. 3) of this encode",
    )
    _add_backend_args(enc)
    enc.set_defaults(fn=_cmd_encode)

    dec = sub.add_parser("decode", help="decode to PGM/PPM")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.add_argument("--layer", type=int, default=None, help="highest layer to decode")
    dec.add_argument(
        "--resilient", action="store_true",
        help="conceal damage instead of failing; print a DecodeReport",
    )
    dec.add_argument(
        "--trace", action="store_true",
        help="print the per-stage breakdown (Fig. 3) of this decode",
    )
    _add_backend_args(dec)
    dec.set_defaults(fn=_cmd_decode)

    trc = sub.add_parser(
        "trace", help="run one traced encode/decode and export the trace"
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    tenc = trc_sub.add_parser("encode", help="trace one encode")
    tenc.add_argument("input")
    _add_codec_args(tenc)
    tdec = trc_sub.add_parser("decode", help="trace one decode")
    tdec.add_argument("input")
    tdec.add_argument("--resilient", action="store_true")
    for p in (tenc, tdec):
        p.add_argument(
            "--workers", type=int, default=1,
            help="workers for the parallel stages (decode) and the "
            "CPU count of the Amdahl summary",
        )
        p.add_argument(
            "--trace-out", default=None,
            help="write the export here instead of stdout",
        )
        p.add_argument(
            "--format", choices=("chrome", "prom", "table"), default="table",
            help="chrome://tracing JSON, Prometheus text, or a stage table",
        )
        from .core.backend import BACKEND_NAMES

        p.add_argument(
            "--backend", choices=BACKEND_NAMES, default=None,
            help="execution backend for the parallel stages "
            "(default: serial)",
        )
        p.set_defaults(fn=_cmd_trace)

    info = sub.add_parser("info", help="print codestream parameters")
    info.add_argument("input")
    info.set_defaults(fn=_cmd_info)

    synth = sub.add_parser("synth", help="generate a synthetic test image")
    synth.add_argument("output")
    synth.add_argument("--side", type=int, default=512)
    synth.add_argument("--kind", choices=("mix", "fbm", "edges", "texture"), default="mix")
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(fn=_cmd_synth)

    flt = sub.add_parser("faults", help="deterministic fault injection")
    flt_sub = flt.add_subparsers(dest="faults_command", required=True)
    inj = flt_sub.add_parser("inject", help="write a damaged copy of a codestream")
    inj.add_argument("input")
    inj.add_argument("output")
    inj.add_argument(
        "--mode", choices=sorted(_fault_mode_names()), required=True,
        help="corruption model",
    )
    inj.add_argument(
        "--rate", type=float, required=True,
        help="expected damaged fraction (bits for bitflip, bytes otherwise)",
    )
    inj.add_argument("--seed", type=int, default=0)
    inj.add_argument(
        "--skip-prefix", type=int, default=0,
        help="leave the first N bytes undamaged",
    )
    inj.add_argument(
        "--protect-header", action="store_true",
        help="shorthand: skip at least the main header (JPWL assumption)",
    )
    inj.set_defaults(fn=_cmd_faults_inject)

    fex = flt_sub.add_parser(
        "exec",
        help="encode under injected compute faults; verify byte-identity",
    )
    fex.add_argument("input")
    fex.add_argument(
        "-o", "--output", default=None,
        help="also write the supervised codestream here",
    )
    fex.add_argument(
        "--fault", action="append", required=True, metavar="SPEC",
        help="compute-fault spec kind[:op[:call[:unit[:arg[:persistent]]]]], "
        "e.g. kill:map:0:0 or exc:map:1 or hang:map:0:0:0.2 "
        "(repeatable)",
    )
    _add_codec_args(fex)
    _add_backend_args(fex)
    fex.set_defaults(fn=_cmd_faults_exec)

    lnt = sub.add_parser(
        "lint", help="concurrency/determinism lint over the source tree"
    )
    lnt.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    lnt.add_argument(
        "--baseline", default="lint-baseline.txt",
        help="accepted-debt baseline file (default: ./lint-baseline.txt)",
    )
    lnt.add_argument(
        "--strict", action="store_true",
        help="ignore the baseline: report every unsuppressed finding",
    )
    lnt.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file",
    )
    lnt.set_defaults(fn=_cmd_lint)

    exp = sub.add_parser("experiments", help="regenerate EXPERIMENTS.md")
    exp.add_argument("--quick", action="store_true")
    exp.add_argument("-o", "--output", default="EXPERIMENTS.md")
    exp.set_defaults(fn=_cmd_experiments)

    bch = sub.add_parser(
        "bench",
        help="benchmark trajectory: run the scenario suite, gate regressions",
    )
    bch_sub = bch.add_subparsers(dest="bench_command", required=True)
    brun = bch_sub.add_parser(
        "run", help="run the scenario suite, write the next BENCH_NNNN.json"
    )
    brun.add_argument(
        "--quick", action="store_true",
        help="small 3-scenario suite (CI-sized) instead of the full matrix",
    )
    brun.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per scenario (default: 2 quick, 3 full)",
    )
    brun.add_argument(
        "--no-profile", action="store_true",
        help="skip the extra sampled-profiler repeat per scenario",
    )
    brun.add_argument("--label", default="", help="free-text tag stored in the file")
    brun.set_defaults(fn=_cmd_bench_run)
    bcmp = bch_sub.add_parser(
        "compare",
        help="re-measure the latest trajectory's scenarios; exit 1 on regression",
    )
    bcmp.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="compare against this trajectory file instead of the latest",
    )
    bcmp.add_argument(
        "--tolerant", action="store_true",
        help="widen thresholds ~2x for noisy shared runners (CI)",
    )
    bcmp.set_defaults(fn=_cmd_bench_compare)
    brep = bch_sub.add_parser(
        "report", help="render a markdown trend table across trajectory files"
    )
    brep.add_argument(
        "-o", "--output", default=None,
        help="write the markdown here instead of stdout",
    )
    brep.set_defaults(fn=_cmd_bench_report)
    for p in (brun, bcmp):
        p.add_argument(
            "--handicap", action="append", default=None, metavar="SPEC",
            help="wrap every scenario backend in a FaultyBackend with this "
            "compute-fault spec (repeatable; self-test of the gate), "
            "e.g. hang:map:0:0:0.05:p",
        )
    for p in (brun, bcmp, brep):
        p.add_argument(
            "--dir", default=".", metavar="DIR",
            help="directory holding the BENCH_NNNN.json files (default: .)",
        )

    srv = sub.add_parser(
        "serve",
        help="codec service layer: async batch server + load generator",
    )
    srv_sub = srv.add_subparsers(dest="serve_command", required=True)
    srun = srv_sub.add_parser(
        "run", help="start the TCP/JSON-lines server (SIGINT/SIGTERM stops)"
    )
    srun.add_argument("--host", default="127.0.0.1")
    srun.add_argument("--port", type=int, default=8712)
    srun.set_defaults(fn=_cmd_serve_run)
    sbn = srv_sub.add_parser(
        "bench",
        help="open-loop load run; latency percentiles + throughput report",
    )
    sbn.add_argument("--rate", type=float, default=50.0, help="arrivals/s")
    sbn.add_argument("--duration", type=float, default=5.0, help="seconds of arrivals")
    sbn.add_argument("--op", choices=("encode", "decode"), default="encode")
    sbn.add_argument("--side", type=int, default=32, help="synthetic image side")
    sbn.add_argument("--images", type=int, default=4, help="distinct seeded inputs")
    sbn.add_argument("--seed", type=int, default=0)
    sbn.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request budget (queueing + service)",
    )
    sbn.add_argument("--levels", type=int, default=2)
    sbn.add_argument("--cb-size", type=int, default=16)
    sbn.add_argument(
        "--tcp", action="store_true",
        help="drive the TCP front door over loopback instead of submit()",
    )
    sbn.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full JSON report (per-request samples included)",
    )
    sbn.add_argument(
        "--bench-json", default=None, metavar="FILE",
        help="append an experiment row to this trajectory-schema file",
    )
    sbn.add_argument(
        "--require-clean", action="store_true",
        help="exit 1 on any shed/error/byte-mismatch (CI smoke bar)",
    )
    sbn.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject seeded network faults between client and server "
             "(implies --tcp), e.g. 'disconnect=0.08,corrupt=0.05,seed=7'; "
             "kinds: disconnect, truncate, corrupt, split, delay",
    )
    sbn.add_argument(
        "--client-retries", type=int, default=4, metavar="N",
        help="max attempts per request in the resilient TCP client",
    )
    sbn.add_argument(
        "--client-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base retry backoff (exponential, full jitter)",
    )
    sbn.add_argument(
        "--client-timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-attempt timeout in the TCP client",
    )
    sbn.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive failures before the circuit breaker opens",
    )
    sbn.add_argument(
        "--breaker-reset", type=float, default=1.0, metavar="SECONDS",
        help="open -> half-open probe delay for the circuit breaker",
    )
    sbn.set_defaults(fn=_cmd_serve_bench)
    for p in (srun, sbn):
        from .core.backend import BACKEND_NAMES

        p.add_argument(
            "--backend", choices=BACKEND_NAMES, default="serial",
            help="execution backend of every warm pool",
        )
        p.add_argument("--workers", type=int, default=2,
                       help="workers per warm pool")
        p.add_argument("--pools", type=int, default=2,
                       help="warm pools (= concurrent batches)")
        p.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue cap; beyond it requests shed")
        p.add_argument("--max-batch", type=int, default=4,
                       help="requests batched per pool dispatch")
        p.add_argument("--batch-window", type=float, default=0.0,
                       help="seconds to wait for stragglers per batch")
        p.add_argument("--default-deadline", type=float, default=None,
                       help="budget for requests without their own")
        p.add_argument("--max-frame", type=int, default=1 << 23,
                       help="TCP frame cap in bytes; oversized frames get "
                            "an explicit frame-too-large error")
        p.add_argument("--replay-ttl", type=float, default=60.0,
                       help="seconds a reply stays in the idempotent "
                            "replay cache")
        p.add_argument("--replay-cap", type=int, default=1024,
                       help="max cached replies (FIFO eviction beyond)")
        _add_supervision_args(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

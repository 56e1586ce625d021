"""Set-up time of one workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD``.  Prints one JSON
line ``{"setup_s": ...}``: the seconds spent importing the package,
starting the workload's pool or server, connecting, and running each op
once on a small image.  Building that image is not counted.
"""

import time

T0 = time.perf_counter()

import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]


async def _serve_setup(image) -> float:
    from perfbench import serve_bench

    t0 = time.perf_counter()
    async with serve_bench.connected() as client:
        await serve_bench.warm_ops(client, image)
        return time.perf_counter() - t0


def main(workload: str) -> float:
    import repro  # noqa: F401

    if workload == "serve-open":
        import repro.serve  # noqa: F401
    imported = time.perf_counter() - T0

    from perfbench import codec_bench, serve_bench
    from perfbench.inputs import warmup_image

    if workload == "serve-open":
        return imported + asyncio.run(_serve_setup(warmup_image(serve_bench.WARMUP_SIDE)))
    image = warmup_image(codec_bench.WARMUP_SIDE)
    t0 = time.perf_counter()
    backend = codec_bench.open_backend(workload)
    try:
        codec_bench.warm_ops(backend, image)
        return imported + time.perf_counter() - t0
    finally:
        if backend is not None:
            backend.close()


if __name__ == "__main__":
    try:
        setup_s = main(sys.argv[1])
    finally:
        from perfbench.common import reap_children

        reap_children()
    print(json.dumps({"setup_s": setup_s}))

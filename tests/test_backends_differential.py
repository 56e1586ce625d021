"""Cross-backend differential harness (PR tentpole).

Every execution backend -- ``serial`` and ``processes`` -- must produce *byte-identical* codestreams and bit-exact decodes for the
same inputs, for any worker count.  The tier-1 deal only re-orders
independent code-blocks, and the DWT runs in the calling process on
every backend, so even the 9/7 float path admits no tolerance:
equality is exact, not approximate.

The fast subset runs by default; the larger seeded matrix is marked
``slow`` (``pytest -m slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import encode_bytes, seeded_image
from repro.codec import CodecParams, decode_image, encode_image
from repro.core.backend import (
    BACKEND_NAMES,
    SerialBackend,
    get_backend,
    resolve_backend,
)

# (seed, (h, w), kind, levels, cb_size, filter) -- shapes include a
# power-of-two width (the cache-pathology case), odd sizes, and a
# non-square layout; the slow matrix widens every axis.
FAST_MATRIX = [
    (11, (64, 64), "noise", 3, 16, "5/3"),
    (12, (61, 47), "edges", 2, 16, "5/3"),
    (13, (96, 80), "ramp", 3, 32, "9/7"),
    (14, (33, 128), "noise", 2, 16, "9/7"),
]

SLOW_MATRIX = [
    (21, (128, 128), "noise", 4, 32, "5/3"),
    (22, (127, 129), "edges", 3, 16, "5/3"),
    (23, (80, 256), "ramp", 4, 32, "9/7"),
    (24, (97, 64), "constant", 2, 16, "9/7"),
    (25, (128, 96), "noise", 3, 64, "9/7"),
    (26, (63, 33), "edges", 5, 16, "5/3"),
]


def _params(levels: int, cb: int, filt: str) -> CodecParams:
    target = None if filt == "5/3" else (0.5, 1.0, 2.0)
    return CodecParams(
        levels=levels, filter_name=filt, cb_size=cb, target_bpp=target
    )


def _assert_case_identical(case, process_backend) -> None:
    """All backends byte-identical, supervised or not; lossless cases
    round-trip exactly."""
    seed, shape, kind, levels, cb, filt = case
    img = seeded_image(seed, *shape, kind=kind)
    params = _params(levels, cb, filt)
    reference = encode_bytes(img, params, backend="serial", n_workers=2)
    decoded_ref = decode_image(reference)
    for backend in ("serial", process_backend):
        for supervise in (False, True):
            where = f"{backend} (supervise={supervise}) on {case}"
            data = encode_bytes(img, params, backend=backend, n_workers=2,
                                supervise=supervise)
            assert data == reference, f"encode diverged: {where}"
            out = decode_image(reference, n_workers=2, backend=backend,
                               supervise=supervise)
            assert np.array_equal(out, decoded_ref), f"decode diverged: {where}"
    if filt == "5/3":
        assert np.array_equal(decoded_ref, img), f"lossless broke on {case}"


class TestCodestreamIdentity:
    @pytest.mark.parametrize("case", FAST_MATRIX, ids=lambda c: f"seed{c[0]}")
    def test_fast_matrix(self, case, process_backend):
        _assert_case_identical(case, process_backend)

    @pytest.mark.slow
    @pytest.mark.parametrize("case", SLOW_MATRIX, ids=lambda c: f"seed{c[0]}")
    def test_slow_matrix(self, case, process_backend):
        _assert_case_identical(case, process_backend)

    @pytest.mark.parametrize("n_workers", [2, 3, 5])
    def test_worker_count_invariance(self, n_workers):
        """Byte-identity holds for every pool width, not just 2: the
        cost-ordered deal of tier-1 blocks moves no byte on either side."""
        img = seeded_image(31, 61, 96, kind="noise")
        params = _params(3, 16, "5/3")
        reference = encode_bytes(img, params, backend="serial")
        decoded = decode_image(reference)
        for name in ("serial", "processes"):
            data = encode_bytes(
                img, params, backend=name, n_workers=n_workers
            )
            assert data == reference, (name, n_workers)
            out = decode_image(reference, backend=name, n_workers=n_workers)
            assert np.array_equal(out, decoded), (name, n_workers)

    def test_tiled_stream_identical(self, process_backend):
        """Tiling multiplies the barrier phases; identity must survive."""
        img = seeded_image(32, 96, 96, kind="edges")
        params = CodecParams(levels=2, filter_name="5/3", cb_size=16, tile_size=48)
        reference = encode_bytes(img, params, backend="serial", n_workers=2)
        assert encode_bytes(img, params, backend=process_backend,
                            n_workers=2) == reference
        assert np.array_equal(decode_image(reference), img)


class TestStageEquivalence:
    """Stage-level differentials: each parallel primitive vs its serial twin."""

    def test_smp_rollup_parity(self, process_backend):
        """Simulated-SMP phase costs roll up identically on every backend."""
        from repro.smp import INTEL_SMP, SimulatedSMP, Task, staggered_round_robin

        tasks = [
            Task(f"cb{i}", ops=1000 + 37 * i, l1_misses=10 + i, l2_misses=3)
            for i in range(17)
        ]
        assignment = staggered_round_robin(tasks, 3)
        smp = SimulatedSMP(INTEL_SMP, 3)
        ref = smp.run_phase("tier-1", assignment)
        for backend in (None, SerialBackend(), process_backend):
            got = smp.run_phase("tier-1", assignment, backend=backend)
            assert got.cycles == ref.cycles
            assert tuple(got.per_cpu_cycles) == tuple(ref.per_cpu_cycles)
            assert got.total_ops == ref.total_ops


class TestSweepsInParent:
    """Every backend runs the DWT in the calling process through one code
    path; the processes pool ships only tier-1 shares, with no
    shared-memory transport."""

    @pytest.mark.parametrize("live", ["serial", "processes"])
    def test_one_dwt_path_on_every_backend(self, live, monkeypatch,
                                           process_backend):
        """``dwt2d``/``idwt2d`` run once per tile-component on a live
        ``serial``/1 and ``processes``/2 backend, with the serial bytes."""
        import repro.codec.decoder as decoder
        import repro.codec.encoder as encoder

        img = seeded_image(34, 32, 64, kind="edges")
        params = CodecParams(levels=2, filter_name="9/7", cb_size=16,
                             tile_size=32, target_bpp=(1.0,))
        reference = encode_bytes(img, params)
        decoded_ref = decode_image(reference)

        calls = {"dwt": 0, "idwt": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(encoder, "dwt2d", counting("dwt", encoder.dwt2d))
        monkeypatch.setattr(decoder, "idwt2d",
                            counting("idwt", decoder.idwt2d))
        bk = get_backend("serial", 1) if live == "serial" else process_backend
        try:
            data = encode_image(img, params, backend=bk).data
            out = decode_image(data, backend=bk)
        finally:
            if bk is not process_backend:
                bk.close()
        assert calls == {"dwt": 2, "idwt": 2}  # two tiles, one component
        assert data == reference
        assert np.array_equal(out, decoded_ref)

    def test_codec_creates_no_shared_memory(self, monkeypatch, process_backend):
        from multiprocessing import shared_memory

        created = []

        class Recording(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                created.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
        img = seeded_image(33, 64, 64, kind="edges")
        params = _params(3, 16, "9/7")
        data = encode_bytes(img, params, backend=process_backend, n_workers=2)
        assert data == encode_bytes(img, params, backend="serial")
        out = decode_image(data, n_workers=2, backend=process_backend)
        assert np.array_equal(out, decode_image(data))
        assert created == []


class TestDeterminism:
    """Same input, same backend -> same bytes and same trace tables."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_repeat_encode_identical(self, name, process_backend):
        img = seeded_image(51, 80, 64, kind="noise")
        params = _params(2, 16, "9/7")
        backend = process_backend if name == "processes" else name
        first = encode_bytes(img, params, backend=backend, n_workers=2)
        second = encode_bytes(img, params, backend=backend, n_workers=2)
        assert first == second

    def test_stage_table_rows_deterministic(self, process_backend):
        """Worker scheduling must not leak into the exported stage order."""
        from repro.obs import Tracer, stage_table

        img = seeded_image(52, 64, 64, kind="noise")
        params = _params(2, 16, "5/3")

        def rows():
            tracer = Tracer()
            encode_image(
                img, params, tracer=tracer, n_workers=2, backend=process_backend
            )
            return [
                line.split()[0]
                for line in stage_table(tracer).splitlines()
                if line and not line.startswith(("-", "stage", "workers"))
            ]

        assert rows() == rows()


class TestBackendApi:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu", 2)
        with pytest.raises(ValueError, match=r"options: serial, processes$"):
            get_backend("threads", 2)
        with pytest.raises(ValueError, match="unknown backend"):
            encode_image(np.zeros((8, 8)), CodecParams(levels=1), backend="gpu")

    def test_resolve_passes_instances_through(self, process_backend):
        bk, owned = resolve_backend(process_backend, 7)
        assert bk is process_backend and not owned
        assert bk.n_workers == 2  # the instance's width wins

    def test_implicit_default_is_serial(self, tmp_path, capsys):
        """``serial`` is the one fallback at every entry point that
        accepts no backend: the resolver, supervised decode and SMP
        runs, the server config, and the CLI commands."""
        from repro.cli import build_parser, main
        from repro.image import write_pnm
        from repro.serve import ServeConfig
        from repro.smp import INTEL_SMP, SimulatedSMP, Task

        bk, owned = resolve_backend(None, 2)
        try:
            assert owned and bk.name == "serial" and bk.n_workers == 2
        finally:
            bk.close()

        img = seeded_image(53, 32, 32, kind="noise")
        params = _params(2, 16, "5/3")
        data = encode_bytes(img, params)
        _, report = decode_image(data, resilient=True, n_workers=2,
                                 supervise=True)
        assert report.supervision.final_backend == "serial"

        smp = SimulatedSMP(INTEL_SMP, 2)
        run = smp.run([("t1", [[Task("a", ops=10.0)], [Task("b", ops=20.0)]])],
                      supervise=True)
        assert run.supervision.final_backend == "serial"

        assert ServeConfig().backend == "serial"
        parser = build_parser()
        for argv in (["serve", "run"], ["serve", "bench"]):
            assert parser.parse_args(argv).backend == "serial", argv

        # encode/decode/faults exec pass ``None`` through to the resolver.
        src, out = tmp_path / "in.pgm", tmp_path / "s.rj2k"
        write_pnm(src, img.astype(np.uint8))
        small = ["--levels", "2", "--cb-size", "16", "--workers", "2"]
        capsys.readouterr()
        assert main(["encode", str(src), str(out), "--lossless", "--supervise",
                     *small]) == 0
        assert "(final backend: serial)" in capsys.readouterr().out
        assert main(["decode", str(out), str(tmp_path / "o.pgm"), "--resilient",
                     "--supervise", "--workers", "2"]) == 0
        assert "(final backend: serial)" in capsys.readouterr().out
        assert main(["faults", "exec", str(src), "--fault", "exc:map",
                     "--lossless", *small]) == 0
        assert "(final backend: serial)" in capsys.readouterr().out

    def test_backends_usable_as_context_managers(self):
        for name in BACKEND_NAMES:
            with get_backend(name, 2) as bk:
                assert bk.name == name

    def test_worker_error_is_portable(self, process_backend):
        """A poisoned block raises the same error type across backends."""
        from repro.core.parallel import parallel_decode_blocks

        bad = [(b"junk", (8, 8), "QQ", 5, None)]  # unknown orientation
        errors = {}
        for key, backend in (
            ("serial", "serial"), ("processes", process_backend)
        ):
            with pytest.raises(ValueError, match="orientation") as exc_info:
                parallel_decode_blocks(bad, n_workers=2, backend=backend)
            errors[key] = str(exc_info.value)
        assert errors["serial"] == errors["processes"]

"""Service layer (PR tentpole): admission control, batching, load/soak.

Determinism discipline: everything that *decides* (admission, deadline
expiry, batch assembly) is unit-tested against a fake clock; the
integration tests drive a real asyncio server but only assert
timing-independent invariants -- every accepted request is answered
exactly once, replies are byte-identical to direct codec calls, sheds
are explicit ``Rejected`` results, worker death degrades instead of
dropping requests.  The wide rate x backend matrix runs under ``-m
slow``.
"""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import logging
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import encode_bytes, seeded_image
from repro.codec import CodecParams, decode_image, encode_image
from repro.core.supervise import SupervisionPolicy
from repro.faults import ComputeFault, FaultyBackend
from repro.obs import MetricsRegistry, Tracer, parse_prometheus
from repro.serve import (
    DEADLINE,
    QUEUE_FULL,
    SHUTDOWN,
    AdmissionQueue,
    CodecServer,
    Completed,
    Failed,
    InProcessTarget,
    LoadSpec,
    Rejected,
    Request,
    ServeConfig,
    TcpTarget,
    Workload,
    arrival_offsets,
    run_load,
)


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _image(seed: int = 31, side: int = 16) -> np.ndarray:
    return seeded_image(seed, side, side, kind="noise")


def _params() -> CodecParams:
    return CodecParams(levels=1, filter_name="5/3", cb_size=16)


def _req(rid: int, deadline=None, op: str = "encode") -> Request:
    return Request(rid, op, _image(rid), _params(), deadline=deadline)


# ---------------------------------------------------------------------------
# Admission queue: fake-clock unit tests.
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_fifo_admit_and_take(self):
        clock = FakeClock()
        q = AdmissionQueue(4, clock=clock)
        for i in range(3):
            assert q.offer(_req(i)) is None
        assert q.depth == 3
        batch, shed = q.take(2)
        assert [r.id for r in batch] == [0, 1]
        assert shed == []
        assert q.depth == 1

    def test_queue_full_sheds_at_the_door(self):
        q = AdmissionQueue(2, clock=FakeClock())
        assert q.offer(_req(0)) is None
        assert q.offer(_req(1)) is None
        verdict = q.offer(_req(2))
        assert isinstance(verdict, Rejected)
        assert verdict.reason == QUEUE_FULL
        assert q.depth == 2  # the shed request never entered

    def test_expired_before_admission_is_shed(self):
        clock = FakeClock()
        q = AdmissionQueue(4, clock=clock)
        verdict = q.offer(_req(0, deadline=clock() - 0.5))
        assert isinstance(verdict, Rejected)
        assert verdict.reason == DEADLINE
        assert q.depth == 0

    def test_deadline_expiry_ordering(self):
        """Requests that expire while queued are shed in arrival order,
        before anything live is dispatched."""
        clock = FakeClock()
        q = AdmissionQueue(8, clock=clock)
        assert q.offer(_req(0, deadline=clock() + 1.0)) is None
        assert q.offer(_req(1, deadline=clock() + 5.0)) is None
        assert q.offer(_req(2, deadline=clock() + 1.5)) is None
        assert q.offer(_req(3)) is None  # no deadline: immortal in queue
        clock.advance(2.0)  # 0 and 2 are now dead, 1 and 3 alive
        batch, shed = q.take(4)
        assert [r.id for r, _ in shed] == [0, 2]  # arrival order
        assert all(v.reason == DEADLINE for _, v in shed)
        assert [r.id for r in batch] == [1, 3]

    def test_shed_expired_sweep_without_take(self):
        clock = FakeClock()
        q = AdmissionQueue(8, clock=clock)
        q.offer(_req(0, deadline=clock() + 1.0))
        q.offer(_req(1))
        clock.advance(1.0)  # >= deadline counts as expired
        shed = q.shed_expired()
        assert [r.id for r, _ in shed] == [0]
        assert q.depth == 1

    def test_backpressure_depth_is_visible(self):
        """Depth rises while nothing drains -- the signal the batcher's
        semaphore turns into queue-full sheds under overload."""
        q = AdmissionQueue(16, clock=FakeClock())
        for i in range(10):
            q.offer(_req(i))
            assert q.depth == i + 1
        batch, _ = q.take(16)
        assert len(batch) == 10 and q.depth == 0

    def test_close_drains_as_shutdown_and_refuses_offers(self):
        q = AdmissionQueue(4, clock=FakeClock())
        q.offer(_req(0))
        q.offer(_req(1))
        drained = q.close()
        assert [r.id for r, _ in drained] == [0, 1]
        assert all(v.reason == SHUTDOWN for _, v in drained)
        verdict = q.offer(_req(2))
        assert verdict is not None and verdict.reason == SHUTDOWN
        assert q.depth == 0

    def test_queue_wait_measured_on_queue_clock(self):
        clock = FakeClock()
        q = AdmissionQueue(4, clock=clock)
        req = _req(0)
        q.offer(req)
        assert req.enqueued == clock()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        with pytest.raises(ValueError):
            AdmissionQueue(4).take(0)


# ---------------------------------------------------------------------------
# Server integration (real asyncio loop, timing-independent asserts).
# ---------------------------------------------------------------------------


def _serve_config(**kw) -> ServeConfig:
    base = dict(backend="serial", workers=1, pools=1, queue_depth=8,
                max_batch=4, batch_window=0.0)
    base.update(kw)
    return ServeConfig(**base)


class TestServer:
    def test_submit_encode_decode_byte_identical(self):
        async def main():
            async with CodecServer(_serve_config()) as server:
                enc = await server.submit("encode", _image(), _params())
                assert isinstance(enc, Completed)
                dec = await server.submit("decode", enc.value, {})
                assert isinstance(dec, Completed)
                return enc, dec

        enc, dec = asyncio.run(main())
        reference = encode_bytes(_image(), _params())
        assert enc.value == reference
        assert np.array_equal(dec.value, decode_image(reference))
        assert enc.batch_size >= 1 and enc.service_seconds >= 0.0

    def test_every_accepted_request_answered_exactly_once(self):
        async def main():
            async with CodecServer(_serve_config(max_batch=3)) as server:
                tasks = [
                    asyncio.ensure_future(
                        server.submit("encode", _image(i), _params())
                    )
                    for i in range(6)
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        assert len(results) == 6
        for i, res in enumerate(results):
            assert isinstance(res, Completed)
            assert res.value == encode_bytes(_image(i), _params())

    def test_queue_full_sheds_with_rejected_not_crash(self):
        """Block the only pool behind a gate, fill the queue, and watch
        the next request shed explicitly -- no timeouts, no crashes."""
        gate = threading.Event()

        class GateBackend:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def map_shares_attempt(self, *a, **kw):
                gate.wait(5.0)
                return self.inner.map_shares_attempt(*a, **kw)

        metrics = MetricsRegistry()
        config = _serve_config(backend="serial", workers=2, queue_depth=2,
                               max_batch=1)

        async def main():
            server = CodecServer(config, metrics=metrics,
                                 wrap_backend=GateBackend)
            await server.start()
            try:
                first = asyncio.ensure_future(
                    server.submit("encode", _image(0), _params())
                )
                # Wait until the batcher has dispatched it (queue empty).
                while server.queue.depth == 0 and not first.done():
                    await asyncio.sleep(0.005)
                    if server.queue.depth == 0 and server._inflight:
                        break
                queued = [
                    asyncio.ensure_future(
                        server.submit("encode", _image(i), _params())
                    )
                    for i in (1, 2)
                ]
                while server.queue.depth < 2:
                    await asyncio.sleep(0.005)
                verdict = await server.submit("encode", _image(3), _params())
                gate.set()
                served = await asyncio.gather(first, *queued)
                return verdict, served
            finally:
                gate.set()
                await server.stop()

        verdict, served = asyncio.run(main())
        assert isinstance(verdict, Rejected)
        assert verdict.reason == QUEUE_FULL
        for i, res in enumerate(served):
            assert isinstance(res, Completed), res
            assert res.value == encode_bytes(_image(i), _params())
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples["repro_serve_shed_total"] == 1
        assert samples["repro_serve_shed_queue_full_total"] == 1
        assert samples["repro_serve_requests_total"] == 4
        assert samples["repro_serve_replies_total"] == 4

    def test_shutdown_answers_queued_requests(self):
        gate = threading.Event()

        class GateBackend:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def map_shares_attempt(self, *a, **kw):
                gate.wait(5.0)
                return self.inner.map_shares_attempt(*a, **kw)

        config = _serve_config(backend="serial", workers=2, queue_depth=4,
                               max_batch=1)

        async def main():
            server = CodecServer(config, wrap_backend=GateBackend)
            await server.start()
            first = asyncio.ensure_future(
                server.submit("encode", _image(0), _params())
            )
            while server.queue.depth == 0 and not server._inflight:
                await asyncio.sleep(0.005)
            queued = asyncio.ensure_future(
                server.submit("encode", _image(1), _params())
            )
            while server.queue.depth < 1:
                await asyncio.sleep(0.005)
            gate.set()
            stop = asyncio.ensure_future(server.stop())
            res_first, res_queued = await asyncio.gather(first, queued)
            await stop
            return res_first, res_queued

        res_first, res_queued = asyncio.run(main())
        # The in-flight request finishes; the queued one is answered
        # with an explicit shutdown shed (never silently dropped).
        assert isinstance(res_first, Completed)
        assert isinstance(res_queued, (Completed, Rejected))
        if isinstance(res_queued, Rejected):
            assert res_queued.reason == SHUTDOWN

    def test_metrics_and_tracer_spans_per_request(self):
        metrics = MetricsRegistry()
        tracer = Tracer()

        async def main():
            async with CodecServer(_serve_config(), metrics=metrics,
                                   tracer=tracer) as server:
                res = await server.submit("encode", _image(), _params())
                assert isinstance(res, Completed)

        asyncio.run(main())
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples["repro_serve_requests_total"] == 1
        assert samples["repro_serve_replies_total"] == 1
        assert samples["repro_serve_queue_wait_seconds_count"] == 1
        assert samples["repro_serve_request_seconds_count"] == 1
        assert samples["repro_serve_batch_size_count"] == 1
        names = {sp.name for sp in tracer.spans}
        assert any(n.startswith("serve.encode") for n in names)

    def test_codec_error_answers_failed(self):
        async def main():
            async with CodecServer(_serve_config()) as server:
                return await server.submit("decode", b"not a codestream", {})

        res = asyncio.run(main())
        assert isinstance(res, Failed)
        assert res.error is not None

    def test_expired_deadline_rejected_not_served(self):
        async def main():
            async with CodecServer(_serve_config()) as server:
                return await server.submit(
                    "encode", _image(), _params(), deadline=1e-9
                )

        res = asyncio.run(main())
        assert isinstance(res, Rejected)
        assert res.reason == DEADLINE

    def test_config_validation(self):
        for bad in (
            dict(pools=0), dict(workers=0), dict(queue_depth=0),
            dict(max_batch=0), dict(batch_window=-1.0),
            dict(default_deadline=0.0),
        ):
            with pytest.raises(ValueError):
                _serve_config(**bad)
        with pytest.raises(ValueError):
            asyncio.run(_bad_op())

    @pytest.mark.parametrize("name", ["gpu", "threads"])
    def test_unknown_backend_rejected_at_construction(self, name):
        # Like every other field, the backend is checked when the config
        # is built -- not later, inside ``start()``.
        with pytest.raises(ValueError, match="options: serial, processes"):
            CodecServer(_serve_config(backend=name))

    def test_start_freezes_heap_until_stop(self):
        """The start-up heap is frozen for the server's life, so no full
        collection rescans it inside a request."""
        async def main():
            server = CodecServer(_serve_config())
            await server.start()
            try:
                frozen = gc.get_freeze_count()
                enc = await server.submit("encode", _image(), _params())
            finally:
                await server.stop()
            return frozen, enc

        assert gc.get_freeze_count() == 0
        frozen, enc = asyncio.run(main())
        assert frozen > 0 and isinstance(enc, Completed)
        assert gc.get_freeze_count() == 0


async def _bad_op():
    async with CodecServer(_serve_config()) as server:
        await server.submit("transcode", _image(), _params())


# ---------------------------------------------------------------------------
# Batcher property: any arrival pattern -> exactly one byte-identical
# reply per accepted request.
# ---------------------------------------------------------------------------

_PROP_IMAGES = [_image(s) for s in range(3)]
_PROP_ENCODED = [encode_bytes(img, _params()) for img in _PROP_IMAGES]
_PROP_DECODED = [decode_image(d) for d in _PROP_ENCODED]


class TestBatcherProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        pattern=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # image index
                st.booleans(),  # encode? else decode
            ),
            min_size=1, max_size=8,
        ),
        max_batch=st.integers(min_value=1, max_value=4),
    )
    def test_one_reply_each_byte_identical(self, pattern, max_batch):
        config = _serve_config(max_batch=max_batch, queue_depth=32)

        async def main():
            async with CodecServer(config) as server:
                tasks = []
                for j, is_encode in pattern:
                    if is_encode:
                        coro = server.submit("encode", _PROP_IMAGES[j],
                                             _params())
                    else:
                        coro = server.submit("decode", _PROP_ENCODED[j], {})
                    tasks.append(asyncio.ensure_future(coro))
                return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        assert len(results) == len(pattern)  # exactly one reply each
        for (j, is_encode), res in zip(pattern, results):
            assert isinstance(res, Completed), res
            if is_encode:
                assert res.value == _PROP_ENCODED[j]
            else:
                assert np.array_equal(res.value, _PROP_DECODED[j])


# ---------------------------------------------------------------------------
# Chaos: worker death degrades, requests still answered byte-identically.
# ---------------------------------------------------------------------------


class TestChaos:
    def test_worker_kill_degrades_and_still_answers(self):
        def chaos(backend):
            return FaultyBackend(backend, [ComputeFault("kill")])

        config = _serve_config(
            backend="processes", workers=2, queue_depth=16, max_batch=2,
            supervision=SupervisionPolicy(max_retries=2, backoff_base=0.0),
        )

        async def main():
            async with CodecServer(config, wrap_backend=chaos) as server:
                tasks = [
                    asyncio.ensure_future(
                        server.submit("encode", _image(i), _params())
                    )
                    for i in range(4)
                ]
                results = await asyncio.gather(*tasks)
                reports = server.pool_reports()
                return results, reports

        results, reports = asyncio.run(main())
        for i, res in enumerate(results):
            assert isinstance(res, Completed), res
            assert res.value == encode_bytes(_image(i), _params())
        # The kill actually happened and the supervisor recovered it.
        total_deaths = sum(rep.worker_deaths for _, rep in reports)
        assert total_deaths >= 1


# ---------------------------------------------------------------------------
# TCP/JSON-lines front door.
# ---------------------------------------------------------------------------


class TestTcp:
    def test_wire_roundtrip_and_errors(self):
        from repro.serve import image_to_wire

        async def main():
            async with CodecServer(_serve_config()) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)

                async def rpc(obj):
                    writer.write(json.dumps(obj).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                pong = await rpc({"id": 0, "op": "ping"})
                enc = await rpc({
                    "id": 1, "op": "encode",
                    "image": image_to_wire(_image()),
                    "params": {"levels": 1, "filter_name": "5/3",
                               "cb_size": 16},
                })
                dec = await rpc({
                    "id": 2, "op": "decode",
                    "data_b64": enc["data_b64"],
                })
                bad_op = await rpc({"id": 3, "op": "transmogrify"})
                writer.write(b"this is not json\n")
                await writer.drain()
                bad_json = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return pong, enc, dec, bad_op, bad_json

        pong, enc, dec, bad_op, bad_json = asyncio.run(main())
        assert pong == {"id": 0, "status": "ok", "pong": True}
        assert enc["status"] == "ok"
        reference = encode_bytes(_image(), _params())
        assert base64.b64decode(enc["data_b64"]) == reference
        assert dec["status"] == "ok"
        img = np.frombuffer(
            base64.b64decode(dec["image"]["data_b64"]),
            dtype=np.dtype(dec["image"]["dtype"]),
        ).reshape(dec["image"]["shape"])
        assert np.array_equal(img, decode_image(reference))
        assert bad_op["status"] == "error" and "transmogrify" in bad_op["error"]
        assert bad_json["status"] == "error"

    def test_stop_ends_connections_the_client_left_open(self, caplog):
        """An idle client connection must not outlive stop(): its
        handler ends there, so asyncio.run has nothing left to cancel
        (a cancelled handler logs an unhandled CancelledError)."""

        def handlers():
            return [t for t in asyncio.all_tasks()
                    if getattr(t.get_coro(), "__qualname__", "")
                    == "CodecServer._handle_conn"]

        async def main():
            server = CodecServer(_serve_config())
            await server.start()
            host, port = await server.serve_tcp("127.0.0.1", 0)
            _reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(200):
                    if handlers():
                        break
                    await asyncio.sleep(0.005)
                assert handlers(), "the server never accepted the connection"
                await server.stop()
                return handlers()
            finally:
                writer.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            pending = asyncio.run(main())
        assert pending == []
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.ERROR]

    def test_tcp_target_load_run(self):
        spec = LoadSpec(rate=100.0, duration=0.1, side=16, levels=1,
                        cb_size=16, n_images=2)
        workload = Workload(spec)

        async def main():
            async with CodecServer(_serve_config(queue_depth=32)) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                target = await TcpTarget(host, port).open()
                try:
                    return await run_load(target, spec, workload=workload)
                finally:
                    await target.close()

        report = asyncio.run(main())
        assert report.offered == spec.n_requests
        assert report.errors == 0
        assert report.mismatches == 0
        assert report.completed + report.shed == report.offered


# ---------------------------------------------------------------------------
# Load generator + report.
# ---------------------------------------------------------------------------


class TestLoadgen:
    def test_arrival_offsets_deterministic(self):
        spec = LoadSpec(rate=50.0, duration=0.2)
        offsets = arrival_offsets(spec)
        assert offsets == [i / 50.0 for i in range(10)]
        assert arrival_offsets(spec) == offsets

    def test_workload_oracle_matches_direct_calls(self):
        spec = LoadSpec(rate=10, duration=0.1, side=16, levels=1,
                        cb_size=16, n_images=2)
        wl = Workload(spec)
        payload, params = wl.payload(3)  # wraps round-robin: 3 % 2 == 1
        assert payload is wl.images[1]
        assert wl.matches(1, encode_image(wl.images[1], wl.params).data)
        assert not wl.matches(1, b"wrong bytes")

    def test_report_percentiles_and_trajectory(self, tmp_path):
        from repro.bench.trajectory import load_trajectory
        from repro.serve import LoadReport, LoadSample, percentile

        samples = [
            LoadSample(index=i, status="ok", latency=0.01 * (i + 1))
            for i in range(10)
        ]
        samples.append(LoadSample(index=10, status="rejected",
                                  reason=QUEUE_FULL))
        rep = LoadReport(spec=LoadSpec(rate=10, duration=1.1).to_dict(),
                         samples=samples, elapsed=1.0)
        assert rep.offered == 11 and rep.completed == 10 and rep.shed == 1
        assert not rep.clean
        pct = rep.percentiles()
        assert pct["p50"] == pytest.approx(0.05)
        assert pct["p99"] == pytest.approx(0.10)
        assert pct["max"] == pytest.approx(0.10)
        assert rep.throughput == pytest.approx(10.0)
        assert rep.shed_reasons() == {QUEUE_FULL: 1}
        assert "p95" in rep.summary()
        assert percentile([], 0.5) != percentile([], 0.5)  # NaN
        path = tmp_path / "BENCH_0001.json"
        rep.append_to_trajectory(path, name="serve-test")
        run = load_trajectory(path)
        sc = run.scenario("experiment:serve-test")
        assert sc is not None
        assert sc.extra["serve"]["shed"] == 1
        assert sc.extra["checks_passed"] is False

    def test_in_process_load_run_clean(self):
        spec = LoadSpec(rate=80.0, duration=0.1, side=16, levels=1,
                        cb_size=16, n_images=2)
        workload = Workload(spec)

        async def main():
            async with CodecServer(_serve_config(queue_depth=32,
                                                 max_batch=4)) as server:
                return await run_load(InProcessTarget(server), spec,
                                      workload=workload)

        report = asyncio.run(main())
        assert report.offered == 8
        assert report.completed + report.shed == 8
        assert report.errors == 0 and report.mismatches == 0

    def test_spec_validation(self):
        for bad in (
            dict(rate=0), dict(duration=0), dict(op="transcode"),
            dict(n_images=0),
        ):
            with pytest.raises(ValueError):
                LoadSpec(**bad)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def test_serve_bench_reports_percentiles(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        bench_path = tmp_path / "BENCH_0001.json"
        rc = main([
            "serve", "bench", "--rate", "40", "--duration", "0.2",
            "--side", "16", "--levels", "1", "--cb-size", "16",
            "--backend", "serial", "--workers", "1", "--pools", "1",
            "--report", str(report_path), "--bench-json", str(bench_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        for token in ("p50", "p95", "p99", "throughput", "byte-mismatches 0"):
            assert token in out
        doc = json.loads(report_path.read_text())
        assert doc["offered"] == 8
        assert doc["mismatches"] == 0
        assert "p99" in doc["percentiles"]
        traj = json.loads(bench_path.read_text())
        assert traj["scenarios"][0]["name"].startswith("experiment:serve-")

    def test_serve_bench_sheds_past_queue_cap(self, capsys):
        """Driven far past capacity with a depth-1 queue, the server
        sheds explicitly (Rejected results, not timeouts or crashes)
        and --require-clean turns that into a nonzero exit."""
        from repro.cli import main

        rc = main([
            "serve", "bench", "--rate", "400", "--duration", "0.25",
            "--side", "32", "--levels", "2", "--cb-size", "16",
            "--backend", "serial", "--workers", "1", "--pools", "1",
            "--queue-depth", "1", "--max-batch", "1",
            "--require-clean",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "queue-full" in out
        assert "NOT CLEAN" in out
        assert "errors 0" in out


# ---------------------------------------------------------------------------
# Rate x backend soak matrix (slow).
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("processes", 2),
])
@pytest.mark.parametrize("rate", [50.0, 200.0])
def test_soak_matrix(backend, workers, rate):
    """Every (rate, backend) cell: all requests answered, zero errors,
    zero byte-mismatches, sheds only as explicit Rejected results."""
    spec = LoadSpec(rate=rate, duration=0.5, side=16, levels=1,
                    cb_size=16, n_images=3)
    workload = Workload(spec)
    config = ServeConfig(backend=backend, workers=workers, pools=2,
                         queue_depth=16, max_batch=4,
                         supervision=SupervisionPolicy(backoff_base=0.0))

    async def main():
        async with CodecServer(config) as server:
            return await run_load(InProcessTarget(server), spec,
                                  workload=workload)

    report = asyncio.run(main())
    assert report.offered == spec.n_requests
    assert report.completed + report.shed == report.offered
    assert report.errors == 0
    assert report.mismatches == 0
    for reason in report.shed_reasons():
        assert reason in (QUEUE_FULL, DEADLINE)

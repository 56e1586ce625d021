"""Exactly-once wire protocol: client resilience, replay, chaos soak.

The contract under test: one logical ``CodecClient.request()`` produces
exactly one result byte-identical to a direct codec call, however badly
the network behaves in between.  The pieces are unit-tested against
fake clocks (replay cache TTL/eviction, circuit-breaker state machine,
seeded jitter), the wire robustness cases drive a real server over
loopback (oversized frames, corrupt bytes, interleaved ids, mid-request
disconnects), and the acceptance soak pushes sequential requests
through the seeded :class:`~repro.faults.ChaosProxy` and cross-checks
the server's per-key execution counts: chaos fired, every reply matched
the oracle, the replay cache answered at least one retry, and no key
executed twice.
"""

from __future__ import annotations

import asyncio
import base64
import json
import random

import numpy as np
import pytest

from tests.conftest import encode_bytes, seeded_image
from repro.codec import CodecParams, decode_image
from repro.faults import ChaosProxy, ChaosSpec, ChaosTransport
from repro.obs import MetricsRegistry, parse_prometheus
from repro.serve import (
    DEADLINE,
    BreakerPolicy,
    CircuitBreaker,
    CodecClient,
    CodecServer,
    Completed,
    Failed,
    Rejected,
    ReplayCache,
    RetriesExhausted,
    RetryPolicy,
    ServeConfig,
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


def _config(**kw) -> ServeConfig:
    base = dict(backend="serial", workers=1, pools=1, queue_depth=16,
                max_batch=4, batch_window=0.0)
    base.update(kw)
    return ServeConfig(**base)


def _fast_retry(**kw) -> RetryPolicy:
    base = dict(max_attempts=4, backoff_base=0.0, backoff_max=0.0,
                attempt_timeout=5.0, jitter_seed=0)
    base.update(kw)
    return RetryPolicy(**base)


async def _free_port() -> int:
    """A port that was just listening and now refuses connections."""
    srv = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    port = srv.sockets[0].getsockname()[1]
    srv.close()
    await srv.wait_closed()
    return port


# ---------------------------------------------------------------------------
# Replay cache: fake-clock unit tests.
# ---------------------------------------------------------------------------


class TestReplayCache:
    def test_execute_then_cached_until_ttl(self):
        clock = FakeClock()
        cache = ReplayCache(cap=8, ttl=10.0, clock=clock)
        assert cache.begin("k1") == ("execute", None)
        cache.finish("k1", {"status": "ok", "data_b64": "QQ=="})
        verdict, reply = cache.begin("k1")
        assert verdict == "cached"
        assert reply == {"status": "ok", "data_b64": "QQ=="}
        clock.advance(9.9)
        assert cache.begin("k1")[0] == "cached"
        clock.advance(0.2)  # past the TTL: idempotency window closed
        assert cache.begin("k1") == ("execute", None)
        assert cache.expirations == 1

    def test_cap_evicts_fifo(self):
        clock = FakeClock()
        cache = ReplayCache(cap=2, ttl=100.0, clock=clock)
        for key in ("a", "b", "c"):
            assert cache.begin(key) == ("execute", None)
            cache.finish(key, {"status": "ok", "key": key})
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.begin("a") == ("execute", None)  # oldest died
        assert cache.begin("b")[0] == "cached"
        assert cache.begin("c")[0] == "cached"

    def test_inflight_join_gets_the_same_reply(self):
        async def main():
            cache = ReplayCache()
            assert cache.begin("k") == ("execute", None)
            verdict, fut = cache.begin("k")
            assert verdict == "joined"
            assert cache.inflight == 1
            cache.finish("k", {"status": "ok", "n": 1})
            return await fut

        assert asyncio.run(main()) == {"status": "ok", "n": 1}

    def test_sheds_resolve_joiners_but_are_not_cached(self):
        async def main():
            cache = ReplayCache()
            assert cache.begin("k") == ("execute", None)
            _, fut = cache.begin("k")
            cache.finish("k", {"status": "rejected", "reason": "queue-full"},
                         cache=False)
            joined_reply = await fut
            return joined_reply, cache.begin("k")

        joined_reply, after = asyncio.run(main())
        assert joined_reply["status"] == "rejected"
        # The retry after a shed earns a fresh admission attempt.
        assert after == ("execute", None)

    def test_abort_answers_joiners_without_caching(self):
        async def main():
            cache = ReplayCache()
            cache.begin("k")
            _, fut = cache.begin("k")
            cache.abort("k", {"status": "error", "retryable": True})
            return await fut, cache.begin("k")

        reply, after = asyncio.run(main())
        assert reply["retryable"] is True
        assert after == ("execute", None)

    def test_execution_tracking_counts_only_cached_finishes(self):
        clock = FakeClock()
        cache = ReplayCache(ttl=1.0, clock=clock, track_executions=True)
        cache.begin("k")
        cache.finish("k", {"status": "rejected"}, cache=False)  # a shed
        assert cache.executions == {}
        cache.begin("k")
        cache.finish("k", {"status": "ok"})
        assert cache.executions == {"k": 1}
        clock.advance(2.0)  # TTL lapses; a late retry re-executes
        assert cache.begin("k") == ("execute", None)
        cache.finish("k", {"status": "ok"})
        assert cache.executions == {"k": 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayCache(cap=0)
        with pytest.raises(ValueError):
            ReplayCache(ttl=0.0)


# ---------------------------------------------------------------------------
# Circuit breaker: fake-clock state machine.
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(BreakerPolicy(failure_threshold=3,
                                          reset_timeout=5.0), clock=clock)
        for _ in range(2):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED and br.allow()
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert br.opens == 1
        assert not br.allow()
        assert br.time_until_half_open() == pytest.approx(5.0)

    def test_success_resets_the_failure_streak(self):
        br = CircuitBreaker(BreakerPolicy(failure_threshold=2,
                                          reset_timeout=1.0),
                            clock=FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == CircuitBreaker.CLOSED  # streak broken

    def test_half_open_probe_budget_and_close(self):
        clock = FakeClock()
        br = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                          reset_timeout=2.0,
                                          half_open_max=1), clock=clock)
        br.record_failure()
        assert not br.allow()
        clock.advance(2.5)
        assert br.allow()  # the half-open probe
        assert br.state == CircuitBreaker.HALF_OPEN
        assert not br.allow()  # probe budget spent
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED
        assert br.allow() and br.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        br = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                          reset_timeout=1.0), clock=clock)
        br.record_failure()
        clock.advance(1.5)
        assert br.allow()
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert br.opens == 2
        assert not br.allow()

    def test_failure_while_open_does_not_extend_the_timeout(self):
        clock = FakeClock()
        br = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                          reset_timeout=1.0), clock=clock)
        br.record_failure()
        clock.advance(0.9)
        br.record_failure()  # late-arriving failure: must not re-arm
        clock.advance(0.2)
        assert br.allow()  # 1.1s after the *first* open

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_timeout=0.0)
        with pytest.raises(ValueError):
            BreakerPolicy(half_open_max=0)


# ---------------------------------------------------------------------------
# Retry policy: seeded full jitter.
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_bounded_full_jitter(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.5)
        rng = random.Random(7)
        for attempt in range(6):
            cap = min(0.5, 0.1 * 2 ** attempt)
            for _ in range(20):
                assert 0.0 <= policy.backoff(attempt, rng) <= cap

    def test_seeded_jitter_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_max=2.0)
        a = [policy.backoff(i, random.Random(42)) for i in range(5)]
        b = [policy.backoff(i, random.Random(42)) for i in range(5)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=0.0)


# ---------------------------------------------------------------------------
# CodecClient against a live server (loopback, no chaos).
# ---------------------------------------------------------------------------


class TestCodecClient:
    def test_encode_decode_ping_byte_identical(self):
        async def main():
            async with CodecServer(_config()) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                async with CodecClient(host, port,
                                       retry=_fast_retry()) as client:
                    pong = await client.ping()
                    enc = await client.encode(_image(), _params())
                    dec = await client.decode(enc.value)
                    return pong, enc, dec, client.stats_dict()

        pong, enc, dec, stats = asyncio.run(main())
        assert pong is True
        reference = encode_bytes(_image(), _params())
        assert isinstance(enc, Completed) and enc.value == reference
        assert isinstance(dec, Completed)
        assert np.array_equal(dec.value, decode_image(reference))
        assert stats["requests"] == 3 and stats["attempts"] == 3
        assert stats["retries"] == 0 and stats["connects"] == 1
        assert stats["breaker_state"] == CircuitBreaker.CLOSED

    def test_dead_endpoint_exhausts_retries(self):
        async def main():
            port = await _free_port()
            client = CodecClient(
                "127.0.0.1", port,
                retry=_fast_retry(max_attempts=2),
                breaker=BreakerPolicy(failure_threshold=10),
            )
            try:
                return await client.request("encode", _image(), _params())
            finally:
                await client.close()

        result = asyncio.run(main())
        assert isinstance(result, Failed)
        assert isinstance(result.error, RetriesExhausted)

    def test_breaker_opens_against_a_dead_endpoint(self):
        async def main():
            port = await _free_port()
            client = CodecClient(
                "127.0.0.1", port,
                retry=_fast_retry(max_attempts=4),
                breaker=BreakerPolicy(failure_threshold=2,
                                      reset_timeout=0.02),
            )
            try:
                result = await client.request("encode", _image(), _params())
            finally:
                await client.close()
            return result, client.stats_dict()

        result, stats = asyncio.run(main())
        assert isinstance(result, Failed)
        assert stats["breaker_opens"] >= 1

    def test_client_deadline_bounds_the_whole_request(self):
        """Against a dead endpoint the budget, not the attempt cap, ends
        the request -- and the verdict is an explicit deadline shed."""
        async def main():
            port = await _free_port()
            client = CodecClient(
                "127.0.0.1", port,
                retry=RetryPolicy(max_attempts=50, backoff_base=0.05,
                                  backoff_max=0.05, attempt_timeout=1.0,
                                  jitter_seed=1),
                breaker=BreakerPolicy(failure_threshold=3,
                                      reset_timeout=0.05),
            )
            try:
                return await client.request("encode", _image(), _params(),
                                            deadline=0.3)
            finally:
                await client.close()

        result = asyncio.run(main())
        assert isinstance(result, Rejected)
        assert result.reason == DEADLINE

    def test_reconnect_after_server_kills_the_connection(self):
        """First connection dies after the first frame; the client
        reconnects and the retry (same idempotency key) succeeds."""
        connections = 0

        async def handle(reader, writer):
            nonlocal connections
            connections += 1
            doomed = connections == 1
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    if doomed:
                        writer.transport.abort()
                        return
                    msg = json.loads(line)
                    writer.write(json.dumps(
                        {"id": msg.get("id"), "status": "ok", "pong": True}
                    ).encode() + b"\n")
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()

        async def main():
            srv = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = srv.sockets[0].getsockname()[1]
            try:
                async with CodecClient("127.0.0.1", port,
                                       retry=_fast_retry()) as client:
                    ok = await client.ping()
                    return ok, client.stats_dict()
            finally:
                srv.close()
                await srv.wait_closed()

        ok, stats = asyncio.run(main())
        assert ok is True
        assert connections == 2
        assert stats["retries"] >= 1
        assert stats["reconnects"] == 1


# ---------------------------------------------------------------------------
# Wire robustness: malformed input against a live server.
# ---------------------------------------------------------------------------


class TestWireRobustness:
    def test_oversized_frame_answers_and_connection_survives(self):
        metrics = MetricsRegistry()
        config = _config(max_frame=2048)

        async def main():
            async with CodecServer(config, metrics=metrics) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                # Spans several read chunks to exercise discard mode.
                writer.write(b'{"id": 1, "junk": "' + b"A" * 200_000 + b'"}\n')
                await writer.drain()
                too_large = json.loads(await reader.readline())
                # The same connection still serves real requests.
                writer.write(json.dumps({"id": 2, "op": "ping"}).encode()
                             + b"\n")
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return too_large, pong

        too_large, pong = asyncio.run(main())
        assert too_large["status"] == "error"
        assert "frame-too-large" in too_large["error"]
        assert too_large["retryable"] is False
        assert too_large["id"] is None
        assert pong == {"id": 2, "status": "ok", "pong": True}
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples["repro_serve_frame_too_large_total"] == 1

    def test_non_utf8_frame_is_a_retryable_error(self):
        async def main():
            async with CodecServer(_config()) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"\xff\xfe\x00 not even close\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                writer.write(json.dumps({"id": 9, "op": "ping"}).encode()
                             + b"\n")
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return error, pong

        error, pong = asyncio.run(main())
        assert error["status"] == "error"
        assert error["retryable"] is True
        assert pong["status"] == "ok"

    def test_interleaved_ids_route_to_their_requests(self):
        """Replies may interleave across one connection's in-flight
        requests; ids keep them honest."""
        from repro.serve import image_to_wire

        async def main():
            config = _config(backend="serial", workers=2, pools=2,
                             max_batch=1)
            async with CodecServer(config) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(
                    host, port, limit=1 << 23
                )
                for rid in ("alpha", "beta", "gamma"):
                    seed = {"alpha": 1, "beta": 2, "gamma": 3}[rid]
                    writer.write(json.dumps({
                        "id": rid, "op": "encode",
                        "image": image_to_wire(_image(seed)),
                        "params": {"levels": 1, "filter_name": "5/3",
                                   "cb_size": 16},
                    }).encode() + b"\n")
                await writer.drain()
                replies = {}
                for _ in range(3):
                    msg = json.loads(await reader.readline())
                    replies[msg["id"]] = msg
                writer.close()
                await writer.wait_closed()
                return replies

        replies = asyncio.run(main())
        assert set(replies) == {"alpha", "beta", "gamma"}
        for rid, seed in (("alpha", 1), ("beta", 2), ("gamma", 3)):
            assert replies[rid]["status"] == "ok"
            assert base64.b64decode(replies[rid]["data_b64"]) == \
                encode_bytes(_image(seed), _params())

    def test_mid_request_disconnect_leaks_nothing(self):
        """A client that vanishes mid-request must not leak an
        admission slot or a pool permit: the work finishes, the reply
        write fails silently, and the server keeps serving."""
        from repro.serve import image_to_wire

        config = _config(pools=1)

        async def main():
            async with CodecServer(config) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                _, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps({
                    "id": 1, "op": "encode",
                    "image": image_to_wire(_image()),
                    "params": {"levels": 1, "filter_name": "5/3",
                               "cb_size": 16},
                }).encode() + b"\n")
                await writer.drain()
                writer.transport.abort()  # vanish before the reply
                # Wait until the orphaned request has fully drained.
                for _ in range(200):
                    if server.queue.depth == 0 and \
                            server._slots._value == config.pools and \
                            not server._inflight:
                        break
                    await asyncio.sleep(0.01)
                depth = server.queue.depth
                permits = server._slots._value
                # The server still answers: in-process and over TCP.
                direct = await server.submit("encode", _image(5), _params())
                async with CodecClient(host, port,
                                       retry=_fast_retry()) as client:
                    served = await client.encode(_image(6), _params())
                return depth, permits, direct, served

        depth, permits, direct, served = asyncio.run(main())
        assert depth == 0
        assert permits == config.pools  # no pool-semaphore leak
        assert isinstance(direct, Completed)
        assert direct.value == encode_bytes(_image(5), _params())
        assert isinstance(served, Completed)
        assert served.value == encode_bytes(_image(6), _params())


# ---------------------------------------------------------------------------
# Server-side idempotent replay over the wire.
# ---------------------------------------------------------------------------


class TestIdempotentReplay:
    def test_retry_with_same_key_is_answered_from_cache(self):
        from repro.serve import image_to_wire

        metrics = MetricsRegistry()
        config = _config(track_executions=True)

        async def main():
            async with CodecServer(config, metrics=metrics) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(
                    host, port, limit=1 << 23
                )

                async def rpc(obj):
                    writer.write(json.dumps(obj).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                msg = {
                    "id": "r1", "op": "encode", "idem": "key-1",
                    "image": image_to_wire(_image()),
                    "params": {"levels": 1, "filter_name": "5/3",
                               "cb_size": 16},
                }
                first = await rpc(msg)
                second = await rpc(dict(msg, id="r1-retry"))
                writer.close()
                await writer.wait_closed()
                return first, second, dict(server.replay.executions)

        first, second, executions = asyncio.run(main())
        assert first["status"] == "ok"
        assert "replayed" not in first
        assert second["status"] == "ok"
        assert second["replayed"] is True
        assert second["id"] == "r1-retry"  # echoes the retry's own id
        assert second["data_b64"] == first["data_b64"]
        assert executions == {"key-1": 1}
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples["repro_serve_replay_hits_total"] == 1
        assert samples["repro_serve_replay_cached_total"] == 1
        assert samples["repro_serve_replay_stores_total"] == 1

    def test_unkeyed_requests_bypass_the_cache(self):
        from repro.serve import image_to_wire

        config = _config(track_executions=True)

        async def main():
            async with CodecServer(config) as server:
                host, port = await server.serve_tcp("127.0.0.1", 0)
                reader, writer = await asyncio.open_connection(
                    host, port, limit=1 << 23
                )
                msg = {
                    "id": 1, "op": "encode",
                    "image": image_to_wire(_image()),
                    "params": {"levels": 1, "filter_name": "5/3",
                               "cb_size": 16},
                }
                for rid in (1, 2):
                    writer.write(json.dumps(dict(msg, id=rid)).encode()
                                 + b"\n")
                    await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in range(2)]
                writer.close()
                await writer.wait_closed()
                return replies, len(server.replay)

        replies, cached = asyncio.run(main())
        assert all(r["status"] == "ok" for r in replies)
        assert all("replayed" not in r for r in replies)
        assert cached == 0


# ---------------------------------------------------------------------------
# Chaos harness units.
# ---------------------------------------------------------------------------


class TestChaosHarness:
    def test_spec_parse(self):
        spec = ChaosSpec.parse(
            "disconnect=0.1, corrupt=0.05, seed=7, direction=s2c"
        )
        assert spec.disconnect == 0.1
        assert spec.corrupt == 0.05
        assert spec.seed == 7
        assert spec.direction == "s2c"
        assert ChaosSpec.parse("") == ChaosSpec()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(disconnect=0.7, corrupt=0.5)  # rates sum past 1
        with pytest.raises(ValueError):
            ChaosSpec(direction="sideways")
        with pytest.raises(ValueError):
            ChaosSpec.parse("warp=0.1")
        with pytest.raises(ValueError):
            ChaosSpec.parse("disconnect")

    def test_plan_is_seed_deterministic(self):
        spec = ChaosSpec(disconnect=0.2, corrupt=0.2, delay=0.1, seed=5)
        a = ChaosTransport(spec, "s2c")
        plans = [a.plan() for _ in range(64)]
        # Same seed, same direction -> identical schedule end to end.
        b = ChaosTransport(spec, "s2c")
        assert [b.plan() for _ in range(64)] == plans
        # A different direction is an independent stream.
        c = ChaosTransport(spec, "c2s")
        assert [c.plan() for _ in range(64)] != plans

    def test_inactive_direction_never_faults(self):
        spec = ChaosSpec(disconnect=1.0, direction="s2c")
        quiet = ChaosTransport(spec, "c2s")
        assert all(quiet.plan() == "ok" for _ in range(32))

    def test_corrupt_frame_damages_without_moving_the_boundary(self):
        spec = ChaosSpec(corrupt=1.0, corrupt_bytes=16, seed=3)
        t = ChaosTransport(spec, "s2c")
        body = json.dumps({"id": 1, "payload": "x" * 200}).encode()
        mangled = t.corrupt_frame(body)
        assert len(mangled) == len(body)
        assert mangled != body
        assert b"\n" not in mangled


# ---------------------------------------------------------------------------
# Acceptance: the exactly-once chaos soak.
# ---------------------------------------------------------------------------


def _run_soak(chaos: ChaosSpec, n_requests: int,
              retry: RetryPolicy):
    """Sequential keyed requests through the chaos proxy; returns
    everything the exactly-once assertions need."""
    metrics = MetricsRegistry()
    config = _config(queue_depth=32, track_executions=True)
    images = [_image(100 + i) for i in range(4)]
    params = _params()
    oracle = [encode_bytes(img, params) for img in images]

    async def main():
        async with CodecServer(config, metrics=metrics) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            proxy = ChaosProxy(host, port, chaos)
            phost, pport = await proxy.start()
            client = CodecClient(
                phost, pport, retry=retry,
                breaker=BreakerPolicy(failure_threshold=5,
                                      reset_timeout=0.05),
            )
            results = []
            try:
                for i in range(n_requests):
                    results.append(await client.request(
                        "encode", images[i % len(images)], params
                    ))
            finally:
                stats = client.stats_dict()
                await client.close()
                faults = proxy.fault_counts()
                await proxy.stop()
            executions = dict(server.replay.executions)
        return results, stats, faults, executions

    results, stats, faults, executions = asyncio.run(main())
    samples = parse_prometheus(metrics.to_prometheus())
    return results, stats, faults, executions, samples, oracle


class TestExactlyOnceSoak:
    def test_soak_reply_loss_hits_the_replay_cache(self):
        """Faults confined to server->client frames: every request the
        server answers has already executed, so every client retry MUST
        be a replay hit -- the sharpest form of the exactly-once claim.
        """
        n = 25
        chaos = ChaosSpec(disconnect=0.18, corrupt=0.06, seed=11,
                          direction="s2c")
        retry = RetryPolicy(max_attempts=10, backoff_base=0.01,
                            backoff_max=0.05, attempt_timeout=0.5,
                            jitter_seed=7)
        results, stats, faults, executions, samples, oracle = _run_soak(
            chaos, n, retry
        )

        # Every submitted request converged to exactly one good reply,
        # byte-identical to the direct-call oracle.
        assert len(results) == n
        for i, res in enumerate(results):
            assert isinstance(res, Completed), (i, res)
            assert res.value == oracle[i % len(oracle)], i

        # The chaos was real.
        assert faults["disconnect"] + faults["corrupt"] >= 1, faults
        assert stats["retries"] >= 1, stats

        # Retried work was answered from the replay cache, not re-run.
        assert samples["repro_serve_replay_hits_total"] >= 1
        assert stats["replay_hits"] >= 1

        # Zero duplicate backend executions: each key ran exactly once.
        assert len(executions) == n
        assert set(executions.values()) == {1}, executions

    @pytest.mark.slow
    def test_soak_bidirectional_chaos_converges(self):
        """Both directions faulted: lost *requests* re-execute (the key
        never reached the server), lost *replies* replay -- either way
        every reply is oracle-identical and no key runs twice."""
        n = 40
        chaos = ChaosSpec(disconnect=0.10, corrupt=0.05, truncate=0.03,
                          split=0.05, delay=0.05, seed=23,
                          direction="both")
        retry = RetryPolicy(max_attempts=12, backoff_base=0.01,
                            backoff_max=0.05, attempt_timeout=0.5,
                            jitter_seed=9)
        results, stats, faults, executions, samples, oracle = _run_soak(
            chaos, n, retry
        )

        assert len(results) == n
        for i, res in enumerate(results):
            assert isinstance(res, Completed), (i, res)
            assert res.value == oracle[i % len(oracle)], i
        assert sum(faults[k] for k in
                   ("disconnect", "truncate", "corrupt", "split")) >= 1
        # Keys that executed did so exactly once (a request lost on the
        # way in never executed under that attempt, but its retry keeps
        # the same key -- so duplicates would show up right here).
        assert set(executions.values()) == {1}, executions
        assert len(executions) == n

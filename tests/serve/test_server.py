"""End-to-end tests of the serving daemon over a real TCP socket.

A :class:`ServerThread` hosts the full stack (listener, scheduler,
engine) in-process; :class:`ServeClient` drives it exactly like the
CLI, the benchmark and the CI equivalence job do.  The headline
property — served responses are byte-identical to the direct
in-process path, cold and warm — is asserted here at test scale and
again in CI at replay scale.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.cache import default_cache_dir
from repro.core.engine import clear_evaluation_cache
from repro.serve import (
    SchedulerConfig,
    ServeClient,
    ServerThread,
    answer_direct,
    encode_line,
    wait_for_server,
)
from repro.serve.protocol import PROTOCOL
from repro.serve.server import MAX_LINE_BYTES

MIXED_REQUESTS = [
    {"op": "ping", "id": "q1"},
    {"op": "cost", "id": "q2", "model": "bert", "seq": 512, "batch": 4,
     "dataflow": "base"},
    {"op": "cost", "id": "q3", "model": "bert", "seq": 512, "batch": 4,
     "dataflow": "flat-r64"},
    {"op": "search", "id": "q4", "model": "xlm", "seq": 512, "batch": 4},
    {"op": "sweep", "id": "q5", "requests": [
        {"op": "cost", "model": "bert", "seq": 256, "batch": 4,
         "dataflow": dataflow}
        for dataflow in ("base", "base-h", "flat-r2", "flat-r4", "flat-r8",
                         "flat-r16", "flat-r32", "flat-r64", "flat-r128",
                         "flat-r256")
    ]},
    {"op": "cost", "id": "q6", "model": "bert", "seq": 512, "batch": 4,
     "dataflow": "flat-r64"},  # repeat of q3: the warm path
]


@pytest.fixture(scope="module")
def server():
    clear_evaluation_cache()
    with ServerThread(SchedulerConfig(window_ms=1.0)) as (host, port):
        wait_for_server(host, port, timeout=30)
        yield host, port


class TestLifecycleAndOps:
    def test_ping_reports_protocol(self, server):
        with ServeClient(*server) as client:
            response = client.ping()
        assert response["ok"] and response["result"]["protocol"] == PROTOCOL

    def test_stats_exposes_scheduler_and_engine(self, server):
        with ServeClient(*server) as client:
            stats = client.stats()
        assert stats["protocol"] == PROTOCOL
        assert stats["draining"] is False
        for key in ("requests", "evaluations", "memo_hits", "coalesced",
                    "grid_calls", "grid_rows", "shed", "deadline_expired"):
            assert key in stats["scheduler"], key
        assert set(stats["engine_lru"]) == {
            "entries", "maxsize", "hits", "misses",
        }

    def test_served_responses_match_direct_bytes_cold_and_warm(self, server):
        direct = {
            req["id"]: encode_line(answer_direct(req))
            for req in MIXED_REQUESTS
        }
        host, port = server
        for attempt in ("cold", "warm"):
            with ServeClient(host, port) as client:
                responses = client.request_many(MIXED_REQUESTS)
            served = {
                req["id"]: encode_line(response)
                for req, response in zip(MIXED_REQUESTS, responses)
            }
            assert served == direct, attempt

    def test_sweep_streams_progress_events(self, server):
        events = []
        sweep = {"op": "sweep", "requests": [
            {"op": "cost", "model": "bert", "seq": 128, "batch": 2,
             "dataflow": f"flat-r{2 ** i}"}
            for i in range(1, 9)
        ] * 3}  # 24 sub-queries over sweep_chunk=8 -> progress at 8, 16
        with ServeClient(*server) as client:
            response = client.request(sweep, on_event=events.append)
        assert response["ok"]
        assert response["result"]["total"] == 24
        assert len(response["result"]["results"]) == 24
        assert [e["done"] for e in events] == [8, 16]
        assert all(e["total"] == 24 for e in events)

    def test_pipelined_requests_answer_out_of_order_safely(self, server):
        requests = [
            {"op": "cost", "id": f"p{i}", "model": "bert", "seq": 512,
             "batch": 4, "dataflow": "flat-r64"}
            for i in range(10)
        ]
        with ServeClient(*server) as client:
            responses = client.request_many(requests)
        assert [r["id"] for r in responses] == [r["id"] for r in requests]
        assert all(r["ok"] for r in responses)
        payloads = [encode_line(r["result"]) for r in responses]
        assert len(set(payloads)) == 1

    def test_concurrent_clients_get_identical_answers(self, server):
        host, port = server
        request = {"op": "cost", "model": "t5", "seq": 512, "batch": 4,
                   "dataflow": "flat-r32"}
        results, errors = [], []

        def hit():
            try:
                with ServeClient(host, port) as client:
                    results.append(client.request(dict(request)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(results) == 6 and all(r["ok"] for r in results)
        assert len({encode_line(r["result"]) for r in results}) == 1


class TestErrors:
    @pytest.mark.parametrize("req,code,fragment", [
        ({"op": "nope"}, "bad_request", "unknown op"),
        ({"op": "cost", "model": "bert"}, "bad_request", "dataflow"),
        ({"op": "cost", "model": "zz", "dataflow": "base"}, "bad_request",
         "unknown model"),
        ({"op": "sweep", "requests": []}, "bad_request", "non-empty"),
        ({"op": "experiment", "name": "zz"}, "bad_request",
         "unknown experiment"),
    ])
    def test_typed_error_envelopes(self, server, req, code, fragment):
        with ServeClient(*server) as client:
            response = client.request(req)
        assert response["ok"] is False
        assert response["code"] == code
        assert fragment in response["error"]

    def test_invalid_json_line_gets_bad_request_with_null_id(self, server):
        with ServeClient(*server) as client:
            client._sock.sendall(b"this is not json\n")
            response = client._read()
        assert response["ok"] is False
        assert response["code"] == "bad_request"
        assert response["id"] is None

    def test_oversized_line_is_too_large_and_connection_survives(
        self, server
    ):
        sweep = {"op": "sweep", "id": "big", "requests": [
            {"op": "cost", "model": "bert", "seq": 512, "batch": 4,
             "dataflow": "flat-r64"}
        ] * (MAX_LINE_BYTES // 64)}
        line = encode_line(sweep)
        assert len(line) > MAX_LINE_BYTES
        ping = encode_line({"op": "ping", "id": "after"})
        with ServeClient(*server) as client:
            client._sock.sendall(line + ping)
            first, second = client._read(), client._read()
            again = client.ping()
        assert first["ok"] is False
        assert first["code"] == "too_large"
        assert first["id"] is None
        assert second["id"] == "after" and second["ok"]
        assert second["result"]["protocol"] == PROTOCOL
        assert again["ok"]

    def test_error_responses_match_direct_bytes(self, server):
        bad = {"op": "cost", "id": "e1", "model": "bert", "scope": "zz",
               "dataflow": "base"}
        with ServeClient(*server) as client:
            response = client.request(bad)
        assert encode_line(response) == encode_line(answer_direct(bad))


class TestSharedCache:
    def test_coalesced_identical_requests_write_disk_once(self, tmp_path):
        """N identical pipelined requests: one evaluation, one disk
        write — dedup happens before the engine, so the persistent
        cache never sees the same key computed twice."""
        request = {"op": "cost", "model": "trxl", "seq": 512, "batch": 4,
                   "dataflow": "flat-r64"}
        total = 8
        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path)):
            config = SchedulerConfig(window_ms=50.0)
            with ServerThread(config) as (host, port):
                with ServeClient(host, port) as client:
                    responses = client.request_many(
                        [dict(request, id=f"d{i}") for i in range(total)]
                    )
                    stats = client.stats()
        assert all(r["ok"] for r in responses)
        assert len({encode_line(r["result"]) for r in responses}) == 1
        scheduler = stats["scheduler"]
        assert scheduler["evaluations"] == 1
        assert scheduler["coalesced"] + scheduler["memo_hits"] == total - 1
        disk = stats["disk_cache"]
        assert disk["writes"] == 1, disk
        assert disk["corrupt"] == 0


class TestShutdown:
    def test_graceful_drain_on_shutdown_op(self):
        clear_evaluation_cache()
        thread = ServerThread(SchedulerConfig(window_ms=0.0))
        host, port = thread.start()
        with ServeClient(host, port) as client:
            response = client.shutdown_server()
        assert response["ok"] and response["result"]["draining"] is True
        thread.stop(timeout=30)
        with pytest.raises((ConnectionError, OSError)):
            ServeClient(host, port, timeout=2.0).connect().ping()

    def test_stop_times_out_when_the_loop_never_exits(self):
        thread = ServerThread(SchedulerConfig(window_ms=0.0))
        thread.start()
        # A drain that "began" but never finishes: stop() sends none of
        # its own, so only its deadline can end the wait.
        thread._server._draining = True
        with pytest.raises(TimeoutError):
            thread.stop(timeout=0.2)
        thread._server._draining = False
        thread.stop(timeout=30)

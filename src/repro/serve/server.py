"""The asyncio TCP daemon: connections, operations, drain, lifecycle.

One :class:`DSEServer` owns a :class:`~repro.serve.scheduler.
CoalescingScheduler` plus a listening socket.  Each connection reads
newline-delimited JSON requests; every request is handled as its own
task, so one connection can pipeline queries and a long search never
blocks a ping on the same socket.  Response lines are serialized per
connection through a writer lock.

Operations:

``ping`` / ``stats``
    liveness and the scheduler/engine-cache counters.
``cost`` / ``search`` / ``scaleout`` / ``decode``
    resolved into a :class:`~repro.serve.protocol.Query` and submitted
    to the scheduler (coalescing, memo, admission control, deadlines).
    A ``scaleout`` query runs the two-level multi-chip search
    (:func:`~repro.core.scaleout.search_scaleout`) for one chip count;
    a ``decode`` query searches one KV-cached decode step, optionally
    with the attention-variant zoo competing (``"variants": false``
    restricts the space to the reference softmax dataflows).
``sweep``
    decomposed into ``sweep_chunk``-sized slices submitted chunk by
    chunk: the sub-queries of a chunk land in one micro-batch (dense
    grid coalescing), while *between* chunks other clients' queries
    join the queue — long sweeps interleave fairly with short queries
    instead of monopolizing the evaluator.  A progress event streams
    after every chunk.
``experiment``
    one registry experiment (``table1``, ``fig9-edge``, ...) executed
    through the pipeline's job runner on a dedicated single-thread
    executor, serialized by a lock so its scoped search-totals
    attribution stays exact.  This is what ``run-all --serve`` uses.
``shutdown``
    graceful drain: the listener closes, queued and in-flight work
    completes, new submissions fail with ``draining``, then the
    process-level waiter (:meth:`DSEServer.wait_done`) releases.

:class:`ServerThread` runs the whole event loop on a background thread
for tests, benchmarks and the equivalence CI job.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import active as _metrics_active
from repro.obs.trace import span as _span
from repro.serve.protocol import (
    PROTOCOL,
    Draining,
    ProtocolError,
    encode_line,
    error_response,
    ok_response,
    progress_event,
    resolve_deadline_s,
    resolve_query,
)
from repro.serve.scheduler import CoalescingScheduler, SchedulerConfig

__all__ = ["MAX_LINE_BYTES", "DSEServer", "ServerThread", "run_server"]

#: Longest accepted request line, newline excluded: asyncio's default
#: ``StreamReader`` limit (64 KiB, ~850 ``sweep`` entries), stated
#: explicitly.  A longer line is discarded through its newline and
#: answered with a ``too_large`` error; the connection stays open.
MAX_LINE_BYTES = 2**16


async def _discard_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Drop an overlong line through its newline (or to EOF).

    ``consumed`` is the byte count a :class:`asyncio.LimitOverrunError`
    reported as buffered without an acceptable newline; those bytes
    are dropped, then reading resumes until the newline arrives.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return


class DSEServer:
    """One serving process: scheduler + listener + lifecycle."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: SchedulerConfig = SchedulerConfig(),
    ) -> None:
        self._host = host
        self._port = port
        self.scheduler = CoalescingScheduler(config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._experiment_lock: Optional[asyncio.Lock] = None
        self._experiment_executor = None
        self._draining = False
        self._done: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._writers: set = set()
        self.address: Tuple[str, int] = (host, port)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and spawn the scheduler; returns (host, port)."""
        self._experiment_lock = asyncio.Lock()
        self._done = asyncio.Event()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port, limit=MAX_LINE_BYTES
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish everything, release."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.drain()
        # Hang up lingering connections (e.g. the one that sent the
        # shutdown op) so their handler tasks finish before the event
        # loop does — an abandoned handler would be cancelled at loop
        # teardown, which asyncio's stream glue logs as an error.
        # close() flushes buffered responses first, so the shutdown
        # acknowledgement still reaches its caller.
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        if self._experiment_executor is not None:
            self._experiment_executor.shutdown(wait=True)
            self._experiment_executor = None
        if self._done is not None:
            self._done.set()

    async def wait_done(self) -> None:
        """Block until a ``shutdown`` op or :meth:`shutdown` completes."""
        assert self._done is not None, "server not started"
        await self._done.wait()

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun (never reset)."""
        return self._draining

    # -- connection handling -------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: an unterminated last line
                except asyncio.LimitOverrunError as exc:
                    await _discard_line(reader, exc.consumed)
                    await self._send(writer, write_lock, error_response(
                        None, "too_large",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    ))
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            while tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
        finally:
            self._writers.discard(writer)
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        obj: Dict[str, Any],
    ) -> None:
        async with write_lock:
            writer.write(encode_line(obj))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its results are moot

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            req = json.loads(line)
        except json.JSONDecodeError as exc:
            await self._send(writer, write_lock, error_response(
                None, "bad_request", f"invalid JSON: {exc}"
            ))
            return
        req_id = req.get("id") if isinstance(req, dict) else None
        op = req.get("op") if isinstance(req, dict) else None
        start = time.perf_counter()
        try:
            if not isinstance(req, dict):
                raise ProtocolError("request must be a JSON object")
            with _span("serve.request", op=str(op)):
                result = await self._execute(req, req_id, writer, write_lock)
        except ProtocolError as exc:
            self._observe(op, start, error=exc.code)
            await self._send(writer, write_lock, error_response(
                req_id, exc.code, str(exc)
            ))
            return
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            self._observe(op, start, error="internal")
            await self._send(writer, write_lock, error_response(
                req_id, "internal", f"{type(exc).__name__}: {exc}"
            ))
            return
        self._observe(op, start)
        await self._send(writer, write_lock, ok_response(req_id, result))

    @staticmethod
    def _observe(
        op: object, start: float, error: Optional[str] = None
    ) -> None:
        registry = _metrics_active()
        if registry is None:
            return
        registry.histogram("serve.request_s").observe(
            time.perf_counter() - start
        )
        registry.counter(f"serve.op[{op}]").inc()
        if error is not None:
            registry.counter(f"serve.error[{error}]").inc()

    # -- operations ----------------------------------------------------
    async def _execute(
        self,
        req: Dict[str, Any],
        req_id: object,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> Dict[str, Any]:
        op = req.get("op")
        if op == "ping":
            return {"protocol": PROTOCOL}
        if op == "stats":
            return self._stats_payload()
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return {"draining": True}
        if op in ("cost", "search", "scaleout", "decode"):
            query = resolve_query(req)
            deadline_s = resolve_deadline_s(req)
            return await self.scheduler.submit(query, deadline_s)
        if op == "sweep":
            return await self._execute_sweep(req, req_id, writer, write_lock)
        if op == "experiment":
            return await self._execute_experiment(req)
        raise ProtocolError(f"unknown op {op!r}")

    def _stats_payload(self) -> Dict[str, Any]:
        from repro.core.cache import get_default_cache
        from repro.core.engine import evaluation_cache_info

        payload: Dict[str, Any] = {
            "protocol": PROTOCOL,
            "draining": self._draining,
            "scheduler": self.scheduler.stats(),
            "engine_lru": evaluation_cache_info(),
        }
        pcache = get_default_cache()
        if pcache is not None:
            payload["disk_cache"] = pcache.stats.as_dict()
        return payload

    async def _execute_sweep(
        self,
        req: Dict[str, Any],
        req_id: object,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> Dict[str, Any]:
        subs = req.get("requests")
        if not isinstance(subs, list) or not subs:
            raise ProtocolError("sweep needs a non-empty 'requests' list")
        queries = [resolve_query(sub) for sub in subs]
        deadline_s = resolve_deadline_s(req)
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + deadline_s if deadline_s is not None else None
        )
        chunk_size = self.scheduler.config.sweep_chunk
        results: List[Dict[str, Any]] = []
        for lo in range(0, len(queries), chunk_size):
            remaining = None
            if deadline is not None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise ProtocolError(
                        f"sweep deadline passed after {len(results)} of "
                        f"{len(queries)} results",
                        code="deadline_exceeded",
                    )
            chunk = queries[lo:lo + chunk_size]
            # Submitted together: the chunk lands in one micro-batch and
            # coalesces into a single grid call.  Between chunks, other
            # clients' requests join the queue — that is the fairness
            # interleave.
            results.extend(
                await asyncio.gather(
                    *(self.scheduler.submit(q, remaining) for q in chunk)
                )
            )
            if lo + chunk_size < len(queries):
                await self._send(writer, write_lock, progress_event(
                    req_id, len(results), len(queries)
                ))
        return {"results": results, "total": len(queries)}

    async def _execute_experiment(
        self, req: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._draining:
            raise Draining("server is draining; no new work accepted")
        name = req.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("experiment needs a 'name'")
        from repro.experiments.runner import experiment_names

        if name not in experiment_names():
            raise ProtocolError(
                f"unknown experiment {name!r}; choose from "
                f"{experiment_names()}"
            )
        if self._experiment_executor is None:
            from concurrent.futures import ThreadPoolExecutor

            # Dedicated single thread: experiments never starve short
            # queries on the scheduler's evaluator, and serializing them
            # keeps scoped_search_totals attribution exact.
            self._experiment_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-exp"
            )
        assert self._experiment_lock is not None
        async with self._experiment_lock:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._experiment_executor, _experiment_payload, name,
            )


def _experiment_payload(name: str) -> Dict[str, Any]:
    """Run one experiment job and flatten its run record to JSON.

    Reuses the pipeline's job runner (same scoped totals, same cache
    accounting), minus the observability shipping — the server owns
    its own session.  The dict mirrors ``ExperimentRun`` field-for-
    field so ``run-all --serve`` can rebuild the run object.
    """
    from repro.core.cache import resolve_cache_dir
    from repro.experiments.pipeline import _execute

    run = _execute(name, resolve_cache_dir())
    return {
        "name": run.name,
        "status": run.status,
        "report": run.report,
        "wall_time_s": run.wall_time_s,
        "search": run.search,
        "cache": run.cache,
    }


async def run_server(
    host: str = "127.0.0.1",
    port: int = 7321,
    config: SchedulerConfig = SchedulerConfig(),
    announce: Optional[Callable[[str, int], None]] = None,
) -> int:
    """CLI entry: serve until SIGINT/SIGTERM or a ``shutdown`` op."""
    import signal

    server = DSEServer(host, port, config)
    await server.start()
    if announce is not None:
        announce(*server.address)
    loop = asyncio.get_running_loop()

    def _request_shutdown() -> None:
        loop.create_task(server.shutdown())

    installed: List[int] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, _request_shutdown)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loops
    try:
        await server.wait_done()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


class ServerThread:
    """A live server on a background thread (tests, benchmarks, CI).

    Usage::

        with ServerThread() as (host, port):
            client = ServeClient(host, port)
            ...

    ``stop()`` performs the graceful drain and joins the thread.
    """

    def __init__(self, config: SchedulerConfig = SchedulerConfig(),
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._config = config
        self._host = host
        self._port = port
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[DSEServer] = None
        self._error: Optional[BaseException] = None
        self.address: Tuple[str, int] = (host, port)

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._main, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"server thread failed: {self._error}"
            ) from self._error
        return self.address

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = DSEServer(self._host, self._port, self._config)
        self.address = await self._server.start()
        self._ready.set()
        await self._server.wait_done()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain gracefully and join the loop thread.

        After a ``shutdown`` op the server drains itself and its loop
        closes, possibly before a second drain request would run, so
        none is sent; and a sent one is awaited only while the loop
        thread lives.  Raises :class:`TimeoutError` when the thread is
        still alive ``timeout`` seconds after the call.
        """
        if self._thread is None or self._loop is None:
            return
        deadline = time.monotonic() + timeout
        server = self._server
        if (self._thread.is_alive() and server is not None
                and not server.draining):
            future = asyncio.run_coroutine_threadsafe(
                server.shutdown(), self._loop
            )
            while not future.done() and self._thread.is_alive():
                if time.monotonic() >= deadline:
                    raise TimeoutError("server did not drain in time")
                self._thread.join(0.01)
            if future.done():
                future.result()
        self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._thread.is_alive():
            raise TimeoutError("server thread did not exit in time")
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

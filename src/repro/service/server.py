"""The campaign daemon: an asyncio HTTP/JSON front end over one store.

Pure stdlib — a hand-rolled HTTP/1.1 server on ``asyncio.start_server``
(one request per connection; SSE responses stream until the campaign
finishes).  The moving parts:

* **accept path** (event loop): validate the submission, derive its
  content key, dedupe against running jobs and the store (a completed
  campaign is served without executing — cross-tenant memoization),
  reserve a scheduler slot (429 on backpressure), land the manifest
  durably (fsync), *then* acknowledge with 202.  The ack therefore
  promises durability: kill the daemon at any later instant and a restart
  re-discovers the campaign from its manifest and resumes it through the
  store's claim/replay/record protocol to a byte-identical journal.
* **dispatcher** (one asyncio task): pops the weighted-fair scheduler and
  runs campaigns on executor threads, at most ``max_concurrent`` at once.
  All campaigns share one :class:`ServicePool` of forked workers (created
  before any thread starts, while the process is still single-threaded)
  and one :class:`EngineCache` of warm parent engines.
* **event fan-out**: runner threads emit progress through
  ``loop.call_soon_threadsafe``; each job keeps an append-only event list
  plus a swap-on-publish :class:`asyncio.Event`, so any number of SSE
  readers tail it from any offset without coordination.

Endpoints (all JSON unless noted)::

    GET  /v1/health                    liveness + pool/cache/scheduler stats
    POST /v1/campaigns                 submit; 202 accepted / 200 cached /
                                       400 invalid / 429 backpressure
    GET  /v1/campaigns                 status rows for every stored campaign
    GET  /v1/campaigns/<key>           one campaign's status row
    GET  /v1/campaigns/<key>/events    SSE progress stream (snapshot first)
    GET  /v1/status                    alias of GET /v1/campaigns
    GET  /v1/report?name=fig11         report rebuilt from the journal;
                                       format=json (default) or text
"""

from __future__ import annotations

import asyncio
import json
import threading

from ..core.parallel import ServicePool
from ..store import CampaignStore
from .protocol import (
    BadSubmission,
    SCHEMA_VERSION,
    Submission,
    build_manifest,
    campaign_key_for,
    campaign_row,
    normalize_submission,
    status_payload,
    submission_from_manifest,
)
from .scheduler import Backpressure, FairScheduler
from .workers import EngineCache, execute_submission

MAX_BODY = 1 << 20


class _Job:
    """One accepted submission's in-daemon lifecycle."""

    __slots__ = ("submission", "key", "state", "events", "update", "error")

    def __init__(self, submission: Submission, key: str):
        self.submission = submission
        self.key = key
        self.state = "queued"  # queued | running | complete | failed
        self.events: list[dict] = []
        self.update = asyncio.Event()
        self.error: str | None = None

    @property
    def finished(self) -> bool:
        return self.state in ("complete", "failed")

    def live_row(self) -> dict | None:
        """In-flight status overlay, reconstructed from the event tail."""
        if self.finished:
            return None
        row = {"state": self.state}
        for event in reversed(self.events):
            if event.get("event") == "progress":
                row.update(
                    done=event["done"], hits=event["hits"],
                    misses=event["misses"], totals=event["totals"],
                )
                break
        return row


class CampaignService:
    """The long-running multi-tenant campaign daemon.

    ``serve_forever`` is the blocking entry point (the ``serve`` CLI
    verb); tests drive the async pieces directly via ``start``/``stop``
    inside their own event loop.
    """

    def __init__(
        self,
        store_root,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 0,
        max_concurrent: int = 4,
        max_pending: int = 256,
        durable: bool = True,
        resume: bool = True,
        progress_every: int = 1,
    ):
        self.store = CampaignStore(store_root, durable=durable)
        self.host, self.port = host, port
        # The forked pool MUST exist before any thread starts: forking a
        # multi-threaded process can inherit held locks.  jobs=0 runs
        # campaigns serially on their runner thread (still concurrent
        # across campaigns) — the right mode for micro workloads where
        # fork+IPC costs more than the experiments.
        self.pool = ServicePool(jobs) if jobs > 0 else None
        self.engines = EngineCache()
        self.scheduler = FairScheduler(max_pending=max_pending)
        self.max_concurrent = max(1, max_concurrent)
        self.resume_on_start = resume
        self.progress_every = progress_every
        self.jobs: dict[str, _Job] = {}
        self._work = None  # asyncio.Event, created on start
        self._server = None
        self._loop = None
        self._dispatcher = None
        self._runners: set = set()
        self._stopping = False
        self._stopped = None  # asyncio.Event; set by request_stop()
        self.ready = threading.Event()  # set once the port is bound

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if self.resume_on_start:
            self._resume_incomplete()
        self.ready.set()

    async def stop(self) -> None:
        self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._runners):
            try:
                await task
            except Exception:
                pass
        self.store.flush()
        if self.pool is not None:
            self.pool.close()

    def serve_forever(self, quiet: bool = False) -> None:
        async def _main():
            await self.start()
            if not quiet:
                print(
                    f"campaign service on http://{self.host}:{self.port} "
                    f"(store: {self.store.root})",
                    flush=True,
                )
            try:
                await self._stopped.wait()
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    def request_stop(self) -> None:
        """Ask a ``serve_forever`` loop (any thread) to shut down cleanly."""
        if self._loop is not None and self._stopped is not None:
            self._loop.call_soon_threadsafe(self._stopped.set)

    def _resume_incomplete(self) -> None:
        """Re-enqueue every manifested-but-incomplete campaign (crash
        recovery: the accept-time manifest is the durable submission)."""
        for manifest in self.store.manifests():
            if manifest["completed"]:
                continue
            sub = submission_from_manifest(manifest)
            if sub is None:
                continue
            try:
                self._accept(sub, manifest["campaign_key"], manifested=True)
            except Backpressure:
                break  # remaining ones stay manifested; next restart retries

    # -- accept / dispatch -----------------------------------------------------

    def _accept(
        self, sub: Submission, key: str, manifested: bool = False
    ) -> _Job:
        """Reserve, manifest, enqueue.  Caller handles Backpressure."""
        job = _Job(sub, key)
        self.scheduler.push(sub.tenant, sub.priority, key)
        self.jobs[key] = job
        if not manifested:
            # Durable ack: the manifest (fsynced — the store's manifests
            # journal flushes every append) IS the accepted submission.
            self.store.add_manifest(build_manifest(sub, key))
        self._publish(key, {"event": "accepted", "campaign": key})
        self._work.set()
        return job

    async def _dispatch_loop(self) -> None:
        slots = asyncio.Semaphore(self.max_concurrent)
        while True:
            await self._work.wait()
            popped = self.scheduler.pop()
            if popped is None:
                self._work.clear()
                continue
            _, key = popped
            await slots.acquire()
            task = asyncio.ensure_future(self._run_job(self.jobs[key]))
            self._runners.add(task)
            task.add_done_callback(
                lambda t: (slots.release(), self._runners.discard(t))
            )

    async def _run_job(self, job: _Job) -> None:
        job.state = "running"
        self._publish(job.key, {"event": "started", "campaign": job.key})
        loop = asyncio.get_running_loop()

        def emit(event: dict) -> None:
            loop.call_soon_threadsafe(self._publish, job.key, event)

        def run():
            return execute_submission(
                self.store, job.submission, self.pool, self.engines, emit,
                progress_every=self.progress_every,
            )

        try:
            await loop.run_in_executor(None, run)
        except Exception as exc:  # surfaced to SSE readers, not the console
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self._publish(
                job.key,
                {"event": "failed", "campaign": job.key, "error": job.error},
            )
        else:
            job.state = "complete"
            # execute_submission already emitted the final "complete" event
            # with totals; nothing more to add here.

    def _publish(self, key: str, event: dict) -> None:
        job = self.jobs.get(key)
        if job is None:
            return
        job.events.append(event)
        if event.get("event") in ("complete", "failed"):
            job.state = (
                "failed" if event["event"] == "failed" else "complete"
            )
        waiters, job.update = job.update, asyncio.Event()
        waiters.set()

    def _live_states(self) -> dict:
        out = {}
        for key, job in self.jobs.items():
            row = job.live_row()
            if row is not None:
                out[key] = row
        return out

    # -- HTTP ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            method, path, query, body = await _read_request(reader)
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            writer.close()
            return
        try:
            await self._route(method, path, query, body, writer)
        except ConnectionError:
            pass
        except Exception as exc:
            try:
                await _respond_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, method, path, query, body, writer) -> None:
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            return await _respond_json(writer, 404, {"error": "not found"})
        rest = parts[1:]
        if method == "GET" and rest == ["health"]:
            return await _respond_json(writer, 200, self._health())
        if method == "POST" and rest == ["campaigns"]:
            return await self._handle_submit(body, writer)
        if method == "GET" and rest in (["campaigns"], ["status"]):
            payload = status_payload(self.store, self._live_states())
            payload["tenants"] = self.scheduler.snapshot()
            return await _respond_json(writer, 200, payload)
        if method == "GET" and len(rest) == 2 and rest[0] == "campaigns":
            return await self._handle_campaign(rest[1], writer)
        if (
            method == "GET"
            and len(rest) == 3
            and rest[0] == "campaigns"
            and rest[2] == "events"
        ):
            return await self._handle_events(rest[1], writer)
        if method == "GET" and rest == ["report"]:
            return await self._handle_report(query, writer)
        return await _respond_json(writer, 404, {"error": "not found"})

    def _health(self) -> dict:
        return {
            "ok": True,
            "schema": SCHEMA_VERSION,
            "store": str(self.store.root),
            "pool_jobs": self.pool.jobs if self.pool is not None else 0,
            "engines": self.engines.stats(),
            "tenants": self.scheduler.snapshot(),
            "pending": len(self.scheduler),
            "jobs": {
                state: sum(1 for j in self.jobs.values() if j.state == state)
                for state in ("queued", "running", "complete", "failed")
            },
        }

    async def _handle_submit(self, body: bytes, writer) -> None:
        try:
            payload = json.loads(body or b"{}")
            sub = normalize_submission(payload)
        except (json.JSONDecodeError, BadSubmission) as exc:
            return await _respond_json(writer, 400, {"error": str(exc)})
        key = campaign_key_for(sub)
        manifest = next(
            (
                m
                for m in self.store.manifests()
                if m["campaign_key"] == key and m["completed"]
            ),
            None,
        )
        if manifest is not None:
            # Memoized across tenants: the campaign is content-addressed,
            # so whoever ran it first ran *this* submission, bit for bit.
            return await _respond_json(
                writer, 200,
                {"campaign": key, "state": "complete", "cached": True,
                 "row": campaign_row(self.store, manifest)},
            )
        existing = self.jobs.get(key)
        if existing is not None and not existing.finished:
            return await _respond_json(
                writer, 202,
                {"campaign": key, "state": existing.state, "cached": False,
                 "deduplicated": True},
            )
        try:
            job = self._accept(sub, key)
        except Backpressure as exc:
            return await _respond_json(
                writer, 429, {"error": str(exc), "retry_after": 1}
            )
        return await _respond_json(
            writer, 202,
            {"campaign": key, "state": job.state, "cached": False,
             "events": f"/v1/campaigns/{key}/events"},
        )

    async def _handle_campaign(self, key: str, writer) -> None:
        manifest = next(
            (m for m in self.store.manifests() if m["campaign_key"] == key),
            None,
        )
        if manifest is None:
            return await _respond_json(
                writer, 404, {"error": f"unknown campaign {key!r}"}
            )
        live = self._live_states().get(key)
        return await _respond_json(
            writer, 200, campaign_row(self.store, manifest, live)
        )

    async def _handle_events(self, key: str, writer) -> None:
        job = self.jobs.get(key)
        if job is None:
            manifest = next(
                (m for m in self.store.manifests() if m["campaign_key"] == key),
                None,
            )
            if manifest is None:
                return await _respond_json(
                    writer, 404, {"error": f"unknown campaign {key!r}"}
                )
            # Finished before this daemon instance (or served from cache):
            # a single snapshot event, then EOF.
            await _start_sse(writer)
            await _send_sse(
                writer, "snapshot", campaign_row(self.store, manifest)
            )
            return
        await _start_sse(writer)
        manifest = next(
            (m for m in self.store.manifests() if m["campaign_key"] == key),
            None,
        )
        if manifest is not None:
            await _send_sse(
                writer, "snapshot",
                campaign_row(self.store, manifest, self._live_states().get(key)),
            )
        cursor = 0
        while True:
            while cursor < len(job.events):
                event = job.events[cursor]
                cursor += 1
                await _send_sse(writer, event.get("event", "progress"), event)
            if job.finished and cursor >= len(job.events):
                return
            update = job.update
            await update.wait()

    async def _handle_report(self, query: dict, writer) -> None:
        from ..analysis.report import rebuild_report

        name = query.get("name", ["fig11"])[0]
        fmt = query.get("format", ["json"])[0]
        names = self.store.stored_experiments()
        if name not in names:
            return await _respond_json(
                writer, 404,
                {"error": f"no {name!r} in store; stored: {names}"},
            )
        report = rebuild_report(self.store, name)
        if fmt == "text":
            from ..experiments import EXPERIMENTS

            text = EXPERIMENTS[name].render(report)
            return await _respond(
                writer, 200, text.encode() + b"\n", "text/plain; charset=utf-8"
            )
        return await _respond(
            writer, 200, report.to_json().encode() + b"\n", "application/json"
        )


# -- minimal HTTP plumbing -----------------------------------------------------


async def _read_request(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    method, target, _ = lines[0].split(" ", 2)
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    path, _, raw_query = target.partition("?")
    query: dict[str, list[str]] = {}
    if raw_query:
        from urllib.parse import parse_qs

        query = parse_qs(raw_query)
    length = int(headers.get("content-length", "0"))
    if length > MAX_BODY:
        raise ValueError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, query, body


async def _respond(writer, status: int, body: bytes, content_type: str):
    reason = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        429: "Too Many Requests", 500: "Internal Server Error",
    }.get(status, "OK")
    writer.write(
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode() + body
    )
    await writer.drain()


async def _respond_json(writer, status: int, payload: dict):
    body = json.dumps(payload, sort_keys=True).encode() + b"\n"
    await _respond(writer, status, body, "application/json")


async def _start_sse(writer):
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\n"
        b"Connection: close\r\n\r\n"
    )
    await writer.drain()


async def _send_sse(writer, event: str, data: dict):
    payload = json.dumps(data, sort_keys=True)
    writer.write(f"event: {event}\ndata: {payload}\n\n".encode())
    await writer.drain()

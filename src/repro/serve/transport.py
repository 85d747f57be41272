"""Service transports: JSON-lines on stdio and a localhost HTTP server.

Both transports are thin adapters over one transport-agnostic entry point,
:func:`handle_message`, so the protocol semantics (and their tests) live in
exactly one place.  No third-party dependency: the HTTP side is a minimal
HTTP/1.1 request parser on ``asyncio.start_server``, enough for
``POST /predict`` / ``GET /stats`` / ``GET /healthz`` / ``GET /metrics``
(Prometheus text exposition) from any client.

Protocol (JSON object per message / per HTTP body):

``{"op": "predict", "image": [[...]], "index": 7, "id": "r1"}``
    -> ``{"ok": true, "id": "r1", "prediction": 3, "cached": false,
    "coalesced": false, "latency_ms": 4.2}``
``{"op": "stats"}``
    -> ``{"ok": true, "stats": {...}}`` (the snapshot of
    :meth:`~repro.serve.service.InferenceService.stats_snapshot`)
``{"op": "ping"}``
    -> ``{"ok": true, "op": "ping"}``

Errors come back as ``{"ok": false, "error": "...", "code": ...}`` with
``code`` one of ``bad_request`` (422/400 territory), ``overloaded`` (429)
or ``timeout`` (504); the HTTP adapter maps them onto those status codes.
On the JSON-lines transport requests are handled concurrently — responses
carry the request's ``id`` and may interleave out of submission order,
which is what lets one connection exercise the dynamic batcher.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict

from repro.serve.service import (
    InferenceService,
    RequestTimeout,
    ServiceClosed,
    ServiceOverloaded,
)

__all__ = ["handle_message", "render_metrics", "serve_http", "serve_stdio"]

#: error code -> HTTP status used by the HTTP adapter.
ERROR_STATUS = {
    "bad_request": 400,
    "overloaded": 429,
    "timeout": 504,
    "closed": 503,
    "internal": 500,
}


async def handle_message(service: InferenceService, message: Any) -> Dict:
    """Execute one protocol message against the service; never raises."""
    if not isinstance(message, dict):
        return {"ok": False, "error": "message must be a JSON object", "code": "bad_request"}
    response: Dict[str, Any] = {}
    if "id" in message:
        response["id"] = message["id"]
    op = message.get("op", "predict")
    try:
        if op == "predict":
            if "image" not in message:
                raise ValueError("predict needs an 'image' field")
            result = await service.submit(
                message["image"],
                index=int(message.get("index", 0)),
                request_id=str(message["id"]) if "id" in message else None,
            )
            response.update(
                ok=True,
                prediction=result.prediction,
                cached=result.cached,
                coalesced=result.coalesced,
                latency_ms=round(result.latency_ms, 3),
            )
        elif op == "stats":
            response.update(ok=True, stats=service.stats_snapshot())
        elif op == "ping":
            response.update(ok=True, op="ping")
        else:
            response.update(ok=False, error=f"unknown op {op!r}", code="bad_request")
    except ServiceOverloaded as exc:
        response.update(ok=False, error=str(exc), code="overloaded")
    except RequestTimeout as exc:
        response.update(ok=False, error=str(exc), code="timeout")
    except ServiceClosed as exc:
        response.update(ok=False, error=str(exc), code="closed")
    except (TypeError, ValueError) as exc:
        response.update(ok=False, error=str(exc), code="bad_request")
    except Exception as exc:  # noqa: BLE001 - a transport must answer, not die
        response.update(ok=False, error=f"{type(exc).__name__}: {exc}", code="internal")
    return response


# ---------------------------------------------------------------------------
# JSON-lines
# ---------------------------------------------------------------------------


async def serve_stdio(service: InferenceService) -> None:
    """Serve JSON-lines over stdin/stdout until EOF.

    ``python -m repro serve --transport stdio``: the simplest way to drive
    the batcher from another process (or a shell pipeline) with zero
    network surface.  stdin is read on an executor thread so platforms
    without pipe-transport support (and plain files) work identically.
    """
    loop = asyncio.get_running_loop()
    write_lock = asyncio.Lock()
    tasks: set = set()

    async def respond(payload: Dict) -> None:
        async with write_lock:
            print(json.dumps(payload), flush=True)

    async def process(line: str) -> None:
        try:
            message = json.loads(line)
        except ValueError:
            await respond({"ok": False, "error": "invalid JSON line", "code": "bad_request"})
            return
        await respond(await handle_message(service, message))

    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break
        if not line.strip():
            continue
        task = asyncio.create_task(process(line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*list(tasks), return_exceptions=True)


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests",
                 500: "Internal Server Error", 503: "Service Unavailable", 504: "Gateway Timeout"}


def _http_response(status: int, payload: Dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


def _http_text_response(status: int, text: str, content_type: str = "text/plain; version=0.0.4; charset=utf-8") -> bytes:
    """Plain-text response (the Prometheus ``/metrics`` exposition body)."""
    body = text.encode()
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


def render_metrics(service: InferenceService) -> str:
    """The ``GET /metrics`` body: fold current state into the registry, render.

    Pull-published: the service/engine/cache layers keep plain counters and
    this scrape site flattens their snapshots into gauges (per-shard
    counters under a ``shard`` label), adds cache and
    engine-lifecycle counters, and renders the Prometheus text format.  Metrics are observational only — nothing
    here feeds back into serving.
    """
    from repro import telemetry
    from repro.telemetry.metrics import publish_snapshot

    registry = telemetry.get_registry()
    snapshot = service.stats_snapshot()
    engine = snapshot.get("engine")
    shards = engine.pop("per_shard", {}) if isinstance(engine, dict) else {}
    publish_snapshot(registry, snapshot, prefix="repro_service")
    # One gauge per counter, one series per live shard: a buried shard's
    # series go (its work already sits in the service totals), and its
    # replacement adds a series under the same names.
    registry.clear(prefix="repro_service_shard_")
    for label, counters in shards.items():
        publish_snapshot(registry, counters, prefix="repro_service_shard", shard=label)
    cache = getattr(service, "cache", None)
    counters = getattr(cache, "counters", None)
    if callable(counters):
        hits = registry.counter("repro_cache_hits_total", "Prediction cache hits")
        misses = registry.counter("repro_cache_misses_total", "Prediction cache misses")
        stores = registry.counter("repro_cache_stores_total", "Prediction cache stores")
        stats = counters()
        hits.set(stats.get("hits", 0), cache="prediction")
        misses.set(stats.get("misses", 0), cache="prediction")
        stores.set(stats.get("stores", 0), cache="prediction")
    return registry.render_prometheus()


async def _handle_http_connection(
    service: InferenceService,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
) -> None:
    try:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        bad_length = False
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    bad_length = True
                if content_length < 0:
                    bad_length = True
        if bad_length:
            writer.write(_http_response(
                400, {"ok": False, "error": "invalid Content-Length header", "code": "bad_request"}
            ))
            await writer.drain()
            return
        body = await reader.readexactly(content_length) if content_length else b""

        if method == "GET" and path == "/stats":
            response = _http_response(200, {"ok": True, "stats": service.stats_snapshot()})
        elif method == "GET" and path == "/metrics":
            response = _http_text_response(200, render_metrics(service))
        elif method == "GET" and path == "/healthz":
            response = _http_response(200, {"ok": True, "status": "serving"})
        elif method == "POST" and path == "/predict":
            try:
                message = json.loads(body) if body else {}
            except ValueError:
                message = None
            if not isinstance(message, dict):
                response = _http_response(
                    400, {"ok": False, "error": "body must be a JSON object", "code": "bad_request"}
                )
            else:
                message.setdefault("op", "predict")
                payload = await handle_message(service, message)
                status = 200 if payload.get("ok") else ERROR_STATUS.get(payload.get("code"), 500)
                response = _http_response(status, payload)
        else:
            response = _http_response(
                404, {"ok": False, "error": f"no route {method} {path}", "code": "bad_request"}
            )
        writer.write(response)
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def serve_http(service: InferenceService, host: str = "127.0.0.1", port: int = 8765):
    """Start the localhost HTTP front end; returns the asyncio server.

    The caller owns the lifetime: ``server.close()`` +
    ``await server.wait_closed()`` to stop, or ``await
    server.serve_forever()`` to block (the CLI does the latter).
    """
    return await asyncio.start_server(
        lambda reader, writer: _handle_http_connection(service, reader, writer), host, port
    )

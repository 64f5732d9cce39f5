"""A minimal stdlib HTTP front-end over :class:`~repro.serve.app.ServeApp`.

Just enough HTTP/1.1 for the serving endpoints -- request line, headers,
``Content-Length`` body, one response, connection close.  No external
web framework (the repo's zero-dependency rule), no TLS, binds
localhost by default.  Routes:

- ``POST /parse``                 raw WHOIS text in, parsed-record JSON out
- ``GET  /rdap/domain/<name>``    validated RDAP JSON (RFC 7483 errors)
- ``GET  /healthz``               liveness: the loop is serving
- ``GET  /readyz``                readiness: a model version is active
- ``GET  /metrics``               Prometheus exposition of the app registry
                                  (``serve.*``, ``rdap.*``, ``parse.*``
                                  series, including the line-encoder
                                  cache's ``parse.line_cache.*{level}``)

Typed :mod:`repro.errors` rejections map to their ``http_status``
(429 rate-limited, 503 overloaded/unavailable), so clients see the
admission controller's decisions as standard HTTP backpressure.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING
from urllib.parse import unquote

from repro import errors, obs
from repro.errors import error_payload

if TYPE_CHECKING:
    from repro.serve.app import ServeApp

__all__ = ["HttpFrontend"]

#: request bodies larger than this are refused outright
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _response(
    status: int, body: str, content_type: str = "application/json"
) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload


class HttpFrontend:
    """Route parsed HTTP requests into the app's async entry points."""

    def __init__(self, app: "ServeApp") -> None:
        self.app = app

    # ------------------------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP/1.1 connection (one request, then close)."""
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "unknown"
        try:
            response = await self._respond(reader, client)
            writer.write(response)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, bytes | None] | None":
        """``(method, path, body)`` or None on a malformed request.

        An oversized body is reported as ``body=None`` (the bytes are
        never read), which the router turns into a 413.
        """
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=10.0
            )
        except asyncio.TimeoutError:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
        if content_length > MAX_BODY_BYTES:
            return (method, target, None)
        body = (
            await reader.readexactly(content_length)
            if content_length else b""
        )
        return method, target, body

    async def _respond(
        self, reader: asyncio.StreamReader, client: str
    ) -> bytes:
        request = await self._read_request(reader)
        if request is None:
            return _response(
                400, json.dumps({"code": "bad_request",
                                 "detail": "malformed HTTP request"})
            )
        method, target, body = request
        path = unquote(target.split("?", 1)[0])
        obs.inc("serve.requests", endpoint=self._endpoint_label(path))
        try:
            return await self._route(method, path, body, client)
        except errors.ReproError as exc:
            return _response(exc.http_status, json.dumps(error_payload(exc)))
        except Exception as exc:  # noqa: BLE001 -- last-resort 500
            return _response(500, json.dumps(error_payload(exc)))

    @staticmethod
    def _endpoint_label(path: str) -> str:
        if path.startswith("/rdap/"):
            return "rdap"
        return path.strip("/").split("/", 1)[0] or "root"

    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: "bytes | None", client: str
    ) -> bytes:
        app = self.app
        if path == "/healthz":
            return _response(200, "ok\n", "text/plain")
        if path == "/readyz":
            if app.ready and app.models.has_active:
                return _response(200, "ready\n", "text/plain")
            return _response(503, "not ready\n", "text/plain")
        if path == "/metrics":
            return _response(200, app.metrics_text(), "text/plain")
        if path == "/parse":
            if method != "POST":
                return _response(
                    405, json.dumps({"code": "method_not_allowed",
                                     "detail": "POST raw WHOIS text"})
                )
            if body is None:
                return _response(
                    413, json.dumps({"code": "payload_too_large",
                                     "detail": "record exceeds 1 MiB"})
                )
            text = body.decode("utf-8", errors="replace")
            parsed = await app.parse_text(text, client=client)
            return _response(200, json.dumps(parsed.to_jsonable(), indent=2))
        if path.startswith("/rdap/domain/"):
            domain = path[len("/rdap/domain/"):].strip("/").lower()
            if not domain:
                return _response(
                    400, json.dumps({"code": "bad_request",
                                     "detail": "missing domain"})
                )
            try:
                payload = await app.rdap_domain(domain, client=client)
            except errors.DomainNotFound as exc:
                return _response(
                    404, app.gateway.error_json(domain, exc=exc),
                    "application/rdap+json",
                )
            return _response(
                200, json.dumps(payload, indent=2), "application/rdap+json"
            )
        return _response(
            404, json.dumps({"code": "not_found", "detail": path})
        )

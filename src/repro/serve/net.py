"""Line-delimited JSON front end for :class:`~repro.serve.server.PartitionServer`.

One request per line, one JSON response per line — trivially scriptable
(``nc``, a five-line client, the bundled :class:`ServeClient`) and free
of framing dependencies.  Operations:

``{"op": "partition", "src": [...], "dst": [...], "weights": [...],
   "num_vertices": N, "config": {...}, "deadline_s": X,
   "include_partition": true}``
    Submit a job; the response is the outcome's
    :meth:`~repro.serve.job.JobOutcome.to_dict`.

``{"op": "stats"}``
    Operational snapshot (:meth:`PartitionServer.stats`).

``{"op": "status"}``
    The live flight-deck snapshot (:meth:`PartitionServer.status`):
    stats, per-size-class SLO/error-budget/burn-rate state, flight
    recorder statistics, and the most recent wide events.  This is
    what ``gsap top`` polls.

``{"op": "metrics"}``
    The shared registry rendered live in Prometheus text exposition
    format (``{"text": "..."}``) — a scrape endpoint, not an at-exit
    file dump.

``{"op": "dump", "path": "...", "reason": "..."}``
    Dump the flight recorder to disk (both fields optional; without
    ``path`` the server's ``flight_dir`` names the file).

``{"op": "shutdown", "mode": "drain" | "checkpoint"}``
    Gracefully stop the server; the response carries the shutdown
    summary, after which the listener closes.

``partition`` requests may carry ``trace_id``/``parent_span_id``
(stitching the server-side span tree to the client's trace; see
:meth:`ServeClient.submit`, which mints them) and a free-form
``tenant`` label.

Malformed requests get ``{"ok": false, "error": ...}`` instead of a
dropped connection, so a buggy client can't wedge the service.
"""

from __future__ import annotations

import asyncio
import json
import socket
import uuid
from typing import Optional

from ..config import SBPConfig
from ..errors import ReproError
from ..graph.builder import build_graph
from ..logging_util import get_logger
from ..obs.trace import TraceContext
from .server import PartitionServer

logger = get_logger("serve.net")

_MAX_LINE_BYTES = 64 * 1024 * 1024  # a million-edge request fits


class ServeFrontend:
    """Bind a :class:`PartitionServer` to a TCP listener."""

    def __init__(self, server: PartitionServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._listener: Optional[asyncio.AbstractServer] = None
        self._shutdown_requested = asyncio.Event()

    async def start(self) -> "ServeFrontend":
        await self.server.start()
        self._listener = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_LINE_BYTES,
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        logger.info("listening on %s:%d", self.host, self.port)
        return self

    async def serve_until_shutdown(self) -> dict:
        """Block until a client sends ``shutdown``; return its summary."""
        await self._shutdown_requested.wait()
        return self._shutdown_summary

    async def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {
                        "ok": False, "error": "request line too long",
                    })
                    break
                if not line:
                    break
                response = await self._dispatch(line)
                await self._send(writer, response)
                if response.get("op") == "shutdown" and response.get("ok"):
                    self._shutdown_summary = response["summary"]
                    self._shutdown_requested.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "partition":
                return await self._op_partition(request)
            if op == "stats":
                return {"ok": True, "op": "stats",
                        "stats": self.server.stats()}
            if op == "status":
                return {"ok": True, "op": "status",
                        "status": self.server.status()}
            if op == "metrics":
                return {"ok": True, "op": "metrics",
                        "text": self.server.metrics_text()}
            if op == "dump":
                path = self.server.dump_flight(
                    str(request.get("reason", "on_demand")),
                    path=request.get("path"),
                )
                if path is None:
                    return {
                        "ok": False, "op": "dump",
                        "error": "no dump destination: pass \"path\" or "
                                 "start the server with a flight_dir",
                    }
                return {"ok": True, "op": "dump", "path": str(path)}
            if op == "shutdown":
                mode = request.get("mode", "drain")
                summary = await self.server.shutdown(mode)
                return {"ok": True, "op": "shutdown", "summary": summary}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (ReproError, ValueError, TypeError, KeyError) as exc:
            return {"ok": False, "op": op,
                    "error": f"{type(exc).__name__}: {exc}"}

    async def _op_partition(self, request: dict) -> dict:
        src = request["src"]
        dst = request["dst"]
        weights = request.get("weights")
        graph = build_graph(
            src, dst, weights,
            num_vertices=request.get("num_vertices"),
        )
        config_dict = request.get("config") or {}
        config = SBPConfig(**config_dict)
        trace_id = request.get("trace_id")
        parent_span_id = request.get("parent_span_id")
        tenant = request.get("tenant")
        outcome = await self.server.submit(
            graph, config,
            deadline_s=request.get("deadline_s"),
            use_cache=bool(request.get("use_cache", True)),
            tenant=None if tenant is None else str(tenant),
            trace_id=None if trace_id is None else str(trace_id),
            parent_span_id=(
                None if parent_span_id is None else str(parent_span_id)
            ),
        )
        payload = outcome.to_dict(
            include_partition=bool(request.get("include_partition", False))
        )
        payload["ok"] = outcome.status not in ("rejected", "failed")
        payload["op"] = "partition"
        return payload

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


class ServeClient:
    """Blocking convenience client for scripts and tests."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def partition(self, src, dst, weights=None, *, num_vertices=None,
                  config=None, deadline_s=None, include_partition=False,
                  tenant=None, trace_id=None, parent_span_id=None) -> dict:
        payload = {
            "op": "partition",
            "src": [int(v) for v in src],
            "dst": [int(v) for v in dst],
            "weights": None if weights is None
            else [int(w) for w in weights],
            "num_vertices": num_vertices,
            "config": config or {},
            "deadline_s": deadline_s,
            "include_partition": include_partition,
        }
        if tenant is not None:
            payload["tenant"] = tenant
        if trace_id is not None:
            payload["trace_id"] = trace_id
        if parent_span_id is not None:
            payload["parent_span_id"] = parent_span_id
        return self.request(payload)

    def submit(self, src, dst, weights=None, *, num_vertices=None,
               config=None, deadline_s=None, include_partition=False,
               tenant=None) -> dict:
        """Submit with a client-minted trace context.

        Mints a fresh ``trace_id`` (and a client-side parent span id)
        here — the outermost hop of the request — so every server-side
        span of this job stitches to this submission.  The reply echoes
        the ``trace_id``.
        """
        context = TraceContext.mint(parent_span_id=f"client-{uuid.uuid4().hex[:16]}")
        return self.partition(
            src, dst, weights,
            num_vertices=num_vertices, config=config,
            deadline_s=deadline_s, include_partition=include_partition,
            tenant=tenant,
            trace_id=context.trace_id,
            parent_span_id=context.parent_span_id,
        )

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def status(self) -> dict:
        """Live flight-deck snapshot (stats + SLO + flight recorder)."""
        return self.request({"op": "status"})

    def metrics(self) -> str:
        """Live Prometheus text exposition page."""
        reply = self.request({"op": "metrics"})
        if not reply.get("ok"):
            raise ConnectionError(
                f"metrics request failed: {reply.get('error')}"
            )
        return reply["text"]

    def dump(self, path=None, reason: str = "on_demand") -> dict:
        """Ask the server to dump its flight recorder."""
        payload = {"op": "dump", "reason": reason}
        if path is not None:
            payload["path"] = str(path)
        return self.request(payload)

    def shutdown(self, mode: str = "drain") -> dict:
        return self.request({"op": "shutdown", "mode": mode})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

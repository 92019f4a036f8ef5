"""Deterministic loopback HTTP server exercising every outcome class.

Routes:
  /cards     200 with data                       -> passes
  /legacy    400 when query args present, 200 bare -> exercises the retry
  /trainers  200 echoing the required name argument
  /gone      404 always                          -> abnormal response
  /strict    200 with an error body              -> fails the judge
  /glycan    gated: 200 data iff glytoucan_id is the known accession
  /structure gated the same way on a second host of values

Binds 127.0.0.1 only.  Speaks HTTP/1.1, so a client keeps its connection
between requests, as a real API lets it; Nagle's algorithm is off, so no
reply waits on the client's delayed ACK.  stop() closes the connections
still open, so a stopped server answers no further request.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

KNOWN_GLYTOUCAN_ID = "G00048MO"


class _Handler(BaseHTTPRequestHandler):
    server_version = "MockApi/1.0"
    protocol_version = "HTTP/1.1"  # every reply carries Content-Length
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        split = urlsplit(self.path)
        query = {k: v[0] for k, v in parse_qs(split.query).items()}
        path = split.path
        self.server.hits.append((path, dict(query)))

        if path == "/cards":
            self._send(200, {
                "data": [{
                    "id": "xy7-54",
                    "name": "Gardevoir",
                    "supertype": "Pokemon",
                    "hp": "170",
                }],
                "totalCount": 1,
            })
        elif path == "/legacy":
            if query:
                self._send(400, {"error": "unexpected parameters"})
            else:
                self._send(200, {"data": "legacy index"})
        elif path == "/trainers":
            name = query.get("name")
            if name:
                self._send(200, {"data": {"trainer": name, "wins": 12}})
            else:
                self._send(400, {"error": "name required"})
        elif path == "/gone":
            self._send(404, {"error": "resource retired"})
        elif path == "/strict":
            self._send(200, {"error": "invalid query"})
        elif path == "/glycan":
            if query.get("glytoucan_id") == KNOWN_GLYTOUCAN_ID:
                self._send(200, {
                    "data": {
                        "glytoucan_id": KNOWN_GLYTOUCAN_ID,
                        "glycan_name": "Lewis b",
                        "pubchem_cid": 45480569,
                    }
                })
            else:
                self._send(200, {"error": "unknown glycan"})
        elif path == "/structure":
            if query.get("glytoucan_id") == KNOWN_GLYTOUCAN_ID:
                self._send(200, {
                    "data": {
                        "glytoucan_id": KNOWN_GLYTOUCAN_ID,
                        "format": "GLYCAM",
                        "structure": "LFucpa1-2DGalpb1-3[LFucpa1-4]DGlcpNAcb1-OH",
                    }
                })
            else:
                self._send(200, {"error": "unknown structure"})
        else:
            self._send(404, {"error": "no such route"})


class _Server(ThreadingHTTPServer):
    """Holds each accepted connection until its handler ends."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.hits = []  # (path, query) per request, in arrival order
        self.open = set()
        self.lock = threading.Lock()

    def process_request(self, request, client_address):
        # on the serving thread, so none is added once shutdown() returns
        with self.lock:
            self.open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.lock:
            self.open.discard(request)
        super().shutdown_request(request)


class MockApi:
    """Context manager around the loopback server; .base_url has the port."""

    def __init__(self):
        self.server = _Server()
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def hits(self) -> list:
        return self.server.hits

    def start(self) -> "MockApi":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end the open connections, and close the socket."""
        self.server.shutdown()
        with self.server.lock:
            for request in self.server.open:
                try:  # its handler reads end of file and ends
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client closed it first
                    pass
        self.server.server_close()

    def __enter__(self) -> "MockApi":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

import json
import os
import socket
import ssl
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import NamedTuple

import pytest

import apimill
from apimill.embedding import LexicalEmbedding
from apimill.judges import HeuristicJudge
from apimill.mockapi import MockApi
from apimill.synthetic import write_corpus

DATA_DIR = Path(__file__).parent / "data"


def in_fresh_python(script: str):
    """Run `script` in a new interpreter that imports apimill from this
    checkout; the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=str(Path(apimill.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def mock_api():
    with MockApi() as api:
        yield api


@pytest.fixture(scope="session")
def emb():
    return LexicalEmbedding()


@pytest.fixture(scope="session")
def judge():
    return HeuristicJudge()


LOOPBACK = ("127.0.0.1", "::1", "localhost")


@pytest.fixture
def no_network(monkeypatch):
    """Records every name lookup and connect; refuses all but loopback ones."""
    touched = []

    def guarded(real, host_of):
        def call(*args, **kwargs):
            touched.append(args)
            if host_of(args) not in LOOPBACK:
                raise OSError("network refused by the test")
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(socket, "getaddrinfo", guarded(socket.getaddrinfo, lambda a: a[0]))
    monkeypatch.setattr(socket.socket, "connect",
                        guarded(socket.socket.connect, lambda a: a[1][0]))
    return touched


@pytest.fixture
def api_test_is_loopback(monkeypatch):
    """The name api.test resolves to 127.0.0.1; every other name but a
    loopback one is refused, so nothing leaves the machine."""
    lookup = socket.getaddrinfo

    def resolve(host, *args, **kwargs):
        if host not in ("api.test", *LOOPBACK):
            raise OSError("network refused by the test")
        return lookup("127.0.0.1" if host == "api.test" else host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", resolve)


class Seen(NamedTuple):
    line: str  # the request line
    headers: dict
    body: bytes
    client: tuple  # (address, port) of the client's socket


class _Recorder(BaseHTTPRequestHandler):
    """Records every request on `server.seen` and answers with what
    `server.answer(handler)` returns: (status, headers, body), or None when
    it wrote the answer itself."""

    def log_message(self, fmt, *args):
        pass

    def handle_any(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        self.server.seen.append(Seen(self.requestline, dict(self.headers), body,
                                     self.client_address))
        answer = self.server.answer(self)
        if answer is None:
            return
        status, headers, payload = answer
        self.send_response(status)
        for name, value in {"Content-Length": str(len(payload)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = do_HEAD = handle_any


def _ok(handler):
    return 200, {"Content-Type": "application/json"}, b"{}"


@contextmanager
def serving(answer=_ok, tls=False, protocol="HTTP/1.0"):
    """A loopback server that records what it is sent; yields (base URL,
    list of Seen).  HTTP/1.1 keeps connections open between requests; with
    `tls` it serves the self-signed certificate in tests/data."""
    handler = type("Recorder", (_Recorder,), {"protocol_version": protocol})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.seen, server.answer = [], answer
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(DATA_DIR / "loopback.pem", DATA_DIR / "loopback.key")
        server.socket = context.wrap_socket(server.socket, server_side=True)
    # a short poll, as every test that serves waits for its shutdown
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}", server.seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="session")
def pokemon_html() -> str:
    return (DATA_DIR / "pokemon.html").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def pokemon_spec_dict() -> dict:
    return json.loads((DATA_DIR / "pokemon.spec.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus(mock_api, tmp_path_factory):
    """Synthetic corpus written against the live mock server.

    Returns (manifest_path, corpus_dir, base_url)."""
    corpus_dir = tmp_path_factory.mktemp("corpus")
    manifest = write_corpus(mock_api.base_url, corpus_dir)
    return manifest, corpus_dir, mock_api.base_url


def make_config(tmp_path: Path, manifest: Path, corpus_dir: Path, **overrides) -> Path:
    cfg = {
        "corpus_manifest": str(manifest),
        "output_dir": str(tmp_path / "out"),
        "truth_dir": str(corpus_dir / "truth"),
        "offline": True,
        "rate_limit_per_host": 0,  # token bucket off: loopback-only traffic
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path

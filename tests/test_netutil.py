"""The one outbound HTTP path: body cap, offline guard, shared limiter, and
request accounting."""

import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

import apimill
from apimill import ingest, netutil
from apimill.cli import (load_config, main, make_embedding, make_extraction_backend,
                         make_judge)
from apimill.embedding import RemoteEmbedding, RemoteEmbeddingConfig
from apimill.errors import FetchFailed, OfflineViolation
from apimill.ingest import clean_text, load_page
from apimill.model import Endpoint, Parameter
from apimill.netutil import MAX_BODY_BYTES, HttpPolicy
from apimill.remote import ChatClient, RemoteConfig
from apimill.toolgen import generate_tool
from apimill.validate import invoke_tool

from conftest import make_config

STREAMED_BYTES = 64 * 1024 * 1024
COMPLETION = {"choices": [{"message": {"content": "ok"}}], "usage": {"total_tokens": 3}}


def make_tool(base_url, path="/cards", name="Search Cards", required=()):
    return generate_tool(
        Endpoint(name=name, method="GET", url=f"{base_url}{path}",
                 description="Searches the card catalog.", required_parameters=list(required)),
        source_id="test",
    )


class _Stub(BaseHTTPRequestHandler):
    """GET streams STREAMED_BYTES of text; POST answers a chat completion."""

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(STREAMED_BYTES))
        self.end_headers()
        block = b"GET https://h.example/v1/items\n" * 2048
        try:
            for _ in range(STREAMED_BYTES // len(block)):
                self.wfile.write(block)
            self.wfile.write(b"x" * (STREAMED_BYTES % len(block)))
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client stopped reading at its cap

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(COMPLETION).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture(scope="module")
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    serving.join(timeout=10)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBodyCap:
    # what a capped read may hold at once: the body read and its decoded text
    def test_load_page_reads_at_most_the_cap(self, stub):
        raw, peak = _peak_bytes(lambda: load_page(f"{stub}/docs", http=HttpPolicy(offline=True)))
        assert len(raw) == MAX_BODY_BYTES
        assert peak < 3 * MAX_BODY_BYTES < STREAMED_BYTES

    def test_invoke_tool_records_truncated_body(self, stub):
        tool = make_tool(stub, path="/big", name="Big")
        record, peak = _peak_bytes(lambda: invoke_tool(tool, {}, http=HttpPolicy(offline=True)))
        assert record.status_code == 200 and record.transport_error is None
        assert record.truncated is True
        assert len(record.text) == MAX_BODY_BYTES and record.json_body is None
        assert peak < 4 * MAX_BODY_BYTES
        assert "truncated" in record.to_dict() and "content" not in record.to_dict()

    def test_invoke_tool_decodes_the_body_once(self, stub):
        # json parses the decoded text; it does not decode the body a second time
        tool = make_tool(stub, path="/big", name="Big")
        record, peak = _peak_bytes(lambda: invoke_tool(tool, {}, http=HttpPolicy(offline=True)))
        assert record.truncated is True and len(record.text) == MAX_BODY_BYTES
        assert peak < 3 * MAX_BODY_BYTES

    def test_small_body_not_truncated(self, mock_api):
        record = invoke_tool(make_tool(mock_api.base_url), {})
        assert record.status_code == 200 and record.truncated is False

    def test_every_response_is_closed(self, stub, mock_api, monkeypatch):
        # urllib3 closes a dropped response when it is collected, without a
        # ResourceWarning, so count the closes that release or drop a connection
        closed = []
        close = requests.Response.close
        monkeypatch.setattr(requests.Response, "close",
                            lambda self: closed.append(self.status_code) or close(self))
        assert invoke_tool(make_tool(stub, path="/big", name="Big"), {}).truncated
        assert not invoke_tool(make_tool(mock_api.base_url), {}).truncated
        assert closed == [200, 200]

    def test_file_page_capped_in_text_mode(self, tmp_path, monkeypatch):
        page = tmp_path / "crlf.txt"
        page.write_bytes(b"GET https://h.example/v1/items\r\nRequired parameters: q\r\n" * 4)
        assert load_page(str(page)) == page.read_text(encoding="utf-8")
        monkeypatch.setattr(ingest, "MAX_BODY_BYTES", 10)
        assert load_page(str(page)) == "GET https:"

    def test_bundled_file_pages_clean_as_before(self, corpus):
        manifest, corpus_dir, _ = corpus
        for entry in json.loads(manifest.read_text()):
            path = corpus_dir / entry["origin"]
            for variant in (path, self._crlf_copy(path)):
                before = Path(variant).read_text(encoding="utf-8", errors="replace")
                assert clean_text(load_page(str(variant))) == clean_text(before)

    @staticmethod
    def _crlf_copy(path):
        copy = path.with_name(path.stem + ".crlf" + path.suffix)
        copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        return copy


class _NeverWait:
    def __init__(self):
        self.hosts = []

    def acquire(self, host):
        self.hosts.append(host)


class TestOfflineGuard:
    """Each caller refuses a non-loopback target before any socket or wait."""

    URL = "http://api.example.invalid/v1"

    def test_load_page(self, no_network):
        limiter = _NeverWait()
        with pytest.raises(FetchFailed) as err:
            load_page(self.URL, http=HttpPolicy(offline=True, limiter=limiter))
        assert isinstance(err.value.__cause__, OfflineViolation)
        assert no_network == [] and limiter.hosts == []

    def test_invoke_tool(self, no_network):
        limiter = _NeverWait()
        tool = make_tool(self.URL, required=[Parameter(name="q", example_value="x")])
        record = invoke_tool(tool, {"q": "x"}, http=HttpPolicy(offline=True, limiter=limiter))
        assert "offline" in record.transport_error and record.status_code is None
        assert no_network == [] and limiter.hosts == []

    def test_chat_client(self, no_network):
        limiter = _NeverWait()
        client = ChatClient(RemoteConfig(self.URL, "m"),
                            http=HttpPolicy(offline=True, limiter=limiter))
        with pytest.raises(OfflineViolation):
            client.complete([{"role": "user", "content": "hi"}])
        assert no_network == [] and limiter.hosts == []

    def test_remote_embedding(self, no_network):
        limiter = _NeverWait()
        emb = RemoteEmbedding(RemoteEmbeddingConfig(self.URL, "m"),
                              http=HttpPolicy(offline=True, limiter=limiter))
        with pytest.raises(OfflineViolation):
            emb.embed(["x"])
        assert no_network == [] and limiter.hosts == []


def test_clients_of_one_config_share_one_bucket(tmp_path, monkeypatch, stub):
    (tmp_path / "m.json").write_text("[]")
    remote = {"endpoint_url": f"{stub}/v1/chat", "model_name": "m"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "corpus_manifest": "m.json", "output_dir": "out", "offline": True,
        "rate_limit_per_host": 1,
        "backends": {"judge": {"kind": "remote", **remote},
                     "extraction": {"kind": "remote_chat", **remote}},
    }))
    config = load_config(cfg)
    clients = [make_judge(config).client, make_extraction_backend(config).client]
    now, slept = [0.0], []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    # a clock of the test's own: the second call must wait its whole second
    monkeypatch.setattr(netutil, "time", types.SimpleNamespace(
        monotonic=lambda: now[0], sleep=sleep))
    for client in clients:
        assert client.complete([{"role": "user", "content": "hi"}]) == ("ok", 3)
    assert sum(slept) == pytest.approx(1.0)


@pytest.mark.parametrize("section, call, reply", [
    ("judge", lambda config: make_judge(config).is_api_page("GET /v1/x"), COMPLETION),
    ("embedding", lambda config: make_embedding(config).embed(["x"]),
     {"data": [{"embedding": [1.0, 0.0]}]}),
])
def test_tls_verify_reaches_model_calls(tmp_path, monkeypatch, section, call, reply):
    (tmp_path / "m.json").write_text("[]")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "corpus_manifest": "m.json", "output_dir": "out", "tls_verify": False,
        "rate_limit_per_host": 0,
        "backends": {section: {"kind": "remote", "endpoint_url": "https://model.test/v1",
                               "model_name": "m"}},
    }))
    monkeypatch.setattr(netutil, "_ENV_SETTINGS", {})
    seen = []

    def send(adapter, request, **kwargs):
        # stands in for the network: nothing leaves the process
        seen.append(kwargs["verify"])
        response = requests.Response()
        response.status_code, response.raw = 200, io.BytesIO(json.dumps(reply).encode())
        response.request, response.url = request, request.url
        return response

    monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", send)
    call(load_config(cfg))
    assert seen == [False]


class TestPolicyInOnePlace:
    """Only netutil reads the transport settings; everything else passes an
    HttpPolicy on whole."""

    SETTINGS = {"offline", "rate_limiter", "tls_verify"}
    EXEMPT = {
        "apimill.toolgen.export_function_source",  # writes the flag into a script
        "apimill.cli.ProjectConfig.__init__",  # the config keys the policy is built from
    }

    @staticmethod
    def callables():
        """Every function and method, constructors included, that apimill's
        modules define."""
        for info in pkgutil.iter_modules(apimill.__path__, "apimill."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != info.name:
                    continue
                if inspect.isfunction(obj):
                    yield f"{info.name}.{name}", obj
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member):
                            yield f"{info.name}.{name}.{attr}", member

    def test_only_netutil_declares_transport_settings(self):
        found = [
            (name, sorted(self.SETTINGS & set(inspect.signature(fn).parameters)))
            for name, fn in self.callables()
            if not name.startswith("apimill.netutil.") and name not in self.EXEMPT
        ]
        assert [hit for hit in found if hit[1]] == []
        assert len(found) > 100  # the walk reached the package


def test_mock_hits_equal_requests_sent(corpus, tmp_path, mock_api, monkeypatch):
    manifest, corpus_dir, _ = corpus
    cfg = make_config(tmp_path, manifest, corpus_dir)
    assert main(["run", "--config", str(cfg),
                 "--stage-filter", "ingest,extract,generate"]) == 0
    sent = []
    request = netutil._Session.request

    def counting(self, method, url, **kwargs):
        sent.append(url)
        return request(self, method, url, **kwargs)

    monkeypatch.setattr(netutil._Session, "request", counting)
    before = len(mock_api.hits)
    assert main(["run", "--config", str(cfg), "--stage-filter", "validate,infer"]) == 0
    assert len(sent) > 0
    assert len(mock_api.hits) - before == len(sent)


HTTP_MODULES = ("requests", "urllib3", "ssl", "charset_normalizer")


def _in_fresh_python(script: str) -> dict:
    """Run `script` in a new interpreter that imports apimill from this
    checkout; the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=str(Path(apimill.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyHttpImport:
    """`requests` and what it brings load on the first request, not before."""

    @staticmethod
    def pipeline(argv) -> dict:
        return _in_fresh_python(textwrap.dedent(f"""
            import json, sys
            from apimill.cli import main
            code = main({argv!r})
            loaded = [m for m in {HTTP_MODULES!r} if m in sys.modules]
            print(json.dumps({{"code": code, "loaded": loaded}}))
        """))

    def test_run_without_requests_never_loads_them(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        out = self.pipeline(["run", "--config", str(cfg),
                             "--stage-filter", "ingest,extract,evaluate,generate"])
        assert out == {"code": 0, "loaded": []}
        assert (tmp_path / "out" / "metrics" / "metrics.json").exists()

    def test_validate_loads_them(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,generate"]) == 0
        out = self.pipeline(["validate", "--config", str(cfg)])
        assert out == {"code": 0, "loaded": list(HTTP_MODULES)}

    def test_simultaneous_first_requests_build_one_session_class(self, mock_api):
        out = _in_fresh_python(textwrap.dedent(f"""
            import json, sys, threading, time
            from apimill import netutil
            assert not [m for m in {HTTP_MODULES!r} if m in sys.modules]
            build = netutil._build_session_class
            def slow_build():
                time.sleep(0.05)  # time for a second builder to enter, if one could
                return build()
            netutil._build_session_class = slow_build
            start, statuses = threading.Barrier(4), []
            def first():
                start.wait()
                response = netutil.http_request("GET", "{mock_api.base_url}/cards",
                                                timeout=30,
                                                http=netutil.HttpPolicy(offline=True))
                statuses.append(response.status_code)
            threads = [threading.Thread(target=first) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            import requests
            built = [c for c in requests.Session.__subclasses__()
                     if c.__module__ == "apimill.netutil"]
            print(json.dumps({{"statuses": statuses, "classes": len(built)}}))
        """))
        assert out == {"statuses": [200] * 4, "classes": 1}

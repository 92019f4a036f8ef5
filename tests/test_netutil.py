"""The one outbound HTTP path: body cap, offline guard, shared limiter,
request accounting, redirects, TLS and the wire format."""

import gc
import http.client
import importlib
import inspect
import json
import os
import pkgutil
import socket
import textwrap
import threading
import time
import tracemalloc
import types
import warnings
from contextlib import ExitStack
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import apimill
from apimill import ingest, netutil
from apimill.cli import (load_config, main, make_embedding, make_extraction_backend,
                         make_judge)
from apimill.embedding import RemoteEmbedding
from apimill.errors import ApimillError, FetchFailed, OfflineViolation, TransportFailed
from apimill.ingest import clean_text, load_page
from apimill.model import Endpoint, Parameter
from apimill.netutil import MAX_BODY_BYTES, HttpPolicy, HttpResponse, http_request
from apimill.remote import ChatClient, RemoteConfig
from apimill.toolgen import generate_tool
from apimill.validate import invoke_tool

from conftest import DATA_DIR, in_fresh_python, make_config, serving

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


@pytest.fixture
def direct(monkeypatch):
    """No proxy variable is set."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


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

    def test_every_response_is_closed(self, monkeypatch):
        # an HTTP/1.1 server leaves each connection open for the client to
        # close, and a connection dropped unclosed warns when it is collected
        monkeypatch.setattr(netutil, "MAX_BODY_BYTES", 10)
        answer = lambda handler: (200, {}, b"x" * (100 if handler.path == "/big" else 5))  # noqa: E731
        records = []

        def work(base):
            # a thread of its own: its kept-alive connection closes when it ends
            for tool in (make_tool(base, path="/big", name="Big"), make_tool(base)):
                records.append(invoke_tool(tool, {}))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with serving(answer, protocol="HTTP/1.1") as (base, seen):
                thread = threading.Thread(target=work, args=(base,))
                thread.start()
                thread.join(timeout=30)
            gc.collect()
        assert [(r.status_code, r.truncated) for r in records] == [(200, True), (200, False)]
        assert len({request.client for request in seen}) == 2
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

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


class _Clock:
    """`netutil.time` for a test: sleeping moves the clock on at once."""

    def __init__(self):
        self.now, self.sleeps = 1000.0, []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_host_rate_limiter_paces_each_host(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(netutil, "time", clock)
    limiter = netutil.HostRateLimiter(rate_per_sec=2.0)
    limiter.acquire("a")  # a host starts with one token
    limiter.acquire("b")  # and has a bucket of its own
    assert clock.sleeps == []
    limiter.acquire("a")  # half a second to the next token, in naps of at most 0.2 s
    assert clock.now - 1000.0 == pytest.approx(0.5)
    assert len(clock.sleeps) == 3 and max(clock.sleeps) == 0.2
    clock.now += 10.0  # an idle host saves up one token, not twenty
    limiter.acquire("a")
    limiter.acquire("a")
    assert clock.now - 1010.0 == pytest.approx(1.0)
    netutil.HostRateLimiter(rate_per_sec=0).acquire("a")  # 0: no limit
    assert clock.now - 1010.0 == pytest.approx(1.0)


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
        emb = RemoteEmbedding(RemoteConfig(self.URL, "m"),
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
    # the server's certificate is self-signed: only an unverified call gets through
    for name in ("REQUESTS_CA_BUNDLE", "SSL_CERT_FILE"):
        monkeypatch.delenv(name, raising=False)
    (tmp_path / "m.json").write_text("[]")
    answer = lambda handler: (200, {"Content-Type": "application/json"},  # noqa: E731
                              json.dumps(reply).encode())
    with serving(answer, tls=True) as (base, seen):
        configs = {}
        for tls_verify in (False, True):
            configs[tls_verify] = cfg = tmp_path / f"{tls_verify}.json"
            cfg.write_text(json.dumps({
                "corpus_manifest": "m.json", "output_dir": "out", "tls_verify": tls_verify,
                "rate_limit_per_host": 0,
                "backends": {section: {"kind": "remote", "endpoint_url": f"{base}/v1",
                                       "model_name": "m"}},
            }))
        call(load_config(configs[False]))
        with pytest.raises(ApimillError, match="CERTIFICATE_VERIFY_FAILED"):
            call(load_config(configs[True]))
    assert [request.line for request in seen] == ["POST /v1 HTTP/1.1"]


class TestTls:
    """Against a server with the self-signed certificate in tests/data."""

    @pytest.fixture
    def tls_stub(self, monkeypatch):
        for name in ("REQUESTS_CA_BUNDLE", "SSL_CERT_FILE"):
            monkeypatch.delenv(name, raising=False)
        with serving(tls=True) as (base, seen):
            yield base, seen

    def test_unverified_gets_through(self, tls_stub):
        base, seen = tls_stub
        assert http_request("GET", f"{base}/x", http=HttpPolicy(tls_verify=False)).status_code == 200
        assert [request.line for request in seen] == ["GET /x HTTP/1.1"]

    def test_verified_fails(self, tls_stub):
        base, seen = tls_stub
        with pytest.raises(TransportFailed, match="CERTIFICATE_VERIFY_FAILED"):
            http_request("GET", f"{base}/x", http=HttpPolicy(tls_verify=True))
        assert seen == []

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "SSL_CERT_FILE"])
    def test_ca_bundle_variable_trusts_the_cert(self, tls_stub, monkeypatch, variable):
        base, seen = tls_stub
        monkeypatch.setenv(variable, str(DATA_DIR / "loopback.pem"))
        for url in (f"{base}/x", f"{base}/x".replace("127.0.0.1", "localhost")):
            assert http_request("GET", url, http=HttpPolicy(tls_verify=True)).status_code == 200
        assert len(seen) == 2


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
    putrequest = http.client.HTTPConnection.putrequest

    def counting(self, method, url, *args, **kwargs):
        sent.append(url)
        return putrequest(self, method, url, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "putrequest", counting)
    before = len(mock_api.hits)
    assert main(["run", "--config", str(cfg), "--stage-filter", "validate,infer"]) == 0
    assert len(sent) > 0
    assert len(mock_api.hits) - before == len(sent)


@pytest.mark.parametrize("entry", [None, "x"], ids=["null", "string"])
def test_malformed_embedding_reply_ends_the_run_with_an_error(corpus, tmp_path, capsys, entry):
    manifest, corpus_dir, _ = corpus

    def answer(handler):
        texts = json.loads(handler.server.seen[-1].body)["input"]
        reply = {"data": [{"embedding": [1.0, entry]} for _ in texts]}
        return 200, {"Content-Type": "application/json"}, json.dumps(reply).encode()

    with serving(answer) as (base, _):
        cfg = make_config(tmp_path, manifest, corpus_dir, backends={"embedding": {
            "kind": "remote", "endpoint_url": f"{base}/v1", "model_name": "m"}})
        code = main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,evaluate"])
    assert code == 1
    assert "error: malformed response: embedding [1.0, " in capsys.readouterr().err


HTTP_MODULES = ("http.client", "ssl", "urllib.request")
THIRD_PARTY = ("requests", "urllib3", "charset_normalizer")


class TestLazyHttpImport:
    """The stdlib HTTP client loads on the first request, not before; no
    third-party HTTP library loads at all."""

    @staticmethod
    def pipeline(argv) -> dict:
        return in_fresh_python(textwrap.dedent(f"""
            import json, sys
            from apimill.cli import main
            code = main({argv!r})
            loaded = [m for m in {HTTP_MODULES + THIRD_PARTY!r} if m in sys.modules]
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
        for command in ("validate", "infer"):
            out = self.pipeline([command, "--config", str(cfg)])
            assert out == {"code": 0, "loaded": list(HTTP_MODULES)}, command
        assert (tmp_path / "out" / "kb" / "kb.jsonl").exists()

    def test_simultaneous_first_requests_all_succeed(self, mock_api):
        out = in_fresh_python(textwrap.dedent(f"""
            import json, sys, threading
            from apimill import netutil
            assert not [m for m in {HTTP_MODULES + THIRD_PARTY!r} if m in sys.modules]
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
            loaded = [m for m in {THIRD_PARTY!r} if m in sys.modules]
            print(json.dumps({{"statuses": statuses, "loaded": loaded}}))
        """))
        assert out == {"statuses": [200] * 4, "loaded": []}


def _redirect(status, location):
    return lambda handler: (status, {"Location": location.format(path=handler.path)}, b"")


class TestRedirects:
    """Redirects are followed as requests follows them, each hop under the
    policy."""

    def test_offline_refuses_a_redirect_off_loopback(self, no_network):
        limiter = _NeverWait()
        with serving(_redirect(302, "http://public.example/x")) as (base, seen):
            with pytest.raises(OfflineViolation, match="public.example"):
                http_request("GET", f"{base}/start",
                             http=HttpPolicy(offline=True, limiter=limiter))
        assert len(seen) == 1 and limiter.hosts == ["127.0.0.1"]
        assert [args for args in no_network if "public.example" in repr(args)] == []

    def test_limiter_waits_on_every_hop(self):
        limiter = _NeverWait()
        with serving() as (target, seen):
            with serving(_redirect(307, f"{target}/end")) as (base, _):
                response = http_request("GET", f"{base}/start", http=HttpPolicy(limiter=limiter))
        assert response.status_code == 200 and [r.line for r in seen] == ["GET /end HTTP/1.1"]
        assert limiter.hosts == ["127.0.0.1", "127.0.0.1"]

    @staticmethod
    def _countdown(handler):
        hops = int(handler.path.rsplit("/", 1)[1])
        if hops == 0:
            return 200, {}, b"done"
        return 302, {"Location": f"/hop/{hops - 1}"}, b"moved"

    def test_at_most_thirty(self):
        with serving(self._countdown) as (base, seen):
            assert http_request("GET", f"{base}/hop/30").text == "done"
            assert len(seen) == 31
            with pytest.raises(TransportFailed, match="exceeded 30 redirects"):
                http_request("GET", f"{base}/hop/31")
            assert len(seen) == 31 + 31

    @pytest.mark.parametrize("status, method, then, keeps_body", [
        (301, "POST", "GET", False),
        (301, "PUT", "PUT", False),
        (302, "POST", "GET", False),
        (302, "HEAD", "HEAD", False),
        (303, "PUT", "GET", False),
        (303, "HEAD", "HEAD", False),
        (307, "POST", "POST", True),
        (308, "PUT", "PUT", True),
    ])
    def test_method_and_body(self, status, method, then, keeps_body):
        def answer(handler):
            if handler.path == "/start":
                return status, {"Location": "/next"}, b""
            return 200, {}, b""

        body = {"name": "café"} if method != "HEAD" else None
        with serving(answer) as (base, seen):
            assert http_request(method, f"{base}/start", json=body).status_code == 200
        assert [r.line for r in seen] == [f"{method} /start HTTP/1.1", f"{then} /next HTTP/1.1"]
        if keeps_body:
            assert seen[1].body == seen[0].body == b'{"name": "caf\\u00e9"}'
            assert seen[1].headers["Content-Type"] == "application/json"
        else:
            assert seen[1].body == b"" and "Content-Type" not in seen[1].headers

    def test_authorization_stays_with_its_host(self, api_test_is_loopback):
        with serving() as (other, at_other):
            port = other.rsplit(":", 1)[1]

            def answer(handler):
                if handler.path == "/start":
                    return 302, {"Location": "/same"}, b""
                return 302, {"Location": f"http://api.test:{port}/other"}, b""

            with serving(answer) as (base, at_base):
                http_request("GET", f"{base}/start", headers={"Authorization": "Bearer k"})
        assert [r.headers.get("Authorization") for r in at_base] == ["Bearer k", "Bearer k"]
        assert [r.line for r in at_other] == ["GET /other HTTP/1.1"]
        assert "Authorization" not in at_other[0].headers


# tools whose values need escaping, and the request lines and bodies the
# requests-based client sent for them
WIRE_VALUES = ["a b", "café ü漢", "100%", "50%off", "x&y=z+w", "[a]:b@c/d?e#f", "~tilde.-_",
               "semi;colon,comma'quote\"!*()$"]
WIRE = [
    ["GET /items/a%20b?q=a%20b HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"a b\"}"],
    ["GET /items/caf%C3%A9%20%C3%BC%E6%BC%A2?q=caf%C3%A9%20%C3%BC%E6%BC%A2 HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"caf\\u00e9 \\u00fc\\u6f22\"}"],
    ["GET /items/100%25?q=100%25 HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"100%\"}"],
    ["GET /items/50%25off?q=50%25off HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"50%off\"}"],
    ["GET /items/x%26y%3Dz%2Bw?q=x%26y%3Dz%2Bw HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"x&y=z+w\"}"],
    ["GET /items/%5Ba%5D%3Ab%40c%2Fd%3Fe%23f?q=%5Ba%5D%3Ab%40c%2Fd%3Fe%23f HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"[a]:b@c/d?e#f\"}"],
    ["GET /items/~tilde.-_?q=~tilde.-_ HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"~tilde.-_\"}"],
    ["GET /items/semi%3Bcolon%2Ccomma%27quote%22%21%2A%28%29%24"
     "?q=semi%3Bcolon%2Ccomma%27quote%22%21%2A%28%29%24 HTTP/1.1", None],
    ["POST /items HTTP/1.1", "{\"name\": \"semi;colon,comma'quote\\\"!*()$\"}"],
]


class TestWire:
    def test_tool_requests_as_requests_sent_them(self):
        with serving() as (base, seen):
            for i, value in enumerate(WIRE_VALUES):
                get = generate_tool(Endpoint(
                    name=f"Get Item {i}", method="GET", url=base + "/items/{key}",
                    description="d", required_parameters=[Parameter(name="key")],
                    optional_parameters=[Parameter(name="q")]), source_id="wire")
                post = generate_tool(Endpoint(
                    name=f"Post Item {i}", method="POST", url=base + "/items",
                    description="d", required_parameters=[Parameter(name="name")]),
                    source_id="wire")
                assert invoke_tool(get, {"key": value, "q": value}).status_code == 200
                assert invoke_tool(post, {"name": value}).status_code == 200
        assert [[r.line, r.body.decode() or None] for r in seen] == WIRE
        for request in seen:
            assert "Accept-Encoding" not in request.headers and "Cookie" not in request.headers
            if request.body:
                assert request.headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize("raw, line", [
        # what requests sent for each URL
        ("/caf é/x?q=a b", "GET /caf%20%C3%A9/x?q=a%20b HTTP/1.1"),
        ("/a%7eb/%2f%41?t=%7E", "GET /a~b/%2FA?t=~ HTTP/1.1"),
        ("/p?s=%zz", "GET /p?s=%25zz HTTP/1.1"),
        ("/ü?ä=ö#frag", "GET /%C3%BC?%C3%A4=%C3%B6 HTTP/1.1"),
        ("/p/%E6%bc%A2", "GET /p/%E6%BC%A2 HTTP/1.1"),
        ("", "GET / HTTP/1.1"),
        ("?x=1", "GET /?x=1 HTTP/1.1"),
        ("/p?b={2}|^`\\", "GET /p?b=%7B2%7D%7C%5E%60%5C HTTP/1.1"),
        # requests.utils.requote_uri keeps a lone % that ends the URL; the
        # urllib3 layer under requests escaped it to %25
        ("/p?s=100%", "GET /p?s=100% HTTP/1.1"),
    ])
    def test_url_requoted(self, raw, line):
        with serving() as (base, seen):
            http_request("GET", base + raw)
        assert [r.line for r in seen] == [line]

    @pytest.mark.parametrize("content_type, text", [
        ("text/html", "Pokémon"),  # requests decoded this as ISO-8859-1
        ("text/html; charset=ISO-8859-1", "PokÃ©mon"),
        ("text/plain; charset=no-such-codec", "Pokémon"),
        ("text/plain; charset=base64", "Pokémon"),  # a codec, but not a text one
        ("application/json", "Pokémon"),
        (None, "Pokémon"),  # requests guessed the charset with charset_normalizer
    ])
    def test_text_charset(self, content_type, text):
        headers = {"Content-Type": content_type} if content_type else {}
        answer = lambda handler: (200, headers, "Pokémon".encode("utf-8"))  # noqa: E731
        with serving(answer) as (base, _):
            assert http_request("GET", f"{base}/page").text == text

    def test_bad_utf8_replaced(self):
        answer = lambda handler: (200, {"Content-Type": "text/plain"}, b"ok \xff")  # noqa: E731
        with serving(answer) as (base, _):
            assert http_request("GET", f"{base}/page").text == "ok �"

    @pytest.mark.parametrize("charset, body", [
        ("utf-7", b"ok +2AA-"),
        ("unicode_escape", b"ok \\udc00"),
    ])
    def test_lone_surrogate_replaced(self, charset, body):
        assert HttpResponse(200, body, charset=charset).text == "ok �"

    def test_no_json_encoding_guessed(self):
        # requests' .json() found UTF-16 in a body with no Content-Type; the
        # text is UTF-8 here, as for every body without a charset
        body = '{"name": "Pokémon"}'.encode("utf-16")
        answer = lambda handler: (200, {}, body)  # noqa: E731
        with serving(answer) as (base, _):
            text = http_request("GET", f"{base}/page").text
        assert text == body.decode("utf-8", errors="replace")
        with pytest.raises(ValueError):
            json.loads(text)

    def test_host_sent_idna_encoded(self, monkeypatch, direct):
        looked_up, lookup = [], socket.getaddrinfo

        def resolve(host, *args, **kwargs):
            looked_up.append(host)
            if host != "xn--bcher-kva.test":
                raise OSError("network refused by the test")
            return lookup("127.0.0.1", *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", resolve)
        with serving() as (base, seen):
            port = base.rsplit(":", 1)[1]
            assert http_request("GET", f"http://Bücher.test:{port}/ä").status_code == 200
        # what requests sent for the same URL
        assert looked_up == ["xn--bcher-kva.test"]
        assert seen[0].line == "GET /%C3%A4 HTTP/1.1"
        assert seen[0].headers["Host"] == f"xn--bcher-kva.test:{port}"

    def test_credentials_in_the_url_sent_as_basic_auth(self):
        def answer(handler):
            return (302, {"Location": "/next"}, b"") if handler.path == "/start" else (200, {}, b"")

        with serving(answer) as (base, seen):
            url = base.replace("http://", "http://us%20er:p%40ss@") + "/start"
            http_request("GET", url, headers={"Authorization": "Bearer k"})
        # what requests sent for the same URL: Basic auth in place of the
        # given header, kept on a redirect to the same host
        assert [r.line for r in seen] == ["GET /start HTTP/1.1", "GET /next HTTP/1.1"]
        assert [r.headers["Authorization"] for r in seen] == 2 * ["Basic dXMgZXI6cEBzcw=="]
        assert seen[0].headers["Host"] == base.split("//")[1]

    def test_nan_body_is_a_transport_failure(self, no_network):
        with pytest.raises(TransportFailed, match="JSON"):
            http_request("POST", "http://127.0.0.1:9/x", json={"x": float("nan")})
        assert no_network == []


class TestConnections:
    """One kept-alive connection per thread and origin, dropped and closed
    when the server closes it, when the body is cut, or on any error."""

    @staticmethod
    def answer(handler):
        if handler.path == "/close":
            return 200, {"Connection": "close"}, b"bye"
        if handler.path == "/big":
            return 200, {}, b"x" * 100
        if handler.path == "/garbage":
            handler.wfile.write(b"NOT HTTP\r\n")
            return None
        return 200, {}, b"ok"

    def test_dropped_when_closed_cut_or_failed(self, monkeypatch):
        monkeypatch.setattr(netutil, "MAX_BODY_BYTES", 10)
        outcomes, pooled = [], []

        def work(base):
            # on a thread of its own, whose connections close when it ends
            for path in ("/a", "/b", "/close", "/c", "/big", "/d", "/garbage", "/e"):
                try:
                    response = http_request("GET", base + path, timeout=10)
                    outcomes.append((response.content, response.truncated))
                except TransportFailed:
                    outcomes.append("failed")
                pooled.append(len(netutil._local.conns))

        with serving(self.answer, protocol="HTTP/1.1") as (base, seen):
            thread = threading.Thread(target=work, args=(base,))
            thread.start()
            thread.join(timeout=30)
        assert outcomes == [(b"ok", False), (b"ok", False), (b"bye", False), (b"ok", False),
                            (b"x" * 10, True), (b"ok", False), "failed", (b"ok", False)]
        assert pooled == [1, 1, 0, 1, 0, 1, 0, 1]
        sockets = [r.client for r in seen]
        # /a /b /close share one; /c /big the next; /d /garbage the next; /e its own
        assert sockets[0] == sockets[1] == sockets[2] != sockets[3] == sockets[4]
        assert sockets[4] != sockets[5] == sockets[6] != sockets[7]
        assert len(set(sockets)) == 4

    def test_reopened_after_the_server_closes_an_idle_one(self):
        def answer(handler):
            handler.close_connection = handler.path == "/last"  # closed, unannounced
            return 200, {}, b"ok"

        outcomes = []

        def work(base):
            for path in ("/last", "/again"):
                outcomes.append(http_request("GET", base + path, timeout=10).content)
                time.sleep(0.2)  # the server's close arrives first

        with serving(answer, protocol="HTTP/1.1") as (base, seen):
            thread = threading.Thread(target=work, args=(base,))
            thread.start()
            thread.join(timeout=30)
        assert outcomes == [b"ok", b"ok"]
        assert len({r.client for r in seen}) == 2

    def test_at_most_ten_per_thread_the_oldest_closed(self, monkeypatch, direct):
        opened, connect = [], socket.create_connection

        def recording(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", recording)
        # 0 is used again, so 10 and 11 close 1 and 2, the least recently used;
        # 0 is still open, and 1 reopens
        order = [*range(10), 0, 10, 11, 0, 1]
        open_after, errors = [], []

        def work(bases):
            for origin in order:
                try:
                    http_request("GET", f"{bases[origin]}/{origin}", timeout=10)
                except TransportFailed as exc:
                    errors.append(exc)
                open_after.append(sum(sock.fileno() != -1 for sock in opened))

        with ExitStack() as servers:
            served = [servers.enter_context(serving(protocol="HTTP/1.1")) for _ in range(12)]
            thread = threading.Thread(target=work, args=([base for base, _ in served],))
            thread.start()
            thread.join(timeout=60)
        assert errors == [] and len(opened) == 13
        assert open_after == [*range(1, 11), 10, 10, 10, 10, 10]
        assert all(sock.fileno() == -1 for sock in opened)  # closed with the thread
        for origin, (_, seen) in enumerate(served):
            assert len({r.client for r in seen}) == (2 if origin == 1 else 1)

    def test_idle_check_takes_any_descriptor_number(self, direct):
        import resource
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("the process may not open 1,100 files")
        fds, outcomes = [], []

        def work(base):
            for path in ("/a", "/b"):  # the second checks the kept connection
                outcomes.append(http_request("GET", base + path, timeout=10).status_code)

        try:
            while not fds or fds[-1] < 1024:  # past select's FD_SETSIZE
                fds.append(os.open(os.devnull, os.O_RDONLY))
            with serving(protocol="HTTP/1.1") as (base, seen):
                thread = threading.Thread(target=work, args=(base,))
                thread.start()
                thread.join(timeout=30)
        finally:
            for fd in fds:
                os.close(fd)
        assert outcomes == [200, 200] and len({r.client for r in seen}) == 1


class TestProxyAddress:
    """A proxy URL without a port is reached on port 80, where requests
    reached it; an https:// proxy is refused before any connect."""

    @pytest.fixture
    def connects(self, monkeypatch, direct):
        tried = []

        def refuse(address, *args, **kwargs):
            tried.append(address)
            raise OSError("network refused by the test")

        monkeypatch.setattr(socket, "create_connection", refuse)
        return tried

    @pytest.mark.parametrize("variable, url", [("HTTP_PROXY", "http://api.test/x"),
                                               ("HTTPS_PROXY", "https://api.test/x")])
    def test_no_port_is_port_80(self, connects, monkeypatch, variable, url):
        monkeypatch.setenv(variable, "http://proxy.test")
        with pytest.raises(TransportFailed, match="refused by the test"):
            http_request("GET", url)
        assert connects == [("proxy.test", 80)]

    @pytest.mark.parametrize("variable, url", [("HTTP_PROXY", "http://api.test/x"),
                                               ("HTTPS_PROXY", "https://api.test/x")])
    def test_https_proxy_refused(self, connects, monkeypatch, variable, url):
        monkeypatch.setenv(variable, "https://proxy.test:3128")
        with pytest.raises(TransportFailed, match="only http:// proxies"):
            http_request("GET", url)
        assert connects == []


class TestProxyLookup:
    """Where proxies come from the environment alone, as on Linux, a request
    reads the environment at most once, and not at all when no variable
    name ends in `_proxy`."""

    @pytest.mark.parametrize("env, scans", [
        ({}, 0),
        ({"NO_PROXY": "example.invalid"}, 1),
        ({"HTTP_PROXY": "http://proxy.test:3128", "NO_PROXY": "127.0.0.1"}, 1),
    ])
    def test_environment_scans_per_request(self, monkeypatch, direct, stub, env, scans):
        import urllib.request
        scan, calls = urllib.request.getproxies_environment, []

        def counting():
            calls.append(1)
            return scan()

        monkeypatch.setattr(urllib.request, "getproxies_environment", counting)
        monkeypatch.setattr(urllib.request, "getproxies", counting)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        for _ in range(3):  # NO_PROXY sends the proxied case straight to the stub
            assert http_request("POST", f"{stub}/chat", json={}).status_code == 200
        assert len(calls) == 3 * scans


class TestRunPool:
    """An ordered map over a lazy input, on `width` threads, with no more
    than `width` calls started ahead of the consumer."""

    @pytest.mark.parametrize("width", [1, 4])
    def test_results_in_input_order(self, width):
        def square_late(x):
            time.sleep(0.002 * (10 - x))  # the earlier an item, the later it ends
            return x * x

        assert list(netutil.run_pool(square_late, range(10), width)) == [x * x for x in range(10)]

    @pytest.mark.parametrize("width", [1, 3])
    def test_no_more_than_width_started_ahead(self, width):
        taken, started = [], []

        def items():
            for i in range(12):
                taken.append(i)
                yield i

        results = netutil.run_pool(lambda x: started.append(x) or x, items(), width)
        assert taken == started == []  # nothing runs before the first read
        for read, result in enumerate(results, 1):
            time.sleep(0.01)  # time for the threads to run ahead, as far as they may
            assert result == read - 1
            assert len(started) <= len(taken) <= read + width
        assert sorted(started) == list(range(12))

    @pytest.mark.parametrize("width", [1, 2])
    def test_exception_reaches_consumer_at_its_item(self, width):
        def fn(x):
            if x == 3:
                raise ValueError(x)
            return x

        seen = []
        with pytest.raises(ValueError, match="3"):
            for x in netutil.run_pool(fn, range(10), width):
                seen.append(x)
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize("stop", ["raise", "close"])
    def test_no_thread_outlives_its_consumer(self, stop):
        before, started = set(threading.enumerate()), []

        def slow(x):
            started.append(x)
            time.sleep(0.01)
            return x

        if stop == "raise":
            with pytest.raises(KeyError):
                for x in netutil.run_pool(slow, range(100), 4):
                    if x == 2:
                        raise KeyError(x)
        else:
            results = netutil.run_pool(slow, range(100), 4)
            next(results), next(results)
            results.close()
        assert not set(threading.enumerate()) - before
        assert len(started) <= 3 + 4  # the calls not started were cancelled

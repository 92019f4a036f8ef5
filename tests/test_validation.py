import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apimill.errors import (
    JudgeUnavailable,
    MissingRequiredParameter,
    NegativeCount,
    UnboundPathParam,
)
from apimill.judges import HeuristicJudge
from apimill.model import Endpoint, Parameter
from apimill.netutil import HostRateLimiter, HttpPolicy
from apimill.toolgen import generate_tool
from apimill.validate import (
    CAUSE_CATEGORIES,
    ErrorType,
    InvocationRecord,
    ValidationReport,
    build_request,
    counts_from_reports,
    decode_component,
    decode_to_bytes,
    default_args,
    encode_bytes,
    encode_component,
    estimate_causes,
    invoke_tool,
    judge_response,
    render_error_tables,
    run_validation,
    validate_tool,
)

from conftest import DATA_DIR, serving

STRUCTURAL = (ErrorType.MISSING_BASE_URL, ErrorType.MISSING_ENDPOINT_PATH, ErrorType.NO_PARAM_VALUE)


def make_tool(base_url, path="/cards", name="Search Cards", method="GET",
              required=(), optional=()):
    return generate_tool(
        Endpoint(
            name=name,
            method=method,
            url=f"{base_url}{path}",
            description="Searches the card catalog.",
            required_parameters=list(required),
            optional_parameters=list(optional),
        ),
        source_id="test",
    )


class TestPercentEncoding:
    def test_reserved_characters(self):
        assert encode_component("+") == "%2B"
        assert encode_component("=") == "%3D"
        assert encode_component("a b") == "a%20b"
        assert encode_component("name:gardevoir") == "name%3Agardevoir"

    def test_round_trip(self):
        for s in ["", "plain", "a+b=c&d", "ümlaut", "100%"]:
            assert decode_component(encode_component(s)) == s

    def test_bytes_round_trip(self):
        raw = bytes(range(256))
        assert decode_to_bytes(encode_bytes(raw)) == raw

    @given(st.text(max_size=64))
    def test_round_trip_property(self, s):
        assert decode_component(encode_component(s)) == s


class TestBuildRequest:
    def test_get_query_raw_then_encoded(self, mock_api):
        tool = make_tool(mock_api.base_url,
                         required=[Parameter(name="q", example_value="a+b=c")])
        request = build_request(tool, {"q": "a+b=c"})
        assert request.query == {"q": "a+b=c"}  # raw until composition
        assert request.full_url().endswith("/cards?q=a%2Bb%3Dc")
        assert request.body is None

    def test_query_base_appended_with_ampersand(self):
        tool = generate_tool(
            Endpoint(name="E", method="GET", url="https://h.example/x?format=json",
                     required_parameters=[Parameter(name="q", example_value="1")]),
            "s",
        )
        request = build_request(tool, {"q": "1"})
        assert request.full_url() == "https://h.example/x?format=json&q=1"

    def test_path_binding_encoded(self):
        tool = generate_tool(
            Endpoint(name="E", method="GET", url="https://h.example/items/{id}",
                     required_parameters=[Parameter(name="id", example_value="a/b")]),
            "s",
        )
        request = build_request(tool, {"id": "a/b"})
        assert request.url == "https://h.example/items/a%2Fb"

    def test_missing_required_raises(self, mock_api):
        tool = make_tool(mock_api.base_url, required=[Parameter(name="q")])
        with pytest.raises(MissingRequiredParameter):
            build_request(tool, {})

    def test_unbound_path_raises(self):
        tool = generate_tool(
            Endpoint(name="E", method="GET", url="https://h.example/items/{id}",
                     optional_parameters=[Parameter(name="id")]),
            "s",
        )
        with pytest.raises(UnboundPathParam):
            build_request(tool, {"id": None})

    def test_non_get_sends_body(self, mock_api):
        tool = make_tool(mock_api.base_url, method="POST",
                         required=[Parameter(name="label", example_value="x")])
        request = build_request(tool, {"label": "x", "undeclared": "dropped"})
        assert request.body == {"label": "x"}
        assert request.query == {}
        assert request.full_url() == request.url

    def test_scalar_values_rendered(self, mock_api):
        tool = make_tool(mock_api.base_url, optional=[
            Parameter(name="page", type_hint="integer"),
            Parameter(name="deep", type_hint="boolean"),
        ])
        request = build_request(tool, {"page": 3, "deep": True})
        assert request.query == {"page": "3", "deep": "true"}

    def test_headers_parsed(self, mock_api):
        tool = make_tool(mock_api.base_url)
        tool.headers = ["X-Key: abc", "not a header line"]
        request = build_request(tool, {})
        assert request.headers == {"X-Key": "abc"}
        assert "not a header line" in tool.headers  # kept on the descriptor


class TestInvokeTool:
    def test_success(self, mock_api, judge):
        tool = make_tool(mock_api.base_url,
                         required=[Parameter(name="q", example_value="name:gardevoir")])
        record = invoke_tool(tool, {"q": "name:gardevoir"}, http=HttpPolicy(limiter=None))
        assert record.status_code == 200
        assert record.json_body["data"][0]["name"] == "Gardevoir"
        assert not record.retried_without_params
        assert record.transport_error is None

    def test_retry_without_params(self, mock_api):
        tool = make_tool(mock_api.base_url, path="/legacy", name="Legacy",
                         optional=[Parameter(name="verbose", example_value=1)])
        before = len(mock_api.hits)
        record = invoke_tool(tool, {"verbose": 1})
        sent = mock_api.hits[before:]
        assert record.retried_without_params is True
        assert record.status_code == 200
        assert len(sent) == 2  # never more than two HTTP calls
        assert sent[0][1] != {} and sent[1][1] == {}

    def test_no_retry_when_no_args_sent(self, mock_api):
        tool = make_tool(mock_api.base_url, path="/gone", name="Old")
        before = len(mock_api.hits)
        record = invoke_tool(tool, {})
        assert record.status_code == 404
        assert not record.retried_without_params
        assert len(mock_api.hits) - before == 1

    def test_retry_response_returned_even_if_bad(self, mock_api):
        # /trainers 400s without name; the retry also lacks name, so both fail
        tool = make_tool(mock_api.base_url, path="/trainers", name="Find Trainer",
                         optional=[Parameter(name="junk", example_value="x")])
        record = invoke_tool(tool, {"junk": "x"})
        assert record.retried_without_params is True
        assert record.status_code == 400

    def test_offline_blocks_non_loopback(self):
        tool = make_tool("https://api.example", required=[Parameter(name="q", example_value="x")])
        record = invoke_tool(tool, {"q": "x"}, http=HttpPolicy(offline=True))
        assert record.transport_error is not None
        assert "offline" in record.transport_error

    def test_offline_allows_loopback(self, mock_api):
        tool = make_tool(mock_api.base_url)
        record = invoke_tool(tool, {}, http=HttpPolicy(offline=True))
        assert record.status_code == 200

    def test_one_connection_per_thread_and_origin(self):
        # HTTP/1.1 servers keep each connection open: a client socket per
        # thread and origin, reused by every later call
        statuses = []
        with serving(protocol="HTTP/1.1") as (first, seen_first), \
                serving(protocol="HTTP/1.1") as (second, seen_second):
            tools = [make_tool(first), make_tool(second)]

            def work():
                for _ in range(5):
                    statuses.extend(invoke_tool(tool, {}).status_code for tool in tools)

            threads = [threading.Thread(target=work) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # threads interleave inside each call
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
            finally:
                sys.setswitchinterval(interval)
        assert statuses == [200] * 40
        for seen in (seen_first, seen_second):
            assert len(seen) == 20
            assert len({request.client for request in seen}) == 4

    def test_no_cookie_crosses_calls(self):
        class SetsCookie(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_GET(self):
                self.server.cookies.append(self.headers.get("Cookie"))
                body = b'{"data": 1}'
                self.send_response(400 if "?" in self.path else 200)
                self.send_header("Set-Cookie", "session=abc; Path=/")
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), SetsCookie)
        server.cookies = []
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            first = make_tool(base, optional=[Parameter(name="verbose", example_value=1)])
            record = invoke_tool(first, {"verbose": 1})
            assert record.retried_without_params and record.status_code == 200
            assert invoke_tool(make_tool(base, path="/other", name="Other"), {}).status_code == 200
        finally:
            server.shutdown()
            server.server_close()
            serving.join(timeout=10)
        # the first call, its retry, the next tool's call
        assert server.cookies == [None, None, None]

    @pytest.mark.parametrize("env, proxied, ca", [
        ({"HTTP_PROXY": "{proxy}"}, {"a", "b"}, None),
        ({"HTTP_PROXY": "{proxy}", "NO_PROXY": "api.test:{a}"}, {"b"}, None),
        ({"HTTP_PROXY": "{proxy}", "NO_PROXY": "api.test"}, set(), None),
        ({"REQUESTS_CA_BUNDLE": "{cert}"}, set(), "loopback.pem"),
    ])
    def test_environment_reaches_adapter_as_with_requests(self, monkeypatch, api_test_is_loopback,
                                                          env, proxied, ca):
        for name in list(os.environ):
            if name.lower().endswith("_proxy") or name in ("REQUESTS_CA_BUNDLE", "SSL_CERT_FILE"):
                monkeypatch.delenv(name)
        with serving() as (proxy, at_proxy), serving() as (a, at_a), \
                serving() as (b, at_b), serving(tls=True) as (tls, at_tls):
            ports = {"a": a.rsplit(":", 1)[1], "b": b.rsplit(":", 1)[1]}
            values = dict(ports, proxy=proxy, cert=DATA_DIR / "loopback.pem")
            for name, value in env.items():
                monkeypatch.setenv(name, value.format(**values))
            tls_passed = []
            for tls_verify in (True, False, True):
                policy = HttpPolicy(tls_verify=tls_verify)
                for origin in ("a", "b"):
                    tool = make_tool(f"http://api.test:{ports[origin]}")
                    assert invoke_tool(tool, {}, http=policy).status_code == 200
                # no HTTPS_PROXY: https goes straight to the origin
                tls_passed.append(invoke_tool(make_tool(tls), {}, http=policy).status_code == 200)
        # a proxy is sent the absolute URL; an origin, the path
        assert [r.line for r in at_proxy] == 3 * [
            f"GET http://api.test:{ports[o]}/cards HTTP/1.1" for o in ("a", "b") if o in proxied]
        for origin, seen in (("a", at_a), ("b", at_b)):
            want = [] if origin in proxied else 3 * ["GET /cards HTTP/1.1"]
            assert [r.line for r in seen] == want
        assert tls_passed == [ca is not None, True, ca is not None]
        assert len(at_tls) == tls_passed.count(True)


class TestJudgeResponse:
    def test_heuristic_pass_and_fail(self, judge):
        ok = InvocationRecord(status_code=200, text='{"data": [1]}', json_body={"data": [1]})
        bad = InvocationRecord(status_code=200, text='{"error": "invalid query"}',
                               json_body={"error": "invalid query"})
        assert judge_response("desc", ok, judge)[0] is True
        assert judge_response("desc", bad, judge)[0] is False

    def test_remote_failure_falls_back(self):
        class Down:
            fallback = HeuristicJudge()

            def judge_response(self, *a):
                raise JudgeUnavailable("boom")

        record = InvocationRecord(status_code=200, text='{"data": 1}', json_body={"data": 1})
        passed, rationale = judge_response("desc", record, Down())
        assert passed is True
        assert rationale.startswith("heuristic fallback")


def test_validation_report_dict_round_trip():
    answered = InvocationRecord(
        status_code=200, text='{"data": [1]}', json_body={"data": [1]},
        truncated=True, retried_without_params=True,
    )
    refused = InvocationRecord(transport_error="connection refused")
    reports = [
        ValidationReport(
            tool_name="search", attempts=[answered], error_type=ErrorType.PASSED,
            judge_verdict={"passed": True, "rationale": "response object carries data"},
            source_id="src", args_used={"q": "x", "n": 3},
        ),
        ValidationReport(
            tool_name="lookup", attempts=[refused], error_type=ErrorType.WRONG_PARAM_VALUE,
            source_id="src", args_used={"id": None},
        ),
        ValidationReport(tool_name="bare", attempts=[], error_type=ErrorType.MISSING_BASE_URL),
    ]
    for report in reports:
        assert ValidationReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report
    # the row still carries "passed", derived from the error type
    assert [r.to_dict()["passed"] for r in reports] == [True, False, False]
    # reports.jsonl rows of earlier versions carry a wall-clock "elapsed" per attempt
    older = reports[1].to_dict()
    older["attempts"][0]["elapsed"] = 0.5
    assert ValidationReport.from_dict(older) == reports[1]


class TestClassifyOutcome:
    """Each label as validate_tool decides it; a structural one sends nothing."""

    def base_tool(self, base_url, path="/cards"):
        return make_tool(base_url, path=path, required=[Parameter(name="q", example_value="x")])

    def validate(self, mock_api, judge, tool, args, requests):
        before = len(mock_api.hits)
        report = validate_tool(tool, judge, args=args, http=HttpPolicy(offline=True))
        assert len(mock_api.hits) - before == requests
        assert len(report.attempts) == (0 if report.error_type in STRUCTURAL else 1)
        return report

    def test_priority_missing_base_url(self, mock_api, judge):
        tool = generate_tool(Endpoint(name="E", method="GET", url="/only/path"), "s")
        # generate_tools_for_spec would divert this; validate it directly instead
        report = self.validate(mock_api, judge, tool, {}, requests=0)
        assert report.error_type is ErrorType.MISSING_BASE_URL

    def test_empty_path_with_args(self, mock_api, judge):
        tool = generate_tool(
            Endpoint(name="E", method="GET", url="https://h.example",
                     required_parameters=[Parameter(name="q", example_value="x")]),
            "s",
        )
        report = self.validate(mock_api, judge, tool, {"q": "x"}, requests=0)
        assert report.error_type is ErrorType.MISSING_ENDPOINT_PATH

    def test_empty_path_without_args_is_not_structural(self, mock_api, judge):
        tool = generate_tool(Endpoint(name="E", method="GET", url=mock_api.base_url), "s")
        report = self.validate(mock_api, judge, tool, {}, requests=1)
        assert mock_api.hits[-1] == ("/", {})
        assert report.error_type is ErrorType.ABNORMAL  # the mock has no route at "/"

    def test_valueless_path_placeholder(self, mock_api, judge):
        tool = generate_tool(Endpoint(name="E", method="GET", url="https://h.example/x/{id}"), "s")
        report = self.validate(mock_api, judge, tool, {}, requests=0)
        assert report.error_type is ErrorType.MISSING_ENDPOINT_PATH

    def test_valueless_required_query(self, mock_api, judge):
        tool = self.base_tool(mock_api.base_url)
        report = self.validate(mock_api, judge, tool, {}, requests=0)
        assert report.error_type is ErrorType.NO_PARAM_VALUE

    def test_transport_error_is_wrong_param_value(self, mock_api, judge):
        # offline mode refuses the non-loopback host: the request never completes
        tool = self.base_tool("https://h.example")
        report = self.validate(mock_api, judge, tool, {"q": "x"}, requests=0)
        assert report.attempts[0].transport_error is not None
        assert report.error_type is ErrorType.WRONG_PARAM_VALUE

    def test_200_split_by_judge(self, mock_api, judge):
        tool = self.base_tool(mock_api.base_url)
        report = self.validate(mock_api, judge, tool, {"q": "x"}, requests=1)
        assert report.error_type is ErrorType.PASSED
        tool = self.base_tool(mock_api.base_url, path="/strict")
        report = self.validate(mock_api, judge, tool, {"q": "x"}, requests=1)
        assert report.attempts[0].status_code == 200
        assert report.error_type is ErrorType.FAILED

    def test_non_200_abnormal(self, mock_api, judge):
        tool = self.base_tool(mock_api.base_url, path="/gone")
        # the 404 is retried once without parameters
        report = self.validate(mock_api, judge, tool, {"q": "x"}, requests=2)
        assert report.error_type is ErrorType.ABNORMAL


class TestValidateTool:
    def test_structural_failure_skips_http(self, mock_api, judge):
        tool = make_tool(mock_api.base_url, required=[Parameter(name="q")])  # no value
        before = len(mock_api.hits)
        report = validate_tool(tool, judge, http=HttpPolicy(offline=True))
        assert report.error_type is ErrorType.NO_PARAM_VALUE
        assert report.attempts == []
        assert len(mock_api.hits) == before

    def test_pass_with_judge_verdict(self, mock_api, judge):
        tool = make_tool(mock_api.base_url,
                         required=[Parameter(name="q", example_value="name:gardevoir")])
        report = validate_tool(tool, judge, http=HttpPolicy(offline=True))
        assert report.passed and report.error_type is ErrorType.PASSED
        assert report.judge_verdict["passed"] is True
        assert report.args_used == {"q": "name:gardevoir"}

    def test_failed_validation_on_error_body(self, mock_api, judge):
        tool = make_tool(mock_api.base_url, path="/strict", name="Strict Search",
                         required=[Parameter(name="term", example_value="draw")])
        report = validate_tool(tool, judge, http=HttpPolicy(offline=True))
        assert report.error_type is ErrorType.FAILED
        assert not report.passed

    def test_default_args_prefers_example(self, mock_api):
        tool = make_tool(mock_api.base_url, optional=[
            Parameter(name="a", example_value="e", default_value="d"),
            Parameter(name="b", default_value="d"),
            Parameter(name="c"),
        ])
        assert default_args(tool) == {"a": "e", "b": "d"}

    def test_run_validation_order_and_counts(self, mock_api, judge):
        tools = [
            make_tool(mock_api.base_url, required=[Parameter(name="q", example_value="x")]),
            make_tool(mock_api.base_url, path="/gone", name="Old Resource"),
        ]
        reports = run_validation(tools, judge, width=2,
                                 http=HttpPolicy(offline=True, limiter=None))
        assert [r.tool_name for r in reports] == ["search_cards", "old_resource"]
        counts = counts_from_reports(reports)
        assert counts[ErrorType.PASSED] == 1
        assert counts[ErrorType.ABNORMAL] == 1
        assert sum(counts.values()) == len(reports)

    def test_run_validation_none_limiter_never_waits(self, mock_api, judge, monkeypatch):
        def refuse(self, host):
            raise AssertionError("limiter=None must not throttle")

        monkeypatch.setattr(HostRateLimiter, "acquire", refuse)
        tools = [make_tool(mock_api.base_url, path="/gone", name=f"Old {i}") for i in range(3)]
        reports = run_validation(tools, judge, width=1,
                                 http=HttpPolicy(offline=True, limiter=None))
        assert [r.error_type for r in reports] == [ErrorType.ABNORMAL] * 3


CAUSE_ROWS = [
    # (MEP, MBU, FV, AR, NPV, WPV) -> ((C1), (C2), (C3), (C4))
    ((0, 4, 9, 23, 14, 10), ((0, 18), (0, 4), (19, 56), (0, 32))),
    ((0, 1, 4, 5, 0, 1), ((0, 1), (0, 1), (5, 10), (0, 9))),
]


class TestCauseEstimation:
    @pytest.mark.parametrize("counts,expected", CAUSE_ROWS)
    def test_reference_rows(self, counts, expected):
        mep, mbu, fv, ar, npv, wpv = counts
        estimate = estimate_causes({
            ErrorType.MISSING_ENDPOINT_PATH: mep,
            ErrorType.MISSING_BASE_URL: mbu,
            ErrorType.FAILED: fv,
            ErrorType.ABNORMAL: ar,
            ErrorType.NO_PARAM_VALUE: npv,
            ErrorType.WRONG_PARAM_VALUE: wpv,
        })
        assert estimate.missing_doc_details == expected[0]
        assert estimate.incorrect_url_path == expected[1]
        assert estimate.incorrect_param_values == expected[2]
        assert estimate.server_side == expected[3]

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCount):
            estimate_causes({ErrorType.FAILED: -1})

    def test_missing_keys_default_to_zero(self):
        estimate = estimate_causes({})
        assert all(r == (0, 0) for r in estimate.ranges().values())

    @settings(max_examples=300)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=6, max_size=6))
    def test_conservative_never_exceeds_aggressive(self, counts):
        mep, mbu, fv, ar, npv, wpv = counts
        estimate = estimate_causes({
            ErrorType.MISSING_ENDPOINT_PATH: mep,
            ErrorType.MISSING_BASE_URL: mbu,
            ErrorType.FAILED: fv,
            ErrorType.ABNORMAL: ar,
            ErrorType.NO_PARAM_VALUE: npv,
            ErrorType.WRONG_PARAM_VALUE: wpv,
        })
        for lo, hi in estimate.ranges().values():
            assert 0 <= lo <= hi

    def test_render_tables(self):
        counts = {t: i for i, t in enumerate(ErrorType)}
        text = render_error_tables(counts, estimate_causes(counts))
        assert "Error Type Counts" in text
        assert f"Passed Validation: {counts[ErrorType.PASSED]}" in text
        for category in CAUSE_CATEGORIES:
            assert category in text

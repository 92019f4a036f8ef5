"""Tool execution harness: build requests, invoke, judge, classify, estimate.

Outcome labels partition every validated tool into exactly one of seven
classes; the cause estimator maps the six failure counts onto conservative/
aggressive ranges over four root-cause categories.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Optional
from urllib.parse import quote, quote_from_bytes, unquote, unquote_to_bytes

from .errors import MissingRequiredParameter, NegativeCount, OfflineViolation, TransportFailed
from .judges import judge_with_fallback
from .model import ErrorType, aligned_rows, loads_finite, render_scalar
from .netutil import HttpPolicy, http_request, run_pool
from .toolgen import ToolDescriptor


# ---------------------------------------------------------------------------
# percent encoding: reserved characters must survive transport

def encode_component(value: str) -> str:
    return quote(value, safe="")


def decode_component(value: str) -> str:
    return unquote(value)


def encode_bytes(value: bytes) -> str:
    return quote_from_bytes(value, safe="")


def decode_to_bytes(value: str) -> bytes:
    return unquote_to_bytes(value)


# ---------------------------------------------------------------------------
# invocation and outcome

@dataclass
class InvocationRecord:
    status_code: Optional[int] = None
    text: str = ""  # at most MAX_BODY_BYTES of the body, decoded
    json_body: Optional[object] = None
    truncated: bool = False  # the body was longer than what `text` holds
    transport_error: Optional[str] = None
    retried_without_params: bool = False

    def to_dict(self) -> dict:
        return {
            "status_code": self.status_code,
            "text": self.text,
            "json": self.json_body,
            "truncated": self.truncated,
            "transport_error": self.transport_error,
            "retried_without_params": self.retried_without_params,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InvocationRecord":
        return cls(
            status_code=d.get("status_code"),
            text=d.get("text", ""),
            json_body=d.get("json"),
            truncated=bool(d.get("truncated")),
            transport_error=d.get("transport_error"),
            retried_without_params=bool(d.get("retried_without_params")),
        )


@dataclass
class ConcreteRequest:
    verb: str
    url: str  # path placeholders substituted; query_base retained
    query: dict  # raw (unencoded) values; encoded at full_url()
    body: Optional[dict]
    headers: dict

    def full_url(self) -> str:
        if not self.query:
            return self.url
        encoded = "&".join(
            f"{encode_component(k)}={encode_component(v)}" for k, v in self.query.items()
        )
        sep = "&" if "?" in self.url else "?"
        return f"{self.url}{sep}{encoded}"


def _parse_headers(headers: list) -> dict:
    out = {}
    for line in headers:
        if ":" in line:
            name, value = line.split(":", 1)
            name, value = name.strip(), value.strip()
            if name:
                out[name] = value
        # unparsable header strings stay on the descriptor verbatim but are
        # not sendable
    return out


def build_request(tool: ToolDescriptor, args: dict) -> ConcreteRequest:
    """Bind arguments into a wire-ready request.

    Path values are percent-encoded during substitution; query values stay
    raw here and are encoded when the full URL is composed.
    """
    for arg in tool.args:
        if arg.required and args.get(arg.name) is None:
            raise MissingRequiredParameter(arg.name)

    # a placeholder left without a value raises UnboundPathParam in render
    url = tool.template.render({
        arg.name: render_scalar(args[arg.name])
        for arg in tool.args
        if arg.location == "path" and args.get(arg.name) is not None
    }, encode=True)

    query_names = {a.name for a in tool.args if a.location == "query"}
    sendable = {
        name: render_scalar(value)
        for name, value in args.items()
        if name in query_names and value is not None
    }
    if tool.method.upper() == "GET":
        query, body = sendable, None
    else:
        # non-GET: parameters travel as a JSON object body
        query, body = {}, {
            name: args[name]
            for name in sendable
        } or None

    return ConcreteRequest(
        verb=tool.method.upper(),
        url=url,
        query=query,
        body=body,
        headers=_parse_headers(tool.headers),
    )


def invoke_tool(
    tool: ToolDescriptor, args: dict, http: HttpPolicy = HttpPolicy()
) -> InvocationRecord:
    """Perform the request; at most two HTTP calls (one param-less retry).

    A non-200 first response triggers one retry without query/body arguments,
    and the retry's response is returned unconditionally.  Transport failures,
    and targets that offline mode refuses, are recorded, never raised.  Both
    calls go through `http_request` under the policy `http`.
    """
    request = build_request(tool, args)
    options = dict(headers=request.headers or None, timeout=tool.timeout_seconds, http=http)
    record = InvocationRecord()
    try:
        response = http_request(request.verb, request.full_url(), json=request.body, **options)
        if response.status_code != 200 and (request.query or request.body):
            # in case the API can't handle redundant params
            response = http_request(request.verb, request.url, **options)
            record.retried_without_params = True
    except (OfflineViolation, TransportFailed) as exc:
        record.transport_error = str(exc)
        return record

    record.status_code = response.status_code
    record.text = response.text
    record.truncated = response.truncated
    try:
        record.json_body = loads_finite(record.text)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        record.json_body = None
    return record


def judge_response(tool_description: str, record: InvocationRecord, judge):
    """pass/fail verdict on a 200 response; remote failures degrade to the
    judge's fallback heuristic with the degradation noted in the rationale."""
    (passed, rationale), failure = judge_with_fallback(
        "judge_response", judge, tool_description, record.text, record.json_body
    )
    if failure is not None:
        rationale = f"heuristic fallback ({failure}): {rationale}"
    return passed, rationale


@dataclass
class ValidationReport:
    tool_name: str
    attempts: list
    error_type: ErrorType
    judge_verdict: Optional[dict] = None
    source_id: str = ""
    args_used: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.error_type is ErrorType.PASSED

    def to_dict(self) -> dict:
        return {
            "tool_name": self.tool_name,
            "attempts": [a.to_dict() for a in self.attempts],
            "error_type": self.error_type.value,
            "judge_verdict": self.judge_verdict,
            "passed": self.passed,
            "source_id": self.source_id,
            "args_used": self.args_used,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ValidationReport":
        return cls(
            tool_name=d["tool_name"],
            attempts=[InvocationRecord.from_dict(a) for a in d.get("attempts", [])],
            error_type=ErrorType(d["error_type"]),
            judge_verdict=d.get("judge_verdict"),
            source_id=d.get("source_id", ""),
            args_used=d.get("args_used", {}),
        )


def _structural_label(tool: ToolDescriptor, args: dict) -> Optional[ErrorType]:
    """The first structural rule `tool` breaks with `args`, in rule order; a
    structural failure makes an HTTP attempt pointless."""
    if tool.template.base is None:
        return ErrorType.MISSING_BASE_URL
    if (tool.args and tool.template.path == "/") or any(
            a.location == "path" and args.get(a.name) is None for a in tool.args):
        return ErrorType.MISSING_ENDPOINT_PATH  # no path, or a placeholder left unresolved
    if any(a.required and args.get(a.name) is None for a in tool.args):
        return ErrorType.NO_PARAM_VALUE
    return None


def default_args(tool: ToolDescriptor) -> dict:
    return {a.name: a.preferred_value for a in tool.args if a.has_value}


def validate_tool(
    tool: ToolDescriptor,
    judge,
    args: Optional[dict] = None,
    http: HttpPolicy = HttpPolicy(),
) -> ValidationReport:
    """build → invoke → judge → classify for one tool; a structural failure
    found by `_structural_label` sends no request."""
    bound = default_args(tool) if args is None else dict(args)
    outcome = _structural_label(tool, bound)
    attempts, verdict = [], None
    if outcome is None:
        record = invoke_tool(tool, bound, http=http)
        attempts.append(record)
        if record.transport_error is not None:
            # required values were all present; the request itself failed
            outcome = ErrorType.WRONG_PARAM_VALUE
        elif record.status_code != 200:
            outcome = ErrorType.ABNORMAL
        else:
            passed, rationale = judge_response(tool.description, record, judge)
            verdict = {"passed": passed, "rationale": rationale}
            outcome = ErrorType.PASSED if passed else ErrorType.FAILED
    return ValidationReport(
        tool_name=tool.tool_name,
        attempts=attempts,
        error_type=outcome,
        judge_verdict=verdict,
        source_id=tool.source_id,
        args_used=bound,
    )


def run_validation(
    tools: list,
    judge,
    width: int = 4,
    http: HttpPolicy = HttpPolicy(),
) -> list:
    """Validate every tool on a pool of `width` workers, reports in tool
    order.  A policy without a limiter means no politeness limit."""
    return list(run_pool(lambda t: validate_tool(t, judge, http=http), tools, width))


# ---------------------------------------------------------------------------
# cause estimation

# Each cause category in order, with the labels its conservative bound counts
# and the labels its aggressive bound adds to those.
_CAUSES = (
    ("Missing API Documentation Details",
     (), (ErrorType.MISSING_BASE_URL, ErrorType.NO_PARAM_VALUE)),
    ("Incorrectly Extracted URL Path",
     (ErrorType.MISSING_ENDPOINT_PATH,), (ErrorType.MISSING_BASE_URL,)),
    ("Incorrect Parameter Values",
     (ErrorType.WRONG_PARAM_VALUE, ErrorType.FAILED), (ErrorType.NO_PARAM_VALUE, ErrorType.ABNORMAL)),
    ("Server-Side Errors",
     (), (ErrorType.FAILED, ErrorType.ABNORMAL)),
)
CAUSE_CATEGORIES = tuple(name for name, _, _ in _CAUSES)


@dataclass
class CauseEstimate:
    """(conservative, aggressive) integer range per cause category, one field
    per `_CAUSES` row in its order."""

    missing_doc_details: tuple
    incorrect_url_path: tuple
    incorrect_param_values: tuple
    server_side: tuple

    def ranges(self) -> dict:
        return dict(zip(CAUSE_CATEGORIES, astuple(self)))

    def to_dict(self) -> dict:
        return {name: {"conservative": lo, "aggressive": hi}
                for name, (lo, hi) in self.ranges().items()}


def estimate_causes(counts: dict) -> CauseEstimate:
    """Each category's range from the label counts, by the `_CAUSES` table."""
    by_type = {t: int(counts.get(t, 0)) for t in ErrorType}
    for error_type, count in by_type.items():
        if count < 0:
            raise NegativeCount(f"{error_type.value}: {count}")
    return CauseEstimate(*(
        (sum(by_type[t] for t in conservative), sum(by_type[t] for t in conservative + aggressive))
        for _, conservative, aggressive in _CAUSES
    ))


def counts_from_reports(reports: list) -> dict:
    counts = {t: 0 for t in ErrorType}
    for report in reports:
        counts[report.error_type] += 1
    return counts


def render_error_tables(counts: dict, estimate: CauseEstimate) -> str:
    """Two aligned text tables: per-type counts, then cause ranges."""
    failures = [t for t in ErrorType if t is not ErrorType.PASSED]
    ranges = estimate.ranges()
    return "\n".join([
        "Error Type Counts",
        *aligned_rows([t.value for t in failures], [str(counts.get(t, 0)) for t in failures]),
        f"Passed Validation: {counts.get(ErrorType.PASSED, 0)}",
        "",
        "Error Cause Estimation (conservative-aggressive)",
        *aligned_rows(list(ranges), [f"{lo}-{hi}" for lo, hi in ranges.values()]),
    ])

"""Spans around apimill's public functions, and the per-layer metrics they give.

`install` wraps each function at the name its caller looks up (for example
``apimill.cli.run_validation`` for the validate stage, but
``apimill.validate.invoke_tool`` for validate_tool's own call), so the
program itself is not edited.  Each call records a span: name, operation id
(``source_id`` or ``source_id/tool_name``), start, end, the span that was open
on the same thread when it started, an error class if it raised, and a small
detail value.  Spans are kept in memory and written out once, at the end.

`layer_metrics` turns the spans of one traced run into the per-layer metrics.
A span's self time is its duration minus the part covered by its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

STAGES = ("ingest", "extract", "evaluate", "generate", "validate", "infer", "report")


class Recorder:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, op_of=None, detail_of=None):
        """fn wrapped to record one span per call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent, parent_op = stack[-1] if stack else (None, None)
            op = op_of(*args, **kwargs) if op_of else parent_op
            span_id = next(recorder._ids)
            stack.append((span_id, op))
            error = result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                detail = None
                if detail_of is not None and error is None:
                    detail = detail_of(result, *args, **kwargs)
                recorder.spans.append((span_id, parent, name, op, start, end, error, detail))

        return traced

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "op", "start", "end", "error", "detail")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _tool_op(tool, *args, **kwargs):
    return f"{tool.source_id}/{tool.tool_name}"


def _patch(recorder, owner, attr, name, op_of=None, detail_of=None):
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), op_of, detail_of))


class _SleepProxy:
    """Stands in for the `time` module inside apimill.netutil, so the rate
    limiter's sleeps, and only those, become spans."""

    def __init__(self, sleep):
        self.sleep = sleep

    def __getattr__(self, attr):
        return getattr(time, attr)


def install() -> Recorder:
    """Wrap apimill's public functions; return the recorder that collects."""
    from apimill import cli, evaluate, extract, inference, ingest, netutil, validate
    from apimill.embedding import LexicalEmbedding
    from apimill.judges import HeuristicJudge

    rec = Recorder()
    for stage in STAGES:
        _patch(rec, cli, f"stage_{stage}", f"stage.{stage}")
    # calls the stage functions make into other modules
    for attr, module in (
        ("ingest_corpus", "ingest"), ("load_corpus_manifest", "ingest"),
        ("run_extraction", "extract"), ("compute_metrics", "evaluate"),
        ("validate_spec", "model"), ("generate_tools_for_spec", "toolgen"),
        ("export_function_source", "toolgen"), ("export_openapi", "toolgen"),
        ("group_tools_by_host", "toolgen"), ("sanitize_tool_name", "toolgen"),
        ("run_validation", "validate"), ("counts_from_reports", "validate"),
        ("estimate_causes", "validate"), ("render_error_tables", "validate"),
        ("build_kb", "inference"), ("infer_parameters", "inference"),
    ):
        op_of = _tool_op if attr == "infer_parameters" else None
        detail_of = None
        if attr == "generate_tools_for_spec":
            detail_of = lambda result, *a, **k: len(result[0])  # noqa: E731
        elif attr == "build_kb":
            detail_of = lambda result, *a, **k: len(result)  # noqa: E731
        _patch(rec, cli, attr, f"{module}.{attr}", op_of, detail_of)

    _patch(rec, ingest, "load_and_clean", "ingest.load_and_clean",
           op_of=lambda origin, source_id=None, **k: source_id)
    _patch(rec, ingest, "dehtml", "ingest.dehtml",
           detail_of=lambda result, markup: len(markup.encode("utf-8")))
    for method in ("is_api_page", "classify_doc", "judge_response"):
        _patch(rec, HeuristicJudge, method, f"judges.{method}")
    _patch(rec, extract, "extract_spec", "extract.extract_spec",
           op_of=lambda doc, backend: doc.source_id,
           detail_of=lambda result, *a, **k: bool(result.valid))
    _patch(rec, extract, "validate_spec", "model.validate_spec")
    _patch(rec, evaluate, "match_endpoints", "evaluate.match_endpoints")
    _patch(rec, LexicalEmbedding, "embed_one", "embedding.embed_one",
           detail_of=lambda result, self, text: text)
    _patch(rec, validate, "validate_tool", "validate.validate_tool", op_of=_tool_op,
           detail_of=lambda report, *a, **k: bool(report.passed))
    _patch(rec, inference, "validate_tool", "inference.validate_tool", op_of=_tool_op,
           detail_of=lambda report, *a, **k: bool(report.passed))
    _patch(rec, validate, "invoke_tool", "validate.invoke_tool", op_of=_tool_op,
           detail_of=lambda record, *a, **k: [record.retried_without_params,
                                              record.transport_error is not None])
    _patch(rec, inference, "retrieve_candidates", "inference.retrieve_candidates")
    _patch(rec, inference, "rank_combinations", "inference.rank_combinations")
    netutil.time = _SleepProxy(rec.wrap("netutil.limiter_sleep", time.sleep))
    return rec


# -- aggregation ------------------------------------------------------------------

def load(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _pct(values: list, q: int) -> float:
    """q-th percentile in ms of durations in s; 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def layer_metrics(spans: list, http_requests: int) -> dict:
    """Per-layer metrics of one traced run; `http_requests` is the mock
    server's own count of requests received during the run."""
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def calls(name):
        return len(by_name.get(name, []))

    def total(*names):
        return sum(dur(s) for n in names for s in by_name.get(n, []))

    out: dict = {}
    for stage in STAGES:
        spans_ = by_name.get(f"stage.{stage}", [])
        out[f"stage.{stage}.s"] = sum(dur(s) for s in spans_)
        out[f"stage.{stage}.self_s"] = sum(
            dur(s) - _covered([(c["start"], c["end"]) for c in children.get(s["id"], [])])
            for s in spans_
        )

    dehtml_s = total("ingest.dehtml")
    dehtml_mb = sum(s["detail"] or 0 for s in by_name.get("ingest.dehtml", [])) / 1e6
    out["ingest.load_and_clean.calls"] = calls("ingest.load_and_clean")
    out["ingest.dehtml.s"] = dehtml_s
    out["ingest.dehtml.mb_per_s"] = dehtml_mb / dehtml_s if dehtml_s else 0.0
    out["ingest.failures"] = sum(1 for s in by_name.get("ingest.load_and_clean", []) if s["error"])

    judge_names = ("judges.is_api_page", "judges.classify_doc", "judges.judge_response")
    out["judges.calls"] = sum(calls(n) for n in judge_names)
    out["judges.s"] = total(*judge_names)

    out["extract.extract_spec.calls"] = calls("extract.extract_spec")
    out["extract.extract_spec.s"] = total("extract.extract_spec")
    out["extract.invalid"] = sum(1 for s in by_name.get("extract.extract_spec", [])
                                 if s["detail"] is False)
    out["model.validate_spec.s"] = total("model.validate_spec")

    out["evaluate.compute_metrics.s"] = total("evaluate.compute_metrics")
    out["evaluate.match_endpoints.calls"] = calls("evaluate.match_endpoints")

    texts = [s["detail"] for s in by_name.get("embedding.embed_one", [])]
    out["embedding.texts"] = len(texts)
    out["embedding.s"] = total("embedding.embed_one")
    out["embedding.repeat_share"] = (len(texts) - len(set(texts))) / len(texts) if texts else 0.0

    out["toolgen.tools"] = sum(s["detail"] or 0
                               for s in by_name.get("toolgen.generate_tools_for_spec", []))
    for fn in ("generate_tools_for_spec", "export_function_source", "export_openapi"):
        out[f"toolgen.{fn}.s"] = total(f"toolgen.{fn}")

    validations = by_name.get("validate.validate_tool", []) + by_name.get("inference.validate_tool", [])
    durations = sorted(dur(s) for s in validations)
    invokes = by_name.get("validate.invoke_tool", [])
    out["validate.validate_tool.calls"] = len(validations)
    out["validate.validate_tool.ms.p50"] = _pct(durations, 50)
    out["validate.validate_tool.ms.p99"] = _pct(durations, 99)
    out["validate.invoke_tool.s"] = total("validate.invoke_tool")
    out["validate.http_requests"] = http_requests
    out["validate.retries"] = sum(1 for s in invokes if s["detail"] and s["detail"][0])
    out["validate.transport_errors"] = sum(1 for s in invokes if s["detail"] and s["detail"][1])

    out["netutil.limiter_wait_s"] = total("netutil.limiter_sleep")

    retrievals = sorted(dur(s) for s in by_name.get("inference.retrieve_candidates", []))
    attempts = by_name.get("inference.validate_tool", [])
    out["inference.build_kb.s"] = total("inference.build_kb")
    out["inference.kb_entries"] = sum(s["detail"] or 0 for s in by_name.get("inference.build_kb", []))
    out["inference.retrieve_candidates.calls"] = len(retrievals)
    out["inference.retrieve_candidates.ms.p50"] = _pct(retrievals, 50)
    out["inference.retrieve_candidates.ms.p99"] = _pct(retrievals, 99)
    out["inference.rank_combinations.s"] = total("inference.rank_combinations")
    out["inference.attempts"] = len(attempts)
    out["inference.useful_share"] = (
        sum(1 for s in attempts if s["detail"]) / len(attempts) if attempts else 0.0
    )
    return out


def http_accounted(spans: list) -> int:
    """Requests the traced run says it sent: one per invoke, one per retry."""
    invokes = [s for s in spans if s["name"] == "validate.invoke_tool"]
    return len(invokes) + sum(1 for s in invokes if s["detail"] and s["detail"][0])

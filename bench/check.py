"""Check one pipeline run's artifacts against the corpus oracle.

An operation fails when it does not finish with its expected outcome: its
tool is lost (never persisted, or overwritten by another source's tool of
the same name), mislabelled (wrong content or validation label), or
recovered differently from the oracle.  Problems are different: a missing
artifact, or HTTP traffic the artifacts do not account for, makes the whole
run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from corpus import Corpus, route_accepts

# artifacts each workload's command must leave behind
REQUIRED = {
    "docs": ("docs/index.json", "specs/results.jsonl", "metrics/metrics.json",
             "tools/unbuildable.jsonl"),
    "run": ("docs/index.json", "specs/results.jsonl", "metrics/metrics.json",
            "validation/reports.jsonl", "validation/summary.json", "kb/kb.jsonl",
            "kb/inference.jsonl", "reports/report.txt"),
    "recover": ("validation/reports.jsonl", "kb/kb.jsonl", "kb/inference.jsonl"),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: list = field(default_factory=list)  # (source_id, path, reason)
    problems: list = field(default_factory=list)
    requests: int = 0  # HTTP requests the artifacts account for


def _jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _value(arg: dict):
    return arg["example_value"] if arg["example_value"] is not None else arg["default_value"]


def check(workload: str, corpus: Corpus, out: Path) -> Outcome:
    result = Outcome()
    missing = [name for name in REQUIRED[workload] if not (out / name).exists()]
    if missing:
        result.problems.append(f"missing artifacts: {missing}")
        return result

    tools = {}
    for path in (out / "tools").glob("*.tool.json"):
        tool = json.loads(path.read_text(encoding="utf-8"))
        tools[(tool["source_id"], urlsplit(tool["url_template"]).path)] = tool
    reports, recoveries = {}, {}
    if workload != "docs":
        reports = {r["tool_name"]: r for r in _jsonl(out / "validation" / "reports.jsonl")}
        recoveries = {r["tool_name"]: r for r in _jsonl(out / "kb" / "inference.jsonl")}
        result.requests = sum(r["attempts"] for r in recoveries.values())
    if workload == "run":
        result.requests += sum(
            len(r["attempts"]) + sum(1 for a in r["attempts"] if a["retried_without_params"])
            for r in reports.values()
        )

    ops = corpus.targets if workload == "recover" else corpus.ops
    result.attempted = len(ops)
    for op in ops:
        reason = _judge(workload, op, tools.get((op.source_id, op.path)), out,
                        reports, recoveries)
        if reason:
            result.failed.append((op.source_id, op.path, reason))
    return result


def _judge(workload, op, tool, out, reports, recoveries):
    """Why `op` did not finish as expected, or None when it did."""
    if tool is None:
        return "lost"
    if tool["method"] != op.method:
        return "mislabelled: method"
    if workload == "docs":
        if not (out / "exports" / f"{tool['tool_name']}.py").exists():
            return "lost: no export"
        assignment = {}
    else:
        report = reports.get(tool["tool_name"])
        if report is None or report["source_id"] != op.source_id:
            return "lost: not validated"
        if report["error_type"] != op.label:
            return f"mislabelled: {report['error_type']}"
        assignment = {}
        if op.target:
            recovery = recoveries.get(tool["tool_name"])
            if recovery is None:
                return "lost: not a recovery target"
            if bool(recovery["success"]) != op.recoverable:
                return "recovered differently: success" if recovery["success"] else "not recovered"
            if recovery["success"]:
                assignment = recovery["assignment"] or {}
                documented = {n: v for n, _, v in op.args if v is not None}
                if not route_accepts(op.path, {**documented, **assignment}):
                    return "recovered differently: value"
    expected = [(n, r, v if v is not None else assignment.get(n)) for n, r, v in op.args]
    if [(a["name"], a["required"], _value(a)) for a in tool["args"]] != expected:
        return "mislabelled: arguments"
    return None

"""Pipeline orchestration: project config, staged runs, reports.

Every stage reads its predecessor's persisted artifacts and writes only
under output_dir, so stages are idempotent and individually rerunnable:

  docs/        cleaned pages + classification index
  specs/       extraction results, each valid one with its spec
  metrics/     extraction quality scores
  tools/       tool descriptors (+ endpoints that could not be built)
  exports/     function source and OpenAPI documents
  validation/  per-tool reports, counts, cause estimation
  kb/          knowledge-base entries, one vector per text, inference outcomes
  reports/     rolled-up human-readable report
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Optional

import yaml

from .embedding import LexicalEmbedding, RemoteEmbedding
from .errors import ApimillError, ConfigInvalid, EmptyCorpus, MissingStageInput
from .evaluate import compute_metrics
from .extract import (
    ExtractionResult,
    HeuristicBackend,
    RemoteChatBackend,
    RemoteStructuredBackend,
    ReplayBackend,
    run_extraction,
)
from .inference import InferenceOutcome, ParameterKbEntry, build_kb, infer_parameters
from .ingest import ApiDocument, ingest_corpus, load_corpus_manifest
from .judges import DEFAULT_ERROR_PHRASES, HeuristicJudge, RemoteJudge
from .model import ErrorType, escape_lone_surrogates, validate_spec
from .netutil import HostRateLimiter, HttpPolicy
from .remote import ChatClient, RemoteConfig
from .toolgen import (
    ToolDescriptor,
    export_function_source,
    export_openapi,
    generate_tools_for_spec,
    group_tools_by_host,
    sanitize_tool_name,
    unique_name,
)
from .validate import (
    ValidationReport,
    counts_from_reports,
    estimate_causes,
    render_error_tables,
    run_validation,
)

ALL_STAGES = ("ingest", "extract", "evaluate", "generate", "validate", "infer", "report")


@dataclass
class ProjectConfig:
    corpus_manifest: Path
    output_dir: Path
    truth_dir: Optional[Path] = None
    tls_verify: bool = True
    offline: bool = False
    rate_limit_per_host: float = 1.0
    concurrency: int = 4
    error_phrases: list = field(default_factory=list)
    backends: dict = field(default_factory=dict)  # section -> its checked settings

    @cached_property
    def http(self) -> HttpPolicy:
        """The policy of every request a run sends: pages, model and
        embedding calls, and tool invocations.  It holds the run's one
        per-host limiter, and it is built on first use, after `main` has
        applied `--offline`."""
        return HttpPolicy(
            offline=self.offline,
            tls_verify=self.tls_verify,
            limiter=HostRateLimiter(self.rate_limit_per_host),
        )

    def subdir(self, name: str) -> Path:
        path = self.output_dir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


# each section's backend kinds, its default first
BACKEND_KINDS = {
    "extraction": ("heuristic", "replay", "remote_chat", "remote_structured"),
    "judge": ("heuristic", "remote"),
    "embedding": ("lexical", "remote"),
}


def load_config(path, extraction_kind: Optional[str] = None) -> ProjectConfig:
    """The checked config at `path`, every setting of each backend section's
    active kind included, so a bad one stops a command before any stage runs.
    `extraction_kind`, when given, stands in for backends.extraction.kind."""
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config is not valid YAML/JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a mapping")

    for required in ("corpus_manifest", "output_dir"):
        if required not in raw:
            raise ConfigInvalid(f"config is missing {required!r}")

    def resolve(key: str, value) -> Path:
        if not isinstance(value, str):
            raise ConfigInvalid(f"{key} must be a path, got {value!r}")
        p = Path(value)
        return p if p.is_absolute() else (path.parent / p)

    manifest = resolve("corpus_manifest", raw["corpus_manifest"])
    if not manifest.exists():
        raise ConfigInvalid(f"corpus_manifest does not exist: {manifest}")
    truth_dir = resolve("truth_dir", raw["truth_dir"]) if raw.get("truth_dir") else None
    if truth_dir is not None and not truth_dir.exists():
        raise ConfigInvalid(f"truth_dir does not exist: {truth_dir}")

    for key in ("tls_verify", "offline"):
        if not isinstance(raw.get(key, False), bool):
            raise ConfigInvalid(f"{key} must be true or false, got {raw[key]!r}")
    # a YAML true/false loads as a bool, which Python counts as an int
    rate = raw.get("rate_limit_per_host", 1.0)
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not rate >= 0:
        raise ConfigInvalid(f"rate_limit_per_host must be a number of at least 0, got {rate!r}")
    concurrency = raw.get("concurrency", 4)
    if not _is_count(concurrency):
        raise ConfigInvalid(f"concurrency must be an integer of at least 1, got {concurrency!r}")
    error_phrases = raw.get("error_phrases", [])
    if not isinstance(error_phrases, list) or not all(isinstance(p, str) for p in error_phrases):
        raise ConfigInvalid(f"error_phrases must be a list of strings, got {error_phrases!r}")

    sections = raw.get("backends") or {}
    if not isinstance(sections, dict):
        raise ConfigInvalid("backends must be a mapping")
    backends = {}
    for name, kinds in BACKEND_KINDS.items():
        entry = {} if sections.get(name) is None else sections[name]
        if not isinstance(entry, dict):
            raise ConfigInvalid(f"backends.{name} must be a mapping, got {entry!r}")
        if name == "extraction" and extraction_kind is not None:
            entry = {**entry, "kind": extraction_kind}
        kind = kinds[0] if entry.get("kind") is None else entry["kind"]
        if kind not in kinds:
            raise ConfigInvalid(f"backends.{name}.kind must be one of {sorted(kinds)}, got {kind!r}")
        backends[name] = _backend_settings(name, kind, entry, resolve)

    return ProjectConfig(
        corpus_manifest=manifest,
        output_dir=resolve("output_dir", raw["output_dir"]),
        truth_dir=truth_dir,
        tls_verify=raw.get("tls_verify", True),
        offline=raw.get("offline", False),
        rate_limit_per_host=float(rate),
        concurrency=concurrency,
        error_phrases=error_phrases,
        backends=backends,
    )


def _is_count(value) -> bool:
    """An int of at least 1, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _backend_settings(name: str, kind: str, entry: dict, resolve) -> dict:
    """The checked settings of the backend `kind` from `entry`, the config's
    backends.<name> section; keys that kind does not use are ignored."""
    section = f"backends.{name}"
    settings: dict = {"kind": kind}
    if kind.startswith("remote"):
        keys = ("endpoint_url", "model_name", "api_key_env")  # the last one optional
        for key in keys:
            value = entry.get(key)
            if not (isinstance(value, str) and value or value is None and key == "api_key_env"):
                raise ConfigInvalid(f"{section}.{key} must be a non-empty string, got {value!r}")
        settings["remote"] = RemoteConfig(*(entry.get(key) for key in keys))
    if kind == "replay":
        store = resolve(f"{section}.replay_store", entry.get("replay_store"))
        if not store.is_dir():
            raise ConfigInvalid(f"{section}.replay_store is not a directory: {store}")
        settings["replay_store"] = store
    if kind in ("remote_chat", "remote_structured"):
        one_shot = entry.get("one_shot")
        if one_shot is not None:
            if not isinstance(one_shot, dict):
                raise ConfigInvalid(f"{section}.one_shot must map document and spec, "
                                    f"got {one_shot!r}")
            texts = []
            for part in ("document", "spec"):
                key = f"{section}.one_shot.{part}"
                try:
                    texts.append(resolve(key, one_shot.get(part)).read_text(encoding="utf-8"))
                except (OSError, UnicodeDecodeError) as exc:
                    raise ConfigInvalid(f"{key} cannot be read: {exc}") from exc
            one_shot = tuple(texts)
        settings["one_shot"] = one_shot
    if name == "embedding":
        dimension = entry.get("dimension")
        if dimension is None and kind == "lexical":
            dimension = 256
        if dimension is not None and not _is_count(dimension):
            raise ConfigInvalid(f"{section}.dimension must be an integer of at least 1, "
                                f"got {dimension!r}")
        settings["dimension"] = dimension
    return settings


# ---------------------------------------------------------------------------
# backend factories: load_config has checked every setting they read

def make_extraction_backend(config: ProjectConfig):
    settings = config.backends["extraction"]
    kind = settings["kind"]
    if kind == "heuristic":
        return HeuristicBackend()
    if kind == "replay":
        return ReplayBackend(settings["replay_store"])
    cls = RemoteChatBackend if kind == "remote_chat" else RemoteStructuredBackend
    return cls(ChatClient(settings["remote"], http=config.http), settings["one_shot"])


def make_judge(config: ProjectConfig):
    settings = config.backends["judge"]
    heuristic = HeuristicJudge(error_phrases=(*DEFAULT_ERROR_PHRASES, *config.error_phrases))
    if settings["kind"] == "heuristic":
        return heuristic
    return RemoteJudge(ChatClient(settings["remote"], http=config.http), fallback=heuristic)


def make_embedding(config: ProjectConfig):
    settings = config.backends["embedding"]
    if settings["kind"] == "lexical":
        return LexicalEmbedding(dimension=settings["dimension"])
    return RemoteEmbedding(settings["remote"], dimension=settings["dimension"], http=config.http)


# ---------------------------------------------------------------------------
# stages

@contextmanager
def _commit(path: Path):
    """A text file to write `path` through: it is written as `<name>.partial`
    and moved into place only when the block ends, so a stage that raises or
    is killed leaves the previous file, never a short one."""
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write(path: Path, text: str) -> None:
    with _commit(path) as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, indent=2) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    """One JSON line per row; a lone surrogate, which a JSON reply may
    carry, is written as its escape, the same character to a reader."""
    with _commit(path) as fh:
        for row in rows:
            fh.write(escape_lone_surrogates(json.dumps(row, ensure_ascii=False)) + "\n")


def _input(config: ProjectConfig, stage: str, name: str, producer: str) -> Path:
    """The artifact `name` under output_dir, which stage `producer` writes."""
    path = config.output_dir / name
    if not path.exists():
        raise MissingStageInput(stage, f"run {producer} first ({name} missing)")
    return path


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stage_ingest(config: ProjectConfig, judge) -> None:
    entries = load_corpus_manifest(config.corpus_manifest)
    manifest_dir = config.corpus_manifest.parent
    for entry in entries:
        origin = entry["origin"]
        if not origin.startswith(("http://", "https://")) and not Path(origin).is_absolute():
            entry["origin"] = str(manifest_dir / origin)

    docs_dir = config.subdir("docs")

    def keep(doc: ApiDocument) -> None:
        # a fetched page is kept as fetched; a file origin is already on disk
        row = {"source_id": doc.source_id, "text": doc.text}
        if doc.raw:
            row["raw"] = doc.raw
        pages.write(json.dumps(row, ensure_ascii=False) + "\n")

    with _commit(docs_dir / "pages.jsonl") as pages:
        decisions, failures = ingest_corpus(
            entries, judge, keep, width=config.concurrency, http=config.http
        )
    _write_json(docs_dir / "index.json", {"documents": decisions, "failures": failures})
    print(f"ingest: {len(decisions)} documents cleaned, {len(failures)} failed")


def stage_extract(config: ProjectConfig, backend) -> None:
    index_path = _input(config, "extract", "docs/index.json", "ingest")
    pages_path = _input(config, "extract", "docs/pages.jsonl", "ingest")
    index = json.loads(index_path.read_text(encoding="utf-8"))
    source_ids = [info["source_id"] for info in index["documents"]
                  if info.get("is_api_page", True)]
    skipped = len(index["documents"]) - len(source_ids)

    def api_pages():
        # pages.jsonl is in index order; a page it lacks stops the stage
        # before results.jsonl is replaced, so no source is skipped silently
        wanted = set(source_ids)
        with open(pages_path, encoding="utf-8") as fh:
            for line in fh:
                page = json.loads(line)
                if page["source_id"] in wanted:
                    wanted.discard(page["source_id"])
                    yield page["source_id"], page["text"]
        if wanted:
            raise MissingStageInput("extract", f"docs/pages.jsonl lacks API pages {sorted(wanted)}")

    def keep(result: ExtractionResult) -> None:
        results.write(json.dumps(result.to_dict(), ensure_ascii=False) + "\n")

    with _commit(config.subdir("specs") / "results.jsonl") as results:
        valid = run_extraction(api_pages(), backend, keep, width=config.concurrency)
    print(
        f"extract: {valid}/{len(source_ids)} valid specs"
        + (f" ({skipped} non-API pages skipped)" if skipped else "")
    )


def _load_extraction_results(config: ProjectConfig, stage: str) -> list:
    results_path = _input(config, stage, "specs/results.jsonl", "extract")
    return [ExtractionResult.from_dict(row) for row in _read_jsonl(results_path)]


def stage_evaluate(config: ProjectConfig, emb) -> None:
    if config.truth_dir is None:
        raise ConfigInvalid("evaluate needs truth_dir in the config")
    results = _load_extraction_results(config, "evaluate")
    truth = {}
    for path in sorted(config.truth_dir.glob("*.json")):
        try:
            candidate = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigInvalid(f"truth spec {path.name} is not JSON: {exc}") from exc
        spec, violations = validate_spec(candidate)
        if spec is None:
            shown = "; ".join(str(v) for v in violations[:3])
            raise ConfigInvalid(f"truth spec {path.name} is invalid: {shown}")
        truth[path.stem] = spec

    try:
        report = compute_metrics(results, truth, emb)
    except EmptyCorpus:
        raise MissingStageInput("evaluate", "no extraction results to score") from None
    metrics_dir = config.subdir("metrics")
    _write_json(metrics_dir / "metrics.json", report.to_dict())
    _write(metrics_dir / "metrics.txt", report.to_text_table() + "\n")
    print(f"evaluate: matched {report.matched_endpoints} endpoints; "
          f"valid ratio {report.valid_ratio:.2f}")


def _export(config: ProjectConfig, tools: list, changed: list) -> None:
    """The descriptor and exported function of each changed tool, and the
    OpenAPI file of each host a changed tool is on, with that host's tools
    in tool-name order, the order `_load_tools` returns."""
    tools_dir, exports_dir = config.subdir("tools"), config.subdir("exports")

    def write_exports() -> None:
        for tool in changed:
            (exports_dir / f"{tool.tool_name}.py").write_text(
                export_function_source(tool, tls_verify=config.tls_verify), encoding="utf-8"
            )

    # one file per tool, written in place: a rename each would double the file
    # operations.  Creating a file locks its directory, so one helper thread
    # fills exports/ while this one fills tools/.
    with ThreadPoolExecutor(max_workers=1) as helper:
        exported = helper.submit(write_exports)
        for tool in changed:
            (tools_dir / f"{tool.tool_name}.tool.json").write_text(
                json.dumps(tool.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
            )
        exported.result()
    names = {tool.tool_name for tool in changed}
    for host, group in group_tools_by_host(tools).items():
        if any(tool.tool_name in names for tool in group):
            group.sort(key=lambda tool: tool.tool_name)
            _write(exports_dir / _openapi_name(host), export_openapi(group))


def _openapi_name(host: str) -> str:
    """`<host>.openapi.yaml`, `:` written `_`, where that is a file name.  A
    host that holds a NUL, or that would pass the 255 bytes most file systems
    allow a name (with `_commit`'s suffix), is cut to a safe form followed by
    a digest of the host, so two hosts never share a file."""
    name = f"{host.replace(':', '_')}.openapi.yaml"
    if "\0" in name or len(f"{name}.partial".encode()) > 255:
        import hashlib  # here, so that only such a host pays for its import
        digest = hashlib.sha256(host.encode()).hexdigest()[:16]
        name = f"{re.sub(r'[^A-Za-z0-9.-]', '_', host)[:64]}-{digest}.openapi.yaml"
    return name


def stage_generate(config: ProjectConfig) -> None:
    results = _load_extraction_results(config, "generate")

    all_tools: list = []
    unbuilt: list = []  # (source_id, endpoint, error_type)
    used_names: set = set()  # tool and export files are keyed by tool name
    for result in results:
        if not result.valid:
            continue
        tools, pairs = generate_tools_for_spec(result.spec, result.source_id, used_names)
        all_tools.extend(tools)
        unbuilt.extend((result.source_id, endpoint, error_type) for endpoint, error_type in pairs)
    # named once every tool has its name, so a row never takes a built tool's
    unbuildable = [
        {
            "source_id": source_id,
            "endpoint_name": endpoint.name,
            "tool_name": unique_name(sanitize_tool_name(endpoint.name), used_names),
            "error_type": error_type.value,
            "url": endpoint.url,
        }
        for source_id, endpoint, error_type in unbuilt
    ]

    _export(config, all_tools, all_tools)
    _write_jsonl(config.subdir("tools") / "unbuildable.jsonl", unbuildable)
    print(f"generate: {len(all_tools)} tools, {len(unbuildable)} unbuildable endpoints")


def _load_tools(config: ProjectConfig, stage: str) -> list:
    tools_dir = _input(config, stage, "tools/", "generate")
    return [ToolDescriptor.from_dict(json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(tools_dir.glob("*.tool.json"))]


def stage_validate(config: ProjectConfig, judge) -> None:
    tools = _load_tools(config, "validate")
    reports = run_validation(tools, judge, width=config.concurrency, http=config.http)
    validation_dir = config.subdir("validation")
    _write_jsonl(validation_dir / "reports.jsonl", (r.to_dict() for r in reports))

    unbuildable_path = config.output_dir / "tools" / "unbuildable.jsonl"
    unbuildable = _read_jsonl(unbuildable_path) if unbuildable_path.exists() else []
    counts = counts_from_reports(reports)
    for row in unbuildable:
        counts[ErrorType(row["error_type"])] += 1
    estimate = estimate_causes(counts)
    summary = {
        "validated_tools": len(reports),
        "unbuildable_endpoints": len(unbuildable),
        "passed": counts[ErrorType.PASSED],
        "counts": {t.value: counts[t] for t in ErrorType},
        "causes": estimate.to_dict(),
    }
    _write_json(validation_dir / "summary.json", summary)
    tables = render_error_tables(counts, estimate)
    _write(config.subdir("reports") / "error_tables.txt", tables + "\n")
    print(f"validate: {counts[ErrorType.PASSED]}/{len(reports)} tools passed")


def _write_kb(kb_dir: Path, kb) -> None:
    """`kb.jsonl`, each entry's fields, and `vectors.jsonl`, one row per text
    the entries name, so a vector that many entries share is written once.
    A row is built by getattr: vars() would leave each entry a dict to keep."""
    names = [f.name for f in fields(ParameterKbEntry)]
    _write_jsonl(kb_dir / "kb.jsonl", ({n: getattr(e, n) for n in names} for e in kb.entries))
    _write_jsonl(kb_dir / "vectors.jsonl",
                 ({"text": text, "vector": vector.tolist()} for text, vector in kb.vectors()))


def stage_infer(config: ProjectConfig, judge, emb) -> None:
    tools = _load_tools(config, "infer")
    reports_path = _input(config, "infer", "validation/reports.jsonl", "validate")
    reports = [ValidationReport.from_dict(row) for row in _read_jsonl(reports_path)]
    by_name = {t.tool_name: t for t in tools}

    kb = build_kb(reports, tools, emb)
    kb_dir = config.subdir("kb")
    _write_kb(kb_dir, kb)
    entries = len(kb)  # the rows written: recovered values join the KB only in memory

    outcomes, recovered = [], []
    targets = [
        r for r in reports
        if r.error_type in (ErrorType.NO_PARAM_VALUE, ErrorType.WRONG_PARAM_VALUE)
        and r.tool_name in by_name
    ]
    for report in targets:
        tool = by_name[report.tool_name]
        if any(arg.required for arg in tool.args):
            outcome = infer_parameters(tool, kb, judge, emb, http=config.http)
        else:  # inference fills only required args, so none can recover it
            outcome = InferenceOutcome(tool.tool_name, False, note="nothing to infer")
        outcomes.append(outcome)
        if outcome.success:
            recovered.append(tool)

    # freed before the exports, so their helper thread does not add to the KB's memory
    del kb
    _export(config, tools, recovered)
    _write_jsonl(kb_dir / "inference.jsonl", (o.to_dict() for o in outcomes))
    print(f"infer: {len(recovered)}/{len(outcomes)} failing tools recovered; kb entries {entries}")


def stage_report(config: ProjectConfig) -> None:
    sections = []
    metrics_txt = config.output_dir / "metrics" / "metrics.txt"
    if metrics_txt.exists():
        sections.append("Extraction Metrics\n" + metrics_txt.read_text(encoding="utf-8"))
    tables_txt = config.output_dir / "reports" / "error_tables.txt"
    if tables_txt.exists():
        sections.append(tables_txt.read_text(encoding="utf-8"))
    inference_path = config.output_dir / "kb" / "inference.jsonl"
    if inference_path.exists():
        rows = _read_jsonl(inference_path)
        fixed = sum(1 for r in rows if r.get("success"))
        sections.append(
            f"Parameter Inference\nrecovered {fixed} of {len(rows)} failing tools"
        )
    if not sections:
        raise MissingStageInput("report", "no metrics or validation artifacts to report")
    text = ("\n\n".join(sections)).strip() + "\n"
    _write(config.subdir("reports") / "report.txt", text)
    print(text, end="")


def run_pipeline(stages, config: ProjectConfig) -> int:
    judge = make_judge(config)
    emb = make_embedding(config)
    # built here, not at import, so each stage function is looked up when it runs
    table = {
        "ingest": lambda: stage_ingest(config, judge),
        "extract": lambda: stage_extract(config, make_extraction_backend(config)),
        "evaluate": lambda: stage_evaluate(config, emb),
        "generate": lambda: stage_generate(config),
        "validate": lambda: stage_validate(config, judge),
        "infer": lambda: stage_infer(config, judge, emb),
        "report": lambda: stage_report(config),
    }
    for stage in stages:
        if stage == "evaluate" and config.truth_dir is None and len(stages) > 1:
            print("evaluate: skipped (no truth_dir configured)")
            continue
        table[stage]()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="apimill",
        description="Turn REST API documentation into validated, invocable tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*ALL_STAGES, "run"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "run" else "run all stages")
        p.add_argument("--config", required=True, help="project config (YAML or JSON)")
        p.add_argument("--backend", choices=BACKEND_KINDS["extraction"],
                       help="override the extraction backend kind")
        p.add_argument("--offline", action="store_true",
                       help="forbid all non-loopback network traffic")
        if name == "run":
            p.add_argument(
                "--stage-filter",
                help="comma-separated subset of stages to run (in pipeline order)",
            )

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, extraction_kind=args.backend)
        if args.offline:
            config.offline = True
        config.output_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "run":
            stages = list(ALL_STAGES)
            if args.stage_filter:
                wanted = {s.strip() for s in args.stage_filter.split(",") if s.strip()}
                unknown = wanted - set(ALL_STAGES)
                if unknown:
                    raise ConfigInvalid(f"unknown stages in filter: {sorted(unknown)}")
                stages = [s for s in ALL_STAGES if s in wanted]
        else:
            stages = [args.command]
        return run_pipeline(stages, config)
    except (ConfigInvalid, MissingStageInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ApimillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

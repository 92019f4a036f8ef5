import json
import re
import shutil
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
import yaml

from apimill import cli, ingest
from apimill.cli import load_config, main, make_judge
from apimill.embedding import LexicalEmbedding
from apimill.errors import BackendUnreachable, ConfigInvalid
from apimill.model import validate_spec
from apimill.remote import ChatClient
from apimill.synthetic import build_corpus, render_doc
from apimill.toolgen import (
    ToolDescriptor,
    export_function_source,
    export_openapi,
    group_tools_by_host,
)
from apimill.validate import InvocationRecord, ValidationReport, judge_response
from conftest import DATA_DIR, make_config, serving


@pytest.fixture(scope="module")
def full_run(corpus, tmp_path_factory):
    """One complete offline pipeline run over the synthetic corpus."""
    manifest, corpus_dir, _base = corpus
    tmp = tmp_path_factory.mktemp("full_run")
    cfg = make_config(tmp, manifest, corpus_dir)
    rc = main(["run", "--config", str(cfg)])
    return rc, tmp / "out"


def test_run_embeds_each_text_once(corpus, tmp_path, monkeypatch):
    # evaluate and infer share the run's one embedder, and so its memo
    embedded = []

    class Counting(LexicalEmbedding):
        def embed_one(self, text):
            embedded.append(text)
            return super().embed_one(text)

    monkeypatch.setattr(cli, "make_embedding", lambda config: Counting())
    manifest, corpus_dir, _ = corpus
    assert main(["run", "--config", str(make_config(tmp_path, manifest, corpus_dir))]) == 0
    assert [text for text, n in Counter(embedded).items() if n > 1] == []
    # a name evaluate scores, and a parameter name infer queries with
    assert {"Search Cards", "name"} <= set(embedded)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "nope.yaml")

    def test_not_a_mapping(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("- just\n- a list\n")
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_missing_required_keys(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("output_dir: out\n")
        with pytest.raises(ConfigInvalid, match="corpus_manifest"):
            load_config(cfg)

    def test_manifest_must_exist(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("corpus_manifest: gone.json\noutput_dir: out\n")
        with pytest.raises(ConfigInvalid, match="does not exist"):
            load_config(cfg)

    def test_relative_paths_resolve_against_config(self, tmp_path):
        (tmp_path / "m.json").write_text("[]")
        cfg = tmp_path / "c.yaml"
        cfg.write_text("corpus_manifest: m.json\noutput_dir: out\n")
        config = load_config(cfg)
        assert config.corpus_manifest == tmp_path / "m.json"
        assert config.output_dir == tmp_path / "out"

    def test_defaults(self, tmp_path):
        (tmp_path / "m.json").write_text("[]")
        cfg = tmp_path / "c.yaml"
        cfg.write_text("corpus_manifest: m.json\noutput_dir: out\n")
        config = load_config(cfg)
        assert config.tls_verify is True
        assert config.offline is False
        assert config.rate_limit_per_host == 1.0
        assert config.concurrency == 4
        assert config.truth_dir is None

    def test_seed_key_is_accepted_and_ignored(self, tmp_path):
        (tmp_path / "m.json").write_text("[]")
        cfg = tmp_path / "c.yaml"
        cfg.write_text("corpus_manifest: m.json\noutput_dir: out\nseed: 3\n")
        config = load_config(cfg)
        assert config.output_dir == tmp_path / "out"
        assert not hasattr(config, "seed")

    def test_bad_backend_kind(self, tmp_path):
        (tmp_path / "m.json").write_text("[]")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "corpus_manifest: m.json\noutput_dir: out\n"
            "backends:\n  extraction:\n    kind: quantum\n"
        )
        with pytest.raises(ConfigInvalid, match="extraction"):
            load_config(cfg)

    def test_backend_section_not_a_mapping(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text("[]")
        cfg = tmp_path / "c.yaml"
        cfg.write_text("corpus_manifest: m.json\noutput_dir: out\nbackends: {judge: remote}\n")
        assert main(["report", "--config", str(cfg)]) == 2
        assert "backends.judge must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("rate_limit_per_host: null", "rate_limit_per_host must be a number"),
        ("concurrency: two", "concurrency must be an integer"),
        ("concurrency: 0", "concurrency must be an integer of at least 1"),
        ("error_phrases: quota exceeded", "error_phrases must be a list of strings"),
        ('offline: "false"', "offline must be true or false"),
        ("output_dir: 5", "output_dir must be a path"),
        ("rate_limit_per_host: -1", "rate_limit_per_host must be a number of at least 0"),
    ], ids=["null-rate", "word-concurrency", "zero-concurrency", "string-error-phrases",
            "string-offline", "number-output-dir", "negative-rate"])
    def test_wrong_typed_key(self, tmp_path, capsys, line, message):
        (tmp_path / "m.json").write_text("[]")
        cfg = tmp_path / "c.yaml"
        # the line comes last, so it overrides a default output_dir
        cfg.write_text(f"corpus_manifest: m.json\noutput_dir: out\n{line}\n")
        assert main(["report", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    REMOTE = {"endpoint_url": "http://127.0.0.1:9/v1", "model_name": "m"}

    @pytest.mark.parametrize("backends, flags, message", [
        ({"embedding": {"dimension": "abc"}}, [], "backends.embedding.dimension must be"),
        ({"embedding": {"dimension": 0}}, [], "backends.embedding.dimension must be"),
        ({"embedding": {"dimension": True}}, [], "backends.embedding.dimension must be"),
        ({"extraction": {"kind": "remote_chat", **REMOTE, "one_shot": {"spec": "shot.json"}}},
         [], "backends.extraction.one_shot.document must be a path"),
        ({"extraction": {"kind": "remote_structured", **REMOTE,
                         "one_shot": {"document": "gone.txt", "spec": "shot.json"}}},
         [], "backends.extraction.one_shot.document cannot be read"),
        ({"extraction": {"kind": "replay"}}, [], "backends.extraction.replay_store must be a path"),
        ({}, ["--backend", "replay"], "backends.extraction.replay_store must be a path"),
        ({"extraction": {"kind": "replay", "replay_store": "gone"}}, [],
         "backends.extraction.replay_store is not a directory"),
        ({"judge": {"kind": "remote", "model_name": "m"}}, [],
         "backends.judge.endpoint_url must be a non-empty string"),
        ({"embedding": {"kind": "remote", "endpoint_url": "http://127.0.0.1:9/v1"}}, [],
         "backends.embedding.model_name must be a non-empty string"),
        ({}, ["--backend", "quantum"], "argument --backend: invalid choice"),
    ], ids=["word-dimension", "zero-dimension", "bool-dimension", "one-shot-without-document",
            "one-shot-missing-file", "replay-without-store", "replay-flag-without-store",
            "missing-replay-store", "remote-without-endpoint", "remote-without-model",
            "unknown-backend-flag"])
    def test_bad_backend_setting_stops_before_ingest(self, tmp_path, capsys, backends, flags,
                                                    message):
        (tmp_path / "a.txt").write_text("GET https://h.example/v1/a")
        (tmp_path / "shot.json").write_text('{"endpoints": []}')
        (tmp_path / "m.json").write_text(json.dumps([{"source_id": "a", "origin": "a.txt"}]))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus_manifest": "m.json", "output_dir": "out",
                                   "offline": True, "backends": backends}))
        try:
            code = main(["run", "--config", str(cfg), *flags])
        except SystemExit as exc:  # argparse refuses a --backend outside its choices
            code = exc.code
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "docs" / "index.json").exists()

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        for name in ("corpus/manifest.json", "examples/pokemon.txt", "examples/pokemon.json"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(f"text of {name}")
        (tmp_path / "corpus" / "truth").mkdir()
        (tmp_path / "config.yaml").write_text(block)
        backends = load_config(tmp_path / "config.yaml").backends
        extraction = backends["extraction"]
        assert extraction["kind"] == "remote_structured"
        assert extraction["one_shot"] == ("text of examples/pokemon.txt",
                                          "text of examples/pokemon.json")
        assert backends["judge"]["kind"] == "heuristic"
        assert backends["embedding"] == {"kind": "lexical", "dimension": 256}


class TestFullRun:
    def test_exit_zero(self, full_run):
        rc, _out = full_run
        assert rc == 0

    def test_docs_artifacts(self, full_run):
        _, out = full_run
        index = json.loads((out / "docs" / "index.json").read_text())
        assert len(index["documents"]) == 4 and index["failures"] == []
        pages = [json.loads(l) for l in (out / "docs" / "pages.jsonl").read_text().splitlines()]
        assert [p["source_id"] for p in pages] == [i["source_id"] for i in index["documents"]]
        for page in pages:
            assert page["text"].strip()
            # every bundled page is a file: no copy of it is written
            assert "raw" not in page

    def test_spec_artifacts(self, full_run):
        _, out = full_run
        rows = [json.loads(l) for l in (out / "specs" / "results.jsonl").read_text().splitlines()]
        assert len(rows) == 4 and all(r["valid"] for r in rows)
        assert not list((out / "specs").glob("*.spec.json"))
        for row in rows:
            assert validate_spec(row["spec"])[1] == []

    def test_metrics_perfect_on_round_trip(self, full_run):
        _, out = full_run
        metrics = json.loads((out / "metrics" / "metrics.json").read_text())
        assert metrics["valid_ratio"] == 1.0
        assert metrics["param_precision"] == 1.0
        assert metrics["param_recall"] == 1.0
        assert (out / "metrics" / "metrics.txt").read_text().count("\n") >= 2

    def test_tool_and_export_artifacts(self, full_run):
        _, out = full_run
        tool_files = sorted(p.name for p in (out / "tools").glob("*.tool.json"))
        assert "search_cards.tool.json" in tool_files
        assert "get_glycan.tool.json" in tool_files
        src = (out / "exports" / "search_cards.py").read_text()
        assert "Missing required parameter: q" in src
        openapi_files = list((out / "exports").glob("*.openapi.yaml"))
        assert openapi_files
        for path in openapi_files:
            doc = yaml.safe_load(path.read_text())
            assert doc["openapi"] == "3.0.3"

    def test_validation_summary(self, full_run):
        _, out = full_run
        summary = json.loads((out / "validation" / "summary.json").read_text())
        counts = summary["counts"]
        assert counts["Passed Validation"] == 4
        assert counts["Failed Validation"] == 1
        assert counts["Abnormal Response"] == 1
        assert counts["No Parameter Value"] == 1
        assert summary["validated_tools"] == 7
        assert sum(counts.values()) == summary["validated_tools"]
        causes = summary["causes"]
        for category, bounds in causes.items():
            assert bounds["conservative"] <= bounds["aggressive"]

    def test_infer_recovers_and_persists(self, full_run):
        _, out = full_run
        rows = [json.loads(l) for l in (out / "kb" / "inference.jsonl").read_text().splitlines()]
        assert len(rows) == 1
        (row,) = rows
        assert row["tool_name"] == "find_trainer" and row["success"]
        tool = json.loads((out / "tools" / "find_trainer.tool.json").read_text())
        (name_arg,) = [a for a in tool["args"] if a["name"] == "name"]
        assert name_arg["example_value"]  # written back and saved
        assert (out / "kb" / "kb.jsonl").read_text().strip()
        # the exports follow the descriptors, the ones infer rewrote too
        for path in (out / "tools").glob("*.tool.json"):
            descriptor = ToolDescriptor.from_dict(json.loads(path.read_text()))
            exported = (out / "exports" / f"{descriptor.tool_name}.py").read_text()
            assert exported == export_function_source(descriptor)
        client = (out / "exports" / "find_trainer.py").read_text()
        assert "find_trainer(name='''Gardevoir''')" in client
        (openapi,) = (out / "exports").glob("*.openapi.yaml")
        paths = yaml.safe_load(openapi.read_text())["paths"]
        (operation,) = [op for ops in paths.values() for op in ops.values()
                        if op["operationId"] == "find_trainer"]
        (name_param,) = [p for p in operation["parameters"] if p["name"] == "name"]
        assert name_param["example"] == "Gardevoir"

    def test_openapi_follows_the_descriptors_after_infer(self, full_run):
        _, out = full_run
        tools = [ToolDescriptor.from_dict(json.loads(p.read_text()))
                 for p in (out / "tools").glob("*.tool.json")]
        groups = group_tools_by_host(tools)
        files = {p.name for p in (out / "exports").glob("*.openapi.yaml")}
        assert files == {f"{host.replace(':', '_')}.openapi.yaml" for host in groups}
        for host, group in groups.items():
            group.sort(key=lambda tool: tool.tool_name)
            path = out / "exports" / f"{host.replace(':', '_')}.openapi.yaml"
            assert path.read_text() == export_openapi(group)

    def test_report_rollup(self, full_run):
        _, out = full_run
        report = (out / "reports" / "report.txt").read_text()
        assert "Error Type Counts" in report
        assert "Extraction Metrics" in report
        assert "Parameter Inference" in report

    def test_kb_vectors_one_row_per_text(self, full_run):
        _, out = full_run
        entries = [json.loads(l) for l in (out / "kb" / "kb.jsonl").read_text().splitlines()]
        rows = [json.loads(l) for l in (out / "kb" / "vectors.jsonl").read_text().splitlines()]
        assert entries and not any("_embedding" in key for entry in entries for key in entry)
        vectors = {row["text"]: row["vector"] for row in rows}
        assert len(vectors) == len(rows)  # no text twice
        named = {text for entry in entries
                 for text in (entry["param_key"], entry["description"]) if text}
        assert set(vectors) == named  # no text without its row, and no orphan row
        for text, vector in vectors.items():
            assert vector == LexicalEmbedding().embed_one(text).tolist()


def test_infer_counts_the_kb_rows_it_writes(mock_api, tmp_path, capsys):
    # the Glycan Hub page leaves its accession undocumented, so infer recovers
    # it from the other source's value: an entry the written KB does not hold
    specs = {source_id: spec for source_id, spec, _ in build_corpus(mock_api.base_url)}
    specs["glycanhub"].endpoints[0].required_parameters[0].example_value = None
    manifest = []
    for source_id in ("glycanhub", "structconvert"):
        (tmp_path / f"{source_id}.txt").write_text(render_doc(specs[source_id]), encoding="utf-8")
        manifest.append({"source_id": source_id, "origin": f"{source_id}.txt"})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
    assert main(["run", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "kb" / "kb.jsonl").read_text().splitlines()
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("infer:")]
    assert line == f"infer: 1/1 failing tools recovered; kb entries {len(rows)}"


def test_lone_surrogate_in_api_reply_is_written_escaped(tmp_path):
    # JSON can escape a lone surrogate, so the decoded reply holds one
    def answer(handler):
        return 200, {"Content-Type": "application/json"}, b'{"id": "\\ud800x"}'

    with serving(answer) as (base, seen):
        (tmp_path / "items.txt").write_text(f"## Get Item\nGET {base}/items\n", encoding="utf-8")
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"source_id": "items", "origin": "items.txt"}]), encoding="utf-8")
        cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
        assert main(["run", "--config", str(cfg)]) == 0
    assert seen
    out = tmp_path / "out"
    (report,) = [json.loads(l) for l in (out / "validation" / "reports.jsonl").read_text(
        encoding="utf-8").splitlines()]
    assert report["error_type"] == "Passed Validation"
    (entry,) = [json.loads(l) for l in (out / "kb" / "kb.jsonl").read_text(
        encoding="utf-8").splitlines()]
    assert (entry["param_key"], entry["value"]) == ("id", "\ud800x")


def test_page_charset_yielding_lone_surrogate_is_ingested(tmp_path):
    # UTF-7 spells U+D800 as "+2AA-"; it reaches the page text as U+FFFD
    def answer(handler):
        return 200, {"Content-Type": "text/html; charset=utf-7"}, (
            b"<html><body><h2>Get Item</h2><p>GET https://h.example/items +2AA-</p></body></html>")

    with serving(answer) as (base, seen):
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"source_id": "items", "origin": f"{base}/items.html"}]), encoding="utf-8")
        cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
        assert main(["ingest", "--config", str(cfg)]) == 0
    assert seen
    (page,) = map(json.loads, (tmp_path / "out" / "docs" / "pages.jsonl").read_text(
        encoding="utf-8").splitlines())
    assert "https://h.example/items �" in page["text"]


def test_lone_surrogate_value_is_not_tried_by_infer(tmp_path):
    # source A's reply puts a lone surrogate in the KB under `id`; source B
    # needs an undocumented `id`, and no request could carry that value
    def answer(handler):
        return 200, {"Content-Type": "application/json"}, b'{"id": "\\ud800x"}'

    with serving(answer) as (base, seen):
        for name, doc in (("items", f"## Get Item\nGET {base}/items\n"),
                          ("things", f"## Get Thing\nGET {base}/things\n"
                                     "Required parameters:\n- id: the thing id\n")):
            (tmp_path / f"{name}.txt").write_text(doc, encoding="utf-8")
        (tmp_path / "manifest.json").write_text(json.dumps([
            {"source_id": name, "origin": f"{name}.txt"} for name in ("items", "things")
        ]), encoding="utf-8")
        cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
        assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert ("id", "\ud800x") in [(e["param_key"], e["value"]) for e in map(
        json.loads, (out / "kb" / "kb.jsonl").read_text(encoding="utf-8").splitlines())]
    (outcome,) = map(json.loads, (out / "kb" / "inference.jsonl").read_text(
        encoding="utf-8").splitlines())
    assert (outcome["tool_name"], outcome["success"], outcome["attempts"]) == ("get_thing", False, 0)
    assert outcome["note"] == "no candidates: no usable candidates for parameter 'id'"
    assert not any("/things?id=" in s.line for s in seen)


class TestStageGating:
    def test_extract_before_ingest(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        assert main(["extract", "--config", str(cfg)]) == 2

    def test_validate_before_generate(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_report_without_artifacts(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        assert main(["report", "--config", str(cfg)]) == 2

    def test_explicit_evaluate_needs_truth_dir(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir, truth_dir=None)
        main(["ingest", "--config", str(cfg)])
        main(["extract", "--config", str(cfg)])
        assert main(["evaluate", "--config", str(cfg)]) == 2

    def test_truth_spec_not_json(self, corpus, tmp_path, capsys):
        manifest, corpus_dir, _ = corpus
        truth = tmp_path / "truth"
        truth.mkdir()
        (truth / "broken.json").write_text('{"endpoints": [')
        cfg = make_config(tmp_path, manifest, corpus_dir, truth_dir=str(truth))
        rc = main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,evaluate"])
        assert rc == 2
        assert "error: truth spec broken.json is not JSON" in capsys.readouterr().err
        # JSON that breaks the spec schema names each violation as extract stores it
        (truth / "broken.json").write_text(
            '{"endpoints": [{"name": "x", "url": "https://h.example/v1/x"}]}')
        assert main(["evaluate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: truth spec broken.json is invalid: " in err
        assert "missing_required_field at endpoints[0].method" in err
        assert "SchemaViolation(" not in err

    def test_run_skips_evaluate_without_truth_dir(self, corpus, tmp_path, capsys):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir, truth_dir=None)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        assert "evaluate: skipped" in capsys.readouterr().out
        assert not (tmp_path / "out" / "metrics").exists()

    def test_stage_filter(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        rc = main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract"])
        assert rc == 0
        assert (tmp_path / "out" / "specs" / "results.jsonl").exists()
        assert not (tmp_path / "out" / "tools").exists()

    def test_stage_filter_unknown_stage(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,bogus"]) == 2

    def test_stages_rerunnable(self, corpus, tmp_path):
        manifest, corpus_dir, _ = corpus
        cfg = make_config(tmp_path, manifest, corpus_dir)
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest"]) == 0
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest"]) == 0


@pytest.fixture()
def pokemon_project(tmp_path):
    """Config + replay store for the recorded card-search example."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(DATA_DIR / "pokemon.html", corpus_dir / "pokemon.html")
    (corpus_dir / "manifest.json").write_text(
        json.dumps([{"source_id": "pokemon", "origin": "pokemon.html"}])
    )
    recorded = corpus_dir / "recorded"
    recorded.mkdir()
    shutil.copy(DATA_DIR / "pokemon.spec.json", recorded / "pokemon.json")
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "corpus_manifest": str(corpus_dir / "manifest.json"),
        "output_dir": str(tmp_path / "out"),
        "offline": True,
        "rate_limit_per_host": 0,
        "backends": {"extraction": {"kind": "replay", "replay_store": "corpus/recorded"}},
    }))
    return cfg, tmp_path / "out"


class TestReplayProject:
    def test_replay_extraction(self, pokemon_project, pokemon_spec_dict):
        cfg, out = pokemon_project
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,generate"]) == 0
        (row,) = [json.loads(l) for l in (out / "specs" / "results.jsonl").read_text().splitlines()]
        canonical, violations = validate_spec(pokemon_spec_dict)
        assert violations == []
        assert row["spec"] == canonical.to_dict()  # null default normalized away
        src = (out / "exports" / "search_cards.py").read_text()
        assert "Missing required parameter: q" in src
        assert "timeout=50" in src

    def test_lone_surrogate_reply_recorded_invalid(self, pokemon_project):
        cfg, out = pokemon_project
        (cfg.parent / "corpus" / "recorded" / "pokemon.json").write_text(
            '{"endpoints": [{"name": "q\\ud800", "method": "GET", "url": "https://h.example/"}]}')
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest"]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        (row,) = [json.loads(l) for l in (out / "specs" / "results.jsonl").read_text().splitlines()]
        assert not row["valid"]
        assert row["violations"] == [
            "wrong_value_kind at endpoints[0].name (text holds a lone surrogate)"]

    def test_lone_surrogate_in_chat_reply_recorded_invalid(self, pokemon_project, monkeypatch):
        # a chat API's JSON can escape a lone surrogate, so the decoded reply holds it
        cfg, out = pokemon_project
        settings = yaml.safe_load(cfg.read_text())
        settings["backends"]["extraction"] = {
            "kind": "remote_chat", "endpoint_url": "http://127.0.0.1:9/v1/chat", "model_name": "m"}
        cfg.write_text(yaml.safe_dump(settings))
        reply = '{"endpoints": [{"name": "q\ud800", "method": "GET", "url": "https://h.example/"}]}'
        monkeypatch.setattr(ChatClient, "complete", lambda self, *a, **k: (reply, 7))
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest"]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        text = (out / "specs" / "results.jsonl").read_bytes().decode("utf-8")
        (row,) = [json.loads(l) for l in text.splitlines()]
        assert not row["valid"] and row["backend_kind"] == "remote_chat"
        assert row["violations"] == [
            "wrong_value_kind at endpoints[0].name (text holds a lone surrogate)"]

    def test_backend_override_flag(self, pokemon_project):
        cfg, out = pokemon_project
        assert main(["run", "--config", str(cfg), "--stage-filter", "ingest"]) == 0
        assert main(["extract", "--config", str(cfg), "--backend", "heuristic"]) == 0
        rows = [json.loads(l) for l in (out / "specs" / "results.jsonl").read_text().splitlines()]
        assert rows[0]["backend_kind"] == "heuristic"

    def test_offline_validation_of_remote_host(self, pokemon_project):
        # offline run against a non-loopback host records a transport failure
        cfg, out = pokemon_project
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        summary = json.loads((out / "validation" / "summary.json").read_text())
        assert summary["counts"]["Wrong Parameter Value"] == 1


def test_remote_judge_fallback_keeps_configured_phrases(tmp_path, monkeypatch):
    (tmp_path / "m.json").write_text("[]")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(json.dumps({
        "corpus_manifest": "m.json",
        "output_dir": "out",
        "offline": True,
        "error_phrases": ["quota exceeded"],
        "backends": {"judge": {"kind": "remote", "endpoint_url": "http://127.0.0.1:9/v1",
                               "model_name": "m"}},
    }))
    judge = make_judge(load_config(cfg))

    def down(*args, **kwargs):
        raise BackendUnreachable("down")

    monkeypatch.setattr(judge.client, "complete", down)
    record = InvocationRecord(status_code=200, text="Daily quota exceeded, retry tomorrow")
    passed, rationale = judge_response("desc", record, judge)
    assert passed is False
    assert rationale.startswith("heuristic fallback (down): ")
    assert "quota exceeded" in rationale


def test_unbuildable_endpoint_counted(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "page.txt").write_text(
        "Broken API\n## Fragment\nGET /v1/fragment-only\n"
        "Required parameters:\n- q (string): text Example: x\n"
    )
    (corpus_dir / "manifest.json").write_text(
        json.dumps([{"source_id": "broken", "origin": "page.txt"}])
    )
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "corpus_manifest": str(corpus_dir / "manifest.json"),
        "output_dir": str(tmp_path / "out"),
        "offline": True,
        "rate_limit_per_host": 0,
    }))
    assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,generate,validate"]) == 0
    out = tmp_path / "out"
    unbuildable = [json.loads(l) for l in (out / "tools" / "unbuildable.jsonl").read_text().splitlines()]
    assert len(unbuildable) == 1
    assert unbuildable[0]["error_type"] == "Missing Base URL"
    summary = json.loads((out / "validation" / "summary.json").read_text())
    assert summary["counts"]["Missing Base URL"] == 1
    assert summary["unbuildable_endpoints"] == 1


def test_unparsable_and_hostless_urls_become_labelled_rows(corpus, tmp_path):
    manifest, corpus_dir, _ = corpus
    entries = [{**e, "origin": str(corpus_dir / e["origin"])}
               for e in json.loads(manifest.read_text())]
    (tmp_path / "broken.txt").write_text(
        "Broken API\n## Item\nGET https://h.example/items/{id\n## Root\nGET https:///\n"
    )
    entries.append({"source_id": "broken", "origin": str(tmp_path / "broken.txt")})
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    cfg = make_config(tmp_path, tmp_path / "manifest.json", corpus_dir)
    stages = "ingest,extract,generate,validate"
    assert main(["run", "--config", str(cfg), "--stage-filter", stages]) == 0
    out = tmp_path / "out"

    names = ["convert_structure", "find_trainer", "get_glycan", "legacy_lookup",
             "old_resource", "search_cards", "strict_search"]
    assert sorted(p.name for p in (out / "tools").glob("*.tool.json")) == [
        f"{name}.tool.json" for name in names]
    assert sorted(p.stem for p in (out / "exports").glob("*.py")) == names
    assert len(list((out / "exports").glob("*.openapi.yaml"))) == 1
    unbuildable = [json.loads(l) for l in (out / "tools" / "unbuildable.jsonl").read_text().splitlines()]
    assert [(r["source_id"], r["endpoint_name"], r["error_type"], r["url"]) for r in unbuildable] == [
        ("broken", "Item", "Missing Endpoint Path", "https://h.example/items/{id"),
        ("broken", "Root", "Missing Base URL", "https:///"),
    ]
    summary = json.loads((out / "validation" / "summary.json").read_text())
    assert summary["validated_tools"] == len(names)
    assert summary["unbuildable_endpoints"] == 2
    assert summary["counts"]["Missing Endpoint Path"] == 1
    assert summary["counts"]["Missing Base URL"] == 1
    assert sum(summary["counts"].values()) == len(names) + 2


def test_unbuildable_rows_never_take_a_built_tools_name(corpus, tmp_path):
    manifest, corpus_dir, _ = corpus
    entries = [{**e, "origin": str(corpus_dir / e["origin"])}
               for e in json.loads(manifest.read_text())]
    (tmp_path / "broken.txt").write_text(
        "Broken API\n## Search Cards\nGET https://h.example/items/{id\n"
    )
    # listed first: its row is still named after every built tool
    entries.insert(0, {"source_id": "broken", "origin": str(tmp_path / "broken.txt")})
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    cfg = make_config(tmp_path, tmp_path / "manifest.json", corpus_dir)
    assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,generate"]) == 0
    out = tmp_path / "out"
    built = sorted(p.name[: -len(".tool.json")] for p in (out / "tools").glob("*.tool.json"))
    assert "search_cards" in built
    unbuildable = [json.loads(l) for l in (out / "tools" / "unbuildable.jsonl").read_text().splitlines()]
    assert [(r["source_id"], r["endpoint_name"], r["tool_name"]) for r in unbuildable] == [
        ("broken", "Search Cards", "search_cards_2"),
    ]


def _generate_page(tmp_path, text):
    """Run ingest, extract and generate on one plain-text page."""
    (tmp_path / "page.txt").write_text(text, encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        json.dumps([{"source_id": "page", "origin": "page.txt"}]), encoding="utf-8")
    cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
    assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract,generate"]) == 0
    return tmp_path / "out"


def test_long_endpoint_name_still_makes_a_tool(tmp_path):
    # 300 characters of name would make a file name longer than any file
    # system allows; the tool name is cut to 64
    out = _generate_page(tmp_path, "## " + "Name " * 60 + "\nGET https://h.example/y\n")
    name = "name_" * 12 + "name"
    assert [p.name for p in (out / "tools").glob("*.tool.json")] == [f"{name}.tool.json"]
    assert [p.name for p in (out / "exports").glob("*.py")] == [f"{name}.py"]


@pytest.mark.parametrize("hosts", [
    # past the 255 bytes a file name may take, and alike in their first 64
    ["h" * 250 + ".example", "h" * 250 + ".example2"],
    ["h\0x.example"],
])
def test_host_that_is_no_file_name_still_exports(tmp_path, hosts):
    out = _generate_page(tmp_path, "".join(f"GET https://{host}/y\n" for host in hosts))
    files = list((out / "exports").glob("*.openapi.yaml"))
    servers = [yaml.safe_load(path.read_text(encoding="utf-8"))["servers"][0]["url"] for path in files]
    assert sorted(servers) == [f"https://{host}" for host in hosts]
    assert all(len(path.name) < 100 for path in files)


def test_non_finite_number_is_written_as_strict_json(tmp_path):
    def strict(path):
        def refuse(token):
            raise ValueError(f"{token} in {path.name}")
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)

    out = _generate_page(tmp_path, (
        "## Cut\nPOST https://h.example/cut\nRequired parameters:\n"
        "- cut (number): Cut-off. Example: nan\n- top (number): Top. Default: Infinity\n"))
    result = strict(out / "specs" / "results.jsonl")  # one page, so one line
    tool = strict(out / "tools" / "cut.tool.json")
    # neither is a JSON number literal, so each stays the text it was written as
    assert [(p.get("example"), p.get("default")) for p in result["spec"]["endpoints"][0]["required_parameters"]] == [
        ("nan", None), (None, "Infinity")]
    assert [(a["example_value"], a["default_value"]) for a in tool["args"]] == [("nan", None), (None, "Infinity")]


def test_non_finite_number_in_a_reply_is_not_json(tmp_path):
    # Python's JSON reader takes NaN, and reads 1e400 as an infinity
    replies = {"/nan": b'{"id": NaN, "ok": true}', "/big": b'{"n": 1e400}'}

    def answer(handler):
        return 200, {"Content-Type": "application/json"}, replies[handler.path]

    def refuse(token):
        raise ValueError(token)

    with serving(answer) as (base, seen):
        (tmp_path / "page.txt").write_text(
            f"## Get Nan\nGET {base}/nan\n## Get Big\nGET {base}/big\n", encoding="utf-8")
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"source_id": "page", "origin": "page.txt"}]), encoding="utf-8")
        cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
        assert main(["run", "--config", str(cfg), "--stage-filter",
                     "ingest,extract,generate,validate"]) == 0
    assert len(seen) == 2
    reports = [json.loads(line, parse_constant=refuse)
               for line in (tmp_path / "out" / "validation" / "reports.jsonl").read_text(
                   encoding="utf-8").splitlines()]
    assert [(r["tool_name"], r["attempts"][0]["json"]) for r in reports] == [
        ("get_big", None), ("get_nan", None)]


def test_tool_without_required_arg_is_not_recovered(tmp_path, capsys):
    # nothing listens on port 9, so the tool fails with every value it needs
    (tmp_path / "page.txt").write_text(
        "## Ping\nGET http://127.0.0.1:9/ping\nOptional parameters:\n- verbose: Example: 1\n",
        encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        json.dumps([{"source_id": "page", "origin": "page.txt"}]), encoding="utf-8")
    cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path, truth_dir=None)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    (report,) = map(json.loads, (out / "validation" / "reports.jsonl").read_text().splitlines())
    assert report["error_type"] == "Wrong Parameter Value"
    (outcome,) = map(json.loads, (out / "kb" / "inference.jsonl").read_text().splitlines())
    assert (outcome["success"], outcome["attempts"], outcome["note"]) == (False, 0, "nothing to infer")
    assert "infer: 0/1 failing tools recovered" in capsys.readouterr().out
    assert "recovered 0 of 1 failing tools" in (out / "reports" / "report.txt").read_text()


def test_one_host_on_two_schemes_is_one_export(tmp_path):
    out = _generate_page(tmp_path, "GET https://h.example/a\nGET http://h.example/b\n")
    (path,) = (out / "exports").glob("*.openapi.yaml")
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    assert doc["servers"] == [{"url": "http://h.example"}, {"url": "https://h.example"}]
    assert list(doc["paths"]) == ["/a", "/b"]
    assert (out / "tools" / "unbuildable.jsonl").read_text() == ""


def test_same_endpoint_names_across_sources_all_kept(corpus, tmp_path):
    manifest, corpus_dir, _ = corpus
    rows = json.loads(manifest.read_text())
    doubled = [
        {"source_id": row["source_id"] + suffix, "origin": str(corpus_dir / row["origin"])}
        for suffix in ("", "_copy")
        for row in rows
    ]
    doubled_manifest = tmp_path / "manifest.json"
    doubled_manifest.write_text(json.dumps(doubled))
    cfg = make_config(tmp_path, doubled_manifest, corpus_dir)
    stages = "ingest,extract,generate,validate"
    assert main(["run", "--config", str(cfg), "--stage-filter", stages]) == 0
    out = tmp_path / "out"

    tools = [json.loads(p.read_text()) for p in (out / "tools").glob("*.tool.json")]
    by_source: dict = {}
    for tool in tools:
        by_source.setdefault(tool["source_id"], []).append(tool["tool_name"])
    for row in rows:
        original = by_source[row["source_id"]]
        copy = by_source[f"{row['source_id']}_copy"]
        assert len(copy) == len(original)
        assert not set(copy) & set(original)
    for tool in tools:
        assert (out / "exports" / f"{tool['tool_name']}.py").exists()
    assert "search_cards" in {t["tool_name"] for t in tools}  # first keeps bare name

    reports = [
        json.loads(l) for l in (out / "validation" / "reports.jsonl").read_text().splitlines()
    ]
    assert sorted(r["tool_name"] for r in reports) == sorted(t["tool_name"] for t in tools)


def test_offline_flag_overrides_config(corpus, tmp_path, no_network):
    manifest, corpus_dir, _ = corpus
    entries = [{**e, "origin": str(corpus_dir / e["origin"])}
               for e in json.loads(manifest.read_text())]
    entries.append({"source_id": "remote", "origin": "http://docs.example.invalid/api"})
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    cfg = make_config(tmp_path, tmp_path / "manifest.json", corpus_dir, offline=False)
    rc = main(["run", "--config", str(cfg), "--offline", "--stage-filter", "ingest"])
    assert rc == 0  # loopback origins stay reachable under --offline
    index = json.loads((tmp_path / "out" / "docs" / "index.json").read_text())
    assert len(index["documents"]) == len(entries) - 1
    [failure] = index["failures"]
    assert failure["source_id"] == "remote"
    assert "offline mode forbids non-loopback target" in failure["error"]
    assert no_network == []


def test_html_copy_only_for_fetched_pages(mock_api, tmp_path):
    (tmp_path / "local.txt").write_text("GET https://h.example/v1/items")
    (tmp_path / "manifest.json").write_text(json.dumps([
        {"source_id": "local", "origin": "local.txt"},
        {"source_id": "remote", "origin": f"{mock_api.base_url}/cards"},
    ]))
    (tmp_path / "truth").mkdir()
    cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path)
    assert main(["ingest", "--config", str(cfg)]) == 0
    docs = tmp_path / "out" / "docs"
    assert sorted(p.name for p in docs.iterdir()) == ["index.json", "pages.jsonl"]
    local, remote = [json.loads(l) for l in (docs / "pages.jsonl").read_text().splitlines()]
    assert (local["source_id"], remote["source_id"]) == ("local", "remote")
    assert local["text"] and remote["text"]
    assert "raw" not in local
    assert "Gardevoir" in remote["raw"]


@pytest.mark.parametrize("entries, lost", [
    # the second page's document used to replace the first's
    ([{"source_id": "same", "origin": "a.txt"}, {"source_id": "same", "origin": "b.txt"}],
     "out/docs/same.txt"),
    # written outside docs/ before the check
    ([{"source_id": "../escaped", "origin": "a.txt"}], "out/escaped.txt"),
])
def test_bad_manifest_ids_stop_ingest(tmp_path, entries, lost):
    (tmp_path / "a.txt").write_text("GET https://h.example/v1/a")
    (tmp_path / "b.txt").write_text("GET https://h.example/v1/b")
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    (tmp_path / "truth").mkdir()
    cfg = make_config(tmp_path, tmp_path / "manifest.json", tmp_path)
    assert main(["ingest", "--config", str(cfg)]) == 1
    assert not (tmp_path / lost).exists()
    assert not (tmp_path / "out" / "docs" / "pages.jsonl").exists()


def test_pages_in_manifest_order_when_a_slow_page_ends_last(tmp_path, monkeypatch):
    manifest, finished = [], []
    for i in range(4):
        (tmp_path / f"p{i}.txt").write_text(f"## Item {i}\nGET https://h.example/v1/items/{i}\n")
        manifest.append({"source_id": f"p{i}", "origin": f"p{i}.txt"})
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"corpus_manifest": "m.json", "output_dir": "out", "concurrency": 4}))
    others_done = threading.Event()
    load_and_clean = ingest.load_and_clean

    def first_page_last(origin, source_id=None, **kwargs):
        if source_id == "p0":
            assert others_done.wait(timeout=30)
        doc = load_and_clean(origin, source_id, **kwargs)
        finished.append(source_id)
        if len(finished) == 3 and "p0" not in finished:
            others_done.set()
        return doc

    monkeypatch.setattr(ingest, "load_and_clean", first_page_last)
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert finished[-1] == "p0"
    pages = (tmp_path / "out" / "docs" / "pages.jsonl").read_text().splitlines()
    assert [json.loads(line)["source_id"] for line in pages] == ["p0", "p1", "p2", "p3"]


def test_export_helper_exception_propagates(corpus, tmp_path, monkeypatch):
    manifest, corpus_dir, _ = corpus
    cfg = make_config(tmp_path, manifest, corpus_dir)
    assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract"]) == 0
    threads = set()

    def failing_export(tool, tls_verify=True):
        threads.add(threading.current_thread())
        raise RuntimeError(f"cannot export {tool.tool_name}")

    monkeypatch.setattr(cli, "export_function_source", failing_export)
    with pytest.raises(RuntimeError, match="cannot export"):
        main(["generate", "--config", str(cfg)])
    assert threads and threading.main_thread() not in threads


def test_page_missing_from_pages_stops_extract(corpus, tmp_path, capsys):
    manifest, corpus_dir, _ = corpus
    cfg = make_config(tmp_path, manifest, corpus_dir)
    assert main(["run", "--config", str(cfg), "--stage-filter", "ingest,extract"]) == 0
    docs, specs = tmp_path / "out" / "docs", tmp_path / "out" / "specs"
    before = (specs / "results.jsonl").read_bytes()
    first, *rest = (docs / "pages.jsonl").read_text().splitlines(keepends=True)
    (docs / "pages.jsonl").write_text("".join(rest))
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg)]) == 2
    assert json.loads(first)["source_id"] in capsys.readouterr().err
    assert (specs / "results.jsonl").read_bytes() == before
    assert sorted(p.name for p in specs.iterdir()) == ["results.jsonl"]


def test_ingest_and_extract_hold_only_pages_in_flight(tmp_path):
    """At concurrency 2, the traced peak of either stage stays under a bound
    that an eighth of the corpus already exceeds."""
    pages, page_bytes, bound = 128, 64 * 1024, 1024 * 1024
    filler = ("abcdefghij" * 10 + " ") * 16 + "\n"  # long words: few allocations to trace
    manifest = []
    for i in range(pages):
        head = f"## Item {i}\nGET https://h.example/v1/items/{i}\n"
        body = filler * -(-(page_bytes - len(head)) // len(filler))
        (tmp_path / f"p{i}.txt").write_text(head + body, encoding="utf-8")
        manifest.append({"source_id": f"p{i}", "origin": f"p{i}.txt"})
    assert sum(p.stat().st_size for p in tmp_path.glob("p*.txt")) >= 8 * bound
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"corpus_manifest": "m.json", "output_dir": "out", "concurrency": 2}))
    for stage in ("ingest", "extract"):
        tracemalloc.start()
        try:
            assert main([stage, "--config", str(cfg)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{stage} peaked at {peak} bytes"
    rows = (tmp_path / "out" / "specs" / "results.jsonl").read_text().splitlines()
    assert [json.loads(row)["source_id"] for row in rows] == [f"p{i}" for i in range(pages)]
    assert not list((tmp_path / "out" / "specs").glob("*.partial"))


def test_stage_that_raises_keeps_the_previous_artifact(corpus, tmp_path, monkeypatch):
    manifest, corpus_dir, _ = corpus
    cfg = make_config(tmp_path, manifest, corpus_dir)
    stages = "ingest,extract,generate,validate"
    assert main(["run", "--config", str(cfg), "--stage-filter", stages]) == 0
    validation = tmp_path / "out" / "validation"
    before = (validation / "reports.jsonl").read_bytes()
    assert before.count(b"\n") > 3

    to_dict, rows = ValidationReport.to_dict, []

    def third_row_unwritable(report):
        rows.append(report)
        return {"unwritable": object()} if len(rows) == 3 else to_dict(report)

    monkeypatch.setattr(ValidationReport, "to_dict", third_row_unwritable)
    with pytest.raises(TypeError):
        main(["validate", "--config", str(cfg)])
    assert (validation / "reports.jsonl").read_bytes() == before
    assert sorted(p.name for p in validation.iterdir()) == ["reports.jsonl", "summary.json"]


def test_artifacts_do_not_depend_on_concurrency(corpus, tmp_path):
    manifest, corpus_dir, _ = corpus
    trees = []
    for width in (1, 4):
        (tmp_path / f"c{width}").mkdir()
        cfg = make_config(tmp_path / f"c{width}", manifest, corpus_dir, concurrency=width)
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / f"c{width}" / "out"
        trees.append({
            str(path.relative_to(out)): path.read_bytes()
            for path in out.rglob("*") if path.is_file()
        })
    assert trees[0] == trees[1]

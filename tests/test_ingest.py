import json
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apimill.errors import EmptyDocument, FetchFailed, OfflineViolation
from apimill.ingest import (
    DEFAULT_TEXT_CAP,
    ApiDocument,
    _collapse_lines,
    classify_document,
    dehtml,
    filter_api_pages,
    ingest_corpus,
    load_and_clean,
    load_corpus_manifest,
)
from apimill.judges import HeuristicJudge
from apimill.netutil import run_cpu_pool

SRC = Path(__file__).resolve().parents[1] / "src"

needs_fork = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="worker processes are forked on Linux with two or more usable CPUs",
)


def run_fresh(code: str, *args: str) -> str:
    """Run code in a new interpreter and return its stdout.  Its only Python
    thread is the main one, as in the CLI; this process may also hold the
    mock server's, which keeps run_cpu_pool in-process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _item_and_pid(x):
    return x, os.getpid()


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


class TestDehtml:
    def test_strips_tags_and_script(self):
        text = dehtml("<html><script>var x=1;</script><p>Hello <b>world</b></p></html>")
        assert text == "Hello world"

    def test_style_and_noscript_dropped(self):
        text = dehtml("<style>p{}</style><noscript>no js</noscript><p>kept</p>")
        assert "no js" not in text and "p{}" not in text and "kept" in text

    def test_block_tags_become_newlines(self):
        text = dehtml("<h1>Title</h1><li>a</li><li>b</li>")
        assert text.splitlines() == ["Title", "a", "b"]

    def test_entities_unescaped(self):
        assert dehtml("<p>a &amp; b &lt;c&gt;</p>") == "a & b <c>"

    @pytest.mark.parametrize("markup, text", [
        ("<p>GET https://api.x.org/v1/search?q=x&amp;region=eu&amp;copy=2</p>",
         "GET https://api.x.org/v1/search?q=x&region=eu&copy=2"),
        ("<code>&amp;lt;id&amp;gt;</code>", "&lt;id&gt;"),
        ('<a href="https://api.x.org/v1?q=x&amp;region=eu">docs</a>',
         "docs https://api.x.org/v1?q=x&region=eu"),
    ])
    def test_entities_unescaped_once(self, markup, text):
        assert dehtml(markup) == text

    def test_anchor_in_skipped_content_dropped(self):
        markup = '<noscript><a href="https://tracker.example/pixel">x</a></noscript><p>hi</p>'
        assert dehtml(markup) == "hi"

    def test_href_kept_when_not_in_text(self):
        text = dehtml('<a href="https://api.example/v1">docs</a>')
        assert "https://api.example/v1" in text and "docs" in text

    def test_href_not_duplicated(self):
        text = dehtml('<a href="https://api.example/v1">https://api.example/v1</a>')
        assert text.count("https://api.example/v1") == 1

    def test_relative_href_ignored(self):
        text = dehtml('<a href="/local">here</a>')
        assert "/local" not in text

    def test_whitespace_collapsed_blank_lines_dropped(self):
        text = dehtml("<p>  a   b \t c </p><p>  </p><p>d</p>")
        assert text == "a b c\nd"

    @given(st.lists(st.sampled_from(
        ["a", "b", "é", " ", "  ", "\t", "\r", "\n", "\r\n", "\xa0", "\f", "\v", "\u2003", "\x1c"]
    )).map("".join))
    def test_collapse_lines_matches_per_line_loop(self, text):
        lines = []
        for line in text.split("\n"):
            line = re.sub(r"[ \t\r\f\v\xa0]+", " ", line).strip()
            if line:
                lines.append(line)
        assert _collapse_lines(text) == "\n".join(lines)

    def test_pokemon_page(self, pokemon_html):
        text = dehtml(pokemon_html)
        assert "GET https://api.pokemontcg.io/v2/cards?q=name:gardevoir" in text
        assert "window.analytics" not in text
        assert "Pokémon TCG API Documentation" in text


class TestLoadAndClean:
    def test_load_from_file(self, tmp_path):
        page = tmp_path / "x.html"
        page.write_text("<p>GET https://h.example/api — query parameter q</p>", encoding="utf-8")
        doc = load_and_clean(str(page))
        assert doc.source_id == "x"
        assert "GET https://h.example/api" in doc.text

    def test_plain_text_passthrough(self, tmp_path):
        page = tmp_path / "doc.txt"
        page.write_text("line one   spaced\n\nline two\n", encoding="utf-8")
        doc = load_and_clean(str(page))
        assert doc.text == "line one spaced\nline two"

    def test_missing_file(self):
        with pytest.raises(FetchFailed):
            load_and_clean("/definitely/not/here.html")

    def test_empty_document(self, tmp_path):
        page = tmp_path / "empty.html"
        page.write_text("<p>   </p>", encoding="utf-8")
        with pytest.raises(EmptyDocument):
            load_and_clean(str(page))

    def test_truncation_tail_dropped(self, tmp_path):
        page = tmp_path / "big.txt"
        page.write_text("keep this line\n" + "x" * 10_000, encoding="utf-8")
        doc = load_and_clean(str(page), max_text_bytes=100)
        assert doc.text.startswith("keep this line")
        assert len(doc.text.encode("utf-8")) <= 100

    def test_offline_blocks_remote_fetch(self):
        with pytest.raises(FetchFailed) as err:
            load_and_clean("https://example.invalid/docs", offline=True)
        assert isinstance(err.value.__cause__, OfflineViolation)

    def test_offline_allows_loopback(self, mock_api):
        doc = load_and_clean(f"{mock_api.base_url}/cards", offline=True)
        assert "Gardevoir" in doc.text

    def test_source_id_derivation(self, tmp_path):
        page = tmp_path / "My Page.HTML"
        page.write_text("content here", encoding="utf-8")
        assert load_and_clean(str(page)).source_id == "my_page"


class TestJudgeIntegration:
    def test_filter_api_pages(self, judge):
        api = ApiDocument("a", "o", "", "GET https://h.example/v1/cards\nRequired parameters: q")
        blog = ApiDocument("b", "o", "", "Ten reasons to love static sites.")
        assert filter_api_pages(api, judge) is True
        assert filter_api_pages(blog, judge) is False

    def test_classify_document_sets_fields(self, judge):
        doc = ApiDocument(
            "a", "o", "",
            "## Search\nGET https://h.example/v1/x\nRequired parameters:\n- q (string): text Example: hi",
        )
        category, analysis = classify_document(doc, judge)
        assert doc.category == category
        assert category in ("Fully Organized", "Semi-Organized", "Unorganized")
        assert len(analysis) <= 300


class TestCorpus:
    def test_manifest_round_trip(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"source_id": "one", "origin": "one.txt"},
            {"origin": "https://h.example/two.html"},
        ]))
        entries = load_corpus_manifest(manifest)
        assert entries[0] == {"source_id": "one", "origin": "one.txt"}
        assert entries[1]["source_id"] == "two"

    def test_manifest_errors(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(FetchFailed):
            load_corpus_manifest(bad)
        bad.write_text(json.dumps([{"source_id": "x"}]))
        with pytest.raises(FetchFailed):
            load_corpus_manifest(bad)

    def test_ingest_corpus_collects_failures(self, tmp_path, judge):
        good = tmp_path / "good.txt"
        good.write_text("GET https://h.example/v1/items\nRequired parameters: q")
        entries = [
            {"source_id": "good", "origin": str(good)},
            {"source_id": "gone", "origin": str(tmp_path / "gone.txt")},
        ]
        docs, decisions, failures = ingest_corpus(entries, judge, width=2)
        assert [d.source_id for d in docs] == ["good"]
        assert decisions[0]["is_api_page"] is True
        assert decisions[0]["judge_degraded"] is False
        assert failures[0]["source_id"] == "gone"

    def test_broken_judge_falls_back(self, tmp_path):
        class Broken:
            fallback = HeuristicJudge()

            def is_api_page(self, text):
                from apimill.errors import JudgeUnavailable
                raise JudgeUnavailable("down")

            classify_doc = is_api_page

        good = tmp_path / "good.txt"
        good.write_text("GET https://h.example/v1/items with parameter q")
        docs, decisions, _ = ingest_corpus(
            [{"source_id": "good", "origin": str(good)}], Broken()
        )
        assert len(docs) == 1
        assert decisions[0]["judge_degraded"] is True

    def test_ingest_corpus_waits_for_each_http_fetch(self, tmp_path, judge, mock_api):
        class Recording:
            def __init__(self):
                self.urls = []

            def acquire_for(self, url):
                self.urls.append(url)

        page = tmp_path / "local.txt"
        page.write_text("GET https://h.example/v1/items")
        urls = [f"{mock_api.base_url}/cards", f"{mock_api.base_url}/legacy"]
        entries = [{"source_id": "local", "origin": str(page)}] + [
            {"source_id": f"remote{i}", "origin": url} for i, url in enumerate(urls)
        ]
        limiter = Recording()
        docs, _, failures = ingest_corpus(entries, judge, width=2, offline=True,
                                          rate_limiter=limiter)
        assert sorted(limiter.urls) == sorted(urls)
        assert len(docs) == 3 and failures == []


class TestCleaningWorkers:
    def test_width_one_runs_in_process(self):
        assert run_cpu_pool(_item_and_pid, range(5), 1) == [(i, os.getpid()) for i in range(5)]
        with pytest.raises(ValueError, match="bad item 3"):
            run_cpu_pool(_fail_on_three, range(5), 1)

    @needs_fork
    def test_forks_only_from_a_single_threaded_process(self):
        out = run_fresh('''
            import json, os, threading
            from apimill.netutil import run_cpu_pool

            def item_and_pid(x):
                return x, os.getpid()

            def fail_on_seven(x):
                if x == 7:
                    raise ValueError(f"bad item {x}")
                return x

            forked = run_cpu_pool(item_and_pid, range(40), 2)
            try:
                run_cpu_pool(fail_on_seven, range(20), 2)
                raised = None
            except ValueError as exc:
                raised = str(exc)
            release = threading.Event()
            other = threading.Thread(target=release.wait, args=(60,))
            other.start()
            try:
                threaded = run_cpu_pool(item_and_pid, range(10), 2)
            finally:
                release.set()
                other.join(timeout=60)
            print(json.dumps({"pid": os.getpid(), "forked": forked, "raised": raised,
                              "threaded": threaded, "joined": not other.is_alive()}))
        ''')
        result = json.loads(out)
        assert [x for x, _ in result["forked"]] == list(range(40))
        worker_pids = {pid for _, pid in result["forked"]}
        assert result["pid"] not in worker_pids and len(worker_pids) <= 2
        assert result["raised"] == "bad item 7"
        assert result["threaded"] == [[i, result["pid"]] for i in range(10)]
        assert result["joined"]

    @needs_fork
    def test_ingest_corpus_same_at_width_one_and_two(self, tmp_path):
        pages = {
            "html": "<html><body><h1>Cards</h1><p>GET https://h.example/v1/cards"
                    "</p><script>x()</script><p>Required&nbsp;parameters: q</p></body></html>",
            "plain": "GET https://h.example/v1/items\r\n\n  Required   parameters:\tq\n",
            "empty": "<p>   </p>",
            "big": "GET https://h.example/v1/big\n" + "word " * 120_000,
        }
        entries = []
        for source_id, content in pages.items():
            (tmp_path / f"{source_id}.txt").write_text(content, encoding="utf-8")
            entries.append({"source_id": source_id, "origin": str(tmp_path / f"{source_id}.txt")})
        entries.insert(2, {"source_id": "missing", "origin": str(tmp_path / "missing.txt")})
        out = run_fresh('''
            import json, sys
            from apimill.ingest import ingest_corpus
            from apimill.judges import HeuristicJudge

            entries = json.loads(sys.argv[1])
            one = ingest_corpus(entries, HeuristicJudge(), width=1)
            two = ingest_corpus(entries, HeuristicJudge(), width=2)
            docs, decisions, failures = two
            print(json.dumps({
                "same": one == two,
                "texts": {d.source_id: d.text for d in docs if d.source_id != "big"},
                "big_bytes": [len(d.text.encode()) for d in docs if d.source_id == "big"],
                "decided": [d["source_id"] for d in decisions],
                "failed": [f["source_id"] for f in failures],
            }))
        ''', json.dumps(entries))
        result = json.loads(out)
        assert result["same"]
        assert result["texts"] == {
            "html": "Cards\nGET https://h.example/v1/cards\nRequired parameters: q",
            "plain": "GET https://h.example/v1/items\nRequired parameters: q",
        }
        assert result["big_bytes"] == [DEFAULT_TEXT_CAP]
        assert result["decided"] == ["html", "plain", "big"]
        assert result["failed"] == ["missing", "empty"]

    @needs_fork
    def test_run_cleans_pages_in_worker_processes(self, tmp_path):
        manifest = []
        for i in range(4):
            page = tmp_path / f"page{i}.html"
            page.write_text(f"<html><p>GET https://h.example/v1/items/{i}</p></html>")
            manifest.append({"source_id": f"page{i}", "origin": page.name})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus_manifest": "manifest.json", "output_dir": "out",
            "offline": True, "concurrency": 2,
        }))
        pids = tmp_path / "pids.txt"
        out = run_fresh('''
            import os, sys
            from apimill import cli, ingest

            dehtml = ingest.dehtml

            def recording_dehtml(markup):
                with open(sys.argv[2], "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\\n")
                return dehtml(markup)

            ingest.dehtml = recording_dehtml
            code = cli.main(["run", "--config", sys.argv[1], "--stage-filter", "ingest"])
            print(os.getpid(), code)
        ''', str(config), str(pids))
        parent, code = out.split()[-2:]
        cleaned_in = pids.read_text().split()
        assert code == "0" and len(cleaned_in) == 4
        assert parent not in cleaned_in
        assert (tmp_path / "out" / "docs" / "page3.txt").read_text() == (
            "GET https://h.example/v1/items/3"
        )

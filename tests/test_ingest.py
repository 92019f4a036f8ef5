import json

import pytest

from apimill.errors import EmptyDocument, FetchFailed, OfflineViolation
from apimill.ingest import (
    ApiDocument,
    classify_document,
    dehtml,
    filter_api_pages,
    ingest_corpus,
    load_and_clean,
    load_corpus_manifest,
)
from apimill.judges import HeuristicJudge


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

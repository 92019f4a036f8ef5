import html.parser
import json
import re
import time

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from apimill.errors import EmptyDocument, FetchFailed, OfflineViolation
from apimill.extract import HeuristicBackend, extract_spec
from apimill.ingest import (
    _BLOCK,
    _SKIPPED,
    DEFAULT_TEXT_CAP,
    _HSPACE,
    _collapse_lines,
    clean_text,
    dehtml,
    ingest_corpus,
    load_and_clean,
    load_corpus_manifest,
)
from apimill.judges import HeuristicJudge
from apimill.netutil import HttpPolicy


def ingest(entries, judge, **kwargs):
    """ingest_corpus's (decisions, failures), after the documents it hands to
    its writer, in manifest order."""
    kept = {}
    decisions, failures = ingest_corpus(
        entries, judge, lambda doc: kept.setdefault(doc.source_id, doc), **kwargs)
    return [kept[e["source_id"]] for e in entries if e["source_id"] in kept], decisions, failures


class _OracleExtractor(html.parser.HTMLParser):
    """dehtml as it was on html.parser, the oracle of the one-scan dehtml."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list = []
        self._skip_depth = 0
        self._anchor_hrefs: list = []
        self._anchor_texts: list = []

    def handle_starttag(self, tag, attrs):
        if tag in _SKIPPED:
            self._skip_depth += 1
            return
        if tag == "a" and not self._skip_depth:
            href = dict(attrs).get("href") or ""
            self._anchor_hrefs.append(href)
            self._anchor_texts.append([])
        if tag in _BLOCK:
            self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag in _SKIPPED:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "a" and self._anchor_hrefs and not self._skip_depth:
            href = self._anchor_hrefs.pop()
            text = "".join(self._anchor_texts.pop())
            if href.startswith(("http://", "https://")) and href not in text:
                self.parts.append(f" {href} ")
        if tag in _BLOCK:
            self.parts.append("\n")

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._anchor_texts:
            self._anchor_texts[-1].append(data)
        self.parts.append(data)


def oracle_dehtml(markup: str) -> str:
    parser = _OracleExtractor()
    parser.feed(markup)
    parser.close()
    return _collapse_lines("".join(parser.parts))


# broken markup, and what both dehtml and html.parser make of it (html.parser
# as of Python 3.11.7: newer releases changed how it ends broken markup)
BROKEN_MARKUP = [
    ("<a<a<a", "<a<a<a"),
    ("x <!-- never closed", "x <!-- never closed"),
    ('<p title="no end>text', '<p title="no end>text'),
    ("1 < 2 &amp; 3 > 2", "1 < 2 & 3 > 2"),
    ("<a\x00b>c", "<a\x00b>c"),
    ("<a&amp;\x00", "<a&amp;\x00"),
    ("<![CDATA[x]]>y", "y"),
    ("<!-->x", "<!-->x"),
    ("<script>never closed <p>x", ""),
    ("a</>b", "ab"),
    ("a<?php echo 1 ?>b", "ab"),
    ("<b>bold</b", "bold</b"),
    ("a &#65 &#x42; &#", "a A B &#"),
    ('<a href="https://x.y/">t</a', "t</a"),
    ("<p>a</p x>b", "a\nb"),
    ('<A HREF="https://x.y/Q">t</A>', "t https://x.y/Q"),
    ('<a href="&#104;ttps://x.y/">t</a>', "t https://x.y/"),
    ("<!DOCTYPE", "<!DOCTYPE"),
    ('<i x="', '<i x="'),
    ("a<", "a<"),
]


def _oracle_is_this_parser() -> bool:
    try:
        return all(oracle_dehtml(markup) == text for markup, text in BROKEN_MARKUP)
    except AssertionError:
        return False


needs_oracle_parser = pytest.mark.skipif(
    not _oracle_is_this_parser(),
    reason="this Python's html.parser ends broken markup by newer rules than dehtml keeps",
)


def _unfinished_tag_read_differently(markup: str) -> bool:
    """Some start tag's markup runs past the next `>`, or it holds or is
    followed by a NUL and there is an entity and no `>` after it: where
    html.parser finds that tag unfinished, dehtml's text runs to where the
    markup stops, and the two may differ (conservative: any `<letter`
    counts)."""
    for m in re.finditer("<[a-zA-Z]", markup):
        stop = html.parser.locatestarttagend_tolerant.match(markup, m.start()).end()
        gt = markup.find(">", m.start() + 1)
        if 0 <= gt < stop - 1 or gt < 0 and "\x00" in markup[m.start():stop + 1] and "&" in markup:
            return True
    return False


_TEXT = st.text(st.sampled_from(list("ab é<>&;#x1\"'=/ \t\n\xa0")), max_size=8).map(
    lambda t: t.replace("<", "&lt;").replace(">", "&gt;")
)
_ENTITY = st.sampled_from(["&amp;", "&lt;", "&gt;", "&#65;", "&#x42;", "&nbsp;", "&copy", "&amp;lt;", "&"])
_QUOTED = ["https://api.example/v1", "https://h.example/a?b=1&amp;c=2", "http://x.example/",
           "&#104;ttps://e.example/", "/local", "x>y", ""]
# html.parser ends a tag name only at [\t\n\r\f ], but separates attributes
# at any whitespace; "" puts an attribute right after a closing quote
_SEPARATOR = st.sampled_from([" ", "\n", "  ", "\t", "\r", "\f", "\x0b", "\x1c", "\x85", "\u3000", ""])
_ATTR = st.tuples(
    _SEPARATOR,
    st.sampled_from(["href", "HREF", "class", "data-x"]),
    st.sampled_from(['"{}"'.format(v) for v in _QUOTED + ["it's"]] + ["'{}'".format(v) for v in _QUOTED]
                    + ["https://api.example/v2", "/local", "v&amp;w"]),
).map(lambda a: f"{a[0]}{a[1]}={a[2]}")
_TAG_NAME = st.sampled_from(["p", "div", "a", "A", "span", "b", "li", "ul", "h1", "br", "title", "code",
                             "pre", "noscript", "template", "script", "style", "table", "tr", "custom-el",
                             "P", "Div", "pRe", "LI", "H1", "Br", "TiTle", "SCRIPT", "sTyle", "NoScript"])


def _element(children):
    return st.tuples(_TAG_NAME, st.lists(_ATTR, max_size=3), _SEPARATOR, children, st.booleans()).map(
        lambda e: (f"<{e[0]}{''.join(e[1])}{e[2]}/>" if e[4] and not e[3] else
                   f"<{e[0]}{''.join(e[1])}{e[2]}>{e[3]}</{e[0]}>")
    )


_WELL_FORMED = st.recursive(
    st.one_of(_TEXT, _ENTITY, st.just("<!-- a comment -->"), st.just("<!DOCTYPE html>")),
    lambda children: st.one_of(_element(st.lists(children, max_size=4).map("".join)),
                               st.lists(children, max_size=4).map("".join)),
    max_leaves=20,
)
_BROKEN_PIECE = st.sampled_from([
    "<", "</", "<!", "<?", "&#", "&#x", "<a", "<b ", '<i x="', "<a href='", "<!--", "-->", "--",
    '"', "'", ">", "=", "/", "\x00", "<!doctype", "<![CDATA[", "]]>", "</a", "<p", "</ p>", "<a\x00",
    "<1", "</>", "<a b=c/>", "<a b==c>", "\x0b", "\u3000", "<ſcript>", "</script>", "</noscript>",
])
_MALFORMED = st.lists(st.one_of(_BROKEN_PIECE, _WELL_FORMED), max_size=12).map("".join)


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

    def test_http_and_encoded_hrefs_kept(self):
        text = dehtml('<a href="http://api.example/v1">a</a> <a href="&#104;ttps://b.example/">b</a>')
        assert text == "a http://api.example/v1 b https://b.example/"

    def test_href_not_duplicated(self):
        text = dehtml('<a href="https://api.example/v1">https://api.example/v1</a>')
        assert text.count("https://api.example/v1") == 1

    def test_relative_href_ignored(self):
        text = dehtml('<a href="/local">here</a>')
        assert "/local" not in text

    @pytest.mark.parametrize("space", ["\x0b", "\x1c", "\x85", "\u3000"])
    def test_tag_name_runs_on_across_other_whitespace(self, space):
        # html.parser reads the name `p\x0bclass="y"`, which is no block tag
        assert dehtml(f'x<p{space}class="y">a</p>b') == "xa\nb"

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

    @given(st.text(alphabet=" \t\r\n\f\v\xa0\u2003ab"))
    def test_hspace_rewrites_as_the_plain_run_pattern(self, text):
        # the pattern that rewrote every run, single spaces included
        assert _HSPACE.sub(" ", text) == re.sub("[ \t\r\f\v\xa0]+", " ", text)

    def test_pokemon_page(self, pokemon_html):
        text = dehtml(pokemon_html)
        assert "GET https://api.pokemontcg.io/v2/cards?q=name:gardevoir" in text
        assert "window.analytics" not in text
        assert "Pokémon TCG API Documentation" in text

    @needs_oracle_parser
    @settings(max_examples=200, deadline=None)
    @given(_WELL_FORMED)
    def test_matches_html_parser_on_well_formed_markup(self, markup):
        assert dehtml(markup) == oracle_dehtml(markup)

    @needs_oracle_parser
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(_MALFORMED)
    @example("<<a&amp;<a\x00")  # the tag's match stops just before the NUL
    def test_matches_html_parser_on_broken_markup(self, markup):
        try:
            expected = oracle_dehtml(markup)
        except AssertionError:  # html.parser gives up on some `<![`; see below
            assume(False)
        assume(not _unfinished_tag_read_differently(markup))
        assert dehtml(markup) == expected

    @pytest.mark.parametrize("markup, text", BROKEN_MARKUP)
    def test_broken_markup(self, markup, text):
        assert dehtml(markup) == text

    @pytest.mark.parametrize("markup, text", [
        # html.parser: '<a b="x>' text, then <p> ends the line
        ('<a b="x><p>y" c', '<a b="x><p>y" c'),
        # html.parser: '<c&amp;' left as it is, before the NUL
        ("<a b <c&amp;\x00 d", "<a b <c&\x00 d"),
        ("<<a&amp;<a\x00", "<<a&<a\x00"),
        # html.parser raises AssertionError on these
        ("a<![x]>b", "ab"),
        ("a<![ x]>b", "ab"),
    ])
    def test_broken_markup_unlike_html_parser(self, markup, text):
        assert dehtml(markup) == text

    def test_hostile_page_is_fast(self):
        started = time.perf_counter()
        text = dehtml("<a" * 50_000)
        assert time.perf_counter() - started < 1.0
        assert text == "<a" * 50_000

    @pytest.mark.parametrize("unit", ["<a", "<a b ", '<a b="', "<!--", "<!-- x>", "</a", "<?",
                                      '<a d="y>" e=', '<a x=">" ', "<a\x00",
                                      '<p a="b" c="', "<p a=b", "<li><a x "])
    def test_unfinished_markup_costs_linear_time(self, unit):
        # 400 KB: a quadratic scan takes tens of seconds or more, a linear one
        # about a third of a second
        for markup in (unit * (400_000 // len(unit)),
                       "<p>GET /v1</p>" * 20_000 + unit + "x" * 100_000):
            started = time.perf_counter()
            dehtml(markup)
            assert time.perf_counter() - started < 3.0, unit


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

    def test_truncation_tail_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr("apimill.ingest.DEFAULT_TEXT_CAP", 100)
        page = tmp_path / "big.txt"
        page.write_text("keep this line\n" + "x" * 10_000, encoding="utf-8")
        doc = load_and_clean(str(page))
        assert doc.text.startswith("keep this line")
        assert len(doc.text.encode("utf-8")) <= 100

    def test_offline_blocks_remote_fetch(self):
        with pytest.raises(FetchFailed) as err:
            load_and_clean("https://example.invalid/docs", http=HttpPolicy(offline=True))
        assert isinstance(err.value.__cause__, OfflineViolation)

    def test_offline_allows_loopback(self, mock_api):
        doc = load_and_clean(f"{mock_api.base_url}/cards", http=HttpPolicy(offline=True))
        assert "Gardevoir" in doc.text

    def test_source_id_derivation(self, tmp_path):
        page = tmp_path / "My Page.HTML"
        page.write_text("content here", encoding="utf-8")
        assert load_and_clean(str(page)).source_id == "my_page"


class TestJudgeIntegration:
    def test_filter_api_pages(self, tmp_path, judge):
        (tmp_path / "api.txt").write_text("GET https://h.example/v1/cards\nRequired parameters: q")
        (tmp_path / "blog.txt").write_text("Ten reasons to love static sites.")
        entries = [{"source_id": sid, "origin": str(tmp_path / f"{sid}.txt")} for sid in ("api", "blog")]
        _, decisions, _ = ingest(entries, judge, width=1)
        assert [d["is_api_page"] for d in decisions] == [True, False]

    def test_classify_document_sets_fields(self, tmp_path, judge):
        page = tmp_path / "a.txt"
        page.write_text(
            "## Search\nGET https://h.example/v1/x\nRequired parameters:\n- q (string): text Example: hi"
        )
        (doc,), (decision,), _ = ingest([{"source_id": "a", "origin": str(page)}], judge)
        category, analysis = decision["category"], decision["analysis"]
        assert doc.source_id == decision["source_id"] == "a"
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
        bad.write_text('[{"origin": "a.txt"')
        with pytest.raises(FetchFailed, match="not JSON"):
            load_corpus_manifest(bad)

    def test_ingest_corpus_collects_failures(self, tmp_path, judge):
        good = tmp_path / "good.txt"
        good.write_text("GET https://h.example/v1/items\nRequired parameters: q")
        entries = [
            {"source_id": "good", "origin": str(good)},
            {"source_id": "gone", "origin": str(tmp_path / "gone.txt")},
        ]
        docs, decisions, failures = ingest(entries, judge, width=2)
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
        docs, decisions, _ = ingest([{"source_id": "good", "origin": str(good)}], Broken())
        assert len(docs) == 1
        assert decisions[0]["judge_degraded"] is True

    def test_ingest_corpus_waits_for_each_http_fetch(self, tmp_path, judge, mock_api):
        class Recording:
            def __init__(self):
                self.hosts = []

            def acquire(self, host):
                self.hosts.append(host)

        page = tmp_path / "local.txt"
        page.write_text("GET https://h.example/v1/items")
        urls = [f"{mock_api.base_url}/cards", f"{mock_api.base_url}/legacy"]
        entries = [{"source_id": "local", "origin": str(page)}] + [
            {"source_id": f"remote{i}", "origin": url} for i, url in enumerate(urls)
        ]
        limiter = Recording()
        docs, _, failures = ingest(entries, judge, width=2,
                                   http=HttpPolicy(offline=True, limiter=limiter))
        assert limiter.hosts == ["127.0.0.1"] * len(urls)
        assert len(docs) == 3 and failures == []


    @pytest.mark.parametrize("entries", [
        [{"source_id": "same", "origin": "a.txt"}, {"source_id": "same", "origin": "b.txt"}],
        [{"origin": "x/one.txt"}, {"origin": "y/one.txt"}],
        [{"source_id": "", "origin": "a.txt"}],
        [{"source_id": "../escaped", "origin": "a.txt"}],
        [{"source_id": "a/b", "origin": "a.txt"}],
        [{"source_id": "a\\b", "origin": "a.txt"}],
        [{"source_id": 7, "origin": "a.txt"}],
    ])
    def test_manifest_rejects_repeated_or_unsafe_source_ids(self, tmp_path, entries):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        with pytest.raises(FetchFailed, match="source_id"):
            load_corpus_manifest(manifest)

    def test_placeholder_in_plain_text_is_kept(self, tmp_path, judge):
        page = tmp_path / "cards.txt"
        page.write_text("## Get card\nGET https://api.example.com/v2/cards/<card_id>\n")
        (doc,), _, _ = ingest([{"source_id": "cards", "origin": str(page)}], judge)
        assert doc.text == "## Get card\nGET https://api.example.com/v2/cards/<card_id>"
        result = extract_spec(doc, HeuristicBackend())
        assert result.spec.endpoints[0].url == "https://api.example.com/v2/cards/<card_id>"

    @pytest.mark.parametrize("page", [
        "<!DOCTYPE html><p>x</p>", "<html><body>x</body></html>", "<p>x", "x</b>",
        "<div class='a'>x</div>", "<!-- note -->x", "<BR/>x", "<a href='https://h.example/'>x</a>",
    ])
    def test_markup_is_still_cleaned(self, page):
        assert clean_text(page) == dehtml(page)


class TestCleaningWorkers:
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
        one = ingest(entries, HeuristicJudge(), width=1)
        two = ingest(entries, HeuristicJudge(), width=2)
        assert one == two
        docs, decisions, failures = two
        assert {d.source_id: d.text for d in docs if d.source_id != "big"} == {
            "html": "Cards\nGET https://h.example/v1/cards\nRequired parameters: q",
            "plain": "GET https://h.example/v1/items\nRequired parameters: q",
        }
        assert [len(d.text.encode()) for d in docs if d.source_id == "big"] == [DEFAULT_TEXT_CAP]
        assert [d["source_id"] for d in decisions] == ["html", "plain", "big"]
        assert [f["source_id"] for f in failures] == ["missing", "empty"]

import math
import random
import zlib

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apimill import embedding
from apimill.embedding import LexicalEmbedding, RemoteEmbedding, cosine_similarity
from apimill.errors import DimensionMismatch, EmbeddingUnavailable, EmptyCorpus
from apimill.evaluate import (
    MetricsReport,
    canonical_type,
    compute_metrics,
    match_endpoints,
)
from apimill.extract import ExtractionResult
from apimill.model import ApiSpec, Endpoint, Parameter
from apimill.remote import RemoteConfig
from apimill.toolgen import export_openapi, generate_tool


def ep(name, url, method="GET", required=(), optional=(), description=None):
    return Endpoint(
        name=name,
        method=method,
        url=url,
        description=description,
        required_parameters=[Parameter(name=n) if isinstance(n, str) else n for n in required],
        optional_parameters=[Parameter(name=n) if isinstance(n, str) else n for n in optional],
    )


def result(source_id, spec):
    return ExtractionResult(source_id=source_id, raw_output="", spec=spec)


class TestCosine:
    def test_identity_orthogonality_scale(self):
        v = np.array([1.0, 2.0, 3.0])
        assert abs(cosine_similarity(v, v) - 1.0) < 1e-12
        a, b = np.array([1.0, 0.0]), np.array([0.0, 5.0])
        assert cosine_similarity(a, b) == 0.0
        assert abs(cosine_similarity(v, 17.3 * v) - 1.0) < 1e-12

    def test_zero_vector_is_zero_similarity(self):
        z = np.zeros(3)
        assert cosine_similarity(z, np.array([1.0, 1.0, 1.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity(np.ones(3), np.ones(4))


class TestLexicalEmbedding:
    def test_shape_and_determinism(self, emb):
        vecs = emb.embed(["hello world", "hello world"])
        assert len(vecs) == 2
        assert [len(v) for v in vecs] == [256, 256]
        assert np.array_equal(vecs[0], vecs[1])
        assert np.array_equal(vecs[0], LexicalEmbedding().embed_one("hello world"))

    def test_each_distinct_text_embedded_once(self, monkeypatch):
        emb = LexicalEmbedding()
        seen = []
        embed_one = emb.embed_one
        monkeypatch.setattr(emb, "embed_one", lambda t: seen.append(t) or embed_one(t))
        vecs = emb.embed(["b", "a", "b", "b"])
        assert seen == ["b", "a"]
        for text, row in zip(["b", "a", "b", "b"], vecs):
            assert np.array_equal(row, embed_one(text))

    def test_second_call_computes_only_new_texts(self, monkeypatch):
        emb = LexicalEmbedding()
        seen = []
        embed_one = emb.embed_one
        monkeypatch.setattr(emb, "embed_one", lambda t: seen.append(t) or embed_one(t))
        first = emb.embed(["a", "b"])
        second = emb.embed(["c", "b", "a", "c"])
        assert seen == ["a", "b", "c"]
        assert second[1] is first[1] and second[2] is first[0]

    def test_unit_norm(self, emb):
        v = emb.embed_one("some text")
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-9

    def test_empty_is_zero_vector(self, emb):
        assert float(np.linalg.norm(emb.embed_one(""))) == 0.0

    def test_case_insensitive(self, emb):
        assert np.array_equal(emb.embed_one("Search Cards"), emb.embed_one("search cards"))

    def test_similar_strings_score_higher(self, emb):
        base = emb.embed_one("search cards")
        close = cosine_similarity(base, emb.embed_one("search card"))
        far = cosine_similarity(base, emb.embed_one("delete account"))
        assert close > far

    def test_short_string_whole_gram(self, emb):
        v = emb.embed_one("ab")
        assert float(np.linalg.norm(v)) == pytest.approx(1.0)


def numpy_lexical(text, d=256):
    """The lexical embedding as numpy computes it: counts at crc32 % d of each
    trigram (or of the whole text when shorter), divided by their norm."""
    s = text.lower()
    grams = [s[i : i + 3] for i in range(len(s) - 2)] if len(s) >= 3 else [s] if s else []
    v = np.zeros(d)
    for gram in grams:
        v[zlib.crc32(gram.encode("utf-8")) % d] += 1.0
    norm = np.linalg.norm(v)
    if norm > 0.0:
        v /= norm
    return v


# "", one- and two-character texts and non-ASCII letters, next to longer ones
short_or_any_text = st.one_of(st.text(max_size=2), st.text(alphabet="aAbé日 -_", max_size=12),
                              st.text())


class TestMatchesNumpy:
    """The standard-library vectors and cosines against numpy's: the vector
    bytes are the ones `kb/vectors.jsonl` holds."""

    @settings(max_examples=300, deadline=None)
    @given(short_or_any_text)
    @example("")
    @example("a")
    @example("Zé")
    @example("search cards")
    def test_lexical_vector_is_bit_identical(self, text):
        assert LexicalEmbedding().embed_one(text).tobytes() == numpy_lexical(text).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(short_or_any_text, short_or_any_text)
    @example("", "ab")
    @example("search cards", "search card")
    def test_cosine_within_1e_12(self, text_a, text_b):
        a, b = numpy_lexical(text_a), numpy_lexical(text_b)
        got = cosine_similarity(LexicalEmbedding().embed_one(text_a),
                                LexicalEmbedding().embed_one(text_b))
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(got - (np.dot(a, b) / denom if denom else 0.0)) <= 1e-12


class TestRemoteEmbedding:
    def make(self, monkeypatch, reply):
        monkeypatch.setattr(embedding, "BATCH_SIZE", 2)
        emb = RemoteEmbedding(RemoteConfig(endpoint_url="http://127.0.0.1:9/v1", model_name="m"))
        posted = []
        monkeypatch.setattr(emb, "_post_batch", lambda batch: posted.append(batch) or reply(batch))
        return emb, posted

    def test_each_distinct_text_sent_once(self, monkeypatch):
        emb, posted = self.make(monkeypatch, lambda batch: [[float(len(t)), 1.0] for t in batch])
        vecs = emb.embed(["aa", "b", "aa", "ccc", "b"])
        assert posted == [["aa", "b"], ["ccc"]]
        assert [v[0] for v in vecs] == [2.0, 1.0, 2.0, 3.0, 1.0]

    def test_second_call_sends_only_new_texts(self, monkeypatch):
        emb, posted = self.make(monkeypatch, lambda batch: [[float(len(t)), 1.0] for t in batch])
        emb.embed(["aa", "b"])
        vecs = emb.embed(["ccc", "b", "aa", "dddd", "ccc"])
        assert posted == [["aa", "b"], ["ccc", "dddd"]]
        assert [v[0] for v in vecs] == [3.0, 1.0, 2.0, 4.0, 3.0]
        emb.embed(["dddd", "aa"])
        assert len(posted) == 2

    def test_rejected_reply_keeps_no_row(self, monkeypatch):
        # the first batch is sound, the second is not: no row of either is kept
        replies = iter([[[1.0, 2.0], [3.0, 4.0]], [["x"]], [[5.0, 6.0]]])
        emb, posted = self.make(monkeypatch, lambda batch: next(replies))
        with pytest.raises(EmbeddingUnavailable):
            emb.embed(["a", "b", "c"])
        assert [row.tolist() for row in emb.embed(["a"])] == [[5.0, 6.0]]
        assert posted == [["a", "b"], ["c"], ["a"]]

    def test_missing_rows_rejected(self, monkeypatch):
        emb, _ = self.make(monkeypatch, lambda batch: [[1.0, 1.0]])
        with pytest.raises(EmbeddingUnavailable):
            emb.embed(["a", "b"])

    def test_ragged_rows_rejected(self, monkeypatch):
        emb, _ = self.make(monkeypatch, lambda batch: [[1.0, 2.0], [1.0]])
        with pytest.raises(DimensionMismatch):
            emb.embed(["a", "b"])
        assert emb.dimension is None  # a rejected response teaches no width

    @pytest.mark.parametrize(
        "entry", ["x", None, math.nan, math.inf, -math.inf, True, 10**400],
        ids=["string", "null", "nan", "inf", "-inf", "bool", "beyond-float"],
    )
    def test_non_number_entry_rejected(self, monkeypatch, entry):
        emb, _ = self.make(monkeypatch, lambda batch: [[1.0, 2.0], [1.0, entry]])
        with pytest.raises(EmbeddingUnavailable, match="malformed response"):
            emb.embed(["a", "b"])

    def test_row_that_is_not_a_list_rejected(self, monkeypatch):
        emb, _ = self.make(monkeypatch, lambda batch: ["1.0"])
        with pytest.raises(EmbeddingUnavailable, match="malformed response"):
            emb.embed(["a"])

    def test_rows_are_float_arrays(self, monkeypatch):
        emb, _ = self.make(monkeypatch, lambda batch: [[1, 2.5]])
        (row,) = emb.embed(["a"])
        assert row.typecode == "d" and row.tolist() == [1.0, 2.5]

    def test_metrics_post_each_distinct_text_once(self, monkeypatch, emb):
        remote, posted = self.make(monkeypatch,
                                   lambda batch: [emb.embed_one(t).tolist() for t in batch])
        search = ep("Search Cards", "https://h.example/cards", description="Find cards.",
                    required=[Parameter(name="q", description="Query text.")])
        get = ep("Get Card", "https://h.example/cards/{id}", description="One card.")
        truth = {"a": ApiSpec(endpoints=[search]), "b": ApiSpec(endpoints=[search, get])}
        renamed = ep("Search All Cards", "https://h.example/cards", description="Find cards.",
                     required=[Parameter(name="q")])
        results = [result("a", ApiSpec(endpoints=[renamed])), result("b", truth["b"])]
        report = compute_metrics(results, truth, remote)
        sent = [text for batch in posted for text in batch]
        assert sorted(sent) == sorted(
            {"Search Cards", "Search All Cards", "Get Card", "Find cards.", "One card.",
             "Query text.", ""})
        assert report.to_dict() == compute_metrics(results, truth, emb).to_dict()


class TestCanonicalType:
    @pytest.mark.parametrize(
        "given_label,expected",
        [
            ("string", "string"), ("str", "string"), ("STR", "string"),
            ("integer", "integer"), ("int", "integer"),
            ("number", "number"), ("float", "number"), ("double", "number"),
            ("boolean", "boolean"), ("bool", "boolean"),
            ("enum", "enum"), ("UUID", "uuid"),
            (None, None),
        ],
    )
    def test_families(self, given_label, expected):
        assert canonical_type(given_label) == expected
        tool = generate_tool(
            ep("E", "https://h.example/v1/e", required=[Parameter(name="p", type_hint=given_label)]),
            "s",
        )
        operation = yaml.safe_load(export_openapi([tool]))["paths"]["/v1/e"]["get"]
        openapi_types = ("string", "integer", "number", "boolean")
        assert operation["parameters"][0]["schema"]["type"] == (
            expected if expected in openapi_types else "string"
        )


class TestMatchEndpoints:
    @pytest.fixture
    def names(self, emb):
        """Endpoint-name similarity over the lexical embedder."""
        return lambda a, b: cosine_similarity(emb.embed_one(a), emb.embed_one(b))

    def test_template_equality_beats_name(self, names):
        pred = ApiSpec(endpoints=[ep("Totally Different Label", "https://h.example/v1/cards")])
        truth = ApiSpec(endpoints=[ep("Search Cards", "https://h.example/v1/cards")])
        assert match_endpoints(pred, truth, names) == [(0, 0)]

    def test_template_match_ignores_placeholder_names(self, names):
        pred = ApiSpec(endpoints=[ep("A", "https://h.example/users/{uid}")])
        truth = ApiSpec(endpoints=[ep("B", "https://h.example/users/:user_id")])
        assert match_endpoints(pred, truth, names) == [(0, 0)]

    def test_name_similarity_fallback(self, names):
        pred = ApiSpec(endpoints=[ep("Search Cards", "https://h.example/a")])
        truth = ApiSpec(endpoints=[ep("Search Cards", "https://other.example/b")])
        assert match_endpoints(pred, truth, names) == [(0, 0)]

    def test_dissimilar_names_no_match(self, names):
        pred = ApiSpec(endpoints=[ep("Completely Unrelated", "https://h.example/a")])
        truth = ApiSpec(endpoints=[ep("Search Cards", "https://other.example/b")])
        assert match_endpoints(pred, truth, names) == []

    def test_one_to_one(self, names):
        pred = ApiSpec(endpoints=[
            ep("Search Cards", "https://h.example/cards"),
            ep("Search Cards Again", "https://h.example/cards"),
        ])
        truth = ApiSpec(endpoints=[ep("Search Cards", "https://h.example/cards")])
        pairs = match_endpoints(pred, truth, names)
        assert len(pairs) == 1

    def test_empty_specs(self, names):
        assert match_endpoints(ApiSpec(endpoints=[]), ApiSpec(endpoints=[]), names) == []


def brute_force_param_counts(pred_truth_pairs):
    """Set-arithmetic oracle for micro precision/recall."""
    tp = pred_total = truth_total = 0
    for pred_ep, truth_ep in pred_truth_pairs:
        pred_names = {p.name for p in pred_ep.all_parameters()}
        truth_names = {p.name for p in truth_ep.all_parameters()}
        tp += len(pred_names & truth_names)
        pred_total += len(pred_names)
        truth_total += len(truth_names)
    precision = tp / pred_total if pred_total else 1.0
    recall = tp / truth_total if truth_total else 1.0
    return precision, recall


class TestComputeMetrics:
    def test_perfect_extraction(self, emb):
        spec = ApiSpec(endpoints=[
            ep("Search Cards", "https://h.example/cards", required=["q"],
               description="Find cards.")
        ])
        report = compute_metrics([result("s", spec)], {"s": spec}, emb)
        assert report.valid_ratio == 1.0
        assert report.matched_endpoints == 1
        assert report.name_similarity == pytest.approx(1.0)
        assert report.description_similarity == pytest.approx(1.0)
        assert report.method_accuracy == 1.0
        assert report.param_precision == 1.0 and report.param_recall == 1.0

    def test_param_precision_recall_arithmetic(self, emb):
        pred = ApiSpec(endpoints=[
            ep("Search", "https://h.example/x", required=["a", "b", "extra"])
        ])
        truth = ApiSpec(endpoints=[
            ep("Search", "https://h.example/x", required=["a", "b"], optional=["missing"])
        ])
        report = compute_metrics([result("s", pred)], {"s": truth}, emb)
        assert report.param_precision == pytest.approx(2 / 3)
        assert report.param_recall == pytest.approx(2 / 3)

    def test_valid_ratio_counts_failures(self, emb):
        spec = ApiSpec(endpoints=[ep("E", "https://h.example/x")])
        results = [result("a", spec), result("b", None)]
        report = compute_metrics(results, {"a": spec}, emb)
        assert report.valid_ratio == 0.5

    def test_wrong_method_counted(self, emb):
        pred = ApiSpec(endpoints=[ep("E", "https://h.example/x", method="POST")])
        truth = ApiSpec(endpoints=[ep("E", "https://h.example/x", method="GET")])
        # same template key regardless of method? template key includes method,
        # so this pairs by name similarity instead
        report = compute_metrics([result("s", pred)], {"s": truth}, emb)
        assert report.matched_endpoints == 1
        assert report.method_accuracy == 0.0

    def test_type_accuracy_family_collapse(self, emb):
        pred = ApiSpec(endpoints=[ep(
            "E", "https://h.example/x",
            required=[Parameter(name="a", type_hint="str"), Parameter(name="b", type_hint="float")],
        )])
        truth = ApiSpec(endpoints=[ep(
            "E", "https://h.example/x",
            required=[Parameter(name="a", type_hint="string"), Parameter(name="b", type_hint="integer")],
        )])
        report = compute_metrics([result("s", pred)], {"s": truth}, emb)
        assert report.type_accuracy == pytest.approx(0.5)

    def test_truth_without_description_skipped(self, emb):
        pred = ApiSpec(endpoints=[ep("E", "https://h.example/x", description="anything")])
        truth = ApiSpec(endpoints=[ep("E", "https://h.example/x")])
        report = compute_metrics([result("s", pred)], {"s": truth}, emb)
        assert report.description_similarity == 0.0  # nothing scored

    def test_no_results_raises(self, emb):
        with pytest.raises(EmptyCorpus):
            compute_metrics([], {}, emb)

    def test_order_invariance(self, emb):
        specs = {
            f"s{i}": ApiSpec(endpoints=[ep(f"Endpoint {i}", f"https://h.example/{i}", required=["a"])])
            for i in range(5)
        }
        results = [result(sid, spec) for sid, spec in specs.items()]
        fwd = compute_metrics(results, specs, emb).to_dict()
        rev = compute_metrics(list(reversed(results)), specs, emb).to_dict()
        assert fwd == rev

    def test_each_distinct_text_embedded_once(self, emb):
        class Counting:  # no embed_one: matching and scoring embed in batches
            texts = 0

            def embed(self, texts):
                Counting.texts += len(texts)
                return emb.embed(texts)

        spec = ApiSpec(endpoints=[
            ep("Search Cards", "https://h.example/cards", description="Find cards.",
               required=[Parameter(name="q", description="Query text.")]),
            ep("Get Card", "https://h.example/cards/{id}", description="One card.",
               required=[Parameter(name="id", description="Card id.")]),
        ])
        specs = {f"s{i}": spec for i in range(3)}
        results = [result(sid, s) for sid, s in specs.items()]
        counted = compute_metrics(results, specs, Counting()).to_dict()
        # two names, two descriptions and two parameter descriptions, each on
        # both sides of three sources, matched and scored
        assert Counting.texts == 6
        assert counted == compute_metrics(results, specs, emb).to_dict()

    def test_text_table_shape(self, emb):
        spec = ApiSpec(endpoints=[ep("E", "https://h.example/x")])
        table = compute_metrics([result("s", spec)], {"s": spec}, emb).to_text_table()
        lines = table.splitlines()
        assert len(lines) == 3
        assert "Param Precision" in lines[0]

    def test_randomized_pairs_match_oracle(self, emb):
        rng = random.Random(7)
        names = [f"p{i}" for i in range(8)]
        for trial in range(200):
            k = rng.randint(1, 3)
            pred_eps, truth_eps, pairs = [], [], []
            for j in range(k):
                pred_names = rng.sample(names, rng.randint(0, 5))
                truth_names = rng.sample(names, rng.randint(0, 5))
                url = f"https://h.example/r{trial}/{j}"
                p = ep(f"Endpoint {j}", url, required=pred_names)
                t = ep(f"Endpoint {j}", url, required=truth_names)
                pred_eps.append(p)
                truth_eps.append(t)
                pairs.append((p, t))
            report = compute_metrics(
                [result("s", ApiSpec(endpoints=pred_eps))],
                {"s": ApiSpec(endpoints=truth_eps)},
                emb,
            )
            want_p, want_r = brute_force_param_counts(pairs)
            assert math.isclose(report.param_precision, want_p, abs_tol=0), trial
            assert math.isclose(report.param_recall, want_r, abs_tol=0), trial


@given(st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_report_serializes(x):
    r = MetricsReport(
        valid_ratio=1.0, matched_endpoints=0, name_similarity=x,
        description_similarity=0, method_accuracy=0, param_precision=1,
        param_recall=1, param_description_similarity=0, type_accuracy=0,
    )
    assert "valid_ratio" in r.to_dict()

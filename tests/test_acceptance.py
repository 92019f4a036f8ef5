"""Acceptance gate: eight checks, one printed verdict line each.

Run as part of the normal suite; verdict lines bypass capture so they are
visible in plain `pytest -v` output.
"""

import itertools
import json
import math
import random
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

from apimill.cli import main
from apimill.embedding import cosine_similarity
from apimill.evaluate import compute_metrics
from apimill.extract import ExtractionResult, ReplayBackend, extract_spec
from apimill.inference import (
    Candidate,
    ParameterKbEntry,
    build_kb,
    leave_one_api_out,
    rank_combinations,
    retrieve_candidates,
)
from apimill.ingest import ApiDocument, dehtml
from apimill.model import ApiSpec, Endpoint, Parameter, validate_spec
from apimill.synthetic import build_corpus
from apimill.toolgen import export_function_source, generate_tool, generate_tools_for_spec, parse_url_template
from apimill.netutil import HostRateLimiter, HttpPolicy
from apimill.validate import (
    ErrorType,
    build_request,
    decode_component,
    decode_to_bytes,
    encode_bytes,
    encode_component,
    estimate_causes,
    run_validation,
)
from conftest import DATA_DIR, make_config


@pytest.fixture()
def verdict(capsys):
    @contextmanager
    def announce(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number} ({label}): PASS")

    return announce


def _causes_tuple(mep, mbu, fv, ar, npv, wpv):
    estimate = estimate_causes({
        ErrorType.MISSING_ENDPOINT_PATH: mep,
        ErrorType.MISSING_BASE_URL: mbu,
        ErrorType.FAILED: fv,
        ErrorType.ABNORMAL: ar,
        ErrorType.NO_PARAM_VALUE: npv,
        ErrorType.WRONG_PARAM_VALUE: wpv,
    })
    return (
        estimate.missing_doc_details,
        estimate.incorrect_url_path,
        estimate.incorrect_param_values,
        estimate.server_side,
    )


def test_criterion_1_cause_estimation_fidelity(verdict):
    with verdict(1, "cause estimation fidelity"):
        _causes_tuple(0, 0, 0, 0, 0, 0)  # warm up imports/dispatch
        started = time.perf_counter()
        first = _causes_tuple(0, 4, 9, 23, 14, 10)
        second = _causes_tuple(0, 1, 4, 5, 0, 1)
        elapsed = time.perf_counter() - started
        assert first == ((0, 18), (0, 4), (19, 56), (0, 32))
        assert second == ((0, 1), (0, 1), (5, 10), (0, 9))
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_criterion_2_golden_extraction_round_trip(verdict):
    with verdict(2, "golden extraction round trip"):
        page = (DATA_DIR / "pokemon.html").read_text(encoding="utf-8")
        recorded = (DATA_DIR / "pokemon.spec.json").read_text(encoding="utf-8")
        doc = ApiDocument(source_id="pokemon", origin="", raw=page, text=dehtml(page))

        result = extract_spec(doc, ReplayBackend({"pokemon": recorded}))
        assert result.valid

        want, violations = validate_spec(json.loads(recorded))
        assert violations == []
        assert result.spec.to_dict() == want.to_dict()

        (endpoint,) = result.spec.endpoints
        tool = generate_tool(endpoint, "pokemon")
        assert tool.tool_name == "search_cards"
        (q,) = tool.args
        assert q.required and q.location == "query"
        assert q.example_value == "name:gardevoir"

        source = export_function_source(tool)
        assert "Missing required parameter: q" in source
        assert "timeout=50" in source


def test_criterion_3_url_template_suite(verdict):
    with verdict(3, "url template suite"):
        canonicals = {
            parse_url_template(url).canonical()
            for url in (
                "https://a.example/users/{id}/posts",
                "https://a.example/users/:id/posts",
                "https://a.example/users/<id>/posts",
            )
        }
        assert canonicals == {"https://a.example/users/{id}/posts"}

        rng = random.Random(131)
        literal_alphabet = string.ascii_lowercase + string.digits + ".-_"
        styles = ["{%s}", ":%s", "<%s>"]
        templates = []
        for _ in range(1000):
            url = rng.choice(["https://h.example", "http://h.example:8080"])
            for _ in range(rng.randint(0, 5)):
                url += "/" + "".join(rng.choices(literal_alphabet, k=rng.randint(1, 8)))
                if rng.random() < 0.5:
                    name = rng.choice(["id", "user_id", "slug", "v1x", "key"])
                    url += "/" + rng.choice(styles) % name
            if rng.random() < 0.3:
                url += "?fixed=1&mode=full"
            templates.append(url)

        started = time.perf_counter()
        failures = 0
        for url in templates:
            template = parse_url_template(url)
            bindings = {name: "{" + name + "}" for name in template.param_names()}
            if template.render(bindings, encode=False) != template.canonical():
                failures += 1
        elapsed = time.perf_counter() - started
        assert failures == 0
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_4_percent_encoding(verdict):
    with verdict(4, "percent encoding"):
        for value in range(256):
            raw = bytes([value])
            assert decode_to_bytes(encode_bytes(raw)) == raw

        rng = random.Random(99)
        pool = string.printable + "äöüßéèπ漢字🙂+=&?%/:#"
        for _ in range(1000):
            text = "".join(rng.choices(pool, k=rng.randint(0, 40)))
            assert decode_component(encode_component(text)) == text

        assert encode_component("+") == "%2B"
        assert encode_component("=") == "%3D"
        tool = generate_tool(
            Endpoint(
                name="E", method="GET", url="https://h.example/x",
                required_parameters=[Parameter(name="q", example_value="a+b=c")],
            ),
            "s",
        )
        url = build_request(tool, {"q": "a+b=c"}).full_url()
        assert url.endswith("?q=a%2Bb%3Dc")


def test_criterion_5_metrics_oracle(verdict, emb):
    with verdict(5, "metrics oracle"):
        v = np.array([0.3, -1.2, 2.4, 0.0])
        assert abs(cosine_similarity(v, v) - 1.0) <= 1e-9
        assert abs(cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0]))) <= 1e-9
        assert abs(cosine_similarity(v, 1234.5 * v) - 1.0) <= 1e-9

        rng = random.Random(41)
        names = [f"param{i}" for i in range(9)]
        for trial in range(200):
            url = f"https://h.example/case/{trial}"
            pred_names = rng.sample(names, rng.randint(0, 6))
            truth_names = rng.sample(names, rng.randint(0, 6))
            pred = ApiSpec(endpoints=[Endpoint(
                name="Case", method="GET", url=url,
                required_parameters=[Parameter(name=n) for n in pred_names],
            )])
            truth = ApiSpec(endpoints=[Endpoint(
                name="Case", method="GET", url=url,
                required_parameters=[Parameter(name=n) for n in truth_names],
            )])
            n_invalid = rng.randint(0, 3)
            results = [ExtractionResult(source_id="s", raw_output="", spec=pred)]
            results += [
                ExtractionResult(source_id=f"bad{i}", raw_output="", spec=None)
                for i in range(n_invalid)
            ]
            report = compute_metrics(results, {"s": truth}, emb)

            inter = len(set(pred_names) & set(truth_names))
            want_precision = inter / len(pred_names) if pred_names else 1.0
            want_recall = inter / len(truth_names) if truth_names else 1.0
            assert report.param_precision == want_precision, trial
            assert report.param_recall == want_recall, trial
            assert report.valid_ratio == 1 / (1 + n_invalid)


@pytest.fixture(scope="module")
def e2e_run(corpus, tmp_path_factory):
    manifest, corpus_dir, _ = corpus
    tmp = tmp_path_factory.mktemp("acceptance_e2e")
    cfg = make_config(tmp, manifest, corpus_dir)
    started = time.perf_counter()
    rc = main(["run", "--config", str(cfg)])
    elapsed = time.perf_counter() - started
    return rc, elapsed, tmp / "out"


def test_criterion_6_end_to_end_mock_run(verdict, e2e_run):
    with verdict(6, "end-to-end mock run"):
        rc, elapsed, out = e2e_run
        assert rc == 0
        assert elapsed < 30.0, f"took {elapsed:.1f} s"

        index = json.loads((out / "docs" / "index.json").read_text())
        assert len(index["documents"]) >= 3

        summary = json.loads((out / "validation" / "summary.json").read_text())
        counts = summary["counts"]
        assert counts["Passed Validation"] >= 1
        assert counts["Abnormal Response"] >= 1
        assert counts["Failed Validation"] >= 1
        assert counts["No Parameter Value"] >= 1

        rows = [
            json.loads(line)
            for line in (out / "validation" / "reports.jsonl").read_text().splitlines()
        ]
        assert any(
            attempt["retried_without_params"]
            for row in rows
            for attempt in row["attempts"]
        )


@pytest.fixture(scope="module")
def loo_setup(mock_api, judge, emb):
    limiter = HostRateLimiter(rate_per_sec=0)  # loopback: no politeness delay
    tools = []
    for source_id, spec, _text in build_corpus(mock_api.base_url):
        built, _ = generate_tools_for_spec(spec, source_id)
        tools.extend(built)
    reports = run_validation(tools, judge, width=4, http=HttpPolicy(offline=True, limiter=limiter))
    return tools, reports, limiter


def test_criterion_7_inference_oracle(verdict, loo_setup, judge, emb):
    with verdict(7, "inference oracle"):
        tools, reports, limiter = loo_setup
        result = leave_one_api_out(
            tools, reports, emb, judge, http=HttpPolicy(offline=True, limiter=limiter)
        )
        by_name = {o.tool_name: o for o in result["outcomes"]}

        gated = by_name["get_glycan"]  # value-gated endpoint, value held by the other source
        assert gated.success
        assert gated.attempts <= 20
        assert gated.candidates_considered <= 10

        kb = build_kb(reports, tools, emb)
        target = next(t for t in tools if t.tool_name == "get_glycan")
        for arg in target.args:
            candidates = retrieve_candidates(arg, kb, emb, exclude_source=target.source_id)
            assert len(candidates) <= 10
            for candidate in candidates:
                assert candidate.similarity >= 0.5
                assert candidate.entry.source_id != target.source_id

        rng = random.Random(3)
        for _ in range(50):
            per_param = {}
            for p in range(rng.randint(1, 3)):
                sims = [round(rng.uniform(0.5, 1.0), 3) for _ in range(rng.randint(1, 6))]
                per_param[f"p{p}"] = [
                    Candidate(
                        entry=ParameterKbEntry(param_key=f"p{p}", value=f"v{i}", source_id="s"),
                        similarity=s,
                    )
                    for i, s in enumerate(sims)
                ]
            got = rank_combinations(per_param)

            names = list(per_param.keys())
            lists = [sorted(per_param[n], key=lambda c: -c.similarity) for n in names]
            scored = []
            for idx in itertools.product(*(range(len(l)) for l in lists)):
                total = 0.0
                for ni, ci in enumerate(idx):
                    total += math.log(max(lists[ni][ci].similarity, 1e-12))
                scored.append((-total, idx))
            scored.sort()
            want = [
                {n: lists[i][j].entry.value for i, (n, j) in enumerate(zip(names, idx))}
                for _, idx in scored[:20]
            ]
            assert [
                {n: c.entry.value for n, c in row.items()} for row in got
            ] == want


def test_criterion_8_taxonomy_partition(verdict, e2e_run, loo_setup):
    with verdict(8, "taxonomy partition"):
        # every validated tool lands in exactly one outcome class
        _, _, out = e2e_run
        summary = json.loads((out / "validation" / "summary.json").read_text())
        rows = (out / "validation" / "reports.jsonl").read_text().splitlines()
        assert sum(summary["counts"].values()) == len(rows) + summary["unbuildable_endpoints"]

        _, reports, _ = loo_setup
        from apimill.validate import counts_from_reports

        counts = counts_from_reports(reports)
        assert sum(counts.values()) == len(reports)

        rng = random.Random(2718)
        for _ in range(10_000):
            estimate = estimate_causes({
                ErrorType.MISSING_ENDPOINT_PATH: rng.randint(0, 1000),
                ErrorType.MISSING_BASE_URL: rng.randint(0, 1000),
                ErrorType.FAILED: rng.randint(0, 1000),
                ErrorType.ABNORMAL: rng.randint(0, 1000),
                ErrorType.NO_PARAM_VALUE: rng.randint(0, 1000),
                ErrorType.WRONG_PARAM_VALUE: rng.randint(0, 1000),
            })
            for lo, hi in estimate.ranges().values():
                assert lo <= hi

"""Extraction quality metrics: structure, semantics, parameter accuracy.

Endpoint pairing strategy: equal URL templates are a match outright (the URL
is the functional identity of an endpoint); otherwise endpoint-name embedding
similarity above 0.8, taken greedily one-to-one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from .embedding import cosine_similarity, vector_norm
from .errors import EmptyCorpus, MalformedUrl
from .model import ApiSpec, Endpoint, aligned_rows, canonical_type, primary_url
from .toolgen import parse_url_template

NAME_MATCH_THRESHOLD = 0.8


def _template_key(endpoint: Endpoint) -> Optional[str]:
    try:
        template = parse_url_template(primary_url(endpoint))
    except MalformedUrl:
        return None
    return f"{endpoint.method.upper()} {template.erased()}"


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def match_endpoints(pred: ApiSpec, truth: ApiSpec, name_similarity) -> list:
    """Greedy one-to-one (pred_index, truth_index) pairs, best match first;
    `name_similarity(pred_name, truth_name)` scores two endpoint names."""
    pred_keys = [_template_key(e) for e in pred.endpoints]
    truth_keys = [_template_key(e) for e in truth.endpoints]

    candidates = []
    for pi, pred_ep in enumerate(pred.endpoints):
        for ti, truth_ep in enumerate(truth.endpoints):
            if pred_keys[pi] is not None and pred_keys[pi] == truth_keys[ti]:
                score = 1.0
            else:
                score = name_similarity(pred_ep.name, truth_ep.name)
                if score < NAME_MATCH_THRESHOLD:
                    continue
            candidates.append((-score, pi, ti))
    candidates.sort()

    pairs, used_p, used_t = [], set(), set()
    for _, pi, ti in candidates:
        if pi in used_p or ti in used_t:
            continue
        used_p.add(pi)
        used_t.add(ti)
        pairs.append((pi, ti))
    pairs.sort()
    return pairs


@dataclass
class MetricsReport:
    valid_ratio: float
    matched_endpoints: int
    name_similarity: float
    description_similarity: float
    method_accuracy: float
    param_precision: float
    param_recall: float
    param_description_similarity: float
    type_accuracy: float
    per_endpoint: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text_table(self) -> str:
        columns = [
            ("Valid Ratio", f"{self.valid_ratio:.3f}"),
            ("# Matched", str(self.matched_endpoints)),
            ("Name Sim", f"{self.name_similarity:.3f}"),
            ("Desc Sim", f"{self.description_similarity:.3f}"),
            ("Method Acc", f"{self.method_accuracy:.3f}"),
            ("Param Precision", f"{self.param_precision:.3f}"),
            ("Param Recall", f"{self.param_recall:.3f}"),
            ("Param Desc Sim", f"{self.param_description_similarity:.3f}"),
            ("Type Acc", f"{self.type_accuracy:.3f}"),
        ]
        header, values = aligned_rows(*zip(*columns))
        return "\n".join([header, "-" * len(header), values])


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def compute_metrics(results: list, truth: dict, emb) -> MetricsReport:
    """Score extraction results against ground-truth specs keyed by source_id.

    Parameter precision/recall are micro-averaged name-set arithmetic over
    matched endpoints; description/type scoring pairs parameters by exact
    name and skips pairs where the truth side carries nothing to compare.
    Each distinct text is embedded once, in at most one `emb.embed` call per
    scored source, and matching and scoring read the same vectors.
    """
    if not results:
        raise EmptyCorpus("no extraction results to score")

    valid_ratio = sum(1 for r in results if r.valid) / len(results)

    table: dict = {}  # text -> (vector, its norm)

    def cosine(a: str, b: str) -> float:
        (va, na), (vb, nb) = table[a], table[b]
        return cosine_similarity(va, vb, na, nb)

    name_sims: list = []
    desc_sims: list = []
    param_desc_sims: list = []
    method_hits: list = []
    tp = pred_total = truth_total = 0
    type_hits: list = []
    per_endpoint: list = []

    for result in sorted(results, key=lambda r: r.source_id):
        truth_spec = truth.get(result.source_id)
        if not result.valid or truth_spec is None:
            continue
        new = list(dict.fromkeys(
            text
            for endpoint in (*result.spec.endpoints, *truth_spec.endpoints)
            for text in (endpoint.name, endpoint.description or "",
                         *(p.description or "" for p in endpoint.all_parameters()))
            if text not in table
        ))
        for text, vector in zip(new, emb.embed(new)):
            table[text] = (vector, vector_norm(vector))

        for pi, ti in match_endpoints(result.spec, truth_spec, cosine):
            pred_ep = result.spec.endpoints[pi]
            truth_ep = truth_spec.endpoints[ti]

            name_sims.append(_clamp01(cosine(pred_ep.name, truth_ep.name)))
            if truth_ep.description:
                desc_sims.append(_clamp01(cosine(pred_ep.description or "", truth_ep.description)))
            method_hits.append(1.0 if pred_ep.method.upper() == truth_ep.method.upper() else 0.0)

            pred_params = {p.name: p for p in pred_ep.all_parameters()}
            truth_params = {p.name: p for p in truth_ep.all_parameters()}
            inter = set(pred_params) & set(truth_params)
            tp += len(inter)
            pred_total += len(pred_params)
            truth_total += len(truth_params)

            for name in sorted(inter):
                t_param = truth_params[name]
                p_param = pred_params[name]
                if t_param.description:
                    param_desc_sims.append(
                        _clamp01(cosine(p_param.description or "", t_param.description)))
                if t_param.type_hint:
                    type_hits.append(
                        1.0 if canonical_type(p_param.type_hint) == canonical_type(t_param.type_hint)
                        else 0.0
                    )
            per_endpoint.append(
                {
                    "source_id": result.source_id,
                    "pred": pred_ep.name,
                    "truth": truth_ep.name,
                    "name_similarity": name_sims[-1],
                    "param_intersection": len(inter),
                    "pred_params": len(pred_params),
                    "truth_params": len(truth_params),
                }
            )

    # micro-averages; an empty denominator means nothing was claimed/owed,
    # which counts as perfect rather than as failure
    precision = tp / pred_total if pred_total else 1.0
    recall = tp / truth_total if truth_total else 1.0

    return MetricsReport(
        valid_ratio=valid_ratio,
        matched_endpoints=len(per_endpoint),
        name_similarity=_mean(name_sims),
        description_similarity=_mean(desc_sims),
        method_accuracy=_mean(method_hits),
        param_precision=precision,
        param_recall=recall,
        param_description_similarity=_mean(param_desc_sims),
        type_accuracy=_mean(type_hits),
        per_endpoint=per_endpoint,
    )

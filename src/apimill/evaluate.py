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
from .model import ApiSpec, Endpoint, canonical_type, primary_url
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


def match_endpoints(pred: ApiSpec, truth: ApiSpec, emb) -> list:
    """Greedy one-to-one (pred_index, truth_index) pairs, best match first."""
    if not pred.endpoints or not truth.endpoints:
        return []
    pred_keys = [_template_key(e) for e in pred.endpoints]
    truth_keys = [_template_key(e) for e in truth.endpoints]
    pred_vecs = emb.embed([e.name for e in pred.endpoints])
    truth_vecs = emb.embed([e.name for e in truth.endpoints])

    candidates = []
    for pi in range(len(pred.endpoints)):
        for ti in range(len(truth.endpoints)):
            if pred_keys[pi] is not None and pred_keys[pi] == truth_keys[ti]:
                score = 1.0
            else:
                score = cosine_similarity(pred_vecs[pi], truth_vecs[ti])
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
        widths = [max(len(h), len(v)) for h, v in columns]
        header = "  ".join(h.ljust(w) for (h, _), w in zip(columns, widths))
        values = "  ".join(v.ljust(w) for (_, v), w in zip(columns, widths))
        rule = "-" * len(header)
        return "\n".join([header, rule, values])


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def compute_metrics(results: list, truth: dict, emb) -> MetricsReport:
    """Score extraction results against ground-truth specs keyed by source_id.

    Parameter precision/recall are micro-averaged name-set arithmetic over
    matched endpoints; description/type scoring pairs parameters by exact
    name and skips pairs where the truth side carries nothing to compare.
    """
    if not results:
        raise EmptyCorpus("no extraction results to score")

    valid = sum(1 for r in results if r.valid)
    valid_ratio = valid / len(results)

    matched_total = 0
    # (predicted text, truth text) pairs to score, embedded once all are known
    name_pairs: list = []
    desc_pairs: list = []
    param_desc_pairs: list = []
    method_hits: list = []
    tp = pred_total = truth_total = 0
    type_hits: list = []
    per_endpoint: list = []

    for result in sorted(results, key=lambda r: r.source_id):
        if not result.valid:
            continue
        truth_spec = truth.get(result.source_id)
        if truth_spec is None:
            continue
        pairs = match_endpoints(result.spec, truth_spec, emb)
        matched_total += len(pairs)
        for pi, ti in pairs:
            pred_ep = result.spec.endpoints[pi]
            truth_ep = truth_spec.endpoints[ti]

            name_pairs.append((pred_ep.name, truth_ep.name))
            if truth_ep.description:
                desc_pairs.append((pred_ep.description or "", truth_ep.description))
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
                    param_desc_pairs.append((p_param.description or "", t_param.description))
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
                    "name_similarity": None,  # scored below
                    "param_intersection": len(inter),
                    "pred_params": len(pred_params),
                    "truth_params": len(truth_params),
                }
            )

    # one embed call over the distinct texts; `row` maps each text to its vector
    row: dict = {}
    for pair in (*name_pairs, *desc_pairs, *param_desc_pairs):
        for text in pair:
            row.setdefault(text, len(row))
    vectors = emb.embed(list(row))
    norms = [vector_norm(v) for v in vectors]  # each once, however many pairs share it

    def similarities(pairs: list) -> list:
        return [_clamp01(cosine_similarity(vectors[i], vectors[j], norms[i], norms[j]))
                for i, j in ((row[a], row[b]) for a, b in pairs)]

    name_sims = similarities(name_pairs)
    for entry, sim in zip(per_endpoint, name_sims):
        entry["name_similarity"] = sim

    # micro-averages; an empty denominator means nothing was claimed/owed,
    # which counts as perfect rather than as failure
    precision = tp / pred_total if pred_total else 1.0
    recall = tp / truth_total if truth_total else 1.0

    return MetricsReport(
        valid_ratio=valid_ratio,
        matched_endpoints=matched_total,
        name_similarity=_mean(name_sims),
        description_similarity=_mean(similarities(desc_pairs)),
        method_accuracy=_mean(method_hits),
        param_precision=precision,
        param_recall=recall,
        param_description_similarity=_mean(similarities(param_desc_pairs)),
        type_accuracy=_mean(type_hits),
        per_endpoint=per_endpoint,
    )

"""Judge backends: response pass/fail, API-page filtering, doc classification.

The heuristic judge is a pure function of text so offline runs are
deterministic; the remote judge reproduces the model-evaluator setup using
the canonical prompt templates.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from .errors import JudgeUnavailable
from .prompts import (
    CLASSIFICATION_SCHEMA,
    DOC_CATEGORIES,
    DOC_CLASSIFICATION_PROMPT,
    RESPONSE_VALIDATION_PROMPT,
)
from .remote import ChatClient

DEFAULT_ERROR_PHRASES = ("not found", "invalid", "unauthorized", "error occurred")

_VERB_URL_LINE = re.compile(
    r"(?m)^\s*(GET|POST|PUT|PATCH|DELETE|HEAD|OPTIONS)\s+(https?://\S+|/\S+)", re.I
)
_PARAM_HEADER = re.compile(r"(?mi)^\s*(?:required |optional |query |path )?parameters?\s*:?\s*$")
_EXAMPLE_MARK = re.compile(r"(?i)\bexample\b")
_URL_TOKEN = re.compile(r"https?://\S+")
_VERB_WORD = re.compile(r"\b(GET|POST|PUT|PATCH|DELETE|OPTIONS|HEAD)\b")
_PARAM_WORD = re.compile(r"(?i)\bparameters?\b")


class HeuristicJudge:
    """Deterministic text rules standing in for a model judge."""

    kind = "heuristic"
    fallback = None  # never unavailable, so nothing to fall back to

    def __init__(self, error_phrases: Sequence[str] = DEFAULT_ERROR_PHRASES):
        self.error_phrases = tuple(p.lower() for p in error_phrases)

    # -- API page filter ---------------------------------------------------

    def is_api_page(self, text: str) -> bool:
        # needs something addressable plus a hint of callability
        url_like = _URL_TOKEN.search(text) or _VERB_URL_LINE.search(text)
        if not url_like:
            return False
        return bool(_VERB_WORD.search(text) or _PARAM_WORD.search(text))

    # -- documentation quality ---------------------------------------------

    def classify_doc(self, text: str):
        strong = 0
        signals = []
        if _VERB_URL_LINE.search(text):
            strong += 1
            signals.append("method+URL lines")
        if _PARAM_HEADER.search(text):
            strong += 1
            signals.append("parameter sections")
        if _EXAMPLE_MARK.search(text):
            strong += 1
            signals.append("examples")
        weak = 0
        if _URL_TOKEN.search(text):
            weak += 1
        if _PARAM_WORD.search(text):
            weak += 1

        if strong == 3:
            category = "Fully Organized"
        elif strong == 0 and weak <= 1:
            category = "Unorganized"
        else:
            category = "Semi-Organized"
        analysis = (
            f"Found {signals and ', '.join(signals) or 'no endpoint structure'}; "
            f"{strong} structural signal(s)."
        )
        return category, analysis

    # -- 200-response verdict ----------------------------------------------

    def judge_response(self, description: str, body_text: str, json_body):
        if not body_text.strip():
            return False, "empty response body"
        if isinstance(json_body, dict):
            keys = {str(k).lower() for k in json_body}
            if "error" in keys or "errors" in keys:
                return False, "error key in response object"
            if "message" in keys:
                msg = str(json_body.get("message") or json_body.get("Message") or "").lower()
                if any(p in msg for p in self.error_phrases):
                    return False, f"error-style message: {msg[:80]}"
            return True, "response object carries data"
        lowered = body_text.lower()
        for phrase in self.error_phrases:
            if phrase in lowered:
                return False, f"error phrase in body: {phrase!r}"
        return True, "response body carries information"


class RemoteJudge:
    """Model-backed judge over the chat protocol; raises JudgeUnavailable,
    and `fallback` answers in its place (see judge_with_fallback)."""

    kind = "remote"

    def __init__(self, client: ChatClient, fallback: HeuristicJudge):
        self.client = client
        self.fallback = fallback

    def _complete(self, prompt: str, **schema) -> str:
        """The model's reply to one user message; any failure of the backend
        is JudgeUnavailable."""
        try:
            return self.client.complete([{"role": "user", "content": prompt}], **schema)[0]
        except Exception as exc:  # noqa: BLE001 - any backend failure degrades the same way
            raise JudgeUnavailable(str(exc)) from exc

    def is_api_page(self, text: str) -> bool:
        prompt = (
            "Does the following page document a callable HTTP API "
            "(endpoints, methods, parameters)? Answer yes or no.\n\n" + text
        )
        return self._complete(prompt).strip().lower().startswith("y")

    def classify_doc(self, text: str):
        prompt = DOC_CLASSIFICATION_PROMPT.format(API_DOC=text)
        content = self._complete(
            prompt, response_schema=CLASSIFICATION_SCHEMA, schema_name="Classification")
        try:
            parsed = json.loads(content)
            category = parsed["category"]
            analysis = str(parsed.get("analysis", ""))
        except Exception as exc:  # noqa: BLE001
            raise JudgeUnavailable(str(exc)) from exc
        if category not in DOC_CATEGORIES:
            raise JudgeUnavailable(f"unexpected category {category!r}")
        return category, analysis

    def judge_response(self, description: str, body_text: str, json_body):
        content = self._complete(RESPONSE_VALIDATION_PROMPT.format(
            description=description, response=body_text))
        verdict = content.strip().lower()
        passed = verdict.startswith("pass") or (
            "information" in verdict and "error" not in verdict
        )
        return passed, content.strip()[:200]


def judge_with_fallback(method_name: str, judge, *args):
    """Call a judge method, degrading to `judge.fallback` when the judge is
    unavailable.  Returns (result, failure): failure is the JudgeUnavailable
    that was caught, or None."""
    try:
        return getattr(judge, method_name)(*args), None
    except JudgeUnavailable as exc:
        if judge.fallback is None:
            raise
        return getattr(judge.fallback, method_name)(*args), exc


__all__ = [
    "DEFAULT_ERROR_PHRASES",
    "HeuristicJudge",
    "RemoteJudge",
    "judge_with_fallback",
]

"""Judges: the heuristic verdict rules, the remote judge's reply parsing, and
the heuristic answer `judge_with_fallback` gives when the remote one fails."""

import json

import pytest

from apimill.errors import BackendUnreachable, JudgeUnavailable
from apimill.judges import HeuristicJudge, RemoteJudge, judge_with_fallback
from apimill.prompts import CLASSIFICATION_SCHEMA

DOC = "Cards API\nGET https://h.example/cards\nRequired parameters:\n- q (string): query\n"


class _Client:
    """A chat client that replays one reply, or raises it when it is an error."""

    def __init__(self, reply):
        self.reply, self.calls = reply, []

    def complete(self, messages, response_schema=None, schema_name="output"):
        self.calls.append((messages, response_schema, schema_name))
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply, 7


def _remote(reply) -> RemoteJudge:
    return RemoteJudge(_Client(reply), HeuristicJudge())


@pytest.mark.parametrize("text, body, verdict", [
    ("", None, (False, "empty response body")),
    (" \n\t", None, (False, "empty response body")),
    ('{"Errors": []}', {"Errors": []}, (False, "error key in response object")),
    ('{"Message": "Item Not Found"}', {"Message": "Item Not Found"},
     (False, "error-style message: item not found")),
    ('{"message": "all good"}', {"message": "all good"}, (True, "response object carries data")),
    ("Unauthorized request", None, (False, "error phrase in body: 'unauthorized'")),
    ("42 cards", None, (True, "response body carries information")),
    ('["invalid"]', ["invalid"], (False, "error phrase in body: 'invalid'")),
])
def test_heuristic_judge_response(text, body, verdict):
    assert HeuristicJudge().judge_response("Find cards", text, body) == verdict


def test_heuristic_judge_uses_its_phrases():
    judge = HeuristicJudge(error_phrases=["Quota Exceeded"])
    assert judge.judge_response("d", "not found", None) == (True, "response body carries information")
    assert judge.judge_response("d", '{"message": "quota exceeded"}', {"message": "quota exceeded"}) == (
        False, "error-style message: quota exceeded")


def test_remote_classify_doc():
    judge = _remote(json.dumps({"category": "Semi-Organized", "analysis": "two sections"}))
    assert judge.classify_doc(DOC) == ("Semi-Organized", "two sections")
    ((messages, schema, name),) = judge.client.calls
    assert (schema, name) == (CLASSIFICATION_SCHEMA, "Classification")
    assert DOC in messages[0]["content"]
    assert _remote('{"category": "Unorganized"}').classify_doc(DOC) == ("Unorganized", "")


@pytest.mark.parametrize("method, reply", [
    ("classify_doc", json.dumps({"category": "Tidy", "analysis": "x"})),
    ("classify_doc", "not json"),
    ("classify_doc", json.dumps({"analysis": "no category"})),
    ("classify_doc", BackendUnreachable("down")),
    ("judge_response", BackendUnreachable("down")),
    ("is_api_page", BackendUnreachable("down")),
], ids=["unknown-category", "malformed-json", "no-category", "transport", "verdict-transport",
        "page-transport"])
def test_remote_failure_is_unavailable_and_falls_back(method, reply):
    judge = _remote(reply)
    args = (DOC,) if method != "judge_response" else ("Find cards", '{"data": 1}', {"data": 1})
    with pytest.raises(JudgeUnavailable):
        getattr(judge, method)(*args)
    result, failure = judge_with_fallback(method, judge, *args)
    assert result == getattr(HeuristicJudge(), method)(*args)
    assert isinstance(failure, JudgeUnavailable)


def test_fallback_without_a_fallback_judge_raises():
    judge = RemoteJudge(_Client(BackendUnreachable("down")), fallback=None)
    with pytest.raises(JudgeUnavailable):
        judge_with_fallback("classify_doc", judge, DOC)


@pytest.mark.parametrize("reply, passed", [
    ("PASS: the body lists cards", True),
    ("  pass", True),
    ("The response carries Information about cards.", True),
    ("The response carries information about an error.", False),
    ("FAIL: empty list", False),
])
def test_remote_judge_response_verdict(reply, passed):
    judge = _remote(reply)
    assert judge.judge_response("Find cards", '{"data": []}', {"data": []}) == (passed, reply.strip())
    ((messages, schema, _),) = judge.client.calls
    assert schema is None
    assert "Find cards" in messages[0]["content"] and '{"data": []}' in messages[0]["content"]


def test_remote_rationale_is_cut_to_200_characters():
    passed, rationale = _remote("pass " + "x" * 300).judge_response("d", "{}", {})
    assert passed is True and rationale == ("pass " + "x" * 300)[:200]

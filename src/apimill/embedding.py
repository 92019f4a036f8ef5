"""Text embedding providers and vector similarity.

Two providers share one interface: a deterministic lexical fallback (hashed
character trigrams, no model, no network) and a remote embedding service.
Evaluation and parameter inference both consume this interface.  A vector
is a standard-library `array('d')` row.  Each provider keeps every row it has
made, so an embedder embeds each distinct text once in its life: one
embedder serves a whole run, and no stage keeps a memo of its own.
"""

from __future__ import annotations

import math
import sys
import zlib
from array import array
from collections import Counter
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch, EmbeddingUnavailable
from .netutil import HttpPolicy
from .remote import RemoteConfig, post_json

TIMEOUT_S = 60.0
BATCH_SIZE = 128  # texts per request


def vector_norm(v) -> float:
    """Euclidean length of `v`."""
    return math.sqrt(sum(map(mul, v, v)))


def cosine_similarity(a, b, norm_a=None, norm_b=None) -> float:
    """Cosine of the angle between two vectors; 0.0 when either is zero.  A
    caller that scores a vector many times passes in its `vector_norm`."""
    if len(a) != len(b):
        raise DimensionMismatch(got=len(b), expected=len(a))
    na = vector_norm(a) if norm_a is None else norm_a
    nb = vector_norm(b) if norm_b is None else norm_b
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(map(mul, a, b)) / (na * nb)


class LexicalEmbedding:
    """Hashed character-trigram counts, L2-normalized.

    Deterministic across processes: trigrams are hashed with crc32, never the
    salted builtin hash().  Empty text embeds to the zero vector.
    """

    kind = "lexical"

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self._rows: dict = {}  # text -> its row

    def _grams(self, text: str):
        s = text.lower()
        if len(s) < 3:
            return [s] if s else []
        return [s[i : i + 3] for i in range(len(s) - 2)]

    def embed_one(self, text: str) -> array:
        d = self.dimension
        counts = Counter([zlib.crc32(gram.encode("utf-8")) % d for gram in self._grams(text)])
        v = array("d", [0.0]) * d
        # a sum of integer squares is exact, so the norm is correctly rounded
        norm = math.sqrt(sum(c * c for c in counts.values()))
        for index, count in counts.items():
            v[index] = count / norm
        return v

    def embed(self, texts: Sequence[str]) -> list:
        """One row per text; `embed_one` runs only for a text this embedder
        has never seen, and every repeat shares that text's row."""
        rows = self._rows
        for text in texts:
            if text not in rows:
                rows[text] = self.embed_one(text)
        return [rows[text] for text in texts]


def _finite_number(x) -> bool:
    """A JSON number a float holds: no bool, NaN, ±Infinity or huge integer."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


class RemoteEmbedding:
    """Embedding served over HTTP: POST {model, input: [texts]} →
    {data: [{embedding: [...]}, ...]}.  Credentials come from the
    environment variable named in the config, never from the config itself.
    Offline, a non-loopback endpoint raises OfflineViolation.
    """

    kind = "remote"

    def __init__(self, config: RemoteConfig, dimension: Optional[int] = None,
                 http: HttpPolicy = HttpPolicy()):
        self.config = config
        self.dimension = dimension  # learned from the first response when unset
        self._http = http
        self._rows: dict = {}  # text -> its row

    def _post_batch(self, batch: Sequence[str]) -> list:
        payload = post_json(
            self.config.endpoint_url, {"model": self.config.model_name, "input": list(batch)},
            api_key_env=self.config.api_key_env, timeout=TIMEOUT_S,
            error=EmbeddingUnavailable, http=self._http,
        )
        try:
            return [row["embedding"] for row in payload["data"]]
        except (KeyError, TypeError) as exc:
            raise EmbeddingUnavailable(f"malformed response: {exc}") from exc

    def embed(self, texts: Sequence[str]) -> list:
        """One row per text; only the texts this embedder has never seen are
        sent, each once, and every repeat shares that text's row.  Every row
        must be a list of finite numbers, as wide as every other row the
        embedder has returned; no row is kept unless the whole reply is."""
        new = [text for text in dict.fromkeys(texts) if text not in self._rows]
        replies: list = []
        for start in range(0, len(new), BATCH_SIZE):
            replies.extend(self._post_batch(new[start : start + BATCH_SIZE]))
        if len(replies) != len(new):
            raise EmbeddingUnavailable(
                f"malformed response: {len(replies)} rows for {len(new)} texts"
            )
        width = self.dimension
        for reply in replies:
            if not isinstance(reply, list) or not all(map(_finite_number, reply)):
                raise EmbeddingUnavailable(f"malformed response: embedding {reply!r:.80}")
            width = len(reply) if width is None else width
            if len(reply) != width:
                raise DimensionMismatch(got=len(reply), expected=width)
        self.dimension = width
        self._rows.update((text, array("d", reply)) for text, reply in zip(new, replies))
        return [self._rows[text] for text in texts]

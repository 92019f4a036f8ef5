"""Text embedding providers and vector similarity.

Two providers share one interface: a deterministic lexical fallback (hashed
character trigrams, no model, no network) and a remote embedding service.
Evaluation and parameter inference both consume this interface.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DimensionMismatch, EmbeddingUnavailable
from .netutil import HttpPolicy
from .remote import RemoteConfig, post_json

if TYPE_CHECKING:
    import numpy as np

TIMEOUT_S = 60.0
BATCH_SIZE = 128  # texts per request


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors; 0.0 when either is zero."""
    import numpy as np

    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.shape[0] != vb.shape[0]:
        raise DimensionMismatch(got=vb.shape[0], expected=va.shape[0])
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def distinct_texts(texts: Sequence[str]) -> tuple:
    """The distinct texts in first-seen order, and for each input text the
    position of its distinct copy."""
    import numpy as np

    slot: dict = {}
    inverse = [slot.setdefault(t, len(slot)) for t in texts]
    return list(slot), np.asarray(inverse, dtype=np.intp)


class LexicalEmbedding:
    """Hashed character-trigram counts, L2-normalized.

    Deterministic across processes: trigrams are hashed with crc32, never the
    salted builtin hash().  Empty text embeds to the zero vector.
    """

    kind = "lexical"

    def __init__(self, dimension: int = 256):
        self.dimension = dimension

    def _grams(self, text: str):
        s = text.lower()
        if len(s) < 3:
            return [s] if s else []
        return [s[i : i + 3] for i in range(len(s) - 2)]

    def embed_one(self, text: str) -> np.ndarray:
        import numpy as np

        v = np.zeros(self.dimension, dtype=np.float64)
        for gram in self._grams(text):
            v[zlib.crc32(gram.encode("utf-8")) % self.dimension] += 1.0
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v /= norm
        return v

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, filled in place; each distinct text is embedded once."""
        import numpy as np

        out = np.empty((len(texts), self.dimension))
        first: dict = {}
        for row, text in enumerate(texts):
            seen = first.setdefault(text, row)
            out[row] = self.embed_one(text) if seen == row else out[seen]
        return out


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

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text; each distinct text is sent once."""
        import numpy as np

        distinct, inverse = distinct_texts(texts)
        vectors: list = []
        for start in range(0, len(distinct), BATCH_SIZE):
            vectors.extend(self._post_batch(distinct[start : start + BATCH_SIZE]))
        if not vectors:
            return np.zeros((0, self.dimension or 0))
        out = np.asarray(vectors, dtype=np.float64)
        if out.shape[0] != len(distinct):
            raise EmbeddingUnavailable(
                f"malformed response: {out.shape[0]} rows for {len(distinct)} texts"
            )
        if self.dimension is None:
            self.dimension = out.shape[1]
        elif out.shape[1] != self.dimension:
            raise DimensionMismatch(got=out.shape[1], expected=self.dimension)
        return out if len(distinct) == len(texts) else out[inverse]

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed([text])[0]

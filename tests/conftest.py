import json
import socket
from pathlib import Path

import pytest

from apimill.embedding import LexicalEmbedding
from apimill.judges import HeuristicJudge
from apimill.mockapi import MockApi
from apimill.synthetic import write_corpus

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def mock_api():
    with MockApi() as api:
        yield api


@pytest.fixture(scope="session")
def emb():
    return LexicalEmbedding()


@pytest.fixture(scope="session")
def judge():
    return HeuristicJudge()


@pytest.fixture
def no_network(monkeypatch):
    """Records, and refuses, every name lookup and connect."""
    touched = []

    def refuse(*args, **kwargs):
        touched.append(args)
        raise OSError("network refused by the test")

    monkeypatch.setattr(socket, "getaddrinfo", refuse)
    monkeypatch.setattr(socket.socket, "connect", refuse)
    return touched


@pytest.fixture(scope="session")
def pokemon_html() -> str:
    return (DATA_DIR / "pokemon.html").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def pokemon_spec_dict() -> dict:
    return json.loads((DATA_DIR / "pokemon.spec.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus(mock_api, tmp_path_factory):
    """Synthetic corpus written against the live mock server.

    Returns (manifest_path, corpus_dir, base_url)."""
    corpus_dir = tmp_path_factory.mktemp("corpus")
    manifest = write_corpus(mock_api.base_url, corpus_dir)
    return manifest, corpus_dir, mock_api.base_url


def make_config(tmp_path: Path, manifest: Path, corpus_dir: Path, **overrides) -> Path:
    cfg = {
        "corpus_manifest": str(manifest),
        "output_dir": str(tmp_path / "out"),
        "truth_dir": str(corpus_dir / "truth"),
        "offline": True,
        "rate_limit_per_host": 0,  # token bucket off: loopback-only traffic
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path

"""What an entry point imports: the package resolves its public names on
first use, and no module or command loads numpy."""

import textwrap

from apimill.cli import ALL_STAGES

from conftest import in_fresh_python, make_config

WATCHED = ("numpy", "yaml")


def loaded_after(statement: str) -> list:
    """The apimill modules and WATCHED libraries a fresh interpreter holds
    after `statement`."""
    return in_fresh_python(textwrap.dedent(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(m for m in sys.modules
                                if m in {WATCHED!r} or m.split(".")[0] == "apimill")))
    """))


def test_package_import_loads_no_submodule():
    assert loaded_after("import apimill") == ["apimill"]


def test_mock_server_loads_only_its_module():
    assert loaded_after("import apimill.mockapi") == ["apimill", "apimill.mockapi"]


def test_public_names_resolve_on_first_use():
    out = in_fresh_python(textwrap.dedent("""
        import importlib, json, types
        import apimill
        namespace = {}
        exec("from apimill import *", namespace)
        names = [n for n in apimill.__all__ if n != "__version__"]
        foreign = [n for n in names
                   if namespace[n] is not getattr(importlib.import_module(namespace[n].__module__), n)]
        try:
            apimill.no_such_name
            unknown = None
        except AttributeError as exc:
            unknown = str(exc)
        from apimill import cli, evaluate
        print(json.dumps({
            "unbound": sorted(set(apimill.__all__) - set(namespace)),
            "foreign": foreign,
            "kept": all(n in vars(apimill) for n in names),
            "dir": dir(apimill) == sorted(apimill.__all__),
            "unknown": unknown,
            "submodules": [isinstance(m, types.ModuleType) for m in (cli, evaluate)],
        }))
    """))
    assert out == {
        "unbound": [], "foreign": [], "kept": True, "dir": True,
        "unknown": "module 'apimill' has no attribute 'no_such_name'",
        "submodules": [True, True],
    }


def test_embedding_and_evaluate_load_no_numpy():
    assert "numpy" not in loaded_after(
        "import apimill.embedding, apimill.evaluate, apimill.inference")


def test_no_stage_loads_numpy(corpus, tmp_path):
    manifest, corpus_dir, _ = corpus
    cfg = make_config(tmp_path, manifest, corpus_dir)
    numpy_loaded = {}
    for stage in ALL_STAGES:
        out = in_fresh_python(textwrap.dedent(f"""
            import json, sys
            from apimill.cli import main
            code = main({[stage, "--config", str(cfg)]!r})
            print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules}}))
        """))
        assert out["code"] == 0, stage
        numpy_loaded[stage] = out["numpy"]
    assert numpy_loaded == {
        "ingest": False, "extract": False, "evaluate": False, "generate": False,
        "validate": False, "infer": False, "report": False,
    }

"""apimill benchmark: the pipeline end to end on a seeded synthetic corpus.

    python3 bench/run.py --workload {docs,run,recover,all} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; apimill is imported from its src/.
Set-up generates the corpus, starts apimill.mockapi.MockApi in a process of
its own (so the server never holds the pipeline's GIL) and, for recover, runs
the stages before infer.  It is done three times and the median reported.
The timed phase then repeats the workload's apimill command, each time in a
fresh process and output directory, until S seconds have passed, and checks
every repetition against the corpus oracle (check.py).  With --trace 1 the
repetitions alternate between plain and traced ones (spans.py), and the
per-layer metrics come from the traced ones.

Every workload runs offline with concurrency 2, one pipeline process, one
server process and no rate limit: all tools share the one loopback host, so
any finite limit would only add a sleep of tools / rate seconds.

The last line of output is one JSON object: correct, attempted, failed and
the metrics.  Working files go to .bench_work/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3
CONCURRENCY = 2
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    shape: tuple  # copies, collision pairs, html, recover
    argv: tuple  # apimill command of the timed phase
    truth: bool  # configure truth_dir (evaluate runs)
    prepare: tuple = ()  # apimill command run during set-up


WORKLOADS = {
    # document-bound layers, no HTTP and no knowledge base
    "docs": Workload((50, 5, True, False),
                     ("run", "--stage-filter", "ingest,extract,evaluate,generate"), True),
    # the command users run; validate and infer dominate it
    "run": Workload((50, 5, False, False), ("run",), True),
    # infer alone over a large knowledge base: read-heavy retrieval
    "recover": Workload((52, 5, False, True), ("infer",), False,
                        ("run", "--stage-filter", "ingest,extract,generate,validate")),
}


def as_metrics(values: dict, key: str) -> dict:
    """The result line's metrics, in the order and units BENCHMARK.json
    declares under `key`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {key}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class MockServer:
    """bench/mockserver.py in a child process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mockserver.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.base_url = self._line()

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("mock server exited")
        return line.strip()

    def hits(self) -> int:
        self.proc.stdin.write("hits\n")
        self.proc.stdin.flush()
        return int(self._line())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        from corpus import Shape

        self.name = name
        self.workload = WORKLOADS[name]
        self.shape = Shape(*self.workload.shape)
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.server = None
        self.corpus = None
        self.prepared = None  # output directory set-up leaves for the timed phase

    def _config(self, directory: Path) -> Path:
        config = {
            "corpus_manifest": str(self.corpus.manifest),
            "output_dir": "out",
            "offline": True,
            "rate_limit_per_host": 0,
            "concurrency": CONCURRENCY,
        }
        if self.workload.truth:
            config["truth_dir"] = str(self.corpus.truth_dir)
        path = directory / "config.json"
        path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        return path

    def apimill(self, argv, directory: Path, spans: Path = None) -> dict:
        """One apimill command in a fresh process; returns pipeline.py's result."""
        result = directory / "result.json"
        cmd = [sys.executable, str(BENCH / "pipeline.py"), str(result)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *argv, "--config", str(self._config(directory))]
        with open(directory / "log.txt", "w", encoding="utf-8") as log_file:
            proc = subprocess.run(cmd, cwd=directory, env=self.env, stdout=log_file,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result.exists():
            tail = (directory / "log.txt").read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"pipeline process failed ({proc.returncode}):\n{tail}")
        return json.loads(result.read_text(encoding="utf-8"))

    def setup(self) -> float:
        """Corpus, server and prerequisite stages; returns seconds taken."""
        import corpus as corpus_mod

        self.close()
        directory = self.work / "setup"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        started = time.perf_counter()
        self.server = MockServer(self.env)
        self.corpus = corpus_mod.build(self.shape, self.seed, self.server.base_url,
                                       directory / "corpus")
        if self.workload.prepare:
            result = self.apimill(self.workload.prepare, directory)
            if result["exit_code"] != 0:
                raise RuntimeError(f"set-up command exited {result['exit_code']}")
        self.prepared = directory / "out"
        return time.perf_counter() - started

    def repetition(self, n: int, traced: bool) -> dict:
        """One timed run of the workload's command, checked against the oracle."""
        from check import check
        import spans as spans_mod

        directory = self.work / f"rep{n}"
        shutil.rmtree(directory, ignore_errors=True)
        if self.workload.prepare:
            shutil.copytree(self.prepared, directory / "out")
        else:
            directory.mkdir(parents=True)
        spans_path = directory / "spans.jsonl" if traced else None
        before = self.server.hits()
        result = self.apimill(self.workload.argv, directory, spans_path)
        requests = self.server.hits() - before

        outcome = check(self.name, self.corpus, directory / "out")
        if result["exit_code"] != 0:
            outcome.problems.append(f"apimill exited {result['exit_code']}")
        if requests != outcome.requests:
            outcome.problems.append(
                f"server saw {requests} requests, artifacts account for {outcome.requests}")
        rep = {"traced": traced, "wall_s": result["wall_s"],
               "peak_rss_mb": result["peak_rss_kib"] / 1024.0, "outcome": outcome}
        if traced:
            spans = spans_mod.load(spans_path)
            if spans_mod.http_accounted(spans) != requests:
                outcome.problems.append("traced invocations do not match server requests")
            rep["layers"] = spans_mod.layer_metrics(spans, requests)
        shutil.rmtree(directory)
        return rep

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    setups = [bench.setup() for _ in range(SETUPS)]
    log(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s")

    # repeat while the next repetition is expected to end within the budget
    reps, costs = [], []
    started = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_started = time.monotonic()
        rep = bench.repetition(len(reps), traced)
        costs.append(time.monotonic() - rep_started)
        reps.append(rep)
        log(f"rep {len(reps)}{' traced' if traced else ''}: {rep['wall_s']:.3f} s, "
            f"{len(rep['outcome'].failed)} failed of {rep['outcome'].attempted}, "
            f"{rep['peak_rss_mb']:.1f} MiB")
        over = time.monotonic() - started + statistics.median(costs) > seconds
        if over and len(reps) >= (2 if trace else 1):
            break

    outcomes = [r["outcome"] for r in reps]
    for o in outcomes[1:]:
        if o.failed != outcomes[0].failed:
            o.problems.append("operations failed differently than in the first repetition")
    problems = [p for o in outcomes for p in o.problems]
    for p in problems[:10]:
        log(f"problem: {p}")
    for source_id, path, reason in outcomes[0].failed[:5]:
        log(f"failed: {source_id} {path}: {reason}")

    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_share"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0
        )
        metrics = as_metrics(values, "per_layer")
    else:
        attempted = sum(r["outcome"].attempted for r in plain)
        failed = sum(len(r["outcome"].failed) for r in plain)
        values = {
            "goodput_ops_s": statistics.median(
                (r["outcome"].attempted - len(r["outcome"].failed)) / r["wall_s"] for r in plain),
            "fail_share": failed / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
        metrics = as_metrics(values, "end_to_end")
    return {
        "correct": not problems,
        # the result line counts apimill invocations; operations that did not
        # finish as expected are what fail_share reports
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "apimill" / "__init__.py").is_file():
        log(f"error: no apimill sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import apimill
    import numpy
    import requests

    if Path(apimill.__file__).resolve().parent != (SRC / "apimill").resolve():
        log(f"error: apimill imported from {apimill.__file__}, not from {SRC}")
        return 2
    print(f"env: python {platform.python_version()}, cpus {os.cpu_count()}, "
          f"numpy {numpy.__version__}, requests {requests.__version__}, "
          f"apimill {apimill.__version__}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        bench = Bench(name, args.seed, work)
        try:
            results[name] = measure(bench, args.seconds, bool(args.trace))
        finally:
            bench.close()
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it
        for metric, value in results[name]["metrics"].items():
            print(f"{name} {metric}: {value['value']:.6g} {value['unit']}")

    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

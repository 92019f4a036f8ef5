"""Run one apimill CLI command in this process and report what it cost.

    python3 pipeline.py RESULT.json [--spans SPANS.jsonl] -- <apimill arguments>

The timed phase is importing apimill.cli and calling its main(); interpreter
start-up is outside it.  RESULT.json receives the exit code, the wall time in
seconds and this process's peak RSS in KiB.  The peak is VmHWM of the
process's own address space, which starts fresh at exec; ru_maxrss would not
do, as Linux carries the parent's peak over into a child across exec.  With
--spans, apimill's public functions are wrapped first (see spans.py) and the
spans are written there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--spans")
    args = parser.parse_args(sys.argv[1:split])
    cli_args = sys.argv[split + 1:]

    started = time.perf_counter()
    from apimill.cli import main as apimill_main

    recorder = None
    if args.spans:
        import spans

        recorder = spans.install()
    code = apimill_main(cli_args)
    wall_s = time.perf_counter() - started
    peak_kib = peak_rss_kib()

    if recorder is not None:
        recorder.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "wall_s": wall_s, "peak_rss_kib": peak_kib}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

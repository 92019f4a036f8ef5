"""Serve apimill.mockapi.MockApi from its own process.

Prints the base URL on the first line.  Each "hits" line on stdin is answered
with the number of requests served so far; at end of input the server stops
and prints that number once more.
"""

from __future__ import annotations

import sys

from apimill.mockapi import MockApi


def main() -> int:
    with MockApi() as api:
        print(api.base_url, flush=True)
        for line in sys.stdin:
            if line.strip() == "hits":
                print(len(api.hits), flush=True)
        print(len(api.hits), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its own calls into facetail's
public functions (the library itself is not instrumented).  A span records
its name, start, end and the span that caused it; spans of one workload
pass share the pass span as their root.  Nothing is written until `dump`,
at the end of the run.  A disabled recorder records nothing and costs one
attribute test per span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh, indent=1)
            fh.write("\n")

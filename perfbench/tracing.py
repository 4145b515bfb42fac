"""Outside-in tracing: in-memory spans around calls into each layer.

Nothing here edits the program.  Spans are recorded by wrapping the public
entry points the engine calls on an instance basis:

- ``step`` — the benchmark's own timed ``InferenceEngine.step()`` call;
- ``forward`` — :class:`ForwardProxy`, a delegating stand-in for the
  served model whose ``forward_ragged`` is timed;
- ``paged.<method>`` — :func:`wrap_store` replaces the store's public
  methods on the instance, so calls the store makes into itself
  (``acquire_sequence`` -> ``match_pages``) nest as child spans.

A span is ``(id, name, start, end, parent, request)``; ``parent`` is the
id of the span open when it began.  Self time is a span's duration minus
its direct children's, so the self times of one step partition its wall.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

#: PagedKVStore methods timed in traced passes.
STORE_METHODS = ("acquire_sequence", "allocate", "match_pages", "seal_page", "release_ref")


class SpanRecorder:
    """A stack of open spans plus the list of closed ones."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._next_id = 0

    def begin(self, name: str, start: float, request=None) -> list:
        span = [self._next_id, name, start, 0.0,
                self._stack[-1] if self._stack else None, request]
        self._next_id += 1
        self._stack.append(span[0])
        return span

    def end(self, span: list, end: float) -> None:
        span[3] = end
        self._stack.pop()
        self.spans.append(tuple(span))

    def write(self, path, header: dict) -> None:
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps({"pass": header}) + "\n")
            for sid, name, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def self_times(spans: List[tuple]) -> Dict[str, float]:
    """Total self time per span name (duration minus direct children)."""
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        totals[name] += (end - start) - child[sid]
    return dict(totals)


class ForwardProxy:
    """Delegates everything to ``model``; times ``forward_ragged``.

    Each call is one ``forward`` span tagged with its rows' request ids and
    one entry in ``calls``: (seconds, tokens, pure_decode).
    """

    def __init__(self, model, recorder: SpanRecorder, request_ids) -> None:
        self._model = model
        self._recorder = recorder
        self._request_ids = request_ids
        self.calls: List[tuple] = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def forward_ragged(self, tokens, caches, new_lengths):
        rows = self._request_ids(caches)
        span = self._recorder.begin("forward", perf_counter(), request=rows)
        try:
            return self._model.forward_ragged(tokens, caches, new_lengths)
        finally:
            end = perf_counter()
            self._recorder.end(span, end)
            lengths = [int(n) for n in new_lengths]
            self.calls.append((end - span[2], sum(lengths), max(lengths) == 1))


def wrap_store(store, recorder: SpanRecorder) -> None:
    """Replace the store's public methods (on the instance) with timed ones."""
    for method in STORE_METHODS:
        setattr(store, method, _timed(recorder, f"paged.{method}", getattr(store, method)))


def _timed(recorder: SpanRecorder, name: str, call):
    def timed(*args, **kwargs):
        span = recorder.begin(name, perf_counter())
        try:
            return call(*args, **kwargs)
        finally:
            recorder.end(span, perf_counter())

    return timed

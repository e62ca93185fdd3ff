"""Span tracing from outside the program.

The benchmark wraps the names ``groundcheck.pipeline`` actually calls, the
``count_tokens`` name inside ``groundcheck.chunking`` (counted, not timed:
it runs thousands of times per request), ``groundcheck.nli.score_claim``,
``groundcheck.bench.detect`` and the three backend objects. Every wrapper
records a span (name, start, end, parent, request id) or adds to the
counters of the request that is running on its thread. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

DETECT = "pipeline.detect"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request: Optional[int]
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class RequestCounts:
    """Counts attributed to one detect call."""

    counts: Counter = field(default_factory=Counter)
    embedded: set = field(default_factory=set)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.requests: dict[int, RequestCounts] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        # Parent for spans opened on a thread with no open span, such as
        # detect calls on bench's worker threads inside bench.evaluate.
        self._outer: Optional[Span] = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._outer
        span_id = next(self._ids)
        if name == DETECT:
            request = span_id
            self.requests[request] = RequestCounts()
        else:
            request = parent.request if parent is not None else None
        span = Span(span_id, name, parent.id if parent else None, request, time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def outer(self, name: str):
        """A span that adopts spans opened on other threads while it is open."""
        with self.span(name) as span:
            self._outer = span
            try:
                yield span
            finally:
                self._outer = None

    def current(self) -> RequestCounts:
        """Counters of the request running on this thread."""
        stack = self._stack()
        request = stack[-1].request if stack else None
        if request is None:
            raise RuntimeError("counter used outside a traced detect call")
        return self.requests[request]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_ms(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start - covered) * 1000.0


# ---------------------------------------------------------------------------
# Backend proxies
# ---------------------------------------------------------------------------


class _TracedEmbedder:
    def __init__(self, tracer: Tracer, inner):
        self.tracer, self.inner = tracer, inner

    def embed(self, texts):
        texts = list(texts)
        with self.tracer.span("backends.embed"):
            req = self.tracer.current()
            req.counts["embed_calls"] += 1
            req.counts["embed_texts"] += len(texts)
            req.embedded.update(texts)
            return self.inner.embed(texts)


class _TracedNLI:
    def __init__(self, tracer: Tracer, inner):
        self.tracer, self.inner = tracer, inner

    def score(self, pairs):
        pairs = list(pairs)
        with self.tracer.span("backends.nli"):
            req = self.tracer.current()
            req.counts["nli_calls"] += 1
            req.counts["nli_pairs"] += len(pairs)
            return self.inner.score(pairs)


class _TracedClassifier:
    def __init__(self, tracer: Tracer, inner):
        self.tracer, self.inner = tracer, inner

    def classify(self, texts):
        with self.tracer.span("backends.classify"):
            self.tracer.current().counts["classify_calls"] += 1
            return self.inner.classify(texts)


def traced_backends(tracer: Tracer, backends):
    from groundcheck import BackendSet

    return BackendSet(
        embedder=_TracedEmbedder(tracer, backends.embedder),
        nli=_TracedNLI(tracer, backends.nli),
        claim_classifier=_TracedClassifier(tracer, backends.claim_classifier),
    )


# ---------------------------------------------------------------------------
# Module patches
# ---------------------------------------------------------------------------


@contextmanager
def installed(tracer: Tracer):
    """Wrap the program's call sites while the block runs; restore after."""
    from groundcheck import bench, chunking, nli, pipeline

    count_tokens = chunking.count_tokens

    def counted_count_tokens(counter, text):
        counts = tracer.current().counts
        counts["count_calls"] += 1
        counts["chars_scanned"] += len(text)
        return count_tokens(counter, text)

    chunk_context = pipeline.chunk_context

    def traced_chunk_context(*args, **kwargs):
        with tracer.span("chunking.context"):
            chunks = chunk_context(*args, **kwargs)
            tracer.current().counts["chunks"] += len(chunks)
            return chunks

    filter_claims = pipeline.filter_claims

    def counted_filter_claims(claims, *args, **kwargs):
        kept = filter_claims(claims, *args, **kwargs)
        counts = tracer.current().counts
        counts["claims"] += len(claims)
        counts["kept"] += len(kept)
        return kept

    select_k = pipeline.select_k

    def counted_select_k(*args, **kwargs):
        selection = select_k(*args, **kwargs)
        counts = tracer.current().counts
        counts["select_calls"] += 1
        counts["selected_k"] += selection.k
        counts["top_truncations"] += selection.top_chunk_budget is not None
        return selection

    patches = [
        (chunking, "count_tokens", counted_count_tokens),
        (pipeline, "chunk_context", traced_chunk_context),
        (pipeline, "filter_claims", counted_filter_claims),
        (pipeline, "select_k", counted_select_k),
        (bench, "detect", tracer.wrap(DETECT, bench.detect)),
        (nli, "score_claim", tracer.wrap("nli.score_claim", nli.score_claim)),
    ]
    patches += [
        (pipeline, attr, tracer.wrap(span, getattr(pipeline, attr)))
        for attr, span in (
            ("split_output_into_claims", "chunking.split"),
            ("classify_factual", "claims.classify"),
            ("rank_chunks", "retrieval.rank"),
            ("claim_score", "aggregation"),
            ("response_score", "aggregation"),
            ("classify_response", "aggregation"),
        )
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, replacement in patches:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)

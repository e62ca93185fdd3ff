import json
import math
import random
import re
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import gen
from groundcheck import bench
from groundcheck.backends import (
    EMBEDDING_DIM,
    BackendDescriptor,
    ContainmentNLI,
    HeuristicClaimClassifier,
    MockEmbedder,
    RemoteClaimClassifier,
    RemoteEmbedder,
    RemoteNLI,
    _SLICE_CHARS,
    builtin_backends,
    remote_backends,
    remote_call,
)
from groundcheck.chunking import ChunkerConfig
from groundcheck.errors import BackendUnavailableError, ConfigError, ProtocolError
from groundcheck.pipeline import DetectionRequest, PipelineConfig, detect


# ---------------------------------------------------------------------------
# Builtin backends
# ---------------------------------------------------------------------------


def test_mock_embedder_shape_and_determinism():
    embedder = MockEmbedder()
    a, b = embedder.embed(["some text here", "some text here"])
    assert a.shape == (64,)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_mock_embedder_empty_text_is_zero():
    (vec,) = MockEmbedder().embed([""])
    assert np.array_equal(vec, np.zeros(64))
    # texts shorter than one trigram behave the same
    (vec2,) = MockEmbedder().embed(["ab"])
    assert np.array_equal(vec2, np.zeros(64))


def test_mock_embedder_trigram_counts():
    # trigrams of "abcabc": abc, bca, cab, abc -> counts (2, 1, 1);
    # "abc" has the single trigram abc. With distinct buckets the cosine is
    # 2 / sqrt(6) = 0.816497 (hand-derived from the bucketed counts).
    embedder = MockEmbedder()
    u, v = embedder.embed(["abcabc", "abc"])
    assert np.count_nonzero(u) == 3  # abc, bca, cab land in distinct buckets
    got = float(np.dot(u, v))
    assert got == pytest.approx(2.0 / math.sqrt(6.0), abs=1e-12)


def test_mock_embedder_case_insensitive():
    u, v = MockEmbedder().embed(["Hello World", "hello world"])
    assert np.array_equal(u, v)


def _reference_embedding(text):
    """Per-trigram zlib loop the vectorized embedder must match bit for bit."""
    counts = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    lowered = text.lower()
    for i in range(len(lowered) - 2):
        counts[zlib.crc32(lowered[i : i + 3].encode("utf-8"), 0x5EED) % EMBEDDING_DIM] += 1.0
    norm = np.linalg.norm(counts)
    return counts if norm == 0.0 else counts / norm


_EMBED_TEXTS = st.lists(
    st.one_of(st.text(max_size=300), st.text(alphabet="aZ İΣς\u00e9\u0800\U0001f600", max_size=12)),
    max_size=8,
)


@given(_EMBED_TEXTS)
@example(["", "ab", "İİİ", "x\U0001f600\U0010ffffé", "ΑΣ ΑΣ."])
def test_mock_embedder_matches_per_trigram_reference(texts):
    vectors = MockEmbedder().embed(texts)
    assert len(vectors) == len(texts)
    for vec, text in zip(vectors, texts):
        assert vec.dtype == np.float64
        assert vec.shape == (EMBEDDING_DIM,)
        assert vec.tobytes() == _reference_embedding(text).tobytes()


def test_mock_embedder_slices_match_one_text_at_a_time():
    rng = random.Random(11)
    texts = [gen.document(rng, rng.randint(50, 400)) for _ in range(60)]
    texts.insert(20, "Ünïcode " * (_SLICE_CHARS // 4))  # longer than a slice on its own
    assert sum(map(len, texts)) > 3 * _SLICE_CHARS
    embedder = MockEmbedder()
    together = embedder.embed(texts)
    for vec, text in zip(together, texts):
        (alone,) = embedder.embed([text])
        assert vec.tobytes() == alone.tobytes()


def test_builtin_backend_set():
    backends = builtin_backends()
    assert isinstance(backends.embedder, MockEmbedder)
    assert isinstance(backends.nli, ContainmentNLI)
    assert isinstance(backends.claim_classifier, HeuristicClaimClassifier)


# ---------------------------------------------------------------------------
# Remote backends against a local HTTP server
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append((self.path, payload))
        status, body = self.server.behavior(self.path, payload)
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class LocalService:
    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.server.requests = []
        self.server.behavior = self._default
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @staticmethod
    def _default(path, payload):
        if path == "/embed":
            return 200, {"vectors": [[1.0, 0.0, 0.0] for _ in payload["texts"]]}
        if path == "/nli":
            return 200, {
                "scores": [
                    {"entail": 0.7, "neutral": 0.2, "contradict": 0.1} for _ in payload["pairs"]
                ]
            }
        if path == "/classify_factual":
            return 200, {"probs": [0.9 for _ in payload["texts"]]}
        return 404, {}

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self):
        return self.server.requests

    def set_behavior(self, fn):
        self.server.behavior = fn

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def service():
    svc = LocalService()
    yield svc
    svc.close()


@pytest.fixture
def no_sleep(monkeypatch):
    slept = []
    monkeypatch.setattr("groundcheck.backends.time.sleep", slept.append)
    return slept


def descriptor(url, **kw):
    return BackendDescriptor(endpoint=url, **kw)


def test_remote_embed_shape(service):
    vectors = RemoteEmbedder(descriptor(service.url)).embed(["a", "b"])
    assert len(vectors) == 2
    assert all(v.shape == (3,) for v in vectors)
    assert service.requests == [("/embed", {"texts": ["a", "b"]})]


def test_remote_nli_shape(service):
    scores = RemoteNLI(descriptor(service.url)).score([("p", "h")])
    assert len(scores) == 1
    assert scores[0].p_entail == 0.7
    assert service.requests[0] == ("/nli", {"pairs": [{"premise": "p", "hypothesis": "h"}]})


def test_remote_classify_shape(service):
    probs = RemoteClaimClassifier(descriptor(service.url)).classify(["x"])
    assert probs == [0.9]


def test_remote_batching(service):
    RemoteEmbedder(descriptor(service.url, max_batch=2)).embed(["a", "b", "c", "d", "e"])
    sizes = [len(payload["texts"]) for _, payload in service.requests]
    assert sizes == [2, 2, 1]


def test_retries_exhausted_on_5xx(service, no_sleep):
    service.set_behavior(lambda path, payload: (500, {}))
    with pytest.raises(BackendUnavailableError):
        remote_call(descriptor(service.url, retries=2), "/embed", {"texts": []})
    assert len(service.requests) == 3  # initial attempt + 2 retries
    assert no_sleep == [0.25, 0.5]  # exponential backoff, 250 ms base


def test_retry_then_success(service, no_sleep):
    state = {"calls": 0}

    def flaky(path, payload):
        state["calls"] += 1
        if state["calls"] == 1:
            return 503, {}
        return LocalService._default(path, payload)

    service.set_behavior(flaky)
    vectors = RemoteEmbedder(descriptor(service.url, retries=2)).embed(["a"])
    assert len(vectors) == 1
    assert state["calls"] == 2


def test_transport_error_unreachable(no_sleep):
    dead = descriptor("http://127.0.0.1:1", retries=1, timeout_ms=200)
    with pytest.raises(BackendUnavailableError):
        remote_call(dead, "/embed", {"texts": []})


def test_protocol_error_wrong_arity(service):
    service.set_behavior(lambda path, payload: (200, {"vectors": [[1.0]]}))
    with pytest.raises(ProtocolError):
        RemoteEmbedder(descriptor(service.url)).embed(["a", "b"])


@pytest.mark.parametrize(
    "make_call, body, message",
    [
        (
            lambda d: RemoteEmbedder(d).embed(["a", "b", "c"]),
            {"vectors": [[1.0]]},
            "/embed returned 1 vectors for 2 texts",
        ),
        (
            lambda d: RemoteNLI(d).score([("p", "h")] * 3),
            {"scores": []},
            "/nli returned 0 scores for 2 pairs",
        ),
        (
            lambda d: RemoteClaimClassifier(d).classify(["x"] * 3),
            [0.5, 0.5],
            "/classify_factual returned 0 probs for 2 texts",
        ),
    ],
    ids=["embed", "nli", "classify-non-object-body"],
)
def test_protocol_error_arity_message(service, make_call, body, message):
    service.set_behavior(lambda path, payload: (200, body))
    with pytest.raises(ProtocolError, match=re.escape(message)):
        make_call(descriptor(service.url, max_batch=2))


def test_protocol_error_dimension_differs_across_batches(service):
    def behavior(path, payload):
        dim = 3 if "a" in payload["texts"] else 2  # the second batch answers in another dimension
        return 200, {"vectors": [[1.0] * dim for _ in payload["texts"]]}

    service.set_behavior(behavior)
    with pytest.raises(ProtocolError, match="disagree on dimension"):
        RemoteEmbedder(descriptor(service.url, max_batch=2)).embed(["a", "b", "c"])


def test_protocol_error_unnormalized_nli(service):
    service.set_behavior(
        lambda path, payload: (
            200,
            {"scores": [{"entail": 0.9, "neutral": 0.9, "contradict": 0.0}]},
        )
    )
    with pytest.raises(ProtocolError):
        RemoteNLI(descriptor(service.url)).score([("p", "h")])


def test_protocol_error_nonfinite_vector(service):
    service.set_behavior(lambda path, payload: (200, {"vectors": [[float("nan"), 1.0]]}))
    with pytest.raises(ProtocolError):
        RemoteEmbedder(descriptor(service.url)).embed(["a"])


@pytest.mark.parametrize("vector", [["a"], [{}], [[1.0], [2.0, 3.0]]])
def test_protocol_error_non_numeric_vector(service, vector):
    service.set_behavior(lambda path, payload: (200, {"vectors": [vector]}))
    with pytest.raises(ProtocolError, match="/embed vector is not numeric"):
        RemoteEmbedder(descriptor(service.url)).embed(["a"])


def test_protocol_error_4xx_is_not_retried(service, no_sleep):
    service.set_behavior(lambda path, payload: (404, {}))
    with pytest.raises(ProtocolError):
        remote_call(descriptor(service.url, retries=2), "/embed", {"texts": []})
    assert len(service.requests) == 1


def test_descriptor_invariants():
    with pytest.raises(ConfigError):
        BackendDescriptor(endpoint="")
    with pytest.raises(ConfigError):
        BackendDescriptor(endpoint="http://x", timeout_ms=0)
    with pytest.raises(ConfigError):
        BackendDescriptor(endpoint="http://x", retries=-1)


def _builtin_sidecar(path, payload):
    """Serve the builtin backends' semantics over the wire protocol."""
    local = builtin_backends()
    if path == "/embed":
        vectors = [v.tolist() for v in local.embedder.embed(payload["texts"])]
        return 200, {"vectors": vectors}
    if path == "/nli":
        pairs = [(p["premise"], p["hypothesis"]) for p in payload["pairs"]]
        return 200, {
            "scores": [
                {"entail": s.p_entail, "neutral": s.p_neutral, "contradict": s.p_contradict}
                for s in local.nli.score(pairs)
            ]
        }
    if path == "/classify_factual":
        return 200, {"probs": local.claim_classifier.classify(payload["texts"])}
    return 404, {}


def test_full_pipeline_over_the_wire_matches_in_process(service):
    """Serving the builtin semantics behind HTTP yields identical verdicts."""
    service.set_behavior(_builtin_sidecar)
    request = DetectionRequest(
        context_documents=(
            "The canal locks were rebuilt in 1907 after the spring flood "
            "destroyed the original oak gates.",
        ),
        output_text=(
            "The canal locks were rebuilt in 1907. "
            "Porcelain walruses legislated the tides by decree."
        ),
    )
    over_wire = detect(request, backends=remote_backends(service.url))
    in_process = detect(request, backends=builtin_backends())
    assert over_wire.to_dict() == in_process.to_dict()
    assert over_wire.label == "hallucinated"


@pytest.mark.parametrize("max_batch", [7, 32])
def test_detect_sends_nli_pairs_in_max_batch_requests(service, max_batch):
    """The NLI round trips of a request follow its pairs, not its claims."""
    service.set_behavior(_builtin_sidecar)
    rng = random.Random(3)
    context = gen.document(rng, 1500)
    sentences = [gen.sentence(rng, rng.randint(8, 14)).rstrip("?!") + "." for _ in range(20)]
    output = "\n\n".join(sentences)
    request = DetectionRequest(context_documents=(context,), output_text=output)
    config = PipelineConfig(claim_chunker=ChunkerConfig(s_max=20, o_max=0))

    verdict = detect(request, config, remote_backends(service.url, max_batch=max_batch))
    scored = [c for c in verdict.claim_verdicts if c.grounding_score is not None]
    assert len(scored) == 20
    batches = [len(payload["pairs"]) for path, payload in service.requests if path == "/nli"]
    pairs = sum(batches)
    assert pairs > len(scored)
    assert len(batches) == math.ceil(pairs / max_batch) < len(scored)
    assert all(size == max_batch for size in batches[:-1])
    assert verdict.to_dict() == detect(request, config).to_dict()


@pytest.fixture
def pool_spy(monkeypatch):
    """Record the thread pools ``detect_all`` starts and the threads ``detect`` runs on."""
    pools, threads = [], set()
    real_detect = bench.detect

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    def spy_detect(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(bench, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(bench, "detect", spy_detect)
    return pools, threads


def _rows(results):
    return [r.to_dict() if hasattr(r, "to_dict") else repr(r) for r in results]


def _detect_all_requests():
    rng = random.Random(21)
    requests = []
    for _ in range(6):
        context = gen.document(rng, 200)
        requests.append(((context,), gen.sentence(rng, 10) + " " + context[:120]))
    requests.append(((), "No context at all."))
    return requests


def test_detect_all_uses_threads_for_remote_backends(service, pool_spy):
    service.set_behavior(_builtin_sidecar)
    pools, threads = pool_spy
    requests, config = _detect_all_requests(), PipelineConfig()
    serial = bench.detect_all(requests, config, remote_backends(service.url), jobs=1)
    assert not pools and threads == {threading.get_ident()}
    threads.clear()
    threaded = bench.detect_all(requests, config, remote_backends(service.url), jobs=4)
    assert len(pools) == 1 and threading.get_ident() not in threads
    assert _rows(threaded) == _rows(serial)
    assert _rows(serial) == _rows(bench.detect_all(requests, config, builtin_backends()))


def test_detect_all_runs_builtin_backends_on_the_calling_thread(pool_spy):
    pools, threads = pool_spy
    before = threading.active_count()
    results = bench.detect_all(_detect_all_requests(), PipelineConfig(), builtin_backends(), jobs=8)
    assert len(results) == 7
    assert not pools and threads == {threading.get_ident()}
    assert threading.active_count() == before

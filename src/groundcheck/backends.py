"""Model backends: deterministic built-ins plus a remote JSON-over-HTTP client.

Three roles exist — embedder, entailment scorer, claim classifier — each with
a builtin implementation that needs no model weights:

* mock embedder: hashed character trigrams, 64 dimensions, L2-normalized;
* containment entailment scorer: fraction of the hypothesis's content tokens
  (lowercased alphanumerics minus a fixed 30-word stopword list) present in
  the premise;
* heuristic claim classifier: the rule table in :mod:`groundcheck.claims`.

All built-ins are pure and platform-independent (crc32 bucketing, integer
counts before normalization). Real models run out of process behind the wire
protocol:

    POST /embed            {"texts": [str]}   -> {"vectors": [[float]]}
    POST /nli              {"pairs": [{"premise": str, "hypothesis": str}]}
                                              -> {"scores": [{"entail": e,
                                                  "neutral": n, "contradict": c}]}
    POST /classify_factual {"texts": [str]}   -> {"probs": [float]}
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np
import requests

from .claims import heuristic_factual_prob
from .errors import BackendUnavailableError, ConfigError, ContractError, ProtocolError
from .nli import EntailmentScores

logger = logging.getLogger(__name__)

EMBEDDING_DIM = 64
_TRIGRAM_SEED = 0x5EED

# 30 high-frequency function words ignored by the containment scorer.
STOPWORDS = frozenset(
    [
        "a", "an", "the", "is", "are", "was", "were", "be", "been", "being",
        "of", "in", "on", "at", "to", "for", "with", "by", "from", "as",
        "and", "or", "but", "not", "it", "its", "this", "that", "these", "those",
    ]
)

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


class EmbedderBackend(Protocol):
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]: ...


class NLIBackend(Protocol):
    def score(self, pairs: Sequence[tuple[str, str]]) -> list[EntailmentScores]: ...


class ClaimClassifierBackend(Protocol):
    def classify(self, texts: Sequence[str]) -> list[float]: ...


def _crc32_table() -> np.ndarray:
    """zlib's CRC-32 lookup table: reflected polynomial 0xEDB88320."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()
# Whole texts are embedded in slices of at most this many characters (a
# longer text is a slice of its own), which bounds the per-trigram arrays.
_SLICE_CHARS = 1 << 14


class MockEmbedder:
    """Hashed-trigram embeddings: lexically similar texts rank near each other.

    A text's vector counts its lowercased character trigrams in
    ``zlib.crc32(trigram.encode("utf-8"), 0x5EED) % 64`` buckets, scaled to
    unit length (a text of fewer than three characters is the zero vector).
    The hashes of a whole slice of texts are computed at once, so the number
    of numpy calls depends on the number of slices, not of texts.
    """

    dim = EMBEDDING_DIM

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        lowered = [t.lower() for t in texts]
        vectors = np.zeros((len(lowered), EMBEDDING_DIM), dtype=np.float64)
        start = 0
        while start < len(lowered):
            end, chars = start + 1, len(lowered[start])
            while end < len(lowered) and chars + len(lowered[end]) <= _SLICE_CHARS:
                chars += len(lowered[end])
                end += 1
            vectors[start:end] = _trigram_counts(lowered[start:end])
            start = end
        # The counts are integers, so the sums of squares are exact and the
        # norms equal np.linalg.norm of each row bit for bit.
        norms = np.sqrt(np.sum(vectors * vectors, axis=1))
        np.divide(vectors, norms[:, None], out=vectors, where=norms[:, None] > 0.0)
        return list(vectors)


def _trigram_counts(texts: list[str]) -> np.ndarray:
    """Per-text trigram bucket counts of already lowercased texts, as float64.

    The texts are joined and UTF-8-encoded once, and each character's byte
    offset comes from the UTF-8 lead bytes. The trigrams are grouped by byte
    length (3 to 12); zlib's CRC-32 table loop runs over each group one byte
    column at a time, seeded as ``zlib.crc32(data, _TRIGRAM_SEED)`` seeds it.
    """
    data = np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8)
    char_starts = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)
    text_ids = np.repeat(np.arange(len(texts)), [len(t) for t in texts])
    starts = char_starts[:-3]
    lengths = char_starts[3:] - starts
    buckets = np.empty(starts.size, dtype=np.uint32)
    for length in range(3, lengths.max(initial=2) + 1):
        group = lengths == length
        offsets = starts[group]
        crc = np.full(offsets.size, _TRIGRAM_SEED ^ 0xFFFFFFFF, dtype=np.uint32)
        for i in range(length):
            crc = _CRC32_TABLE.take((crc ^ data.take(offsets + i)) & 0xFF) ^ (crc >> 8)
        buckets[group] = (crc ^ 0xFFFFFFFF) % EMBEDDING_DIM
    # A trigram that crosses a text boundary is counted in an extra row,
    # which is dropped.
    rows = np.where(text_ids[:-2] == text_ids[2:], text_ids[:-2], len(texts))
    counts = np.bincount(rows * EMBEDDING_DIM + buckets, minlength=(len(texts) + 1) * EMBEDDING_DIM)
    return counts[: len(texts) * EMBEDDING_DIM].reshape(len(texts), EMBEDDING_DIM).astype(np.float64)


def content_tokens(text: str) -> set[str]:
    """Lowercased alphanumeric tokens of ``text`` minus the stopword list."""
    return {w for w in (m.group(0).lower() for m in _WORD_RE.finditer(text)) if w not in STOPWORDS}


class ContainmentNLI:
    """Deterministic entailment oracle: hypothesis-token containment.

    p_entail is the fraction of the hypothesis's content tokens found in the
    premise (1.0 when the hypothesis has none); contradiction is always 0 and
    the remainder is neutral.
    """

    def score(self, pairs: Sequence[tuple[str, str]]) -> list[EntailmentScores]:
        # A request's pairs repeat each claim once per selected chunk and each
        # chunk once per claim that selects it: tokenize every text once.
        tokens: dict[str, set[str]] = {}

        def content(text: str) -> set[str]:
            if text not in tokens:
                tokens[text] = content_tokens(text)
            return tokens[text]

        out = []
        for premise, hypothesis in pairs:
            hyp = content(hypothesis)
            if not hyp:
                p = 1.0
            else:
                p = len(hyp & content(premise)) / len(hyp)
            out.append(EntailmentScores(p_entail=p, p_neutral=1.0 - p, p_contradict=0.0))
        return out


class HeuristicClaimClassifier:
    """Backend wrapper around the heuristic factual-claim rule table."""

    def classify(self, texts: Sequence[str]) -> list[float]:
        return [heuristic_factual_prob(t) for t in texts]


@dataclass(frozen=True)
class BackendSet:
    """The three model roles the pipeline needs, bundled."""

    embedder: EmbedderBackend
    nli: NLIBackend
    claim_classifier: ClaimClassifierBackend

    @property
    def has_remote(self) -> bool:
        """Whether some role is a remote client, whose calls wait on the network."""
        remote = (RemoteEmbedder, RemoteNLI, RemoteClaimClassifier)
        return any(isinstance(b, remote) for b in (self.embedder, self.nli, self.claim_classifier))


def builtin_backends() -> BackendSet:
    return BackendSet(
        embedder=MockEmbedder(),
        nli=ContainmentNLI(),
        claim_classifier=HeuristicClaimClassifier(),
    )


# ---------------------------------------------------------------------------
# Remote backends
# ---------------------------------------------------------------------------

_BACKOFF_BASE_MS = 250


@dataclass(frozen=True)
class BackendDescriptor:
    endpoint: str
    timeout_ms: int = 10000
    max_batch: int = 32
    retries: int = 2

    def __post_init__(self):
        if not self.endpoint:
            raise ConfigError("remote backend requires an endpoint")
        if self.timeout_ms <= 0:
            raise ConfigError("timeout must be positive")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be positive")
        if self.retries < 0:
            raise ConfigError("retries must be nonnegative")


def remote_call(descriptor: BackendDescriptor, route: str, payload: dict) -> dict:
    """POST JSON to endpoint+route, retrying transport errors and 5xx."""
    url = descriptor.endpoint.rstrip("/") + route
    timeout = descriptor.timeout_ms / 1000.0
    attempts = descriptor.retries + 1
    last_error = None
    for attempt in range(attempts):
        if attempt > 0:
            time.sleep(_BACKOFF_BASE_MS / 1000.0 * (2 ** (attempt - 1)))
        try:
            response = requests.post(url, json=payload, timeout=timeout)
        except requests.RequestException as exc:
            last_error = f"transport error: {exc}"
            logger.warning("remote call %s attempt %d failed: %s", route, attempt + 1, exc)
            continue
        if response.status_code >= 500:
            last_error = f"server error {response.status_code}"
            logger.warning(
                "remote call %s attempt %d got %d", route, attempt + 1, response.status_code
            )
            continue
        if response.status_code != 200:
            raise ProtocolError(f"{url} returned status {response.status_code}")
        try:
            return response.json()
        except ValueError as exc:
            raise ProtocolError(f"{url} returned non-JSON body: {exc}") from exc
    raise BackendUnavailableError(f"{url} unavailable after {attempts} attempts: {last_error}")


def _remote_items(descriptor: BackendDescriptor, route: str, key: str, items: list, result_key: str) -> list:
    """POST ``items`` under ``key`` in batches of ``max_batch``; concatenate the
    ``result_key`` lists, checking that each batch answers every item."""
    results = []
    for i in range(0, len(items), descriptor.max_batch):
        batch = items[i : i + descriptor.max_batch]
        body = remote_call(descriptor, route, {key: batch})
        got = body.get(result_key) if isinstance(body, dict) else None
        if not isinstance(got, list) or len(got) != len(batch):
            raise ProtocolError(
                f"{route} returned {len(got) if isinstance(got, list) else 0} "
                f"{result_key} for {len(batch)} {key}"
            )
        results.extend(got)
    return results


class RemoteEmbedder:
    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        vectors: list[np.ndarray] = []
        for vec in _remote_items(self.descriptor, "/embed", "texts", list(texts), "vectors"):
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"/embed vector is not numeric: {exc}") from exc
            if arr.ndim != 1 or arr.size == 0:
                raise ProtocolError("/embed vector is not a flat nonempty list")
            if vectors and arr.size != vectors[0].size:
                raise ProtocolError("/embed vectors disagree on dimension")
            if not np.all(np.isfinite(arr)):
                raise ProtocolError("/embed vector contains NaN or Inf")
            vectors.append(arr)
        return vectors


class RemoteNLI:
    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor

    def score(self, pairs: Sequence[tuple[str, str]]) -> list[EntailmentScores]:
        items = [{"premise": p, "hypothesis": h} for p, h in pairs]
        scores: list[EntailmentScores] = []
        for item in _remote_items(self.descriptor, "/nli", "pairs", items, "scores"):
            try:
                triple = EntailmentScores(
                    p_entail=float(item["entail"]),
                    p_neutral=float(item["neutral"]),
                    p_contradict=float(item["contradict"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"/nli score entry malformed: {item!r}") from exc
            except ContractError as exc:
                raise ProtocolError(f"/nli score entry invalid: {exc}") from exc
            scores.append(triple)
        return scores


class RemoteClaimClassifier:
    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor

    def classify(self, texts: Sequence[str]) -> list[float]:
        probs: list[float] = []
        for p in _remote_items(self.descriptor, "/classify_factual", "texts", list(texts), "probs"):
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise ProtocolError(f"/classify_factual prob out of [0,1]: {p}")
            probs.append(p)
        return probs


def remote_backends(endpoint: str, **kwargs) -> BackendSet:
    descriptor = BackendDescriptor(endpoint=endpoint, **kwargs)
    return BackendSet(
        embedder=RemoteEmbedder(descriptor),
        nli=RemoteNLI(descriptor),
        claim_classifier=RemoteClaimClassifier(descriptor),
    )

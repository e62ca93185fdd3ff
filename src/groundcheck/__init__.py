"""Retrieval-based hallucination detection.

Splits a model output into claims, retrieves a token-budgeted evidence set
from the source documents for each claim, scores claim/evidence entailment,
and aggregates into claim- and response-level verdicts. Deterministic
builtin backends make the whole pipeline runnable offline; real models plug
in over a small JSON-over-HTTP protocol.
"""

from .aggregation import (
    AggregationConfig,
    ClaimVerdict,
    GROUNDED,
    HALLUCINATED,
    NO_FACTUAL_CLAIMS,
    NON_FACTUAL_UNSCORED,
    ResponseVerdict,
)
from .backends import BackendSet, builtin_backends, remote_backends
from .chunking import Chunk, ChunkerConfig, chunk_context, chunk_text, split_output_into_claims
from .claims import Claim, classify_factual, filter_claims
from .errors import (
    BackendError,
    BackendUnavailableError,
    ClaimOverflowError,
    ConfigError,
    ContractError,
    DatasetError,
    GroundcheckError,
    ProtocolError,
)
from .pipeline import DetectionRequest, PipelineConfig, detect
from .retrieval import ClaimEvidence, PackingBudget
from .tokens import TokenCounter, budgeted_count, count_tokens, span_counter

__version__ = "0.1.0"

__all__ = [
    "AggregationConfig",
    "BackendError",
    "BackendSet",
    "BackendUnavailableError",
    "Chunk",
    "ChunkerConfig",
    "Claim",
    "ClaimEvidence",
    "ClaimOverflowError",
    "ClaimVerdict",
    "ConfigError",
    "ContractError",
    "DatasetError",
    "DetectionRequest",
    "GROUNDED",
    "GroundcheckError",
    "HALLUCINATED",
    "NO_FACTUAL_CLAIMS",
    "NON_FACTUAL_UNSCORED",
    "PackingBudget",
    "PipelineConfig",
    "ProtocolError",
    "ResponseVerdict",
    "TokenCounter",
    "budgeted_count",
    "builtin_backends",
    "chunk_context",
    "chunk_text",
    "classify_factual",
    "count_tokens",
    "detect",
    "filter_claims",
    "remote_backends",
    "span_counter",
    "split_output_into_claims",
]

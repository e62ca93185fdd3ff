"""Factual-claim annotation and filtering.

Model outputs contain plenty of non-factual furniture (titles, greetings,
questions) that should not be graded against the context. A claim classifier
assigns each claim a probability of being factual; claims below the threshold
are excluded from grounding and surface in the verdict as unscored.

The builtin classifier is a versioned heuristic rule table so that runs are
reproducible without any model. First matching rule wins:

  H1  heading-like lines: leading '#', or ALL-CAPS with <= 6 tokens, or a
      line ending ':' with <= 6 tokens; single-line claims only -> 0.0
  H2  greeting/closing phrase at the start of the claim          -> 0.0
  H3  interrogative claims (ends with '?')                       -> 0.0
  H4  very short claims (< 4 tokens)                             -> 0.2
  otherwise                                                      -> 1.0
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import BackendError, ContractError
from .tokens import builtin_token_count

HEURISTIC_RULES_VERSION = 1

GREETING_LEXICON: tuple[str, ...] = (
    "hello",
    "hi there",
    "happy to help",
    "best regards",
    "let me know",
    "sure!",
)

DEFAULT_FACTUAL_THRESHOLD = 0.5

_SHORT_CLAIM_PROB = 0.2
_HEADING_MAX_TOKENS = 6
_MIN_FACTUAL_TOKENS = 4


@dataclass(frozen=True)
class Claim:
    """A contiguous span of the model output treated as one proposition."""

    text: str
    start: int
    end: int
    token_count: int
    claim_index: int
    factual_prob: Optional[float] = None

    def __post_init__(self):
        if self.factual_prob is not None and not 0.0 <= self.factual_prob <= 1.0:
            raise ContractError(f"factual_prob out of [0,1]: {self.factual_prob}")


def _is_all_caps(text: str) -> bool:
    letters = [c for c in text if c.isalpha()]
    return bool(letters) and all(c.isupper() for c in letters)


def heuristic_factual_prob(text: str) -> float:
    """Apply the rule table to one claim text."""
    stripped = text.strip()
    tokens = builtin_token_count(stripped)
    # H1: heading-like. Only single-line claims qualify; a heading that the
    # chunker merged with its following paragraph must stay scoreable.
    if "\n" not in stripped:
        if stripped.startswith("#"):
            return 0.0
        if tokens <= _HEADING_MAX_TOKENS and _is_all_caps(stripped):
            return 0.0
        if stripped.endswith(":") and tokens <= _HEADING_MAX_TOKENS:
            return 0.0
    # H2: greeting / closing phrase at claim start
    lowered = stripped.lower()
    for phrase in GREETING_LEXICON:
        if lowered.startswith(phrase):
            return 0.0
    # H3: interrogative
    if stripped.endswith("?"):
        return 0.0
    # H4: too short to carry a verifiable fact
    if tokens < _MIN_FACTUAL_TOKENS:
        return _SHORT_CLAIM_PROB
    return 1.0


def classify_factual(backend, claims: Sequence[Claim]) -> list[Claim]:
    """Annotate every claim with a factual probability from ``backend``.

    Order is preserved. Backend failures are re-raised with the claim
    indices attached for traceability.
    """
    if not claims:
        return []
    try:
        probs = backend.classify([c.text for c in claims])
    except BackendError:
        raise
    except Exception as exc:
        indices = [c.claim_index for c in claims]
        raise BackendError(f"claim classifier failed for claims {indices}: {exc}") from exc
    if len(probs) != len(claims):
        raise BackendError(
            f"claim classifier returned {len(probs)} probs for {len(claims)} claims"
        )
    return [replace(c, factual_prob=float(p)) for c, p in zip(claims, probs)]


def filter_claims(
    claims: Sequence[Claim], threshold: float = DEFAULT_FACTUAL_THRESHOLD
) -> list[Claim]:
    """Keep claims with factual_prob >= threshold, preserving order and indices."""
    for c in claims:
        if c.factual_prob is None:
            raise ContractError(f"claim {c.claim_index} is unclassified")
    return [c for c in claims if c.factual_prob >= threshold]

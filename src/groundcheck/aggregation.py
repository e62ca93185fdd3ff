"""Aggregation of entailment scores into claim and response verdicts.

A claim's grounding score is the maximum entailment probability over its
selected evidence: one supporting chunk is enough. The response score is an
exponentially weighted softmin of the claim scores,

    score = sum(g_i * exp(-beta * g_i)) / sum(exp(-beta * g_i)),

which weights poorly grounded claims more heavily the larger beta is:
beta = 0 is the arithmetic mean, beta -> inf approaches the minimum, and for
beta > 0 the score sits strictly below the mean on non-constant inputs. The
score is also non-increasing in beta (its beta-derivative is minus the
weighted variance). Note it is not coordinate-wise monotone for large beta:
raising one claim score far above the rest shrinks that claim's weight
faster than its contribution grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError

GROUNDED = "grounded"
HALLUCINATED = "hallucinated"
NON_FACTUAL_UNSCORED = "non-factual-unscored"
NO_FACTUAL_CLAIMS = "no-factual-claims"

DEFAULT_BETA = 10.0
DEFAULT_THETA = 0.5


@dataclass(frozen=True)
class AggregationConfig:
    beta: float = DEFAULT_BETA
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must be in (0,1), got {self.theta}")


@dataclass(frozen=True)
class ClaimVerdict:
    claim_index: int
    text: str
    start: int
    end: int
    label: str
    factual_prob: Optional[float] = None
    grounding_score: Optional[float] = None
    best_chunk_index: Optional[int] = None
    best_chunk_doc: Optional[int] = None


@dataclass(frozen=True)
class ResponseVerdict:
    label: str
    response_score: float
    claim_verdicts: tuple[ClaimVerdict, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "response_score": self.response_score,
            "claims": [
                {
                    "claim_index": c.claim_index,
                    "text": c.text,
                    "start": c.start,
                    "end": c.end,
                    "label": c.label,
                    "factual_prob": c.factual_prob,
                    "grounding_score": c.grounding_score,
                    "best_chunk_index": c.best_chunk_index,
                    "best_chunk_doc": c.best_chunk_doc,
                }
                for c in self.claim_verdicts
            ],
            "warnings": list(self.warnings),
        }


def claim_score(entailment_probs: Sequence[float]) -> float:
    """Grounding score of one claim: max entailment over its evidence."""
    if len(entailment_probs) == 0:
        raise ContractError("claim_score requires at least one entailment score")
    return float(max(entailment_probs))


def response_score(claim_scores: Sequence[float], config: AggregationConfig) -> float:
    """Softmin-weighted mean of the claim scores (see module docstring)."""
    if len(claim_scores) == 0:
        raise ContractError("response_score requires at least one claim score")
    g = np.asarray(claim_scores, dtype=np.float64)
    if config.beta == 0.0:
        return float(g.mean())
    # Shift by the minimum before exponentiating; weights are scale-free and
    # the minimum's weight becomes exactly 1, so the denominator never
    # underflows at large beta.
    w = np.exp(-config.beta * (g - g.min()))
    return float((w * g).sum() / w.sum())


def classify_response(
    score: Optional[float],
    config: AggregationConfig,
    claim_verdicts: Sequence[ClaimVerdict],
    warnings: Sequence[str] = (),
) -> ResponseVerdict:
    """Build the response verdict. ``score`` is None when nothing was scored.

    With zero scored claims the response is labeled no-factual-claims and
    reported with score 1.0 by convention; a warning always accompanies it.
    """
    warnings = list(warnings)
    if score is None:
        warnings.append("no factual claims to score")
        return ResponseVerdict(
            label=NO_FACTUAL_CLAIMS,
            response_score=1.0,
            claim_verdicts=tuple(claim_verdicts),
            warnings=tuple(warnings),
        )
    label = HALLUCINATED if score < config.theta else GROUNDED
    return ResponseVerdict(
        label=label,
        response_score=float(score),
        claim_verdicts=tuple(claim_verdicts),
        warnings=tuple(warnings),
    )


def claim_label(g: float, config: AggregationConfig) -> str:
    return HALLUCINATED if g < config.theta else GROUNDED

"""Entailment scoring of claims against their retrieved evidence.

Evidence is the premise and the claim is the hypothesis: a claim is grounded
when some evidence entails it. Only the entailment probability feeds the
verdict; neutral and contradiction are deliberately collapsed, since an
unsupported claim is treated the same whether the context is silent or
disagrees.

Two scoring modes exist. ``pairwise`` (default) scores each selected chunk
against the claim separately; ``packed`` joins the selected chunks, in
document order, into one premise and scores once. Either way the pairs of
every claim of a request go to the backend in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .chunking import Chunk
from .errors import BackendError, ContractError
from .retrieval import ClaimEvidence

PAIRWISE = "pairwise"
PACKED = "packed"
SCORING_MODES = (PAIRWISE, PACKED)

_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EntailmentScores:
    """One backend judgment: probabilities over entail/neutral/contradict."""

    p_entail: float
    p_neutral: float
    p_contradict: float

    def __post_init__(self):
        for name, p in (
            ("p_entail", self.p_entail),
            ("p_neutral", self.p_neutral),
            ("p_contradict", self.p_contradict),
        ):
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"{name} out of [0,1]: {p}")
        total = self.p_entail + self.p_neutral + self.p_contradict
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ContractError(f"entailment triple sums to {total}, expected 1")


def claim_pairs(
    mode: str, hypothesis: str, evidence: ClaimEvidence, chunks: Sequence[Chunk]
) -> list[tuple[str, str]]:
    """The (premise, hypothesis) pairs that score one claim.

    Pairwise mode gives one pair per selected chunk, in rank order; packed
    mode gives one pair whose premise joins the selected chunks in document
    order. A truncated top chunk stands in for the full one either way.
    """
    if mode not in SCORING_MODES:
        raise ContractError(f"unknown scoring mode: {mode!r}")
    if evidence.selected_k < 1:
        raise ContractError(f"claim {evidence.claim_index} has no selected evidence")

    premises = []
    for rank_pos, chunk_idx in enumerate(evidence.selected_chunk_indices()):
        text = chunks[chunk_idx].text
        if rank_pos == 0 and evidence.truncated_top is not None:
            text = evidence.truncated_top
        premises.append((chunk_idx, text))

    if mode == PACKED:
        joined = "\n".join(text for _, text in sorted(premises, key=lambda p: p[0]))
        return [(joined, hypothesis)]
    return [(text, hypothesis) for _, text in premises]


def score_claim(
    backend, claims: Sequence[Sequence[tuple[str, str]]]
) -> list[list[EntailmentScores]]:
    """Score every claim of a request in one backend call.

    ``claims`` holds each claim's pairs (see :func:`claim_pairs`); all pairs
    go to ``backend.score`` at once, in claim order, and the scores come
    back sliced per claim. No pairs, no call.
    """
    pairs = [pair for claim in claims for pair in claim]
    if not pairs:
        return [[] for _ in claims]
    try:
        scores = backend.score(pairs)
    except BackendError:
        raise
    except Exception as exc:
        raise BackendError(f"NLI backend failed on a batch of {len(pairs)} pairs: {exc}") from exc
    if len(scores) != len(pairs):
        raise BackendError(f"NLI backend returned {len(scores)} scores for {len(pairs)} pairs")
    out, pos = [], 0
    for claim in claims:
        out.append(list(scores[pos : pos + len(claim)]))
        pos += len(claim)
    return out

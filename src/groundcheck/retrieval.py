"""Per-claim evidence retrieval: rank context chunks, pack the top k.

Every claim gets its own evidence set: all context chunks are ranked by
cosine similarity against the claim, and the largest prefix of the ranking
that fits the scoring window alongside the claim is selected. k is therefore
dynamic: short claims leave room for more evidence, long claims for less,
and the packing inequality

    claim + fixed_reserve + sum(chunk + per_chunk_reserve) <= window

holds for every scored claim (in budgeted token units).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError

logger = logging.getLogger(__name__)

DEFAULT_WINDOW = 512
DEFAULT_FIXED_RESERVE = 8
DEFAULT_PER_CHUNK_RESERVE = 2
DEFAULT_K_TARGET = 4
DEFAULT_K_MAX = 8


@dataclass(frozen=True)
class PackingBudget:
    """Token budget of the downstream scoring window."""

    window: int = DEFAULT_WINDOW
    fixed_reserve: int = DEFAULT_FIXED_RESERVE
    per_chunk_reserve: int = DEFAULT_PER_CHUNK_RESERVE
    k_target: int = DEFAULT_K_TARGET
    k_max: int = DEFAULT_K_MAX
    context_overlap: int = 12

    def __post_init__(self):
        if self.window <= self.fixed_reserve:
            raise ConfigError("window must exceed fixed_reserve")
        if self.k_target < 1 or self.k_max < 1:
            raise ConfigError("k_target and k_max must be positive")
        if self.k_target > self.k_max:
            raise ConfigError("k_target must be <= k_max")
        if self.per_chunk_reserve < 0 or self.fixed_reserve < 0 or self.context_overlap < 0:
            raise ConfigError("reserves and overlap must be nonnegative")


@dataclass(frozen=True)
class KSelection:
    """Outcome of packing: how many ranked chunks fit the window.

    When even the top chunk does not fit, k is 1 and ``top_chunk_budget``
    carries the token budget the top chunk must be truncated to.
    """

    k: int
    top_chunk_budget: Optional[int] = None


@dataclass(frozen=True)
class ClaimEvidence:
    """Ranked chunks for one claim and how many of them it selected."""

    claim_index: int
    ranked: list[tuple[int, float]]
    selected_k: int
    truncated_top: Optional[str] = None

    def selected_chunk_indices(self) -> list[int]:
        return [idx for idx, _ in self.ranked[: self.selected_k]]


def rank_chunks(
    claim_vecs: Sequence[np.ndarray], chunk_vecs: Sequence[np.ndarray]
) -> list[list[tuple[int, float]]]:
    """Each claim's ranking of all chunks: similarity descending, ties by
    ascending index.

    The chunk matrix and its row norms are built once for all claims.
    """
    if len(chunk_vecs) == 0:
        raise ContractError("rank_chunks requires at least one chunk vector")
    try:
        matrix = np.asarray(chunk_vecs, dtype=np.float64)
    except ValueError as exc:
        raise ContractError(f"chunk vectors disagree on dimension: {exc}") from exc
    if matrix.ndim != 2:
        raise ContractError(f"chunk vectors are not flat: shape {matrix.shape}")
    row_norms = np.linalg.norm(matrix, axis=1)
    rankings = []
    zero_seen = False
    for claim_vec in claim_vecs:
        claim = np.asarray(claim_vec, dtype=np.float64)
        if claim.shape != (matrix.shape[1],):
            raise ContractError(
                f"dimension mismatch: claim shape {claim.shape}, chunks {matrix.shape}"
            )
        claim_norm = float(np.linalg.norm(claim))
        denom = row_norms * claim_norm
        sims = np.zeros(len(matrix), dtype=np.float64)
        nonzero = denom > 0.0
        if claim_norm > 0.0:
            sims[nonzero] = (matrix[nonzero] @ claim) / denom[nonzero]
        zero_seen = zero_seen or not np.all(nonzero)
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
        rankings.append([(i, float(sims[i])) for i in order])
    if zero_seen:
        logger.warning("zero vector(s) in ranking; their similarity is 0.0")
    return rankings


def select_k(
    budget: PackingBudget, claim_tokens: int, ranked_token_counts: Sequence[int]
) -> KSelection:
    """Largest k <= k_max such that the packing inequality holds.

    Chunks are taken strictly in rank order, so the selection is always a
    prefix of the ranking. When the top chunk alone overflows, it is kept
    with a truncation budget instead of being dropped: claims always get at
    least one piece of evidence.
    """
    if not ranked_token_counts:
        raise ContractError("select_k requires at least one ranked chunk")
    available = budget.window - budget.fixed_reserve - claim_tokens
    if available <= 0:
        raise ContractError(
            f"claim of {claim_tokens} tokens leaves no window budget (window "
            f"{budget.window}, fixed_reserve {budget.fixed_reserve})"
        )
    top_cost = ranked_token_counts[0] + budget.per_chunk_reserve
    if top_cost > available:
        return KSelection(k=1, top_chunk_budget=available - budget.per_chunk_reserve)
    k = 0
    used = 0
    for tokens in ranked_token_counts:
        if k >= budget.k_max:
            break
        cost = tokens + budget.per_chunk_reserve
        if used + cost > available:
            break
        used += cost
        k += 1
    return KSelection(k=k)

"""End-to-end detection for one (context documents, output) pair.

The stages, in order: split the output into claims; drop non-factual claims;
chunk the joined context at a size calibrated to the claim lengths; embed,
rank, and pack per-claim evidence under the token window; score every
claim/evidence pair of the request for entailment in one backend call;
aggregate into claim verdicts and a response verdict. Every claim of the
output appears in the verdict — scored or filtered — with its character
span, so findings can be traced back to the exact output text.

Deterministic backends make the whole pipeline deterministic: identical
request and config produce an identical verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from . import nli
from .aggregation import (
    AggregationConfig,
    ClaimVerdict,
    NON_FACTUAL_UNSCORED,
    ResponseVerdict,
    claim_label,
    claim_score,
    classify_response,
    response_score,
)
from .backends import BackendSet, builtin_backends
from .chunking import (
    Chunk,
    ChunkerConfig,
    chunk_context,
    max_claim_tokens,
    split_output_into_claims,
)
from .claims import Claim, DEFAULT_FACTUAL_THRESHOLD, classify_factual, filter_claims
from .errors import BackendError, ContractError
from .retrieval import ClaimEvidence, PackingBudget, rank_chunks, select_k
from .tokens import TokenCounter, apply_margin, budgeted_count, span_counter, truncate_to_budget

DOC_SEPARATOR = "\n\n"
CLAIM_BAND_TOKENS = 16


@dataclass(frozen=True)
class DetectionRequest:
    context_documents: tuple[str, ...]
    output_text: str

    def __post_init__(self):
        if len(self.context_documents) == 0:
            raise ContractError("at least one context document is required")
        fields = [(f"context_documents[{i}]", d) for i, d in enumerate(self.context_documents)]
        for name, text in fields + [("output_text", self.output_text)]:
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ContractError(
                    f"{name} is not valid Unicode: lone surrogate "
                    f"U+{ord(text[exc.start]):04X} at character {exc.start}"
                ) from None


@dataclass(frozen=True)
class PipelineConfig:
    claim_chunker: ChunkerConfig = field(default_factory=ChunkerConfig)
    budget: PackingBudget = field(default_factory=PackingBudget)
    claim_threshold: float = DEFAULT_FACTUAL_THRESHOLD
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    mode: str = nli.PAIRWISE
    counter: TokenCounter = field(default_factory=TokenCounter)

    def __post_init__(self):
        if self.mode not in nli.SCORING_MODES:
            raise ContractError(f"unknown scoring mode: {self.mode!r}")

    def describe(self) -> dict:
        """Stable, JSON-ready echo of every knob that affects results."""
        return {
            "claim_s_max": self.claim_chunker.s_max,
            "claim_o_max": self.claim_chunker.o_max,
            "window": self.budget.window,
            "fixed_reserve": self.budget.fixed_reserve,
            "per_chunk_reserve": self.budget.per_chunk_reserve,
            "k_target": self.budget.k_target,
            "k_max": self.budget.k_max,
            "context_overlap": self.budget.context_overlap,
            "claim_threshold": self.claim_threshold,
            "beta": self.aggregation.beta,
            "theta": self.aggregation.theta,
            "mode": self.mode,
            "counter_kind": self.counter.kind,
            "safety_margin": self.counter.safety_margin,
        }


def _join_context(documents: Sequence[str]) -> tuple[str, list[tuple[int, int]]]:
    """Join documents and record each document's [start, end) in the result."""
    spans = []
    pos = 0
    for doc in documents:
        spans.append((pos, pos + len(doc)))
        pos += len(doc) + len(DOC_SEPARATOR)
    return DOC_SEPARATOR.join(documents), spans


def _doc_index_for_span(doc_spans: list[tuple[int, int]], start: int, end: int) -> int:
    """Document owning the majority of [start, end); ties go to the earlier doc.

    Chunks can cross document joins (overlap extension, or two short documents
    merged into one chunk), so attribution goes by covered characters.
    """
    best, best_cover = 0, -1
    for i, (ds, de) in enumerate(doc_spans):
        cover = min(end, de) - max(start, ds)
        if cover > best_cover:
            best, best_cover = i, cover
    return best


def _unscored_verdict(claim: Claim) -> ClaimVerdict:
    return ClaimVerdict(
        claim_index=claim.claim_index,
        text=claim.text,
        start=claim.start,
        end=claim.end,
        label=NON_FACTUAL_UNSCORED,
        factual_prob=claim.factual_prob,
    )


def detect(
    request: DetectionRequest,
    config: Optional[PipelineConfig] = None,
    backends: Optional[BackendSet] = None,
) -> ResponseVerdict:
    """Run the full detection pipeline for one request."""
    config = config if config is not None else PipelineConfig()
    backends = backends if backends is not None else builtin_backends()
    counter = config.counter
    budget = config.budget
    warnings: list[str] = []

    # 1. Split the output into claims.
    claims = split_output_into_claims(config.claim_chunker, counter, request.output_text)
    if not claims:
        return classify_response(None, config.aggregation, [], ["output produced no claims"])

    # 2. Classify and filter non-factual claims. Every claim starts out with
    # its unscored verdict, in claim order; scoring replaces the kept ones.
    try:
        classified = classify_factual(backends.claim_classifier, claims)
    except BackendError as exc:
        raise BackendError(f"claim classification stage failed: {exc}") from exc
    verdicts = {c.claim_index: _unscored_verdict(c) for c in classified}
    kept = filter_claims(classified, config.claim_threshold)
    if not kept:
        return classify_response(
            None, config.aggregation, list(verdicts.values()), ["all claims filtered as non-factual"]
        )

    # Each kept claim is scored as (claim, hypothesis text, budgeted tokens);
    # a claim that would crowd evidence out of the window entirely is
    # truncated first. The claim chunker already counted each claim's text.
    records: list[tuple[Claim, str, int]] = []
    max_claim = max_claim_tokens(budget)
    for claim in kept:
        hypothesis, tokens = claim.text, apply_margin(counter, claim.token_count)
        if tokens > max_claim:
            hypothesis = truncate_to_budget(counter, claim.text, max_claim)
            full, tokens = tokens, budgeted_count(counter, hypothesis)
            warnings.append(
                f"claim {claim.claim_index} truncated from {full} to "
                f"{tokens} budgeted tokens to fit the window"
            )
        records.append((claim, hypothesis, tokens))

    # 3. Tokenize the joined context once, then chunk it once per claim-length
    # band, at the size the longest claim of the band allows.
    context, doc_spans = _join_context(request.context_documents)
    context_count = span_counter(counter, context)
    bands: dict[int, int] = {}
    for _, _, tokens in records:
        band = tokens // CLAIM_BAND_TOKENS
        bands[band] = max(bands.get(band, 0), tokens)
    band_chunks = {
        band: chunk_context(context_count, context, longest, budget)
        for band, longest in sorted(bands.items())
    }
    if all(not chunks for chunks in band_chunks.values()):
        warnings.append("context produced no chunks; factual claims scored 0.0")

    # 4. Embed each distinct claim and chunk text once, in one call; then rank
    # each band's chunks for all of its claims at once.
    texts = [hypothesis for _, hypothesis, _ in records]
    for chunks in band_chunks.values():
        texts.extend(c.text for c in chunks)
    unique = list(dict.fromkeys(texts))
    try:
        vectors = backends.embedder.embed(unique)
        if len(vectors) != len(unique):
            raise BackendError(f"{len(vectors)} vectors for {len(unique)} texts")
    except BackendError as exc:
        raise BackendError(f"embedding stage failed: {exc}") from exc
    vector_of = dict(zip(unique, vectors))
    rankings: dict[int, list[tuple[int, float]]] = {}
    for band, chunks in band_chunks.items():
        if not chunks:
            continue
        members = [(c, h) for c, h, tokens in records if tokens // CLAIM_BAND_TOKENS == band]
        ranked = rank_chunks(
            [vector_of[hypothesis] for _, hypothesis in members],
            [vector_of[c.text] for c in chunks],
        )
        rankings.update(zip((claim.claim_index for claim, _ in members), ranked))

    # 5. Plan: pack every claim's evidence, then build its NLI pairs.
    plans: list[tuple[Claim, Optional[ClaimEvidence], list[tuple[str, str]], list[Chunk]]] = []
    for claim, hypothesis, tokens in records:
        chunks = band_chunks[tokens // CLAIM_BAND_TOKENS]
        if not chunks:
            plans.append((claim, None, [], chunks))
            continue

        ranked = rankings[claim.claim_index]
        ranked_budgets = [apply_margin(counter, chunks[idx].token_count) for idx, _ in ranked]
        selection = select_k(budget, tokens, ranked_budgets)

        truncated_top = None
        if selection.top_chunk_budget is not None:
            top_idx = ranked[0][0]
            truncated_top = truncate_to_budget(
                counter, chunks[top_idx].text, selection.top_chunk_budget
            )
            warnings.append(
                f"top chunk for claim {claim.claim_index} truncated to "
                f"{selection.top_chunk_budget} budgeted tokens"
            )

        evidence = ClaimEvidence(
            claim_index=claim.claim_index,
            ranked=ranked,
            selected_k=selection.k,
            truncated_top=truncated_top,
        )
        _assert_packing_safety(counter, budget, tokens, evidence, chunks)
        pairs = nli.claim_pairs(config.mode, hypothesis, evidence, chunks)
        plans.append((claim, evidence, pairs, chunks))

    # 6. Score every pair of the request in one backend call.
    claim_pairs = [pairs for _, _, pairs, _ in plans]
    try:
        claim_scores = nli.score_claim(backends.nli, claim_pairs)
    except BackendError as exc:
        raise BackendError(
            f"NLI stage failed on {sum(map(len, claim_pairs))} pairs "
            f"for {len(plans)} claims: {exc}"
        ) from exc

    # 7. Reduce each claim's scores to its grounding score and verdict, then
    # aggregate into the response verdict. Only the best chunk is attributed
    # to a document.
    grounding: list[float] = []
    for (claim, evidence, _, chunks), scores in zip(plans, claim_scores):
        g, best_idx, best_doc = 0.0, None, None
        if evidence is not None:
            probs = [s.p_entail for s in scores]
            g = claim_score(probs)
            if config.mode == nli.PACKED:
                best_idx = evidence.ranked[0][0]
            else:
                best_idx = evidence.selected_chunk_indices()[probs.index(max(probs))]
            best = chunks[best_idx]
            best_doc = _doc_index_for_span(doc_spans, best.start, best.end)
        grounding.append(g)
        verdicts[claim.claim_index] = replace(
            verdicts[claim.claim_index],
            label=claim_label(g, config.aggregation),
            grounding_score=g,
            best_chunk_index=best_idx,
            best_chunk_doc=best_doc,
        )
    score = response_score(grounding, config.aggregation)
    return classify_response(score, config.aggregation, list(verdicts.values()), warnings)


def _assert_packing_safety(
    counter: TokenCounter,
    budget: PackingBudget,
    claim_tokens: int,
    evidence: ClaimEvidence,
    chunks: Sequence[Chunk],
) -> None:
    """Hard guarantee checked on every run: the scoring window never overflows."""
    total = claim_tokens + budget.fixed_reserve
    for rank_pos, chunk_idx in enumerate(evidence.selected_chunk_indices()):
        if rank_pos == 0 and evidence.truncated_top is not None:
            total += budgeted_count(counter, evidence.truncated_top)
        else:
            total += apply_margin(counter, chunks[chunk_idx].token_count)
        total += budget.per_chunk_reserve
    if total > budget.window:
        raise ContractError(
            f"packing safety violated for claim {evidence.claim_index}: "
            f"{total} > {budget.window} budgeted tokens"
        )

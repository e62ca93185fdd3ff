"""Recursive token-budgeted text chunking.

One chunker serves two jobs: splitting a model output into claims and
splitting context documents into retrieval chunks. It walks a separator
hierarchy from coarse to fine (paragraph, line, sentence, clause, word,
single characters), greedily merges adjacent pieces while they fit the
token budget, and descends a level only for pieces that are still too big.
Sentence boundaries therefore dominate whenever the budget allows, and no
chunk ever exceeds ``s_max`` tokens.

Chunks are never rewritten: each chunk's text is exactly the source
substring at its character span, trimmed of surrounding whitespace, and the
spans jointly cover every non-whitespace character of the input. With
``o_max`` > 0 each chunk is extended backwards into its predecessor by at
most ``o_max`` tokens so evidence is not lost at boundaries; claims use
``o_max`` = 0 because overlapping claims would double-count during
aggregation.

Every budget decision asks for the token count of a span of the input. The
builtin counter tokenizes the text once and answers each span count by
bisection over the token offsets (``tokens.span_counter``); a
backend-supplied ``count_fn`` is called once per candidate span on the
substring, which is slower.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .claims import Claim
from .errors import ClaimOverflowError, ConfigError
from .retrieval import PackingBudget
from .tokens import SpanCount, TokenCounter, count_tokens, span_counter

# Coarse to fine. The empty string is the single-character fallback level.
SEPARATOR_HIERARCHY: tuple[tuple[str, ...], ...] = (
    ("\n\n",),
    ("\n",),
    (". ", "! ", "? "),
    ("; ",),
    (", ",),
    (" ",),
    ("",),
)

DEFAULT_CLAIM_MAX_TOKENS = 60

# Bounds for the dynamically calibrated context chunk size.
CONTEXT_CHUNK_MIN_TOKENS = 32
CONTEXT_CHUNK_MAX_TOKENS = 160


@dataclass(frozen=True)
class ChunkerConfig:
    s_max: int = DEFAULT_CLAIM_MAX_TOKENS
    o_max: int = 0

    def __post_init__(self):
        if self.s_max < 1:
            raise ConfigError(f"s_max must be >= 1, got {self.s_max}")
        if not 0 <= self.o_max < self.s_max:
            raise ConfigError(f"o_max must satisfy 0 <= o_max < s_max, got {self.o_max}")


@dataclass(frozen=True)
class Chunk:
    """A contiguous span of a source document.

    ``text == source[start:end]`` always; the chunker never rewrites
    characters.
    """

    text: str
    start: int
    end: int
    token_count: int
    index: int


def _split_points(text: str, start: int, end: int, separators: tuple[str, ...]) -> list[int]:
    """Positions immediately after each separator occurrence in text[start:end]."""
    pattern = "|".join(re.escape(s) for s in separators)
    return [start + m.end() for m in re.finditer(pattern, text[start:end])]


def _pack_characters(count, start, end, s_max):
    """Fallback level: maximal prefixes of at most s_max tokens, via bisection."""
    spans = []
    pos = start
    while pos < end:
        lo, hi = pos + 1, end  # text[pos:lo] always fits (single char is <= 1 token)
        if count(pos, end) <= s_max:
            lo = end
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if count(pos, mid) <= s_max:
                    lo = mid
                else:
                    hi = mid
        spans.append((pos, lo))
        pos = lo
    return spans


def _chunk_spans(text, count, config, start, end, level):
    """Recursive core: return ordered (start, end) spans of <= s_max tokens."""
    s_max = config.s_max
    if count(start, end) <= s_max:
        return [(start, end)]

    separators = SEPARATOR_HIERARCHY[level]
    if "" in separators:
        return _pack_characters(count, start, end, s_max)

    cuts = _split_points(text, start, end, separators)
    bounds = [start] + [c for c in cuts if start < c < end] + [end]
    pieces = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    if len(pieces) == 1:
        return _chunk_spans(text, count, config, start, end, level + 1)

    spans: list[tuple[int, int]] = []
    acc: Optional[tuple[int, int]] = None
    for ps, pe in pieces:
        if count(ps, pe) > s_max:
            if acc is not None:
                spans.append(acc)
                acc = None
            spans.extend(_chunk_spans(text, count, config, ps, pe, level + 1))
            continue
        if acc is None:
            acc = (ps, pe)
        elif count(acc[0], pe) <= s_max:
            acc = (acc[0], pe)
        else:
            spans.append(acc)
            acc = (ps, pe)
    if acc is not None:
        spans.append(acc)
    return spans


def _trim(text: str, start: int, end: int) -> Optional[tuple[int, int]]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return (start, end) if start < end else None


def _extend_with_overlap(text, count, config, spans):
    """Pull each chunk's start back into its predecessor by <= o_max tokens.

    The extension may not push the chunk itself past s_max tokens and never
    swallows the whole predecessor, so starts stay strictly increasing.
    """
    out = [spans[0]]
    for i in range(1, len(spans)):
        ps, pe = spans[i - 1]
        cs, ce = spans[i]
        lo, hi = max(ps + 1, 0), min(pe, cs)
        # Find the smallest feasible new start in [lo, hi]; smaller means more
        # overlap, and both constraints are monotone in the start position.
        best = hi
        while hi - lo >= 1:
            mid = (lo + hi) // 2
            if count(mid, pe) <= config.o_max and count(mid, ce) <= config.s_max:
                best = mid
                hi = mid
            else:
                lo = mid + 1
        new_start = best
        while new_start < cs and text[new_start].isspace():
            new_start += 1
        out.append((new_start, ce))
    return out


def chunk_text(config: ChunkerConfig, counter: TokenCounter, text: str) -> list[Chunk]:
    """Split ``text`` into chunks of at most ``config.s_max`` tokens each."""
    return _chunk_counted(config, text, span_counter(counter, text))


def _chunk_counted(config: ChunkerConfig, text: str, count: SpanCount) -> list[Chunk]:
    """chunk_text with ``count`` a span counter over ``text``."""
    if not text or text.isspace():
        return []
    raw = _chunk_spans(text, count, config, 0, len(text), 0)
    spans = []
    for s, e in raw:
        trimmed = _trim(text, s, e)
        if trimmed is not None:
            spans.append(trimmed)
    if not spans:
        return []
    if config.o_max > 0 and len(spans) > 1:
        spans = _extend_with_overlap(text, count, config, spans)
    return [
        Chunk(text=text[s:e], start=s, end=e, token_count=count(s, e), index=i)
        for i, (s, e) in enumerate(spans)
    ]


def split_output_into_claims(
    config: ChunkerConfig, counter: TokenCounter, output: str
) -> list[Claim]:
    """Split a model output into claims (non-overlapping, unclassified)."""
    if config.o_max != 0:
        raise ConfigError("claim splitting requires o_max = 0")
    return [
        Claim(
            text=c.text,
            start=c.start,
            end=c.end,
            token_count=c.token_count,
            claim_index=c.index,
        )
        for c in chunk_text(config, counter, output)
    ]


def max_claim_tokens(budget: PackingBudget) -> int:
    """Largest budgeted claim size that still admits one minimal chunk."""
    return budget.window - budget.fixed_reserve - budget.per_chunk_reserve - CONTEXT_CHUNK_MIN_TOKENS


def context_chunk_size(budget: PackingBudget, claim_tokens: int) -> int:
    """Chunk size calibrated so ~k_target chunks plus the claim fill the window."""
    if claim_tokens > max_claim_tokens(budget):
        raise ClaimOverflowError(
            f"claim of {claim_tokens} tokens cannot fit the {budget.window}-token window "
            f"alongside a minimal evidence chunk",
            claim_tokens=claim_tokens,
            window=budget.window,
        )
    room = budget.window - budget.fixed_reserve - claim_tokens
    c_size = room // budget.k_target - budget.per_chunk_reserve
    return max(CONTEXT_CHUNK_MIN_TOKENS, min(CONTEXT_CHUNK_MAX_TOKENS, c_size))


def chunk_context(
    count: SpanCount, document: str, claim_tokens: int, budget: PackingBudget
) -> list[Chunk]:
    """Chunk a context document with size calibrated to the claim length.

    ``count`` is ``tokens.span_counter(counter, document)``: the pipeline
    chunks one document at several sizes and tokenizes it once for all of
    them. Raises ClaimOverflowError when the claim leaves no room for even a
    minimal chunk. ``pipeline.detect`` never meets it: it truncates every
    claim to ``max_claim_tokens`` before it chunks the context.
    """
    c_size = context_chunk_size(budget, claim_tokens)
    config = ChunkerConfig(s_max=c_size, o_max=budget.context_overlap)
    return _chunk_counted(config, document, count)


def paragraph_chunks(counter: TokenCounter, text: str) -> list[Chunk]:
    """Unbounded chunking: one chunk per paragraph-level piece.

    Supports token-length histograms over a corpus without a size cap
    (the CLI exposes this as ``chunk --s-max 0``).
    """
    if not text or text.isspace():
        return []
    cuts = _split_points(text, 0, len(text), ("\n\n",))
    bounds = [0] + [c for c in cuts if 0 < c < len(text)] + [len(text)]
    spans = []
    for i in range(len(bounds) - 1):
        trimmed = _trim(text, bounds[i], bounds[i + 1])
        if trimmed is not None:
            spans.append(trimmed)
    return [
        Chunk(
            text=text[s:e],
            start=s,
            end=e,
            token_count=count_tokens(counter, text[s:e]),
            index=i,
        )
        for i, (s, e) in enumerate(spans)
    ]

import random

import pytest
from hypothesis import given, settings, strategies as st

import gen
from groundcheck.chunking import (
    ChunkerConfig,
    chunk_context,
    chunk_text,
    context_chunk_size,
    max_claim_tokens,
    paragraph_chunks,
    split_output_into_claims,
)
from groundcheck.errors import ClaimOverflowError, ConfigError
from groundcheck.retrieval import PackingBudget
from groundcheck.tokens import TokenCounter, builtin_token_count, count_tokens, span_counter

COUNTER = TokenCounter(safety_margin=1.0)
# The builtin rule behind a backend-supplied count_fn: same counts, but the
# chunker takes the slow path that counts each candidate substring.
SLOW_COUNTER = TokenCounter(safety_margin=1.3, count_fn=builtin_token_count)


def assert_chunk_invariants(text, chunks, config):
    """Budget, provenance, coverage, ordering, overlap bound."""
    covered = bytearray(len(text))
    prev_start = -1
    for i, c in enumerate(chunks):
        assert c.index == i
        assert c.text == text[c.start : c.end]
        assert c.token_count == count_tokens(COUNTER, c.text)
        assert c.token_count <= config.s_max
        assert c.start > prev_start
        prev_start = c.start
        for pos in range(c.start, c.end):
            covered[pos] = 1
    for pos, ch in enumerate(text):
        if not ch.isspace():
            assert covered[pos], f"non-whitespace char at {pos} uncovered"
    if config.o_max == 0:
        spans = [(c.start, c.end) for c in chunks]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, "claim chunks must be disjoint"
    else:
        for a, b in zip(chunks, chunks[1:]):
            inter_start, inter_end = max(a.start, b.start), min(a.end, b.end)
            if inter_start < inter_end:
                assert count_tokens(COUNTER, text[inter_start:inter_end]) <= config.o_max


def test_empty_text_yields_no_chunks():
    assert chunk_text(ChunkerConfig(s_max=10), COUNTER, "") == []
    assert chunk_text(ChunkerConfig(s_max=10), COUNTER, "  \n\n ") == []


def test_fitting_text_is_a_single_chunk():
    text = "A short sentence that fits."
    chunks = chunk_text(ChunkerConfig(s_max=60), COUNTER, text)
    assert len(chunks) == 1
    assert chunks[0].text == text
    assert (chunks[0].start, chunks[0].end) == (0, len(text))


def test_sentence_level_split_with_greedy_merge():
    chunks = chunk_text(ChunkerConfig(s_max=5), COUNTER, "Aaa bbb. Ccc ddd eee fff.")
    assert [c.text for c in chunks] == ["Aaa bbb.", "Ccc ddd eee fff."]
    assert [c.token_count for c in chunks] == [3, 5]


def test_paragraph_boundary_dominates():
    chunks = chunk_text(ChunkerConfig(s_max=4), COUNTER, "# Title\n\nFact one. Fact two.")
    assert [c.text for c in chunks] == ["# Title", "Fact one.", "Fact two."]


def test_single_long_word_falls_back_to_characters():
    text = "x" * 50
    chunks = chunk_text(ChunkerConfig(s_max=1), COUNTER, text)
    assert all(c.token_count <= 1 for c in chunks)
    assert "".join(c.text for c in chunks) == text


def test_determinism():
    rng = random.Random(7)
    text = gen.document(rng, 800)
    config = ChunkerConfig(s_max=48, o_max=8)
    first = chunk_text(config, COUNTER, text)
    second = chunk_text(config, COUNTER, text)
    assert first == second


@pytest.mark.parametrize("s_max,o_max", [(20, 0), (60, 0), (60, 12), (30, 5), (120, 12)])
def test_randomized_documents_hold_invariants(s_max, o_max):
    rng = random.Random(1000 + s_max + o_max)
    config = ChunkerConfig(s_max=s_max, o_max=o_max)
    for _ in range(12):
        text = gen.document(rng, rng.randint(50, 900))
        chunks = chunk_text(config, COUNTER, text)
        assert_chunk_invariants(text, chunks, config)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=400), st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=8))
def test_arbitrary_text_holds_invariants(text, s_max, o_max):
    o_max = min(o_max, s_max - 1)
    config = ChunkerConfig(s_max=s_max, o_max=o_max)
    chunks = chunk_text(config, COUNTER, text)
    assert_chunk_invariants(text, chunks, config)


@pytest.mark.parametrize("s_max,o_max", [(20, 0), (60, 0), (60, 12), (30, 5)])
def test_span_lookup_matches_substring_counting_on_documents(s_max, o_max):
    rng = random.Random(2000 + s_max + o_max)
    config = ChunkerConfig(s_max=s_max, o_max=o_max)
    for _ in range(6):
        text = gen.document(rng, rng.randint(50, 600))
        assert chunk_text(config, COUNTER, text) == chunk_text(config, SLOW_COUNTER, text)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=300), st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=6))
def test_span_lookup_matches_substring_counting_on_any_text(text, s_max, o_max):
    for o in (0, min(o_max, s_max - 1)):
        config = ChunkerConfig(s_max=s_max, o_max=o)
        assert chunk_text(config, COUNTER, text) == chunk_text(config, SLOW_COUNTER, text)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        ChunkerConfig(s_max=0)
    with pytest.raises(ConfigError):
        ChunkerConfig(s_max=10, o_max=10)
    with pytest.raises(ConfigError):
        ChunkerConfig(s_max=10, o_max=-1)


def test_claim_splitting_defaults_and_wrapping():
    claims = split_output_into_claims(ChunkerConfig(), COUNTER, "Water boils at one hundred degrees.")
    assert len(claims) == 1
    assert claims[0].claim_index == 0
    assert claims[0].factual_prob is None
    assert split_output_into_claims(ChunkerConfig(), COUNTER, "") == []


def test_claim_splitting_rejects_overlap():
    with pytest.raises(ConfigError):
        split_output_into_claims(ChunkerConfig(s_max=60, o_max=5), COUNTER, "text")


def test_context_chunk_size_arithmetic():
    assert context_chunk_size(PackingBudget(512, 8, 2, 4), 40) == 114


def test_context_chunk_size_clamps():
    assert context_chunk_size(PackingBudget(512, 8, 2, 4), 400) == 32  # floor(104/4)-2 = 24 -> min
    assert context_chunk_size(PackingBudget(2048, 8, 2, 4), 40) == 160  # 497 -> max


def test_context_chunk_size_overflow():
    budget = PackingBudget(512, 8, 2, 4)
    with pytest.raises(ClaimOverflowError):
        context_chunk_size(budget, 480)
    # the largest claim max_claim_tokens admits still gets a minimal chunk
    assert max_claim_tokens(budget) == 470
    assert context_chunk_size(budget, 470) == 32
    with pytest.raises(ClaimOverflowError):
        context_chunk_size(budget, 471)


def test_chunk_context_small_document_is_one_chunk():
    doc = "A tiny document with ten tokens or so."
    chunks = chunk_context(span_counter(COUNTER, doc), doc, 40, PackingBudget())
    assert len(chunks) == 1
    assert chunks[0].text == doc


def test_chunk_context_respects_calibrated_size():
    rng = random.Random(99)
    doc = gen.document(rng, 1200)
    budget = PackingBudget()
    chunks = chunk_context(span_counter(COUNTER, doc), doc, 40, budget)
    assert len(chunks) > 1
    assert all(c.token_count <= 114 for c in chunks)
    config = ChunkerConfig(s_max=114, o_max=budget.context_overlap)
    assert_chunk_invariants(doc, chunks, config)


def test_paragraph_chunks_unbounded():
    text = "First paragraph here.\n\nSecond one, much longer than the first by a little."
    chunks = paragraph_chunks(COUNTER, text)
    assert [c.text for c in chunks] == [
        "First paragraph here.",
        "Second one, much longer than the first by a little.",
    ]
    assert paragraph_chunks(COUNTER, "") == []

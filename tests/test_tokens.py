import random

import pytest
from hypothesis import example, given, strategies as st

from groundcheck.errors import ConfigError
from groundcheck.tokens import (
    _TOKEN_RE,
    _token_bounds,
    TokenCounter,
    apply_margin,
    budgeted_count,
    builtin_token_count,
    count_tokens,
    span_counter,
    truncate_to_budget,
)

COUNTER = TokenCounter(safety_margin=1.0)

# Characters the builtin rule is easy to get wrong on: separators that
# isspace() treats as whitespace, spaces outside ASCII, a zero-width space, a
# combining mark, a letter whose lowercase is longer, CJK, an astral emoji, an
# Arabic-Indic digit, the underscore and a lone surrogate.
TRICKY = "a Z9\x1c\x1f\xa0\u3000\u200b\u0301\u0130\u5317\u4eac\U0001f600\u0663_,\ud800"
# Any code point, lone surrogates (category Cs) included, plus the tricky ones.
UNICODE_CHARS = st.one_of(st.characters(exclude_categories=()), st.sampled_from(TRICKY))


def _regex_bounds(text):
    return [(m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def test_empty_text_counts_zero():
    assert count_tokens(COUNTER, "") == 0


def test_alphanumeric_runs_and_punctuation():
    # The, cat, sat, '.'
    assert count_tokens(COUNTER, "The cat sat.") == 4


def test_whitespace_contributes_nothing():
    assert count_tokens(COUNTER, "a  b\nc") == 3
    assert count_tokens(COUNTER, "   \n\t ") == 0


def test_punctuation_chars_count_individually():
    assert count_tokens(COUNTER, "a--b") == 3 + 1  # a, -, -, b
    assert count_tokens(COUNTER, "(x)") == 3


def test_counts_are_deterministic():
    text = "Some mixed text, with 42 numbers and #tags!"
    assert count_tokens(COUNTER, text) == count_tokens(COUNTER, text)


def test_backend_supplied_counter():
    counter = TokenCounter(safety_margin=1.0, count_fn=lambda t: len(t))
    assert count_tokens(counter, "abcd") == 4


def test_counter_kind_follows_count_fn():
    assert TokenCounter().kind == "builtin"
    assert TokenCounter(count_fn=len).kind == "backend-supplied"


def test_margin_below_one_rejected():
    with pytest.raises(ConfigError):
        TokenCounter(safety_margin=0.9)


def test_budgeted_count_identity_margin():
    assert budgeted_count(COUNTER, "The cat sat.") == 4


def test_budgeted_count_rounds_up():
    counter = TokenCounter(safety_margin=1.3)
    ten_tokens = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"
    assert count_tokens(counter, ten_tokens) == 10
    assert budgeted_count(counter, ten_tokens) == 13
    assert budgeted_count(counter, "") == 0


def test_budgeted_count_float_artifacts():
    # 20 * 1.3 is 26.000000000000004 in binary floating point; the budget
    # must still be 26, not 27.
    assert apply_margin(TokenCounter(safety_margin=1.3), 20) == 26


@given(st.text(max_size=200), st.text(max_size=200))
def test_concatenation_loses_at_most_one_boundary_token(a, b):
    ca, cb, cab = (count_tokens(COUNTER, t) for t in (a, b, a + b))
    assert cab <= ca + cb + 1
    assert cab >= max(ca, cb)


@given(st.text(max_size=300))
def test_budgeted_never_below_raw(text):
    counter = TokenCounter(safety_margin=1.3)
    assert budgeted_count(counter, text) >= count_tokens(counter, text)


@given(st.text(UNICODE_CHARS))
@example("")
@example("\x1c\x1f")
@example("a\xa0b\u3000c\u200bd")
@example("e\u0301 \u0130 \u5317\u4eac \U0001f600 \u0663")
@example("a_b")
def test_token_bounds_match_the_regex(text):
    starts, ends = _token_bounds(text)
    assert list(zip(starts, ends)) == _regex_bounds(text)
    assert all(type(i) is int for i in starts + ends)
    assert span_counter(TokenCounter(), text)(0, len(text)) == builtin_token_count(text)


def test_token_bounds_match_the_regex_on_a_long_mixed_text():
    rng = random.Random(7)
    ascii_runs = ["word", "Z9", " ", "\n", "_", ",", "\x1c"]
    other_runs = ["\u5317\u4eac", "e\u0301", "\u0130", "\xa0", "\u3000", "\u200b", "\U0001f600"]
    runs = ascii_runs + other_runs + ["\u0663\u0663", "\ud800", "\u00e9t\u00e9"]
    pieces, size = [], 0
    while size <= 1 << 16:
        piece = rng.choice(runs) * rng.randint(1, 5)
        pieces.append(piece)
        size += len(piece)
    text = "".join(pieces)
    assert list(zip(*_token_bounds(text))) == _regex_bounds(text)
    count = span_counter(TokenCounter(), text)
    for _ in range(200):
        a, b = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        assert count(a, b) == builtin_token_count(text[a:b])


@given(st.text(UNICODE_CHARS, max_size=40))
def test_span_counter_matches_substring_count(text):
    count = span_counter(TokenCounter(), text)
    for a in range(len(text) + 1):
        for b in range(a, len(text) + 1):
            assert count(a, b) == builtin_token_count(text[a:b])


def test_span_counter_calls_backend_count_fn_on_the_substring():
    seen = []
    counter = TokenCounter(safety_margin=1.0, count_fn=lambda t: seen.append(t) or len(t))
    assert span_counter(counter, "abcdef")(1, 4) == 3
    assert seen == ["bcd"]


def test_truncate_to_budget_fits_and_is_prefix():
    text = "one two three four five six seven eight nine ten"
    out = truncate_to_budget(COUNTER, text, 4)
    assert count_tokens(COUNTER, out) <= 4
    assert text.startswith(out)
    assert out  # a positive budget keeps at least something


def test_truncate_to_budget_noop_when_fitting():
    assert truncate_to_budget(COUNTER, "a b c", 10) == "a b c"
    assert truncate_to_budget(COUNTER, "a b c", 0) == ""


def test_truncate_to_budget_fits_with_non_monotone_count_fn():
    # A subword tokenizer may count a word cut at the end of a text as more
    # pieces than the same word followed by whitespace, so counts can fall as
    # a prefix grows and the stripped bisection result can overflow.
    def count_fn(text):
        return len(text.split()) + (3 if text and not text[-1].isspace() else 0)

    counter = TokenCounter(safety_margin=1.0, count_fn=count_fn)
    text = " ".join(f"w{i}" for i in range(20))
    for budget in range(1, 15):
        out = truncate_to_budget(counter, text, budget)
        assert text.startswith(out)
        assert budgeted_count(counter, out) <= budget

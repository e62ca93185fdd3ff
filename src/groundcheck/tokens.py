"""Token counting for every budget decision in the pipeline.

The builtin counter is deterministic and model-free: a token is either a
maximal run of alphanumeric characters or a single punctuation character;
whitespace contributes nothing. Real subword tokenizers count differently,
so budget checks multiply builtin counts by a safety margin (default 1.3)
to stay conservative against a 512-token encoder window. Budgeted counts
are used only for budgeting, never for reporting.

The builtin rule is character-local: the tokens of any substring are exactly
the whole-text tokens it intersects, clipped. So a text is tokenized once and
every span count after that is two bisections (:func:`span_counter`).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConfigError

# Alphanumeric runs (underscore excluded), then underscore and any other
# non-space character as single tokens.
_TOKEN_RE = re.compile(r"[^\W_]+|_|[^\w\s]", re.UNICODE)

BUILTIN = "builtin"
BACKEND_SUPPLIED = "backend-supplied"

DEFAULT_SAFETY_MARGIN = 1.3


def builtin_token_count(text: str) -> int:
    """Count tokens with the builtin rule. Deterministic and total."""
    if not text:
        return 0
    return len(_TOKEN_RE.findall(text))


@dataclass(frozen=True)
class TokenCounter:
    """A token counting strategy plus the safety margin used for budgeting.

    Counts come from the builtin rule unless ``count_fn`` is supplied, in
    which case they come from the backend's own tokenizer and the margin is
    usually 1.0.
    """

    safety_margin: float = DEFAULT_SAFETY_MARGIN
    count_fn: Optional[Callable[[str], int]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.safety_margin < 1.0:
            raise ConfigError(f"safety_margin must be >= 1.0, got {self.safety_margin}")

    @property
    def kind(self) -> str:
        """``builtin``, or ``backend-supplied`` when ``count_fn`` is set."""
        return BUILTIN if self.count_fn is None else BACKEND_SUPPLIED


def count_tokens(counter: TokenCounter, text: str) -> int:
    """Raw token count of ``text`` under ``counter``. count("") == 0."""
    if counter.count_fn is not None:
        return counter.count_fn(text)
    return builtin_token_count(text)


SpanCount = Callable[[int, int], int]


def span_counter(counter: TokenCounter, text: str) -> SpanCount:
    """``count(a, b) == count_tokens(counter, text[a:b])`` for ``0 <= a, b <= len(text)``.

    The builtin counter tokenizes ``text`` once and answers each span by
    bisection over the sorted token starts and ends. A backend-supplied
    ``count_fn`` is called once per span, on the substring.
    """
    if counter.count_fn is not None:
        count_fn = counter.count_fn
        return lambda a, b: count_fn(text[a:b])
    starts: list[int] = []
    ends: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        starts.append(m.start())
        ends.append(m.end())

    def count(a: int, b: int) -> int:
        # Tokens starting before b, minus those ending at or before a.
        if a >= b:
            return 0
        return bisect_left(starts, b) - bisect_right(ends, a)

    return count


def apply_margin(counter: TokenCounter, raw_count: int) -> int:
    """ceil(raw_count * safety_margin), used for window-budget checks only.

    The 1e-9 slack absorbs float artifacts (20 * 1.3 == 26.000000000000004).
    """
    if raw_count <= 0:
        return 0
    return math.ceil(raw_count * counter.safety_margin - 1e-9)


def budgeted_count(counter: TokenCounter, text: str) -> int:
    """Budgeted count of ``text``: its raw count with the safety margin applied."""
    return apply_margin(counter, count_tokens(counter, text))


def truncate_to_budget(counter: TokenCounter, text: str, max_budgeted: int) -> str:
    """Longest prefix of ``text`` whose budgeted count fits ``max_budgeted``.

    Binary search assumes counts never fall as a prefix grows. A subword
    ``count_fn`` can break that, so the result is checked and shortened
    until it fits.
    """
    if max_budgeted <= 0:
        return ""
    if budgeted_count(counter, text) <= max_budgeted:
        return text
    lo, hi = 0, len(text)  # invariant: prefix of length lo fits, hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if budgeted_count(counter, text[:mid]) <= max_budgeted:
            lo = mid
        else:
            hi = mid
    out = text[:lo].rstrip()
    while out and budgeted_count(counter, out) > max_budgeted:
        out = out[:-1].rstrip()
    return out

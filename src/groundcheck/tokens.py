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

``_TOKEN_RE`` is the reference definition of a token. :func:`span_counter`
finds the same tokens with a fixed number of numpy calls instead of one
regex match per token: each character gets one of three classes (whitespace,
part of an alphanumeric run, a token by itself), taken from a table built
with the regex's own character classes, and the token bounds are where the
classes change.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

# Alphanumeric runs (underscore excluded), then underscore and any other
# non-space character as single tokens.
_TOKEN_RE = re.compile(r"[^\W_]+|_|[^\w\s]", re.UNICODE)

# Character classes of _TOKEN_RE, one character at a time.
_SPACE, _ALNUM, _SINGLE = 0, 1, 2
_ALNUM_RE = re.compile(r"[^\W_]", re.UNICODE)
_SPACE_RE = re.compile(r"\s", re.UNICODE)


def _char_class(ch: str) -> int:
    if _ALNUM_RE.match(ch):
        return _ALNUM
    return _SPACE if _SPACE_RE.match(ch) else _SINGLE


_ASCII_CLASS = np.array([_char_class(chr(c)) for c in range(128)], dtype=np.uint8)

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

    The builtin counter tokenizes ``text`` once, with a fixed number of numpy
    calls (:func:`_token_bounds`), and answers each span by bisection over
    the sorted token starts and ends. A backend-supplied ``count_fn`` is
    called once per span, on the substring.
    """
    if counter.count_fn is not None:
        count_fn = counter.count_fn
        return lambda a, b: count_fn(text[a:b])
    starts, ends = _token_bounds(text)

    def count(a: int, b: int) -> int:
        # Tokens starting before b, minus those ending at or before a.
        if a >= b:
            return 0
        return bisect_left(starts, b) - bisect_right(ends, a)

    return count


def _token_bounds(text: str) -> tuple[list[int], list[int]]:
    """Start and end offsets of the ``_TOKEN_RE`` matches in ``text``, in order.

    A token starts at every single-character token and at every alphanumeric
    character whose predecessor is not alphanumeric; it ends after every
    single-character token and after every alphanumeric character whose
    successor is not alphanumeric. ASCII classes come from a table built at
    import; each distinct non-ASCII code point is classified once.
    """
    # One code point per character; surrogatepass keeps lone surrogates.
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    classes = _ASCII_CLASS.take(codes, mode="clip")  # non-ASCII set below
    wide = codes >= 128
    if wide.any():
        values, inverse = np.unique(codes[wide], return_inverse=True)
        table = np.array([_char_class(chr(v)) for v in values.tolist()], dtype=np.uint8)
        classes[wide] = table[inverse]
    alnum = np.zeros(len(codes) + 2, dtype=bool)
    alnum[1:-1] = classes == _ALNUM
    single = classes == _SINGLE
    run_start = alnum[1:-1] & ~alnum[:-2]
    run_end = alnum[1:-1] & ~alnum[2:]
    starts = np.flatnonzero(single | run_start)
    ends = np.flatnonzero(single | run_end) + 1
    return starts.tolist(), ends.tolist()


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

    Prefixes are counted through one :func:`span_counter` over ``text``, so
    the builtin counter tokenizes it once. Binary search assumes counts never
    fall as a prefix grows. A subword ``count_fn`` can break that, so the
    result is checked and shortened until it fits.
    """
    if max_budgeted <= 0:
        return ""
    count = span_counter(counter, text)

    def fits(n: int) -> bool:
        return apply_margin(counter, count(0, n)) <= max_budgeted

    if fits(len(text)):
        return text
    lo, hi = 0, len(text)  # invariant: prefix of length lo fits, hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    n = len(text[:lo].rstrip())
    while n and not fits(n):
        n = len(text[: n - 1].rstrip())
    return text[:n]

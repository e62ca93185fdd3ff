"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed. The document and corpus
generators follow the construction of ``tests/gen.py`` and ``tests/synth.py``
but live in the benchmark, so that edits to test helpers never move the
benchmark's inputs between two commits being compared. Token counts use the
builtin rule (alphanumeric runs and single punctuation characters) with a
regex of our own, so the inputs do not depend on the program either.

Invented sentences draw on letters ('h', 'j', 'q', 'w', 'x', 'y', 'z') that
no context word contains, so a claim built from them has no content-token
overlap with any evidence and the expected response label is known.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[^\W_]+|_|[^\w\s]", re.UNICODE)

_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "la", "me", "ni", "po", "ru",
    "sa", "te", "vi", "mo", "ke", "ral", "sen", "tor", "lim", "dus",
]
_NOVEL_SYLLABLES = ["zo", "xa", "qui", "wy", "ja", "hy", "zu", "xe", "yo", "wa"]


def tokens(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


@dataclass(frozen=True)
class Request:
    """One detect call: the inputs plus the label the generator planted."""

    documents: tuple[str, ...]
    output: str
    hallucinated: bool


# ---------------------------------------------------------------------------
# Documents (tests/gen.py construction)
# ---------------------------------------------------------------------------


def _word(rng: random.Random, syllables=_SYLLABLES) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(1, 3)))


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [_word(rng) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    body = " ".join(words)
    if rng.random() < 0.15:
        cut = rng.randint(1, max(1, len(words) - 1))
        body = " ".join(words[:cut]) + rng.choice([", ", "; "]) + " ".join(words[cut:])
    return body + rng.choice([".", ".", ".", "!", "?"])


def _invented_sentence(rng: random.Random, n_words: int) -> str:
    words = [_word(rng, _NOVEL_SYLLABLES) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _heading(rng: random.Random) -> str:
    return "#" * rng.randint(1, 3) + " " + " ".join(_word(rng) for _ in range(rng.randint(1, 4))).title()


def _document(rng: random.Random, target_tokens: int) -> tuple[str, list[list[str]]]:
    """A document of about ``target_tokens`` tokens and its prose paragraphs' sentences."""
    blocks: list[str] = []
    prose: list[list[str]] = []
    total = 0
    while total < target_tokens:
        roll = rng.random()
        if roll < 0.15:
            block = _heading(rng)
        elif roll < 0.30:
            block = "\n".join(
                f"- {_sentence(rng, rng.randint(3, 12))}" for _ in range(rng.randint(2, 6))
            )
        else:
            sentences = [_sentence(rng, rng.randint(4, 24)) for _ in range(rng.randint(1, 6))]
            prose.append(sentences)
            block = " ".join(sentences)
        blocks.append(block)
        total += tokens(block)
    return "\n\n".join(blocks), prose


def _split_total(rng: random.Random, total: int, parts: int) -> list[int]:
    weights = [rng.uniform(1.0, 2.0) for _ in range(parts)]
    scale = total / sum(weights)
    return [max(1, int(w * scale)) for w in weights]


def _copied_run(
    rng: random.Random, prose: list[list[str]], lo: int, hi: int, statement: bool = False
) -> str:
    """Consecutive context sentences totalling between ``lo`` and ``hi`` tokens.

    With ``statement`` the run does not end in a question, which the claim
    filter would drop.
    """
    while True:
        sentences = rng.choice(prose)
        start = rng.randrange(len(sentences))
        run: list[str] = []
        total = 0  # spaces add no tokens, so a run's count is the sum of its sentences'
        for s in sentences[start:]:
            n = tokens(s)
            if total + n > hi:
                break
            run.append(s)
            total += n
        if run and total >= lo and not (statement and run[-1].endswith("?")):
            return " ".join(run)


def _invented_run(rng: random.Random, lo: int, hi: int) -> str:
    while True:
        run: list[str] = []
        while tokens(" ".join(run)) < lo:
            run.append(_invented_sentence(rng, rng.randint(6, 16)))
        text = " ".join(run)
        if tokens(text) <= hi:
            return text


def _spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so any prefix mixes small and large indices."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


# ---------------------------------------------------------------------------
# long-context: 2-4 documents, 8k-32k tokens, 3-6 single-paragraph claims
# ---------------------------------------------------------------------------

LONG_CONTEXT_POOL = 24
LONG_CONTEXT_MIN_TOKENS = 8_000
LONG_CONTEXT_MAX_TOKENS = 32_000
# Token ranges whose budgeted counts (x1.3) fall in claim bands 2, 3 and 4
# of the pipeline's 16-token banding. All exceed 30 tokens, so no two
# paragraphs merge into one claim, and none exceeds the 60-token claim size.
_BAND_TOKENS = ((31, 36), (37, 48), (49, 60))


def long_context(seed: int) -> list[Request]:
    """The cost of a request follows its context size and its number of
    distinct claim bands (one context chunking each), so both sit on a fixed
    plan and every seed sees the same mix; only the text is random.

    Request ``i`` of the plan has a context size on an even grid from 8k to
    32k tokens, ``3 + i % 4`` claims and ``1 + i % 3`` distinct bands. Every other request
    (in pool order) plants one or two invented claims among copied ones.
    Pool order interleaves sizes so any prefix of the pool mixes them.
    """
    rng = random.Random(f"long-context/{seed}")
    pool = []
    step = (LONG_CONTEXT_MAX_TOKENS - LONG_CONTEXT_MIN_TOKENS) / (LONG_CONTEXT_POOL - 1)
    for i in _spread_order(LONG_CONTEXT_POOL):
        total = round(LONG_CONTEXT_MIN_TOKENS + i * step)
        docs, prose = [], []
        for size in _split_total(rng, total, rng.randint(2, 4)):
            text, paragraphs = _document(rng, size)
            docs.append(text)
            prose.extend(paragraphs)
        n_claims, n_bands = 3 + i % 4, 1 + i % 3
        hallucinated = len(pool) % 2 == 1
        invented = set(rng.sample(range(n_claims), rng.randint(1, 2))) if hallucinated else set()
        paragraphs = []
        for c in range(n_claims):
            lo, hi = _BAND_TOKENS[(i + c % n_bands) % len(_BAND_TOKENS)]
            if c in invented:
                paragraphs.append(_invented_run(rng, lo, hi))
            else:
                paragraphs.append(_copied_run(rng, prose, lo, hi, statement=True))
        pool.append(Request(tuple(docs), "\n\n".join(paragraphs), hallucinated))
    return pool


# ---------------------------------------------------------------------------
# remote-loopback: 2k-token context, 25-paragraph output
# ---------------------------------------------------------------------------

REMOTE_POOL = 16
REMOTE_CONTEXT_TOKENS = 2_000
REMOTE_PARAGRAPHS = 25


def remote_loopback(seed: int) -> list[Request]:
    """Long outputs over a short context, so claim splitting and per-claim
    backend round trips dominate. Outputs mix copied runs with headings and
    questions (filtered as non-factual); every other request also carries
    invented sentences."""
    rng = random.Random(f"remote-loopback/{seed}")
    pool = []
    for i in range(REMOTE_POOL):
        docs, prose = [], []
        for size in _split_total(rng, REMOTE_CONTEXT_TOKENS, rng.randint(1, 2)):
            text, paragraphs = _document(rng, size)
            docs.append(text)
            prose.extend(paragraphs)
        hallucinated = i % 2 == 1
        invented = (
            set(rng.sample(range(REMOTE_PARAGRAPHS), rng.randint(1, 3))) if hallucinated else set()
        )
        paragraphs = []
        for p in range(REMOTE_PARAGRAPHS):
            if p in invented:
                paragraphs.append(_invented_run(rng, 31, 60))
            elif rng.random() < 0.15:
                paragraphs.append(_heading(rng))
            else:
                paragraphs.append(_copied_run(rng, prose, 31, 60))
        pool.append(Request(tuple(docs), "\n\n".join(paragraphs), hallucinated))
    return pool


# ---------------------------------------------------------------------------
# synth-corpus (tests/synth.py construction), 200 samples
# ---------------------------------------------------------------------------

SYNTH_SAMPLES = 200
_CONSONANTS = "bcdfglmnprst"
_VOWELS = "aeiou"
_TASK_CYCLE = ("qa", "data-to-text", "summarization")


def _synth_word(rng: random.Random) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))


def _synth_sentence(rng: random.Random, vocab: list[str], n_words: int) -> str:
    words = [rng.choice(vocab) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def synth_corpus(seed: int) -> list[dict]:
    """JSONL-shaped records: faithful samples copy a sentence run verbatim;
    hallucinated ones (every odd sample) also plant a sentence from a
    vocabulary that never occurs in any context."""
    rng = random.Random(seed)
    vocab = sorted({_synth_word(rng) for _ in range(600)})
    novel_vocab = sorted({"zx" + _synth_word(rng) for _ in range(300)})
    records = []
    for i in range(SYNTH_SAMPLES):
        per_doc = [
            [_synth_sentence(rng, vocab, rng.randint(12, 28)) for _ in range(rng.randint(6, 10))]
            for _ in range(rng.randint(1, 2))
        ]
        source = per_doc[rng.randrange(len(per_doc))]
        run_len = rng.randint(3, min(5, len(source)))
        start = rng.randrange(len(source) - run_len + 1)
        response = source[start : start + run_len]
        hallucinated = i % 2 == 1
        if hallucinated:
            planted = _synth_sentence(rng, novel_vocab, rng.randint(40, 50))
            at = rng.randrange(len(response) + 1)
            response = response[:at] + [planted] + response[at:]
        records.append(
            {
                "id": f"synth-{i:03d}",
                "task_type": _TASK_CYCLE[i % len(_TASK_CYCLE)],
                "context": [" ".join(s) for s in per_doc],
                "response": " ".join(response),
                "label_hallucinated": hallucinated,
            }
        )
    return records

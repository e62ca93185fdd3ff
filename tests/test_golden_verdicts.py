"""Golden verdict digest: `detect` output pinned over a fixed request set.

The requests are built from the seeded generators in ``gen`` and ``synth``
and cover both scoring modes, multi-document contexts whose short documents
merge into one chunk across the document join (so the majority rule of
``best_chunk_doc`` matters), filtered claims, a whitespace-only context,
claim truncation and top-chunk truncation. A refactor of the pipeline must
leave the digest unchanged; a deliberate behaviour change must update it
and say why.

Floats are rounded to 9 places before hashing so that last-ulp differences
in ``np.exp`` or BLAS across platforms cannot flip the digest.
"""

import hashlib
import json
import random

import gen
import synth
from groundcheck.chunking import ChunkerConfig
from groundcheck.pipeline import DetectionRequest, PipelineConfig, detect
from groundcheck.retrieval import PackingBudget

GOLDEN_SHA256 = "4a99cc00fe7c9f7f1edec256beb0103b6b87b05f02cecb43d37b04fc3c67db9c"

PAIRWISE = PipelineConfig()
PACKED = PipelineConfig(mode="packed")
# Small claims keep headings, greetings, questions and short clauses apart.
SMALL_CLAIMS = PipelineConfig(claim_chunker=ChunkerConfig(s_max=10, o_max=0))
# A 128-token window with 400-token claims: long claims are truncated to fit,
# and the truncated claim leaves less room than one minimal chunk needs.
NARROW = PackingBudget(window=128)
LONG_CLAIMS = ChunkerConfig(s_max=400, o_max=0)
TRUNCATING = (
    PipelineConfig(claim_chunker=LONG_CLAIMS, budget=NARROW),
    PipelineConfig(claim_chunker=LONG_CLAIMS, budget=NARROW, mode="packed"),
)

NOVEL = (
    "Quartz gryphons manufacture seventeen polyhedral memoranda underwater "
    "while juggling vermilion abacuses near clandestine zeppelin turbines."
)


def _synth_requests():
    for sample in synth.build_corpus(n=12, seed=4242):
        request = DetectionRequest(sample.context, sample.response)
        yield PAIRWISE, request
        yield PACKED, request


def _short_document_requests():
    """2-3 short documents, unequal in length, that chunk as one span."""
    rng = random.Random(77)
    for i in range(8):
        docs = tuple(
            gen.paragraph(rng, rng.randint(1, 3), max_words=10)
            for _ in range(rng.randint(2, 3))
        )
        source = docs[rng.randrange(len(docs))]
        output = source if i % 2 == 0 else source + " " + NOVEL
        request = DetectionRequest(docs, output)
        yield PAIRWISE, request
        yield PACKED, request


def _filtered_claim_requests():
    rng = random.Random(31)
    for _ in range(4):
        doc = gen.document(rng, 300)
        body = gen.paragraph(rng, 2, max_words=12)
        output = f"{gen.heading(rng)}\n\n{body}\n\nHello and welcome to the report.\n\nWhat else?"
        yield SMALL_CLAIMS, DetectionRequest((doc, body), output)
    yield SMALL_CLAIMS, DetectionRequest((doc,), "## Summary\n\nAny questions?")


def _edge_requests():
    rng = random.Random(5)
    output = gen.sentence(rng, 12)[:-1] + "."
    yield PAIRWISE, DetectionRequest(("   \n\n ",), output)
    yield PACKED, DetectionRequest(("\t", "\n"), output)
    yield PAIRWISE, DetectionRequest((output,), "")


def _truncation_requests():
    rng = random.Random(2024)
    for _ in range(3):
        doc = gen.document(rng, 900)
        words = doc.replace("\n", " ").split()
        start = rng.randrange(len(words) - 120)
        # one long unpunctuated run, so the claim stays one piece
        claim = " ".join(w.strip(".!?,;") for w in words[start : start + 110]) + "."
        for config in TRUNCATING:
            yield config, DetectionRequest((doc,), claim)


def golden_requests():
    return [
        *_synth_requests(),
        *_short_document_requests(),
        *_filtered_claim_requests(),
        *_edge_requests(),
        *_truncation_requests(),
    ]


def _rounded(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def test_golden_verdict_digest():
    requests = golden_requests()
    assert len(requests) >= 40
    verdicts = [_rounded(detect(request, config).to_dict()) for config, request in requests]

    # the set still reaches every path it is meant to pin
    warnings = [w for v in verdicts for w in v["warnings"]]
    labels = [c["label"] for v in verdicts for c in v["claims"]]
    assert any("budgeted tokens to fit the window" in w for w in warnings)
    assert any(w.startswith("top chunk for claim") for w in warnings)
    assert any("no chunks" in w for w in warnings)
    assert "non-factual-unscored" in labels and "hallucinated" in labels
    assert {c.mode for c, _ in requests} == {"pairwise", "packed"}
    assert any(len(r.context_documents) == 3 for _, r in requests)

    blob = json.dumps(verdicts, sort_keys=True, ensure_ascii=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN_SHA256

import json
import math
import random
import re

import pytest

import gen
from groundcheck.aggregation import (
    AggregationConfig,
    GROUNDED,
    HALLUCINATED,
    NO_FACTUAL_CLAIMS,
    NON_FACTUAL_UNSCORED,
)
from groundcheck.backends import BackendSet, ContainmentNLI, MockEmbedder, builtin_backends
from groundcheck.chunking import ChunkerConfig
from groundcheck.errors import BackendError, ContractError
from groundcheck.pipeline import CLAIM_BAND_TOKENS, DetectionRequest, PipelineConfig, detect
from groundcheck.retrieval import PackingBudget
from groundcheck.tokens import TokenCounter, budgeted_count

CONTEXT = (
    "The northern lighthouse was built in 1882 on the basalt cliffs. "
    "Its lamp burned whale oil until the harbor board installed an electric "
    "arc light in 1924. The keeper's cottage still stands beside the tower."
)


def test_verbatim_output_is_grounded_with_perfect_score():
    verdict = detect(
        DetectionRequest(
            context_documents=(CONTEXT,),
            output_text="The northern lighthouse was built in 1882 on the basalt cliffs.",
        )
    )
    assert verdict.label == GROUNDED
    assert verdict.response_score == 1.0
    assert all(c.grounding_score == 1.0 for c in verdict.claim_verdicts)


def test_novel_sentence_flags_response_hallucinated():
    # claims must not merge: keep each sentence over half the 60-token budget;
    # every content word of the faithful sentence appears in the context
    faithful = (
        "The northern lighthouse was built in 1882 on the basalt cliffs, "
        "its lamp burned whale oil until the harbor board installed an "
        "electric arc light in 1924, and the keeper's cottage still stands "
        "beside the tower."
    )
    novel_sentence = (
        "Quartz gryphons manufacture seventeen polyhedral memoranda underwater "
        "while juggling vermilion abacuses, polishing clandestine zeppelin "
        "turbines, rehearsing operatic limericks, cataloguing imaginary "
        "comets, and embroidering periscopes with decorative marzipan filigree "
        "during alternate leap years."
    )
    verdict = detect(
        DetectionRequest(context_documents=(CONTEXT,), output_text=faithful + " " + novel_sentence)
    )
    assert verdict.label == HALLUCINATED
    assert len(verdict.claim_verdicts) == 2
    # softmin over claim scores [1.0, 0.0] at beta 10: e^-10 / (1 + e^-10)
    assert verdict.response_score == pytest.approx(
        math.exp(-10.0) / (1.0 + math.exp(-10.0)), rel=1e-9
    )
    novel = [c for c in verdict.claim_verdicts if "gryphons" in c.text]
    assert len(novel) == 1
    assert novel[0].grounding_score == 0.0
    assert novel[0].label == HALLUCINATED
    grounded = [c for c in verdict.claim_verdicts if "lighthouse" in c.text]
    assert grounded[0].label == GROUNDED


def test_heading_only_output_has_no_factual_claims():
    verdict = detect(DetectionRequest(context_documents=(CONTEXT,), output_text="## Report"))
    assert verdict.label == NO_FACTUAL_CLAIMS
    assert verdict.response_score == 1.0
    assert verdict.claim_verdicts[0].label == NON_FACTUAL_UNSCORED
    assert verdict.claim_verdicts[0].grounding_score is None


def test_empty_output_has_no_factual_claims():
    verdict = detect(DetectionRequest(context_documents=(CONTEXT,), output_text=""))
    assert verdict.label == NO_FACTUAL_CLAIMS
    assert verdict.claim_verdicts == ()


def test_filtered_claims_still_appear_with_spans():
    # a small claim budget keeps the heading from merging into the body
    output = "## Findings\n\nThe lighthouse was built in 1882 on the basalt cliffs."
    config = PipelineConfig(claim_chunker=ChunkerConfig(s_max=12, o_max=0))
    verdict = detect(DetectionRequest(context_documents=(CONTEXT,), output_text=output), config)
    labels = {c.text: c.label for c in verdict.claim_verdicts}
    assert labels["## Findings"] == NON_FACTUAL_UNSCORED
    assert verdict.label == GROUNDED
    # claim accounting: every non-whitespace character is covered exactly once
    covered = [0] * len(output)
    for c in verdict.claim_verdicts:
        for pos in range(c.start, c.end):
            covered[pos] += 1
    for pos, ch in enumerate(output):
        if not ch.isspace():
            assert covered[pos] == 1


def test_request_requires_context():
    with pytest.raises(ContractError):
        DetectionRequest(context_documents=(), output_text="x")


def test_whitespace_context_scores_claims_zero():
    verdict = detect(DetectionRequest(context_documents=("   \n\n ",), output_text="A factual looking sentence about lighthouses."))
    assert verdict.label == HALLUCINATED
    assert all(c.grounding_score == 0.0 for c in verdict.claim_verdicts)
    assert any("no chunks" in w for w in verdict.warnings)


def test_multiple_documents_record_doc_index():
    # doc0 is large enough that doc1 lands in its own chunk past the join
    doc0 = " ".join(f"Granite quarries supplied batch {i} of paving stones." for i in range(30))
    doc1 = "The observatory's brass telescope was restored by volunteers in 1977."
    verdict = detect(
        DetectionRequest(
            context_documents=(doc0, doc1),
            output_text="The observatory's brass telescope was restored by volunteers in 1977.",
        )
    )
    (claim,) = verdict.claim_verdicts
    assert claim.label == GROUNDED
    assert claim.best_chunk_doc == 1


def test_deterministic_verdict_bytes():
    request = DetectionRequest(
        context_documents=(CONTEXT,),
        output_text="The keeper's cottage still stands beside the tower. An invented flying castle hovers.",
    )
    a = json.dumps(detect(request).to_dict(), sort_keys=True)
    b = json.dumps(detect(request).to_dict(), sort_keys=True)
    assert a == b


def test_packed_mode_runs_and_scores():
    config = PipelineConfig(mode="packed")
    verdict = detect(
        DetectionRequest(
            context_documents=(CONTEXT,),
            output_text="The keeper's cottage still stands beside the tower.",
        ),
        config,
    )
    assert verdict.label == GROUNDED
    assert verdict.response_score == 1.0


def test_long_claim_is_truncated_with_warning():
    # 200-word run-on claim against a small scoring window
    words = " ".join(f"w{i}" for i in range(200))
    config = PipelineConfig(
        claim_chunker=ChunkerConfig(s_max=400, o_max=0),
        budget=PackingBudget(window=128),
        counter=TokenCounter(safety_margin=1.0),
    )
    verdict = detect(
        DetectionRequest(context_documents=(words,), output_text=words), config
    )
    assert any("truncated" in w for w in verdict.warnings)
    # the run completes with a scored verdict; a 128-token window cannot pack
    # enough evidence to ground an 86-token claim, and that is the point of
    # the warning
    assert verdict.label in (GROUNDED, HALLUCINATED)
    assert verdict.claim_verdicts[0].grounding_score is not None


def test_oversized_top_chunk_is_truncated_with_warning(caplog):
    # margin 1.3 inflates budgeted chunk sizes past the small window's budget
    context = " ".join(f"stone{i}" for i in range(400))
    output = " ".join(f"stone{i}" for i in range(60)) + "."
    config = PipelineConfig(budget=PackingBudget(window=128))
    with caplog.at_level("DEBUG", logger="groundcheck"):
        verdict = detect(DetectionRequest(context_documents=(context,), output_text=output), config)
    assert verdict.warnings == ("top chunk for claim 0 truncated to 41 budgeted tokens",)
    # the verdict warning names the claim; the log does not repeat it
    assert not [r for r in caplog.records if r.name == "groundcheck.retrieval"]


def test_backend_failure_carries_stage():
    class BrokenEmbedder:
        def embed(self, texts):
            raise BackendError("connection reset")

    backends = BackendSet(
        embedder=BrokenEmbedder(), nli=ContainmentNLI(), claim_classifier=builtin_backends().claim_classifier
    )
    with pytest.raises(BackendError, match="embedding stage"):
        detect(
            DetectionRequest(context_documents=(CONTEXT,), output_text="The lamp burned whale oil."),
            backends=backends,
        )


def test_embedder_vector_count_mismatch_is_a_backend_error():
    class ShortEmbedder:
        def embed(self, texts):
            return MockEmbedder().embed(texts)[:-1]

    backends = BackendSet(
        embedder=ShortEmbedder(), nli=ContainmentNLI(), claim_classifier=builtin_backends().claim_classifier
    )
    with pytest.raises(BackendError, match="embedding stage failed: 1 vectors for 2 texts"):
        detect(
            DetectionRequest(context_documents=(CONTEXT,), output_text="The lamp burned whale oil."),
            backends=backends,
        )


def test_custom_theta_beta_flow_through():
    config = PipelineConfig(aggregation=AggregationConfig(beta=0.0, theta=0.9))
    verdict = detect(
        DetectionRequest(
            context_documents=(CONTEXT,),
            output_text=(
                "The northern lighthouse was built in 1882 on the basalt cliffs. "
                "Imaginary zeppelins deliver marzipan parcels to the lighthouse nightly."
            ),
        ),
        config,
    )
    # beta 0 averages the two claim scores; theta 0.9 tips it to hallucinated
    assert verdict.label == HALLUCINATED


class RecordingEmbedder:
    """MockEmbedder that records its calls; ``per_text`` embeds each text alone."""

    def __init__(self, per_text=False):
        self.inner = MockEmbedder()
        self.per_text = per_text
        self.calls = []

    def embed(self, texts):
        texts = list(texts)
        self.calls.append(texts)
        if self.per_text:
            return [self.inner.embed([t])[0] for t in texts]
        return self.inner.embed(texts)


def test_detect_embeds_each_distinct_text_once_in_one_call():
    # The document appears twice, so the joined context repeats its chunks;
    # the two claims fall in different 16-token bands, so it is chunked twice.
    doc = gen.document(random.Random(11), 700)
    short = "Labadi sen tor ruke lim dus."
    long = (
        "Moke fodi ralsen guvi tor lim dus, ceba nipo rusa tevi moke limdus "
        "sa te vi mo ke ral sen tor lim dus ba ce di fo gu la me."
    )
    config = PipelineConfig(claim_chunker=ChunkerConfig(s_max=32, o_max=0))
    counter = config.counter
    assert (
        budgeted_count(counter, short) // CLAIM_BAND_TOKENS
        != budgeted_count(counter, long) // CLAIM_BAND_TOKENS
    )
    request = DetectionRequest(context_documents=(doc, doc), output_text=short + "\n\n" + long)

    verdicts = []
    for per_text in (False, True):
        embedder = RecordingEmbedder(per_text=per_text)
        backends = BackendSet(
            embedder=embedder,
            nli=ContainmentNLI(),
            claim_classifier=builtin_backends().claim_classifier,
        )
        verdict = detect(request, config, backends)
        assert len(verdict.claim_verdicts) == 2
        assert all(c.grounding_score is not None for c in verdict.claim_verdicts)
        (texts,) = embedder.calls
        assert len(texts) == len(set(texts))
        assert short in texts and long in texts
        verdicts.append(json.dumps(verdict.to_dict(), sort_keys=True))
    assert verdicts[0] == verdicts[1]


class CountingNLI:
    """ContainmentNLI that records its calls; ``per_pair`` scores each pair alone."""

    def __init__(self, per_pair=False):
        self.inner = ContainmentNLI()
        self.per_pair = per_pair
        self.calls = []

    def score(self, pairs):
        pairs = list(pairs)
        self.calls.append(pairs)
        if self.per_pair:
            return [self.inner.score([p])[0] for p in pairs]
        return self.inner.score(pairs)


def _nli_backends(nli):
    return BackendSet(
        embedder=MockEmbedder(), nli=nli, claim_classifier=builtin_backends().claim_classifier
    )


def _multi_band_request():
    """Six factual claims over two 16-token bands; the last one is invented.

    Each claim is long enough that no two merge under a 32-token claim cap.
    """
    doc = gen.document(random.Random(5), 900)
    sentences = [
        s for s in re.findall(r"[A-Z][^.!?\n]*[.!]", doc) if 17 <= len(s.split()) <= 24
    ]
    novel = (
        "Quartz gryphons manufacture seventeen polyhedral memoranda underwater "
        "while juggling vermilion abacuses near clandestine zeppelin turbines."
    )
    return DetectionRequest(
        context_documents=(doc, doc[: len(doc) // 2]),
        output_text="\n\n".join(sentences[:5] + [novel]),
    )


@pytest.mark.parametrize("mode", ["pairwise", "packed"])
def test_detect_scores_every_claim_in_one_nli_call(mode):
    config = PipelineConfig(claim_chunker=ChunkerConfig(s_max=32, o_max=0), mode=mode)
    request = _multi_band_request()

    verdicts = []
    for per_pair in (False, True):
        nli = CountingNLI(per_pair=per_pair)
        verdict = detect(request, config, _nli_backends(nli))
        scored = [c for c in verdict.claim_verdicts if c.grounding_score is not None]
        assert len(scored) == 6
        bands = {budgeted_count(config.counter, c.text) // CLAIM_BAND_TOKENS for c in scored}
        assert len(bands) >= 2
        (pairs,) = nli.calls
        if mode == "pairwise":
            assert len(pairs) > len(scored)  # several chunks per claim
        else:
            assert len(pairs) == len(scored)
        # scores went back to their own claims
        assert [c.grounding_score for c in scored[:5]] == [1.0] * 5
        assert scored[-1].grounding_score == 0.0
        verdicts.append(json.dumps(verdict.to_dict(), sort_keys=True))
    assert verdicts[0] == verdicts[1]


def test_no_chunks_path_makes_no_nli_call():
    nli = CountingNLI()
    request = DetectionRequest(
        context_documents=("   \n\n ",), output_text="A factual looking sentence about lighthouses."
    )
    verdict = detect(request, backends=_nli_backends(nli))
    assert all(c.grounding_score == 0.0 for c in verdict.claim_verdicts)
    assert nli.calls == []


def test_nli_score_count_mismatch_is_a_backend_error():
    class ShortNLI:
        def score(self, pairs):
            return ContainmentNLI().score(pairs)[:-1]

    with pytest.raises(BackendError, match="NLI stage failed on .* pairs for 6 claims: .*returned"):
        detect(
            _multi_band_request(),
            PipelineConfig(claim_chunker=ChunkerConfig(s_max=32, o_max=0)),
            _nli_backends(ShortNLI()),
        )

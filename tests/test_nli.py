import pytest

from groundcheck.backends import ContainmentNLI, content_tokens
from groundcheck.chunking import Chunk
from groundcheck.errors import BackendError, ContractError
from groundcheck.nli import EntailmentScores, PACKED, PAIRWISE, claim_pairs, score_claim
from groundcheck.retrieval import ClaimEvidence

BACKEND = ContainmentNLI()


def make_chunk(text, index):
    return Chunk(text=text, start=0, end=len(text), token_count=len(text.split()), index=index)


def score_one(backend, premise, hypothesis):
    """Scores of a request with one claim and one pair."""
    ((scores,),) = score_claim(backend, [[(premise, hypothesis)]])
    return scores


def score_evidence(backend, mode, hypothesis, evidence, chunks):
    """Scores of a request with one claim, planned from its evidence."""
    (scores,) = score_claim(backend, [claim_pairs(mode, hypothesis, evidence, chunks)])
    return scores


def test_scores_validate_range_and_sum():
    EntailmentScores(0.5, 0.5, 0.0)
    with pytest.raises(ContractError):
        EntailmentScores(0.7, 0.7, 0.0)
    with pytest.raises(ContractError):
        EntailmentScores(1.2, -0.2, 0.0)


def test_containment_full():
    scores = score_one(BACKEND, "The cat sat on the mat today", "the cat sat")
    assert scores.p_entail == 1.0
    assert scores.p_contradict == 0.0
    assert scores.p_neutral == 0.0


def test_containment_empty_intersection():
    scores = score_one(BACKEND, "alpha beta gamma", "delta epsilon")
    assert scores.p_entail == 0.0
    assert scores.p_neutral == 1.0


def test_containment_partial():
    # hypothesis content tokens: apple, banana, cherry, mango; premise has 2
    scores = score_one(BACKEND, "apple banana orange", "apple banana cherry mango")
    assert scores.p_entail == 0.5


def test_containment_stopword_only_hypothesis():
    scores = score_one(BACKEND, "whatever", "it is the and of")
    assert scores.p_entail == 1.0


def test_content_tokens_drop_stopwords_and_case():
    assert content_tokens("The Cat, and a Mat!") == {"cat", "mat"}


def test_backend_failure_wrapped():
    class Broken:
        def score(self, pairs):
            raise RuntimeError("nope")

    with pytest.raises(BackendError):
        score_one(Broken(), "p", "h")


def test_pairwise_scores_each_selected_chunk_in_rank_order():
    chunks = [make_chunk("nothing shared here", 0), make_chunk("more filler text", 1),
              make_chunk("the tired dog slept deeply", 2)]
    evidence = ClaimEvidence(claim_index=0, ranked=[(1, 0.9), (0, 0.5), (2, 0.4)], selected_k=3)
    out = score_evidence(BACKEND, PAIRWISE, "tired dog slept", evidence, chunks)
    assert len(out) == 3
    assert [s.p_entail for s in out] == [0.0, 0.0, 1.0]


def test_packed_mode_single_call_document_order():
    calls = []

    class Recorder:
        def score(self, pairs):
            calls.extend(pairs)
            return ContainmentNLI().score(pairs)

    chunks = [make_chunk("zebra stripes", 0), make_chunk("lion mane", 1)]
    evidence = ClaimEvidence(claim_index=0, ranked=[(1, 0.8), (0, 0.2)], selected_k=2)
    out = score_evidence(Recorder(), PACKED, "zebra lion", evidence, chunks)
    assert len(out) == 1
    assert len(calls) == 1
    # document order, not rank order
    assert calls[0][0] == "zebra stripes\nlion mane"
    assert out[0].p_entail == 1.0


def test_single_chunk_modes_agree():
    chunks = [make_chunk("the blue whale is the largest animal", 0)]
    evidence = ClaimEvidence(claim_index=0, ranked=[(0, 0.9)], selected_k=1)
    pairwise = score_evidence(BACKEND, PAIRWISE, "blue whale largest", evidence, chunks)
    packed = score_evidence(BACKEND, PACKED, "blue whale largest", evidence, chunks)
    assert pairwise[0].p_entail == packed[0].p_entail


def test_truncated_top_replaces_premise():
    chunks = [make_chunk("alpha beta gamma delta", 0)]
    evidence = ClaimEvidence(
        claim_index=0, ranked=[(0, 1.0)], selected_k=1, truncated_top="alpha beta"
    )
    out = score_evidence(BACKEND, PAIRWISE, "gamma delta", evidence, chunks)
    assert out[0].p_entail == 0.0  # truncation removed the match


def test_truncated_top_leads_the_pairwise_pairs():
    chunks = [make_chunk("alpha beta", 0), make_chunk("gamma delta epsilon", 1)]
    evidence = ClaimEvidence(
        claim_index=0, ranked=[(1, 0.9), (0, 0.5)], selected_k=2, truncated_top="gamma"
    )
    assert claim_pairs(PAIRWISE, "h", evidence, chunks) == [("gamma", "h"), ("alpha beta", "h")]
    # packed mode keeps document order with the truncated text in place
    assert claim_pairs(PACKED, "h", evidence, chunks) == [("alpha beta\ngamma", "h")]


def test_score_claim_requires_selection():
    with pytest.raises(ContractError):
        claim_pairs(PAIRWISE, "x", ClaimEvidence(0, [(0, 1.0)], 0), [make_chunk("x", 0)])


def test_unknown_mode_rejected():
    with pytest.raises(ContractError):
        claim_pairs("both", "x", ClaimEvidence(0, [(0, 1.0)], 1), [make_chunk("x", 0)])


class CountingNLI:
    def __init__(self):
        self.calls = []

    def score(self, pairs):
        self.calls.append(list(pairs))
        return BACKEND.score(pairs)


def test_score_claim_one_call_sliced_per_claim():
    backend = CountingNLI()
    claims = [
        [("cat dog", "cat"), ("bird", "cat")],
        [("fish", "fish")],
        [("a b", "c"), ("c", "c"), ("d", "c")],
    ]
    out = score_claim(backend, claims)
    assert backend.calls == [[pair for claim in claims for pair in claim]]
    assert [[s.p_entail for s in scores] for scores in out] == [[1.0, 0.0], [1.0], [0.0, 1.0, 0.0]]

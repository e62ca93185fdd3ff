import pytest

from groundcheck.backends import HeuristicClaimClassifier
from groundcheck.claims import (
    Claim,
    classify_factual,
    filter_claims,
    heuristic_factual_prob,
)
from groundcheck.errors import BackendError, ContractError


def make_claim(text, index=0, prob=None):
    return Claim(
        text=text, start=0, end=len(text), token_count=len(text.split()), claim_index=index,
        factual_prob=prob,
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("## Summary", 0.0),  # H1: markdown heading
        ("# Anything at all here", 0.0),
        ("RESULTS OVERVIEW", 0.0),  # H1: all-caps, short
        ("Key findings:", 0.0),  # H1: short line ending ':'
        ("Hello and welcome to the report.", 0.0),  # H2: greeting
        ("Hi there, I checked the numbers.", 0.0),
        ("Sure! Here is the answer you wanted.", 0.0),
        ("Best regards from the whole team today.", 0.0),
        ("Is the company profitable this year?", 0.0),  # H3: interrogative
        ("Founded 1998.", 0.2),  # H4: < 4 tokens
        ("The company was founded in 1998.", 1.0),
        ("Revenue grew by twelve percent in the last quarter.", 1.0),
    ],
)
def test_heuristic_rule_table(text, expected):
    assert heuristic_factual_prob(text) == expected


def test_first_matching_rule_wins():
    # all-caps AND interrogative: H1 fires before H3, same 0.0 either way,
    # but a short question must hit H3 (0.0) before H4 (0.2)
    assert heuristic_factual_prob("Why me?") == 0.0


def test_all_caps_needs_letters():
    # digits and punctuation only never count as an all-caps heading
    assert heuristic_factual_prob("1998 - 2004.") == 1.0  # 4 tokens, no rule fires
    assert heuristic_factual_prob("1998.") == 0.2  # short-claim rule, not H1


def test_classify_factual_sets_probs_in_order():
    claims = [make_claim("## Title", 0), make_claim("The sky is blue today.", 1)]
    out = classify_factual(HeuristicClaimClassifier(), claims)
    assert [c.claim_index for c in out] == [0, 1]
    assert [c.factual_prob for c in out] == [0.0, 1.0]
    assert classify_factual(HeuristicClaimClassifier(), []) == []


def test_classify_factual_wraps_backend_failure():
    class Broken:
        def classify(self, texts):
            raise RuntimeError("boom")

    with pytest.raises(BackendError, match=r"claims \[0\]"):
        classify_factual(Broken(), [make_claim("anything", 0)])


def test_classify_factual_checks_arity():
    class WrongArity:
        def classify(self, texts):
            return [0.5] * (len(texts) + 1)

    with pytest.raises(BackendError, match="returned"):
        classify_factual(WrongArity(), [make_claim("anything", 0)])


def test_filter_claims_threshold_and_order():
    claims = [
        make_claim("a", 0, prob=0.9),
        make_claim("b", 1, prob=0.1),
        make_claim("c", 2, prob=0.6),
    ]
    kept = filter_claims(claims, 0.5)
    assert [c.claim_index for c in kept] == [0, 2]
    assert filter_claims(claims, 0.0) == claims


def test_filter_claims_is_a_subsequence():
    claims = [make_claim(f"claim {i}", i, prob=(i % 3) / 2) for i in range(12)]
    kept = filter_claims(claims, 0.5)
    it = iter(claims)
    assert all(c in it for c in kept)


def test_filter_rejects_unclassified():
    with pytest.raises(ContractError):
        filter_claims([make_claim("a", 0)], 0.5)

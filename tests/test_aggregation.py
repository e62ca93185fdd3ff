import math
import random

import pytest

from groundcheck.aggregation import (
    AggregationConfig,
    ClaimVerdict,
    GROUNDED,
    HALLUCINATED,
    NO_FACTUAL_CLAIMS,
    claim_score,
    classify_response,
    response_score,
)
from groundcheck.errors import ConfigError, ContractError


def config(beta=10.0, theta=0.5):
    return AggregationConfig(beta=beta, theta=theta)


def test_claim_score_is_max():
    assert claim_score([0.2, 0.9, 0.4]) == 0.9
    assert claim_score([0.35]) == 0.35


def test_claim_score_empty_rejected():
    with pytest.raises(ContractError):
        claim_score([])


def test_response_score_constant_vector_is_identity():
    for beta in (0.0, 1.0, 10.0, 50.0):
        assert response_score([0.4, 0.4, 0.4], config(beta=beta)) == pytest.approx(0.4)


def test_response_score_beta_zero_is_mean():
    assert response_score([0.2, 0.8], config(beta=0.0)) == pytest.approx(0.5, abs=1e-12)


def test_response_score_pinned_value():
    # sum(g*exp(-10 g)) / sum(exp(-10 g)) over [0.9, 0.1]
    assert response_score([0.9, 0.1], config(beta=10.0)) == pytest.approx(0.10027, abs=1e-4)


def test_response_score_large_beta_approaches_min():
    scores = [0.9, 0.55, 0.3]
    assert response_score(scores, config(beta=200.0)) == pytest.approx(0.3, abs=1e-9)


def test_response_score_below_mean_for_positive_beta():
    rng = random.Random(11)
    for _ in range(300):
        g = [rng.random() for _ in range(rng.randint(2, 9))]
        if max(g) - min(g) < 1e-9:
            continue
        mean = sum(g) / len(g)
        for beta in (1.0, 10.0, 50.0):
            assert response_score(g, config(beta=beta)) < mean


def test_response_score_bounds():
    rng = random.Random(12)
    for _ in range(300):
        g = [rng.random() for _ in range(rng.randint(1, 9))]
        for beta in (0.0, 1.0, 10.0, 50.0):
            s = response_score(g, config(beta=beta))
            assert min(g) - 1e-12 <= s <= max(g) + 1e-12


def test_response_score_nonincreasing_in_beta():
    # d(score)/d(beta) = -Var_w(g) <= 0: sharper beta can only penalize harder
    rng = random.Random(13)
    for _ in range(300):
        g = [rng.random() for _ in range(rng.randint(1, 9))]
        values = [response_score(g, config(beta=b)) for b in (0.0, 1.0, 10.0, 50.0)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


def test_response_score_coordinate_monotone_for_small_beta():
    # Coordinate-wise monotonicity holds for beta <= 1 on [0,1] scores
    # (the weight derivative term 1 + beta*(score - g_j) stays nonnegative).
    # It provably fails for large beta; see the softmin weighting note in the
    # module docstring.
    rng = random.Random(14)
    for _ in range(300):
        g = [rng.random() for _ in range(rng.randint(1, 8))]
        j = rng.randrange(len(g))
        bumped = list(g)
        bumped[j] = min(1.0, bumped[j] + rng.random() * (1.0 - bumped[j]))
        for beta in (0.0, 1.0):
            assert response_score(bumped, config(beta=beta)) >= response_score(g, config(beta=beta)) - 1e-12


def test_response_score_softmin_limit_bound():
    # |score - min| <= (max - min) * n * exp(-beta * (second smallest - min))
    rng = random.Random(15)
    beta = 50.0
    for _ in range(300):
        g = sorted(rng.random() for _ in range(rng.randint(2, 9)))
        s = response_score(g, config(beta=beta))
        bound = (g[-1] - g[0]) * len(g) * math.exp(-beta * (g[1] - g[0]))
        assert abs(s - g[0]) <= bound + 1e-12


def test_response_score_shift_equivariance():
    # exp weights are scale-free: shifting every score shifts the result
    g = [0.1, 0.35, 0.8]
    base = response_score(g, config(beta=10.0))
    shifted = response_score([x + 0.1 for x in g], config(beta=10.0))
    assert shifted == pytest.approx(base + 0.1, abs=1e-12)


def test_response_score_empty_rejected():
    with pytest.raises(ContractError):
        response_score([], config())


def test_classify_response_labels():
    assert classify_response(0.9, config(), []).label == GROUNDED
    assert classify_response(0.49999, config(), []).label == HALLUCINATED  # strict <
    assert classify_response(0.5, config(), []).label == GROUNDED  # boundary is grounded


def test_classify_response_no_factual_claims():
    verdict = classify_response(None, config(), [])
    assert verdict.label == NO_FACTUAL_CLAIMS
    assert verdict.response_score == 1.0
    assert any("no factual claims" in w for w in verdict.warnings)


def test_verdict_to_dict_roundtrip():
    claim = ClaimVerdict(
        claim_index=0, text="t", start=0, end=1, label=GROUNDED, grounding_score=0.9
    )
    verdict = classify_response(0.9, config(), [claim], ["note"])
    d = verdict.to_dict()
    assert d["label"] == GROUNDED
    assert d["claims"][0]["grounding_score"] == 0.9
    assert d["warnings"] == ["note"]


def test_config_invariants():
    with pytest.raises(ConfigError):
        AggregationConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        AggregationConfig(theta=0.0)

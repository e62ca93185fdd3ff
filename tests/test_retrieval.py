import math
import random

import numpy as np
import pytest

from groundcheck.errors import ConfigError, ContractError
from groundcheck.retrieval import PackingBudget, rank_chunks, select_k


def brute_force_order(claim_vec, chunk_vecs):
    """Independent oracle: per-pair fsum cosine, full sort by (-sim, index)."""

    def cos(u, v):
        dot = math.fsum(a * b for a, b in zip(u, v))
        nu = math.sqrt(math.fsum(a * a for a in u))
        nv = math.sqrt(math.fsum(b * b for b in v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return dot / (nu * nv)

    sims = [cos(claim_vec, v) for v in chunk_vecs]
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))


def test_cosine_identity_and_orthogonality():
    v = np.array([0.3, 0.4, 0.5])
    assert rank_chunks([v], [v]) == [[(0, pytest.approx(1.0))]]
    assert rank_chunks([np.array([1.0, 0.0])], [np.array([0.0, 1.0])]) == [[(0, 0.0)]]


def test_cosine_value():
    (((_, got),),) = rank_chunks([np.array([1.0, 1.0])], [np.array([1.0, 0.0])])
    assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_cosine_zero_vector_is_zero(caplog):
    with caplog.at_level("WARNING", logger="groundcheck.retrieval"):
        assert rank_chunks([np.zeros(3)], [np.array([1.0, 2.0, 3.0])]) == [[(0, 0.0)]]
        assert rank_chunks([np.array([1.0, 2.0, 3.0])], [np.zeros(3)]) == [[(0, 0.0)]]
    assert any("zero vector" in r.message for r in caplog.records)


def test_cosine_dim_mismatch():
    with pytest.raises(ContractError):
        rank_chunks([np.ones(3)], [np.ones(4)])


def test_rank_single_chunk():
    (ranked,) = rank_chunks([np.ones(4)], [np.ones(4)])
    assert ranked == [(0, pytest.approx(1.0))]


def test_rank_exact_match_first():
    rng = np.random.default_rng(3)
    chunks = [rng.normal(size=8) for _ in range(5)]
    (ranked,) = rank_chunks([chunks[2]], chunks)
    assert ranked[0][0] == 2
    assert ranked[0][1] == pytest.approx(1.0)


def test_rank_many_claims_equals_one_at_a_time(caplog):
    rng = np.random.default_rng(7)
    chunks = [rng.normal(size=16) for _ in range(12)] + [np.zeros(16)]
    claims = [rng.normal(size=16) for _ in range(5)] + [np.zeros(16)]
    with caplog.at_level("WARNING", logger="groundcheck.retrieval"):
        together = rank_chunks(claims, chunks)
    assert sum("zero vector" in r.message for r in caplog.records) == 1  # once per call
    assert together == [rank_chunks([c], chunks)[0] for c in claims]  # bit for bit
    assert rank_chunks([], chunks) == []


def test_rank_empty_is_an_error():
    with pytest.raises(ContractError):
        rank_chunks([np.ones(4)], [])


def test_rank_ragged_vectors_are_an_error():
    with pytest.raises(ContractError):
        rank_chunks([np.ones(3)], [np.ones(3), np.ones(4)])


def test_rank_matches_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 200)
        dim = 64
        chunks = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)]
        # force exact ties so the index tie-break is exercised
        if n >= 4:
            chunks[3] = list(chunks[0])
        claims = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        rankings = rank_chunks([np.array(c) for c in claims], [np.array(c) for c in chunks])
        assert len(rankings) == len(claims)
        for claim, ranked in zip(claims, rankings):
            assert [idx for idx, _ in ranked] == brute_force_order(claim, chunks)


def test_select_k_packing_arithmetic():
    # 40 + 8 + 4 * (100 + 2) = 456 <= 512; five chunks would need 558
    sel = select_k(PackingBudget(), claim_tokens=40, ranked_token_counts=[100] * 10)
    assert sel.k == 4
    assert sel.top_chunk_budget is None


def test_select_k_single_tiny_chunk():
    sel = select_k(PackingBudget(), claim_tokens=10, ranked_token_counts=[10])
    assert sel.k == 1


def test_select_k_cap_binds():
    budget = PackingBudget(k_max=2, k_target=2)
    sel = select_k(budget, claim_tokens=10, ranked_token_counts=[5] * 10)
    assert sel.k == 2


def test_select_k_truncates_oversized_top():
    sel = select_k(PackingBudget(), claim_tokens=400, ranked_token_counts=[300, 5])
    assert sel.k == 1
    assert sel.top_chunk_budget == 512 - 8 - 400 - 2


def test_select_k_empty_ranking_is_an_error():
    with pytest.raises(ContractError):
        select_k(PackingBudget(), 10, [])


def test_selection_is_a_prefix_of_the_ranking():
    rng = random.Random(5)
    budget = PackingBudget()
    for _ in range(200):
        counts = [rng.randint(10, 200) for _ in range(rng.randint(1, 12))]
        claim = rng.randint(5, 300)
        sel = select_k(budget, claim, counts)
        assert 1 <= sel.k <= budget.k_max
        if sel.top_chunk_budget is None:
            used = claim + budget.fixed_reserve + sum(
                c + budget.per_chunk_reserve for c in counts[: sel.k]
            )
            assert used <= budget.window
            # maximality: the next chunk (if allowed) would not have fit
            if sel.k < min(budget.k_max, len(counts)):
                assert used + counts[sel.k] + budget.per_chunk_reserve > budget.window


def test_budget_invariants():
    with pytest.raises(ConfigError):
        PackingBudget(window=8, fixed_reserve=8)
    with pytest.raises(ConfigError):
        PackingBudget(k_target=6, k_max=4)

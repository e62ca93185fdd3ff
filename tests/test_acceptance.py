"""Acceptance suite: every release gate in one module, one pass/fail line each.

The PASS/FAIL lines print outside pytest's capture, so a plain
``pytest tests/test_acceptance.py`` shows them. All gates run offline with
the builtin deterministic backends.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

import gen
import synth
from groundcheck.aggregation import AggregationConfig, HALLUCINATED, response_score
from groundcheck.backends import MockEmbedder, builtin_backends
from groundcheck.bench import compute_prf, f1_score
from groundcheck.chunking import ChunkerConfig, chunk_context, chunk_text
from groundcheck.cli import main as cli_main
from groundcheck.pipeline import DetectionRequest, PipelineConfig, detect
from groundcheck.retrieval import PackingBudget, rank_chunks, select_k
from groundcheck.tokens import TokenCounter, budgeted_count, span_counter, truncate_to_budget

COUNTER = TokenCounter(safety_margin=1.0)


@contextmanager
def criterion(capsys, number: int, description: str, budget_seconds: float):
    def announce(line):
        # print outside pytest's capture so the line shows even without -s
        with capsys.disabled():
            print(line, flush=True)

    started = time.perf_counter()
    try:
        yield
    except Exception:
        announce(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    announce(f"[acceptance] criterion {number}: PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 1. Metric arithmetic matches the published task rows
# ---------------------------------------------------------------------------


def test_criterion_1_metric_arithmetic(capsys):
    with criterion(capsys, 1, "precision/recall/F1 arithmetic matches published rows", 5.0):
        assert f1_score(0.794, 0.871) == pytest.approx(0.8305, abs=5e-4)
        assert f1_score(0.884, 0.919) == pytest.approx(0.901, abs=5e-4)
        assert f1_score(0.8535, 0.871) == pytest.approx(0.862, abs=5e-4)
        # the count-based path uses the same arithmetic
        precision, recall, f1 = compute_prf(3, 1, 2)
        assert (precision, recall) == (0.75, 0.6)
        assert f1 == pytest.approx(0.6667, abs=1e-4)


# ---------------------------------------------------------------------------
# 2. Chunker property suite over a randomized mixed corpus
# ---------------------------------------------------------------------------


def test_criterion_2_chunker_properties(capsys):
    with criterion(capsys, 2, "chunker budget/coverage/disjointness/determinism on 200 docs", 10.0):
        rng = random.Random(20260808)
        claim_config = ChunkerConfig(s_max=60, o_max=0)
        overlap_config = ChunkerConfig(s_max=120, o_max=12)
        for doc_index in range(200):
            target = rng.randint(10, 5000)
            text = gen.document(rng, target)
            config = claim_config if doc_index % 2 == 0 else overlap_config
            chunks = chunk_text(config, COUNTER, text)
            again = chunk_text(config, COUNTER, text)
            assert chunks == again, "chunking must be deterministic"

            covered = bytearray(len(text))
            previous_end = 0
            for c in chunks:
                assert c.token_count <= config.s_max, "chunk over token budget"
                assert c.text == text[c.start : c.end]
                if config.o_max == 0:
                    assert c.start >= previous_end, "claim chunks must be disjoint"
                previous_end = c.end
                covered[c.start : c.end] = b"\x01" * (c.end - c.start)
            for pos, ch in enumerate(text):
                if not ch.isspace():
                    assert covered[pos], f"doc {doc_index}: uncovered char at {pos}"


# ---------------------------------------------------------------------------
# 3. Packing safety: constructed NLI inputs never exceed the 512 window
# ---------------------------------------------------------------------------


def test_criterion_3_packing_safety(capsys):
    with criterion(capsys, 3, "1,000 random claim/context pairs never overflow 512 tokens", 10.0):
        rng = random.Random(31337)
        budget = PackingBudget()
        embedder = MockEmbedder()
        violations = 0
        truncations = 0
        for _ in range(1000):
            claim_words = rng.randint(5, 600)
            claim = " ".join(gen.word(rng) for _ in range(claim_words)) + "."
            context = gen.document(rng, rng.randint(20, 800))

            claim_tokens = budgeted_count(COUNTER, claim)
            max_claim = budget.window - budget.fixed_reserve - budget.per_chunk_reserve - 32
            if claim_tokens > max_claim:
                claim = truncate_to_budget(COUNTER, claim, max_claim)
                claim_tokens = budgeted_count(COUNTER, claim)

            chunks = chunk_context(span_counter(COUNTER, context), context, claim_tokens, budget)
            if not chunks:
                continue
            vecs = embedder.embed([c.text for c in chunks])
            (claim_vec,) = embedder.embed([claim])
            (ranked,) = rank_chunks([claim_vec], vecs)
            ranked_budgets = [budgeted_count(COUNTER, chunks[i].text) for i, _ in ranked]
            selection = select_k(budget, claim_tokens, ranked_budgets)

            total = claim_tokens + budget.fixed_reserve
            for pos in range(selection.k):
                chunk_idx = ranked[pos][0]
                if pos == 0 and selection.top_chunk_budget is not None:
                    truncations += 1
                    truncated = truncate_to_budget(
                        COUNTER, chunks[chunk_idx].text, selection.top_chunk_budget
                    )
                    total += budgeted_count(COUNTER, truncated)
                else:
                    total += budgeted_count(COUNTER, chunks[chunk_idx].text)
                total += budget.per_chunk_reserve
            if total > budget.window:
                violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# 4. Ranking agrees exactly with an independent brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_order(claim_vec, chunk_vecs):
    def cos(u, v):
        dot = math.fsum(a * b for a, b in zip(u, v))
        nu = math.sqrt(math.fsum(a * a for a in u))
        nv = math.sqrt(math.fsum(b * b for b in v))
        return 0.0 if nu == 0.0 or nv == 0.0 else dot / (nu * nv)

    sims = [cos(claim_vec, v) for v in chunk_vecs]
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))


def test_criterion_4_retrieval_oracle_equivalence(capsys):
    with criterion(capsys, 4, "rank_chunks matches brute-force sort on 100 instances", 10.0):
        rng = random.Random(8675309)
        for _ in range(100):
            n = rng.randint(1, 500)
            chunks = [[rng.gauss(0.0, 1.0) for _ in range(64)] for _ in range(n)]
            if n >= 10:
                # duplicated vectors force exact ties, exercising the
                # ascending-index tie-break
                for j in (3, 7, 9):
                    chunks[j] = list(chunks[1])
            claim = [rng.gauss(0.0, 1.0) for _ in range(64)]
            (ranked,) = rank_chunks([np.array(claim)], [np.array(c) for c in chunks])
            produced = [idx for idx, _ in ranked]
            assert produced == _oracle_order(claim, chunks)


# ---------------------------------------------------------------------------
# 5. Aggregation properties over random score vectors
# ---------------------------------------------------------------------------


def test_criterion_5_aggregation_properties(capsys):
    with criterion(capsys, 5, "aggregation bounds/mean/penalty/monotonicity, 10k vectors", 5.0):
        rng = np.random.default_rng(55555)
        betas = (0.0, 1.0, 10.0, 50.0)
        configs = {b: AggregationConfig(beta=b) if b > 0 else AggregationConfig(beta=0.0) for b in betas}
        for _ in range(10000):
            g = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 10)))
            scores = [response_score(g, configs[b]) for b in betas]
            lo, hi, mean = float(g.min()), float(g.max()), float(g.mean())

            # bounds: min <= A <= max for every beta
            for s in scores:
                assert lo - 1e-12 <= s <= hi + 1e-12

            # beta = 0 is exactly the arithmetic mean
            assert abs(scores[0] - mean) <= 1e-12

            # strict below-mean penalty for beta > 0 on non-constant vectors
            if hi - lo > 1e-9:
                for s in scores[1:]:
                    assert s < mean

            # monotonicity across the beta grid: larger beta never raises the
            # score (the beta-derivative is minus the weighted variance).
            # Coordinate-wise monotonicity holds for beta <= 1 and is checked
            # below; for beta > 1 the weighted softmin mean is provably not
            # coordinate-monotone, so the beta reading is the testable one.
            for a, b in zip(scores, scores[1:]):
                assert b <= a + 1e-12

        # coordinate-wise monotonicity in the small-beta regime
        for _ in range(2000):
            g = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 10)))
            j = int(rng.integers(0, len(g)))
            bumped = g.copy()
            bumped[j] = min(1.0, bumped[j] + float(rng.uniform(0.0, 1.0)) * (1.0 - bumped[j]))
            for beta in (0.0, 1.0):
                assert (
                    response_score(bumped, configs[beta])
                    >= response_score(g, configs[beta]) - 1e-12
                )


# ---------------------------------------------------------------------------
# 6. End-to-end detection quality on the synthetic corpus
# ---------------------------------------------------------------------------


def test_criterion_6_end_to_end_synthetic_detection(capsys):
    with criterion(capsys, 6, "synthetic 50-sample corpus: F1 >= 0.95, planted claims flagged", 30.0):
        samples = synth.build_corpus(n=50)
        backends = builtin_backends()
        config = PipelineConfig()  # theta 0.5, beta 10 defaults
        tp = fp = fn = 0
        for sample in samples:
            verdict = detect(
                DetectionRequest(context_documents=sample.context, output_text=sample.response),
                config,
                backends,
            )
            predicted = verdict.label == HALLUCINATED
            if predicted and sample.hallucinated:
                tp += 1
            elif predicted and not sample.hallucinated:
                fp += 1
            elif not predicted and sample.hallucinated:
                fn += 1

            if sample.hallucinated:
                planted_at = sample.response.find(sample.planted)
                assert planted_at >= 0
                owners = [
                    c
                    for c in verdict.claim_verdicts
                    if c.start <= planted_at < c.end
                ]
                assert len(owners) == 1, "planted sentence must land in exactly one claim"
                assert owners[0].label == HALLUCINATED, (
                    f"{sample.id}: planted claim not flagged "
                    f"(score {owners[0].grounding_score})"
                )
        _, _, f1 = compute_prf(tp, fp, fn)
        assert f1 >= 0.95, f"response-level F1 {f1:.4f} below 0.95 (tp={tp} fp={fp} fn={fn})"


# ---------------------------------------------------------------------------
# 7. Determinism: concurrent and serial bench runs render identical reports
# ---------------------------------------------------------------------------


def test_criterion_7_parallel_serial_report_equivalence(tmp_path, capsys):
    with criterion(capsys, 7, "bench --jobs 1 vs --jobs 8 produce byte-identical report.json", 60.0):
        data = synth.write_jsonl(synth.build_corpus(n=50), tmp_path / "corpus.jsonl")
        runner = CliRunner()
        dir1, dir8 = tmp_path / "jobs1", tmp_path / "jobs8"
        first = runner.invoke(
            cli_main, ["bench", "--data", str(data), "--jobs", "1", "--report-dir", str(dir1)]
        )
        assert first.exit_code == 0, first.output
        second = runner.invoke(
            cli_main, ["bench", "--data", str(data), "--jobs", "8", "--report-dir", str(dir8)]
        )
        assert second.exit_code == 0, second.output
        bytes1 = (dir1 / "report.json").read_bytes()
        bytes8 = (dir8 / "report.json").read_bytes()
        assert bytes1 == bytes8
        # and the report round-trips as JSON
        assert json.loads(bytes1)["metrics"]["overall"]["tp"] >= 0


# ---------------------------------------------------------------------------
# 8. Golden defaults: 60-token claims, 512-token scoring window
# ---------------------------------------------------------------------------


def test_criterion_8_default_config_golden(capsys):
    with criterion(capsys, 8, "default config: claim s_max=60, scoring window=512", 5.0):
        config = PipelineConfig()
        assert config.claim_chunker.s_max == 60
        assert config.claim_chunker.o_max == 0
        assert config.budget.window == 512
        golden = {
            "claim_s_max": 60,
            "claim_o_max": 0,
            "window": 512,
            "fixed_reserve": 8,
            "per_chunk_reserve": 2,
            "k_target": 4,
            "k_max": 8,
            "context_overlap": 12,
            "claim_threshold": 0.5,
            "beta": 10.0,
            "theta": 0.5,
            "mode": "pairwise",
            "counter_kind": "builtin",
            "safety_margin": 1.3,
        }
        assert config.describe() == golden

import json
import re

import pytest

from groundcheck.backends import BackendSet, builtin_backends
from groundcheck.bench import (
    EvalSample,
    compute_prf,
    evaluate,
    f1_score,
    load_samples,
    render_report_json,
    render_report_text,
    write_reports,
)
from groundcheck.errors import BackendError, DatasetError
from groundcheck.pipeline import PipelineConfig

import synth


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sample_line(i, **overrides):
    record = {
        "id": f"s{i}",
        "task_type": "qa",
        "context": ["The museum opened in 1902 and holds forty marble statues."],
        "response": "The museum opened in 1902.",
        "label_hallucinated": False,
    }
    record.update(overrides)
    return json.dumps(record)


# ---------------------------------------------------------------------------
# load_samples
# ---------------------------------------------------------------------------


def test_empty_file_loads_no_samples(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_samples(path) == []


def test_one_valid_line(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [sample_line(0)])
    (sample,) = load_samples(path)
    assert sample.id == "s0"
    assert sample.task_type == "qa"
    assert sample.context == ("The museum opened in 1902 and holds forty marble statues.",)


def test_context_accepts_plain_string(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [sample_line(0, context="just one document")])
    (sample,) = load_samples(path)
    assert sample.context == ("just one document",)


def test_unknown_fields_ignored_and_task_defaults(tmp_path):
    line = sample_line(0, extra_field=123)
    record = json.loads(line)
    del record["task_type"]
    path = write_lines(tmp_path / "d.jsonl", [json.dumps(record)])
    (sample,) = load_samples(path)
    assert sample.task_type == "other"


def test_missing_response_names_line(tmp_path):
    record = json.loads(sample_line(0))
    del record["response"]
    path = write_lines(tmp_path / "d.jsonl", [sample_line(1), json.dumps(record)])
    with pytest.raises(DatasetError, match="line 2"):
        load_samples(path)


def test_malformed_json_names_line(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [sample_line(0), "{not json"])
    with pytest.raises(DatasetError, match="line 2"):
        load_samples(path)


@pytest.mark.parametrize("label", ["false", "true", None, 1, 0, []])
def test_label_must_be_a_json_boolean(tmp_path, label):
    path = write_lines(tmp_path / "d.jsonl", [sample_line(0), sample_line(1, label_hallucinated=label)])
    message = f"{path} line 2: label_hallucinated must be true or false"
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_samples(path)


def test_duplicate_id_rejected(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [sample_line(7), sample_line(7)])
    with pytest.raises(DatasetError, match="duplicate id"):
        load_samples(path)


# ---------------------------------------------------------------------------
# compute_prf
# ---------------------------------------------------------------------------


def test_prf_zero_convention():
    assert compute_prf(0, 0, 0) == (0.0, 0.0, 0.0)


def test_prf_perfect_detector():
    assert compute_prf(10, 0, 0) == (1.0, 1.0, 1.0)


def test_prf_mixed_counts():
    precision, recall, f1 = compute_prf(3, 1, 2)
    assert precision == 0.75
    assert recall == pytest.approx(0.6)
    assert f1 == pytest.approx(0.6667, abs=1e-4)


def test_f1_zero_when_both_zero():
    assert f1_score(0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def corpus_samples(n=12):
    return [
        EvalSample(
            id=s.id,
            task_type=s.task_type,
            context=s.context,
            response=s.response,
            label_hallucinated=s.hallucinated,
        )
        for s in synth.build_corpus(n=n, seed=4242)
    ]


def test_evaluate_counts_sum_and_log_sorted():
    samples = corpus_samples(12)
    metrics, rows = evaluate(samples)
    assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
    per_task_total = sum(c.total for c in metrics.per_task.values())
    assert per_task_total == len(samples)
    assert metrics.overall.total == len(samples)
    # per-task counts add up to the overall confusion counts
    for field in ("tp", "fp", "fn", "tn"):
        assert getattr(metrics.overall, field) == sum(
            getattr(c, field) for c in metrics.per_task.values()
        )


def test_evaluate_perfect_on_clean_synthetic_set():
    metrics, _ = evaluate(corpus_samples(12))
    precision, recall, f1 = metrics.overall.prf()
    assert (precision, recall, f1) == (1.0, 1.0, 1.0)


def test_evaluate_requires_samples():
    with pytest.raises(DatasetError):
        evaluate([])


def test_evaluate_records_failures_without_dropping():
    class FlakyNLI:
        def score(self, pairs):
            if any("FAILME" in h for _, h in pairs):
                raise BackendError("injected failure")
            return builtin_backends().nli.score(pairs)

    backends = BackendSet(
        embedder=builtin_backends().embedder,
        nli=FlakyNLI(),
        claim_classifier=builtin_backends().claim_classifier,
    )
    samples = corpus_samples(6)
    broken = EvalSample(
        id="zz-broken",
        task_type="qa",
        context=("some context words here",),
        response="FAILME this response cannot be scored at all.",
        label_hallucinated=True,
    )
    metrics, rows = evaluate(samples + [broken], backends=backends)
    assert metrics.failures == 1
    assert metrics.overall.total == 7
    failed = [r for r in rows if r["error"] is not None]
    assert len(failed) == 1 and failed[0]["id"] == "zz-broken"
    # the failure never entered the confusion counts
    assert metrics.overall.tp + metrics.overall.fp + metrics.overall.fn + metrics.overall.tn == 6


def test_parallel_serial_equivalence():
    samples = corpus_samples(10)
    config = PipelineConfig()
    m1, r1 = evaluate(samples, config, jobs=1)
    m8, r8 = evaluate(samples, config, jobs=8)
    assert render_report_json(m1, r1, config) == render_report_json(m8, r8, config)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_reports_written_and_parse(tmp_path):
    samples = corpus_samples(6)
    config = PipelineConfig()
    metrics, rows = evaluate(samples, config)
    json_path, text_path = write_reports(metrics, rows, config, tmp_path / "reports")
    body = json.loads(json_path.read_text(encoding="utf-8"))
    assert body["metrics"]["overall"]["tp"] == metrics.overall.tp
    assert body["config"]["window"] == 512
    assert len(body["samples"]) == 6
    table = text_path.read_text(encoding="utf-8")
    assert "OVERALL F1" in table
    assert "groundcheck" in table


def test_report_text_includes_per_task_columns():
    metrics, _ = evaluate(corpus_samples(9))
    table = render_report_text(metrics)
    for name in ("QA", "DATA-TO-TEXT", "SUMMARIZATION", "OVERALL"):
        assert name in table

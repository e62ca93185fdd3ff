"""Benchmark harness for response-level hallucination corpora, and the one
request path that ``bench`` and ``batch`` share.

Input is JSON Lines, one sample per line:

    {"id": "qa-017", "task_type": "qa", "context": ["doc one", "doc two"],
     "response": "...", "label_hallucinated": true}

``context`` accepts a string or a list of strings; ``task_type`` is one of
qa, data-to-text, summarization, other (defaulting to other); unknown fields
are ignored. Hallucinated is the positive class throughout. Samples whose
pipeline run fails are counted separately and never folded into the
confusion counts, so failures cannot inflate precision.

``batch`` files hold ``{"id", "context", "output"}`` records, read by
:func:`load_batch`. Both loaders share one line reader, and both runs go
through :func:`detect_all`.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .aggregation import HALLUCINATED, ResponseVerdict
from .backends import BackendSet, builtin_backends
from .errors import DatasetError, GroundcheckError
from .pipeline import DetectionRequest, PipelineConfig, detect

TASK_TYPES = ("qa", "data-to-text", "summarization", "other")


@dataclass(frozen=True)
class EvalSample:
    id: str
    task_type: str
    context: tuple[str, ...]
    response: str
    label_hallucinated: bool


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    failures: int = 0

    def add(self, predicted: bool, actual: bool) -> None:
        if predicted and actual:
            self.tp += 1
        elif predicted and not actual:
            self.fp += 1
        elif not predicted and actual:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn + self.failures

    def prf(self) -> tuple[float, float, float]:
        return compute_prf(self.tp, self.fp, self.fn)

    def to_dict(self) -> dict:
        precision, recall, f1 = self.prf()
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "failures": self.failures,
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }


@dataclass
class EvalMetrics:
    overall: ConfusionCounts = field(default_factory=ConfusionCounts)
    per_task: dict[str, ConfusionCounts] = field(default_factory=dict)
    failures: int = 0

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "per_task": {t: c.to_dict() for t, c in sorted(self.per_task.items())},
            "failures": self.failures,
        }


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with the zero-denominator convention of 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise DatasetError("confusion counts must be nonnegative")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall, f1_score(precision, recall)


def _read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, JSON object)`` for every non-blank line of ``path``.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, so a raw U+2028 inside a JSON
    string stays part of its record. Every failure is a :class:`DatasetError`
    that names the file, and the line where there is one.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path} line {line_no}: not UTF-8: {exc}") from exc
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path} line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{path} line {line_no}: expected a JSON object")
        yield line_no, record


def _require(record: dict, keys: Sequence[str], where: str) -> None:
    for key in keys:
        if key not in record:
            raise DatasetError(f"{where}: missing required field {key!r}")


def _parse_context(context: object, where: str) -> tuple[str, ...]:
    if isinstance(context, str):
        return (context,)
    if isinstance(context, list) and all(isinstance(d, str) for d in context):
        return tuple(context)
    raise DatasetError(f"{where}: context must be a string or list of strings")


def load_samples(path: str | Path) -> list[EvalSample]:
    """Parse a labeled JSONL dataset; errors always name the offending line."""
    samples = []
    seen_ids = set()
    for line_no, record in _read_records(path):
        where = f"{path} line {line_no}"
        _require(record, ("id", "context", "response", "label_hallucinated"), where)
        context = _parse_context(record["context"], where)
        if not context or all(not d.strip() for d in context):
            raise DatasetError(f"{where}: context is empty")
        response = record["response"]
        if not isinstance(response, str) or not response.strip():
            raise DatasetError(f"{where}: response must be a nonempty string")
        label = record["label_hallucinated"]
        if not isinstance(label, bool):
            raise DatasetError(f"{where}: label_hallucinated must be true or false")
        task_type = record.get("task_type", "other")
        if task_type not in TASK_TYPES:
            task_type = "other"
        sample = EvalSample(
            id=str(record["id"]),
            task_type=task_type,
            context=context,
            response=response,
            label_hallucinated=label,
        )
        if sample.id in seen_ids:
            raise DatasetError(f"{where}: duplicate id {sample.id!r}")
        seen_ids.add(sample.id)
        samples.append(sample)
    return samples


def load_batch(path: str | Path) -> tuple[list, list[tuple[tuple[str, ...], str]]]:
    """Parse a ``batch`` JSONL file of ``{"id", "context", "output"}`` records.

    Returns the ids, echoed as written and free to repeat, and the
    ``(documents, output)`` requests for :func:`detect_all`. A context that
    cannot be scored (``[]``, or only whitespace) is left to ``detect``, which
    fails the request or scores its claims 0.0.
    """
    ids, requests = [], []
    for line_no, record in _read_records(path):
        where = f"{path} line {line_no}"
        _require(record, ("id", "context", "output"), where)
        output = record["output"]
        if not isinstance(output, str):
            raise DatasetError(f"{where}: output must be a string")
        ids.append(record["id"])
        requests.append((_parse_context(record["context"], where), output))
    return ids, requests


def detect_all(
    requests: Sequence[tuple[tuple[str, ...], str]],
    config: PipelineConfig,
    backends: BackendSet,
    jobs: int = 1,
) -> list[ResponseVerdict | GroundcheckError]:
    """Run :func:`detect` on each ``(documents, output)`` pair, in input order.

    A request that fails yields the :class:`GroundcheckError` it raised in
    place of its verdict. ``jobs > 1`` runs requests on that many threads
    only when some backend is a remote client: threads overlap the waits on
    the network, while in-process backends hold the interpreter lock and run
    slower on threads than on the calling thread.
    """

    def run_one(request: tuple[tuple[str, ...], str]) -> ResponseVerdict | GroundcheckError:
        documents, output = request
        try:
            return detect(DetectionRequest(context_documents=documents, output_text=output), config, backends)
        except GroundcheckError as exc:
            return exc

    if jobs <= 1 or not backends.has_remote:
        return [run_one(r) for r in requests]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_one, requests))


def _eval_row(sample: EvalSample, result: ResponseVerdict | GroundcheckError) -> dict:
    row = {"id": sample.id, "task_type": sample.task_type, "label_hallucinated": sample.label_hallucinated}
    if isinstance(result, GroundcheckError):
        return {**row, "error": str(result)}
    return {
        **row,
        "predicted_hallucinated": result.label == HALLUCINATED,
        "response_score": result.response_score,
        "verdict_label": result.label,
        "warnings": list(result.warnings),
        "error": None,
    }


def evaluate(
    samples: Sequence[EvalSample],
    config: Optional[PipelineConfig] = None,
    backends: Optional[BackendSet] = None,
    jobs: int = 1,
) -> tuple[EvalMetrics, list[dict]]:
    """Run the pipeline over every sample; return metrics and a verdict log.

    The verdict log is ordered by sample id regardless of ``jobs``, so the
    rendered reports are byte-identical across concurrency levels.
    """
    if not samples:
        raise DatasetError("evaluate requires at least one sample")
    config = config if config is not None else PipelineConfig()
    backends = backends if backends is not None else builtin_backends()

    results = detect_all([(s.context, s.response) for s in samples], config, backends, jobs)
    rows = sorted((_eval_row(s, r) for s, r in zip(samples, results)), key=lambda r: r["id"])
    metrics = EvalMetrics()
    for row in rows:
        task = row["task_type"]
        counts = metrics.per_task.setdefault(task, ConfusionCounts())
        if row["error"] is not None:
            metrics.failures += 1
            counts.failures += 1
            metrics.overall.failures += 1
            continue
        counts.add(row["predicted_hallucinated"], row["label_hallucinated"])
        metrics.overall.add(row["predicted_hallucinated"], row["label_hallucinated"])
    return metrics, rows


def render_report_json(
    metrics: EvalMetrics, rows: list[dict], config: PipelineConfig, name: str = "groundcheck"
) -> str:
    report = {
        "name": name,
        "config": config.describe(),
        "metrics": metrics.to_dict(),
        "samples": rows,
    }
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def render_report_text(metrics: EvalMetrics, name: str = "groundcheck") -> str:
    """Aligned table: one row per method, P/R/F1 per task plus overall."""
    tasks = [t for t in TASK_TYPES if t in metrics.per_task]
    header_groups = [t.upper() for t in tasks] + ["OVERALL"]
    columns = []
    for group in header_groups:
        columns.extend([f"{group} P", f"{group} R", f"{group} F1"])
    values = []
    for t in tasks:
        values.extend(metrics.per_task[t].prf())
    values.extend(metrics.overall.prf())

    name_width = max(len(name), len("method"))
    widths = [max(len(c), 7) for c in columns]
    lines = [
        "method".ljust(name_width) + "  " + "  ".join(c.rjust(w) for c, w in zip(columns, widths)),
        name.ljust(name_width)
        + "  "
        + "  ".join(f"{v:.4f}".rjust(w) for v, w in zip(values, widths)),
    ]
    if metrics.failures:
        lines.append(f"failures: {metrics.failures} sample(s) excluded from counts")
    return "\n".join(lines) + "\n"


def write_reports(
    metrics: EvalMetrics,
    rows: list[dict],
    config: PipelineConfig,
    report_dir: str | Path,
    name: str = "groundcheck",
) -> tuple[Path, Path]:
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    json_path = report_dir / "report.json"
    text_path = report_dir / "report.txt"
    json_path.write_text(render_report_json(metrics, rows, config, name), encoding="utf-8")
    text_path.write_text(render_report_text(metrics, name), encoding="utf-8")
    return json_path, text_path

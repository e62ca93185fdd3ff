"""Command-line surface: detect, batch, bench, chunk.

Exit codes: 0 success, 2 usage error, 3 backend or IO failure. A detection
outcome is data, not a failure — the process exits 0 whether the response is
grounded or hallucinated — unless --fail-on-hallucination is set, which maps
a hallucinated verdict to exit 1 for CI gate use.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import bench as bench_mod
from .aggregation import AggregationConfig, HALLUCINATED, ResponseVerdict
from .backends import BackendSet, builtin_backends, remote_backends
from .chunking import ChunkerConfig, chunk_text, paragraph_chunks
from .errors import ConfigError, DatasetError, GroundcheckError
from .pipeline import DetectionRequest, PipelineConfig, detect
from .tokens import TokenCounter

EXIT_OK = 0
EXIT_HALLUCINATED = 1
EXIT_USAGE = 2
EXIT_FAILURE = 3


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_FAILURE)


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _make_backends(backend: str, endpoint: str | None) -> BackendSet:
    if backend == "remote":
        if not endpoint:
            raise click.UsageError("--backend remote requires --endpoint (or GROUNDCHECK_ENDPOINT)")
        return remote_backends(endpoint)
    return builtin_backends()


def _make_config(theta: float, beta: float, mode: str) -> PipelineConfig:
    """The pipeline config of the flags; an invalid value is a usage error."""
    try:
        return PipelineConfig(aggregation=AggregationConfig(beta=beta, theta=theta), mode=mode)
    except ConfigError as exc:
        raise click.UsageError(str(exc))


def _render_text(verdict: ResponseVerdict) -> str:
    lines = [f"label: {verdict.label}", f"score: {verdict.response_score:.4f}", "claims:"]
    for c in verdict.claim_verdicts:
        score = f"{c.grounding_score:.4f}" if c.grounding_score is not None else "     -"
        lines.append(f'  [{c.claim_index}] {c.label:<22} {score}  "{c.text}"')
    for w in verdict.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


backend_options = [
    click.option(
        "--backend",
        type=click.Choice(["mock", "remote"]),
        default="mock",
        show_default=True,
        help="Model backends: builtin deterministic mocks or a remote HTTP service.",
    ),
    click.option(
        "--endpoint",
        envvar="GROUNDCHECK_ENDPOINT",
        default=None,
        help="Base URL of the remote backend service.",
    ),
    click.option("--theta", envvar="GROUNDCHECK_THETA", type=float, default=0.5, show_default=True),
    click.option("--beta", envvar="GROUNDCHECK_BETA", type=float, default=10.0, show_default=True),
    click.option(
        "--mode",
        type=click.Choice(["pairwise", "packed"]),
        default="pairwise",
        show_default=True,
        help="Score each evidence chunk separately or all chunks as one premise.",
    ),
]


jobs_option = click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help="Requests in flight at once with --backend remote. The builtin backends "
    "run every request on one thread, whatever this is.",
)


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@click.group()
def main():
    """Hallucination detection against source documents."""


@main.command("detect")
@click.option("--context", "context_files", multiple=True, type=str, help="Context file (repeatable).")
@click.option("--output", "output_file", type=str, default=None, help="File holding the model output.")
@click.option("--output-text", type=str, default=None, help="Model output passed inline.")
@_add_options(backend_options)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True)
@click.option(
    "--fail-on-hallucination",
    is_flag=True,
    help="Exit 1 when the response is labeled hallucinated (CI gate mode).",
)
def detect_cmd(context_files, output_file, output_text, backend, endpoint, theta, beta, mode, fmt, fail_on_hallucination):
    """Check one model output against its context documents."""
    if not context_files:
        raise click.UsageError("at least one --context file is required")
    if (output_file is None) == (output_text is None):
        raise click.UsageError("exactly one of --output or --output-text is required")
    documents = tuple(_read_file(p) for p in context_files)
    output = _read_file(output_file) if output_file is not None else output_text
    config = _make_config(theta, beta, mode)

    try:
        verdict = detect(
            DetectionRequest(context_documents=documents, output_text=output),
            config,
            _make_backends(backend, endpoint),
        )
    except GroundcheckError as exc:
        _fail(str(exc))

    if fmt == "json":
        click.echo(json.dumps(verdict.to_dict()))
    else:
        click.echo(_render_text(verdict))
    if fail_on_hallucination and verdict.label == HALLUCINATED:
        sys.exit(EXIT_HALLUCINATED)


@main.command("batch")
@click.option("--data", "data_file", required=True, type=str, help="JSONL of {id, context, output} records.")
@click.option("--out", "out_file", type=str, default=None, help="Write verdict JSONL here instead of stdout.")
@_add_options(backend_options)
@jobs_option
def batch_cmd(data_file, out_file, backend, endpoint, theta, beta, mode, jobs):
    """Run detection over a JSONL file of requests; one verdict per line."""
    try:
        ids, requests = bench_mod.load_batch(data_file)
    except DatasetError as exc:
        _fail(str(exc))
    if not requests:
        raise click.UsageError(f"{data_file} contains no records")

    results = bench_mod.detect_all(
        requests, _make_config(theta, beta, mode), _make_backends(backend, endpoint), jobs
    )
    lines = []
    for record_id, result in zip(ids, results):
        if isinstance(result, GroundcheckError):
            row = {"id": record_id, "error": str(result)}
        else:
            row = {"id": record_id, "error": None, **result.to_dict()}
        lines.append(json.dumps(row))
    if out_file:
        try:
            Path(out_file).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        except OSError as exc:
            _fail(f"cannot write {out_file}: {exc}")
    else:
        for line in lines:
            click.echo(line)


@main.command("bench")
@click.option("--data", "data_file", required=True, type=str, help="JSONL benchmark dataset.")
@_add_options(backend_options)
@jobs_option
@click.option("--report-dir", type=str, default="reports", show_default=True)
@click.option("--name", type=str, default="groundcheck", show_default=True, help="Row label in report.txt.")
def bench_cmd(data_file, backend, endpoint, theta, beta, mode, jobs, report_dir, name):
    """Evaluate the detector on a labeled corpus; write report.json/report.txt."""
    try:
        samples = bench_mod.load_samples(data_file)
    except DatasetError as exc:
        _fail(str(exc))
    if not samples:
        raise click.UsageError(f"{data_file} contains no samples")

    config = _make_config(theta, beta, mode)
    try:
        metrics, rows = bench_mod.evaluate(samples, config, _make_backends(backend, endpoint), jobs=jobs)
    except GroundcheckError as exc:
        _fail(str(exc))

    json_path, text_path = bench_mod.write_reports(metrics, rows, config, report_dir, name)
    precision, recall, f1 = metrics.overall.prf()
    click.echo(f"overall  P={precision:.4f}  R={recall:.4f}  F1={f1:.4f}")
    if metrics.failures:
        click.echo(f"failures: {metrics.failures}", err=True)
    click.echo(f"reports: {json_path} {text_path}")


@main.command("chunk")
@click.option("--input", "input_file", required=True, type=str)
@click.option("--s-max", type=int, default=60, show_default=True, help="Max tokens per chunk; 0 disables the cap.")
@click.option("--o-max", type=int, default=0, show_default=True, help="Max token overlap between chunks.")
def chunk_cmd(input_file, s_max, o_max):
    """Debug the chunker: emit chunks as JSON lines."""
    text = _read_file(input_file)
    counter = TokenCounter()
    try:
        if s_max == 0:
            chunks = paragraph_chunks(counter, text)
        else:
            chunks = chunk_text(ChunkerConfig(s_max=s_max, o_max=o_max), counter, text)
    except GroundcheckError as exc:
        raise click.UsageError(str(exc))
    for c in chunks:
        click.echo(
            json.dumps(
                {"index": c.index, "start": c.start, "end": c.end, "tokens": c.token_count, "text": c.text}
            )
        )


if __name__ == "__main__":
    main()

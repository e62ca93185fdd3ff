import json

import pytest
from click.testing import CliRunner

from groundcheck.cli import main

import synth

CONTEXT = (
    "The aqueduct carried spring water twelve miles into the old city. "
    "Its arches were repaired with travertine blocks after the 1349 earthquake."
)
BATCH_OK = {"id": "a", "context": CONTEXT, "output": "The aqueduct carried spring water."}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def context_file(tmp_path):
    path = tmp_path / "context.txt"
    path.write_text(CONTEXT, encoding="utf-8")
    return str(path)


def test_detect_grounded_json(runner, context_file, tmp_path):
    output = tmp_path / "output.txt"
    output.write_text("The aqueduct carried spring water twelve miles into the old city.", encoding="utf-8")
    result = runner.invoke(main, ["detect", "--context", context_file, "--output", str(output)])
    assert result.exit_code == 0, result.output
    verdict = json.loads(result.output)
    assert verdict["label"] == "grounded"
    assert verdict["claims"][0]["grounding_score"] == 1.0


def test_detect_output_text_and_text_format(runner, context_file):
    result = runner.invoke(
        main,
        [
            "detect",
            "--context", context_file,
            "--output-text", "The aqueduct carried spring water twelve miles into the old city.",
            "--format", "text",
        ],
    )
    assert result.exit_code == 0
    assert "label: grounded" in result.output
    assert "[0] grounded" in result.output


def test_detect_high_theta_flips_to_hallucinated(runner, context_file):
    result = runner.invoke(
        main,
        [
            "detect",
            "--context", context_file,
            "--output-text", "The aqueduct was painted bright orange by robots last week.",
            "--theta", "0.99",
        ],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["label"] == "hallucinated"


def test_detect_fail_on_hallucination_exit_code(runner, context_file):
    args = [
        "detect",
        "--context", context_file,
        "--output-text", "Jade submarines deliver pomegranate telegrams through volcanic chimneys quarterly.",
    ]
    assert runner.invoke(main, args).exit_code == 0
    assert runner.invoke(main, args + ["--fail-on-hallucination"]).exit_code == 1


def test_detect_missing_context_file_exits_3(runner):
    result = runner.invoke(main, ["detect", "--context", "/nonexistent/ctx.txt", "--output-text", "x"])
    assert result.exit_code == 3
    assert "/nonexistent/ctx.txt" in result.output


def test_detect_usage_errors_exit_2(runner, context_file):
    assert runner.invoke(main, ["detect", "--output-text", "x"]).exit_code == 2
    assert runner.invoke(main, ["detect", "--context", context_file]).exit_code == 2
    result = runner.invoke(
        main,
        ["detect", "--context", context_file, "--output-text", "x", "--backend", "remote"],
    )
    assert result.exit_code == 2  # remote requires an endpoint


@pytest.mark.parametrize("command", ["detect", "batch", "bench"])
@pytest.mark.parametrize(
    "args, env, message",
    [
        (["--theta", "2"], {}, "theta must be in (0,1)"),
        (["--beta", "-1"], {}, "beta must be >= 0"),
        ([], {"GROUNDCHECK_THETA": "0"}, "theta must be in (0,1)"),
        ([], {"GROUNDCHECK_BETA": "-1"}, "beta must be >= 0"),
    ],
    ids=["theta-flag", "beta-flag", "theta-env", "beta-env"],
)
def test_invalid_theta_or_beta_is_a_usage_error(runner, context_file, tmp_path, command, args, env, message):
    data = tmp_path / "data.jsonl"
    if command == "detect":
        base = ["detect", "--context", context_file, "--output-text", "The aqueduct carried water."]
    elif command == "batch":
        data.write_text(json.dumps(BATCH_OK) + "\n", encoding="utf-8")
        base = ["batch", "--data", str(data)]
    else:
        synth.write_jsonl(synth.build_corpus(n=2), data)
        base = ["bench", "--data", str(data), "--report-dir", str(tmp_path / "reports")]
    result = runner.invoke(main, base + args, env=env)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "reports").exists()


def test_env_vars_feed_defaults_and_flags_win(runner, context_file):
    # 7 of 9 content tokens grounded: score ~0.78, between the two thetas
    args = [
        "detect",
        "--context", context_file,
        "--output-text", "The aqueduct carried spring water twelve miles into the new town.",
    ]
    env = {"GROUNDCHECK_THETA": "0.999999"}
    hallucinated = runner.invoke(main, args, env=env)
    assert json.loads(hallucinated.output)["label"] == "hallucinated"
    flag_wins = runner.invoke(main, args + ["--theta", "0.5"], env=env)
    assert json.loads(flag_wins.output)["label"] == "grounded"


def test_chunk_single_sentence(runner, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("A single short sentence.", encoding="utf-8")
    result = runner.invoke(main, ["chunk", "--input", str(path), "--s-max", "60"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {"index": 0, "start": 0, "end": 24, "tokens": 5, "text": "A single short sentence."}


def test_chunk_matches_chunker_example(runner, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("Aaa bbb. Ccc ddd eee fff.", encoding="utf-8")
    result = runner.invoke(main, ["chunk", "--input", str(path), "--s-max", "5"])
    records = [json.loads(line) for line in result.output.strip().splitlines()]
    assert [r["text"] for r in records] == ["Aaa bbb.", "Ccc ddd eee fff."]
    assert [r["tokens"] for r in records] == [3, 5]


def test_chunk_no_maximum_mode(runner, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("Para one sentence.\n\nPara two is a bit longer here.", encoding="utf-8")
    result = runner.invoke(main, ["chunk", "--input", str(path), "--s-max", "0"])
    records = [json.loads(line) for line in result.output.strip().splitlines()]
    assert [r["text"] for r in records] == ["Para one sentence.", "Para two is a bit longer here."]


def test_chunk_unreadable_file_exits_3(runner):
    assert runner.invoke(main, ["chunk", "--input", "/no/such/file.txt"]).exit_code == 3


def test_bench_writes_reports_and_prints_overall(runner, tmp_path):
    data = synth.write_jsonl(synth.build_corpus(n=10, seed=77), tmp_path / "data.jsonl")
    report_dir = tmp_path / "reports"
    result = runner.invoke(
        main, ["bench", "--data", str(data), "--report-dir", str(report_dir)]
    )
    assert result.exit_code == 0, result.output
    assert "overall" in result.output and "F1=" in result.output
    body = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    assert len(body["samples"]) == 10
    assert (report_dir / "report.txt").exists()


def test_bench_jobs_reports_byte_identical(runner, tmp_path):
    data = synth.write_jsonl(synth.build_corpus(n=10, seed=78), tmp_path / "data.jsonl")
    dir1, dir8 = tmp_path / "r1", tmp_path / "r8"
    assert runner.invoke(main, ["bench", "--data", str(data), "--jobs", "1", "--report-dir", str(dir1)]).exit_code == 0
    assert runner.invoke(main, ["bench", "--data", str(data), "--jobs", "8", "--report-dir", str(dir8)]).exit_code == 0
    assert (dir1 / "report.json").read_bytes() == (dir8 / "report.json").read_bytes()


def test_bench_empty_dataset_exits_2(runner, tmp_path):
    data = tmp_path / "empty.jsonl"
    data.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["bench", "--data", str(data)])
    assert result.exit_code == 2


def test_bench_missing_file_exits_3(runner):
    assert runner.invoke(main, ["bench", "--data", "/no/file.jsonl"]).exit_code == 3


def test_batch_emits_one_verdict_per_line(runner, tmp_path):
    data = tmp_path / "batch.jsonl"
    records = [
        {"id": "a", "context": CONTEXT, "output": "The aqueduct carried spring water twelve miles into the old city."},
        {"id": "b", "context": [CONTEXT], "output": "Crystal owls navigate bureaucratic thunderstorms using laminated spoons."},
    ]
    data.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["batch", "--data", str(data)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert [r["id"] for r in lines] == ["a", "b"]
    assert lines[0]["label"] == "grounded"
    assert lines[1]["label"] == "hallucinated"


def test_batch_missing_field_exits_3(runner, tmp_path):
    data = tmp_path / "batch.jsonl"
    data.write_text(json.dumps({"id": "a", "output": "x"}) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["batch", "--data", str(data)])
    assert result.exit_code == 3
    assert "context" in result.output


@pytest.mark.parametrize(
    "command, body, line",
    [
        ("batch", json.dumps({**BATCH_OK, "context": 5}).encode(), 1),
        ("batch", (json.dumps(BATCH_OK) + "\n5\n").encode(), 2),
        ("batch", json.dumps({**BATCH_OK, "output": 5}).encode(), 1),
        ("batch", json.dumps(BATCH_OK).encode() + b"\n\xff\xfe\n", 2),
        ("bench", None, None),
        ("bench", b'{"id": "s0", "context": "caf\xe9"}\n', 1),
    ],
    ids=[
        "batch-int-context",
        "batch-scalar-line",
        "batch-int-output",
        "batch-not-utf8",
        "bench-directory",
        "bench-not-utf8",
    ],
)
def test_malformed_input_exits_3_naming_file_and_line(runner, tmp_path, command, body, line):
    data = tmp_path / "data.jsonl"
    if body is None:
        data.mkdir()
    else:
        data.write_bytes(body)
    result = runner.invoke(main, [command, "--data", str(data)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    first = result.output.splitlines()[0]
    assert first.startswith(f"error: {data} line {line}: " if line else f"error: cannot read {data}")


@pytest.mark.parametrize("command", [["detect", "--output-text", "x", "--context"], ["chunk", "--input"]])
def test_non_utf8_input_file_exits_3(runner, tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 ok\n")
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 3
    assert result.output.startswith(f"error: cannot read {path}: ")


def test_batch_unwritable_out_exits_3(runner, tmp_path):
    data = tmp_path / "batch.jsonl"
    data.write_text(json.dumps(BATCH_OK) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["batch", "--data", str(data), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert result.output.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("command", ["detect", "batch", "bench"])
def test_lone_surrogate_is_a_typed_error(runner, context_file, tmp_path, command):
    data = tmp_path / "data.jsonl"
    if command == "detect":
        # argv bytes that are not UTF-8 arrive as lone surrogates
        result = runner.invoke(main, ["detect", "--context", context_file, "--output-text", "The museum \udcff opened"])
        assert result.exit_code == 3, result.output
        assert result.output == "error: output_text is not valid Unicode: lone surrogate U+DCFF at character 11\n"
        return
    if command == "batch":
        data.write_text(json.dumps({**BATCH_OK, "context": ["ok", "The aqueduct \ud800"]}) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["batch", "--data", str(data)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {
            "id": "a",
            "error": "context_documents[1] is not valid Unicode: lone surrogate U+D800 at character 13",
        }
        return
    samples = synth.build_corpus(n=2)
    synth.write_jsonl(samples, data)
    records = [json.loads(line) for line in data.read_text(encoding="utf-8").splitlines()]
    records[1]["context"] = "Stone bridge \udc80"
    data.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    report_dir = tmp_path / "reports"
    result = runner.invoke(main, ["bench", "--data", str(data), "--report-dir", str(report_dir)])
    assert result.exit_code == 0, result.output
    report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    assert report["metrics"]["failures"] == 1
    (row,) = [r for r in report["samples"] if r["error"] is not None]
    assert row["error"] == "context_documents[0] is not valid Unicode: lone surrogate U+DC80 at character 13"


def test_batch_output_contract(runner, tmp_path):
    data = tmp_path / "batch.jsonl"
    records = [
        {"id": 7, "context": CONTEXT, "output": "The aqueduct carried spring water twelve miles into the old city."},
        {"id": 7, "context": [CONTEXT, "A second document."], "output": "Its arches were repaired."},
        {"id": "empty", "context": [], "output": "Anything at all."},
        {"id": "blank", "context": "   ", "output": "The aqueduct carried spring water."},
    ]
    data.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    serial = runner.invoke(main, ["batch", "--data", str(data), "--jobs", "1"])
    threaded = runner.invoke(main, ["batch", "--data", str(data), "--jobs", "4"])
    assert serial.exit_code == threaded.exit_code == 0, serial.output
    assert serial.stdout_bytes == threaded.stdout_bytes
    rows = [json.loads(line) for line in serial.stdout.splitlines()]
    assert [r["id"] for r in rows] == [7, 7, "empty", "blank"]
    assert [r["error"] is None for r in rows] == [True, True, False, True]
    assert rows[2] == {"id": "empty", "error": "at least one context document is required"}
    assert rows[3]["label"] == "hallucinated"
    assert rows[3]["warnings"] == ["context produced no chunks; factual claims scored 0.0"]


def test_machine_output_round_trips(runner, context_file):
    result = runner.invoke(
        main,
        ["detect", "--context", context_file, "--output-text", "The aqueduct carried spring water."],
    )
    verdict = json.loads(result.output)
    assert json.loads(json.dumps(verdict)) == verdict

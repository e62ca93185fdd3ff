"""groundcheck benchmark: three closed-loop workloads driven through the public API.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (one client; ``synth-corpus`` lets ``bench.evaluate`` run two
worker threads):

* ``long-context``: ``pipeline.detect`` with builtin backends on 2-4
  documents totalling 8k-32k tokens and a 3-6-claim output. Chunking and
  token counting do most of the work.
* ``synth-corpus``: ``bench.evaluate(jobs=2)`` over a 200-sample synthetic
  corpus with short contexts. Per-request fixed costs and the thread pool
  dominate; detection quality (``f1``) is watched here.
* ``remote-loopback``: ``pipeline.detect`` through ``remote_backends``
  against a loopback model server in a separate process, on a 2k-token
  context and a 25-paragraph output. The HTTP client, per-claim NLI round
  trips and claim splitting dominate.

Each run builds its inputs from ``--seed``, measures whole passes over them
for at least ``--seconds``, checks every verdict and prints one JSON object
as its last line. ``--trace 0`` reports end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics, writing the spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("long-context", "synth-corpus", "remote-loopback")
DEFAULT_SECONDS = 30
# Fixed per workload, so a faster program cannot move the tail to a higher
# percentile; each leaves well over ten samples beyond it at seed speed.
TAIL_PERCENTILE = {"long-context": 75, "synth-corpus": 99, "remote-loopback": 90}
SETUP_PROBES = 5
SYNTH_JOBS = 2
WARMUP_REQUESTS = 2
SYNTH_CALIBRATION_REPEATS = 10
SETUP_CALIBRATION_REPEATS = 5


class CountingHandler(logging.Handler):
    """Counts groundcheck warnings instead of writing them to stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = 0

    def emit(self, record):
        self.records += 1


@dataclass
class Outcome:
    index: int  # position of the request in the workload's pool
    latency_s: float
    verdict: object  # ResponseVerdict, or the GroundcheckError it raised
    scale: float  # calibration factor measured next to this request

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


@dataclass
class Pass:
    outcomes: list[Outcome]
    wall_s: float
    scaled_wall_s: float
    traced: bool
    span_slice: tuple[int, int] = (0, 0)
    warnings: int = 0
    server: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A seeded request pool and how to run one pass over it."""

    setup_kind = "builtin"  # what a set-up probe builds (see setup_probe.py)
    server = None  # the loopback server, on the remote workload

    def stop(self):
        pass

    def reference(self) -> dict[int, bytes]:
        """Verdict bytes each request must produce, where known in advance."""
        return {}

    def consistent(self) -> bool:
        return True


class DetectWorkload(Workload):
    """Closed loop of ``pipeline.detect`` calls over a fixed request pool."""

    def __init__(self, name: str, seed: int):
        import inputs

        self.name, self.seed = name, seed
        generate = inputs.long_context if name == "long-context" else inputs.remote_loopback
        self.pool = generate(seed)
        self.truth = [r.hallucinated for r in self.pool]
        self.requests = None

    def start(self):
        from groundcheck import DetectionRequest, builtin_backends

        self.requests = [DetectionRequest(r.documents, r.output) for r in self.pool]
        self.backends = builtin_backends()

    def output_text(self, index: int) -> str:
        return self.pool[index].output

    def f1(self, predicted: dict[int, bool]) -> float:
        """Response-level F1 over the pool, hallucinated as the positive class."""
        from groundcheck.bench import compute_prf

        tp = sum(p and self.truth[i] for i, p in predicted.items())
        fp = sum(p and not self.truth[i] for i, p in predicted.items())
        fn = sum(not p and self.truth[i] for i, p in predicted.items())
        return compute_prf(tp, fp, fn)[2]

    def warm_up(self):
        for request in self.requests[:WARMUP_REQUESTS]:
            self._detect(request, self.backends)

    @staticmethod
    def _detect(request, backends):
        from groundcheck import GroundcheckError, detect

        try:
            return detect(request, backends=backends)
        except GroundcheckError as exc:
            return exc

    def run_pass(self, tracer=None) -> Pass:
        """One pass over the pool, traced when ``tracer`` is given."""
        from tracing import DETECT, installed, traced_backends

        outcomes = []
        backends = self.backends if tracer is None else traced_backends(tracer, self.backends)
        with installed(tracer) if tracer else nullcontext():
            before = calibration.reference_s()
            start = time.perf_counter()
            for i, request in enumerate(self.requests):
                t = time.perf_counter()
                with tracer.span(DETECT) if tracer else nullcontext():
                    verdict = self._detect(request, backends)
                latency = time.perf_counter() - t
                after = calibration.reference_s()
                outcomes.append(Outcome(i, latency, verdict, calibration.scale(before, after)))
                before = after
            wall = time.perf_counter() - start
        # A closed loop with one client: time in detect is the loop's time.
        scaled = sum(o.scaled_s for o in outcomes)
        return Pass(outcomes, wall, scaled, traced=tracer is not None)


class RemoteWorkload(DetectWorkload):
    """The detect loop through the HTTP client and the loopback server."""

    setup_kind = "remote"

    def start(self):
        from groundcheck import remote_backends
        from server import ServerProcess

        super().start()
        self.builtin = self.backends
        self.server = ServerProcess().start()
        self.backends = remote_backends(self.server.url)

    def stop(self):
        self.server.stop()

    def reference(self) -> dict[int, bytes]:
        """In-process builtin verdicts; remote ones must match byte for byte."""
        return {
            i: verdict_bytes(self._detect(request, self.builtin))
            for i, request in enumerate(self.requests)
        }


class SynthWorkload(Workload):
    """``bench.evaluate`` over the synthetic corpus with two worker threads."""

    def __init__(self, name: str, seed: int):
        import inputs

        self.name, self.seed = name, seed
        self.records = inputs.synth_corpus(seed)
        self.truth = [r["label_hallucinated"] for r in self.records]
        self.rows = None  # evaluate's verdict log from the first pass

    def start(self):
        from groundcheck import bench, builtin_backends

        self.samples = [
            bench.EvalSample(
                r["id"], r["task_type"], tuple(r["context"]), r["response"], r["label_hallucinated"]
            )
            for r in self.records
        ]
        self.index = {(s.context, s.response): i for i, s in enumerate(self.samples)}
        self.backends = builtin_backends()
        self.evaluate_f1 = None
        self.rows_differ = False

    def output_text(self, index: int) -> str:
        return self.samples[index].response

    def f1(self, predicted: dict[int, bool]) -> float:
        """F1 as ``bench.evaluate`` reports it for the corpus."""
        return self.evaluate_f1

    def consistent(self) -> bool:
        """Every pass's verdict log matches the first."""
        return not self.rows_differ

    def warm_up(self):
        from groundcheck import bench

        bench.evaluate(self.samples[:20], backends=self.backends, jobs=SYNTH_JOBS)

    def run_pass(self, tracer=None) -> Pass:
        from groundcheck import GroundcheckError, bench
        from tracing import installed, traced_backends

        outcomes = []
        detect = bench.detect

        def timed_detect(request, config=None, backends=None):
            i = self.index[(request.context_documents, request.output_text)]
            t = time.perf_counter()
            try:
                verdict = detect(request, config, backends)
            except GroundcheckError as exc:
                outcomes.append(Outcome(i, time.perf_counter() - t, exc, 1.0))
                raise
            outcomes.append(Outcome(i, time.perf_counter() - t, verdict, 1.0))
            return verdict

        # Worker threads cannot calibrate per request, so the pass is
        # calibrated as a whole, before and after.
        before = calibration.reference_s(SYNTH_CALIBRATION_REPEATS)
        bench.detect = timed_detect
        try:
            if tracer is None:
                start = time.perf_counter()
                metrics, rows = bench.evaluate(self.samples, backends=self.backends, jobs=SYNTH_JOBS)
                wall = time.perf_counter() - start
            else:
                backends = traced_backends(tracer, self.backends)
                with installed(tracer), tracer.outer("bench.evaluate") as span:
                    metrics, rows = bench.evaluate(self.samples, backends=backends, jobs=SYNTH_JOBS)
                wall = span.end - span.start
        finally:
            bench.detect = detect
        scale = calibration.scale(before, calibration.reference_s(SYNTH_CALIBRATION_REPEATS))
        for o in outcomes:
            o.scale = scale
        if self.rows is None:
            self.rows, self.evaluate_f1 = rows, metrics.overall.prf()[2]
        elif rows != self.rows:
            self.rows_differ = True
        outcomes.sort(key=lambda o: o.index)
        return Pass(outcomes, wall, wall * scale, traced=tracer is not None)


def make_workload(name: str, seed: int):
    if name == "synth-corpus":
        return SynthWorkload(name, seed)
    if name == "remote-loopback":
        return RemoteWorkload(name, seed)
    return DetectWorkload(name, seed)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def verdict_bytes(verdict) -> bytes:
    return json.dumps(verdict.to_dict(), sort_keys=True).encode("utf-8")


def claims_cover_output(output: str, verdict) -> bool:
    """Exact spans, in order, covering every non-whitespace character."""
    cursor = 0
    for position, claim in enumerate(verdict.claim_verdicts):
        if claim.claim_index != position or claim.text != output[claim.start : claim.end]:
            return False
        if claim.start < cursor or output[cursor : claim.start].strip():
            return False
        cursor = claim.end
    return not output[cursor:].strip()


class Checker:
    """Checks every outcome; a request that fails any check counts as failed."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = workload.reference()
        self.first: dict[int, bytes] = {}
        self.labels: dict[int, bool] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, p: Pass) -> list[float]:
        """Check a pass; return the latencies of its successful requests.

        Each verdict is dropped once checked, so memory does not grow with
        the number of requests a run completes.
        """
        from groundcheck import HALLUCINATED

        ok_latencies = []
        for o in p.outcomes:
            verdict, o.verdict = o.verdict, None
            self.attempted += 1
            if isinstance(verdict, Exception):
                self.failed += 1
                continue
            data = verdict_bytes(verdict)
            expected = self.first.setdefault(o.index, self.reference.get(o.index, data))
            if data != expected or not claims_cover_output(self.workload.output_text(o.index), verdict):
                self.failed += 1
                continue
            self.labels[o.index] = verdict.label == HALLUCINATED
            ok_latencies.append(o.scaled_s)
        return ok_latencies

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.first):
            h.update(self.first[index])
        return h.hexdigest()

    def correct(self) -> bool:
        complete = len(self.first) == len(self.workload.truth)
        return complete and self.failed == 0 and self.workload.consistent()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(kind: str) -> float:
    """Median seconds from a fresh process's start until it could serve,
    scaled to nominal machine speed."""
    times = []
    for _ in range(SETUP_PROBES):
        before = calibration.reference_s(SETUP_CALIBRATION_REPEATS)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), kind],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe ({kind}) failed")
        after = calibration.reference_s(SETUP_CALIBRATION_REPEATS)
        times.append(elapsed * calibration.scale(before, after))
    return statistics.median(times)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_untraced(workload, seconds: float, handler: CountingHandler) -> tuple[dict, Checker]:
    setup_s = measure_setup(workload.setup_kind)
    workload.start()
    passes: list[Pass] = []
    try:
        checker = Checker(workload)
        workload.warm_up()
        latencies, elapsed = [], 0.0
        # Whole passes only, so each request weighs the same in every run;
        # start another only if it should end within ``seconds``.
        while not passes or elapsed * (len(passes) + 1) / len(passes) <= seconds:
            p = workload.run_pass()
            passes.append(p)
            elapsed += p.wall_s
            latencies += checker.add(p)
    finally:
        workload.stop()

    completed = sum(len(p.outcomes) for p in passes)
    raw = [o.latency_s for p in passes for o in p.outcomes]
    if not latencies:
        # Nothing passed its checks (the run reports correct: false); time
        # every request rather than print no result.
        latencies = [o.scaled_s for p in passes for o in p.outcomes]
    tail = TAIL_PERCENTILE[workload.name]
    beyond = sum(v > percentile(latencies, tail) for v in latencies)
    print(f"latency samples {len(latencies)}; tail is p{tail} with {beyond} samples beyond it")
    if beyond < 10:
        print(f"warning: fewer than ten samples beyond p{tail}")
    print(f"failure_rate {checker.failed / checker.attempted} ({checker.failed}/{checker.attempted})")
    print(f"warning records {handler.records}")
    print(
        f"unscaled: latency_p50_ms {statistics.median(raw) * 1000.0:.3f}, "
        f"throughput_rps {completed / sum(p.wall_s for p in passes):.3f}, "
        f"median scale {statistics.median(o.scale for p in passes for o in p.outcomes):.4f}"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (percentile(latencies, tail) * 1000.0, "ms"),
        "throughput_rps": (completed / sum(p.scaled_wall_s for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "f1": (workload.f1(checker.labels), "ratio"),
    }
    return metrics, checker


def run_traced(workload, seconds: float, handler: CountingHandler) -> tuple[dict, Checker]:
    from tracing import Tracer

    tracer = Tracer()
    workload.start()
    passes: list[Pass] = []
    try:
        checker = Checker(workload)
        workload.warm_up()
        # Alternate untraced and traced passes; start another pair only if
        # it should end within ``seconds``.
        elapsed = pair = 0.0
        while not passes or elapsed + pair <= seconds:
            pair = 0.0
            for traced in (False, True):
                before = workload.server.stats() if traced and workload.server else None
                lo, records = len(tracer.spans), handler.records
                p = workload.run_pass(tracer if traced else None)
                p.span_slice, p.warnings = (lo, len(tracer.spans)), handler.records - records
                if before is not None:
                    after = workload.server.stats()
                    p.server = {k: after[k] - before[k] for k in after}
                checker.add(p)
                passes.append(p)
                pair += p.wall_s
            elapsed += pair
    finally:
        workload.stop()

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    tracer.dump(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    print(f"failure_rate {checker.failed / checker.attempted} ({checker.failed}/{checker.attempted})")
    return layer_metrics(tracer, passes), checker


def layer_metrics(tracer, passes: list[Pass]) -> dict:
    from tracing import DETECT, self_ms

    traced = [p for p in passes if p.traced]
    first = traced[0]
    first_spans = tracer.spans[slice(*first.span_slice)]
    all_spans = [s for p in traced for s in tracer.spans[slice(*p.span_slice)]]

    # Counts come from the first traced pass only, so they repeat exactly.
    first_requests = [s for s in first_spans if s.name == DETECT]
    n1 = len(first_requests)
    calls = Counter(s.name for s in first_spans)
    counts = Counter()
    distinct = 0
    for s in first_requests:
        counts.update(tracer.requests[s.id].counts)
        distinct += len(tracer.requests[s.id].embedded)

    # Times are averaged over every traced request.
    requests = [s for s in all_spans if s.name == DETECT]
    n = len(requests)
    ms = defaultdict(float)
    for s in all_spans:
        ms[s.name] += s.ms
    children = defaultdict(list)
    for s in all_spans:
        children[s.parent].append(s)
    pipeline_self = sum(self_ms(s, children[s.id]) for s in requests) / n

    pool_ratios = []
    for p in traced:
        spans = tracer.spans[slice(*p.span_slice)]
        outer = [s for s in spans if s.name == "bench.evaluate"]
        if outer:
            pool_ratios.append(outer[0].ms / sum(s.ms for s in spans if s.name == DETECT))

    backend_ms = ms["backends.embed"] + ms["backends.nli"] + ms["backends.classify"]
    server = Counter()
    for p in traced:
        server.update(p.server)
    http = first.server or {"requests": 0, "connections": 0}

    untraced_lat = [o.scaled_s for p in passes if not p.traced for o in p.outcomes]
    traced_lat = [o.scaled_s for p in traced for o in p.outcomes]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "tokens.count_calls": (counts["count_calls"] / n1, "count"),
        "tokens.chars_scanned": (counts["chars_scanned"] / n1, "chars"),
        "chunking.context_ms": (ms["chunking.context"] / n, "ms"),
        "chunking.context_calls": (calls["chunking.context"] / n1, "count"),
        "chunking.chunks": (counts["chunks"] / n1, "count"),
        "chunking.split_ms": (ms["chunking.split"] / n, "ms"),
        "claims.classify_ms": (ms["claims.classify"] / n, "ms"),
        "claims.kept_ratio": (ratio(counts["kept"], counts["claims"]), "ratio"),
        "retrieval.rank_ms": (ms["retrieval.rank"] / n, "ms"),
        "retrieval.rank_calls": (calls["retrieval.rank"] / n1, "count"),
        "retrieval.selected_k_mean": (ratio(counts["selected_k"], counts["select_calls"]), "count"),
        "retrieval.top_truncations": (counts["top_truncations"] / n1, "count"),
        "backends.embed_calls": (counts["embed_calls"] / n1, "count"),
        "backends.embed_texts": (counts["embed_texts"] / n1, "count"),
        "backends.embed_ms": (ms["backends.embed"] / n, "ms"),
        "backends.embed_unique_ratio": (ratio(distinct, counts["embed_texts"]), "ratio"),
        "backends.nli_calls": (counts["nli_calls"] / n1, "count"),
        "backends.nli_pairs": (counts["nli_pairs"] / n1, "count"),
        "backends.nli_ms": (ms["backends.nli"] / n, "ms"),
        "backends.classify_calls": (counts["classify_calls"] / n1, "count"),
        "backends.classify_ms": (ms["backends.classify"] / n, "ms"),
        "backends.http_requests": (http["requests"] / n1, "count"),
        "backends.http_connections": (http["connections"] / n1, "count"),
        "backends.server_busy_ms": (server["busy_ms"] / n, "ms"),
        "backends.http_wait_ms": ((backend_ms - server["busy_ms"]) / n if server else 0.0, "ms"),
        "nli.score_claim_ms": (ms["nli.score_claim"] / n, "ms"),
        "nli.score_claim_calls": (calls["nli.score_claim"] / n1, "count"),
        "aggregation.ms": (ms["aggregation"] / n, "ms"),
        "pipeline.self_ms": (pipeline_self, "ms"),
        "bench.pool_overhead_ratio": (statistics.mean(pool_ratios) if pool_ratios else 0.0, "ratio"),
        "log.warning_records": (first.warnings / n1, "count"),
        "trace.overhead_ms": (
            (statistics.median(traced_lat) - statistics.median(untraced_lat)) * 1000.0,
            "ms",
        ),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    handler = CountingHandler()
    logger = logging.getLogger("groundcheck")
    logger.addHandler(handler)
    logger.propagate = False

    workload = make_workload(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, checker = run(workload, args.seconds, handler)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"digest {args.workload} seed={args.seed} sha256={checker.digest()}")
    print(
        json.dumps(
            {
                "correct": checker.correct(),
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groundcheck" / "__init__.py").is_file():
        print(f"error: no groundcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

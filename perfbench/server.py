"""Loopback model server for the remote-loopback workload.

Serves the wire protocol of ``groundcheck.backends`` (``/embed``, ``/nli``,
``/classify_factual``) from ``builtin_backends()``, so remote verdicts must be
byte-identical to in-process ones. It speaks HTTP/1.1 so that a client which
keeps connections alive can reuse them, and it counts what a client makes it
do: model requests, connections that carried at least one model request, and
time spent handling them. ``GET /stats`` returns those counts and is not
itself counted.

Run as a subprocess: ``python3 perfbench/server.py`` prints ``port <n>`` once
it listens on 127.0.0.1 and exits when its standard input closes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class _Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.busy_s = 0.0

    def record(self, new_connection: bool, busy_s: float) -> None:
        with self.lock:
            self.requests += 1
            self.connections += new_connection
            self.busy_s += busy_s

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "busy_ms": self.busy_s * 1000.0,
            }


def _routes(backends):
    def embed(body):
        return {"vectors": [v.tolist() for v in backends.embedder.embed(body["texts"])]}

    def nli(body):
        pairs = [(p["premise"], p["hypothesis"]) for p in body["pairs"]]
        return {
            "scores": [
                {"entail": s.p_entail, "neutral": s.p_neutral, "contradict": s.p_contradict}
                for s in backends.nli.score(pairs)
            ]
        }

    def classify(body):
        return {"probs": backends.claim_classifier.classify(body["texts"])}

    return {"/embed": embed, "/nli": nli, "/classify_factual": classify}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.served_model_request = False

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        start = time.perf_counter()
        route = self.server.routes.get(self.path)
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        if route is None:
            self._reply(404, {"error": f"unknown route {self.path}"})
            return
        self._reply(200, route(body))
        self.server.stats.record(not self.served_model_request, time.perf_counter() - start)
        self.served_model_request = True

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": f"unknown route {self.path}"})
            return
        self._reply(200, self.server.stats.snapshot())

    def log_message(self, format, *args):
        pass


def main() -> None:
    sys.path.insert(0, str(SRC))
    import logging

    from groundcheck import builtin_backends

    logging.getLogger("groundcheck").addHandler(logging.NullHandler())
    logging.getLogger("groundcheck").propagate = False

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.routes = _routes(builtin_backends())
    server.stats = _Stats()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class ServerProcess:
    """Start the server as a child process; stop it and wait on exit."""

    def start(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"loopback server failed to start (printed {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    main()

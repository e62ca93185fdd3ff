"""Set-up probe: a fresh process that prints ``ready`` once a first request
could be served.

``builtin``: import groundcheck and build the builtin backends.
``remote``: also start the loopback model server and get its first reply
through the remote client.

The caller times the probe from process start to the ``ready`` line.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(kind: str) -> None:
    import groundcheck

    if kind == "builtin":
        groundcheck.builtin_backends()
        print("ready", flush=True)
        return

    from server import ServerProcess

    with ServerProcess() as server:
        backends = groundcheck.remote_backends(server.url)
        backends.claim_classifier.classify(["The loopback server answers."])
        print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])

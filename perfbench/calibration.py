"""Machine-speed reference for scaling measured times.

The benchmark shares a small machine whose speed drifts by up to 2x over
seconds to minutes, for this code and for any other alike. A fixed kernel of
the same kinds of work as the pipeline (regex tokenizing, slicing, hashing,
dict and set updates, small NumPy vector operations), which depends on no
code of the program, is timed just before and just after every measurement.
A time ``t`` is reported as ``t * NOMINAL_S / kernel_time``, with the mean of
the two kernel times: what it would have been had the kernel taken exactly
``NOMINAL_S``, near its time on a quiet 2-core machine.
Scaled times move with the program, not with the machine's state.
"""

from __future__ import annotations

import random
import re
import time
import zlib

import numpy as np

NOMINAL_S = 0.002

_TOKEN_RE = re.compile(r"[^\W_]+|_|[^\w\s]", re.UNICODE)
_rng = random.Random(0)
_WORDS = [
    "".join(_rng.choice("bcdfglmnprstaeiou") for _ in range(_rng.randint(2, 9)))
    for _ in range(600)
]
_TEXT = " ".join(_WORDS) + "."


def kernel_s() -> float:
    """Seconds the reference kernel takes once."""
    start = time.perf_counter()
    for i in range(0, 1200, 120):
        _TOKEN_RE.findall(_TEXT[i : i + 2400])
    seen: dict[str, int] = {}
    for word in _WORDS:
        seen[word] = seen.get(word, 0) + zlib.crc32(word.encode("utf-8")) % 64
    counts = np.zeros(64)
    for word in _WORDS[:200]:
        counts[zlib.crc32(word[:3].encode("utf-8")) % 64] += 1.0
    counts /= np.linalg.norm(counts)
    float(counts @ counts)
    return time.perf_counter() - start


def reference_s(repeats: int = 2) -> float:
    """The kernel's time now: the fastest of ``repeats`` runs, which drops
    one-off interruptions."""
    return min(kernel_s() for _ in range(repeats))


def scale(before_s: float, after_s: float) -> float:
    """Factor taking a time measured between two reference times to the
    nominal machine speed."""
    return 2.0 * NOMINAL_S / (before_s + after_s)

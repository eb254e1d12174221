"""Deterministic parallel map.

Worker count is capped by the RWRE_THREADS environment variable: a positive
integer, 1 when unset; any other value raises ValueError.
Tasks carry their own derived seeds and results are reduced in task order,
so the outcome never depends on the number of workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def worker_count() -> int:
    """The worker count set by RWRE_THREADS, 1 when it is unset."""
    raw = os.environ.get("RWRE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"RWRE_THREADS must be a positive integer, got {raw!r}")
    return n


def deterministic_map(fn: Callable, items: Sequence) -> list:
    """Map fn over items, preserving order; thread count never changes results."""
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

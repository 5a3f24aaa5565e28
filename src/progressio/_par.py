"""Worker-pool plumbing for embarrassingly parallel scans.

The environment variable PROGRESSIO_THREADS caps the number of worker
processes, which never exceeds the CPU count; unset or 0 means one per CPU.
Work is split into contiguous chunks and merged additively, so results
never depend on the partition or on completion order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count() -> int:
    cpus = os.cpu_count() or 1
    raw = os.environ.get("PROGRESSIO_THREADS", "0").strip()
    try:
        requested = int(raw)
    except ValueError:
        requested = 0
    if requested <= 0:
        return cpus
    return min(requested, cpus)


def run_chunked(fn, jobs: list, workers: int) -> list:
    """Apply fn to each job tuple, possibly across processes; keep order."""
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def split_range(start: int, stop: int, pieces: int) -> list[tuple[int, int]]:
    """Split [start, stop) into at most `pieces` contiguous nonempty spans."""
    total = stop - start
    if total <= 0:
        return []
    pieces = max(1, min(pieces, total))
    base, extra = divmod(total, pieces)
    spans = []
    lo = start
    for i in range(pieces):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans

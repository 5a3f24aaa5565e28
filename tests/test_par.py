import concurrent.futures
import os
import pathlib
import subprocess
import sys

import progressio
from progressio._par import run_chunked, split_range, worker_count


def test_worker_count_env(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setenv("PROGRESSIO_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("PROGRESSIO_THREADS", str(10**9))
    assert worker_count() == 4
    monkeypatch.setenv("PROGRESSIO_THREADS", "0")
    assert worker_count() == 4
    monkeypatch.setenv("PROGRESSIO_THREADS", "not-a-number")
    assert worker_count() == 4
    monkeypatch.delenv("PROGRESSIO_THREADS")
    assert worker_count() >= 1


def test_split_range():
    assert split_range(1, 1, 4) == []
    assert split_range(0, 10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_range(0, 2, 10) == [(0, 1), (1, 2)]
    spans = split_range(1, 101, 8)
    assert spans[0][0] == 1 and spans[-1][1] == 101
    assert sum(hi - lo for lo, hi in spans) == 100


def _square(job):
    return job * job


def test_run_chunked_orders_results():
    assert run_chunked(_square, [1, 2, 3], workers=1) == [1, 4, 9]
    assert run_chunked(_square, [3, 1, 2], workers=2) == [9, 1, 4]
    assert run_chunked(_square, [], workers=2) == []


def test_run_chunked_caps_processes_at_cpus(monkeypatch):
    # A fake executor records the pool size and maps in-process: nothing starts.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert run_chunked(_square, list(range(8)), workers=10**9) == [
        j * j for j in range(8)
    ]
    assert run_chunked(_square, [4, 5], workers=10**9) == [16, 25]
    assert sizes == [3, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_chunked(_square, [1, 2, 3], workers=8) == [1, 4, 9]
    assert sizes == [3, 2]


def test_an_affinity_mask_of_one_cpu_means_one_worker(monkeypatch):
    # os.cpu_count() counts the machine, not the CPUs this process may run on. A
    # lambda cannot be pickled, so the run below must stay in-process.
    monkeypatch.delenv("PROGRESSIO_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count() == 1
    assert run_chunked(lambda job: job + 1, [1, 2, 3], workers=4) == [2, 3, 4]


def test_importing_the_cli_does_not_load_multiprocessing():
    # Only a pooled run_chunked needs the process-pool machinery; plain commands skip it.
    probe = "import sys, progressio.cli; print('multiprocessing' in sys.modules)"
    src = pathlib.Path(progressio.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False", out.stderr

"""How the fits use the CPUs and numpy's BLAS threads.

Every product whose bits would depend on OpenBLAS's thread count runs
inside ``one_blas_thread``: attention training and inference, and the
linear fit and forecasts. Attention cuts each batch into row slices, one
per usable CPU, which ``run_tasks`` runs side by side on a small thread
pool; every sum over windows stays one call over the whole batch, so no
result depends on the slice count either. The quantile model runs at
numpy's default threads: its bytes are the same at every thread count, and
at one thread its fit takes longer.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy has no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def n_slices() -> int:
    """Row slices per batch: one per usable CPU, or one when BLAS cannot be
    held at one thread (two slices at BLAS's default threads run slower)."""
    return usable_cpus() if openblas_threads() else 1


@contextmanager
def one_blas_thread():
    """numpy's OpenBLAS at one thread inside the block, and at its old count
    after it; untouched when numpy has no bundled OpenBLAS."""
    blas = openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


_pool_lock = threading.Lock()
_pool = None  # (pid of its process, ThreadPoolExecutor)


def run_tasks(tasks, max_threads: int | None = None) -> list:
    """Results of the no-argument callables ``tasks``, in order.

    This thread and up to n_slices() - 1 threads of a pool (max_threads - 1
    at most), made on first use, take the tasks in turn until none is left;
    a pool thread runs in a copy of the caller's context, so numpy's error
    state holds in it. No task is still running when a failure is raised.
    """
    n_threads = min(len(tasks), n_slices(), max_threads or len(tasks))
    if n_threads <= 1:
        return [task() for task in tasks]
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():  # a forked child has no pool threads
            # imported here, not with the module: it adds ~10 ms to every start-up
            from concurrent.futures import ThreadPoolExecutor
            _pool = os.getpid(), ThreadPoolExecutor(n_threads - 1, "driftcal-slices")
        pool = _pool[1]
    outcomes: list = [None] * len(tasks)
    turns = itertools.count()  # next() on it is atomic

    def take_turns():
        while (k := next(turns)) < len(tasks):
            outcomes[k] = tasks[k]()

    helpers = [pool.submit(contextvars.copy_context().run, take_turns)
               for _ in range(n_threads - 1)]
    try:
        take_turns()
    finally:
        for helper in helpers:
            helper.exception()  # waits for the helper; its failure is raised below
    for helper in helpers:
        helper.result()
    return outcomes


# B * w * d_model below which two row slices took longer than one on a 2-CPU
# host, the pool's hand-offs outweighing the work (a default batch: 163,840)
MIN_SLICE_WORK = 16384


def row_slices(B: int, w: int, width: int) -> list[slice]:
    """At most n_slices() near-equal runs of the windows 0..B-1 (one for work
    B * w * width below MIN_SLICE_WORK), each of at least two GEMM rows:
    numpy runs a one-row product as a matrix-vector product, which rounds differently."""
    n = max(1, min(B, B * w // 2, n_slices() if B * w * width >= MIN_SLICE_WORK else 1))
    return [slice(B * k // n, B * (k + 1) // n) for k in range(n)]

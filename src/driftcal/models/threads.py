"""How the fits use the CPUs and numpy's BLAS threads.

Every product whose bits would depend on OpenBLAS's thread count runs
inside ``one_blas_thread``: every fit and every forecast. Attention cuts
each batch into fixed micro-batches, which ``run_tasks`` runs side by side
on a small thread pool, one per usable CPU; the micro-batch gradients are
summed in micro-batch order, so no result depends on the thread count
either. ``blas_kernel`` names the OpenBLAS kernel the CPU selected at run
time: the bits of a product depend on it, so the pinned hashes hold on
one kernel only.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """(get threads, set threads, kernel name) of numpy's bundled OpenBLAS,
    or None when numpy has no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_, core = (lib.scipy_openblas_get_num_threads64_,
                               lib.scipy_openblas_set_num_threads64_,
                               lib.scipy_openblas_get_corename64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        core.argtypes, core.restype = [], ctypes.c_char_p
        return get, set_, core
    return None


def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    return _openblas() and _openblas()[:2]


def blas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs on this CPU ("SkylakeX",
    "Haswell", ...; OPENBLAS_CORETYPE can force one), or None without it."""
    return _openblas() and _openblas()[2]().decode()


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def n_threads() -> int:
    """Threads that run micro-batches: one per usable CPU, or one when BLAS
    cannot be held at one thread (two threads at BLAS's default threads
    run slower)."""
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


def run_tasks(tasks) -> list:
    """Results of the no-argument callables ``tasks``, in order.

    This thread runs the first task and the threads of a pool, made on first
    use with n_threads() - 1 of them, run the others: one task each when
    there are no more tasks than n_threads(). A pool thread runs in a copy of
    the caller's context, so numpy's error state holds in it. No task is
    still running when a failure is raised.
    """
    if min(len(tasks), n_threads()) <= 1:
        return [task() for task in tasks]
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():  # a forked child has no pool threads
            # imported here, not with the module: it adds ~10 ms to every start-up
            from concurrent.futures import ThreadPoolExecutor
            _pool = os.getpid(), ThreadPoolExecutor(n_threads() - 1, "driftcal-micro-batches")
        pool = _pool[1]
    others = [pool.submit(contextvars.copy_context().run, task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        for other in others:
            other.exception()  # waits for the task; its failure is raised below
    return [first, *(other.result() for other in others)]

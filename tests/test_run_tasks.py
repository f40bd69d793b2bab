"""threads.run_tasks: order, exactly-once, failures and the caller's numpy error state."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from driftcal.models import threads

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable-CPU count that run_tasks sizes itself by."""
    return lambda n: monkeypatch.setattr(threads, "usable_cpus", lambda: n)


@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n_tasks", [1, 2, 3, 4, 5, 6])
def test_results_come_back_in_task_order_each_task_run_once(cpus, n_cpus, n_tasks):
    cpus(n_cpus)
    runs, lock = [], threading.Lock()

    def task(k):
        time.sleep(0.001 * (n_tasks - k))  # later tasks tend to finish first
        with lock:
            runs.append(k)
        return k * k

    tasks = [lambda k=k: task(k) for k in range(n_tasks)]
    assert threads.run_tasks(tasks) == [k * k for k in range(n_tasks)]
    assert sorted(runs) == list(range(n_tasks))


@pytest.mark.parametrize("failing", [0, 1, 3])
def test_a_failure_is_raised_after_every_other_task_returned(cpus, failing):
    cpus(4)
    done = [False] * 4

    def task(k):
        if k == failing:
            raise RuntimeError(f"task {k}")
        time.sleep(0.05)
        done[k] = True

    with pytest.raises(RuntimeError, match=f"task {failing}"):
        threads.run_tasks([lambda k=k: task(k) for k in range(4)])
    assert done == [k != failing for k in range(4)]


@pytest.mark.skipif(threads.openblas_threads() is None,
                    reason="without a bundled OpenBLAS the tasks run on this thread")
def test_the_callers_numpy_error_state_holds_in_a_pool_task(cpus):
    cpus(2)
    both_running = threading.Barrier(2, timeout=10)  # one task on this thread, one on the pool

    def task():
        both_running.wait()
        try:
            np.float64(1.0) / np.float64(0.0)
        except FloatingPointError:
            return threading.current_thread() is threading.main_thread(), True
        return threading.current_thread() is threading.main_thread(), False

    with np.errstate(divide="raise"):
        outcomes = threads.run_tasks([task, task])
    assert sorted(outcomes) == [(False, True), (True, True)]


def test_importing_the_cli_leaves_the_thread_pool_module_unimported():
    code = "import sys, driftcal.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert result.stdout == "False\n"

"""The determinism invariants under every OpenBLAS kernel this CPU can run.

numpy's bundled OpenBLAS picks a kernel for the CPU when it loads, and
OPENBLAS_CORETYPE forces another; each kernel rounds products its own way.
The pins in test_pinned_hashes.py hold on one kernel only, but on all of
them every fit and forecast must be the same bits at every thread count,
block forecasts must equal one product or forward per padded block, and a
prefix of the windows must get a prefix of the forecasts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftcal.models import threads

# OPENBLAS_CORETYPE values, each with the /proc/cpuinfo flag its code needs
# (pni is SSE3)
KERNELS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}

# the tests of thread-count independence and of block forecasts (the prefix
# property among them, in test_chunked_forecasts.py); no pins
INVARIANTS = [
    "tests/test_pinned_hashes.py::test_fits_do_not_depend_on_blas_threads",
    "tests/test_chunked_forecasts.py",
    "tests/test_attention_slices.py",
    "tests/test_attention.py::test_chunked_inference_equals_one_forward",
    "tests/test_attention.py::test_chunked_inference_at_the_default_window_equals_one_forward",
    "tests/test_attention.py::test_chunked_inference_at_d_model_8_equals_one_forward",
    "tests/test_attention.py::test_chunked_forwards_through_one_workspace_equal_one_forward",
]


def _cpu_flags() -> set[str]:
    cpuinfo = Path("/proc/cpuinfo")
    if not cpuinfo.is_file():
        return set()
    return {flag for line in cpuinfo.read_text().splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.slow
@pytest.mark.skipif(threads.blas_kernel() is None, reason="numpy's bundled OpenBLAS not found")
def test_invariants_hold_under_every_kernel_the_cpu_runs():
    """The INVARIANTS in a fresh pytest process per kernel the CPU's flags
    allow, side by side, apart from the kernel this process runs, which the
    suite itself covers."""
    root = Path(__file__).resolve().parent.parent
    flags = _cpu_flags()
    runs = {kernel: subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *INVARIANTS],
                cwd=root, env={**os.environ, "OPENBLAS_CORETYPE": kernel},
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for kernel, flag in KERNELS.items()
            if flag in flags and kernel != threads.blas_kernel()}
    try:
        outputs = {kernel: run.communicate(timeout=600)[0] for kernel, run in runs.items()}
    finally:
        for run in runs.values():
            run.kill()  # a no-op once it has exited
    failures = [f"{kernel}:\n{outputs[kernel][-3000:]}"
                for kernel, run in runs.items() if run.returncode != 0]
    assert not failures, "\n".join(failures)

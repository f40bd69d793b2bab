import os
from pathlib import Path

import numpy as np
import pytest

from driftcal.adaptation import AdaptationConfig, adapt_dataset
from driftcal.models import threads
from driftcal.synthetic import synthetic_trajectories


def pytest_report_header(config):
    """The host facts the pinned hashes depend on, at the head of the log."""
    return (f"driftcal: OpenBLAS kernel {threads.blas_kernel()}, "
            f"{threads.usable_cpus()} usable CPUs, numpy {np.__version__}")


def fd001_train_path() -> Path | None:
    """Locate train_FD001.txt if the real benchmark has been supplied."""
    candidates = []
    env = os.environ.get("DRIFTCAL_CMAPSS_DIR")
    if env:
        candidates.append(Path(env) / "train_FD001.txt")
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "train_FD001.txt", Path("data/train_FD001.txt")]
    for c in candidates:
        if c.exists():
            return c
    return None


requires_fd001 = pytest.mark.skipif(
    fd001_train_path() is None,
    reason="train_FD001.txt not supplied (set DRIFTCAL_CMAPSS_DIR or place it under data/)",
)


@pytest.fixture(scope="session")
def small_trajectories():
    """Fast fleet for unit tests: short runs, few engines."""
    return synthetic_trajectories(n_engines=8, seed=42, length_range=(90, 140))


@pytest.fixture(scope="session")
def small_dataset(small_trajectories):
    return adapt_dataset(small_trajectories, AdaptationConfig(), seed=42)


@pytest.fixture(scope="session")
def default_dataset():
    """The standard 20-engine synthetic dataset used by the CLI."""
    trajs = synthetic_trajectories(n_engines=20, seed=5)
    return adapt_dataset(trajs, AdaptationConfig(), seed=5)

"""Shared formatting, hashing, and RNG helpers."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


FLOAT_FORMAT = "%.17g"


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (exact float64 round trip).

    The text equals ``FLOAT_FORMAT % x`` for every float64, including
    signed zeros, infinities, nan and subnormals; ``float_row_format``
    relies on that to format whole rows in one call.
    """
    return format(float(x), ".17g")


def float_row_format(n: int, sep: str = ",") -> str:
    """%-format for ``n`` floats joined by ``sep``.

    ``float_row_format(len(row), sep) % tuple(row)`` equals
    ``sep.join(fmt_float(v) for v in row)``.
    """
    return sep.join([FLOAT_FORMAT] * n)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace padding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path, prefix: bytes = b"") -> str:
    """SHA-256 of ``prefix`` followed by the file's bytes, read in 1 MB blocks."""
    h = hashlib.sha256(prefix)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...).

    Streams keyed by e.g. engine id stay stable when other engines are
    added or removed. All keys must be non-negative integers.
    """
    keys = (int(seed),) + tuple(int(k) for k in stream)
    if any(k < 0 for k in keys):
        raise ValueError(f"rng keys must be non-negative, got {keys}")
    return np.random.default_rng(keys)


def write_csv(path: str | Path, header: list[str], rows, preamble: list[str] | None = None) -> None:
    """Write a CSV with optional leading '#' comment lines.

    Rows must already be sequences of formatted strings.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in preamble or []:
            f.write(f"# {line}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by write_csv; comment lines are skipped."""
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row found")
    return header, rows

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal import cmapss_io
from driftcal.cmapss_io import (
    SchemaError,
    load_trajectories,
    parse_trajectories,
    serialize_trajectories,
)
from driftcal.synthetic import synthetic_trajectories

import oracles
from conftest import fd001_train_path, requires_fd001
from oracles import reference_parse_trajectories, summarize_dataset, traced_peak


def _row(engine, cycle, fill=0.5):
    values = [str(engine), str(cycle)] + [str(fill + i) for i in range(24)]
    return " ".join(values)


def test_minimal_two_row_file():
    text = _row(1, 1) + "\n" + _row(1, 2) + "\n"
    trajs = parse_trajectories(text)
    assert len(trajs) == 1
    assert trajs[0].engine_id == 1
    assert trajs[0].length == 2
    assert trajs[0].channels.shape == (2, 24)


def test_wrong_column_count_reports_line_number():
    text = _row(1, 1) + "\n" + " ".join(["1", "2"] + ["0"] * 23) + "\n" + _row(1, 3)
    with pytest.raises(SchemaError, match="line 2"):
        parse_trajectories(text)


def test_non_numeric_reports_line_number():
    bad = _row(1, 2).replace("0.5", "zap", 1)
    with pytest.raises(SchemaError, match="line 2"):
        parse_trajectories(_row(1, 1) + "\n" + bad)


def test_non_contiguous_cycles_names_engine():
    text = _row(7, 1) + "\n" + _row(7, 3)
    with pytest.raises(SchemaError, match="engine 7"):
        parse_trajectories(text)


def test_tabs_blank_lines_and_bytes_accepted():
    text = "\n" + _row(1, 1).replace(" ", "\t") + "\n\n" + _row(1, 2) + "  \n"
    trajs = parse_trajectories(text.encode("utf-8"))
    assert trajs[0].length == 2


def test_engine_ids_need_not_be_dense():
    text = "\n".join([_row(3, 1), _row(3, 2), _row(9, 1), _row(9, 2)])
    trajs = parse_trajectories(text)
    assert [t.engine_id for t in trajs] == [3, 9]


def test_first_appearance_order_preserved():
    text = "\n".join([_row(5, 1), _row(2, 1), _row(5, 2), _row(2, 2)])
    trajs = parse_trajectories(text)
    assert [t.engine_id for t in trajs] == [5, 2]


def test_interleaved_rows_out_of_cycle_order_are_sorted_per_engine():
    text = "\n".join([_row(5, 3, 3.0), _row(2, 2, 20.0), _row(5, 1, 1.0), _row(2, 1, 10.0),
                      _row(5, 2, 2.0)])
    trajs = parse_trajectories(text)
    assert [t.engine_id for t in trajs] == [5, 2]
    assert trajs[0].channels[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert trajs[1].channels[:, 0].tolist() == [10.0, 20.0]


def test_whitespace_only_input_has_no_trajectories():
    assert parse_trajectories(" \n\t\n") == []


def test_bad_engine_id_reports_line_number():
    text = "\n".join([_row(1, 1), _row(1, 2), "\n", _row(1, 3).replace("1", "1.5", 1)])
    with pytest.raises(SchemaError, match="line 5: engine_id must be a positive integer, got 1.5"):
        parse_trajectories(text)


def test_roundtrip_bit_for_bit():
    rng = np.random.default_rng(0)
    lines = []
    for engine in (1, 2):
        for cycle in range(1, 6):
            vals = rng.normal(scale=1e3, size=24)
            lines.append(" ".join([str(engine), str(cycle)] + [repr(float(v)) for v in vals]))
    trajs = parse_trajectories("\n".join(lines))
    again = parse_trajectories(serialize_trajectories(trajs))
    for a, b in zip(trajs, again):
        assert a.engine_id == b.engine_id
        assert np.array_equal(a.channels, b.channels)  # exact, not approximate


# ---------------------------------------------------------------------------
# Parsing a block at a time
# ---------------------------------------------------------------------------

_MALFORMED = [
    " ".join(["1", "1"] + ["0"] * 23),  # 25 columns
    " ".join(["1", "1"] + ["0"] * 25),  # 27 columns
    " ".join(["1", "1", "zap"] + ["0"] * 23),
    " ".join(["1", "1", "\u00e9t\u00e9"] + ["0"] * 23),  # multi-byte UTF-8
    " ".join(["1.5", "1"] + ["0"] * 24),
    " ".join(["0", "1"] + ["0"] * 24),
    " ".join(["2", "-3"] + ["0"] * 24),
    " ".join(["2", "2.5"] + ["0"] * 24),
]


@st.composite
def _trajectory_texts(draw):
    """C-MAPSS text with rows of up to three engines in any order, and blank,
    whitespace-only, malformed and repeated lines between them; lines end in "\n",
    "\r\n" or "\r", the last one maybe not at all."""
    values = st.sampled_from(["0.5", "-1", "1e3", "2.25", "nan", "-0.0", "7"])
    rows = []
    for engine in draw(st.lists(st.integers(1, 4), max_size=3, unique=True)):
        for cycle in range(1, draw(st.integers(1, 4)) + 1):
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            cells = [str(engine), str(cycle)] + draw(st.lists(values, min_size=24, max_size=24))
            rows.append(sep.join(cells) + draw(st.sampled_from(["", " ", "\t"])))
    lines = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", " ", "\t", " \t ", *_MALFORMED, *rows[:1]]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no trailing newline
    return text


def _outcome(parse, module, source):
    """A parse's trajectories, or the type and message of what it raised, and
    whether it ran the line scan of ``module``. The scan returns the right
    table for lines cut in the wrong places too, so only its running shows
    them."""
    with mock.patch.object(module, "_scan_lines", wraps=module._scan_lines) as scan:
        try:
            result = [(t.engine_id, t.channels.tobytes()) for t in parse(source)]
        except ValueError as exc:
            result = type(exc).__name__, str(exc)
    return result, scan.called


@settings(max_examples=300, deadline=None)
@given(text=_trajectory_texts(), block_size=st.integers(1, 64), as_bytes=st.booleans(),
       bad_byte=st.booleans())
def test_block_parse_equals_whole_text_parse(text, block_size, as_bytes, bad_byte):
    """Blocks of a few characters cut the text anywhere within lines; the
    trajectories, or the error and the line it names, stay those of the whole
    text's lines, and the line scan runs exactly when it runs for them."""
    data = text.encode("utf-8")
    if bad_byte:
        data = data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :]
    source = data if as_bytes or bad_byte else text
    with mock.patch.object(cmapss_io, "BLOCK_SIZE", block_size):
        expected = _outcome(reference_parse_trajectories, oracles, source)
        assert _outcome(parse_trajectories, cmapss_io, source) == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "train.txt"
            path.write_bytes(data)
            expected = _outcome(_read_whole_file, oracles, path)
            assert _outcome(load_trajectories, cmapss_io, path) == expected


def _read_whole_file(path):
    with open(path, "r", encoding="utf-8") as f:
        return reference_parse_trajectories(f.read())


def test_block_cuts_keep_crlf_and_line_numbers(monkeypatch):
    monkeypatch.setattr(cmapss_io, "BLOCK_SIZE", 3)
    text = "\r\n" + _row(1, 1) + "\r\n\r\n" + _row(1, 2).replace("0.5", "zap", 1) + "\r\n"
    with pytest.raises(SchemaError, match="line 4: non-numeric value"):
        parse_trajectories(text.encode("utf-8"))


def _fleet_text(n_engines: int) -> tuple[str, int]:
    """Serialized synthetic fleet and the bytes of its parsed (rows, 26) table."""
    trajs = synthetic_trajectories(n_engines, seed=3, length_range=(130, 360))
    return serialize_trajectories(trajs), sum(t.length for t in trajs) * 26 * 8


def test_parse_memory_beyond_the_table_does_not_grow_with_the_fleet():
    """The parse holds its table and the table sorted by engine, plus one
    block of text and its lines. Splitting the whole text into lines first
    held about 2 more bytes per byte of table (traced 45.8 MB for a 10 MB
    table at 200 engines, against 21.8 MB streamed)."""
    (small, small_table), (large, large_table) = _fleet_text(20), _fleet_text(200)
    growth = (traced_peak(lambda: parse_trajectories(large))
              - traced_peak(lambda: parse_trajectories(small)))
    assert growth < 2.5 * (large_table - small_table)


def test_summary_single_run():
    trajs = parse_trajectories("\n".join(_row(1, c) for c in range(1, 6)))
    s = summarize_dataset(trajs)
    assert s.n_engines == 1
    assert s.min_length == s.max_length == 5
    assert s.mean_length == 5.0


def test_summary_mean_of_two_runs():
    text = "\n".join([_row(1, c) for c in range(1, 4)] + [_row(2, c) for c in range(1, 8)])
    s = summarize_dataset(parse_trajectories(text))
    assert s.n_engines == 2
    assert s.mean_length == 5.0


def test_summary_channel_extrema_match_brute_force():
    rng = np.random.default_rng(3)
    lines = []
    for engine in (1, 2, 3):
        for cycle in range(1, 11):
            vals = rng.normal(size=24)
            lines.append(" ".join([str(engine), str(cycle)] + [repr(float(v)) for v in vals]))
    trajs = parse_trajectories("\n".join(lines))
    s = summarize_dataset(trajs)
    stacked = np.vstack([t.channels for t in trajs])
    assert np.array_equal(s.channel_min, stacked.min(axis=0))
    assert np.array_equal(s.channel_max, stacked.max(axis=0))


def test_summary_empty_errors():
    with pytest.raises(ValueError):
        summarize_dataset([])


@requires_fd001
def test_fd001_has_100_engines():
    trajs = load_trajectories(fd001_train_path())
    assert len(trajs) == 100
    assert sorted(t.engine_id for t in trajs) == list(range(1, 101))
    assert summarize_dataset(trajs).n_engines == 100

import numpy as np
import pytest

from driftcal.cmapss_io import (
    SchemaError,
    load_trajectories,
    parse_trajectories,
    serialize_trajectories,
)

from conftest import fd001_train_path, requires_fd001
from oracles import summarize_dataset


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

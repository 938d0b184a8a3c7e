"""The CSV artifact module: its atomic writer and its one column reader."""

import os

import numpy as np
import pytest

from shotcorr import csvio
from shotcorr.montecarlo import CorrelationCurve, ShotRecord, records_to_csv

RECORDS = {"cycle_index": int, "t_center_s": None, "outcome": int}
CURVE = dict.fromkeys(("delta_t_s", "tau_s", "correlation", "stderr", "n_pairs"), float)
TABLE = {"omega_rad_per_s": float, "S": float}


def _written_records(path):
    rng = np.random.default_rng(9)
    records_to_csv([ShotRecord(rng.choice([-1, 1], n), 0.02, 0.1) for n in (7, 4, 7)], path)
    return RECORDS, False


def _corrected_curve(path):
    # the raw columns trail the five that the reader asks for
    rows = [np.array(c) for c in ([1e-3, 2e-3], [1e-5] * 2, [0.5, 0.25], [0.01, 0.02], [100, 99])]
    CorrelationCurve(*rows, correlation_raw=rows[2] / 4, stderr_raw=rows[3] / 4).to_csv(path)
    return CURVE, True


def _table(path):
    csvio.write_csv(path, tuple(TABLE), [(1.0, 1e3), (1e3 / 3, 1e-3), (1e6, 0.0)])
    return TABLE, False


def _quirky_records(path):
    # a quoted cell holding a comma, CRLF line ends, a blank line, a quoted
    # outcome, a leading blank and a plus sign
    path.write_bytes(
        b'cycle_index,t_center_s,outcome\r\n0,"0.01,x",1\r\n\r\n1,0.11,"-1"\r\n'
        b"0,0.01, 1\r\n1,0.11,+1\r\n2,0.21,-1\r\n"
    )
    return RECORDS, False


def _underscore_cell(path):
    # float() reads 1_0 as 10.0; numpy refuses it
    path.write_text("omega_rad_per_s,S\n1.0,1_0\n2.0,5.0\n")
    return TABLE, False


FILES = {
    "records": _written_records,
    "curve": _corrected_curve,
    "table": _table,
    "quirky": _quirky_records,
    "underscore": _underscore_cell,
}


class TestReadColumns:
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_numpy_path_matches_per_cell_path(self, tmp_path, monkeypatch, name):
        path = tmp_path / f"{name}.csv"
        columns, prefix = FILES[name](path)
        loads = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            loads.append(None)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        fast = csvio.read_columns(path, columns, prefix)
        assert len(loads) == 1

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        slow = csvio.read_columns(path, columns, prefix)
        assert len(fast) == len(slow) == len(columns)
        for kind, a, b in zip(columns.values(), fast, slow):
            if kind is None:
                assert a == b == []
            else:
                assert a.dtype == b.dtype == {int: np.int64, float: np.float64}[kind]
                assert np.array_equal(a, b)
        if name == "underscore":
            assert slow[1].tolist() == [10.0, 5.0]

    def test_other_converters_read_cell_by_cell(self, tmp_path, monkeypatch):
        path = tmp_path / "schedule.csv"
        columns = {"delta_t_s": float, "tau_s": float, "flags": str}
        csvio.write_csv(path, tuple(columns), [(0.01, 1e-4, ""), (0.1, 0.2, "a;b")])

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", refuse)
        dts, taus, flags = csvio.read_columns(path, columns)
        assert dts.tolist() == [0.01, 0.1] and taus.tolist() == [1e-4, 0.2]
        assert flags == ["", "a;b"]

    def test_no_rows_read_as_empty_columns(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("cycle_index,t_center_s,outcome\n")
        idx, skipped, outcomes = csvio.read_columns(path, RECORDS)
        assert idx.shape == outcomes.shape == (0,) and skipped == []

    @pytest.mark.parametrize(
        "rows, line",
        [("0,1\n1,2,3", 2), ("0,1,2\n\n1,x,3", 4), ("0,1,2\n#,1,2", 3)],
        ids=["short", "blank_then_text", "hash"],
    )
    def test_refused_row_named(self, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n" + rows + "\n")
        with pytest.raises(ValueError, match=f"malformed row {line}:"):
            csvio.read_columns(path, dict.fromkeys("abc", float))


class TestAtomicWrite:
    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_old_bytes(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        text = "new\n"
        if failure == "write":
            text = "\ud800"  # a lone surrogate: no codec writes it
        else:

            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((UnicodeEncodeError, OSError)):
            csvio.atomic_write(path, text)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

import datetime as dt
import io

import numpy as np
import pytest

from causalpath.core import Alphabet
from causalpath.ingest import (
    PriceSeries,
    QuantizerSpec,
    align_calendars,
    load_price_csv,
    pct_change_quantize,
    read_symbol_csv,
    shift_for_market_order,
    write_symbol_csv,
)

D = dt.date


def series(rows):
    return PriceSeries(tuple(d for d, _ in rows), np.array([p for _, p in rows]))


def write_csv(tmp_path, name, rows, header="date,adj_close"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(f"{d},{p}" for d, p in rows) + "\n")
    return path


class TestLoad:
    def test_two_row_fixture(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", [("2020-01-02", 10.0), ("2020-01-03", 11.0)])
        s = load_price_csv(path)
        assert len(s) == 2
        assert s.dates[0] == D(2020, 1, 2)

    def test_unsorted_input_sorted(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", [("2020-01-03", 11.0), ("2020-01-02", 10.0)])
        s = load_price_csv(path)
        assert s.dates == (D(2020, 1, 2), D(2020, 1, 3))
        assert list(s.prices) == [10.0, 11.0]

    def test_zero_price_rejected(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", [("2020-01-02", 0.0)])
        with pytest.raises(ValueError):
            load_price_csv(path)

    def test_duplicate_dates_rejected(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", [("2020-01-02", 10.0), ("2020-01-02", 11.0)])
        with pytest.raises(ValueError):
            load_price_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, "p.csv", [("2020-01-02", 10.0)], header="date,close")
        with pytest.raises(ValueError):
            load_price_csv(path)


class TestAlign:
    def test_identical_calendars_identity(self):
        a = series([(D(2020, 1, 1), 100.0), (D(2020, 1, 2), 101.0)])
        b = series([(D(2020, 1, 1), 200.0), (D(2020, 1, 2), 202.0)])
        aa, bb, meta = align_calendars(a, b)
        assert aa.dates == a.dates and bb.dates == b.dates
        assert np.array_equal(aa.prices, a.prices)
        assert meta["interpolated_a"] == [] and meta["interpolated_b"] == []

    def test_interior_gap_midpoint(self):
        # b misses one interior date; its own neighbors are 200 and 204
        a = series([(D(2020, 1, 6), 100.0), (D(2020, 1, 7), 102.0), (D(2020, 1, 8), 104.0)])
        b = series([(D(2020, 1, 6), 200.0), (D(2020, 1, 8), 204.0)])
        aa, bb, meta = align_calendars(a, b)
        assert bb.prices[1] == pytest.approx(202.0)
        assert meta["interpolated_b"] == ["2020-01-07"]

    def test_weekend_absent_from_both_excluded(self):
        a = series([(D(2020, 1, 3), 1.0), (D(2020, 1, 6), 1.0)])  # Fri, Mon
        b = series([(D(2020, 1, 3), 2.0), (D(2020, 1, 6), 2.0)])
        aa, _, _ = align_calendars(a, b)
        assert aa.dates == (D(2020, 1, 3), D(2020, 1, 6))

    def test_boundary_dates_trimmed(self):
        a = series([(D(2020, 1, 1), 1.0), (D(2020, 1, 2), 1.1), (D(2020, 1, 3), 1.2)])
        b = series([(D(2020, 1, 2), 2.0), (D(2020, 1, 3), 2.1), (D(2020, 1, 6), 2.2)])
        aa, bb, meta = align_calendars(a, b)
        assert aa.dates == (D(2020, 1, 2), D(2020, 1, 3))
        assert set(meta["trimmed"]) == {"2020-01-01", "2020-01-06"}

    def test_idempotent_on_aligned(self):
        a = series([(D(2020, 1, 1), 100.0), (D(2020, 1, 2), 101.0), (D(2020, 1, 3), 99.0)])
        b = series([(D(2020, 1, 1), 50.0), (D(2020, 1, 3), 52.0)])
        aa, bb, _ = align_calendars(a, b)
        aa2, bb2, meta2 = align_calendars(aa, bb)
        assert np.array_equal(aa2.prices, aa.prices)
        assert np.array_equal(bb2.prices, bb.prices)
        assert meta2["interpolated_a"] == [] and meta2["interpolated_b"] == []

    def test_no_overlap_rejected(self):
        a = series([(D(2020, 1, 1), 1.0), (D(2020, 1, 2), 1.0)])
        b = series([(D(2021, 1, 1), 1.0), (D(2021, 1, 2), 1.0)])
        with pytest.raises(ValueError):
            align_calendars(a, b)


class TestQuantize:
    @pytest.mark.parametrize(
        "start,end,symbol",
        [
            (1000.0, 1012.0, 2),  # +1.2%
            (1000.0, 991.0, 0),  # -0.9%
            (1000.0, 1003.0, 1),  # +0.3%
            (1000.0, 1008.0, 1),  # exactly +0.8%: strict threshold, no change
            (1000.0, 992.0, 1),  # exactly -0.8%
        ],
    )
    def test_threshold_rules(self, start, end, symbol):
        s = series([(D(2020, 1, 1), start), (D(2020, 1, 2), end)])
        assert list(pct_change_quantize(s).data) == [symbol]

    def test_constant_series_all_ones(self):
        s = series([(D(2020, 1, 1) + dt.timedelta(days=i), 50.0) for i in range(5)])
        assert list(pct_change_quantize(s).data) == [1, 1, 1, 1]

    def test_scale_invariance(self):
        rows = [(D(2020, 1, 1) + dt.timedelta(days=i), p) for i, p in
                enumerate([100.0, 101.5, 100.2, 100.9, 99.0])]
        s1 = series(rows)
        s2 = PriceSeries(s1.dates, s1.prices * 7.25)
        assert list(pct_change_quantize(s1).data) == list(pct_change_quantize(s2).data)

    def test_output_length(self):
        s = series([(D(2020, 1, 1) + dt.timedelta(days=i), 100.0 + i) for i in range(9)])
        assert len(pct_change_quantize(s)) == 8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuantizerSpec(bad)


class TestShift:
    def _pair(self, n=6):
        t = Alphabet(3)
        from causalpath.core import SymbolSeq

        f = SymbolSeq.from_list(t, [0, 1, 2, 0, 1, 2][:n])
        l = SymbolSeq.from_list(t, [2, 2, 1, 0, 0, 1][:n])
        return f, l

    def test_length_shrinks_by_one(self):
        f, l = self._pair()
        sf, sl = shift_for_market_order(f, l)
        assert len(sf) == len(sl) == 5

    def test_alignment(self):
        f, l = self._pair()
        sf, sl = shift_for_market_order(f, l)
        assert list(sf.data) == list(f.data[1:])
        assert list(sl.data) == list(l.data[:-1])

    def test_double_shift_is_lag_two(self):
        f, l = self._pair()
        sf, sl = shift_for_market_order(*shift_for_market_order(f, l))
        assert list(sf.data) == list(f.data[2:])
        assert list(sl.data) == list(l.data[:-2])

    def test_length_mismatch_rejected(self):
        f, l = self._pair()
        with pytest.raises(ValueError):
            shift_for_market_order(f[1:], l)


class TestSymbolIO:
    def test_round_trip_with_dates(self, tmp_path):
        from causalpath.core import SymbolSeq

        seq = SymbolSeq.from_list(Alphabet(3), [0, 2, 1])
        dates = (D(2020, 1, 1), D(2020, 1, 2), D(2020, 1, 3))
        path = tmp_path / "sym.csv"
        with open(path, "w") as fp:
            write_symbol_csv(fp, seq, dates)
        back = read_symbol_csv(path)
        assert list(back.data) == [0, 2, 1]
        assert back.alphabet.size == 3

    def test_deterministic_bytes(self):
        from causalpath.core import SymbolSeq

        seq = SymbolSeq.from_list(Alphabet(3), [1, 1, 0, 2])
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_symbol_csv(buf, seq)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    @pytest.mark.parametrize(
        "text",
        [
            "i,symbol\n1,0\n2,2\n3,1\n",
            "\n Symbol ,date\n0,2020-01-01\n\n2,2020-01-02\n1,2020-01-03\n",  # blank lines, case
            "date,SYMBOL,extra\n2020-01-01,0,x\n2020-01-02,2,y,z\n2020-01-03,1\n",
        ],
    )
    def test_reads_the_symbol_column(self, tmp_path, text):
        path = tmp_path / "sym.csv"
        path.write_text(text)
        back = read_symbol_csv(path)
        assert list(back.data) == [0, 2, 1]
        assert back.alphabet.size == 3
        assert read_symbol_csv(path, Alphabet(5)).alphabet.size == 5

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "need a 'symbol' column"),
            ("i,value\n1,0\n", "need a 'symbol' column"),
            ("i,symbol\n", "no symbols"),
            ("i,symbol\n1,x\n", "invalid literal"),
            ("i,symbol\n1,0\n2\n", "no 'symbol' field"),
        ],
    )
    def test_malformed_symbol_files(self, tmp_path, text, match):
        path = tmp_path / "sym.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_symbol_csv(path)

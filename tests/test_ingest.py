import csv
import datetime as dt
import io
import random
import warnings

import numpy as np
import pytest

from causalpath.core import Alphabet, SymbolSeq
from causalpath.ingest import (
    PriceSeries,
    QuantizerSpec,
    align_calendars,
    load_price_csv,
    pct_change_quantize,
    read_csv_column,
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

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("date,adj_close\n2020-01-02,10.0\n\n\n2020-01-03,-1.0\n")
        with pytest.raises(ValueError, match=r"blank\.csv:5: price must be positive"):
            load_price_csv(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("2020-01-02,10.0\n2020-01-03\n", r"p\.csv:3: no 'adj_close' field"),
            ("2020-01-02,10.0\n2020-01-03,nan\n", r"p\.csv:3: .* finite, got nan"),
            ("2020-01-02,10.0\n2020-01-03,inf\n", r"p\.csv:3: .* finite, got inf"),
            ("", r"p\.csv: no price rows"),
        ],
    )
    def test_malformed_rows_name_path_and_line(self, tmp_path, text, match):
        path = tmp_path / "p.csv"
        path.write_text("date,adj_close\n" + text)
        with pytest.raises(ValueError, match=match):
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


def _per_day_align(a, b):
    """The per-day aligner that `align_calendars` replaced: the reference."""
    union = sorted(set(a.dates) | set(b.dates))
    lo = max(a.dates[0], b.dates[0])
    hi = min(a.dates[-1], b.dates[-1])
    if lo > hi:
        raise ValueError("price series do not overlap in time")
    kept = [day for day in union if lo <= day <= hi]
    trimmed = [day for day in union if day < lo or day > hi]
    meta = {"trimmed": [d.isoformat() for d in trimmed]}

    def fill(s, label):
        known = dict(zip(s.dates, s.prices))
        ords = [d.toordinal() for d in s.dates]
        out = np.empty(len(kept))
        interpolated = []
        for idx, day in enumerate(kept):
            price = known.get(day)
            if price is None:
                o = day.toordinal()
                pos = np.searchsorted(ords, o)
                left, right = pos - 1, pos
                frac = (o - ords[left]) / (ords[right] - ords[left])
                price = float(s.prices[left] + frac * (s.prices[right] - s.prices[left]))
                interpolated.append(day.isoformat())
            out[idx] = price
        meta[f"interpolated_{label}"] = interpolated
        return out

    pa = fill(a, "a")
    pb = fill(b, "b")
    meta["interpolation"] = "linear on price level over calendar days"
    return tuple(kept), pa, pb, meta


def _random_calendar_pair(rng, kind):
    """Two markets on one pool of consecutive days. Kinds: 0 independent
    spans with holidays on either side, 1 identical calendars, 2 b's span
    inside a's, 3 no overlap, 4 multi-day gaps on both sides."""
    span = int(rng.integers(2, 90))
    start = D(2019, 1, 1) + dt.timedelta(days=int(rng.integers(0, 700)))
    pool = [start + dt.timedelta(days=i) for i in range(span)]

    def pick(days, keep):
        chosen = [d for d in days if rng.random() < keep]
        return chosen or [days[int(rng.integers(len(days)))]]

    def window(lo, hi):
        lo = int(rng.integers(lo, hi))
        return pool[lo:int(rng.integers(lo, span)) + 1]

    def gappy(days):
        out, i = [], 0
        while i < len(days):
            run = int(rng.integers(1, 7))
            if rng.random() < 0.6:
                out.extend(days[i:i + run])
            i += run
        return out or days[:1]

    if kind == 0:
        a, b = pick(window(0, span), 0.8), pick(window(0, span), 0.8)
    elif kind == 1:
        a = b = pick(pool, 0.7)
    elif kind == 2:
        a, b = pool, pick(window(1, span), 0.7)
    elif kind == 3:
        cut = int(rng.integers(1, span))
        a, b = pick(pool[:cut], 0.8), pick(pool[cut:], 0.8)
    else:
        a, b = gappy(pool), gappy(pool)
    return tuple(
        PriceSeries(tuple(days), np.exp(level + rng.normal(0, 0.02, len(days)).cumsum()))
        for days, level in ((a, rng.normal(4.0, 1.0)), (b, rng.normal(4.0, 1.0)))
    )


def test_align_matches_per_day_reference_on_random_calendars():
    rng = np.random.default_rng(20261019)
    seen = dict.fromkeys(
        ("interp_a", "interp_b", "trim_head", "trim_tail", "no_overlap", "identical"), 0
    )
    for trial in range(300):
        a, b = _random_calendar_pair(rng, trial % 5)
        try:
            want = _per_day_align(a, b)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                align_calendars(a, b)
            seen["no_overlap"] += 1
            continue
        aa, bb, meta = align_calendars(a, b)
        dates, pa, pb, want_meta = want
        assert aa.dates == bb.dates == dates
        assert np.array_equal(aa.prices, pa) and np.array_equal(bb.prices, pb)
        assert meta == want_meta and list(meta) == list(want_meta)
        seen["interp_a"] += bool(meta["interpolated_a"])
        seen["interp_b"] += bool(meta["interpolated_b"])
        seen["trim_head"] += bool(meta["trimmed"]) and meta["trimmed"][0] < dates[0].isoformat()
        seen["trim_tail"] += bool(meta["trimmed"]) and meta["trimmed"][-1] > dates[-1].isoformat()
        seen["identical"] += a.dates == b.dates
    assert min(seen.values()) > 0, seen


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

    @pytest.mark.parametrize(
        "text, match",
        [
            ("i,symbol\n1,0\n\n3,1.0\n", r"sym\.csv:4: invalid literal .* '1\.0'"),
            ("i,symbol\n1,0\n2,-1\n", r"sym\.csv: symbol out of alphabet range"),
        ],
    )
    def test_symbol_errors_name_the_file(self, tmp_path, text, match):
        path = tmp_path / "sym.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_symbol_csv(path)


class TestPriceSeries:
    @pytest.mark.parametrize(
        "days",
        [
            (D(2020, 1, 2), D(2020, 1, 1)),
            (D(2020, 1, 1), D(2020, 1, 3), D(2020, 1, 2)),
            (D(2020, 1, 1), D(2020, 1, 2), D(2020, 1, 2)),
            (D(2020, 1, 1), D(2020, 1, 1)),
        ],
    )
    def test_unsorted_or_duplicate_dates_raise(self, days):
        with pytest.raises(ValueError, match="^dates must be strictly increasing$"):
            PriceSeries(days, np.ones(len(days)))

    @pytest.mark.parametrize("n", [0, 1, 2, 40])
    def test_increasing_dates_accepted(self, n):
        days = tuple(D(2019, 12, 30) + dt.timedelta(days=3 * k) for k in range(n))
        assert len(PriceSeries(days, np.ones(n))) == n


def _per_row_symbol_csv(seq, dates=None):
    """Test-local copy of the per-row symbol writer."""
    keys = range(1, len(seq) + 1) if dates is None else dates
    rows = "".join(f"{key},{int(sym)}\n" for key, sym in zip(keys, seq.data))
    return ("i,symbol\n" if dates is None else "date,symbol\n") + rows


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("dated", [None, "dates", "strings"])
def test_symbol_writer_matches_per_row_reference(n, dated):
    rng = np.random.default_rng(n)
    seq = SymbolSeq(Alphabet(3), rng.integers(0, 3, n))
    days = tuple(D(1999, 12, 31) + dt.timedelta(days=k) for k in range(n))
    dates = {None: None, "dates": days, "strings": [d.isoformat() for d in days]}[dated]
    buf = io.StringIO()
    write_symbol_csv(buf, seq, dates)
    # line lists keep a failure's report short
    want = _per_row_symbol_csv(seq, None if dated is None else days)
    assert buf.getvalue().splitlines(keepends=True) == want.splitlines(keepends=True)


def _per_row_column(path, name, kind):
    """Test-local copy of the csv.reader scan the column reader replaced."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        header = [f.strip().lower() for f in next((r for r in reader if r), [])]
        if name not in header:
            return None
        col = header.index(name)
        try:
            return [kind(row[col]) for row in reader if row]
        except IndexError:
            raise ValueError(f"{path}:{reader.line_num}: a row has no '{name}' field") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _per_row_read_csv_column(path, name, kind):
    values = _per_row_column(path, name, kind)
    return None if values is None else np.array(values, np.int64 if kind is int else np.float64)


def _per_row_read_symbol_csv(path, alphabet=None):
    """Test-local copy of the per-row symbol reader."""
    symbols = _per_row_column(path, "symbol", int)
    if symbols is None:
        raise ValueError(f"{path}: need a 'symbol' column")
    if not symbols:
        raise ValueError(f"{path}: no symbols")
    if alphabet is None:
        alphabet = Alphabet(max(2, max(symbols) + 1))
    try:
        return SymbolSeq.from_list(alphabet, symbols)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _outcome(read, *args, filters="error"):
    """What a reader gives: values (with alphabet or dtype), or the error.
    Warnings are errors unless `filters` names another action."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter(filters)
            out = read(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    if isinstance(out, SymbolSeq):
        return out.alphabet, out.data.dtype, out.data.tolist()
    # the bits: NaN-aware and sign-of-zero-aware
    return None if out is None else (out.dtype, out.tobytes())


READER_CORPUS = [
    "i,symbol\n1,0\n2,2\n3,1\n",
    "\n\n\ni,symbol\n1,0\n2,1\n",  # blank lines before the header
    "i,symbol\r\n1,0\r\n2,2\r\n",  # CRLF
    "i,symbol\r1,0\r2,1\r",  # CR only
    "i,symbol\n1, 1\n2,\t2 \n3,0  \n",  # whitespace-padded values
    "i,symbol\n1,+1\n2,-0\n",
    'i,symbol\n1,"1"\n2,"2"\n',  # quoted values
    '"x,5,y",symbol\n"a,7,b",1\n',  # quoted delimiters before the column
    "i,symbol\n1,1_0\n",
    "i,symbol\n1,1.0\n",
    "i,symbol\n1,1e0\n",
    "i,symbol\n1,#1\n",
    "i,symbol\n1,0x1\n",
    f"i,symbol\n1,{2**70}\n",
    f"i,symbol\n1,{-2**70}\n",
    f"i,symbol\n1,{2**63}\n",
    "i,symbol\n1,-1\n",
    "i,symbol\n1,5\n",
    "i,symbol\n1,0\n2\n",  # short row
    "i,symbol\n1,0\n2,\n",  # empty field
    "i,symbol\n1,0\n \n",  # white-space row
    "i,symbol,extra\n1,0,x\n2,2,y,z\n",  # extra columns
    "symbol,i\n0,1\n2,2\n",  # 'symbol' not last
    "\n Symbol ,date\n0,2020-01-01\n\n2,2020-01-02\n",
    "i,symbol\n",  # empty body
    "i,symbol\n\n\r\n",  # blank body
    "i,symbol",
    "",
    "i,value\n1,0\n",
    "i,symbol\n1,1\x1c\n",  # a separator int() rejects and numpy skips
    "i,symbol\n1,1\x0b\n",
    "i,symbol\n1,\u0661\n",  # a non-ASCII digit int() accepts
    "i,symbol\n1,1\u01fe\n",  # non-ASCII text int() rejects
    "i,symbol\n1,\x00\n",
]


@pytest.mark.parametrize("text", READER_CORPUS)
@pytest.mark.parametrize("alphabet", [None, Alphabet(4)])
def test_symbol_reader_matches_per_row_reference(tmp_path, text, alphabet):
    path = tmp_path / "sym.csv"
    path.write_text(text, newline="")
    assert _outcome(read_symbol_csv, path, alphabet) == _outcome(
        _per_row_read_symbol_csv, path, alphabet)


def _loadtxt_parsing_ints_via_float(real):
    """np.loadtxt as numpy 1.23-1.26 have it: an int64 field int() rejects
    but float() takes is truncated, with a DeprecationWarning, and only a
    warning raised as an error makes the call fail (as a ValueError)."""
    def loadtxt(fp, *, dtype, **kw):
        text = fp.read()
        try:
            return real(io.StringIO(text), dtype=dtype, **kw)
        except ValueError:
            if dtype is not np.int64:
                raise
        values = real(io.StringIO(text), dtype=np.float64, **kw)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int64") from exc
        with np.errstate(invalid="ignore"):
            return values.astype(np.int64)
    return loadtxt


@pytest.mark.parametrize("filters", ["ignore", "default", "error"])
@pytest.mark.parametrize("old_numpy", [False, True])
@pytest.mark.parametrize("value", ["1.0", "1.7", "1e0", "nan", "-inf", str(2**70),
                                   str(-2**63 - 1), "1"])
def test_symbol_reader_rejects_what_int_rejects_under_any_warning_filter(
        tmp_path, monkeypatch, filters, old_numpy, value):
    if old_numpy:
        monkeypatch.setattr(np, "loadtxt", _loadtxt_parsing_ints_via_float(np.loadtxt))
    path = tmp_path / "x.csv"
    path.write_text(f"i,symbol\n1,0\n2,{value}\n")
    assert _outcome(read_symbol_csv, path, filters=filters) == _outcome(
        _per_row_read_symbol_csv, path)


_TOKENS = ["0", "1", "2", "-1", "7", " ", "\t", "+", "-", "_", ".", "e", "x", '"', ",",
           "\r", "\n", "\r\n", "#", "\x0c", "\x1d", "\x00", "\u00e9", "nan", "inf",
           "1e5", "9" * 20, ""]


def test_column_reader_matches_per_row_reference_on_random_files(tmp_path):
    rng = random.Random(19)
    path = tmp_path / "f.csv"
    for _ in range(400):
        header = rng.choice(["i,symbol", "symbol", " Symbol ,c_i", "\n\nc_i,SYMBOL", "a,b"])
        lines = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.6:
                fields = [str(rng.randint(-2, 4)) for _ in range(rng.randint(1, 3))]
                lines.append(",".join(fields) + rng.choice(["\n", "\r\n", "\r"]))
            else:
                lines.append("".join(rng.choices(_TOKENS, k=rng.randint(0, 5))) + "\n")
        text = header + rng.choice(["\n", "\r\n"]) + "".join(lines)
        path.write_text(text, newline="")
        assert _outcome(read_symbol_csv, path) == _outcome(_per_row_read_symbol_csv, path), text
        for name, kind in (("symbol", int), ("c_i", float)):
            assert _outcome(read_csv_column, path, name, kind) == _outcome(
                _per_row_read_csv_column, path, name, kind), text

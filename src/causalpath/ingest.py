"""Market-data pipeline: price CSVs to aligned ternary symbol streams.

Input files carry a header with columns "date" (ISO-8601) and "adj_close"
(positive decimal). Calendars of two markets are aligned on the union of
their trading days: a day where only one market traded gets the other
market's price linearly interpolated on the price level between its
neighboring own quotes (weekends and shared holidays never appear in the
union, so they are never interpolated); union days outside a market's span
are trimmed and reported. Daily percent changes quantize to {0, 1, 2} with a
strict threshold (default 0.8%): ties map to the middle symbol. A one-step
shift utility re-aligns the pair when the influence of interest crosses the
session boundary of a trading day.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass
from typing import IO, Optional, Sequence, Union

import numpy as np

from .core import Alphabet, SymbolSeq

TERNARY = Alphabet(3)
_WRITE_BLOCK = 1 << 10
# characters numpy's text parser reads differently from csv and int()/float():
# it honours no quotes, and it skips the separators \x1c-\x1f as white space
_SCAN_ONLY = '"\x1c\x1d\x1e\x1f'


@dataclass(frozen=True)
class PriceSeries:
    """Strictly date-increasing positive price records."""

    dates: tuple[dt.date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.prices, dtype=np.float64)
        if len(self.dates) != arr.size:
            raise ValueError("dates and prices length mismatch")
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("prices must be positive and finite")
        days = np.fromiter(map(dt.date.toordinal, self.dates), np.int64, len(self.dates))
        if np.any(days[1:] <= days[:-1]):
            raise ValueError("dates must be strictly increasing")
        object.__setattr__(self, "prices", arr)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class QuantizerSpec:
    """Ternary quantizer threshold on the daily percent change."""

    threshold: float = 0.008

    def __post_init__(self) -> None:
        # written so that NaN fails
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")


def load_price_csv(path) -> PriceSeries:
    """Parse, sort, and validate a price CSV with date/adj_close columns."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        cols = {name.strip().lower(): i for i, name in enumerate(header)}
        if "date" not in cols or "adj_close" not in cols:
            raise ValueError(f"{path}: need 'date' and 'adj_close' columns")
        at_date, at_price = cols["date"], cols["adj_close"]
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                day = dt.date.fromisoformat(row[at_date].strip())
                price = float(row[at_price])
            except IndexError:
                field = "date" if len(row) <= at_date else "adj_close"
                raise ValueError(f"{path}:{reader.line_num}: no '{field}' field") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
            # written so that NaN fails
            if not 0.0 < price < math.inf:
                raise ValueError(
                    f"{path}:{reader.line_num}: price must be positive and finite, got {price}")
            rows.append((day, price))
    if not rows:
        raise ValueError(f"{path}: no price rows")
    rows.sort(key=lambda r: r[0])
    days, prices = zip(*rows)
    for d1, d2 in zip(days, days[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1}")
    return PriceSeries(days, np.array(prices))


def align_calendars(
    a: PriceSeries, b: PriceSeries
) -> tuple[PriceSeries, PriceSeries, dict]:
    """Align two markets on the union of days where at least one traded.

    Returns the two aligned series plus metadata recording interpolated and
    trimmed dates. Interpolation is linear in the price level over calendar
    days between a market's neighboring own quotes.
    """
    own = [np.array([d.toordinal() for d in s.dates], dtype=np.int64) for s in (a, b)]
    union = np.union1d(*own)
    lo, hi = max(o[0] for o in own), min(o[-1] for o in own)
    if lo > hi:
        raise ValueError("price series do not overlap in time")
    inside = (union >= lo) & (union <= hi)
    kept = union[inside]
    meta = {"trimmed": _iso(union[~inside])}
    filled = []
    for o, p, label in zip(own, (a.prices, b.prices), "ab"):
        # every kept day lies inside the market's span: a missing day has
        # an own quote on each side
        pos = np.searchsorted(o, kept)
        miss = o[pos] != kept
        right = pos[miss]
        left = right - 1
        frac = (kept[miss] - o[left]) / (o[right] - o[left])
        out = p[pos]
        out[miss] = p[left] + frac * (p[right] - p[left])
        meta[f"interpolated_{label}"] = _iso(kept[miss])
        filled.append(out)
    meta["interpolation"] = "linear on price level over calendar days"
    dates = tuple(map(dt.date.fromordinal, kept.tolist()))
    return PriceSeries(dates, filled[0]), PriceSeries(dates, filled[1]), meta


def _iso(ordinals: np.ndarray) -> list[str]:
    """ISO-8601 strings of proleptic Gregorian day ordinals."""
    return [dt.date.fromordinal(o).isoformat() for o in ordinals.tolist()]


def pct_change_quantize(series: PriceSeries, spec: QuantizerSpec = QuantizerSpec()) -> SymbolSeq:
    """Ternary symbols from daily percent changes: 0 below -threshold,
    2 above +threshold, else 1 (strict inequalities, so exact-threshold moves
    count as no significant change). Output is one shorter than the input."""
    if len(series) < 2:
        raise ValueError("need at least two prices")
    r = np.diff(series.prices) / series.prices[:-1]
    symbols = np.ones(r.size, dtype=np.int64)
    symbols[r < -spec.threshold] = 0
    symbols[r > spec.threshold] = 2
    return SymbolSeq(TERNARY, symbols)


def shift_for_market_order(
    follower: SymbolSeq, leader: SymbolSeq
) -> tuple[SymbolSeq, SymbolSeq]:
    """Lag the leader one extra step relative to the follower.

    Pairs follower[t+1] with leader[t]; use when the leader's session on a
    trading day closes before the follower's, so the natural previous-step
    conditioning has to reach one step further back. Output is one step
    shorter; applying the shift twice lags by two.
    """
    if len(follower) != len(leader):
        raise ValueError("sequences must have equal length")
    if len(follower) < 2:
        raise ValueError("need at least two symbols to shift")
    return follower[1:], leader[:-1]


def write_symbol_csv(
    fp: IO[str], seq: SymbolSeq, dates: Optional[Sequence[Union[dt.date, str]]] = None
) -> None:
    """Symbol CSV with a date column when dates (or their ISO strings) are
    supplied, else an index."""
    if dates is not None and len(dates) != len(seq):
        raise ValueError("dates and symbols length mismatch")
    fp.write("i,symbol\n" if dates is None else "date,symbol\n")
    keys = range(1, len(seq) + 1) if dates is None else dates
    # one % format per block of rows: few writes, and the strings held at once
    # stay within the file buffer's size however long the stream
    for lo in range(0, len(seq), _WRITE_BLOCK):
        hi = min(lo + _WRITE_BLOCK, len(seq))
        cells = [None] * (2 * (hi - lo))
        cells[::2] = keys[lo:hi]
        cells[1::2] = seq.data[lo:hi].tolist()
        fp.write("%s,%d\n" * (hi - lo) % tuple(cells))


def read_csv_column(path, name: str, kind: type) -> Optional[np.ndarray]:
    """Column `name` of a CSV as int64 (kind int) or float64 (kind float)
    values, or None when the header has no such column. The header is the
    first non-empty row; names compare case- and space-insensitively.

    numpy's C parser reads the body. A body it would read differently from
    csv and int()/float() (a quote, a separator \x1c-\x1f, non-ASCII text),
    or one it rejects, is read row by row instead: that scan gives the values,
    or the error at its physical line."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        header = [f.strip().lower() for f in next((r for r in reader if r), [])]
        if name not in header:
            return None
        col, start = header.index(name), reader.line_num
        body = fp.read()
    dtype = np.int64 if kind is int else np.float64
    if not body.strip("\r\n"):  # no rows; numpy would warn of an empty input
        return np.empty(0, dtype)
    if body.isascii() and not any(c in body for c in _SCAN_ONLY):
        try:
            # numpy 1.23-1.26 parse an integer field int() rejects ('1.7', 'nan',
            # 2**70) through float, truncate it and only warn; as an error the
            # warning makes loadtxt fail, and the scan below reports the row
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                return np.loadtxt(io.StringIO(body), delimiter=",", usecols=col,
                                  dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            pass
    rows = csv.reader(io.StringIO(body, newline=""))
    try:
        values = [kind(row[col]) for row in rows if row]
    except IndexError:
        raise ValueError(f"{path}:{start + rows.line_num}: a row has no '{name}' field") from None
    except ValueError as exc:
        raise ValueError(f"{path}:{start + rows.line_num}: {exc}") from None
    return np.array(values, dtype)


def read_symbol_csv(path, alphabet: Optional[Alphabet] = None) -> SymbolSeq:
    """Read the 'symbol' column; the alphabet is inferred from the data
    (at least binary) unless given."""
    symbols = read_csv_column(path, "symbol", int)
    if symbols is None:
        raise ValueError(f"{path}: need a 'symbol' column")
    if not symbols.size:
        raise ValueError(f"{path}: no symbols")
    if alphabet is None:
        alphabet = Alphabet(max(2, int(symbols.max()) + 1))
    try:
        return SymbolSeq(alphabet, symbols)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
